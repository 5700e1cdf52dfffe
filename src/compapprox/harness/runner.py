"""Experiment runner: drives the solver and diagnostics, writes artifacts.

Per experiment, three artifacts land under the output prefix:

* ``<prefix>_trace.csv``   one row per outer index of the solver trace
  (columns: nu, theta, lambda_final, inner_iters, res_u, res_v, res_w,
  res_combined, delta, phi_approx, phi_actual, exit_step);
* ``<prefix>_rates.csv``   per-index approximation diagnostics (columns: nu,
  parameter, excess_lower, excess_upper, paper_bound, eta0, eta,
  solution_error_bound);
* ``<prefix>_summary.json``  pass/fail per acceptance assertion with the
  measured values, plus machine-readable artifact checks that ``verify``
  re-executes from the CSV files.

Floats are rendered with 17 significant digits so reruns are byte-identical
and cross-implementation diffs are exact.

Exit status: 0 all assertions pass, 1 assertion failure, 2 nonconvergence
(partial artifacts retained), 3 input error.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pathlib

import numpy as np

from .. import consistency as cons
from ..epca import EpcaConfig, Stage, run_epca, solve_affine_composite
from ..errors import NonconvergenceError
from ..geometry import Box
from ..inner import (Activation, AffineMapping, NetworkForwardMapping,
                     QuadraticArrayMapping, resample)
from ..model import CompositeProblem, eval_phi, stationarity_residual
from ..outer import (AugLagrangianOuter, EqualityIndicatorOuter, ExactPenaltyOuter,
                     LinearOuter, softplus)
from ..rng import stream
from .config import ExperimentConfig
from .families import FAMILIES, build_stages
from .fixtures import fixture_document

TRACE_COLUMNS = ("nu", "theta", "lambda_final", "inner_iters", "res_u", "res_v",
                 "res_w", "res_combined", "delta", "phi_approx", "phi_actual",
                 "exit_step")
RATE_COLUMNS = ("nu", "parameter", "excess_lower", "excess_upper", "paper_bound",
                "eta0", "eta", "solution_error_bound")


def _fmt(value):
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def output_directory(override=None):
    if override is not None:
        return pathlib.Path(override)
    env = os.environ.get("COMPAPPROX_OUTPUT_DIR")
    return pathlib.Path(env) if env else pathlib.Path.cwd()


# ---------------------------------------------------------------------------
# assertions


def _assert_le(measured, threshold, **details):
    return {"pass": bool(measured <= threshold), "measured": float(measured),
            "threshold": float(threshold), "comparison": "le", "details": details}


def _assert_gt(measured, threshold, **details):
    return {"pass": bool(measured > threshold), "measured": float(measured),
            "threshold": float(threshold), "comparison": "gt", "details": details}


def _assert_within(measured, target, tol, **details):
    return {"pass": bool(abs(measured - target) <= tol), "measured": float(measured),
            "target": float(target), "threshold": float(tol),
            "comparison": "within", "details": details}


def _check_assertion(record):
    cmp = record["comparison"]
    if cmp == "le":
        return record["measured"] <= record["threshold"]
    if cmp == "gt":
        return record["measured"] > record["threshold"]
    if cmp == "within":
        return abs(record["measured"] - record["target"]) <= record["threshold"]
    raise ValueError(f"unknown comparison {cmp!r}")


# ---------------------------------------------------------------------------
# rates


def _rate_rows(cfg: ExperimentConfig, actual: CompositeProblem, stages):
    rate = FAMILIES[cfg.family["name"]].rate
    rho = cfg.diagnostics.rho
    rates = rate(stages, actual, rho, cfg.diagnostics.samples)
    rows = []
    for nu, (st, stage_rates) in enumerate(zip(stages, rates), start=1):
        lower, upper, paper_bound, eta0, eta = stage_rates
        ex_for_bound = upper if math.isfinite(upper) else 0.0
        bound = cons.solution_error_bound(eta0, eta, ex_for_bound, rho, actual.m)
        rows.append(cons.RateRow(nu, st.parameter, lower, upper, paper_bound,
                                 eta0, eta, bound))
    return rows


# ---------------------------------------------------------------------------
# fixture assertion builders (names map to acceptance criteria by prefix)


def _softplus_assertions(cfg, actual, stages, trace, rate_rows):
    out = {}
    # criterion 1: uniform bound on a dense grid, exact value at the origin
    gammas = np.linspace(-50.0, 50.0, 100001)
    worst = -math.inf
    center = -math.inf
    for theta in (1.0, 10.0, 100.0, 1e4):
        gap = np.abs(softplus(theta, gammas) - np.maximum(0.0, gammas))
        worst = max(worst, float(np.max(gap)) - math.log(2.0) / theta)
        center = max(center, abs(softplus(theta, 0.0) - math.log(2.0) / theta))
    out["criterion_01_softplus_uniform_bound"] = _assert_le(
        max(worst, center), 1e-12, grid="linspace(-50, 50, 100001)")
    # criterion 8: final triple against the actual goal outer function
    fin = trace.final()
    res = stationarity_residual(actual, fin.triple)
    ratio = max(res.u_norm / 1e-8, res.v_dist / 1e-6, res.w_dist / 1e-6)
    out["criterion_08_epca_softplus_goal"] = _assert_le(
        ratio, 1.0, u_norm=res.u_norm, v_dist=res.v_dist, w_dist=res.w_dist,
        x_final=fin.triple.x.tolist())
    checks = [{"kind": "slope", "file": "rates", "column": "excess_upper",
               "param": "parameter", "target": -0.5, "tol": 0.05}]
    return out, {}, checks


def _aug_lagrangian_assertions(cfg, actual, stages, trace, rate_rows):
    out = {}
    info = {}
    rho = 1.0
    thetas = [10.0 ** k for k in range(1, 7)]
    worst_ratio = 0.0
    for m in (2, 4):
        uppers = []
        for th in thetas:
            rep = cons.graph_excess_separable(AugLagrangianOuter(np.zeros(m - 1), th),
                                              EqualityIndicatorOuter(m), rho,
                                              samples=cfg.diagnostics.samples)
            bound = (2.0 * rho) * math.sqrt(m - 1) / th
            worst_ratio = max(worst_ratio, rep.certified_upper / (bound + 1e-12))
            uppers.append(rep.certified_upper)
        slope = cons.fit_loglog_slope(thetas, uppers)
        out[f"criterion_03_aug_lagrangian_excess.slope_m{m}"] = _assert_within(
            slope, -1.0, 0.05, thetas=thetas, certified=uppers)
    out["criterion_03_aug_lagrangian_excess.bound"] = _assert_le(worst_ratio, 1.0)
    # near-solution transfer at theta = 1e3 against the certified graph excess
    th = 1e3
    stage = next((s for s in stages if abs(s.parameter - th) < 1e-9), None)
    if stage is not None:
        entry = next(e for e in trace.entries if abs(e.parameter - th) < 1e-9)
        rho_t = max(6.0, entry.triple.inner_norm() + 1.0)
        rep = cons.graph_excess_separable(stage.h, actual.h, rho_t)
        transfer = cons.near_solution_transfer(
            [(entry.triple, entry.delta)], actual, rho_t, rep.certified_upper,
            grid_resolution=1e-3)
        row = transfer.rows[0]
        info["transfer_theta_1e3"] = {
            "displacement": row.displacement, "bound": rep.certified_upper,
            "passed": row.passed, "counterexample": row.counterexample}
    checks = [{"kind": "slope", "file": "rates", "column": "excess_upper",
               "param": "parameter", "target": -1.0, "tol": 0.05},
              {"kind": "column_le_column", "file": "rates", "column": "excess_upper",
               "rhs": "paper_bound", "slack": 1e-12}]
    return out, info, checks


def _grid_1d(lo, hi, res):
    # integer-anchored so that round multiples of res are hit exactly
    return np.arange(int(round(lo / res)), int(round(hi / res)) + 1) * res


def _quad_penalty_assertions(cfg, actual, stages, trace, rate_rows):
    res = cfg.diagnostics.grid_resolution
    X = actual.X
    grid = _grid_1d(X.lower[0], X.upper[0], res)
    P = grid[:, None]
    phi = np.where(X.contains_batch(P), actual.h.value_batch(actual.F.eval_batch(P)),
                   math.inf)
    actual_arg = grid[int(np.argmin(phi))]
    worst = 0.0
    for st in stages:
        if st.parameter < 1e4:
            continue
        vals = st.h.value_batch(st.F.eval_batch(P))
        approx_arg = grid[int(np.argmin(vals))]
        worst = max(worst, abs(approx_arg - actual_arg))
    out = {"criterion_10_quad_penalty_epi": _assert_le(
        worst, 2.0 * res, actual_grid_minimizer=float(actual_arg))}
    # epi probe at an infeasible point: values must diverge with the schedule
    evaluators = [(lambda x, s=s: s.h.value(s.F.eval(x))) for s in stages]
    probe = cons.epi_probe(evaluators, lambda x: eval_phi(actual, x),
                           [np.array([1.5])], tol=cfg.diagnostics.probe_tolerance)
    info = {"epi_probe_infeasible": {"passed": probe.passed,
                                     "values": list(probe.rows[0].approx_values)}}
    return out, info, []


def _exact_penalty_assertions(cfg, actual, stages, trace, rate_rows):
    out = {}
    rho = cfg.diagnostics.rho
    zero_worst = 0.0
    positive = math.inf
    for st, row in zip(stages, rate_rows):
        if st.parameter >= 2.0 * rho:
            zero_worst = max(zero_worst, row.excess_lower, row.excess_upper)
        if st.parameter == 1.0:
            positive = row.excess_lower
    out["criterion_04_exact_penalty_exactness.zero_for_theta_ge_2rho"] = _assert_le(
        zero_worst, 0.0, rho=rho)
    out["criterion_04_exact_penalty_exactness.positive_at_theta_1"] = _assert_gt(
        positive, 0.0)
    checks = [{"kind": "column_zero_when_param_ge", "file": "rates",
               "column": "excess_upper", "param_threshold": 2.0 * rho},
              {"kind": "column_zero_when_param_ge", "file": "rates",
               "column": "excess_lower", "param_threshold": 2.0 * rho}]
    return out, {}, checks


def _log_barrier_assertions(cfg, actual, stages, trace, rate_rows):
    # no closed-form rate in the source material: probe + multiplier checks only
    evaluators = [(lambda x, s=s: s.h.value(s.F.eval(x))) for s in stages]
    thetas = [s.parameter for s in stages]
    # approach the active boundary along interior points z_2 = -1/theta, which
    # stay clear of the barrier's strict-interior margin at every theta here
    boundary = np.array([1.0])
    paths = [[np.array([1.0 - 1.0 / th]) for th in thetas]]
    probe = cons.epi_probe(evaluators, lambda x: eval_phi(actual, x), [boundary],
                           paths=paths, tol=cfg.diagnostics.probe_tolerance)
    fin = trace.final()
    mult_gap = abs(fin.triple.y[1] - 1.0)
    info = {"epi_probe_interior_paths": {
                "passed": probe.passed,
                "liminf_deficit": probe.rows[0].liminf_deficit,
                "limsup_deficit": probe.rows[0].limsup_deficit},
            "multiplier_gap": mult_gap,
            "x_final": fin.triple.x.tolist()}
    return {}, info, []


def _homotopy_assertions(cfg, actual, stages, trace, rate_rows):
    worst = 0.0
    details = {}
    for lam in (0.5, 0.1, 0.01):
        rep = cons.homotopy_graph_excess(LinearOuter([1.0]), lam, 1.0,
                                         samples=cfg.diagnostics.samples)
        ratio = rep.measured_lower / (rep.paper_bound + 1e-10)
        details[str(lam)] = {"measured": rep.measured_lower, "bound": rep.paper_bound}
        worst = max(worst, ratio)
    out = {"criterion_05_homotopy_excess": _assert_le(worst, 1.0, **details)}
    checks = [{"kind": "column_le_column", "file": "rates", "column": "excess_lower",
               "rhs": "paper_bound", "slack": 1e-10}]
    return out, {}, checks


def _dr_assertions(cfg, actual, stages, trace, rate_rows):
    rho = cfg.diagnostics.rho
    worst = 0.0
    gaps = []
    alphas = []
    for st in stages:
        gap = cons.uniform_outer_gap(st.h, actual.h, rho, cfg.diagnostics.samples)
        alpha = cons.support_set_excess(actual.h.points, st.h.points)
        worst = max(worst, gap / (rho * alpha + 1e-12))
        gaps.append(gap)
        alphas.append(alpha)
    out = {"criterion_06_distributionally_robust_rate.gap_bound": _assert_le(
        worst, 1.0, gaps=gaps, alphas=alphas)}
    slope = cons.fit_loglog_slope(alphas, [math.sqrt(g) for g in gaps])
    out["criterion_06_distributionally_robust_rate.sqrt_slope"] = _assert_within(
        slope, 0.5, 0.1, alphas=alphas)
    checks = [{"kind": "slope", "file": "rates", "column": "excess_lower",
               "param": "parameter", "target": 0.5, "tol": 0.1}]
    return out, {}, checks


def _min_smoothing_assertions(cfg, actual, stages, trace, rate_rows):
    rng = stream(cfg.seed, "acceptance", "min-smoothing-sandwich")
    worst = -math.inf
    class_gap = 0.0
    for sys_idx in range(100):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.5, 50.0))
        Qs = []
        for _ in range(s):
            M = rng.normal(size=(n, n))
            Qs.append(M + M.T)
        qs = rng.normal(size=(s, n))
        cs = rng.normal(size=s)
        Xs = rng.normal(scale=2.0, size=(1000, n))
        vals = np.stack([0.5 * np.einsum("bi,ij,bj->b", Xs, Q, Xs) + Xs @ q + c
                         for Q, q, c in zip(Qs, qs, cs)])           # (s, 1000)
        fmin = vals.min(axis=0)
        fsm = fmin - np.log(np.exp(-theta * (vals - fmin)).sum(axis=0)) / theta
        diff = fmin - fsm
        worst = max(worst, float(np.max(diff - math.log(s) / theta)),
                    float(np.max(-diff)))
        if sys_idx < 5:
            from ..inner import MinSmoothMapping
            pieces = [[(Q, q, float(c)) for Q, q, c in zip(Qs, qs, cs)]]
            F_exact = MinSmoothMapping(pieces, None)
            F_sm = F_exact.with_theta(theta)
            for j in range(20):
                x = Xs[j]
                class_gap = max(class_gap, abs(float(F_exact.eval(x)[0]) - float(fmin[j])),
                                abs(float(F_sm.eval(x)[0]) - float(fsm[j])))
    out = {"criterion_02_min_smoothing_sandwich": _assert_le(
        worst, 1e-10, systems=100, points_per_system=1000,
        class_agreement_gap=class_gap)}
    return out, {}, []


def _sample_average_assertions(cfg, actual, stages, trace, rate_rows):
    base, twin = resample(cfg.F, 64, cfg.seed), resample(cfg.F, 64, cfg.seed)
    rng = stream(cfg.seed, "acceptance", "sample-average-determinism")
    xs = rng.normal(size=(100, base.n))
    gap = max(float(np.max(np.abs(base.eval(x) - twin.eval(x)))) for x in xs)
    out = {"criterion_12_property_suites.sample_average_determinism": _assert_le(
        gap, 0.0, evaluations=100)}
    # variance decay across seeds: O(1/nu) up to sampling noise
    x_probe = np.ones(base.n)
    variances = {}
    for count in (4, 256):
        vals = []
        for k in range(64):
            seed = int(stream(cfg.seed, "variance-probe", str(count), str(k)).integers(2**62))
            vals.append(float(resample(cfg.F, count, seed).eval(x_probe)[0]))
        variances[count] = float(np.var(vals))
    ratio = variances[4] / max(variances[256], 1e-300)
    info = {"variance_ratio_4_vs_256": ratio, "variances": variances}
    return out, info, []


def _network_assertions(cfg, actual, stages, trace, rate_rows):
    out = {}
    rng = stream(cfg.seed, "acceptance", "network-lift")
    from ..inner import build_network_lift
    from ..outer import SquaredErrorOuter
    worst_h = 0.0
    for _ in range(10):
        widths = [int(rng.integers(1, 9)) for _ in range(3)]
        weights = []
        biases = []
        for k in range(2):
            weights.append(rng.normal(size=(widths[k + 1], widths[k])))
            biases.append(rng.normal(size=widths[k + 1]))
        for act in (Activation("relu"), Activation("softplus", 8.0)):
            lift = build_network_lift(weights, biases, act,
                                      SquaredErrorOuter(np.zeros(widths[-1])))
            x0 = rng.normal(size=widths[0])
            lifted = lift.lift_point(x0)
            Fx = lift.mapping.eval(lifted)
            worst_h = max(worst_h, float(np.max(np.abs(Fx[widths[-1]:]))))
            direct = NetworkForwardMapping([(weights, biases)], act).eval(x0)
            worst_h = max(worst_h, float(np.max(np.abs(Fx[:widths[-1]] - direct))))
    out["criterion_11_network_lift.feasibility"] = _assert_le(worst_h, 1e-12, nets=10)
    # per-neuron softplus-vs-relu gap against (ln 2)/theta
    gammas = np.linspace(-30.0, 30.0, 4001)
    worst_gap = -math.inf
    for st in stages:
        th = st.parameter
        gap = np.max(np.abs(softplus(th, gammas) - np.maximum(0.0, gammas)))
        worst_gap = max(worst_gap, float(gap) - math.log(2.0) / th)
    out["criterion_11_network_lift.neuron_gap"] = _assert_le(worst_gap, 1e-15)
    # monotone decrease of the inversion objective across accepted inner steps
    worst_rise = 0.0
    for entry in trace.entries:
        path = entry.objective_path
        for a, b in zip(path, path[1:]):
            worst_rise = max(worst_rise, b - a - 1e-12 * (1.0 + abs(a)))
    out["criterion_11_network_lift.monotone_objective"] = _assert_le(worst_rise, 0.0)
    fin = trace.final()
    info = {"final_input": fin.triple.x.tolist(),
            "final_actual_mismatch": float(eval_phi(actual, fin.triple.x)),
            "weight_perturbation_gaps": _weight_perturbation_gaps(cfg)}
    return out, info, []


def _weight_perturbation_gaps(cfg):
    # A^nu -> A convergence probe: forward gap under a 1/nu weight perturbation
    spec = cfg.problem["inner"]["networks"][0]
    weights = [np.asarray(w, dtype=float) for w in spec["weights"]]
    biases = [np.asarray(b, dtype=float) for b in spec["biases"]]
    act = Activation("relu")
    ref = NetworkForwardMapping([(weights, biases)], act)
    rng = stream(cfg.seed, "weight-perturbation")
    dirs = [rng.normal(size=w.shape) for w in weights]
    xs = rng.normal(size=(25, ref.n))
    gaps = []
    for nu in (1, 2, 4, 8, 16, 32):
        wp = [w + d / nu for w, d in zip(weights, dirs)]
        pert = NetworkForwardMapping([(wp, biases)], act)
        gaps.append(max(float(np.linalg.norm(pert.eval(x) - ref.eval(x))) for x in xs))
    return gaps


def _convex_sanity_assertions(cfg, actual, stages, trace, rate_rows):
    out = {}
    # criterion 9: EPCA limit vs direct splitting solve on three convex instances
    instances = []
    instances.append((actual.X, actual.h, actual.F.A, actual.F.b, cfg.epca["x0"]))
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    instances.append((Box([-1.0, -1.0], [1.0, 1.0]), ExactPenaltyOuter(3.0, 2),
                      A, np.zeros(2), [0.5, -0.25]))
    instances.append((Box([-1.0], [3.0]), LinearOuter([1.0]),
                      np.array([[1.0]]), np.zeros(1), [2.0]))
    worst = 0.0
    for X, h, Amat, b, x0 in instances:
        direct = solve_affine_composite(X, h, Amat, b, tol=1e-9)
        F = AffineMapping(Amat, b)
        stages_i = [Stage(X, h, F, parameter=float(k + 1)) for k in range(4)]
        ecfg = EpcaConfig(x0=np.asarray(x0, dtype=float), tau=2.0, sigma=0.5,
                          lam_bar=1.0, lam0=1.0,
                          delta_schedule=tuple(1e-7 * 0.5**k for k in range(4)))
        tr = run_epca(stages_i, ecfg)
        worst = max(worst, float(np.linalg.norm(tr.final().triple.x - direct.x)))
    out["criterion_09_convex_sanity_oracle"] = _assert_le(worst, 1e-6, instances=3)

    # criterion 7: the quadratic proximal-composite demo with a grid oracle
    h = LinearOuter([1.0])
    F = QuadraticArrayMapping([([[2.0]], [-2.0], 1.0)])
    X = Box([-1.0], [3.0])
    demo_stages = [Stage(X, h, F, parameter=float(k + 1)) for k in range(20)]
    dcfg = EpcaConfig(x0=np.array([-1.0]), tau=2.0, sigma=0.5, lam_bar=1.0,
                      lam0=1.0, delta_schedule=tuple(2.0**-k for k in range(1, 21)))
    demo = run_epca(demo_stages, dcfg)
    grid = np.arange(-1.0, 3.0 + 5e-5, 1e-4)
    vals = (grid - 1.0) ** 2
    oracle = grid[int(np.argmin(vals))]
    fin = demo.final()
    out["criterion_07_epca_quadratic_demo.final_error"] = _assert_le(
        abs(float(fin.triple.x[0]) - 1.0), 1e-4, grid_oracle=float(oracle))
    worst_cert = 0.0
    for e in demo.entries:
        allowed = e.delta * (1.0 + dcfg.subproblem_tolerance_factor) + 1e-10
        worst_cert = max(worst_cert, e.residual.combined / allowed)
    out["criterion_07_epca_quadratic_demo.certified"] = _assert_le(worst_cert, 1.0)
    return out, {}, []


_ASSERTION_BUILDERS = {
    "goal_softplus": _softplus_assertions,
    "aug_lagrangian": _aug_lagrangian_assertions,
    "quad_penalty": _quad_penalty_assertions,
    "exact_penalty": _exact_penalty_assertions,
    "log_barrier": _log_barrier_assertions,
    "homotopy": _homotopy_assertions,
    "distributionally_robust": _dr_assertions,
    "min_smoothing": _min_smoothing_assertions,
    "sample_average": _sample_average_assertions,
    "network_inverse": _network_assertions,
    "convex_sanity": _convex_sanity_assertions,
}


def _assertion_builder(cfg: ExperimentConfig):
    """The builder of the bundled fixture ``cfg`` reproduces, else None.

    The fixture checks read fixture constants, so they run only when the
    config's seed, problem, family, epca and diagnostics equal the bundled
    document of that name.
    """
    builder = _ASSERTION_BUILDERS.get(cfg.name)
    if builder is None:
        return None
    doc = fixture_document(cfg.name)
    keys = ("seed", "problem", "family", "epca", "diagnostics")
    return builder if all(cfg.raw.get(k) == doc.get(k) for k in keys) else None


# ---------------------------------------------------------------------------
# the runner


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> int:
    prefix = output_directory(output_dir) / cfg.output
    prefix.parent.mkdir(parents=True, exist_ok=True)

    actual, stages = build_stages(cfg)
    ecfg = cfg.epca_config()
    status = 0
    try:
        trace = run_epca(stages, ecfg)
    except NonconvergenceError as err:
        print(f"{cfg.name}: {err}")
        trace = err.partial_trace
        status = 2

    trace_rows = []
    for entry in trace.entries:
        r = entry.residual
        trace_rows.append((entry.nu, entry.parameter, entry.lam_final,
                           entry.inner_iterations, r.u_norm, r.v_dist, r.w_dist,
                           r.combined, entry.delta, entry.objective,
                           eval_phi(actual, entry.triple.x), entry.exit))
    _write_csv(f"{prefix}_trace.csv", TRACE_COLUMNS, trace_rows)

    rate_rows = _rate_rows(cfg, actual, stages)
    _write_csv(f"{prefix}_rates.csv", RATE_COLUMNS,
               [(r.nu, r.parameter, r.excess_lower, r.excess_upper, r.paper_bound,
                 r.eta0, r.eta, r.solution_error_bound) for r in rate_rows])

    assertions, info, checks = {}, {}, []
    builder = _assertion_builder(cfg) if status != 2 else None
    if builder is not None:
        assertions, info, checks = builder(cfg, actual, stages, trace, rate_rows)
    checks = [{"kind": "trace_certified",
               "slack_factor": 1.0 + ecfg.subproblem_tolerance_factor,
               "abs_slack": 1e-10}] + checks

    # theorem-level value property when the actual objective is finite
    fin = trace.final() if trace.entries else None
    if fin is not None:
        phi_act = eval_phi(actual, fin.triple.x)
        if math.isfinite(phi_act):
            running_min = min(e.objective for e in trace.entries)
            info["value_consistency"] = {
                "phi_actual_final": phi_act,
                "min_approx_objective": running_min,
                "holds": bool(phi_act <= running_min + 1e-6)}

    summary = {
        "name": cfg.name,
        "seed": cfg.seed,
        "status": "nonconvergence" if status == 2 else "complete",
        "assertions": assertions,
        "info": info,
        "artifact_checks": checks,
        # relative to the summary, which sits beside them
        "artifacts": {"trace": f"{prefix.name}_trace.csv",
                      "rates": f"{prefix.name}_rates.csv"},
    }
    with open(f"{prefix}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")

    if status == 0 and any(not a["pass"] for a in assertions.values()):
        status = 1
    return status


# ---------------------------------------------------------------------------
# verification from stored artifacts


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, line)) for line in reader]
    return rows


def _run_artifact_check(check, tables):
    kind = check["kind"]
    if kind == "trace_certified":
        for row in tables["trace"]:
            allowed = (float(row["delta"]) * check["slack_factor"]
                       + check["abs_slack"])
            if float(row["res_combined"]) > allowed:
                return False, f"trace row nu={row['nu']} not certified"
        return True, ""
    rows = tables[check["file"]]
    if kind == "slope":
        params = [float(r[check["param"]]) for r in rows]
        vals = [float(r[check["column"]]) for r in rows]
        slope = cons.fit_loglog_slope(params, vals)
        ok = abs(slope - check["target"]) <= check["tol"]
        return ok, f"slope {slope:.4f} vs target {check['target']}"
    if kind == "column_le_column":
        for r in rows:
            lhs, rhs = float(r[check["column"]]), float(r[check["rhs"]])
            if math.isnan(rhs):
                continue
            if lhs > rhs + check["slack"]:
                return False, f"{check['column']} exceeds {check['rhs']} at nu={r['nu']}"
        return True, ""
    if kind == "column_zero_when_param_ge":
        for r in rows:
            if float(r["parameter"]) >= check["param_threshold"]:
                if float(r[check["column"]]) != 0.0:
                    return False, f"{check['column']} nonzero at nu={r['nu']}"
        return True, ""
    return False, f"unknown check kind {kind!r}"


def verify_summary(summary_path) -> int:
    """Re-check a summary against its stored artifacts.

    0 ok, 1 mismatch, 2 the summary records an incomplete run (for example
    nonconvergence), 3 the summary or its artifacts cannot be loaded, or a
    field that the checks read is missing or malformed.
    """
    summary_path = pathlib.Path(summary_path)
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        base = summary_path.parent
        tables = {key: _read_csv(base / rel)
                  for key, rel in summary["artifacts"].items()}
        return _verify_loaded(summary, tables)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers invalid JSON and non-numeric fields
        print(f"verify: cannot check {summary_path.name}: {type(exc).__name__}: {exc}")
        return 3


def _verify_loaded(summary, tables) -> int:
    """verify_summary once the summary and its tables are loaded."""
    name = summary["name"]
    status = summary.get("status")
    if status != "complete":
        print(f"verify: {name}: summary status is {status!r}, not 'complete'")
        return 2
    failures = []
    for key, record in summary.get("assertions", {}).items():
        recomputed = _check_assertion(record)
        if recomputed != record["pass"]:
            failures.append(f"assertion {key}: stored pass={record['pass']} "
                            f"but fields give {recomputed}")
        if not record["pass"]:
            failures.append(f"assertion {key} is failing")
    for check in summary.get("artifact_checks", []):
        ok, msg = _run_artifact_check(check, tables)
        if not ok:
            failures.append(f"artifact check {check['kind']}: {msg}")
    for line in failures:
        print(f"verify: {line}")
    print(f"verify: {name}: "
          f"{'FAIL' if failures else 'OK'} ({len(summary.get('assertions', {}))} assertions, "
          f"{len(summary.get('artifact_checks', []))} artifact checks)")
    return 1 if failures else 0
