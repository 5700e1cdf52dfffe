"""Acceptance suite: every criterion at its stated tolerance.

Each test computes its criterion from scratch (independent oracles included)
and prints one pass/fail line; stated runtime budgets are enforced with a
wall-clock check around the relevant computation.
"""

import math
import time

import numpy as np

from compapprox.consistency import (fit_loglog_slope, graph_excess_separable,
                                    homotopy_graph_excess, support_set_excess,
                                    uniform_outer_gap)
from compapprox.epca import EpcaConfig, Stage, run_epca, solve_affine_composite
from compapprox.errors import CapabilityError
from compapprox.geometry import Box
from compapprox.inner import (Activation, AffineMapping, NetworkForwardMapping,
                              QuadraticArrayMapping, SampleAverageMapping,
                              build_network_lift)
from compapprox.model import CompositeProblem, stationarity_residual
from compapprox.outer import (AugLagrangianOuter, EqualityIndicatorOuter,
                              ExactPenaltyOuter, GoalOuter,
                              InequalityIndicatorOuter, LinearOuter,
                              QuadPenaltyOuter, SoftplusGoalOuter,
                              SquaredErrorOuter, SupportOuter, clip_graph, softplus)
from compapprox.harness.families import perturb_support_points
from compapprox.rng import stream


def _report(number, label, passed):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {label}")
    assert passed, f"criterion {number:02d}: {label}"


def test_criterion_01_softplus_uniform_bound():
    start = time.perf_counter()
    gammas = np.linspace(-50.0, 50.0, 100001)
    ok = True
    for theta in (1.0, 10.0, 100.0, 1e4):
        gap = np.abs(softplus(theta, gammas) - np.maximum(0.0, gammas))
        ok = ok and float(np.max(gap)) <= math.log(2.0) / theta + 1e-12
        ok = ok and abs(softplus(theta, 0.0) - math.log(2.0) / theta) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(1, f"softplus uniform bound (elapsed {elapsed:.2f}s)",
            ok and elapsed < 1.0)


def test_criterion_02_min_smoothing_sandwich():
    start = time.perf_counter()
    rng = stream(20260811, "acceptance", "criterion-02")
    worst = -math.inf
    for _ in range(100):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.5, 50.0))
        Qs = [(lambda M: M + M.T)(rng.normal(size=(n, n))) for _ in range(s)]
        qs = rng.normal(size=(s, n))
        cs = rng.normal(size=s)
        X = rng.normal(scale=2.0, size=(1000, n))
        vals = np.stack([0.5 * np.einsum("bi,ij,bj->b", X, Q, X) + X @ q + c
                         for Q, q, c in zip(Qs, qs, cs)])
        fmin = vals.min(axis=0)
        fsm = fmin - np.log(np.exp(-theta * (vals - fmin)).sum(axis=0)) / theta
        diff = fmin - fsm
        worst = max(worst, float(np.max(diff - math.log(s) / theta)),
                    float(np.max(-diff)))
    elapsed = time.perf_counter() - start
    _report(2, f"min-smoothing sandwich, worst violation {worst:.2e} "
               f"(elapsed {elapsed:.2f}s)", worst <= 1e-10 and elapsed < 5.0)


def test_criterion_03_aug_lagrangian_excess():
    rho = 1.0
    thetas = [10.0**k for k in range(1, 7)]
    ok = True
    for m in (2, 4):
        uppers = []
        for th in thetas:
            rep = graph_excess_separable(AugLagrangianOuter(np.zeros(m - 1), th),
                                         EqualityIndicatorOuter(m), rho)
            bound = (2.0 * rho + 0.0) * math.sqrt(m - 1) / th
            ok = ok and rep.certified_upper <= bound + 1e-12
            uppers.append(rep.certified_upper)
        slope = fit_loglog_slope(thetas, uppers)
        ok = ok and abs(slope + 1.0) <= 0.05
    _report(3, "augmented-Lagrangian excess bound and -1 slope", ok)


def test_criterion_04_exact_penalty_exactness():
    rho = 2.0
    ok = True
    for th in (4.0, 5.0, 8.0, 16.0, 64.0, 1024.0):
        rep = graph_excess_separable(ExactPenaltyOuter(th, 2),
                                     EqualityIndicatorOuter(2), rho)
        ok = ok and rep.measured_lower == 0.0 and rep.certified_upper == 0.0
    rep = graph_excess_separable(ExactPenaltyOuter(1.0, 2),
                                 EqualityIndicatorOuter(2), rho)
    ok = ok and rep.measured_lower > 0.0
    _report(4, "exact-penalty exactness at theta >= 2 rho, positive at theta = 1", ok)


def test_criterion_05_homotopy_excess():
    ok = True
    for lam in (0.5, 0.1, 0.01):
        rep = homotopy_graph_excess(LinearOuter([1.0]), lam, 1.0)
        beta = math.sqrt(1.0 + (4.0 - lam**2) / (1.0 - lam) ** 2)
        ok = ok and rep.measured_lower <= beta * lam + 1e-10
    _report(5, "homotopy excess within beta*lambda", ok)


def test_criterion_06_distributionally_robust_rate():
    rho = 1.0
    A = SupportOuter([[1.0, 0.0], [0.0, 1.0]])
    ok = True
    alphas, proxies = [], []
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        Ap = SupportOuter(perturb_support_points(A.points, alpha))
        a_nu = support_set_excess(A.points, Ap.points)
        gap = uniform_outer_gap(A, Ap, rho, samples=2000)
        ok = ok and gap <= rho * a_nu + 1e-12
        alphas.append(a_nu)
        proxies.append(math.sqrt(gap))
    slope = fit_loglog_slope(alphas, proxies)
    ok = ok and abs(slope - 0.5) <= 0.1
    _report(6, f"distributionally-robust gap bound and sqrt slope ({slope:.3f})", ok)


def test_criterion_07_epca_quadratic_demo():
    start = time.perf_counter()
    h = LinearOuter([1.0])
    F = QuadraticArrayMapping([([[2.0]], [-2.0], 1.0)])
    X = Box([-1.0], [3.0])
    stages = [Stage(X, h, F, parameter=float(k)) for k in range(1, 21)]
    cfg = EpcaConfig(x0=np.array([-1.0]), tau=2.0, sigma=0.5, lam_bar=1.0,
                     lam0=1.0, delta_schedule=tuple(2.0**-k for k in range(1, 21)))
    trace = run_epca(stages, cfg)
    elapsed = time.perf_counter() - start
    grid = np.arange(-10000, 30001) * 1e-4
    oracle = grid[int(np.argmin((grid - 1.0) ** 2))]
    fin = trace.final()
    ok = abs(fin.triple.x[0] - 1.0) <= 1e-4 and abs(oracle - 1.0) <= 1e-4
    for e in trace.entries:
        ok = ok and e.residual.combined <= e.delta * 1.1 + 1e-10
    _report(7, f"EPCA quadratic demo (elapsed {elapsed:.2f}s)",
            ok and elapsed < 2.0)


def test_criterion_08_epca_softplus_goal():
    start = time.perf_counter()
    alpha, tau = np.array([1.0]), np.array([1.0])
    actual_h = GoalOuter(alpha, tau)
    F = QuadraticArrayMapping([([[2.0]], [0.0], 0.0)])
    X = Box([-5.0], [5.0])
    stages = [Stage(X, SoftplusGoalOuter(alpha, tau, 2.0**k), F, parameter=2.0**k)
              for k in range(1, 21)]
    cfg = EpcaConfig(x0=np.array([3.0]), tau=2.0, sigma=0.5, lam_bar=1.0,
                     lam0=1.0,
                     delta_schedule=tuple(5e-5 * 0.5**k for k in range(20)))
    trace = run_epca(stages, cfg)
    elapsed = time.perf_counter() - start
    actual = CompositeProblem(X, actual_h, F)
    res = stationarity_residual(actual, trace.final().triple)
    ok = (res.u_norm <= 1e-8 and res.v_dist <= 1e-6 and res.w_dist <= 1e-6)
    _report(8, f"EPCA softplus-goal residuals vs actual goal h "
               f"(u={res.u_norm:.1e}, v={res.v_dist:.1e}, w={res.w_dist:.1e}, "
               f"elapsed {elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_09_convex_sanity_oracle():
    ok = True
    instances = [
        (Box([0.0, 0.0], [2.0, 2.0]), GoalOuter([1.0, 1.0], [0.0, 0.0]),
         np.eye(2), np.zeros(2), [1.5, 1.0]),
        (Box([-1.0, -1.0], [1.0, 1.0]), ExactPenaltyOuter(3.0, 2),
         np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), [0.5, -0.25]),
        (Box([-1.0], [3.0]), LinearOuter([1.0]), np.array([[1.0]]),
         np.zeros(1), [2.0]),
    ]
    for X, h, A, b, x0 in instances:
        direct = solve_affine_composite(X, h, A, b, tol=1e-9)
        F = AffineMapping(A, b)
        stages = [Stage(X, h, F, parameter=float(k + 1)) for k in range(4)]
        cfg = EpcaConfig(x0=np.asarray(x0, dtype=float), tau=2.0, sigma=0.5,
                         lam_bar=1.0, lam0=1.0,
                         delta_schedule=tuple(1e-7 * 0.5**k for k in range(4)))
        trace = run_epca(stages, cfg)
        ok = ok and float(np.linalg.norm(trace.final().triple.x - direct.x)) <= 1e-6
    _report(9, "EPCA matches the direct splitting solve on convex instances", ok)


def test_criterion_10_quad_penalty_epi_consequence():
    # equality constraint x = 1/2 written as an inequality pair
    A = np.array([[1.0], [1.0], [-1.0]])
    b = np.array([0.0, -0.5, 0.5])
    F = AffineMapping(A, b)
    actual = CompositeProblem(Box([-2.0], [2.0]), InequalityIndicatorOuter(3), F)
    grid = np.arange(-2000, 2001) * 1e-3
    phi = np.array([actual.h.value(F.eval(np.array([g]))) for g in grid])
    actual_arg = grid[int(np.argmin(phi))]
    ok = True
    for th in (1e4, 1e5, 1e6):
        h_nu = QuadPenaltyOuter(th, 3)
        vals = np.array([h_nu.value(F.eval(np.array([g]))) for g in grid])
        approx_arg = grid[int(np.argmin(vals))]
        ok = ok and abs(approx_arg - actual_arg) <= 2e-3
    _report(10, "quad-penalty grid minimizers converge to the actual one", ok)


def test_criterion_11_network_lift():
    rng = stream(20260811, "acceptance", "criterion-11")
    ok = True
    # (a) forward-pass lift feasibility on random 2-layer networks
    for _ in range(10):
        widths = [int(rng.integers(1, 9)) for _ in range(3)]
        weights = [rng.normal(size=(widths[1], widths[0])),
                   rng.normal(size=(widths[2], widths[1]))]
        biases = [rng.normal(size=widths[1]), rng.normal(size=widths[2])]
        for act in (Activation("relu"), Activation("softplus", 16.0)):
            lift = build_network_lift(weights, biases, act,
                                      SquaredErrorOuter(np.zeros(widths[-1])))
            x = lift.lift_point(rng.normal(size=widths[0]))
            H = lift.mapping.eval(x)[widths[-1]:]
            ok = ok and float(np.max(np.abs(H))) <= 1e-12
    # (b) per-neuron softplus-vs-relu bound
    gammas = np.linspace(-40.0, 40.0, 8001)
    for theta in (4.0, 64.0, 1024.0):
        gap = np.max(np.abs(softplus(theta, gammas) - np.maximum(0.0, gammas)))
        ok = ok and float(gap) <= math.log(2.0) / theta + 1e-15
    # (c) EPCA on a 1-network inversion decreases the fit monotonically
    W1 = np.array([[-1.0156, -0.513], [-0.7503, 0.0549], [-0.2199, 0.1732]])
    b1 = np.array([-0.0658, -0.3223, 0.2887])
    W2 = np.array([[-0.6807, -0.5666, -0.8817], [-0.27, -0.6979, -0.3299]])
    b2 = np.array([-0.3639, 0.6363])
    target = NetworkForwardMapping([([W1, W2], [b1, b2])],
                                   Activation("relu")).eval(np.array([0.7, -0.4]))
    h = SquaredErrorOuter(target)
    X = Box([-2.0, -2.0], [2.0, 2.0])
    stages = [Stage(X, h, NetworkForwardMapping([([W1, W2], [b1, b2])],
                                                Activation("softplus", 4.0 * 2.0**k)),
                    parameter=4.0 * 2.0**k) for k in range(8)]
    cfg = EpcaConfig(x0=np.zeros(2), tau=2.0, sigma=0.5, lam_bar=1.0, lam0=1.0,
                     delta_schedule=tuple(1e-2 * 0.5**k for k in range(8)))
    trace = run_epca(stages, cfg)
    for e in trace.entries:
        for a, b in zip(e.objective_path, e.objective_path[1:]):
            ok = ok and b <= a + 1e-12 * (1.0 + abs(a))
    _report(11, "network lift feasibility, neuron gap, monotone inversion", ok)


def test_criterion_12_property_suites(tmp_path):
    from compapprox.harness.fixtures import fixture_config
    from compapprox.harness.runner import run_experiment
    from test_outer import catalogue, check_midpoint_convexity, point_at

    violations = []
    rng = stream(20260811, "acceptance", "criterion-12")

    # subgradient inequality across the catalogue
    for h in catalogue():
        for _ in range(20):
            z, zp = h.sample_domain_point(rng), h.sample_domain_point(rng)
            vz, vzp = h.value(z), h.value(zp)
            if math.isinf(vz) or math.isinf(vzp) or not h.separable:
                continue
            ivs = [h.subdiff_1d(i, float(z[i])) for i in range(h.m)]
            if any(iv is None or math.isinf(iv[0]) or math.isinf(iv[1]) for iv in ivs):
                continue
            for v in (np.array([iv[0] for iv in ivs]),
                      np.array([iv[1] for iv in ivs])):
                if vzp < vz + float(v @ (zp - z)) - 1e-9 * (1 + abs(vz) + abs(vzp)):
                    violations.append(f"subgradient inequality: {type(h).__name__}")

    # graph monotonicity
    for h in catalogue():
        if not h.separable:
            continue
        for i in range(h.m):
            try:
                pieces = clip_graph(h.graph_1d(i), 25.0)
            except CapabilityError:
                continue
            pts = [point_at(p, float(s)) for p in pieces for s in rng.random(6)]
            for (z1, v1) in pts:
                for (z2, v2) in pts:
                    if (z1 - z2) * (v1 - v2) < -1e-12:
                        violations.append(f"graph monotonicity: {type(h).__name__}")

    # prox optimality
    for h in catalogue():
        if not (h.prox_available and h.separable):
            continue
        for _ in range(10):
            z = h.sample_domain_point(rng)
            step = float(rng.uniform(0.2, 2.0))
            w = h.prox(z, step)
            for i in range(h.m):
                iv = h.subdiff_1d(i, float(w[i]), 1e-10)
                t = -(w[i] - z[i]) / step
                if iv is None or not (iv[0] - 1e-8 <= t <= iv[1] + 1e-8):
                    violations.append(f"prox optimality: {type(h).__name__}")

    # projection Lipschitz
    for S in (Box([-1.0, 0.0], [2.0, 3.0]),):
        for _ in range(100):
            a = rng.normal(scale=3.0, size=2)
            b = rng.normal(scale=3.0, size=2)
            if (np.linalg.norm(S.project(a) - S.project(b))
                    > np.linalg.norm(a - b) + 1e-10):
                violations.append("projection Lipschitz")

    # jacobian vs finite differences
    F = NetworkForwardMapping(
        [([rng.normal(size=(3, 2)), rng.normal(size=(2, 3))],
          [rng.normal(size=3), rng.normal(size=2)])], Activation("softplus", 5.0))
    for _ in range(20):
        x = rng.normal(size=2)
        J = F.jacobian(x).matrix
        fd = np.zeros_like(J)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd[:, j] = (F.eval(x + e) - F.eval(x - e)) / 2e-6
        if float(np.max(np.abs(J - fd) / (1.0 + np.abs(J)))) > 1e-5:
            violations.append("jacobian finite differences")

    # convexity spot checks
    for h in catalogue():
        check_midpoint_convexity(h, rng, samples=25)

    # determinism: sample averages and CSV artifacts
    a = SampleAverageMapping([[1.0]], [0.0], [[1.0]], [0.0], count=32, seed=99)
    b = SampleAverageMapping([[1.0]], [0.0], [[1.0]], [0.0], count=32, seed=99)
    for _ in range(50):
        x = rng.normal(size=1)
        if a.eval(x)[0] != b.eval(x)[0]:
            violations.append("sample-average determinism")
    cfg = fixture_config("exact_penalty")
    run_experiment(cfg, output_dir=tmp_path / "r1")
    run_experiment(cfg, output_dir=tmp_path / "r2")
    for suffix in ("_trace.csv", "_rates.csv", "_summary.json"):
        if ((tmp_path / "r1" / f"exact_penalty{suffix}").read_bytes()
                != (tmp_path / "r2" / f"exact_penalty{suffix}").read_bytes()):
            violations.append("CSV determinism")

    _report(12, f"property suites ({len(violations)} violations)",
            len(violations) == 0)


def test_all_bundled_fixtures_pass(fixture_runs):
    from compapprox.harness.fixtures import FIXTURE_ORDER
    failures = []
    for name in FIXTURE_ORDER:
        status, _ = fixture_runs.run(name)
        if status != 0:
            failures.append(f"{name} (exit {status})")
    assert not failures, f"fixtures failing: {failures}"
