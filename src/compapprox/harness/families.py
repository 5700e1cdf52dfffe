"""Approximation families: one ``FAMILIES`` entry per family.

A family turns the configured actual problem into the outer schedule of
approximating problems (X^nu, h^nu, F^nu) consumed by the solver, together
with the per-index driving parameter reported in the artifacts. Its entry
also holds everything else that depends on the family: the parameter checks
run at config validation, the per-stage rate diagnostic and the number of
trailing inner components the actual outer function does not see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import consistency as cons
from ..epca import Stage
from ..inner import Activation, NetworkForwardMapping, resample
from ..model import CompositeProblem
from ..outer import (AugLagrangianOuter, ExactPenaltyOuter, HomotopyOuter,
                     LogBarrierOuter, QuadPenaltyOuter, SoftplusGoalOuter,
                     SupportOuter)
from ..rng import stream


@dataclass(frozen=True)
class Family:
    """Everything one approximation family does differently from the others.

    * ``validate(family, problem, built, errors)`` appends one message per
      broken family parameter or unmet requirement on the actual problem,
      given as its document and as the ``built`` parts X, h, F and
      diagnostics (None where a part failed to build); together with the
      checks common to all families it guarantees theta nondecreasing,
      homotopy lambda nonincreasing in (0, 1), delta nonincreasing along the
      schedule, every schedule term a finite float > 0, and the
      preconditions of the family's rate diagnostic;
    * ``build(cfg, X, h, F)`` returns (actual CompositeProblem, [Stage, ...]);
    * ``rate(stages, actual, rho, samples)`` returns one (excess_lower,
      excess_upper, paper_bound, eta0, eta) per stage; ``_per_stage`` builds
      it from a function of one stage;
    * ``outer_dim_offset`` counts the trailing inner components that the
      actual outer function does not see.
    """

    validate: Callable
    build: Callable
    rate: Callable
    outer_dim_offset: int = 0


def build_stages(cfg):
    """Return (actual CompositeProblem, [Stage, ...]) for a validated config."""
    return FAMILIES[cfg.family["name"]].build(cfg, cfg.X, cfg.h, cfg.F)


def perturb_support_points(points, alpha):
    """Move each point a distance alpha toward the simplex barycenter.

    Keeps the points inside the probability simplex, so the perturbed list is
    again a valid ambiguity set, and makes the two-sided set excess equal to
    alpha whenever alpha is smaller than every point's distance to the
    barycenter.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    bary = np.full(pts.shape[1], 1.0 / pts.shape[1])
    out = []
    for p in pts:
        d = bary - p
        dist = float(np.linalg.norm(d))
        if dist <= alpha:
            out.append(bary)
        else:
            out.append(p + (alpha / dist) * d)
    return np.array(out)


# ---------------------------------------------------------------------------
# validation


def is_number(v):
    """A finite real number; bools are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_number(doc, key, errors, ctx, lo, hi=math.inf, closed=False, default=None):
    """Append an error unless doc[key] is a number in (lo, hi), or [lo, hi) if closed."""
    v = doc.get(key, default)
    if is_number(v) and (lo <= v if closed else lo < v) and v < hi:
        return
    if hi < math.inf:
        rule = f"in ({lo}, {hi})"
    else:
        rule = f">= {lo}" if closed else f"> {lo}"
    errors.append(f"{ctx}: {key} must be a number {rule}")


def check_count(doc, key, errors, ctx, default=None):
    """Append an error unless doc[key] is an integer >= 1 (bools are not)."""
    v = doc.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        errors.append(f"{ctx}: {key} must be an integer >= 1")


def geometric(doc, start, rate, default=None):
    """The schedule doc[start] * doc[rate]**k for k < doc["length"]."""
    r = doc.get(rate, default)
    return [doc[start] * r ** k for k in range(doc["length"])]


def check_schedule(doc, start, rate, errors, ctx, default=None, below=math.inf):
    """Append an error unless every term of ``geometric`` is a float in (0, below).

    The terms are monotone, so the last one decides. The check waits until
    start, rate and length pass their own checks.
    """
    v, r, length = doc.get(start), doc.get(rate, default), doc.get("length")
    if not (is_number(v) and v > 0 and is_number(r) and r > 0
            and isinstance(length, int) and not isinstance(length, bool) and length >= 1):
        return
    try:
        last = float(v) * float(r) ** (length - 1)
    except OverflowError:
        last = math.inf
    if not 0.0 < last < below:
        bound = "a finite float > 0" if below == math.inf else f"in (0, {below:g})"
        errors.append(f"{ctx}: {start} * {rate}**k must stay {bound} "
                      f"for k < length = {length}")


def _needs(problem, part, variant, name, errors):
    """Append an error unless problem[part] has the given variant; return the spec.

    The families that need an indicator outer function replace its
    constraints on z_2, ..., z_m by penalties or barriers and keep z_1 as the
    linear objective, so that indicator must have first_linear true.
    """
    spec = problem.get(part) if isinstance(problem, dict) else None
    spec = spec if isinstance(spec, dict) else {}
    if spec.get("variant") != variant:
        errors.append(f"family {name}: needs problem.{part} of variant {variant!r}, "
                      f"got {spec.get('variant')!r}")
    elif variant.endswith("_indicator") and spec.get("first_linear", True) is not True:
        errors.append(f"family {name}: needs problem.{part}.first_linear true")
    return spec


def _theta_checks(outer=None, inner=None):
    """Validator of a theta-driven family that needs the given problem variants."""
    def validate(fam, problem, built, errors):
        name = fam["name"]
        check_number(fam, "theta0", errors, f"family {name}", 0)
        check_number(fam, "theta_growth", errors, f"family {name}", 1)
        check_schedule(fam, "theta0", "theta_growth", errors, f"family {name}")
        if outer is not None:
            _needs(problem, "outer", outer, name, errors)
        if inner is not None:
            _needs(problem, "inner", inner, name, errors)
    return validate


def _rho(built):
    """diagnostics.rho when it is valid, else None (its own check reports it)."""
    diag = built["diagnostics"]
    rho = None if diag is None else diag.rho
    return rho if is_number(rho) and rho > 0 else None


def _eta_checks(validate):
    """``validate`` followed by the precondition of the eta rate diagnostic."""
    def checks(fam, problem, built, errors):
        validate(fam, problem, built, errors)
        X, rho = built["X"], _rho(built)
        if X is not None and rho is not None:
            try:
                cons.ball_anchor(X, rho)
            except ValueError:
                errors.append(f"family {fam['name']}: problem.set must meet the ball "
                              "B(0, diagnostics.rho) that the eta diagnostic samples")
    return checks


def _validate_aug_lagrangian(fam, problem, built, errors):
    _theta_checks()(fam, problem, built, errors)
    m = _needs(problem, "outer", "equality_indicator", "aug_lagrangian", errors).get("m")
    if "y_estimate" in fam:
        y = fam["y_estimate"]
        if not (isinstance(y, list) and all(is_number(t) for t in y)
                and (not isinstance(m, int) or len(y) == m - 1)):
            errors.append("family aug_lagrangian: y_estimate must be a list of "
                          "m - 1 finite numbers")


def _validate_min_smoothing(fam, problem, built, errors):
    _theta_checks()(fam, problem, built, errors)
    spec = _needs(problem, "inner", "min_smooth", "min_smoothing", errors)
    if spec.get("theta") is not None:
        errors.append("family min_smoothing: the min_smooth inner mapping must be "
                      "exact (no theta)")


def _validate_homotopy(fam, problem, built, errors):
    check_number(fam, "lam0", errors, "family homotopy", 0, 1)
    check_number(fam, "lam_decay", errors, "family homotopy", 0, 1)
    check_schedule(fam, "lam0", "lam_decay", errors, "family homotopy")
    h, lam0, rho = built["h"], fam.get("lam0"), _rho(built)
    # the certificate and the graph excess read h coordinate by coordinate
    if h is not None and not h.separable:
        errors.append("family homotopy: needs a coordinate-separable problem.outer, "
                      f"got {type(h).__name__}")
    # the graph excess of the first stage, the largest lambda, needs rho >= lam0/2
    if rho is not None and is_number(lam0) and rho < lam0 / 2.0:
        errors.append(f"family homotopy: diagnostics.rho must be >= lam0/2 = {lam0 / 2.0}")


def _validate_support_perturb(fam, problem, built, errors):
    _needs(problem, "outer", "support", "support_perturb", errors)
    alphas, length = fam.get("alphas"), fam.get("length")
    if not (isinstance(alphas, list) and len(alphas) == length
            and all(is_number(a) and a > 0 for a in alphas)
            and all(b <= a for a, b in zip(alphas, alphas[1:]))):
        errors.append(f"family support_perturb: alphas must be a list of length "
                      f"{length!r} of finite numbers > 0, nonincreasing")


def _validate_sample_average(fam, problem, built, errors):
    check_number(fam, "count0", errors, "family sample_average", 1, closed=True)
    check_number(fam, "count_growth", errors, "family sample_average", 1)
    # every rounded count must be a size numpy can index: below 2**63 on 64 bits
    check_schedule(fam, "count0", "count_growth", errors, "family sample_average",
                   below=float(np.iinfo(np.intp).max))
    _needs(problem, "inner", "sample_average", "sample_average", errors)


# ---------------------------------------------------------------------------
# stage builders


def _stages(params, make):
    """Builder of a family whose stage at parameter p is make(h, F, p, family).

    ``params(family)`` lists the per-stage parameters; ``make`` returns the
    stage's (h^nu, F^nu). The actual problem is the configured one.
    """
    def build(cfg, X, h, F):
        stages = [Stage(X, *make(h, F, p, cfg.family), parameter=p)
                  for p in params(cfg.family)]
        return CompositeProblem(X, h, F), stages
    return build


def _thetas(fam):
    return geometric(fam, "theta0", "theta_growth")


def _aug_lagrangian_stage(h, F, theta, fam):
    y = np.asarray(fam.get("y_estimate", [0.0] * (h.m - 1)), dtype=float)
    return AugLagrangianOuter(y, theta), F


def _support_stage(h, F, alpha, fam):
    return SupportOuter(perturb_support_points(h.points, alpha)), F


def _softened_network(F, theta):
    nets = [([A for A, _ in layers], [b for _, b in layers]) for layers in F.networks]
    return NetworkForwardMapping(nets, Activation("softplus", theta))


def _build_homotopy(cfg, X, h, F):
    stages = [Stage(X, HomotopyOuter(h, lam), F, parameter=lam)
              for lam in geometric(cfg.family, "lam0", "lam_decay")]
    # actual problem: the base objective with the homotopy term switched off
    return CompositeProblem(X, HomotopyOuter(h, 0.0), F), stages


def _build_sample_average(cfg, X, h, F):
    stages = []
    for k, count in enumerate(geometric(cfg.family, "count0", "count_growth")):
        count = int(round(count))
        seed = int(stream(cfg.seed, "sample-average-family", str(k)).integers(2**62))
        stages.append(Stage(X, h, resample(F, count, seed), parameter=float(count)))
    return CompositeProblem(X, h, F.mean_mapping()), stages


# ---------------------------------------------------------------------------
# per-stage rate diagnostics


def _per_stage(rate):
    """A family rate that evaluates ``rate(stage, actual, rho, samples)`` per stage."""
    return lambda stages, actual, rho, samples: [rate(st, actual, rho, samples)
                                                 for st in stages]


def _separable_rate(st, actual, rho, samples):
    rep = cons.graph_excess_separable(st.h, actual.h, rho, samples)
    bound = rep.paper_bound if rep.paper_bound is not None else math.nan
    return rep.measured_lower, rep.certified_upper, bound, 0.0, 0.0


def _softplus_goal_rate(st, actual, rho, samples):
    gap = cons.uniform_outer_gap(st.h, actual.h, rho, samples)
    bound = math.log(2.0) / st.parameter * float(np.sum(actual.h.alpha))
    return math.sqrt(gap), math.sqrt(bound), math.nan, 0.0, 0.0


def _homotopy_rate(st, actual, rho, samples):
    rep = cons.homotopy_graph_excess(st.h.base, st.parameter, rho, samples)
    return rep.measured_lower, rep.certified_upper, rep.paper_bound, 0.0, 0.0


def _support_perturb_rate(st, actual, rho, samples):
    gap = cons.uniform_outer_gap(st.h, actual.h, rho, samples)
    alpha = cons.support_set_excess(actual.h.points, st.h.points)
    return math.sqrt(gap), math.sqrt(rho * alpha), math.nan, 0.0, 0.0


def _eta_rate(stages, actual, rho, samples):
    # every stage keeps the actual set, so the actual mapping's side of the
    # estimate is evaluated once for all of them
    samples = min(samples, 500)
    ref = cons.eta_reference(actual.F, actual.X, rho, samples)
    rows = []
    for st in stages:
        rep = cons.estimate_eta(st.F, actual.F, st.X, rho, samples, reference=ref)
        rows.append((0.0, 0.0, math.nan, rep.eta0, rep.eta))
    return rows


def _identity_rate(st, actual, rho, samples):
    return 0.0, 0.0, 0.0, 0.0, 0.0


def _no_rate(st, actual, rho, samples):
    # no closed-form rate in the source material
    return math.nan, math.nan, math.nan, 0.0, 0.0


FAMILIES = {
    "softplus_goal": Family(
        _theta_checks(outer="goal"),
        _stages(_thetas, lambda h, F, th, fam: (SoftplusGoalOuter(h.alpha, h.tau, th), F)),
        _per_stage(_softplus_goal_rate)),
    "aug_lagrangian": Family(
        _validate_aug_lagrangian,
        _stages(_thetas, _aug_lagrangian_stage),
        _per_stage(_separable_rate)),
    "quad_penalty": Family(
        _theta_checks(outer="inequality_indicator"),
        _stages(_thetas, lambda h, F, th, fam: (QuadPenaltyOuter(th, h.m), F)),
        _per_stage(_separable_rate)),
    "exact_penalty": Family(
        _theta_checks(outer="equality_indicator"),
        _stages(_thetas, lambda h, F, th, fam: (ExactPenaltyOuter(th, h.m), F)),
        _per_stage(_separable_rate)),
    "log_barrier": Family(
        _theta_checks(outer="inequality_indicator"),
        _stages(_thetas, lambda h, F, th, fam: (LogBarrierOuter(th, h.m), F)),
        _per_stage(_no_rate)),
    # h acts on the first m-1 inner components; the last is the homotopy term
    "homotopy": Family(_validate_homotopy, _build_homotopy, _per_stage(_homotopy_rate),
                       outer_dim_offset=1),
    "support_perturb": Family(
        _validate_support_perturb,
        _stages(lambda fam: [float(a) for a in fam["alphas"]], _support_stage),
        _per_stage(_support_perturb_rate)),
    "min_smoothing": Family(
        _eta_checks(_validate_min_smoothing),
        _stages(_thetas, lambda h, F, th, fam: (h, F.with_theta(th))),
        _eta_rate),
    "sample_average": Family(_eta_checks(_validate_sample_average),
                             _build_sample_average, _eta_rate),
    "network_softplus": Family(
        _eta_checks(_theta_checks(inner="network")),
        _stages(_thetas, lambda h, F, th, fam: (h, _softened_network(F, th))),
        _eta_rate),
    "identity": Family(
        lambda fam, problem, built, errors: None,
        _stages(lambda fam: [float(k + 1) for k in range(fam["length"])],
                lambda h, F, p, fam: (h, F)),
        _per_stage(_identity_rate)),
}
