"""Numerical consistency diagnostics.

Measures how far an approximating pair (h^nu, F^nu) sits from the actual
(h, F): one-sided excesses between subdifferential graphs under the
max{||z||_2, ||v||_2} norm, uniform-gap estimates, the eta quantities feeding
the solution-error bound max{sqrt(m)*rho*eta, eta0 + graph excess}, finite-nu
epi-convergence probes, and transfer of near-stationary triples to the actual
optimality condition.

Graph excesses come as a bracket: a measured lower bound (dense sampling of
the approximating graph, every breakpoint included, with exact point-to-graph
distances, each the minimum over every combination of whole graph rows)
and a certified upper bound (the coordinate-wise constructive
projection that the corresponding convergence-rate derivations use).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .geometry import dist_to_hull, project_onto_hull, row_norms
from .inner import AffineMapping, InnerMapping, MinSmoothMapping, SampleAverageMapping
from .model import CompositeProblem, StationarityTriple, stationarity_residual
from .outer import (KINK_TOL, AugLagrangianOuter, EqualityIndicatorOuter,
                    ExactPenaltyOuter, HomotopyOuter, InequalityIndicatorOuter,
                    OuterFunction, QuadPenaltyOuter, clip_graph)

_BREAKPOINT_COMBO_CAP = 4096


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ExcessReport:
    rho: float
    measured_lower: float
    certified_upper: float
    paper_bound: float = None


@dataclass(frozen=True)
class EtaReport:
    eta0: float
    eta: float
    eta0_certified: float = None
    samples_used: int = 0


@dataclass(frozen=True)
class EtaReference:
    """The actual mapping's side of ``estimate_eta``: the sample points of X
    intersected with the rho-ball (and the anchor), with F's values, Jacobian
    selections and multi-generator mask there. Every stage of a family shares
    it."""

    points: np.ndarray
    values: np.ndarray
    jacobians: np.ndarray
    multi: np.ndarray


@dataclass(frozen=True)
class RateRow:
    nu: int
    parameter: float
    excess_lower: float
    excess_upper: float
    paper_bound: float
    eta0: float
    eta: float
    solution_error_bound: float


def fit_loglog_slope(params, values) -> float:
    """Least-squares slope of log10(values) against log10(params)."""
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (params > 0) & (values > 0) & np.isfinite(values)
    if keep.sum() < 2:
        return math.nan
    lx, ly = np.log10(params[keep]), np.log10(values[keep])
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# Halton points


def _first_primes(d: int) -> list:
    """The first d primes, by trial division."""
    primes, k = [], 2
    while len(primes) < d:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _radical_inverse(base: int, count: int) -> np.ndarray:
    """The van der Corput points 0, 1, ..., count - 1 in the given base.

    Digits are added from the least significant one with weights 1/base,
    1/base^2, ..., in this order, as in scipy's unscrambled Halton sampler.
    """
    out = np.zeros(count)
    quotient = np.arange(count, dtype=np.int64)
    weight = 1.0 / base
    while quotient.any():
        out += (quotient % base) * weight
        weight /= base
        quotient //= base
    return out


@functools.lru_cache(maxsize=16)
def _halton_unit(d: int, count: int) -> np.ndarray:
    """The first count unscrambled Halton points of [0, 1)^d, read-only.

    Coordinate j is the radical inverse in the j-th prime, bit for bit the
    points of ``scipy.stats.qmc.Halton(d, scramble=False).random(count)``.
    """
    u = np.array([_radical_inverse(b, count) for b in _first_primes(d)]).T
    u.flags.writeable = False
    return u


# ---------------------------------------------------------------------------
# exact distance to a product of 1-D monotone graphs, for a batch of points
#
# Every function below works on arrays over sample rows and performs, row by
# row, the float operations of a scalar evaluation in the same order, so the
# results do not depend on how the rows are batched. Graphs are never clipped
# here: the distance is a plain minimum over every combination of whole graph
# rows, one per coordinate.


def _where_gt(a, b):
    """Python's max(a, b), elementwise: b where b > a, else a."""
    return np.where(b > a, b, a)


def _where_lt(a, b):
    """Python's min(a, b), elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _interval_sqdist(t, lo, hi):
    return np.where(t < lo, (lo - t) ** 2, np.where(t > hi, (t - hi) ** 2, 0.0))


def _sloped_terms(mu, zb, vb, zlo, zhi, a, b):
    """(dz^2, dv^2) at the minimizer z' of (1-mu) dz^2 + mu dv^2 on a sloped piece.

    dz = zb - z' and dv = vb - a - b z', with z' in [zlo, zhi].
    """
    denom = (1.0 - mu) + mu * b * b
    zp = ((1.0 - mu) * zb + mu * b * (vb - a)) / denom
    zp = np.minimum(np.maximum(zp, zlo), zhi)
    return (zb - zp) ** 2, (vb - a - b * zp) ** 2


def _combo_minmax(fz, fv, sloped):
    """Rowwise min over the combo's pieces of max{sum dz^2, sum dv^2} (exact).

    fz, fv sum the box pieces' independent minima. ``sloped`` lists
    (zlo, zhi, a, b, zb, vb) per coordinate whose piece is sloped; those are
    resolved by the weighted scalarization s(mu) = argmin (1-mu) Qz + mu Qv,
    closed form per coordinate, and a bisection on Qz(s(mu)) - Qv(s(mu))
    (monotone in mu).
    """
    if not sloped:
        return np.maximum(fz, fv)

    def at(mu, rows):
        qz, qv = fz[rows], fv[rows]
        for zlo, zhi, a, b, zb, vb in sloped:
            tz, tv = _sloped_terms(mu, zb[rows], vb[rows], zlo, zhi, a, b)
            qz, qv = qz + tz, qv + tv
        return qz, qv

    rows = np.arange(len(fz))
    qz0, qv0 = at(0.0, rows)
    qz1, qv1 = at(1.0, rows)
    done0, done1 = qz0 >= qv0, qv1 >= qz1
    out = np.where(done0, qz0, qv1)
    need = ~(done0 | done1)
    rows = rows[need]
    if rows.size:
        best = np.minimum(np.maximum(qz0, qv0), np.maximum(qz1, qv1))[need]
        lo, hi = np.zeros(rows.size), np.ones(rows.size)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            qz, qv = at(mid, rows)
            best = np.minimum(best, np.maximum(qz, qv))
            left = qz < qv
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        out[rows] = best
    return out


def _graph_distances(Z, V, graphs):
    """Exact distance from each row (Z[k], V[k]) to the product of 1-D graphs.

    Distance under max{||z - z'||_2, ||v - v'||_2}: the rowwise minimum, over
    every combination of one whole (unclipped) graph row per coordinate, of
    _combo_minmax. Vertical and flat rows add their interval distances;
    sloped rows go through its scalarization.
    """
    best = np.full(len(Z), math.inf)
    for combo in itertools.product(*(g.tolist() for g in graphs)):
        fz = fv = np.zeros(len(Z))
        sloped = []
        for i, (z_lo, z_hi, v_lo, v_hi, slope, intercept) in enumerate(combo):
            if z_lo == z_hi or v_lo == v_hi:
                fz = fz + _interval_sqdist(Z[:, i], z_lo, z_hi)
                fv = fv + _interval_sqdist(V[:, i], v_lo, v_hi)
            else:
                sloped.append((z_lo, z_hi, intercept, slope, Z[:, i], V[:, i]))
        best = _where_lt(best, _combo_minmax(fz, fv, sloped))
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# sampling the approximating graph


def _sample_product_arrays(graphs, bound: float, count: int):
    """Deterministic samples (Z, V), shape (k, m), of the product graph.

    Low-discrepancy (Halton) points drive per-coordinate arclength positions;
    every combination of the rows' breakpoints is added (capped, in
    ``itertools.product`` order), since staircase extrema sit at breakpoints.
    Rows are kept when ||z||_2 <= bound and ||v||_2 <= bound.
    """
    m = len(graphs)
    clipped = [clip_graph(g, bound).tolist() for g in graphs]
    if any(len(rows) == 0 for rows in clipped):
        return np.empty((0, m)), np.empty((0, m))
    u = _halton_unit(m, count)
    # one row per coordinate while filling; Z and V are the transposes
    ZT = np.empty((m, count))
    VT = np.empty((m, count))
    for i, rows in enumerate(clipped):
        lengths = [max(math.hypot(z_hi - z_lo, v_hi - v_lo), 1e-9)
                   for z_lo, z_hi, v_lo, v_hi, _, _ in rows]
        ends = list(itertools.accumulate(lengths))
        target = u[:, i] * ends[-1]
        # the first row whose arclength range reaches the target, else the last
        k = np.minimum(np.searchsorted(ends, target, side="left"), len(rows) - 1)
        s = (target - np.take([0.0] + ends[:-1], k)) / np.take(lengths, k)
        s = _where_lt(_where_gt(s, 0.0), 1.0)
        for j, (z_lo, z_hi, v_lo, v_hi, slope, intercept) in enumerate(rows):
            at = k == j
            sj = s[at]
            if z_lo == z_hi:
                ZT[i, at] = z_lo
                VT[i, at] = v_lo + sj * (v_hi - v_lo)
                continue
            z = z_lo + sj * (z_hi - z_lo)
            ZT[i, at] = z
            VT[i, at] = v_lo if v_lo == v_hi else intercept + slope * z
    breaks = [np.array(sorted({(r[0], r[2]) for r in rows} | {(r[1], r[3]) for r in rows}))
              for rows in clipped]
    # combination q has digits q_i in mixed radix, the last coordinate fastest
    q = np.arange(min(math.prod(len(b) for b in breaks), _BREAKPOINT_COMBO_CAP))
    combos = np.empty((m, 2, len(q)))
    for i in reversed(range(m)):
        combos[i] = breaks[i].T[:, q % len(breaks[i])]
        q = q // len(breaks[i])
    Z = np.concatenate([ZT.T, combos[:, 0].T])
    V = np.concatenate([VT.T, combos[:, 1].T])
    keep = (row_norms(Z) <= bound + 1e-12) & (row_norms(V) <= bound + 1e-12)
    return Z[keep], V[keep]


def _require_separable(h: OuterFunction, role: str):
    if not h.separable:
        raise CapabilityError(f"{role} outer function is not coordinate-separable")


def graph_excess_measured(h_from: OuterFunction, h_to: OuterFunction, rho: float,
                          samples: int = 2000) -> float:
    """Sampled lower bound on exs_{2 rho}(gph dh_from ; gph dh_to).

    The largest exact distance to gph dh_to over the samples of gph dh_from
    in the 2 rho window. It is exactly 0.0 when some coordinate's graph
    misses the window, for then the product graph misses it too; otherwise
    NaN (not measured) when no sample lies in it.
    """
    _require_separable(h_from, "source")
    _require_separable(h_to, "target")
    graphs_from = [h_from.graph_1d(i) for i in range(h_from.m)]
    graphs_to = [h_to.graph_1d(i) for i in range(h_to.m)]
    if any(len(clip_graph(g, 2.0 * rho)) == 0 for g in graphs_from):
        return 0.0
    Z, V = _sample_product_arrays(graphs_from, 2.0 * rho, samples)
    if len(Z) == 0:
        return math.nan
    return float(max(0.0, np.max(_graph_distances(Z, V, graphs_to))))


def _graphs_identical(ha: OuterFunction, hb: OuterFunction) -> bool:
    """Every coordinate's graph has the same rows, a NaN matching a NaN."""
    try:
        return ha.m == hb.m and all(
            np.array_equal(ha.graph_1d(i), hb.graph_1d(i), equal_nan=True)
            for i in range(ha.m))
    except CapabilityError:
        return False


def graph_excess_certified(h_approx: OuterFunction, h_actual: OuterFunction, rho: float):
    """Closed-form constructive upper bound on the 2rho-excess, per family pair.

    Returns (certified_upper, paper_bound or None). Raises CapabilityError for
    pairs with no constructive projection on file.
    """
    two_rho = 2.0 * rho
    if _graphs_identical(h_approx, h_actual):
        return 0.0, 0.0
    if isinstance(h_approx, AugLagrangianOuter) and isinstance(h_actual, EqualityIndicatorOuter) \
            and h_actual.first_linear and h_approx.m == h_actual.m:
        y = h_approx.y_est
        th = h_approx.theta
        if th > 0:
            certified = math.sqrt(float(np.sum(((two_rho + np.abs(y)) / th) ** 2)))
        else:
            certified = two_rho
        beta = (two_rho + (float(np.max(np.abs(y))) if y.size else 0.0)) * math.sqrt(h_approx.m - 1)
        known = beta / th if th > 0 else None
        return certified, known
    if isinstance(h_approx, ExactPenaltyOuter) and isinstance(h_actual, EqualityIndicatorOuter) \
            and h_actual.first_linear and h_approx.m == h_actual.m:
        if h_approx.theta >= two_rho:
            return 0.0, 0.0
        return two_rho, None
    if isinstance(h_approx, QuadPenaltyOuter) and isinstance(h_actual, InequalityIndicatorOuter) \
            and h_actual.first_linear and h_approx.m == h_actual.m:
        th = h_approx.theta
        z_sup = min(two_rho, rho / th) if th > 0 else two_rho
        return math.sqrt(h_approx.m - 1) * z_sup, None
    raise CapabilityError(
        f"no constructive excess bound for ({type(h_approx).__name__}, {type(h_actual).__name__})")


def graph_excess_separable(h_approx: OuterFunction, h_actual: OuterFunction,
                           rho: float, samples: int = 2000) -> ExcessReport:
    """Bracket exs_{2 rho}(gph dh^nu ; gph dh) for separable catalogue pairs."""
    measured = graph_excess_measured(h_approx, h_actual, rho, samples)
    certified, known = graph_excess_certified(h_approx, h_actual, rho)
    return ExcessReport(rho, measured, certified, known)


def homotopy_graph_excess(base: OuterFunction, lam: float, rho: float,
                          samples: int = 2000) -> ExcessReport:
    """Excess of the homotopy subdifferential graph over the actual one.

    The actual outer function is base(z_1..z_{m-1}) with a free last
    coordinate; the approximation scales base subgradients by (1-lam) and pins
    the last coordinate's multiplier at lam. Requires rho >= lam/2.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")
    if rho < lam / 2.0:
        raise ValueError("requires rho >= lam/2")
    _require_separable(base, "homotopy base")
    approx = HomotopyOuter(base, lam)
    actual = HomotopyOuter(base, 0.0)
    measured = graph_excess_measured(approx, actual, rho, samples)
    two_rho = 2.0 * rho
    # structural bound on ||yhat|| over the base graph within the window
    bound = two_rho / max(1.0 - lam, 1e-300)
    struct_sq = 0.0
    for i in range(base.m):
        vmax = float(np.max(np.abs(clip_graph(base.graph_1d(i), bound)[:, 2:4]), initial=0.0))
        struct_sq += vmax * vmax
    ball_bound = math.sqrt(max(4.0 * rho * rho - lam * lam, 0.0)) / (1.0 - lam)
    yhat_max = min(math.sqrt(struct_sq), ball_bound)
    certified = lam * math.sqrt(1.0 + yhat_max**2)
    beta = math.sqrt(1.0 + (4.0 * rho * rho - lam * lam) / (1.0 - lam) ** 2)
    return ExcessReport(rho, measured, certified, beta * lam)


def support_set_excess(A, A_approx) -> float:
    """Two-sided excess max{exs(A; A'), exs(A'; A)} over finite point sets."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(A_approx, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError("point sets must share dimension")
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# eta estimates and the solution-error bound


@functools.lru_cache(maxsize=16)
def low_discrepancy_points(n: int, rho: float, count: int) -> np.ndarray:
    """Unscrambled Halton points in the Euclidean rho-ball of R^n.

    The rows of the first count Halton points of [-rho, rho]^n that lie in
    the ball, as a read-only array cached per (n, rho, count). Deterministic.
    """
    pts = rho * (2.0 * _halton_unit(n, count) - 1.0)
    pts = pts[row_norms(pts) <= rho]
    pts.flags.writeable = False
    return pts


_ball_samples = low_discrepancy_points


def _fmax(values) -> float:
    """The largest of values and 0.0, skipping NaN as Python's max(acc, v) does."""
    return float(np.fmax.reduce(values, axis=None, initial=0.0))


def ball_anchor(X, rho: float) -> np.ndarray:
    """P_X(0), the point of X nearest the origin; ValueError if it lies outside B(0, rho)."""
    anchor = X.project(np.zeros(X.n))
    if np.linalg.norm(anchor) > rho:
        raise ValueError("X does not meet the ball B(0, rho)")
    return anchor


def eta_reference(F_actual: InnerMapping, X, rho: float, samples: int = 500) -> EtaReference:
    """The sample points of ``estimate_eta`` and the actual mapping's side there."""
    anchor = ball_anchor(X, rho)
    ball = _ball_samples(F_actual.n, rho, samples)
    P = np.vstack([ball[X.contains_batch(ball)], anchor])
    return EtaReference(P, *F_actual.linearize_batch(P))


def estimate_eta(F_approx: InnerMapping, F_actual: InnerMapping, X, rho: float,
                 samples: int = 500, reference: EtaReference = None) -> EtaReport:
    """Sampled eta0 = sup ||F^nu - F|| and eta = sup exs(df_i^nu ; con df_i).

    Lower estimates over X intersected with the rho-ball (low-discrepancy with
    rejection). For smoothed-min against exact-min pairs a certified eta0
    upper bound ln(s_i)/theta is attached; for sample-average against its
    affine mean the certified bound is the affine difference's norm over the
    ball. ``reference`` is ``eta_reference(F_actual, X, rho, samples)``, which
    a caller estimating every stage of a family computes once.
    """
    if F_approx.n != F_actual.n or F_approx.m != F_actual.m:
        raise ValueError("mappings must share dimensions")
    if reference is None:
        reference = eta_reference(F_actual, X, rho, samples)
    P = reference.points
    values, J_a, multi_a = F_approx.linearize_batch(P)
    eta0 = _fmax(row_norms(values - reference.values))
    multi = multi_a | reference.multi
    # a component with one generator on each side: the distance of the two rows
    eta = _fmax(row_norms(J_a - reference.jacobians)[~multi])
    # otherwise the hull distance of every approximating generator
    for k in np.flatnonzero(multi.any(axis=1)):
        rep_a, rep_t = F_approx.jacobian(P[k]), F_actual.jacobian(P[k])
        for i in np.flatnonzero(multi[k]):
            hull = rep_t.active_grads[i]
            for g in rep_a.active_grads[i]:
                if len(hull) == 1:
                    d = float(np.linalg.norm(g - hull[0]))
                else:
                    d, _ = dist_to_hull(g, np.array(hull))
                eta = max(eta, d)
    certified = None
    if isinstance(F_approx, MinSmoothMapping) and isinstance(F_actual, MinSmoothMapping) \
            and F_approx.theta is not None and F_actual.theta is None:
        certified = max(math.log(s) / F_approx.theta for s in F_approx.piece_counts())
    elif isinstance(F_approx, SampleAverageMapping) and isinstance(F_actual, AffineMapping):
        J = F_approx.jacobian(np.zeros(F_approx.n)).matrix
        dA = J - F_actual.A
        db = F_approx.eval(np.zeros(F_approx.n)) - F_actual.b
        certified = float(np.linalg.norm(dA, 2) * rho + np.linalg.norm(db))
    return EtaReport(eta0, eta, certified, len(P))


def solution_error_bound(eta0: float, eta: float, graph_excess: float,
                         rho: float, m: int) -> float:
    """max{sqrt(m) * rho * eta, eta0 + graph excess}."""
    if min(eta0, eta, graph_excess, rho) < 0:
        raise ValueError("inputs must be nonnegative")
    return max(math.sqrt(m) * rho * eta, eta0 + graph_excess)


def uniform_outer_gap(h_a: OuterFunction, h_b: OuterFunction, rho: float,
                      samples: int = 2000) -> float:
    """Sampled sup over the rho-ball of |h_a - h_b| (finite points only).

    inf when at some sample exactly one of the two values is infinite.
    """
    if h_a.m != h_b.m:
        raise ValueError("outer functions must share dimension")
    pts = _ball_samples(h_a.m, rho, samples)
    va, vb = h_a.value_batch(pts), h_b.value_batch(pts)
    inf_a = np.isinf(va)
    if np.any(inf_a != np.isinf(vb)):
        return math.inf
    finite = ~inf_a
    # a NaN difference does not count toward the gap (fmax ignores it)
    return float(np.fmax.reduce(np.abs(va[finite] - vb[finite]), initial=0.0))


# ---------------------------------------------------------------------------
# epi-convergence probe


@dataclass(frozen=True)
class EpiProbeRow:
    point: np.ndarray
    actual_value: float
    approx_values: tuple
    liminf_deficit: float
    limsup_deficit: float
    inconclusive: bool
    passed: bool


@dataclass
class EpiProbeReport:
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)


def epi_probe(family_evaluators, actual_evaluator, probe_points, paths=None,
              tol: float = 1e-6, tail: int = 3) -> EpiProbeReport:
    """Finite-nu proxies for the two epi-convergence inequalities.

    For each probe point x (with an optional approach path x^nu, default
    constant), the liminf deficit is the tail maximum of f(x) - f^nu(x^nu) and
    the limsup deficit the tail maximum of f^nu(x^nu) - f(x); a point passes
    when both fall below tol at the largest indices. Infinite actual values
    pass either when the approximations are also infinite on the tail
    (inconclusive, trivially consistent) or when their tail minimum is at
    least the divergence threshold 1/tol.
    """
    rows = []
    for idx, x in enumerate(probe_points):
        x = np.asarray(x, dtype=float)
        path = [x] * len(family_evaluators) if paths is None else list(paths[idx])
        if len(path) != len(family_evaluators):
            raise ValueError("path length must match the family length")
        vals = [float(f(np.asarray(p, dtype=float))) for f, p in zip(family_evaluators, path)]
        fx = float(actual_evaluator(x))
        tail_vals = vals[-tail:]
        inconclusive = False
        if math.isinf(fx):
            limsup_def = 0.0
            if all(math.isinf(v) for v in tail_vals):
                inconclusive = True
                liminf_def = 0.0
            else:
                finite_min = min(v for v in tail_vals)
                liminf_def = 0.0 if finite_min >= 1.0 / tol else math.inf
        else:
            liminf_def = max(fx - v for v in tail_vals)
            limsup_def = max(v - fx for v in tail_vals)
        passed = liminf_def <= tol and limsup_def <= tol
        rows.append(EpiProbeRow(x, fx, tuple(vals), liminf_def, limsup_def,
                                inconclusive, passed))
    return EpiProbeReport(rows)


# ---------------------------------------------------------------------------
# near-solution transfer


@dataclass(frozen=True)
class TransferRow:
    triple: StationarityTriple
    delta: float
    displacement: float
    achieved_residual: float
    passed: bool
    counterexample: bool


@dataclass
class TransferReport:
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)


def _graph_nearest_1d(rows: np.ndarray, zb: float, vb: float):
    """Nearest point of one clipped 1-D graph (``outer.clip_graph``) under max(|dz|, |dv|)."""
    points = []
    for z_lo, z_hi, v_lo, v_hi, slope, intercept in rows.tolist():
        if z_lo == z_hi or v_lo == v_hi:
            points.append((min(max(zb, z_lo), z_hi), min(max(vb, v_lo), v_hi)))
        else:
            # max(|zb - z'|, |vb - a - b z'|) is convex in z' and least where
            # its two terms are equal, so clipping that point is exact
            zp = min(max((zb + vb - intercept) / (1.0 + slope), z_lo), z_hi)
            points.append((zp, intercept + slope * zp))
    return min(points, key=lambda q: max(abs(zb - q[0]), abs(vb - q[1])), default=(zb, vb))


def _candidate_triples(problem: CompositeProblem, triple: StationarityTriple,
                       grid_resolution: float, search_radius: float):
    x, y, z = triple.x, triple.y, triple.z
    yield triple
    z1 = problem.F.eval(x)
    yield StationarityTriple(x, y, z1)
    if problem.h.separable:
        clip = float(max(np.max(np.abs(z1)), np.max(np.abs(y)))) + search_radius + 10.0
        graphs = [clip_graph(problem.h.graph_1d(i), clip) for i in range(problem.m)]
        xs = [x]
        # brute force stays desk-scale: grid only in low dimension
        if problem.n <= 2 and problem.m <= 3:
            half = max(search_radius, 10.0 * grid_resolution)
            steps = int(round(half / grid_resolution))
            axes = [x[i] + grid_resolution * np.arange(-steps, steps + 1)
                    for i in range(problem.n)]
            grid = itertools.product(*axes)
            xs = [np.asarray(p) for p in grid]
        for xc in xs:
            if not problem.X.contains(np.asarray(xc, dtype=float), tol=1e-9):
                xc = problem.X.project(np.asarray(xc, dtype=float))
            zc = problem.F.eval(xc)
            zn = np.empty(problem.m)
            yn = np.empty(problem.m)
            for i in range(problem.m):
                zn[i], yn[i] = _graph_nearest_1d(graphs[i], float(zc[i]), float(y[i]))
            yield StationarityTriple(xc, yn, zn)
            yield StationarityTriple(xc, yn, zc)
    else:
        gens = problem.h.subdiff_generators(z1, KINK_TOL)
        if gens is not None and len(gens):
            yp, _, _ = project_onto_hull(y, gens)
            yield StationarityTriple(x, yp, z1)


def near_solution_transfer(approx_triples, actual_problem: CompositeProblem,
                           rho: float, bound: float,
                           grid_resolution: float = 1e-3) -> TransferReport:
    """Search for actual near-stationary triples close to approximate ones.

    For each (triple, delta), candidates are generated by local refinement
    (graph projections of (F(x), y) onto gph dh, coordinate by coordinate) and,
    for n <= 2, a grid fallback at the given resolution; a candidate is
    admissible when its actual stationarity residual is at most
    delta + bound. The reported displacement uses max{dx, dy, dz} (inner
    norm); a row passes when displacement <= bound + grid resolution. Rows
    with no admissible candidate are flagged as counterexamples, never
    dropped.
    """
    rows = []
    for triple, delta in approx_triples:
        if triple.inner_norm() > rho + 1e-12:
            raise ValueError("triple lies outside the rho-ball in the inner norm")
        eps = delta + bound
        best = (math.inf, math.inf)
        found = False
        for cand in _candidate_triples(actual_problem, triple, grid_resolution,
                                       search_radius=bound):
            res = stationarity_residual(actual_problem, cand)
            if res.combined <= eps + 1e-12:
                disp = max(float(np.linalg.norm(cand.x - triple.x)),
                           float(np.linalg.norm(cand.y - triple.y)),
                           float(np.linalg.norm(cand.z - triple.z)))
                found = True
                if disp < best[0]:
                    best = (disp, res.combined)
        if found:
            disp, ach = best
            rows.append(TransferRow(triple, delta, disp, ach,
                                    disp <= bound + grid_resolution, False))
        else:
            rows.append(TransferRow(triple, delta, math.inf, math.inf, False, True))
    return TransferReport(rows)
