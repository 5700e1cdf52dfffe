import hashlib
import math
import struct

import mpmath
import numpy as np
import pytest

from compapprox.errors import CapabilityError, NonconvergenceError
from compapprox.outer import (KINK_TOL, AugLagrangianOuter, BlockSeparableOuter,
                              EqualityIndicatorOuter, ExactPenaltyOuter,
                              GoalOuter, HomotopyOuter, InequalityIndicatorOuter,
                              LinearOuter, LogBarrierOuter, QuadPenaltyOuter,
                              SoftplusGoalOuter, SquaredErrorOuter, SupportOuter,
                              softplus, softplus_grad)
from compapprox.rng import stream


def catalogue():
    return [
        GoalOuter([1.0, 2.0], [0.0, 1.0]),
        SoftplusGoalOuter([1.0, 2.0], [0.0, 1.0], 5.0),
        LinearOuter([1.0, -2.0]),
        SupportOuter([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
        EqualityIndicatorOuter(3),
        InequalityIndicatorOuter(3),
        AugLagrangianOuter([0.5, -1.0], 10.0),
        QuadPenaltyOuter(2.0, 3),
        ExactPenaltyOuter(5.0, 3),
        LogBarrierOuter(2.0, 3),
        HomotopyOuter(GoalOuter([1.0], [0.0]), 0.25),
        SquaredErrorOuter([0.5, -0.5], 1.5),
        BlockSeparableOuter([LinearOuter([2.0]), ExactPenaltyOuter(1.0, 2)]),
    ]


def check_midpoint_convexity(h, rng, samples: int = 50, tol: float = 1e-9) -> int:
    """Midpoint convexity spot check on domain samples.

    Returns the number of finite pairs actually tested; raises AssertionError
    on a violation h((z+z')/2) > (h(z)+h(z'))/2 + tol.
    """
    tested = 0
    for _ in range(samples):
        z0 = h.sample_domain_point(rng)
        z1 = h.sample_domain_point(rng)
        v0, v1 = h.value(z0), h.value(z1)
        if math.isinf(v0) or math.isinf(v1):
            continue
        mid = h.value(0.5 * (z0 + z1))
        if mid > 0.5 * (v0 + v1) + tol * (1.0 + abs(v0) + abs(v1)):
            raise AssertionError(f"midpoint convexity violated for {type(h).__name__}")
        tested += 1
    return tested


def point_at(piece, s: float):
    """Point at parameter s in [0,1] along a (bounded) graph piece."""
    if piece.is_vertical:
        return piece.z_lo, piece.v_lo + s * (piece.v_hi - piece.v_lo)
    z = piece.z_lo + s * (piece.z_hi - piece.z_lo)
    if piece.is_flat:
        return z, piece.v_lo
    return z, piece.intercept + piece.slope * z


# ---------------------------------------------------------------------------
# values


def test_softplus_prox_signals_nonconvergence():
    # a NaN input never meets the stopping test: the 200-iteration cap must
    # raise instead of returning a point that solves nothing
    h = SoftplusGoalOuter([1.0, 2.0], [0.0, 1.0], 5.0)
    with pytest.raises(NonconvergenceError, match="did not converge"):
        h.prox(np.array([0.3, math.nan]), 1.0)
    assert np.all(np.isfinite(h.prox(np.array([0.3, -0.4]), 1.0)))


def test_aug_lagrangian_value_example():
    h = AugLagrangianOuter([0.0], 10.0)
    assert h.value([1.0, 0.2]) == pytest.approx(1.2)


def test_log_barrier_value_example():
    h = LogBarrierOuter(1.0, 2)
    assert h.value([0.0, -1.0]) == 0.0
    assert h.value([0.0, 0.5]) == math.inf


def test_support_value_example():
    h = SupportOuter([[1.0, 0.0], [0.0, 1.0]])
    assert h.value([3.0, 1.0]) == pytest.approx(3.0)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 33])
def test_value_batch_matches_value_bit_for_bit(m):
    rng = np.random.default_rng(m)
    Z = rng.normal(0.0, 3.0, size=(257, m))
    Z[::5] = np.round(Z[::5])          # hit kinks and exact zeros
    alpha, tau = rng.uniform(0.0, 2.0, m), rng.normal(size=m)
    points = rng.dirichlet(np.ones(m), size=4)
    for h in (GoalOuter(alpha, tau), SoftplusGoalOuter(alpha, tau, 7.5),
              SoftplusGoalOuter(alpha, tau, 1e4), SupportOuter(points), LinearOuter(tau)):
        expected = np.array([h.value(z) for z in Z])
        assert h.value_batch(Z).tobytes() == expected.tobytes(), type(h).__name__
    for h in catalogue():
        Zc = rng.normal(0.0, 2.0, size=(40, h.m))
        expected = np.array([h.value(z) for z in Zc])
        assert h.value_batch(Zc).tobytes() == expected.tobytes(), type(h).__name__
    with pytest.raises(ValueError):
        GoalOuter(alpha, tau).value_batch(Z[:, :-1] if m > 1 else Z[0])


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 33])
def test_support_value_batch_matches_one_product_per_row(m):
    # value is the one-row case of value_batch, so pin the batch to the
    # matrix-vector product of each row
    rng = np.random.default_rng(m)
    Z = rng.normal(0.0, 3.0, size=(257, m)) * rng.choice([1e-3, 1.0, 1e3], size=(257, 1))
    for k in (1, 4, 9):
        h = SupportOuter(rng.dirichlet(np.ones(m), size=k))
        expected = np.array([np.max(h.points @ z) for z in Z])
        assert h.value_batch(Z).tobytes() == expected.tobytes()


def test_equality_indicator_value():
    h = EqualityIndicatorOuter(2)
    assert h.value([4.0, 0.0]) == 4.0
    assert h.value([4.0, 1e-9]) == math.inf


# ---------------------------------------------------------------------------
# softplus


def test_softplus_at_zero():
    assert softplus(1.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert softplus_grad(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert softplus(10.0, 0.0) == pytest.approx(math.log(2.0) / 10.0, abs=1e-15)


def test_softplus_high_precision_oracle():
    # oracle: 50-digit evaluation of ln(1 + exp(theta*g))/theta
    mpmath.mp.dps = 50
    for theta, gamma in [(1.0, 10.0), (1.0, -7.5), (20.0, 0.3), (1e4, 1e-3)]:
        ref = float(mpmath.log(1 + mpmath.e**(theta * gamma)) / theta)
        assert softplus(theta, gamma) == pytest.approx(ref, rel=1e-14)
    assert softplus(1.0, 10.0) == pytest.approx(10.0000453989, abs=1e-9)


def test_softplus_uniform_bound_property():
    gammas = np.linspace(-50.0, 50.0, 100001)
    for theta in (1.0, 10.0, 100.0, 1e4, 1e6):
        gap = np.abs(softplus(theta, gammas) - np.maximum(0.0, gammas))
        assert float(np.max(gap)) <= math.log(2.0) / theta + 1e-12
        assert abs(softplus(theta, 0.0) - math.log(2.0) / theta) <= 1e-12


def test_softplus_grad_strictly_inside_unit_interval():
    vals = softplus_grad(1e6, np.array([-100.0, -1.0, 0.0, 1.0, 100.0]))
    assert np.all(vals > 0.0) and np.all(vals < 1.0)


def _softplus_grad_masked(theta, g):
    # the two-mask formula softplus_grad replaced, kept as its bit reference
    out = np.empty_like(g, dtype=float)
    pos = g >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-theta * g[pos]))
    e = np.exp(theta * g[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)


def test_softplus_grad_bit_identical_to_masked_formula():
    rng = stream(11, "softplus-grad-bits")
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])
    for theta in (1e-3, 1e-1, 1.0, 7.5, 64.0, 1e3, 1e6):
        for g in (special, rng.normal(size=500), rng.normal(scale=1e3, size=500),
                  rng.uniform(-1e-6, 1e-6, size=500)):
            with np.errstate(over="ignore"):     # theta * 1e308
                got, ref = softplus_grad(theta, g), _softplus_grad_masked(theta, g)
            assert got.tobytes() == ref.tobytes(), theta
        for gamma in (0.0, -0.0, 2.5, -2.5, math.nan):
            got = softplus_grad(theta, gamma)
            ref = float(_softplus_grad_masked(theta, np.array([gamma]))[0])
            assert struct.pack("<d", got) == struct.pack("<d", ref), (theta, gamma)


def test_softplus_goal_value_and_grad_bit_identical_to_composition():
    # value and grad apply the softplus formulas to the array directly; the
    # composition through softplus/softplus_grad is their bit reference
    rng = stream(12, "softplus-goal-bits")
    m = 24
    alpha, tau = rng.uniform(0.0, 2.0, size=m), rng.uniform(-1.0, 1.0, size=m)
    extreme = np.resize([0.0, -0.0, 5e-324, -5e-324, 1e-300, 40.0, -40.0, 1e6, -1e6,
                         1e300, -1e300, math.inf, -math.inf], m)
    for theta in (1e-3, 1e-1, 1.0, 7.5, 64.0, 1e3, 1e6):
        h = SoftplusGoalOuter(alpha, tau, theta)
        for z in (rng.normal(size=m), rng.normal(scale=1e3, size=m),
                  tau + rng.uniform(-1e-6, 1e-6, size=m), tau + extreme, extreme):
            with np.errstate(over="ignore", invalid="ignore"):
                value = float(np.sum(alpha * softplus(theta, z - tau)))
                grad = alpha * softplus_grad(theta, z - tau)
                assert struct.pack("<d", h.value(z)) == struct.pack("<d", value), theta
                assert h.grad(z).tobytes() == grad.tobytes(), theta


# ---------------------------------------------------------------------------
# subdifferential intervals


def test_goal_subdiff_intervals():
    h = GoalOuter([2.0], [1.0])
    assert h.subdiff_1d(0, 1.0) == (0.0, 2.0)
    assert h.subdiff_1d(0, 0.0) == (0.0, 0.0)
    assert h.subdiff_1d(0, 2.0) == (2.0, 2.0)


def test_exact_penalty_subdiff_finite_difference_oracle():
    h = ExactPenaltyOuter(5.0, 2)
    lo, hi = h.subdiff_1d(1, 0.0)
    # one-sided slopes of theta*|t| at 0
    eps = 1e-7
    left = (5.0 * abs(0.0) - 5.0 * abs(-eps)) / eps
    right = (5.0 * abs(eps) - 0.0) / eps
    assert lo == pytest.approx(left, abs=1e-6)
    assert hi == pytest.approx(right, abs=1e-6)
    assert (lo, hi) == (-5.0, 5.0)


def graph_members():
    """Every separable catalogue member with a graph, and its degenerate cases."""
    curved = (SoftplusGoalOuter, LogBarrierOuter)
    return [h for h in catalogue() if h.separable and not isinstance(h, curved)] + [
        GoalOuter([0.0, 1.5], [0.25, -1.0]),
        EqualityIndicatorOuter(2, first_linear=False),
        InequalityIndicatorOuter(2, first_linear=False),
        AugLagrangianOuter([0.5, -1.0], 0.0),
        AugLagrangianOuter([0.3, -0.7], 0.37),
        QuadPenaltyOuter(0.0, 3),
        QuadPenaltyOuter(0.37, 2),
        ExactPenaltyOuter(0.0, 3),
        SquaredErrorOuter([0.5, -0.5], 0.0),
        SquaredErrorOuter([0.3, -0.7], 1.0),
    ]


def interval_digest(h):
    """sha256 of subdiff_1d at every breakpoint, at +-slack around it and off the kinks."""
    digest = hashlib.sha256()
    for i in range(h.m):
        kinks = {z for p in h.graph_1d(i).pieces for z in (p.z_lo, p.z_hi)
                 if math.isfinite(z)}
        for b in sorted(kinks | {-1.5, -0.5, 0.0, 0.5, 1.0, 2.25}):
            for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                for slack in (0.0, KINK_TOL):
                    iv = h.subdiff_1d(i, b + k * KINK_TOL, slack)
                    digest.update(b"none" if iv is None else struct.pack("<dd", *iv))
    return digest.hexdigest()[:16]


def test_subdiff_intervals_read_off_the_graph_are_pinned():
    # the intervals each member gave from its own closed form, bit for bit,
    # except where SquaredErrorOuter's ends now round as the graph's line
    # intercept + slope*t: at weight 1.5 (c*(t - target) gave e47ac04987c9bf59)
    # and at weight 0 (-0.0 left of the target gave af415d346df8d694)
    expected = [
        ("GoalOuter", "cd5db11019883f78"),
        ("LinearOuter", "b5410ed89ed6b996"),
        ("EqualityIndicatorOuter", "70c39c7138d1ddc7"),
        ("InequalityIndicatorOuter", "6cfc7c6328ef724f"),
        ("AugLagrangianOuter", "fccddcd6a9e06350"),
        ("QuadPenaltyOuter", "2211aa74db464c66"),
        ("ExactPenaltyOuter", "3a6f6b0ebf5e3c94"),
        ("HomotopyOuter", "b26a9f32c0c91113"),
        ("SquaredErrorOuter", "ef18827ac06576ae"),  # weight 1.5
        ("BlockSeparableOuter", "f36fa570807a753f"),
        ("GoalOuter", "357a64a4dc86c1b3"),
        ("EqualityIndicatorOuter", "bd0e8387d4b5eedf"),
        ("InequalityIndicatorOuter", "c9c72709a32a978a"),
        ("AugLagrangianOuter", "428f650a9aed0dd4"),
        ("AugLagrangianOuter", "547a71c540d46530"),
        ("QuadPenaltyOuter", "1340ba411d302ef4"),
        ("QuadPenaltyOuter", "33a258271e46ed92"),
        ("ExactPenaltyOuter", "811eebe7d4455769"),
        ("SquaredErrorOuter", "bb270d5b01806f81"),  # weight 0
        ("SquaredErrorOuter", "08c3f046ae66d5cf"),
    ]
    assert [(type(h).__name__, interval_digest(h)) for h in graph_members()] == expected


def test_squared_error_intervals_match_the_closed_form():
    # the graph's line intercept + slope*t against c*(t - target): the same
    # numbers to rounding, and bit for bit (up to the sign of zero) when
    # c = 2*weight is a power of two, as with the default weight 1
    rng = stream(5, "squared-error-intervals")
    target = rng.normal(size=4)
    for weight in (0.0, 0.5, 1.0, 2.0, 1.5, 0.37):
        h, c = SquaredErrorOuter(target, weight), 2.0 * weight
        for i in range(h.m):
            for t in np.concatenate([target, rng.normal(scale=3.0, size=50)]):
                for slack in (0.0, KINK_TOL, 0.1):
                    lo, hi = h.subdiff_1d(i, float(t), slack)
                    old = (c * (t - slack - target[i]), c * (t + slack - target[i]))
                    if weight in (0.0, 0.5, 1.0, 2.0):
                        assert (lo, hi) == old
                    tol = 4e-16 * c * (abs(t) + slack + abs(target[i]))
                    assert abs(lo - old[0]) <= tol and abs(hi - old[1]) <= tol


def test_support_subdiff_not_separable():
    h = SupportOuter([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CapabilityError):
        h.subdiff_1d(0, 0.0)


def test_subgradient_inequality_property():
    rng = stream(123, "subgradient-inequality")
    for h in catalogue():
        for _ in range(40):
            z = h.sample_domain_point(rng)
            zp = h.sample_domain_point(rng)
            vz, vzp = h.value(z), h.value(zp)
            if math.isinf(vz) or math.isinf(vzp):
                continue
            subs = []
            if h.separable:
                lohsi = [h.subdiff_1d(i, float(z[i])) for i in range(h.m)]
                if any(iv is None for iv in lohsi):
                    continue
                los = np.array([iv[0] for iv in lohsi])
                his = np.array([iv[1] for iv in lohsi])
                if not (np.all(np.isfinite(los)) and np.all(np.isfinite(his))):
                    continue
                subs = [los, his]
            else:
                subs = list(h.subdiff_generators(z, 0.0))
            for v in subs:
                assert vzp >= vz + float(np.dot(v, zp - z)) - 1e-9 * (1 + abs(vz) + abs(vzp))


# ---------------------------------------------------------------------------
# prox


def test_prox_examples():
    h = LinearOuter([2.0, -1.0])
    z = np.array([1.0, 1.0])
    assert np.allclose(h.prox(z, 0.5), z - 0.5 * np.array([2.0, -1.0]))
    hp = ExactPenaltyOuter(1.0, 2)
    w = hp.prox(np.array([0.0, 0.3]), 1.0)
    assert w[1] == 0.0
    hq = QuadPenaltyOuter(1.0, 2)
    w = hq.prox(np.array([0.0, -2.0]), 1.0)
    assert w[1] == -2.0


def test_log_barrier_prox_unsupported():
    with pytest.raises(CapabilityError):
        LogBarrierOuter(1.0, 2).prox(np.array([0.0, -1.0]), 1.0)


def test_prox_optimality_property():
    rng = stream(77, "prox-optimality")
    for h in catalogue():
        if not (h.prox_available and h.separable):
            continue
        for _ in range(25):
            z = h.sample_domain_point(rng)
            step = float(rng.uniform(0.1, 2.0))
            w = h.prox(z, step)
            for i in range(h.m):
                iv = h.subdiff_1d(i, float(w[i]), 1e-10)
                assert iv is not None
                target = -(w[i] - z[i]) / step
                assert iv[0] - 1e-8 <= target <= iv[1] + 1e-8


def test_support_prox_optimality():
    h = SupportOuter([[1.0, 0.0], [0.0, 1.0]])
    rng = stream(78, "support-prox")
    for _ in range(20):
        z = rng.normal(scale=2.0, size=2)
        step = float(rng.uniform(0.2, 2.0))
        w = h.prox(z, step)
        d, _ = h.subdiff_distance(-(w - z) / step, w, 1e-9)
        assert d <= 1e-8


def test_softplus_goal_prox_newton():
    h = SoftplusGoalOuter([2.0], [1.0], 7.0)
    z = np.array([1.4])
    step = 0.7
    w = h.prox(z, step)
    # optimality: w - z + step * h'(w) = 0 to the stated 1e-12
    resid = w[0] - z[0] + step * float(h.grad(w)[0])
    assert abs(resid) <= 1e-12 * (1 + abs(w[0]))


# ---------------------------------------------------------------------------
# graphs


def test_equality_indicator_graph():
    g = EqualityIndicatorOuter(2).graph_1d(1)
    assert len(g.pieces) == 1
    p = g.pieces[0]
    assert p.is_vertical and p.z_lo == 0.0
    assert p.v_lo == -math.inf and p.v_hi == math.inf


def test_aug_lagrangian_graph_line():
    g = AugLagrangianOuter([0.0], 10.0).graph_1d(1)
    p = g.pieces[0]
    assert p.slope == 10.0 and p.intercept == 0.0


def test_goal_graph_matches_dense_interval_sampling():
    h = GoalOuter([1.0], [0.0])
    g = h.graph_1d(0)
    assert len(g.pieces) == 3
    # oracle: every sampled (z, subdiff endpoint) lies on the graph
    for z in np.linspace(-2, 2, 401):
        lo, hi = h.subdiff_1d(0, float(z))
        for v in (lo, hi):
            on = any(pc.z_lo - 1e-12 <= z <= pc.z_hi + 1e-12
                     and pc.v_lo - 1e-12 <= v <= pc.v_hi + 1e-12
                     for pc in g.pieces)
            assert on


def test_graph_monotonicity_property():
    rng = stream(99, "graph-monotonicity")
    for h in catalogue():
        if not h.separable:
            continue
        for i in range(h.m):
            try:
                g = h.graph_1d(i)
            except CapabilityError:
                continue
            pts = []
            for pc in g.clipped(50.0):
                for s in rng.random(8):
                    pts.append(point_at(pc, float(s)))
            for (z1, v1) in pts:
                for (z2, v2) in pts:
                    assert (z1 - z2) * (v1 - v2) >= -1e-12


# ---------------------------------------------------------------------------
# family-level properties


def test_quad_penalty_below_indicator_and_monotone():
    h_pen = QuadPenaltyOuter(100.0, 3)
    h_ind = InequalityIndicatorOuter(3)
    rng = stream(42, "penalty-ordering")
    for _ in range(200):
        z = rng.normal(scale=2.0, size=3)
        assert h_pen.value(z) <= h_ind.value(z)
        zbar = z + np.abs(rng.normal(scale=0.5, size=3))
        assert h_pen.value(z) <= h_pen.value(zbar) + 1e-12


def test_midpoint_convexity_across_catalogue():
    rng = stream(7, "midpoint-convexity")
    for h in catalogue():
        tested = check_midpoint_convexity(h, rng, samples=60)
        assert tested > 0


def test_support_subdiff_distance_at_three_way_tie():
    h = SupportOuter([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    z = np.zeros(3)   # all three points tie
    mid = np.full(3, 1.0 / 3.0)
    d, exact = h.subdiff_distance(mid, z)
    assert exact and d <= 1e-12
    outside = np.array([1.0, 1.0, 1.0])
    d, exact = h.subdiff_distance(outside, z)
    # distance from (1,1,1) to the simplex is |(1,1,1) - (1/3,...)| = 2/sqrt(3)
    assert exact and d == pytest.approx(2.0 / math.sqrt(3.0))


def test_support_points_validated():
    with pytest.raises(ValueError):
        SupportOuter([[0.5, 0.2]])
    with pytest.raises(ValueError):
        SupportOuter([[1.2, -0.2]])


@pytest.mark.parametrize("make", [
    lambda: AugLagrangianOuter([math.nan], 1.0),
    lambda: AugLagrangianOuter([0.0], math.nan),
    lambda: AugLagrangianOuter([0.0], math.inf),
    lambda: AugLagrangianOuter([0.0], -1.0),
    lambda: QuadPenaltyOuter(math.nan, 3),
    lambda: QuadPenaltyOuter(math.inf, 3),
    lambda: QuadPenaltyOuter(1.0, 2.7),
    lambda: QuadPenaltyOuter(1.0, 1),
    lambda: ExactPenaltyOuter(math.nan, 3),
    lambda: ExactPenaltyOuter(math.inf, 3),
    lambda: ExactPenaltyOuter(1.0, True),
    lambda: LogBarrierOuter(math.inf, 3),
    lambda: LogBarrierOuter(0.0, 3),
    lambda: LogBarrierOuter(1.0, 2.0),
], ids=["aug-y-nan", "aug-theta-nan", "aug-theta-inf", "aug-theta-negative",
        "quad-theta-nan", "quad-theta-inf", "quad-m-fraction", "quad-m-one",
        "exact-theta-nan", "exact-theta-inf", "exact-m-bool", "barrier-theta-inf",
        "barrier-theta-zero", "barrier-m-float"])
def test_penalty_constructors_reject_bad_parameters(make):
    with pytest.raises(ValueError):
        make()


def test_homotopy_subdiff_delegation():
    base = GoalOuter([1.0], [0.0])
    h = HomotopyOuter(base, 0.25)
    assert h.subdiff_1d(0, 0.0) == (0.0, 0.75)
    assert h.subdiff_1d(1, 3.0) == (0.25, 0.25)
