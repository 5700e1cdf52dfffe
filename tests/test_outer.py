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
                              LinearOuter, LogBarrierOuter, OuterFunction,
                              QuadPenaltyOuter, SoftplusGoalOuter, SquaredErrorOuter,
                              SupportOuter, softplus, softplus_grad)
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
    # the penalty and the indicator it approximates, with a first coordinate
    # added: every other row feasible, so the indicator is finite there
    Z1 = np.column_stack([rng.normal(0.0, 3.0, size=257), Z])
    Z1[::2, 1:] = -np.abs(Z1[::2, 1:])
    for h in (QuadPenaltyOuter(0.37, m + 1), QuadPenaltyOuter(1e4, m + 1),
              InequalityIndicatorOuter(m + 1), InequalityIndicatorOuter(m + 1, first_linear=False)):
        expected = np.array([h.value(z) for z in Z1])
        assert h.value_batch(Z1).tobytes() == expected.tobytes(), type(h).__name__
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
        HomotopyOuter(SquaredErrorOuter([0.3, -0.7], 1.5), 0.37),
        HomotopyOuter(QuadPenaltyOuter(0.37, 2), 0.25),
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
    # and at weight 0 (-0.0 left of the target gave af415d346df8d694). The two
    # homotopies over a sloped base were added with the kink table: their ends
    # now round as the scaled table's s*a + (s*b)*t, the line of their graph,
    # where s*(a + b*t) gave 8570164ffab353ab and acd3a3b61c80f0c0
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
        ("HomotopyOuter", "7e6d274943eded7b"),  # over SquaredErrorOuter
        ("HomotopyOuter", "9a208cc926d7e737"),  # over QuadPenaltyOuter
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


def test_homotopy_intervals_are_its_graph_and_the_scaled_base():
    # over a sloped base the ends are the graph's line, scaled intercept plus
    # scaled slope times t, bit for bit, and (1 - lam) times the base's ends
    # to rounding
    rng = stream(6, "homotopy-intervals")
    target = rng.normal(size=3)
    for base in (SquaredErrorOuter(target, 1.5), QuadPenaltyOuter(0.37, 3),
                 AugLagrangianOuter(target[1:], 0.37), GoalOuter([0.7, 1.3, 0.2], target)):
        for lam in (0.0, 0.25, 0.37, 0.9):
            h, s = HomotopyOuter(base, lam), 1.0 - lam
            for i in range(base.m):
                pieces = h.graph_1d(i).pieces
                for t in np.concatenate([target, rng.normal(scale=2.0, size=30)]):
                    for slack in (0.0, KINK_TOL, 0.1):
                        lo, hi = h.subdiff_1d(i, float(t), slack)
                        for end, at in ((lo, t - slack), (hi, t + slack)):
                            p = next(p for p in pieces if not p.is_vertical
                                     and p.z_lo <= at <= p.z_hi)
                            if not p.is_flat and (p.z_lo < at < p.z_hi):
                                assert end == p.intercept + p.slope * at
                        b_lo, b_hi = base.subdiff_1d(i, float(t), slack)
                        tol = 4e-16 * (abs(b_lo) + abs(b_hi) + abs(t) + slack + 1.0)
                        assert abs(lo - s * b_lo) <= tol and abs(hi - s * b_hi) <= tol


def graph_digest(h):
    """sha256 of all six fields of every graph_1d piece, coordinate by coordinate."""
    digest = hashlib.sha256()
    for i in range(h.m):
        for p in h.graph_1d(i).pieces:
            digest.update(struct.pack("<6d", *p))
        digest.update(b"|")
    return digest.hexdigest()[:16]


def test_graphs_read_off_the_kink_table_are_pinned():
    # the pieces each member built by hand, bit for bit, except ExactPenaltyOuter
    # at theta = 0: its two flat pieces v = -0.0 and v = 0.0, joined by a
    # zero-length vertical piece, are now the one flat piece v = -0.0
    # (9c4150965b8f002d before); its intervals did not change
    expected = [
        ("GoalOuter", "7318ac6d035fd097"),
        ("LinearOuter", "d23f0f02a21213b8"),
        ("EqualityIndicatorOuter", "82549d276b6346ed"),
        ("InequalityIndicatorOuter", "7a4d4d759a34ff18"),
        ("AugLagrangianOuter", "8eecd92b823bd4d8"),
        ("QuadPenaltyOuter", "3d9969075d0f60cc"),
        ("ExactPenaltyOuter", "84923cf32d5b05e3"),
        ("HomotopyOuter", "a8f01bb8bfbb3f1c"),
        ("SquaredErrorOuter", "43d74fd6fb213fec"),
        ("BlockSeparableOuter", "c6bb3bd275b0c1f8"),
        ("GoalOuter", "0976137635770679"),
        ("EqualityIndicatorOuter", "e97d3d4d250cc797"),
        ("InequalityIndicatorOuter", "1878865d17046280"),
        ("AugLagrangianOuter", "c746ab7c11671f49"),
        ("AugLagrangianOuter", "ec9598c65e6b435a"),
        ("QuadPenaltyOuter", "7835010801f34fb2"),
        ("QuadPenaltyOuter", "e0f1c1ec4de90e3e"),
        ("ExactPenaltyOuter", "d9052c1519df6c81"),  # theta 0
        ("SquaredErrorOuter", "55372b1ae69edde7"),
        ("SquaredErrorOuter", "d7dd4d6a21953a8d"),
        ("HomotopyOuter", "4ae017aa3a683e14"),  # over SquaredErrorOuter
        ("HomotopyOuter", "ea6fe7849f3a06c1"),  # over QuadPenaltyOuter
    ]
    assert [(type(h).__name__, graph_digest(h)) for h in graph_members()] == expected
    flat = ExactPenaltyOuter(0.0, 3).graph_1d(1).pieces
    assert len(flat) == 1 and flat[0].is_flat and flat[0].z_lo == -math.inf


def separable_members(m, rng):
    """One of every separable member with m coordinates (those that allow m)."""
    alpha, tau, p = rng.uniform(0.0, 2.0, m), rng.normal(size=m), rng.normal(size=m)
    out = [GoalOuter(alpha, tau), SoftplusGoalOuter(alpha, tau, 7.5), LinearOuter(p),
           EqualityIndicatorOuter(m, first_linear=m > 1),
           InequalityIndicatorOuter(m, first_linear=m > 1),
           AugLagrangianOuter(p[1:], 0.37), SquaredErrorOuter(tau, 1.5)]
    if m > 1:
        out += [QuadPenaltyOuter(0.37, m), ExactPenaltyOuter(3.0, m), LogBarrierOuter(2.0, m),
                HomotopyOuter(GoalOuter(alpha[1:], tau[1:]), 0.25),
                HomotopyOuter(SquaredErrorOuter(tau[1:], 1.5), 0.37),
                BlockSeparableOuter([ExactPenaltyOuter(1.0, 2)] * (m // 2)
                                    + [GoalOuter([1.0], [0.5])] * (m % 2))]
    return out


def _kinks(h, i):
    """Where dh_i bends: the graph's breakpoints, the softplus centre, the barrier's edge."""
    if isinstance(h, SoftplusGoalOuter):
        return [float(h.tau[i])]
    if isinstance(h, LogBarrierOuter):
        return [-h.DOM_MARGIN, -0.5]
    return [z for p in h.graph_1d(i).pieces for z in (p.z_lo, p.z_hi) if math.isfinite(z)]


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 33, 101])
def test_subdiff_distance_is_the_coordinate_order_sum_bit_for_bit(m):
    # the array code against a loop over the coordinates: interval distances
    # from subdiff_1d, squared and added in coordinate order (np.sum's
    # pairwise order differs from m = 8 on)
    rng = stream(m, "subdiff-distance-bits")
    offsets = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * KINK_TOL
    for h in separable_members(m, rng):
        for _ in range(6):
            z = np.array([rng.choice(_kinks(h, i) or [0.0]) for i in range(m)])
            z += rng.choice(offsets, size=m)
            off = rng.random(m) < 0.2            # and some coordinates off the kinks
            z[off] = rng.normal(size=int(off.sum()))
            for slack in (0.0, KINK_TOL):
                ivs = [h.subdiff_1d(i, float(z[i]), slack) for i in range(m)]
                ends = [iv[rng.integers(2)] if iv else 0.0 for iv in ivs]
                y = np.where(np.isfinite(ends), ends, 0.0) + rng.choice([0.0, 0.0, 1e-3, -1e-3], m)
                total = 0.0
                for iv, yi in zip(ivs, y):
                    d = (math.inf if iv is None else iv[0] - yi if yi < iv[0]
                         else yi - iv[1] if yi > iv[1] else 0.0)
                    total += d * d
                got, exact = h.subdiff_distance(y, z, slack)
                assert exact
                assert struct.pack("<d", got) == struct.pack("<d", math.sqrt(total)), \
                    (type(h).__name__, m, slack)


def test_block_intervals_are_its_parts_bit_for_bit():
    # the concatenated table mixes flat and sloped branches; a flat branch
    # still gives its a itself (ExactPenaltyOuter at theta = 0 has a = -0.0)
    parts = [ExactPenaltyOuter(0.0, 2), QuadPenaltyOuter(0.37, 2),
             SquaredErrorOuter([0.3], 1.5), GoalOuter([0.0, 2.0], [0.0, -0.5])]
    h = BlockSeparableOuter(parts)
    for t in (-1.0, -KINK_TOL, -0.0, 0.0, KINK_TOL, 0.3, 1.0):
        for slack in (0.0, KINK_TOL):
            got = h.subdiff_intervals(np.full(h.m, t), slack)
            want = zip(*(p.subdiff_intervals(np.full(p.m, t), slack) for p in parts))
            assert [g.tobytes() for g in got] == [np.concatenate(w).tobytes() for w in want]


def test_subdiff_distance_is_inf_at_a_nan():
    # a NaN in y or z certifies nothing, and a flat branch must not turn a
    # NaN z into a finite distance
    h = ExactPenaltyOuter(3.0, 3)
    assert h.subdiff_distance([math.nan, 0.0, 0.0], np.zeros(3)) == (math.inf, True)
    assert h.subdiff_distance(np.zeros(3), [math.nan, 0.0, 0.0]) == (math.inf, True)
    rng = stream(3, "subdiff-distance-nan")
    for h in separable_members(3, rng):
        z = h.sample_domain_point(rng)
        y = np.zeros(3)
        for i in range(3):
            bad = z.copy()
            bad[i] = math.nan
            assert h.subdiff_distance(y, bad, KINK_TOL)[0] == math.inf, type(h).__name__
            assert h.subdiff_1d(i, math.nan) is None, type(h).__name__
            bad = y.copy()
            bad[i] = math.nan
            assert h.subdiff_distance(bad, z, KINK_TOL)[0] == math.inf, type(h).__name__


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


def prox_points(h, rng):
    """Seeded (z, step): random z, with coordinates at, just off and at the
    ends of the kink's prox interval k + step*[left(k), right(k)]."""
    ends = []
    for i in range(h.m):
        kinks = sorted(set(_kinks(h, i))) or [0.0]
        ends.append([(k, h.subdiff_1d(i, k)) for k in kinks])
    for step in (0.37, 1.0, 2.5):
        for _ in range(40):
            z = rng.normal(0.0, 2.0, size=h.m)
            for i in np.flatnonzero(rng.random(h.m) < 0.6):
                k, (lo, hi) = ends[i][rng.integers(len(ends[i]))]
                at = [k, -0.0 if k == 0.0 else k] + [k + step * v for v in (lo, hi)
                                                    if math.isfinite(v)]
                z[i] = at[rng.integers(len(at))] * (1.0 + rng.choice([0.0, 0.0, 1e-15, -1e-15]))
            yield z, step


def prox_members():
    """Every separable member with a prox: the graphs' and the softplus goal."""
    return graph_members() + [h for h in catalogue() if isinstance(h, SoftplusGoalOuter)]


def test_prox_minimizes_the_hand_written_value():
    # the table gives both prox and subdiff_1d, so test prox against value:
    # phi(u) = h(u) + ||u - z||^2/(2 step) must not fall along any coordinate
    for h in prox_members():
        for z, step in prox_points(h, stream(20, "prox-minimizes")):
            def phi(u):
                return h.value(u) + float((u - z) @ (u - z)) / (2.0 * step)
            w = h.prox(z, step)
            best = phi(w)
            assert math.isfinite(best), (type(h).__name__, z, step)
            tol = 1e-12 * (1.0 + abs(best))
            for i in range(h.m):
                for eps in (1e-3, -1e-3, 1e-6, -1e-6):
                    u = w.copy()
                    u[i] += eps
                    assert best <= phi(u) + tol, (type(h).__name__, z, step, i, eps)


def prox_digest(h):
    """sha256 of prox(z, step) + 0.0 (signed zeros made equal) at prox_points."""
    digest = hashlib.sha256()
    for z, step in prox_points(h, stream(19, "prox-bits")):
        digest.update((h.prox(z, step) + 0.0).tobytes())
    return digest.hexdigest()[:16]


def test_prox_read_off_the_kink_table_is_pinned():
    # the prox each member wrote by hand, bit for bit up to the sign of zero,
    # except the two homotopies over a sloped base: the table's scaled branch
    # rounds as step*((1 - lam)*a), where the base's prox at the scaled step
    # rounded as (step*(1 - lam))*a (8ba37cd6d072d7c9 and 1749c0017fb69244)
    expected = [
        ("GoalOuter", "921746078dc89016"),
        ("LinearOuter", "79a9c5708e21bea6"),
        ("EqualityIndicatorOuter", "055cbc16b5ae1d4d"),
        ("InequalityIndicatorOuter", "db8ebf72b913ccb3"),
        ("AugLagrangianOuter", "ffb1aa3b4bdb2b51"),
        ("QuadPenaltyOuter", "49a283d42f211f7e"),
        ("ExactPenaltyOuter", "bbfd5f3b8f1fd328"),
        ("HomotopyOuter", "a021573f696d762a"),
        ("SquaredErrorOuter", "06a12b43889eff32"),  # weight 1.5
        ("BlockSeparableOuter", "05c48220ed4f23df"),
        ("GoalOuter", "f3d8314006d22277"),
        ("EqualityIndicatorOuter", "155e437b946ac82a"),
        ("InequalityIndicatorOuter", "5e83d4e75759cc53"),
        ("AugLagrangianOuter", "59ba86cd726108f9"),
        ("AugLagrangianOuter", "8e9f78f1ca2e3e90"),
        ("QuadPenaltyOuter", "c1c8f1b86a00bce0"),
        ("QuadPenaltyOuter", "0e286164c7e4b8e3"),
        ("ExactPenaltyOuter", "c1c8f1b86a00bce0"),  # theta 0: the identity, as theta 0 above
        ("SquaredErrorOuter", "945473191de81bdb"),  # weight 0
        ("SquaredErrorOuter", "77ab3d962cd97da5"),
        ("HomotopyOuter", "f469bf8f1b12160b"),  # over SquaredErrorOuter
        ("HomotopyOuter", "d348a73a584dd423"),  # over QuadPenaltyOuter
    ]
    assert [(type(h).__name__, prox_digest(h)) for h in graph_members()] == expected


def test_prox_available_exactly_when_prox_answers():
    # the flag is derived: a kink table, or a prox of the class's own
    curved = [LogBarrierOuter(2.0, 3), SoftplusGoalOuter([1.0, 2.0], [0.0, 1.0], 5.0)]
    wrappers = [HomotopyOuter(b, 0.3) for b in curved] + [
        BlockSeparableOuter([SupportOuter([[1.0, 0.0], [0.0, 1.0]]), LinearOuter([1.0])])]
    rng = stream(21, "prox-available")
    for h in catalogue() + wrappers:
        try:
            h.prox(h.sample_domain_point(rng), 0.5)
            answered = True
        except CapabilityError:
            answered = False
        assert h.prox_available == answered, type(h).__name__
    assert not any(h.prox_available for h in wrappers)


def test_prox_is_nan_at_a_nan():
    # a NaN z_i falls to a branch formula, never to the kink
    rng = stream(22, "prox-nan")
    for h in graph_members():
        z = rng.normal(size=h.m)
        for i in range(h.m):
            bad = z.copy()
            bad[i] = math.nan
            w = h.prox(bad, 0.7)
            assert math.isnan(w[i]) and not np.isnan(np.delete(w, i)).any(), type(h).__name__


def test_softplus_goal_prox_newton():
    h = SoftplusGoalOuter([2.0], [1.0], 7.0)
    z = np.array([1.4])
    step = 0.7
    w = h.prox(z, step)
    # optimality: w - z + step * h'(w) = 0 to the stated 1e-12
    resid = w[0] - z[0] + step * float(h.grad(w)[0])
    assert abs(resid) <= 1e-12 * (1 + abs(w[0]))


def test_softplus_goal_prox_converges_across_a_steep_sigmoid():
    # at step * alpha * theta = 25 undamped Newton steps bounced between the
    # ends of the bracket here and ran out of iterations
    h = SoftplusGoalOuter([2.0, 2.0], [1.0, 1.0], 5.0)
    z, step = np.array([1.604, 5.395]), 2.5
    w = h.prox(z, step)
    assert np.all(np.abs(w - z + step * h.grad(w)) <= 1e-10 * (1.0 + np.abs(w)))


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


class _Kinked(OuterFunction):
    def __init__(self, *table):
        self.m = 2
        self._set_table(*table)


@pytest.mark.parametrize("table", [
    (0.0, 0.0, -1.0, 1.0, 0.0),              # a falling left branch
    (0.0, 0.0, 0.0, 1.0, -0.5),              # a falling right branch
    (0.0, 1.0, 0.0, 0.0, 0.0),               # left(k) > right(k)
    ([0.0, 1.0], 0.0, 2.0, 1.0, 0.0),        # sloped left branch above the right at k
    (0.0, math.inf, 0.0, math.inf, 0.0),     # a left branch at +inf
    (0.0, -math.inf, 0.0, -math.inf, 0.0),   # a right branch at -inf
    (math.nan, 0.0, 0.0, 1.0, 0.0),
    (0.0, math.nan, 0.0, 1.0, 0.0),
    (0.0, 0.0, math.nan, 1.0, 0.0),
], ids=["left-slope", "right-slope", "reversed-jump", "reversed-slope", "left-inf",
        "right-inf", "k-nan", "a-nan", "b-nan"])
def test_kink_table_must_be_monotone(table):
    with pytest.raises(ValueError, match="not monotone"):
        _Kinked(*table)
    _Kinked(0.0, -math.inf, 0.0, 1.0, 2.0)      # a half-line domain is fine


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


@pytest.mark.parametrize("lam", [1.0, 1.5, -0.25, math.nan])
def test_homotopy_rejects_lam_outside_zero_one(lam):
    # at lam = 1 the base term would be switched off: 0 * inf in the value
    # and (nan, nan) intervals where h is infinite
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        HomotopyOuter(EqualityIndicatorOuter(2), lam)


def test_wrappers_over_a_curved_part_are_not_separable():
    # a wrapper reads its parts' kink tables; a curved part has none
    curved = SoftplusGoalOuter([1.0], [0.0], 5.0)
    for h in (HomotopyOuter(curved, 0.5), BlockSeparableOuter([curved, LinearOuter([1.0])])):
        assert not h.separable
        with pytest.raises(CapabilityError):
            h.subdiff_1d(0, 0.0)
