import hashlib
import math

import numpy as np
import pytest

from compapprox.errors import CapabilityError
from compapprox.geometry import dist_to_hull
from compapprox.inner import (ACTIVITY_TOL, Activation, AffineMapping,
                              MinSmoothMapping, NetworkForwardMapping,
                              NetworkLiftMapping, QuadraticArrayMapping,
                              SampleAverageMapping, build_network_lift,
                              resample)
from compapprox.outer import SquaredErrorOuter
from compapprox.rng import stream


def _two_piece():
    # pieces x and -x in one variable
    Z = np.zeros((1, 1))
    return MinSmoothMapping([[(Z, np.array([1.0]), 0.0), (Z, np.array([-1.0]), 0.0)]],
                            theta=None)


def test_min_exact_tie():
    F = _two_piece()
    assert F.eval(np.array([0.0]))[0] == 0.0


def test_min_smoothed_tie_offset():
    F = _two_piece().with_theta(1.0)
    assert F.eval(np.array([0.0]))[0] == pytest.approx(-math.log(2.0))


def test_min_smoothed_sandwich_at_point():
    F = _two_piece().with_theta(10.0)
    v = F.eval(np.array([1.0]))[0]
    assert -1.0 - math.log(2.0) / 10.0 <= v <= -1.0


def test_smoothed_weights_tie_symmetry():
    F = _two_piece().with_theta(1.0)
    rep = F.jacobian(np.array([0.0]))
    assert np.allclose(rep.weights[0], [0.5, 0.5])
    assert rep.matrix[0, 0] == pytest.approx(0.0)
    assert abs(rep.weights[0].sum() - 1.0) <= 1e-12


def test_affine_jacobian():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    F = AffineMapping(A, [0.0, 1.0])
    rep = F.jacobian(np.array([5.0, -1.0]))
    assert np.allclose(rep.matrix, A)


def test_quadratic_jacobian_example():
    F = QuadraticArrayMapping([([[2.0]], [0.0], 0.0)])
    rep = F.jacobian(np.array([3.0]))
    assert rep.matrix[0, 0] == pytest.approx(6.0)


def test_smoothing_sandwich_property():
    rng = stream(2024, "smoothing-sandwich")
    for _ in range(20):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        theta = float(rng.uniform(0.5, 30.0))
        pieces = []
        for _ in range(s):
            M = rng.normal(size=(n, n))
            pieces.append((M + M.T, rng.normal(size=n), float(rng.normal())))
        F = MinSmoothMapping([pieces], None)
        Fs = F.with_theta(theta)
        for _ in range(50):
            x = rng.normal(scale=2.0, size=n)
            exact = F.eval(x)[0]
            sm = Fs.eval(x)[0]
            assert -1e-10 <= exact - sm <= math.log(s) / theta + 1e-10


def test_weight_decay_as_theta_doubles():
    # unique minimizing piece at x = 0.3: off-minimizer weights decay to 0
    F = _two_piece()
    x = np.array([0.3])
    prev = None
    for k in range(11):
        rep = F.with_theta(2.0**k).jacobian(x)
        off = rep.weights[0][0]   # piece "x" has value 0.3 > -0.3
        if prev is not None:
            assert off <= prev + 1e-15
        prev = off
    assert prev <= 1e-8


def test_gradient_in_hull_of_pieces():
    rng = stream(31, "gradient-hull")
    for _ in range(10):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(2, 4))
        pieces = []
        for _ in range(s):
            M = rng.normal(size=(n, n))
            pieces.append((M + M.T, rng.normal(size=n), float(rng.normal())))
        F = MinSmoothMapping([pieces], theta=float(rng.uniform(1.0, 20.0)))
        x = rng.normal(size=n)
        rep = F.jacobian(x)
        grads = [Q @ x + q for Q, q, _ in pieces]
        d, exact = dist_to_hull(rep.matrix[0], np.array(grads))
        assert exact and d <= 1e-10


def test_jacobian_matches_central_differences():
    rng = stream(8, "jacobian-fd")
    mappings = [
        AffineMapping(rng.normal(size=(2, 3)), rng.normal(size=2)),
        QuadraticArrayMapping([(np.eye(3) * 2.0, rng.normal(size=3), 0.5)]),
        _two_piece().with_theta(3.0),
        NetworkForwardMapping(
            [([rng.normal(size=(3, 2)), rng.normal(size=(2, 3))],
              [rng.normal(size=3), rng.normal(size=2)])],
            Activation("softplus", 4.0)),
    ]
    for F in mappings:
        for _ in range(25):
            x = rng.normal(size=F.n)
            J = F.jacobian(x).matrix
            fd = np.zeros_like(J)
            eps = 1e-6
            for j in range(F.n):
                e = np.zeros(F.n)
                e[j] = eps
                fd[:, j] = (F.eval(x + e) - F.eval(x - e)) / (2 * eps)
            denom = 1.0 + np.abs(J)
            assert np.max(np.abs(J - fd) / denom) <= 1e-5


def test_exact_min_activity_tolerance():
    F = _two_piece()
    rep = F.jacobian(np.array([ACTIVITY_TOL / 4.0]))
    assert len(rep.active_grads[0]) == 2


def test_local_lipschitz_sanity():
    rng = stream(12, "lipschitz")
    F = _two_piece().with_theta(50.0)
    for _ in range(200):
        a = rng.uniform(-3, 3, size=1)
        b = a + rng.normal(scale=1e-4, size=1)
        quot = abs(F.eval(a)[0] - F.eval(b)[0]) / max(abs(a[0] - b[0]), 1e-300)
        assert quot <= 1e6


# ---------------------------------------------------------------------------
# sample averages


def test_sample_average_large_count_near_mean():
    F = SampleAverageMapping([[0.0]], [0.0], [[1.0]], [0.0], count=200000, seed=5)
    assert abs(F.eval(np.array([1.0]))[0]) <= 0.01


def test_sample_average_single_draw():
    F = SampleAverageMapping([[0.0]], [0.0], [[1.0]], [0.0], count=1, seed=9)
    v = F.eval(np.array([1.0]))[0]
    assert v in (-1.0, 1.0)


def test_sample_average_determinism():
    a = SampleAverageMapping([[1.0]], [0.5], [[1.0]], [0.0], count=32, seed=1234)
    b = SampleAverageMapping([[1.0]], [0.5], [[1.0]], [0.0], count=32, seed=1234)
    rng = stream(3, "determinism-probe")
    for _ in range(100):
        x = rng.normal(size=1)
        assert a.eval(x)[0] == b.eval(x)[0]


def test_resample_changes_draws_not_structure():
    a = SampleAverageMapping([[1.0]], [0.0], [[1.0]], [0.0], count=8, seed=1)
    b = resample(a, 64, 2)
    assert b.count == 64 and b.n == a.n and b.m == a.m
    mean = a.mean_mapping()
    assert np.allclose(mean.A, [[1.0]])


def test_resample_requires_sample_average():
    with pytest.raises(CapabilityError):
        resample(AffineMapping([[1.0]], [0.0]), 4, 0)


# ---------------------------------------------------------------------------
# networks


def test_relu_lift_examples():
    act = Activation("relu")
    lift = build_network_lift([[[1.0]]], [[0.0]], act, SquaredErrorOuter([0.0]))
    x = lift.lift_point(np.array([-2.0]))
    assert x[1] == 0.0
    assert np.allclose(lift.mapping.eval(x)[1:], 0.0)
    x = lift.lift_point(np.array([3.0]))
    assert x[1] == 3.0
    assert np.allclose(lift.mapping.eval(x)[1:], 0.0)


def test_softplus_lift_example():
    act = Activation("softplus", 10.0)
    lift = build_network_lift([[[1.0]]], [[0.0]], act, SquaredErrorOuter([0.0]))
    x = lift.lift_point(np.array([0.0]))
    assert x[1] == pytest.approx(math.log(2.0) / 10.0, abs=1e-15)
    assert act.gap_bound() == pytest.approx(math.log(2.0) / 10.0)


def test_lift_consistency_with_forward_pass():
    rng = stream(21, "lift-consistency")
    for _ in range(10):
        w1 = rng.normal(size=(4, 2))
        b1 = rng.normal(size=4)
        w2 = rng.normal(size=(3, 4))
        b2 = rng.normal(size=3)
        for act in (Activation("relu"), Activation("softplus", 6.0)):
            direct = NetworkForwardMapping([([w1, w2], [b1, b2])], act)
            lifted = NetworkLiftMapping([([w1, w2], [b1, b2])], act)
            x0 = rng.normal(size=2)
            full = lifted.lift_point(x0)
            out = lifted.block(full, 0, lifted.q)
            assert np.max(np.abs(out - direct.eval(x0))) <= 1e-12
            assert np.max(np.abs(lifted.eval(full)[direct.m:])) <= 1e-12


def test_relu_kink_reports_unit_interval():
    act = Activation("relu")
    assert act.deriv_options(0.0) == [0.0, 1.0]
    assert act.deriv_options(5e-15) == [0.0, 1.0]
    assert act.deriv_options(1.0) == [1.0]
    # on a lift row whose neuron sits exactly at the kink
    lifted = NetworkLiftMapping([([np.array([[1.0]])], [np.array([0.0])])], act)
    x = lifted.lift_point(np.array([0.0]))
    rep = lifted.jacobian(x)
    assert len(rep.active_grads[1]) == 2


def test_dimension_chain_mismatch_rejected():
    with pytest.raises(ValueError):
        NetworkForwardMapping([([np.ones((3, 2)), np.ones((2, 4))],
                                [np.zeros(3), np.zeros(2)])], Activation("relu"))


# ---------------------------------------------------------------------------
# batch evaluation: each row equals the one-point call, bit for bit


def _net(rng, widths):
    weights = [rng.normal(size=(b, a)) / a ** 0.5 for a, b in zip(widths, widths[1:])]
    biases = [rng.normal(scale=0.1, size=b) for b in widths[1:]]
    return weights, biases


def _batch_catalogue():
    rng = stream(3, "batch-catalogue")
    Q = rng.normal(size=(3, 3))
    quad = [(Q + Q.T, rng.normal(size=3), 0.7), (np.eye(3), rng.normal(size=3), -1.2)]
    # pieces x1 + x2 and -x1 - x2 + 0.5: tied along x1 + x2 = 0.25
    tie = [[(np.zeros((3, 3)), np.array([1.0, 1.0, 0.0]), 0.0),
            (np.zeros((3, 3)), np.array([-1.0, -1.0, 0.0]), 0.5)],
           quad]
    nets = [_net(rng, (3, 16, 8, 2)), _net(rng, (3, 16, 8, 2))]
    return {
        "affine": AffineMapping(rng.normal(size=(4, 3)), rng.normal(size=4)),
        "quadratic": QuadraticArrayMapping(quad),
        "min-exact": MinSmoothMapping(tie),
        "min-smoothed": MinSmoothMapping(tie, theta=7.0),
        "sample-average": SampleAverageMapping(rng.normal(size=(2, 3)), rng.normal(size=2),
                                               rng.normal(size=(2, 3)), rng.normal(size=2),
                                               count=9, seed=4),
        "relu-net": NetworkForwardMapping(nets, Activation("relu")),
        "softplus-net": NetworkForwardMapping(nets, Activation("softplus", 5.0)),
        "relu-lift": NetworkLiftMapping(nets[:1], Activation("relu")),
    }


def _batch_points(F):
    rng = stream(5, "batch-points", str(F.n))
    P = rng.uniform(-1.5, 1.5, size=(40, F.n))
    P[0] = 0.0
    if F.n == 3:
        P[1] = [0.125, 0.125, 0.3]     # the min-smooth tie
    return P


@pytest.mark.parametrize("name", list(_batch_catalogue()))
@pytest.mark.parametrize("layout", ["contiguous", "single-row", "strided-columns",
                                    "strided-rows"])
def test_batch_calls_equal_one_point_calls(name, layout):
    F = _batch_catalogue()[name]
    P = _batch_points(F)
    if layout == "single-row":
        P = P[1:2]
    elif layout == "strided-columns":
        P = np.repeat(P, 2, axis=1)[:, ::2]
    elif layout == "strided-rows":
        P = P[::3]
    values = F.eval_batch(P)
    J, multi = F.jacobian_batch(P)
    assert values.shape == (len(P), F.m)
    assert J.shape == (len(P), F.m, F.n) and multi.shape == (len(P), F.m)
    for k, p in enumerate(P):
        rep = F.jacobian(p)
        assert values[k].tobytes() == F.eval(p).tobytes()
        assert J[k].tobytes() == rep.matrix.tobytes()
        assert multi[k].tolist() == [len(a) > 1 for a in rep.active_grads]


#: sha256 over the bytes of eval(p), jacobian(p).matrix and every active_grads
#: entry at each row p of _batch_points(F), recorded from the separate
#: one-point implementations the batch calls replaced
ONE_POINT_DIGESTS = {
    "affine": "2c53ff1c91f69a96d80be9bf15fa3f1e33810fd0e51d8e48dd66152cee592393",
    "quadratic": "8b0ff14e9805ecffdcd26dccba2b8c72490df15ca0c2677324679d28eea362f1",
    "min-exact": "94773f8cbdce94801c77b5cb680e5b280c57fef785026db8c78fa74ac41a79a3",
    "min-smoothed": "847257cc2a491e680e7203802ec6846c97c39a0b975c31b26f17beac5798d17b",
    "sample-average": "2f9905c0cc6bcad19404cc3001c2ece1f72a05f0158d6882db19ba868cf74493",
    "relu-net": "1916a33b43f2dcedc956d07e06633691db810eb515775e16e13fa3a25dd9d69f",
    "softplus-net": "2aba58cbf5783a20f8555f8dced381147b8d01efeffea31f0c99d1334ad4ae71",
    "relu-lift": "fdd7449b123577dedfb16f3d1679efc4262250ef7948054b68385a67f933350a",
}


@pytest.mark.parametrize("name", list(_batch_catalogue()))
def test_one_point_calls_match_recorded_digests(name):
    F = _batch_catalogue()[name]
    digest = hashlib.sha256()
    for p in _batch_points(F):
        rep = F.jacobian(p)
        digest.update(F.eval(p).tobytes())
        digest.update(rep.matrix.tobytes())
        for grads in rep.active_grads:
            for g in grads:
                digest.update(np.asarray(g).tobytes())
    assert digest.hexdigest() == ONE_POINT_DIGESTS[name]


def test_batch_mask_flags_kinks_and_ties():
    act = Activation("relu")
    lifted = NetworkLiftMapping([([np.array([[1.0]])], [np.array([0.0])])], act)
    P = np.array([lifted.lift_point(np.array([0.0])), lifted.lift_point(np.array([1.0]))])
    _, multi = lifted.jacobian_batch(P)
    assert multi.tolist() == [[False, True], [False, False]]
    exact = _two_piece()
    _, multi = exact.jacobian_batch(np.array([[0.0], [0.5]]))
    assert multi.tolist() == [[True], [False]]
    _, multi = exact.with_theta(3.0).jacobian_batch(np.array([[0.0], [0.5]]))
    assert not multi.any()


def test_batch_calls_check_the_shape():
    F = AffineMapping(np.ones((2, 3)), np.zeros(2))
    for bad in (np.zeros(3), np.zeros((4, 2))):
        with pytest.raises(ValueError):
            F.eval_batch(bad)
        with pytest.raises(ValueError):
            F.jacobian_batch(bad)


@pytest.mark.parametrize("make", [
    lambda: AffineMapping([[math.nan]], [0.0]),
    lambda: AffineMapping([[1.0]], [math.inf]),
    lambda: QuadraticArrayMapping([([[1.0]], [0.0], math.nan)]),
    lambda: QuadraticArrayMapping([([[math.inf]], [0.0], 0.0)]),
    lambda: MinSmoothMapping([[([[1.0]], [-math.inf], 0.0)]]),
    lambda: MinSmoothMapping([[([[1.0]], [0.0], 0.0)]], theta=math.inf),
    lambda: SampleAverageMapping([[1.0]], [0.0], [[math.nan]], [0.0]),
    lambda: SampleAverageMapping([[1.0]], [0.0], [[1.0]], [0.0], dist=("uniform", 0, math.inf)),
    lambda: NetworkForwardMapping([([[[math.nan]]], [[0.0]])], Activation("relu")),
    lambda: NetworkForwardMapping([([[[1.0]]], [[math.inf]])], Activation("relu")),
    lambda: Activation("softplus", math.nan),
])
def test_inner_constructors_reject_nonfinite_parameters(make):
    with pytest.raises(ValueError):
        make()
