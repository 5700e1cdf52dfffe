import math

import numpy as np
import pytest

from compapprox.geometry import Box, WholeSpace
from compapprox.inner import AffineMapping, MinSmoothMapping, QuadraticArrayMapping
from compapprox.model import (CompositeProblem, StationarityTriple, eval_phi,
                              stationarity_residual)
from compapprox.outer import GoalOuter, LinearOuter
from compapprox.rng import stream


def goal_problem(box=None):
    h = GoalOuter([1.0], [0.0])
    F = AffineMapping([[1.0]], [0.0])
    X = box if box is not None else WholeSpace(1)
    return CompositeProblem(X, h, F)


def test_eval_phi_examples():
    p = goal_problem()
    assert eval_phi(p, [-1.0]) == 0.0
    assert eval_phi(p, [2.0]) == 2.0
    pb = goal_problem(Box([0.0], [1.0]))
    assert eval_phi(pb, [2.0]) == math.inf


def test_eval_phi_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_phi(goal_problem(), [1.0, 2.0])


def test_eval_phi_finite_implies_projection_identity():
    rng = stream(17, "phi-membership")
    p = goal_problem(Box([-0.5], [0.5]))
    for _ in range(100):
        x = rng.normal(scale=1.0, size=1)
        if math.isfinite(eval_phi(p, x)):
            assert np.linalg.norm(p.X.project(x) - x) <= 1e-10


def quad_demo_problem():
    # h(z) = z, F(x) = (x-1)^2 over the whole line
    return CompositeProblem(WholeSpace(1), LinearOuter([1.0]),
                            QuadraticArrayMapping([([[2.0]], [-2.0], 1.0)]))


def test_stationarity_residual_exact_point():
    p = quad_demo_problem()
    r = stationarity_residual(p, StationarityTriple([1.0], [1.0], [0.0]))
    assert (r.u_norm, r.v_dist, r.w_dist) == (0.0, 0.0, 0.0)
    assert r.combined == 0.0


def test_stationarity_residual_z_off():
    p = quad_demo_problem()
    r = stationarity_residual(p, StationarityTriple([1.0], [1.0], [0.5]))
    assert r.u_norm == pytest.approx(0.5)
    assert r.v_dist == 0.0 and r.w_dist == 0.0
    assert r.combined == pytest.approx(0.5)


def test_v_dist_goal_interval_example():
    # dist(3, [0, 2]) = 1; oracle: dense sampling of the subdifferential
    h = GoalOuter([2.0], [1.0])
    F = AffineMapping([[1.0]], [0.0])
    p = CompositeProblem(WholeSpace(1), h, F)
    r = stationarity_residual(p, StationarityTriple([1.0], [3.0], [1.0]))
    dense = np.min(np.abs(np.linspace(0.0, 2.0, 20001) - 3.0))
    assert r.v_dist == pytest.approx(dense, abs=1e-4)
    assert r.v_dist == pytest.approx(1.0)


def test_combined_is_max_of_blocks():
    p = quad_demo_problem()
    rng = stream(5, "combined-max")
    for _ in range(50):
        t = StationarityTriple(rng.normal(size=1), rng.normal(size=1),
                               rng.normal(size=1))
        r = stationarity_residual(p, t)
        assert r.combined == max(r.u_norm, r.v_dist, r.w_dist)


def test_nonsmooth_inner_w_flagged():
    Z = np.zeros((1, 1))
    F = MinSmoothMapping([[(Z, np.array([1.0]), 0.0), (Z, np.array([-1.0]), 0.0)]],
                         theta=None)
    p = CompositeProblem(WholeSpace(1), LinearOuter([1.0]), F)
    # at the tie x = 0 the hull of {+1, -1} contains 0: w residual vanishes on
    # no single selection, so the reported value is a flagged selection minimum
    r = stationarity_residual(p, StationarityTriple([0.0], [1.0], [0.0]))
    assert not r.w_exact
    assert r.w_dist == pytest.approx(1.0)


def test_triple_requires_finite_entries():
    with pytest.raises(ValueError):
        StationarityTriple([math.inf], [0.0], [0.0])


def test_dimension_checks_in_problem():
    with pytest.raises(ValueError):
        CompositeProblem(WholeSpace(3), GoalOuter([1.0], [0.0]),
                         AffineMapping([[1.0, 0.0]], [0.0]))
    with pytest.raises(ValueError):
        CompositeProblem(WholeSpace(1), GoalOuter([1.0, 1.0], [0.0, 0.0]),
                         AffineMapping([[1.0]], [0.0]))


def test_analytic_stationary_triples_have_zero_residual():
    # hand-constructed stationary triples across the bundled demo families
    from compapprox.inner import AffineMapping as Aff
    from compapprox.outer import AugLagrangianOuter, LogBarrierOuter

    cases = []
    # proximal-composite demo: min (x-1)^2, triple (1, 1, 0)
    cases.append((quad_demo_problem(),
                  StationarityTriple([1.0], [1.0], [0.0])))
    # augmented-Lagrangian stage of min (x-2)^2 s.t. x = 0 at theta = 100:
    # stationarity 2(x-2) + theta x = 0
    theta = 100.0
    F = QuadraticArrayMapping([([[2.0]], [-4.0], 4.0), ([[0.0]], [1.0], 0.0)])
    h = AugLagrangianOuter([0.0], theta)
    x = 4.0 / (2.0 + theta)
    z = F.eval(np.array([x]))
    cases.append((CompositeProblem(Box([-10.0], [10.0]), h, F),
                  StationarityTriple([x], h.grad(z), z)))
    # barrier stage of min -x s.t. x <= 1 at theta = 50: x = 1 - 1/theta
    theta = 50.0
    Fb = Aff([[-1.0], [1.0]], [0.0, -1.0])
    hb = LogBarrierOuter(theta, 2)
    xb = 1.0 - 1.0 / theta
    zb = Fb.eval(np.array([xb]))
    cases.append((CompositeProblem(Box([-5.0], [5.0]), hb, Fb),
                  StationarityTriple([xb], hb.grad(zb), zb)))
    for problem, triple in cases:
        r = stationarity_residual(problem, triple)
        assert r.combined <= 1e-12


def test_eval_phi_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        eval_phi(goal_problem(), [math.inf])
