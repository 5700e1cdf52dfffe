import math

import numpy as np
import pytest

from compapprox.geometry import (Ball, Box, HalfspaceIntersection, WholeSpace,
                                 dist_to_hull, normal_cone_residual, project,
                                 project_onto_hull)


def test_box_projection_clamps():
    assert np.allclose(project(Box([0, 0], [1, 1]), [2, -1]), [1, 0])


def test_box_projection_bit_identical_to_clip():
    # project takes np.minimum(np.maximum(.)) in place of np.clip's wrapper;
    # np.clip is its bit reference, signed zeros and NaN included
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 0.5, -0.5,
              1.0, -1.0, 3.0, -3.0, math.inf, -math.inf, math.nan]
    ends = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, math.inf]
    pairs = [(lo, hi) for lo in ends for hi in ends if not lo > hi]
    x = np.tile(values, len(pairs))
    lower = np.repeat([lo for lo, _ in pairs], len(values))
    upper = np.repeat([hi for _, hi in pairs], len(values))
    for size in (1, 3, 17, 64, x.size):    # scalar and vector loop tails
        got = Box(lower[:size], upper[:size]).project(x[:size])
        assert got.tobytes() == np.clip(x[:size], lower[:size], upper[:size]).tobytes()


def test_ball_projection_radial():
    assert np.allclose(project(Ball([0, 0], 1.0), [3, 4]), [0.6, 0.8])


def test_whole_space_projection_identity():
    x = np.array([1.7, -2.3, 0.0])
    assert np.allclose(project(WholeSpace(3), x), x)


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


def test_empty_halfspace_intersection_rejected():
    # x <= -1 and x >= 1 simultaneously
    with pytest.raises(ValueError):
        HalfspaceIntersection([[1.0], [-1.0]], [-1.0, -1.0])


def test_halfspace_projection_matches_box():
    # the unit square written as four halfspaces
    normals = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    offsets = [1, 0, 1, 0]
    hs = HalfspaceIntersection(normals, offsets)
    box = Box([0, 0], [1, 1])
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(scale=2.0, size=2)
        assert np.linalg.norm(hs.project(x) - box.project(x)) <= 1e-9


def test_halfspace_projection_simplex_oracle():
    # projection onto {x >= 0, sum x <= 1}; oracle: dense candidate scan
    hs = HalfspaceIntersection([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    x = np.array([1.2, 0.9])
    p = hs.project(x)
    grid = np.linspace(0, 1, 401)
    best = None
    for a in grid:
        for b in grid:
            if a + b <= 1.0:
                d = (a - x[0]) ** 2 + (b - x[1]) ** 2
                if best is None or d < best[0]:
                    best = (d, a, b)
    assert np.linalg.norm(p - [best[1], best[2]]) <= 5e-3
    assert np.linalg.norm(x - p) <= np.sqrt(best[0]) + 1e-9


def test_projection_idempotent():
    sets = [Box([-1, 0], [2, 3]), Ball([1, 1], 0.5),
            HalfspaceIntersection([[1, 1]], [1.0]), WholeSpace(2)]
    rng = np.random.default_rng(11)
    for S in sets:
        for _ in range(10):
            x = rng.normal(scale=3.0, size=2)
            p = S.project(x)
            assert np.linalg.norm(S.project(p) - p) <= 1e-10


def test_projection_is_1_lipschitz():
    sets = [Box([-1, 0], [2, 3]), Ball([1, 1], 0.5),
            HalfspaceIntersection([[1, 1], [1, -2]], [1.0, 0.5])]
    rng = np.random.default_rng(3)
    for S in sets:
        for _ in range(50):
            a, b = rng.normal(scale=3.0, size=2), rng.normal(scale=3.0, size=2)
            lhs = np.linalg.norm(S.project(a) - S.project(b))
            assert lhs <= np.linalg.norm(a - b) + 1e-10


def test_normal_cone_residual_examples():
    box = Box([0, 0], [1, 1])
    assert normal_cone_residual(box, [0, 0.5], [-3, 0]) == 0.0
    assert normal_cone_residual(box, [0, 0.5], [3, 0]) == pytest.approx(1.0)
    assert normal_cone_residual(WholeSpace(2), [5.0, -2.0], [0, 0]) == 0.0


def test_normal_cone_residual_requires_membership():
    with pytest.raises(ValueError):
        normal_cone_residual(Box([0], [1]), [2.0], [0.0])


def test_hull_projection_small_sets():
    # distance to a segment
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    _, d, exact = project_onto_hull(np.array([0.5, 1.0]), pts)
    assert exact and d == pytest.approx(1.0)
    # inside a triangle
    pts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    _, d, _ = project_onto_hull(np.array([0.2, 0.2]), pts)
    assert d <= 1e-12
    # brute-force oracle on a random 4-point hull in 3-D
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, 3))
    q = rng.normal(size=3)
    d, exact = dist_to_hull(q, pts)
    assert exact
    lam = rng.dirichlet(np.ones(4), size=200000)
    brute = np.min(np.linalg.norm(lam @ pts - q, axis=1))
    assert d <= brute + 1e-9
    assert brute <= d + 5e-3
