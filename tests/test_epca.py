import hashlib
import math
import warnings

import numpy as np
import pytest

from compapprox import epca
from compapprox.epca import (EpcaConfig, Stage, extract_multipliers_step4,
                             run_epca, solve_affine_composite, solve_subproblem,
                             step5_residuals, sufficient_decrease_test)
from compapprox.errors import CertificationError, EvaluationError, NonconvergenceError
from compapprox.geometry import Ball, Box, WholeSpace, normal_cone_residual
from compapprox.inner import AffineMapping, QuadraticArrayMapping
from compapprox.model import CompositeProblem, StationarityTriple, stationarity_residual
from compapprox.outer import (KINK_TOL, EqualityIndicatorOuter, ExactPenaltyOuter, GoalOuter,
                              InequalityIndicatorOuter, LinearOuter, LogBarrierOuter,
                              QuadPenaltyOuter, SoftplusGoalOuter, softplus_grad)
from compapprox.rng import stream


def quad_mapping():
    # F(x) = (x-1)^2
    return QuadraticArrayMapping([([[2.0]], [-2.0], 1.0)])


# ---------------------------------------------------------------------------
# subproblem


def test_subproblem_1d_quadratic():
    r = solve_subproblem(WholeSpace(1), LinearOuter([1.0]), [0.5], [[1.0]],
                         [1.0], 1.0, 1e-10)
    assert r.x[0] == pytest.approx(0.0, abs=1e-9)


def test_subproblem_boundary_minimizer():
    r = solve_subproblem(Box([0.0], [5.0]), LinearOuter([1.0]), [0.5], [[1.0]],
                         [1.0], 1.0, 1e-10)
    assert r.x[0] == pytest.approx(0.0, abs=1e-9)


def _bisect_scalar(f, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_subproblem_quad_penalty_bisection_oracle():
    # minimize x1 + (max{0, 1+x2})^2 + ||x||^2/2; oracle: scalar bisection on
    # each coordinate's stationarity equation
    h = QuadPenaltyOuter(1.0, 2)
    r = solve_subproblem(WholeSpace(2), h, [0.0, 1.0], np.eye(2), [0.0, 0.0],
                         1.0, 1e-11)
    x1 = _bisect_scalar(lambda t: 1.0 + t, -5.0, 5.0)
    x2 = _bisect_scalar(lambda t: 2.0 * max(0.0, 1.0 + t) + t, -5.0, 5.0)
    assert x1 == pytest.approx(-1.0, abs=1e-9)
    assert x2 == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert np.allclose(r.x, [x1, x2], atol=1e-8)
    # the optimality inclusion certificate is honest
    assert r.residual <= 1e-11


def test_subproblem_optimality_inclusion_splitting():
    h = GoalOuter([1.0, 1.0], [0.0, 0.0])
    J = np.array([[1.0, 0.5], [-0.25, 1.0]])
    c = np.array([0.3, -0.2])
    x_bar = np.array([0.1, 0.1])
    r = solve_subproblem(Box([-1, -1], [1, 1]), h, c, J, x_bar, 0.7, 1e-9)
    assert r.residual <= 1e-9
    zz = c + J @ (r.x - x_bar)
    d, _ = h.subdiff_distance(r.y, zz, 1e-9)
    assert d <= 1e-8


def _smooth_cases():
    rng = stream(3, "smooth-subproblem-digest")
    n = 12
    J = rng.normal(size=(n, n)) / n ** 0.5
    c = rng.normal(size=n)
    x_bar = rng.uniform(-0.5, 0.5, size=n)
    h = SoftplusGoalOuter(rng.uniform(0.5, 1.5, size=n), rng.uniform(-0.5, 0.5, size=n),
                          64.0)
    X = Box(-np.ones(n), np.ones(n))
    return {
        "softplus_box_lam10": (X, h, c, J, x_bar, 10.0, 1e-9),
        "quad_penalty_whole": (WholeSpace(2), QuadPenaltyOuter(1.0, 2), np.array([0.0, 1.0]),
                               np.eye(2), np.zeros(2), 1.0, 1e-11),
    }


#: iterations and sha256 over the bytes of x, y and the residual, recorded
#: at the projected Newton solver, which a box and the whole space both take
SMOOTH_DIGESTS = {
    "softplus_box_lam10":
        (18, "2f08c17b473b2c0c6626f54540b8459910a37333158ec0be8bfa04f5a19b1645"),
    "quad_penalty_whole":
        (2, "0219b5837af2dd2798d20d67a3ef63429feb3bf302c66efe038a3a1e8379a3cc"),
}

#: iterations the projected-gradient solver took on the same cases
PROJECTED_GRADIENT_ITERATIONS = {"softplus_box_lam10": 972, "quad_penalty_whole": 39}

#: iterations and digest of the accelerated solver (FISTA) on the same cases
ACCELERATED_ITERATIONS = {"softplus_box_lam10": 146, "quad_penalty_whole": 30}
ACCELERATED_SOFTPLUS_DIGEST = "5f6811848d8e63ee93775e434efe4a2adfcd69a407fe2e8cfe9692d61d181dde"


def _result_digest(r):
    digest = hashlib.sha256()
    for part in (r.x, r.y, np.float64(r.residual)):
        digest.update(part.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SMOOTH_DIGESTS))
def test_smooth_subproblem_matches_recorded_digests(name):
    r = solve_subproblem(*_smooth_cases()[name])
    assert (r.iterations, _result_digest(r)) == SMOOTH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SMOOTH_DIGESTS))
def test_accelerated_solver_takes_fewer_iterations_than_projected_gradient(name):
    assert solve_subproblem(*_smooth_cases()[name]).iterations \
        < PROJECTED_GRADIENT_ITERATIONS[name]


@pytest.mark.parametrize("name", sorted(ACCELERATED_ITERATIONS))
def test_newton_takes_fewer_iterations_than_accelerated_gradient(name):
    assert solve_subproblem(*_smooth_cases()[name]).iterations < ACCELERATED_ITERATIONS[name]


def test_smooth_case_on_a_ball_keeps_the_accelerated_solver():
    # a Ball is not a box: the solve is FISTA's, bit for bit as recorded
    # before the Newton branch existed; the constraint is active at the end
    X, h, c, J, x_bar, lam, tol = _smooth_cases()["softplus_box_lam10"]
    r = solve_subproblem(Ball(np.zeros(X.n), 1.0), h, c, J, x_bar, lam, tol)
    assert (r.iterations, _result_digest(r)) == (
        87, "93e1b994c25caa9338bcb14fcfb8d01c7ffd2eedfe0e72efd4c041d4c2f9018a")


class _NanCurvatureSoftplus(SoftplusGoalOuter):
    """A curvature no Newton step survives: every trial point is NaN."""

    def curvature(self, z):
        return np.full(self.m, math.nan)


def test_failed_newton_line_search_falls_back_to_the_accelerated_solver():
    # the line search fails at the start P_X(x_bar), so FISTA runs from
    # there: its recorded result, one Newton iteration later
    X, h, c, J, x_bar, lam, tol = _smooth_cases()["softplus_box_lam10"]
    case = (X, _NanCurvatureSoftplus(h.alpha, h.tau, h.theta), c, J, x_bar, lam, tol)
    r = solve_subproblem(*case)
    assert (r.iterations, _result_digest(r)) == (
        1 + ACCELERATED_ITERATIONS["softplus_box_lam10"], ACCELERATED_SOFTPLUS_DIGEST)
    assert _recomputed_residual(*case[:-1], r) == r.residual <= tol


def _recomputed_residual(X, h, c, J, x_bar, lam, r):
    """The subproblem certificate at the returned (x, y), rebuilt without the solver."""
    z = c + J @ (r.x - x_bar)
    if h.smooth:
        assert r.y.tobytes() == h.grad(z).tobytes()
    d = J.T @ r.y + (r.x - x_bar) / lam
    r_sub, _ = h.subdiff_distance(r.y, z, KINK_TOL)
    return max(normal_cone_residual(X, r.x, -d), r_sub)


class _CountingLogBarrier(LogBarrierOuter):
    """Counts the model points that fall outside dom h."""

    outside = 0

    def value(self, z):
        v = super().value(z)
        if math.isinf(v):
            self.outside += 1
        return v


def _random_smooth_case(kind, seed):
    rng = stream(seed, "smooth-subproblem-certificate", kind)
    n = int(rng.integers(5, 25))
    box = Box(-np.ones(n), np.ones(n))
    x_bar = rng.uniform(-0.5, 0.5, size=n)
    if kind == "softplus_box_lam10":
        J = rng.normal(size=(n, n)) / n ** 0.5
        h = SoftplusGoalOuter(rng.uniform(0.5, 1.5, size=n), rng.uniform(-0.5, 0.5, size=n),
                              float(rng.choice([1.0, 64.0, 1e3])))
        return box, h, rng.normal(size=n), J, x_bar, 10.0, 1e-10
    if kind == "quad_penalty_whole":
        m = int(rng.integers(2, 6))
        return (WholeSpace(n), QuadPenaltyOuter(float(rng.choice([1.0, 10.0, 100.0])), m),
                rng.normal(size=m), rng.normal(size=(m, n)), x_bar, 1.0, 1e-10)
    # log barrier: the start's model point sits just inside dom h
    m = int(rng.integers(2, 6))
    c = rng.normal(size=m)
    c[1:] = -rng.uniform(1e-6, 1e-3, size=m - 1)
    h = _CountingLogBarrier(float(rng.choice([1.0, 10.0, 1e3])), m)
    return box, h, c, rng.normal(size=(m, n)), x_bar, 1.0, 1e-9


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["softplus_box_lam10", "quad_penalty_whole",
                                  "log_barrier_near_edge"])
def test_smooth_certificate_recomputed_at_returned_point(kind, seed):
    case = _random_smooth_case(kind, seed)
    r = solve_subproblem(*case)
    tol = case[-1]
    assert _recomputed_residual(*case[:-1], r) == r.residual <= tol


def test_model_points_outside_dom_h_are_not_errors():
    # near the barrier the momentum carries extrapolated points (and trial
    # steps) outside dom h; the first restart the momentum, the second shrink
    # the step, and every solve still certifies
    outside = 0
    for seed in range(4):
        case = _random_smooth_case("log_barrier_near_edge", seed)
        r = solve_subproblem(*case)
        assert r.residual <= case[-1]
        outside += case[1].outside
    assert outside > 0


def test_newton_cap_reports_the_certificate_of_its_best_point():
    X, h, c, J, x_bar, lam, tol = _smooth_cases()["softplus_box_lam10"]
    with pytest.raises(NonconvergenceError, match="projected-Newton subproblem hit its "
                                                  "iteration cap") as info:
        solve_subproblem(X, h, c, J, x_bar, lam, tol, max_iter=3)
    x, y = info.value.best, h.grad(c + J @ (info.value.best - x_bar))
    r = epca.SubproblemResult(x, y, info.value.residual, 3)
    assert _recomputed_residual(X, h, c, J, x_bar, lam, r) == r.residual > tol


def test_no_step_from_the_extrapolated_point_restarts_from_x():
    # the accelerated solver (the box would take Newton): the extrapolated
    # point lies outside the box, its projection outside dom h, so every
    # step from it fails; the solve restarts from x
    case = _random_smooth_case("log_barrier_near_edge", 215)[:-1] + (1e-10,)
    r = epca._solve_smooth(*case, max_iter=400_000)
    assert _recomputed_residual(*case[:-1], r) == r.residual <= 1e-10


def _offset_case(seed, lam, offset):
    """The quadratic-penalty case of the test below, c_1 shifted by offset."""
    rng = stream(seed, "smooth-subproblem-offset")
    m, n = 8, 20
    c = rng.normal(size=m)
    c[0] += offset
    return (WholeSpace(n), QuadPenaltyOuter(100.0, m), c,
            rng.normal(size=(m, n)) / n ** 0.5, rng.normal(size=n), lam, 1e-9)


def test_smooth_solver_sizes_steps_when_values_are_unresolvable():
    # c_1 + 1e9 offsets phi by 1e9, so its differences sink below resolution
    # (1e-13 |phi| = 1e-4) long before the certificate holds; the curvature
    # test sizes the steps from there. The solver with a separate fixed-step
    # phase took 22,852 iterations on these 16 solves.
    total = 0
    for lam in (1.0, 100.0):
        for seed in range(8):
            rng = stream(seed, "smooth-subproblem-offset")
            m, n = 8, 20
            c = rng.normal(size=m)
            c[0] += 1e9
            case = (WholeSpace(n), QuadPenaltyOuter(100.0, m), c,
                    rng.normal(size=(m, n)) / n ** 0.5, rng.normal(size=n), lam, 1e-9)
            r = solve_subproblem(*case, max_iter=20_000)
            assert _recomputed_residual(*case[:-1], r) == r.residual <= 1e-9
            total += r.iterations
    assert total <= 16_000


@pytest.mark.parametrize("solve, offset, most", [
    # the same 16 solves through FISTA, which the Newton branch now spares
    # them: its curvature test sizes the steps
    pytest.param(epca._solve_smooth, 1e9, 16_000, id="accelerated"),
    # at 1e12 phi's differences are below resolution for most of each solve;
    # steps the certificate ranks keep Newton going, where a line search on
    # phi alone fails and hands thousands of iterations to FISTA
    pytest.param(solve_subproblem, 1e12, 200, id="newton"),
])
def test_unresolvable_values_leave_each_solver_a_step_rule(solve, offset, most):
    total = 0
    for lam in (1.0, 100.0):
        for seed in range(8):
            case = _offset_case(seed, lam, offset)
            r = solve(*case, max_iter=20_000)
            assert _recomputed_residual(*case[:-1], r) == r.residual <= 1e-9
            total += r.iterations
    assert total <= most


def _random_dual_case(outer, set_kind, lam, warm):
    """A finite-lam nonsmooth subproblem, with a random y0 when warm."""
    rng = stream(5, "dual-subproblem", outer, set_kind, repr(lam), str(warm))
    n = int(rng.integers(4, 16))
    m = int(rng.integers(2, n))
    X = {"box": Box(-np.ones(n), np.ones(n)), "ball": Ball(np.zeros(n), 2.0),
         "whole": WholeSpace(n)}[set_kind]
    J = rng.normal(size=(m, n)) / n ** 0.5
    x_bar = rng.uniform(-0.5, 0.5, size=n)
    c = rng.normal(size=m)
    if outer == "goal":
        h = GoalOuter(rng.uniform(0.5, 1.5, size=m), rng.uniform(-0.5, 0.5, size=m))
    elif outer == "exact_penalty":
        h = ExactPenaltyOuter(float(rng.choice([1.0, 4.0, 16.0])), m)
    else:
        # rows 2..m vanish (equality) or are negative (inequality) at an
        # interior point of X, so the constrained subproblem is feasible
        x_in = rng.uniform(-0.5, 0.5, size=n)
        c[1:] = -(J @ (x_in - x_bar))[1:]
        if outer == "equality":
            h = EqualityIndicatorOuter(m)
        else:
            h = InequalityIndicatorOuter(m)
            c[1:] -= rng.uniform(0.0, 0.5, size=m - 1)
    tol = 10.0 ** -int(rng.integers(5, 11))
    y0 = rng.normal(size=m) if warm else None
    return (X, h, c, J, x_bar, lam, tol), y0


DUAL_CASES = [(outer, set_kind, lam, warm)
              for outer in ("goal", "exact_penalty", "equality", "inequality")
              for set_kind in ("box", "ball", "whole")
              for lam in (0.1, 1.0, 100.0)
              for warm in (False, True)]

#: total iterations of the primal-dual (Chambolle-Pock) solver on DUAL_CASES,
#: which solved finite-lam nonsmooth subproblems before the dual solver
SPLITTING_ITERATIONS_ON_DUAL_CASES = 52_410
#: the dual solver's total on DUAL_CASES before the face polish; the polish
#: took it to 7,810, with the ball cases (no polish) unchanged at 6,110
DUAL_ITERATIONS_WITHOUT_POLISH = 9_080


def test_dual_solver_certifies_at_returned_point():
    total = 0
    for case in DUAL_CASES:
        args, y0 = _random_dual_case(*case)
        r = solve_subproblem(*args, y0=y0)
        assert _recomputed_residual(*args[:-1], r) == r.residual <= args[-1], case
        total += r.iterations
    assert total < SPLITTING_ITERATIONS_ON_DUAL_CASES
    assert total <= 7_810 < DUAL_ITERATIONS_WITHOUT_POLISH


#: iterations and sha256 over the bytes of x, y and the residual, recorded
#: at the dual solver with its face polish; the ball case takes no polish
DUAL_DIGESTS = {
    ("goal", "box", 100.0, False):
        (20, "d5d946ed2cef3030cf58c3a464f1f967b8a10a454f150c5cadd033b1d0f00e7a"),
    ("exact_penalty", "ball", 1.0, True):
        (110, "657db3637d9eca9475c63161a55f2c025901a05d3e635d5862b422dc75b2ecdb"),
    ("equality", "whole", 0.1, False):
        (20, "a868e6b6dd2e7ed00eb362123dc6830144dd6aebefe1a8e035b037de8db38135"),
    ("inequality", "box", 100.0, False):
        (160, "01ed88391f2de2fec92382aac2aab0c15d8ef251085f975b80be5fae2edd1ae8"),
}


@pytest.mark.parametrize("case", sorted(DUAL_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_dual_subproblem_matches_recorded_digests(case):
    args, y0 = _random_dual_case(*case)
    r = solve_subproblem(*args, y0=y0)
    digest = hashlib.sha256()
    for part in (r.x, r.y, np.float64(r.residual)):
        digest.update(part.tobytes())
    assert (r.iterations, digest.hexdigest()) == DUAL_DIGESTS[case]


# ---------------------------------------------------------------------------
# step tests


def decrease_values(h, F, x_bar, x_star):
    # h(F(.)) at x_bar and x_star, and h at x_star's model point around x_bar
    J = F.jacobian(x_bar).matrix
    return (h.value(F.eval(x_bar)), h.value(F.eval(x_star)),
            h.value(F.eval(x_bar) + J @ (x_star - x_bar)))


def test_sufficient_decrease_affine_always_passes():
    F = AffineMapping([[2.0]], [1.0])
    h = GoalOuter([1.0], [0.0])
    x_bar, x_star = np.array([1.0]), np.array([0.25])
    assert sufficient_decrease_test(*decrease_values(h, F, x_bar, x_star), 0.999)


def test_sufficient_decrease_zero_step():
    F = quad_mapping()
    h = LinearOuter([1.0])
    x = np.array([0.7])
    assert sufficient_decrease_test(*decrease_values(h, F, x, x), 0.5)


def test_sufficient_decrease_rejects_overshoot():
    # x_bar = 1, lambda large enough that the model sends x* to -1:
    # model decrease 2, actual decrease 0, sigma = 0.5 fails
    F = quad_mapping()
    h = LinearOuter([1.0])
    x_bar = np.array([1.0])
    x_star = np.array([-1.0])
    J = F.jacobian(x_bar).matrix
    v_bar = h.value(F.eval(x_bar))
    v_star = h.value(F.eval(x_star))
    v_model = h.value(F.eval(x_bar) + J @ (x_star - x_bar))
    assert v_bar - v_model == pytest.approx(0.0)   # J = 0 at the stationary x=1
    # use x_bar = 0 for a nonzero model decrease
    x_bar = np.array([0.0])
    x_star = np.array([2.0])   # model: 1 - 2*2 = -3, actual: (2-1)^2 = 1
    assert not sufficient_decrease_test(*decrease_values(h, F, x_bar, x_star), 0.5)


def test_sufficient_decrease_requires_real_values():
    F = AffineMapping([[1.0], [1.0]], [0.0, 0.0])
    h = EqualityIndicatorOuter(2)
    with pytest.raises(EvaluationError):
        x_bar, x_star = np.array([1.0]), np.array([0.5])
        sufficient_decrease_test(*decrease_values(h, F, x_bar, x_star), 0.5)


def test_step5_residuals_affine():
    F = AffineMapping([[3.0]], [1.0])
    x_prev, x_next = np.array([1.0]), np.array([0.5])
    z_next = F.eval(x_prev) + F.jacobian(x_prev).matrix @ (x_next - x_prev)
    u, w = step5_residuals(F.eval(x_next), F.jacobian(x_prev).matrix,
                           F.jacobian(x_next).matrix, x_prev, x_next, z_next,
                           np.array([1.0]), 0.5)
    assert np.allclose(u, 0.0)
    assert np.allclose(w, -(x_next - x_prev) / 0.5)


def test_step5_residuals_zero_step():
    F = quad_mapping()
    x = np.array([0.3])
    z = F.eval(x)
    J = F.jacobian(x).matrix
    u, w = step5_residuals(F.eval(x), J, J, x, x, z, np.array([1.0]), 1.0)
    assert np.allclose(u, 0.0) and np.allclose(w, 0.0)


def test_step5_residuals_hand_example():
    # F(x) = x^2, x_prev = 1, x_next = 0.5, lambda = 1, y = 1:
    # z = 1 + 2*(-0.5) = 0, u = 0.25, w = (1 - 2)*1 - (-0.5) = -0.5
    F = QuadraticArrayMapping([([[2.0]], [0.0], 0.0)])
    x_prev, x_next = np.array([1.0]), np.array([0.5])
    z = F.eval(x_prev) + F.jacobian(x_prev).matrix @ (x_next - x_prev)
    assert z[0] == pytest.approx(0.0)
    u, w = step5_residuals(F.eval(x_next), F.jacobian(x_prev).matrix,
                           F.jacobian(x_next).matrix, x_prev, x_next, z, np.array([1.0]), 1.0)
    assert u[0] == pytest.approx(0.25)
    assert w[0] == pytest.approx(-0.5)


def test_extract_multipliers_linear_h():
    stage = Stage(WholeSpace(1), LinearOuter([1.0]), quad_mapping())
    triple, _ = extract_multipliers_step4(stage, np.array([1.0]), 1e-8)
    assert triple.y[0] == 1.0 and triple.z[0] == pytest.approx(0.0)


def test_extract_multipliers_softplus_formula():
    h = SoftplusGoalOuter([2.0], [1.0], 5.0)
    F = AffineMapping([[1.0]], [0.0])
    x = np.array([0.25])
    # stationary over a box that pins x: certification passes with y = grad
    triple, _ = extract_multipliers_step4(Stage(Box([0.25], [0.25]), h, F), x, 1e-8)
    assert triple.y[0] == pytest.approx(2.0 * softplus_grad(5.0, 0.25 - 1.0))
    assert triple.z[0] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# full runs


def demo_stages(n_stages=20):
    h = LinearOuter([1.0])
    F = quad_mapping()
    X = Box([-1.0], [3.0])
    return [Stage(X, h, F, parameter=float(k + 1)) for k in range(n_stages)]


def demo_config(n_stages=20, x0=-1.0):
    return EpcaConfig(x0=np.array([x0]), tau=2.0, sigma=0.5, lam_bar=1.0,
                      lam0=1.0,
                      delta_schedule=tuple(2.0**-k for k in range(1, n_stages + 1)))


def test_epca_quadratic_demo_grid_oracle():
    trace = run_epca(demo_stages(), demo_config())
    grid = np.arange(-10000, 30001) * 1e-4
    oracle = grid[int(np.argmin((grid - 1.0) ** 2))]
    fin = trace.final()
    assert abs(fin.triple.x[0] - oracle) <= 1e-4
    assert abs(fin.triple.x[0] - 1.0) <= 1e-4
    assert np.allclose(fin.triple.y, [1.0])
    assert abs(fin.triple.z[0]) <= 1e-8
    for e in trace.entries:
        assert e.residual.combined <= 1.1 * e.delta + 1e-10


def test_epca_affine_one_step_fixed_point():
    # exact model: with a large lambda the first subproblem solves the problem
    h = ExactPenaltyOuter(3.0, 2)
    F = AffineMapping([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
    X = Box([-1, -1], [1, 1])
    stages = [Stage(X, h, F, parameter=1.0)]
    cfg = EpcaConfig(x0=np.array([0.5, -0.3]), tau=2.0, sigma=0.5, lam_bar=100.0,
                     lam0=100.0, delta_schedule=(1e-8,))
    trace = run_epca(stages, cfg)
    assert trace.final().exit == "step4"
    assert trace.final().inner_iterations <= 2
    assert np.allclose(trace.final().triple.x, [-1.0, -1.0], atol=1e-7)


def test_epca_monotone_inner_descent_and_lambda_bounds():
    trace = run_epca(demo_stages(8), demo_config(8))
    for e in trace.entries:
        assert 0 < e.lam_final <= 1.0
        path = e.objective_path
        for a, b in zip(path, path[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a))


def test_epca_certification_soundness():
    # recorded residuals must match an independent recomputation
    stages = demo_stages(6)
    cfg = demo_config(6)
    trace = run_epca(stages, cfg)
    for e, st in zip(trace.entries, stages):
        problem = CompositeProblem(st.X, st.h, st.F)
        rec = stationarity_residual(problem, e.triple)
        assert abs(rec.combined - e.residual.combined) <= 0.1 * e.delta + 1e-10


def test_epca_value_property_on_identity_family():
    trace = run_epca(demo_stages(8), demo_config(8))
    actual = CompositeProblem(demo_stages(1)[0].X, demo_stages(1)[0].h,
                              demo_stages(1)[0].F)
    fin = trace.final()
    running_min = min(e.objective for e in trace.entries)
    assert actual.h.value(actual.F.eval(fin.triple.x)) <= running_min + 1e-6


def test_epca_inner_cap_raises_with_partial_trace():
    stages = demo_stages(3)
    cfg = EpcaConfig(x0=np.array([-1.0]), tau=2.0, sigma=0.5, lam_bar=1.0,
                     lam0=1.0, delta_schedule=(1e-18, 1e-18, 1e-18),
                     inner_iteration_cap=2)
    with pytest.raises(NonconvergenceError) as err:
        run_epca(stages, cfg)
    assert err.value.partial_trace is not None


def test_epca_start_outside_dom_h_is_nonconvergence():
    # min -x s.t. x - 1 < 0 by a log barrier, started at x = 2
    stage = Stage(Box([-5.0], [5.0]), LogBarrierOuter(4.0, 2),
                  AffineMapping([[-1.0], [1.0]], [0.0, -1.0]), parameter=4.0)
    cfg = EpcaConfig(x0=np.array([2.0]), delta_schedule=(0.01,))
    with pytest.raises(NonconvergenceError,
                       match="EvaluationError at outer index 1: subproblem start") as err:
        run_epca([stage], cfg)
    assert err.value.partial_trace.entries == []
    assert err.value.best.tolist() == [2.0]


def test_epca_failed_step4_certificate_is_nonconvergence(monkeypatch):
    def failing(*args, **kwargs):
        raise CertificationError("step-4 certification failed")

    monkeypatch.setattr(epca, "extract_multipliers_step4", failing)
    # x0 = 1 minimizes (x - 1)^2, so the first subproblem returns x_bar: Step 4
    with pytest.raises(NonconvergenceError,
                       match="CertificationError at outer index 1") as err:
        run_epca(demo_stages(2), demo_config(2, x0=1.0))
    assert err.value.partial_trace is not None


def test_stage_checks_dimensions_like_a_composite_problem():
    with pytest.raises(ValueError, match="output dimension"):
        Stage(WholeSpace(1), LinearOuter([1.0, 1.0]), quad_mapping(), parameter=1.0)
    with pytest.raises(ValueError, match="input dimension"):
        Stage(WholeSpace(2), LinearOuter([1.0]), quad_mapping(), parameter=1.0)


def test_step4_records_the_residual_its_certificate_checked(monkeypatch):
    results = []

    def counted(problem, triple, *args, **kwargs):
        results.append(stationarity_residual(problem, triple, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(epca, "stationarity_residual", counted)
    # x0 = 1 minimizes (x - 1)^2, so the first subproblem returns x_bar: Step 4
    trace = run_epca(demo_stages(1), demo_config(1, x0=1.0))
    entry = trace.final()
    assert entry.exit == "step4"
    assert len(results) == 1
    assert entry.residual is results[0]
    assert max(entry.residual.v_dist, entry.residual.w_dist) <= 0.1 * entry.delta + 1e-10


def test_step4_certificate_failure_carries_both_blocks():
    # x = 0 is not stationary for (x - 1)^2 on the line: the w-block is |F'(0)| = 2
    stage = Stage(WholeSpace(1), LinearOuter([1.0]), quad_mapping())
    with pytest.raises(CertificationError, match="step-4 certification failed") as err:
        extract_multipliers_step4(stage, np.array([0.0]), 1e-8)
    assert err.value.residuals == (0.0, 2.0)


@pytest.mark.parametrize("X, warns", [(WholeSpace(1), True), (Box([-1.0], [1.0]), False)])
def test_level_boundedness_probe(X, warns):
    # h(F(x)) = x falls without bound along -e_1 on the line; a box is bounded
    stage = Stage(X, LinearOuter([1.0]), AffineMapping([[1.0]], [0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        epca._level_boundedness_probe(stage, np.array([0.0]))
    assert [str(w.message) for w in caught] == (
        ["approximating problem may not be level-bounded at its warm start"] if warns else [])


def test_epca_subproblem_failure_names_outer_index(monkeypatch):
    def capped(*args, **kwargs):
        raise NonconvergenceError("primal-dual subproblem hit its iteration cap",
                                  best=np.array([0.5]), residual=0.25)

    monkeypatch.setattr(epca, "solve_subproblem", capped)
    with pytest.raises(NonconvergenceError,
                       match=r"^at outer index 1 \(parameter 1\): primal-dual") as err:
        run_epca(demo_stages(2), demo_config(2))
    assert err.value.best.tolist() == [0.5]
    assert err.value.residual == 0.25
    assert err.value.partial_trace.entries == []


def _exact_penalty_run():
    """Stages and config of the exact_penalty family on an LP over [-1, 1]^20.

    min c.x s.t. E x = E x_feas, F = (c.x, E x - E x_feas), m = 11 rows,
    theta = 1, 2, ..., 32; F is affine, so its Jacobian is one matrix.
    """
    n, k = 20, 10
    rng = stream(7, "exact-penalty-run")
    A = rng.normal(size=(k + 1, n)) / n ** 0.5
    b = np.concatenate([[0.0], -(A[1:] @ rng.uniform(-0.5, 0.5, size=n))])
    X, F = Box(-np.ones(n), np.ones(n)), AffineMapping(A, b)
    stages = [Stage(X, ExactPenaltyOuter(2.0 ** j, k + 1), F, parameter=2.0 ** j)
              for j in range(6)]
    cfg = EpcaConfig(x0=rng.uniform(-0.5, 0.5, size=n), tau=2.0, sigma=0.5, lam_bar=1.0,
                     lam0=1.0, delta_schedule=tuple(1e-3 * 0.5 ** j for j in range(6)))
    return stages, cfg


def test_run_epca_takes_one_spectral_norm_per_distinct_jacobian(monkeypatch):
    norms, dual_jacobians = [], []
    norm, dual = np.linalg.norm, epca._solve_dual

    def spy_norm(a, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(a) == 2:
            norms.append(np.array(a))
        return norm(a, ord, *args, **kwargs)

    def spy_dual(X, h, c, J, *args):
        dual_jacobians.append(np.array(J))
        return dual(X, h, c, J, *args)

    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    monkeypatch.setattr(epca, "_solve_dual", spy_dual)
    epca._spectral_norm.cache_clear()
    trace = run_epca(*_exact_penalty_run())
    assert len(trace.entries) == 6
    # a dual solve whose J differs from the last one's takes a new SVD
    changed = [J for i, J in enumerate(dual_jacobians)
               if i == 0 or not np.array_equal(J, dual_jacobians[i - 1])]
    # the run's one J gets one SVD, however many dual solves use it
    assert len(changed) == len(norms) == 1 < len(dual_jacobians)
    assert np.array_equal(norms[0], changed[0])


def test_config_validation():
    with pytest.raises(ValueError):
        EpcaConfig(x0=[0.0], sigma=1.5, delta_schedule=(0.1,))
    with pytest.raises(ValueError):
        EpcaConfig(x0=[0.0], tau=1.0, delta_schedule=(0.1,))
    with pytest.raises(ValueError):
        EpcaConfig(x0=[0.0], lam0=2.0, lam_bar=1.0, delta_schedule=(0.1,))
    with pytest.raises(ValueError):
        EpcaConfig(x0=[0.0], delta_schedule=(0.1, -0.1))


@pytest.mark.parametrize("kwargs, message", [
    pytest.param(dict(x0=[0.5, math.nan]), "x0", id="x0-nan"),
    pytest.param(dict(tau=math.inf), "tau", id="tau-inf"),
    pytest.param(dict(lam_bar=math.inf, lam0=math.inf), "lam_bar", id="lam_bar-inf"),
    pytest.param(dict(delta_schedule=(0.1, math.nan)), "delta schedule", id="delta-nan"),
    pytest.param(dict(delta_schedule=(math.inf, 0.1)), "delta schedule", id="delta-inf"),
])
def test_config_rejects_non_finite_values(kwargs, message):
    # a NaN delta or x0 would otherwise spend the dual solver's whole
    # iteration cap before failing, and lam = inf is no subproblem mode
    with pytest.raises(ValueError, match=message):
        EpcaConfig(**{"x0": [0.5], "delta_schedule": (0.1,), **kwargs})


def test_epca_over_ball_set():
    # minimizer of (x-1)^2 over the ball |x + 2| <= 1 sits at the boundary
    h = LinearOuter([1.0])
    F = quad_mapping()
    from compapprox.geometry import Ball
    X = Ball([-2.0], 1.0)
    stages = [Stage(X, h, F, parameter=float(k + 1)) for k in range(8)]
    cfg = EpcaConfig(x0=np.array([0.5]), tau=2.0, sigma=0.5, lam_bar=1.0,
                     lam0=1.0, delta_schedule=tuple(2.0**-k for k in range(1, 9)))
    trace = run_epca(stages, cfg)
    fin = trace.final()
    assert fin.triple.x[0] == pytest.approx(-1.0, abs=1e-6)
    # boundary normal-cone certificate: -dF'y points outward
    assert fin.residual.combined <= 1.1 * fin.delta + 1e-10


def test_subproblem_on_lifted_network_problem():
    # block direct sum (squared error + equality indicator) through the
    # splitting branch, at a linearization point produced by the lift
    from compapprox.inner import Activation, build_network_lift
    from compapprox.outer import SquaredErrorOuter
    from compapprox.rng import stream

    rng = stream(61, "lifted-subproblem")
    weights = [rng.normal(size=(3, 2)), rng.normal(size=(2, 3))]
    biases = [rng.normal(size=3), rng.normal(size=2)]
    lift = build_network_lift(weights, biases, Activation("softplus", 6.0),
                              SquaredErrorOuter(np.array([0.1, -0.2])))
    problem = lift.problem
    x_bar = lift.lift_point(np.array([0.4, -0.3]))
    c = problem.F.eval(x_bar)
    J = problem.F.jacobian(x_bar).matrix
    res = solve_subproblem(problem.X, problem.h, c, J, x_bar, 0.5, 1e-8)
    assert res.residual <= 1e-8
    # the model point's trailing block must sit on the equality slice
    zz = c + J @ (res.x - x_bar)
    assert np.max(np.abs(zz[2:])) <= 1e-7


def test_direct_affine_solver_matches_known_solutions():
    # criterion 9's instances: a goal with its unique zero at the corner, an
    # exact penalty x1 + x2 + 3 |x1 - x2| and the LP min x over [-1, 3]
    instances = [
        (Box([0.0, 0.0], [2.0, 2.0]), GoalOuter([1.0, 1.0], [0.0, 0.0]),
         np.eye(2), np.zeros(2), [0.0, 0.0]),
        (Box([-1.0, -1.0], [1.0, 1.0]), ExactPenaltyOuter(3.0, 2),
         np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), [-1.0, -1.0]),
        (Box([-1.0], [3.0]), LinearOuter([1.0]), np.array([[1.0]]), np.zeros(1), [-1.0]),
    ]
    tol = 1e-9
    for X, h, A, b, x_known in instances:
        r = solve_affine_composite(X, h, A, b, tol=tol)
        assert np.allclose(r.x, x_known, atol=1e-7)
        problem = CompositeProblem(X, h, AffineMapping(A, b))
        triple = StationarityTriple(r.x, r.y, problem.F.eval(r.x))
        assert stationarity_residual(problem, triple).combined == r.residual <= tol
    # the splitting needs h's prox
    with pytest.raises(EvaluationError, match="no prox"):
        solve_affine_composite(Box([-1.0], [1.0]), LogBarrierOuter(1.0, 2),
                               [[1.0], [1.0]], [0.0, -2.0])


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_subproblem_rejects_lam_outside_the_positive_reals(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        solve_subproblem(Box([0.0], [5.0]), LinearOuter([1.0]), [0.5], [[1.0]],
                         [1.0], lam, 1e-10)
