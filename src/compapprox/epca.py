"""Enhanced proximal composite algorithm.

Outer loop over approximating problems (X^nu, h^nu, F^nu) with vanishing
certification tolerances delta^nu; inner proximal-linearization loop with an
adaptively controlled proximal parameter lambda. Each outer index records a
certified near-stationary triple: either a subproblem fixed point (Step 4) or
a triple whose explicit residual vectors u, w satisfy
max{||u||, ||w|| + r_sub} <= delta^nu (Step 5), where r_sub is the certified
inexactness of the subproblem solve.

After a Step-5 step that passes the decrease test but not the certificate,
the next prox centre is extrapolated in the manner of Gueler's accelerated
proximal point method: x_bar = P_X(x* + beta_k (x* - x*_prev)), with
beta_k = (k-1)/(k+2), k the number of such steps since the last reset and
x*_prev the previous accepted x*. The safeguard keeps x_bar only if
h(F(x_bar)) <= h(F(x*)), which also turns away points outside dom h; otherwise
the centre is x* and k resets, as it does after a failed decrease test. So
the objective path stays monotone. The certificate does not depend on the
centre: u = F(x*) - z_bar and w = (J(x*) - J(x_bar))'y - (x* - x_bar)/lambda
come from the subproblem's optimality at x* around whichever x_bar was used,
so the certified triple is valid for any x_bar in X.

Subproblems are solved inexactly, to a tolerance relative to the last step
(Rockafellar's criterion (B)): tol_k = factor * max(delta^nu, ||w_last||),
where w_last is the w of the last accepted, uncertified Step-5 step in the
stage, taken as 0 at the stage's start and after a failed decrease test.
Far from a stationary point the steps are long and the solves loose; as the
steps shrink the tolerance returns to factor * delta^nu. Step 5's test uses
the r_sub actually reached, so it is unchanged. Step 4 certifies only at
factor * delta^nu: a looser solve that returns x* = x_bar is repeated at that
tolerance, warm, within the same inner iteration, before the usual tests.

Subproblems minimize h(F(x_bar) + dF(x_bar)(x - x_bar)) + ||x - x_bar||^2 /
(2 lambda) over X, with lambda in (0, lambda_bar]. Three branches cover the
catalogue. When h is differentiable with an elementwise curvature and X is a
box or the whole space, Bertsekas's projected Newton method: Newton steps on
the free coordinates, gradient steps on the active ones, an Armijo search
along the projection arc. For every other differentiable h, and as Newton's
fallback when its line search fails, an accelerated projected gradient method
(FISTA, Beck and Teboulle) with adaptive restart (O'Donoghue and Candes),
whose backtracking adds a curvature test wherever objective differences fall
below floating-point resolution. Otherwise, where the subproblem is strongly
convex and its dual smooth, FISTA with gradient restart on the dual, driven by
h's prox through the Moreau identity (Beck and Teboulle's fast dual proximal
gradient). Every branch certifies at the point it returns.

The dual iterates approach the kinks of a piecewise-linear h without landing
on them; the certificate's KINK_TOL slack accepts such points, but their model
values carry the offset, and Step 3 would compare it. So, for a kink-table h
over a box or the whole space, a certificate check of the dual that fails, or
passes only through that slack, also solves the subproblem exactly on the
face its point identifies: rows at a kink stay there, coordinates on a bound
stay there, and one linear system gives the rest (the solution polishing of
OSQP, Stellato et al., Math. Program. Comput. 2020, which rests on the
identification property of prox-linear methods, Hare and Lewis, J. Convex
Anal. 2004). The polished point is returned when the dual's own certificate
certifies it, so what is certified is unchanged.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, EvaluationError, NonconvergenceError
from .geometry import ClosedSet, normal_cone_residual
from .inner import AffineMapping
from .model import CompositeProblem, ResidualTriple, StationarityTriple, stationarity_residual
from .outer import KINK_TOL, OuterFunction

_LAMBDA_FLOOR = 1e-16
#: absolute slack added to every certification tolerance: Step 4 certifies
#: v and w at subtol + CERT_SLACK, and ``trace_certified`` allows a stage
#: residual of delta (1 + factor) + CERT_SLACK
CERT_SLACK = 1e-10
_DIRECT_ITERATION_CAP = 2_000_000


@dataclass
class EpcaConfig:
    x0: np.ndarray
    tau: float = 2.0
    sigma: float = 0.5
    lam_bar: float = 1.0
    lam0: float = 1.0
    delta_schedule: tuple = ()
    inner_iteration_cap: int = 300
    subproblem_tolerance_factor: float = 0.1

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must have finite entries")
        if not 1.0 < self.tau < math.inf:
            raise ValueError("tau must be finite and exceed 1")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.lam_bar < math.inf:
            raise ValueError("lam_bar must be positive and finite")
        if not 0.0 < self.lam0 <= self.lam_bar:
            raise ValueError("lam0 must lie in (0, lam_bar]")
        if not all(0.0 < d < math.inf for d in self.delta_schedule):
            raise ValueError("delta schedule must be strictly positive and finite")
        if not 0.0 < self.subproblem_tolerance_factor < 1.0:
            raise ValueError("subproblem_tolerance_factor must lie in (0, 1)")


@dataclass(frozen=True)
class Stage(CompositeProblem):
    """One approximating problem (X^nu, h^nu, F^nu) and its schedule parameter."""

    parameter: float = math.nan


@dataclass
class TraceEntry:
    nu: int
    parameter: float
    triple: StationarityTriple
    residual: ResidualTriple
    inner_iterations: int
    lam_final: float
    objective: float
    exit: str                      # "step4" or "step5"
    delta: float
    certificate: tuple = None      # (||u||, ||w||, r_sub) for step5 exits
    #: h^nu(F^nu(.)) at the warm start and after every accepted inner step
    objective_path: tuple = ()


@dataclass
class EpcaTrace:
    entries: list = field(default_factory=list)

    def final(self) -> TraceEntry:
        return self.entries[-1]


@dataclass
class SubproblemResult:
    x: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int


def _model_point(c, J, x, x_bar):
    return c + J @ (x - x_bar)


def _phi(h, x_bar, lam, x, z):
    """The subproblem objective at x, given its model point z."""
    d = x - x_bar
    return h.value(z) + 0.5 * (d @ d) / lam


def _phi_grad(J, x_bar, lam, x, y):
    """grad phi at x, given y = grad h at its model point."""
    return J.T @ y + (x - x_bar) / lam


def _solve_smooth(X, h, c, J, x_bar, lam, tol, max_iter, x0=None):
    """Accelerated projected gradient (FISTA) with adaptive restart, from P_X(x0 or x_bar).

    Each step x+ = P_X(v - t grad phi(v)) starts at the extrapolated point
    v = x + beta (x - x_prev), whose model point is z + beta (z - z_prev)
    because the model point is affine in x; t doubles after every step and
    halves until x+ passes the Beck-Teboulle value test and, where
    phi(v) - phi(x+) is below floating-point resolution, the curvature test
    <grad phi(x+) - grad phi(v), x+ - v> <= ||x+ - v||^2 / t, read off the
    model points. The momentum restarts (v <- x) when (v - x+).(x+ - x) > 0,
    when a resolvable objective rises, when v lies outside dom h, or when no
    step from v passes.

    The certificate is the normal-cone residual ||x - P_X(x - grad phi(x))||
    of -grad phi at x itself, with y = grad h at x's model point, so it is
    exact at the point returned; x is always a projection output, so it lies
    in X and one projection suffices.
    """
    x = X.project(x_bar if x0 is None else x0)
    z = _model_point(c, J, x, x_bar)
    val = _phi(h, x_bar, lam, x, z)
    if math.isinf(val):
        raise EvaluationError("subproblem start lies outside dom h")
    y = h.grad(z)
    g = _phi_grad(J, x_bar, lam, x, y)
    x_prev, z_prev, theta, t = x, z, 1.0, 1.0   # theta is FISTA's t_k; 1 means no momentum
    best = (math.inf, x, None)
    for it in range(1, max_iter + 1):
        cert = float(np.linalg.norm(x - X.project(x - g)))
        if cert < best[0]:
            best = (cert, x, y)   # no iterate is modified in place
        if cert <= tol:
            return SubproblemResult(x, y, cert, it)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        v, v_val, v_z, v_y, v_g = x, val, z, y, g
        if theta > 1.0:
            beta = (theta - 1.0) / theta_next
            v = x + beta * (x - x_prev)
            # the model point is affine in x: no product with J
            v_z = z + beta * (z - z_prev)
            v_val = _phi(h, x_bar, lam, v, v_z)
            if math.isfinite(v_val):
                v_y = h.grad(v_z)
                v_g = _phi_grad(J, x_bar, lam, v, v_y)
            else:
                v, v_val, v_z, theta_next = x, val, z, 1.0
        t0 = t
        while True:
            if t < 1e-18:
                if v is x:
                    raise NonconvergenceError("accelerated-gradient step collapsed",
                                              best=best[1], residual=best[0])
                # no step from v passes (P_X(v) can lie outside dom h): restart from x
                v, v_val, v_z, v_y, v_g, theta_next, t = x, val, z, y, g, 1.0, t0
            x_new = X.project(v - t * v_g)
            step = x_new - v
            ss = step @ step
            z_new = _model_point(c, J, x_new, x_bar)
            val_new = _phi(h, x_bar, lam, x_new, z_new)
            if val_new <= v_val + v_g @ step + ss / (2.0 * t) + 1e-15 * (1.0 + abs(v_val)):
                y_new = h.grad(z_new)
                flat = abs(v_val - val_new) < 1e-13 * (1.0 + abs(v_val))
                if not flat or (y_new - v_y) @ (z_new - v_z) + ss / lam <= ss / t:
                    break
            t *= 0.5
        restart = (val_new > val and not flat) or (v - x_new) @ (x_new - x) > 0.0
        t = min(t * 2.0, 1e8)
        x_prev, z_prev, x, val, z, y = x, z, x_new, val_new, z_new, y_new
        g = _phi_grad(J, x_bar, lam, x, y)
        theta = 1.0 if restart else theta_next
    raise NonconvergenceError("accelerated-gradient subproblem hit its iteration cap",
                              best=best[1], residual=best[0])


def _solve_newton(X, h, c, J, x_bar, lam, tol, max_iter, lower, upper):
    """Projected Newton (Bertsekas) on the box [lower, upper], FISTA as its fallback.

    With g = grad phi(x), a coordinate within min(1e-3, certificate) of a
    bound that g points out of is active and takes the gradient step -g_i;
    the free ones F take the Newton step -H^{-1} g_F, with
    H = J_F' diag(h''(z)) J_F + I/lam. The Armijo search halves alpha along
    the projection arc x(alpha) = P_X(x + alpha d) until phi falls by
    1e-4 (alpha g_F.H^{-1}g_F + g_A.(x - x(alpha))_A), or, where that fall is
    below floating-point resolution, until the certificate falls. After 50
    halvings the solve hands x to FISTA. Certificate and returned (x, y) are
    _solve_smooth's.
    """
    x = X.project(x_bar)
    z = _model_point(c, J, x, x_bar)
    val = _phi(h, x_bar, lam, x, z)
    if math.isinf(val):
        raise EvaluationError("subproblem start lies outside dom h")
    y = h.grad(z)
    for it in range(1, max_iter + 1):
        g = _phi_grad(J, x_bar, lam, x, y)
        cert = float(np.linalg.norm(x - X.project(x - g)))
        if cert <= tol:
            return SubproblemResult(x, y, cert, it)
        if it == max_iter:
            raise NonconvergenceError("projected-Newton subproblem hit its iteration cap",
                                      best=x, residual=cert)
        eps = _identification_window(cert)
        active = ((x <= lower + eps) & (g > 0.0)) | ((x >= upper - eps) & (g < 0.0))
        free = ~active
        JF = J[:, free]
        H = JF.T @ (h.curvature(z)[:, None] * JF)
        H.reshape(-1)[::len(H) + 1] += 1.0 / lam     # the diagonal: H is a fresh C-order product
        step = -g
        step[free] = -np.linalg.solve(H, g[free])
        decrease = -(g[free] @ step[free])
        alpha = 1.0
        for _ in range(50):
            x_new = X.project(x + alpha * step)
            z_new = _model_point(c, J, x_new, x_bar)
            val_new = _phi(h, x_bar, lam, x_new, z_new)
            if abs(val - val_new) < 1e-13 * (1.0 + abs(val)):
                # phi cannot rank the step: the certificate must fall instead
                g_new = _phi_grad(J, x_bar, lam, x_new, h.grad(z_new))
                if np.linalg.norm(x_new - X.project(x_new - g_new)) < cert:
                    break
            elif val_new <= val - 1e-4 * (alpha * decrease + g[active] @ (x - x_new)[active]):
                break
            alpha *= 0.5
        else:
            r = _solve_smooth(X, h, c, J, x_bar, lam, tol, max_iter - it, x)
            return SubproblemResult(r.x, r.y, r.residual, it + r.iterations)
        x, z, val, y = x_new, z_new, val_new, h.grad(z_new)


@functools.lru_cache(maxsize=1)
def _spectral_norm(shape, data: bytes) -> float:
    """||J||_2 of the float array with this shape and these bytes; runs reuse one J."""
    return float(np.linalg.norm(np.frombuffer(data).reshape(shape), 2))


def _identification_window(cert):
    """How near a bound or kink a point with this certificate counts as on it."""
    return min(1e-3, cert)


def _dual_certificate(X, h, c, J, x_bar, lam, x, y):
    """The dual loop's certificate at (x, y), and the model point z of x it read.

    The certificate is the max of the normal-cone residual of
    -(J'y + (x - x_bar)/lam) at x and the distance of y to dh(z).
    """
    z = _model_point(c, J, x, x_bar)
    r_cone = normal_cone_residual(X, x, -(J.T @ y + (x - x_bar) / lam))
    r_sub, _ = h.subdiff_distance(y, z, KINK_TOL)
    return max(r_cone, r_sub), z


def _leans_on_slack(h, z):
    """Some z_i lies within KINK_TOL of a kink with left(k) < right(k), but not on it."""
    gap = np.abs(z - h._table[0])
    return bool(((gap > 0.0) & (gap <= KINK_TOL) & (h._at_kink[0] < h._at_kink[1])).any())


def _solve_dual(X, h, c, J, x_bar, lam, tol, max_iter, y0=None):
    """Accelerated proximal gradient (FISTA) on the dual, with gradient restart and a face polish.

    At finite lam the subproblem is strongly convex, so its dual
    min_y h*(y) + D(y) has a smooth part D: the primal point of y is
    x(y) = P_X(x_bar - lam J'y), grad D(y) = -(c + J(x(y) - x_bar)), and
    grad D is lam ||J||^2-Lipschitz (Beck and Teboulle's fast dual proximal
    gradient). Each step from the extrapolated point w is
    y+ = prox_{t h*}(w + t z(w)) with t = 1/(lam ||J||^2), where the prox of
    h* comes from h.prox by the Moreau identity
    prox_{t h*}(u) = u - t prox_{h/t}(u/t). The momentum restarts when
    (w - y+).(y+ - y) > 0 (O'Donoghue and Candes). Every 10 iterations the
    certificate is computed at (x(y), y): the max of the normal-cone residual
    of -(J'y + (x - x_bar)/lam) at x and the distance of y to dh at the model
    point.

    On a kink-table h over a box or the whole space, a check whose
    certificate fails, or holds only because some z_i within KINK_TOL of a
    kink is not on it, also solves the subproblem exactly on the face x(y)
    identifies (``_face_polish``). That point is returned, ahead of (x(y), y),
    when the same certificate certifies it: the guarantee is the loop's own.
    """
    L = _spectral_norm(J.shape, J.tobytes())
    t = 1.0 / (lam * L * L) if L > 0 else 1.0
    bounds = X.bounds() if h._table is not None else None

    def primal(yy):
        return X.project(x_bar - lam * (J.T @ yy))

    y = np.zeros(J.shape[0]) if y0 is None else np.asarray(y0, dtype=float)
    y_prev, theta = y, 1.0           # theta is FISTA's t_k; 1 means no momentum
    best = (math.inf, None, None)
    for it in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        w = y + ((theta - 1.0) / theta_next) * (y - y_prev) if theta > 1.0 else y
        u = w + t * _model_point(c, J, primal(w), x_bar)
        y_new = u - t * h.prox(u / t, 1.0 / t)
        restart = (w - y_new) @ (y_new - y) > 0.0
        y_prev, y = y, y_new
        theta = 1.0 if restart else theta_next
        if it % 10 == 0 or it == max_iter:
            x = primal(y)
            cert, z = _dual_certificate(X, h, c, J, x_bar, lam, x, y)
            if cert < best[0]:
                best = (cert, x, y)
            if bounds is not None and (cert > tol or _leans_on_slack(h, z)):
                polished = _face_polish(h, c, J, x_bar, lam, x, z, cert, *bounds)
                if polished is not None:
                    cert_polished, _ = _dual_certificate(X, h, c, J, x_bar, lam, *polished)
                    if cert_polished <= tol:
                        return SubproblemResult(*polished, cert_polished, it)
            if cert <= tol:
                return SubproblemResult(x, y, cert, it)
    raise NonconvergenceError("dual accelerated subproblem hit its iteration cap",
                              best=best[1], residual=best[0])


def _face_polish(h, c, J, x_bar, lam, x, z, cert, lower, upper):
    """(x, y) solving the subproblem exactly on the face x identifies, or None.

    With z the model point of x, a row K with z_K within
    max(KINK_TOL, min(1e-3, cert)) of a kink with left(k) < right(k) is
    pinned there; every other row N keeps its branch, whose slope must be 0,
    with gradient g_N = a. Coordinates on a bound (A) stay there; the free
    ones F minimize the now quadratic subproblem under
    J_K(x - x_bar) = k_K - c_K: with q = J_NF' g_N and
    r = k_K - c_K - J_KA (x - x_bar)_A, the multipliers solve
    (J_KF J_KF') mu = -(r/lam + J_KF q), x_F = x_bar_F - lam (q + J_KF' mu),
    y_N = g_N and y_K = mu. Free coordinates that leave the box are clamped
    onto their bounds and join A, for up to 4 solves. None when a branch is
    sloped or outside dom h, J_KF J_KF' is singular, or x_F still leaves.
    """
    k, a_left, b_left, a_right, b_right = h._table
    left_k, right_k = h._at_kink
    kink = (np.abs(z - k) <= max(KINK_TOL, _identification_window(cert))) & (left_k < right_k)
    right = z > k
    g = np.where(right, a_right, a_left)[~kink]
    if np.where(right, b_right, b_left)[~kink].any() or not np.isfinite(g).all():
        return None
    JK, JN = J[kink], J[~kink]
    active = (x <= lower) | (x >= upper)    # x = x(y) is a projection: exactly on its bounds
    x = x.copy()
    for _ in range(4):
        free = ~active
        JKF = JK[:, free]
        q = JN[:, free].T @ g
        r = k[kink] - c[kink] - JK[:, active] @ (x - x_bar)[active]
        try:
            mu = np.linalg.solve(JKF @ JKF.T, -(r / lam + JKF @ q))
        except np.linalg.LinAlgError:
            return None
        x_free = x_bar[free] - lam * (q + JKF.T @ mu)
        lo, hi = lower[free], upper[free]
        out = (x_free < lo) | (x_free > hi)
        x[free] = np.clip(x_free, lo, hi)
        if not out.any():
            y = np.empty(len(z))
            y[kink], y[~kink] = mu, g
            return x, y
        active[np.flatnonzero(free)[out]] = True
    return None


def solve_subproblem(X: ClosedSet, h: OuterFunction, c, J, x_bar, lam: float,
                     tol: float, max_iter: int = 400_000, y0=None) -> SubproblemResult:
    """Solve min_{x in X} h(c + J(x - x_bar)) + ||x - x_bar||^2/(2 lam).

    Three branches, for lam in (0, inf): smooth h with a curvature over a box
    or the whole space goes to projected Newton, other smooth h to
    accelerated projected gradient on the primal, which is also Newton's
    fallback; nonsmooth h with a prox goes to accelerated proximal gradient
    on the dual, which is smooth because the subproblem is strongly convex.
    y0 warm-starts the dual branch's multiplier.

    Returns the primal point, a multiplier y with y in dh(model point), and the
    certified fixed-point residual: the max of the normal-cone projection
    residual of -(J'y + (x - x_bar)/lam) at x and the distance of y to the
    subdifferential at the model point.
    """
    c = np.asarray(c, dtype=float)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    x_bar = np.asarray(x_bar, dtype=float)
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    if h.smooth:
        bounds = X.bounds()
        if bounds is None or type(h).curvature is OuterFunction.curvature:
            return _solve_smooth(X, h, c, J, x_bar, lam, tol, max_iter)
        return _solve_newton(X, h, c, J, x_bar, lam, tol, max_iter, *bounds)
    if not h.prox_available:
        raise EvaluationError(f"{type(h).__name__} supports neither gradient nor prox")
    return _solve_dual(X, h, c, J, x_bar, lam, tol, max_iter, y0)


def sufficient_decrease_test(v_bar: float, v_star: float, v_model: float,
                             sigma: float) -> bool:
    """Step 3: actual decrease of h(F(.)) must reach sigma times the model decrease.

    v_bar = h(F(x_bar)), v_star = h(F(x_star)) and v_model is h at x_star's
    model point F(x_bar) + J(x_bar)(x_star - x_bar).
    """
    if math.isinf(v_bar) or math.isinf(v_star) or math.isinf(v_model):
        raise EvaluationError("Step 3 requires real values of the approximating objective")
    return v_bar - v_star >= sigma * (v_bar - v_model) - 1e-14 * (1.0 + abs(v_bar))


def extract_multipliers_step4(stage: Stage, x_star, tol: float, y_hint=None):
    """Step 4 triple (x*, y, F(x*)) at a subproblem fixed point, certified.

    Smooth h gives y = grad h(z) uniquely; otherwise the subproblem dual
    iterate is used. The triple's stationarity residual is computed once and
    its v- and w-blocks are checked against tol; for nonsmooth F the w-block
    is the minimum over vertex selections of the active-gradient hull, each
    an element of the generalized Jacobian. Returns (triple, residual);
    failure raises CertificationError carrying the two blocks.
    """
    x_star = np.asarray(x_star, dtype=float)
    z = stage.F.eval(x_star)
    if stage.h.smooth:
        y = stage.h.grad(z)
    else:
        if y_hint is None:
            raise CertificationError("nonsmooth h needs the subproblem dual iterate")
        y = np.asarray(y_hint, dtype=float)
    triple = StationarityTriple(x_star, y, z)
    residual = stationarity_residual(stage, triple)
    v_dist, w_dist = residual.v_dist, residual.w_dist
    cert_tol = tol + CERT_SLACK
    if v_dist > cert_tol or w_dist > cert_tol:
        raise CertificationError(
            f"step-4 certification failed: v={v_dist:.3e}, w={w_dist:.3e}, tol={cert_tol:.3e}",
            residuals=(v_dist, w_dist))
    return triple, residual


def step5_residuals(c_next, J_prev, J_next, x_prev, x_next, z_next, y_next, lam: float):
    """Step 5 residual vectors u = F(x+) - z+ and the Jacobian-difference w.

    c_next = F(x+); J_prev and J_next are the Jacobian selections at x and x+.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    u = np.asarray(c_next, dtype=float) - np.asarray(z_next, dtype=float)
    w = (J_next - J_prev).T @ np.asarray(y_next, dtype=float) - (x_next - x_prev) / lam
    return u, w


def _level_boundedness_probe(stage: Stage, x_bar):
    """Radius-growth heuristic for the level-boundedness hypothesis; warns only."""
    if stage.X.is_bounded():
        return
    level = stage.h.value(stage.F.eval(x_bar))
    if math.isinf(level):
        return
    n = stage.X.n
    for i in range(n):
        for sign in (1.0, -1.0):
            d = np.zeros(n)
            d[i] = sign
            for radius in (1e3, 1e6):
                pt = x_bar + radius * d
                if not stage.X.contains(pt, tol=1e-8):
                    continue
                if stage.h.value(stage.F.eval(pt)) <= level:
                    warnings.warn(
                        "approximating problem may not be level-bounded at its warm start",
                        RuntimeWarning)
                    return


def run_epca(stages, config: EpcaConfig) -> EpcaTrace:
    """Run EPCA across the approximation schedule, one certified triple per stage.

    Each inner iteration solves its subproblem to
    subproblem_tolerance_factor * max(delta, w_last), w_last being ||w|| of
    the stage's last accepted, uncertified Step-5 step (0 at the stage's start
    and after a failed decrease test). A solve looser than
    subproblem_tolerance_factor * delta that returns x_bar is solved again at
    that tolerance before Step 4 may certify it; the re-solve is part of the
    same inner iteration.

    Raises NonconvergenceError (carrying the partial trace) if an inner loop
    exceeds the iteration cap, lambda collapses below the floor, a subproblem
    fails, or a stage raises EvaluationError or CertificationError. Each
    message names the outer index; a subproblem's also names the stage
    parameter and keeps the solver's best point and residual.
    """
    stages = list(stages)
    if len(config.delta_schedule) < len(stages):
        raise ValueError("delta schedule shorter than the stage list")
    trace = EpcaTrace()
    x_prev = config.x0.copy()
    lam = config.lam0
    y_carry = None
    for nu, stage in enumerate(stages, start=1):
        delta = float(config.delta_schedule[nu - 1])
        subtol = config.subproblem_tolerance_factor * delta
        x_bar = stage.X.project(x_prev)
        try:
            _level_boundedness_probe(stage, x_bar)
            if y_carry is not None and y_carry.shape != (stage.F.m,):
                y_carry = None
            # F, its Jacobian selection and h(F(.)) at x_bar, carried over from
            # x_star or the extrapolated point, whichever becomes the next x_bar
            c = stage.F.eval(x_bar)
            J = _jacobian(stage.F, x_bar)
            v = stage.h.value(c)
            obj_path = [v]
            inner = 0
            # k counts the accepted uncertified steps since the last reset, and
            # x_acc is the last accepted x_star, the base of the extrapolation;
            # w_last is ||w|| of the last such step, 0 after a reset
            k, x_acc, w_last = 0, None, 0.0
            while True:
                inner += 1
                if inner > config.inner_iteration_cap:
                    raise NonconvergenceError(
                        f"inner iteration cap exceeded at outer index {nu}",
                        best=x_bar)
                tol = config.subproblem_tolerance_factor * max(delta, w_last)
                sub = _solve_stage_subproblem(nu, stage, c, J, x_bar, lam, tol, y_carry)
                if tol > subtol and _at_centre(sub.x, x_bar):
                    # Step 4 certifies only at subtol: solve again, warm
                    sub = _solve_stage_subproblem(nu, stage, c, J, x_bar, lam, subtol, sub.y)
                x_star, y_star = sub.x, sub.y
                y_carry = y_star
                if _at_centre(x_star, x_bar):
                    triple, residual = extract_multipliers_step4(stage, x_star, subtol,
                                                                 y_hint=y_star)
                    obj_path.append(stage.h.value(triple.z))
                    _record(trace, nu, stage, triple, inner, lam, delta, "step4", None,
                            obj_path, residual)
                    x_prev = x_star
                    break
                c_star = stage.F.eval(x_star)
                z_bar = _model_point(c, J, x_star, x_bar)
                v_star = stage.h.value(c_star)
                if sufficient_decrease_test(v, v_star, stage.h.value(z_bar), config.sigma):
                    lam_next = min(config.tau * lam, config.lam_bar)
                    J_star = _jacobian(stage.F, x_star)
                    u, w = step5_residuals(c_star, J, J_star, x_bar, x_star, z_bar, y_star, lam)
                    u_norm, w_norm = float(np.linalg.norm(u)), float(np.linalg.norm(w))
                    obj_path.append(v_star)
                    if max(u_norm, w_norm + sub.residual) <= delta:
                        triple = StationarityTriple(x_star, y_star, z_bar)
                        _record(trace, nu, stage, triple, inner, lam, delta, "step5",
                                (u_norm, w_norm, sub.residual), obj_path)
                        lam = lam_next
                        x_prev = x_star
                        break
                    x_bar, c, J, v = x_star, c_star, J_star, v_star
                    lam = lam_next
                    k, w_last = k + 1, w_norm
                    if k > 1:  # beta_1 = 0 would return x_star itself
                        beta = (k - 1) / (k + 2)
                        x_ext = stage.X.project(x_star + beta * (x_star - x_acc))
                        c_ext = stage.F.eval(x_ext)
                        v_ext = stage.h.value(c_ext)
                        # safeguard: no worse than x_star, which also keeps a
                        # point outside dom h (value inf) or a NaN out
                        if v_ext <= v_star:
                            x_bar, c, J, v = x_ext, c_ext, _jacobian(stage.F, x_ext), v_ext
                        else:
                            k = 0
                    x_acc = x_star
                else:
                    k, w_last = 0, 0.0
                    lam = lam / config.tau
                    if lam < _LAMBDA_FLOOR:
                        raise NonconvergenceError(
                            f"lambda collapsed below {_LAMBDA_FLOOR} at outer index {nu}",
                            best=x_bar)
        except NonconvergenceError as err:
            err.partial_trace = trace
            raise
        except (EvaluationError, CertificationError) as err:
            # a start outside dom h or a failed Step-4 check ends the run
            # like a cap: exit 2 with the stages certified so far
            raise NonconvergenceError(
                f"{type(err).__name__} at outer index {nu}: {err}",
                best=x_bar, partial_trace=trace) from err
    return trace


def _jacobian(F, x):
    """``F.jacobian(x).matrix`` without the report: the batch's read-only row, bit for bit."""
    return F.jacobian_batch(x[None])[0][0]


def _solve_stage_subproblem(nu, stage, c, J, x_bar, lam, tol, y0):
    """solve_subproblem on a stage; a failure names the outer index and parameter."""
    try:
        return solve_subproblem(stage.X, stage.h, c, J, x_bar, lam, tol, y0=y0)
    except NonconvergenceError as err:
        raise NonconvergenceError(
            f"at outer index {nu} (parameter {stage.parameter:.6g}): {err}",
            best=err.best, residual=err.residual) from err


def _at_centre(x, x_bar):
    """x is the prox centre up to roundoff: the subproblem fixed point of Step 4."""
    return np.linalg.norm(x - x_bar) <= 1e-12 * (1.0 + np.linalg.norm(x_bar))


def _record(trace, nu, stage, triple, inner, lam, delta, exit_step, certificate,
            obj_path, residual=None):
    """Append the stage's entry; obj_path ends with h(F(triple.x)), its objective.

    A Step-4 exit passes the residual its certificate checked; otherwise the
    triple's residual is computed here.
    """
    if residual is None:
        residual = stationarity_residual(stage, triple)
    trace.entries.append(TraceEntry(nu, stage.parameter, triple, residual, inner,
                                    lam, obj_path[-1], exit_step, delta, certificate,
                                    tuple(obj_path)))


def solve_affine_composite(X: ClosedSet, h: OuterFunction, A, b,
                           tol: float = 1e-9) -> SubproblemResult:
    """Direct solve of min_{x in X} h(Ax + b) by primal-dual splitting.

    An oracle for EPCA on convex instances, independent of its subproblem
    solvers: Chambolle and Pock's primal-dual method (J. Math. Imaging Vis.
    2011) with steps 0.9/||A||, driven by h's conjugate prox through the Moreau
    identity. Every 10 iterations the candidate (x, y, Ax + b) is certified by
    stationarity_residual on the problem itself; the solve returns at the
    first candidate whose combined residual is <= tol and raises
    NonconvergenceError after _DIRECT_ITERATION_CAP iterations.
    """
    if not h.prox_available:
        raise EvaluationError(f"{type(h).__name__} has no prox for the direct solve")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    problem = CompositeProblem(X, h, AffineMapping(A, b))
    L = float(np.linalg.norm(A, 2))
    sig = tau = 0.9 / L if L > 0 else 1.0
    x = X.project(np.zeros(A.shape[1]))
    p = np.zeros(A.shape[0])
    x_tilde = x
    best = (math.inf, x, p)
    for it in range(1, _DIRECT_ITERATION_CAP + 1):
        s = p + sig * (A @ x_tilde) + sig * b
        p = s - sig * h.prox(s / sig, 1.0 / sig)
        x_prev = x
        x = X.project(x - tau * (A.T @ p))
        x_tilde = 2.0 * x - x_prev
        if it % 10 == 0:
            cert = stationarity_residual(
                problem, StationarityTriple(x, p, problem.F.eval(x))).combined
            if cert < best[0]:
                best = (cert, x, p)
            if cert <= tol:
                return SubproblemResult(x, p, cert, it)
    raise NonconvergenceError("direct primal-dual solve hit its iteration cap",
                              best=best[1], residual=best[0])
