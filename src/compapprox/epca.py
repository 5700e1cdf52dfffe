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

Subproblems minimize h(F(x_bar) + dF(x_bar)(x - x_bar)) + ||x - x_bar||^2 /
(2 lambda) over X. Two solvers cover the catalogue. When h is differentiable,
an accelerated proximal gradient method (FISTA, Beck and Teboulle) with
backtracking and adaptive restart (O'Donoghue and Candes), plus a fixed-step
phase once objective differences fall below floating-point resolution;
otherwise a primal-dual (Chambolle-Pock) splitting driven by h's conjugate
prox. Both certify at the point they return. Setting lambda = inf drops the
proximal term, which turns the splitting solver into a direct solver for
composite problems with affine F.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, EvaluationError, NonconvergenceError
from .geometry import ClosedSet, normal_cone_residual
from .model import CompositeProblem, ResidualTriple, StationarityTriple, stationarity_residual
from .outer import KINK_TOL, OuterFunction

_LAMBDA_FLOOR = 1e-16


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
        if not self.tau > 1.0:
            raise ValueError("tau must exceed 1")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not self.lam_bar > 0.0:
            raise ValueError("lam_bar must be positive")
        if not 0.0 < self.lam0 <= self.lam_bar:
            raise ValueError("lam0 must lie in (0, lam_bar]")
        if any(d <= 0 for d in self.delta_schedule):
            raise ValueError("delta schedule must be strictly positive")
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


def _certificate(X, h, c, J, x_bar, lam, x, y):
    """max of the two membership residuals of the subproblem optimality inclusion."""
    d = J.T @ y
    if math.isfinite(lam):
        d = d + (x - x_bar) / lam
    r_cone = normal_cone_residual(X, x, -d)
    r_sub, _ = h.subdiff_distance(y, _model_point(c, J, x, x_bar), KINK_TOL)
    return max(r_cone, r_sub)


def _solve_smooth(X, h, c, J, x_bar, lam, tol, max_iter):
    """Accelerated projected gradient (FISTA) with adaptive restart.

    Each step is a projected gradient step from the extrapolated point
    v = x + beta (x - x_prev), sized by Beck-Teboulle backtracking from v. The
    momentum restarts (v <- x) when the objective rises, when the step turns
    against the previous one, (v - x+).(x+ - x) > 0, when the model is
    infinite at v (outside dom h), or when backtracking from v finds no step.

    Once objective differences sink below floating-point resolution, the
    value test can no longer size a step: the step is frozen at the last
    accepted size (a local curvature estimate) and checked instead by its
    gradient form, ||grad phi(x+) - grad phi(v)|| <= ||x+ - v|| / t, which
    stays resolvable; a failed check halves the step. In this phase the
    certificate takes the objective's place as the restart signal, and a
    certificate that stalls for 30 iterations also halves the step.

    The certificate is the normal-cone residual of -grad phi at the iterate x
    itself, with y = grad h at x's model point, so it is exact at the point
    returned.
    """
    prox = math.isfinite(lam)

    def model(xx):
        # the value and the model point, which the gradient reuses
        zz = _model_point(c, J, xx, x_bar)
        val = h.value(zz)
        if prox:
            d = xx - x_bar
            val += 0.5 * (d @ d) / lam
        return val, zz

    def gradient(xx, zz):
        yy = h.grad(zz)
        g = J.T @ yy
        if prox:
            g = g + (xx - x_bar) / lam
        return g, yy

    x = X.project(x_bar)
    val, z = model(x)
    if math.isinf(val):
        raise EvaluationError("subproblem start lies outside dom h")
    g, y = gradient(x, z)
    x_prev = x
    theta = 1.0                      # FISTA's t_k; 1 means no momentum
    t = 1.0
    t_ref = None
    fixed_step = False
    cert_prev = window_best = math.inf
    since_improve = 0
    best = (math.inf, x, None)
    for it in range(1, max_iter + 1):
        cert = max(normal_cone_residual(X, x, -g), 0.0)
        if cert < best[0]:
            best = (cert, x.copy(), y.copy())
        if cert <= tol:
            return SubproblemResult(x, y, cert, it)
        if fixed_step:
            if cert > cert_prev:     # the restart test of this phase
                theta = 1.0
            # residual-trend control: halve the step when the certificate stalls
            if cert < 0.999 * window_best:
                window_best = cert
                since_improve = 0
            else:
                since_improve += 1
                if since_improve > 30:
                    t_ref *= 0.5
                    theta = 1.0
                    since_improve = 0
                    window_best = cert
                    if t_ref < 1e-18:
                        raise NonconvergenceError("fixed-step phase collapsed",
                                                  best=best[1], residual=best[0])
        cert_prev = cert
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        v, v_val, v_g = x, val, g
        if theta > 1.0:
            v = x + ((theta - 1.0) / theta_next) * (x - x_prev)
            v_val, v_z = model(v)
            if math.isfinite(v_val):
                v_g, _ = gradient(v, v_z)
            else:
                v, v_val, theta_next = x, val, 1.0
        if fixed_step:
            x_new = X.project(v - t_ref * v_g)
            val_new, z_new = model(x_new)
            if math.isinf(val_new):
                t_ref *= 0.5
                theta = 1.0
                continue
            restart = False
        else:
            accepted = False
            while t >= 1e-18:
                x_new = X.project(v - t * v_g)
                step = x_new - v
                val_new, z_new = model(x_new)
                if val_new <= v_val + v_g @ step + (step @ step) / (2.0 * t) \
                        + 1e-15 * (1.0 + abs(v_val)):
                    accepted = True
                    break
                t *= 0.5
            if not accepted and v is not x:
                # no step from the extrapolated point: restart from x
                t, theta = t_ref, 1.0
                continue
            if not accepted:
                t = max(t, 1e-18)
                val_new, x_new, z_new = val, x, z
            if t_ref is None or accepted:
                t_ref = t
            restart = val_new > val
            # objective differences below resolution: freeze the step
            if not accepted or abs(val - val_new) < 1e-13 * (1.0 + abs(val)):
                fixed_step = True
                window_best = cert
                since_improve = 0
            t = min(t * 2.0, 1e8)
        restart = restart or (v - x_new) @ (x_new - x) > 0.0
        x_prev = x
        x, val, z = x_new, val_new, z_new
        g, y = gradient(x, z)
        if fixed_step:
            dg, dx = g - v_g, x - v
            if t_ref * t_ref * (dg @ dg) > dx @ dx:
                t_ref *= 0.5
                restart = True
        theta = 1.0 if restart else theta_next
    raise NonconvergenceError("accelerated-gradient subproblem hit its iteration cap",
                              best=best[1], residual=best[0])


def _solve_splitting(X, h, c, J, x_bar, lam, tol, max_iter, y0=None):
    m, n = J.shape
    L = float(np.linalg.norm(J, 2))
    step = 0.9 / L if L > 0 else 1.0
    sig = tau = step
    co = c - J @ x_bar
    x = X.project(x_bar)
    p = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    x_tilde = x.copy()
    check_every = 10
    best = (math.inf, x.copy(), p.copy())
    for it in range(1, max_iter + 1):
        s = p + sig * (J @ x_tilde) + sig * co
        p = s - sig * h.prox(s / sig, 1.0 / sig)
        v = x - tau * (J.T @ p)
        x_prev = x
        if math.isfinite(lam):
            x = X.project((lam * v + tau * x_bar) / (lam + tau))
        else:
            x = X.project(v)
        x_tilde = 2.0 * x - x_prev
        if it % check_every == 0 or it == max_iter:
            cert = _certificate(X, h, c, J, x_bar, lam, x, p)
            if cert < best[0]:
                best = (cert, x.copy(), p.copy())
            if cert <= tol:
                return SubproblemResult(x, p, cert, it)
    raise NonconvergenceError("primal-dual subproblem hit its iteration cap",
                              best=best[1], residual=best[0])


def solve_subproblem(X: ClosedSet, h: OuterFunction, c, J, x_bar, lam: float,
                     tol: float, max_iter: int = 400_000, y0=None) -> SubproblemResult:
    """Solve min_{x in X} h(c + J(x - x_bar)) + ||x - x_bar||^2/(2 lam).

    Returns the primal point, a multiplier y with y in dh(model point), and the
    certified fixed-point residual: the max of the normal-cone projection
    residual of -(J'y + (x - x_bar)/lam) at x and the distance of y to the
    subdifferential at the model point. lam = inf drops the proximal term.
    """
    c = np.asarray(c, dtype=float)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    x_bar = np.asarray(x_bar, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if h.smooth:
        return _solve_smooth(X, h, c, J, x_bar, lam, tol, max_iter)
    if not h.prox_available:
        raise EvaluationError(f"{type(h).__name__} supports neither gradient nor prox")
    return _solve_splitting(X, h, c, J, x_bar, lam, tol, max_iter, y0)


def sufficient_decrease_test(h: OuterFunction, c, J, c_star, x_bar, x_star,
                             sigma: float) -> bool:
    """Step 3: actual decrease of h(F(.)) must reach sigma times the model decrease.

    c = F(x_bar), J its Jacobian selection and c_star = F(x_star).
    """
    v_bar = h.value(c)
    v_star = h.value(c_star)
    v_model = h.value(_model_point(c, np.atleast_2d(J), x_star, x_bar))
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
    cert_tol = tol + 1e-10
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
            # F and its Jacobian selection at x_bar, carried over from x_star or
            # the extrapolated point, whichever becomes the next x_bar
            c = stage.F.eval(x_bar)
            J = stage.F.jacobian(x_bar).matrix
            obj_path = [stage.h.value(c)]
            inner = 0
            # k counts the accepted uncertified steps since the last reset, and
            # x_acc is the last accepted x_star, the base of the extrapolation
            k, x_acc = 0, None
            while True:
                inner += 1
                if inner > config.inner_iteration_cap:
                    raise NonconvergenceError(
                        f"inner iteration cap exceeded at outer index {nu}",
                        best=x_bar)
                try:
                    sub = solve_subproblem(stage.X, stage.h, c, J, x_bar, lam, subtol,
                                           y0=y_carry)
                except NonconvergenceError as err:
                    raise NonconvergenceError(
                        f"at outer index {nu} (parameter {stage.parameter:.6g}): {err}",
                        best=err.best, residual=err.residual) from err
                x_star, y_star = sub.x, sub.y
                y_carry = y_star
                if np.linalg.norm(x_star - x_bar) <= 1e-12 * (1.0 + np.linalg.norm(x_bar)):
                    triple, residual = extract_multipliers_step4(stage, x_star, subtol,
                                                                 y_hint=y_star)
                    obj_path.append(stage.h.value(triple.z))
                    _record(trace, nu, stage, triple, inner, lam, delta, "step4", None,
                            obj_path, residual)
                    x_prev = x_star
                    break
                c_star = stage.F.eval(x_star)
                if sufficient_decrease_test(stage.h, c, J, c_star, x_bar, x_star, config.sigma):
                    lam_next = min(config.tau * lam, config.lam_bar)
                    z_bar = _model_point(c, J, x_star, x_bar)
                    J_star = stage.F.jacobian(x_star).matrix
                    u, w = step5_residuals(c_star, J, J_star, x_bar, x_star, z_bar, y_star, lam)
                    u_norm, w_norm = float(np.linalg.norm(u)), float(np.linalg.norm(w))
                    v_star = stage.h.value(c_star)
                    obj_path.append(v_star)
                    if max(u_norm, w_norm + sub.residual) <= delta:
                        triple = StationarityTriple(x_star, y_star, z_bar)
                        _record(trace, nu, stage, triple, inner, lam, delta, "step5",
                                (u_norm, w_norm, sub.residual), obj_path)
                        lam = lam_next
                        x_prev = x_star
                        break
                    x_bar, c, J = x_star, c_star, J_star
                    lam = lam_next
                    k += 1
                    if k > 1:  # beta_1 = 0 would return x_star itself
                        beta = (k - 1) / (k + 2)
                        x_ext = stage.X.project(x_star + beta * (x_star - x_acc))
                        c_ext = stage.F.eval(x_ext)
                        # safeguard: no worse than x_star, which also keeps a
                        # point outside dom h (value inf) or a NaN out
                        if stage.h.value(c_ext) <= v_star:
                            x_bar, c, J = x_ext, c_ext, stage.F.jacobian(x_ext).matrix
                        else:
                            k = 0
                    x_acc = x_star
                else:
                    k = 0
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
                           tol: float = 1e-9, max_iter: int = 2_000_000,
                           y0=None) -> SubproblemResult:
    """Direct solve of min_{x in X} h(Ax + b): the exact model with no prox term.

    Used as an independent oracle for EPCA on convex instances (F affine makes
    the linearization exact, so the subproblem solver applied once at x_bar = 0
    with lam = inf solves the full problem).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    x_bar = np.zeros(A.shape[1])
    return solve_subproblem(X, h, b, A, x_bar, math.inf, tol, max_iter, y0=y0)
