"""Catalogue of convex outer functions h and their approximating families.

Each variant supports value queries (extended-real: +inf outside the domain,
never -inf), and, where the structure allows, coordinate subdifferential
intervals, proximal maps, and piecewise-linear descriptions of the
per-coordinate subdifferential graph.

Where that graph is piecewise linear, ``graph_1d`` is the one definition of
dh_i: the base class reads the subdifferential intervals off it. Variants
with curved graphs (softplus goal, log barrier) give the intervals in closed
form instead, and the homotopy and block-separable wrappers delegate to
their parts.

Subdifferential interval queries take a ``slack`` argument: the returned
interval is the hull of the subdifferential over [t - slack, t + slack].
With slack 0 this is the exact subdifferential. A small positive slack
(``KINK_TOL``) is what certification code uses so that a kink reached only to
floating-point accuracy does not reject an exact multiplier.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, NonconvergenceError
from .geometry import (as_count, dist_to_hull, finite_array, finite_theta,
                       project_onto_hull)

KINK_TOL = 1e-9

_INF = math.inf
# softplus_grad's clamp into the open interval (0, 1)
_TINY = np.finfo(float).tiny
_BELOW_ONE = 1.0 - np.finfo(float).epsneg


# ---------------------------------------------------------------------------
# softplus


def softplus(theta: float, gamma):
    """Overflow-safe softplus (1/theta) * ln(1 + exp(theta*gamma)).

    Computed as max{0, gamma} + log1p(exp(-theta*|gamma|))/theta, which is
    stable for theta up to 1e6 and |gamma| in the tens. The gap to
    max{0, gamma} is at most (ln 2)/theta, attained at gamma = 0.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    out = _softplus(theta, np.asarray(gamma, dtype=float))
    return float(out) if np.isscalar(gamma) else out


def softplus_grad(theta: float, gamma):
    """Derivative exp(theta*g)/(1 + exp(theta*g)), clamped into the open (0,1).

    One pass: with e = exp(-theta*|g|) in [0, 1], the derivative is 1/(1+e)
    for g >= 0 and e/(1+e) otherwise, so no exponential overflows.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    out = _softplus_grad(theta, np.asarray(gamma, dtype=float))
    return float(out) if np.isscalar(gamma) else out


# the two formulas on float arrays, for callers that have checked theta > 0


def _softplus(theta, g):
    return np.maximum(0.0, g) + np.log1p(np.exp(-theta * np.abs(g))) / theta


def _softplus_grad(theta, g):
    e = np.exp(-theta * np.abs(g))
    return np.minimum(np.maximum(np.where(g >= 0, 1.0, e) / (1.0 + e), _TINY), _BELOW_ONE)


# ---------------------------------------------------------------------------
# 1-D subdifferential graphs


class GraphPiece(NamedTuple):
    """One monotone segment of gph dh_i in R^2.

    Vertical pieces have z_lo == z_hi; flat pieces have v_lo == v_hi; sloped
    pieces satisfy v = intercept + slope * z with slope > 0. A named tuple,
    so building one is a single tuple allocation.
    """

    z_lo: float
    z_hi: float
    v_lo: float
    v_hi: float
    slope: float = 0.0
    intercept: float = math.nan

    @staticmethod
    def flat(z_lo, z_hi, v):
        return GraphPiece(z_lo, z_hi, v, v, 0.0, v)

    @staticmethod
    def vertical(z, v_lo, v_hi):
        return GraphPiece(z, z, v_lo, v_hi, math.inf, math.nan)

    @staticmethod
    def sloped(z_lo, z_hi, slope, intercept):
        if slope <= 0:
            raise ValueError("sloped piece needs positive slope")
        v_lo = intercept + slope * z_lo if z_lo > -_INF else -_INF
        v_hi = intercept + slope * z_hi if z_hi < _INF else _INF
        return GraphPiece(z_lo, z_hi, v_lo, v_hi, slope, intercept)

    @property
    def is_vertical(self):
        return self.z_lo == self.z_hi

    @property
    def is_flat(self):
        return self.v_lo == self.v_hi

    def clip(self, bound: float):
        """Restrict to the box |z| <= bound, |v| <= bound; None if empty."""
        z_lo, z_hi = max(self.z_lo, -bound), min(self.z_hi, bound)
        v_lo, v_hi = max(self.v_lo, -bound), min(self.v_hi, bound)
        if z_lo > z_hi or v_lo > v_hi:
            return None
        if self.is_vertical:
            return GraphPiece(z_lo, z_hi, v_lo, v_hi, math.inf, math.nan)
        if self.is_flat:
            return GraphPiece(z_lo, z_hi, v_lo, v_hi, 0.0, self.intercept)
        # sloped: v-range induces a further z-range restriction
        z_lo = max(z_lo, (v_lo - self.intercept) / self.slope)
        z_hi = min(z_hi, (v_hi - self.intercept) / self.slope)
        if z_lo > z_hi:
            return None
        return GraphPiece(z_lo, z_hi, self.intercept + self.slope * z_lo,
                          self.intercept + self.slope * z_hi, self.slope, self.intercept)


class SubdifferentialGraph1D:
    """gph dh_i as an ordered, connected, monotone list of pieces."""

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("empty graph")
        for p in pieces:
            if p.z_lo > p.z_hi or p.v_lo > p.v_hi:
                raise ValueError("piece with reversed interval")
        for a, b in zip(pieces, pieces[1:]):
            if not (a.z_hi == b.z_lo and a.v_hi == b.v_lo):
                raise ValueError("consecutive pieces must share an endpoint")
        self.pieces = pieces

    def clipped(self, bound: float):
        out = [q for q in (p.clip(bound) for p in self.pieces) if q is not None]
        return out


# ---------------------------------------------------------------------------
# interval helpers

def _interval_dist(y: float, interval):
    if interval is None:
        return _INF
    lo, hi = interval
    if y < lo:
        return lo - y
    if y > hi:
        return y - hi
    return 0.0


class OuterFunction:
    """Base class for the convex outer functions of composite problems."""

    m: int
    separable: bool = False
    smooth: bool = False         # differentiable on the interior of its domain
    prox_available: bool = False

    # -- values -------------------------------------------------------------
    def value(self, z) -> float:
        raise NotImplementedError

    def value_batch(self, Z) -> np.ndarray:
        """Values at the rows of Z, shape (N, m).

        Must equal ``value`` row by row, bit for bit; overrides vectorize
        only where that holds. The default loops over ``value``.
        """
        return np.array([self.value(z) for z in self._check_batch(Z)], dtype=float)

    def _check(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.m,):
            raise ValueError(f"z has shape {z.shape}, expected ({self.m},)")
        return z

    def _check_batch(self, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.m:
            raise ValueError(f"Z has shape {Z.shape}, expected (N, {self.m})")
        return Z

    def grad(self, z) -> np.ndarray:
        raise CapabilityError(f"{type(self).__name__} has no gradient query")

    # -- subdifferentials ---------------------------------------------------
    def subdiff_1d(self, i: int, t: float, slack: float = 0.0):
        """Closed interval [v_lo, v_hi] of dh_i over [t-slack, t+slack]; None if empty.

        Read off ``graph_1d(i)``: the graph is monotone, so the pieces that
        meet the window are consecutive, the lower end lies on the first of
        them and the upper end on the last.
        """
        if not self.separable:
            raise CapabilityError(f"{type(self).__name__} is not coordinate-separable")
        lo_t, hi_t = t - slack, t + slack
        hit = [p for p in self.graph_1d(i).pieces if p.z_lo <= hi_t and lo_t <= p.z_hi]
        if not hit:
            return None
        first, last = hit[0], hit[-1]
        lo = (first.v_lo if first.is_flat or first.is_vertical
              else first.intercept + first.slope * max(lo_t, first.z_lo))
        hi = (last.v_hi if last.is_flat or last.is_vertical
              else last.intercept + last.slope * min(hi_t, last.z_hi))
        return (lo, hi)

    def subdiff_generators(self, z, slack: float = 0.0):
        """Generators whose hull is dh(z), for non-separable variants."""
        raise CapabilityError(f"{type(self).__name__} has no subdifferential generators")

    def subdiff_distance(self, y, z, slack: float = 0.0):
        """(dist_2(y, dh(z)), exact_flag); inf when dh(z) is empty."""
        y = np.asarray(y, dtype=float)
        z = self._check(z)
        if self.separable:
            total = 0.0
            for i in range(self.m):
                d = _interval_dist(float(y[i]), self.subdiff_1d(i, float(z[i]), slack))
                if math.isinf(d):
                    return _INF, True
                total += d * d
            return math.sqrt(total), True
        gens = self.subdiff_generators(z, slack)
        if gens is None or len(gens) == 0:
            return _INF, True
        return dist_to_hull(y, gens)

    # -- prox ---------------------------------------------------------------
    def prox(self, z, step: float) -> np.ndarray:
        """argmin_w h(w) + ||w - z||^2 / (2*step)."""
        raise CapabilityError(f"{type(self).__name__} has no prox")

    # -- graphs -------------------------------------------------------------
    def graph_1d(self, i: int) -> SubdifferentialGraph1D:
        raise CapabilityError(f"{type(self).__name__} has no 1-D subdifferential graph")

    def sample_domain_point(self, rng, scale: float = 2.0) -> np.ndarray:
        """A random point with finite value (used by convexity spot checks)."""
        return rng.normal(0.0, scale, size=self.m)


# ---------------------------------------------------------------------------
# separable catalogue members


class GoalOuter(OuterFunction):
    """h(z) = sum_i alpha_i * max{0, z_i - tau_i}."""

    separable = True
    prox_available = True

    def __init__(self, alpha, tau):
        self.alpha = finite_array(alpha, "alpha")
        self.tau = finite_array(tau, "tau")
        if self.alpha.shape != self.tau.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and tau must be vectors of equal length")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        self.m = self.alpha.size

    def value(self, z):
        z = self._check(z)
        return float(np.sum(self.alpha * np.maximum(0.0, z - self.tau)))

    def value_batch(self, Z):
        Z = self._check_batch(Z)
        return np.sum(self.alpha * np.maximum(0.0, Z - self.tau), axis=1)

    def prox(self, z, step):
        z = self._check(z)
        w = z.copy()
        upper = self.tau + step * self.alpha
        shift = z > upper
        w[shift] = z[shift] - step * self.alpha[shift]
        mid = (z >= self.tau) & ~shift
        w[mid] = self.tau[mid]
        return w

    def graph_1d(self, i):
        a, tau = float(self.alpha[i]), float(self.tau[i])
        if a == 0.0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 0.0)])
        return SubdifferentialGraph1D([
            GraphPiece.flat(-_INF, tau, 0.0),
            GraphPiece.vertical(tau, 0.0, a),
            GraphPiece.flat(tau, _INF, a),
        ])


class SoftplusGoalOuter(OuterFunction):
    """Smoothed goal: h(z) = sum_i alpha_i * softplus(theta, z_i - tau_i)."""

    separable = True
    smooth = True
    prox_available = True

    def __init__(self, alpha, tau, theta):
        self.alpha = finite_array(alpha, "alpha")
        self.tau = finite_array(tau, "tau")
        if self.alpha.shape != self.tau.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and tau must be vectors of equal length")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        self.theta = finite_theta(theta, positive=True)
        self.m = self.alpha.size

    def value(self, z):
        z = self._check(z)
        return float((self.alpha * _softplus(self.theta, z - self.tau)).sum())

    def value_batch(self, Z):
        Z = self._check_batch(Z)
        return np.sum(self.alpha * _softplus(self.theta, Z - self.tau), axis=1)

    def grad(self, z):
        z = self._check(z)
        return self.alpha * _softplus_grad(self.theta, z - self.tau)

    def subdiff_1d(self, i, t, slack=0.0):
        a, tau = self.alpha[i], self.tau[i]
        return (a * softplus_grad(self.theta, t - slack - tau),
                a * softplus_grad(self.theta, t + slack - tau))

    def _prox_1d(self, i, zi, step):
        # solve w - zi + step*alpha*sigmoid(theta*(w - tau)) = 0 (increasing in w)
        a, tau = float(self.alpha[i]), float(self.tau[i])
        if a == 0.0:
            return zi
        lo, hi = zi - step * a, zi
        w = 0.5 * (lo + hi)
        for _ in range(200):
            g = w - zi + step * a * softplus_grad(self.theta, w - tau)
            if g > 0:
                hi = w
            else:
                lo = w
            dg = 1.0 + step * a * self.theta * _sigmoid_deriv(self.theta, w - tau)
            w_new = w - g / dg
            if not (lo < w_new < hi):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) <= 1e-12 * (1.0 + abs(w)):
                return w_new
            w = w_new
        raise NonconvergenceError(
            f"softplus prox of component {i} did not converge in 200 iterations",
            best=w)

    def prox(self, z, step):
        z = self._check(z)
        return np.array([self._prox_1d(i, float(z[i]), step) for i in range(self.m)])


def _sigmoid_deriv(theta, gamma):
    s = softplus_grad(theta, gamma)
    return s * (1.0 - s)


class LinearOuter(OuterFunction):
    """h(z) = <p, z>."""

    separable = True
    smooth = True
    prox_available = True

    def __init__(self, p):
        self.p = finite_array(p, "p")
        if self.p.ndim != 1:
            raise ValueError("p must be a vector")
        self.m = self.p.size

    def value(self, z):
        return float(self.p @ self._check(z))

    def grad(self, z):
        self._check(z)
        return self.p.copy()

    def prox(self, z, step):
        return self._check(z) - step * self.p

    def graph_1d(self, i):
        return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, float(self.p[i]))])


class EqualityIndicatorOuter(OuterFunction):
    """h(z) = z_1 + indicator{z_2 = ... = z_m = 0}; or all-coordinate indicator."""

    separable = True
    prox_available = True

    def __init__(self, m, first_linear=True):
        self.m = as_count(m, "m", 2 if first_linear else 1)
        self.first_linear = bool(first_linear)

    def _constrained(self, i):
        return i >= 1 if self.first_linear else True

    def value(self, z):
        z = self._check(z)
        start = 1 if self.first_linear else 0
        if np.any(z[start:] != 0.0):
            return _INF
        return float(z[0]) if self.first_linear else 0.0

    def prox(self, z, step):
        z = self._check(z)
        w = np.zeros_like(z)
        if self.first_linear:
            w[0] = z[0] - step
        return w

    def graph_1d(self, i):
        if not self._constrained(i):
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 1.0)])
        return SubdifferentialGraph1D([GraphPiece.vertical(0.0, -_INF, _INF)])

    def sample_domain_point(self, rng, scale=2.0):
        z = np.zeros(self.m)
        if self.first_linear:
            z[0] = rng.normal(0.0, scale)
        return z


class InequalityIndicatorOuter(OuterFunction):
    """h(z) = z_1 + indicator{z_2 <= 0, ..., z_m <= 0}; or all-coordinate indicator."""

    separable = True
    prox_available = True

    def __init__(self, m, first_linear=True):
        self.m = as_count(m, "m", 2 if first_linear else 1)
        self.first_linear = bool(first_linear)

    def _constrained(self, i):
        return i >= 1 if self.first_linear else True

    def value(self, z):
        z = self._check(z)
        start = 1 if self.first_linear else 0
        if np.any(z[start:] > 0.0):
            return _INF
        return float(z[0]) if self.first_linear else 0.0

    def prox(self, z, step):
        z = self._check(z)
        w = np.minimum(z, 0.0)
        if self.first_linear:
            w[0] = z[0] - step
        return w

    def graph_1d(self, i):
        if not self._constrained(i):
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 1.0)])
        return SubdifferentialGraph1D([
            GraphPiece.flat(-_INF, 0.0, 0.0),
            GraphPiece.vertical(0.0, 0.0, _INF),
        ])

    def sample_domain_point(self, rng, scale=2.0):
        z = rng.normal(0.0, scale, size=self.m)
        start = 1 if self.first_linear else 0
        z[start:] = -np.abs(z[start:])
        return z


class AugLagrangianOuter(OuterFunction):
    """h(z) = z_1 + sum_{i>=2} (y_i z_i + theta/2 z_i^2)."""

    separable = True
    smooth = True
    prox_available = True

    def __init__(self, y_est, theta, m=None):
        self.y_est = finite_array(y_est, "y_est")
        if self.y_est.ndim != 1:
            raise ValueError("y_est must be a vector over coordinates 2..m")
        self.theta = finite_theta(theta)
        self.m = self.y_est.size + 1
        if m is not None and m != self.m:
            raise ValueError("m inconsistent with y_est length")

    def value(self, z):
        z = self._check(z)
        tail = z[1:]
        return float(z[0] + self.y_est @ tail + 0.5 * self.theta * tail @ tail)

    def grad(self, z):
        z = self._check(z)
        g = np.empty(self.m)
        g[0] = 1.0
        g[1:] = self.y_est + self.theta * z[1:]
        return g

    def prox(self, z, step):
        z = self._check(z)
        w = np.empty_like(z)
        w[0] = z[0] - step
        w[1:] = (z[1:] - step * self.y_est) / (1.0 + step * self.theta)
        return w

    def graph_1d(self, i):
        if i == 0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 1.0)])
        y = float(self.y_est[i - 1])
        if self.theta == 0.0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, y)])
        return SubdifferentialGraph1D([GraphPiece.sloped(-_INF, _INF, self.theta, y)])


class QuadPenaltyOuter(OuterFunction):
    """h(z) = z_1 + theta * sum_{i>=2} max{0, z_i}^2."""

    separable = True
    smooth = True           # C^1: derivative 2*theta*max{0, t}
    prox_available = True

    def __init__(self, theta, m):
        self.theta = finite_theta(theta)
        self.m = as_count(m, "m", 2)

    def value(self, z):
        z = self._check(z)
        tail = np.maximum(0.0, z[1:])
        return float(z[0] + self.theta * tail @ tail)

    def grad(self, z):
        z = self._check(z)
        g = np.empty(self.m)
        g[0] = 1.0
        g[1:] = 2.0 * self.theta * np.maximum(0.0, z[1:])
        return g

    def prox(self, z, step):
        z = self._check(z)
        w = z.copy()
        w[0] = z[0] - step
        pos = z[1:] > 0.0
        tail = w[1:]
        tail[pos] = z[1:][pos] / (1.0 + 2.0 * step * self.theta)
        return w

    def graph_1d(self, i):
        if i == 0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 1.0)])
        if self.theta == 0.0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 0.0)])
        return SubdifferentialGraph1D([
            GraphPiece.flat(-_INF, 0.0, 0.0),
            GraphPiece.sloped(0.0, _INF, 2.0 * self.theta, 0.0),
        ])


class ExactPenaltyOuter(OuterFunction):
    """h(z) = z_1 + theta * sum_{i>=2} |z_i|."""

    separable = True
    prox_available = True

    def __init__(self, theta, m):
        self.theta = finite_theta(theta)
        self.m = as_count(m, "m", 2)

    def value(self, z):
        z = self._check(z)
        return float(z[0] + self.theta * np.sum(np.abs(z[1:])))

    def prox(self, z, step):
        z = self._check(z)
        w = np.sign(z) * np.maximum(np.abs(z) - step * self.theta, 0.0)
        w[0] = z[0] - step
        return w

    def graph_1d(self, i):
        if i == 0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 1.0)])
        th = self.theta
        return SubdifferentialGraph1D([
            GraphPiece.flat(-_INF, 0.0, -th),
            GraphPiece.vertical(0.0, -th, th),
            GraphPiece.flat(0.0, _INF, th),
        ])


class LogBarrierOuter(OuterFunction):
    """h(z) = z_1 - (1/theta) sum_{i>=2} ln(-z_i) on {z_i < 0}, +inf elsewhere."""

    separable = True
    smooth = True
    prox_available = False   # barrier runs only on the smooth subproblem path

    #: strict-interior margin for domain membership
    DOM_MARGIN = 1e-12

    def __init__(self, theta, m):
        self.theta = finite_theta(theta, positive=True)
        self.m = as_count(m, "m", 2)

    def value(self, z):
        z = self._check(z)
        if np.any(z[1:] >= -self.DOM_MARGIN):
            return _INF
        return float(z[0] - np.sum(np.log(-z[1:])) / self.theta)

    def grad(self, z):
        z = self._check(z)
        if np.any(z[1:] >= -self.DOM_MARGIN):
            raise ValueError("gradient requested outside the barrier domain")
        g = np.empty(self.m)
        g[0] = 1.0
        g[1:] = -1.0 / (self.theta * z[1:])
        return g

    def subdiff_1d(self, i, t, slack=0.0):
        if i == 0:
            return (1.0, 1.0)
        if t - slack >= -self.DOM_MARGIN:
            return None
        hi_at = t + slack
        hi = _INF if hi_at >= -self.DOM_MARGIN else -1.0 / (self.theta * hi_at)
        return (-1.0 / (self.theta * (t - slack)), hi)

    def sample_domain_point(self, rng, scale=2.0):
        z = rng.normal(0.0, scale, size=self.m)
        z[1:] = -np.abs(z[1:]) - 0.05
        return z


class HomotopyOuter(OuterFunction):
    """h(z) = (1 - lam) * base(z_1..z_{m-1}) + lam * z_m."""

    prox_available = True

    def __init__(self, base: OuterFunction, lam: float):
        if not (0.0 <= lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        self.base = base
        self.lam = float(lam)
        self.m = base.m + 1
        self.separable = base.separable
        self.smooth = base.smooth

    def value(self, z):
        z = self._check(z)
        base_val = self.base.value(z[:-1])
        if math.isinf(base_val) and self.lam == 1.0:
            # 0 * inf treated as 0: the base term is switched off entirely
            return float(z[-1])
        return float((1.0 - self.lam) * base_val + self.lam * z[-1])

    def grad(self, z):
        z = self._check(z)
        g = np.empty(self.m)
        g[:-1] = (1.0 - self.lam) * self.base.grad(z[:-1])
        g[-1] = self.lam
        return g

    def subdiff_1d(self, i, t, slack=0.0):
        if i == self.m - 1:
            return (self.lam, self.lam)
        iv = self.base.subdiff_1d(i, t, slack)
        if iv is None:
            return None
        scale = 1.0 - self.lam
        return (scale * iv[0], scale * iv[1])

    def prox(self, z, step):
        z = self._check(z)
        w = np.empty_like(z)
        scaled = step * (1.0 - self.lam)
        w[:-1] = self.base.prox(z[:-1], scaled) if scaled > 0.0 else z[:-1]
        w[-1] = z[-1] - step * self.lam
        return w

    def graph_1d(self, i):
        if i == self.m - 1:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, self.lam)])
        scale = 1.0 - self.lam
        out = []
        for p in self.base.graph_1d(i).pieces:
            if p.is_vertical:
                out.append(GraphPiece.vertical(p.z_lo, scale * p.v_lo, scale * p.v_hi))
            elif p.is_flat:
                out.append(GraphPiece.flat(p.z_lo, p.z_hi, scale * p.v_lo))
            elif scale == 0.0:
                out.append(GraphPiece.flat(p.z_lo, p.z_hi, 0.0))
            else:
                out.append(GraphPiece.sloped(p.z_lo, p.z_hi, scale * p.slope,
                                             scale * p.intercept))
        return SubdifferentialGraph1D(out)

    def sample_domain_point(self, rng, scale=2.0):
        z = np.empty(self.m)
        z[:-1] = self.base.sample_domain_point(rng, scale)
        z[-1] = rng.normal(0.0, scale)
        return z


# ---------------------------------------------------------------------------
# non-separable catalogue members


class SupportOuter(OuterFunction):
    """h(z) = max over a finite point list A of <p, z>, with A in the simplex."""

    def __init__(self, points):
        self.points = np.atleast_2d(finite_array(points, "support points"))
        if self.points.shape[0] == 0:
            raise ValueError("empty point list")
        sums = self.points.sum(axis=1)
        if np.any(self.points < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("support points must lie in the probability simplex")
        self.m = self.points.shape[1]
        self.prox_available = True

    def value(self, z):
        return float(self.value_batch(self._check(z)[None])[0])

    def value_batch(self, Z):
        # a stacked product per row: a single points @ Z.T rounds differently
        return np.max((self.points @ self._check_batch(Z)[:, :, None])[:, :, 0], axis=1)

    def _active(self, z, slack):
        vals = self.points @ z
        top = float(np.max(vals))
        scale = slack * (1.0 + float(np.linalg.norm(z)))
        return self.points[vals >= top - scale]

    def subdiff_generators(self, z, slack=0.0):
        return self._active(self._check(z), slack)

    def prox(self, z, step):
        # Moreau: prox_{s*h}(z) = z - s * proj_{conv A}(z / s)
        z = self._check(z)
        proj, _, _ = project_onto_hull(z / step, self.points)
        return z - step * proj


class SquaredErrorOuter(OuterFunction):
    """h(z) = weight * ||target - z||_2^2."""

    separable = True
    smooth = True
    prox_available = True

    def __init__(self, target, weight=1.0):
        self.target = finite_array(target, "target")
        if self.target.ndim != 1:
            raise ValueError("target must be a vector")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError("weight must be a finite number >= 0")
        self.weight = float(weight)
        self.m = self.target.size

    def value(self, z):
        d = self._check(z) - self.target
        return float(self.weight * d @ d)

    def grad(self, z):
        return 2.0 * self.weight * (self._check(z) - self.target)

    def prox(self, z, step):
        z = self._check(z)
        c = 2.0 * step * self.weight
        return (z + c * self.target) / (1.0 + c)

    def graph_1d(self, i):
        c = 2.0 * self.weight
        if c == 0.0:
            return SubdifferentialGraph1D([GraphPiece.flat(-_INF, _INF, 0.0)])
        return SubdifferentialGraph1D(
            [GraphPiece.sloped(-_INF, _INF, c, -c * float(self.target[i]))])


class BlockSeparableOuter(OuterFunction):
    """Direct sum h(z) = sum_b h_b(z_b) over consecutive coordinate blocks."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        self.m = sum(b.m for b in self.blocks)
        self.separable = all(b.separable for b in self.blocks)
        self.smooth = all(b.smooth for b in self.blocks)
        self.prox_available = all(b.prox_available for b in self.blocks)
        self._offsets = np.cumsum([0] + [b.m for b in self.blocks])

    def _split(self, z):
        return [z[self._offsets[k]:self._offsets[k + 1]] for k in range(len(self.blocks))]

    def _locate(self, i):
        k = int(np.searchsorted(self._offsets, i, side="right") - 1)
        return self.blocks[k], i - self._offsets[k]

    def value(self, z):
        z = self._check(z)
        total = 0.0
        for b, zb in zip(self.blocks, self._split(z)):
            val = b.value(zb)
            if math.isinf(val):
                return _INF
            total += val
        return total

    def grad(self, z):
        z = self._check(z)
        return np.concatenate([b.grad(zb) for b, zb in zip(self.blocks, self._split(z))])

    def subdiff_1d(self, i, t, slack=0.0):
        b, j = self._locate(i)
        return b.subdiff_1d(j, t, slack)

    def subdiff_distance(self, y, z, slack=0.0):
        y = np.asarray(y, dtype=float)
        z = self._check(z)
        total, exact = 0.0, True
        for b, yb, zb in zip(self.blocks, self._split(y), self._split(z)):
            d, ex = b.subdiff_distance(yb, zb, slack)
            if math.isinf(d):
                return _INF, exact
            total += d * d
            exact = exact and ex
        return math.sqrt(total), exact

    def prox(self, z, step):
        z = self._check(z)
        return np.concatenate([b.prox(zb, step) for b, zb in zip(self.blocks, self._split(z))])

    def graph_1d(self, i):
        b, j = self._locate(i)
        return b.graph_1d(j)

    def sample_domain_point(self, rng, scale=2.0):
        return np.concatenate([b.sample_domain_point(rng, scale) for b in self.blocks])

