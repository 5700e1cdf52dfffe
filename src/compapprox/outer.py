"""Catalogue of convex outer functions h and their approximating families.

Each variant supports value queries (extended-real: +inf outside the domain,
never -inf), and, where the structure allows, coordinate subdifferential
intervals, proximal maps, and piecewise-linear descriptions of the
per-coordinate subdifferential graph.

A separable variant with a piecewise-linear graph sets one kink table in its
constructor, and that table is the one definition of dh. It is five
length-m arrays (k, a_left, b_left, a_right, b_right): dh_i(t) is
a_left + b_left*t for t < k_i, a_right + b_right*t for t > k_i, and the
segment between the two at t = k_i. A branch outside dom h_i has
a = -inf (left) or +inf (right) and b = 0. The base class reads everything
off the table: ``subdiff_intervals`` for all coordinates at once,
``subdiff_1d``, the certificate distance ``subdiff_distance``, the graphs
``graph_1d`` and ``prox``, the resolvent (I + step*dh)^{-1} of the same dh.
The curved variants (softplus goal, log barrier) give ``subdiff_intervals``
in closed form instead and have no graph; only the softplus goal has a prox
of its own. The homotopy and block-separable wrappers build their tables
from their parts' tables, so a wrapper over a curved part is not separable
and has no prox.

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
    """gph dh_i as an ordered, connected, monotone list of pieces.

    Built by ``OuterFunction.graph_1d`` from a kink table that was checked
    once, when it was set.
    """

    def __init__(self, pieces):
        self.pieces = pieces

    def clipped(self, bound: float):
        out = [q for q in (p.clip(bound) for p in self.pieces) if q is not None]
        return out


# ---------------------------------------------------------------------------
# kink tables


def _line(a, b, t):
    """a + b*t, with a flat line (b == 0) giving a itself: no -0.0 + 0.0."""
    return np.where(b == 0.0, a, a + b * t)


def _piece(z_lo, z_hi, a, b):
    return GraphPiece.flat(z_lo, z_hi, a) if b == 0.0 else GraphPiece.sloped(z_lo, z_hi, b, a)


class OuterFunction:
    """Base class for the convex outer functions of composite problems."""

    m: int
    separable: bool = False
    smooth: bool = False         # differentiable on the interior of its domain
    prox_available: bool = False
    #: rows (k, a_left, b_left, a_right, b_right) of a piecewise-linear separable h
    _table = None
    #: rows (left(k), right(k)): the two branches' values at the kink
    _at_kink = None

    def _set_table(self, k, a_left, b_left, a_right, b_right, linear_head=False):
        """Set the kink table, the one definition of dh (see the module docstring).

        Each row is a scalar or a length-m array. With ``linear_head``,
        coordinate 1 is the linear term z_1 instead: the line v = 1. Checked
        once here: slopes >= 0, a_left < +inf, a_right > -inf and
        left(k) <= right(k), so every graph is monotone. A table gives a prox.
        """
        table = np.empty((5, self.m))
        for row, c in zip(table, (k, a_left, b_left, a_right, b_right)):
            row[:] = c
        if linear_head:
            table[:, 0] = (0.0, 1.0, 0.0, 1.0, 0.0)
        k, a_left, b_left, a_right, b_right = table
        left, right = _line(a_left, b_left, k), _line(a_right, b_right, k)
        if not ((table[2::2] >= 0.0).all() and np.isfinite(k).all() and (left <= right).all()
                and (a_left < _INF).all() and (a_right > -_INF).all()):
            raise ValueError(f"{type(self).__name__}: subdifferential table is not monotone")
        self._table = table
        self._at_kink = np.array([left, right])
        self.separable = True
        self.prox_available = True

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
    def subdiff_intervals(self, z, slack: float = 0.0):
        """(lo, hi): dh_i over [z_i - slack, z_i + slack] has hull [lo_i, hi_i].

        Where that window misses dom h_i, lo_i = +inf or hi_i = -inf; a NaN
        z_i gives NaN ends. Read off the kink table: the lower end lies on the
        left branch iff the window starts at or left of the kink, the upper
        end on the right branch iff it ends at or right of it.
        """
        if self._table is None:
            raise CapabilityError(f"{type(self).__name__} is not coordinate-separable")
        table = self._table
        z = self._check(z)
        t = z + np.array([[-slack], [slack]])        # rows: the window's two ends
        left = t <= table[0]
        left[1] = t[1] < table[0]
        # rows 1:3 are the left branch's (a, b), rows 3:5 the right branch's
        a, b = np.where(left[:, None], table[1:3], table[3:5]).swapaxes(0, 1)
        lo, hi = _line(a, b, t)
        nan = np.isnan(z)
        if nan.any():
            lo, hi = np.where(nan, math.nan, lo), np.where(nan, math.nan, hi)
        return lo, hi

    def subdiff_1d(self, i: int, t: float, slack: float = 0.0):
        """Closed interval [v_lo, v_hi] of dh_i over [t-slack, t+slack]; None if empty."""
        lo, hi = self.subdiff_intervals(np.full(self.m, float(t)), slack)
        lo, hi = float(lo[i]), float(hi[i])
        return (lo, hi) if lo < _INF and hi > -_INF else None

    def subdiff_generators(self, z, slack: float = 0.0):
        """Generators whose hull is dh(z), for non-separable variants."""
        raise CapabilityError(f"{type(self).__name__} has no subdifferential generators")

    def subdiff_distance(self, y, z, slack: float = 0.0):
        """(dist_2(y, dh(z)), exact_flag); inf when dh(z) is empty or y or z has a NaN.

        Separable: the interval distances are squared and added in coordinate
        order, as a loop over the coordinates would.
        """
        if self.separable:
            lo, hi = self.subdiff_intervals(z, slack)
            y = np.asarray(y, dtype=float)
            d = np.maximum(np.maximum(lo - y, y - hi), 0.0)
            total = float(np.cumsum(d * d)[-1]) if self.m else 0.0
            return (_INF if math.isnan(total) else math.sqrt(total)), True
        gens = self.subdiff_generators(self._check(z), slack)
        if gens is None or len(gens) == 0:
            return _INF, True
        return dist_to_hull(y, gens)

    # -- prox ---------------------------------------------------------------
    def prox(self, z, step: float) -> np.ndarray:
        """argmin_w h(w) + ||w - z||^2 / (2*step), read off the kink table.

        The resolvent (I + step*dh)^{-1}: w_i = k_i where z_i lies in
        k_i + step*[left(k_i), right(k_i)], else the point
        (z_i - step*a)/(1 + step*b) of the branch (a, b) z_i falls to. A NaN
        z_i takes the left branch's formula, so it gives NaN.
        """
        if self._table is None:
            raise CapabilityError(f"{type(self).__name__} has no prox")
        table, k = self._table, self._table[0]
        z = self._check(z)
        lo, hi = k + step * self._at_kink
        above = z > hi
        sa, sb = step * np.where(above, table[3:5], table[1:3])
        return np.where((z >= lo) & ~above, k, (z - sa) / (1.0 + sb))

    # -- graphs -------------------------------------------------------------
    def graph_1d(self, i: int) -> SubdifferentialGraph1D:
        """gph dh_i, read off the kink table.

        Equal branches make one piece; otherwise a vertical piece at k joins
        them where left(k) < right(k).
        """
        if self._table is None:
            raise CapabilityError(f"{type(self).__name__} has no 1-D subdifferential graph")
        k, a_left, b_left, a_right, b_right = self._table[:, i].tolist()
        if a_left == a_right and b_left == b_right:
            return SubdifferentialGraph1D([_piece(-_INF, _INF, a_left, b_left)])
        v_left, v_right = self._at_kink[:, i].tolist()
        pieces = []
        if a_left > -_INF:
            pieces.append(_piece(-_INF, k, a_left, b_left))
        if v_left < v_right:
            pieces.append(GraphPiece.vertical(k, v_left, v_right))
        if a_right < _INF:
            pieces.append(_piece(k, _INF, a_right, b_right))
        return SubdifferentialGraph1D(pieces)

    def sample_domain_point(self, rng, scale: float = 2.0) -> np.ndarray:
        """A random point with finite value (used by convexity spot checks)."""
        return rng.normal(0.0, scale, size=self.m)


# ---------------------------------------------------------------------------
# separable catalogue members


class GoalOuter(OuterFunction):
    """h(z) = sum_i alpha_i * max{0, z_i - tau_i}."""

    def __init__(self, alpha, tau):
        self.alpha = finite_array(alpha, "alpha")
        self.tau = finite_array(tau, "tau")
        if self.alpha.shape != self.tau.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and tau must be vectors of equal length")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        self.m = self.alpha.size
        self._set_table(self.tau, 0.0, 0.0, self.alpha, 0.0)

    def value(self, z):
        z = self._check(z)
        return float(np.sum(self.alpha * np.maximum(0.0, z - self.tau)))

    def value_batch(self, Z):
        Z = self._check_batch(Z)
        return np.sum(self.alpha * np.maximum(0.0, Z - self.tau), axis=1)


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

    def subdiff_intervals(self, z, slack=0.0):
        z = self._check(z)
        return (self.alpha * _softplus_grad(self.theta, z - slack - self.tau),
                self.alpha * _softplus_grad(self.theta, z + slack - self.tau))

    def _prox_1d(self, i, zi, step):
        # solve w - zi + step*alpha*sigmoid(theta*(w - tau)) = 0 (increasing in w)
        a, tau = float(self.alpha[i]), float(self.tau[i])
        if a == 0.0:
            return zi
        lo, hi = zi - step * a, zi
        w = 0.5 * (lo + hi)
        dx = dx_before = hi - lo        # the last two steps taken
        for _ in range(200):
            g = w - zi + step * a * softplus_grad(self.theta, w - tau)
            if g > 0:
                hi = w
            else:
                lo = w
            dg = 1.0 + step * a * self.theta * _sigmoid_deriv(self.theta, w - tau)
            w_new = w - g / dg
            # bisect where Newton leaves the bracket or fails to halve the step
            # before last: across a steep sigmoid it can bounce between the ends
            if not (lo < w_new < hi) or abs(g / dg) > 0.5 * abs(dx_before):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) <= 1e-12 * (1.0 + abs(w)):
                return w_new
            dx_before, dx = dx, w_new - w
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

    smooth = True

    def __init__(self, p):
        self.p = finite_array(p, "p")
        if self.p.ndim != 1:
            raise ValueError("p must be a vector")
        self.m = self.p.size
        self._set_table(0.0, self.p, 0.0, self.p, 0.0)

    def value(self, z):
        return float(self.p @ self._check(z))

    def grad(self, z):
        self._check(z)
        return self.p.copy()


class EqualityIndicatorOuter(OuterFunction):
    """h(z) = z_1 + indicator{z_2 = ... = z_m = 0}; or all-coordinate indicator."""

    def __init__(self, m, first_linear=True):
        self.m = as_count(m, "m", 2 if first_linear else 1)
        self.first_linear = bool(first_linear)
        self._set_table(0.0, -_INF, 0.0, _INF, 0.0, linear_head=self.first_linear)

    def value(self, z):
        z = self._check(z)
        start = 1 if self.first_linear else 0
        if np.any(z[start:] != 0.0):
            return _INF
        return float(z[0]) if self.first_linear else 0.0

    def sample_domain_point(self, rng, scale=2.0):
        z = np.zeros(self.m)
        if self.first_linear:
            z[0] = rng.normal(0.0, scale)
        return z


class InequalityIndicatorOuter(OuterFunction):
    """h(z) = z_1 + indicator{z_2 <= 0, ..., z_m <= 0}; or all-coordinate indicator."""

    def __init__(self, m, first_linear=True):
        self.m = as_count(m, "m", 2 if first_linear else 1)
        self.first_linear = bool(first_linear)
        self._set_table(0.0, 0.0, 0.0, _INF, 0.0, linear_head=self.first_linear)

    def value(self, z):
        z = self._check(z)
        start = 1 if self.first_linear else 0
        if np.any(z[start:] > 0.0):
            return _INF
        return float(z[0]) if self.first_linear else 0.0

    def value_batch(self, Z):
        Z = self._check_batch(Z)
        start = 1 if self.first_linear else 0
        return np.where((Z[:, start:] > 0.0).any(axis=1), _INF,
                        Z[:, 0] if self.first_linear else 0.0)

    def sample_domain_point(self, rng, scale=2.0):
        z = rng.normal(0.0, scale, size=self.m)
        start = 1 if self.first_linear else 0
        z[start:] = -np.abs(z[start:])
        return z


class AugLagrangianOuter(OuterFunction):
    """h(z) = z_1 + sum_{i>=2} (y_i z_i + theta/2 z_i^2)."""

    smooth = True

    def __init__(self, y_est, theta, m=None):
        self.y_est = finite_array(y_est, "y_est")
        if self.y_est.ndim != 1:
            raise ValueError("y_est must be a vector over coordinates 2..m")
        self.theta = finite_theta(theta)
        self.m = self.y_est.size + 1
        if m is not None and m != self.m:
            raise ValueError("m inconsistent with y_est length")
        y = np.append(1.0, self.y_est)
        self._set_table(0.0, y, self.theta, y, self.theta, linear_head=True)

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


class QuadPenaltyOuter(OuterFunction):
    """h(z) = z_1 + theta * sum_{i>=2} max{0, z_i}^2."""

    smooth = True           # C^1: derivative 2*theta*max{0, t}

    def __init__(self, theta, m):
        self.theta = finite_theta(theta)
        self.m = as_count(m, "m", 2)
        self._set_table(0.0, 0.0, 0.0, 0.0, 2.0 * self.theta, linear_head=True)

    def value(self, z):
        z = self._check(z)
        tail = np.maximum(0.0, z[1:])
        return float(z[0] + self.theta * tail @ tail)

    def value_batch(self, Z):
        # value's (theta * tail) @ tail as one stacked product per row
        Z = self._check_batch(Z)
        T = np.maximum(0.0, Z[:, 1:])
        return Z[:, 0] + ((self.theta * T)[:, None, :] @ T[:, :, None])[:, 0, 0]

    def grad(self, z):
        z = self._check(z)
        g = np.empty(self.m)
        g[0] = 1.0
        g[1:] = 2.0 * self.theta * np.maximum(0.0, z[1:])
        return g


class ExactPenaltyOuter(OuterFunction):
    """h(z) = z_1 + theta * sum_{i>=2} |z_i|."""

    def __init__(self, theta, m):
        self.theta = finite_theta(theta)
        self.m = as_count(m, "m", 2)
        self._set_table(0.0, -self.theta, 0.0, self.theta, 0.0, linear_head=True)

    def value(self, z):
        z = self._check(z)
        return float(z[0] + self.theta * np.sum(np.abs(z[1:])))


class LogBarrierOuter(OuterFunction):
    """h(z) = z_1 - (1/theta) sum_{i>=2} ln(-z_i) on {z_i < 0}, +inf elsewhere."""

    separable = True
    smooth = True

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

    def subdiff_intervals(self, z, slack=0.0):
        # -1/(theta*t) on t < -DOM_MARGIN, the derivative of -ln(-t)/theta;
        # a window end at or right of -DOM_MARGIN is +inf (empty at the lower end)
        z = self._check(z)
        edge = -self.DOM_MARGIN
        lo, hi = (np.where(t < edge, -1.0 / (self.theta * np.minimum(t, edge)), _INF)
                  for t in (z - slack, z + slack))
        lo[0] = hi[0] = math.nan if math.isnan(z[0]) else 1.0
        return lo, hi

    def sample_domain_point(self, rng, scale=2.0):
        z = rng.normal(0.0, scale, size=self.m)
        z[1:] = -np.abs(z[1:]) - 0.05
        return z


class HomotopyOuter(OuterFunction):
    """h(z) = (1 - lam) * base(z_1..z_{m-1}) + lam * z_m."""

    def __init__(self, base: OuterFunction, lam: float):
        if not (0.0 <= lam < 1.0):
            raise ValueError("lam must be in [0, 1)")
        self.base = base
        self.lam = float(lam)
        self.m = base.m + 1
        self.smooth = base.smooth
        if base._table is not None:
            # the base's branches scaled by 1 - lam, then the line v = lam
            s = 1.0 - self.lam
            self._set_table(*np.column_stack([base._table * [[1.0], [s], [s], [s], [s]],
                                              [0.0, self.lam, 0.0, self.lam, 0.0]]))

    def value(self, z):
        z = self._check(z)
        return float((1.0 - self.lam) * self.base.value(z[:-1]) + self.lam * z[-1])

    def grad(self, z):
        z = self._check(z)
        g = np.empty(self.m)
        g[:-1] = (1.0 - self.lam) * self.base.grad(z[:-1])
        g[-1] = self.lam
        return g

    def sample_domain_point(self, rng, scale=2.0):
        z = np.empty(self.m)
        z[:-1] = self.base.sample_domain_point(rng, scale)
        z[-1] = rng.normal(0.0, scale)
        return z


# ---------------------------------------------------------------------------
# non-separable catalogue members


class SupportOuter(OuterFunction):
    """h(z) = max over a finite point list A of <p, z>, with A in the simplex."""

    prox_available = True

    def __init__(self, points):
        self.points = np.atleast_2d(finite_array(points, "support points"))
        if self.points.shape[0] == 0:
            raise ValueError("empty point list")
        sums = self.points.sum(axis=1)
        if np.any(self.points < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("support points must lie in the probability simplex")
        self.m = self.points.shape[1]

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

    smooth = True

    def __init__(self, target, weight=1.0):
        self.target = finite_array(target, "target")
        if self.target.ndim != 1:
            raise ValueError("target must be a vector")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError("weight must be a finite number >= 0")
        self.weight = float(weight)
        self.m = self.target.size
        c = 2.0 * self.weight
        a = -c * self.target if c else 0.0
        self._set_table(0.0, a, c, a, c)

    def value(self, z):
        d = self._check(z) - self.target
        return float(self.weight * d @ d)

    def grad(self, z):
        return 2.0 * self.weight * (self._check(z) - self.target)


class BlockSeparableOuter(OuterFunction):
    """Direct sum h(z) = sum_b h_b(z_b) over consecutive coordinate blocks."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        if not self.blocks:
            raise ValueError("need at least one block")
        self.m = sum(b.m for b in self.blocks)
        self.smooth = all(b.smooth for b in self.blocks)
        self._offsets = np.cumsum([0] + [b.m for b in self.blocks])
        if all(b._table is not None for b in self.blocks):
            self._set_table(*np.hstack([b._table for b in self.blocks]))

    def _split(self, z):
        return [z[self._offsets[k]:self._offsets[k + 1]] for k in range(len(self.blocks))]

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

    def sample_domain_point(self, rng, scale=2.0):
        return np.concatenate([b.sample_domain_point(rng, scale) for b in self.blocks])

