"""Closed convex sets with exact projections, and small convex-hull primitives.

Every set here is nonempty, closed and convex; projections are Euclidean.
The module-wide geometric tolerance is ``GEOM_TOL`` (1e-10): membership tests
and normal-cone preconditions both use it so that downstream error accounting
has a single constant to track.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GEOM_TOL = 1e-10

_MAX_HULL_POINTS_EXACT = 10


def _as_vector(x, n, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    return x


def _as_rows(P, n):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != n:
        raise ValueError(f"P has shape {P.shape}, expected (N, {n})")
    return P


def finite_array(a, name) -> np.ndarray:
    """a as a float array; ValueError if an entry is NaN or infinite."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    return a


def finite_theta(theta, positive=False) -> float:
    """theta as a float; ValueError unless finite and >= 0 (> 0 if positive)."""
    theta = float(theta)
    if not (math.isfinite(theta) and (theta > 0.0 if positive else theta >= 0.0)):
        raise ValueError(f"theta must be a finite number {'>' if positive else '>='} 0")
    return theta


def row_norms(P) -> np.ndarray:
    """np.linalg.norm of each vector along the last axis of P, bit for bit.

    One dot product per row, the BLAS call the 1-D norm makes;
    np.linalg.norm(P, axis=-1) sums in another order and can differ in the
    last bit.
    """
    P = np.asarray(P, dtype=float)
    return np.sqrt((P[..., None, :] @ P[..., :, None])[..., 0, 0])


def as_count(v, name, least=1) -> int:
    """v as an int; ValueError unless it is an integer >= least (bools are not)."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(v)


class ClosedSet:
    """Base class: a nonempty closed convex subset of R^n."""

    n: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        x = _as_vector(x, self.n)
        return float(np.linalg.norm(x - self.project(x))) <= tol

    def contains_batch(self, P) -> np.ndarray:
        """``contains`` at every row of P, shape (N, n), as a boolean mask.

        Selects exactly the rows ``contains`` accepts; the default loops.
        """
        P = _as_rows(P, self.n)
        return np.array([self.contains(p) for p in P], dtype=bool).reshape(len(P))

    def is_bounded(self) -> bool:
        raise NotImplementedError

    def bounds(self):
        """(lower, upper) if the set is a box, possibly with infinite ends; else None."""
        return None


class WholeSpace(ClosedSet):
    def __init__(self, n: int):
        self.n = as_count(n, "dimension")

    def project(self, x):
        return _as_vector(x, self.n)

    def is_bounded(self):
        return False

    def bounds(self):
        return np.full(self.n, -math.inf), np.full(self.n, math.inf)

    def __repr__(self):
        return f"WholeSpace({self.n})"


class Box(ClosedSet):
    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper must be 1-D vectors of equal length")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower > upper in some coordinate")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ValueError("empty box: a lower bound is +inf or an upper bound is -inf")
        self.n = self.lower.size

    def project(self, x):
        # np.clip's result bit for bit, without its Python-level wrapper
        return np.minimum(np.maximum(_as_vector(x, self.n), self.lower), self.upper)

    def contains_batch(self, P):
        P = _as_rows(P, self.n)
        return row_norms(P - np.clip(P, self.lower, self.upper)) <= GEOM_TOL

    def is_bounded(self):
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def bounds(self):
        return self.lower, self.upper

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class Ball(ClosedSet):
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError("center must be a vector of finite numbers")
        if not (np.isfinite(radius) and radius >= 0):
            raise ValueError("radius must be a finite number >= 0")
        self.radius = float(radius)
        self.n = self.center.size

    def project(self, x):
        x = _as_vector(x, self.n)
        d = x - self.center
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return x
        return self.center + d * (self.radius / nd)

    def is_bounded(self):
        return True

    def __repr__(self):
        return f"Ball({self.center.tolist()}, {self.radius})"


def normal_cone_residual(closed_set: ClosedSet, x, w) -> float:
    """||x - proj(x + w)||_2; zero iff w lies in the normal cone at x.

    Uses the projection identity for convex sets (w in N_X(x) iff
    x = proj(x + w)). Requires x to be in the set up to GEOM_TOL.
    """
    x = _as_vector(x, closed_set.n)
    w = _as_vector(w, closed_set.n, "w")
    if float(np.linalg.norm(x - closed_set.project(x))) > GEOM_TOL:
        raise ValueError("x is not in the set (within 1e-10 of its projection)")
    return float(np.linalg.norm(x - closed_set.project(x + w)))


def project_onto_hull(q, points):
    """Exact Euclidean projection of q onto conv(points) for small point lists.

    Enumerates the faces of the hull (all affinely-independent vertex subsets,
    which by Caratheodory contain the face carrying the projection) and keeps
    the best feasible barycentric candidate. Exact up to lstsq roundoff for up
    to _MAX_HULL_POINTS_EXACT points; beyond that only subsets of size <= 3
    are scanned and the result is an upper bound on the true distance.

    Returns (projection, distance, exact_flag).
    """
    q = np.asarray(q, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = pts.shape
    if k == 0:
        raise ValueError("empty point list")
    exact = k <= _MAX_HULL_POINTS_EXACT
    max_size = min(k, d + 1) if exact else min(k, 3)
    best_dist = np.inf
    best_point = pts[0]
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(k), size):
            P = pts[list(subset)]
            if size == 1:
                cand = P[0]
            else:
                M = (P[1:] - P[0]).T  # d x (size-1)
                t, *_ = np.linalg.lstsq(M, q - P[0], rcond=None)
                lam = np.concatenate([[1.0 - t.sum()], t])
                if np.any(lam < -1e-9):
                    continue
                cand = P[0] + M @ t
            dist = float(np.linalg.norm(q - cand))
            if dist < best_dist:
                best_dist = dist
                best_point = cand
    return best_point, best_dist, exact


def dist_to_hull(q, points):
    """Distance from q to conv(points); see project_onto_hull."""
    _, dist, exact = project_onto_hull(q, points)
    return dist, exact
