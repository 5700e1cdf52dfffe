"""Composite problems, multiplier triples, and stationarity residuals.

The stationarity condition for minimize i_X(x) + h(F(x)) is the generalized
equation 0 in S(x, y, z) with blocks F(x) - z, dh(z) - y, and
sum_i y_i con df_i(x) + N_X(x). ``stationarity_residual`` measures a
candidate triple's distance from satisfying it, block by block, under the
outer norm max{||u||_2, ||v||_2, ||w||_2}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ClosedSet, normal_cone_residual
from .inner import InnerMapping
from .outer import KINK_TOL, OuterFunction

#: cap on generalized-gradient vertex selections scanned for the w-block
_MAX_SELECTIONS = 512


@dataclass(frozen=True)
class CompositeProblem:
    """Actual or approximating problem: closed X, convex outer h, lLc inner F."""

    X: ClosedSet
    h: OuterFunction
    F: InnerMapping

    def __post_init__(self):
        if self.X.n != self.F.n:
            raise ValueError("X and F disagree on the input dimension")
        if self.h.m != self.F.m:
            raise ValueError("h and F disagree on the output dimension")

    @property
    def n(self):
        return self.F.n

    @property
    def m(self):
        return self.F.m


@dataclass(frozen=True)
class StationarityTriple:
    """Candidate primal point x with multiplier vectors y and z."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must have finite entries")
            object.__setattr__(self, name, v)

    def inner_norm(self):
        return max(float(np.linalg.norm(self.x)), float(np.linalg.norm(self.y)),
                   float(np.linalg.norm(self.z)))


@dataclass(frozen=True)
class ResidualTriple:
    """Blockwise distance of a triple from 0 in S(x,y,z).

    ``w_dist`` is the projection surrogate ||x - proj_X(x - dF(x)'y)||; it
    vanishes exactly when the normal-cone inclusion holds. Every set projects
    in closed form, so a flag is False only where its block is an upper bound:
    ``v_exact`` for a dh(z) of more generators than the exact hull scan takes,
    ``w_exact`` for a nonsmooth F (the best vertex selection stands for the hull).
    """

    u_norm: float
    v_dist: float
    w_dist: float
    v_exact: bool = True
    w_exact: bool = True

    @property
    def combined(self):
        return max(self.u_norm, self.v_dist, self.w_dist)


def eval_phi(problem: CompositeProblem, x) -> float:
    """phi(x) = i_X(x) + h(F(x)), extended-real (+inf, never -inf)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must have finite entries")
    if not problem.X.contains(x):
        return math.inf
    return problem.h.value(problem.F.eval(x))


def _selection_directions(report, y):
    """Candidate d = sum_i y_i g_i over vertex selections of active gradients."""
    options = report.active_grads
    counts = [len(o) for o in options]
    if all(c == 1 for c in counts):
        # the one selection is the matrix itself
        return [report.matrix.T @ y], True
    total = 1
    for c in counts:
        total *= c
        if total > _MAX_SELECTIONS:
            break
    if total > _MAX_SELECTIONS:
        # too many combinations: single selection, flagged by the caller
        return [report.matrix.T @ y], False
    dirs = []
    for combo in itertools.product(*options):
        dirs.append(sum(yi * gi for yi, gi in zip(y, combo)))
    return dirs, True


def stationarity_residual(problem: CompositeProblem,
                          triple: StationarityTriple) -> ResidualTriple:
    """Blockwise residual of 0 in S(x, y, z) at the given triple.

    u: ||F(x) - z||_2 exactly. v: dist(y, dh(z)), exact for separable and small
    finite-max outer functions. w: the normal-cone projection surrogate at
    d = dF(x)'y; for nonsmooth F the minimum over vertex selections of the
    active-gradient hull is reported and flagged as an upper bound.

    The v block widens subdifferential intervals by ``KINK_TOL`` around kinks
    (see outer module).
    """
    x, y, z = triple.x, triple.y, triple.z
    if x.shape != (problem.n,) or y.shape != (problem.m,) or z.shape != (problem.m,):
        raise ValueError("triple dimensions do not match the problem")
    u_norm = float(np.linalg.norm(problem.F.eval(x) - z))
    v_dist, v_exact = problem.h.subdiff_distance(y, z, KINK_TOL)
    report = problem.F.jacobian(x)
    dirs, exhaustive = _selection_directions(report, y)
    w_dist = min(normal_cone_residual(problem.X, x, -d) for d in dirs)
    w_exact = report.smooth and exhaustive and len(dirs) == 1
    return ResidualTriple(u_norm, v_dist, w_dist, v_exact, w_exact)
