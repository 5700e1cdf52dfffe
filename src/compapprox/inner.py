"""Inner mappings F and their approximations.

Variants: affine maps, arrays of quadratics, min-of-quadratics with optional
log-sum-exp smoothing, sample-average maps with closed-form means, and
feed-forward network mappings including the lifted formulation that turns a
network inversion into a composite problem with equality structure.

``jacobian`` returns a selection matrix plus an activity report; nonsmooth
variants list, per component, every active generalized gradient so callers can
form the convex hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .geometry import Box, ClosedSet, WholeSpace, as_count
from .outer import (BlockSeparableOuter, EqualityIndicatorOuter, OuterFunction,
                    softplus, softplus_grad)
from .rng import stream

#: a piece k counts as active when g_k(x) <= min_j g_j(x) + ACTIVITY_TOL
ACTIVITY_TOL = 1e-9

#: |pre-activation| below this makes a relu neuron report the full [0,1] interval
RELU_KINK_TOL = 1e-14


@dataclass
class JacobianReport:
    """One generalized-gradient selection plus the active alternatives."""

    matrix: np.ndarray                     # (m, n)
    smooth: bool
    #: per component, the list of active generalized gradients (hull generators);
    #: singleton lists for smooth components
    active_grads: list = field(default_factory=list)
    #: per component, smoothed-min weights mu (empty when not applicable)
    weights: list = field(default_factory=list)


class InnerMapping:
    n: int
    m: int
    smooth: bool = True

    def eval(self, x) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x) -> JacobianReport:
        raise NotImplementedError

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        return x


class AffineMapping(InnerMapping):
    """F(x) = A x + b."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b dimensions disagree")
        self.m, self.n = self.A.shape

    def eval(self, x):
        return self.A @ self._check(x) + self.b

    def jacobian(self, x):
        self._check(x)
        return JacobianReport(self.A.copy(), True,
                              [[row] for row in self.A], [])


class QuadraticArrayMapping(InnerMapping):
    """Component functions f_i(x) = x'Q_i x / 2 + q_i'x + c_i."""

    def __init__(self, components):
        self.components = []
        n = None
        for Q, q, c in components:
            Q = np.atleast_2d(np.asarray(Q, dtype=float))
            q = np.asarray(q, dtype=float)
            if Q.shape[0] != Q.shape[1] or Q.shape[0] != q.size:
                raise ValueError("component dimensions disagree")
            if not np.allclose(Q, Q.T, atol=1e-12):
                raise ValueError("Q must be symmetric")
            if n is None:
                n = q.size
            elif n != q.size:
                raise ValueError("components have inconsistent dimension")
            self.components.append((Q, q, float(c)))
        self.n = n
        self.m = len(self.components)

    def eval(self, x):
        x = self._check(x)
        return np.array([0.5 * x @ Q @ x + q @ x + c for Q, q, c in self.components])

    def jacobian(self, x):
        x = self._check(x)
        J = np.vstack([Q @ x + q for Q, q, _ in self.components])
        return JacobianReport(J, True, [[row] for row in J], [])


def _quad_value_grad(piece, x):
    Q, q, c = piece
    return 0.5 * x @ Q @ x + q @ x + c, Q @ x + q


class MinSmoothMapping(InnerMapping):
    """f_i(x) = min_k g_ik(x) over smooth quadratic pieces, optionally smoothed.

    With smoothing parameter theta, f_i^nu(x) = -(1/theta) ln(sum_k
    exp(-theta g_ik(x))), computed by factoring out the minimum piece value so
    that large theta cannot overflow. The smoothed value sits within
    [f_i - ln(s_i)/theta, f_i].
    """

    def __init__(self, components, theta=None):
        # components: per output, a list of quadratic pieces (Q, q, c)
        self.pieces = []
        n = None
        for plist in components:
            rows = []
            for Q, q, c in plist:
                Q = np.atleast_2d(np.asarray(Q, dtype=float))
                q = np.asarray(q, dtype=float)
                if n is None:
                    n = q.size
                if Q.shape != (n, n) or q.shape != (n,):
                    raise ValueError("piece dimensions disagree")
                rows.append((Q, q, float(c)))
            if not rows:
                raise ValueError("each component needs at least one piece")
            self.pieces.append(rows)
        if theta is not None and theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = None if theta is None else float(theta)
        self.n = n
        self.m = len(self.pieces)
        self.smooth = self.theta is not None

    def with_theta(self, theta):
        out = MinSmoothMapping.__new__(MinSmoothMapping)
        out.pieces = self.pieces
        out.theta = None if theta is None else float(theta)
        out.n, out.m = self.n, self.m
        out.smooth = out.theta is not None
        return out

    def piece_counts(self):
        return [len(p) for p in self.pieces]

    def eval(self, x):
        x = self._check(x)
        out = np.empty(self.m)
        for i, plist in enumerate(self.pieces):
            vals = np.array([_quad_value_grad(p, x)[0] for p in plist])
            vmin = float(np.min(vals))
            if self.theta is None:
                out[i] = vmin
            else:
                out[i] = vmin - math.log(np.sum(np.exp(-self.theta * (vals - vmin)))) / self.theta
        return out

    def jacobian(self, x):
        x = self._check(x)
        J = np.zeros((self.m, self.n))
        active, weights = [], []
        for i, plist in enumerate(self.pieces):
            vg = [_quad_value_grad(p, x) for p in plist]
            vals = np.array([v for v, _ in vg])
            vmin = float(np.min(vals))
            if self.theta is None:
                act = [g for (v, g) in vg if v <= vmin + ACTIVITY_TOL]
                J[i] = act[0]
                active.append(act)
                weights.append(np.array([]))
            else:
                w = np.exp(-self.theta * (vals - vmin))
                w /= w.sum()
                J[i] = sum(wk * g for wk, (_, g) in zip(w, vg))
                # the smoothed component is smooth: its only generalized
                # gradient is the mixture itself
                active.append([J[i].copy()])
                weights.append(w)
        return JacobianReport(J, self.theta is not None, active, weights)


class SampleAverageMapping(InnerMapping):
    """Sample average of g(xi, x) = (A0 x + b0) + xi * (A1 x + b1).

    The sample is drawn once at construction from a named Philox stream, so
    evaluation is deterministic given (count, seed). The affine-in-xi form
    keeps the exact expectation available through ``mean_mapping``.
    """

    def __init__(self, A0, b0, A1, b1, dist=("two_point",), count=1, seed=0):
        self.base = AffineMapping(A0, b0)
        self.noise = AffineMapping(A1, b1)
        if (self.base.m, self.base.n) != (self.noise.m, self.noise.n):
            raise ValueError("base and noise parts must share dimensions")
        self.dist = tuple(dist)
        self.count = as_count(count, "count")
        self.seed = int(seed)
        self.n, self.m = self.base.n, self.base.m
        rng = stream(self.seed, "sample-average", str(self.count))
        if self.dist[0] == "two_point":
            self.xis = np.where(rng.random(self.count) < 0.5, -1.0, 1.0)
            self._mean_xi = 0.0
        elif self.dist[0] == "uniform":
            lo, hi = float(self.dist[1]), float(self.dist[2])
            self.xis = rng.uniform(lo, hi, size=self.count)
            self._mean_xi = 0.5 * (lo + hi)
        else:
            raise ValueError(f"unknown xi distribution {self.dist[0]!r}")
        self._xi_bar = float(np.mean(self.xis))

    def eval(self, x):
        x = self._check(x)
        return self.base.eval(x) + self._xi_bar * self.noise.eval(x)

    def jacobian(self, x):
        self._check(x)
        J = self.base.A + self._xi_bar * self.noise.A
        return JacobianReport(J, True, [[row] for row in J], [])

    def mean_mapping(self) -> AffineMapping:
        """The exact expectation, available since g is affine in xi."""
        return AffineMapping(self.base.A + self._mean_xi * self.noise.A,
                             self.base.b + self._mean_xi * self.noise.b)


def resample(F: SampleAverageMapping, new_count: int, seed: int) -> SampleAverageMapping:
    if not isinstance(F, SampleAverageMapping):
        raise CapabilityError("resample applies to sample-average mappings only")
    return SampleAverageMapping(F.base.A, F.base.b, F.noise.A, F.noise.b,
                                dist=F.dist, count=new_count, seed=seed)


# ---------------------------------------------------------------------------
# feed-forward networks


class Activation:
    """Scalar activation applied componentwise; relu or softplus(theta)."""

    def __init__(self, kind, theta=None):
        if kind not in ("relu", "softplus"):
            raise ValueError(f"unknown activation {kind!r}")
        if kind == "softplus":
            if theta is None or theta <= 0:
                raise ValueError("softplus activation needs theta > 0")
            theta = float(theta)
        self.kind = kind
        self.theta = theta

    @property
    def smooth(self):
        return self.kind == "softplus"

    def value(self, gamma):
        if self.kind == "relu":
            return np.maximum(0.0, gamma)
        return softplus(self.theta, gamma)

    def deriv(self, gamma):
        """One derivative selection (relu uses 0 at the kink)."""
        if self.kind == "relu":
            return np.where(np.asarray(gamma, dtype=float) > 0.0, 1.0, 0.0)
        return softplus_grad(self.theta, gamma)

    def deriv_options(self, gamma: float):
        """All cluster-point derivative values at a scalar pre-activation."""
        if self.kind == "softplus":
            return [float(softplus_grad(self.theta, gamma))]
        if abs(gamma) <= RELU_KINK_TOL:
            return [0.0, 1.0]
        return [1.0 if gamma > 0.0 else 0.0]

    def gap_bound(self):
        """sup over gamma of |activation - relu|; zero for relu itself."""
        return 0.0 if self.kind == "relu" else math.log(2.0) / self.theta


def _validate_layers(weights, biases):
    if len(weights) != len(biases) or not weights:
        raise ValueError("weights/biases must be equal-length nonempty lists")
    dims = [np.atleast_2d(np.asarray(weights[0], dtype=float)).shape[1]]
    out = []
    for A, b in zip(weights, biases):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float)
        if A.shape[0] != b.size:
            raise ValueError("layer weight/bias dimensions disagree")
        if A.shape[1] != dims[-1]:
            raise ValueError("layer dimensions do not chain")
        dims.append(A.shape[0])
        out.append((A, b))
    return out, dims


class NetworkForwardMapping(InnerMapping):
    """Direct mapping x0 -> concatenated outputs of s feed-forward networks."""

    def __init__(self, networks, activation: Activation):
        # networks: list of (weights, biases) pairs, weights/biases lists per layer
        self.networks = []
        self.activation = activation
        n0 = None
        nq = None
        for weights, biases in networks:
            layers, dims = _validate_layers(weights, biases)
            if n0 is None:
                n0, nq = dims[0], dims[-1]
            elif dims[0] != n0 or dims[-1] != nq:
                raise ValueError("all networks must share input/output widths")
            self.networks.append(layers)
        self.n = n0
        self.m = len(self.networks) * nq
        self.nq = nq
        self.smooth = activation.smooth

    def eval(self, x):
        x = self._check(x)
        outs = []
        for layers in self.networks:
            h = x
            for A, b in layers:
                h = self.activation.value(A @ h + b)
            outs.append(h)
        return np.concatenate(outs)

    def jacobian(self, x):
        x = self._check(x)
        rows = []
        for layers in self.networks:
            h = x
            J = np.eye(self.n)
            for A, b in layers:
                pre = A @ h + b
                d = self.activation.deriv(pre)
                J = d[:, None] * (A @ J)
                h = self.activation.value(pre)
            rows.append(J)
        J = np.vstack(rows)
        return JacobianReport(J, self.activation.smooth, [[row] for row in J], [])


class NetworkLiftMapping(InnerMapping):
    """The lifted mapping F(x) = (x_{1,1,q}, ..., x_{1,s,q}, H_1(x), ..., H_s(x)).

    x = (x0, x1) where x1 collects per-network, per-layer outputs; each H row is
    activation(affine of the previous layer's variables) minus the variable for
    that neuron. Rows are affine except through the scalar activation, so relu
    activity stays per-row.
    """

    def __init__(self, networks, activation: Activation, n0=None):
        self.networks = []
        self.activation = activation
        dims0 = None
        for weights, biases in networks:
            layers, dims = _validate_layers(weights, biases)
            if dims0 is None:
                dims0 = dims
            elif dims != dims0:
                raise ValueError("lifted form requires identical architectures")
            self.networks.append(layers)
        self.dims = dims0           # [n0, n1, ..., nq]
        self.s = len(self.networks)
        self.q = len(self.dims) - 1
        self.r = int(sum(self.dims[1:]))
        self.n0 = self.dims[0]
        self.nq = self.dims[-1]
        self.n = self.n0 + self.s * self.r
        self.m = self.s * self.nq + self.s * self.r
        self.smooth = activation.smooth
        # offsets of x_{1,i,k} inside x1, layout (network, layer)
        self._offs = {}
        off = self.n0
        for i in range(self.s):
            for k in range(1, self.q + 1):
                self._offs[(i, k)] = off
                off += self.dims[k]

    def block(self, x, i, k):
        """x_{1,i,k} for layer k >= 1, or x0 for k = 0."""
        x = np.asarray(x, dtype=float)
        if k == 0:
            return x[:self.n0]
        off = self._offs[(i, k)]
        return x[off:off + self.dims[k]]

    def lift_point(self, x0) -> np.ndarray:
        """Forward pass: the lifted point at which every H row vanishes exactly."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n0,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.n0},)")
        parts = [x0]
        for layers in self.networks:
            h = x0
            for A, b in layers:
                h = self.activation.value(A @ h + b)
                parts.append(h)
        return np.concatenate(parts)

    def eval(self, x):
        x = self._check(x)
        head = [self.block(x, i, self.q) for i in range(self.s)]
        rows = []
        for i, layers in enumerate(self.networks):
            for k, (A, b) in enumerate(layers, start=1):
                prev = self.block(x, i, k - 1)
                rows.append(self.activation.value(A @ prev + b) - self.block(x, i, k))
        return np.concatenate(head + rows)

    def jacobian(self, x):
        x = self._check(x)
        J = np.zeros((self.m, self.n))
        active = []
        row = 0
        for i in range(self.s):
            off = self._offs[(i, self.q)]
            for j in range(self.nq):
                J[row, off + j] = 1.0
                active.append([J[row].copy()])
                row += 1
        for i, layers in enumerate(self.networks):
            for k, (A, b) in enumerate(layers, start=1):
                prev = self.block(x, i, k - 1)
                pre = A @ prev + b
                prev_off = 0 if k == 1 else self._offs[(i, k - 1)]
                own_off = self._offs[(i, k)]
                for j in range(self.dims[k]):
                    opts = self.activation.deriv_options(float(pre[j]))
                    variants = []
                    for d in opts:
                        g = np.zeros(self.n)
                        g[prev_off:prev_off + self.dims[k - 1]] = d * A[j]
                        g[own_off + j] = -1.0
                        variants.append(g)
                    J[row] = variants[0]
                    active.append(variants)
                    row += 1
        smooth = self.activation.smooth or all(len(a) == 1 for a in active)
        return JacobianReport(J, smooth, active, [])


@dataclass
class NetworkLift:
    """Lifted composite problem plus its feasibility constructor."""

    problem: "object"                 # CompositeProblem (kept untyped: no cycle)
    mapping: NetworkLiftMapping
    outer: OuterFunction

    def lift_point(self, x0):
        return self.mapping.lift_point(x0)


def build_network_lift(weights, biases, activation: Activation,
                       target_outer: OuterFunction, base_set: ClosedSet = None,
                       networks=None) -> NetworkLift:
    """Assemble the lifted composite problem for a network inversion.

    ``weights``/``biases`` describe a single network; pass ``networks`` (list
    of (weights, biases)) for several. ``target_outer`` is the convex function
    of the concatenated network outputs; the lifted outer function is its
    direct sum with the equality indicator on the trailing s*r coordinates.
    ``base_set`` constrains x0 (Box or WholeSpace; default whole space).
    """
    from .model import CompositeProblem  # local import: model depends on inner

    nets = networks if networks is not None else [(weights, biases)]
    mapping = NetworkLiftMapping(nets, activation)
    if target_outer.m != mapping.s * mapping.nq:
        raise ValueError("target outer dimension must be s * n_q")
    h = BlockSeparableOuter([
        target_outer,
        EqualityIndicatorOuter(mapping.s * mapping.r, first_linear=False),
    ])
    if base_set is None:
        base_set = WholeSpace(mapping.n0)
    if isinstance(base_set, WholeSpace):
        X = WholeSpace(mapping.n)
    elif isinstance(base_set, Box):
        pad = mapping.n - mapping.n0
        X = Box(np.concatenate([base_set.lower, np.full(pad, -np.inf)]),
                np.concatenate([base_set.upper, np.full(pad, np.inf)]))
    else:
        raise CapabilityError("lifted base set must be a box or the whole space")
    problem = CompositeProblem(X, h, mapping)
    return NetworkLift(problem, mapping, h)
