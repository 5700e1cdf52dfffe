"""Inner mappings F and their approximations.

Variants: affine maps, arrays of quadratics, min-of-quadratics with optional
log-sum-exp smoothing, sample-average maps with closed-form means, and
feed-forward network mappings including the lifted formulation that turns a
network inversion into a composite problem with equality structure.

``jacobian`` returns a selection matrix plus an activity report; nonsmooth
variants list, per component, every active generalized gradient so callers can
form the convex hull.

``eval_batch`` and ``jacobian_batch`` evaluate at the rows of a point array.
Each primitive has one implementation: the affine, sample-average, network
and min-smooth mappings define the batch calls, and their one-point
``eval``/``jacobian`` are the one-row case (min-smooth keeps its own
``jacobian``, whose report carries the active pieces and weights). The
quadratic-array and lifted-network mappings define the one-point calls, and
the batch calls loop over them. Batch code keeps one matrix-vector product per
point (a stacked ``A @ P[:, :, None]``), so a row does not depend on the other
rows of its batch: a single matrix product ``P @ A.T`` rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .geometry import Box, ClosedSet, WholeSpace, _as_rows, as_count, finite_array
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

    # A subclass defines one side of each pair: eval or eval_batch, and
    # jacobian or jacobian_batch; the other side defaults to it.

    def eval(self, x) -> np.ndarray:
        """F(x), the one-row case of ``eval_batch``."""
        return self.eval_batch(self._check(x)[None])[0]

    def jacobian(self, x) -> JacobianReport:
        """The one-row case of ``jacobian_batch``, one generator per component.

        Mappings whose components can have several active generalized
        gradients define their own ``jacobian``.
        """
        J = self.jacobian_batch(self._check(x)[None])[0][0]
        return JacobianReport(J.copy(), self.smooth, [[row] for row in J], [])

    def eval_batch(self, P) -> np.ndarray:
        """Values at the rows of P, shape (N, m), for P of shape (N, n).

        The default loops over ``eval``.
        """
        P = self._check_batch(P)
        return np.array([self.eval(p) for p in P], dtype=float).reshape(len(P), self.m)

    def jacobian_batch(self, P):
        """(J, multi) at the rows of P, for P of shape (N, n).

        J, shape (N, m, n), stacks the selection matrices ``jacobian(p).matrix``
        bit for bit; multi, shape (N, m), flags the components with more than
        one active generalized gradient (the points where a caller needs the
        full ``jacobian`` report). The default loops over ``jacobian``.
        """
        P = self._check_batch(P)
        reps = [self.jacobian(p) for p in P]
        J = np.array([r.matrix for r in reps], dtype=float).reshape(len(P), self.m, self.n)
        multi = np.array([[len(a) > 1 for a in r.active_grads] for r in reps],
                         dtype=bool).reshape(len(P), self.m)
        return J, multi

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        return x

    def _check_batch(self, P):
        return _as_rows(P, self.n)


def _constant_jacobian(J, count):
    """jacobian_batch of a mapping whose Jacobian is J everywhere (read-only view)."""
    return (np.broadcast_to(J, (count,) + J.shape),
            np.zeros((count, J.shape[0]), dtype=bool))


def _matvec(A, P):
    """A @ p for every row p of P, one matrix-vector product per row: (N, m)."""
    return (A @ P[:, :, None])[:, :, 0]


class AffineMapping(InnerMapping):
    """F(x) = A x + b."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(finite_array(A, "A"))
        self.b = finite_array(b, "b")
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b dimensions disagree")
        self.m, self.n = self.A.shape

    def eval_batch(self, P):
        return _matvec(self.A, self._check_batch(P)) + self.b

    def jacobian_batch(self, P):
        return _constant_jacobian(self.A, len(self._check_batch(P)))


class QuadraticArrayMapping(InnerMapping):
    """Component functions f_i(x) = x'Q_i x / 2 + q_i'x + c_i."""

    def __init__(self, components):
        self.components = []
        n = None
        for piece in components:
            Q, q, c = _quadratic(*piece)
            if not np.allclose(Q, Q.T, atol=1e-12):
                raise ValueError("Q must be symmetric")
            if n is None:
                n = q.size
            elif n != q.size:
                raise ValueError("components have inconsistent dimension")
            self.components.append((Q, q, c))
        self.n = n
        self.m = len(self.components)

    def eval(self, x):
        x = self._check(x)
        return np.array([0.5 * x @ Q @ x + q @ x + c for Q, q, c in self.components])

    def jacobian(self, x):
        x = self._check(x)
        J = np.vstack([Q @ x + q for Q, q, _ in self.components])
        return JacobianReport(J, True, [[row] for row in J], [])


def _quadratic(Q, q, c):
    """A quadratic piece (Q, q, c) as a square float matrix, vector and float."""
    Q = np.atleast_2d(finite_array(Q, "Q"))
    q = finite_array(q, "q")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if Q.shape[0] != Q.shape[1] or Q.shape[0] != q.size:
        raise ValueError("component dimensions disagree")
    return Q, q, c


def _quad_value_grad(piece, x):
    Q, q, c = piece
    return 0.5 * x @ Q @ x + q @ x + c, Q @ x + q


def _quad_values_grads(piece, P):
    """_quad_value_grad at every row of P: values (N,) and gradients (N, n)."""
    Q, q, c = piece
    X = P[:, :, None]
    values = (((0.5 * P)[:, None, :] @ Q) @ X + q[None, None, :] @ X)[:, 0, 0] + c
    return values, _matvec(Q, P) + q


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
            for piece in plist:
                Q, q, c = _quadratic(*piece)
                if n is None:
                    n = q.size
                if q.shape != (n,):
                    raise ValueError("piece dimensions disagree")
                rows.append((Q, q, c))
            if not rows:
                raise ValueError("each component needs at least one piece")
            self.pieces.append(rows)
        if theta is not None and not (math.isfinite(theta) and theta > 0):
            raise ValueError("theta must be a finite number > 0")
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

    def _pieces_batch(self, P):
        """Per component: piece values (N, K), gradients (N, K, n), row minima (N,)."""
        for plist in self.pieces:
            vg = [_quad_values_grads(p, P) for p in plist]
            vals = np.stack([v for v, _ in vg], axis=1)
            yield vals, np.stack([g for _, g in vg], axis=1), np.min(vals, axis=1)

    def eval_batch(self, P):
        P = self._check_batch(P)
        out = np.empty((len(P), self.m))
        for i, (vals, _, vmin) in enumerate(self._pieces_batch(P)):
            if self.theta is None:
                out[:, i] = vmin
            else:
                sums = np.sum(np.exp(-self.theta * (vals - vmin[:, None])), axis=1)
                # math.log, not np.log, whose last bit can differ
                logs = np.array([math.log(t) for t in sums])
                out[:, i] = vmin - logs / self.theta
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

    def jacobian_batch(self, P):
        P = self._check_batch(P)
        N = len(P)
        J = np.empty((N, self.m, self.n))
        multi = np.zeros((N, self.m), dtype=bool)
        for i, (vals, grads, vmin) in enumerate(self._pieces_batch(P)):
            if self.theta is None:
                active = vals <= (vmin + ACTIVITY_TOL)[:, None]
                J[:, i] = grads[np.arange(N), np.argmax(active, axis=1)]
                multi[:, i] = np.count_nonzero(active, axis=1) > 1
            else:
                w = np.exp(-self.theta * (vals - vmin[:, None]))
                w /= w.sum(axis=1, keepdims=True)
                J[:, i] = sum(w[:, k, None] * grads[:, k] for k in range(vals.shape[1]))
        return J, multi


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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("uniform xi bounds must be finite")
            self.xis = rng.uniform(lo, hi, size=self.count)
            self._mean_xi = 0.5 * (lo + hi)
        else:
            raise ValueError(f"unknown xi distribution {self.dist[0]!r}")
        self._xi_bar = float(np.mean(self.xis))

    def eval_batch(self, P):
        P = self._check_batch(P)
        return self.base.eval_batch(P) + self._xi_bar * self.noise.eval_batch(P)

    def jacobian_batch(self, P):
        return _constant_jacobian(self.base.A + self._xi_bar * self.noise.A,
                                  len(self._check_batch(P)))

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
            if theta is None or not (math.isfinite(theta) and theta > 0):
                raise ValueError("softplus activation needs a finite theta > 0")
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
        A = np.atleast_2d(finite_array(A, "network weights"))
        b = finite_array(b, "network biases")
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

    def eval_batch(self, P):
        P = self._check_batch(P)
        outs = []
        for layers in self.networks:
            H = P[:, :, None]                    # (N, width, 1): one column per point
            for A, b in layers:
                H = self.activation.value(A @ H + b[:, None])
            outs.append(H[:, :, 0])
        return np.concatenate(outs, axis=1)

    def jacobian_batch(self, P):
        P = self._check_batch(P)
        rows = []
        for layers in self.networks:
            H = P[:, :, None]
            J = np.eye(self.n)
            for A, b in layers:
                pre = A @ H + b[:, None]
                # a stacked A @ J: one matrix product per point
                J = self.activation.deriv(pre) * (A @ J)
                H = self.activation.value(pre)
            rows.append(J)
        J = np.concatenate(rows, axis=1)
        return J, np.zeros(J.shape[:2], dtype=bool)


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
