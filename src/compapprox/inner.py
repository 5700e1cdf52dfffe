"""Inner mappings F and their approximations.

Variants: affine maps, arrays of quadratics, min-of-quadratics with optional
log-sum-exp smoothing, sample-average maps with closed-form means, and
feed-forward network mappings including the lifted formulation that turns a
network inversion into a composite problem with equality structure.

``jacobian`` returns a selection matrix plus an activity report; nonsmooth
variants list, per component, every active generalized gradient so callers can
form the convex hull.

``eval_batch`` and ``jacobian_batch`` evaluate at the rows of a point array;
``linearize_batch`` returns both, by default by calling the two. Every mapping
defines the two batch calls (the network runs one forward pass, whose Jacobian
kernel serves both; only ``linearize_batch`` applies the last layer's
activation), and ``eval``/``jacobian`` are the base class's one-row case. So
``InnerMapping.jacobian`` alone builds a ``JacobianReport``; a component the
batch's ``multi`` flags (a tie of the exact min, a relu kink of the lift) lists
the mapping's ``_alternatives``. The quadratic kernels take a component's pieces
stacked, in one product per row and piece.
Batch code keeps one matrix-vector product per point (a stacked
``A @ P[:, :, None]``), so a row does not depend on the other rows of its
batch: a single matrix product ``P @ A.T`` rounds differently.

The network kernels flush tiny values to zero. After each layer, every
nonzero entry of the layer output and of the Jacobian below ``_FLUSH`` =
``tiny / eps`` (about 1.0e-292) in magnitude becomes ``0.0``; exact zeros keep
their sign. A saturated softplus neuron has derivative ``tiny`` and a value of
order ``exp(-theta |gamma|) / theta``, so at large theta these entries are
subnormal, and the next layer's stacked product on subnormal operands takes
the slow path of x86 floating point (tens of times slower). Entries just above
``tiny`` still make subnormal products, hence the floor ``tiny / eps``. A
flushed entry changes no sum with a term above about 1e-276, and no weight,
bias, output or Jacobian row of these networks is that small. The flush is
elementwise, so a row still does not depend on its batch.

Each layer of a network pass takes its activation from one routine,
``Activation.apply``, which computes e = exp(-theta |gamma|) once and derives
the value, the derivative or both from it. numpy's SIMD exp leaves its fast
path below about -708 (tens of times slower there), and at large theta most
saturated neurons' exponents a = -theta |gamma| lie there. So entries with
a < ``_CUT`` = -709 get e = 0.0 without calling exp (``exp(a * keep) * keep``
with keep = a >= _CUT). This is exact: below ln(tiny) (about -708.396) e is
subnormal or 0, so the derivative is ``tiny`` (gamma < 0) or ``1 - epsneg``
either way, the value is gamma for gamma >= 0, and for gamma < 0 it is a
subnormal or 0 that the flush turns into +0.0. Entries in [_CUT, ln(tiny))
still go through exp. So the derivatives equal ``Activation.deriv`` bit for
bit, and the flushed values equal the flushed ``Activation.value``.

The passes work in one module-level scratch pool, ``_POOL``: the Jacobian
buffers and their flush scratch, and the activation's pre-activations (which
its values overwrite), e, derivatives and masks. It grows to the largest batch and is never
shrunk, so a warm pass allocates nothing the size of a layer; only copies of
the results reach callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .geometry import WholeSpace, _as_rows, as_count, finite_array, finite_theta
from .outer import (BlockSeparableOuter, EqualityIndicatorOuter, OuterFunction,
                    _BELOW_ONE, _TINY, softplus, softplus_grad)
from .rng import stream

#: a piece k counts as active when g_k(x) <= min_j g_j(x) + ACTIVITY_TOL
ACTIVITY_TOL = 1e-9

#: |pre-activation| below this makes a relu neuron report the full [0,1] interval
RELU_KINK_TOL = 1e-14

#: nonzero network values and Jacobian entries below this magnitude are flushed
#: to zero, keeping subnormal operands out of the next layer's matrix products
_FLUSH = np.finfo(float).tiny / np.finfo(float).eps


@dataclass
class JacobianReport:
    """One generalized-gradient selection plus the active alternatives."""

    matrix: np.ndarray                     # (m, n)
    #: True iff every component has one active generalized gradient
    smooth: bool
    #: per component, the list of active generalized gradients (hull generators);
    #: singleton lists for smooth components
    active_grads: list = field(default_factory=list)


class InnerMapping:
    n: int
    m: int

    # A subclass defines eval_batch, jacobian_batch and, if the latter can flag
    # a component, _alternatives(x, i): every active generalized gradient of
    # component i at x, the batch's selection first. The rest derives from them.

    def eval(self, x) -> np.ndarray:
        """F(x), the one-row case of ``eval_batch``."""
        return self.eval_batch(self._check(x)[None])[0]

    def jacobian(self, x) -> JacobianReport:
        """The one-row case of ``jacobian_batch``, with every active generalized
        gradient of the components it flags (``_alternatives``)."""
        x = self._check(x)
        J, multi = self.jacobian_batch(x[None])
        active = [[row] for row in J[0]]
        for i in np.flatnonzero(multi[0]).tolist():
            active[i] = self._alternatives(x, i)
        return JacobianReport(J[0].copy(), not multi.any(), active)

    def eval_batch(self, P) -> np.ndarray:
        """Values at the rows of P, shape (N, m), for P of shape (N, n)."""
        raise NotImplementedError(f"{type(self).__name__} defines no eval_batch")

    def jacobian_batch(self, P):
        """(J, multi) at the rows of P, for P of shape (N, n).

        J, shape (N, m, n), stacks one generalized-gradient selection per point;
        multi, shape (N, m), flags the components with more than one active
        generalized gradient (the points where a caller needs the full
        ``jacobian`` report).
        """
        raise NotImplementedError(f"{type(self).__name__} defines no jacobian_batch")

    def linearize_batch(self, P):
        """(values, J, multi) at the rows of P: ``eval_batch``, then ``jacobian_batch``."""
        return (self.eval_batch(P), *self.jacobian_batch(P))

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
        pieces = [_quadratic(*piece) for piece in components]
        if len({q.size for _, q, _ in pieces}) != 1:
            raise ValueError("components must be nonempty and of one dimension")
        self.quadratics = _stacked(pieces)
        self.m, self.n = self.quadratics[1].shape

    def eval_batch(self, P):
        return _quad_values(self.quadratics, self._check_batch(P))

    def jacobian_batch(self, P):
        P = self._check_batch(P)
        return _quad_grads(self.quadratics, P), np.zeros((len(P), self.m), dtype=bool)


def _quadratic(Q, q, c):
    """A quadratic piece (Q, q, c) as a symmetric float matrix, vector and float.

    The gradient Qx + q of x'Qx/2 + q'x + c holds only for a symmetric Q.
    """
    Q = np.atleast_2d(finite_array(Q, "Q"))
    q = finite_array(q, "q")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if q.ndim != 1 or Q.shape != (q.size, q.size):
        raise ValueError("component dimensions disagree")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    return Q, q, c


def _stacked(pieces):
    """Validated pieces (Q_k, q_k, c_k), at least one, as arrays (K, n, n), (K, n), (K,)."""
    Q, q, c = zip(*pieces)
    return np.stack(Q), np.stack(q), np.array(c)


def _quad_values(quadratics, P):
    """x'Q_k x/2 + q_k'x + c_k of the stacked pieces k at every row of P: (N, K).

    Per row and piece the products of the one-point form, so the same rounding.
    """
    Q, q, c = quadratics
    X = P[:, None, :, None]
    return (((0.5 * P)[:, None, None, :] @ Q) @ X + q[:, None, :] @ X)[:, :, 0, 0] + c


def _quad_grads(quadratics, P):
    """Gradients Q_k x + q_k of the stacked pieces k at every row of P: (N, K, n)."""
    Q, q, _ = quadratics
    return (Q @ P[:, None, :, None])[..., 0] + q


class MinSmoothMapping(InnerMapping):
    """f_i(x) = min_k g_ik(x) over smooth quadratic pieces, optionally smoothed.

    With smoothing parameter theta, f_i^nu(x) = -(1/theta) ln(sum_k
    exp(-theta g_ik(x))), computed by factoring out the minimum piece value so
    that large theta cannot overflow. The smoothed value sits within
    [f_i - ln(s_i)/theta, f_i].
    """

    def __init__(self, components, theta=None):
        # components: per output, a list of quadratic pieces (Q, q, c)
        self.pieces = [[_quadratic(*piece) for piece in plist] for plist in components]
        if not self.pieces or not all(self.pieces):
            raise ValueError("min_smooth needs components, each with at least one piece")
        if len({q.size for plist in self.pieces for _, q, _ in plist}) != 1:
            raise ValueError("piece dimensions disagree")
        self.quadratics = [_stacked(plist) for plist in self.pieces]
        self.theta = None if theta is None else finite_theta(theta, positive=True)
        self.m, self.n = len(self.pieces), self.pieces[0][0][1].size

    def with_theta(self, theta):
        return MinSmoothMapping(self.pieces, theta)

    def piece_counts(self):
        return [len(p) for p in self.pieces]

    def eval_batch(self, P):
        P = self._check_batch(P)
        out = np.empty((len(P), self.m))
        for i, quadratics in enumerate(self.quadratics):
            vals = _quad_values(quadratics, P)
            vmin = np.min(vals, axis=1)
            if self.theta is None:
                out[:, i] = vmin
            else:
                sums = np.sum(np.exp(-self.theta * (vals - vmin[:, None])), axis=1)
                # math.log, not np.log, whose last bit can differ
                logs = np.array([math.log(t) for t in sums])
                out[:, i] = vmin - logs / self.theta
        return out

    def jacobian_batch(self, P):
        P = self._check_batch(P)
        N = len(P)
        J = np.empty((N, self.m, self.n))
        multi = np.zeros((N, self.m), dtype=bool)
        for i, quadratics in enumerate(self.quadratics):
            vals, grads = _quad_values(quadratics, P), _quad_grads(quadratics, P)
            vmin = np.min(vals, axis=1)
            if self.theta is None:
                active = vals <= (vmin + ACTIVITY_TOL)[:, None]
                J[:, i] = grads[np.arange(N), np.argmax(active, axis=1)]
                multi[:, i] = np.count_nonzero(active, axis=1) > 1
            else:
                w = np.exp(-self.theta * (vals - vmin[:, None]))
                w /= w.sum(axis=1, keepdims=True)
                J[:, i] = sum(w[:, k, None] * grads[:, k] for k in range(vals.shape[1]))
        return J, multi

    def _alternatives(self, x, i):
        """The gradients of the exact min's active pieces, in piece order."""
        P = x[None]
        vals = _quad_values(self.quadratics[i], P)[0]
        return list(_quad_grads(self.quadratics[i], P)[0, vals <= np.min(vals) + ACTIVITY_TOL])


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
        # a bare string would split into characters
        self.dist = tuple(dist) if isinstance(dist, (list, tuple)) else (dist,)
        self.count = as_count(count, "count")
        self.seed = int(seed)
        self.n, self.m = self.base.n, self.base.m
        rng = stream(self.seed, "sample-average", str(self.count))
        if self.dist == ("two_point",):
            self.xis = np.where(rng.random(self.count) < 0.5, -1.0, 1.0)
            self._mean_xi = 0.0
        elif len(self.dist) == 3 and self.dist[0] == "uniform":
            lo, hi = float(self.dist[1]), float(self.dist[2])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("uniform xi bounds must be finite")
            self.xis = rng.uniform(lo, hi, size=self.count)
            self._mean_xi = 0.5 * (lo + hi)
        else:
            raise ValueError(f'dist must be ["two_point"] or ["uniform", lo, hi], not {dist!r}')
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


#: a softplus entry whose exponent -theta |gamma| lies below this never reaches
#: exp: its exponential is below tiny, and e = 0.0 stands in for it
_CUT = -709.0


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
        # apply's operands as 0-d arrays: numpy converts a Python float operand
        # on every call, which a one-point pass pays per layer
        self._operands = [np.array(c) for c in (
            (0.0, 1.0, _CUT, _TINY, _BELOW_ONE, -theta, theta) if kind == "softplus" else (0.0,))]

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

    def apply(self, g, e, keep, d=None, scratch=None, value=True):
        """The network passes' activation, in place: derivatives into d when d is
        given, then values over g when ``value``.

        g, e, d and scratch are float arrays of one shape, keep a bool array of
        it; e, keep and scratch are overwritten. Softplus takes e =
        exp(-theta |g|) once and derives both from it. Entries whose exponent
        lies below ``_CUT`` never reach exp, whose slow path starts near -708:
        e = 0.0 stands in for their exponential, which is below tiny. So d is
        ``deriv(g)`` bit for bit, and g becomes ``value(g)`` bit for bit after
        ``_flush``. NaN propagates; an infinite g gives NaN.
        """
        if self.kind == "relu":
            if d is not None:
                np.greater(g, self._operands[0], out=d)
            if value:
                np.maximum(self._operands[0], g, out=g)
            return
        zero, one, cut, tiny, below_one, neg_theta, theta = self._operands
        np.multiply(np.abs(g, out=e), neg_theta, out=e)
        np.greater_equal(e, cut, out=keep)
        np.multiply(np.exp(np.multiply(e, keep, out=e), out=e), keep, out=e)
        if d is not None:
            # np.where(g >= 0, 1.0, e) / (1.0 + e), clamped into (0, 1)
            np.maximum(e, np.greater_equal(g, zero, out=keep), out=d)
            np.divide(d, np.add(e, one, out=scratch), out=d)
            np.minimum(np.maximum(d, tiny, out=d), below_one, out=d)
        if value:
            # np.maximum(0.0, g) + np.log1p(e) / theta
            np.divide(np.log1p(e, out=e), theta, out=e)
            np.add(np.maximum(zero, g, out=g), e, out=g)

    def deriv_options(self, gamma: float):
        """All cluster-point derivative values at a scalar pre-activation."""
        if self.kind == "softplus":
            return [float(softplus_grad(self.theta, gamma))]
        if abs(gamma) <= RELU_KINK_TOL:
            return [0.0, 1.0]
        return [1.0 if gamma > 0.0 else 0.0]


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


def _flush(a, scratch=None, mask=None):
    """Set the nonzero entries of a below _FLUSH in magnitude to 0.0, in place.

    Given ``scratch`` (float) and ``mask`` (bool) shaped like a, it allocates
    nothing; without them numpy allocates both.
    """
    mask = np.less(np.abs(a, out=scratch), _FLUSH, out=mask)
    a[np.logical_and(mask, a, out=mask)] = 0.0    # a as a truth value: nonzero
    return a


#: the network passes' scratch, one float buffer, empty at import. Jacobian
#: part: two ping-pong Jacobian buffers, a flush scratch and a bool mask of
#: N * width * n entries each. Activation part: two ping-pong pre-activation
#: buffers (a layer's values overwrite its pre-activations and feed the next
#: layer), e, the derivatives and a bool mask, of N * width entries each. Each
#: part grows to the largest batch asked for and is never shrunk. Callers get
#: copies only, so no result shares memory with it or with another result. One
#: pool per process: the passes must not run in two threads at once.
_POOL = []


def _pool(jac, act):
    """The pool's nine parts: the Jacobian part's four of ``jac`` entries, then
    the activation part's five of ``act`` (bool views for the two masks)."""
    have = (_POOL[0].size, _POOL[4].size) if _POOL else (0, 0)
    if jac > have[0] or act > have[1]:
        jac, act = max(jac, have[0]), max(act, have[1])
        buf = np.empty(3 * jac + 4 * act + (jac + act) // 8 + 2)
        ends = np.cumsum([0] + [jac] * 3 + [act] * 4).tolist()
        floats = [buf[lo:hi] for lo, hi in zip(ends, ends[1:])]
        mask = buf[ends[-1]:].view(bool)
        _POOL[:] = floats[:3] + [mask[:jac]] + floats[3:] + [mask[jac:jac + act]]
    return _POOL


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
        self._width = max(len(A) for layers in self.networks for A, _ in layers)

    def _pass(self, P, values, jacobian):
        """One forward pass: values (N, m) if asked for, else None, and J
        (N, m, n) if asked for, else None.

        Each layer runs in the pooled scratch, and the results are copies out
        of it. A pass without values skips the last layer's activation value.
        """
        N, n = len(P), self.n
        J0, J1, scratch, mask, pre0, pre1, e_all, d_all, keep_all = _pool(
            N * self._width * n if jacobian else 0, N * self._width)
        out_values = np.empty((N, self.m)) if values else None
        out_J = np.empty((N, self.m, n)) if jacobian else None
        for i, layers in enumerate(self.networks):
            H = P[:, :, None]                    # (N, width, 1): one column per point
            for k, (A, b) in enumerate(layers):
                size = N * len(A)
                g, e, keep = (pre1 if k % 2 else pre0)[:size], e_all[:size], keep_all[:size]
                pre = np.matmul(A, H, out=g.reshape(N, len(A), 1))
                np.add(pre, b[:, None], out=pre)
                value = values or k + 1 < len(layers)
                if jacobian:
                    # scratch: the other pre-activation buffer, whose H the product consumed
                    d = d_all[:size]
                    self.activation.apply(g, e, keep, d, (pre0 if k % 2 else pre1)[:size], value)
                    flat = (J1 if k % 2 else J0)[:size * n]
                    out = flat.reshape(N, len(A), n)
                    # a stacked A @ G: one matrix product per point (layer 1: A @ eye(n))
                    np.multiply(d.reshape(N, len(A), 1),
                                np.matmul(A, G, out=out) if k else A @ np.eye(n), out=out)
                    G = out
                    _flush(flat, scratch[:flat.size], mask[:flat.size])
                else:
                    self.activation.apply(g, e, keep)
                if value:
                    _flush(g, e, keep)
                    H = pre
            cols = slice(i * self.nq, (i + 1) * self.nq)
            if values:
                out_values[:, cols] = H[:, :, 0]
            if jacobian:
                out_J[:, cols] = G
        return out_values, out_J

    def eval_batch(self, P):
        """Values from one pass that forms no Jacobian; not thread-safe."""
        return self._pass(self._check_batch(P), True, False)[0]

    def linearize_batch(self, P):
        """Values and J from one pass. Not thread-safe: the scratch pool is one per
        process and keeps the largest batch's size until the process exits."""
        values, J = self._pass(self._check_batch(P), True, True)
        return values, J, np.zeros(J.shape[:2], dtype=bool)

    def jacobian_batch(self, P):
        """(J, multi) from one pass, skipping the last activation value; not thread-safe."""
        J = self._pass(self._check_batch(P), False, True)[1]
        return J, np.zeros(J.shape[:2], dtype=bool)


class NetworkLiftMapping(InnerMapping):
    """The lifted mapping F(x) = (x_{1,q}, H(x)) of one network.

    x = (x0, x_{1,1}, ..., x_{1,q}) collects the input and the per-layer outputs;
    each H row is activation(affine of the previous layer's variables) minus the
    variable for that neuron. Rows are affine except through the scalar
    activation, so relu activity stays per-row.
    """

    def __init__(self, networks, activation: Activation):
        [(weights, biases)] = networks       # a list holding one network
        self.layers, self.dims = _validate_layers(weights, biases)   # dims [n0, ..., nq]
        self.activation = activation
        self.q = len(self.dims) - 1
        self.r = int(sum(self.dims[1:]))
        self.n0 = self.dims[0]
        self.nq = self.dims[-1]
        self.n = self.n0 + self.r
        self.m = self.nq + self.r
        # x_{1,k} is x[_offs[k]:_offs[k + 1]], x0 the block k = 0
        self._offs = np.cumsum([0] + self.dims).tolist()

    def block(self, x, i, k):
        """x_{1,i,k} of network i = 0 for layer k >= 1, or x0 for k = 0."""
        if i != 0:
            raise IndexError(f"network {i}: the lift holds network 0 only")
        return np.asarray(x, dtype=float)[self._offs[k]:self._offs[k + 1]]

    def lift_point(self, x0) -> np.ndarray:
        """Forward pass: the lifted point at which every H row vanishes exactly."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n0,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.n0},)")
        parts = [x0]
        for A, b in self.layers:
            parts.append(self.activation.value(A @ parts[-1] + b))
        return np.concatenate(parts)

    def _pre(self, P, k):
        """Layer k's pre-activations at the rows of P, (N, d_k)."""
        A, b = self.layers[k - 1]
        return _matvec(A, P[:, self._offs[k - 1]:self._offs[k]]) + b

    def eval_batch(self, P):
        P = self._check_batch(P)
        rows = [self.activation.value(self._pre(P, k)) - P[:, lo:hi]
                for k, (lo, hi) in enumerate(zip(self._offs[1:], self._offs[2:]), start=1)]
        return np.concatenate([P[:, self._offs[self.q]:]] + rows, axis=1)

    def jacobian_batch(self, P):
        """Relu rows within RELU_KINK_TOL of the kink select derivative 0 and are flagged."""
        P = self._check_batch(P)
        J = np.zeros((len(P), self.m, self.n))
        multi = np.zeros((len(P), self.m), dtype=bool)
        J[:, np.arange(self.nq), self._offs[self.q] + np.arange(self.nq)] = 1.0
        J[:, np.arange(self.nq, self.m), np.arange(self.n0, self.n)] = -1.0
        for k, (A, _) in enumerate(self.layers, start=1):
            # H row r belongs to the neuron with own coordinate r - nq + n0
            rows = slice(self._offs[k] + self.nq - self.n0, self._offs[k + 1] + self.nq - self.n0)
            pre = self._pre(P, k)
            if self.activation.smooth:
                d = self.activation.deriv(pre)
            else:
                multi[:, rows] = np.abs(pre) <= RELU_KINK_TOL
                d = np.where(pre > RELU_KINK_TOL, 1.0, 0.0)
            J[:, rows, self._offs[k - 1]:self._offs[k]] = d[:, :, None] * A
        return J, multi

    def _alternatives(self, x, i):
        """H row i's gradient for each derivative option of its neuron, in their order."""
        c = i - self.nq + self.n0                 # the neuron's own coordinate
        k = int(np.searchsorted(self._offs, c, side="right")) - 1
        A, j = self.layers[k - 1][0], c - self._offs[k]
        options = self.activation.deriv_options(float(self._pre(x[None], k)[0, j]))
        grads = np.zeros((len(options), self.n))
        grads[:, self._offs[k - 1]:self._offs[k]] = np.multiply.outer(options, A[j])
        grads[:, c] = -1.0
        return list(grads)


@dataclass
class NetworkLift:
    """Lifted composite problem plus its feasibility constructor."""

    problem: "object"                 # CompositeProblem (kept untyped: no cycle)
    mapping: NetworkLiftMapping

    def lift_point(self, x0):
        return self.mapping.lift_point(x0)


def build_network_lift(weights, biases, activation: Activation,
                       target_outer: OuterFunction) -> NetworkLift:
    """Assemble the lifted composite problem for a network inversion.

    ``weights``/``biases`` describe one network. ``target_outer`` is the convex
    function of the network outputs; the lifted outer function ``problem.h`` is
    its direct sum with the equality indicator on the trailing r coordinates.
    The lifted set is the whole space: x0 and the layer variables are free.
    """
    from .model import CompositeProblem  # local import: model depends on inner

    mapping = NetworkLiftMapping([(weights, biases)], activation)
    if target_outer.m != mapping.nq:
        raise ValueError("target outer dimension must be n_q")
    h = BlockSeparableOuter([
        target_outer,
        EqualityIndicatorOuter(mapping.r, first_linear=False),
    ])
    problem = CompositeProblem(WholeSpace(mapping.n), h, mapping)
    return NetworkLift(problem, mapping)
