"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps float64/complex128 data; every operation records a closure that
maps the output cotangent to input cotangents (micrograd-style tape, freed
node by node as `backward` sweeps it). Complex tensors use the convention
grad = dL/dRe + i dL/dIm, under which linear maps pull back through their
conjugate transpose; gradients of real tensors fed into complex ops keep
only their real part. A complex weight is stored as one real tensor of
(re, im) pairs on a trailing axis of 2 and read through `complex_view`
without a copy; the complex cotangent viewed as pairs is then the pairs'
gradient.

Spectral paths (Fourier layers, the Fourier positional encoding) reach FFTs
only through the adjoint pair `fftn`/`ifftn`, and only the pair knows the
grid layout. Both speak token values (..., n_points, channels): the points
of a uniform grid of resolution (n1, ..., nd) in C order, after any number
of leading axes, none included, which are transformed as one batch. Each op
reshapes to (batch, n1, ..., nd, channels) and back inside its forward and
its vjp, so no caller records a reshape for the pair. The forward FFT is
unnormalized and the inverse carries the 1/N factor, N = n1 * ... * nd.
A band with modes (m1, ..., md) is a half band: per axis k < d it keeps the
bins [0, mk) followed by [nk - mk, nk) (the non-negative then the negative
frequencies), and on the last axis only the columns [0, md), as FNO does.
So `fftn` returns a band of shape (..., 2*m1, ..., 2*m(d-1), md, channels)
at every resolution with nk >= 2*mk, and `ifftn` returns, as token values,
the real field whose rfft along the last axis is the band zero-padded to
the full grid: Re of the 1/N inverse FFT of the zero-padded band with
column 0 (the DC column) weighted by 1 and columns 1..md-1 by 2, which
stand in for their conjugate mirrors. Against a two-sided band the function
class loses bin md of the last axis, the Nyquist bin when nd = 2*md (as on
a 16-point latent axis with 8 modes); no band column is a Nyquist column,
since md <= nd/2. `_check_band` is the one check that a grid can carry a
band: both ops call it and it raises ModeCountError, so callers do not
repeat it.

`fftn` takes real values only (every spectral path starts from them) and
raises ShapeError on complex input. Neither op forms a full complex grid.
`fftn` runs rfft along the last grid axis and keeps its md columns, then
transforms every other axis on those columns only and cuts it to its band.
`ifftn` zero-pads and inverse-transforms every axis but the last on the md
columns, then runs irfft, which reads the missing columns as zeros and the
imaginary part of the DC column as zero. Each kernel serves one op's
forward and the other's vjp, and the column weights make the two adjoint:
`ifftn`'s vjp is `fftn` over N with columns 1..md-1 doubled (DC once), and
`fftn`'s is N times `ifftn` on the cotangent with columns 1..md-1 halved (a
real cotangent). Each vjp applies its weights and the N scaling as one
per-column factor on the band, so they cost no extra pass. The transforms
are scipy.fft's, whose per-line results do not depend on the other lines of
a batch, so a batched call equals its per-sample calls bit for bit, however
its leading axes are shaped.

`resample`, the band-limited transfer between grids, is one taped op with
its own two-sided kernels: it keeps the last axis's negative bins too,
bin -m included, as conjugates of rfft bins m..1, and folds each row back
to irfft's Hermitian half. A half band over [0, m) would drop the bin -m
that a transfer at n = 2m must carry.

Two nodes recompute in their vjp what a chain of nodes would keep on the
tape. `kernel_integral` (the GNO apply) gathers its values again, block by
block over its pairs, and `mlp` (a whole pointwise MLP) recomputes each
hidden pre-activation from its input, weights and biases, keeping only the
Phi buffers of its GELUs. Both read their parents' `.data` in the vjp, so
a parameter's `.data` must not be written in place between a forward and
its backward. `optimizer_step` writes after the backward, and `grad_check`
perturbs entries only under no_grad, after its backward.

No op checks its output for NaN or inf. The runs check the values they
depend on: the attention logits (model), the loss (training) and the global
gradient norm (`clip_grad_norm`).

Reductions across the token axis of the attention mechanism must be invariant
to input permutations at the bit level, so `ordered_sum` and the softmax
denominator sum their terms in value-sorted order (IEEE addition commutes but
does not associate). `ordered_sum` sorts its T slices with Batcher's odd-even
merge network of compare-exchanges, each an np.minimum/np.maximum over whole
slices, then adds them left to right onto +0: ((0 + s0) + s1) + ..., the
order numpy reduces an axis that is not the last. So it has the bytes of
np.sort(x, axis).sum(axis) on such an axis, with no per-lane sort. A min/max
tie of +0 and -0 may hand both lanes one sign; from a +0 start that sign
never shows. The softmax denominator, a last-axis sum that numpy makes
pairwise from 8 terms, stays on np.sort.

Every contraction with a shared weight runs on BLAS through `matmul`, or
`mlp` with the same products, with tokens (or any axis the model permutes)
on a stack axis: each stack element is its own product of one shape, so
permuting stack elements is bitwise. Not so the rows of one product: BLAS
may block a row's dot products by where the row sits. `einsum2` is left for
token-token contractions and quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import fft as sp_fft
from scipy.special import erf

from .errors import ModeCountError, NumericError, ShapeError, TrainingStateError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that skips tape recording (evaluation / finite differences)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def grad_enabled() -> bool:
    """Whether ops record the tape (False inside no_grad)."""
    return _GRAD_ENABLED


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.complex128):
            arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._vjp = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.real) if np.iscomplexobj(self.data) else float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents, vjp, op: str) -> Tensor:
    """Create an op output, recording the tape edge when gradients are live."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape numpy broadcast it up from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _conj(x: np.ndarray) -> np.ndarray:
    """Complex conjugate without the copy np.conj makes of a real array."""
    return np.conj(x) if np.iscomplexobj(x) else x


def _match(t: Tensor, g: np.ndarray) -> np.ndarray:
    """Coerce a cotangent to the primal's dtype (real primal keeps the real part)."""
    if np.iscomplexobj(g) and not np.iscomplexobj(t.data):
        g = g.real
    return g


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * _conj(b.data), a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * _conj(a.data), b.data.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        inv = 1.0 / b.data
        return (
            _unbroadcast(g * _conj(inv), a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * _conj(a.data * inv * inv), b.data.shape)
            if b.requires_grad else None,
        )

    return _node(out, (a, b), vjp, "div")


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * _conj(0.5 / out),)

    return _node(out, (a,), vjp, "sqrt")


def _phi(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), the normal cdf, in a new buffer."""
    cdf = x / np.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out=None) -> np.ndarray:
    """GELU's derivative x * pdf + cdf, pdf = exp(-x*x/2) / sqrt(2 pi), in
    one buffer: `out` when given (it may not be x), else a new one."""
    buf = np.multiply(-0.5, x, out=out)
    buf *= x
    np.exp(buf, out=buf)
    buf /= np.sqrt(2.0 * np.pi)
    buf *= x
    buf += cdf
    return buf


def gelu(a) -> Tensor:
    """Exact GELU x * Phi(x) with the erf form; real inputs only.

    Off the tape the output is written into the Phi buffer; a taped call
    keeps that buffer for its vjp.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("gelu is defined for real tensors")
    x = a.data
    cdf = _phi(x)
    taped = _GRAD_ENABLED and a.requires_grad
    out = x * cdf if taped else np.multiply(x, cdf, out=cdf)

    def vjp(g):
        buf = _gelu_slope(x, cdf)
        buf *= g
        return (buf,)

    return _node(out, (a,), vjp, "gelu")


# -- shape ---------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _node(out, (a,), vjp, "reshape")


def broadcast_to(a, shape) -> Tensor:
    """Read-only broadcast view; the vjp sums the cotangent back down."""
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape),)

    return _node(out, (a,), vjp, "broadcast_to")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = np.transpose(a.data, axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _node(out, (a,), vjp, "transpose")


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(ts), vjp, "concat")


def split(a, widths) -> list:
    """Blocks of the last axis with the given widths, in order, as views.

    The vjp is a concat: the blocks hang off one private node of a, so that
    node's cotangent is one buffer that each block's vjp fills with its own
    (a block the loss never reaches stays zero) and hands on whole.
    """
    a = as_tensor(a)
    widths = tuple(int(w) for w in widths)
    if a.ndim < 1 or sum(widths) != a.shape[-1] or min(widths, default=0) < 1:
        raise ShapeError(f"cannot split a last axis of {a.shape[-1:]} into {widths}")
    whole = _node(a.data, (a,), lambda g: (g,), "split")
    joined = []

    def block(lo, hi):
        def vjp(g):
            first = not joined
            if first:
                joined.append(np.zeros_like(a.data))
            joined[0][..., lo:hi] = g
            return (joined[0] if first else None,)

        return _node(a.data[..., lo:hi], (whole,), vjp, "split")

    edges = np.cumsum((0,) + widths)
    return [block(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def stack(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in ts], axis=axis)

    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _node(out, tuple(ts), vjp, "stack")


# -- reductions ----------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(out, (a,), vjp, "sum")


def _merge_network(n: int) -> list:
    """Compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge sort
    on n items; a pair that would reach past n is dropped, as if the missing
    items were +inf."""
    pairs, p = [], 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


def ordered_sum(a, axis: int) -> Tensor:
    """Sum along one axis in value-sorted order: bit-invariant to permutations.

    The slices along the axis are sorted by `_merge_network` with whole-array
    np.minimum/np.maximum, then added left to right (module docstring).
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("ordered_sum is defined for real tensors")
    moved = np.moveaxis(a.data, axis, 0)
    s = list(moved)
    for i, j in _merge_network(len(s)):
        s[i], s[j] = np.minimum(s[i], s[j]), np.maximum(s[i], s[j])
    # from +0, as numpy reduces: then no zero's sign, which a min/max tie of
    # +0 and -0 may have copied, reaches the sum
    out = np.zeros(moved.shape[1:])
    for x in s:
        out += x

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return _node(out, (a,), vjp, "ordered_sum")


def softmax_rows(a) -> Tensor:
    """Row softmax over the last axis with a value-sorted denominator sum."""
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("softmax_rows is defined for real tensors")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    den = np.sort(e, axis=-1).sum(axis=-1, keepdims=True)
    s = e / den

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _node(s, (a,), vjp, "softmax_rows")


# -- contractions ----------------------------------------------------------


def einsum2(spec: str, a, b) -> Tensor:
    """Two-operand einsum with a conjugating vector-Jacobian product."""
    a, b = as_tensor(a), as_tensor(b)
    lhs, o_sub = spec.split("->")
    a_sub, b_sub = lhs.split(",")
    if "." in spec:
        raise ShapeError("einsum2 requires explicit subscripts (no ellipsis)")
    # the swapped-subscript vjp needs every input index visible from the other side
    for sub, other in ((a_sub, b_sub), (b_sub, a_sub)):
        orphans = set(sub) - set(other) - set(o_sub)
        if orphans:
            raise ShapeError(f"einsum spec {spec!r} sums {orphans} within one operand")
    out = np.einsum(spec, a.data, b.data)

    def vjp(g):
        ga = (np.einsum(f"{o_sub},{b_sub}->{a_sub}", g, _conj(b.data))
              if a.requires_grad else None)
        gb = (np.einsum(f"{o_sub},{a_sub}->{b_sub}", g, _conj(a.data))
              if b.requires_grad else None)
        return ga, gb

    return _node(out, (a, b), vjp, f"einsum[{spec}]")


def _folded_matmul(left: np.ndarray, right: np.ndarray, shape: tuple) -> np.ndarray:
    """left @ right summed over the stack axes an operand of `shape` is
    broadcast along, as one matmul: those axes fold into the contraction."""
    stack = np.broadcast_shapes(left.shape[:-2], right.shape[:-2])
    own = (1,) * (len(stack) + 2 - len(shape)) + tuple(shape[:-2])
    fold = [k for k, (s, o) in enumerate(zip(stack, own)) if o == 1 and s != 1]
    if fold:
        keep, nd = [k for k in range(len(stack)) if k not in fold], len(stack)
        kept = tuple(stack[k] for k in keep)
        left = np.broadcast_to(left, stack + left.shape[-2:]).transpose(
            keep + [nd] + fold + [nd + 1]).reshape(kept + (left.shape[-2], -1))
        right = np.broadcast_to(right, stack + right.shape[-2:]).transpose(
            keep + fold + [nd, nd + 1]).reshape(kept + (-1, right.shape[-1]))
    return (left @ right).reshape(shape)


def matmul(a, b) -> Tensor:
    """Matrix product through BLAS, broadcast over leading stack axes.

    Operands have rank >= 2; the last two axes multiply and the rest
    broadcast as in np.matmul. Put tokens on a stack axis (module docstring).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {a.shape} and {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul cannot multiply {a.shape} by {b.shape}") from e

    def vjp(g):
        ga = (_folded_matmul(g, np.swapaxes(_conj(b.data), -1, -2), a.data.shape)
              if a.requires_grad else None)
        gb = (_folded_matmul(np.swapaxes(_conj(a.data), -1, -2), g, b.data.shape)
              if b.requires_grad else None)
        return ga, gb

    return _node(out, (a, b), vjp, "matmul")


def mlp(x, weights, biases) -> Tensor:
    """Pointwise MLP on the last axis as one node: per layer z = h @ w with
    the bias added in place, GELU between layers, linear output.

    x is real (..., w0); weights are real (w_i, w_(i+1)) and biases
    (w_(i+1),), else ShapeError. The node's parents are x, the weights and
    the biases, and it keeps each hidden layer's Phi buffer (the erf, the
    one costly op) and no pre-activation or GELU output: a taped forward
    writes h = z * Phi over z, an untaped one over Phi. The vjp recomputes
    each hidden z = h @ w; z += b with the forward's products, then runs the
    vjps of `matmul`, the bias add and `gelu` layer by layer from the top in
    the chain's order, so forward and gradients have the bytes of a chain of
    `matmul`, `add` and `gelu` nodes. Each layer's weight gradient is taken
    from h first; h's buffer then takes the GELU slope before the input
    cotangent is allocated, so beside the pre-activations of the layers
    below, the vjp holds at most two hidden-size arrays at a time.
    """
    x = as_tensor(x)
    weights, biases = [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]
    n = len(weights)
    parents = (x, *weights, *biases)
    if (x.ndim < 2 or n < 1 or len(biases) != n
            or any(w.ndim != 2 or b.shape != w.shape[1:] for w, b in zip(weights, biases))
            or ([w.shape[0] for w in weights]
                != [x.shape[-1]] + [w.shape[1] for w in weights[:-1]])
            or any(np.iscomplexobj(p.data) for p in parents)):
        raise ShapeError(f"mlp cannot apply real layers {[w.shape for w in weights]} with "
                         f"biases {[b.shape for b in biases]} to {x.data.dtype} {x.shape}")
    taped = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    phis, h = [], x.data
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.data
        h += b.data
        if i < n - 1:
            phi = _phi(h)
            h = np.multiply(h, phi, out=h if taped else phi)
            if taped:
                phis.append(phi)
            del phi  # untaped it is h's buffer, to be freed with h by the next product

    def vjp(g):
        zs, h = [], x.data
        for w, b, phi in zip(weights, biases, phis):
            zs.append(h @ w.data)
            zs[-1] += b.data
            h = zs[-1] * phi
        gx, gw, gb = None, [None] * n, [None] * n
        for i in range(n - 1, -1, -1):
            w, b = weights[i], biases[i]
            if w.requires_grad:
                gw[i] = _folded_matmul(np.swapaxes(h, -1, -2), g, w.shape)
            if b.requires_grad:
                gb[i] = _unbroadcast(g, b.shape)
            if i == 0:
                if x.requires_grad:
                    gx = _folded_matmul(g, w.data.T, x.shape)
                break
            # h is spent: its buffer takes the slope of the GELU below
            slope = _gelu_slope(zs.pop(), phis[i - 1], out=h)
            slope *= _folded_matmul(g, w.data.T, h.shape)
            g = slope
            h = zs[-1] * phis[i - 2] if i > 1 else x.data
        return (gx, *gw, *gb)

    return _node(h, parents, vjp, "mlp")


def sparse_matmul(sp_pair, x) -> Tensor:
    """Multiply by a constant scipy CSR matrix; sp_pair = (S, S_transpose_csr)."""
    s_mat, s_t = sp_pair
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError("sparse_matmul expects a 2D tensor")
    out = s_mat @ x.data

    def vjp(g):
        return (s_t @ g,)

    return _node(out, (x,), vjp, "sparse_matmul")


# about 2 MB of float64 per block array in `kernel_integral`
_PAIR_BLOCK_FLOATS = 1 << 18


def _csr_product(s_mat, x: np.ndarray) -> np.ndarray:
    """s_mat @ x on a plain array, through `sparse_matmul` (no node)."""
    return sparse_matmul((s_mat, None), x).data


def kernel_integral(k, values, gather, scatter) -> Tensor:
    """Scatter of one kernel mat-vec per (pair, group) of gathered values.

    k holds a (d_out, d_in) matrix per pair, (n_pairs, d_out, d_in); values
    are (n_source, groups*d_in), width-d_in groups sharing each pair's
    matrix. `gather` (n_pairs, n_source) and `scatter` (n_query, n_pairs)
    are constant CSR pairs (matrix, transpose) as `sparse_matmul` takes,
    whose data carry any pair weights. Returns (n_query, groups*d_out) as
    one node with parents k and values: the gathered values and the
    messages are not kept, and the vjp recomputes the gather from `values`.
    Every CSR product runs through `sparse_matmul` on plain arrays, so none
    records a node.

    Both directions run over blocks of contiguous pairs, each block array
    about `_PAIR_BLOCK_FLOATS` floats. The forward gathers a block with the
    gather's row slice and writes its kernel mat-vecs into one message
    buffer; the vjp takes a block's message cotangent from the scatter
    transpose's row slice, gathers the block again and writes its rows of
    the kernel gradient and of the gathered cotangent. A CSR product's rows
    and np.matmul's stack elements are each computed on their own, so
    blocking leaves their bytes alone. The two products that sum over pairs,
    the scatter and the gather's transpose, run whole on the full buffers:
    split, they would sum in another order. So forward and vjp give the
    bytes of `sparse_matmul`, `matmul` and `sparse_matmul` nodes in a row,
    and at its peak the vjp holds the kernel gradient, the gathered
    cotangent and one block of each of the others.
    """
    k, values = as_tensor(k), as_tensor(values)
    (g_mat, g_t), (s_mat, s_t) = gather, scatter
    if k.ndim != 3 or values.ndim != 2:
        raise ShapeError(f"kernel_integral needs kernel matrices (n_pairs, d_out, d_in) "
                         f"and values (n_source, width), got {k.shape} and {values.shape}")
    p, d_out, d_in = k.shape
    if g_mat.shape[0] != p or s_mat.shape[1] != p:
        raise ShapeError(f"kernel_integral got {p} kernel matrices for a gather of "
                         f"{g_mat.shape[0]} pairs and a scatter of {s_mat.shape[1]}")
    n_s, width = values.shape
    if n_s != g_mat.shape[1] or width % d_in:
        raise ShapeError(f"kernel_integral cannot gather values {values.shape} from "
                         f"{g_mat.shape[1]} sources in groups of width {d_in}")
    groups = width // d_in
    k4 = k.data.reshape(p, 1, d_out, d_in)
    step = max(1, _PAIR_BLOCK_FLOATS // (groups * max(d_in, d_out)))
    blocks = [slice(lo, min(lo + step, p)) for lo in range(0, p, step)]

    def gathered(blk):
        return _csr_product(g_mat[blk], values.data).reshape(-1, groups, d_in, 1)

    msgs = np.empty((p, groups, d_out, 1))
    for blk in blocks:
        np.matmul(k4[blk], gathered(blk), out=msgs[blk])
    out = _csr_product(s_mat, msgs.reshape(p, groups * d_out))

    def vjp(g):
        gk = np.empty((p, d_out, d_in)) if k.requires_grad else None
        g_gath = np.empty((p, width)) if values.requires_grad else None
        for blk in blocks:
            g_msgs = _csr_product(s_t[blk], g).reshape(-1, groups, d_out, 1)
            if gk is not None:
                np.matmul(np.swapaxes(g_msgs[..., 0], -1, -2),
                          gathered(blk)[..., 0], out=gk[blk])
            if g_gath is not None:
                np.matmul(np.swapaxes(k4[blk], -1, -2), g_msgs,
                          out=g_gath[blk].reshape(-1, groups, d_in, 1))
        gv = None if g_gath is None else _csr_product(g_t, g_gath)
        return gk, gv

    return _node(out, (k, values), vjp, "kernel_integral")


# -- spectral ----------------------------------------------------------------


def _take_band(y: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Rows [0, m) then [n - m, n) of one axis: its band after a transform."""
    n = y.shape[axis]
    if n == 2 * m:
        return y
    lo = (slice(None),) * axis
    return np.concatenate((y[lo + (slice(0, m),)], y[lo + (slice(n - m, n),)]), axis=axis)


def _zero_pad(band: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Band rows of one axis placed at [0, m) and [n - m, n) of n zero rows."""
    m = band.shape[axis] // 2
    if n == 2 * m:
        return band
    lo = (slice(None),) * axis
    full = np.zeros(band.shape[:axis] + (n,) + band.shape[axis + 1:], np.complex128)
    full[lo + (slice(0, m),)] = band[lo + (slice(0, m),)]
    full[lo + (slice(n - m, n),)] = band[lo + (slice(m, 2 * m),)]
    return full


def _cut_rows(y: np.ndarray, modes) -> np.ndarray:
    """Transform every grid axis of (batch, n1..nd, c) but the last, on the
    columns y keeps, and cut each axis to its band at once."""
    for axis in range(len(modes) - 1, 0, -1):
        y = _take_band(sp_fft.fft(y, axis=axis, overwrite_x=True), axis, modes[axis - 1])
    return y


def _pad_rows(y: np.ndarray, res) -> np.ndarray:
    """Zero-pad and inverse-transform every grid axis but the last, on the
    columns y keeps."""
    for axis in range(1, len(res)):
        y = sp_fft.ifft(_zero_pad(y, axis, res[axis - 1]), axis=axis)
    return y


def _band(x: np.ndarray, modes) -> np.ndarray:
    """Half band of the unnormalized FFT of a real (batch, n1..nd, c) grid:
    rfft columns [0, md) of the last axis, every other axis cut to its band."""
    d = len(modes)
    return _cut_rows(sp_fft.rfft(x, axis=d)[..., :modes[-1], :], modes)


def _grid(band: np.ndarray, res) -> np.ndarray:
    """Real (batch, n1..nd, c) grid whose rfft along the last axis is the
    zero-padded half band, under the 1/N inverse FFT."""
    d = len(res)
    return np.ascontiguousarray(sp_fft.irfft(_pad_rows(band, res), n=res[-1], axis=d))


def _columns(m: int, dc: float, interior: float) -> np.ndarray:
    """Per-column factor (m, 1) of a half band's last axis: dc on column 0,
    interior on columns 1..m-1."""
    w = np.full((m, 1), interior)
    w[0] = dc
    return w


def _check_band(band_axes, resolution) -> None:
    """A grid carries a band (2*m1, ..., 2*m(d-1), md) when every mk >= 1
    and nk >= 2*mk."""
    if len(band_axes) != len(resolution):
        raise ShapeError(f"band {tuple(band_axes)} and grid {tuple(resolution)} "
                         "differ in dimension")
    *rows, last = band_axes
    if (any(k < 2 or k % 2 or n < k for k, n in zip(rows, resolution))
            or last < 1 or resolution[-1] < 2 * last):
        raise ModeCountError(f"grid {tuple(resolution)} cannot carry band "
                             f"{tuple(band_axes)}")


def fftn(a, resolution, modes) -> Tensor:
    """Retained half band of the unnormalized forward FFT of real token values.

    a is (..., n_points, c) on a uniform grid of the given resolution; returns
    the complex (..., 2*m1, ..., 2*m(d-1), md, c) band in the layout of the
    module docstring. The vjp is N times `ifftn`'s forward with interior
    columns halved, a real cotangent.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("fftn transforms real grids only")
    res = tuple(int(n) for n in resolution)
    modes = tuple(int(m) for m in modes)
    band_axes = tuple(2 * m for m in modes[:-1]) + modes[-1:]
    _check_band(band_axes, res)
    if a.ndim < 2 or a.shape[-2] != int(np.prod(res)):
        raise ShapeError(f"bad input shape {a.shape} for grid {res}")
    lead, c = a.shape[:-2], a.shape[-1]
    n_total = float(np.prod(res))

    def vjp(g):
        w = _columns(modes[-1], n_total, n_total / 2)
        out = _grid(g.reshape((-1,) + band_axes + (c,)) * w, res)
        return (out.reshape(a.shape),)

    band = _band(a.data.reshape((-1,) + res + (c,)), modes)
    return _node(band.reshape(lead + band_axes + (c,)), (a,), vjp, "fftn")


def ifftn(band, resolution) -> Tensor:
    """Real (..., n_points, c) token values of a zero-padded half band under
    the 1/N inverse FFT on a grid of the given resolution.

    band is (..., 2*m1, ..., 2*m(d-1), md, c); the vjp is `fftn`'s forward
    divided by N with interior columns doubled.
    """
    band = as_tensor(band)
    res = tuple(int(n) for n in resolution)
    split = band.ndim - len(res) - 1
    lead, band_axes, c = band.shape[:split], band.shape[split:-1], band.shape[-1]
    _check_band(band_axes, res)
    modes = tuple(k // 2 for k in band_axes[:-1]) + band_axes[-1:]
    n_total = float(np.prod(res))

    def vjp(g):
        out = _band(g.reshape((-1,) + res + (c,)), modes)
        out *= _columns(modes[-1], 1.0 / n_total, 2.0 / n_total)
        return (out.reshape(band.shape),)

    out = _grid(band.data.reshape((-1,) + band_axes + (c,)), res)
    return _node(out.reshape(lead + (-1, c)), (band,), vjp, "ifftn")


def _two_sided_band(x: np.ndarray, modes) -> np.ndarray:
    """Two-sided band (batch, 2*m1, ..., 2*md, c) of the unnormalized FFT of
    a real grid: the last axis's negative bins are conjugates of rfft bins
    m..1, since each row is real."""
    d, m = len(modes), modes[-1]
    half = sp_fft.rfft(x, axis=d)
    band = np.empty(half.shape[:d] + (2 * m,) + half.shape[d + 1:], np.complex128)
    band[..., :m, :] = half[..., :m, :]
    np.conjugate(half[..., m:0:-1, :], out=band[..., m:, :])
    return _cut_rows(band, modes)


def _two_sided_grid(band: np.ndarray, res) -> np.ndarray:
    """Re of the 1/N inverse FFT of a zero-padded two-sided band.

    Each row y of the 2*m last-axis columns folds to the Hermitian half h
    that irfft reads: h[0] = y[0], h[k] = (y[k] + conj(y[-k])) / 2 for
    0 < k < m, and h[m] = y[-m] (the Nyquist bin) when n = 2m, else
    conj(y[-m]) / 2. irfft reads the imaginary parts of h[0] and of a
    Nyquist bin as zero, so in exact arithmetic it returns the real part.
    """
    d, n = len(res), res[-1]
    y = _pad_rows(band, res)
    m = band.shape[d] // 2
    h = np.empty(y.shape[:d] + (m + 1,) + y.shape[d + 1:], np.complex128)
    h[..., 0, :] = y[..., 0, :]
    np.conjugate(y[..., 2 * m - 1:m:-1, :], out=h[..., 1:m, :])
    h[..., 1:m, :] += y[..., 1:m, :]
    h[..., 1:m, :] *= 0.5
    if n == 2 * m:
        h[..., m, :] = y[..., m, :]
    else:
        np.conjugate(y[..., m, :], out=h[..., m, :])
        h[..., m, :] *= 0.5
    return np.ascontiguousarray(sp_fft.irfft(h, n=n, axis=d))


def resample(a, old_res, new_res) -> Tensor:
    """Band-limited transfer of real token values (..., n_old, c) to a
    uniform grid of another resolution, returned as (..., n_new, c).

    Per axis the bins [0, m) and [n - m, n) with m = min(old, new) // 2
    carry over, the last axis's bin -m included: the two-sided band, taken
    by rfft and conjugate columns, scaled by n_new / n_old and folded back
    to irfft's Hermitian half. The vjp runs the adjoint chain (band of g
    over n_new, scale, grid times n_old) in that order.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("resample transfers real grids only")
    old_res, new_res = tuple(int(n) for n in old_res), tuple(int(n) for n in new_res)
    if len(old_res) != len(new_res):
        raise ShapeError(f"grids {old_res} and {new_res} differ in dimension")
    modes = tuple(min(p, q) // 2 for p, q in zip(old_res, new_res))
    if min(modes) < 1:
        raise ModeCountError(f"{old_res} -> {new_res} keeps no modes on an axis")
    if a.ndim < 2 or a.shape[-2] != int(np.prod(old_res)):
        raise ShapeError(f"bad input shape {a.shape} for grid {old_res}")
    lead, c = a.shape[:-2], a.shape[-1]
    n_old, n_new = float(np.prod(old_res)), float(np.prod(new_res))
    scale = n_new / n_old

    def vjp(g):
        band = _two_sided_band(g.reshape((-1,) + new_res + (c,)), modes)
        band /= n_new
        out = _two_sided_grid(band * scale, old_res)
        out *= n_old
        return (out.reshape(a.shape),)

    band = _two_sided_band(a.data.reshape((-1,) + old_res + (c,)), modes)
    out = _two_sided_grid(band * scale, new_res)
    return _node(out.reshape(lead + (-1, c)), (a,), vjp, "resample")


def complex_view(a) -> Tensor:
    """Complex (...) view of a real (..., 2) tensor read as (re, im) pairs,
    without a copy: the bytes of re + 1j * im.

    Under the module's convention (grad = dL/dRe + i dL/dIm) the complex
    cotangent viewed as its (re, im) pairs is the gradient of the pairs.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data) or a.ndim < 1 or a.shape[-1] != 2:
        raise ShapeError(f"complex_view needs real (..., 2) pairs, got {a.data.dtype} "
                         f"of shape {a.shape}")
    out = np.ascontiguousarray(a.data).view(np.complex128)[..., 0]

    def vjp(g):
        return (np.ascontiguousarray(g, np.complex128)[..., None].view(np.float64),)

    return _node(out, (a,), vjp, "complex_view")


# -- graph traversal ----------------------------------------------------------


def backward(loss: Tensor, params=None) -> None:
    """Reverse sweep from a scalar loss that frees the tape as it goes.

    Each node drops its parents, its vjp and its cotangent once its vjp has
    run, and the sweep lets go of it then too, so an output that only the
    tape holds is freed before the next vjp runs; the sweep's peak is the
    tape still ahead of it plus one vjp's work. Tensors the caller holds
    keep their `.data`. Any tensors in `params` (a ParamStore or iterable
    of Tensors) that the graph never reached get zero gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if not parent.requires_grad or g is None:
                continue
            g = _match(parent, g)
            if g.shape != parent.data.shape:
                raise ShapeError(
                    f"vjp of {node._op!r} produced shape {g.shape} for {parent.data.shape}"
                )
            parent.grad = g if parent.grad is None else parent.grad + g
        node._parents = ()
        node._vjp = None
        node.grad = None  # intermediates drop their cotangent; leaves keep theirs
    if params is not None:
        tensors = params.tensors() if hasattr(params, "tensors") else list(params)
        for t in tensors:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


# -- parameter store ----------------------------------------------------------


class ParamStore:
    """Named parameter tensors with freeze flags; creation order is recorded."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._frozen: set[str] = set()

    def add(self, name: str, array) -> Tensor:
        if name in self._params:
            raise TrainingStateError(f"parameter {name!r} already exists")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise TrainingStateError(f"no parameter {name!r} in the store") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list:
        return list(self._params.values())

    def freeze(self, prefix: str) -> None:
        hits = [n for n in self._params if n == prefix or n.startswith(prefix)]
        self._frozen.update(hits)

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def trainable_names(self) -> list[str]:
        return [n for n in self._params if n not in self._frozen]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


# -- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments keyed by parameter name; lr 1e-3, betas (0.9, 0.999), eps 1e-8."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = dc_field(default_factory=dict)
    v: dict = dc_field(default_factory=dict)


def clip_grad_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all trainable gradients so their global L2 norm is at most max_norm.

    A non-finite norm raises NumericError before any gradient is scaled, so
    a NaN or inf gradient never reaches the parameters or Adam's moments.
    """
    total = 0.0
    for name in params.trainable_names():
        g = params[name].grad
        if g is None:
            raise TrainingStateError(f"missing gradient on trainable parameter {name!r}")
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericError(f"gradient norm is {norm}: not finite")
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for name in params.trainable_names():
            params[name].grad = params[name].grad * scale
    return norm


def optimizer_step(params: ParamStore, state: AdamState) -> None:
    """One Adam update on every trainable parameter; frozen entries untouched.

    m, v and the parameter are updated in their own buffers by the IEEE
    operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order, so they hold
    the bytes those expressions give; two scratch arrays hold the terms.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for name in params.trainable_names():
        t = params[name]
        g = t.grad
        if g is None:
            raise TrainingStateError(f"missing gradient on trainable parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        v = state.v[name]
        term, step = np.empty_like(m), np.empty_like(m)
        np.multiply(g, 1.0 - b1, out=term)
        m *= b1
        m += term
        np.multiply(g, g, out=term)
        term *= 1.0 - b2
        v *= b2
        v += term
        np.divide(m, bc1, out=step)
        step *= state.lr
        np.divide(v, bc2, out=term)
        np.sqrt(term, out=term)
        term += state.eps
        step /= term
        t.data -= step


# -- gradient verification ---------------------------------------------------------


@dataclass
class GroupCheck:
    max_rel_err: float
    n_elements: int
    status: str  # "ok" | "fail" | "skipped"


@dataclass
class GradCheckReport:
    groups: dict
    tol: float
    passed: bool
    worst_group: str | None
    max_rel_err: float

    def summary_lines(self) -> list[str]:
        lines = []
        for name, g in self.groups.items():
            lines.append(f"{name}: {g.status} max_rel_err={g.max_rel_err:.3e} n={g.n_elements}")
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e}"
        )
        return lines


def grad_check(loss_fn, params: ParamStore, tol: float = 1e-5, step: float = 1e-6,
               include=None, corrupt: str | None = None) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Per-element relative error uses max(|ad|, |fd|, floor) in the denominator,
    where floor = 1e-3 * the global max gradient magnitude: central differences
    of an O(1) loss carry ~1e-10 absolute noise, so elements with gradients at
    that floor are compared on the scale where the comparison means something.
    Frozen parameters are reported as skipped; a name in `include` that the
    store lacks raises, so a stale name cannot pass by checking nothing.
    `corrupt` perturbs one group's reverse-mode gradient before comparing (a
    hook for testing the checker).
    """
    unknown = [n for n in include or () if n not in params]
    if unknown:
        raise TrainingStateError(f"cannot check unknown parameter {unknown[0]!r}")
    params.zero_grads()
    loss = loss_fn()
    backward(loss, params)
    ad = {n: params[n].grad.copy() for n in params.trainable_names()}
    if corrupt is not None:
        if corrupt not in ad:
            raise TrainingStateError(f"cannot corrupt unknown/frozen group {corrupt!r}")
        ad[corrupt] = ad[corrupt] + 1.0 + np.abs(ad[corrupt])
    gmax = max((float(np.max(np.abs(g))) for g in ad.values()), default=0.0)
    floor = 1e-3 * gmax + 1e-12
    groups: dict[str, GroupCheck] = {}
    worst, worst_name = 0.0, None
    names = params.names() if include is None else [n for n in params.names() if n in include]
    with no_grad():
        for name in names:
            if params.is_frozen(name):
                groups[name] = GroupCheck(0.0, 0, "skipped")
                continue
            t = params[name]
            saved = t.data.copy()
            fd = np.zeros_like(saved)
            it = np.nditer(saved, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                h = step * max(1.0, abs(saved[ix]))
                t.data[ix] = saved[ix] + h
                up = float(loss_fn().data)
                t.data[ix] = saved[ix] - h
                down = float(loss_fn().data)
                t.data[ix] = saved[ix]
                fd[ix] = (up - down) / (2.0 * h)
            t.data = saved
            denom = np.maximum(np.maximum(np.abs(ad[name]), np.abs(fd)), floor)
            rel = float(np.max(np.abs(ad[name] - fd) / denom)) if fd.size else 0.0
            status = "ok" if rel <= tol else "fail"
            groups[name] = GroupCheck(rel, int(fd.size), status)
            if rel > worst:
                worst, worst_name = rel, name
    passed = all(g.status != "fail" for g in groups.values())
    return GradCheckReport(groups=groups, tol=tol, passed=passed,
                           worst_group=worst_name, max_rel_err=worst)
