"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps float64/complex128 data. An op on a tensor that needs a
gradient records a graph node (`_Node`), and no node refers to an output's
data. Each vjp captures at forward time exactly the arrays it reads, as
PyTorch's saved tensors do: `mul`, `div`, `matmul` and `einsum2` keep an
operand only when the other side needs a gradient (`div` keeps its divisor
always); `add`, `sub`, the shape ops, the sums, `split`, `concat`, `stack`,
the FFT pair, `resample` and `complex_view` keep shapes only; `tsqrt` and
`softmax_rows` keep their output, `gelu` its input and Phi_t, and `mlp`
and `kernel_integral` what their docstrings name. So an
intermediate that no vjp reads is freed as soon as the forward code drops
it, and `backward` frees the rest node by node as it sweeps.

Complex tensors use the convention grad = dL/dRe + i dL/dIm, under which
linear maps pull back through their conjugate transpose; gradients of real
tensors fed into complex ops keep only their real part. A complex weight is
stored as one real tensor of (re, im) pairs on a trailing axis of 2 and read
through `complex_view` without a copy; the complex cotangent viewed as pairs
is then the pairs' gradient.

Spectral paths (Fourier layers, the Fourier positional encoding) reach FFTs
only through the adjoint pair `fftn`/`ifftn`, and only the pair knows the
grid layout. Both speak token values (..., n_points, channels): the points
of a uniform grid of resolution (n1, ..., nd) in C order, after any number
of leading axes, none included, which are transformed as one batch, so no
caller records a reshape for the pair. The forward FFT is unnormalized and
the inverse carries the 1/N factor, N = n1 * ... * nd.
A band with modes (m1, ..., md) is a half band: per axis k < d it keeps the
bins [0, mk) followed by [nk - mk, nk) (the non-negative then the negative
frequencies), and on the last axis only the columns [0, md), as FNO does.
So `fftn` returns a band of shape (..., 2*m1, ..., 2*m(d-1), md, channels)
at every resolution with nk >= 2*mk, and `ifftn` returns, as token values,
the real field whose rfft along the last axis is the band zero-padded to
the full grid: Re of the 1/N inverse FFT of the zero-padded band with
column 0 (the DC column) weighted by 1 and columns 1..md-1 by 2, which
stand in for their conjugate mirrors. Against a two-sided band the function
class loses bin md of the last axis, the Nyquist bin when nd = 2*md; no
band column is a Nyquist column, since md <= nd/2. `_check_band` is the one
check that a grid can carry a band: both ops call it and it raises
ModeCountError.

`fftn` takes real values only and raises ShapeError on complex input.
Neither op forms a full complex grid (`_band`, `_grid`); each kernel serves
one op's forward and the other's vjp, which applies the column weights and
the N scaling as one per-column factor on the band. The transforms are
scipy.fft's, whose per-line results do not depend on the other lines of a
batch, so a batched call equals its per-sample calls bit for bit.

`resample`, the band-limited transfer between grids, is one taped op with
its own two-sided kernels: it keeps the last axis's negative bins too,
bin -m included, as conjugates of rfft bins m..1, and folds each row back
to irfft's Hermitian half. A half band over [0, m) would drop the bin -m
that a transfer at n = 2m must carry.

`mlp` and `kernel_integral` recompute in their vjp what a chain of nodes
would keep on the tape (their docstrings say what). Every vjp reads the
parents' arrays taken at forward time, so a parameter's `.data` must not be
written in place between a forward and its backward: `optimizer_step`
writes after the backward, and `grad_check` perturbs only under no_grad.

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
np.sort(x, axis).sum(axis) on such an axis, with no per-lane sort. The
softmax denominator, a last-axis sum that numpy makes pairwise from 8
terms, stays on np.sort.

GELU, in `gelu` and between the layers of `mlp`, is x * Phi_t(x) with the
tanh form of the normal cdf (`_phi`; Hendrycks and Gimpel 2016) and its
exact slope (`_gelu_slope`). A model trained under the erf form computes
another function; `ModelConfig.activation` names the form, so its
checkpoints are refused.

Every contraction with a shared weight runs on BLAS through `matmul`, or
`mlp` with the same products, with tokens (or any axis the model permutes)
on a stack axis, so permuting stack elements is bitwise. Not so the rows of
one product, which BLAS may round by where they sit among its row blocks:
`mlp`'s row tiles and `kernel_integral`'s pair blocks start at multiples of
64 rows (`_row_blocks`), and `kernel_integral` pads its per-pair group rows
(`_group_rows`). `einsum2` is left for token-token contractions and
quadrature.

Every op runs on the calling thread: importing this module sets numpy's
OpenBLAS to one thread (`_one_blas_thread`), so no product's bytes depend
on the host's thread count; on another BLAS nothing is set.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import fft as sp_fft

from .errors import (POSITIVE, ModeCountError, NumericError, Open, ShapeError,
                     TrainingStateError, check_settings, check_value)

_GRAD_ENABLED = True


def _one_blas_thread():
    """Set numpy's OpenBLAS, found through numpy's own extension module, to
    one thread and return its thread-count getter; None, setting nothing,
    where the library numpy loaded exports no scipy-openblas thread
    functions: another BLAS, or a loader that does not search a library's
    dependencies."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return get_threads


_BLAS_THREADS = _one_blas_thread()


def blas_threads() -> dict:
    """numpy's BLAS as {"name": name and version, "threads": the threads its
    products run on, or None where it cannot be read}."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": f"{blas.get('name')} {blas.get('version')}",
            "threads": _BLAS_THREADS and _BLAS_THREADS()}


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
    """An array, and for an op's output on the tape a link to its graph node.

    A leaf (made with requires_grad) is its own graph node: ops link to it
    and `backward` leaves its gradient in `.grad`. An op's output links to
    the `_Node` that recorded it and reads `_parents`, `_vjp` and `_op`
    through that link; the node never refers back to the output or its data.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.complex128):
            arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @property
    def _op(self) -> str:
        return "leaf" if self._node is None else self._node._op

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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


class _Node:
    """One recorded op: its vjp, its op name, links to its parents' graph
    nodes (`_link`), its output's shape and dtype, and its cotangent during
    the sweep. It holds no output data: the vjp closure holds the arrays it
    reads, taken at forward time, and nothing else."""

    __slots__ = ("_parents", "_vjp", "_op", "shape", "dtype", "grad")
    requires_grad = True

    def __init__(self, parents: tuple, vjp, op: str, data: np.ndarray):
        self._parents, self._vjp, self._op = parents, vjp, op
        self.shape, self.dtype = data.shape, data.dtype
        self.grad = None


# the link to every parent that needs no gradient: it keeps nothing
_CONSTANT = Tensor(())


def _link(t: Tensor):
    """A tensor's graph node: its op's node, the tensor itself for a leaf,
    `_CONSTANT` for a tensor that needs no gradient."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else _CONSTANT


def _node(data: np.ndarray, parents, vjp, op: str) -> Tensor:
    """Create an op output, recording its graph node when gradients are live."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(map(_link, parents)), vjp, op, out.data)
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


def _match(node, g: np.ndarray) -> np.ndarray:
    """Coerce a cotangent to a graph node's dtype (a real one keeps the real part)."""
    if np.iscomplexobj(g) and node.dtype.kind != "c":
        g = g.real
    return g


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _node(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _node(out, (a, b), vjp, "sub")


def _other_sides(a: Tensor, b: Tensor) -> tuple:
    """(a's data, b's data) for a vjp in which each side's cotangent reads the
    other operand: an operand is kept only when the other side needs a
    gradient, else None."""
    return (a.data if b.requires_grad else None,
            b.data if a.requires_grad else None)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    ka, kb = _other_sides(a, b)

    def vjp(g):
        return (
            _unbroadcast(g * _conj(kb), sa) if kb is not None else None,
            _unbroadcast(g * _conj(ka), sb) if ka is not None else None,
        )

    return _node(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    sa, sb, need_a = a.shape, b.shape, a.requires_grad
    # both cotangents read b; only b's reads a
    ka, kb = (a.data if b.requires_grad else None), b.data

    def vjp(g):
        inv = 1.0 / kb
        return (
            _unbroadcast(g * _conj(inv), sa) if need_a else None,
            _unbroadcast(-g * _conj(ka * inv * inv), sb) if ka is not None else None,
        )

    return _node(out, (a, b), vjp, "div")


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * _conj(0.5 / out),)

    return _node(out, (a,), vjp, "sqrt")


_GELU_C = np.sqrt(2.0 / np.pi)  # c and a of GELU's tanh form (see _phi)
_GELU_A = 0.044715


def _phi(x: np.ndarray, out=None) -> np.ndarray:
    """Phi_t(x) = 0.5 * (1 + tanh(c * (x + a*x^3))), c = sqrt(2/pi) and
    a = 0.044715, the tanh form of the normal cdf, in `out` when given (not
    x), else a new buffer; its argument is taken as x * (c + c*a * x*x)."""
    cdf = np.multiply(x, x, out=out)
    cdf *= _GELU_C * _GELU_A
    cdf += _GELU_C
    cdf *= x
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(z: np.ndarray, cdf: np.ndarray, out=None) -> np.ndarray:
    """The exact slope of x * Phi_t(x) from x and Phi_t alone, with no exp
    and no second tanh: since 1 - tanh^2 = 4 * Phi_t * (1 - Phi_t),
    d/dx [x Phi_t] = Phi_t * (1 + 2u * (1 - Phi_t)), u = c * x * (1 + 3a*x^2).

    z holds x and is overwritten (with 2u), so the caller must own it. The
    slope goes into `out` when given (not z or cdf), else a new buffer;
    nothing else is allocated. z is first clamped to +-1e100, where Phi_t is
    already 1 or 0, so that x^3 cannot overflow into inf * 0 = NaN: the slope
    there is 1 or 0, and below 1e100 clamping changes no byte.
    """
    np.clip(z, -1e100, 1e100, out=z)
    buf = np.multiply(z, z, out=out)
    buf *= 6.0 * _GELU_C * _GELU_A
    buf += 2.0 * _GELU_C
    z *= buf
    np.subtract(1.0, cdf, out=buf)
    buf *= z
    buf += 1.0
    buf *= cdf
    return buf


def gelu(a) -> Tensor:
    """GELU x * Phi_t(x) in its tanh form (see `_phi`); real inputs only.

    Off the tape the output is written into the Phi_t buffer; a taped call
    keeps that buffer for its vjp, which takes the slope from a copy of x
    (`_gelu_slope` overwrites its z) and leaves x untouched.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("gelu is defined for real tensors")
    x = a.data
    cdf = _phi(x)
    taped = _GRAD_ENABLED and a.requires_grad
    out = x * cdf if taped else np.multiply(x, cdf, out=cdf)

    def vjp(g):
        buf = _gelu_slope(x.copy(), cdf)
        buf *= g
        return (buf,)

    return _node(out, (a,), vjp, "gelu")


# -- shape ---------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _node(out, (a,), vjp, "reshape")


def broadcast_to(a, shape) -> Tensor:
    """Read-only broadcast view; the vjp sums the cotangent back down."""
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape)
    in_shape = a.shape

    def vjp(g):
        return (_unbroadcast(g, in_shape),)

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
    shape, dtype = a.shape, a.dtype
    whole = _node(a.data, (a,), lambda g: (g,), "split")
    joined = []

    def block(lo, hi):
        def vjp(g):
            first = not joined
            if first:
                joined.append(np.zeros(shape, dtype))
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
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

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
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

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
    ka, kb = _other_sides(a, b)

    def vjp(g):
        ga = (np.einsum(f"{o_sub},{b_sub}->{a_sub}", g, _conj(kb))
              if kb is not None else None)
        gb = (np.einsum(f"{o_sub},{a_sub}->{b_sub}", g, _conj(ka))
              if ka is not None else None)
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
        kept, folded = tuple(stack[k] for k in keep), math.prod(stack[k] for k in fold)
        left = np.broadcast_to(left, stack + left.shape[-2:]).transpose(
            keep + [nd] + fold + [nd + 1]).reshape(
                kept + (left.shape[-2], folded * left.shape[-1]))
        right = np.broadcast_to(right, stack + right.shape[-2:]).transpose(
            keep + fold + [nd, nd + 1]).reshape(
                kept + (folded * right.shape[-2], right.shape[-1]))
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
    sa, sb = a.shape, b.shape
    ka, kb = _other_sides(a, b)

    def vjp(g):
        ga = (_folded_matmul(g, np.swapaxes(_conj(kb), -1, -2), sa)
              if kb is not None else None)
        gb = (_folded_matmul(np.swapaxes(_conj(ka), -1, -2), g, sb)
              if ka is not None else None)
        return ga, gb

    return _node(out, (a, b), vjp, "matmul")


# about 384 KB of float64 per hidden tile in `mlp`
_MLP_TILE_FLOATS = 3 << 14


def _row_blocks(rows: int, row_floats: int, budget: int) -> list:
    """Slices of [0, rows) in order, each a multiple of 64 rows, at least
    64, that holds about `budget` floats at `row_floats` floats a row; the
    last takes the rest. `mlp`'s row tiles and `kernel_integral`'s pair
    blocks are these. Each row keeps its offset in the row blocks BLAS
    splits a product into, and so its dot products' kernel and order: a
    blocked product has the bytes of the whole one whatever the budget."""
    step = max(64, budget // max(1, row_floats) // 64 * 64)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _mlp_layers(x, weights, biases, op: str):
    """x, weights and biases as tensors, checked as `mlp` takes them: x real
    (..., w0), weights real (w_i, w_(i+1)) and biases (w_(i+1),), else
    ShapeError naming `op`."""
    x = as_tensor(x)
    weights, biases = [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]
    if (x.ndim < 2 or not weights or len(biases) != len(weights)
            or any(w.ndim != 2 or b.shape != w.shape[1:] for w, b in zip(weights, biases))
            or ([w.shape[0] for w in weights]
                != [x.shape[-1]] + [w.shape[1] for w in weights[:-1]])
            or any(np.iscomplexobj(t.data) for t in (x, *weights, *biases))):
        raise ShapeError(f"{op} cannot apply real layers {[w.shape for w in weights]} with "
                         f"biases {[b.shape for b in biases]} to {x.data.dtype} {x.shape}")
    return x, weights, biases


def _mlp_tile(h, weights, biases, out, phis=None) -> None:
    """One row tile of the MLP forward on plain arrays, its last product
    into `out`. Each hidden layer takes z = h @ w, adds its bias in place
    and writes Phi_t into the tile's rows of its buffer in `phis`, then
    h = z * Phi_t over z (taped); with no `phis`, Phi_t goes into a new
    buffer and h over it (untaped)."""
    for i, (w, b) in enumerate(zip(weights[:-1], biases)):
        h = h @ w
        h += b
        phi = _phi(h, out=None if phis is None else phis[i])
        h = np.multiply(h, phi, out=phi if phis is None else h)
    np.matmul(h, weights[-1], out=out)
    out += biases[-1]


def _mlp_hidden(x, weights, biases, phis, zs):
    """Recompute the hidden pre-activations z = h @ w; z += b of rows x into
    the arrays `zs` with the forward's products, h = z * Phi_t from the
    forward's `phis`; returns the top hidden output (x with no hidden
    layer)."""
    h = x
    for w, b, phi, z in zip(weights, biases, phis, zs):
        np.matmul(h, w, out=z)
        z += b
        h = z * phi
    return h


def _mlp_vjp(x, ws, bs, needs, phis, zs, h, g):
    """(gx, weight gradients, bias gradients) of the MLP for the output
    cotangent g: the vjps of `matmul`, the bias add and `gelu` layer by
    layer from the top, in the chain's order. x, ws and bs are the input,
    weight and bias arrays, and `needs` says which of (x, *ws, *bs) take a
    gradient (the others get None); zs (the hidden pre-activations) and h
    (the top hidden output) come from `_mlp_hidden` and are spent: h's
    buffer takes the GELU slope once its weight gradient is taken, so beside
    the pre-activations below this holds two hidden-size arrays at most."""
    n = len(ws)
    gx, gw, gb = None, [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        w = ws[i]
        if needs[1 + i]:
            gw[i] = _folded_matmul(np.swapaxes(h, -1, -2), g, w.shape)
        if needs[1 + n + i]:
            gb[i] = _unbroadcast(g, bs[i].shape)
        if i == 0:
            if needs[0]:
                gx = _folded_matmul(g, w.T, x.shape)
            break
        # h is spent: its buffer takes the slope of the GELU below
        slope = _gelu_slope(zs.pop(), phis[i - 1], out=h)
        slope *= _folded_matmul(g, w.T, h.shape)
        g = slope
        h = zs[-1] * phis[i - 2] if i > 1 else x
    return gx, gw, gb


def mlp(x, weights, biases) -> Tensor:
    """Pointwise MLP on the last axis as one node: per layer z = h @ w with
    the bias added in place, GELU between layers, linear output.

    x is real (..., w0); weights are real (w_i, w_(i+1)) and biases
    (w_(i+1),), else ShapeError. The node's parents are x, the weights and
    the biases, and its vjp keeps their arrays and each hidden layer's
    Phi_t buffer (the tanh form of `_phi`), and no pre-activation, GELU
    output or output: a taped forward writes h = z * Phi_t over z, an
    untaped one over Phi_t. The vjp recomputes each hidden z = h @ w;
    z += b with the forward's products (`_mlp_hidden`), then runs the vjps
    of `matmul`, the bias add and `gelu` layer by layer (`_mlp_vjp`), so
    forward and gradients have the bytes of a chain of `matmul`, `add` and
    `gelu` nodes.

    The forward runs every layer over one `_row_blocks` tile of the point
    axis (axis -2) at a time (`_mlp_tile`), so its hidden arrays stay in
    cache, with the bytes of an untiled forward. The vjp is not tiled.
    """
    x, weights, biases = _mlp_layers(x, weights, biases, "mlp")
    parents = (x, *weights, *biases)
    xs, ws, bs = x.data, [w.data for w in weights], [b.data for b in biases]
    needs = tuple(p.requires_grad for p in parents)
    taped = _GRAD_ENABLED and any(needs)
    widest = max(w.shape[1] for w in ws[:-1] or ws)
    out = np.empty(x.shape[:-1] + ws[-1].shape[1:])
    phis = [np.empty(x.shape[:-1] + w.shape[1:]) for w in ws[:-1]] if taped else []
    for blk in _row_blocks(x.shape[-2], math.prod(x.shape[:-2]) * widest, _MLP_TILE_FLOATS):
        tile = (..., blk, slice(None))
        _mlp_tile(xs[tile], ws, bs, out[tile],
                  [phi[tile] for phi in phis] if taped else None)

    def vjp(g):
        zs = [np.empty(phi.shape) for phi in phis]
        h = _mlp_hidden(xs, ws, bs, phis, zs)
        gx, gw, gb = _mlp_vjp(xs, ws, bs, needs, phis, zs, h, g)
        return (gx, *gw, *gb)

    return _node(out, parents, vjp, "mlp")


def sparse_matmul(s_mat, x: np.ndarray) -> np.ndarray:
    """s_mat @ x for a constant scipy CSR matrix and a plain array, returned
    as a plain array: no node is recorded. `kernel_integral` runs its four
    CSR products through this module-level name, which the benchmark's
    tracer wraps to time them."""
    return s_mat @ x


# about 2 MB of float64 per block array of values in `kernel_integral`
_PAIR_BLOCK_FLOATS = 1 << 18


def _group_rows(groups: int) -> int:
    """Rows of `kernel_integral`'s per-pair products for `groups` groups:
    the groups, with zero rows up to a multiple of 4 past 4. BLAS computes
    a small product's rows in blocks of 4 and a tail of 1 to 3, which may
    round otherwise (README's GNO notes), so a row's bytes would depend on
    where it sits; a multiple of 4 has no tail."""
    return groups if groups <= 4 else -(-groups // 4) * 4


def _group_buffer(a: np.ndarray, rows: int) -> np.ndarray:
    """Token values a (..., n, c) as (n, rows, c): row j is the j-th
    leading index of a in C order, and zero rows follow the groups."""
    *lead, n, c = a.shape
    out = np.zeros((n, rows, c))
    out[:, :math.prod(lead)] = a.reshape(math.prod(lead), n, c).transpose(1, 0, 2)
    return out


def _token_values(a: np.ndarray, lead: tuple) -> np.ndarray:
    """The inverse of `_group_buffer`: the groups of a (n, rows, c) as
    token values (*lead, n, c), a view of one C-ordered (n, groups, c)
    array (a copy of them if a has zero rows)."""
    groups = np.ascontiguousarray(a[:, :math.prod(lead)])
    return np.moveaxis(groups.reshape(len(a), *lead, a.shape[2]), 0, -2)


def _transposed_kernel(ws, bs, d_in: int):
    """The kernel MLP's weight and bias arrays with the last layer's columns
    reordered from (d_out, d_in) to (d_in, d_out): its product then writes
    each pair's matrix transposed, with the same bytes."""
    d_out = ws[-1].shape[1] // d_in
    cols = np.arange(d_out * d_in).reshape(d_out, d_in).T.ravel()
    return [*ws[:-1], ws[-1][:, cols]], [*bs[:-1], bs[-1][cols]]


def kernel_matrices(coords, weights, biases, d_in: int) -> np.ndarray:
    """The kernel MLP's matrices on every pair off the tape, the C-ordered
    (n_pairs, d_in, d_out) `matrices` of `kernel_integral`, written block by
    block over `_row_blocks` pair blocks with the bytes of a taped call's."""
    x, weights, biases = _mlp_layers(coords, weights, biases, "kernel_matrices")
    ws, bs = _transposed_kernel([w.data for w in weights], [b.data for b in biases], d_in)
    p, k_width = x.shape[0], ws[-1].shape[1]
    out = np.empty((p, d_in, k_width // d_in))
    for blk in _row_blocks(p, k_width, _PAIR_BLOCK_FLOATS):
        _mlp_tile(x.data[blk], ws, bs, out[blk].reshape(-1, k_width))
    return out


def kernel_integral(values, coords, weights, biases, bias, gather, scatter,
                    matrices=None) -> Tensor:
    """Graph-kernel integral of token values plus a bias, as one node.

    values are real token values (..., n_source, d_in), each leading index
    one group; coords (n_pairs, w0) are constant pair coordinates, which
    the kernel MLP (weights and biases as `mlp` takes them) maps to a
    pair's matrix, its last width d_out*d_in read as (d_out, d_in).
    `gather` (n_pairs, n_source) and `scatter` (n_query, n_pairs) are
    constant CSR pairs (matrix, its transpose as CSR) whose data carry any
    pair weights; every CSR product is a `sparse_matmul`. Returns
    (..., n_query, d_out): per group, the scatter of each pair's matrix
    times its gathered values, plus `bias` (d_out,). Complex values or
    bias, or operands of other shapes, raise ShapeError.

    The node's parents are the values, the weights, the biases and the
    bias. Its vjp keeps the values as zero-padded group columns (n_source,
    rows*d_in), the coords, the MLP's arrays and its hidden Phi_t buffers;
    no matrix, message or output. When only the bias takes a gradient, it
    keeps no Phi_t and its backward pass runs no pair block.

    Each pair's groups are the rows of one small product with its matrix,
    which the MLP writes as that product reads it (`_transposed_kernel`),
    with zero rows up to `_group_rows(groups)`: permuting the groups
    permutes the output and the values' gradient bitwise, save a width-1
    product with exactly 3 groups, which numpy makes matrix-vector. Both
    directions run over `_row_blocks` pair blocks, and the backward pass
    recomputes each block's hidden layers, matrices and gather; the sums
    over pairs run whole, so every byte is that of the unblocked chain
    `mlp`, `reshape`, CSR gather, per-pair product, CSR scatter, bias `add`.
    `matrices`, those of every pair (`kernel_matrices`, kept by
    `gno.KernelNet.matrices`), serve an untaped call with the same bytes; a
    call that records a node refuses them.
    """
    values, bias = as_tensor(values), as_tensor(bias)
    coords, weights, biases = _mlp_layers(coords, weights, biases, "kernel_integral")
    (g_mat, g_t), (s_mat, s_t) = gather, scatter
    *lead, n_s, d_in = values.shape if values.ndim > 1 else (0, 0)
    p, n_q, k_width = coords.shape[0], s_mat.shape[0], weights[-1].shape[1]
    d_out = k_width // max(d_in, 1)
    if (coords.ndim != 2 or d_in < 1 or k_width != d_out * d_in or bias.shape != (d_out,)
            or np.iscomplexobj(values.data) or np.iscomplexobj(bias.data)):
        raise ShapeError(f"kernel_integral needs real token values (..., n_source, d_in), pair "
                         f"coordinates (n_pairs, width), an MLP of last width d_out*d_in and a "
                         f"real bias (d_out,), got {values.data.dtype} {values.shape}, "
                         f"{coords.shape}, {k_width} and {bias.data.dtype} {bias.shape}")
    if g_mat.shape != (p, n_s) or s_mat.shape[1] != p:
        raise ShapeError(f"kernel_integral got {p} pair coordinates and values {values.shape} "
                         f"for a gather {g_mat.shape} and a scatter {s_mat.shape}")
    parents = (values, *weights, *biases, bias)
    need_values, *mlp_needs, need_bias = (t.requires_grad for t in parents)
    trains = any(mlp_needs)
    taped = _GRAD_ENABLED and (trains or need_values)
    if matrices is not None and matrices.shape != (p, d_in, d_out):
        raise ShapeError(f"kernel_integral got kernel matrices {matrices.shape} for "
                         f"{(p, d_in, d_out)}")
    if matrices is not None and (taped or _GRAD_ENABLED and need_bias):
        raise TrainingStateError("kernel_integral reads kernel matrices only off the tape")
    groups = math.prod(lead)
    rows = _group_rows(groups)
    vals, x = _group_buffer(values.data, rows).reshape(n_s, rows * d_in), coords.data
    ws, bs = [w.data for w in weights], [b.data for b in biases]
    blocks = _row_blocks(p, groups * max(d_in, d_out), _PAIR_BLOCK_FLOATS)
    phis = [np.empty((p, w.shape[1])) for w in ws[:-1]] if taped else []

    def gathered(blk):
        return sparse_matmul(g_mat[blk], vals).reshape(-1, rows, d_in)

    msgs = np.empty((p, rows, d_out))
    if matrices is None:
        ws_t, bs_t = _transposed_kernel(ws, bs, d_in)
        kt = np.empty((blocks[0].stop if blocks else 0, d_in, d_out))
    for blk in blocks:
        if matrices is None:
            blk_kt = kt[:blk.stop - blk.start]
            _mlp_tile(x[blk], ws_t, bs_t, blk_kt.reshape(-1, k_width),
                      [phi[blk] for phi in phis] if taped else None)
        else:
            blk_kt = matrices[blk]
        np.matmul(gathered(blk), blk_kt, out=msgs[blk])
    out = sparse_matmul(s_mat, msgs.reshape(p, rows * d_out)).reshape(n_q, rows, d_out)
    out = out[:, :groups] + bias.data

    def vjp(g):
        # the bias sums (n_query, groups, d_out) as the former chain's reshapes
        # laid it out (a view where numpy can make one, else a copy): the sum's
        # order follows the layout
        gb = (np.moveaxis(g, -2, 0).reshape(n_q, groups * d_out).reshape(n_q, groups, d_out)
              .sum(axis=(0, 1)) if need_bias else None)
        if not taped:
            return (None,) * (1 + 2 * len(ws)) + (gb,)
        g = _group_buffer(g, rows).reshape(n_q, rows * d_out)
        zs = [np.empty(phi.shape) for phi in phis]
        gk = np.empty((p, k_width)) if trains else None
        g_gath = np.empty((p, rows * d_in)) if need_values else None
        for blk in blocks:
            g_msgs = sparse_matmul(s_t[blk], g).reshape(-1, rows, d_out)
            h = _mlp_hidden(x[blk], ws, bs, [phi[blk] for phi in phis], [z[blk] for z in zs])
            if trains:
                np.matmul(np.swapaxes(g_msgs[:, :groups], -1, -2), gathered(blk)[:, :groups],
                          out=gk[blk].reshape(-1, d_out, d_in))
            if g_gath is not None:
                k = h @ ws[-1]
                k += bs[-1]
                np.matmul(g_msgs, k.reshape(-1, d_out, d_in),
                          out=g_gath[blk].reshape(-1, rows, d_in))
        gv = (None if g_gath is None else
              _token_values(sparse_matmul(g_t, g_gath).reshape(n_s, rows, d_in), lead))
        if not trains:
            return (gv,) + (None,) * (2 * len(ws)) + (gb,)
        h = zs[-1] * phis[-1] if zs else x
        # the coordinates are constant: they take no gradient
        _, gw, gb_mlp = _mlp_vjp(x, ws, bs, (False, *mlp_needs), phis, zs, h, gk)
        return (gv, *gw, *gb_mlp, gb)

    return _node(_token_values(out, lead), parents, vjp, "kernel_integral")


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
    shape, lead, c = a.shape, a.shape[:-2], a.shape[-1]
    n_total = float(np.prod(res))

    def vjp(g):
        w = _columns(modes[-1], n_total, n_total / 2)
        out = _grid(g.reshape((-1,) + band_axes + (c,)) * w, res)
        return (out.reshape(shape),)

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
    n_total, shape = float(np.prod(res)), band.shape

    def vjp(g):
        out = _band(g.reshape((-1,) + res + (c,)), modes)
        out *= _columns(modes[-1], 1.0 / n_total, 2.0 / n_total)
        return (out.reshape(shape),)

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
    shape, lead, c = a.shape, a.shape[:-2], a.shape[-1]
    n_old, n_new = float(np.prod(old_res)), float(np.prod(new_res))
    scale = n_new / n_old

    def vjp(g):
        band = _two_sided_band(g.reshape((-1,) + new_res + (c,)), modes)
        band /= n_new
        out = _two_sided_grid(band * scale, old_res)
        out *= n_old
        return (out.reshape(shape),)

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
    """Reverse sweep from a scalar loss over its graph nodes, freeing the
    tape as it goes.

    Each node hands its cotangent to its vjp as the only reference to it,
    so a vjp that replaces it (as `kernel_integral` does with its group
    columns) frees it, and drops its parents and its vjp once the vjp has
    run, so what only that vjp read is freed before the next vjp runs.
    Tensors the caller holds keep their `.data`. Leaves get `.grad`, and
    any tensors in `params` (a ParamStore or iterable of Tensors) that the
    graph never reached get zero gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = loss if loss._node is None else loss._node
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple] = [(root, False)]
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
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._vjp is None:
            continue
        # the vjp gets the only reference to its cotangent, so it can free it
        cotangent = [node.grad]
        node.grad = None  # nodes drop their cotangent; leaves keep theirs
        for parent, g in zip(node._parents, node._vjp(cotangent.pop())):
            if not parent.requires_grad or g is None:
                continue
            g = _match(parent, g)
            if g.shape != parent.shape:
                raise ShapeError(
                    f"vjp of {node._op!r} produced shape {g.shape} for {parent.shape}"
                )
            parent.grad = g if parent.grad is None else parent.grad + g
        node._parents = ()
        node._vjp = None
    if params is not None:
        tensors = params.tensors() if hasattr(params, "tensors") else list(params)
        for t in tensors:
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)


# -- parameter store ----------------------------------------------------------


class ParamStore:
    """Named parameter tensors in creation order. A parameter is frozen when
    its tensor needs no gradient: the tape keeps nothing for it, `backward`
    gives it none, and the optimizer leaves it alone."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array) -> Tensor:
        """Register a parameter. A writeable C-contiguous float64 array that
        owns its data (a freshly drawn weight, a checkpoint's freshly read
        buffer) becomes the parameter's buffer with no copy; anything else (a
        view, a broadcast array, another dtype) is copied into one. Training
        writes the buffer in place, so a caller that keeps using an array it
        hands over must hand over a copy."""
        if name in self._params:
            raise TrainingStateError(f"parameter {name!r} already exists")
        t = Tensor(np.require(array, np.float64, ["C", "W", "O"]), requires_grad=True)
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
        for name, t in self._params.items():
            if name.startswith(prefix):
                t.requires_grad = False

    def is_frozen(self, name: str) -> bool:
        return not self[name].requires_grad

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._params.items() if t.requires_grad]

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

    def __post_init__(self):
        check_settings(self, TrainingStateError, {
            "lr": POSITIVE, "beta1": (0, Open(1)), "beta2": (0, Open(1)),
            "eps": POSITIVE, "step": (0, None)})


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
               include=None) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Per-element relative error uses max(|ad|, |fd|, floor) in the denominator,
    where floor = 1e-3 * the global max gradient magnitude: central differences
    of an O(1) loss carry ~1e-10 absolute noise, so elements with gradients at
    that floor are compared on the scale where the comparison means something.
    Frozen parameters are reported as skipped; a name in `include` that the
    store lacks raises, so a stale name cannot pass by checking nothing. A
    `tol` that is not finite and at least 0, or a `step` that is not finite
    and above 0, raises TrainingStateError before any loss is evaluated.
    """
    tol = check_value("tol", float, tol, 0.0, None, TrainingStateError)
    step = check_value("step", float, step, Open(0), None, TrainingStateError)
    unknown = [n for n in include or () if n not in params]
    if unknown:
        raise TrainingStateError(f"cannot check unknown parameter {unknown[0]!r}")
    params.zero_grads()
    loss = loss_fn()
    backward(loss, params)
    ad = {n: params[n].grad.copy() for n in params.trainable_names()}
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
