"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps float64/complex128 data; every operation records a closure that
maps the output cotangent to input cotangents (micrograd-style tape, freed
after backward). Complex tensors use the convention grad = dL/dRe + i dL/dIm,
under which linear maps pull back through their conjugate transpose; gradients
of real tensors fed into complex ops keep only their real part.

Spectral paths (Fourier layers, resampling, the Fourier positional encoding)
reach FFTs only through the adjoint pair `fftn`/`ifftn`, and only the pair
knows the grid layout. Both speak token values (..., n_points, channels):
the points of a uniform grid of resolution (n1, ..., nd) in C order, after
any number of leading axes, none included, which are transformed as one
batch. Each op reshapes to (batch, n1, ..., nd, channels) and back inside its
forward and its vjp, so no caller records a reshape for the pair. The
forward FFT is unnormalized and the inverse carries the 1/N factor,
N = n1 * ... * nd. A band with modes (m1, ..., md) keeps, per axis k, the
bins [0, mk) followed by [nk - mk, nk) (the non-negative then the negative
frequencies), so `fftn` returns a band of shape
(..., 2*m1, ..., 2*md, channels) at every resolution nk >= 2*mk; `ifftn`
returns, as token values, the real part of the inverse of the band
zero-padded to the full grid. `_check_band` is the one check that a grid can
carry a band: both ops call it and it raises ModeCountError, so callers do
not repeat it.

`fftn` takes real values only (every spectral path starts from them) and
raises ShapeError on complex input. Neither op forms a full complex grid.
`fftn` runs rfft along the last grid axis, builds that axis's 2*md band
columns (the negative bins are conjugates of bins md..1, since each row is
real), then transforms every other axis on those columns only and cuts it
to its band.
`ifftn` zero-pads and inverse-transforms every axis but the last on the
2*md columns, folds each row to its Hermitian half and runs irfft, which in
exact arithmetic is the real part above. Each kernel serves one op's forward
and the other's vjp: `fftn`'s vjp is N times `ifftn` (a real cotangent) and
`ifftn`'s is `fftn` over N. The transforms are scipy.fft's, whose per-line
results do not depend on the other lines of a batch, so a batched call
equals its per-sample calls bit for bit, however its leading axes are
shaped.

No op checks its output for NaN or inf. The runs check the values they
depend on: the attention logits (model), the loss (training) and the global
gradient norm (`clip_grad_norm`).

Reductions across the token axis of the attention mechanism must be invariant
to input permutations at the bit level, so `ordered_sum` and the softmax
denominator sum their terms in value-sorted order (IEEE addition commutes but
does not associate).

Every contraction with a shared weight runs on BLAS through `matmul` with
tokens (or any axis the model permutes) on a stack axis: each stack element
is its own product of one shape, so permuting stack elements is bitwise. Not
so the rows of one product: BLAS may block a row's dot products by where the
row sits. `einsum2` is left for token-token contractions and quadrature.
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


def gelu(a) -> Tensor:
    """Exact GELU x * Phi(x) with the erf form; real inputs only."""
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("gelu is defined for real tensors")
    x = a.data
    cdf = x / np.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def vjp(g):
        # g * (x * pdf + cdf) with pdf = exp(-x*x/2) / sqrt(2 pi), in one buffer
        buf = -0.5 * x
        buf *= x
        np.exp(buf, out=buf)
        buf /= np.sqrt(2.0 * np.pi)
        buf *= x
        buf += cdf
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


def ordered_sum(a, axis: int) -> Tensor:
    """Sum along one axis in value-sorted order: bit-invariant to permutations."""
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("ordered_sum is defined for real tensors")
    out = np.sort(a.data, axis=axis).sum(axis=axis)

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


def _band(x: np.ndarray, modes) -> np.ndarray:
    """Retained band of the unnormalized FFT of a real (batch, n1..nd, c) grid.

    rfft along the last grid axis gives bins 0..n/2 of real rows, so the
    negative bins of the band are conjugates of bins m..1; every other axis
    is transformed on those 2*md columns only and cut to its band at once.
    """
    d, m = len(modes), modes[-1]
    half = sp_fft.rfft(x, axis=d)
    band = np.empty(half.shape[:d] + (2 * m,) + half.shape[d + 1:], np.complex128)
    band[..., :m, :] = half[..., :m, :]
    np.conjugate(half[..., m:0:-1, :], out=band[..., m:, :])
    for axis in range(d - 1, 0, -1):
        band = _take_band(sp_fft.fft(band, axis=axis, overwrite_x=True), axis,
                          modes[axis - 1])
    return band


def _grid(band: np.ndarray, res) -> np.ndarray:
    """Real (batch, n1..nd, c) grid: Re of the 1/N inverse FFT of the zero-padded band.

    Every axis but the last is zero-padded and inverse-transformed on the
    band's 2*md columns only. Each row y of columns then folds to the
    Hermitian half h that irfft reads: h[0] = y[0], h[k] = (y[k] +
    conj(y[-k])) / 2 for 0 < k < m, and h[m] = y[-m] (the Nyquist bin) when
    n = 2m, else conj(y[-m]) / 2. irfft reads the imaginary parts of h[0]
    and of a Nyquist bin as zero, so in exact arithmetic it returns the real
    part of the inverse FFT of the zero-padded row.
    """
    d, n = len(res), res[-1]
    y = band
    for axis in range(1, d):
        y = sp_fft.ifft(_zero_pad(y, axis, res[axis - 1]), axis=axis)
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


def _check_band(band_axes, resolution) -> None:
    if len(band_axes) != len(resolution):
        raise ShapeError(f"band {tuple(band_axes)} and grid {tuple(resolution)} "
                         "differ in dimension")
    for k, n in zip(band_axes, resolution):
        if k < 2 or k % 2 or n < k:
            raise ModeCountError(f"grid {tuple(resolution)} cannot carry band "
                                 f"{tuple(band_axes)}")


def fftn(a, resolution, modes) -> Tensor:
    """Retained band of the unnormalized forward FFT of real token values.

    a is (..., n_points, c) on a uniform grid of the given resolution; returns
    the complex (..., 2*m1, ..., 2*md, c) band in the layout of the module
    docstring. The vjp is N times `ifftn`'s forward, a real cotangent.
    """
    a = as_tensor(a)
    if np.iscomplexobj(a.data):
        raise ShapeError("fftn transforms real grids only")
    res = tuple(int(n) for n in resolution)
    band_axes = tuple(2 * int(m) for m in modes)
    _check_band(band_axes, res)
    if a.ndim < 2 or a.shape[-2] != int(np.prod(res)):
        raise ShapeError(f"bad input shape {a.shape} for grid {res}")
    lead, c = a.shape[:-2], a.shape[-1]
    n_total = float(np.prod(res))

    def vjp(g):
        out = _grid(g.reshape((-1,) + band_axes + (c,)), res)
        out *= n_total
        return (out.reshape(a.shape),)

    band = _band(a.data.reshape((-1,) + res + (c,)), tuple(k // 2 for k in band_axes))
    return _node(band.reshape(lead + band_axes + (c,)), (a,), vjp, "fftn")


def ifftn(band, resolution) -> Tensor:
    """Real (..., n_points, c) token values of a zero-padded band under the
    1/N inverse FFT on a grid of the given resolution.

    band is (..., 2*m1, ..., 2*md, c); the vjp is `fftn`'s forward divided by N.
    """
    band = as_tensor(band)
    res = tuple(int(n) for n in resolution)
    split = band.ndim - len(res) - 1
    lead, band_axes, c = band.shape[:split], band.shape[split:-1], band.shape[-1]
    _check_band(band_axes, res)
    modes = tuple(k // 2 for k in band_axes)
    n_total = float(np.prod(res))

    def vjp(g):
        out = _band(g.reshape((-1,) + res + (c,)), modes)
        out /= n_total
        return (out.reshape(band.shape),)

    out = _grid(band.data.reshape((-1,) + band_axes + (c,)), res)
    return _node(out.reshape(lead + (-1, c)), (band,), vjp, "ifftn")


def make_complex(re, im) -> Tensor:
    re, im = as_tensor(re), as_tensor(im)
    if np.iscomplexobj(re.data) or np.iscomplexobj(im.data):
        raise ShapeError("make_complex expects real parts")
    out = np.empty(np.broadcast_shapes(re.shape, im.shape), np.complex128)
    out.real = re.data
    out.imag = im.data

    def vjp(g):
        return np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)

    return _node(out, (re, im), vjp, "make_complex")


# -- graph traversal ----------------------------------------------------------


def backward(loss: Tensor, params=None) -> None:
    """Reverse sweep from a scalar loss; frees the tape afterwards.

    Any tensors in `params` (a ParamStore or iterable of Tensors) that the
    graph never reached get zero gradients.
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
    for node in reversed(topo):
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
    """One Adam update on every trainable parameter; frozen entries untouched."""
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
            m = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        t.data = t.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
    Frozen parameters are reported as skipped. `corrupt` perturbs one group's
    reverse-mode gradient before comparing (a hook for testing the checker).
    """
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
