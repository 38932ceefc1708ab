"""Pointwise and Fourier-space operators on token batches.

Operator objects are descriptors: they hold a parameter name prefix and the
layer dimensions, while the actual arrays live in a ParamStore. Everything
takes batched token values of shape (..., n_points, channels), with any
leading sample and token axes, so that one shared operator applies across
them (permutation equivariance by weight sharing). Fourier layers and
spectral_resample move through Fourier space with the taped ops of autodiff
(the half-band pair ad.fftn/ad.ifftn and the two-sided ad.resample), which
take and return these token values and alone know the grid layout; the
autodiff module docstring states their convention and band layouts. The
GNO apply (gno.gno_set_apply) takes the same token values, so the model
moves one layout, one token per variable, from lift to projection.
spectral_resample is the package's one band-limited resampler;
field.resample runs it on GridFunctions without a tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ModeCountError, ShapeError


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-scaled normal init of a (fan_in, fan_out) weight."""
    return rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))


class PointwiseOp:
    """Shared MLP applied independently at every point (maps the last axis).

    widths = (d_in, hidden..., d_out); GELU between layers, linear output.
    The whole MLP is one ad.mlp node, which keeps each hidden layer's Phi_t
    buffer and recomputes the pre-activations in its backward pass.
    """

    def __init__(self, name: str, widths):
        if len(widths) < 2:
            raise ShapeError("PointwiseOp needs at least input and output widths")
        self.name = name
        self.widths = tuple(int(w) for w in widths)

    def init_params(self, store: ad.ParamStore, rng) -> None:
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            store.add(f"{self.name}.w{i}", glorot(rng, a, b))
            store.add(f"{self.name}.b{i}", np.zeros(b))

    def param_shapes(self) -> dict:
        """Name -> shape of each parameter init_params creates, in its order."""
        shapes = {}
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            shapes[f"{self.name}.w{i}"] = (a, b)
            shapes[f"{self.name}.b{i}"] = (b,)
        return shapes

    def __call__(self, store: ad.ParamStore, x: ad.Tensor) -> ad.Tensor:
        if x.shape[-1] != self.widths[0]:
            raise ShapeError(
                f"{self.name}: expected last axis {self.widths[0]}, got {x.shape[-1]}"
            )
        return ad.mlp(x, *self.layers(store))

    def layers(self, store: ad.ParamStore) -> tuple[list, list]:
        """(weights, biases) of the layers in order, as ad.mlp takes them."""
        n_layers = range(len(self.widths) - 1)
        return ([store[f"{self.name}.w{i}"] for i in n_layers],
                [store[f"{self.name}.b{i}"] for i in n_layers])


class FnoBlock:
    """One Fourier layer: spectral multiply on a retained band + pointwise bypass.

    Input (..., n_points, d_in) on a uniform 2-D grid, its leading axes
    transformed as one FFT batch; `modes` is m for both axes or (m1, m2).
    The complex weights act on the retained half band (..., 2*m1, m2, d_in)
    of ad.fftn, so they have shape (2*m1, m2, d_in, d_out) and are
    resolution-independent. The last axis keeps the non-negative bins only,
    which is all a real output can use. They are stored as one real `spec`
    of (re, im) pairs, shape (2*m1, m2, d_in, d_out, 2), and read through
    ad.complex_view.

    d_out may be a tuple of widths: the blocks of those widths side by side,
    one FFT pair for all, with their outputs concatenated in that order. Each
    part's weights are drawn as its own block would draw them, part by part.
    """

    def __init__(self, name: str, d_in: int, d_out, modes, activation: bool = True):
        self.name = name
        self.d_in = int(d_in)
        self.parts = tuple(int(w) for w in np.atleast_1d(d_out))
        self.d_out = sum(self.parts)
        self.modes = tuple(int(m) for m in np.broadcast_to(np.atleast_1d(modes), (2,)))
        if any(m < 1 for m in self.modes):
            raise ModeCountError(f"retained modes must be >= 1, got {self.modes}")
        self.activation = activation

    def init_params(self, store: ad.ParamStore, rng) -> None:
        shape = self.param_shapes()[f"{self.name}.spec"]
        spec = store.add(f"{self.name}.spec", np.zeros(shape)).data
        byp = store.add(f"{self.name}.byp_w", np.zeros(shape[-3:-1])).data
        lo = 0
        for w in self.parts:
            scale = 1.0 / np.sqrt(self.d_in * w)
            spec[..., lo:lo + w, 0] = rng.standard_normal(shape[:-2] + (w,)) * scale
            spec[..., lo:lo + w, 1] = rng.standard_normal(shape[:-2] + (w,)) * scale
            byp[:, lo:lo + w] = glorot(rng, self.d_in, w)
            lo += w
        store.add(f"{self.name}.bias", np.zeros(self.d_out))

    def param_shapes(self) -> dict:
        """Name -> shape of each parameter init_params creates, in its order."""
        m1, m2 = self.modes
        return {f"{self.name}.spec": (2 * m1, m2, self.d_in, self.d_out, 2),
                f"{self.name}.byp_w": (self.d_in, self.d_out),
                f"{self.name}.bias": (self.d_out,)}

    def __call__(self, store: ad.ParamStore, x: ad.Tensor, resolution) -> ad.Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(
                f"{self.name}: expected last axis {self.d_in}, got {x.shape[-1]}")
        band = ad.fftn(x, resolution, self.modes)
        w = ad.complex_view(store[f"{self.name}.spec"])
        # one (1, d_in) @ (d_in, d_out) product per (batch, mode)
        mixed = ad.matmul(ad.reshape(band, band.shape[:-1] + (1, self.d_in)), w)
        mixed = ad.reshape(mixed, band.shape[:-1] + (self.d_out,))
        out = ad.ifftn(mixed, resolution) + ad.matmul(x, store[f"{self.name}.byp_w"])
        out = out + store[f"{self.name}.bias"]
        if self.activation:
            out = ad.gelu(out)
        return out


def spectral_resample(x: ad.Tensor, old_res, new_res) -> ad.Tensor:
    """Differentiable band-limited resampling between uniform grids.

    x is (..., n_old, c), its leading axes resampled as one FFT batch; exact
    when the field is band-limited under both Nyquist bands. One ad.resample
    node on the two-sided band, not the half band of the FFT pair: per axis
    the bins [0, m) and [n - m, n) with m = min(old, new) // 2 carry over.
    """
    if tuple(old_res) == tuple(new_res):
        return x
    return ad.resample(x, old_res, new_res)
