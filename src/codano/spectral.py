"""Pointwise and Fourier-space operators on token batches.

Operator objects are descriptors: they hold a parameter name prefix and the
layer dimensions, while the actual arrays live in a ParamStore. Everything
takes batched token values of shape (..., n_points, channels), with any
leading sample and token axes, so that one shared operator applies across
them (permutation equivariance by weight sharing). Fourier layers and
spectral_resample move through Fourier space with ad.fftn/ad.ifftn, which
take and return these token values and alone know the grid layout; the
autodiff module docstring states their convention and retained-band layout.
spectral_resample is the package's one band-limited resampler;
field.resample runs it on GridFunctions without a tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ModeCountError, ShapeError


def glorot(rng, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Glorot-scaled normal init."""
    shape = (fan_in, fan_out) if shape is None else shape
    return rng.standard_normal(shape) * np.sqrt(2.0 / (fan_in + fan_out))


class PointwiseOp:
    """Shared MLP applied independently at every point (maps the last axis).

    widths = (d_in, hidden..., d_out); GELU between layers, linear output.
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

    def param_names(self) -> list[str]:
        n_layers = len(self.widths) - 1
        return [f"{self.name}.{k}{i}" for i in range(n_layers) for k in ("w", "b")]

    def __call__(self, store: ad.ParamStore, x: ad.Tensor) -> ad.Tensor:
        if x.shape[-1] != self.widths[0]:
            raise ShapeError(
                f"{self.name}: expected last axis {self.widths[0]}, got {x.shape[-1]}"
            )
        n_layers = len(self.widths) - 1
        for i in range(n_layers):
            x = ad.matmul(x, store[f"{self.name}.w{i}"]) + store[f"{self.name}.b{i}"]
            if i < n_layers - 1:
                x = ad.gelu(x)
        return x


class FnoBlock:
    """One Fourier layer: spectral multiply on a retained band + pointwise bypass.

    Input (..., n_points, d_in) with a uniform grid resolution, its leading
    axes transformed as one FFT batch; the complex weights act on the
    retained band (..., 2*m1, ..., 2*md, d_in) of ad.fftn, so they have shape
    (2*m1, ..., 2*md, d_in, d_out) and are resolution-independent. Complex
    weights are stored as paired real tensors.
    """

    def __init__(self, name: str, d_in: int, d_out: int, modes, dim: int = 2,
                 activation: bool = True):
        self.name = name
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.modes = tuple(int(m) for m in np.broadcast_to(np.atleast_1d(modes), (dim,)))
        if any(m < 1 for m in self.modes):
            raise ModeCountError(f"retained modes must be >= 1, got {self.modes}")
        self.activation = activation

    def init_params(self, store: ad.ParamStore, rng) -> None:
        shape = tuple(2 * m for m in self.modes) + (self.d_in, self.d_out)
        scale = 1.0 / np.sqrt(self.d_in * self.d_out)
        store.add(f"{self.name}.spec_re", rng.standard_normal(shape) * scale)
        store.add(f"{self.name}.spec_im", rng.standard_normal(shape) * scale)
        store.add(f"{self.name}.byp_w", glorot(rng, self.d_in, self.d_out))
        store.add(f"{self.name}.bias", np.zeros(self.d_out))

    def param_names(self) -> list[str]:
        return [f"{self.name}.{k}" for k in ("spec_re", "spec_im", "byp_w", "bias")]

    def __call__(self, store: ad.ParamStore, x: ad.Tensor, resolution) -> ad.Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(
                f"{self.name}: expected last axis {self.d_in}, got {x.shape[-1]}")
        band = ad.fftn(x, resolution, self.modes)
        w = ad.make_complex(store[f"{self.name}.spec_re"], store[f"{self.name}.spec_im"])
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
    when the field is band-limited under both Nyquist bands.
    """
    old_res, new_res = tuple(old_res), tuple(new_res)
    if old_res == new_res:
        return x
    m = tuple(min(a, b) // 2 for a, b in zip(old_res, new_res))
    if min(m) < 1:
        raise ModeCountError(f"{old_res} -> {new_res} keeps no modes on an axis")
    scale = float(np.prod(new_res) / np.prod(old_res))
    return ad.ifftn(ad.fftn(x, old_res, m) * scale, new_res)
