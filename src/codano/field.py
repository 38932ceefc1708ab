"""Meshes, sampled vector fields, quadrature, and spectral grid utilities.

Everything downstream (operators, training, simulators) speaks in terms of a
Mesh plus a GridFunction: points with quadrature weights, and per-point channel
values. Uniform grids use the unnormalized-forward / 1/n-inverse FFT convention
throughout. Resampling a GridFunction between grids is the model's own
spectral_resample, run without a tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import MeshError, ModeCountError, NumericError, ShapeError
from .spectral import spectral_resample

DEFAULT_EXTENT = 2.0 * np.pi


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Mesh:
    """A point set over a rectangular box [0, extent_1) x ... with quadrature weights.

    Uniform grids sample index * extent / n per axis (C order, first axis slowest)
    and carry equal weights (cell volume). Irregular meshes are point clouds with
    Monte-Carlo weights |D| / n by default.
    """

    points: np.ndarray
    quad_weights: np.ndarray
    extents: tuple[float, ...]
    resolution: tuple[int, ...] | None = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "mesh points")
        w = _as_float_array(self.quad_weights, "quadrature weights")
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ShapeError(f"points must be (n, dim) with n >= 1, got {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ShapeError("quad_weights must be one weight per point")
        if np.any(w <= 0):
            raise MeshError("quadrature weights must be positive")
        ext = tuple(float(e) for e in self.extents)
        if len(ext) != pts.shape[1] or any(e <= 0 for e in ext):
            raise MeshError(f"bad extents {ext} for dim {pts.shape[1]}")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if np.any(lo < -1e-12) or np.any(hi > np.asarray(ext) + 1e-12):
            raise MeshError("mesh points outside the declared domain box")
        measure = float(np.prod(ext))
        if abs(float(w.sum()) - measure) > 1e-10 * measure:
            raise MeshError("quadrature weights do not sum to the domain measure")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "quad_weights", w)
        object.__setattr__(self, "extents", ext)
        if self.resolution is not None:
            object.__setattr__(self, "resolution", tuple(int(n) for n in self.resolution))

    @classmethod
    def uniform(cls, resolution, extents=None) -> "Mesh":
        """Uniform grid over [0, extent)^dim; default extent 2*pi per axis."""
        res = tuple(int(n) for n in np.atleast_1d(resolution))
        if any(n < 1 for n in res):
            raise MeshError(f"bad resolution {res}")
        if extents is None:
            extents = (DEFAULT_EXTENT,) * len(res)
        ext = tuple(float(e) for e in np.atleast_1d(extents))
        axes = [np.arange(n) * (e / n) for n, e in zip(res, ext)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(res))
        cell = float(np.prod([e / n for n, e in zip(res, ext)]))
        w = np.full(pts.shape[0], cell)
        return cls(points=pts, quad_weights=w, extents=ext, resolution=res)

    @classmethod
    def irregular(cls, points, extents, quad_weights=None) -> "Mesh":
        """Point cloud over a declared box; Monte-Carlo weights |D|/n by default."""
        pts = np.asarray(points, dtype=np.float64)
        ext = tuple(float(e) for e in np.atleast_1d(extents))
        if quad_weights is None:
            measure = float(np.prod(ext))
            quad_weights = np.full(pts.shape[0], measure / pts.shape[0])
        return cls(points=pts, quad_weights=quad_weights, extents=ext, resolution=None)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_uniform(self) -> bool:
        return self.resolution is not None

    @property
    def measure(self) -> float:
        return float(np.prod(self.extents))

    @property
    def spacing(self) -> tuple[float, ...]:
        if not self.is_uniform:
            raise MeshError("spacing is only defined for uniform grids")
        return tuple(e / n for e, n in zip(self.extents, self.resolution))

    def same(self, other: "Mesh") -> bool:
        """True when two meshes describe the same point set and weights."""
        if self is other:
            return True
        return (
            self.extents == other.extents
            and self.resolution == other.resolution
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.quad_weights, other.quad_weights)
        )


@dataclass(frozen=True)
class GridFunction:
    """Channel values sampled at every mesh point; values are immutable."""

    mesh: Mesh
    values: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        vals = _as_float_array(self.values, "field values")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.mesh.n_points:
            raise ShapeError(
                f"values must be (n_points, channels); got {vals.shape} on "
                f"{self.mesh.n_points} points"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != vals.shape[1]:
                raise ShapeError("one name per channel required")
            if len(set(names)) != len(names):
                raise ShapeError(f"duplicate channel names in {names}")
            object.__setattr__(self, "names", names)

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, name: str) -> np.ndarray:
        from .errors import UnknownVariableError

        if self.names is None or name not in self.names:
            raise UnknownVariableError(f"no channel named {name!r}")
        return self.values[:, self.names.index(name)]

    def select(self, names) -> "GridFunction":
        """Reorder/subset channels by name (name-based binding)."""
        cols = [self.names.index(n) if self.names and n in self.names else None for n in names]
        from .errors import UnknownVariableError

        if any(c is None for c in cols):
            missing = [n for n, c in zip(names, cols) if c is None]
            raise UnknownVariableError(f"missing channels {missing}")
        return GridFunction(self.mesh, self.values[:, cols], tuple(names))

    def grid_values(self) -> np.ndarray:
        """Values reshaped to (*resolution, channels); uniform meshes only."""
        if not self.mesh.is_uniform:
            raise MeshError("grid_values needs a uniform mesh")
        return self.values.reshape(*self.mesh.resolution, self.n_channels)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Quadrature L2 inner product sum_i <f_i, g_i> q_i over all channels."""
    if not f.mesh.same(g.mesh):
        raise ShapeError("inner_product requires both fields on the same mesh")
    if f.n_channels != g.n_channels:
        raise ShapeError("inner_product requires matching channel counts")
    return float(np.einsum("nc,nc,n->", f.values, g.values, f.mesh.quad_weights))


def fft_forward(f: GridFunction) -> np.ndarray:
    """Unnormalized forward FFT over the grid axes; returns (*res, channels) complex."""
    if not f.mesh.is_uniform:
        raise MeshError("fft_forward needs a uniform mesh")
    vals = f.grid_values()
    axes = tuple(range(f.mesh.dim))
    return np.fft.fftn(vals, axes=axes)


def _normalize_modes(modes, resolution) -> tuple[int, ...]:
    m = tuple(int(v) for v in np.broadcast_to(np.atleast_1d(modes), (len(resolution),)))
    for mi, ni in zip(m, resolution):
        if mi < 1:
            raise ModeCountError(f"retained modes must be >= 1, got {mi}")
        if mi > ni // 2:
            raise ModeCountError(f"{mi} modes exceed the Nyquist count {ni // 2} at n={ni}")
    return m


def resample(f: GridFunction, new_resolution) -> GridFunction:
    """Change grid resolution by exact band-limited spectral transfer.

    Runs spectral.spectral_resample without recording a tape: per axis the
    FFT bins [0, m) and [n-m, n) with m = min(old, new) // 2 carry over.
    """
    if not f.mesh.is_uniform:
        raise MeshError("resample needs a uniform source grid")
    new_res = tuple(int(n) for n in np.atleast_1d(new_resolution))
    if len(new_res) != f.mesh.dim:
        raise ShapeError("new_resolution must give one size per axis")
    new_mesh = Mesh.uniform(new_res, f.mesh.extents)
    with ad.no_grad():
        out = spectral_resample(ad.Tensor(f.values[None]), f.mesh.resolution,
                                new_res)
    return GridFunction(new_mesh, out.data[0], f.names)


@dataclass(frozen=True)
class SpectrumResult:
    """Shell-integrated energy spectrum over integer radial wavenumber bins."""

    k: np.ndarray
    energy: np.ndarray
    mode_count: np.ndarray
    total_energy: float


def radial_energy_spectrum(f: GridFunction) -> SpectrumResult:
    """E(k) with 0.5*|u|^2 density; sum over bins equals the quadrature energy."""
    if not f.mesh.is_uniform or f.mesh.dim != 2:
        raise MeshError("radial_energy_spectrum needs a uniform 2D grid")
    res = f.mesh.resolution
    spec = fft_forward(f)
    # cellvol/N scaling makes sum_k equal the physical quadrature energy (Parseval).
    cell = np.prod([e / n for e, n in zip(f.mesh.extents, res)])
    density = 0.5 * (np.abs(spec) ** 2).sum(axis=-1) * (cell / np.prod(res))
    kx = np.fft.fftfreq(res[0], d=1.0 / res[0])
    ky = np.fft.fftfreq(res[1], d=1.0 / res[1])
    kr = np.rint(np.hypot(*np.meshgrid(kx, ky, indexing="ij"))).astype(int)
    kmax = int(kr.max())
    energy = np.bincount(kr.ravel(), weights=density.ravel(), minlength=kmax + 1)
    count = np.bincount(kr.ravel(), minlength=kmax + 1)
    return SpectrumResult(
        k=np.arange(kmax + 1),
        energy=energy,
        mode_count=count,
        total_energy=float(energy.sum()),
    )


def _symmetric_band_mask(resolution, modes) -> np.ndarray:
    """Keep wavenumbers |k| <= m - 1 per axis (strictly inside the retained band)."""
    m = _normalize_modes(modes, resolution)
    mask = np.ones((), dtype=bool)
    for mi, ni in zip(m, resolution):
        ax = np.zeros(ni, dtype=bool)
        ax[:mi] = True
        if mi > 1:
            ax[ni - (mi - 1):] = True
        mask = mask[..., None] & ax
    return mask


def random_band_limited(mesh: Mesh, modes, channels: int, rng, scale: float = 1.0,
                        names=None) -> GridFunction:
    """Seeded random field whose spectrum sits strictly inside |k| <= modes - 1."""
    if not mesh.is_uniform:
        raise MeshError("random_band_limited needs a uniform mesh")
    res = mesh.resolution
    inner = _symmetric_band_mask(res, modes)
    n_in = int(inner.sum())
    spec = np.zeros(res + (channels,), dtype=complex)
    coeffs = rng.standard_normal((n_in, channels)) + 1j * rng.standard_normal((n_in, channels))
    spec[inner] = coeffs
    vals = np.fft.ifftn(spec, axes=tuple(range(mesh.dim))).real
    vals = vals.reshape(mesh.n_points, channels)
    sd = vals.std()
    if sd > 0:
        vals = vals * (scale / sd)
    return GridFunction(mesh, vals, names)
