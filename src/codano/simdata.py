"""Self-contained PDE data generators and the portable dataset container.

Kolmogorov flow: pseudo-spectral vorticity formulation on [0, 2pi]^2 with a
semi-implicit step (Crank-Nicolson viscosity, Adams-Bashforth-2 advection) and
2/3 dealiasing; velocities come from the streamfunction, so incompressibility
holds to spectral accuracy. The fields are real, so the state lives on the
real half spectrum (rfft along y), and each substep makes one batched inverse
transform for u_x, u_y and the vorticity gradient and one forward transform of
the advection term.

Rayleigh-Benard convection: primitive-variable finite differences on a 2:1
box, upwind advection, explicit central diffusion, Boussinesq buoyancy, and a
pressure projection solved by FFT in the periodic direction and a Neumann
tridiagonal system between the walls per x-mode. The per-mode systems never
change, so each simulation builds them once, stacked into one block-diagonal
banded matrix, and every substep solves all modes in a single tridiagonal solve.

Container file format (used for datasets and checkpoints alike): magic "CDNO",
u32 little-endian version, u64 length-prefixed UTF-8 JSON header, then per
buffer raw little-endian float64 bytes followed by an 8-byte blake2b checksum.
A write goes to a temporary file beside the target and replaces the target
only once complete, so a crash mid-write leaves the previous file intact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg
from scipy import fft as sp_fft

from .errors import (POSITIVE, ChecksumError, DatasetSchemaError,
                     FormatVersionError, FractionError, ShapeError,
                     StabilityError, TruncatedFileError, check_settings)
from .field import DEFAULT_EXTENT, GridFunction, Mesh, random_band_limited

MAGIC = b"CDNO"
FORMAT_VERSION = 1

# Rayleigh number mapping at fixed geometry: the wall gap is L_y = 1 and the
# imposed temperature difference is 1, so Ra = alpha_g * L_y^3 * dT / (nu *
# kappa) = alpha_g / (nu * kappa). With nu = kappa = 0.01 the labeled Ra is
# reached by alpha_g = Ra * 1e-4.
RB_PRESETS = {
    "ra12k": dict(nu=0.01, kappa=0.01, alpha_g=1.2),
    "ra20k": dict(nu=0.01, kappa=0.01, alpha_g=2.0),
}


@dataclass
class SimConfig:
    system: str = "kolmogorov"
    resolution: tuple[int, int] = (64, 64)
    dt: float = 0.2                 # snapshot interval
    snapshots: int = 200
    re: float = 500.0               # kolmogorov viscosity = 1/re
    forcing_n: int = 4
    forcing_amplitude: float = 1.0
    ic_scale: float = 1.0           # kolmogorov initial vorticity amplitude
    nu: float = 0.01                # rayleigh-benard
    kappa: float = 0.01
    alpha_g: float = 1.2
    warmup: float = 0.0             # time to integrate before the first snapshot
    cfl_safety: float = 0.5
    seed: int = 0

    def __post_init__(self):
        res = self.resolution
        if isinstance(res, int) or isinstance(res, (list, tuple)) and len(res) == 1:
            self.resolution = (res if isinstance(res, int) else res[0],) * 2
        check_settings(self, ShapeError, {
            "resolution": (4, None), "dt": POSITIVE, "snapshots": (1, None),
            "re": POSITIVE, "nu": POSITIVE, "kappa": POSITIVE, "warmup": (0, None),
            "cfl_safety": POSITIVE, "seed": (0, None)})
        if self.system not in ("kolmogorov", "rayleigh-benard"):
            raise ShapeError(f"unknown system {self.system!r}")
        for n in self.resolution:
            if n & (n - 1):
                raise ShapeError(f"resolution {n} is not a power of two")


@dataclass
class DatasetContainer:
    variables: tuple
    mesh: Mesh
    snapshots: np.ndarray           # (n_snapshots, n_points, n_variables)
    dt: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        s = self.snapshots
        if s.ndim != 3 or s.shape[1] != self.mesh.n_points \
                or s.shape[2] != len(self.variables):
            raise ShapeError(
                f"snapshot array {s.shape} does not match mesh/variables")

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    def function(self, i: int) -> GridFunction:
        return GridFunction(self.mesh, self.snapshots[i], names=self.variables)

    def select_variables(self, names) -> "DatasetContainer":
        names = tuple(names)
        missing = [v for v in names if v not in self.variables]
        if missing:
            raise DatasetSchemaError(f"dataset lacks variables {missing}")
        idx = [self.variables.index(v) for v in names]
        return DatasetContainer(names, self.mesh,
                                np.ascontiguousarray(self.snapshots[:, :, idx]),
                                self.dt, dict(self.provenance))


# -- Kolmogorov flow ----------------------------------------------------------


def _kolmogorov_wavenumbers(n: int):
    """(n, n//2+1) wavenumber arrays of the real half spectrum: kx, ky, |k|^2,
    1/|k|^2 (0 at the mean) and the 2/3 dealiasing mask."""
    kx, ky = np.meshgrid(np.fft.fftfreq(n, d=1.0 / n),
                         np.fft.rfftfreq(n, d=1.0 / n), indexing="ij")
    ksq = kx ** 2 + ky ** 2
    inv_ksq = np.zeros_like(ksq)
    inv_ksq[ksq > 0] = 1.0 / ksq[ksq > 0]
    cutoff = n // 3
    dealias = (np.abs(kx) <= cutoff) & (np.abs(ky) <= cutoff)
    return kx, ky, ksq, inv_ksq, dealias


def simulate_kolmogorov(cfg: SimConfig) -> DatasetContainer:
    """Forced 2D turbulence in vorticity form; variables u_x, u_y."""
    nx, ny = cfg.resolution
    if nx != ny:
        raise ShapeError("kolmogorov flow needs a square grid")
    n = nx
    h = DEFAULT_EXTENT / n
    nu = 1.0 / cfg.re
    kx, ky, ksq, inv_ksq, dealias = _kolmogorov_wavenumbers(n)
    # rows u_x, u_y, d(omega)/dx, d(omega)/dy of the dealiased vorticity;
    # the velocities come from the streamfunction psi = omega / |k|^2
    mult = np.stack([1j * ky * inv_ksq, -1j * kx * inv_ksq,
                     1j * kx, 1j * ky]) * dealias
    buf = np.empty_like(mult)

    mesh = Mesh.uniform((n, n))
    y = mesh.points[:, 1].reshape(n, n)
    forcing = -cfg.forcing_amplitude * cfg.forcing_n * np.cos(cfg.forcing_n * y)
    f_hat = sp_fft.rfftn(forcing) * dealias

    rng = np.random.default_rng(cfg.seed)
    if cfg.ic_scale == 0:
        omega_hat = np.zeros(ksq.shape, dtype=complex)
    else:
        ic = random_band_limited(mesh, modes=4, channels=1, rng=rng,
                                 scale=cfg.ic_scale)
        omega_hat = sp_fft.rfftn(ic.values[:, 0].reshape(n, n))

    def nonlinear(om_hat):
        np.multiply(mult, om_hat, out=buf)
        ux, uy, gx, gy = sp_fft.irfftn(buf, s=(n, n), axes=(1, 2))
        return -sp_fft.rfftn(ux * gx + uy * gy) * dealias, max(
            np.abs(ux).max(), np.abs(uy).max())

    def advance(om_hat, n_prev, interval):
        remaining = interval
        while remaining > 1e-14:
            n_cur, umax = nonlinear(om_hat)
            limit = cfg.cfl_safety * h / max(umax, 1e-12)
            if interval / limit > 100000:
                raise StabilityError(
                    "kolmogorov CFL bound needs more than 100000 substeps "
                    "per interval; the flow is blowing up")
            dt_sub = min(limit, remaining)
            if n_prev is None:
                n_prev = n_cur
            rhs = (om_hat * (1.0 - 0.5 * dt_sub * nu * ksq)
                   + dt_sub * (1.5 * n_cur - 0.5 * n_prev)
                   + dt_sub * f_hat)
            om_hat = rhs / (1.0 + 0.5 * dt_sub * nu * ksq)
            n_prev = n_cur
            if not np.all(np.isfinite(om_hat)):
                raise StabilityError(
                    "kolmogorov vorticity became non-finite (CFL bound violated)")
            remaining -= dt_sub
        return om_hat, n_prev

    n_prev = None
    if cfg.warmup > 0:
        omega_hat, n_prev = advance(omega_hat, n_prev, cfg.warmup)

    frames = np.empty((cfg.snapshots, n * n, 2))

    def record(i, om_hat):
        np.multiply(mult[:2], om_hat, out=buf[:2])
        frames[i] = sp_fft.irfftn(buf[:2], s=(n, n), axes=(1, 2)).reshape(2, -1).T

    record(0, omega_hat)
    for i in range(1, cfg.snapshots):
        omega_hat, n_prev = advance(omega_hat, n_prev, cfg.dt)
        record(i, omega_hat)

    return DatasetContainer(("u_x", "u_y"), mesh, frames, cfg.dt,
                            provenance=asdict(cfg))


# -- Rayleigh-Benard convection ----------------------------------------------


def rb_mesh(resolution, box=(2.0, 1.0)) -> Mesh:
    """Wall-resolving grid: nodes sit on both walls, x is periodic.

    The y spacing is L_y/(ny-1) so the declared mesh extent is ny*hy; the last
    row of points lies exactly on the top wall.
    """
    nx, ny = resolution
    lx, ly = box
    hy = ly / (ny - 1)
    return Mesh.uniform((nx, ny), extents=(lx, ny * hy))


def simulate_rayleigh_benard(cfg: SimConfig, box=(2.0, 1.0)) -> DatasetContainer:
    """Buoyant convection between a hot floor (T=1) and a cold lid (T=0)."""
    nx, ny = cfg.resolution
    lx, ly = box
    hx, hy = lx / nx, ly / (ny - 1)
    mesh = rb_mesh(cfg.resolution, box)
    y = np.linspace(0.0, ly, ny)

    u = np.zeros((nx, ny))
    v = np.zeros((nx, ny))
    t_field = np.tile(1.0 - y / ly, (nx, 1))
    xg = mesh.points[:, 0].reshape(nx, ny)
    yg = np.tile(y, (nx, 1))
    blob = 0.1 * ly
    t_field[(xg - lx / 4) ** 2 + (yg - ly / 4) ** 2 <= blob ** 2] = 1.0
    t_field[(xg - lx / 2) ** 2 + (yg - ly / 2) ** 2 <= blob ** 2] = -1.0
    _rb_bcs(u, v, t_field)

    pressure_ab = _pressure_operator(nx, ny, hx, hy)

    frames = np.empty((cfg.snapshots, nx * ny, 3))

    def record(i):
        frames[i, :, 0] = u.reshape(-1)
        frames[i, :, 1] = v.reshape(-1)
        frames[i, :, 2] = t_field.reshape(-1)

    def step_interval(interval):
        nonlocal u, v, t_field
        remaining = interval
        while remaining > 1e-14:
            speed = max(np.abs(u).max() / hx + np.abs(v).max() / hy, 1e-12)
            adv_limit = 1.0 / speed
            diff_limit = 0.25 / (max(cfg.nu, cfg.kappa)
                                 * (1.0 / hx ** 2 + 1.0 / hy ** 2))
            dt = min(cfg.cfl_safety * min(adv_limit, diff_limit), remaining)
            if interval / dt > 1e6:
                raise StabilityError(
                    "rayleigh-benard CFL bound collapsed (flow blowing up)")
            _rb_substep(u, v, t_field, dt, cfg, hx, hy, pressure_ab)
            if not (np.isfinite(u).all() and np.isfinite(t_field).all()):
                raise StabilityError(
                    "rayleigh-benard fields became non-finite (CFL bound violated)")
            remaining -= dt

    if cfg.warmup > 0:
        step_interval(cfg.warmup)
    record(0)
    for i in range(1, cfg.snapshots):
        step_interval(cfg.dt)
        record(i)

    return DatasetContainer(("u_x", "u_y", "T"), mesh, frames, cfg.dt,
                            provenance=asdict(cfg))


def _rb_bcs(u, v, t_field):
    u[:, 0] = 0.0
    u[:, -1] = 0.0
    v[:, 0] = 0.0
    v[:, -1] = 0.0
    t_field[:, 0] = 1.0
    t_field[:, -1] = 0.0


def _x_neighbors(phi):
    """Periodic x-neighbours (phi[i-1], phi[i+1]) of a field, rows are x."""
    left = np.empty_like(phi)
    left[1:] = phi[:-1]
    left[0] = phi[-1]
    right = np.empty_like(phi)
    right[:-1] = phi[1:]
    right[-1] = phi[0]
    return left, right


def _upwind(phi, left, right, u, v, hx, hy):
    """First-order upwind u.grad(phi); periodic in x, one-sided rows at walls."""
    dx_m = (phi - left) / hx
    dx_p = (right - phi) / hx
    adv = np.where(u > 0, u * dx_m, u * dx_p)
    dy = (phi[:, 1:] - phi[:, :-1]) / hy
    dy_m = np.empty_like(phi)
    dy_p = np.empty_like(phi)
    dy_m[:, 1:] = dy
    dy_m[:, 0] = 0.0
    dy_p[:, :-1] = dy
    dy_p[:, -1] = 0.0
    adv += np.where(v > 0, v * dy_m, v * dy_p)
    return adv


def _laplacian(phi, left, right, hx, hy):
    lap = (left - 2 * phi + right) / hx ** 2
    lap[:, 1:-1] += (phi[:, 2:] - 2 * phi[:, 1:-1] + phi[:, :-2]) / hy ** 2
    lap[:, 0] = 0.0
    lap[:, -1] = 0.0
    return lap


def _rb_substep(u, v, t_field, dt, cfg, hx, hy, pressure_ab):
    un, vn, tn = u.copy(), v.copy(), t_field.copy()
    un_nb, vn_nb, tn_nb = _x_neighbors(un), _x_neighbors(vn), _x_neighbors(tn)
    u -= dt * _upwind(un, *un_nb, un, vn, hx, hy)
    v -= dt * _upwind(vn, *vn_nb, un, vn, hx, hy)
    t_field -= dt * _upwind(tn, *tn_nb, un, vn, hx, hy)
    u += dt * cfg.nu * _laplacian(un, *un_nb, hx, hy)
    v += dt * cfg.nu * _laplacian(vn, *vn_nb, hx, hy)
    t_field += dt * cfg.kappa * _laplacian(tn, *tn_nb, hx, hy)
    v[:, 1:-1] += dt * cfg.alpha_g * tn[:, 1:-1]
    _rb_bcs(u, v, t_field)

    u_left, u_right = _x_neighbors(u)
    div = (u_right - u_left) / (2 * hx)
    div[:, 1:-1] += (v[:, 2:] - v[:, :-2]) / (2 * hy)
    rhs = div / dt

    p = _pressure_solve(rhs, pressure_ab)
    p_left, p_right = _x_neighbors(p)
    u -= dt * (p_right - p_left) / (2 * hx)
    v[:, 1:-1] -= dt * (p[:, 2:] - p[:, :-2]) / (2 * hy)
    _rb_bcs(u, v, t_field)


def _pressure_operator(nx, ny, hx, hy):
    """Banded form of every x-mode's Neumann tridiagonal system, stacked.

    Mode m owns rows m*ny .. (m+1)*ny - 1. The diagonals that would couple
    neighbouring modes stay zero, so the matrix is block diagonal and one
    tridiagonal solve does no elimination across a mode boundary: it returns
    exactly what a separate solve per mode would.
    """
    # x-direction modified wavenumbers of the central second difference
    kx = np.fft.rfftfreq(nx, d=1.0 / nx)
    lam = (2.0 * np.cos(2.0 * np.pi * kx / nx) - 2.0) / hx ** 2
    inv_h2 = 1.0 / hy ** 2
    ab = np.zeros((3, len(lam), ny))
    ab[0, :, 1:] = inv_h2                       # super-diagonal
    ab[1] = -2.0 * inv_h2 + lam[:, None]
    ab[2, :, :-1] = inv_h2                      # sub-diagonal
    # Neumann walls via ghost reflection
    ab[1, :, 0] = -inv_h2 + lam
    ab[1, :, -1] = -inv_h2 + lam
    # Neumann + periodic leaves the mean of mode 0 free; pin the gauge
    # (its right-hand side entry is zeroed in _pressure_solve)
    ab[1, 0, 0] = 1.0
    ab[0, 0, 1] = 0.0
    return ab.reshape(3, -1)


def _pressure_solve(rhs, ab):
    """Poisson with Neumann walls: FFT in x, one stacked tridiagonal solve in y."""
    nx, ny = rhs.shape
    rhs_hat = np.fft.rfft(rhs, axis=0)
    rhs_hat[0, 0] = 0.0
    p_hat = scipy.linalg.solve_banded((1, 1), ab, rhs_hat.reshape(-1))
    return np.fft.irfft(p_hat.reshape(rhs_hat.shape), n=nx, axis=0)


def irregularize(ds: DatasetContainer, keep_fraction: float, seed: int = 0
                 ) -> DatasetContainer:
    """Subsample to a random point cloud (same subset for every snapshot)."""
    if not 0 < keep_fraction <= 1:
        raise FractionError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    n = ds.mesh.n_points
    n_keep = int(round(keep_fraction * n))
    if n_keep < 1:
        raise FractionError("keep fraction selects no points")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=n_keep, replace=False))
    mesh = Mesh.irregular(ds.mesh.points[idx], extents=ds.mesh.extents)
    return DatasetContainer(ds.variables, mesh,
                            np.ascontiguousarray(ds.snapshots[:, idx, :]),
                            ds.dt, dict(ds.provenance))


# -- container file format ----------------------------------------------------


def write_container(path, header: dict, buffers) -> None:
    """buffers: ordered (name, float64 array) pairs; shapes go in the header."""
    header = dict(header)
    header["buffers"] = [{"name": name, "shape": list(arr.shape)}
                         for name, arr in buffers]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(np.array(FORMAT_VERSION, "<u4").tobytes())
            f.write(np.array(len(blob), "<u8").tobytes())
            f.write(blob)
            for _, arr in buffers:
                # the array's own bytes, not a copy of them
                raw = np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8)
                f.write(raw)
                f.write(hashlib.blake2b(raw, digest_size=8).digest())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_exact(f, count, what):
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(f"file ends inside {what}")
    return data


def header_entry(header: dict, key: str, path):
    """The header value at a dotted key such as "adam.lr"; a FormatVersionError
    naming the file and the key when any level of it is absent."""
    value = header
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise FormatVersionError(f"container at {path} has no header entry {key!r}")
        value = value[part]
    return value


def buffer_entry(buffers: dict, name: str, path):
    """The named buffer of a container; a FormatVersionError naming the file
    and the buffer when the container has none by that name."""
    if name not in buffers:
        raise FormatVersionError(f"container at {path} has no buffer {name!r}")
    return buffers[name]


def _buffer_count(spec) -> int:
    """Element count of one header buffer entry; rejects a malformed entry."""
    if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)):
        raise FormatVersionError(f"malformed buffer entry in header: {spec!r}")
    shape = spec.get("shape")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise FormatVersionError(
            f"buffer {spec['name']!r} has a malformed shape {shape!r}")
    return math.prod(shape)


def read_container(path):
    """Returns (header, {name: array}); verifies every buffer checksum.

    Every declared size is checked against the bytes left in the file before
    anything is read, so a corrupt header fails as a DataError instead of
    asking for an arbitrarily large allocation.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = _read_exact(f, 4, "magic bytes")
        if magic != MAGIC:
            raise FormatVersionError(f"not a container file (magic {magic!r})")
        version = int(np.frombuffer(_read_exact(f, 4, "version"), "<u4")[0])
        if version != FORMAT_VERSION:
            raise FormatVersionError(
                f"unsupported container version {version} (expected {FORMAT_VERSION})")
        length = int(np.frombuffer(_read_exact(f, 8, "header length"), "<u8")[0])
        if length > size - f.tell():
            raise TruncatedFileError("file ends inside header")
        try:
            header = json.loads(_read_exact(f, length, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatVersionError(f"unreadable container header: {e}") from e
        if not isinstance(header, dict):
            raise FormatVersionError("container header is not a JSON object")
        specs = header.get("buffers", [])
        if not isinstance(specs, list):
            raise FormatVersionError("container header 'buffers' is not a list")
        buffers = {}
        for spec in specs:
            count = _buffer_count(spec)
            name = spec["name"]
            if 8 * count + 8 > size - f.tell():
                raise TruncatedFileError(f"file ends inside buffer {name!r}")
            raw = _read_exact(f, 8 * count, f"buffer {name!r}")
            digest = _read_exact(f, 8, f"checksum of {name!r}")
            if hashlib.blake2b(raw, digest_size=8).digest() != digest:
                raise ChecksumError(f"buffer {name!r} failed its checksum")
            buffers[name] = np.frombuffer(raw, "<f8").reshape(spec["shape"]).copy()
    return header, buffers


def dataset_write(ds: DatasetContainer, path) -> None:
    mesh = ds.mesh
    header = {
        "kind": "dataset",
        "variables": list(ds.variables),
        "dt": ds.dt,
        "provenance": ds.provenance,
        "mesh": {
            "kind": "uniform" if mesh.is_uniform else "irregular",
            "extents": list(mesh.extents),
            "resolution": list(mesh.resolution) if mesh.is_uniform else None,
        },
    }
    buffers = [("snapshots", ds.snapshots)]
    if not mesh.is_uniform:
        buffers = [("points", mesh.points), ("quad_weights", mesh.quad_weights),
                   ("snapshots", ds.snapshots)]
    write_container(path, header, buffers)


def dataset_read(path) -> DatasetContainer:
    header, buffers = read_container(path)
    if header.get("kind") != "dataset":
        raise DatasetSchemaError(f"container at {path} is not a dataset "
                                 f"(kind={header.get('kind')!r})")
    extents = tuple(header_entry(header, "mesh.extents", path))
    if header_entry(header, "mesh.kind", path) == "uniform":
        mesh = Mesh.uniform(tuple(header_entry(header, "mesh.resolution", path)),
                            extents=extents)
    else:
        mesh = Mesh.irregular(buffer_entry(buffers, "points", path), extents=extents,
                              quad_weights=buffer_entry(buffers, "quad_weights", path))
    return DatasetContainer(tuple(header_entry(header, "variables", path)), mesh,
                            buffer_entry(buffers, "snapshots", path),
                            float(header_entry(header, "dt", path)),
                            provenance=header.get("provenance", {}))
