"""Simulator physics oracles and container format round-trips."""

import hashlib
import json
import re

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from codano import simdata
from codano.errors import (ChecksumError, CodanoError, DataError,
                           DatasetSchemaError, FormatVersionError,
                           FractionError, ShapeError, StabilityError,
                           TruncatedFileError)
from codano.field import (DEFAULT_EXTENT, GridFunction, Mesh,
                          radial_energy_spectrum, random_band_limited)
from codano.simdata import (FORMAT_VERSION, MAGIC, RB_PRESETS,
                            DatasetContainer, SimConfig, dataset_read,
                            dataset_write, irregularize, read_container,
                            simulate_kolmogorov, simulate_rayleigh_benard,
                            write_container)


def spectral_divergence(ds, i):
    nx, ny = ds.mesh.resolution
    lx, ly = ds.mesh.extents
    u = ds.snapshots[i, :, 0].reshape(nx, ny)
    v = ds.snapshots[i, :, 1].reshape(nx, ny)
    kx = np.fft.fftfreq(nx, d=1.0 / nx)[:, None] * (2 * np.pi / lx)
    ky = np.fft.fftfreq(ny, d=1.0 / ny)[None, :] * (2 * np.pi / ly)
    div_hat = 1j * kx * np.fft.fft2(u) + 1j * ky * np.fft.fft2(v)
    return np.abs(np.fft.ifft2(div_hat)).max()


def kinetic_energy(ds, i):
    w = ds.mesh.quad_weights
    u2 = (ds.snapshots[i, :, 0] ** 2 + ds.snapshots[i, :, 1] ** 2)
    return 0.5 * float(w @ u2)


def former_simulate_kolmogorov(cfg):
    """The former full-spectrum solver: four complex inverse transforms and
    one forward transform per substep, keeping the real part of each."""
    n = cfg.resolution[0]
    h = DEFAULT_EXTENT / n
    nu = 1.0 / cfg.re
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = k[:, None], k[None, :]
    ksq = kx ** 2 + ky ** 2
    inv_ksq = np.zeros_like(ksq)
    inv_ksq[ksq > 0] = 1.0 / ksq[ksq > 0]
    dealias = (np.abs(kx) <= n // 3) & (np.abs(ky) <= n // 3)

    def velocity_hat(om_hat):
        psi_hat = om_hat * inv_ksq
        return 1j * ky * psi_hat, -1j * kx * psi_hat

    mesh = Mesh.uniform((n, n))
    y = mesh.points[:, 1].reshape(n, n)
    forcing = -cfg.forcing_n * np.cos(cfg.forcing_n * y)
    f_hat = np.fft.fftn(forcing) * dealias
    ic = random_band_limited(mesh, modes=4, channels=1,
                             rng=np.random.default_rng(cfg.seed))
    om_hat = np.fft.fftn(ic.values[:, 0].reshape(n, n))

    def nonlinear(om_hat):
        om_d = om_hat * dealias
        ux_hat, uy_hat = velocity_hat(om_d)
        ux = np.fft.ifftn(ux_hat).real
        uy = np.fft.ifftn(uy_hat).real
        gx = np.fft.ifftn(1j * kx * om_d).real
        gy = np.fft.ifftn(1j * ky * om_d).real
        return -np.fft.fftn(ux * gx + uy * gy) * dealias, max(
            np.abs(ux).max(), np.abs(uy).max())

    def advance(om_hat, n_prev, interval):
        remaining = interval
        while remaining > 1e-14:
            n_cur, umax = nonlinear(om_hat)
            dt_sub = min(simdata.CFL_SAFETY * h / max(umax, 1e-12), remaining)
            if n_prev is None:
                n_prev = n_cur
            rhs = (om_hat * (1.0 - 0.5 * dt_sub * nu * ksq)
                   + dt_sub * (1.5 * n_cur - 0.5 * n_prev)
                   + dt_sub * f_hat)
            om_hat = rhs / (1.0 + 0.5 * dt_sub * nu * ksq)
            n_prev = n_cur
            remaining -= dt_sub
        return om_hat, n_prev

    frames = np.empty((cfg.snapshots, n * n, 2))

    def record(i, om_hat):
        ux_hat, uy_hat = velocity_hat(om_hat * dealias)
        frames[i, :, 0] = np.fft.ifftn(ux_hat).real.reshape(-1)
        frames[i, :, 1] = np.fft.ifftn(uy_hat).real.reshape(-1)

    om_hat, n_prev = advance(om_hat, None, cfg.warmup)
    record(0, om_hat)
    for i in range(1, cfg.snapshots):
        om_hat, n_prev = advance(om_hat, n_prev, cfg.dt)
        record(i, om_hat)
    return frames


class TestSimConfig:

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ShapeError):
            SimConfig(resolution=(48, 48))

    def test_unknown_system_rejected(self):
        with pytest.raises(ShapeError):
            SimConfig(system="burgers")

    def test_int_resolution_broadcasts(self):
        assert SimConfig(resolution=32).resolution == (32, 32)

    @pytest.mark.parametrize("name", ["dt", "re", "nu", "kappa"])
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf"),
                                       "abc"])
    def test_non_positive_or_non_finite_setting_rejected(self, name, value):
        with pytest.raises(CodanoError, match=f"{name} must be finite"):
            SimConfig(**{name: value})


class TestKolmogorov:

    def test_velocities_divergence_free(self):
        cfg = SimConfig(resolution=32, dt=0.2, snapshots=3, warmup=1.0, seed=3)
        ds = simulate_kolmogorov(cfg)
        for i in range(ds.n_snapshots):
            assert spectral_divergence(ds, i) < 1e-8

    def test_energy_peaks_at_forcing_scale(self):
        cfg = SimConfig(resolution=64, dt=0.2, snapshots=2, warmup=3.0,
                        forcing_n=4, seed=1)
        ds = simulate_kolmogorov(cfg)
        spec = radial_energy_spectrum(ds.function(ds.n_snapshots - 1))
        e = spec.energy
        assert e[4] > e[12]

    def test_nonzero_flow_and_deterministic(self):
        cfg = SimConfig(resolution=32, dt=0.2, snapshots=3, warmup=0.5, seed=7)
        a = simulate_kolmogorov(cfg)
        b = simulate_kolmogorov(cfg)
        assert kinetic_energy(a, a.n_snapshots - 1) > 0
        assert np.array_equal(a.snapshots, b.snapshots)

    def test_blowup_raises_stability_error(self, monkeypatch):
        """An initial vorticity of amplitude 1e12 collapses the CFL-limited
        substep, and the solver stops rather than take 100000 of them."""
        real = simdata.random_band_limited

        def huge(mesh, *args, **kwargs):
            ic = real(mesh, *args, **kwargs)
            return GridFunction(mesh, ic.values * 1e12)

        monkeypatch.setattr(simdata, "random_band_limited", huge)
        cfg = SimConfig(resolution=32, dt=0.5, snapshots=2)
        with pytest.raises(StabilityError, match="CFL"):
            simulate_kolmogorov(cfg)

    def test_rectangular_grid_rejected(self):
        cfg = SimConfig(resolution=(32, 16))
        with pytest.raises(ShapeError):
            simulate_kolmogorov(cfg)

    def test_matches_former_full_spectrum_solver(self):
        # a short horizon: the flow is chaotic, so rounding differences grow
        cfg = SimConfig(resolution=32, dt=0.2, snapshots=3, warmup=0.5, seed=7)
        former = former_simulate_kolmogorov(cfg)
        new = simulate_kolmogorov(cfg).snapshots
        assert np.abs(new - former).max() <= 1e-10 * np.abs(former).max()

    def test_batched_inverse_equals_separate_transforms(self):
        n = 32
        rng = np.random.default_rng(0)
        spec = scipy.fft.rfftn(rng.standard_normal((4, n, n)), axes=(1, 2))
        spec = spec * (rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
        batched = scipy.fft.irfftn(spec, s=(n, n), axes=(1, 2))
        for row, field in zip(spec, batched):
            assert field.tobytes() == scipy.fft.irfftn(row, s=(n, n)).tobytes()

    def test_one_batched_inverse_and_one_forward_transform_per_substep(
            self, monkeypatch):
        calls = []

        def logged(module, name, tag):
            orig = getattr(module, name)

            def call(x, *args, **kw):
                calls.append(tag(np.shape(x), kw))
                return orig(x, *args, **kw)
            monkeypatch.setattr(module, name, call)

        batched = {"s": (32, 32), "axes": (1, 2)}
        logged(simdata.sp_fft, "rfftn", lambda shape, kw: "F")
        logged(simdata.sp_fft, "irfftn",
               lambda shape, kw: f"I{shape[0]}" if kw == batched else "?")
        logged(np.fft, "fftn", lambda shape, kw: "c")
        logged(np.fft, "ifftn", lambda shape, kw: "C")
        snapshots = 3
        simulate_kolmogorov(SimConfig(resolution=32, dt=0.2, warmup=0.5,
                                      snapshots=snapshots, seed=7))
        log = "".join(calls)
        # the forcing, the initial field (built by one complex inverse), then
        # per substep one four-field inverse and one forward transform, and
        # per snapshot one two-field inverse
        assert re.fullmatch(r"FCF(I4F)+I2((I4F)+I2){%d}" % (snapshots - 1), log)
        assert log.count("I4") > snapshots


class TestRayleighBenard:

    def rb_config(self, **kw):
        base = dict(system="rayleigh-benard", resolution=(32, 16), dt=0.3,
                    snapshots=6, **RB_PRESETS["ra12k"])
        base.update(kw)
        return SimConfig(**base)

    def test_boundary_conditions_exact(self):
        ds = simulate_rayleigh_benard(self.rb_config(snapshots=3))
        nx, ny = ds.mesh.resolution
        for i in range(ds.n_snapshots):
            frame = ds.snapshots[i].reshape(nx, ny, 3)
            assert np.abs(frame[:, 0, 0]).max() == 0.0    # u bottom wall
            assert np.abs(frame[:, -1, 0]).max() == 0.0   # u top wall
            assert np.abs(frame[:, 0, 1]).max() == 0.0    # v bottom wall
            assert np.abs(frame[:, -1, 1]).max() == 0.0   # v top wall
            assert np.abs(frame[:, 0, 2] - 1.0).max() < 1e-6
            assert np.abs(frame[:, -1, 2]).max() < 1e-6

    def test_zero_buoyancy_pure_diffusion(self):
        ds = simulate_rayleigh_benard(self.rb_config(alpha_g=0.0))
        nx, ny = ds.mesh.resolution
        # velocities never develop without buoyancy
        assert np.abs(ds.snapshots[:, :, :2]).max() == 0.0
        # temperature relaxes monotonically toward the linear profile
        y = np.linspace(0.0, 1.0, ny)
        linear = np.tile(1.0 - y, (nx, 1)).reshape(-1)
        errs = [np.linalg.norm(ds.snapshots[i, :, 2] - linear)
                for i in range(ds.n_snapshots)]
        assert errs[0] > 0
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_convection_kinetic_energy_grows_then_saturates(self):
        ds = simulate_rayleigh_benard(self.rb_config(snapshots=25, dt=1.0))
        ke = [kinetic_energy(ds, i) for i in range(ds.n_snapshots)]
        assert ke[0] == 0.0
        assert all(b > a for a, b in zip(ke[:8], ke[1:9]))
        assert max(ke) > 0.01
        tail = np.array(ke[-5:])
        assert tail.std() < 0.01 * tail.mean()

    def test_temperature_with_small_overshoot(self):
        ds = simulate_rayleigh_benard(self.rb_config(snapshots=8))
        t = ds.snapshots[:, :, 2]
        assert t.min() >= -1.0 - 0.02
        assert t.max() <= 1.0 + 0.02

    def test_deterministic(self):
        a = simulate_rayleigh_benard(self.rb_config(snapshots=3))
        b = simulate_rayleigh_benard(self.rb_config(snapshots=3))
        assert np.array_equal(a.snapshots, b.snapshots)

    def test_blowup_raises_stability_error(self):
        with pytest.raises(StabilityError):
            simulate_rayleigh_benard(self.rb_config(alpha_g=1e12))

    def test_sliver_of_interval_is_not_a_blowup(self):
        """Three diffusion-limited substeps plus 5e-8 of the interval: the
        last substep is a sliver, and the stability check reads the CFL
        bound, not the clipped substep."""
        ds = simulate_rayleigh_benard(SimConfig(
            system="rayleigh-benard", resolution=(16, 8), snapshots=3,
            dt=0.3318584570796460))
        assert np.isfinite(ds.snapshots).all()
        assert np.abs(ds.snapshots[-1, :, :2]).max() > 0

    def test_non_finite_u_y_alone_raises(self, monkeypatch):
        """The check after each substep reads all of u_x, u_y and T, so a
        NaN in u_y stops the run before another substep starts."""
        substep, calls = simdata._rb_substep, []

        def nan_in_u_y(f, *args):
            calls.append(1)
            substep(f, *args)
            f[1, 3, 3] = np.nan

        monkeypatch.setattr(simdata, "_rb_substep", nan_in_u_y)
        with pytest.raises(StabilityError, match="non-finite"):
            simulate_rayleigh_benard(self.rb_config(snapshots=2))
        assert len(calls) == 1

    def test_one_stencil_call_per_substep_for_all_fields(self, monkeypatch):
        """One upwind and one Laplacian call on the (3, nx, ny) stack per
        substep, and three x-neighbour calls: the stack, u_x for the
        divergence, p for the pressure gradient."""
        calls = {name: [] for name in
                 ("_rb_substep", "_upwind", "_laplacian", "_x_neighbors")}
        for name, log in calls.items():
            def counted(*args, _orig=getattr(simdata, name), _log=log):
                _log.append(np.shape(args[0]))
                return _orig(*args)
            monkeypatch.setattr(simdata, name, counted)
        simulate_rayleigh_benard(self.rb_config(snapshots=3))
        n = len(calls["_rb_substep"])
        assert n > 2
        assert calls["_upwind"] == calls["_laplacian"] == [(3, 32, 16)] * n
        assert calls["_x_neighbors"] == [(3, 32, 16), (32, 16), (32, 16)] * n

    def test_wall_node_mesh_extent(self):
        ds = simulate_rayleigh_benard(self.rb_config(snapshots=2))
        nx, ny = ds.mesh.resolution
        hy = 1.0 / (ny - 1)
        assert ds.mesh.extents[0] == pytest.approx(2.0)
        assert ds.mesh.extents[1] == pytest.approx(ny * hy)
        ys = ds.mesh.points[:, 1].reshape(nx, ny)
        assert ys[0, -1] == pytest.approx(1.0)


class TestRbStencils:

    @pytest.mark.parametrize("nx,ny", [(32, 16), (16, 8)])
    def test_stack_equals_per_field_calls(self, nx, ny):
        """The stencils on the (3, nx, ny) stack give, byte for byte, what
        one call per field gives, with u and v taken from the stack."""
        rng = np.random.default_rng(nx)
        f = rng.standard_normal((3, nx, ny))
        f[:, ::5] = 0.0                     # u == 0 and v == 0 take one branch
        hx, hy = 2.0 / nx, 1.0 / (ny - 1)
        nb = simdata._x_neighbors(f)
        assert nb[0].tobytes() == np.roll(f, 1, axis=1).tobytes()
        assert nb[1].tobytes() == np.roll(f, -1, axis=1).tobytes()
        upwind = simdata._upwind(f, *nb, f[0], f[1], hx, hy)
        laplacian = simdata._laplacian(f, *nb, hx, hy)
        for i in range(3):
            phi = f[i].copy()
            left, right = simdata._x_neighbors(phi)
            assert left.tobytes() == nb[0][i].tobytes()
            assert right.tobytes() == nb[1][i].tobytes()
            assert (simdata._upwind(phi, left, right, f[0], f[1], hx, hy).tobytes()
                    == upwind[i].tobytes())
            assert (simdata._laplacian(phi, left, right, hx, hy).tobytes()
                    == laplacian[i].tobytes())


def per_mode_pressure_solve(rhs_hat, hx, hy):
    """Reference: one Neumann tridiagonal solve per x-mode, matrix built inline."""
    nx = 2 * (rhs_hat.shape[0] - 1)
    ny = rhs_hat.shape[1]
    kx = np.fft.rfftfreq(nx, d=1.0 / nx)
    lam = (2.0 * np.cos(2.0 * np.pi * kx / nx) - 2.0) / hx ** 2
    inv_h2 = 1.0 / hy ** 2
    p_hat = np.empty_like(rhs_hat)
    for m in range(rhs_hat.shape[0]):
        ab = np.zeros((3, ny))
        ab[0, 1:] = inv_h2
        ab[1, :] = -2.0 * inv_h2 + lam[m]
        ab[2, :-1] = inv_h2
        b = rhs_hat[m].copy()
        ab[1, 0] = -inv_h2 + lam[m]
        ab[1, -1] = -inv_h2 + lam[m]
        if m == 0:
            ab[1, 0] = 1.0
            ab[0, 1] = 0.0
            b[0] = 0.0
        p_hat[m] = scipy.linalg.solve_banded((1, 1), ab, b)
    return p_hat


class TestPressureSolve:

    @pytest.mark.parametrize("nx,ny", [(64, 32), (32, 16)])
    def test_stacked_solve_matches_per_mode(self, nx, ny):
        hx, hy = 2.0 / nx, 1.0 / (ny - 1)
        ab = simdata._pressure_operator(nx, ny, hx, hy)
        assert ab.shape == (3, (nx // 2 + 1) * ny)
        rng = np.random.default_rng(nx)
        rhs_hat = (rng.standard_normal((nx // 2 + 1, ny))
                   + 1j * rng.standard_normal((nx // 2 + 1, ny)))
        expected = per_mode_pressure_solve(rhs_hat, hx, hy)
        b = rhs_hat.copy()
        b[0, 0] = 0.0
        stacked = scipy.linalg.solve_banded((1, 1), ab, b.reshape(-1))
        assert np.array_equal(stacked.reshape(rhs_hat.shape), expected)
        # the full projection, including the FFTs and the gauge row
        rhs = rng.standard_normal((nx, ny))
        p = simdata._pressure_solve(rhs, ab)
        ref = np.fft.irfft(per_mode_pressure_solve(np.fft.rfft(rhs, axis=0),
                                                   hx, hy), n=nx, axis=0)
        assert np.array_equal(p, ref)

    def test_one_solve_per_substep_on_one_matrix(self, monkeypatch):
        solve, substep = scipy.linalg.solve_banded, simdata._rb_substep
        matrices, substeps = [], []

        def counted_solve(l_and_u, ab, b, **kw):
            matrices.append(np.asarray(ab).tobytes())
            return solve(l_and_u, ab, b, **kw)

        def counted_substep(*args):
            substeps.append(1)
            return substep(*args)

        monkeypatch.setattr(scipy.linalg, "solve_banded", counted_solve)
        monkeypatch.setattr(simdata, "_rb_substep", counted_substep)
        simulate_rayleigh_benard(SimConfig(
            system="rayleigh-benard", resolution=(32, 16), dt=0.3,
            snapshots=3, **RB_PRESETS["ra12k"]))
        assert len(substeps) > 2
        assert len(matrices) == len(substeps)
        assert len(set(matrices)) == 1


class TestIrregularize:

    def small_dataset(self):
        cfg = SimConfig(resolution=16, dt=0.1, snapshots=3, warmup=0.2, seed=2)
        return simulate_kolmogorov(cfg)

    def test_same_subset_every_snapshot(self):
        ds = self.small_dataset()
        sub = irregularize(ds, 0.5, seed=9)
        assert sub.mesh.n_points == 128
        # locate each kept point in the original cloud, values must match
        for p, vals in zip(sub.mesh.points, sub.snapshots[1]):
            j = np.argmin(np.linalg.norm(ds.mesh.points - p, axis=1))
            assert np.array_equal(ds.snapshots[1, j], vals)

    def test_weights_sum_to_measure(self):
        ds = self.small_dataset()
        sub = irregularize(ds, 0.37, seed=1)
        assert abs(sub.mesh.quad_weights.sum() - ds.mesh.measure) < 1e-10

    def test_keep_all_reweights_only(self):
        ds = self.small_dataset()
        sub = irregularize(ds, 1.0, seed=0)
        assert np.array_equal(sub.mesh.points, ds.mesh.points)
        assert np.array_equal(sub.snapshots, ds.snapshots)
        assert not sub.mesh.is_uniform

    def test_bad_fraction(self):
        ds = self.small_dataset()
        with pytest.raises(FractionError):
            irregularize(ds, 0.0)
        with pytest.raises(FractionError):
            irregularize(ds, 1.5)


class TestContainerFormat:

    def test_generic_roundtrip(self, tmp_path):
        path = tmp_path / "blob.cdno"
        a = np.arange(24, dtype=float).reshape(2, 3, 4)
        b = np.linspace(-1, 1, 7)
        write_container(path, {"kind": "test", "note": "hi"},
                        [("a", a), ("b", b)])
        header, buffers = read_container(path)
        assert header["kind"] == "test" and header["note"] == "hi"
        assert np.array_equal(buffers["a"], a)
        assert np.array_equal(buffers["b"], b)

    def test_dataset_roundtrip_uniform(self, tmp_path):
        cfg = SimConfig(resolution=16, dt=0.1, snapshots=2, warmup=0.1, seed=5)
        ds = simulate_kolmogorov(cfg)
        path = tmp_path / "ds.cdno"
        dataset_write(ds, path)
        back = dataset_read(path)
        assert back.variables == ds.variables
        assert back.mesh.same(ds.mesh)
        assert np.array_equal(back.snapshots, ds.snapshots)
        assert back.dt == ds.dt
        assert back.provenance["system"] == "kolmogorov"

    def test_dataset_roundtrip_irregular(self, tmp_path):
        cfg = SimConfig(resolution=16, dt=0.1, snapshots=2, seed=5)
        ds = irregularize(simulate_kolmogorov(cfg), 0.4, seed=3)
        path = tmp_path / "ds.cdno"
        dataset_write(ds, path)
        back = dataset_read(path)
        assert np.array_equal(back.mesh.points, ds.mesh.points)
        assert np.array_equal(back.mesh.quad_weights, ds.mesh.quad_weights)
        assert np.array_equal(back.snapshots, ds.snapshots)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cdno"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatVersionError):
            read_container(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.cdno"
        good = tmp_path / "good.cdno"
        write_container(good, {"kind": "test"}, [("x", np.zeros(3))])
        raw = bytearray(good.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionError, match="version"):
            read_container(path)

    def test_corrupted_buffer(self, tmp_path):
        path = tmp_path / "corrupt.cdno"
        write_container(path, {"kind": "test"}, [("x", np.ones(16))])
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_container(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.cdno"
        write_container(path, {"kind": "test"}, [("x", np.ones(16))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-30])
        with pytest.raises(TruncatedFileError):
            read_container(path)

    def raw_container(self, path, header, length=None, tail=b""):
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + np.array(FORMAT_VERSION, "<u4").tobytes()
                         + np.array(len(blob) if length is None else length,
                                    "<u8").tobytes()
                         + blob + tail)

    def test_header_length_beyond_file(self, tmp_path):
        path = tmp_path / "long.cdno"
        self.raw_container(path, {"kind": "test", "buffers": []},
                           length=2 ** 62)
        with pytest.raises(TruncatedFileError, match="header"):
            read_container(path)

    def test_buffer_shape_beyond_file(self, tmp_path):
        path = tmp_path / "huge.cdno"
        self.raw_container(path, {"buffers": [{"name": "x",
                                               "shape": [2 ** 40]}]},
                           tail=b"\x00" * 64)
        with pytest.raises(TruncatedFileError, match="'x'"):
            read_container(path)

    @pytest.mark.parametrize("shape", [[-3], [2.5], ["4"], [True], 4])
    def test_malformed_buffer_shape(self, tmp_path, shape):
        path = tmp_path / "neg.cdno"
        self.raw_container(path, {"buffers": [{"name": "x", "shape": shape}]},
                           tail=b"\x00" * 64)
        with pytest.raises(FormatVersionError, match="shape") as e:
            read_container(path)
        assert isinstance(e.value, DataError)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.cdno"
        write_container(path, {"kind": "test"},
                        [("a", np.arange(4.0)), ("b", np.ones(3))])
        before = path.read_bytes()
        digest = simdata.hashlib.blake2b
        calls = []

        def failing_digest(raw, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("simulated crash inside the second buffer")
            return digest(raw, **kw)

        monkeypatch.setattr(simdata.hashlib, "blake2b", failing_digest)
        with pytest.raises(OSError, match="simulated crash"):
            write_container(path, {"kind": "test"},
                            [("a", np.zeros(4)), ("b", np.zeros(3))])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.cdno"]
        _, buffers = read_container(path)
        assert np.array_equal(buffers["a"], np.arange(4.0))

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "other.cdno"
        write_container(path, {"kind": "checkpoint"}, [])
        with pytest.raises(DatasetSchemaError):
            dataset_read(path)

    def test_writes_are_deterministic(self, tmp_path):
        cfg = SimConfig(resolution=16, dt=0.1, snapshots=2, seed=5)
        ds = simulate_kolmogorov(cfg)
        p1, p2 = tmp_path / "a.cdno", tmp_path / "b.cdno"
        dataset_write(ds, p1)
        dataset_write(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def stored_buffers(buffers):
        """The header's buffer entries and the stored bytes of ordered (name,
        array) pairs, repeated names included: each buffer's little-endian
        float64 bytes, then their 8-byte blake2b checksum."""
        raw = [np.asarray(a, "<f8").tobytes() for _, a in buffers]
        return ([{"name": n, "shape": list(np.shape(a))} for n, a in buffers],
                b"".join(r + hashlib.blake2b(r, digest_size=8).digest() for r in raw))

    def test_repeated_buffer_name_refused(self, tmp_path):
        """A header that lists one buffer name twice is refused, naming the
        file and the buffer, rather than read as the later buffer alone."""
        path = tmp_path / "twice.cdno"
        specs, tail = self.stored_buffers([("x", np.zeros(2)), ("x", np.ones(3))])
        self.raw_container(path, {"kind": "test", "buffers": specs}, tail=tail)
        with pytest.raises(FormatVersionError, match="repeats buffer 'x'") as e:
            read_container(path)
        assert str(path) in str(e.value)

    def test_repeated_snapshots_buffer_exits_3(self, tmp_path, capsys):
        from codano.cli import main
        ds = stored_datasets()["uniform"]
        path = tmp_path / "twice.cdno"
        dataset_write(ds, path)
        header, buffers = read_container(path)
        specs, tail = self.stored_buffers([("snapshots", buffers["snapshots"])] * 2)
        self.raw_container(path, {**header, "buffers": specs}, tail=tail)
        assert main(["spectrum", "--data", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "'snapshots'" in err

    def test_writer_refuses_a_repeated_buffer_name(self, tmp_path):
        """The writer refuses what its reader would, before it opens a file:
        the target keeps its bytes and no temporary file is left."""
        path = tmp_path / "kept.cdno"
        write_container(path, {"kind": "test"}, [("x", np.zeros(2))])
        before = path.read_bytes()
        with pytest.raises(FormatVersionError, match="repeats buffer 'x'") as e:
            write_container(path, {"kind": "test"},
                            [("x", np.zeros(2)), ("y", np.ones(1)), ("x", np.ones(3))])
        assert str(path) in str(e.value) and isinstance(e.value, DataError)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.cdno"]

    @pytest.mark.parametrize("spec, words", [
        (5, "buffers must be a dict"), ("x", "buffers must be a dict"),
        (None, "buffers must be a dict"), ([], "buffers must be a dict"),
        ({}, "buffer entry 0 has no header entry 'name'"),
        ({"name": "x"}, "buffer entry 0 has no header entry 'shape'"),
        ({"name": 5, "shape": [1]}, "buffer entry 0: name must be a str")])
    def test_malformed_buffer_entry(self, tmp_path, spec, words):
        path = tmp_path / "entry.cdno"
        self.raw_container(path, {"buffers": [spec]}, tail=b"\x00" * 64)
        with pytest.raises(FormatVersionError, match=re.escape(words)) as e:
            read_container(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("buffers", [5, "x", None, {}, -3])
    def test_buffers_not_a_list(self, tmp_path, buffers):
        path = tmp_path / "buffers.cdno"
        self.raw_container(path, {"buffers": buffers})
        with pytest.raises(FormatVersionError, match="buffers must be a"):
            read_container(path)


def stored_datasets():
    """A uniform and an irregular dataset built by arithmetic alone, so the
    bytes of their files depend on the container format only."""
    uniform = DatasetContainer(("u_x", "u_y"), Mesh.uniform((4, 4)),
                               np.arange(64.0).reshape(2, 16, 2) / 7, 0.25,
                               provenance={"system": "kolmogorov", "seed": 3})
    cloud = Mesh.irregular(np.array([[0.5, 0.25], [1.5, 2.0], [3.0, 0.75]]),
                           extents=(4.0, 4.0))
    irregular = DatasetContainer(("T",), cloud, np.arange(6.0).reshape(2, 3, 1) / 3, 0.1)
    return {"uniform": uniform, "irregular": irregular}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestStoredDatasets:
    """Datasets stored before the header schema keep loading to the same
    container, which writes back to the same bytes."""

    # SHA-256 of each stored_datasets() file as the format stores it
    STORED = {
        "uniform": "1e27eaa36d1b6566e6e1f2f811e32bb8605e35d4eaecd2f1b346084bae6b53fc",
        "irregular": "89b69e4c555214d4f143d3a043b01e3d2162579dfe78cfcdc73f428e05b409ec"}

    @pytest.mark.parametrize("kind", ["uniform", "irregular"])
    def test_loads_and_writes_back_alike(self, tmp_path, kind):
        ds = stored_datasets()[kind]
        path, again = tmp_path / "stored.cdno", tmp_path / "again.cdno"
        dataset_write(ds, path)
        assert sha256(path) == self.STORED[kind]
        back = dataset_read(path)
        assert back.variables == ds.variables and type(back.variables) is tuple
        assert back.dt == ds.dt and type(back.dt) is float
        assert back.provenance == ds.provenance
        assert back.mesh.same(ds.mesh) and back.mesh.resolution == ds.mesh.resolution
        assert back.snapshots.tobytes() == ds.snapshots.tobytes()
        dataset_write(back, again)
        assert sha256(again) == self.STORED[kind]

    @pytest.mark.parametrize("kind", ["uniform", "irregular"])
    def test_header_without_provenance_loads(self, tmp_path, kind):
        path = tmp_path / "stored.cdno"
        dataset_write(stored_datasets()[kind], path)
        header, buffers = read_container(path)
        del header["provenance"]
        write_container(path, header, list(buffers.items()))
        back = dataset_read(path)
        assert back.provenance == {}
        back.provenance["edited"] = True  # the default is the dataset's own
        assert dataset_read(path).provenance == {}

    def test_integral_dt_loads_as_a_float(self, tmp_path):
        path = tmp_path / "stored.cdno"
        dataset_write(stored_datasets()["uniform"], path)
        header, buffers = read_container(path)
        header["dt"] = 2
        write_container(path, header, list(buffers.items()))
        back = dataset_read(path)
        assert back.dt == 2.0 and type(back.dt) is float


class TestSelectVariables:

    def test_subset_and_missing(self):
        cfg = SimConfig(resolution=16, dt=0.1, snapshots=2, seed=5)
        ds = simulate_kolmogorov(cfg)
        sub = ds.select_variables(("u_y",))
        assert sub.variables == ("u_y",)
        assert np.array_equal(sub.snapshots[:, :, 0], ds.snapshots[:, :, 1])
        with pytest.raises(DatasetSchemaError):
            ds.select_variables(("T",))

    def test_repeated_variable_refused(self):
        ds = stored_datasets()["uniform"]
        with pytest.raises(ShapeError, match="repeat a name"):
            DatasetContainer(("u_x", "u_x"), ds.mesh, ds.snapshots, ds.dt)
        with pytest.raises(ShapeError, match="repeat a name"):
            ds.select_variables(("u_y", "u_y"))
