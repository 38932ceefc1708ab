"""Mesh, quadrature, and spectral utility tests against analytic oracles."""

import numpy as np
import pytest
from scipy import fft as sp_fft

from codano.errors import MeshError, ModeCountError, NumericError, ShapeError, UnknownVariableError
from codano.field import (
    GridFunction,
    Mesh,
    fft_forward,
    inner_product,
    radial_energy_spectrum,
    random_band_limited,
    resample,
)


class TestMesh:
    def test_uniform_weights_are_cell_volume(self):
        """Uniform grids carry equal weights that sum to the domain measure."""
        mesh = Mesh.uniform((8, 4))
        cell = (2 * np.pi / 8) * (2 * np.pi / 4)
        assert np.allclose(mesh.quad_weights, cell)
        assert mesh.quad_weights.sum() == pytest.approx(mesh.measure, rel=1e-14)

    def test_uniform_point_layout(self):
        """Points go index * extent / n per axis, C order, first axis slowest."""
        mesh = Mesh.uniform((2, 3), extents=(1.0, 3.0))
        expected = [
            [0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
            [0.5, 0.0], [0.5, 1.0], [0.5, 2.0],
        ]
        assert np.allclose(mesh.points, expected)

    def test_uniform_rejects_extents_of_another_length(self):
        with pytest.raises(MeshError, match="differ in length"):
            Mesh.uniform((8, 8, 8), extents=(1.0, 1.0))

    def test_irregular_default_weights_are_monte_carlo(self):
        """Without explicit weights each point gets |D| / n."""
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 2 * np.pi, size=(100, 2))
        mesh = Mesh.irregular(pts, extents=(2 * np.pi, 2 * np.pi))
        assert np.allclose(mesh.quad_weights, mesh.measure / 100)

    def test_points_outside_box_rejected(self):
        with pytest.raises(MeshError, match="outside"):
            Mesh.irregular([[0.0, 7.0]], extents=(2 * np.pi, 2 * np.pi))

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(MeshError, match="sum"):
            Mesh.irregular([[1.0], [2.0]], extents=(6.0,), quad_weights=[1.0, 1.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(MeshError, match="positive"):
            Mesh.irregular([[1.0], [2.0]], extents=(6.0,), quad_weights=[6.0, 0.0])


class TestGridFunction:
    def test_values_immutable(self):
        f = GridFunction(Mesh.uniform((4,)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            GridFunction(Mesh.uniform((4,)), np.array([[0.0], [np.nan], [0.0], [0.0]]))

    def test_name_binding_and_select(self):
        """Channels bind and reorder by name, not position."""
        mesh = Mesh.uniform((4,))
        f = GridFunction(mesh, np.arange(8.0).reshape(4, 2), names=("a", "b"))
        assert np.array_equal(f.channel("b"), f.values[:, 1])
        g = f.select(("b", "a"))
        assert g.names == ("b", "a")
        assert np.array_equal(g.values[:, 0], f.values[:, 1])
        with pytest.raises(UnknownVariableError):
            f.select(("c",))

    def test_channel_count_mismatch(self):
        with pytest.raises(ShapeError, match="one name per channel"):
            GridFunction(Mesh.uniform((4,)), np.zeros((4, 2)), names=("a",))


class TestInnerProduct:
    def test_sin_squared_integrates_to_pi(self):
        """int_0^{2pi} sin(x)^2 dx = pi, exact for the trapezoid rule on this grid."""
        mesh = Mesh.uniform((64,))
        f = GridFunction(mesh, np.sin(mesh.points[:, 0]))
        assert inner_product(f, f) == pytest.approx(np.pi, abs=1e-10)

    def test_sin_cos_orthogonal(self):
        mesh = Mesh.uniform((64,))
        f = GridFunction(mesh, np.sin(mesh.points[:, 0]))
        g = GridFunction(mesh, np.cos(mesh.points[:, 0]))
        assert abs(inner_product(f, g)) < 1e-12

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(3)
        mesh = Mesh.uniform((16, 16))
        f = GridFunction(mesh, rng.standard_normal((mesh.n_points, 3)))
        g = GridFunction(mesh, rng.standard_normal((mesh.n_points, 3)))
        assert inner_product(f, g) == pytest.approx(inner_product(g, f), rel=1e-14)

    def test_mesh_mismatch_rejected(self):
        f = GridFunction(Mesh.uniform((8,)), np.zeros(8))
        g = GridFunction(Mesh.uniform((16,)), np.zeros(16))
        with pytest.raises(ShapeError, match="same mesh"):
            inner_product(f, g)

    def test_norm_of_constant(self):
        """<c, c>_L2 = c^2 * |D| on any mesh with exact weights."""
        mesh = Mesh.uniform((8, 8))
        f = GridFunction(mesh, np.full((mesh.n_points, 1), 3.0))
        assert inner_product(f, f) == pytest.approx(9.0 * mesh.measure, rel=1e-13)


class TestFFT:
    def test_parseval(self):
        """sum_x |f|^2 = (1/N) sum_k |f_hat|^2 under the unnormalized convention."""
        rng = np.random.default_rng(11)
        mesh = Mesh.uniform((32, 32))
        f = GridFunction(mesh, rng.standard_normal((mesh.n_points, 1)))
        spec = fft_forward(f)
        phys = np.sum(f.values**2)
        spect = np.sum(np.abs(spec) ** 2) / mesh.n_points
        assert phys == pytest.approx(spect, rel=1e-10)

    def test_single_mode_lands_in_one_bin(self):
        """sin(3x) puts all spectral mass at wavenumber indices +-3."""
        mesh = Mesh.uniform((32,))
        f = GridFunction(mesh, np.sin(3 * mesh.points[:, 0]))
        spec = np.abs(fft_forward(f)[:, 0])
        hot = np.zeros(32, dtype=bool)
        hot[[3, 29]] = True
        assert np.all(spec[~hot] < 1e-10 * spec[hot].max())


def reference_resample(values, old, new):
    """Band-limited transfer in plain NumPy: per axis keep FFT bins [0, m)
    and [n-m, n) with m = min(old, new) // 2, scale by the size ratio, take
    the real part of the inverse FFT."""
    axes = tuple(range(len(old)))
    c = values.shape[1]
    spec = np.fft.fftn(values.reshape(*old, c), axes=axes)
    m = [min(a, b) // 2 for a, b in zip(old, new)]
    src = np.ix_(*[np.r_[0:k, n - k:n] for k, n in zip(m, old)], range(c))
    dst = np.ix_(*[np.r_[0:k, n - k:n] for k, n in zip(m, new)], range(c))
    out = np.zeros(tuple(new) + (c,), dtype=complex)
    out[dst] = spec[src]
    out = np.fft.ifftn(out * (np.prod(new) / np.prod(old)), axes=axes).real
    return out.reshape(-1, c)


def reference_real_resample(values, old, new):
    """The same transfer by scipy.fft real-input transforms over whole axes:
    rfft the last axis and take its band columns (negative bins as conjugates
    of bins m..1), FFT every other axis in full, keep the band, scale, zero-pad
    and inverse-FFT every other axis, fold each row to its Hermitian half,
    irfft."""
    d, c = len(old), values.shape[1]
    m = [min(a, b) // 2 for a, b in zip(old, new)]
    half = sp_fft.rfft(values.reshape(*old, c), axis=d - 1)
    y = np.concatenate((half[..., :m[-1], :],
                        np.conj(half[..., m[-1]:0:-1, :])), axis=d - 1)
    for axis in range(d - 2, -1, -1):
        y = sp_fft.fft(y, axis=axis)
    src = np.ix_(*[np.r_[0:k, n - k:n] for k, n in zip(m[:-1], old)],
                 range(2 * m[-1]), range(c))
    dst = np.ix_(*[np.r_[0:k, n - k:n] for k, n in zip(m[:-1], new)],
                 range(2 * m[-1]), range(c))
    full = np.zeros(tuple(new[:-1]) + (2 * m[-1], c), dtype=complex)
    full[dst] = y[src] * float(np.prod(new) / np.prod(old))
    for axis in range(d - 1):
        full = sp_fft.ifft(full, axis=axis)
    k = m[-1]
    h = np.empty(full.shape[:-2] + (k + 1, c), dtype=complex)
    h[..., 0, :] = full[..., 0, :]
    h[..., 1:k, :] = (full[..., 1:k, :] + np.conj(full[..., 2 * k - 1:k:-1, :])) / 2
    h[..., k, :] = (full[..., k, :] if new[-1] == 2 * k
                    else np.conj(full[..., k, :]) / 2)
    return sp_fft.irfft(h, n=new[-1], axis=d - 1).reshape(-1, c)


class TestResample:
    @pytest.mark.parametrize("old,new", [
        ((32, 32), (64, 64)), ((64, 64), (32, 32)), ((64, 32), (128, 64)),
        ((16, 16), (48, 48)), ((48, 48), (16, 16)), ((33, 17), (20, 40)),
        ((32,), (64,))])
    def test_matches_numpy_reference(self, old, new):
        """Within 1e-14 of the reference's largest value: the real-input
        transforms round differently, an indexing slip is O(1)."""
        rng = np.random.default_rng(sum(old) + sum(new))
        f = GridFunction(Mesh.uniform(old),
                         rng.standard_normal((int(np.prod(old)), 2)))
        out = resample(f, new)
        assert out.mesh.resolution == new
        ref = reference_resample(f.values, old, new)
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("old,new", [
        ((32, 32), (64, 64)), ((64, 64), (32, 32)), ((64, 32), (128, 64)),
        ((16, 16), (48, 48)), ((48, 48), (16, 16)), ((33, 17), (20, 40)),
        ((32,), (64,))])
    def test_matches_numpy_reference_bitwise(self, old, new):
        """Bit for bit the real-input transfer computed over whole axes: the
        pair's column-restricted transforms, band indexing and scaling change
        no bit."""
        rng = np.random.default_rng(sum(old) + sum(new))
        f = GridFunction(Mesh.uniform(old),
                         rng.standard_normal((int(np.prod(old)), 2)))
        out = resample(f, new)
        assert np.array_equal(out.values, reference_real_resample(f.values, old, new))

    def test_axis_of_size_one_rejected(self):
        """A size-1 axis keeps no modes; the result would be a zero field."""
        f = GridFunction(Mesh.uniform((1, 8)), np.ones((8, 1)))
        with pytest.raises(ModeCountError, match="keeps no modes"):
            resample(f, (4, 8))

    def test_sin_upsamples_exactly(self):
        """sin(2 pi x) sampled at 32 transfers to 64 within 1e-10 of the analytic values."""
        mesh = Mesh.uniform((32,), extents=(1.0,))
        f = GridFunction(mesh, np.sin(2 * np.pi * mesh.points[:, 0]))
        up = resample(f, (64,))
        assert np.max(np.abs(up.values[:, 0] - np.sin(2 * np.pi * up.mesh.points[:, 0]))) < 1e-10

    def test_band_limited_roundtrip(self):
        """Up then down returns a band-limited field bit-near-exactly."""
        rng = np.random.default_rng(2)
        mesh = Mesh.uniform((32, 32))
        f = random_band_limited(mesh, 8, 2, rng)
        back = resample(resample(f, (64, 64)), (32, 32))
        assert np.max(np.abs(back.values - f.values)) < 1e-10

    def test_downsample_of_band_limited_matches_subsampling(self):
        """A 4-mode field at 64 downsampled to 32 equals direct sampling at 32."""
        mesh = Mesh.uniform((64, 64))
        x, y = mesh.points[:, 0], mesh.points[:, 1]
        vals = np.sin(3 * x) * np.cos(2 * y) + 0.5 * np.cos(x + y)
        f = GridFunction(mesh, vals)
        down = resample(f, (32, 32))
        xs, ys = down.mesh.points[:, 0], down.mesh.points[:, 1]
        direct = np.sin(3 * xs) * np.cos(2 * ys) + 0.5 * np.cos(xs + ys)
        assert np.max(np.abs(down.values[:, 0] - direct)) < 1e-10


class TestRandomBandLimited:
    def test_mode_count_beyond_nyquist_rejected(self):
        mesh = Mesh.uniform((16,))
        with pytest.raises(ModeCountError, match="Nyquist"):
            random_band_limited(mesh, 9, 1, np.random.default_rng(0))


class TestRadialSpectrum:
    def test_single_mode_concentrates(self):
        """u = sin(3y) x-hat holds >= 99.9% of its energy in the k = 3 bin."""
        mesh = Mesh.uniform((64, 64))
        u = np.stack([np.sin(3 * mesh.points[:, 1]), np.zeros(mesh.n_points)], axis=1)
        sp = radial_energy_spectrum(GridFunction(mesh, u, names=("u_x", "u_y")))
        assert sp.energy[3] >= 0.999 * sp.total_energy

    def test_total_matches_quadrature_energy(self):
        """Sum over shells equals 0.5 * int |u|^2 via Parseval within 1e-8."""
        rng = np.random.default_rng(9)
        mesh = Mesh.uniform((32, 32))
        f = GridFunction(mesh, rng.standard_normal((mesh.n_points, 2)))
        sp = radial_energy_spectrum(f)
        phys = 0.5 * inner_product(f, f)
        assert sp.total_energy == pytest.approx(phys, rel=1e-8)

    def test_white_noise_flat_per_mode(self):
        """White noise is flat per mode: shell energy / shell population stays level."""
        rng = np.random.default_rng(42)
        mesh = Mesh.uniform((128, 128))
        f = GridFunction(mesh, rng.standard_normal((mesh.n_points, 1)))
        sp = radial_energy_spectrum(f)
        sel = slice(2, 17)
        per_mode = sp.energy[sel] / sp.mode_count[sel]
        assert per_mode.max() / per_mode.min() < 3.0

    def test_band_limited_generator_respects_band(self):
        rng = np.random.default_rng(1)
        mesh = Mesh.uniform((32, 32))
        f = random_band_limited(mesh, 4, 1, rng)
        spec = np.abs(fft_forward(f))[..., 0]
        kx = np.abs(np.fft.fftfreq(32, d=1 / 32))
        outside = (kx[:, None] > 3) | (kx[None, :] > 3)
        assert spec[outside].max() < 1e-10 * spec.max()
