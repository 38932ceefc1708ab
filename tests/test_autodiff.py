"""Reverse-mode gradients verified against central finite differences."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import erf

from codano import autodiff as ad
from codano.errors import ModeCountError, NumericError, ShapeError, TrainingStateError
from codano.field import Mesh
from codano.model import CodanoLayer, ModelConfig, Vspe
from codano.spectral import FnoBlock, spectral_resample


def fd_grad(loss_fn, tensor, step=1e-6):
    """Central finite differences of a scalar loss w.r.t. one tensor's entries."""
    saved = tensor.data.copy()
    out = np.zeros_like(saved)
    it = np.nditer(saved, flags=["multi_index"])
    with ad.no_grad():
        for _ in it:
            ix = it.multi_index
            h = step * max(1.0, abs(saved[ix]))
            tensor.data[ix] = saved[ix] + h
            up = float(loss_fn().data)
            tensor.data[ix] = saved[ix] - h
            down = float(loss_fn().data)
            tensor.data[ix] = saved[ix]
            out[ix] = (up - down) / (2 * h)
    tensor.data = saved
    return out


def check_against_fd(loss_fn, tensors, tol=1e-5):
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    ad.backward(loss)
    for t in tensors:
        fd = fd_grad(loss_fn, t)
        scale = max(np.max(np.abs(fd)), np.max(np.abs(t.grad)), 1e-8)
        assert np.max(np.abs(t.grad - fd)) / scale < tol


class TestElementwiseOps:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def param(self, *shape):
        return ad.Tensor(self.rng.standard_normal(shape), requires_grad=True)

    def test_add_mul_broadcast(self):
        a, b = self.param(3, 4), self.param(4)
        check_against_fd(lambda: ((a + b) * b * 0.5).sum(), [a, b])

    def test_sub_div(self):
        a, b = self.param(5), self.param(5)
        b.data = np.abs(b.data) + 1.0
        check_against_fd(lambda: (a / b - b).sum(), [a, b])

    def test_exp_sqrt(self):
        a = self.param(6)
        a.data = np.abs(a.data) + 0.5
        check_against_fd(lambda: (ad.tsqrt(a) * 1.5).sum(), [a])

    def test_gelu(self):
        a = self.param(8)
        check_against_fd(lambda: ad.gelu(a).sum(), [a])

    def test_gelu_values(self):
        """GELU(0) = 0 and GELU(+-1) = +-1 * Phi(+-1) exactly."""
        x = ad.Tensor(np.array([0.0, 1.0, -1.0]))
        out = ad.gelu(x).data
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.8413447460685429, rel=1e-12)
        assert out[2] == pytest.approx(-0.15865525393145707, rel=1e-12)

    def test_gelu_bytes_equal_former_expressions(self):
        """In-place forward and one-buffer vjp keep the former IEEE operations."""
        x = self.rng.standard_normal((4, 2, 64, 32)) * 3.0
        g = self.rng.standard_normal(x.shape)
        out = ad.gelu(ad.Tensor(x, requires_grad=True))
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert out.data.tobytes() == (x * cdf).tobytes()
        assert out._vjp(g)[0].tobytes() == (g * (cdf + x * pdf)).tobytes()

    def test_make_complex_bytes_equal_former_expression(self):
        re, im = self.rng.standard_normal((2, 16, 16, 4, 4))
        out = ad.make_complex(re, im)
        assert out.data.dtype == np.complex128
        assert out.data.tobytes() == (re + 1j * im).tobytes()


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_reshape_transpose(self):
        a = ad.Tensor(self.rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = self.rng.standard_normal((4, 3, 2))
        check_against_fd(lambda: (ad.transpose(ad.reshape(a, (2, 3, 4)), (2, 1, 0)) * w).sum(), [a])

    def test_concat_stack(self):
        a = ad.Tensor(self.rng.standard_normal((2, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((2, 3)), requires_grad=True)
        check_against_fd(lambda: (ad.concat([a, b], axis=1) * 2.0).sum(), [a, b])
        check_against_fd(lambda: (ad.stack([a, b], axis=0) * 0.7).sum(), [a, b])

    def test_sum_axis_keepdims(self):
        a = ad.Tensor(self.rng.standard_normal((3, 5)), requires_grad=True)
        w = self.rng.standard_normal((3, 1))
        check_against_fd(lambda: (ad.tsum(a, axis=1, keepdims=True) * w).sum(), [a])

    def test_broadcast_to_and_axis_tuple_sum(self):
        a = ad.Tensor(self.rng.standard_normal((3, 1, 4)), requires_grad=True)
        w = self.rng.standard_normal((2, 3, 5, 4))
        out = ad.broadcast_to(a, (2, 3, 5, 4))
        assert np.array_equal(out.data, np.broadcast_to(a.data, (2, 3, 5, 4)))

        def loss():
            s = ad.tsum(ad.broadcast_to(a, (2, 3, 5, 4)) * w, axis=(1, 2))
            return ad.tsum(s * s)

        check_against_fd(loss, [a])


class TestContractions:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_einsum_matmul(self):
        a = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((3, 5)), requires_grad=True)
        check_against_fd(lambda: ad.einsum2("ij,jk->ik", a, b).sum(), [a, b])

    def test_einsum_batched_with_weights(self):
        q = ad.Tensor(self.rng.standard_normal((3, 7, 2)), requires_grad=True)
        w = self.rng.standard_normal(7)
        check_against_fd(lambda: ad.einsum2("jnd,n->jd", q, w).sum(), [q])

    def test_einsum_orphan_index_rejected(self):
        a = ad.Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="sums"):
            ad.einsum2("ij,jk->k", a, ad.Tensor(np.zeros((2, 2))))

    def test_matmul_grad(self):
        a = ad.Tensor(self.rng.standard_normal((6, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((3, 4)), requires_grad=True)
        w = self.rng.standard_normal((6, 4))
        check_against_fd(lambda: (ad.matmul(a, b) * w).sum(), [a, b])

    def test_matmul_constant_operand_gets_none(self):
        a = ad.Tensor(self.rng.standard_normal((5, 3)))
        b = ad.Tensor(self.rng.standard_normal((3, 2)), requires_grad=True)
        out = ad.matmul(a, b)
        g = self.rng.standard_normal(out.shape)
        ga, gb = out._vjp(g)
        assert ga is None
        assert np.array_equal(gb, a.data.T @ g)
        x = ad.Tensor(self.rng.standard_normal((2, 5)), requires_grad=True)
        gx, ga = ad.matmul(x, a)._vjp(self.rng.standard_normal((2, 3)))
        assert ga is None and gx.shape == (2, 5)

    def test_matmul_complex_grad(self):
        a = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        b = self.rng.standard_normal((3, 2)) + 1j * self.rng.standard_normal((3, 2))
        out = ad.matmul(a, b)
        g = self.rng.standard_normal(out.shape) + 1j * self.rng.standard_normal(out.shape)
        ga, gb = out._vjp(g)
        assert gb is None
        assert np.array_equal(ga, g @ np.conj(b).T)

    def test_matmul_stacked_broadcast_grad(self):
        # tokens on the stack axis against a shared 2-D weight
        x = ad.Tensor(self.rng.standard_normal((3, 5, 4)), requires_grad=True)
        w = ad.Tensor(self.rng.standard_normal((4, 2)), requires_grad=True)
        c = self.rng.standard_normal((3, 5, 2))
        check_against_fd(lambda: (ad.matmul(x, w) * c).sum(), [x, w])
        # size-1 stack axes broadcast both ways
        a = ad.Tensor(self.rng.standard_normal((2, 1, 3, 4)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((3, 4, 2)), requires_grad=True)
        c = self.rng.standard_normal((2, 3, 3, 2))
        check_against_fd(lambda: (ad.matmul(a, b) * c).sum(), [a, b])
        # the spectral form: a complex band per (batch, mode) against a complex
        # weight per mode, both built from real pairs; the loss is a real part
        parts = [ad.Tensor(self.rng.standard_normal(shape), requires_grad=True)
                 for shape in ((2, 3, 4, 1, 3),) * 2 + ((3, 4, 3, 2),) * 2]
        c = self.rng.standard_normal((2, 3, 4, 1, 2)) + 1j * self.rng.standard_normal(
            (2, 3, 4, 1, 2))

        def loss():
            out = ad.matmul(ad.make_complex(*parts[:2]), ad.make_complex(*parts[2:]))
            return re_sum(ad.reshape(out * c, (1, 24, 2)))

        check_against_fd(loss, parts)

    def test_matmul_vjp_matches_numpy_reference(self):
        # broadcast operands get one folded matmul, never per-stack products
        x = ad.Tensor(self.rng.standard_normal((3, 5, 4)), requires_grad=True)
        w = ad.Tensor(self.rng.standard_normal((4, 2)), requires_grad=True)
        g = self.rng.standard_normal((3, 5, 2))
        gx, gw = ad.matmul(x, w)._vjp(g)
        assert np.array_equal(gx, g @ w.data.T)
        assert np.array_equal(gw, x.data.reshape(15, 4).T @ g.reshape(15, 2))
        band = ad.Tensor(self.rng.standard_normal((2, 3, 4, 1, 3))
                         + 1j * self.rng.standard_normal((2, 3, 4, 1, 3)), requires_grad=True)
        wc = ad.Tensor(self.rng.standard_normal((3, 4, 3, 2))
                       + 1j * self.rng.standard_normal((3, 4, 3, 2)), requires_grad=True)
        g = self.rng.standard_normal((2, 3, 4, 1, 2)) + 1j * self.rng.standard_normal(
            (2, 3, 4, 1, 2))
        gb, gwc = ad.matmul(band, wc)._vjp(g)
        assert np.array_equal(gb, g @ np.conj(np.swapaxes(wc.data, -1, -2)))
        ref = (np.conj(band.data).transpose(1, 2, 4, 0, 3).reshape(3, 4, 3, 2)
               @ g.transpose(1, 2, 0, 3, 4).reshape(3, 4, 2, 2))
        assert np.array_equal(gwc, ref)
        # the GNO message: a kernel per pair shared over groups
        k = ad.Tensor(self.rng.standard_normal((6, 1, 3, 2)), requires_grad=True)
        v = ad.Tensor(self.rng.standard_normal((6, 4, 2, 1)), requires_grad=True)
        g = self.rng.standard_normal((6, 4, 3, 1))
        gk, gv = ad.matmul(k, v)._vjp(g)
        assert np.array_equal(gv, np.swapaxes(k.data, -1, -2) @ g)
        ref = g.transpose(0, 2, 1, 3).reshape(6, 3, 4) @ v.data.reshape(6, 4, 2)
        assert np.array_equal(gk, ref.reshape(6, 1, 3, 2))

    def test_matmul_rejects_rank1_and_width_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros((4, 2, 3))), ad.Tensor(np.zeros((2, 5))))
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.zeros((4, 2, 3))), ad.Tensor(np.zeros((3, 3, 5))))

    def test_real_vjps_skip_conj_bitwise(self):
        a = ad.Tensor(self.rng.standard_normal((5, 3, 4)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((5, 2, 4)), requires_grad=True)
        out = ad.einsum2("pij,pgj->pgi", a, b)
        g = self.rng.standard_normal(out.shape)
        ga, gb = out._vjp(g)
        assert np.array_equal(ga, np.einsum("pgi,pgj->pij", g, np.conj(b.data)))
        assert np.array_equal(gb, np.einsum("pgi,pij->pgj", g, np.conj(a.data)))
        x = ad.Tensor(self.rng.uniform(1.0, 2.0, (4, 3)), requires_grad=True)
        y = ad.Tensor(self.rng.uniform(1.0, 2.0, (4, 3)), requires_grad=True)
        g = self.rng.standard_normal((4, 3))
        gx, gy = (x * y)._vjp(g)
        assert np.array_equal(gx, g * np.conj(y.data))
        assert np.array_equal(gy, g * np.conj(x.data))
        gx, gy = (x / y)._vjp(g)
        inv = 1.0 / y.data
        assert np.array_equal(gx, g * np.conj(inv))
        assert np.array_equal(gy, -g * np.conj(x.data * inv * inv))

    def test_constant_operands_get_no_cotangent(self):
        x = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        c = self.rng.uniform(1.0, 2.0, (4, 3))
        for out in (ad.einsum2("ij,ij->i", x, c), ad.mul(x, c), ad.div(x, c)):
            _, gc = out._vjp(np.ones(out.shape))
            assert gc is None
        for out in (ad.einsum2("ij,ij->i", c, x), ad.mul(c, x), ad.div(c, x)):
            gc, _ = out._vjp(np.ones(out.shape))
            assert gc is None

    def test_sparse_matmul(self):
        mat = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        pair = (mat, sp.csr_matrix(mat.T))
        x = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        check_against_fd(lambda: (ad.sparse_matmul(pair, x) * 1.5).sum(), [x])


def re_sum(z):
    """Re of the sum of every entry of a band z, through ifftn alone: at grid
    point 0 the unpadded inverse of a band is (1/N) Re(sum_k z_k)."""
    res = z.shape[1:-1]
    probe = np.zeros((z.shape[0], int(np.prod(res)), z.shape[-1]))
    probe[:, 0] = float(np.prod(res))
    return (ad.ifftn(z, res) * probe).sum()


class TestSpectralOps:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_fft_linear_functional(self):
        """d/dx of Re(sum a * FFT(x)) equals Re(N * ifft(a)) (conjugate adjoint)."""
        x = ad.Tensor(self.rng.standard_normal((1, 8, 1)), requires_grad=True)
        a = self.rng.standard_normal((1, 8, 1)) + 1j * self.rng.standard_normal((1, 8, 1))

        def loss():
            return re_sum(ad.fftn(x, (8,), (4,)) * a)

        ad.backward(loss())
        expected = (np.fft.ifftn(np.conj(a), axes=(1,)) * 8).real
        assert np.max(np.abs(x.grad - expected)) < 1e-10
        check_against_fd(loss, [x])

    def test_fft_ifft_roundtrip_grad(self):
        x = ad.Tensor(self.rng.standard_normal((2, 16, 3)), requires_grad=True)
        w = self.rng.standard_normal((2, 16, 3))

        def loss():
            back = ad.ifftn(ad.fftn(x, (4, 4), (2, 2)), (4, 4))
            return (back * w).sum()

        check_against_fd(loss, [x])

    def test_complex_weight_path(self):
        """Real pair -> complex -> spectral multiply -> inverse -> real, against FD."""
        re = ad.Tensor(self.rng.standard_normal((4, 2, 2)) * 0.3, requires_grad=True)
        im = ad.Tensor(self.rng.standard_normal((4, 2, 2)) * 0.3, requires_grad=True)
        x = ad.Tensor(self.rng.standard_normal((1, 4, 2)), requires_grad=True)
        probe = self.rng.standard_normal((1, 4, 2))

        def loss():
            w = ad.make_complex(re, im)
            out = ad.einsum2("bki,kio->bko", ad.fftn(x, (4,), (2,)), w)
            return (ad.ifftn(out, (4,)) * probe).sum()

        check_against_fd(loss, [re, im, x])

    def test_corner_extract_embed_adjoint_pair(self):
        """Band gather (fftn) and zero-padded scatter (ifftn) on a finer grid."""
        x = ad.Tensor(self.rng.standard_normal((2, 64, 3)), requires_grad=True)
        w = self.rng.standard_normal((2, 4, 4, 3))

        def loss():
            band = ad.fftn(x, (8, 8), (2, 2))
            trunc = ad.ifftn(band, (8, 8))
            return trunc.sum() + re_sum(band * w)

        check_against_fd(loss, [x])


def old_fftn(x, modes):
    """The former fftn -> corners_extract chain: forward and vjp."""
    axes = tuple(range(1, 1 + len(modes)))
    idx = [np.r_[0:m, n - m:n] for m, n in zip(modes, x.shape[1:-1])]
    band = np.fft.fftn(x, axes=axes)
    for ax, ix in enumerate(idx):
        band = np.take(band, ix, axis=ax + 1)
    n_total = int(np.prod(x.shape[1:-1]))

    def vjp(g):
        full = np.zeros(x.shape, dtype=g.dtype)
        full[np.ix_(np.arange(x.shape[0]), *idx, np.arange(x.shape[-1]))] = g
        return np.fft.ifftn(full, axes=axes) * n_total

    return band, vjp


def old_ifftn(band, res):
    """The former corners_embed -> ifftn -> real chain: forward and vjp."""
    axes = tuple(range(1, 1 + len(res)))
    idx = [np.r_[0:k // 2, n - k // 2:n] for k, n in zip(band.shape[1:-1], res)]
    shape = (band.shape[0],) + tuple(res) + (band.shape[-1],)
    full = np.zeros(shape, dtype=np.complex128)
    full[np.ix_(np.arange(shape[0]), *idx, np.arange(shape[-1]))] = band
    out = np.ascontiguousarray(np.fft.ifftn(full, axes=axes).real)
    n_total = int(np.prod(res))

    def vjp(g):
        got = np.fft.fftn(g.astype(np.complex128), axes=axes) / n_total
        for ax, ix in enumerate(idx):
            got = np.take(got, ix, axis=ax + 1)
        return got

    return out, vjp


# (grid resolution, retained modes): n == 2m as on the c09 latent grid,
# n > 2m, odd n, in 1-D, 2-D and 3-D
PAIR_CASES = [
    ((16,), (8,)), ((17,), (3,)),
    ((16, 16), (8, 8)), ((32, 24), (5, 12)), ((15, 9), (4, 2)),
    ((6, 5, 8), (3, 2, 2)), ((7, 8, 9), (1, 4, 3)),
]


def close_to(got, ref):
    """Largest difference at most 1e-14 of the reference's largest value: the
    real-input transforms round differently from the complex chain, an
    indexing slip is O(1)."""
    assert got.shape == ref.shape
    return np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestFftPair:
    @pytest.mark.parametrize("res,modes", PAIR_CASES)
    def test_matches_former_chain(self, res, modes):
        rng = np.random.default_rng(sum(res) + len(res))
        x = rng.standard_normal((2,) + res + (3,))
        tokens = x.reshape(2, -1, 3)
        band = ad.fftn(ad.Tensor(tokens, requires_grad=True), res, modes)
        ref_band, ref_vjp = old_fftn(x, modes)
        assert band.data.shape == (2,) + tuple(2 * m for m in modes) + (3,)
        assert close_to(band.data, ref_band)
        g = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        gx = band._vjp(g)[0]
        assert gx.dtype == np.float64
        assert close_to(gx, ref_vjp(g).real.reshape(tokens.shape))

        b = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        out = ad.ifftn(ad.Tensor(b, requires_grad=True), res)
        ref_out, ref_vjp = old_ifftn(b, res)
        assert out.data.flags.c_contiguous and out.data.dtype == np.float64
        assert close_to(out.data, ref_out.reshape(tokens.shape))
        y = rng.standard_normal(out.shape)
        assert close_to(out._vjp(y)[0], ref_vjp(y.reshape(x.shape)))

    @staticmethod
    def _pair_outputs(x, modes, res, g, y):
        """fftn forward, fftn vjp, ifftn forward and ifftn vjp on one batch."""
        band = ad.fftn(ad.Tensor(x, requires_grad=True), res, modes)
        out = ad.ifftn(ad.Tensor(g, requires_grad=True), res)
        return band.data, band._vjp(g)[0], out.data, out._vjp(y)[0]

    @pytest.mark.parametrize("res,modes", PAIR_CASES)
    def test_batch_rows_bitwise_independent(self, res, modes):
        """A batch of 5 equals its per-element calls, with one leading axis
        and with none, and its first 4 elements on two leading axes; permuting
        the batch permutes every output; all bit for bit (c01 and batched
        forwards rely on it)."""
        rng = np.random.default_rng(3 * sum(res) + 1)
        band_shape = (5,) + tuple(2 * m for m in modes) + (3,)
        x = rng.standard_normal((5, int(np.prod(res)), 3))
        g = rng.standard_normal(band_shape) + 1j * rng.standard_normal(band_shape)
        y = rng.standard_normal(x.shape)
        whole = self._pair_outputs(x, modes, res, g, y)
        for i in range(5):
            one = self._pair_outputs(x[i:i + 1], modes, res, g[i:i + 1], y[i:i + 1])
            for w, o in zip(whole, one):
                assert np.array_equal(w[i:i + 1], o)
            bare = self._pair_outputs(x[i], modes, res, g[i], y[i])
            for w, o in zip(whole, bare):
                assert np.array_equal(w[i], o)
        def square(a):
            return a[:4].reshape((2, 2) + a.shape[1:])

        two_axes = self._pair_outputs(square(x), modes, res, square(g), square(y))
        for w, o in zip(whole, two_axes):
            assert np.array_equal(square(w), o)
        perm = rng.permutation(5)
        permuted = self._pair_outputs(x[perm], modes, res, g[perm], y[perm])
        for w, p in zip(whole, permuted):
            assert np.array_equal(w[perm], p)

    def test_complex_input_rejected(self):
        with pytest.raises(ShapeError, match="real"):
            ad.fftn(ad.Tensor(np.zeros((1, 8, 1), dtype=complex)), (8,), (2,))

    @pytest.mark.parametrize("res,modes", PAIR_CASES)
    def test_adjoint_identity(self, res, modes):
        """<g, F x> = <F* g, x> and <y, G b> = <G* y, b> under Re<u, v> = Re sum conj(u) v."""
        rng = np.random.default_rng(7 * sum(res))
        x = rng.standard_normal((2, int(np.prod(res)), 3))
        band = ad.fftn(ad.Tensor(x, requires_grad=True), res, modes)
        g = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        lhs = np.sum(np.conj(g) * band.data).real
        rhs = np.sum(band._vjp(g)[0].real * x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

        out = ad.ifftn(ad.Tensor(g, requires_grad=True), res)
        y = rng.standard_normal(out.shape)
        lhs = np.sum(y * out.data)
        rhs = np.sum(np.conj(out._vjp(y)[0]) * g).real
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ModeCountError, match="cannot carry"):
            ad.fftn(ad.Tensor(np.zeros((1, 5, 1))), (5,), (3,))
        with pytest.raises(ShapeError, match="dimension"):
            ad.fftn(ad.Tensor(np.zeros((1, 64, 1))), (8, 8), (2,))
        with pytest.raises(ShapeError, match="bad input shape"):
            ad.fftn(ad.Tensor(np.zeros((1, 60, 1))), (8, 8), (2, 2))
        with pytest.raises(ModeCountError, match="cannot carry"):
            ad.ifftn(ad.Tensor(np.zeros((1, 5, 1), dtype=complex)), (8,))
        with pytest.raises(ModeCountError, match="cannot carry"):
            ad.ifftn(ad.Tensor(np.zeros((1, 10, 1), dtype=complex)), (8,))


def tape_ops(out):
    """Op names of every recorded node reachable from a tensor."""
    ops, seen, stack = Counter(), set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        if node._parents:
            ops[node._op.split("[")[0]] += 1
        stack.extend(node._parents)
    return ops


class TestSpectralTape:
    """Each spectral path records the FFT pair and its own ops: no separate
    corner gather, scatter or real-part nodes."""

    def test_fno_block(self):
        rng = np.random.default_rng(0)
        block = FnoBlock("fno", 2, 3, 2, activation=False)
        store = ad.ParamStore()
        block.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((2, 36, 2)), requires_grad=True)
        ops = tape_ops(block(store, x, (6, 6)))
        assert ops == Counter(reshape=2, fftn=1, make_complex=1, matmul=2,
                              ifftn=1, add=2)

    def test_spectral_resample(self):
        x = ad.Tensor(np.random.default_rng(1).standard_normal((1, 16, 2)),
                      requires_grad=True)
        ops = tape_ops(spectral_resample(x, (4, 4), (8, 6)))
        assert ops == Counter(fftn=1, mul=1, ifftn=1)

    def test_fourier_vspe(self):
        vspe = Vspe("fourier", embed_dim=3, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(2))
        ops = tape_ops(vspe.evaluate(store, "u", Mesh.uniform((8, 8))))
        assert ops == Counter(make_complex=1, mul=1, ifftn=1)

    def test_codano_layer(self):
        """Reshapes: two per spectral block, five to split and join the heads,
        two inside normalize; none around normalize."""
        config = ModelConfig(variables=("u",), latent_width=4, n_heads=2, key_width=3,
                             value_width=3, modes=2, latent_resolution=(6, 6))
        layer = CodanoLayer("enc", config)
        store = ad.ParamStore()
        layer.init_params(store, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 3, 36, 4)),
                      requires_grad=True)
        ops = tape_ops(layer(store, x, Mesh.uniform((6, 6))))
        assert ops == Counter(reshape=17, add=14, matmul=10, fftn=5, make_complex=5,
                              ifftn=5, mul=4, einsum=3, div=2, sub=1, sqrt=1,
                              ordered_sum=1, transpose=1, softmax_rows=1, gelu=1)


class TestOrderedReductions:
    def test_ordered_sum_permutation_bits(self):
        """Summing a shuffled axis in value-sorted order is bit-identical."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 64))
        perm = rng.permutation(5)
        a = ad.ordered_sum(ad.Tensor(x), axis=0).data
        b = ad.ordered_sum(ad.Tensor(x[perm]), axis=0).data
        assert np.array_equal(a, b)

    def test_ordered_sum_grad(self):
        x = ad.Tensor(np.random.default_rng(5).standard_normal((4, 6)), requires_grad=True)
        w = np.random.default_rng(6).standard_normal(6)
        check_against_fd(lambda: (ad.ordered_sum(x, axis=0) * w).sum(), [x])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        s = ad.softmax_rows(ad.Tensor(rng.standard_normal((6, 6)) * 3)).data
        assert np.max(np.abs(s.sum(axis=-1) - 1.0)) < 1e-12

    def test_softmax_uniform_on_identical_logits(self):
        s = ad.softmax_rows(ad.Tensor(np.full((3, 3), 0.7))).data
        assert np.max(np.abs(s - 1.0 / 3.0)) < 1e-12

    def test_softmax_permutation_bits(self):
        """Permuting a row's entries permutes its softmax bit-identically."""
        rng = np.random.default_rng(8)
        row = rng.standard_normal(7)
        perm = rng.permutation(7)
        a = ad.softmax_rows(ad.Tensor(row[None, :])).data[0]
        b = ad.softmax_rows(ad.Tensor(row[perm][None, :])).data[0]
        assert np.array_equal(a[perm], b)

    def test_softmax_grad(self):
        x = ad.Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
        w = np.random.default_rng(10).standard_normal((3, 4))
        check_against_fd(lambda: (ad.softmax_rows(x) * w).sum(), [x])


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(x + 1.0)

    def test_unreachable_params_get_zero_grad(self):
        store = ad.ParamStore()
        a = store.add("used", np.ones(2))
        store.add("unused", np.ones(3))
        ad.backward((a * 2.0).sum(), params=store)
        assert np.array_equal(store["unused"].grad, np.zeros(3))
        assert np.array_equal(store["used"].grad, np.full(2, 2.0))

    def test_fanout_accumulates(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        ad.backward(y.sum())
        assert x.grad[0] == pytest.approx(8.0, rel=1e-14)

    def test_tape_freed_after_backward(self):
        x = ad.Tensor(np.ones(4), requires_grad=True)
        y = (x * x).sum()
        ad.backward(y)
        assert y._vjp is None and y._parents == ()



class TestOptimizer:
    def test_adam_single_step_matches_manual(self):
        store = ad.ParamStore()
        p = store.add("w", np.array([1.0, 2.0]))
        p.grad = np.array([0.1, -0.2])
        state = ad.AdamState(lr=0.01)
        ad.optimizer_step(store, state)
        # first step: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
        expected = np.array([1.0, 2.0]) - 0.01 * np.array([0.1, -0.2]) / (
            np.abs(np.array([0.1, -0.2])) + 1e-8
        )
        assert np.allclose(p.data, expected, rtol=1e-12)

    def test_zero_grads_leave_fresh_params_unchanged(self):
        store = ad.ParamStore()
        p = store.add("w", np.ones(3))
        p.grad = np.zeros(3)
        ad.optimizer_step(store, ad.AdamState())
        assert np.array_equal(p.data, np.ones(3))

    def test_frozen_params_bit_identical(self):
        store = ad.ParamStore()
        a = store.add("encoder.w", np.ones(2))
        b = store.add("head.w", np.ones(2))
        store.freeze("encoder")
        a.grad = np.full(2, 9.9)
        b.grad = np.full(2, 1.0)
        before = a.data.copy()
        ad.optimizer_step(store, ad.AdamState())
        assert np.array_equal(a.data, before)
        assert not np.array_equal(b.data, np.ones(2))

    def test_missing_grad_raises(self):
        store = ad.ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(TrainingStateError, match="missing gradient"):
            ad.optimizer_step(store, ad.AdamState())

    def test_clip_grad_norm(self):
        store = ad.ParamStore()
        p = store.add("w", np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = ad.clip_grad_norm(store, 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_raises_before_any_update(self, bad):
        """A NaN or inf gradient stops clipping before it scales anything,
        so parameters, gradients and Adam's moments stay byte-unchanged."""
        store = ad.ParamStore()
        w = store.add("w", np.arange(4.0))
        w.grad = np.full(4, 0.5)
        state = ad.AdamState()
        ad.optimizer_step(store, state)
        before = (w.data.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes())
        w.grad = np.array([0.1, bad, -0.2, 0.3])
        grad = w.grad.copy()
        with pytest.raises(NumericError, match="gradient norm"):
            ad.clip_grad_norm(store, 1.0)
        assert (w.data.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes()) == before
        assert np.array_equal(w.grad, grad, equal_nan=True)
        assert state.step == 1

    def test_determinism_two_runs_bit_identical(self):
        """Same seed, same data: parameters after N Adam steps agree bitwise."""

        def run():
            rng = np.random.default_rng(11)
            store = ad.ParamStore()
            w = store.add("w", rng.standard_normal((3, 3)))
            state = ad.AdamState()
            x = rng.standard_normal((5, 3))
            for _ in range(10):
                store.zero_grads()
                loss = (ad.einsum2("ni,io->no", x, w) * 1.0).sum()
                ad.backward(loss, store)
                ad.optimizer_step(store, state)
            return store["w"].data.copy()

        assert np.array_equal(run(), run())


class TestGradCheck:
    def _store_and_loss(self):
        rng = np.random.default_rng(12)
        store = ad.ParamStore()
        w1 = store.add("mlp.w1", rng.standard_normal((3, 5)) * 0.5)
        w2 = store.add("mlp.w2", rng.standard_normal((5, 2)) * 0.5)
        x = rng.standard_normal((7, 3))
        t = rng.standard_normal((7, 2))

        def loss():
            h = ad.gelu(ad.einsum2("ni,ih->nh", x, w1))
            y = ad.einsum2("nh,ho->no", h, w2)
            return ((y - t) * (y - t)).sum()

        return store, loss

    def test_passes_on_correct_gradients(self):
        store, loss = self._store_and_loss()
        report = ad.grad_check(loss, store, tol=1e-5)
        assert report.passed, report.summary_lines()

    def test_corrupted_gradient_fails_naming_group(self):
        store, loss = self._store_and_loss()
        report = ad.grad_check(loss, store, tol=1e-5, corrupt="mlp.w2")
        assert not report.passed
        assert report.groups["mlp.w2"].status == "fail"
        assert report.groups["mlp.w1"].status == "ok"
        assert report.worst_group == "mlp.w2"

    def test_tol_zero_always_fails(self):
        store, loss = self._store_and_loss()
        report = ad.grad_check(loss, store, tol=0.0)
        assert not report.passed

    def test_frozen_groups_skipped(self):
        store, loss = self._store_and_loss()
        store.freeze("mlp.w1")
        report = ad.grad_check(loss, store, tol=1e-5)
        assert report.groups["mlp.w1"].status == "skipped"
        assert report.passed


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ad.ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(TrainingStateError, match="already exists"):
            store.add("w", np.ones(1))
