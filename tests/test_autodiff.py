"""Reverse-mode gradients verified against central finite differences."""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from codano import autodiff as ad
from codano.errors import ModeCountError, NumericError, ShapeError, TrainingStateError
from codano.field import GridFunction, Mesh
from codano.gno import KernelNet, build_neighbors, gno_set_apply
from codano.model import CodanoLayer, ModelConfig, Vspe, init_params, model_forward
from codano.spectral import FnoBlock, PointwiseOp, spectral_resample
from codano.training import loss_relative_l2


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
        """GELU(0) = 0 and GELU(+-1) = +-1 * Phi_t(+-1) in the tanh form."""
        x = ad.Tensor(np.array([0.0, 1.0, -1.0]))
        out = ad.gelu(x).data
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.8411919906082767, rel=1e-12)
        assert out[2] == pytest.approx(-0.1588080093917233, rel=1e-12)

    def test_gelu_bytes_equal_former_expressions(self):
        """In-place forward and slope keep the IEEE operations of the tanh
        expressions below, in their order."""
        x = self.rng.standard_normal((4, 2, 64, 32)) * 3.0
        g = self.rng.standard_normal(x.shape)
        saved = x.copy()
        out = ad.gelu(ad.Tensor(x, requires_grad=True))
        c, a = np.sqrt(2.0 / np.pi), 0.044715
        cdf = 0.5 * (1.0 + np.tanh((x * x * (c * a) + c) * x))
        two_u = x * (x * x * (6.0 * c * a) + 2.0 * c)
        slope = cdf * (1.0 + two_u * (1.0 - cdf))
        assert out.data.tobytes() == (x * cdf).tobytes()
        assert out._vjp(g)[0].tobytes() == (g * slope).tobytes()
        # the slope is d/dx [x Phi_t] = Phi_t + x * 2 Phi_t (1 - Phi_t) * c (1 + 3a x^2)
        t = np.tanh(c * (x + a * x ** 3))
        written = 0.5 * (1 + t) + x * 0.5 * (1 - t * t) * c * (1 + 3 * a * x * x)
        assert np.max(np.abs(slope - written)) <= 1e-12
        # off the tape the output reuses the Phi buffer, with the same bytes
        with ad.no_grad():
            untaped = ad.gelu(ad.Tensor(x, requires_grad=True))
        assert untaped.data.tobytes() == out.data.tobytes()
        assert ad.gelu(ad.Tensor(x)).data.tobytes() == out.data.tobytes()
        assert x.tobytes() == saved.tobytes()

    def test_gelu_slope_against_finite_differences_into_saturation(self):
        """Each point's slope against its own central difference, for |x| up
        to 8, where tanh saturates, and near 0."""
        x = np.concatenate([np.linspace(-8.0, 8.0, 321),
                            [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3]])
        slope = ad.gelu(ad.Tensor(x, requires_grad=True))._vjp(np.ones_like(x))[0]
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        up, down = x + h, x - h
        with ad.no_grad():
            fd = (ad.gelu(up).data - ad.gelu(down).data) / (up - down)
        assert np.all(np.abs(slope - fd) <= 1e-8)
        # saturated, the slope is Phi_t itself: 1 above, 0 below
        assert slope[x == 8.0] == 1.0 and slope[x == -8.0] == 0.0

    def test_gelu_slope_is_finite_at_huge_inputs(self):
        """Past |x| = 1e100 the slope is Phi_t's saturated 1 or 0, not the
        NaN of an overflowing x^3 times 1 - Phi_t = 0."""
        x = np.array([1e103, 1e155, -1e103, -1e155])
        with np.errstate(over="ignore"):  # _phi's x^3 overflows; its value is right
            out = ad.gelu(ad.Tensor(x, requires_grad=True))
        slope = out._vjp(np.ones_like(x))[0]
        assert slope.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_gelu_slope_writes_out_and_allocates_nothing(self):
        """_gelu_slope fills `out` and returns it, overwriting z and leaving
        Phi_t as it was, and allocates far less than one input-sized array."""
        z = self.rng.standard_normal(1 << 16) * 3.0
        phi = ad._phi(z)
        kept, h = phi.copy(), np.empty_like(z)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = ad._gelu_slope(z, phi, out=h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got is h
        assert peak < z.nbytes // 64
        assert phi.tobytes() == kept.tobytes()

    def test_complex_view_bytes_equal_former_expression(self):
        """The view of stacked (re, im) draws has the bytes of the complex
        array the former paired parameters were copied into, and no copy."""
        re, im = self.rng.standard_normal((2, 16, 8, 4, 4))
        pairs = ad.Tensor(np.stack((re, im), -1), requires_grad=True)
        out = ad.complex_view(pairs)
        former = np.empty(re.shape, np.complex128)
        former.real, former.imag = re, im
        assert out.data.dtype == np.complex128 and out.shape == re.shape
        assert out.data.tobytes() == former.tobytes() == (re + 1j * im).tobytes()
        assert np.shares_memory(out.data, pairs.data)
        # the cotangent viewed as pairs: (dL/dRe, dL/dIm) per element
        g = self.rng.standard_normal(re.shape) + 1j * self.rng.standard_normal(re.shape)
        (gp,) = out._vjp(g)
        assert gp.shape == pairs.shape
        assert gp[..., 0].tobytes() == np.ascontiguousarray(g.real).tobytes()
        assert gp[..., 1].tobytes() == np.ascontiguousarray(g.imag).tobytes()

    def test_complex_view_grad(self):
        """Through a real output: the pairs' gradient against finite differences."""
        pairs = ad.Tensor(self.rng.standard_normal((2, 4, 2, 3, 2)), requires_grad=True)
        probe = self.rng.standard_normal((2, 16, 3))
        check_against_fd(
            lambda: (ad.ifftn(ad.complex_view(pairs), (4, 4)) * probe).sum(), [pairs])

    def test_complex_view_rejects_other_shapes(self):
        for bad in (np.zeros((3, 4)), np.zeros((3, 2), np.complex128), np.zeros(())):
            with pytest.raises(ShapeError, match="complex_view"):
                ad.complex_view(bad)


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

    def test_split_grad(self):
        a = ad.Tensor(self.rng.standard_normal((2, 3, 7)), requires_grad=True)
        w = [self.rng.standard_normal((2, 3, k)) for k in (2, 4, 1)]

        def loss():
            x, y, z = ad.split(a * 1.5, (2, 4, 1))
            return (x * w[0]).sum() + (y * y * w[1]).sum() + (z * w[2]).sum()

        check_against_fd(loss, [a])
        # a block the loss never reaches gets a zero cotangent
        check_against_fd(lambda: (ad.split(a, (3, 4))[1] * w[1]).sum(), [a])
        assert np.all(a.grad[..., :3] == 0)

    def test_split_is_views_and_its_vjp_a_concat(self):
        a = ad.Tensor(self.rng.standard_normal((3, 5, 6)), requires_grad=True)
        parts = ad.split(a, (1, 3, 2))
        assert [p.shape for p in parts] == [(3, 5, 1), (3, 5, 3), (3, 5, 2)]
        assert all(np.shares_memory(p.data, a.data) for p in parts)
        assert np.array_equal(np.concatenate([p.data for p in parts], -1), a.data)
        g = [self.rng.standard_normal(p.shape) for p in parts]
        loss = sum(((p * c).sum() for p, c in zip(parts, g)), ad.Tensor(0.0))
        ad.backward(loss)
        assert np.array_equal(a.grad, np.concatenate(g, -1))
        with pytest.raises(ShapeError, match="split"):
            ad.split(a, (3, 2))
        with pytest.raises(ShapeError, match="split"):
            ad.split(a, (6, 0))

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

    def test_matmul_grad_on_an_empty_stack(self):
        """A zero-length stack axis beside a broadcast one (a GNO apply with
        no pairs) gives zero-size and zero gradients, not a reshape error."""
        a = ad.Tensor(np.zeros((0, 1, 2, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((0, 4, 3, 1)), requires_grad=True)
        ad.backward(ad.tsum(ad.matmul(a, b)))
        assert a.grad.shape == (0, 1, 2, 3) and b.grad.shape == (0, 4, 3, 1)

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
        # weight per mode, both viewed from real pairs; the loss is a real part
        parts = [ad.Tensor(self.rng.standard_normal(shape), requires_grad=True)
                 for shape in ((2, 3, 4, 1, 3, 2), (3, 4, 3, 2, 2))]
        c = self.rng.standard_normal((2, 3, 4, 1, 2)) + 1j * self.rng.standard_normal(
            (2, 3, 4, 1, 2))

        def loss():
            out = ad.matmul(ad.complex_view(parts[0]), ad.complex_view(parts[1]))
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

    def test_sparse_matmul(self, monkeypatch):
        """The CSR product of `kernel_integral` takes and returns plain
        arrays and records no node."""
        mat = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        x = self.rng.standard_normal((4, 3))
        monkeypatch.setattr(ad, "_node", lambda *args: pytest.fail("recorded a node"))
        out = ad.sparse_matmul(mat, x)
        assert type(out) is np.ndarray and out.shape == (6, 3)
        assert np.allclose(out, mat.toarray() @ x, rtol=1e-14, atol=0.0)

    def kernel_problem(self, p=7, n_s=5, n_q=4, d_out=2, d_in=3, groups=2, hidden=5):
        """Values, pair coordinates, the weights and biases of a kernel MLP
        (4 -> hidden -> d_out*d_in), and a weighted gather and ones scatter
        with one gather entry per pair, as a neighbour index builds them."""
        src = self.rng.integers(0, n_s, p)
        dst = np.sort(self.rng.integers(0, n_q, p))
        gather = sp.csr_matrix((self.rng.uniform(0.5, 1.5, p), (np.arange(p), src)),
                               shape=(p, n_s))
        scatter = sp.csr_matrix((np.ones(p), (dst, np.arange(p))), shape=(n_q, p))
        v = ad.Tensor(self.rng.standard_normal((n_s, groups * d_in)), requires_grad=True)
        coords = self.rng.random((p, 4))
        weights = [ad.Tensor(self.rng.standard_normal((a, b)) / np.sqrt(a), requires_grad=True)
                   for a, b in ((4, hidden), (hidden, d_out * d_in))]
        biases = [ad.Tensor(self.rng.standard_normal(w.shape[1]), requires_grad=True)
                  for w in weights]
        return v, coords, weights, biases, (gather, gather.T.tocsr()), (scatter, scatter.T.tocsr())

    def test_kernel_integral_grad(self):
        v, coords, weights, biases, gather, scatter = self.kernel_problem()
        probe = self.rng.standard_normal((4, 4))
        check_against_fd(
            lambda: (ad.kernel_integral(v, coords, weights, biases, 3, gather, scatter)
                     * probe).sum(), [v, *weights, *biases])

    def test_kernel_integral_rejects_mismatched_operands(self):
        """Pair coordinates, values, kernel widths or matrices for another
        index fail loudly rather than broadcasting."""
        v, coords, ws, bs, gather, scatter = self.kernel_problem()
        other_v, other_coords, _, _, _, other_scatter = self.kernel_problem(
            p=6, n_s=8, n_q=4)
        k = np.zeros((7, 2, 3))
        for args in ((v, other_coords, ws, bs, 3, gather, scatter),   # pairs != gather rows
                     (v, coords, ws, bs, 3, gather, other_scatter),   # pairs != scatter columns
                     (other_v, coords, ws, bs, 3, gather, scatter),   # rows != gather columns
                     (v.data[:, :5], coords, ws, bs, 3, gather, scatter),  # not groups of d_in
                     (v, coords, ws, bs, 4, gather, scatter),         # last width not d_out*d_in
                     (v, coords[:, :3], ws, bs, 3, gather, scatter),  # not the MLP's input width
                     (v, coords[0], ws, bs, 3, gather, scatter),
                     (v.data[0], coords, ws, bs, 3, gather, scatter),
                     (v.data, coords, ws, bs, 3, gather, scatter, k[:6])):  # matrices for 6 pairs
            with pytest.raises(ShapeError, match="kernel_integral"):
                ad.kernel_integral(*args)
        with pytest.raises(TrainingStateError, match="off the tape"):
            ad.kernel_integral(v, coords, ws, bs, 3, gather, scatter, k)
        with ad.no_grad():
            ad.kernel_integral(v, coords, ws, bs, 3, gather, scatter, k)

    def test_row_blocks_serve_mlp_and_kernel_integral(self, monkeypatch):
        """`_row_blocks` cuts [0, rows) once, in order, into blocks that
        start at multiples of 64 rows, of the budget's size rounded down to
        64 rows (64 at least) but the last; `mlp`'s row tiles and
        `kernel_integral`'s pair blocks, taped or reading kernel matrices,
        are its slices."""
        for rows, row_floats, budget in ((0, 5, 1000), (1, 5, 1), (64, 1, 64), (65, 1, 64),
                                         (200, 3, 1000), (1000, 7, 7 * 190), (130, 0, 10)):
            blocks = ad._row_blocks(rows, row_floats, budget)
            step = max(64, budget // max(1, row_floats) // 64 * 64)
            assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
            assert all(b.start % 64 == 0 and b.step is None for b in blocks)
            assert all(b.stop - b.start == step for b in blocks[:-1])
        asked, tiles = [], []
        real_blocks, real_tile = ad._row_blocks, ad._mlp_tile

        def blocks(*args):
            asked.append(args)
            return real_blocks(*args)

        monkeypatch.setattr(ad, "_row_blocks", blocks)
        monkeypatch.setattr(ad, "_mlp_tile", lambda x, *args: tiles.append(x.shape[-2])
                            or real_tile(x, *args))
        monkeypatch.setattr(ad, "_MLP_TILE_FLOATS", 3 * 8 * 64)
        ad.mlp(self.rng.standard_normal((3, 200, 4)), [np.ones((4, 8)), np.ones((8, 2))],
               [np.zeros(8), np.zeros(2)])
        assert asked == [(200, 24, 3 * 8 * 64)] and tiles == [64, 64, 64, 8]
        v, coords, ws, bs, gather, scatter = self.kernel_problem(p=150)
        gathers, real_csr = [], ad.sparse_matmul
        monkeypatch.setattr(ad, "sparse_matmul", lambda s_mat, x: gathers.extend(
            s_mat.shape[:1] if s_mat.shape[1] == 5 else ()) or real_csr(s_mat, x))
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", 6 * 64)
        taped = (v, coords, ws, bs, 3, gather, scatter)
        # off the tape on kernel matrices, as the no_grad memo runs it
        memo = (v.data, coords, [w.data for w in ws], [b.data for b in bs], 3, gather,
                scatter, np.zeros((150, 2, 3)))
        for args, mlp_tiles in ((taped, [64, 64, 22]), (memo, [])):
            for log in (asked, tiles, gathers):
                log.clear()
            ad.kernel_integral(*args)
            assert asked == [(150, 6, 6 * 64)]
            assert gathers == [64, 64, 22] and tiles == mlp_tiles


def former_matmul(a, b, bias):
    """The former `ad.matmul(a, b, bias=bias)` node, kept as a reference: the
    product, the bias added in place, and matmul's vjp with the bias
    cotangent summed down as `add`'s."""
    a, b, bias = ad.as_tensor(a), ad.as_tensor(b), ad.as_tensor(bias)
    out = a.data @ b.data
    out += bias.data

    def vjp(g):
        ga = (ad._folded_matmul(g, np.swapaxes(b.data, -1, -2), a.data.shape)
              if a.requires_grad else None)
        gb = (ad._folded_matmul(np.swapaxes(a.data, -1, -2), g, b.data.shape)
              if b.requires_grad else None)
        return ga, gb, ad._unbroadcast(g, bias.data.shape) if bias.requires_grad else None

    return ad._node(out, (a, b, bias), vjp, "matmul")


def former_mlp(x, weights, biases):
    """The former pointwise MLP: a `former_matmul` node per layer and a
    `gelu` node between layers."""
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = former_matmul(x, w, b)
        if i < len(weights) - 1:
            x = ad.gelu(x)
    return x


# (input shape, widths, frozen names, tile constant or None for the module's,
# rows of each tile in order)
MLP_CASES = [
    ((6, 3), (3, 4), (), None, (6,)),               # one linear layer
    ((2, 5, 3), (3, 8, 2), (), None, (5,)),         # one hidden layer
    ((3, 2, 7, 4), (4, 8, 6, 5), (), None, (7,)),   # stack-broadcast (S, T, n, c)
    ((9, 4), (4, 32, 32, 6), ("x",), None, (9,)),   # constant input, as pair coords
    ((2, 3, 5, 3), (3, 6, 4), ("w1", "b0"), None, (5,)),  # a frozen weight and bias
    # tiles of 64 rows, each case with a ragged tail
    ((3, 2, 150, 4), (4, 8, 6, 5), (), 1, (64, 64, 22)),
    ((200, 4), (4, 32, 32, 6), ("x",), 1, (64, 64, 64, 8)),
    ((2, 3, 100, 3), (3, 6, 4), ("w1", "b0"), 1, (64, 36)),
    # the benchmark's shapes at the module's tile size
    ((1, 3, 8192, 16), (16, 32, 1), (), None, (512,) * 16),      # infer projection
    ((4, 2, 4096, 5), (5, 32, 16), (), None, (192,) * 21 + (64,)),  # c09 lift
    ((2000, 4), (4, 32, 32, 256), ("x",), None, (1536, 464)),    # GNO kernel MLP
]


class TestMlp:
    """ad.mlp against the former chain of matmul(bias=) and gelu nodes."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def problem(self, x_shape, widths):
        """Input "x", weights "w0", "w1", ... and biases "b0", "b1", ..."""
        arrays = {"x": self.rng.standard_normal(x_shape) * 2.0}
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            arrays[f"w{i}"] = self.rng.standard_normal((a, b)) / np.sqrt(a)
            arrays[f"b{i}"] = self.rng.standard_normal(b)
        return arrays

    @staticmethod
    def run(fn, arrays, probe, frozen=()):
        """Output and gradients of sum(fn(...) * probe) on copies of the
        arrays; names in `frozen` get requires_grad=False."""
        ts = {k: ad.Tensor(v.copy(), requires_grad=k not in frozen) for k, v in arrays.items()}
        n = len(arrays) // 2
        out = fn(ts["x"], [ts[f"w{i}"] for i in range(n)], [ts[f"b{i}"] for i in range(n)])
        ad.backward(ad.tsum(out * probe))
        return out.data, {k: t.grad for k, t in ts.items()}

    @pytest.mark.parametrize("x_shape,widths,frozen,tile_floats,tiles", MLP_CASES, ids=[
        f"x_shape{i}-widths{i}-frozen{i}" for i in range(len(MLP_CASES))])
    def test_bytes_equal_former_chain(self, monkeypatch, x_shape, widths, frozen,
                                      tile_floats, tiles):
        """Taped and untaped outputs and the gradients against the former
        chain; `tiles` are the rows of each tile in order (at least 64 rows
        a tile, so a constant of 1 gives tiles of 64)."""
        if tile_floats is not None:
            monkeypatch.setattr(ad, "_MLP_TILE_FLOATS", tile_floats)
        arrays = self.problem(x_shape, widths)
        probe = self.rng.standard_normal(x_shape[:-1] + widths[-1:])
        ref_out, ref_grads = self.run(former_mlp, arrays, probe, frozen)
        rows, phi = [], ad._phi
        monkeypatch.setattr(ad, "_phi", lambda h, out=None: rows.append(h.shape[-2])
                            or phi(h, out))
        out, grads = self.run(ad.mlp, arrays, probe, frozen)
        n = len(widths) - 1
        with ad.no_grad():
            untaped = ad.mlp(arrays["x"], [arrays[f"w{i}"] for i in range(n)],
                             [arrays[f"b{i}"] for i in range(n)])
        assert rows == [r for r in tiles for _ in range(n - 1)] * 2
        assert out.tobytes() == ref_out.tobytes() == untaped.data.tobytes()
        assert grads.keys() == ref_grads.keys()
        for k, g in grads.items():
            if k in frozen:
                assert g is None and ref_grads[k] is None
            else:
                assert g.shape == ref_grads[k].shape and g.tobytes() == ref_grads[k].tobytes()

    def test_no_grad_bytes_and_input_untouched(self):
        arrays = self.problem((2, 3, 7, 4), (4, 8, 6, 5))
        saved = arrays["x"].copy()
        ts = [ad.Tensor(arrays[k], requires_grad=True) for k in ("x", "w0", "w1", "w2")]
        bs = [ad.Tensor(arrays[f"b{i}"], requires_grad=True) for i in range(3)]
        taped = ad.mlp(ts[0], ts[1:], bs)
        with ad.no_grad():
            untaped = ad.mlp(ts[0], ts[1:], bs)
        assert not untaped.requires_grad and untaped._vjp is None
        assert untaped.data.tobytes() == taped.data.tobytes()
        assert arrays["x"].tobytes() == saved.tobytes()

    def test_grad_against_finite_differences(self):
        arrays = self.problem((2, 4, 3), (3, 5, 4, 2))
        ts = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        probe = self.rng.standard_normal((2, 4, 2))

        def loss():
            return (ad.mlp(ts["x"], [ts[f"w{i}"] for i in range(3)],
                           [ts[f"b{i}"] for i in range(3)]) * probe).sum()

        check_against_fd(loss, list(ts.values()))

    def test_grad_into_saturation_against_finite_differences(self):
        """Two layers whose pre-activations span |z| up to 8 and points near
        0: every gradient entry against its own central difference."""
        x = np.concatenate([np.linspace(-8.0, 8.0, 33), [0.0, 1e-6, -1e-6, 1e-3, -1e-3]])
        ts = {"x": ad.Tensor(x[:, None], requires_grad=True),
              "w0": ad.Tensor(np.array([[1.0, -1.0, 0.5]]), requires_grad=True),
              "b0": ad.Tensor(np.zeros(3), requires_grad=True),
              "w1": ad.Tensor(self.rng.standard_normal((3, 2)), requires_grad=True),
              "b1": ad.Tensor(self.rng.standard_normal(2), requires_grad=True)}
        probe = self.rng.standard_normal((len(x), 2))

        def loss():
            return (ad.mlp(ts["x"], [ts["w0"], ts["w1"]], [ts["b0"], ts["b1"]]) * probe).sum()

        ad.backward(loss())
        for t in ts.values():
            fd = fd_grad(loss, t)
            assert np.all(np.abs(t.grad - fd) <= 1e-6 * (1.0 + np.abs(fd)))

    def test_c09_lift_backward_peaks_at_two_hidden_arrays(self):
        """The c09 lift (5 -> 32 -> 16) on one batch of 4 two-variable 64^2
        samples. The tape keeps one hidden-size array, the Phi_t buffer: no
        vjp reads the lift's output or its product with the probe, so both
        are gone once the forward drops them. Above the tape, the backward
        holds the output's cotangent and at most two hidden-size arrays, as
        it did with the erf form (16.78 MB here)."""
        rng = np.random.default_rng(5)
        op = PointwiseOp("lift", (5, 32, 16))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((4, 2, 4096, 5)), requires_grad=True)
        probe = rng.standard_normal((4, 2, 4096, 16))
        hidden, out = 4 * 2 * 4096 * 32 * 8, 4 * 2 * 4096 * 16 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = ad.tsum(op(store, x) * probe)
            tape = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start - tape - out
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert hidden <= tape < hidden + hidden // 64
        assert hidden < peak < 2 * hidden + hidden // 64

    def test_untaped_forward_holds_no_whole_hidden_array(self):
        """The infer projection (16 -> 32 -> 1) of three variables on a
        128x64 query mesh under no_grad: the forward holds a tile of each
        hidden array, never a whole one."""
        rng = np.random.default_rng(5)
        op = PointwiseOp("proj", (16, 32, 1))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((1, 3, 8192, 16)))
        hidden = 1 * 3 * 8192 * 32 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with ad.no_grad():
                out = op(store, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 3, 8192, 1)
        assert peak < hidden

    def test_rejects_complex_and_mismatched_widths(self):
        x, w, b = np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4)
        for args in ((x.astype(complex), [w], [b]),             # complex input
                     (x, [w.astype(complex)], [b]),             # complex weight
                     (np.zeros((2, 5)), [w], [b]),              # input width
                     (x, [w, np.zeros((5, 2))], [b, np.zeros(2)]),  # hidden width
                     (x, [w], [np.zeros(3)]),                   # bias width
                     (x, [w], [np.zeros((2, 4))]),              # bias rank
                     (x, [w, np.zeros((4, 2))], [b]),           # missing bias
                     (x, [], []),                               # no layer
                     (np.zeros(3), [w], [b]),                   # rank-1 input
                     (x, [np.zeros((3, 4, 1))], [b])):          # rank-3 weight
            with pytest.raises(ShapeError, match="mlp"):
                ad.mlp(*args)


def column_weights(m):
    """(m, 1) weights of a half band's last axis under ifftn: 1 on the DC
    column, 2 on columns 1..m-1, which stand in for their conjugate mirrors."""
    w = np.full((m, 1), 2.0)
    w[0] = 1.0
    return w


def re_sum(z):
    """Re of the sum of every entry of a half band z, through ifftn alone: at
    grid point 0 the inverse of a band on the grid it just fits (last axis
    twice the band's) is (1/N) Re(sum_k w_k z_k), w the column weights."""
    res = z.shape[1:-2] + (2 * z.shape[-2],)
    probe = np.zeros((z.shape[0], int(np.prod(res)), z.shape[-1]))
    probe[:, 0] = float(np.prod(res))
    return (ad.ifftn(z / column_weights(z.shape[-2]), res) * probe).sum()


class TestSpectralOps:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_fft_linear_functional(self):
        """d/dx of Re(sum a * FFT(x)) equals Re(N * ifft(a)) (conjugate adjoint)."""
        x = ad.Tensor(self.rng.standard_normal((1, 8, 1)), requires_grad=True)
        a = self.rng.standard_normal((1, 4, 1)) + 1j * self.rng.standard_normal((1, 4, 1))

        def loss():
            return re_sum(ad.fftn(x, (8,), (4,)) * a)

        ad.backward(loss())
        padded = np.concatenate((a, np.zeros((1, 4, 1))), axis=1)
        expected = (np.fft.ifftn(np.conj(padded), axes=(1,)) * 8).real
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
        """Real pairs -> complex view -> spectral multiply -> inverse -> real,
        against FD."""
        pairs = ad.Tensor(self.rng.standard_normal((2, 2, 2, 2)) * 0.3, requires_grad=True)
        x = ad.Tensor(self.rng.standard_normal((1, 4, 2)), requires_grad=True)
        probe = self.rng.standard_normal((1, 4, 2))

        def loss():
            w = ad.complex_view(pairs)
            out = ad.einsum2("bki,kio->bko", ad.fftn(x, (4,), (2,)), w)
            return (ad.ifftn(out, (4,)) * probe).sum()

        check_against_fd(loss, [pairs, x])

    def test_corner_extract_embed_adjoint_pair(self):
        """Band gather (fftn) and zero-padded scatter (ifftn) on a finer grid."""
        x = ad.Tensor(self.rng.standard_normal((2, 64, 3)), requires_grad=True)
        w = self.rng.standard_normal((2, 4, 2, 3))

        def loss():
            band = ad.fftn(x, (8, 8), (2, 2))
            trunc = ad.ifftn(band, (8, 8))
            return trunc.sum() + re_sum(band * w)

        check_against_fd(loss, [x])


def band_index(modes, res):
    """Per axis, the grid bins a half band keeps: [0, m) and [n - m, n) on
    every axis but the last, [0, m) on the last."""
    return ([np.r_[0:m, n - m:n] for m, n in zip(modes[:-1], res[:-1])]
            + [np.arange(modes[-1])])


def ref_fftn(x, modes):
    """fftn over whole axes by np.fft, the band taken from the full
    transform: forward and vjp, Re(N ifft) of the zero-padded cotangent."""
    axes = tuple(range(1, 1 + len(modes)))
    ix = np.ix_(range(x.shape[0]), *band_index(modes, x.shape[1:-1]), range(x.shape[-1]))
    band = np.fft.fftn(x, axes=axes)[ix]
    n_total = int(np.prod(x.shape[1:-1]))

    def vjp(g):
        full = np.zeros(x.shape, dtype=complex)
        full[ix] = g
        return (np.fft.ifftn(full, axes=axes) * n_total).real

    return band, vjp


def ref_ifftn(band, res):
    """ifftn over whole axes by np.fft: Re of the 1/N inverse of the
    zero-padded band, its last axis's columns weighted by column_weights;
    forward and vjp, the band of fftn over N under the same weights."""
    axes = tuple(range(1, 1 + len(res)))
    k = band.shape[1:-1]
    modes = tuple(a // 2 for a in k[:-1]) + k[-1:]
    shape = (band.shape[0],) + tuple(res) + (band.shape[-1],)
    ix = np.ix_(range(shape[0]), *band_index(modes, res), range(shape[-1]))
    w = column_weights(modes[-1])
    full = np.zeros(shape, dtype=complex)
    full[ix] = band * w
    out = np.ascontiguousarray(np.fft.ifftn(full, axes=axes).real)
    n_total = int(np.prod(res))

    def vjp(g):
        return np.fft.fftn(g, axes=axes)[ix] / n_total * w

    return out, vjp


# (grid resolution, retained modes): n == 2m as on the c09 latent grid,
# n > 2m, odd n, in 1-D, 2-D and 3-D
PAIR_CASES = [
    ((16,), (8,)), ((17,), (3,)),
    ((16, 16), (8, 8)), ((32, 24), (5, 12)), ((15, 9), (4, 2)),
    ((6, 5, 8), (3, 2, 2)), ((7, 8, 9), (1, 4, 3)),
]


def half_band(modes):
    """Band axes (2*m1, ..., 2*m(d-1), md) of the FFT pair."""
    return tuple(2 * m for m in modes[:-1]) + tuple(modes[-1:])


def close_to(got, ref):
    """Largest difference at most 1e-14 of the reference's largest value: the
    real-input transforms round differently from the complex chain, an
    indexing slip is O(1)."""
    assert got.shape == ref.shape
    return np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestFftPair:
    @pytest.mark.parametrize("res,modes", PAIR_CASES)
    def test_matches_former_chain(self, res, modes):
        """Forwards and vjps match the whole-axis np.fft chain (ref_fftn,
        ref_ifftn) on the half band."""
        rng = np.random.default_rng(sum(res) + len(res))
        x = rng.standard_normal((2,) + res + (3,))
        tokens = x.reshape(2, -1, 3)
        band = ad.fftn(ad.Tensor(tokens, requires_grad=True), res, modes)
        ref_band, ref_vjp = ref_fftn(x, modes)
        assert band.data.shape == (2,) + half_band(modes) + (3,)
        assert close_to(band.data, ref_band)
        g = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        gx = band._vjp(g)[0]
        assert gx.dtype == np.float64
        assert close_to(gx, ref_vjp(g).reshape(tokens.shape))

        b = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        out = ad.ifftn(ad.Tensor(b, requires_grad=True), res)
        ref_out, ref_vjp = ref_ifftn(b, res)
        assert out.data.flags.c_contiguous and out.data.dtype == np.float64
        assert close_to(out.data, ref_out.reshape(tokens.shape))
        y = rng.standard_normal(out.shape)
        assert close_to(out._vjp(y)[0], ref_vjp(y.reshape(x.shape)))

    @pytest.mark.parametrize("res,modes", PAIR_CASES)
    def test_column_weights_against_finite_differences(self, res, modes):
        """Both vjps against central differences: a vjp without its column
        weights is off by a factor 2 on every column but the DC column."""
        rng = np.random.default_rng(5 * sum(res) + 2)
        x = ad.Tensor(rng.standard_normal((1, int(np.prod(res)), 1)), requires_grad=True)
        shape = (1,) + half_band(modes) + (1,)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        check_against_fd(lambda: re_sum(ad.fftn(x, res, modes) * a), [x])

        pairs = ad.Tensor(rng.standard_normal(shape + (2,)), requires_grad=True)
        probe = rng.standard_normal(x.shape)
        check_against_fd(
            lambda: (ad.ifftn(ad.complex_view(pairs), res) * probe).sum(), [pairs])

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
        band_shape = (5,) + half_band(modes) + (3,)
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
        # an odd band on an axis other than the last has no two-sided layout
        with pytest.raises(ModeCountError, match="cannot carry"):
            ad.ifftn(ad.Tensor(np.zeros((1, 3, 2, 1), dtype=complex)), (8, 8))


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
        assert ops == Counter(reshape=2, fftn=1, complex_view=1, matmul=2,
                              ifftn=1, add=2)

    def test_pointwise_op(self):
        """The whole MLP is one mlp node: no matmul, add or gelu node."""
        op = PointwiseOp("mlp", (2, 4, 3))
        store = ad.ParamStore()
        op.init_params(store, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 5, 2)),
                      requires_grad=True)
        assert tape_ops(op(store, x)) == Counter(mlp=1)

    def test_spectral_resample(self):
        x = ad.Tensor(np.random.default_rng(1).standard_normal((1, 16, 2)),
                      requires_grad=True)
        ops = tape_ops(spectral_resample(x, (4, 4), (8, 6)))
        assert ops == Counter(resample=1)

    def test_fourier_vspe(self):
        vspe = Vspe("fourier", embed_dim=3, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(2))
        ops = tape_ops(vspe.evaluate(store, "u", Mesh.uniform((8, 8))))
        assert ops == Counter(complex_view=1, mul=1, ifftn=1)

    def test_codano_layer(self):
        """Three spectral blocks, key, query and value being one: three FFT
        pairs, and one split node with a node per channel block. Reshapes:
        two per spectral block, five to split and join the heads, two inside
        normalize; none around normalize."""
        config = ModelConfig(variables=("u",), latent_width=4, n_heads=2, key_width=3,
                             value_width=3, modes=2, latent_resolution=(6, 6))
        layer = CodanoLayer("enc", config)
        store = ad.ParamStore()
        layer.init_params(store, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).standard_normal((2, 3, 36, 4)),
                      requires_grad=True)
        ops = tape_ops(layer(store, x, Mesh.uniform((6, 6))))
        assert ops == Counter(reshape=13, add=10, matmul=6, fftn=3, complex_view=3,
                              ifftn=3, split=4, mul=4, einsum=3, div=2, sub=1, sqrt=1,
                              ordered_sum=1, transpose=1, softmax_rows=1, gelu=1)


class TestGnoTape:
    """A GNO apply is one kernel_integral node between the token values and
    the bias, whose other parents are the kernel MLP's weights and biases:
    no kernel MLP, matrix, gather, weight, message or scatter nodes. Its
    token values (3, 36, 2) reach the node as one transpose and one
    reshape, (36, 6)."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.kernel = KernelNet("ker", dim=2, d_in=2, d_out=2, hidden=(8,))
        self.store = ad.ParamStore()
        self.kernel.init_params(self.store, rng)
        mesh = Mesh.uniform((6, 6))
        self.nbrs = build_neighbors(mesh, mesh, 2.0 * mesh.spacing[0])
        self.values = ad.Tensor(rng.standard_normal((3, 36, 2)), requires_grad=True)

    def apply(self):
        return gno_set_apply(self.kernel, self.store, self.nbrs, self.values)

    @staticmethod
    def node(out):
        """The kernel_integral node under the bias add and the reshapes."""
        node = out._parents[0]._parents[0]._parents[0]._parents[0]._parents[0]
        assert node._op == "kernel_integral"
        return node

    def test_one_node(self):
        out = self.apply()
        assert tape_ops(out) == Counter(kernel_integral=1, reshape=4, transpose=2, add=1)
        mlp = [self.store[n] for n in ("ker.k.w0", "ker.k.w1", "ker.k.b0", "ker.k.b1")]
        parents = self.node(out)._parents
        assert len(parents) == 5 and all(a is b for a, b in zip(parents[1:], mlp))
        assert parents[0]._op == "reshape" and parents[0]._parents[0]._parents[0] is self.values

    def test_backward_recomputes_the_gather(self, monkeypatch):
        """At the default block size all the pairs here are one block."""
        self.check_products(monkeypatch, self.nbrs.n_pairs)

    def test_backward_recomputes_the_gather_per_block(self, monkeypatch):
        """Blocks of 100 pairs' values round down to 64 pairs, where the
        kernel MLP's row tiles may start."""
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", 100 * 3 * 2)
        assert self.nbrs.n_pairs > 128 and self.nbrs.n_pairs % 64
        self.check_products(monkeypatch, 64)

    def check_products(self, monkeypatch, step):
        """Forward, per block of `step` pairs: the kernel MLP on the block's
        pair coordinates, then the block's gather; then the whole scatter.
        Backward, per block: the scatter transpose's rows, the block's hidden
        layer recomputed, then the gather from the node's values again; then
        the whole gather transpose. The MLP is never run on all the pairs
        at once. A CSR product is logged as (rows of the CSR matrix, whether
        it multiplies the node's values, shape of the dense operand), an MLP
        run as ("mlp" or "hidden", rows)."""
        p = self.nbrs.n_pairs
        rows = [min(step, p - lo) for lo in range(0, p, step)]
        calls, cols = [], []
        real_csr, real_tile, real_hidden = ad.sparse_matmul, ad._mlp_tile, ad._mlp_hidden
        real_integral = ad.kernel_integral

        def counting(s_mat, x):
            calls.append((s_mat.shape[0], x, x.shape))
            return real_csr(s_mat, x)

        def tile(x, *args):
            calls.append(("mlp", len(x)))
            return real_tile(x, *args)

        def hidden(x, *args):
            calls.append(("hidden", len(x)))
            return real_hidden(x, *args)

        def integral(values, *args):
            cols.append(values.data)
            return real_integral(values, *args)

        monkeypatch.setattr(ad, "sparse_matmul", counting)
        monkeypatch.setattr(ad, "_mlp_tile", tile)
        monkeypatch.setattr(ad, "_mlp_hidden", hidden)
        monkeypatch.setattr(ad, "kernel_integral", integral)
        out = self.apply()
        self.node(out)

        def logged(start=0):
            return [c if c[0] in ("mlp", "hidden") else (c[0], c[1] is cols[0], c[2])
                    for c in calls[start:]]

        forward = 2 * len(rows) + 1
        assert logged() == [c for b in rows for c in (("mlp", b), (b, True, (36, 6)))
                            ] + [(36, False, (p, 6))]
        ad.backward(ad.tsum(out), self.store)
        assert logged(forward) == [c for b in rows for c in ((b, False, (36, 6)), ("hidden", b),
                                                             (b, True, (36, 6)))
                                   ] + [(36, False, (p, 6))]
        assert sum(c[0] for c in logged(forward) if c[1] is True) == p


class TestOrderedReductions:
    def test_ordered_sum_permutation_bits(self):
        """Summing a shuffled axis in value-sorted order is bit-identical."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 64))
        perm = rng.permutation(5)
        a = ad.ordered_sum(ad.Tensor(x), axis=0).data
        b = ad.ordered_sum(ad.Tensor(x[perm]), axis=0).data
        assert np.array_equal(a, b)

    def test_merge_network_sorts_every_zero_one_input(self):
        """By the 0-1 principle a comparator network that sorts every 0/1
        sequence of length n sorts every sequence of length n."""
        for n in range(1, 11):
            pairs = ad._merge_network(n)
            assert all(0 <= i < j < n for i, j in pairs)
            for bits in range(1 << n):
                v = [(bits >> k) & 1 for k in range(n)]
                for i, j in pairs:
                    v[i], v[j] = min(v[i], v[j]), max(v[i], v[j])
                assert v == sorted(v)

    def test_ordered_sum_bytes_equal_sorted_sum(self):
        """The network sum has the bytes of np.sort(x, axis).sum(axis) on a
        non-last axis, with ties and signed zeros, and permuting the summed
        axis keeps them."""
        rng = np.random.default_rng(11)
        for t in range(1, 13):
            for axis in (1, 2):
                shape = [2, 3, 3, 5, 2, 4]
                shape[axis] = t
                x = rng.integers(-2, 3, size=shape) * 0.5
                x[rng.random(shape) < 0.25] = -0.0
                live = rng.random(shape) < 0.3
                x[live] = rng.standard_normal(int(live.sum()))
                ref = np.sort(x, axis=axis).sum(axis=axis)
                got = ad.ordered_sum(ad.Tensor(x), axis=axis).data
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                perm = rng.permutation(t)
                shuffled = ad.ordered_sum(ad.Tensor(np.take(x, perm, axis=axis)), axis=axis)
                assert shuffled.data.tobytes() == ref.tobytes()
        zeros = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]])
        assert ad.ordered_sum(ad.Tensor(zeros), axis=0).data.tobytes() == (
            np.sort(zeros, axis=0).sum(axis=0).tobytes())

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


def probe(a, at_vjp):
    """An identity node whose vjp calls at_vjp() and passes its cotangent on."""
    def vjp(g):
        at_vjp()
        return (g,)

    return ad._node(a.data.copy(), (a,), vjp, "probe")


def former_backward(loss):
    """The reverse sweep as it was before it freed each node after its vjp:
    the same order over a list that holds every graph node to the end. It
    starts from the loss's node and walks links to graph nodes, leaves
    being their own nodes, whose dtype `ad._match` reads."""
    root = loss._node
    topo, visited, stack = [], set(), [(root, False)]
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
    for node in reversed(topo):
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.requires_grad and g is not None:
                g = ad._match(parent, g)
                parent.grad = g if parent.grad is None else parent.grad + g
        node._parents, node._vjp, node.grad = (), None, None


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

    def test_output_only_the_tape_holds_dies_before_a_later_vjp(self):
        """x -> probe -> h * h -> sum: the mul's vjp reads the probe's output,
        so once the caller drops it the tape alone holds it, and it is gone
        by the time the probe's vjp runs after the mul's."""
        x = ad.Tensor(np.arange(4.0), requires_grad=True)
        seen = []
        h = probe(x, lambda: seen.append(ref() is None))
        ref = weakref.ref(h.data)
        loss = ad.tsum(ad.mul(h, h))
        del h
        assert ref() is not None
        ad.backward(loss)
        assert seen == [True]
        assert np.array_equal(x.grad, 2.0 * np.arange(4.0))

    def test_tensors_the_caller_holds_keep_their_data(self):
        x = ad.Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        a = x * 3.0
        b = ad.gelu(a)
        loss = ad.tsum(b * b)
        kept = [t.data.copy() for t in (a, b, loss)]
        ad.backward(loss)
        for t, data in zip((a, b, loss), kept):
            assert t.data.tobytes() == data.tobytes()
            assert t._vjp is None and t._parents == ()

    def test_gradients_bytes_equal_former_sweep(self):
        """A chain with fan-out, so some gradients sum several terms."""
        rng = np.random.default_rng(1)
        x0, w0 = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))

        def graph():
            x = ad.Tensor(x0, requires_grad=True)
            w = ad.Tensor(w0, requires_grad=True)
            h = ad.gelu(ad.matmul(x, w))
            y = ad.matmul(h, w) * h + h * x + ad.softmax_rows(h)
            return ad.tsum(y * y), x, w

        loss, x, w = graph()
        ad.backward(loss)
        loss_f, x_f, w_f = graph()
        former_backward(loss_f)
        assert x.grad.tobytes() == x_f.grad.tobytes()
        assert w.grad.tobytes() == w_f.grad.tobytes()

    def test_late_vjp_sees_one_node_not_the_chain(self):
        """The backward of n GELU nodes, each keeping its 1-MB input and its
        1-MB Phi_t: by the time the first node's vjp runs (the sweep's last),
        what the n nodes after it kept has been freed, so that vjp peaks
        near one node's arrays above where the forward began."""
        n, size = 8, 1 << 17
        nbytes = 8 * size
        x = ad.Tensor(np.ones(size), requires_grad=True)
        peaks = []

        def one_vjps_work():
            tracemalloc.reset_peak()
            work = np.ones(size)
            peaks.append(tracemalloc.get_traced_memory()[1])
            del work

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = probe(x, one_vjps_work)
            for _ in range(n):
                h = ad.gelu(h)
            loss = ad.tsum(h)
            del h
            assert tracemalloc.get_traced_memory()[0] - base > 2 * n * nbytes
            ad.backward(loss)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] - base < 4 * nbytes



def tape_nodes(loss):
    """The tape walk the benchmark's tracer makes: every graph node reachable
    from a loss through `requires_grad` and `_parents`, the loss counted."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class TestTapeContract:
    """What the tape shows to its readers: graph nodes link to their parents'
    nodes, and a returned Tensor reads its node's links through itself."""

    def tiny_loss(self, use_gno):
        config = ModelConfig(variables=("u", "v"), embed_dim=2, latent_width=4,
                             n_heads=2, key_width=3, value_width=3, modes=2,
                             encoder_layers=1, reconstructor_layers=1,
                             predictor_layers=1, latent_resolution=(8, 8),
                             vspe_modes=2, gno_hidden=(4,), use_gno=use_gno, seed=0)
        rng = np.random.default_rng(0)
        mesh = Mesh.uniform((8, 8))
        batch = [GridFunction(mesh, rng.standard_normal((64, 2)), names=("u", "v"))
                 for _ in range(2)]
        params = init_params(config)
        pred = model_forward(params, config, batch)
        target = np.stack([f.values for f in batch])
        return loss_relative_l2(pred, target, mesh), params

    @pytest.mark.parametrize("use_gno,count", [(False, 167), (True, 193)])
    def test_tiny_model_node_count(self, use_gno, count):
        loss, params = self.tiny_loss(use_gno)
        assert tape_nodes(loss) == count
        ad.backward(loss, params)
        assert all(t.grad is not None for t in params.tensors())
        assert tape_nodes(loss) == 1

    def test_leaf_parents_are_the_leaf_tensors(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = ad.matmul(x, w)
        y = ad.add(h, np.ones(2))
        assert h._parents[0] is x and h._parents[1] is w
        # an op output's link is its node, not the Tensor the op returned
        assert y._parents[0] is h._node and y._parents[0] is not h
        assert y._parents[0]._parents[0] is x
        # a constant parent is linked to nothing that keeps its data
        assert not y._parents[1].requires_grad and y._parents[1]._parents == ()

    def test_returned_tensors_read_their_node(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = ad.gelu(x * 2.0)
        assert y._op == "gelu" and y._parents == y._node._parents
        h = y._parents[0]
        assert h._op == "mul" and h._parents[0] is x
        assert (h.shape, h.dtype) == ((2, 3), np.float64)
        g = rng.standard_normal((2, 3))
        ref = ad.gelu(ad.Tensor(x.data * 2.0, requires_grad=True))
        assert y._vjp(g)[0].tobytes() == ref._vjp(g)[0].tobytes()
        assert x._op == "leaf" and x._vjp is None and x._parents == ()


class TestTapeMemory:
    """What the tape keeps, seen by tracemalloc: only what a vjp reads."""

    n = 1 << 17  # floats in a 1-MB array

    def traced(self, build):
        """(bytes traced after `build()` returns, its result)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = build()
            return tracemalloc.get_traced_memory()[0] - base, out
        finally:
            tracemalloc.stop()

    def test_intermediate_feeding_shape_only_ops_is_freed(self):
        """x + 1 feeds a reshape, a transpose and a sum, whose vjps read
        shapes only: once the caller drops it, it is gone while its tape,
        which reaches x, is still alive."""
        x = ad.Tensor(np.arange(float(self.n)), requires_grad=True)
        refs = []

        def build():
            h = x + 1.0
            refs.append(weakref.ref(h.data))
            return ad.tsum(ad.transpose(ad.reshape(h, (-1, 2)), (1, 0)))

        held, loss = self.traced(build)
        assert refs[0]() is None and held < 8 * self.n // 16
        assert [p._op for p in loss._parents] == ["transpose"]
        ad.backward(loss)
        assert np.array_equal(x.grad, np.ones(self.n))

    def test_mul_by_a_constant_keeps_no_copy_of_the_taped_side(self):
        """(x + 1) * c keeps c, which the caller holds anyway, and nothing
        of the taped side: not x + 1 and not a copy of it."""
        x = ad.Tensor(np.arange(float(self.n)), requires_grad=True)
        c = np.linspace(-1.0, 1.0, self.n)
        held, loss = self.traced(lambda: ad.tsum(ad.mul(x + 1.0, c)))
        assert held < 8 * self.n // 16
        ad.backward(loss)
        assert x.grad.tobytes() == c.tobytes()

    def test_caller_held_intermediate_keeps_its_data(self):
        """An intermediate no vjp reads stays whole while the caller holds
        it, before and after the backward, which frees only the tape."""
        x = ad.Tensor(np.arange(float(self.n)), requires_grad=True)

        def build():
            h = x + 1.0
            return h, ad.tsum(h * 3.0)

        held, (h, loss) = self.traced(build)
        assert 8 * self.n <= held < 8 * self.n + 8 * self.n // 16
        ad.backward(loss)
        assert h.data.tobytes() == (np.arange(float(self.n)) + 1.0).tobytes()
        assert h._vjp is None and h._parents == () and loss._parents == ()
        assert np.array_equal(x.grad, np.full(self.n, 3.0))


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

    def test_adam_bytes_equal_former_expressions(self):
        """Three in-place steps leave p, m and v byte-equal to the expressions
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
        p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps) on fresh arrays."""
        rng = np.random.default_rng(11)
        store = ad.ParamStore()
        shapes = {"w": (6, 5), "b": (5,), "s": ()}
        for name, shape in shapes.items():
            store.add(name, rng.standard_normal(shape))
        state = ad.AdamState(lr=3e-3)
        ref = {n: store[n].data.copy() for n in shapes}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        b1, b2 = state.beta1, state.beta2
        for step in range(1, 4):
            for name, shape in shapes.items():
                g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
                store[name].grad = g
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                ref[name] = ref[name] - state.lr * (m[name] / (1.0 - b1**step)) / (
                    np.sqrt(v[name] / (1.0 - b2**step)) + state.eps)
            ad.optimizer_step(store, state)
        for name in shapes:
            assert store[name].data.tobytes() == ref[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()

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

    def test_corrupted_gradient_fails_naming_group(self, monkeypatch):
        store, loss = self._store_and_loss()
        real_backward = ad.backward

        def corrupting_backward(out, params=None):
            real_backward(out, params)
            g = params["mlp.w2"].grad
            params["mlp.w2"].grad = g + 1.0 + np.abs(g)

        monkeypatch.setattr(ad, "backward", corrupting_backward)
        report = ad.grad_check(loss, store, tol=1e-5)
        assert not report.passed
        assert report.groups["mlp.w2"].status == "fail"
        assert report.groups["mlp.w1"].status == "ok"
        assert report.worst_group == "mlp.w2"

    def test_unknown_included_name_raises(self):
        store, loss = self._store_and_loss()
        with pytest.raises(TrainingStateError, match="'mlp.w9'"):
            ad.grad_check(loss, store, include=["mlp.w1", "mlp.w9"])

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
