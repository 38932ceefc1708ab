"""Pointwise MLP, Fourier block, spectral resampling."""

import tracemalloc

import numpy as np
import pytest

from codano import autodiff as ad
from codano.errors import ModeCountError, ShapeError
from codano.field import Mesh, random_band_limited
from codano.spectral import FnoBlock, PointwiseOp, spectral_resample


def fd_grad(loss_fn, store, name, step=1e-6):
    p = store[name]
    flat = p.data.reshape(-1)
    g = np.zeros_like(flat)
    with ad.no_grad():
        for i in range(flat.size):
            h = step * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().data.item()
            flat[i] = orig - h
            dn = loss_fn().data.item()
            flat[i] = orig
            g[i] = (up - dn) / (2 * h)
    return g.reshape(p.shape)


def check_store_grads(loss_fn, store, tol=1e-5):
    loss = loss_fn()
    store.zero_grads()
    ad.backward(loss, params=store.tensors())
    for name in store.names():
        fd = fd_grad(loss_fn, store, name)
        adg = store[name].grad
        denom = max(np.abs(adg).max(), np.abs(fd).max(), 1e-8)
        rel = np.abs(adg - fd).max() / denom
        assert rel < tol, f"{name}: rel grad error {rel:.2e}"


class TestPointwiseOp:
    def test_maps_last_axis_shape(self):
        rng = np.random.default_rng(0)
        op = PointwiseOp("mlp", (3, 8, 5))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((2, 7, 3)))
        y = op(store, x)
        assert y.shape == (2, 7, 5)

    def test_locality_one_point(self):
        """Output at a point depends only on the input at that point."""
        rng = np.random.default_rng(1)
        op = PointwiseOp("mlp", (3, 8, 5))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = rng.standard_normal((1, 7, 3))
        y0 = op(store, ad.Tensor(x)).data
        x2 = x.copy()
        x2[0, 4] += 1.0
        y1 = op(store, ad.Tensor(x2)).data
        changed = np.abs(y1 - y0).max(axis=-1)[0]
        assert changed[4] > 0
        assert np.all(changed[np.arange(7) != 4] == 0)

    def test_single_linear_layer_is_affine(self):
        rng = np.random.default_rng(2)
        op = PointwiseOp("lin", (4, 3))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = rng.standard_normal((1, 5, 4))
        y = op(store, ad.Tensor(x)).data
        expect = x @ store["lin.w0"].data + store["lin.b0"].data
        np.testing.assert_allclose(y, expect, atol=1e-14)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        op = PointwiseOp("mlp", (2, 4, 3))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((2, 5, 2)))
        probe = rng.standard_normal((2, 5, 3))
        check_store_grads(lambda: ad.tsum(op(store, x) * probe), store)

    def test_bytes_equal_matmul_plus_bias(self):
        """As one mlp node, outputs and gradients keep the bytes of the
        former matmul + bias layers."""
        rng = np.random.default_rng(4)
        op = PointwiseOp("mlp", (2, 4, 3))
        store = ad.ParamStore()
        op.init_params(store, rng)
        for name in ("mlp.b0", "mlp.b1"):
            store[name].data = rng.standard_normal(store[name].shape)
        x = ad.Tensor(rng.standard_normal((2, 5, 2)), requires_grad=True)
        probe = rng.standard_normal((2, 5, 3))

        def former():
            h = ad.gelu(ad.matmul(x, store["mlp.w0"]) + store["mlp.b0"])
            return ad.matmul(h, store["mlp.w1"]) + store["mlp.b1"]

        grads = []
        for run in (lambda: op(store, x), former):
            store.zero_grads()
            x.grad = None
            out = run()
            ad.backward(ad.tsum(out * probe))
            grads.append([out.data, x.grad] + [t.grad for t in store.tensors()])
        for a, b in zip(*grads):
            assert a.tobytes() == b.tobytes()

    def test_tape_keeps_one_hidden_array_per_hidden_layer(self):
        """A taped forward keeps each hidden layer's Phi and no pre-activation
        or GELU output: the tape grows by about one hidden-size array per
        hidden layer beside the output, not three."""
        rng = np.random.default_rng(5)
        op = PointwiseOp("mlp", (5, 32, 16))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = ad.Tensor(rng.standard_normal((4, 2, 4096, 5)))
        hidden = 4 * 2 * 4096 * 32 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(store, x)
            grown = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert hidden <= grown < 1.5 * hidden

    def test_rejects_width_mismatch(self):
        op = PointwiseOp("mlp", (3, 4))
        store = ad.ParamStore()
        op.init_params(store, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="last axis"):
            op(store, ad.Tensor(np.zeros((1, 2, 5))))


def make_block(rng, name="fno", d_in=2, d_out=2, modes=3, activation=False):
    block = FnoBlock(name, d_in, d_out, modes, activation=activation)
    store = ad.ParamStore()
    block.init_params(store, rng)
    return block, store


class TestFnoBlock:
    def test_zero_weights_zero_bypass_is_zero(self):
        rng = np.random.default_rng(0)
        block, store = make_block(rng)
        for name in store.names():
            store[name].data[...] = 0.0
        x = ad.Tensor(rng.standard_normal((2, 64, 2)))
        y = block(store, x, (8, 8))
        np.testing.assert_array_equal(y.data, np.zeros((2, 64, 2)))

    def test_identity_bypass_passthrough(self):
        """Zero spectral weights + identity bypass reproduce the input."""
        rng = np.random.default_rng(1)
        block, store = make_block(rng)
        store["fno.spec"].data[...] = 0.0
        store["fno.byp_w"].data[...] = np.eye(2)
        store["fno.bias"].data[...] = 0.0
        x = rng.standard_normal((3, 64, 2))
        y = block(store, ad.Tensor(x), (8, 8))
        np.testing.assert_allclose(y.data, x, atol=1e-12)

    def test_diagonal_spectral_weights_scale_retained_mode(self):
        """W = 2*I on the band doubles a retained wave and kills the rest."""
        mesh = Mesh.uniform((16, 16))
        xy = mesh.points
        slow = np.sin(2 * xy[:, 0])          # |k| = 2, retained with m = 3
        fast = np.sin(6 * xy[:, 1])          # |k| = 6, outside the band
        block, store = make_block(np.random.default_rng(0), d_in=1, d_out=1)
        store["fno.spec"].data[...] = [2.0, 0.0]
        store["fno.byp_w"].data[...] = 0.0
        store["fno.bias"].data[...] = 0.0
        x = (slow + fast).reshape(1, 256, 1)
        y = block(store, ad.Tensor(x), (16, 16)).data
        np.testing.assert_allclose(y[0, :, 0], 2.0 * slow, atol=1e-10)

    def test_resolution_invariance_on_band_limited_input(self):
        """Same weights act identically on 32^2 and 64^2 samplings of one field."""
        rng = np.random.default_rng(7)
        block, store = make_block(rng, d_in=2, d_out=3, modes=4, activation=True)
        coarse = Mesh.uniform((32, 32))
        f = random_band_limited(coarse, modes=4, channels=2, rng=rng)
        x32 = ad.Tensor(f.values[None])
        y32 = block(store, x32, (32, 32)).data

        fine_vals = spectral_resample(ad.Tensor(f.values[None]), (32, 32), (64, 64)).data
        y64 = block(store, ad.Tensor(fine_vals), (64, 64)).data
        # compare on the shared points (every other fine point)
        y64_grid = y64.reshape(64, 64, 3)[::2, ::2].reshape(1, 32 * 32, 3)
        np.testing.assert_allclose(y64_grid, y32.reshape(1, 1024, 3), atol=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        block, store = make_block(rng, d_in=2, d_out=2, modes=2, activation=True)
        x = ad.Tensor(rng.standard_normal((2, 36, 2)))
        probe = rng.standard_normal((2, 36, 2))
        check_store_grads(lambda: ad.tsum(block(store, x, (6, 6)) * probe), store)

    def test_parts_are_blocks_side_by_side(self):
        """A block with d_out = (2, 3, 1) draws each part's weights as a block
        of that width would, in order, and outputs their concatenation."""
        fused, store = make_block(np.random.default_rng(8), d_in=3, d_out=(2, 3, 1))
        assert fused.d_out == 6 and fused.parts == (2, 3, 1)
        rng, single = np.random.default_rng(8), ad.ParamStore()
        blocks = [FnoBlock(f"p{i}", 3, w, 3, activation=False)
                  for i, w in enumerate(fused.parts)]
        for b in blocks:
            b.init_params(single, rng)
        for k in ("spec", "byp_w", "bias"):
            joined = np.concatenate([single[f"{b.name}.{k}"].data for b in blocks],
                                    axis=-2 if k == "spec" else -1)
            assert store[f"fno.{k}"].data.tobytes() == joined.tobytes()
        x = ad.Tensor(np.random.default_rng(9).standard_normal((2, 64, 3)))
        want = np.concatenate([b(single, x, (8, 8)).data for b in blocks], axis=-1)
        np.testing.assert_allclose(fused(store, x, (8, 8)).data, want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())

    def test_rejects_too_coarse_grid(self):
        block, store = make_block(np.random.default_rng(0), modes=3)
        with pytest.raises(ModeCountError, match="cannot carry"):
            block(store, ad.Tensor(np.zeros((1, 16, 2))), (4, 4))

    def test_rejects_bad_point_count(self):
        block, store = make_block(np.random.default_rng(0))
        with pytest.raises(ShapeError, match="bad input shape"):
            block(store, ad.Tensor(np.zeros((1, 60, 2))), (8, 8))


class TestSpectralResample:
    def test_band_limited_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        mesh = Mesh.uniform((16, 16))
        f = random_band_limited(mesh, modes=4, channels=2, rng=rng)
        x = ad.Tensor(f.values[None])
        up = spectral_resample(x, (16, 16), (48, 48))
        back = spectral_resample(up, (48, 48), (16, 16))
        np.testing.assert_allclose(back.data, f.values[None], atol=1e-12)

    def test_upsample_matches_direct_sampling(self):
        mesh = Mesh.uniform((16, 16))
        xy = mesh.points
        vals = (np.sin(3 * xy[:, 0]) * np.cos(2 * xy[:, 1]))[:, None]
        up = spectral_resample(ad.Tensor(vals[None]), (16, 16), (32, 32)).data
        fine = Mesh.uniform((32, 32)).points
        expect = (np.sin(3 * fine[:, 0]) * np.cos(2 * fine[:, 1]))[:, None]
        np.testing.assert_allclose(up[0], expect, atol=1e-10)

    def test_same_resolution_is_identity_object(self):
        x = ad.Tensor(np.ones((1, 16, 1)))
        assert spectral_resample(x, (4, 4), (4, 4)) is x

    def test_gradient_flows(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.standard_normal((1, 16, 1)), requires_grad=True)
        probe = rng.standard_normal((1, 64, 1))
        loss = ad.tsum(spectral_resample(x, (4, 4), (8, 8)) * probe)
        ad.backward(loss)
        g = np.zeros(16)
        with ad.no_grad():
            flat = x.data.reshape(-1)
            for i in range(16):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = ad.tsum(spectral_resample(ad.Tensor(x.data), (4, 4), (8, 8)) * probe).data.item()
                flat[i] = orig - 1e-6
                dn = ad.tsum(spectral_resample(ad.Tensor(x.data), (4, 4), (8, 8)) * probe).data.item()
                flat[i] = orig
                g[i] = (up - dn) / 2e-6
        np.testing.assert_allclose(x.grad.reshape(-1), g, atol=1e-4)


class TestTokenPermutation:
    """Tokens sit on the stack axis of every shared-weight matmul, so permuting
    them permutes the output bit for bit."""

    @pytest.mark.parametrize("t", [2, 3, 5, 8])
    def test_pointwise_op(self, t):
        rng = np.random.default_rng(t)
        op = PointwiseOp("mlp", (9, 32, 16))
        store = ad.ParamStore()
        op.init_params(store, rng)
        x = rng.standard_normal((t, 256, 9))
        perm = rng.permutation(t)
        y = op(store, ad.Tensor(x)).data
        assert np.array_equal(op(store, ad.Tensor(x[perm])).data, y[perm])

    @pytest.mark.parametrize("t", [2, 3, 5, 8])
    def test_fno_block(self, t):
        rng = np.random.default_rng(10 + t)
        block = FnoBlock("fno", 8, 6, 4)
        store = ad.ParamStore()
        block.init_params(store, rng)
        x = rng.standard_normal((t, 16 * 12, 8))
        perm = rng.permutation(t)
        y = block(store, ad.Tensor(x), (16, 12)).data
        assert np.array_equal(block(store, ad.Tensor(x[perm]), (16, 12)).data, y[perm])

    def test_leading_sample_axes_match_flat_batch(self):
        """(S, T, n, c) runs as the (S*T, n, c) batch, sample by sample."""
        rng = np.random.default_rng(21)
        block = FnoBlock("fno", 8, 6, 4)
        store = ad.ParamStore()
        block.init_params(store, rng)
        x = rng.standard_normal((3, 2, 16 * 12, 8))
        y = block(store, ad.Tensor(x), (16, 12)).data
        assert y.shape == (3, 2, 16 * 12, 6)
        for s in range(3):
            assert np.array_equal(y[s], block(store, ad.Tensor(x[s]), (16, 12)).data)
        up = spectral_resample(ad.Tensor(x), (16, 12), (32, 24)).data
        assert up.shape == (3, 2, 32 * 24, 8)
        for s in range(3):
            assert np.array_equal(
                up[s], spectral_resample(ad.Tensor(x[s]), (16, 12), (32, 24)).data)
