"""Neighbor search, kernel integral application, and its set form."""

import os
import platform
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from codano import autodiff as ad
from codano.errors import MeshError, ShapeError
from codano.field import DEFAULT_EXTENT, Mesh
from codano.gno import (KernelNet, NeighborIndex, build_neighbors,
                        gno_set_apply, nearest_neighbor_spacing)


def brute_force_pairs(q, s, r):
    pairs = []
    for j in range(len(q)):
        for i in range(len(s)):
            if np.sqrt(((q[j] - s[i]) ** 2).sum()) <= r:
                pairs.append((j, i))
    return pairs


def exact_pairs(q, s, r):
    """All (query, source) pairs with squared distance <= r*r, in row order."""
    d2 = ((s[None, :, :] - q[:, None, :]) ** 2).sum(axis=2)
    return np.nonzero(d2 <= r * r)


def query_idx(nbrs):
    """Each pair's query index, read back from the transposed scatter, which
    holds one entry per pair row, in its query's column."""
    return nbrs.scatter[1].indices


def source_idx(nbrs):
    """Each pair's source index, read back from the gather, which holds one
    entry per pair row (its weight, zero or not), in its source's column."""
    return nbrs.gather[0].indices


def brute_force_spacing(pts):
    """O(n^2) mean nearest-neighbor distance with the diagonal excluded."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(len(pts)), np.arange(len(pts))] = np.inf
    return float(np.sqrt(d2.min(axis=1)).mean())


def make_kernel(rng, d_in=1, d_out=1, hidden=(8,), name="ker"):
    kernel = KernelNet(name, dim=2, d_in=d_in, d_out=d_out, hidden=hidden)
    store = ad.ParamStore()
    kernel.init_params(store, rng)
    return kernel, store


def set_constant_kernel(kernel, store, matrix):
    """Zero the MLP so the kernel outputs a fixed matrix everywhere."""
    n_layers = len(kernel.mlp.widths) - 1
    for i in range(n_layers):
        store[f"{kernel.name}.k.w{i}"].data[...] = 0.0
        store[f"{kernel.name}.k.b{i}"].data[...] = 0.0
    store[f"{kernel.name}.k.b{n_layers - 1}"].data[...] = np.asarray(matrix).reshape(-1)
    store[f"{kernel.name}.bias"].data[...] = 0.0


class TestBuildNeighbors:
    def test_single_self_neighbor(self):
        mesh = Mesh.irregular(np.array([[0.5, 0.5]]), extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, r=1.0)
        assert nbrs.n_pairs == 1
        assert query_idx(nbrs)[0] == 0 and source_idx(nbrs)[0] == 0

    def test_4x4_grid_matches_brute_force(self):
        mesh = Mesh.uniform((4, 4), extents=(1.0, 1.0))
        r = 0.25 * 1.05
        nbrs = build_neighbors(mesh, mesh, r)
        got = list(zip(query_idx(nbrs).tolist(), source_idx(nbrs).tolist()))
        expect = brute_force_pairs(mesh.points, mesh.points, r)
        assert got == expect
        # interior points see themselves plus the 4-neighborhood
        counts = np.bincount(query_idx(nbrs), minlength=16).reshape(4, 4)
        assert np.all(counts[1:3, 1:3] == 5)

    def test_tiny_radius_keeps_only_self(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.9, size=(20, 2))
        mesh = Mesh.irregular(pts, extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, r=1e-9)
        assert nbrs.n_pairs == 20
        np.testing.assert_array_equal(query_idx(nbrs), source_idx(nbrs))

    def test_pairs_satisfy_radius_bound(self):
        rng = np.random.default_rng(1)
        q = Mesh.irregular(rng.uniform(0, 1, (40, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.uniform(0, 1, (60, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, r=0.3)
        d = np.sqrt(((q.points[query_idx(nbrs)] - s.points[source_idx(nbrs)]) ** 2).sum(1))
        assert np.all(d <= 0.3)
        expect = brute_force_pairs(q.points, s.points, 0.3)
        assert len(expect) == nbrs.n_pairs

    def test_symmetry_when_query_is_source(self):
        rng = np.random.default_rng(2)
        mesh = Mesh.irregular(rng.uniform(0, 1, (50, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, r=0.25)
        pairs = set(zip(query_idx(nbrs).tolist(), source_idx(nbrs).tolist()))
        assert all((i, j) in pairs for (j, i) in pairs)

    def test_empty_neighborhoods_counted(self):
        q = Mesh.irregular(np.array([[0.1, 0.1], [0.9, 0.9]]), extents=(1.0, 1.0))
        s = Mesh.irregular(np.array([[0.1, 0.1]]), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, r=0.05)
        assert query_idx(nbrs).tolist() == [0]           # point 1 has no neighbor
        assert nbrs.n_pairs == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds_match_exact_reference(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        q = rng.random((int(rng.integers(5, 200)), dim))
        s = rng.random((int(rng.integers(5, 200)), dim))
        s[1:4] = s[0]                       # duplicate source points
        q[0] = s[0]                         # a query sitting on a source
        r = float(rng.uniform(0.02, 0.4))
        nbrs = build_neighbors(Mesh.irregular(q, (1.0,) * dim),
                               Mesh.irregular(s, (1.0,) * dim), r)
        qi, si = exact_pairs(q, s, r)
        assert np.array_equal(query_idx(nbrs), qi)
        assert np.array_equal(source_idx(nbrs), si)

    @pytest.mark.parametrize("res,ext,mult", [
        ((8, 8), (1.0, 1.0), 2),
        ((16, 8), (2 * np.pi, np.pi), 2),
        ((12, 12), (DEFAULT_EXTENT, DEFAULT_EXTENT), 1),
        ((6, 6, 6), (1.5, 1.5, 1.5), 3),
    ])
    def test_uniform_grid_radius_on_lattice_distance(self, res, ext, mult):
        mesh = Mesh.uniform(res, extents=ext)
        coarse = Mesh.uniform(tuple(n // 2 for n in res), extents=ext)
        r = mult * mesh.spacing[0]
        for q, s in ((mesh, mesh), (coarse, mesh), (mesh, coarse)):
            nbrs = build_neighbors(q, s, r)
            qi, si = exact_pairs(q.points, s.points, r)
            assert np.array_equal(query_idx(nbrs), qi)
            assert np.array_equal(source_idx(nbrs), si)

    def test_pairs_at_exactly_r_kept(self):
        mesh = Mesh.uniform((8, 8), extents=(1.0, 1.0))   # spacing 1/8, exact
        nbrs = build_neighbors(mesh, mesh, 0.25)
        # an interior point sees every lattice point within two steps: 13
        assert np.count_nonzero(query_idx(nbrs) == 3 * 8 + 3) == 13

    def test_rejects_nonpositive_radius(self):
        mesh = Mesh.uniform((2, 2))
        with pytest.raises(MeshError, match="radius"):
            build_neighbors(mesh, mesh, r=0.0)


class TestGnoApply:
    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(0)
        kernel, store = make_kernel(rng, d_in=2, d_out=3)
        store["ker.bias"].data[...] = [1.0, -2.0, 0.5]
        mesh = Mesh.uniform((4, 4))
        nbrs = build_neighbors(mesh, mesh, r=1.2 * mesh.spacing[0])
        out = gno_set_apply(kernel, store, nbrs, np.zeros((16, 2))).data
        np.testing.assert_array_equal(out, np.tile([1.0, -2.0, 0.5], (16, 1)))

    def test_constant_reproduction_local_average(self):
        """Identity kernel / (pi r^2) on a dense grid reproduces constants."""
        mesh = Mesh.uniform((64, 64))
        r = 0.6
        kernel, store = make_kernel(np.random.default_rng(0))
        set_constant_kernel(kernel, store, np.eye(1) / (np.pi * r * r))
        nbrs = build_neighbors(mesh, mesh, r)
        c = 3.7
        out = gno_set_apply(kernel, store, nbrs, np.full((64 * 64, 1), c)).data
        pts = mesh.points
        interior = np.all((pts >= r) & (pts <= DEFAULT_EXTENT - r), axis=1)
        rel = np.abs(out[interior, 0] - c) / c
        assert rel.max() < 0.05

    def test_refinement_under_density_doubling(self):
        """Monte-Carlo source clouds n and 2n give outputs within 2 percent.

        The per-ball estimate carries indicator noise ~ 1/sqrt(points in
        ball), so the ball must hold a few thousand samples to resolve 2%.
        """
        rng = np.random.default_rng(3)
        ext = (DEFAULT_EXTENT, DEFAULT_EXTENT)
        base = rng.uniform(0, DEFAULT_EXTENT, (16384, 2))
        extra = rng.uniform(0, DEFAULT_EXTENT, (16384, 2))
        coarse = Mesh.irregular(base, extents=ext)
        fine = Mesh.irregular(np.concatenate([base, extra]), extents=ext)
        query = Mesh.uniform((16, 16))

        kernel, store = make_kernel(np.random.default_rng(5), hidden=(8,))
        # gentle smooth kernel: order-one mean with small spatial variation
        n_layers = len(kernel.mlp.widths) - 1
        store[f"ker.k.w{n_layers - 1}"].data[...] *= 0.1
        store[f"ker.k.b{n_layers - 1}"].data[...] = 1.0

        def smooth(pts):
            return (np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + 1.5)[:, None]

        r = 2.0
        with ad.no_grad():
            y1 = gno_set_apply(kernel, store,
                               build_neighbors(query, coarse, r),
                               smooth(coarse.points)).data
            y2 = gno_set_apply(kernel, store,
                               build_neighbors(query, fine, r),
                               smooth(fine.points)).data
        rel = np.linalg.norm(y1 - y2) / np.linalg.norm(y2)
        assert rel < 0.02

    def test_rejects_wrong_value_shape(self):
        kernel, store = make_kernel(np.random.default_rng(0), d_in=2)
        mesh = Mesh.uniform((3, 3))
        nbrs = build_neighbors(mesh, mesh, r=1.0)
        with pytest.raises(ShapeError, match="source values"):
            gno_set_apply(kernel, store, nbrs, np.zeros((9, 3)))

    @pytest.mark.parametrize("groups", [3, 6])
    @pytest.mark.parametrize("taped", [True, False])
    def test_rejects_complex_values(self, groups, taped):
        """Complex token values are refused, whether or not the group count
        pads the product's rows (6 groups to 8), taped or under no_grad."""
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=2, d_out=2)
        mesh = Mesh.uniform((3, 3))
        nbrs = build_neighbors(mesh, mesh, r=1.0)
        values = rng.standard_normal((groups, 9, 2)) + 1j * rng.standard_normal((groups, 9, 2))
        with ad.no_grad() if not taped else nullcontext():
            with pytest.raises(ShapeError, match="kernel_integral needs real token values"):
                gno_set_apply(kernel, store, nbrs, ad.Tensor(values, requires_grad=taped))

    def test_gradients(self):
        rng = np.random.default_rng(7)
        kernel, store = make_kernel(rng, d_in=2, d_out=2, hidden=(4,))
        src = Mesh.uniform((3, 3))
        qry = Mesh.irregular(rng.uniform(0.5, 5.5, (4, 2)),
                             extents=(DEFAULT_EXTENT, DEFAULT_EXTENT))
        nbrs = build_neighbors(qry, src, r=2.5)
        vals = ad.Tensor(rng.standard_normal((9, 2)), requires_grad=True)
        probe = rng.standard_normal((4, 2))

        def loss_fn():
            out = gno_set_apply(kernel, store, nbrs, vals)
            return ad.tsum(out * probe)

        loss = loss_fn()
        store.zero_grads()
        ad.backward(loss, params=store.tensors() + [vals])
        for name in store.names():
            p = store[name]
            flat = p.data.reshape(-1)
            fd = np.zeros_like(flat)
            with ad.no_grad():
                for i in range(flat.size):
                    h = 1e-6 * max(1.0, abs(flat[i]))
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_fn().data.item()
                    flat[i] = orig - h
                    dn = loss_fn().data.item()
                    flat[i] = orig
                    fd[i] = (up - dn) / (2 * h)
            denom = max(np.abs(p.grad).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(p.grad.reshape(-1) - fd).max() / denom < 1e-5, name
        # values gradient
        flat = vals.data.reshape(-1)
        fd = np.zeros_like(flat)
        with ad.no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = loss_fn().data.item()
                flat[i] = orig - 1e-6
                dn = loss_fn().data.item()
                flat[i] = orig
                fd[i] = (up - dn) / 2e-6
        denom = max(np.abs(vals.grad).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(vals.grad.reshape(-1) - fd).max() / denom < 1e-5


class TestGnoSetApply:
    """Token values (..., n, d): each leading index is one group."""

    def test_swap_groups_swaps_outputs_bitwise(self):
        rng = np.random.default_rng(1)
        kernel, store = make_kernel(rng, d_in=2, d_out=2)
        mesh = Mesh.uniform((5, 5))
        nbrs = build_neighbors(mesh, mesh, r=2.0 * mesh.spacing[0])
        x = rng.standard_normal((3, 25, 2))  # 3 groups of width 2
        perm = [1, 2, 0]
        y = gno_set_apply(kernel, store, nbrs, x).data
        yp = gno_set_apply(kernel, store, nbrs, x[perm]).data
        assert y.shape == (3, 25, 2)
        assert np.array_equal(yp, y[perm])

    def test_identical_groups_identical_outputs(self):
        rng = np.random.default_rng(2)
        kernel, store = make_kernel(rng, d_in=2, d_out=3)
        mesh = Mesh.uniform((4, 4))
        nbrs = build_neighbors(mesh, mesh, r=2.0 * mesh.spacing[0])
        block = rng.standard_normal((16, 2))
        y = gno_set_apply(kernel, store, nbrs, np.stack([block, block])).data
        assert np.array_equal(y[0], y[1])

    @pytest.mark.parametrize("groups", [2, 3, 5, 8])
    def test_permuted_groups_permute_outputs_bitwise(self, groups):
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=4, d_out=4, hidden=(16,))
        mesh = Mesh.uniform((9, 7))
        nbrs = build_neighbors(mesh, mesh, r=2.5 * mesh.spacing[0])
        x = rng.standard_normal((63, groups, 4)).transpose(1, 0, 2)
        perm = rng.permutation(groups)
        y = gno_set_apply(kernel, store, nbrs, x).data
        yp = gno_set_apply(kernel, store, nbrs, x[perm]).data
        assert np.array_equal(yp, y[perm])

    def test_leading_axes_are_groups(self):
        """(S, T, n, d) gives the bytes of its S*T tokens as (S*T, n, d)."""
        rng = np.random.default_rng(6)
        kernel, store = make_kernel(rng, d_in=3, d_out=2)
        mesh = Mesh.uniform((5, 4))
        nbrs = build_neighbors(mesh, mesh, r=2.0 * mesh.spacing[0])
        x = rng.standard_normal((2, 3, 20, 3))
        y = gno_set_apply(kernel, store, nbrs, x).data
        flat = gno_set_apply(kernel, store, nbrs, x.reshape(6, 20, 3)).data
        assert y.shape == (2, 3, 20, 2)
        assert y.tobytes() == flat.tobytes()


def taped_csr(pair, x):
    """A constant CSR product as a tape node of its own, as the chains
    below record it: pair = (S, S transposed as CSR), S @ x forward and
    the transpose's product in the vjp."""
    s_mat, s_t = pair
    x = ad.as_tensor(x)
    return ad._node(s_mat @ x.data, (x,), lambda g: (s_t @ g,), "csr_product")


def taped_row_product(gathered, k):
    """Each pair's groups as the rows of one product with its kernel
    matrix, a tape node of its own: gathered (p, groups, d_in) times k
    (p, d_out, d_in) transposed, as a C-ordered copy, forward; the
    cotangent times k for the gathered values and the transposed cotangent
    times the gathered values for k. `ad.matmul` on the transposed copy
    has these bytes for two groups or more, but with one group numpy
    multiplies a vector and takes BLAS's matrix-vector kernel for the
    operand's memory order, which matmul's vjp reads transposed."""
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))

    def vjp(g):
        return g @ k.data, np.swapaxes(g, -1, -2) @ gathered.data

    return ad._node(gathered.data @ kt, (gathered, k), vjp, "row_product")


def former_set_apply(kernel, store, nbrs, values, groups, weights):
    """The 2-D apply on (n_source, groups*d_in) as the chain of nodes it was
    before its integral became one: the kernel MLP over every pair on the
    tape, gather by a ones matrix, times the pair weights, one product per
    pair with its groups as rows, scatter, bias."""
    p = nbrs.n_pairs
    ones = sp.csr_matrix((np.ones(p), (np.arange(p), source_idx(nbrs))),
                         shape=(p, nbrs.n_source))
    k = ad.reshape(kernel.mlp(store, ad.Tensor(nbrs.pair_coords)),
                   (p, kernel.d_out, kernel.d_in))
    gathered = taped_csr((ones, ones.T.tocsr()), values) * weights[:, None]
    gathered = ad.reshape(gathered, (p, groups, kernel.d_in))
    msgs = ad.reshape(taped_row_product(gathered, k), (p, groups * kernel.d_out))
    out = ad.reshape(taped_csr(nbrs.scatter, msgs),
                     (nbrs.n_query, groups, kernel.d_out))
    out = out + store[f"{kernel.name}.bias"]
    return ad.reshape(out, (nbrs.n_query, groups * kernel.d_out))


def former_transfer(apply_2d, values):
    """Token values through a 2-D apply as the model's GNO transfer wrapped
    it, before the apply took token values: (S, T, n, d) to (n, S*T*d),
    S*T groups, and back; values (n, d) go through as they are."""
    if values.ndim == 2:
        return apply_2d(values, 1)
    s, g, n, d = values.shape
    out = apply_2d(ad.reshape(ad.transpose(values, (2, 0, 1, 3)), (n, s * g * d)), s * g)
    out = ad.reshape(out, (out.shape[0], s, g, -1))
    return ad.transpose(out, (1, 2, 0, 3))


# leading axes of the token values by group count: none, one sample of three
# tokens, three samples of three and four of three
LEADS = {1: (), 3: (1, 3), 9: (3, 3), 12: (4, 3)}


class TestFormerChainBytes:
    """The one-node integral on token values has the bytes of the former
    2-D chain behind the former layout shuffle: output, kernel-parameter
    gradients (the bias's included) and value gradients."""

    def run(self, apply, store, values, seed):
        vals = ad.Tensor(values.copy(), requires_grad=True)
        store.zero_grads()
        out = apply(vals)
        probe = np.random.default_rng(seed).standard_normal(out.shape)
        ad.backward(ad.tsum(out * probe), store)
        return [out.data, vals.grad] + [store[n].grad for n in store.names()]

    def compare(self, new, old, store, values, seed=0):
        for a, b in zip(self.run(new, store, values, seed),
                        self.run(old, store, values, seed), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def check(self, kernel, store, nbrs, values, weights, seed=0):
        self.compare(lambda v: gno_set_apply(kernel, store, nbrs, v),
                     lambda v: former_transfer(lambda x, g: former_set_apply(
                         kernel, store, nbrs, x, g, weights), v),
                     store, values, seed)

    @staticmethod
    def clouds(groups):
        """A kernel (d_in 3, d_out 2), an index from 45 weighted sources to
        30 queries, token values of `groups` groups and the pairs' source
        weights."""
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=3, d_out=2, hidden=(8,))
        q = Mesh.irregular(rng.random((30, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((45, 2)), extents=(1.0, 1.0),
                           quad_weights=rng.dirichlet(np.ones(45)))
        nbrs = build_neighbors(q, s, 0.3)
        values = rng.standard_normal(LEADS[groups] + (45, 3))
        return kernel, store, nbrs, values, s.quad_weights[source_idx(nbrs)]

    @pytest.mark.parametrize("groups", LEADS)
    def test_groups(self, groups):
        kernel, store, nbrs, values, weights = self.clouds(groups)
        self.check(kernel, store, nbrs, values, weights, seed=groups)

    @pytest.mark.parametrize("groups", LEADS)
    @pytest.mark.parametrize("blocks", ["one pair each", "ragged", "exactly one"])
    def test_pair_blocks(self, groups, blocks, monkeypatch):
        """Small pair blocks, also on the no_grad memo's matrices: a budget
        of one pair a block, which the 64-pair alignment rounds up to 64
        pairs; 64-aligned blocks with a ragged last one; or a budget of
        all the pairs rounded up to 64, exactly one block."""
        kernel, store, nbrs, values, weights = self.clouds(groups)
        p = nbrs.n_pairs
        pairs = {"one pair each": 1, "exactly one": -(-p // 64) * 64,
                 "ragged": next(b for b in range(128, p, 64) if p % b)}[blocks]
        step = max(64, pairs // 64 * 64)
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", pairs * groups * 3)
        gathers = []
        real = ad.sparse_matmul

        def counting(s_mat, x):
            gathers.extend([s_mat.shape[0]] if s_mat.shape[1] == nbrs.n_source else [])
            return real(s_mat, x)

        monkeypatch.setattr(ad, "sparse_matmul", counting)
        with ad.no_grad():
            gno_set_apply(kernel, store, nbrs, values)
        memo, gathers[:] = list(gathers), []
        gno_set_apply(kernel, store, nbrs, values)  # taped: the kernel MLP trains
        assert memo == gathers == [min(step, p - lo) for lo in range(0, p, step)]
        if blocks == "ragged":
            assert len(gathers) > 2 and gathers[-1] < step
        if blocks == "exactly one":
            assert gathers == [p]
        self.check(kernel, store, nbrs, values, weights, seed=groups)

    @pytest.mark.parametrize("groups", LEADS)
    def test_encode_then_decode(self, groups):
        """A cloud to a latent grid and back, as the model runs its two
        kernels: both biases' gradients keep their bytes."""
        rng = np.random.default_rng(17)
        enc, store = make_kernel(rng, d_in=3, d_out=2, hidden=(8,), name="enc")
        dec = KernelNet("dec", dim=2, d_in=2, d_out=3, hidden=(8,))
        dec.init_params(store, rng)
        for name in ("enc.bias", "dec.bias"):
            store[name].data[...] = rng.standard_normal(store[name].shape)
        cloud = Mesh.irregular(rng.random((45, 2)), extents=(1.0, 1.0),
                               quad_weights=rng.dirichlet(np.ones(45)))
        latent = Mesh.uniform((6, 5), extents=(1.0, 1.0))
        to_latent = build_neighbors(latent, cloud, 0.3)
        to_cloud = build_neighbors(cloud, latent, 0.3)

        def former(kernel, nbrs, source):
            weights = source.quad_weights[source_idx(nbrs)]
            return lambda x, g: former_set_apply(kernel, store, nbrs, x, g, weights)

        self.compare(
            lambda v: gno_set_apply(dec, store, to_cloud,
                                    gno_set_apply(enc, store, to_latent, v)),
            lambda v: former_transfer(former(dec, to_cloud, latent),
                                      former_transfer(former(enc, to_latent, cloud), v)),
            store, rng.standard_normal(LEADS[groups] + (45, 3)), seed=groups)

    def test_signed_zeros_and_a_zero_weight(self):
        """-0.0 and +0.0 among the values, whole zero sources and a source
        of weight zero (no Mesh has one, so the index is built on a stand-in
        that carries only what an index reads)."""
        rng = np.random.default_rng(9)
        kernel, store = make_kernel(rng, d_in=2, d_out=2, hidden=(8,))
        q = Mesh.irregular(rng.random((20, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((30, 2)), extents=(1.0, 1.0))
        weights = s.quad_weights.copy()
        weights[[0, 7]] = 0.0
        source = SimpleNamespace(points=s.points, quad_weights=weights, n_points=30)
        nbrs = build_neighbors(q, s, 0.35)
        nbrs = NeighborIndex(q, source, query_idx(nbrs), source_idx(nbrs))
        assert np.any(weights[source_idx(nbrs)] == 0.0)
        values = rng.standard_normal((1, 3, 30, 2))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.3] = -0.0
        values[..., 3, :] = -0.0
        values[..., 7, :] = -1.5
        assert np.any(np.signbit(values) & (values == 0))
        self.check(kernel, store, nbrs, values, weights[source_idx(nbrs)])


# name: (query points, source points, radius, kernel hidden widths, pairs
# per block or None for the module's, rows per former MLP tile or None for
# the module's, kernel MLP frozen, values take a gradient)
NODE_CASES = {
    "no pairs": (20, 30, 1e-9, (8,), None, None, False, True),
    "under 64 pairs": (10, 12, 0.2, (8,), None, None, False, True),
    "one block, two hidden layers": (30, 45, 0.3, (8, 6), None, None, False, True),
    "no hidden layer": (30, 45, 0.3, (), 64, None, False, True),
    "64-pair blocks, ragged": (30, 45, 0.3, (8,), 64, None, False, True),
    "blocks across former tiles": (30, 45, 0.3, (8, 6), 128, 192, False, True),
    "frozen kernel MLP": (30, 45, 0.3, (8, 6), 64, None, True, True),
    "values without grad": (30, 45, 0.3, (8,), 64, None, False, False),
}


class TestKernelNodeBytes:
    """The integral node, which runs the kernel MLP on each pair block and
    again in its backward pass, has the bytes of the chain it replaced: the
    kernel MLP over all the pairs as one taped `ad.mlp`, a reshape, then the
    integral (`former_set_apply`). Output and every gradient are compared:
    the values', each kernel weight's and bias's, and the kernel's bias's.
    Token values (2, 3, 45, 3) are 6 groups of width 3."""

    @pytest.mark.parametrize("case", NODE_CASES)
    def test_bytes_equal_former_chain(self, case, monkeypatch):
        n_q, n_s, r, hidden, block, tile, frozen, values_grad = NODE_CASES[case]
        rng = np.random.default_rng(list(NODE_CASES).index(case))
        kernel, store = make_kernel(rng, d_in=3, d_out=2, hidden=hidden)
        store["ker.bias"].data[...] = rng.standard_normal(2)
        q = Mesh.irregular(rng.random((n_q, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((n_s, 2)), extents=(1.0, 1.0),
                           quad_weights=rng.dirichlet(np.ones(n_s)))
        nbrs = build_neighbors(q, s, r)
        p = nbrs.n_pairs
        if case == "no pairs":
            assert p == 0
        elif case == "under 64 pairs":
            assert 0 < p < 64
        else:
            assert p > 2 * (block or 64) and p % 64
        if block is not None:
            monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", block * 6 * 3)
        if tile is not None:
            monkeypatch.setattr(ad, "_MLP_TILE_FLOATS", tile * max(hidden))
        for name in kernel.mlp.param_shapes():
            store[name].requires_grad = not frozen
        values = rng.standard_normal((2, 3, n_s, 3))
        probe = rng.standard_normal((2, 3, n_q, 2))
        weights = s.quad_weights[source_idx(nbrs)]

        def run(apply):
            vals = ad.Tensor(values.copy(), requires_grad=values_grad)
            store.zero_grads()
            out = apply(vals)
            ad.backward(ad.tsum(out * probe), store)
            return [out.data, vals.grad] + [store[n].grad for n in store.names()]

        tiles, real_tile = [], ad._mlp_tile
        monkeypatch.setattr(ad, "_mlp_tile",
                            lambda x, *args: tiles.append(len(x)) or real_tile(x, *args))
        new = run(lambda v: gno_set_apply(kernel, store, nbrs, v))
        step = block or max(p, 1)
        assert tiles == [min(step, p - lo) for lo in range(0, p, step)]
        old = run(lambda v: former_transfer(
            lambda x, g: former_set_apply(kernel, store, nbrs, x, g, weights), v))
        assert len(new) == len(old) == 2 + len(store.names())
        expect_none = [not values_grad] + [frozen and n in kernel.mlp.param_shapes()
                                           for n in store.names()]
        for a, b, none in zip(new[1:], old[1:], expect_none):
            assert (a is None) == (b is None) == none
        for a, b in zip(new, old):
            assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes())

    def test_taped_apply_keeps_no_kernel_matrices(self):
        """After a taped forward the apply holds less than a tenth of one
        array of kernel matrices, (n_pairs, 16, 16): the former chain kept
        that array, about 95 % of the 1.05 MB it held here."""
        rng = np.random.default_rng(21)
        kernel, store = make_kernel(rng, d_in=16, d_out=16, hidden=(8,))
        q = Mesh.irregular(rng.random((40, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((60, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, 0.3)
        values = ad.Tensor(rng.standard_normal((1, 60, 16)), requires_grad=True)
        matrix_bytes = nbrs.n_pairs * 16 * 16 * 8
        assert nbrs.n_pairs > 400
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = gno_set_apply(kernel, store, nbrs, values)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < matrix_bytes // 10
        ad.backward(ad.tsum(out), store)
        assert values.grad.shape == values.shape


class TestBiasOnlyNode:
    """With the kernel MLP frozen and constant values only the kernel's
    bias trains. The apply still records its one node; its vjp returns the
    bias gradient alone and runs no pair block, and output and bias
    gradient have the bytes of the former chain, whose bias sum follows the
    cotangent's layout: at d_out 1, or with an F-ordered cotangent and one
    group, the former reshapes passed it on as a view, not a copy. 9 groups
    pad the rows to 12."""

    @pytest.mark.parametrize("groups,d_out,order", [(1, 2, "C"), (1, 2, "F"), (12, 2, "C"),
                                                    (9, 2, "C"), (9, 1, "C"), (12, 1, "C")])
    def test_bytes_equal_former_chain(self, groups, d_out, order, monkeypatch):
        rng = np.random.default_rng(groups + d_out)
        kernel, store = make_kernel(rng, d_in=3, d_out=d_out, hidden=(8,))
        store["ker.bias"].data[...] = rng.standard_normal(d_out)
        store.freeze("ker.k.")
        q = Mesh.irregular(rng.random((70, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((45, 2)), extents=(1.0, 1.0),
                           quad_weights=rng.dirichlet(np.ones(45)))
        nbrs = build_neighbors(q, s, 0.3)
        values = rng.standard_normal(LEADS[groups] + (45, 3))
        probe = rng.standard_normal(LEADS[groups] + (70, d_out))
        weights = s.quad_weights[source_idx(nbrs)]

        def run(apply):
            store.zero_grads()
            out = apply(ad.Tensor(values))
            if order == "F":  # a transposed read hands back an F-ordered cotangent
                loss = ad.tsum(ad.transpose(out, (1, 0)) * probe.T.copy())
            else:
                loss = ad.tsum(out * probe)
            ad.backward(loss, store)
            return out.data, store["ker.bias"].grad

        out = gno_set_apply(kernel, store, nbrs, values)
        assert out._op == "kernel_integral" and out._parents[-1] is store["ker.bias"]
        calls = []
        for name in ("sparse_matmul", "_mlp_hidden", "_mlp_tile"):
            monkeypatch.setattr(ad, name, lambda *args, name=name: calls.append(name))
        grads = out._vjp(probe)
        assert calls == [] and all(g is None for g in grads[:-1])
        assert grads[-1].shape == (d_out,)
        monkeypatch.undo()
        new = run(lambda v: gno_set_apply(kernel, store, nbrs, v))
        old = run(lambda v: former_transfer(
            lambda x, g: former_set_apply(kernel, store, nbrs, x, g, weights), v))
        for a, b in zip(new, old, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSpacing:
    def test_uniform_grid_spacing(self):
        mesh = Mesh.uniform((8, 8))
        assert nearest_neighbor_spacing(mesh) == pytest.approx(mesh.spacing[0])

    def test_needs_two_points(self):
        mesh = Mesh.irregular(np.array([[0.5, 0.5]]), extents=(1.0, 1.0))
        with pytest.raises(MeshError, match="at least two"):
            nearest_neighbor_spacing(mesh)

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        pts = rng.random((int(rng.integers(2, 400)), dim))
        if len(pts) > 6:
            pts[4:7] = pts[3]               # coincident points: spacing 0
        mesh = Mesh.irregular(pts, (1.0,) * dim)
        assert nearest_neighbor_spacing(mesh) == brute_force_spacing(pts)

    def test_grid_bitwise_equal_to_brute_force(self):
        for res, ext in (((16, 8), (2 * np.pi, np.pi)), ((5, 7), (1.0, 3.0))):
            mesh = Mesh.uniform(res, extents=ext)
            assert nearest_neighbor_spacing(mesh) == brute_force_spacing(mesh.points)

    def test_computed_once_per_mesh(self, monkeypatch):
        import codano.gno as gno
        built = []

        def counting_tree(pts, *args, **kwargs):
            built.append(len(pts))
            return cKDTree(pts, *args, **kwargs)

        monkeypatch.setattr(gno, "cKDTree", counting_tree)
        rng = np.random.default_rng(3)
        mesh = Mesh.irregular(rng.random((50, 2)), extents=(1.0, 1.0))
        first = nearest_neighbor_spacing(mesh)
        assert nearest_neighbor_spacing(mesh) == first
        assert built == [50]
        twin = Mesh.irregular(mesh.points.copy(), extents=(1.0, 1.0))
        assert nearest_neighbor_spacing(twin) == first
        assert built == [50, 50]


class TestKernelNet:
    def test_matrices_match_einsum_reference(self):
        rng = np.random.default_rng(4)
        kernel, store = make_kernel(rng, d_in=3, d_out=2, hidden=(16, 8))
        q = Mesh.irregular(rng.random((40, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((60, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, 0.3)
        got = kernel.matrices(store, nbrs)
        h = np.concatenate([q.points[query_idx(nbrs)],
                            s.points[source_idx(nbrs)]], axis=1)
        n_layers = len(kernel.mlp.widths) - 1
        for i in range(n_layers):
            h = (np.einsum("ni,io->no", h, store[f"ker.k.w{i}"].data)
                 + store[f"ker.k.b{i}"].data)
            if i < n_layers - 1:
                t = np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h ** 3))
                h = h * 0.5 * (1.0 + t)
        assert got.shape == (nbrs.n_pairs, 3, 2) and got.flags.c_contiguous
        assert np.max(np.abs(got - h.reshape(-1, 2, 3).transpose(0, 2, 1))) <= 1e-12

    def test_build_holds_one_block_beside_the_matrices(self, monkeypatch):
        """Built per 64-pair block into one (n_pairs, d_in, d_out) array,
        the memo peaks below its own bytes plus one block of the kernel
        MLP's work, counted as twice the block's matrices (its output; its
        hidden arrays and the transposing copy take less). Transposing a
        whole (n_pairs, d_out, d_in) array would hold two memos at once."""
        rng = np.random.default_rng(8)
        kernel, store = make_kernel(rng, d_in=16, d_out=16, hidden=(8,))
        mesh = Mesh.irregular(rng.random((200, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, 0.15)
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", 64 * 256)
        block_bytes = 64 * 256 * 8
        assert nbrs.n_pairs > 8 * 64
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            k = kernel.matrices(store, nbrs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert k.shape == (nbrs.n_pairs, 16, 16) and k.flags.c_contiguous
        assert k.nbytes < peak < k.nbytes + 2 * block_bytes


def blas_build() -> str:
    """The BLAS numpy was built with, as a failure message names it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no OpenBLAS configuration')})")


def openblas_threads():
    """numpy's OpenBLAS thread count, read through its own getter; skips,
    naming the BLAS, where numpy's BLAS has none."""
    import ctypes
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError):
        pytest.skip(f"numpy's BLAS is not a scipy-openblas build: {blas_build()}")


# one taped kernel integral at the benchmark's cloud size (13,683 pairs, a
# 16x16 kernel from hidden widths (32, 32), 12 groups): SHA-256 of its output
# and of every gradient, by name
THREADS_SCRIPT = """
import hashlib, json
import numpy as np, scipy.sparse as sp
from codano import autodiff as ad
rng = np.random.default_rng(5)
n, p, d, groups, widths = 717, 13683, 16, 12, (4, 32, 32, 256)
qi, si = np.sort(rng.integers(0, n, p)), rng.integers(0, n, p)
gather = sp.csr_matrix((rng.random(p), (np.arange(p), si)), shape=(p, n))
scatter = sp.csr_matrix((np.ones(p), (qi, np.arange(p))), shape=(n, p))
ws = [ad.Tensor(rng.standard_normal((a, b)) / a ** 0.5, requires_grad=True)
      for a, b in zip(widths, widths[1:])]
bs = [ad.Tensor(0.1 * rng.standard_normal(b), requires_grad=True) for b in widths[1:]]
bias = ad.Tensor(rng.standard_normal(d), requires_grad=True)
vals = ad.Tensor(rng.standard_normal((3, 4, n, d)), requires_grad=True)
out = ad.kernel_integral(vals, rng.random((p, 4)), ws, bs, bias,
                         (gather, gather.T.tocsr()), (scatter, scatter.T.tocsr()))
named = {"values": vals, "bias": bias, **{f"w{i}": w for i, w in enumerate(ws)},
         **{f"b{i}": b for i, b in enumerate(bs)}}
ad.backward(ad.tsum(out * rng.standard_normal(out.shape)), list(named.values()))
digests = {"output": out.data, **{name: t.grad for name, t in named.items()}}
print(json.dumps({k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in digests.items()}))
"""


class TestOneBlasThread:
    """Importing `codano.autodiff` sets numpy's OpenBLAS to one thread, so
    no product's bytes depend on the host's thread count."""

    def test_import_leaves_one_thread(self):
        assert openblas_threads() == 1, blas_build()

    def test_bytes_do_not_depend_on_the_thread_setting(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path
        openblas_threads()
        src = str(Path(__file__).resolve().parents[1] / "src")
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))
        runs = {}
        for threads in (None, "1", "2"):
            env = dict(base) if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs[threads] = json.loads(done.stdout.splitlines()[-1])
        for threads in ("1", "2"):
            moved = [k for k in runs[None] if runs[threads][k] != runs[None][k]]
            assert not moved, (f"OPENBLAS_NUM_THREADS={threads} changed {moved} against "
                               f"the variable unset, {blas_build()}")


# (d_in, d_out, groups): the benchmark's kernel width with the group counts
# of its evals and its training batches and more; a width whose rows in
# 4-row blocks round otherwise than its tail rows on some BLAS; and width-1
# products over 3 groups, which numpy sends to a matrix-vector kernel, in
# the forward (d_out 1) and in the values' cotangent (d_in 1)
GROUP_ROWS = [(16, 16, 3), (16, 16, 6), (16, 16, 12), (16, 16, 24), (18, 18, 5), (18, 18, 6),
              (18, 18, 7), (18, 18, 9), (16, 1, 3), (17, 1, 3), (40, 1, 3), (1, 11, 3),
              (1, 17, 3)]
GROUP_IDS = [f"{a}-{g}" if a == b else f"{a}x{b}-{g}" for a, b, g in GROUP_ROWS]


class TestGroupRows:
    """Each pair's groups are the rows of one small product with its kernel
    matrix, in the forward and in the values' cotangent, padded to a
    multiple of 4 rows whatever the group count. Permuting the groups
    permutes the outputs and the values' gradient bitwise, taped and under
    no_grad, and the no_grad memo's matrices give the taped node's bytes.
    A failure names the BLAS, the shape and the group count: c01 rests on
    the BLAS computing a row alike wherever it sits among these rows."""

    @staticmethod
    def problem(d_in, d_out, groups):
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=d_in, d_out=d_out, hidden=(32, 32))
        store["ker.bias"].data[...] = rng.standard_normal(d_out)
        mesh = Mesh.irregular(rng.random((200, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, 0.15)
        values = rng.standard_normal((groups, 200, d_in))
        probe = rng.standard_normal((groups, 200, d_out))
        return kernel, store, nbrs, values, probe, rng.permutation(groups)

    @staticmethod
    def where(what, d_in, d_out, groups, nbrs):
        return (f"{what}: {groups} groups, {nbrs.n_pairs} pairs of {d_out}x{d_in} kernel "
                f"matrices, {blas_build()}, {ad.blas_threads()['kernel']} kernels")

    @pytest.mark.parametrize("d_in,d_out,groups", GROUP_ROWS, ids=GROUP_IDS)
    def test_permuted_groups_permute_bitwise(self, d_in, d_out, groups):
        kernel, store, nbrs, values, probe, perm = self.problem(d_in, d_out, groups)
        shape = d_in, d_out, groups, nbrs
        with ad.no_grad():
            y = gno_set_apply(kernel, store, nbrs, values).data
            yp = gno_set_apply(kernel, store, nbrs, values[perm]).data
        assert np.array_equal(yp, y[perm]), self.where("no_grad output", *shape)
        taped = []
        for x, g in ((values, probe), (values[perm], probe[perm])):
            vals = ad.Tensor(x, requires_grad=True)
            out = gno_set_apply(kernel, store, nbrs, vals)
            ad.backward(ad.tsum(out * g), [vals])
            taped.append((out.data, vals.grad))
        (y, gy), (yp, gyp) = taped
        assert np.array_equal(yp, y[perm]), self.where("taped output", *shape)
        assert np.array_equal(gyp, gy[perm]), self.where("values' gradient", *shape)

    @pytest.mark.parametrize("d_in,d_out,groups", GROUP_ROWS, ids=GROUP_IDS)
    def test_memo_and_taped_outputs_byte_equal(self, d_in, d_out, groups):
        kernel, store, nbrs, values, _, _ = self.problem(d_in, d_out, groups)
        with ad.no_grad():
            memo = gno_set_apply(kernel, store, nbrs, values).data
        assert kernel.name in nbrs.kernel_memo
        taped = gno_set_apply(kernel, store, nbrs, values).data
        assert memo.tobytes() == taped.tobytes(), self.where("memo output", d_in, d_out,
                                                             groups, nbrs)


ROOT = Path(__file__).resolve().parents[1]

# what holds under every kernel family numpy's OpenBLAS loads: c01, a batch
# equal to its single forwards, and the group rows beneath both
CONTRACT = ("tests/test_acceptance.py::test_c01_permutation_equivariance",
            "tests/test_gno.py::TestGroupRows",
            "tests/test_model.py::TestBatchedForward",
            "tests/test_training.py::TestPretrain::test_eval_chunks_match_single_sample_evals",
            "tests/test_training.py::TestFinetune::"
            "test_prediction_eval_chunks_match_single_sample_evals")
# OPENBLAS_CORETYPE values for the x86-64 families of a DYNAMIC_ARCH build
# (Prescott loads Katmai; Zen loads Haswell and Cooperlake SkylakeX)
CORETYPES = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")
KERNEL_SCRIPT = ("import numpy as np; from codano import autodiff as ad; "
                 "np.ones((8, 8)) @ np.ones((8, 8)); print(ad.blas_threads()['kernel'])")


def forced(coretype) -> dict:
    """This process's environment with `src` on the path and OpenBLAS made
    to load the kernels `coretype` names, for a child process only."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype}


def loaded_kernel(coretype):
    """The kernel family a child process loads under `coretype`, or None
    where it cannot run a product (a family this CPU lacks)."""
    done = subprocess.run([sys.executable, "-c", KERNEL_SCRIPT], env=forced(coretype),
                          capture_output=True, text=True, timeout=120)
    return done.stdout.split()[-1] if done.returncode == 0 and done.stdout.split() else None


class TestEveryKernel:
    """The contract tests pass in a child process under each distinct kernel
    family this host's OpenBLAS can load, not only under the one it picks;
    bytes are not compared across families. Skips, naming the BLAS, where
    numpy's BLAS is not a scipy-openblas build."""

    @pytest.fixture(autouse=True)
    def openblas(self):
        if ad.blas_threads()["kernel"] is None:
            pytest.skip(f"numpy's BLAS is not a scipy-openblas build: {blas_build()}")

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="Haswell is an x86-64 kernel family")
    def test_forced_kernel_is_named(self):
        assert loaded_kernel("Haswell") == "Haswell", blas_build()

    def test_contract_holds_under_every_kernel(self):
        kernels = {}
        for coretype in CORETYPES:
            kernels.setdefault(loaded_kernel(coretype), coretype)
        kernels.pop(None, None)
        assert kernels, f"no kernel family loaded, {blas_build()}"
        failed = {}
        for kernel, coretype in kernels.items():
            done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                   *CONTRACT], cwd=ROOT, env=forced(coretype),
                                  capture_output=True, text=True, timeout=600)
            # every contract test ran and passed: none failed, skipped or deselected
            if done.returncode or not re.search(r"^\d+ passed(, \d+ warnings?)? in ",
                                                done.stdout, re.M):
                failed[kernel] = done.stdout[-2000:] + done.stderr[-1000:]
        assert not failed, f"{sorted(failed)} of {sorted(kernels)}, {blas_build()}:\n" + \
            "\n".join(f"{k}: {out}" for k, out in failed.items())


def counting_mlp(monkeypatch) -> list:
    """Records the rows of each kernel MLP run (`ad._mlp_tile`)."""
    runs = []
    real = ad._mlp_tile

    def counting(h, *args, **kwargs):
        runs.append(len(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(ad, "_mlp_tile", counting)
    return runs


class TestKernelMemo:
    """No_grad kernel matrices kept on their index, keyed on parameter bytes."""

    def setup_problem(self, seed=11):
        rng = np.random.default_rng(seed)
        kernel, store = make_kernel(rng, d_in=2, d_out=3, hidden=(8,))
        q = Mesh.irregular(rng.random((30, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((40, 2)), extents=(1.0, 1.0))
        vals = rng.standard_normal((2, 40, 2))
        return kernel, store, q, s, vals

    def apply_fresh(self, kernel, store, q, s, vals):
        """The output on a new index, which has no memo."""
        with ad.no_grad():
            return gno_set_apply(kernel, store, build_neighbors(q, s, 0.3), vals).data

    def test_second_no_grad_call_reuses_the_matrices(self, monkeypatch):
        """The first call builds the matrices block by block, one kernel
        MLP run per 64-pair block here (6 floats a pair); later calls run
        nothing."""
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", 64 * 6)
        runs = counting_mlp(monkeypatch)
        with ad.no_grad():
            first = kernel.matrices(store, nbrs)
            assert nbrs.n_pairs > 128 and len(runs) == -(-nbrs.n_pairs // 64)
            second = kernel.matrices(store, nbrs)
            y1 = gno_set_apply(kernel, store, nbrs, vals).data
            y2 = gno_set_apply(kernel, store, nbrs, vals).data
        assert runs == [64] * (nbrs.n_pairs // 64) + [nbrs.n_pairs % 64]
        assert second is first
        assert y1.tobytes() == y2.tobytes()
        taped = gno_set_apply(kernel, store, nbrs, vals).data
        assert taped.tobytes() == y1.tobytes()

    def test_cached_array_is_read_only(self):
        kernel, store, q, s, _ = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            k = kernel.matrices(store, nbrs)
        assert not k.flags.writeable
        assert not nbrs.pair_coords.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0, 0] = 1.0

    def test_in_place_write_recomputes(self):
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            y0 = gno_set_apply(kernel, store, nbrs, vals).data
            w = store["ker.k.w0"].data
            saved = w[1, 2]
            w[1, 2] = saved + 0.25
            y1 = gno_set_apply(kernel, store, nbrs, vals).data
            assert y1.tobytes() == self.apply_fresh(kernel, store, q, s, vals).tobytes()
            assert y1.tobytes() != y0.tobytes()
            w[1, 2] = saved
            y2 = gno_set_apply(kernel, store, nbrs, vals).data
        assert y2.tobytes() == y0.tobytes()

    def test_taped_call_drops_its_entry(self):
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        probe = np.random.default_rng(3).standard_normal((2, 30, 3))
        with ad.no_grad():
            gno_set_apply(kernel, store, nbrs, vals)
        assert kernel.name in nbrs.kernel_memo

        def grads(index):
            store.zero_grads()
            out = gno_set_apply(kernel, store, index, vals)
            ad.backward(ad.tsum(out * probe), store)
            return {n: store[n].grad.copy() for n in store.names()}

        reused = grads(nbrs)
        assert kernel.name not in nbrs.kernel_memo
        fresh = grads(build_neighbors(q, s, 0.3))
        for name in store.names():
            assert reused[name].tobytes() == fresh[name].tobytes(), name

    def test_two_stores_alternate_without_crossing(self):
        kernel, store, q, s, vals = self.setup_problem()
        other = ad.ParamStore()
        for name in store.names():
            other.add(name, store[name].data.copy())
        other["ker.k.w1"].data[0, 0] += 0.5
        expect = {id(p): self.apply_fresh(kernel, p, q, s, vals) for p in (store, other)}
        assert expect[id(store)].tobytes() != expect[id(other)].tobytes()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            for p in (store, other, store, other, other, store):
                y = gno_set_apply(kernel, p, nbrs, vals).data
                assert y.tobytes() == expect[id(p)].tobytes()

    def test_kernels_keep_separate_entries(self):
        kernel, store, q, s, vals = self.setup_problem()
        twin = KernelNet("ker2", dim=2, d_in=2, d_out=3, hidden=(8,))
        twin.init_params(store, np.random.default_rng(12))
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            a = kernel.matrices(store, nbrs)
            b = twin.matrices(store, nbrs)
            assert kernel.matrices(store, nbrs) is a
            assert twin.matrices(store, nbrs) is b
        assert set(nbrs.kernel_memo) == {"ker", "ker2"}
