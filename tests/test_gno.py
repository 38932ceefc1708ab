"""Neighbor search, kernel integral application, and its set form."""

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
        assert nbrs.query_idx[0] == 0 and nbrs.source_idx[0] == 0

    def test_4x4_grid_matches_brute_force(self):
        mesh = Mesh.uniform((4, 4), extents=(1.0, 1.0))
        r = 0.25 * 1.05
        nbrs = build_neighbors(mesh, mesh, r)
        got = list(zip(nbrs.query_idx.tolist(), nbrs.source_idx.tolist()))
        expect = brute_force_pairs(mesh.points, mesh.points, r)
        assert got == expect
        # interior points see themselves plus the 4-neighborhood
        counts = np.bincount(nbrs.query_idx, minlength=16).reshape(4, 4)
        assert np.all(counts[1:3, 1:3] == 5)

    def test_tiny_radius_keeps_only_self(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.9, size=(20, 2))
        mesh = Mesh.irregular(pts, extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, r=1e-9)
        assert nbrs.n_pairs == 20
        np.testing.assert_array_equal(nbrs.query_idx, nbrs.source_idx)

    def test_pairs_satisfy_radius_bound(self):
        rng = np.random.default_rng(1)
        q = Mesh.irregular(rng.uniform(0, 1, (40, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.uniform(0, 1, (60, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, r=0.3)
        d = np.sqrt(((q.points[nbrs.query_idx] - s.points[nbrs.source_idx]) ** 2).sum(1))
        assert np.all(d <= 0.3)
        expect = brute_force_pairs(q.points, s.points, 0.3)
        assert len(expect) == nbrs.n_pairs

    def test_symmetry_when_query_is_source(self):
        rng = np.random.default_rng(2)
        mesh = Mesh.irregular(rng.uniform(0, 1, (50, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(mesh, mesh, r=0.25)
        pairs = set(zip(nbrs.query_idx.tolist(), nbrs.source_idx.tolist()))
        assert all((i, j) in pairs for (j, i) in pairs)

    def test_empty_neighborhoods_counted(self):
        q = Mesh.irregular(np.array([[0.1, 0.1], [0.9, 0.9]]), extents=(1.0, 1.0))
        s = Mesh.irregular(np.array([[0.1, 0.1]]), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, r=0.05)
        assert nbrs.query_idx.tolist() == [0]           # point 1 has no neighbor
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
        assert np.array_equal(nbrs.query_idx, qi)
        assert np.array_equal(nbrs.source_idx, si)

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
            assert np.array_equal(nbrs.query_idx, qi)
            assert np.array_equal(nbrs.source_idx, si)

    def test_pairs_at_exactly_r_kept(self):
        mesh = Mesh.uniform((8, 8), extents=(1.0, 1.0))   # spacing 1/8, exact
        nbrs = build_neighbors(mesh, mesh, 0.25)
        # an interior point sees every lattice point within two steps: 13
        assert np.count_nonzero(nbrs.query_idx == 3 * 8 + 3) == 13

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
        out = gno_set_apply(kernel, store, nbrs, np.zeros((16, 2)),
                            groups=1).data
        np.testing.assert_array_equal(out, np.tile([1.0, -2.0, 0.5], (16, 1)))

    def test_constant_reproduction_local_average(self):
        """Identity kernel / (pi r^2) on a dense grid reproduces constants."""
        mesh = Mesh.uniform((64, 64))
        r = 0.6
        kernel, store = make_kernel(np.random.default_rng(0))
        set_constant_kernel(kernel, store, np.eye(1) / (np.pi * r * r))
        nbrs = build_neighbors(mesh, mesh, r)
        c = 3.7
        out = gno_set_apply(kernel, store, nbrs, np.full((64 * 64, 1), c),
                            groups=1).data
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
                               smooth(coarse.points), groups=1).data
            y2 = gno_set_apply(kernel, store,
                               build_neighbors(query, fine, r),
                               smooth(fine.points), groups=1).data
        rel = np.linalg.norm(y1 - y2) / np.linalg.norm(y2)
        assert rel < 0.02

    def test_rejects_wrong_value_shape(self):
        kernel, store = make_kernel(np.random.default_rng(0), d_in=2)
        mesh = Mesh.uniform((3, 3))
        nbrs = build_neighbors(mesh, mesh, r=1.0)
        with pytest.raises(ShapeError, match="source values"):
            gno_set_apply(kernel, store, nbrs, np.zeros((9, 3)), groups=1)

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
            out = gno_set_apply(kernel, store, nbrs, vals, groups=1)
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
    def test_swap_groups_swaps_outputs_bitwise(self):
        rng = np.random.default_rng(1)
        kernel, store = make_kernel(rng, d_in=2, d_out=2)
        mesh = Mesh.uniform((5, 5))
        nbrs = build_neighbors(mesh, mesh, r=2.0 * mesh.spacing[0])
        x = rng.standard_normal((25, 6))  # 3 groups of width 2
        perm = [1, 2, 0]
        xp = np.concatenate([x[:, 2 * g:2 * g + 2] for g in perm], axis=1)
        y = gno_set_apply(kernel, store, nbrs, x, groups=3).data
        yp = gno_set_apply(kernel, store, nbrs, xp, groups=3).data
        expect = np.concatenate([y[:, 2 * g:2 * g + 2] for g in perm], axis=1)
        assert np.array_equal(yp, expect)

    def test_identical_groups_identical_outputs(self):
        rng = np.random.default_rng(2)
        kernel, store = make_kernel(rng, d_in=2, d_out=3)
        mesh = Mesh.uniform((4, 4))
        nbrs = build_neighbors(mesh, mesh, r=2.0 * mesh.spacing[0])
        block = rng.standard_normal((16, 2))
        x = np.concatenate([block, block], axis=1)
        y = gno_set_apply(kernel, store, nbrs, x, groups=2).data
        assert np.array_equal(y[:, :3], y[:, 3:])

    @pytest.mark.parametrize("groups", [2, 3, 5, 8])
    def test_permuted_groups_permute_outputs_bitwise(self, groups):
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=4, d_out=4, hidden=(16,))
        mesh = Mesh.uniform((9, 7))
        nbrs = build_neighbors(mesh, mesh, r=2.5 * mesh.spacing[0])
        x = rng.standard_normal((63, groups, 4))
        perm = rng.permutation(groups)
        y = gno_set_apply(kernel, store, nbrs, x.reshape(63, -1), groups).data
        yp = gno_set_apply(kernel, store, nbrs, x[:, perm].reshape(63, -1), groups).data
        assert np.array_equal(yp.reshape(63, groups, 4), y.reshape(63, groups, 4)[:, perm])


def former_set_apply(kernel, store, nbrs, values, groups, weights):
    """gno_set_apply as the chain of nodes it was before its integral became
    one: gather by a ones matrix, times the pair weights, one kernel mat-vec
    per (pair, group), scatter, bias."""
    p = nbrs.n_pairs
    ones = sp.csr_matrix((np.ones(p), (np.arange(p), nbrs.source_idx)),
                         shape=(p, nbrs.n_source))
    k = ad.reshape(kernel.matrices(store, nbrs), (p, 1, kernel.d_out, kernel.d_in))
    gathered = ad.sparse_matmul((ones, ones.T.tocsr()), values) * weights[:, None]
    gathered = ad.reshape(gathered, (p, groups, kernel.d_in, 1))
    msgs = ad.reshape(ad.matmul(k, gathered), (p, groups * kernel.d_out))
    out = ad.reshape(ad.sparse_matmul(nbrs.scatter, msgs),
                     (nbrs.n_query, groups, kernel.d_out))
    out = out + store[f"{kernel.name}.bias"]
    return ad.reshape(out, (nbrs.n_query, groups * kernel.d_out))


class TestFormerChainBytes:
    """The one-node integral has the bytes of the former chain: output,
    kernel-parameter gradients and value gradients."""

    def run(self, apply, kernel, store, nbrs, values, probe):
        vals = ad.Tensor(values.copy(), requires_grad=True)
        store.zero_grads()
        out = apply(vals)
        ad.backward(ad.tsum(out * probe), store)
        return [out.data, vals.grad] + [store[n].grad for n in store.names()]

    def check(self, kernel, store, nbrs, values, groups, weights, seed=0):
        probe = np.random.default_rng(seed).standard_normal(
            (nbrs.n_query, groups * kernel.d_out))
        new = self.run(lambda v: gno_set_apply(kernel, store, nbrs, v, groups),
                       kernel, store, nbrs, values, probe)
        old = self.run(lambda v: former_set_apply(kernel, store, nbrs, v, groups, weights),
                       kernel, store, nbrs, values, probe)
        for a, b in zip(new, old):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def clouds(groups):
        """A kernel (d_in 3, d_out 2), an index from 45 weighted sources to
        30 queries, values and the pairs' source weights."""
        rng = np.random.default_rng(groups)
        kernel, store = make_kernel(rng, d_in=3, d_out=2, hidden=(8,))
        q = Mesh.irregular(rng.random((30, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((45, 2)), extents=(1.0, 1.0),
                           quad_weights=rng.dirichlet(np.ones(45)))
        nbrs = build_neighbors(q, s, 0.3)
        values = rng.standard_normal((45, 3 * groups))
        return kernel, store, nbrs, values, s.quad_weights[nbrs.source_idx]

    @pytest.mark.parametrize("groups", [1, 3, 12])
    def test_groups(self, groups):
        kernel, store, nbrs, values, weights = self.clouds(groups)
        self.check(kernel, store, nbrs, values, groups, weights, seed=groups)

    @pytest.mark.parametrize("groups", [1, 3, 12])
    @pytest.mark.parametrize("blocks", ["one pair each", "ragged", "exactly one"])
    def test_pair_blocks(self, groups, blocks, monkeypatch):
        """Small pair blocks: the clouds span many blocks, with a ragged
        last one, or exactly one block of all the pairs."""
        kernel, store, nbrs, values, weights = self.clouds(groups)
        p = nbrs.n_pairs
        step = {"one pair each": 1, "exactly one": p,
                "ragged": next(b for b in range(7, p) if p % b)}[blocks]
        monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", step * groups * 3)
        gathers = []
        real = ad.sparse_matmul

        def counting(pair, x):
            gathers.extend([pair[0].shape[0]] if x is values else [])
            return real(pair, x)

        monkeypatch.setattr(ad, "sparse_matmul", counting)
        with ad.no_grad():
            gno_set_apply(kernel, store, nbrs, values, groups)
        assert gathers == [min(step, p - lo) for lo in range(0, p, step)]
        if blocks == "ragged":
            assert len(gathers) > 2 and gathers[-1] < step
        self.check(kernel, store, nbrs, values, groups, weights, seed=groups)

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
        nbrs = NeighborIndex(q, source, nbrs.query_idx, nbrs.source_idx)
        assert np.any(weights[nbrs.source_idx] == 0.0)
        values = rng.standard_normal((30, 6))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.3] = -0.0
        values[3] = -0.0
        values[7] = -1.5
        assert np.any(np.signbit(values) & (values == 0))
        self.check(kernel, store, nbrs, values, 3, weights[nbrs.source_idx])


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
        from scipy.special import erf
        rng = np.random.default_rng(4)
        kernel, store = make_kernel(rng, d_in=3, d_out=2, hidden=(16, 8))
        q = Mesh.irregular(rng.random((40, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((60, 2)), extents=(1.0, 1.0))
        nbrs = build_neighbors(q, s, 0.3)
        got = kernel.matrices(store, nbrs).data
        h = np.concatenate([q.points[nbrs.query_idx],
                            s.points[nbrs.source_idx]], axis=1)
        n_layers = len(kernel.mlp.widths) - 1
        for i in range(n_layers):
            h = (np.einsum("ni,io->no", h, store[f"ker.k.w{i}"].data)
                 + store[f"ker.k.b{i}"].data)
            if i < n_layers - 1:
                h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        assert got.shape == (nbrs.n_pairs, 2, 3)
        assert np.max(np.abs(got - h.reshape(-1, 2, 3))) <= 1e-12


def counting_mlp(monkeypatch) -> list:
    """Records the name of each PointwiseOp (kernel MLP) run."""
    import codano.spectral
    runs = []
    real = codano.spectral.PointwiseOp.__call__

    def counting(self, store, x):
        runs.append(self.name)
        return real(self, store, x)

    monkeypatch.setattr(codano.spectral.PointwiseOp, "__call__", counting)
    return runs


class TestKernelMemo:
    """No_grad kernel matrices kept on their index, keyed on parameter bytes."""

    def setup_problem(self, seed=11):
        rng = np.random.default_rng(seed)
        kernel, store = make_kernel(rng, d_in=2, d_out=3, hidden=(8,))
        q = Mesh.irregular(rng.random((30, 2)), extents=(1.0, 1.0))
        s = Mesh.irregular(rng.random((40, 2)), extents=(1.0, 1.0))
        vals = rng.standard_normal((40, 4))
        return kernel, store, q, s, vals

    def apply_fresh(self, kernel, store, q, s, vals):
        """The output on a new index, which has no memo."""
        with ad.no_grad():
            return gno_set_apply(kernel, store, build_neighbors(q, s, 0.3),
                                 vals, groups=2).data

    def test_second_no_grad_call_reuses_the_matrices(self, monkeypatch):
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        runs = counting_mlp(monkeypatch)
        with ad.no_grad():
            first = kernel.matrices(store, nbrs).data
            second = kernel.matrices(store, nbrs).data
            y1 = gno_set_apply(kernel, store, nbrs, vals, groups=2).data
            y2 = gno_set_apply(kernel, store, nbrs, vals, groups=2).data
        assert runs == ["ker.k"]
        assert second is first
        assert y1.tobytes() == y2.tobytes()
        taped = kernel.matrices(store, nbrs).data
        assert taped.tobytes() == first.tobytes()

    def test_cached_array_is_read_only(self):
        kernel, store, q, s, _ = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            k = kernel.matrices(store, nbrs).data
        assert not k.flags.writeable
        assert not nbrs.pair_coords.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0, 0] = 1.0

    def test_in_place_write_recomputes(self):
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            y0 = gno_set_apply(kernel, store, nbrs, vals, groups=2).data
            w = store["ker.k.w0"].data
            saved = w[1, 2]
            w[1, 2] = saved + 0.25
            y1 = gno_set_apply(kernel, store, nbrs, vals, groups=2).data
            assert y1.tobytes() == self.apply_fresh(kernel, store, q, s, vals).tobytes()
            assert y1.tobytes() != y0.tobytes()
            w[1, 2] = saved
            y2 = gno_set_apply(kernel, store, nbrs, vals, groups=2).data
        assert y2.tobytes() == y0.tobytes()

    def test_taped_call_drops_its_entry(self):
        kernel, store, q, s, vals = self.setup_problem()
        nbrs = build_neighbors(q, s, 0.3)
        probe = np.random.default_rng(3).standard_normal((30, 6))
        with ad.no_grad():
            gno_set_apply(kernel, store, nbrs, vals, groups=2)
        assert kernel.name in nbrs.kernel_memo

        def grads(index):
            store.zero_grads()
            out = gno_set_apply(kernel, store, index, vals, groups=2)
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
            other.add(name, store[name].data)
        other["ker.k.w1"].data[0, 0] += 0.5
        expect = {id(p): self.apply_fresh(kernel, p, q, s, vals) for p in (store, other)}
        assert expect[id(store)].tobytes() != expect[id(other)].tobytes()
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            for p in (store, other, store, other, other, store):
                y = gno_set_apply(kernel, p, nbrs, vals, groups=2).data
                assert y.tobytes() == expect[id(p)].tobytes()

    def test_kernels_keep_separate_entries(self):
        kernel, store, q, s, vals = self.setup_problem()
        twin = KernelNet("ker2", dim=2, d_in=2, d_out=3, hidden=(8,))
        twin.init_params(store, np.random.default_rng(12))
        nbrs = build_neighbors(q, s, 0.3)
        with ad.no_grad():
            a = kernel.matrices(store, nbrs).data
            b = twin.matrices(store, nbrs).data
            assert kernel.matrices(store, nbrs).data is a
            assert twin.matrices(store, nbrs).data is b
        assert set(nbrs.kernel_memo) == {"ker", "ker2"}
