"""Positional encoders, normalization, attention layers, and the full model."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from codano import autodiff as ad
from codano.errors import (MeshError, ModeCountError, ShapeError,
                           TrainingStateError, UnknownVariableError,
                           VariableExistsError)
from codano.field import GridFunction, Mesh, random_band_limited
from codano.gno import build_neighbors
from codano.model import (CodanoLayer, ModelConfig, Vspe, _owners, extend_variables,
                          has_predictor, init_params, model_forward, normalize,
                          param_shapes, predict)
from codano.spectral import FnoBlock


def tiny_config(**kw):
    base = dict(variables=("u", "v"), embed_dim=2, latent_width=4, n_heads=2,
                key_width=3, value_width=3, modes=2, encoder_layers=1,
                reconstructor_layers=1, predictor_layers=1,
                latent_resolution=(8, 8), vspe_modes=2, gno_hidden=(4,), seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    def test_token_width_defaults_to_latent_width(self):
        cfg = tiny_config()
        assert cfg.token_width == 4
        assert tiny_config(token_width=4) == cfg

    @pytest.mark.parametrize("width", [2, 1, 8])
    def test_rejects_a_token_split_of_a_variable(self, width):
        """One token per variable: a divisor of the latent width is refused
        as well as any other width."""
        with pytest.raises(ShapeError, match="token_width"):
            tiny_config(token_width=width)

    def test_rejects_nondividing_token_width(self):
        with pytest.raises(ShapeError, match="token_width"):
            tiny_config(token_width=3)

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ShapeError, match="unique"):
            tiny_config(variables=("u", "u"))

    def test_rejects_unknown_kind_and_variant(self):
        for kind in ("mlp", "fno"):
            with pytest.raises(ShapeError, match="kind"):
                tiny_config(kind=kind)
        with pytest.raises(ShapeError, match="variant"):
            tiny_config(vspe_variant="learned")

    @pytest.mark.parametrize("key, value", [
        ("key_width", -1), ("key_width", 0), ("value_width", 0),
        ("latent_width", 0), ("vspe_modes", 0), ("n_heads", 0),
        ("embed_dim", -1), ("token_width", -2), ("encoder_layers", -1),
        ("reconstructor_layers", -1), ("predictor_layers", -1),
        ("gno_hidden", (4, 0))])
    def test_rejects_sizes_below_their_least(self, key, value):
        with pytest.raises(ShapeError, match=key):
            tiny_config(**{key: value})

    def test_accepts_the_least_sizes(self):
        cfg = tiny_config(latent_width=1, key_width=1, value_width=1, vspe_modes=1,
                          embed_dim=0, encoder_layers=0, reconstructor_layers=0,
                          predictor_layers=0, gno_hidden=(1,))
        assert cfg.token_width == 1

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_radius_follows_latent_spacing(self):
        cfg = tiny_config()
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        assert cfg.radius(mesh) == pytest.approx(2.5 * 2 * np.pi / 8)
        assert tiny_config(gno_radius=0.7).radius(mesh) == 0.7


class TestVspe:
    def test_fourier_zero_mode_gives_constant(self):
        vspe = Vspe("fourier", embed_dim=3, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(0))
        store["vspe.u.coef"].data[...] = 0.0
        store["vspe.u.coef"].data[0, 0, :, 0] = [1.5, -2.0, 0.25]
        emb = vspe.evaluate(store, "u", Mesh.uniform((8, 8))).data
        np.testing.assert_allclose(emb, np.tile([1.5, -2.0, 0.25], (64, 1)),
                                   atol=1e-12)

    def test_fourier_same_series_at_two_resolutions(self):
        vspe = Vspe("fourier", embed_dim=2, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(1))
        coarse = vspe.evaluate(store, "u", Mesh.uniform((8, 8))).data
        fine = vspe.evaluate(store, "u", Mesh.uniform((16, 16))).data
        shared = fine.reshape(16, 16, 2)[::2, ::2].reshape(64, 2)
        np.testing.assert_allclose(coarse, shared, atol=1e-12)

    def test_fourier_needs_uniform_grid(self):
        vspe = Vspe("fourier", embed_dim=2, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(0))
        cloud = Mesh.irregular(np.random.default_rng(0).uniform(0, 1, (10, 2)),
                               extents=(1.0, 1.0))
        with pytest.raises(MeshError, match="uniform"):
            vspe.evaluate(store, "u", cloud)
        with pytest.raises(MeshError, match="2D"):
            vspe.evaluate(store, "u", Mesh.uniform((8,)))

    def test_fourier_rejects_too_coarse_grid(self):
        vspe = Vspe("fourier", embed_dim=2, modes=4)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(0))
        with pytest.raises(ModeCountError, match="cannot carry"):
            vspe.evaluate(store, "u", Mesh.uniform((4, 4)))

    def test_coord_mlp_is_a_function_of_position(self):
        vspe = Vspe("coord-mlp", embed_dim=3, modes=2)
        store = ad.ParamStore()
        vspe.init_var(store, "u", np.random.default_rng(2))
        grid = Mesh.uniform((4, 4))
        subset = Mesh.irregular(grid.points[[0, 5, 10]], extents=grid.extents)
        full = vspe.evaluate(store, "u", grid).data
        part = vspe.evaluate(store, "u", subset).data
        np.testing.assert_allclose(part, full[[0, 5, 10]], atol=1e-12)

    def test_coord_features_kept_on_their_mesh(self, monkeypatch):
        """The features are computed once per mesh, for every variable, and
        kept read-only; a twin mesh with equal points builds its own, of
        the same bytes."""
        import codano.model
        vspe = Vspe("coord-mlp", embed_dim=3, modes=2)
        store = ad.ParamStore()
        for var in ("u", "v"):
            vspe.init_var(store, var, np.random.default_rng(3))
        calls, real_sin = [], np.sin
        monkeypatch.setattr(codano.model.np, "sin", lambda x: calls.append(1) or real_sin(x))
        mesh = Mesh.irregular(np.random.default_rng(4).uniform(0, 1, (30, 2)),
                              extents=(1.0, 1.0))
        first = vspe.features(mesh)
        built = len(calls)
        assert built > 0 and not first.flags.writeable
        assert vspe.features(mesh) is first
        vspe.evaluate(store, "u", mesh)
        vspe.evaluate(store, "v", mesh)
        assert len(calls) == built
        twin = Mesh.irregular(mesh.points.copy(), extents=(1.0, 1.0))
        other = vspe.features(twin)
        assert other is not first and len(calls) == 2 * built
        assert other.tobytes() == first.tobytes()

    def test_unknown_variable(self):
        vspe = Vspe("fourier", embed_dim=2, modes=2)
        store = ad.ParamStore()
        with pytest.raises(UnknownVariableError, match="no positional encoder"):
            vspe.evaluate(store, "ghost", Mesh.uniform((8, 8)))


class TestNormalize:
    def test_constant_token_maps_to_bias(self):
        mesh = Mesh.uniform((8, 8))
        x = ad.Tensor(np.full((1, 64, 2), 5.0))
        out = normalize(x, np.ones(2), np.array([3.0, -1.0]), mesh, eps=1e-5).data
        np.testing.assert_allclose(out, np.tile([3.0, -1.0], (1, 64, 1)), atol=1e-9)

    def test_sine_token_analytic_sigma(self):
        mesh = Mesh.uniform((64,), extents=(1.0,))
        vals = np.sin(2 * np.pi * mesh.points[:, 0])[None, :, None]
        out = normalize(ad.Tensor(vals), np.ones(1), np.zeros(1), mesh, eps=0.0).data
        np.testing.assert_allclose(out, np.sqrt(2.0) * vals, atol=1e-8)

    def test_zero_gain_gives_bias(self):
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((2, 64, 3)))
        out = normalize(x, np.zeros(3), np.full(3, 7.0), mesh, eps=1e-5).data
        np.testing.assert_allclose(out, np.full((2, 64, 3), 7.0), atol=1e-12)

    def test_leading_axes_equal_flat_tokens_bitwise(self):
        """(S, T, n, c) values give the (S*T, n, c) result bit for bit."""
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 64, 5)) * 3 + 1
        gain, bias = rng.standard_normal(5), rng.standard_normal(5)
        nested = normalize(ad.Tensor(x), gain, bias, mesh).data
        flat = normalize(ad.Tensor(x.reshape(6, 64, 5)), gain, bias, mesh).data
        assert np.array_equal(nested, flat.reshape(x.shape))

    def test_whitens_mean_and_variance(self):
        mesh = Mesh.uniform((16, 16))
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((3, 256, 2)) * 50 + 9.0)
        out = normalize(x, np.ones(2), np.zeros(2), mesh, eps=0.0).data
        w = mesh.quad_weights / mesh.measure
        mean = np.einsum("tnc,n->tc", out, w)
        var = np.einsum("tnc,n->tc", out ** 2, w) - mean ** 2
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1).max() < 1e-6


UNEVEN_HEADS = tiny_config(n_heads=3, key_width=3, value_width=5)


def kqv_columns(layer):
    """Column ranges of the key, query and value blocks in a layer's kqv."""
    edges = np.cumsum((0,) + layer.kqv.parts)
    return dict(zip(("key", "query", "value"), zip(edges[:-1], edges[1:])))


def per_head_reference(layer, store, tokens, mesh):
    """A layer's attention output (S, T, n, d) and rows (S, h, T, T),
    computed head by head in NumPy with one FnoBlock per head and role whose
    weights are column slices of the layer's kqv block."""
    cfg, res = layer.config, mesh.resolution
    sliced = ad.ParamStore()
    x = ad.Tensor(tokens)
    columns = kqv_columns(layer)

    def head_out(role, h, width):
        name = f"{layer.name}.head{h}.{role}"
        lo = columns[role][0] + h * width
        spec = store[f"{layer.kqv.name}.spec"].data
        sliced.add(f"{name}.spec", spec[..., lo:lo + width, :])
        for k in ("byp_w", "bias"):
            sliced.add(f"{name}.{k}", store[f"{layer.kqv.name}.{k}"].data[..., lo:lo + width])
        return FnoBlock(name, layer.kqv.d_in, width, cfg.modes,
                        activation=False)(sliced, x, res).data

    mixed, rows = [], []
    for h in range(cfg.n_heads):
        k = head_out("key", h, cfg.key_width)
        q = head_out("query", h, cfg.key_width) * mesh.quad_weights[:, None]
        logits = np.einsum("sjnc,smnc->sjm", q, k) / layer.temperature(mesh)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        mixed.append(np.einsum("sjm,smnc->sjnc", att, head_out("value", h,
                                                               cfg.value_width)))
        rows.append(att)
    out = layer.merge(store, ad.Tensor(np.concatenate(mixed, axis=3)), res).data
    return out, np.stack(rows, axis=1)


def make_layer(cfg=None, seed=0):
    cfg = cfg or tiny_config()
    layer = CodanoLayer("encoder.layer0", cfg)
    store = ad.ParamStore()
    layer.init_params(store, np.random.default_rng(seed))
    return layer, store, cfg


class TestCodanoLayer:
    def test_rows_sum_to_one_and_lie_in_unit_interval(self):
        layer, store, cfg = make_layer()
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(0).standard_normal((3, 64, 4))
        rows = layer.attention_rows(store, tokens, mesh)
        np.testing.assert_allclose(rows.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(rows >= 0) and np.all(rows <= 1)

    def test_identical_tokens_give_uniform_rows(self):
        layer, store, cfg = make_layer()
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        one = np.random.default_rng(1).standard_normal((1, 64, 4))
        tokens = np.concatenate([one, one, one], axis=0)
        rows = layer.attention_rows(store, tokens, mesh)
        np.testing.assert_allclose(rows, 1.0 / 3.0, atol=1e-12)

    def test_huge_temperature_gives_uniform_rows(self):
        layer, store, cfg = make_layer(tiny_config(temperature=1e9))
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(2).standard_normal((4, 64, 4))
        rows = layer.attention_rows(store, tokens, mesh)
        np.testing.assert_allclose(rows, 0.25, atol=1e-6)

    def test_single_token_attends_to_itself(self):
        layer, store, cfg = make_layer()
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(3).standard_normal((1, 64, 4))
        rows = layer.attention_rows(store, tokens, mesh)
        np.testing.assert_array_equal(rows, np.ones((2, 1, 1)))

    def check_permutation_equivariant_bitwise(self, cfg):
        layer, store, cfg = make_layer(cfg)
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(4).standard_normal((2, 3, 64, 4))
        perms = ([2, 0, 1], [1, 2, 0])   # one permutation per sample
        y = layer(store, ad.Tensor(tokens), mesh).data
        permuted = np.stack([x[p] for x, p in zip(tokens, perms)])
        yp = layer(store, ad.Tensor(permuted), mesh).data
        for k, p in enumerate(perms):
            assert np.array_equal(yp[k], y[k][p])

    def test_permutation_equivariant_bitwise(self):
        self.check_permutation_equivariant_bitwise(tiny_config())

    def test_permutation_equivariant_bitwise_uneven_heads(self):
        self.check_permutation_equivariant_bitwise(UNEVEN_HEADS)

    def test_matches_per_head_reference(self):
        """The head axis does what one FnoBlock per head with its own
        softmax, value mix and a concatenation did."""
        layer, store, cfg = make_layer(UNEVEN_HEADS)
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(6).standard_normal((2, 3, 64, 4))
        want, want_rows = per_head_reference(layer, store, tokens, mesh)
        got = layer.attention(store, ad.Tensor(tokens), mesh).data
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        for k in range(2):
            rows = layer.attention_rows(store, tokens[k], mesh)
            assert rows.shape == (3, 3, 3)
            assert np.abs(rows - want_rows[k]).max() <= 1e-14

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_three_blocks_per_layer(self, n_heads, monkeypatch):
        """Key, query and value are one block: one FFT of the tokens for all
        three, whatever the head count."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(FnoBlock, "__call__", counted("block", FnoBlock.__call__))
        monkeypatch.setattr(ad, "fftn", counted("fftn", ad.fftn))
        layer, store, cfg = make_layer(tiny_config(n_heads=n_heads))
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(7).standard_normal((2, 3, 64, 4))
        layer(store, ad.Tensor(tokens), mesh)
        assert calls == Counter(block=3, fftn=3)

    def test_zeroed_value_and_merge_reduce_to_integral_block(self):
        layer, store, cfg = make_layer()
        lo, hi = kqv_columns(layer)["value"]
        store["encoder.layer0.kqv.spec"].data[..., lo:hi, :] = 0.0
        store["encoder.layer0.kqv.byp_w"].data[:, lo:hi] = 0.0
        store["encoder.layer0.kqv.bias"].data[lo:hi] = 0.0
        for name in store.names():
            if ".merge." in name:
                store[name].data[...] = 0.0
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        tokens = np.random.default_rng(5).standard_normal((2, 64, 4))
        got = layer(store, ad.Tensor(tokens[None]), mesh).data[0]
        bias = store["encoder.layer0.norm.bias"].data
        expect = layer.iper(store, ad.Tensor(tokens + bias), mesh.resolution).data
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_wrong_token_width_rejected(self):
        layer, store, cfg = make_layer()
        mesh = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        with pytest.raises(ShapeError, match="token width"):
            layer.attention(store, ad.Tensor(np.zeros((2, 64, 5))), mesh)


def count_builds(monkeypatch) -> list:
    """Records one entry per neighbor-index build the model asks for."""
    import codano.model
    builds = []
    real = codano.model.build_neighbors

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(codano.model, "build_neighbors", counting)
    return builds


def mesh_copy(mesh: Mesh) -> Mesh:
    """A new Mesh over the same points, weights and box."""
    return Mesh(points=mesh.points.copy(), quad_weights=mesh.quad_weights.copy(),
                extents=mesh.extents, resolution=mesh.resolution)


def encoder_indices(mesh: Mesh) -> list:
    """The encoder neighbor indices kept on mesh."""
    return [v for k, v in mesh.__dict__["_neighbors"].items() if k[0] == "enc"]


def kernel_memos(mesh: Mesh) -> dict:
    """The kernel memo of each neighbor index kept on mesh, by direction."""
    return {k[0]: v.kernel_memo for k, v in mesh.__dict__["_neighbors"].items()}


def cloud_input(cfg, n=60, seed=0):
    """A GridFunction on a random point cloud over the default box."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 2 * np.pi, size=(n, 2))
    return GridFunction(Mesh.irregular(pts, (2 * np.pi, 2 * np.pi)),
                        rng.standard_normal((n, len(cfg.variables))),
                        names=cfg.variables)


def band_limited_input(cfg, resolution=(16, 16), seed=0, names=None):
    mesh = Mesh.uniform(resolution)
    rng = np.random.default_rng(seed)
    names = names or cfg.variables
    f = random_band_limited(mesh, modes=4, channels=len(names), rng=rng,
                            names=tuple(names))
    return f


class TestModelForward:
    def test_shape_contract_same_mesh(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        out = model_forward(params, cfg, f)
        assert out.shape == (256, 2)

    def test_super_resolution_query(self):
        cfg = tiny_config(use_gno=False)
        params = init_params(cfg)
        f = band_limited_input(cfg)
        out = model_forward(params, cfg, f, query_mesh=Mesh.uniform((32, 32)))
        assert out.shape == (1024, 2)

    def test_variable_subset_forward(self):
        cfg = tiny_config(variables=("u", "v", "w"))
        params = init_params(cfg)
        f = band_limited_input(cfg, names=("v", "u"))
        out = model_forward(params, cfg, f)
        assert out.shape == (256, 2)

    def test_unknown_variable_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg, names=("u", "qq"))
        with pytest.raises(UnknownVariableError, match="qq"):
            model_forward(params, cfg, f)

    def test_unknown_head_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        with pytest.raises(ShapeError, match="head"):
            model_forward(params, cfg, f, head="decoder")

    def test_out_of_domain_query_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        bad = Mesh.uniform((8, 8), extents=(9.0, 9.0))
        with pytest.raises(MeshError, match="domain box"):
            model_forward(params, cfg, f, query_mesh=bad)

    def test_spectral_path_refuses_another_box(self):
        """A query grid over a sub-box is not resampled onto as if it spanned
        the input's box; the GNO path, which works on coordinates, answers."""
        cfg = tiny_config(use_gno=False)
        params = init_params(cfg)
        f = band_limited_input(cfg)
        sub_box = Mesh.uniform((16, 16), extents=(1.0, 1.0))
        with pytest.raises(MeshError, match="box"):
            model_forward(params, cfg, f, query_mesh=sub_box)
        gno = tiny_config()
        assert model_forward(init_params(gno), gno, f, query_mesh=sub_box).shape == (256, 2)

    def test_permutation_equivariance_bitwise_gno(self):
        cfg = tiny_config(variables=("a", "b", "c"))
        params = init_params(cfg)
        f = band_limited_input(cfg, seed=3)
        out = model_forward(params, cfg, f).data
        perm = [2, 0, 1]
        fp = GridFunction(f.mesh, np.ascontiguousarray(f.values[:, perm]),
                          names=tuple(f.names[i] for i in perm))
        outp = model_forward(params, cfg, fp).data
        assert np.array_equal(outp, out[:, perm])

    def test_permutation_equivariance_bitwise_spectral_path(self):
        cfg = tiny_config(variables=("a", "b", "c"), use_gno=False)
        params = init_params(cfg)
        f = band_limited_input(cfg, seed=4)
        out = model_forward(params, cfg, f).data
        perm = [1, 2, 0]
        fp = GridFunction(f.mesh, np.ascontiguousarray(f.values[:, perm]),
                          names=tuple(f.names[i] for i in perm))
        outp = model_forward(params, cfg, fp).data
        assert np.array_equal(outp, out[:, perm])

    def test_zero_embed_dim_runs(self):
        cfg = tiny_config(embed_dim=0, use_gno=False)
        params = init_params(cfg)
        f = band_limited_input(cfg)
        out = model_forward(params, cfg, f)
        assert out.shape == (256, 2)

    @pytest.mark.parametrize("kw", [{}, {"use_gno": False},
                                    {"vspe_variant": "coord-mlp"},
                                    {"n_heads": 3, "key_width": 2, "value_width": 5}])
    def test_param_names_follow_init_params(self, kw):
        """param_shapes gives init_params' names in its order, and each
        tensor's shape, without drawing."""
        cfg = tiny_config(**kw)
        params = init_params(cfg)
        assert param_shapes(cfg) == {n: t.shape for n, t in params.items()}
        assert list(param_shapes(cfg)) == params.names()
        extended, cfg2 = extend_variables(params, cfg, ["w"])
        assert param_shapes(cfg2, predictor=True) == {
            n: t.shape for n, t in extended.items()}

    def test_init_is_deterministic(self):
        cfg = tiny_config()
        s1, s2 = init_params(cfg), init_params(cfg)
        assert s1.names() == s2.names()
        for name in s1.names():
            assert np.array_equal(s1[name].data, s2[name].data)

    def test_init_replays_the_former_separate_draws(self):
        """Fresh parameters hold the values the separate key, query and value
        blocks and the paired real and imaginary parts were drawn with: the
        same draws in the same order, kqv's columns being the three blocks'
        side by side, every complex weight its (re, im) draws stacked, and
        every other parameter the same bytes."""
        cfg = tiny_config(n_heads=3, key_width=2, value_width=5)
        rng, replay = np.random.default_rng(cfg.seed), {}

        def normal(shape, scale):
            return rng.standard_normal(shape) * scale

        def former_block(name, d_in, d_out):
            band = (2 * cfg.modes, cfg.modes, d_in, d_out)
            replay[f"{name}.spec_re"] = normal(band, 1.0 / np.sqrt(d_in * d_out))
            replay[f"{name}.spec_im"] = normal(band, 1.0 / np.sqrt(d_in * d_out))
            replay[f"{name}.byp_w"] = normal((d_in, d_out), np.sqrt(2.0 / (d_in + d_out)))
            replay[f"{name}.bias"] = np.zeros(d_out)

        for owner in _owners(cfg):
            if isinstance(owner, str):
                shape = (2 * cfg.vspe_modes, cfg.vspe_modes, cfg.embed_dim)
                for part in ("re", "im"):
                    replay[f"vspe.{owner}.{part}"] = normal(shape, 1.0 / (2 * cfg.vspe_modes))
            elif isinstance(owner, CodanoLayer):
                d, h = cfg.latent_width, cfg.n_heads
                kw, vw = h * cfg.key_width, h * cfg.value_width
                for role, d_in, d_out in (("key", d, kw), ("query", d, kw),
                                          ("value", d, vw), ("merge", vw, d), ("iper", d, d)):
                    former_block(f"{owner.name}.{role}", d_in, d_out)
                replay[f"{owner.name}.norm.gain"] = np.ones(d)
                replay[f"{owner.name}.norm.bias"] = np.zeros(d)
            else:
                scratch = ad.ParamStore()
                owner.init_params(scratch, rng)
                replay.update((n, t.data) for n, t in scratch.items())

        def expect(name):
            prefix, leaf = name.rsplit(".", 1)
            if leaf == "coef":
                return np.stack((replay[f"{prefix}.re"], replay[f"{prefix}.im"]), -1)
            if prefix.endswith(".kqv"):
                roles = [prefix[:-3] + role for role in ("key", "query", "value")]
                if leaf == "spec":
                    return np.stack([np.concatenate([replay[f"{r}.spec_{p}"] for r in roles],
                                                    -1) for p in ("re", "im")], -1)
                return np.concatenate([replay[f"{r}.{leaf}"] for r in roles], -1)
            if leaf == "spec":
                return np.stack((replay[f"{prefix}.spec_re"], replay[f"{prefix}.spec_im"]), -1)
            return replay[name]

        params = init_params(cfg)
        assert any(".kqv." in n for n in params.names())
        for name, t in params.items():
            assert t.data.tobytes() == expect(name).tobytes(), name

    def test_neighbor_indices_built_once_per_mesh(self, monkeypatch):
        builds = count_builds(monkeypatch)
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        out1 = model_forward(params, cfg, f)
        assert len(builds) == 2
        out2 = model_forward(params, cfg, f)
        assert len(builds) == 2
        assert np.array_equal(out1.data, out2.data)

    def test_encoder_index_lives_on_its_input_mesh(self):
        cfg = tiny_config(vspe_variant="coord-mlp")
        params = init_params(cfg)
        latent = cfg.latent_mesh((2 * np.pi, 2 * np.pi))
        rng = np.random.default_rng(6)
        for _ in range(20):
            pts = rng.uniform(0.0, 2 * np.pi, size=(60, 2))
            g = GridFunction(Mesh.irregular(pts, (2 * np.pi, 2 * np.pi)),
                             rng.standard_normal((60, 2)), names=cfg.variables)
            out = model_forward(params, cfg, g)
            (enc,) = encoder_indices(g.mesh)
            expect = build_neighbors(latent, g.mesh, cfg.radius(latent))
            assert np.array_equal(enc.pair_coords, expect.pair_coords)
            twin = GridFunction(mesh_copy(g.mesh), g.values, names=g.names)
            assert np.array_equal(out.data, model_forward(params, cfg, twin).data)
            (twin_enc,) = encoder_indices(twin.mesh)
            assert twin_enc is not enc
            assert enc not in twin.mesh.__dict__["_neighbors"].values()
            assert twin_enc not in g.mesh.__dict__["_neighbors"].values()
            assert np.array_equal(twin_enc.pair_coords, expect.pair_coords)

    def test_query_mesh_decoded_from_two_boxes(self):
        # the decoder's latent grid spans the input's box, so one query mesh
        # keeps one index per input box and never reuses another box's
        cfg = tiny_config(vspe_variant="coord-mlp")
        params = init_params(cfg)
        rng = np.random.default_rng(8)
        query = Mesh.irregular(rng.uniform(0.0, 3.0, size=(50, 2)), (3.0, 3.0))
        for box in ((2 * np.pi, 2 * np.pi), (4.0, 3.5)):
            f = GridFunction(Mesh.irregular(rng.uniform(0.0, 1.0, (70, 2)) * box, box),
                             rng.standard_normal((70, 2)), names=cfg.variables)
            out = model_forward(params, cfg, f, query_mesh=query)
            fresh = model_forward(params, cfg, f, query_mesh=mesh_copy(query))
            assert np.array_equal(out.data, fresh.data)
        assert len(query.__dict__["_neighbors"]) == 2

    def test_dropped_mesh_is_freed_with_its_indices(self):
        cfg = tiny_config(vspe_variant="coord-mlp")
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 2 * np.pi, size=(60, 2))
        f = GridFunction(Mesh.irregular(pts, (2 * np.pi, 2 * np.pi)),
                         rng.standard_normal((60, 2)), names=cfg.variables)
        out = model_forward(params, cfg, f)
        assert len(f.mesh.__dict__["_neighbors"]) == 2
        dropped = weakref.ref(f.mesh)
        del f, out
        gc.collect()
        assert dropped() is None

    def test_dropped_mesh_is_freed_without_cycle_collection(self):
        """After a no_grad predict has filled the kernel memo, dropping the
        mesh frees it by reference counting alone: no index holds its mesh."""
        cfg = tiny_config(vspe_variant="coord-mlp")
        params = init_params(cfg)
        f = cloud_input(cfg, seed=6)
        out = predict(params, cfg, f)
        assert all(kernel_memos(f.mesh).values())
        dropped = weakref.ref(f.mesh)
        gc.disable()
        try:
            del f, out
            assert dropped() is None
        finally:
            gc.enable()

    def test_predict_wraps_grid_function(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        g = predict(params, cfg, f)
        assert isinstance(g, GridFunction)
        assert g.names == f.names and g.mesh.same(f.mesh)


def count_kernel_mlp_runs(monkeypatch, params) -> Counter:
    """Counts the runs of each GNO kernel MLP over all its pairs
    (`ad.kernel_matrices`) by its parameter prefix."""
    prefixes = {id(params[n]): n[:-len(".w0")] for n in params.names()
                if n.startswith("gno_") and n.endswith(".k.w0")}
    runs = Counter()
    real = ad.kernel_matrices

    def counting(coords, weights, biases, d_in):
        runs[prefixes[id(weights[0])]] += 1
        return real(coords, weights, biases, d_in)

    monkeypatch.setattr(ad, "kernel_matrices", counting)
    return runs


class TestKernelMemo:
    """GNO kernel matrices reused across no_grad forwards at one parameter
    state, on the neighbor index kept on each mesh."""

    def setup_cloud(self, seed=6):
        cfg = tiny_config(vspe_variant="coord-mlp")
        return cfg, init_params(cfg), cloud_input(cfg, seed=seed)

    def fresh_predict(self, params, cfg, f):
        """predict on a copy of f's mesh, which has no index and no memo."""
        twin = GridFunction(mesh_copy(f.mesh), f.values, names=f.names)
        return predict(params, cfg, twin).values

    def test_two_predicts_run_each_kernel_once(self, monkeypatch):
        cfg, params, f = self.setup_cloud()
        runs = count_kernel_mlp_runs(monkeypatch, params)
        first = predict(params, cfg, f).values
        second = predict(params, cfg, f).values
        assert runs == {"gno_enc.k": 1, "gno_dec.k": 1}
        assert first.tobytes() == second.tobytes()
        memos = kernel_memos(f.mesh)
        assert set(memos) == {"enc", "dec"}
        for memo in memos.values():
            ((_, k),) = memo.values()
            assert not k.flags.writeable

    def test_in_place_weight_write_recomputes(self):
        cfg, params, f = self.setup_cloud()
        first = predict(params, cfg, f).values
        w = params["gno_enc.k.w0"].data
        saved = w[0, 1]
        w[0, 1] = saved + 0.3  # the way grad_check perturbs one element
        moved = predict(params, cfg, f).values
        assert moved.tobytes() == self.fresh_predict(params, cfg, f).tobytes()
        assert moved.tobytes() != first.tobytes()
        w[0, 1] = saved
        assert predict(params, cfg, f).values.tobytes() == first.tobytes()

    def test_taped_forward_drops_entries_and_matches_fresh_mesh(self):
        cfg, params, f = self.setup_cloud()
        predict(params, cfg, f)
        assert all(kernel_memos(f.mesh).values())
        probe = np.random.default_rng(2).standard_normal((60, 2))

        def grads(g):
            params.zero_grads()
            out = model_forward(params, cfg, g)
            ad.backward(ad.tsum(out * probe), params)
            return {n: params[n].grad.copy() for n in params.names()}

        reused = grads(f)
        assert not any(kernel_memos(f.mesh).values())
        fresh = grads(GridFunction(mesh_copy(f.mesh), f.values, names=f.names))
        for name in params.names():
            assert reused[name].tobytes() == fresh[name].tobytes(), name

    def test_two_stores_alternate_on_one_mesh(self):
        cfg, params, f = self.setup_cloud()
        other = init_params(cfg)
        other["gno_dec.k.w1"].data[1, 0] += 0.5
        expect = {id(p): self.fresh_predict(p, cfg, f) for p in (params, other)}
        assert expect[id(params)].tobytes() != expect[id(other)].tobytes()
        for p in (params, other, params, other, other, params):
            assert predict(p, cfg, f).values.tobytes() == expect[id(p)].tobytes()


class TestExtendVariables:
    def test_param_diff_is_exactly_new_vspe_plus_predictor(self):
        cfg = tiny_config()
        params = init_params(cfg)
        assert not has_predictor(params, cfg)
        params2, cfg2 = extend_variables(params, cfg, ["T"])
        assert cfg2.variables == ("u", "v", "T")
        diff = set(params2.names()) - set(params.names())
        vspe_new = {n for n in diff if n.startswith("vspe.T.")}
        pred_new = {n for n in diff if n.startswith("predictor.")}
        assert diff == vspe_new | pred_new and vspe_new and pred_new
        for name in params.names():
            assert np.array_equal(params[name].data, params2[name].data)
        assert has_predictor(params2, cfg2)

    def test_empty_extension_resets_predictor_only(self):
        cfg = tiny_config()
        params, cfg1 = extend_variables(init_params(cfg), cfg, ["T"])
        params2, cfg2 = extend_variables(params, cfg1, [], seed=99)
        assert cfg2 == cfg1
        assert set(params2.names()) == set(params.names())
        changed = [n for n in params.names()
                   if not np.array_equal(params[n].data, params2[n].data)]
        assert changed and all(n.startswith("predictor.") for n in changed)

    def test_name_collision_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        with pytest.raises(VariableExistsError, match="already registered"):
            extend_variables(params, cfg, ["u"])
        with pytest.raises(VariableExistsError, match="duplicate"):
            extend_variables(params, cfg, ["T", "T"])

    def test_predictor_head_needs_extension(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        with pytest.raises(TrainingStateError, match="extend_variables"):
            model_forward(params, cfg, f, head="predictor")

    def test_forward_after_extension_old_and_new(self):
        cfg = tiny_config()
        params, cfg2 = extend_variables(init_params(cfg), cfg, ["T"])
        full = band_limited_input(cfg2, names=("u", "v", "T"))
        out3 = model_forward(params, cfg2, full, head="predictor")
        assert out3.shape == (256, 3)
        old = band_limited_input(cfg2, names=("u", "v"))
        out2 = model_forward(params, cfg2, old, head="reconstructor")
        assert out2.shape == (256, 2)


class TestGradients:
    def test_grad_check_representative_groups(self):
        cfg = tiny_config(modes=1, vspe_modes=1)
        params = init_params(cfg)
        f = band_limited_input(cfg, resolution=(8, 8))
        probe = np.random.default_rng(0).standard_normal((64, 2))

        def loss_fn():
            out = model_forward(params, cfg, f)
            return ad.tsum(out * probe)

        include = ["vspe.u.coef", "lift.w0", "gno_enc.bias",
                   "encoder.layer0.kqv.spec",
                   "encoder.layer0.norm.gain", "encoder.layer0.iper.byp_w",
                   "reconstructor.layer0.merge.bias", "gno_dec.k.b1", "proj.w1"]
        assert set(include) <= set(params.names())
        report = ad.grad_check(loss_fn, params, tol=1e-5, include=include)
        assert report.passed, "\n".join(report.summary_lines())


def cloud_inputs(names, count, seed=0):
    """count functions on one irregular cloud over the default domain box."""
    rng = np.random.default_rng(seed)
    box = (2 * np.pi, 2 * np.pi)
    mesh = Mesh.irregular(rng.random((90, 2)) * box, box)
    return [GridFunction(mesh, rng.standard_normal((90, len(names))),
                         names=names) for _ in range(count)]


class TestBatchedForward:
    """A list of functions on one mesh is one forward with a leading sample
    axis; each sample equals its own single-function forward bitwise."""

    NAMES = ("a", "b", "c")

    def model(self, use_gno, head, **kw):
        cfg = tiny_config(variables=self.NAMES, use_gno=use_gno, **kw)
        params = init_params(cfg)
        if head == "predictor":
            params, cfg = extend_variables(params, cfg, ("d",))
        return params, cfg

    @pytest.mark.parametrize("head", ["reconstructor", "predictor"])
    @pytest.mark.parametrize("use_gno", [False, True], ids=["grid", "gno"])
    def test_batch_equals_single_forwards(self, use_gno, head):
        params, cfg = self.model(use_gno, head)
        batch = [band_limited_input(cfg, seed=s, names=self.NAMES)
                 for s in range(3)]
        out = model_forward(params, cfg, batch, head=head).data
        assert out.shape == (3, 256, 3)
        outs = predict(params, cfg, batch, head=head)
        for k, f in enumerate(batch):
            single = model_forward(params, cfg, f, head=head).data
            assert np.array_equal(out[k], single)
            assert np.array_equal(outs[k].values, single)
            assert outs[k].names == self.NAMES and outs[k].mesh is f.mesh

    def test_gno_cloud_and_coord_encoder(self):
        params, cfg = self.model(True, "reconstructor",
                                 vspe_variant="coord-mlp")
        batch = cloud_inputs(self.NAMES, 4)
        out = model_forward(params, cfg, batch).data
        for k, f in enumerate(batch):
            assert np.array_equal(out[k], model_forward(params, cfg, f).data)

    def test_super_resolution(self):
        params, cfg = self.model(False, "reconstructor")
        batch = [band_limited_input(cfg, seed=s, names=self.NAMES)
                 for s in range(2)]
        query = Mesh.uniform((32, 32))
        outs = predict(params, cfg, batch, query_mesh=query)
        for f, got in zip(batch, outs):
            single = predict(params, cfg, f, query_mesh=query)
            assert got.mesh is query
            assert np.array_equal(got.values, single.values)

    def test_one_item_list_keeps_the_sample_axis(self):
        params, cfg = self.model(True, "reconstructor")
        f = band_limited_input(cfg, names=self.NAMES)
        out = model_forward(params, cfg, [f]).data
        assert out.shape == (1, 256, 3)
        assert np.array_equal(out[0], model_forward(params, cfg, f).data)
        assert isinstance(predict(params, cfg, [f]), list)

    @pytest.mark.parametrize("use_gno", [False, True], ids=["grid", "gno"])
    def test_permuting_variables_permutes_each_sample_bitwise(self, use_gno):
        params, cfg = self.model(use_gno, "reconstructor")
        batch = [band_limited_input(cfg, seed=s, names=self.NAMES)
                 for s in range(3)]
        perm = [2, 0, 1]
        permuted = [GridFunction(f.mesh, np.ascontiguousarray(f.values[:, perm]),
                                 names=tuple(self.NAMES[i] for i in perm))
                    for f in batch]
        out = model_forward(params, cfg, batch).data
        outp = model_forward(params, cfg, permuted).data
        for k in range(len(batch)):
            assert np.array_equal(outp[k], out[k][:, perm])

    def test_batch_gradient_matches_sum_of_single_gradients(self):
        params, cfg = self.model(True, "reconstructor")
        batch = [band_limited_input(cfg, resolution=(8, 8), seed=s,
                                    names=self.NAMES) for s in range(3)]

        def grads(loss):
            params.zero_grads()
            ad.backward(loss, params)
            return {n: params[n].grad.copy() for n in params.names()}

        together = grads(ad.tsum(model_forward(params, cfg, batch)))
        apart = [grads(ad.tsum(model_forward(params, cfg, f))) for f in batch]
        for name, g in together.items():
            np.testing.assert_allclose(g, sum(a[name] for a in apart),
                                       rtol=1e-10, atol=1e-12)

    def test_mixed_meshes_rejected(self):
        params, cfg = self.model(True, "reconstructor")
        f = band_limited_input(cfg, names=self.NAMES)
        g = band_limited_input(cfg, resolution=(8, 8), names=self.NAMES)
        with pytest.raises(MeshError, match="one mesh"):
            model_forward(params, cfg, [f, g])
        with pytest.raises(MeshError, match="one mesh"):
            predict(params, cfg, [f] + cloud_inputs(self.NAMES, 1))

    def test_mixed_name_orders_rejected(self):
        params, cfg = self.model(False, "reconstructor")
        f = band_limited_input(cfg, names=self.NAMES)
        g = band_limited_input(cfg, names=("b", "a", "c"))
        with pytest.raises(ShapeError, match="name order"):
            model_forward(params, cfg, [f, g])
        with pytest.raises(ShapeError, match="name order"):
            predict(params, cfg, [f, band_limited_input(cfg, names=("a", "b"))])

    def test_empty_batch_rejected(self):
        params, cfg = self.model(False, "reconstructor")
        with pytest.raises(ShapeError, match="at least one"):
            model_forward(params, cfg, [])
