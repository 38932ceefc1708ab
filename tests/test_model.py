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
from codano.model import (CodanoLayer, ModelConfig, Vspe, extend_variables,
                          has_predictor, init_params, model_forward, normalize,
                          param_names, predict)
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
        assert cfg.tokens_per_variable == 1

    def test_rejects_nondividing_token_width(self):
        with pytest.raises(ShapeError, match="divide"):
            tiny_config(token_width=3)

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ShapeError, match="unique"):
            tiny_config(variables=("u", "u"))

    def test_rejects_unknown_kind_and_variant(self):
        with pytest.raises(ShapeError, match="kind"):
            tiny_config(kind="mlp")
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
        store["vspe.u.re"].data[...] = 0.0
        store["vspe.u.im"].data[...] = 0.0
        store["vspe.u.re"].data[0, 0, :] = [1.5, -2.0, 0.25]
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


def per_head_reference(layer, store, tokens, mesh):
    """A layer's attention output (S, T, n, d) and rows (S, h, T, T),
    computed head by head in NumPy with one FnoBlock per head whose weights
    are column slices of the layer's key, query and value blocks."""
    cfg, res = layer.config, mesh.resolution
    sliced = ad.ParamStore()
    x = ad.Tensor(tokens)

    def head_out(block, h, width):
        name = f"{block.name}.head{h}"
        for k in ("spec_re", "spec_im", "byp_w", "bias"):
            sliced.add(f"{name}.{k}",
                       store[f"{block.name}.{k}"].data[..., h * width:(h + 1) * width])
        return FnoBlock(name, block.d_in, width, cfg.modes,
                        activation=False)(sliced, x, res).data

    mixed, rows = [], []
    for h in range(cfg.n_heads):
        k = head_out(layer.key, h, cfg.key_width)
        q = head_out(layer.query, h, cfg.key_width) * mesh.quad_weights[:, None]
        logits = np.einsum("sjnc,smnc->sjm", q, k) / layer.temperature(mesh)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        mixed.append(np.einsum("sjm,smnc->sjnc", att, head_out(layer.value, h,
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
    def test_five_blocks_per_layer(self, n_heads, monkeypatch):
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
        assert calls == Counter(block=5, fftn=5)

    def test_zeroed_value_and_merge_reduce_to_integral_block(self):
        layer, store, cfg = make_layer()
        for name in store.names():
            if ".value." in name or ".merge." in name:
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

    @pytest.mark.parametrize("kind", ["codano", "fno"])
    def test_spectral_path_refuses_another_box(self, kind):
        """A query grid over a sub-box is not resampled onto as if it spanned
        the input's box; the GNO path, which works on coordinates, answers."""
        cfg = tiny_config(kind=kind, use_gno=False)
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
                                    {"kind": "fno", "latent_width": 6}])
    def test_param_names_follow_init_params(self, kw):
        cfg = tiny_config(**kw)
        params = init_params(cfg)
        assert param_names(cfg) == params.names()
        if cfg.kind == "codano":
            extended, cfg2 = extend_variables(params, cfg, ["w"])
            assert set(param_names(cfg2, predictor=True)) == set(extended.names())

    def test_init_is_deterministic(self):
        cfg = tiny_config()
        s1, s2 = init_params(cfg), init_params(cfg)
        assert s1.names() == s2.names()
        for name in s1.names():
            assert np.array_equal(s1[name].data, s2[name].data)

    def test_neighbor_cache_reused(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        cache = {}
        out1 = model_forward(params, cfg, f, cache=cache)
        assert len(cache) == 2
        out2 = model_forward(params, cfg, f, cache=cache)
        assert len(cache) == 2
        assert np.array_equal(out1.data, out2.data)

    def test_neighbor_cache_never_hits_a_dropped_mesh(self):
        # each cached index holds its meshes, so a dropped mesh's id cannot be
        # reused by a later mesh while the entry is in the cache
        cfg = tiny_config(vspe_variant="coord-mlp")
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        cache = {}

        def cloud():
            pts = rng.uniform(0.0, 2 * np.pi, size=(60, 2))
            return GridFunction(Mesh.irregular(pts, (2 * np.pi, 2 * np.pi)),
                                rng.standard_normal((60, 2)), names=cfg.variables)

        f = cloud()
        model_forward(params, cfg, f, cache=cache)
        old = dict(cache)
        old_mesh = weakref.ref(f.mesh)
        del f
        gc.collect()
        assert old_mesh() is not None
        for _ in range(20):
            g = cloud()
            out = model_forward(params, cfg, g, cache=cache)
            enc = [k for k in cache if k[0] == "enc" and k[1] == id(g.mesh)]
            assert len(enc) == 1 and enc[0] not in old
            assert cache[enc[0]].source_mesh is g.mesh
            fresh = model_forward(params, cfg, g)
            assert np.array_equal(out.data, fresh.data)
        assert all(cache[k] is v for k, v in old.items())

    def test_predict_wraps_grid_function(self):
        cfg = tiny_config()
        params = init_params(cfg)
        f = band_limited_input(cfg)
        g = predict(params, cfg, f)
        assert isinstance(g, GridFunction)
        assert g.names == f.names and g.mesh.same(f.mesh)


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
        cache = {}

        def loss_fn():
            out = model_forward(params, cfg, f, cache=cache)
            return ad.tsum(out * probe)

        include = ["vspe.u.re", "lift.w0", "gno_enc.bias",
                   "encoder.layer0.key.spec_re",
                   "encoder.layer0.norm.gain", "encoder.layer0.iper.byp_w",
                   "reconstructor.layer0.merge.bias", "gno_dec.k.b1", "proj.w1"]
        report = ad.grad_check(loss_fn, params, tol=1e-5, include=include)
        assert report.passed, "\n".join(report.summary_lines())


class TestFnoBaseline:
    def test_forward_and_resolution_change(self):
        cfg = tiny_config(kind="fno", latent_width=6, modes=3)
        params = init_params(cfg)
        f = band_limited_input(cfg)
        out = model_forward(params, cfg, f)
        assert out.shape == (256, 2)
        up = model_forward(params, cfg, f, query_mesh=Mesh.uniform((32, 32)))
        assert up.shape == (1024, 2)

    def test_binds_variables_by_name(self):
        cfg = tiny_config(kind="fno", latent_width=6, modes=3)
        params = init_params(cfg)
        f = band_limited_input(cfg)
        swapped = GridFunction(f.mesh, np.ascontiguousarray(f.values[:, ::-1]),
                               names=("v", "u"))
        out = model_forward(params, cfg, f).data
        out2 = model_forward(params, cfg, swapped).data
        np.testing.assert_array_equal(out, out2)

    def test_gradients_flow(self):
        cfg = tiny_config(kind="fno", latent_width=4, modes=2)
        params = init_params(cfg)
        f = band_limited_input(cfg, resolution=(8, 8))
        out = model_forward(params, cfg, f)
        loss = ad.tsum(out * out)
        ad.backward(loss, params)
        assert all(params[n].grad is not None for n in params.names())
        assert any(np.abs(params[n].grad).max() > 0 for n in params.names())


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
        cache = {}
        out = model_forward(params, cfg, batch, head=head, cache=cache).data
        assert out.shape == (3, 256, 3)
        outs = predict(params, cfg, batch, head=head, cache=cache)
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

    def test_super_resolution_and_token_split(self):
        params, cfg = self.model(False, "reconstructor", token_width=2)
        batch = [band_limited_input(cfg, seed=s, names=self.NAMES)
                 for s in range(2)]
        query = Mesh.uniform((32, 32))
        outs = predict(params, cfg, batch, query_mesh=query)
        for f, got in zip(batch, outs):
            single = predict(params, cfg, f, query_mesh=query)
            assert got.mesh is query
            assert np.array_equal(got.values, single.values)

    def test_fno_baseline_batch(self):
        cfg = tiny_config(kind="fno", latent_width=6, modes=3)
        params = init_params(cfg)
        batch = [band_limited_input(cfg, seed=s) for s in range(3)]
        out = model_forward(params, cfg, batch).data
        for k, f in enumerate(batch):
            assert np.array_equal(out[k], model_forward(params, cfg, f).data)

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
