"""Acceptance checks: one test per advertised guarantee.

Each test prints a single "criterion NN PASS/FAIL" line (visible with
pytest -s) and enforces the stated tolerance.  The training criteria
share a module-scoped Kolmogorov corpus and one pretrained model so the
whole file stays within a few minutes on a desktop CPU.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from codano import autodiff as ad
from codano.errors import ChecksumError, FormatVersionError, TruncatedFileError
from codano.field import (DEFAULT_EXTENT, GridFunction, Mesh,
                          radial_energy_spectrum, random_band_limited,
                          resample)
from codano.gno import KernelNet, build_neighbors, gno_set_apply
from codano.model import (CodanoLayer, ModelConfig, extend_variables,
                          has_predictor, init_params, model_forward,
                          normalize, predict)
from codano.simdata import (DatasetContainer, SimConfig, dataset_read,
                            dataset_write, simulate_kolmogorov,
                            simulate_rayleigh_benard)
from codano.training import (MaskSpec, TrainPlan, apply_mask, ceil_count,
                             finetune, pretrain, save_checkpoint)


@contextmanager
def criterion(num, text):
    """Print one pass/fail line per criterion, whatever happens inside."""
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {num:02d} FAIL  {text}", flush=True)
        raise
    detail = info.get("detail", "")
    print(f"criterion {num:02d} PASS  {text}{detail}", flush=True)


def small_model(variables, seed, **overrides):
    base = dict(variables=variables, embed_dim=2, latent_width=4, n_heads=2,
                key_width=3, value_width=3, modes=2, encoder_layers=1,
                reconstructor_layers=1, predictor_layers=1,
                latent_resolution=(8, 8), use_gno=True, vspe_modes=2,
                gno_hidden=(4,), seed=seed)
    base.update(overrides)
    return ModelConfig(**base)


# ------------------------------------------------------------------ shared
# corpus and pretrained model for the end-to-end criteria (9, 10, 11)

@pytest.fixture(scope="module")
def kolmo_ds():
    cfg = SimConfig(system="kolmogorov", resolution=64, dt=0.2, snapshots=200,
                    re=500.0, forcing_n=4, warmup=3.0, seed=101)
    return simulate_kolmogorov(cfg)


@pytest.fixture(scope="module")
def rb_ds():
    cfg = SimConfig(system="rayleigh-benard", resolution=(64, 32), dt=0.5,
                    snapshots=40, nu=0.01, kappa=0.01, alpha_g=2.0,
                    warmup=4.0, seed=7)
    return simulate_rayleigh_benard(cfg)


@pytest.fixture(scope="module")
def pretrained(kolmo_ds):
    """Masked-reconstruction run: eval the untrained model once, then train
    until the held-out loss halves (or 50 epochs, whichever comes first)."""
    cfg = ModelConfig(variables=("u_x", "u_y"), embed_dim=4, latent_width=16,
                      n_heads=2, key_width=8, value_width=8, modes=8,
                      encoder_layers=2, reconstructor_layers=1,
                      predictor_layers=1, latent_resolution=(16, 16),
                      use_gno=False, vspe_modes=4, seed=9)
    plan = TrainPlan(epochs=0, batch_size=4, learning_rate=2e-3,
                     holdout_fraction=0.2, seed=17, eval_max_samples=8,
                     mask=MaskSpec())
    t0 = time.time()
    state = pretrain(init_params(cfg), cfg, kolmo_ds, plan)
    baseline = state.history[0]["eval_loss"]
    run = replace(plan, epochs=50, target_eval_loss=0.5 * baseline)
    state = pretrain(None, None, kolmo_ds, run, state=state)
    return {"state": state, "baseline": baseline,
            "elapsed": time.time() - t0, "plan": run}


# ---------------------------------------------------------------- criteria

def test_c01_permutation_equivariance():
    with criterion(1, "variable permutation commutes with the model bitwise") as info:
        t0 = time.time()
        cfg = small_model(("a", "b", "c"), seed=5, latent_width=6,
                          key_width=4, value_width=4, modes=3, gno_hidden=(8,))
        params = init_params(cfg)
        mesh = Mesh.uniform((16, 16))
        f = random_band_limited(mesh, modes=3, channels=3,
                                rng=np.random.default_rng(0),
                                names=("a", "b", "c"))
        out = predict(params, cfg, f)
        perm = [2, 0, 1]
        fp = GridFunction(mesh, f.values[:, perm],
                          tuple(f.names[i] for i in perm))
        outp = predict(params, cfg, fp)
        idx = [outp.names.index(n) for n in out.names]
        assert np.array_equal(outp.values[:, idx], out.values)
        elapsed = time.time() - t0
        assert elapsed < 10.0
        info["detail"] = f" ({elapsed:.1f}s)"


def test_c02_gradients_whole_model():
    with criterion(2, "analytic gradients match finite differences for every "
                      "parameter (rel err <= 1e-5)") as info:
        cfg = small_model(("u", "v"), seed=21)
        params = init_params(cfg)
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(4)
        f = random_band_limited(mesh, modes=2, channels=2, rng=rng,
                                scale=0.5, names=("u", "v"))
        probe = rng.standard_normal((64, 2))

        def loss_fn():
            out = model_forward(params, cfg, f)
            return ad.tsum(out * probe)

        t0 = time.time()
        report = ad.grad_check(loss_fn, params, tol=1e-5)
        elapsed = time.time() - t0
        assert report.passed, "\n".join(report.summary_lines())
        assert elapsed < 300.0
        n_el = sum(int(np.prod(t.data.shape)) for _, t in params.items())
        info["detail"] = (f" ({n_el} elements, max rel err "
                          f"{report.max_rel_err:.2e}, {elapsed:.0f}s)")


def test_c03_attention_row_invariants():
    with criterion(3, "attention rows are probabilities; degenerate cases "
                      "are uniform"):
        cfg = small_model(("u", "v"), seed=0, use_gno=False)
        mesh = cfg.latent_mesh((DEFAULT_EXTENT, DEFAULT_EXTENT))
        layer = CodanoLayer("encoder.layer0", cfg)
        store = ad.ParamStore()
        layer.init_params(store, np.random.default_rng(0))

        tokens = np.random.default_rng(1).standard_normal((3, 64, 4))
        rows = layer.attention_rows(store, tokens, mesh)
        assert np.abs(rows.sum(axis=2) - 1.0).max() <= 1e-12
        assert rows.min() >= 0.0 and rows.max() <= 1.0

        one = np.random.default_rng(2).standard_normal((1, 64, 4))
        same = layer.attention_rows(store, np.repeat(one, 3, axis=0), mesh)
        assert np.abs(same - 1.0 / 3.0).max() <= 1e-12

        hot = CodanoLayer("encoder.layer0", replace(cfg, temperature=1e9))
        hot_store = ad.ParamStore()
        hot.init_params(hot_store, np.random.default_rng(0))
        tokens4 = np.random.default_rng(3).standard_normal((4, 64, 4))
        flat = hot.attention_rows(hot_store, tokens4, mesh)
        assert np.abs(flat - 0.25).max() <= 1e-6


def test_c04_function_space_normalization():
    with criterion(4, "normalization whitens tokens under the quadrature "
                      "measure; constant tokens map to the bias"):
        mesh = Mesh.uniform((16, 16))
        x = np.random.default_rng(1).standard_normal((3, 256, 2)) * 50 + 9.0
        out = normalize(ad.Tensor(x), np.ones(2), np.zeros(2), mesh).data
        w = mesh.quad_weights / mesh.measure
        mean = np.einsum("tnc,n->tc", out, w)
        var = np.einsum("tnc,n->tc", out ** 2, w) - mean ** 2
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-6

        const = ad.Tensor(np.full((1, 256, 2), 5.0))
        got = normalize(const, np.ones(2), np.array([3.0, -1.0]), mesh).data
        assert np.abs(got - np.tile([3.0, -1.0], (1, 256, 1))).max() <= 1e-9


def test_c05_discretization_consistency():
    with criterion(5, "the same input function sampled at 32^2 and 64^2 "
                      "gives outputs within 1e-6 at shared points") as info:
        cfg = ModelConfig(variables=("u", "v"), embed_dim=2, latent_width=8,
                          n_heads=2, key_width=4, value_width=4, modes=4,
                          encoder_layers=1, reconstructor_layers=1,
                          predictor_layers=1, latent_resolution=(16, 16),
                          use_gno=False, vspe_modes=2, seed=3)
        params = init_params(cfg)
        m64 = Mesh.uniform((64, 64))
        f64 = random_band_limited(m64, modes=4, channels=2,
                                  rng=np.random.default_rng(5), scale=0.25,
                                  names=("u", "v"))
        f32 = resample(f64, (32, 32))
        o32 = predict(params, cfg, f32).values
        o64 = predict(params, cfg, f64).values.reshape(64, 64, 2)
        shared = o64[::2, ::2].reshape(1024, 2)
        rel = np.linalg.norm(o32 - shared) / np.linalg.norm(shared)
        assert rel <= 1e-6
        info["detail"] = f" (rel diff {rel:.2e})"


def test_c06_gno_refinement_convergence():
    with criterion(6, "kernel integral output moves < 2% when the source "
                      "cloud density doubles") as info:
        rng = np.random.default_rng(3)
        ext = (DEFAULT_EXTENT, DEFAULT_EXTENT)
        base = rng.uniform(0, DEFAULT_EXTENT, (16384, 2))
        extra = rng.uniform(0, DEFAULT_EXTENT, (16384, 2))
        coarse = Mesh.irregular(base, extents=ext)
        fine = Mesh.irregular(np.concatenate([base, extra]), extents=ext)
        query = Mesh.uniform((16, 16))

        kernel = KernelNet("ker", dim=2, d_in=1, d_out=1, hidden=(8,))
        store = ad.ParamStore()
        kernel.init_params(store, np.random.default_rng(5))
        # gentle kernel: order-one mean, small spatial variation
        last = len(kernel.mlp.widths) - 2
        store[f"ker.k.w{last}"].data[...] *= 0.1
        store[f"ker.k.b{last}"].data[...] = 1.0

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
        info["detail"] = f" (rel diff {rel:.3f})"


def test_c07_variable_extension_bookkeeping():
    with criterion(7, "extending the variable set adds exactly the new "
                      "encoders plus a predictor head, copying the rest "
                      "bit for bit"):
        cfg = small_model(("u_x", "u_y"), seed=13)
        params = init_params(cfg)
        ext, cfg3 = extend_variables(params, cfg, ("T",))

        old = set(params.names())
        new = set(ext.names())
        assert old <= new
        added = new - old
        fresh_vspe = {n for n in added if n.startswith("vspe.T.")}
        predictor = {n for n in added if n.split(".")[0] == "predictor"}
        assert fresh_vspe and predictor
        assert added == fresh_vspe | predictor
        for name in old:
            assert params[name].data.tobytes() == ext[name].data.tobytes()

        assert has_predictor(ext, cfg3)
        mesh = Mesh.uniform((16, 16))
        f = random_band_limited(mesh, modes=2, channels=3,
                                rng=np.random.default_rng(2),
                                names=cfg3.variables)
        for head in ("reconstructor", "predictor"):
            out = predict(ext, cfg3, f, head=head)
            assert out.values.shape == (256, 3)
            assert np.all(np.isfinite(out.values))


def test_c08_masking_ratios_exact():
    with criterion(8, "mask modes hit their advertised counts exactly on "
                      "grids and within patch granularity on clouds"):
        mesh = Mesh.uniform((32, 32))
        rng = np.random.default_rng(0)
        names = tuple(f"v{i}" for i in range(5))
        f = GridFunction(mesh, rng.standard_normal((1024, 5)), names=names)

        spec = MaskSpec(point_probability=1.0, point_fraction=0.5,
                        variable_fraction=0.6)
        masked, mask = apply_mask(f, spec, np.random.default_rng(1))
        per_var = mask.sum(axis=0)
        assert (per_var > 0).sum() == ceil_count(0.6, 5)  # 3 of 5 variables
        assert all(c == ceil_count(0.5, 1024) for c in per_var if c > 0)
        untouched = per_var == 0
        assert np.array_equal(masked.values[:, untouched],
                              f.values[:, untouched])
        assert np.all(masked.values[mask] == 0.0)

        names10 = tuple(f"v{i}" for i in range(10))
        g = GridFunction(mesh, rng.standard_normal((1024, 10)), names=names10)
        vspec = MaskSpec(point_probability=0.0, full_variable_fraction=0.3)
        _, vmask = apply_mask(g, vspec, np.random.default_rng(2))
        whole = vmask.all(axis=0)
        assert whole.sum() == ceil_count(0.3, 10)         # 3 of 10 channels
        assert ((vmask.sum(axis=0) == 0) | whole).all()

        pts = np.random.default_rng(3).uniform(0, DEFAULT_EXTENT, (400, 2))
        cloud = Mesh.irregular(pts, extents=(DEFAULT_EXTENT, DEFAULT_EXTENT))
        h = GridFunction(cloud, rng.standard_normal((400, 5)), names=names)
        _, cmask = apply_mask(h, spec, np.random.default_rng(4))
        target = ceil_count(0.5, 400)
        counts = cmask.sum(axis=0)
        for c in counts[counts > 0]:
            assert target <= c <= target + 40             # ball granularity


def test_c09_pretraining_halves_heldout_loss(pretrained):
    with criterion(9, "masked-reconstruction pretraining halves the "
                      "held-out loss within 50 epochs") as info:
        state = pretrained["state"]
        baseline = pretrained["baseline"]
        last = state.history[-1]
        assert last["epoch"] <= 50
        assert last["eval_loss"] < 0.5 * baseline
        assert pretrained["elapsed"] < 1800.0
        info["detail"] = (f" (eval {baseline:.3f} -> {last['eval_loss']:.3f} "
                          f"at epoch {last['epoch']}, "
                          f"{pretrained['elapsed']:.0f}s)")


def test_c10_few_shot_transfer(pretrained, rb_ds):
    with criterion(10, "5-shot fine-tuning on a new physics with a new "
                       "variable at least halves the untrained-predictor "
                       "error") as info:
        state = pretrained["state"]
        ext, cfg3 = extend_variables(state.params, state.config, ("T",))
        ds = rb_ds.select_variables(cfg3.variables)
        plan = TrainPlan(epochs=0, batch_size=4, learning_rate=2e-3,
                         holdout_fraction=0.2, seed=23, few_shot=5, delta=1,
                         eval_max_samples=8, mask=MaskSpec())
        st = finetune(ext, cfg3, ds, plan)
        baseline = st.history[-1]["eval_loss"]
        run = replace(plan, epochs=60, target_eval_loss=0.5 * baseline)
        st = finetune(None, None, ds, run, state=st)
        final = st.history[-1]["eval_loss"]
        epochs_used = st.history[-1]["epoch"]
        assert epochs_used <= 60
        assert final <= 0.5 * baseline

        # informational only: same budget from random initialization
        base_cfg = replace(state.config, seed=31)
        scratch, scfg = extend_variables(init_params(base_cfg), base_cfg,
                                         ("T",))
        st0 = finetune(scratch, scfg, ds, plan)
        st0 = finetune(None, None, ds,
                       replace(plan, epochs=max(epochs_used, 1)), state=st0)
        info["detail"] = (f" (eval {baseline:.3f} -> {final:.3f} at epoch "
                          f"{epochs_used}; from scratch "
                          f"{st0.history[-1]['eval_loss']:.3f})")


def test_c11_simulator_oracles(kolmo_ds, rb_ds):
    with criterion(11, "velocity fields are divergence free, wall "
                       "temperatures are pinned, and a single-mode field "
                       "concentrates its spectrum") as info:
        nx, ny = kolmo_ds.mesh.resolution
        u = kolmo_ds.snapshots[:, :, 0].reshape(-1, nx, ny)
        v = kolmo_ds.snapshots[:, :, 1].reshape(-1, nx, ny)
        kx = np.fft.fftfreq(nx, d=1.0 / nx)[:, None]
        ky = np.fft.fftfreq(ny, d=1.0 / ny)[None, :]
        div = np.fft.ifft2(1j * kx * np.fft.fft2(u, axes=(1, 2))
                           + 1j * ky * np.fft.fft2(v, axes=(1, 2)),
                           axes=(1, 2))
        max_div = np.abs(div).max()
        assert max_div < 1e-8

        t_col = rb_ds.variables.index("T")
        rnx, rny = rb_ds.mesh.resolution
        temp = rb_ds.snapshots[:, :, t_col].reshape(-1, rnx, rny)
        assert np.abs(temp[:, :, 0] - 1.0).max() <= 1e-6   # hot floor
        assert np.abs(temp[:, :, -1]).max() <= 1e-6        # cold lid

        mesh = Mesh.uniform((64, 64))
        x, y = mesh.points[:, 0], mesh.points[:, 1]
        single = GridFunction(mesh, np.stack([np.cos(3 * y),
                                              np.sin(3 * x)], axis=1),
                              ("u_x", "u_y"))
        spec = radial_energy_spectrum(single)
        frac = spec.energy[3] / spec.total_energy
        assert frac >= 0.999
        info["detail"] = (f" (max div {max_div:.1e}, "
                          f"mode fraction {frac:.5f})")


def test_c12_zero_shot_super_resolution():
    with criterion(12, "a model trained at 32^2 evaluates at 64^2 with "
                       "error within 2x of its native error") as info:
        rng = np.random.default_rng(11)
        m32 = Mesh.uniform((32, 32))
        snaps = [random_band_limited(m32, modes=4, channels=2, rng=rng,
                                     names=("u", "v")).values
                 for _ in range(16)]
        ds32 = DatasetContainer(variables=("u", "v"), mesh=m32,
                                snapshots=np.array(snaps), dt=1.0,
                                provenance={"system": "synthetic"})
        cfg = ModelConfig(variables=("u", "v"), embed_dim=4, latent_width=16,
                          n_heads=2, key_width=8, value_width=8, modes=6,
                          encoder_layers=1, reconstructor_layers=1,
                          predictor_layers=1, latent_resolution=(16, 16),
                          use_gno=True, vspe_modes=4, seed=7)
        plan = TrainPlan(epochs=8, batch_size=4, learning_rate=2e-3,
                         holdout_fraction=0.2, seed=3, eval_max_samples=4,
                         mask=MaskSpec(point_probability=0.5,
                                       point_fraction=0.3,
                                       variable_fraction=0.5,
                                       full_variable_fraction=0.0))
        state = pretrain(init_params(cfg), cfg, ds32, plan)

        from codano.training import evaluate_reconstruction, reconstruction_splits
        _, hold = reconstruction_splits(len(snaps), plan)
        e32 = evaluate_reconstruction(state.params, state.config, ds32,
                                      plan, hold).overall
        up = [resample(GridFunction(m32, s, ("u", "v")), (64, 64)).values
              for s in snaps]
        ds64 = DatasetContainer(variables=("u", "v"),
                                mesh=Mesh.uniform((64, 64)),
                                snapshots=np.array(up), dt=1.0,
                                provenance={"system": "synthetic"})
        e64 = evaluate_reconstruction(state.params, state.config, ds64,
                                      plan, hold).overall
        assert np.isfinite(e64)
        assert e64 <= 2.0 * e32
        info["detail"] = f" (native {e32:.3f}, upsampled {e64:.3f})"


def test_c13_determinism_and_persistence(tmp_path):
    with criterion(13, "training is bit-reproducible and the container "
                       "format detects corruption"):
        sim = SimConfig(resolution=16, dt=0.2, snapshots=10, warmup=0.3,
                        seed=2)
        ds = simulate_kolmogorov(sim)
        cfg = small_model(ds.variables, seed=6, use_gno=False)
        plan = TrainPlan(epochs=2, batch_size=4, learning_rate=1e-3,
                         holdout_fraction=0.2, seed=5, eval_max_samples=4,
                         mask=MaskSpec())

        paths = []
        for run in ("a", "b"):
            state = pretrain(init_params(cfg), cfg, ds, plan)
            path = tmp_path / f"run_{run}.cdno"
            save_checkpoint(path, state, plan=plan)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        data_path = tmp_path / "data.cdno"
        dataset_write(ds, data_path)
        back = dataset_read(data_path)
        assert np.array_equal(back.snapshots, ds.snapshots)
        assert back.variables == ds.variables

        raw = bytearray(data_path.read_bytes())
        flipped = tmp_path / "flipped.cdno"
        raw[len(raw) // 2] ^= 0xFF
        flipped.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            dataset_read(flipped)

        short = tmp_path / "short.cdno"
        short.write_bytes(data_path.read_bytes()[:-25])
        with pytest.raises(TruncatedFileError):
            dataset_read(short)

        vbad = bytearray(data_path.read_bytes())
        vbad[4] = 99
        vpath = tmp_path / "vbad.cdno"
        vpath.write_bytes(bytes(vbad))
        with pytest.raises(FormatVersionError):
            dataset_read(vpath)
