"""Masking, loss reports, training loops, and checkpoint round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from codano import autodiff as ad
from codano.errors import (FractionError, MeshError, NumericError,
                           PairingError, ShapeError, TrainingStateError,
                           UnknownVariableError)
from codano.field import GridFunction, Mesh
from codano.model import ModelConfig, extend_variables, init_params
from codano.simdata import SimConfig, irregularize, simulate_kolmogorov
from codano.gno import KernelNet
from codano.training import (LossReport, MaskSpec, TrainPlan, apply_mask,
                             ceil_count, evaluate_prediction,
                             evaluate_reconstruction, finetune, fresh_state,
                             load_checkpoint,
                             loss_relative_l2, pretrain, relative_l2,
                             save_checkpoint, snapshot_pairs)


def small_dataset(snapshots=6, resolution=16, seed=2):
    cfg = SimConfig(resolution=resolution, dt=0.2, snapshots=snapshots,
                    warmup=0.3, seed=seed)
    return simulate_kolmogorov(cfg)


def param_arrays(params):
    """Copies of every parameter array, keyed by name."""
    return {n: t.data.copy() for n, t in params.items()}


def tiny_config(**kw):
    base = dict(variables=("u_x", "u_y"), embed_dim=2, latent_width=4,
                n_heads=2, key_width=3, value_width=3, modes=2,
                encoder_layers=1, reconstructor_layers=1, predictor_layers=1,
                latent_resolution=(8, 8), vspe_modes=2, gno_hidden=(4,),
                seed=0)
    base.update(kw)
    return ModelConfig(**base)


def five_channels(mesh, rng, names=("a", "b", "c", "d", "e")):
    vals = rng.standard_normal((mesh.n_points, len(names)))
    return GridFunction(mesh, vals, names=names)


class TestCeilCount:

    def test_float_drift_guard(self):
        assert ceil_count(0.6, 5) == 3
        assert ceil_count(0.3, 10) == 3
        assert ceil_count(0.2, 10) == 2
        assert ceil_count(0.25, 10) == 3
        assert ceil_count(0.0, 7) == 0
        assert ceil_count(1.0, 7) == 7


class TestApplyMask:

    def test_point_mode_counts_exact_on_uniform(self):
        mesh = Mesh.uniform((16, 16))
        f = five_channels(mesh, np.random.default_rng(0))
        spec = MaskSpec(point_probability=1.0, point_fraction=0.5,
                        variable_fraction=0.6)
        masked, mask = apply_mask(f, spec, np.random.default_rng(1))
        per_var = mask.sum(axis=0)
        assert sorted(per_var)[:2] == [0, 0]          # untouched variables
        assert all(c == 128 for c in per_var if c > 0)
        assert (per_var > 0).sum() == 3               # ceil(0.6 * 5)

    def test_at_least_one_variable_unmasked(self):
        mesh = Mesh.uniform((8, 8))
        f = five_channels(mesh, np.random.default_rng(0))
        spec = MaskSpec(point_probability=1.0, variable_fraction=1.0)
        _, mask = apply_mask(f, spec, np.random.default_rng(1))
        assert (mask.sum(axis=0) > 0).sum() == 4      # capped at d - 1

    def test_variable_mode_zeroes_whole_channels(self):
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(0)
        names = tuple(f"v{i}" for i in range(10))
        f = GridFunction(mesh, rng.standard_normal((64, 10)), names=names)
        spec = MaskSpec(point_probability=0.0, full_variable_fraction=0.3)
        masked, mask = apply_mask(f, spec, np.random.default_rng(1))
        per_var = mask.all(axis=0)
        assert per_var.sum() == 3                     # ceil(0.3 * 10)
        assert ((mask.sum(axis=0) == 0) | per_var).all()
        zeroed = np.flatnonzero(per_var)
        assert np.all(masked.values[:, zeroed] == 0.0)

    def test_masked_values_and_metadata(self):
        mesh = Mesh.uniform((8, 8))
        f = five_channels(mesh, np.random.default_rng(3))
        spec = MaskSpec(point_probability=1.0)
        masked, mask = apply_mask(f, spec, np.random.default_rng(4))
        assert masked.names == f.names
        assert masked.mesh is f.mesh
        assert np.all(masked.values[mask] == 0.0)
        assert np.array_equal(masked.values[~mask], f.values[~mask])
        assert np.any(f.values[mask] != 0.0)

    def test_zero_fractions_change_nothing(self):
        mesh = Mesh.uniform((8, 8))
        f = five_channels(mesh, np.random.default_rng(5))
        for spec in (MaskSpec(point_probability=1.0, point_fraction=0.0),
                     MaskSpec(point_probability=1.0, variable_fraction=0.0),
                     MaskSpec(point_probability=0.0, full_variable_fraction=0.0)):
            masked, mask = apply_mask(f, spec, np.random.default_rng(6))
            assert not mask.any()
            assert np.array_equal(masked.values, f.values)

    def test_single_variable_never_point_masked(self):
        mesh = Mesh.uniform((8, 8))
        f = GridFunction(mesh, np.ones((64, 1)), names=("u",))
        spec = MaskSpec(point_probability=1.0, variable_fraction=1.0)
        _, mask = apply_mask(f, spec, np.random.default_rng(0))
        assert not mask.any()

    def test_irregular_mesh_patches(self):
        ds = irregularize(small_dataset(snapshots=2), 0.8, seed=1)
        f = ds.function(0)
        spec = MaskSpec(point_probability=1.0, point_fraction=0.5,
                        variable_fraction=1.0)
        _, mask = apply_mask(f, spec, np.random.default_rng(2))
        n = f.mesh.n_points
        col = mask[:, 0]
        assert col.sum() >= round(0.5 * n)            # target reached
        assert col.sum() <= round(0.5 * n) + 40       # within patch granularity

    def test_irregular_spacing_computed_once(self, monkeypatch):
        import codano.gno as gno
        trees = []
        real_tree = gno.cKDTree

        def counting_tree(pts, *args, **kwargs):
            trees.append(len(pts))
            return real_tree(pts, *args, **kwargs)

        monkeypatch.setattr(gno, "cKDTree", counting_tree)
        ds = irregularize(small_dataset(snapshots=3), 0.8, seed=1)
        spec = MaskSpec(point_probability=1.0, point_fraction=0.3)
        rng = np.random.default_rng(5)
        for i in range(3):
            for _ in range(2):
                apply_mask(ds.function(i), spec, rng)
        assert trees == [ds.mesh.n_points]

    def test_independent_masks_per_variable(self):
        mesh = Mesh.uniform((16, 16))
        f = five_channels(mesh, np.random.default_rng(7))
        spec = MaskSpec(point_probability=1.0, variable_fraction=1.0)
        _, mask = apply_mask(f, spec, np.random.default_rng(8))
        cols = [mask[:, j] for j in range(5) if mask[:, j].any()]
        assert any(not np.array_equal(cols[0], c) for c in cols[1:])

    def test_bad_fractions_rejected(self):
        with pytest.raises(FractionError):
            MaskSpec(point_fraction=1.5)
        with pytest.raises(FractionError):
            MaskSpec(point_probability=-0.1)
        with pytest.raises(FractionError):
            MaskSpec(patch_radius=-1.0)


class TestRelativeL2:

    def test_identical_is_zero(self):
        mesh = Mesh.uniform((8, 8))
        f = five_channels(mesh, np.random.default_rng(0))
        rep = relative_l2(f, f)
        assert rep.overall == 0.0
        assert all(v == 0.0 for v in rep.per_variable.values())
        assert not rep.absolute_fallback

    def test_known_ratio(self):
        mesh = Mesh.uniform((8, 8))
        t = GridFunction(mesh, np.full((64, 1), 2.0), names=("u",))
        p = GridFunction(mesh, np.full((64, 1), 2.5), names=("u",))
        rep = relative_l2(p, t)
        assert rep.overall == pytest.approx(0.25, rel=1e-12)
        assert rep.per_variable["u"] == pytest.approx(0.25, rel=1e-12)

    def test_zero_target_falls_back_to_absolute(self):
        mesh = Mesh.uniform((8, 8))
        t = GridFunction(mesh, np.zeros((64, 1)), names=("u",))
        p = GridFunction(mesh, np.full((64, 1), 3.0), names=("u",))
        rep = relative_l2(p, t)
        assert rep.absolute_fallback
        assert rep.overall == pytest.approx(3.0 * np.sqrt(mesh.measure), rel=1e-12)

    def test_mesh_and_name_mismatches(self):
        a = five_channels(Mesh.uniform((8, 8)), np.random.default_rng(0))
        b = five_channels(Mesh.uniform((4, 4)), np.random.default_rng(0))
        with pytest.raises(MeshError):
            relative_l2(a, b)
        mesh = Mesh.uniform((8, 8))
        p = GridFunction(mesh, np.zeros((64, 1)), names=("u",))
        t = GridFunction(mesh, np.zeros((64, 1)), names=("w",))
        with pytest.raises(UnknownVariableError):
            relative_l2(p, t)

    def test_differentiable_loss_matches_report(self):
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(9)
        t = GridFunction(mesh, rng.standard_normal((64, 2)), names=("a", "b"))
        pv = rng.standard_normal((64, 2))
        p = GridFunction(mesh, pv, names=("a", "b"))
        loss = loss_relative_l2(ad.Tensor(pv[None]), t.values[None], mesh)
        assert float(loss.data) == pytest.approx(relative_l2(p, t).overall,
                                                 rel=1e-12)

    def test_loss_gradient_flows(self):
        mesh = Mesh.uniform((4, 4))
        rng = np.random.default_rng(1)
        target = rng.standard_normal((1, 16, 2))
        x = ad.Tensor(rng.standard_normal((1, 16, 2)), requires_grad=True)
        loss = loss_relative_l2(x, target, mesh)
        ad.backward(loss)
        assert x.grad is not None and np.all(np.isfinite(x.grad))

    def test_batched_loss_is_mean_of_per_sample_reports(self):
        mesh = Mesh.uniform((8, 8))
        rng = np.random.default_rng(4)
        target = rng.standard_normal((3, 64, 2))
        target[1] = 0.0                       # absolute fallback for one sample
        pred = rng.standard_normal((3, 64, 2))
        loss = loss_relative_l2(ad.Tensor(pred), target, mesh)
        reports = [relative_l2(GridFunction(mesh, p, names=("a", "b")),
                               GridFunction(mesh, t, names=("a", "b"))).overall
                   for p, t in zip(pred, target)]
        assert float(loss.data) == pytest.approx(np.mean(reports), rel=1e-12)

    def test_loss_shape_mismatch_rejected(self):
        mesh = Mesh.uniform((4, 4))
        target = np.ones((2, 16, 1))
        for pred in (np.ones((16, 1)), np.ones((1, 16, 1))):
            with pytest.raises(ShapeError):
                loss_relative_l2(ad.Tensor(pred), target, mesh)


class TestTrainPlan:

    @pytest.mark.parametrize("field, value", [
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("learning_rate", -1e-3), ("learning_rate", 0.0),
        ("few_shot", -1), ("eval_max_samples", -2),
        ("target_eval_loss", -0.5)])
    def test_values_that_train_silently_wrong_rejected(self, field, value):
        with pytest.raises(TrainingStateError):
            TrainPlan(**{field: value})

    def test_boundary_values_accepted(self):
        plan = TrainPlan(clip_norm=1e-12, learning_rate=1e-12, few_shot=0,
                         eval_max_samples=0, target_eval_loss=0.0)
        assert plan.few_shot == 0


class TestSnapshotPairs:

    def test_basic(self):
        assert snapshot_pairs(4, 1) == [(0, 1), (1, 2), (2, 3)]
        assert snapshot_pairs(4, 2) == [(0, 2), (1, 3)]

    def test_impossible(self):
        with pytest.raises(PairingError):
            snapshot_pairs(3, 3)
        with pytest.raises(PairingError):
            snapshot_pairs(5, 0)


class TestPretrain:

    def test_zero_epochs_leaves_params_unchanged(self):
        cfg = tiny_config()
        params = init_params(cfg)
        before = param_arrays(params)
        ds = small_dataset(snapshots=3)
        state = pretrain(params, cfg, ds, TrainPlan(epochs=0, seed=1))
        assert len(state.history) == 1
        assert state.history[0]["epoch"] == 0
        after = param_arrays(params)
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_two_runs_bit_identical(self):
        ds = small_dataset(snapshots=4)
        plan = TrainPlan(epochs=2, batch_size=2, seed=3)
        finals = []
        hists = []
        for _ in range(2):
            cfg = tiny_config()
            params = init_params(cfg)
            state = pretrain(params, cfg, ds, plan)
            finals.append(param_arrays(params))
            hists.append(state.history)
        assert all(np.array_equal(finals[0][n], finals[1][n])
                   for n in finals[0])
        assert hists[0] == hists[1]

    def test_epoch_records_carry_gradient_norms(self):
        ds = small_dataset(snapshots=5)
        cfg = tiny_config()
        clipped = pretrain(init_params(cfg), cfg, ds,
                           TrainPlan(epochs=2, batch_size=2, clip_norm=1e-6,
                                     seed=3)).history
        assert clipped[0]["grad_norm"] is None and clipped[0]["clipped"] is None
        for rec in clipped[1:]:
            norms = rec["grad_norm"]
            assert 0.0 < norms["mean"] <= norms["max"]
            assert rec["clipped"] == 2           # 4 training snapshots, 2 batches
        free = pretrain(init_params(cfg), cfg, ds,
                        TrainPlan(epochs=1, batch_size=4, clip_norm=1e9,
                                  seed=3)).history
        assert free[1]["clipped"] == 0
        assert free[1]["grad_norm"]["mean"] == free[1]["grad_norm"]["max"]

    def test_loss_decreases_when_overfitting(self):
        ds = small_dataset(snapshots=2)
        cfg = tiny_config()
        params = init_params(cfg)
        plan = TrainPlan(epochs=60, batch_size=1, learning_rate=3e-3, seed=0,
                         mask=MaskSpec(point_probability=1.0,
                                       point_fraction=0.25))
        state = pretrain(params, cfg, ds, plan)
        train = [r["train_loss"] for r in state.history if r["train_loss"]
                 is not None]
        assert train[-1] < 0.5 * train[0]

    def test_one_kernel_build_per_batch_and_eval_chunk(self, monkeypatch):
        """Each batch and each eval chunk is one forward: the encoder and
        decoder kernels are built once each, whatever the batch size."""
        ds = small_dataset(snapshots=6)
        cfg = tiny_config(use_gno=True)
        # 3 training snapshots in batches of 2 + 1, 3 held out in chunks of 2 + 1
        plan = TrainPlan(epochs=0, batch_size=2, holdout_fraction=0.5, seed=4)
        state = pretrain(init_params(cfg), cfg, ds, plan)
        calls = []
        original = KernelNet.matrices

        def counted(self, store, nbrs):
            calls.append(self.name)
            return original(self, store, nbrs)

        monkeypatch.setattr(KernelNet, "matrices", counted)
        pretrain(None, None, ds, replace(plan, epochs=1), state=state)
        assert len(calls) == 2 * 2 + 2 * 2
        assert calls.count("gno_enc") == calls.count("gno_dec")

    def test_eval_chunks_match_single_sample_evals(self):
        ds = small_dataset(snapshots=6)
        cfg = tiny_config(use_gno=True)
        params = init_params(cfg)
        hold = [2, 3, 4, 5]
        reports = [evaluate_reconstruction(
            params, cfg, ds, TrainPlan(batch_size=b, seed=8), hold)
            for b in (1, 3, 4)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].samples == 4
        capped = evaluate_reconstruction(
            params, cfg, ds, TrainPlan(batch_size=3, seed=8,
                                       eval_max_samples=2), hold)
        assert capped.samples == 2

    def test_variable_mismatch_rejected(self):
        cfg = tiny_config(variables=("u_x", "w"))
        params = init_params(cfg)
        with pytest.raises(UnknownVariableError):
            pretrain(params, cfg, small_dataset(snapshots=3), TrainPlan(epochs=1))

    def test_nan_parameters_raise_numeric_error(self):
        cfg = tiny_config()
        params = init_params(cfg)
        params["lift.w0"].data[:] = np.nan
        with pytest.raises(NumericError):
            pretrain(params, cfg, small_dataset(snapshots=3),
                     TrainPlan(epochs=1, seed=0))

    @pytest.mark.parametrize("grad", ["nan", "inf"])
    def test_nonfinite_gradient_raises_and_keeps_state(self, grad):
        """A finite loss with a NaN or inf gradient raises NumericError
        before Adam runs: parameters and moments stay byte-unchanged."""
        from codano.training import _batch_step, fresh_state
        cfg = tiny_config()
        plan = TrainPlan(seed=0)
        state = fresh_state(init_params(cfg), cfg, plan)
        bias = next(n for n in state.params.names() if n.endswith(".bias"))
        _batch_step(state, plan, (state.params[bias] * 1.0).sum())
        before = ({n: t.data.tobytes() for n, t in state.params.items()},
                  {n: a.tobytes() for n, a in state.adam.m.items()},
                  {n: a.tobytes() for n, a in state.adam.v.items()})
        b = state.params[bias]
        # sqrt at 0 has an infinite derivative; through b * 0 it becomes 0 * inf = NaN
        loss = (ad.tsqrt(b * 0.0) if grad == "nan" else ad.tsqrt(b - b.data)).sum()
        with pytest.raises(NumericError, match="gradient norm"):
            _batch_step(state, plan, loss)
        after = ({n: t.data.tobytes() for n, t in state.params.items()},
                 {n: a.tobytes() for n, a in state.adam.m.items()},
                 {n: a.tobytes() for n, a in state.adam.v.items()})
        assert after == before and state.adam.step == 1

    def test_target_eval_loss_stops_early(self):
        cfg = tiny_config()
        params = init_params(cfg)
        ds = small_dataset(snapshots=3)
        plan = TrainPlan(epochs=50, seed=0, target_eval_loss=1e9)
        state = pretrain(params, cfg, ds, plan)
        assert state.epoch == 0
        assert len(state.history) == 1


class TestFinetune:

    def make_extended(self):
        cfg = tiny_config()
        params = init_params(cfg)
        params, cfg = extend_variables(params, cfg, [])
        return params, cfg

    def test_target_eval_loss_stops_at_epoch_zero(self):
        params, cfg = self.make_extended()
        before = param_arrays(params)
        ds = small_dataset(snapshots=4)
        plan = TrainPlan(epochs=50, seed=0, target_eval_loss=1e9)
        state = finetune(params, cfg, ds, plan)
        assert state.epoch == 0
        assert len(state.history) == 1
        after = param_arrays(params)
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_prediction_eval_chunks_match_single_sample_evals(self):
        params, cfg = self.make_extended()
        ds = small_dataset(snapshots=6)
        pairs = [(0, 1), (2, 3), (3, 4), (4, 5)]
        reports = [evaluate_prediction(params, cfg, ds, TrainPlan(batch_size=b),
                                       pairs) for b in (1, 3)]
        assert reports[0] == reports[1]
        assert reports[0].samples == 4

    def test_requires_predictor(self):
        cfg = tiny_config()
        params = init_params(cfg)
        with pytest.raises(TrainingStateError):
            finetune(params, cfg, small_dataset(snapshots=4),
                     TrainPlan(epochs=1))

    def test_freeze_encoder_touches_only_head_and_embeddings(self):
        params, cfg = self.make_extended()
        before = param_arrays(params)
        ds = small_dataset(snapshots=5)
        plan = TrainPlan(epochs=2, batch_size=2, seed=1, freeze_encoder=True)
        finetune(params, cfg, ds, plan)
        after = param_arrays(params)
        changed = {n for n in before if not np.array_equal(before[n], after[n])}
        assert changed
        for name in changed:
            assert name.split(".", 1)[0] in ("predictor", "vspe")
        frozen_same = [n for n in before
                       if n.split(".", 1)[0] not in ("predictor", "vspe")]
        assert frozen_same
        assert all(np.array_equal(before[n], after[n]) for n in frozen_same)

    def test_few_shot_subsample_and_bounds(self):
        params, cfg = self.make_extended()
        ds = small_dataset(snapshots=6)
        plan = TrainPlan(epochs=1, seed=2, few_shot=2)
        state = finetune(params, cfg, ds, plan)
        assert state.history[-1]["phase"] == "finetune"
        with pytest.raises(PairingError):
            finetune(*self.make_extended(), ds,
                     TrainPlan(epochs=1, few_shot=100))

    def test_pairing_error_when_too_few_snapshots(self):
        params, cfg = self.make_extended()
        ds = small_dataset(snapshots=2)
        with pytest.raises(PairingError):
            finetune(params, cfg, ds, TrainPlan(epochs=1, delta=5))

    def test_prediction_loss_decreases(self):
        params, cfg = self.make_extended()
        ds = small_dataset(snapshots=5)
        plan = TrainPlan(epochs=25, batch_size=2, learning_rate=3e-3, seed=0)
        state = finetune(params, cfg, ds, plan)
        evals = [r["eval_loss"] for r in state.history]
        assert evals[-1] < evals[0]


class TestCheckpoints:

    def test_roundtrip_exact(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg)
        ds = small_dataset(snapshots=4)
        plan = TrainPlan(epochs=2, batch_size=2, seed=5)
        state = pretrain(params, cfg, ds, plan)
        path = tmp_path / "ckpt.cdno"
        save_checkpoint(path, state, plan)
        back = load_checkpoint(path)
        assert back.epoch == state.epoch
        assert back.holdout == state.holdout
        assert back.history == state.history
        assert back.config.to_dict() == cfg.to_dict()
        assert back.params.names() == params.names()
        for n in params.names():
            assert np.array_equal(back.params[n].data, params[n].data)
            assert np.array_equal(back.adam.m[n], state.adam.m[n])
            assert np.array_equal(back.adam.v[n], state.adam.v[n])
        assert back.adam.step == state.adam.step
        assert back.rng.bit_generator.state == state.rng.bit_generator.state

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = small_dataset(snapshots=4)

        cfg = tiny_config()
        params_a = init_params(cfg)
        state_a = pretrain(params_a, cfg, ds,
                           TrainPlan(epochs=4, batch_size=2, seed=7))

        cfg_b = tiny_config()
        params_b = init_params(cfg_b)
        state_b = pretrain(params_b, cfg_b, ds,
                           TrainPlan(epochs=2, batch_size=2, seed=7))
        path = tmp_path / "half.cdno"
        save_checkpoint(path, state_b)
        resumed = load_checkpoint(path)
        state_b2 = pretrain(None, None, ds,
                            TrainPlan(epochs=4, batch_size=2, seed=7),
                            state=resumed)

        for n in state_a.params.names():
            assert np.array_equal(state_a.params[n].data,
                                  state_b2.params[n].data)
        assert state_a.history == state_b2.history

    def test_frozen_flags_survive(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg)
        params, cfg = extend_variables(params, cfg, [])
        params.freeze("lift.")
        from codano.training import TrainerState, fresh_state
        state = fresh_state(params, cfg, TrainPlan())
        path = tmp_path / "frozen.cdno"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back.params.is_frozen("lift.w0")
        assert not back.params.is_frozen("proj.w0")

    @pytest.mark.parametrize("change,message", [
        ("drop", "lacks parameter 'lift.b0'"),
        ("add", "has parameter 'lift.w9'"),
        ("half_predictor", "lacks parameter 'predictor.layer0.query.spec_re'"),
    ])
    def test_layout_the_config_does_not_describe_refused(self, tmp_path, change,
                                                        message):
        cfg = tiny_config()
        params, cfg = extend_variables(init_params(cfg), cfg, ["T"])
        kept = ad.ParamStore()
        for name, t in params.items():
            if not ((change == "drop" and name == "lift.b0")
                    or (change == "half_predictor" and name.startswith("predictor.")
                        and ".key." not in name)):
                kept.add(name, t.data)
        if change == "add":
            kept.add("lift.w9", np.zeros(3))
        path = tmp_path / "foreign.cdno"
        save_checkpoint(path, fresh_state(kept, cfg, TrainPlan()))
        with pytest.raises(TrainingStateError, match=message):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        from codano.simdata import write_container
        path = tmp_path / "other.cdno"
        write_container(path, {"kind": "dataset"}, [])
        with pytest.raises(TrainingStateError):
            load_checkpoint(path)
