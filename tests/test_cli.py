"""End-to-end command-line runs, config plumbing, and exit codes."""

import dataclasses
import importlib.util
import json
import math
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from codano import autodiff as ad
from codano import cli
from codano.cli import main
from codano.errors import (CodanoError, FractionError, ShapeError,
                           TrainingStateError)
from codano.field import Mesh
from codano.model import ModelConfig, param_shapes
from codano.simdata import (DatasetContainer, SimConfig, dataset_read,
                            dataset_write, read_container, simulate_kolmogorov,
                            write_container)
from codano.training import (MaskSpec, TrainPlan, load_checkpoint,
                             reconstruction_splits, save_checkpoint)

TINY_MODEL = {"embed_dim": 2, "latent_width": 4, "n_heads": 2, "key_width": 3,
              "value_width": 3, "modes": 2, "encoder_layers": 1,
              "reconstructor_layers": 1, "predictor_layers": 1,
              "latent_resolution": [8, 8], "vspe_modes": 2,
              "gno_hidden": [4]}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"model": TINY_MODEL}))
    return str(path)


@pytest.fixture
def kolmo_data(tmp_path):
    ds = simulate_kolmogorov(SimConfig(resolution=16, dt=0.2, snapshots=5,
                                       warmup=0.3, seed=2))
    path = tmp_path / "kolmo.cdno"
    dataset_write(ds, path)
    return str(path)


def read_metrics(out_dir):
    with open(f"{out_dir}/metrics.jsonl", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def wrong_typed(hint):
    """Values of the wrong type for a field annotated `hint`."""
    if isinstance(hint, types.UnionType):  # float | str: a str is an enum word
        return [True, math.nan, math.inf, None, [1.0]]
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        wrong = [w for w in wrong_typed(args[0]) if w is not None][:1]
        if ... in args:
            return [wrong * 2, "x", None]
        return [(4,) * (len(args) + 1), wrong * len(args), None]
    return {int: ["abc", True, 1.5, None], float: ["abc", True, math.nan, math.inf, None],
            bool: ["yes", 1, None], str: [1, None]}.get(hint, [3, "abc", None])


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfigPlumbing:

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate"])
        assert e.value.code == 2

    def test_unknown_override_key(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--sim.bogus", "3"])
        assert rc == 2

    def test_unknown_section(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--weird.thing", "1"])
        assert rc == 2

    def test_stray_positional_rejected(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "o"), "whatever"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
    @pytest.mark.parametrize("bad", [["--bogus", "1"], ["--plan.nonsense", "1"]])
    def test_usage_error_before_missing_files(self, tmp_path, command, bad):
        missing = str(tmp_path / "missing.cdno")
        argv = [command, "--data", missing, "--out", str(tmp_path / "o")]
        if command != "pretrain":
            argv += ["--checkpoint", missing]
        assert main(argv + bad) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["0", "-8", "8x0", "8x8x8", "abc"])
    def test_bad_query_resolution_exits_2_before_files(self, tmp_path, bad):
        missing = str(tmp_path / "missing.cdno")
        with pytest.raises(SystemExit) as e:
            main(["eval", "--data", missing, "--checkpoint", missing,
                  "--query-resolution", bad])
        assert e.value.code == 2

    def test_bad_config_file_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sim": {"nonsense": 1}}))
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 2

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sim": {"snapshots": 2, "resolution": 16,
                                           "dt": 0.1}}))
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--config", str(cfg),
                   "--sim.snapshots", "3"])
        assert rc == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["sim"]["snapshots"] == 3
        ds = dataset_read(out / "dataset.cdno")
        assert ds.n_snapshots == 3

    def test_every_field_refuses_wrong_types(self):
        """Every field of every section, read from its annotation, refuses
        values of the wrong type with its section's error class."""
        base = {ModelConfig: {"variables": ("u", "v")}}
        errors = {ModelConfig: ShapeError, SimConfig: ShapeError,
                  MaskSpec: FractionError, TrainPlan: TrainingStateError}
        assert set(cli.SECTIONS.values()) == set(errors)
        probed = 0
        for cls in cli.SECTIONS.values():
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                error = FractionError if field.name == "holdout_fraction" else errors[cls]
                for value in wrong_typed(hints[field.name]):
                    with pytest.raises(error):
                        cls(**{**base.get(cls, {}), field.name: value})
                    probed += 1
        assert probed > 150

    def test_settings_keep_their_values(self):
        """The configs the benchmark builds, among them the c09 model and plan
        of the acceptance criteria, still construct with the values given."""
        wl = load_workloads()
        for size in wl.SIZES.values():
            given = [(wl.c09_config(size, ("u_x", "u_y")), size["model"]),
                     (wl._rb_config(size, 5), dict(
                         system="rayleigh-benard", resolution=size["rb_res"], dt=0.5,
                         snapshots=5, nu=0.01, kappa=0.01, alpha_g=2.0,
                         warmup=size["rb_warmup"], seed=7)),
                     (wl._kolmogorov_config(size, 4, 3), dict(
                         system="kolmogorov", resolution=(size["kolmo_n"],) * 2,
                         dt=0.2, snapshots=4, re=500.0, forcing_n=4,
                         warmup=size["kolmo_warmup"], seed=3))]
            for cfg, values in given:
                for name, value in values.items():
                    assert getattr(cfg, name) == value, name
                    assert type(getattr(cfg, name)) is type(value), name
        assert dataclasses.replace(wl.PLAN, seed=4).seed == 4
        assert (wl.PLAN.epochs, wl.PLAN.learning_rate, wl.PLAN.seed,
                wl.PLAN.mask) == (0, 2e-3, 17, MaskSpec())

    def test_settings_normalize_as_documented(self):
        cfg = ModelConfig(variables=["u"], n_heads=np.int64(2),
                          latent_resolution=[8, 8], temperature=2)
        assert cfg.variables == ("u",) and cfg.latent_resolution == (8, 8)
        assert type(cfg.n_heads) is int and cfg.n_heads == 2
        assert SimConfig(resolution=[16]).resolution == (16, 16)
        assert TrainPlan(mask={"point_fraction": 0.1}).mask == MaskSpec(point_fraction=0.1)
        with pytest.raises(FractionError):
            TrainPlan(holdout_fraction=1.0)
        with pytest.raises(ShapeError, match="temperature must be 'auto'"):
            ModelConfig(variables=("u",), temperature="hot")


class TestSimulate:

    def test_kolmogorov_dataset(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--system", "kolmogorov",
                   "--n", "16", "--snapshots", "3", "--dt", "0.1",
                   "--seed", "4"])
        assert rc == 0
        ds = dataset_read(out / "dataset.cdno")
        assert ds.variables == ("u_x", "u_y")
        assert ds.n_snapshots == 3
        assert ds.mesh.resolution == (16, 16)
        events = [m["event"] for m in read_metrics(out)]
        assert "simulate" in events
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["sim"]["seed"] == 4
        assert echoed["command"] == "simulate"

    def test_rayleigh_benard_preset(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--preset", "ra12k",
                   "--sim.resolution", "[32,16]", "--snapshots", "3",
                   "--dt", "0.2"])
        assert rc == 0
        ds = dataset_read(out / "dataset.cdno")
        assert ds.variables == ("u_x", "u_y", "T")
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["sim"]["alpha_g"] == pytest.approx(1.2)
        assert echoed["sim"]["system"] == "rayleigh-benard"

    @pytest.mark.parametrize("setting", [
        ["--sim.cfl_safety", "-0.5"], ["--re", "0"], ["--dt", "-0.1"],
        ["--sim.nu", "0"], ["--sim.kappa", "NaN"]])
    def test_non_positive_setting_exits_3(self, tmp_path, setting):
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--system", "kolmogorov",
                   "--n", "16", "--snapshots", "2", *setting])
        assert rc == 3
        assert not (out / "dataset.cdno").exists()

    @pytest.mark.parametrize("setting", [
        ["--sim.snapshots", "2.5"], ["--sim.warmup", "-1"],
        ["--sim.warmup", "Infinity"], ["--sim.resolution", "[16,16,16]"],
        ["--sim.forcing_amplitude", "abc"], ["--sim.seed", "-1"]])
    def test_wrong_typed_setting_exits_3(self, tmp_path, setting, capsys):
        """Refused when the config is built, before any simulation: a
        non-finite warmup is not reported as a CFL blow-up (exit 4)."""
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--system", "kolmogorov",
                   "--n", "16", "--snapshots", "2", *setting])
        assert rc == 3
        assert_one_line_error(capsys)
        assert not (out / "dataset.cdno").exists()

    def test_unknown_preset(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "o"),
                   "--preset", "ra99k"])
        assert rc == 2

    def test_keep_fraction_makes_irregular(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["simulate", "--out", str(out), "--n", "16",
                   "--snapshots", "2", "--dt", "0.1",
                   "--keep-fraction", "0.5"])
        assert rc == 0
        ds = dataset_read(out / "dataset.cdno")
        assert not ds.mesh.is_uniform
        assert ds.mesh.n_points == 128


class TestPretrain:

    def test_trains_and_checkpoints(self, tmp_path, tiny_config, kolmo_data):
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "1", "--seed", "0"])
        assert rc == 0
        state = load_checkpoint(out / "checkpoint.cdno")
        assert state.epoch == 1
        assert state.config.variables == ("u_x", "u_y")
        assert "vspe.u_x.coef" in state.params
        records = [m for m in read_metrics(out) if "epoch" in m]
        assert [r["epoch"] for r in records] == [0, 1]
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["mask"]["variable_fraction"] == 0.6

    @pytest.mark.parametrize("setting", [
        ["--plan.batch_size", "abc"], ["--model.n_heads", "abc"],
        ["--model.temperature", "abc"], ["--plan.seed", "-1"],
        ["--plan.mask", "3"], ["--plan.epochs", "1.5"],
        ["--plan.batch_size", "true"], ["--model.use_gno", "yes"],
        ["--model.norm_eps", "-1"], ["--mask.point_fraction", "abc"]])
    def test_wrong_typed_setting_exits_3(self, tmp_path, tiny_config,
                                         kolmo_data, setting, capsys):
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "1", *setting])
        assert rc == 3
        assert_one_line_error(capsys)
        assert not (out / "checkpoint.cdno").exists()

    def test_mask_override_echoed(self, tmp_path, tiny_config, kolmo_data):
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "0",
                   "--mask.variable_fraction", "0.3"])
        assert rc == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["mask"]["variable_fraction"] == 0.3

    def test_resume_continues_bit_identically(self, tmp_path, tiny_config,
                                              kolmo_data):
        full = tmp_path / "full"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(full),
                   "--config", tiny_config, "--epochs", "2", "--seed", "7",
                   "--batch-size", "2"])
        assert rc == 0

        half = tmp_path / "half"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(half),
                   "--config", tiny_config, "--epochs", "1", "--seed", "7",
                   "--batch-size", "2"])
        assert rc == 0
        resumed = tmp_path / "resumed"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(resumed),
                   "--resume", str(half / "checkpoint.cdno"),
                   "--epochs", "2", "--seed", "7", "--batch-size", "2"])
        assert rc == 0

        a = (full / "checkpoint.cdno").read_bytes()
        b = (resumed / "checkpoint.cdno").read_bytes()
        assert a == b
        rec_full = [m for m in read_metrics(full) if m.get("epoch") == 2]
        rec_res = [m for m in read_metrics(resumed) if m.get("epoch") == 2]
        assert rec_full == rec_res

    def test_model_variable_subset_of_dataset(self, tmp_path, tiny_config,
                                              kolmo_data):
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "0",
                   "--model.variables", '["u_y"]'])
        assert rc == 0
        state = load_checkpoint(out / "checkpoint.cdno")
        assert state.config.variables == ("u_y",)

    def test_missing_variable_exits_3(self, tmp_path, tiny_config,
                                      kolmo_data):
        rc = main(["pretrain", "--data", kolmo_data,
                   "--out", str(tmp_path / "run"), "--config", tiny_config,
                   "--epochs", "0", "--model.variables", '["u_x","q"]'])
        assert rc == 3

    def test_negative_learning_rate_exits_3(self, tmp_path, tiny_config,
                                            kolmo_data):
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "1", "--lr", "-1"])
        assert rc == 3
        assert not (out / "checkpoint.cdno").exists()

    def test_checkpoint_every_writes_on_the_way(self, tmp_path, tiny_config,
                                                kolmo_data, monkeypatch):
        """Saves after every epoch, and the files equal a run without it."""
        saved = []

        def save(path, state, plan=None):
            saved.append(state.epoch)
            save_checkpoint(path, state, plan)

        monkeypatch.setattr(cli, "save_checkpoint", save)
        runs = []
        for name, extra in (("plain", []),
                            ("every", ["--checkpoint-every", "1"])):
            out = tmp_path / name
            rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                       "--config", tiny_config, "--epochs", "2",
                       "--seed", "3", "--batch-size", "2", *extra])
            assert rc == 0
            runs.append(((out / "checkpoint.cdno").read_bytes(),
                         (out / "metrics.jsonl").read_bytes()))
        assert saved == [2, 1, 2, 2]
        assert runs[0] == runs[1]
        assert load_checkpoint(tmp_path / "every" / "checkpoint.cdno").epoch == 2


class TestFinetuneAndEval:

    def pretrained(self, tmp_path, tiny_config, kolmo_data):
        out = tmp_path / "pre"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "1", "--seed", "0"])
        assert rc == 0
        return str(out / "checkpoint.cdno")

    def with_temperature(self, tmp_path, kolmo_data):
        ds = dataset_read(kolmo_data)
        snaps = np.concatenate([ds.snapshots, ds.snapshots[:, :, :1]], axis=2)
        ds2 = DatasetContainer(("u_x", "u_y", "T"), ds.mesh, snaps, ds.dt)
        path = tmp_path / "threevar.cdno"
        dataset_write(ds2, path)
        return str(path)

    def test_finetune_extends_and_reports(self, tmp_path, tiny_config,
                                          kolmo_data, capsys):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        data3 = self.with_temperature(tmp_path, kolmo_data)
        out = tmp_path / "ft"
        rc = main(["finetune", "--data", data3, "--checkpoint", ckpt,
                   "--out", str(out), "--epochs", "1", "--seed", "0",
                   "--few-shot", "2", "--freeze-encoder"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "parameter diff" in captured
        events = read_metrics(out)
        ext = next(m for m in events if m.get("event") == "extension")
        assert ext["new_variables"] == ["T"]
        assert any(n.startswith("vspe.T.") for n in ext["added_parameters"])
        assert any(n.startswith("predictor.") for n in ext["added_parameters"])
        assert all(n.startswith(("vspe.T.", "predictor."))
                   for n in ext["added_parameters"])
        last = [m for m in events if "epoch" in m][-1]
        assert set(last["eval_per_variable"]) == {"u_x", "u_y", "T"}

        # frozen encoder: everything outside predictor.*/vspe.* is untouched
        pre = load_checkpoint(ckpt).params
        post = load_checkpoint(out / "checkpoint.cdno").params
        for name in pre.names():
            if name.split(".", 1)[0] not in ("predictor", "vspe"):
                assert np.array_equal(pre[name].data, post[name].data), name

    def test_finetune_without_new_variables(self, tmp_path, tiny_config,
                                            kolmo_data):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        out = tmp_path / "ft"
        rc = main(["finetune", "--data", kolmo_data, "--checkpoint", ckpt,
                   "--out", str(out), "--epochs", "1", "--seed", "0"])
        assert rc == 0
        state = load_checkpoint(out / "checkpoint.cdno")
        assert state.config.variables == ("u_x", "u_y")

    def test_eval_matches_finetune_metric(self, tmp_path, tiny_config,
                                          kolmo_data):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        out = tmp_path / "ft"
        rc = main(["finetune", "--data", kolmo_data, "--checkpoint", ckpt,
                   "--out", str(out), "--epochs", "1", "--seed", "0"])
        assert rc == 0
        final = [m for m in read_metrics(out) if "epoch" in m][-1]

        ev = tmp_path / "ev"
        rc = main(["eval", "--data", kolmo_data,
                   "--checkpoint", str(out / "checkpoint.cdno"),
                   "--out", str(ev), "--seed", "0"])
        assert rc == 0
        result = json.loads((ev / "eval.json").read_text())
        assert result["task"] == "prediction"
        assert result["relative_l2"] == pytest.approx(final["eval_loss"],
                                                      abs=1e-12)

    def test_eval_shuffled_variable_order_identical(self, tmp_path,
                                                    tiny_config, kolmo_data):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        ds = dataset_read(kolmo_data)
        flipped = DatasetContainer(("u_y", "u_x"), ds.mesh,
                                   np.ascontiguousarray(
                                       ds.snapshots[:, :, [1, 0]]), ds.dt)
        flipped_path = tmp_path / "flipped.cdno"
        dataset_write(flipped, flipped_path)

        results = []
        for name, data in (("a", kolmo_data), ("b", str(flipped_path))):
            ev = tmp_path / f"ev_{name}"
            rc = main(["eval", "--data", data, "--checkpoint", ckpt,
                       "--out", str(ev), "--seed", "0",
                       "--task", "reconstruction"])
            assert rc == 0
            results.append(json.loads((ev / "eval.json").read_text()))
        assert results[0]["relative_l2"] == results[1]["relative_l2"]
        assert results[0]["per_variable"] == results[1]["per_variable"]

    def test_eval_super_resolution_runs(self, tmp_path, tiny_config,
                                        kolmo_data):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        ev = tmp_path / "ev"
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", ckpt,
                   "--out", str(ev), "--seed", "0",
                   "--task", "reconstruction", "--query-resolution", "32"])
        assert rc == 0
        result = json.loads((ev / "eval.json").read_text())
        assert result["query_resolution"] == [32, 32]
        assert np.isfinite(result["relative_l2"])

    def test_eval_takes_only_holdout_and_delta(self, tmp_path, tiny_config,
                                               kolmo_data):
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        base = ["eval", "--data", kolmo_data, "--checkpoint", ckpt,
                "--seed", "0"]
        for flag in (["--epochs", "1"], ["--batch-size", "2"], ["--lr", "0.1"],
                     ["--few-shot", "9"]):
            assert main(base + flag) == 2, flag
        ev = tmp_path / "ev"
        rc = main(base + ["--out", str(ev), "--holdout", "0.4", "--delta", "2"])
        assert rc == 0
        plan = json.loads((ev / "config.json").read_text())["plan"]
        assert plan["holdout_fraction"] == 0.4 and plan["delta"] == 2
        _, hold = reconstruction_splits(5, TrainPlan(holdout_fraction=0.4))
        result = json.loads((ev / "eval.json").read_text())
        assert result["task"] == "reconstruction"
        assert result["holdout_samples"] == len(hold)

    @staticmethod
    def separate_layout(params):
        """The parameters in the layout before key, query and value became one
        block: <layer>.key/query/value.* with paired real spec_re/spec_im, and
        the Fourier encoder's coefficients as re/im."""
        old = ad.ParamStore()
        widths = TINY_MODEL["n_heads"] * np.array(
            [TINY_MODEL["key_width"], TINY_MODEL["key_width"], TINY_MODEL["value_width"]])
        edges = np.cumsum(np.r_[0, widths])
        for name, t in params.items():
            prefix, leaf = name.rsplit(".", 1)
            blocks = [(prefix, t.data)]
            if prefix.endswith(".kqv"):
                layer = prefix[:-len(".kqv")]
                axis = -2 if leaf == "spec" else -1
                blocks = [(f"{layer}.{role}", np.take(t.data, range(lo, hi), axis=axis))
                          for role, lo, hi in zip(("key", "query", "value"),
                                                  edges[:-1], edges[1:])]
            for block, a in blocks:
                if leaf in ("spec", "coef"):
                    pair = ("spec_re", "spec_im") if leaf == "spec" else ("re", "im")
                    old.add(f"{block}.{pair[0]}", a[..., 0])
                    old.add(f"{block}.{pair[1]}", a[..., 1])
                else:
                    old.add(f"{block}.{leaf}", a)
        return old

    def test_separate_key_query_value_checkpoint_exits_3(self, tmp_path, tiny_config,
                                                         kolmo_data, capsys):
        """A checkpoint with separate key, query and value blocks
        (encoder.layer0.key.spec_re) is refused at load, naming the first
        parameter its model config describes that it lacks."""
        state = load_checkpoint(self.pretrained(tmp_path, tiny_config, kolmo_data))
        state.params = self.separate_layout(state.params)
        path = tmp_path / "separate.cdno"
        save_checkpoint(path, state)
        stored = read_container(path)[1]
        assert "param.encoder.layer0.key.spec_re" in stored
        first = next(n for n in param_shapes(state.config) if f"param.{n}" not in stored)
        assert first == "vspe.u_x.coef"
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        assert f"lacks parameter '{first}'" in capsys.readouterr().err

    def per_head_checkpoint(self, tmp_path, tiny_config, kolmo_data):
        """A checkpoint in an older layout still, one key, query and value
        block per head (<layer>.head<h>.key.*)."""
        state = load_checkpoint(self.pretrained(tmp_path, tiny_config, kolmo_data))
        widths = {"key": TINY_MODEL["key_width"], "query": TINY_MODEL["key_width"],
                  "value": TINY_MODEL["value_width"]}
        old = ad.ParamStore()
        for name, t in self.separate_layout(state.params).items():
            parts = name.split(".")
            if len(parts) != 4 or parts[2] not in widths:
                old.add(name, t.data)
                continue
            layer, block, w = ".".join(parts[:2]), parts[2], widths[parts[2]]
            for h in range(TINY_MODEL["n_heads"]):
                old.add(f"{layer}.head{h}.{block}.{parts[3]}",
                        t.data[..., h * w:(h + 1) * w])
        state.params = old
        path = tmp_path / "per_head.cdno"
        save_checkpoint(path, state)
        return str(path)

    def test_per_head_checkpoint_exits_3(self, tmp_path, tiny_config,
                                         kolmo_data, capsys):
        """The former layout is refused and the missing parameter named."""
        path = self.per_head_checkpoint(tmp_path, tiny_config, kolmo_data)
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", path,
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        assert "lacks parameter 'vspe.u_x.coef'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_per_head_checkpoint_refused_before_data(self, tmp_path, tiny_config,
                                                     kolmo_data, command):
        """The layout is checked at load, before the dataset is read: a
        missing --data file would exit 5."""
        path = self.per_head_checkpoint(tmp_path, tiny_config, kolmo_data)
        rc = main([command, "--data", str(tmp_path / "missing.cdno"),
                   "--checkpoint", path, "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_full_band_checkpoint_exits_3(self, tmp_path, tiny_config,
                                          kolmo_data, capsys):
        """A checkpoint in the former two-sided layout, whose spectral weights
        and Fourier encoder coefficients cover 2m last-axis bins, is refused
        at load, naming the first such parameter and both shapes."""
        state = load_checkpoint(self.pretrained(tmp_path, tiny_config, kolmo_data))
        spectral = {"spec": -4, "coef": -3}

        def two_sided(name, a):
            axis = spectral.get(name.rsplit(".", 1)[-1])
            return a if axis is None else np.concatenate((a, np.zeros_like(a)), axis=axis)

        old = ad.ParamStore()
        for name, t in state.params.items():
            old.add(name, two_sided(name, t.data))
        for moments in (state.adam.m, state.adam.v):
            for name in moments:
                moments[name] = two_sided(name, moments[name])
        state.params = old
        path = tmp_path / "full_band.cdno"
        save_checkpoint(path, state)
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "'vspe.u_x.coef'" in err and "(4, 4, 2, 2)" in err and "(4, 2, 2, 2)" in err

    def test_adam_moment_of_wrong_shape_exits_3(self, tmp_path, tiny_config,
                                                kolmo_data, capsys):
        """An Adam moment whose shape differs from its parameter's is refused
        at load; the update would broadcast it silently."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        assert buffers["adam.m.lift.b0"].shape == (8,)
        buffers["adam.m.lift.b0"] = np.zeros(1)
        buffers["adam.v.lift.b0"] = np.zeros(1)
        path = tmp_path / "moments.cdno"
        write_container(path, header, list(buffers.items()))
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "'adam.m.lift.b0'" in err and "(1,)" in err and "(8,)" in err

    @pytest.mark.parametrize("key", ["model_config.bogus", "adam", "epoch",
                                     "rng_state"])
    def test_malformed_checkpoint_header_exits_3(self, tmp_path, tiny_config,
                                                 kolmo_data, key, capsys):
        """An unknown config key or a missing entry is a data error naming
        the file and the key, not a traceback."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        if key == "model_config.bogus":
            header["model_config"]["bogus"] = 1
        else:
            del header[key]
        path = tmp_path / "edited.cdno"
        write_container(path, header, list(buffers.items()))
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(path) in err and f"'{key.split('.')[-1]}" in err

    @pytest.mark.parametrize("key, value", [
        ("n_heads", 2.0), ("use_gno", "yes"), ("latent_resolution", 16),
        ("gno_radius", "abc"), ("seed", -1)])
    def test_wrong_typed_model_config_exits_3(self, tmp_path, tiny_config,
                                              kolmo_data, key, value, capsys):
        """A stored config takes the same check as one built from flags."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        header["model_config"][key] = value
        path = tmp_path / "edited.cdno"
        write_container(path, header, list(buffers.items()))
        with pytest.raises(CodanoError, match=key):
            load_checkpoint(path)
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err and key in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_checkpoint_without_one_adam_moment_exits_3(self, tmp_path, tiny_config,
                                                        kolmo_data, moment, capsys):
        """One Adam moment of a parameter without the other is a data error
        naming the file and the missing buffer, not a KeyError or a silently
        dropped moment."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        name = next(k for k in buffers if k.startswith(f"adam.{moment}."))
        path = tmp_path / "edited.cdno"
        write_container(path, header, [(k, v) for k, v in buffers.items() if k != name])
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(path) in err and f"'{name}'" in err

    def test_missing_checkpoint_exits_5(self, tmp_path, kolmo_data):
        rc = main(["eval", "--data", kolmo_data,
                   "--checkpoint", str(tmp_path / "nope.cdno")])
        assert rc == 5


class TestSpectrum:

    def write_velocity(self, tmp_path, ux, uy, resolution):
        mesh = Mesh.uniform(resolution)
        vals = np.stack([ux.reshape(-1), uy.reshape(-1)], axis=1)
        ds = DatasetContainer(("u_x", "u_y"), mesh, vals[None], 1.0)
        path = tmp_path / "vel.cdno"
        dataset_write(ds, path)
        return str(path)

    def parse_table(self, text):
        rows = {}
        for line in text.strip().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].lstrip("-").isdigit():
                rows[int(parts[0])] = float(parts[1])
        return rows

    def test_single_mode_concentrates(self, tmp_path, capsys):
        mesh = Mesh.uniform((64, 64))
        y = mesh.points[:, 1]
        path = self.write_velocity(tmp_path, np.sin(3 * y),
                                   np.zeros(mesh.n_points), (64, 64))
        rc = main(["spectrum", "--data", path])
        assert rc == 0
        rows = self.parse_table(capsys.readouterr().out)
        assert rows[3] > 0
        others = sum(v for k, v in rows.items() if k != 3)
        assert others <= 1e-3 * rows[3]

    def test_white_noise_is_flat(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = self.write_velocity(tmp_path,
                                   rng.standard_normal(128 * 128),
                                   rng.standard_normal(128 * 128), (128, 128))
        rc = main(["spectrum", "--data", path])
        assert rc == 0
        rows = self.parse_table(capsys.readouterr().out)
        band = [rows[k] for k in range(2, 17)]
        assert max(band) / min(band) < 3

    def test_zero_field_all_zero(self, tmp_path, capsys):
        path = self.write_velocity(tmp_path, np.zeros(256), np.zeros(256),
                                   (16, 16))
        rc = main(["spectrum", "--data", path])
        assert rc == 0
        rows = self.parse_table(capsys.readouterr().out)
        assert all(v == 0.0 for v in rows.values())

    def test_missing_velocity_exits_3(self, tmp_path):
        mesh = Mesh.uniform((8, 8))
        ds = DatasetContainer(("T",), mesh, np.zeros((1, 64, 1)), 1.0)
        path = tmp_path / "t.cdno"
        dataset_write(ds, path)
        rc = main(["spectrum", "--data", str(path)])
        assert rc == 3

    def test_malformed_container_exits_3(self, tmp_path):
        path = tmp_path / "bad.cdno"
        dataset_write(DatasetContainer(("u_x", "u_y"), Mesh.uniform((8, 8)),
                                       np.zeros((1, 64, 2)), 1.0), path)
        raw = path.read_bytes()
        # same byte count, so the header length prefix stays valid
        path.write_bytes(raw.replace(b'"shape": [1, 64, 2]',
                                     b'"shape": [-1,-64,2]'))
        rc = main(["spectrum", "--data", str(path)])
        assert rc == 3

    def test_dataset_header_without_mesh_exits_3(self, tmp_path, capsys):
        path = self.write_velocity(tmp_path, np.zeros(64), np.zeros(64), (8, 8))
        header, buffers = read_container(path)
        del header["mesh"]
        write_container(path, header, list(buffers.items()))
        rc = main(["spectrum", "--data", path])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert path in err and "'mesh." in err

    @pytest.mark.parametrize("buffer", ["snapshots", "points", "quad_weights"])
    def test_dataset_without_buffer_exits_3(self, tmp_path, capsys, buffer):
        """A dataset buffer missing from the container is a data error naming
        the file and the buffer, not a KeyError."""
        mesh = Mesh.irregular(np.random.default_rng(0).random((20, 2)),
                              extents=(1.0, 1.0))
        path = str(tmp_path / "cloud.cdno")
        dataset_write(DatasetContainer(("u_x", "u_y"), mesh,
                                       np.zeros((1, 20, 2)), 1.0), path)
        header, buffers = read_container(path)
        write_container(path, header, [(k, v) for k, v in buffers.items() if k != buffer])
        capsys.readouterr()
        rc = main(["spectrum", "--data", path])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert path in err and f"'{buffer}'" in err

    def test_writes_table_file(self, tmp_path, capsys):
        path = self.write_velocity(tmp_path, np.zeros(256), np.zeros(256),
                                   (16, 16))
        out = tmp_path / "o"
        rc = main(["spectrum", "--data", path, "--out", str(out)])
        assert rc == 0
        assert (out / "spectrum.txt").exists()


class TestGradcheck:

    def test_small_subset_passes(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0,proj.b1",
                   "--seed", "0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupt_group_fails_and_names_it(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0,proj.b1",
                   "--corrupt", "lift.b0", "--seed", "0"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "lift.b0: fail" in out

    def test_stale_parameter_name_exits_3(self, capsys):
        """A name from a former layout checks nothing, so it is refused."""
        rc = main(["gradcheck", "--include", "lift.b0,encoder.layer0.key.spec_re",
                   "--seed", "0"])
        assert rc == 3
        assert "'encoder.layer0.key.spec_re'" in capsys.readouterr().err

    def test_size_below_its_least_exits_3(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0", "--model.value_width", "0"])
        assert rc == 3
        assert "value_width must be at least 1" in capsys.readouterr().err

    def test_tol_zero_fails(self, capsys):
        rc = main(["gradcheck", "--include", "proj.b1", "--tol", "0",
                   "--seed", "0"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out
