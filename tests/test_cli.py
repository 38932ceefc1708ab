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
from codano.errors import (CodanoError, FormatVersionError, FractionError, ShapeError,
                           TrainingStateError)
from codano.field import Mesh
from codano.model import ModelConfig, param_shapes
from codano.simdata import (DatasetContainer, SimConfig, dataset_read,
                            dataset_write, irregularize, read_container,
                            simulate_kolmogorov, write_container)
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

    @pytest.mark.parametrize("command, read, unread", [
        ("simulate", ["--sim.dt", "-1"], ["--model.n_heads", "7", "--plan.epochs", "9"]),
        ("pretrain", ["--model.n_heads", "7"], ["--sim.dt", "5"]),
        ("pretrain --resume", ["--mask.point_fraction", "0.1"], ["--model.n_heads", "7"]),
        ("finetune", ["--plan.epochs", "1"], ["--sim.dt", "5"]),
        ("eval", ["--mask.point_fraction", "0.1"], ["--sim.dt", "5"]),
        ("gradcheck", ["--model.n_heads", "0"], ["--plan.epochs", "9"]),
        ("spectrum", [], ["--plan.epochs", "9"]),
        ("finetune", ["--plan.epochs", "1"], ["--mask.point_fraction", "0.9"]),  # never masks
    ])
    def test_only_the_sections_a_command_reads(self, tmp_path, capsys, command, read,
                                                unread):
        """A section the command does not read, as an override or in the
        config file, exits 2 before any file is read or written; one it
        reads gets past that check (to a range check, exit 3, or to the
        missing input, exit 5)."""
        missing, out = str(tmp_path / "missing.cdno"), tmp_path / "o"
        argv = {"simulate": ["simulate", "--out", str(out)],
                "pretrain": ["pretrain", "--data", missing, "--out", str(out)],
                "pretrain --resume": ["pretrain", "--data", missing, "--out", str(out),
                                      "--resume", missing],
                "finetune": ["finetune", "--data", missing, "--checkpoint", missing,
                             "--out", str(out)],
                "eval": ["eval", "--data", missing, "--checkpoint", missing,
                         "--out", str(out)],
                "gradcheck": ["gradcheck", "--out", str(out)],
                "spectrum": ["spectrum", "--data", missing, "--out", str(out)]}[command]
        section, key = unread[0][2:].split(".")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: json.loads(unread[1])}}))
        config = [] if command == "spectrum" else ["--config", str(cfg)]
        for extra in (unread, config):
            if extra:
                capsys.readouterr()
                assert main(argv + extra) == 2, extra
                err = capsys.readouterr().err
                assert err.startswith("usage error:") and f"a {section} section" in err
                assert not out.exists()
        assert main(argv + read) == (3 if command in ("simulate", "gradcheck") else 5)
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("pretrain", "few_shot", "2"), ("pretrain", "delta", "2"),
        ("pretrain", "freeze_encoder", "true"),
        ("pretrain --resume", "few_shot", "2"), ("pretrain --resume", "delta", "2"),
        ("pretrain --resume", "freeze_encoder", "true"),
        ("eval", "epochs", "3"), ("eval", "learning_rate", "0.1"),
        ("eval", "freeze_encoder", "true"), ("eval", "clip_norm", "1.0"),
        ("eval", "target_eval_loss", "0.5"), ("eval", "few_shot", "2")])
    def test_plan_fields_a_command_does_not_read_exit_2(self, tmp_path, capsys, command,
                                                        field, value):
        """A plan field the command's code never reads, as an override or
        in the config file, beside fields it reads or not, exits 2 with one
        line naming it, before any file is read or written."""
        missing, out = str(tmp_path / "missing.cdno"), tmp_path / "o"
        argv = {"pretrain": ["pretrain", "--data", missing, "--out", str(out)],
                "pretrain --resume": ["pretrain", "--data", missing, "--out", str(out),
                                      "--resume", missing],
                "eval": ["eval", "--data", missing, "--checkpoint", missing,
                         "--out", str(out)]}[command]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"plan": {field: json.loads(value), "batch_size": 2}}))
        for extra in ([f"--plan.{field}", value], [f"--plan.{field}", value, "--plan.seed", "1"],
                      ["--config", str(cfg)]):
            capsys.readouterr()
            assert main(argv + extra) == 2, extra
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"does not read plan.{field}" in err, err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "pretrain --resume", "finetune", "eval"])
    def test_plan_fields_a_command_reads_pass(self, tmp_path, command):
        """Every field in the command's row of the table, from the file and
        as overrides, gets past the check to the missing input (exit 5);
        fine-tuning reads every plan field."""
        assert set(cli.PLAN_FIELDS["finetune"]) == cli._known_fields("plan")
        values = {"epochs": 1, "batch_size": 2, "learning_rate": 0.01, "clip_norm": 1.0,
                  "holdout_fraction": 0.4, "seed": 3, "eval_max_samples": 1,
                  "target_eval_loss": 0.5, "delta": 2, "few_shot": 1,
                  "freeze_encoder": True}
        missing, out = str(tmp_path / "missing.cdno"), tmp_path / "o"
        argv = {"pretrain": ["pretrain", "--data", missing, "--out", str(out)],
                "pretrain --resume": ["pretrain", "--data", missing, "--out", str(out),
                                      "--resume", missing],
                "finetune": ["finetune", "--data", missing, "--checkpoint", missing,
                             "--out", str(out)],
                "eval": ["eval", "--data", missing, "--checkpoint", missing,
                         "--out", str(out)]}[command]
        fields = cli.PLAN_FIELDS[command.split()[0]]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"plan": {f: values[f] for f in fields}}))
        overrides = [a for f in fields for a in (f"--plan.{f}", json.dumps(values[f]))]
        for extra in (["--config", str(cfg)], overrides):
            assert main(argv + extra) == 5, extra
            assert not out.exists()

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

    def test_config_records_the_blas_threads(self, tmp_path):
        """config.json carries the BLAS, the thread count of the run's
        products (one on numpy's bundled OpenBLAS) and the kernel family
        OpenBLAS loaded, within which alone bytes are promised."""
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--system", "kolmogorov",
                     "--n", "16", "--snapshots", "2", "--dt", "0.1"]) == 0
        blas = json.loads((out / "config.json").read_text())["blas"]
        assert blas == ad.blas_threads()
        assert blas.keys() == {"name", "threads", "kernel"}
        if blas["name"].startswith("scipy-openblas"):
            assert blas["threads"] == 1
            assert isinstance(blas["kernel"], str) and blas["kernel"], blas

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
        ["--sim.dt", "0"], ["--re", "0"], ["--dt", "-0.1"],
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
        ["--sim.nu", "abc"], ["--sim.seed", "-1"]])
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
        ["--mask.variable_fraction", "true"], ["--plan.epochs", "1.5"],
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

    @pytest.mark.parametrize("given", [
        {"override": ["--plan.mask", "3"]},
        {"override": ["--plan.mask", '{"point_fraction": 0.2}', "--mask.point_fraction", "0.5"]},
        {"file": {"plan": {"mask": {"point_fraction": 0.2}}},
         "override": ["--mask.variable_fraction", "0.3"]}])
    def test_plan_mask_exits_2(self, tmp_path, kolmo_data, capsys, given):
        """The mask is set only as the mask section: plan.mask, from the
        file or an override, beside a mask section or not, exits 2 with one
        line naming that section, before anything is written."""
        out, cfg = tmp_path / "run", tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": TINY_MODEL, **given.get("file", {})}))
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out), "--config", str(cfg),
                   "--epochs", "1", *given["override"]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "plan.mask is set only as the mask section" in err
        assert not out.exists()

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

    def test_resume_onto_fewer_snapshots_than_the_holdout_exits_3(
            self, tmp_path, tiny_config, kolmo_data, capsys):
        """Resuming onto a dataset that lacks a held-out snapshot of the
        checkpoint stops before any step with one line naming the index and
        the count, and writes no checkpoint."""
        half = tmp_path / "half"
        assert main(["pretrain", "--data", kolmo_data, "--out", str(half),
                     "--config", tiny_config, "--epochs", "1"]) == 0
        assert load_checkpoint(half / "checkpoint.cdno").holdout == (4,)
        ds = dataset_read(kolmo_data)
        short = tmp_path / "short.cdno"
        dataset_write(DatasetContainer(ds.variables, ds.mesh, ds.snapshots[:3], ds.dt),
                      short)
        capsys.readouterr()
        out = tmp_path / "resumed"
        rc = main(["pretrain", "--data", str(short), "--out", str(out),
                   "--resume", str(half / "checkpoint.cdno"), "--epochs", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert "snapshot 4 is beyond the dataset's 3 snapshots" in err
        assert not (out / "checkpoint.cdno").exists()

    @pytest.mark.parametrize("flag, rate", [(["--lr", "0.5"], 0.5), ([], 0.002)],
                             ids=["lr flag", "stored rate"])
    def test_resume_trains_at_the_rate_it_echoes(self, tmp_path, tiny_config, kolmo_data,
                                                 monkeypatch, flag, rate):
        """--lr sets a resumed run's rate; without it the checkpoint's Adam
        rate carries on. config.json echoes the rate every step used."""
        half = tmp_path / "half"
        assert main(["pretrain", "--data", kolmo_data, "--out", str(half),
                     "--config", tiny_config, "--epochs", "1", "--lr", "0.002",
                     "--batch-size", "2"]) == 0
        used = []
        real = ad.optimizer_step

        def recording(params, state):
            used.append(state.lr)
            real(params, state)

        monkeypatch.setattr(ad, "optimizer_step", recording)
        out = tmp_path / "resumed"
        assert main(["pretrain", "--data", kolmo_data, "--out", str(out),
                     "--resume", str(half / "checkpoint.cdno"), "--epochs", "2",
                     "--batch-size", "2", *flag]) == 0
        assert used and set(used) == {rate}
        assert json.loads((out / "config.json").read_text())["plan"]["learning_rate"] == rate
        assert load_checkpoint(out / "checkpoint.cdno").adam.lr == rate

    def test_token_split_exits_3(self, tmp_path, tiny_config, kolmo_data, capsys):
        """One token per variable: a checkpoint whose stored config splits a
        variable into tokens (token_width 2 of latent_width 4) is refused at
        load with one line naming token_width; a new model has no token
        width to set, so --model.token_width is an unknown key (exit 2)."""
        half = tmp_path / "half"
        assert main(["pretrain", "--data", kolmo_data, "--out", str(half),
                     "--config", tiny_config, "--epochs", "0"]) == 0
        header, buffers = read_container(half / "checkpoint.cdno")
        header["model_config"]["token_width"] = 2
        split = tmp_path / "split.cdno"
        write_container(split, header, list(buffers.items()))
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--resume", str(split), "--epochs", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert str(split) in err and "unknown token_width 2" in err
        assert not out.exists()
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--epochs", "0", "--model.token_width", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown config key model.token_width" in err, err
        assert not out.exists()

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

    @pytest.mark.parametrize("every", ["-1", "-2"])
    def test_negative_checkpoint_every_exits_3(self, every, tmp_path, tiny_config,
                                               kolmo_data, capsys):
        """One line naming the flag, no traceback, nothing written."""
        out = tmp_path / "run"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--config", tiny_config, "--epochs", "1", "--checkpoint-every", every])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: --checkpoint-every must be at least 0, got {every}"]
        assert not out.exists()


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

    def test_eval_binds_the_model_variables_the_dataset_holds(self, tmp_path,
                                                              tiny_config, kolmo_data,
                                                              capsys):
        """A model trained on a subset of a dataset's variables evaluates on
        that dataset; a dataset that holds none of them exits 3."""
        pre = tmp_path / "pre"
        assert main(["pretrain", "--data", kolmo_data, "--out", str(pre),
                     "--config", tiny_config, "--epochs", "0",
                     "--model.variables", '["u_x"]']) == 0
        ckpt = str(pre / "checkpoint.cdno")
        ev = tmp_path / "ev"
        assert main(["eval", "--data", kolmo_data, "--checkpoint", ckpt,
                     "--out", str(ev), "--seed", "0"]) == 0
        result = json.loads((ev / "eval.json").read_text())
        assert set(result["per_variable"]) == {"u_x"}
        ds = dataset_read(kolmo_data)
        only_u_y = tmp_path / "u_y.cdno"
        dataset_write(ds.select_variables(("u_y",)), only_u_y)
        capsys.readouterr()
        assert main(["eval", "--data", str(only_u_y), "--checkpoint", ckpt]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "none of" in err, err

    def test_query_resolution_on_an_irregular_dataset_exits_3(self, tmp_path, kolmo_data,
                                                              capsys, monkeypatch):
        """Its targets cannot be resampled from an irregular mesh: refused
        with one line naming the flag and the mesh, before any evaluation;
        without the flag the same dataset evaluates."""
        cloud = tmp_path / "cloud.cdno"
        dataset_write(irregularize(dataset_read(kolmo_data), 0.5, seed=0), cloud)
        cfg = tmp_path / "gno.json"
        cfg.write_text(json.dumps({"model": {**TINY_MODEL, "use_gno": True,
                                             "vspe_variant": "coord-mlp"}}))
        pre = tmp_path / "pre"
        assert main(["pretrain", "--data", str(cloud), "--out", str(pre),
                     "--config", str(cfg), "--epochs", "0"]) == 0
        argv = ["eval", "--data", str(cloud), "--checkpoint", str(pre / "checkpoint.cdno")]
        real = cli.evaluate_reconstruction
        monkeypatch.setattr(cli, "evaluate_reconstruction",
                            lambda *a, **k: pytest.fail("evaluated"))
        for task in ("reconstruction", "prediction", "auto"):
            capsys.readouterr()
            assert main(argv + ["--task", task, "--query-resolution", "32"]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--query-resolution" in err, err
            assert "irregular" in err and "cloud.cdno" in err
        monkeypatch.setattr(cli, "evaluate_reconstruction", real)
        assert main(argv) == 0

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

    @pytest.mark.parametrize("command, flag", [("finetune", "--checkpoint"),
                                               ("eval", "--checkpoint"),
                                               ("pretrain", "--resume")])
    def test_model_section_exits_2(self, tmp_path, tiny_config, kolmo_data,
                                   command, flag, capsys):
        """The model comes from the checkpoint, so a model section, from the
        config file or a dotted override, is refused before anything is
        read or written; --seed, which fills only plan.seed here, is not."""
        ckpt = self.pretrained(tmp_path, tiny_config, kolmo_data)
        out = tmp_path / "o"
        argv = [command, flag, ckpt, "--data", kolmo_data, "--out", str(out),
                "--seed", "0"]
        for section in (["--config", tiny_config], ["--model.n_heads", "7"]):
            capsys.readouterr()
            assert main(argv + section) == 2, section
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "model section" in err
            assert not out.exists()

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

    def test_erf_form_checkpoint_exits_3(self, tmp_path, tiny_config, kolmo_data,
                                         capsys):
        """A checkpoint trained under the erf GELU (activation "gelu")
        computes another function than the tanh form; it is refused at load
        with one line naming the activation."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        assert "activation" not in header["model_config"]
        header["model_config"]["activation"] = "gelu"
        path = tmp_path / "erf.cdno"
        write_container(path, header, list(buffers.items()))
        with pytest.raises(FormatVersionError, match="activation 'gelu'"):
            load_checkpoint(path)
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(path) in err and "activation 'gelu'" in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("key, value", [("token_width", 3), ("kind", "fno")])
    def test_retired_key_at_another_value_exits_3(self, tmp_path, tiny_config,
                                                  kolmo_data, key, value, capsys):
        """A stored config may carry a retired key only at the one value it
        could hold; any other is refused at load with one line naming it
        (`activation` in test_erf_form_checkpoint_exits_3)."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        header["model_config"][key] = value
        path = tmp_path / "retired.cdno"
        write_container(path, header, list(buffers.items()))
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(path) in err and f"unknown {key} {value!r}" in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("stored", [5, "codano", [1, 2], None])
    def test_model_config_not_an_object_exits_3(self, tmp_path, tiny_config,
                                                kolmo_data, stored, capsys):
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        header["model_config"] = stored
        path = tmp_path / "edited.cdno"
        write_container(path, header, list(buffers.items()))
        capsys.readouterr()
        rc = main(["eval", "--data", kolmo_data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert str(path) in err and "model_config" in err

    @pytest.mark.parametrize("key, value", [
        ("lr", "abc"), ("lr", 0.0), ("beta1", 1.0), ("beta2", -0.1),
        ("eps", float("nan")), ("step", -1), ("step", 2.5)])
    def test_malformed_adam_state_exits_3(self, tmp_path, tiny_config, kolmo_data,
                                          key, value, capsys):
        """Adam's settings from a checkpoint header take the settings check at
        load, so a resumed run exits 3 before it writes anything, rather
        than failing in its first optimizer step."""
        header, buffers = read_container(
            self.pretrained(tmp_path, tiny_config, kolmo_data))
        header["adam"][key] = value
        path = tmp_path / "adam.cdno"
        write_container(path, header, list(buffers.items()))
        with pytest.raises(TrainingStateError, match=rf"adam\.{key} must be "):
            load_checkpoint(path)
        capsys.readouterr()
        out = tmp_path / "resumed"
        rc = main(["pretrain", "--data", kolmo_data, "--out", str(out),
                   "--resume", str(path), "--epochs", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err and key in err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--config", "c.json")])
    def test_seed_and_config_flags_exit_2(self, tmp_path, capsys, flag, value):
        """spectrum reads no seed and no config file, so it takes neither flag."""
        path = self.write_velocity(tmp_path, np.zeros(256), np.zeros(256), (16, 16))
        out = tmp_path / "o"
        rc = main(["spectrum", "--data", path, flag, value, "--out", str(out)])
        assert rc == 2
        assert f"unrecognized argument '{flag}'" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:

    def test_small_subset_passes(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0,proj.b1",
                   "--seed", "0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupt_group_fails_and_names_it(self, monkeypatch, capsys):
        real_backward = ad.backward

        def corrupting_backward(out, params=None):
            real_backward(out, params)
            g = params["lift.b0"].grad
            params["lift.b0"].grad = g + 1.0 + np.abs(g)

        monkeypatch.setattr(ad, "backward", corrupting_backward)
        rc = main(["gradcheck", "--include", "lift.b0,proj.b1", "--seed", "0"])
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

    def test_three_axis_latent_resolution_exits_3(self, capsys):
        """The model is two-dimensional: a third latent axis is refused as
        the config is built, naming the setting."""
        rc = main(["gradcheck", "--include", "lift.b0",
                   "--model.latent_resolution", "[8,8,8]"])
        assert rc == 3
        assert "latent_resolution must be a list of 2" in capsys.readouterr().err

    def test_size_below_its_least_exits_3(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0", "--model.value_width", "0"])
        assert rc == 3
        assert "value_width must be at least 1" in capsys.readouterr().err

    def test_tol_zero_fails(self, capsys):
        rc = main(["gradcheck", "--include", "proj.b1", "--tol", "0",
                   "--seed", "0"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value,words", [
        ("--step", "0", "finite and greater than 0"),
        ("--step", "-0.5", "finite and greater than 0"),
        ("--step", "nan", "finite and greater than 0"),
        ("--tol", "-1", "finite and at least 0"),
        ("--tol", "inf", "finite and at least 0")])
    def test_out_of_range_flag_exits_3(self, flag, value, words, tmp_path, capsys):
        """One line naming the flag, no traceback, before any model is
        built or output written."""
        out = tmp_path / "o"
        rc = main(["gradcheck", "--include", "proj.b1", flag, value, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {flag} must be {words}, got {float(value)}"]
        assert not out.exists()


class TestFloatFlagValues:
    """After a float flag, a token that parses as a float is its value, a
    negative one in exponent form too, which argparse alone reads as an
    option (exit 2, "expected one argument"): it reaches the range check."""

    @pytest.mark.parametrize("args,line", [
        (["gradcheck", "--include", "proj.b1", "--step", "-1e-6"],
         "error: --step must be finite and greater than 0, got -1e-06"),
        (["gradcheck", "--include", "proj.b1", "--tol", "-1e-3"],
         "error: --tol must be finite and at least 0, got -0.001"),
        (["simulate", "--system", "kolmogorov", "--n", "16", "--dt", "-1e-3"],
         "error: dt must be finite and greater than 0, got -0.001")])
    def test_negative_exponent_value_exits_3(self, args, line, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_every_float_flag_is_joined(self):
        cli.build_parser()
        assert cli.FLOAT_FLAGS == {"--re", "--dt", "--warmup", "--keep-fraction", "--lr",
                                   "--holdout", "--tol", "--step"}
        assert cli._join_float_values(["x", "--tol", "-1e-3", "--out", "-1e-3"]) == [
            "x", "--tol=-1e-3", "--out", "-1e-3"]
        for flag in cli.FLOAT_FLAGS:
            assert cli._join_float_values([flag, "-2E+1"]) == [f"{flag}=-2E+1"]


MISSING = object()  # an edit that deletes the entry
EDITS = [MISSING, 5, "x", None, [], {}, -3]


def edit_name(value):
    return "missing" if value is MISSING else json.dumps(value)


@pytest.fixture(scope="module")
def stored_files(tmp_path_factory):
    """A tiny dataset, the tiny config and a checkpoint pretrained on them."""
    tmp = tmp_path_factory.mktemp("stored")
    config = tmp / "tiny.json"
    config.write_text(json.dumps({"model": TINY_MODEL}))
    data = tmp / "kolmo.cdno"
    dataset_write(simulate_kolmogorov(SimConfig(resolution=16, dt=0.2, snapshots=5,
                                                warmup=0.3, seed=2)), data)
    assert main(["pretrain", "--data", str(data), "--out", str(tmp / "pre"),
                 "--config", str(config), "--epochs", "1", "--seed", "0"]) == 0
    return {"dataset": str(data), "config": str(config),
            "checkpoint": str(tmp / "pre" / "checkpoint.cdno")}


class TestHeaderEdits:
    """Each header entry of a stored checkpoint or dataset, replaced by each
    of 7 values (or deleted), under every command that reads the file: the
    run exits 3 with one line naming the file and the entry, or exits 0 for
    an edit that leaves a valid file. No edit ends in a traceback."""

    HARMLESS = {("frozen", "missing"), ("frozen", "[]"), ("holdout", "missing"),
                ("holdout", "[]"), ("history", "missing"), ("history", "[]"),
                ("epoch", "5"), ("adam.lr", "5"), ("adam.eps", "5"), ("adam.step", "5"),
                *(("plan", edit_name(v)) for v in EDITS),
                ("dt", "5"), ("provenance", "missing"), ("provenance", "{}")}

    def commands(self, stored, kind, path, out):
        if kind == "checkpoint":
            return [["pretrain", "--data", stored["dataset"], "--out", f"{out}-resumed",
                     "--resume", path, "--epochs", "2"],
                    ["eval", "--data", stored["dataset"], "--checkpoint", path,
                     "--out", f"{out}-eval"]]
        return [["eval", "--data", path, "--checkpoint", stored["checkpoint"],
                 "--out", f"{out}-eval"],
                ["spectrum", "--data", path],
                ["pretrain", "--data", path, "--out", f"{out}-pretrained",
                 "--config", stored["config"], "--epochs", "1"]]

    @pytest.mark.parametrize("kind, entry", [
        *(("checkpoint", e) for e in ("kind", "model_config", "epoch", "holdout",
                                      "history", "frozen", "adam.lr", "adam.beta1",
                                      "adam.beta2", "adam.eps", "adam.step",
                                      "rng_state", "plan")),
        *(("dataset", e) for e in ("kind", "variables", "dt", "provenance", "mesh",
                                   "mesh.kind", "mesh.extents", "mesh.resolution"))])
    def test_each_edit_exits_3_or_loads(self, stored_files, tmp_path, kind, entry,
                                        capsys):
        header, buffers = read_container(stored_files[kind])
        for k, value in enumerate(EDITS):
            edited = json.loads(json.dumps(header))
            *outer, last = entry.split(".")
            node = edited
            for part in outer:
                node = node[part]
            if value is MISSING:
                del node[last]
            else:
                node[last] = value
            path = str(tmp_path / f"edit{k}.cdno")
            write_container(path, edited, list(buffers.items()))
            harmless = (entry, edit_name(value)) in self.HARMLESS
            for argv in self.commands(stored_files, kind, path, tmp_path / f"out{k}"):
                capsys.readouterr()
                rc = main(argv)
                err = capsys.readouterr().err
                case = f"{entry} = {edit_name(value)}, {argv[0]}: {err}"
                if harmless:
                    assert rc == 0, case
                else:
                    assert rc == 3 and err.count("\n") == 1, case
                    assert path in err and last in err, case

    def test_repeated_variable_names_exit_3(self, stored_files, tmp_path, capsys):
        """A dataset header whose variables repeat a name is refused as the
        file is read, under every command that reads a dataset."""
        header, buffers = read_container(stored_files["dataset"])
        path = str(tmp_path / "twice.cdno")
        write_container(path, {**header, "variables": ["u_x", "u_x"]}, list(buffers.items()))
        for argv in self.commands(stored_files, "dataset", path, tmp_path / "out"):
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 3 and err.count("\n") == 1 and path in err, f"{argv[0]}: {err}"
            assert "repeat a name" in err, f"{argv[0]}: {err}"
