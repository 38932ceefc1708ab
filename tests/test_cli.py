"""End-to-end command-line runs, config plumbing, and exit codes."""

import json

import numpy as np
import pytest

from codano import autodiff as ad
from codano import cli
from codano.cli import main
from codano.field import Mesh
from codano.simdata import (DatasetContainer, SimConfig, dataset_read,
                            dataset_write, simulate_kolmogorov)
from codano.training import (TrainPlan, load_checkpoint, reconstruction_splits,
                             save_checkpoint)

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
        assert "vspe.u_x.re" in state.params
        records = [m for m in read_metrics(out) if "epoch" in m]
        assert [r["epoch"] for r in records] == [0, 1]
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["mask"]["variable_fraction"] == 0.6

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

    def per_head_checkpoint(self, tmp_path, tiny_config, kolmo_data):
        """A checkpoint in the former layout, one key, query and value block
        per head (<layer>.head<h>.key.*)."""
        state = load_checkpoint(self.pretrained(tmp_path, tiny_config, kolmo_data))
        widths = {"key": TINY_MODEL["key_width"], "query": TINY_MODEL["key_width"],
                  "value": TINY_MODEL["value_width"]}
        old = ad.ParamStore()
        for name, t in state.params.items():
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
        assert "'encoder.layer0.key.spec_re'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_per_head_checkpoint_refused_before_data(self, tmp_path, tiny_config,
                                                     kolmo_data, command):
        """The layout is checked at load, before the dataset is read: a
        missing --data file would exit 5."""
        path = self.per_head_checkpoint(tmp_path, tiny_config, kolmo_data)
        rc = main([command, "--data", str(tmp_path / "missing.cdno"),
                   "--checkpoint", path, "--out", str(tmp_path / "o")])
        assert rc == 3

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

    def test_size_below_its_least_exits_3(self, capsys):
        rc = main(["gradcheck", "--include", "lift.b0", "--model.value_width", "0"])
        assert rc == 3
        assert "value_width must be at least 1" in capsys.readouterr().err

    def test_tol_zero_fails(self, capsys):
        rc = main(["gradcheck", "--include", "proj.b1", "--tol", "0",
                   "--seed", "0"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out
