"""Command-line entry points: simulate, pretrain, finetune, eval, spectrum,
gradcheck.

Configuration comes from an optional JSON file (--config) with sections
"model", "plan", "sim", "mask", merged with dotted-path overrides such as
`--mask.variable_fraction 0.3` and the dedicated flags of each subcommand
(most specific wins: file < --seed < dedicated flags < dotted overrides).
Unknown sections or keys are rejected. Every command that owns an output
directory echoes its fully resolved configuration to config.json there and
appends line-delimited JSON records to metrics.jsonl; variable binding
between checkpoints and datasets is strictly by name.

Exit codes: 0 success, 2 usage, 3 data/schema or any setting of the wrong
type or out of range (each section's dataclass checks its fields as it is
built), 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields as dc_fields, is_dataclass

import numpy as np

from . import autodiff as ad
from .errors import (CodanoError, DataError, DatasetSchemaError, NumericError,
                     StabilityError, UsageError)
from .field import Mesh, radial_energy_spectrum, random_band_limited
from .model import (ModelConfig, extend_variables, has_predictor, init_params,
                    model_forward)
from .simdata import (RB_PRESETS, SimConfig, dataset_read, dataset_write,
                      irregularize, simulate_kolmogorov,
                      simulate_rayleigh_benard)
from .training import (MaskSpec, TrainPlan, evaluate_prediction,
                       evaluate_reconstruction, finetune, fresh_state,
                       load_checkpoint, prediction_splits, pretrain,
                       reconstruction_splits, save_checkpoint)

SECTIONS = {"model": ModelConfig, "plan": TrainPlan, "sim": SimConfig,
            "mask": MaskSpec}


# -- configuration plumbing ---------------------------------------------------


def _known_fields(section: str) -> set:
    return {f.name for f in dc_fields(SECTIONS[section])}


def _check_key(section: str, key: str) -> None:
    if section not in SECTIONS:
        raise UsageError(f"unknown config section {section!r} "
                         f"(expected one of {sorted(SECTIONS)})")
    if key not in _known_fields(section):
        raise UsageError(f"unknown config key {section}.{key} "
                         f"(known: {sorted(_known_fields(section))})")


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            body = json.load(f)
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(body, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for section, entries in body.items():
        if section not in SECTIONS:
            raise UsageError(f"unknown config section {section!r} in {path}")
        if not isinstance(entries, dict):
            raise UsageError(f"config section {section!r} must be an object")
        for key in entries:
            _check_key(section, key)
    return body


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_overrides(extras) -> dict:
    """Turn leftover `--section.key value` (or =value) args into sections."""
    out: dict = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or "." not in tok:
            raise UsageError(f"unrecognized argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extras):
                raise UsageError(f"override {tok!r} is missing a value")
            raw = extras[i + 1]
            i += 2
        if "." not in key:
            raise UsageError(f"override {tok!r} needs a section.key path")
        section, field = key.split(".", 1)
        _check_key(section, field)
        out.setdefault(section, {})[field] = _parse_value(raw)
    return out


def resolve_sections(args, flag_layers=None) -> dict:
    """Merge config file, --seed, dedicated flags, and dotted overrides."""
    sections: dict = {}
    if getattr(args, "config", None):
        for sec, entries in load_config_file(args.config).items():
            sections.setdefault(sec, {}).update(entries)
    if getattr(args, "seed", None) is not None:
        for sec in ("model", "plan", "sim"):
            sections.setdefault(sec, {})["seed"] = args.seed
    for sec, entries in (flag_layers or {}).items():
        sections.setdefault(sec, {}).update(entries)
    for sec, entries in getattr(args, "overrides", {}).items():
        sections.setdefault(sec, {}).update(entries)
    return sections


PLAN_FLAGS = ("epochs", "batch_size", "learning_rate", "few_shot", "delta",
              "holdout_fraction", "freeze_encoder")


def _given(args, names) -> dict:
    """The dedicated flags given, by setting name (each flag's dest)."""
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def build_plan(sections) -> TrainPlan:
    body = dict(sections.get("plan", {}))
    if sections.get("mask"):
        body["mask"] = sections["mask"]
    return TrainPlan(**body)


def echo_config(out_dir, command, built: dict) -> None:
    payload = {"command": command}
    for name, obj in built.items():
        payload[name] = asdict(obj) if is_dataclass(obj) else obj
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


class MetricsLog:
    """Appends one JSON record per line; epoch records also go to stdout."""

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None

    def __call__(self, record: dict) -> None:
        if self.path:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        if "epoch" in record:
            train = record.get("train_loss")
            train_txt = "--" if train is None else f"{train:.6f}"
            print(f"{record.get('phase', '?')} epoch {record['epoch']:>4} "
                  f"train {train_txt}  eval {record['eval_loss']:.6f}")


def print_table(title: str, rows) -> None:
    print(title)
    width = max((len(str(k)) for k, _ in rows), default=4)
    for key, value in rows:
        if isinstance(value, float):
            value = f"{value:.6f}"
        print(f"  {str(key):<{width}}  {value}")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# -- subcommands ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    sim = _given(args, ("system", "re", "resolution", "forcing_n", "snapshots",
                        "dt", "warmup"))
    if args.preset is not None:
        if args.preset not in RB_PRESETS:
            raise UsageError(f"unknown preset {args.preset!r} "
                             f"(known: {sorted(RB_PRESETS)})")
        sim = {"system": "rayleigh-benard", **RB_PRESETS[args.preset], **sim}
    cfg = SimConfig(**resolve_sections(args, {"sim": sim}).get("sim", {}))

    if cfg.system == "kolmogorov":
        ds = simulate_kolmogorov(cfg)
    else:
        ds = simulate_rayleigh_benard(cfg)
    if args.keep_fraction is not None:
        ds = irregularize(ds, args.keep_fraction, seed=cfg.seed)

    out = _ensure_out(args)
    path = os.path.join(out, "dataset.cdno")
    dataset_write(ds, path)
    echo_config(out, "simulate", {"sim": cfg})
    log = MetricsLog(out)
    summary = {"event": "simulate", "system": cfg.system,
               "variables": list(ds.variables),
               "snapshots": ds.n_snapshots,
               "points": ds.mesh.n_points,
               "max_abs_value": float(np.abs(ds.snapshots).max()),
               "path": path}
    log(summary)
    print_table("dataset written:", [
        ("path", path), ("system", cfg.system),
        ("variables", ", ".join(ds.variables)),
        ("snapshots", str(ds.n_snapshots)),
        ("points", str(ds.mesh.n_points)),
        ("max |value|", summary["max_abs_value"]),
    ])
    return 0


def cmd_pretrain(args) -> int:
    ds_full = dataset_read(args.data)
    sections = resolve_sections(args, {"plan": _given(args, PLAN_FLAGS)})
    plan = build_plan(sections)

    if args.resume:
        state = load_checkpoint(args.resume)
        config = state.config
    else:
        state = None
        config = ModelConfig(**{"variables": ds_full.variables,
                                **sections.get("model", {})})
    missing = [v for v in config.variables if v not in ds_full.variables]
    if missing:
        raise DatasetSchemaError(
            f"dataset at {args.data} lacks model variables {missing} "
            f"(dataset has {list(ds_full.variables)})")
    ds = ds_full.select_variables(config.variables)

    out = _ensure_out(args)
    echo_config(out, "pretrain",
                {"model": config, "plan": plan, "mask": plan.mask,
                 "resumed_from": args.resume, "data": args.data})
    log = MetricsLog(out)
    ckpt = os.path.join(out, "checkpoint.cdno")

    if state is None:
        state = fresh_state(init_params(config), config, plan)
    start, every = state.epoch, args.checkpoint_every

    def log_and_save(record):
        log(record)
        if every and record["epoch"] > start and \
                (record["epoch"] - start) % every == 0:
            save_checkpoint(ckpt, state, plan)

    if state.epoch < plan.epochs:  # a finished run is saved as it is, unevaluated
        pretrain(None, None, ds, plan, log=log_and_save, state=state)
    save_checkpoint(ckpt, state, plan)

    last = state.history[-1] if state.history else {}
    rows = [("checkpoint", ckpt), ("epochs", str(state.epoch)),
            ("eval loss", last.get("eval_loss", float("nan")))]
    rows += [(f"eval {k}", v)
             for k, v in last.get("eval_per_variable", {}).items()]
    print_table("pretraining finished:", rows)
    return 0


def _grouped(names) -> list:
    groups: dict = {}
    for n in sorted(names):
        key = n.split(".", 1)[0]
        if key == "vspe":
            key = ".".join(n.split(".")[:2])
        groups[key] = groups.get(key, 0) + 1
    return [f"{k} ({v} tensors)" for k, v in sorted(groups.items())]


def cmd_finetune(args) -> int:
    state0 = load_checkpoint(args.checkpoint)
    params, config = state0.params, state0.config
    ds_full = dataset_read(args.data)
    sections = resolve_sections(args, {"plan": _given(args, PLAN_FLAGS)})
    plan = build_plan(sections)

    new_vars = [v for v in ds_full.variables if v not in config.variables]
    prev_names = set(params.names())
    if new_vars or not has_predictor(params, config):
        params, config = extend_variables(params, config, new_vars,
                                          seed=plan.seed)
    added = sorted(set(params.names()) - prev_names)
    removed = sorted(prev_names - set(params.names()))

    order = [v for v in config.variables if v in ds_full.variables]
    ds = ds_full.select_variables(order)

    out = _ensure_out(args)
    echo_config(out, "finetune",
                {"model": config, "plan": plan, "mask": plan.mask,
                 "checkpoint": args.checkpoint, "data": args.data})
    log = MetricsLog(out)
    log({"event": "extension", "new_variables": new_vars,
         "added_parameters": added, "removed_parameters": removed})
    if added or removed:
        print_table("parameter diff vs checkpoint:", [
            ("new variables", ", ".join(new_vars) or "(none)"),
            ("added", ", ".join(_grouped(added)) or "(none)"),
            ("removed", ", ".join(_grouped(removed)) or "(none)"),
        ])

    state = fresh_state(params, config, plan)
    state = finetune(None, None, ds, plan, log=log, state=state)
    ckpt = os.path.join(out, "checkpoint.cdno")
    save_checkpoint(ckpt, state, plan)

    last = state.history[-1]
    rows = [("checkpoint", ckpt), ("epochs", str(state.epoch)),
            ("frozen encoder", str(plan.freeze_encoder)),
            ("eval loss", last["eval_loss"])]
    rows += [(f"eval {k}", v) for k, v in last["eval_per_variable"].items()]
    print_table("finetuning finished:", rows)
    return 0


def _parse_resolution(text: str):
    """argparse type of --query-resolution: N or NXxNY, positive integers."""
    try:
        res = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        res = ()
    if len(res) not in (1, 2) or min(res) < 1:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r} (want N or NXxNY)")
    return res if len(res) > 1 else (res[0], res[0])


def cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    params, config = state.params, state.config
    ds_full = dataset_read(args.data)
    sections = resolve_sections(args, {"plan": _given(args, PLAN_FLAGS)})
    plan = build_plan(sections)

    unknown = [v for v in ds_full.variables if v not in config.variables]
    if unknown:
        raise DatasetSchemaError(
            f"dataset variables {unknown} are not registered in the "
            f"checkpoint (model has {list(config.variables)})")
    order = [v for v in config.variables if v in ds_full.variables]
    ds = ds_full.select_variables(order)

    task = args.task
    if task == "auto":
        task = "prediction" if has_predictor(params, config) else "reconstruction"
    query_mesh = None
    if args.query_resolution is not None:
        query_mesh = Mesh.uniform(args.query_resolution, extents=ds.mesh.extents)

    if task == "prediction":
        _, hold_pairs = prediction_splits(ds.n_snapshots, plan)
        report = evaluate_prediction(params, config, ds, plan, hold_pairs,
                                     query_mesh=query_mesh)
    else:
        _, hold_idx = reconstruction_splits(ds.n_snapshots, plan)
        report = evaluate_reconstruction(params, config, ds, plan, hold_idx,
                                         query_mesh=query_mesh)

    result = {"event": "eval", "task": task, "holdout_samples": report.samples,
              "query_resolution": list(query_mesh.resolution) if query_mesh
              else list(getattr(ds.mesh, "resolution", ()) or ()),
              "relative_l2": report.overall,
              "per_variable": report.per_variable,
              "absolute_fallback": report.absolute_fallback}
    if args.out:
        out = _ensure_out(args)
        echo_config(out, "eval", {"model": config, "plan": plan,
                                  "mask": plan.mask,
                                  "checkpoint": args.checkpoint,
                                  "data": args.data})
        MetricsLog(out)(result)
        with open(os.path.join(out, "eval.json"), "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
    rows = [("task", task), ("holdout samples", str(report.samples)),
            ("relative_l2", report.overall)]
    rows += [(k, v) for k, v in report.per_variable.items()]
    print_table("evaluation:", rows)
    return 0


def cmd_spectrum(args) -> int:
    ds = dataset_read(args.data)
    missing = [v for v in ("u_x", "u_y") if v not in ds.variables]
    if missing:
        raise DatasetSchemaError(
            f"spectrum needs velocity variables u_x, u_y; dataset lacks "
            f"{missing}")
    index = args.snapshot if args.snapshot >= 0 else ds.n_snapshots + args.snapshot
    if not 0 <= index < ds.n_snapshots:
        raise UsageError(f"snapshot {args.snapshot} out of range "
                         f"(dataset has {ds.n_snapshots})")
    f = ds.function(index).select(("u_x", "u_y"))
    spec = radial_energy_spectrum(f)
    physical = 0.5 * float(f.mesh.quad_weights @ (f.values ** 2).sum(axis=1))
    if abs(spec.total_energy - physical) > 1e-8 * max(physical, 1e-300):
        raise NumericError(
            f"spectrum bins sum to {spec.total_energy!r} but the quadrature "
            f"energy is {physical!r} (Parseval violated)")

    # table holds the per-mode density, so uncorrelated noise reads as flat
    density = spec.energy / np.maximum(spec.mode_count, 1)
    lines = [f"{int(k):d} {e:.12e}" for k, e in zip(spec.k, density)]
    print("k E(k)")
    for line in lines:
        print(line)
    if args.out:
        out = _ensure_out(args)
        with open(os.path.join(out, "spectrum.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        MetricsLog(out)({"event": "spectrum", "snapshot": index,
                         "total_energy": spec.total_energy})
    return 0


GRADCHECK_DEFAULTS = dict(variables=("u", "v"), embed_dim=2, latent_width=4,
                          n_heads=2, key_width=3, value_width=3, modes=1,
                          encoder_layers=1, reconstructor_layers=1,
                          predictor_layers=1, latent_resolution=(8, 8),
                          vspe_modes=1, gno_hidden=(4,))


def cmd_gradcheck(args) -> int:
    sections = resolve_sections(args)
    config = ModelConfig(**{**GRADCHECK_DEFAULTS, **sections.get("model", {})})
    params = init_params(config)

    rng = np.random.default_rng(config.seed)
    mesh = Mesh.uniform((16, 16))
    a = random_band_limited(mesh, modes=2, channels=len(config.variables),
                            rng=rng, names=config.variables)
    coeff = rng.standard_normal((mesh.n_points, len(config.variables)))

    def loss_fn():
        out = model_forward(params, config, a)
        return ad.tsum(out * coeff)

    include = args.include.split(",") if args.include else None
    report = ad.grad_check(loss_fn, params, tol=args.tol, step=args.step,
                           include=include, corrupt=args.corrupt)
    for line in report.summary_lines():
        print(line)
    if args.out:
        out = _ensure_out(args)
        echo_config(out, "gradcheck", {"model": config})
        MetricsLog(out)({"event": "gradcheck", "passed": report.passed,
                         "max_rel_err": report.max_rel_err,
                         "worst_group": report.worst_group})
    return 0 if report.passed else 4


# -- argument parsing -------------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file with sections "
                   "model/plan/sim/mask")
    p.add_argument("--seed", type=int, help="seed applied to every section")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--holdout", type=float, dest="holdout_fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codano",
        description="Function-space attention across physical variables: "
        "data generation, self-supervised pretraining, few-shot transfer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a PDE dataset")
    _add_shared(p)
    p.add_argument("--out", required=True)
    p.add_argument("--system", choices=["kolmogorov", "rayleigh-benard"])
    p.add_argument("--re", type=float)
    p.add_argument("--n", type=int, dest="resolution",
                   help="grid resolution per axis")
    p.add_argument("--forcing-n", type=int, dest="forcing_n")
    p.add_argument("--snapshots", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--warmup", type=float)
    p.add_argument("--preset", help="rayleigh-benard presets: "
                   + ", ".join(sorted(RB_PRESETS)))
    p.add_argument("--keep-fraction", type=float, dest="keep_fraction",
                   help="subsample to an irregular point cloud")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    _add_shared(p)
    _add_train_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   dest="checkpoint_every")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="few-shot supervised fine-tuning")
    _add_shared(p)
    _add_train_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--few-shot", type=int, dest="few_shot")
    p.add_argument("--delta", type=int)
    p.add_argument("--freeze-encoder", action="store_true", default=None,
                   dest="freeze_encoder")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="held-out metrics, optional "
                       "super-resolution query")
    _add_shared(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.add_argument("--task", choices=["auto", "reconstruction", "prediction"],
                   default="auto")
    p.add_argument("--holdout", type=float, dest="holdout_fraction")
    p.add_argument("--delta", type=int)
    p.add_argument("--query-resolution", dest="query_resolution",
                   type=_parse_resolution, help="evaluate on an N or NXxNY grid")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spectrum", help="radially binned energy spectrum")
    _add_shared(p)
    p.add_argument("--data", required=True)
    p.add_argument("--snapshot", type=int, default=-1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_shared(p)
    p.add_argument("--out")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--include", help="comma-separated parameter names")
    p.add_argument("--corrupt", help="perturb one parameter's gradient "
                   "(checker self-test)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        args.overrides = parse_overrides(extras)  # usage errors before any file i/o
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (NumericError, StabilityError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 5
    except CodanoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
