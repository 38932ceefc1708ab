"""codano benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pretrain_grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the last stdout line carries the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced pass (see
README.md in this directory). Result files and span traces go to `--out`.
The exit code is 0 only when every operation succeeded and every
correctness check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pretrain_grid", "pretrain_cloud", "infer",
                            "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args, param_counts) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "codano"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted(src.glob("*.py"))),
        "param_count": param_counts,
    }


def config_param_counts(size) -> dict:
    import codano.model as cm
    from workloads import c09_config, param_count

    grid = c09_config(size, ("u_x", "u_y"), use_gno=False)
    cloud = c09_config(size, ("u_x", "u_y", "T"), use_gno=True,
                       vspe_variant="coord-mlp")
    ext, _ = cm.extend_variables(cm.init_params(grid), grid, ("T",))
    return {"grid": param_count(cm.init_params(grid)),
            "cloud": param_count(cm.init_params(cloud)),
            "grid_plus_T": param_count(ext)}


def run(args) -> dict:
    from workloads import SIZES, WORKLOADS, Ledger

    size = SIZES[args.size]
    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, size, workdir)
        ledger = Ledger()
        setup_s = wl.measure(ledger, args.seconds)
        e2e = {"setup_s": (statistics.median(setup_s), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"),
               **wl.end_to_end(ledger)}
        latency = {kind: ledger.quantiles_ms(kind)
                   for kind, t in ledger.times.items() if t}
        result = {"attempted": ledger.attempted, "failed": ledger.failed,
                  "problems": ledger.problems, "end_to_end": e2e,
                  "latency_ms": latency, "setup_runs_s": setup_s}
        if args.trace:
            traced(args, wl, result)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, wl, result) -> None:
    """Set up once more and repeat one fixed unit under the tracer."""
    from tracing import Tracer, expectation_problems, layer_metrics
    from workloads import Ledger, param_count

    tracer = Tracer()
    ledger = Ledger(tracer)
    with tracer:
        wl.setup(ledger)
        wl.traced_pass(ledger)
    per_layer = layer_metrics(tracer, wl.config.latent_width)
    n_params = param_count(wl.params)
    per_layer["model.param_count"] = (n_params, "count")
    per_layer["model.param_mb"] = (n_params * 8 / 1e6, "MB")
    per_layer["training.eval_rel_l2"] = (getattr(wl, "eval_rel_l2", 0.0), "1")
    # tracing overhead: the traced unit against the untraced median
    traced_e2e = wl.end_to_end(ledger)
    for op in ("primary", "secondary"):
        key = f"{op}_ms_mean"
        per_layer[f"trace.{op}_overhead_ms"] = (
            traced_e2e[key][0] - result["end_to_end"][key][0], "ms")
    unexpected = expectation_problems(args.workload, per_layer)
    result["attempted"] += ledger.attempted
    result["failed"] += ledger.failed + len(unexpected)
    result["problems"] += ledger.problems + unexpected
    result["per_layer"] = per_layer
    tracer.write(args.out / f"{args.workload}-seed{args.seed}.spans.jsonl")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codano" / "model.py").is_file():
        print(f"no codano sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SIZES
    result = run(args)
    result["env"] = environment(args, config_param_counts(SIZES[args.size]))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    line = {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps({**result, "result": line},
                                            indent=1, default=str))
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"env": result["env"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
