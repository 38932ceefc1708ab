"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload infer --seeds 1 2 3 4 5 --seconds 15

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json. Exits non-zero if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:20s} median {med:12.5g}  spread {(q3 - q1) / med:7.4f}"
              f"  bound {bounds.get(name, float('nan')):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
