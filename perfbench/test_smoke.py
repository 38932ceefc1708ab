"""Smoke runs of every benchmark workload at a tiny size.

Each run is traced, so it covers both the untraced measurement and the
traced pass, the correctness checks and the per-layer self-check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_traced_run(workload, tmp_path):
    proc = run_bench(HERE.parent, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", "1", "--size", "tiny",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = {k: v["unit"] for k, v in line["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    saved = json.loads(
        (tmp_path / f"{workload}-seed3-trace1.json").read_text())
    e2e = saved["end_to_end"]
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v, _ in e2e.values())
    assert (tmp_path / f"{workload}-seed3.spans.jsonl").stat().st_size > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "simulate", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_wrapped_functions():
    sys.path.insert(0, str(HERE))
    try:
        import tracing
    finally:
        sys.path.remove(str(HERE))
    before = [getattr(owner, attr) for owner, attr, _ in tracing.WRAPPED]
    with tracing.Tracer() as tracer:
        assert all(getattr(owner, attr) is not orig for (owner, attr, _), orig
                   in zip(tracing.WRAPPED, before))
    assert [getattr(owner, attr) for owner, attr, _ in tracing.WRAPPED] == before
    assert tracer.spans == []
