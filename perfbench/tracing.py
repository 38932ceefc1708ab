"""Span tracer that wraps codano's public functions from outside the package.

A span is recorded around every call of a wrapped function: its name, start,
end, the span that was open when it began (its parent) and the operation id
the benchmark is running (a training epoch, a request, a simulation cycle,
or "setup"). Spans stay in memory until the run writes them out.

Functions are wrapped where they are looked up. `codano.model` and
`codano.training` bind several functions at import (`from .gno import
build_neighbors`), so those names are patched in the importing module, not
in the module that defines them.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

import codano.autodiff
import codano.gno
import codano.model
import codano.simdata
import codano.spectral
import codano.training

# The six measured layers, named after the package modules.
LAYERS = ("autodiff", "spectral", "gno", "model", "training", "simdata")

# (object holding the name, attribute, span name); one span name may be
# patched at several lookup sites.
WRAPPED = (
    (codano.autodiff, "backward", "autodiff.backward"),
    (codano.autodiff, "einsum2", "autodiff.einsum2"),
    (codano.autodiff, "fftn", "autodiff.fft"),
    (codano.autodiff, "ifftn", "autodiff.fft"),
    (codano.autodiff, "sparse_matmul", "autodiff.sparse_matmul"),
    (codano.autodiff, "clip_grad_norm", "autodiff.clip"),
    (codano.autodiff, "optimizer_step", "autodiff.adam"),
    (codano.spectral.FnoBlock, "__call__", "spectral.fno_block"),
    (codano.spectral.PointwiseOp, "__call__", "spectral.pointwise"),
    (codano.model, "spectral_resample", "spectral.resample"),
    (codano.model, "build_neighbors", "gno.build_neighbors"),
    (codano.model, "gno_set_apply", "gno.set_apply"),
    (codano.gno.KernelNet, "matrices", "gno.kernel_matrices"),
    (codano.training, "nearest_neighbor_spacing", "gno.nn_spacing"),
    (codano.model, "model_forward", "model.forward"),
    (codano.training, "model_forward", "model.forward"),
    (codano.model, "predict", "model.predict"),
    (codano.training, "predict", "model.predict"),
    (codano.model.CodanoLayer, "attention", "model.attention"),
    (codano.model, "normalize", "model.normalize"),
    (codano.model.Vspe, "evaluate", "model.vspe"),
    (codano.training, "pretrain", "training.pretrain"),
    (codano.training, "evaluate_reconstruction", "training.eval"),
    (codano.training, "loss_relative_l2", "training.loss"),
    (codano.training, "apply_mask", "training.apply_mask"),
    (codano.training, "save_checkpoint", "training.checkpoint_save"),
    (codano.training, "load_checkpoint", "training.checkpoint_load"),
    (codano.simdata, "simulate_kolmogorov", "simdata.kolmogorov"),
    (codano.simdata, "simulate_rayleigh_benard", "simdata.rb"),
    (codano.simdata, "irregularize", "simdata.irregularize"),
    (scipy.linalg, "solve_banded", "simdata.solve_banded"),
    (codano.simdata, "write_container", "simdata.container_write"),
    (codano.training, "write_container", "simdata.container_write"),
    (codano.simdata, "read_container", "simdata.container_read"),
    (codano.training, "read_container", "simdata.container_read"),
    (codano.simdata, "dataset_write", "simdata.dataset_write"),
    (codano.simdata, "dataset_read", "simdata.dataset_read"),
)


def tape_nodes(loss) -> int:
    """Tape nodes reachable from a loss, counted before backward frees them."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Installs span wrappers, records spans and counts, restores on close."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.op = "setup"
        self.counts: dict[str, float] = defaultdict(float)
        self.banded_matrices: set[bytes] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "autodiff.backward": (self._before_backward, None),
            "gno.build_neighbors": (None, self._after_neighbors),
            "simdata.solve_banded": (self._before_solve, None),
            "simdata.container_write": (None, self._after_write),
            "simdata.container_read": (self._before_read, None),
        }
        for owner, attr, name in WRAPPED:
            self._wrap(owner, attr, name, *hooks.get(name, (None, None)))
        for attr in ("fftn", "ifftn"):
            self._count_fft(attr)
        return self

    def close(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()
        return False

    def _wrap(self, owner, attr, name, before, after):
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def hook(fn, *args):
            # the tracer's own counting gets a span, so no layer pays for it
            spans.append(["trace.hook", perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            record = spans[-1]
            fn(*args)
            record[2] = perf_counter()

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                hook(after, result, args)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def _count_fft(self, attr):
        """Counts numpy FFTs issued directly by the Kolmogorov simulator."""
        orig = getattr(np.fft, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "simdata.kolmogorov":
                counts["simdata.fft_calls"] += 1
            return orig(*args, **kwargs)

        setattr(np.fft, attr, counted)
        self._patched.append((np.fft, attr, orig))

    # -- counters recorded at the span boundaries ---------------------------

    def _before_backward(self, args, kwargs):
        self.counts["autodiff.tape_nodes_total"] += tape_nodes(args[0])

    def _after_neighbors(self, nbrs, args):
        self.counts["gno.pairs_total"] += nbrs.n_pairs
        self.counts["gno.pairs_max"] = max(self.counts["gno.pairs_max"],
                                           nbrs.n_pairs)

    def _before_solve(self, args, kwargs):
        ab = args[1] if len(args) > 1 else kwargs["ab"]
        self.banded_matrices.add(np.ascontiguousarray(ab).tobytes())

    def _after_write(self, result, args):
        self.counts["simdata.container_bytes"] += os.path.getsize(args[0])

    def _before_read(self, args, kwargs):
        self.counts["simdata.container_bytes"] += os.path.getsize(args[0])

    # -- reporting -----------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Calls and self time (time not covered by child spans) per name."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for (name, *_), own in zip(self.spans, self_time):
            stats[name]["calls"] += 1
            stats[name]["self_s"] += own
        return dict(stats)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


# -- per-layer metrics --------------------------------------------------------

# Spans reported as summed self time (`<span>_s`).
TIMED = (
    "autodiff.backward", "autodiff.einsum2", "autodiff.fft",
    "autodiff.sparse_matmul", "autodiff.clip", "autodiff.adam",
    "spectral.fno_block", "spectral.resample", "spectral.pointwise",
    "gno.build_neighbors", "gno.set_apply", "gno.kernel_matrices",
    "gno.nn_spacing",
    "model.forward", "model.predict", "model.attention", "model.normalize",
    "model.vspe",
    "training.pretrain", "training.eval", "training.loss",
    "training.apply_mask", "training.checkpoint_save",
    "training.checkpoint_load",
    "simdata.kolmogorov", "simdata.rb", "simdata.solve_banded",
    "simdata.container_write", "simdata.container_read",
)
# Spans reported as call counts (`<span>_calls`).
COUNTED = (
    "autodiff.backward", "autodiff.einsum2", "autodiff.fft",
    "autodiff.sparse_matmul", "spectral.fno_block", "spectral.resample",
    "gno.build_neighbors", "gno.set_apply", "gno.nn_spacing",
    "model.forward", "training.apply_mask", "simdata.solve_banded",
)

PT_GRID, PT_CLOUD, INFER, SIMULATE = ("pretrain_grid", "pretrain_cloud",
                                      "infer", "simulate")
ALL = {PT_GRID, PT_CLOUD, INFER, SIMULATE}
PRETRAIN = {PT_GRID, PT_CLOUD}
MODEL_USERS = {PT_GRID, PT_CLOUD, INFER}

# metric -> workloads where it must be non-zero; it must be zero elsewhere.
# This catches a function that is no longer wrapped where it is looked up.
EXPECT_NONZERO = {
    "autodiff.backward_calls": PRETRAIN,
    "autodiff.tape_nodes": PRETRAIN,
    "autodiff.clip_s": PRETRAIN,
    "autodiff.adam_s": PRETRAIN,
    "autodiff.einsum2_calls": MODEL_USERS,
    "autodiff.fft_calls": MODEL_USERS,
    "autodiff.sparse_matmul_calls": {PT_CLOUD},
    "spectral.fno_block_calls": MODEL_USERS,
    "spectral.resample_calls": {PT_GRID, INFER},
    "spectral.pointwise_s": MODEL_USERS,
    "gno.build_neighbors_calls": {PT_CLOUD},
    "gno.pairs": {PT_CLOUD},
    "gno.set_apply_calls": {PT_CLOUD},
    "gno.kernel_matrices_s": {PT_CLOUD},
    "gno.nn_spacing_calls": {PT_CLOUD},
    "model.forward_calls": MODEL_USERS,
    "model.predict_s": MODEL_USERS,
    "model.attention_s": MODEL_USERS,
    "model.normalize_s": MODEL_USERS,
    "model.vspe_s": MODEL_USERS,
    "training.pretrain_s": PRETRAIN,
    "training.eval_s": PRETRAIN,
    "training.loss_s": PRETRAIN,
    "training.apply_mask_calls": PRETRAIN,
    "training.checkpoint_save_s": {INFER, SIMULATE},
    "training.checkpoint_load_s": {INFER, SIMULATE},
    "simdata.kolmogorov_s": {PT_GRID, SIMULATE},
    "simdata.fft_calls": {PT_GRID, SIMULATE},
    "simdata.rb_s": {PT_CLOUD, INFER, SIMULATE},
    "simdata.solve_banded_calls": {PT_CLOUD, INFER, SIMULATE},
    "simdata.container_write_s": {INFER, SIMULATE},
    "simdata.container_read_s": {INFER, SIMULATE},
}


def layer_metrics(tracer: Tracer, latent_width: int) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from one traced phase."""
    stats = tracer.by_name()
    counts = tracer.counts

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s["self_s"] for n, s in stats.items()
                                      if n.split(".")[0] == layer), "s")
    for name in TIMED:
        out[f"{name}_s"] = (get(name, "self_s"), "s")
    for name in COUNTED:
        out[f"{name}_calls"] = (get(name, "calls"), "count")
    backwards = get("autodiff.backward", "calls")
    builds = get("gno.build_neighbors", "calls")
    applies = get("gno.set_apply", "calls")
    solves = get("simdata.solve_banded", "calls")
    out["autodiff.tape_nodes"] = (
        counts["autodiff.tape_nodes_total"] / backwards if backwards else 0.0,
        "count")
    out["gno.pairs"] = (counts["gno.pairs_total"] / builds if builds else 0.0,
                        "count")
    out["gno.neighbor_hit_ratio"] = (1.0 - builds / applies if applies else 0.0,
                                     "ratio")
    out["gno.kernel_mb"] = (counts["gno.pairs_max"] * latent_width ** 2 * 8
                            / 1e6, "MB")
    out["simdata.rb_factor_reuse"] = (
        len(tracer.banded_matrices) / solves if solves else 0.0, "ratio")
    out["simdata.fft_calls"] = (counts["simdata.fft_calls"], "count")
    out["simdata.container_mb"] = (counts["simdata.container_bytes"] / 1e6,
                                   "MB")
    out["trace.hook_s"] = (get("trace.hook", "self_s"), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def expectation_problems(workload: str, metrics: dict) -> list[str]:
    """Counters that are zero where work is expected, or non-zero on a control."""
    problems = []
    for name, busy in EXPECT_NONZERO.items():
        value = metrics[name][0]
        if workload in busy and not value > 0:
            problems.append(f"{name} is 0 on {workload}, expected work")
        if workload not in busy and value != 0:
            problems.append(f"{name} is {value} on control {workload}")
    return problems
