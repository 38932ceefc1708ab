"""Masked-reconstruction pretraining and few-shot predictive fine-tuning.

Masking follows the two-mode scheme used for self-supervision: either a
random subset of points is zeroed inside most variables (point mode), or a
few whole variables are zeroed (variable mode), chosen per sample. Both
phases run one epoch loop and differ only in the batch loss and the eval:
plain Adam with global gradient-norm clipping, a temporal holdout split,
per-epoch evaluation (with a fixed mask sequence when pretraining, so eval
losses are comparable across epochs) and an optional stop once the eval
loss reaches a target. Samples share their dataset's mesh, so each
minibatch is one model_forward on a list of functions, and evaluation runs
through predict in chunks of plan.batch_size; masks are drawn per sample
in the same order either way. Checkpoints round-trip the full trainer state:
parameters, Adam moments, RNG state, epoch counter, holdout indices, history.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (FractionError, MeshError, NumericError, PairingError,
                     ShapeError, TrainingStateError, UnknownVariableError)
from .field import GridFunction, resample
from .gno import nearest_neighbor_spacing
from .model import ModelConfig, has_predictor, model_forward, param_names, predict
from .simdata import DatasetContainer, read_container, write_container

EVAL_STREAM = 0xEA15
SHUFFLE_STREAM = 0x5FFE
FEWSHOT_STREAM = 0xF57


# -- masking -------------------------------------------------------------------


@dataclass
class MaskSpec:
    """Self-supervision masks drawn per sample.

    With probability point_probability a point mask is drawn: ceil(
    variable_fraction * d) variables (never all d) each lose a point_fraction
    share of mesh points, independently per variable. Otherwise a variable
    mask zeroes ceil(full_variable_fraction * d) whole variables. On
    irregular meshes point masks grow circular patches of patch_radius
    (default twice the mean nearest-neighbor spacing) until the target count
    is reached, so the masked fraction is exact only up to patch granularity.
    """

    point_probability: float = 0.5
    point_fraction: float = 0.5
    variable_fraction: float = 0.6
    full_variable_fraction: float = 0.3
    patch_radius: float = 0.0

    def __post_init__(self):
        for name in ("point_probability", "point_fraction",
                     "variable_fraction", "full_variable_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FractionError(f"{name} must be in [0, 1], got {v}")
        if self.patch_radius < 0:
            raise FractionError("patch_radius must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


def ceil_count(fraction: float, total: int) -> int:
    """ceil(fraction * total) with a guard against float drift (0.6*5 -> 3)."""
    return max(0, int(np.ceil(fraction * total - 1e-9)))


def _point_subset(rng, mesh, fraction, radius):
    n = mesh.n_points
    target = int(round(fraction * n))
    mask = np.zeros(n, dtype=bool)
    if target <= 0:
        return mask
    if mesh.is_uniform:
        mask[rng.choice(n, size=target, replace=False)] = True
        return mask
    pts = mesh.points
    while mask.sum() < target:
        pool = np.flatnonzero(~mask)
        seed = pool[rng.integers(len(pool))]
        d2 = np.sum((pts - pts[seed]) ** 2, axis=1)
        mask |= d2 <= radius * radius
    return mask


def apply_mask(a: GridFunction, spec: MaskSpec, rng):
    """Returns (masked copy of a, boolean mask (n_points, n_channels)).

    True marks a zeroed entry. Fractions of zero leave the function intact.
    """
    n, d = a.values.shape
    mask = np.zeros((n, d), dtype=bool)
    if rng.random() < spec.point_probability:
        n_aff = min(ceil_count(spec.variable_fraction, d), d - 1)
        if n_aff > 0:
            chosen = rng.choice(d, size=n_aff, replace=False)
            radius = spec.patch_radius
            if radius == 0.0 and not a.mesh.is_uniform:
                radius = 2.0 * float(np.mean(nearest_neighbor_spacing(a.mesh)))
            for j in sorted(chosen):
                mask[:, j] = _point_subset(rng, a.mesh, spec.point_fraction,
                                           radius)
    else:
        n_full = ceil_count(spec.full_variable_fraction, d)
        if n_full > 0:
            chosen = rng.choice(d, size=min(n_full, d), replace=False)
            mask[:, sorted(chosen)] = True
    values = a.values.copy()
    values[mask] = 0.0
    return GridFunction(a.mesh, values, names=a.names), mask


# -- losses --------------------------------------------------------------------


@dataclass
class LossReport:
    overall: float
    per_variable: dict
    absolute_fallback: bool = False
    samples: int = 1             # functions averaged into this report


def relative_l2(pred: GridFunction, target: GridFunction) -> LossReport:
    """Quadrature relative L2 error with a per-variable breakdown.

    Channels are aligned by name. A zero-norm target channel switches that
    entry (and the overall number if the whole target is zero) to absolute
    L2, flagged in the report.
    """
    if not pred.mesh.same(target.mesh):
        raise MeshError("prediction and target live on different meshes")
    missing = [v for v in pred.names if v not in target.names]
    if missing:
        raise UnknownVariableError(f"target lacks variables {missing}")
    w = pred.mesh.quad_weights
    fallback = False
    per = {}
    num_sq = den_sq = 0.0
    for name in pred.names:
        p = pred.channel(name)
        t = target.channel(name)
        nv = float(w @ ((p - t) ** 2))
        dv = float(w @ (t ** 2))
        num_sq += nv
        den_sq += dv
        if dv == 0.0:
            per[name] = float(np.sqrt(nv))
            fallback = True
        else:
            per[name] = float(np.sqrt(nv / dv))
    if den_sq == 0.0:
        overall = float(np.sqrt(num_sq))
        fallback = True
    else:
        overall = float(np.sqrt(num_sq / den_sq))
    return LossReport(overall, per, fallback)


def loss_relative_l2(pred, target: np.ndarray, mesh):
    """Differentiable mean over samples of the overall relative L2.

    pred is a (S, n_points, channels) tensor and target an array of that
    shape; a sample with a zero target contributes its absolute L2.
    """
    pred = ad.as_tensor(pred)
    if pred.ndim != 3 or pred.shape != np.shape(target):
        raise ShapeError(f"loss needs (S, n, c) prediction and target of one "
                         f"shape, got {pred.shape} and {np.shape(target)}")
    w = mesh.quad_weights[:, None]
    diff = pred - ad.as_tensor(target)
    num = ad.tsqrt(ad.tsum(diff * diff * w, axis=(1, 2)))
    den = np.sqrt(np.sum(target * target * w, axis=(1, 2)))
    rel = num / np.where(den == 0.0, 1.0, den)
    return ad.tsum(rel) * (1.0 / len(den))


# -- plans and state -------------------------------------------------------------


@dataclass
class TrainPlan:
    epochs: int = 10
    batch_size: int = 4
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    holdout_fraction: float = 0.2
    seed: int = 0
    mask: MaskSpec = field(default_factory=MaskSpec)
    delta: int = 1               # prediction offset in snapshots (finetune)
    few_shot: int = 0            # training pairs kept, 0 = all (finetune)
    freeze_encoder: bool = False # train only predictor.* and vspe.* (finetune)
    eval_max_samples: int = 0    # cap holdout evals per epoch, 0 = all
    target_eval_loss: float = 0.0  # stop once eval loss dips below, 0 = never

    def __post_init__(self):
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise FractionError(
                f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.epochs < 0 or self.batch_size < 1:
            raise TrainingStateError("need epochs >= 0 and batch_size >= 1")
        # written as not (x > 0) so that NaN is rejected too
        if not self.learning_rate > 0 or not self.clip_norm > 0:
            raise TrainingStateError("need learning_rate > 0 and clip_norm > 0")
        if not min(self.few_shot, self.eval_max_samples,
                   self.target_eval_loss) >= 0:
            raise TrainingStateError(
                "need few_shot, eval_max_samples and target_eval_loss >= 0")
        if isinstance(self.mask, dict):
            self.mask = MaskSpec(**self.mask)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mask"] = self.mask.to_dict()
        return d


@dataclass
class TrainerState:
    params: ad.ParamStore
    config: ModelConfig
    adam: ad.AdamState
    rng: np.random.Generator
    epoch: int = 0
    holdout: tuple = ()
    history: list = field(default_factory=list)


def fresh_state(params, config: ModelConfig, plan: TrainPlan) -> TrainerState:
    adam = ad.AdamState(lr=plan.learning_rate)
    rng = np.random.default_rng([plan.seed, SHUFFLE_STREAM])
    return TrainerState(params=params, config=config, adam=adam, rng=rng)


def _temporal_holdout(n_items: int, fraction: float):
    n_hold = ceil_count(fraction, n_items)
    if n_hold >= n_items:
        n_hold = n_items - 1
    train = np.arange(n_items - n_hold)
    hold = np.arange(n_items - n_hold, n_items)
    return train, hold


# -- training loops ---------------------------------------------------------------


def _batch_step(state: TrainerState, plan: TrainPlan, loss):
    """One Adam step on a batch loss; returns (loss, pre-clip gradient norm)."""
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericError(f"training loss became non-finite at epoch "
                           f"{state.epoch + 1}")
    state.params.zero_grads()
    ad.backward(loss, state.params)
    norm = ad.clip_grad_norm(state.params, plan.clip_norm)
    ad.optimizer_step(state.params, state.adam)
    return value, norm


def _train_record(steps, plan: TrainPlan) -> dict:
    """Epoch summary of _batch_step results: mean loss, pre-clip gradient
    norm (mean and max over batches) and the number of clipped batches."""
    losses, norms = zip(*steps)
    return {"train_loss": float(np.mean(losses)),
            "grad_norm": {"mean": float(np.mean(norms)), "max": max(norms)},
            "clipped": sum(n > plan.clip_norm for n in norms)}


def _chunks(items, size):
    return [items[k:k + size] for k in range(0, len(items), size)]


def _reports(outs, targets, query_mesh):
    """relative_l2 of each output against its target, resampled to the
    query mesh when that differs from the data mesh."""
    reports = []
    for out, target in zip(outs, targets):
        if query_mesh is not None and not query_mesh.same(target.mesh):
            target = resample(target, query_mesh.resolution)
        reports.append(relative_l2(out, target))
    return reports


def evaluate_reconstruction(params, config, dataset, plan, indices,
                            cache=None, query_mesh=None) -> LossReport:
    """Masked-reconstruction eval over the given snapshot indices.

    At most plan.eval_max_samples indices (0 = all) are evaluated, through
    predict in batches of plan.batch_size. The mask sequence is a fixed
    function of plan.seed, so repeated calls (and successive epochs) see
    identical masks. A query_mesh at a different resolution evaluates
    zero-shot super-resolution against spectrally resampled targets.
    """
    rng = np.random.default_rng([plan.seed, EVAL_STREAM])
    idx = [int(i) for i in indices]
    if plan.eval_max_samples > 0:
        idx = idx[:plan.eval_max_samples]
    reports = []
    for chunk in _chunks(idx, plan.batch_size):
        targets = [dataset.function(i) for i in chunk]
        masked = [apply_mask(t, plan.mask, rng)[0] for t in targets]
        outs = predict(params, config, masked, query_mesh=query_mesh,
                       head="reconstructor", cache=cache)
        reports += _reports(outs, targets, query_mesh)
    return _mean_reports(reports)


def evaluate_prediction(params, config, dataset, plan, pairs, cache=None,
                        query_mesh=None) -> LossReport:
    """Next-step prediction eval over the given (input, target) index pairs,
    through predict in batches of plan.batch_size."""
    reports = []
    for chunk in _chunks(list(pairs), plan.batch_size):
        outs = predict(params, config, [dataset.function(i) for i, _ in chunk],
                       query_mesh=query_mesh, head="predictor", cache=cache)
        reports += _reports(outs, [dataset.function(j) for _, j in chunk],
                           query_mesh)
    return _mean_reports(reports)


def reconstruction_splits(n_snapshots: int, plan: TrainPlan):
    """(training snapshot indices, holdout snapshot indices)."""
    train_idx, hold_idx = _temporal_holdout(n_snapshots, plan.holdout_fraction)
    return [int(i) for i in train_idx], [int(i) for i in hold_idx]


def prediction_splits(n_snapshots: int, plan: TrainPlan):
    """(train_pairs after few-shot, holdout pairs after the eval cap)."""
    pairs = snapshot_pairs(n_snapshots, plan.delta)
    train_sel, hold_sel = _temporal_holdout(len(pairs), plan.holdout_fraction)
    train_pairs = [pairs[i] for i in train_sel]
    hold_pairs = [pairs[i] for i in hold_sel]
    if plan.few_shot > 0:
        if plan.few_shot > len(train_pairs):
            raise PairingError(f"few_shot={plan.few_shot} exceeds the "
                               f"{len(train_pairs)} available training pairs")
        pick_rng = np.random.default_rng([plan.seed, FEWSHOT_STREAM])
        keep = np.sort(pick_rng.choice(len(train_pairs), size=plan.few_shot,
                                       replace=False))
        train_pairs = [train_pairs[i] for i in keep]
    if plan.eval_max_samples > 0:
        hold_pairs = hold_pairs[:plan.eval_max_samples]
    return train_pairs, hold_pairs


def _mean_reports(reports):
    if not reports:
        return LossReport(float("nan"), {}, False, 0)
    overall = float(np.mean([r.overall for r in reports]))
    per = {}
    for name in reports[0].per_variable:
        per[name] = float(np.mean([r.per_variable[name] for r in reports]))
    return LossReport(overall, per, any(r.absolute_fallback for r in reports),
                      len(reports))


def _start(params, config, dataset, plan, state):
    """The given state, or a fresh one; checks the dataset's variables."""
    if state is None:
        state = fresh_state(params, config, plan)
    unknown = [v for v in dataset.variables
               if v not in state.config.variables]
    if unknown:
        raise UnknownVariableError(
            f"dataset variables {unknown} not registered in the model "
            f"(model has {state.config.variables})")
    return state


def _fit(state: TrainerState, plan: TrainPlan, phase: str, items, batch_loss,
         evaluate, log) -> TrainerState:
    """The epoch loop shared by pretraining and fine-tuning.

    Each epoch shuffles the training items with state.rng and takes one Adam
    step per batch on batch_loss(list of items), one taped forward over the
    batch with the mean of the per-item losses; evaluate() then gives the
    epoch's held-out LossReport. A state without a record of this phase
    first records the untrained eval as epoch 0. Training stops once the
    eval loss is at or below plan.target_eval_loss, at epoch 0 too. Each
    record is appended to state.history before log(record) sees it.
    """
    def record_epoch(train_fields) -> bool:
        report = evaluate()
        record = {"phase": phase, "epoch": state.epoch, **train_fields,
                  "eval_loss": report.overall,
                  "eval_per_variable": report.per_variable}
        state.history.append(record)
        if log is not None:
            log(record)
        return plan.target_eval_loss > 0 and \
            report.overall <= plan.target_eval_loss

    if state.epoch == 0 and not any(r.get("phase") == phase
                                    for r in state.history):
        if record_epoch({"train_loss": None, "grad_norm": None,
                         "clipped": None}):
            return state

    while state.epoch < plan.epochs:
        order = state.rng.permutation(len(items))
        steps = [_batch_step(state, plan,
                             batch_loss([items[int(k)] for k in chunk]))
                 for chunk in _chunks(order, plan.batch_size)]
        state.epoch += 1
        if record_epoch(_train_record(steps, plan)):
            break
    return state


def pretrain(params, config: ModelConfig, dataset: DatasetContainer,
             plan: TrainPlan, log=None, state: TrainerState | None = None
             ) -> TrainerState:
    """Masked-reconstruction training; resumes from state when given.

    Returns the trainer state; state.history holds one record per epoch plus
    an initial record (epoch 0) with the untrained eval loss. A resumed state
    keeps its holdout snapshots.
    """
    state = _start(params, config, dataset, plan, state)
    if not state.holdout:
        state.holdout = tuple(reconstruction_splits(dataset.n_snapshots,
                                                    plan)[1])
    train_idx = [i for i in range(dataset.n_snapshots)
                 if i not in state.holdout]
    cache = {}

    def batch_loss(indices):
        targets = [dataset.function(i) for i in indices]
        masked = [apply_mask(t, plan.mask, state.rng)[0] for t in targets]
        out = model_forward(state.params, state.config, masked,
                            head="reconstructor", cache=cache)
        return loss_relative_l2(out, dataset.snapshots[indices], dataset.mesh)

    def evaluate():
        return evaluate_reconstruction(state.params, state.config, dataset,
                                       plan, state.holdout, cache)

    return _fit(state, plan, "pretrain", train_idx, batch_loss, evaluate, log)


def snapshot_pairs(n_snapshots: int, delta: int):
    if delta < 1:
        raise PairingError(f"prediction offset must be >= 1, got {delta}")
    if n_snapshots <= delta:
        raise PairingError(
            f"{n_snapshots} snapshots cannot form (t, t+{delta}) pairs")
    return [(i, i + delta) for i in range(n_snapshots - delta)]


def finetune(params, config: ModelConfig, dataset: DatasetContainer,
             plan: TrainPlan, log=None, state: TrainerState | None = None
             ) -> TrainerState:
    """Supervised (t -> t+delta) training of the predictor head.

    few_shot keeps a deterministic subsample of the training pairs;
    freeze_encoder leaves everything but predictor.* and vspe.* untouched.
    """
    state = _start(params, config, dataset, plan, state)
    if not has_predictor(state.params, state.config):
        raise TrainingStateError(
            "no predictor head in these parameters; extend_variables creates one")
    train_pairs, hold_pairs = prediction_splits(dataset.n_snapshots, plan)
    if not state.holdout:
        state.holdout = tuple(j for _, j in hold_pairs)
    if plan.freeze_encoder:
        for name in state.params.names():
            head = name.split(".", 1)[0]
            if head not in ("predictor", "vspe"):
                state.params.freeze(name)
    cache = {}

    def batch_loss(pairs):
        out = model_forward(state.params, state.config,
                            [dataset.function(i) for i, _ in pairs],
                            head="predictor", cache=cache)
        return loss_relative_l2(out, dataset.snapshots[[j for _, j in pairs]],
                                dataset.mesh)

    def evaluate():
        return evaluate_prediction(state.params, state.config, dataset, plan,
                                   hold_pairs, cache)

    return _fit(state, plan, "finetune", train_pairs, batch_loss, evaluate, log)


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(path, state: TrainerState, plan: TrainPlan | None = None
                    ) -> None:
    buffers = [(f"param.{n}", t.data) for n, t in state.params.items()]
    for n in state.params.names():
        if n in state.adam.m:
            buffers.append((f"adam.m.{n}", state.adam.m[n]))
            buffers.append((f"adam.v.{n}", state.adam.v[n]))
    header = {
        "kind": "checkpoint",
        "model_config": state.config.to_dict(),
        "epoch": state.epoch,
        "holdout": [int(i) for i in state.holdout],
        "history": state.history,
        "frozen": sorted(n for n in state.params.names()
                         if state.params.is_frozen(n)),
        "adam": {"lr": state.adam.lr, "beta1": state.adam.beta1,
                 "beta2": state.adam.beta2, "eps": state.adam.eps,
                 "step": state.adam.step},
        "rng_state": state.rng.bit_generator.state,
        "plan": plan.to_dict() if plan is not None else None,
    }
    write_container(path, header, buffers)


def _check_layout(names, config: ModelConfig, path) -> None:
    """Refuse stored parameters other than those the config describes (with
    the predictor head when any of its tensors is stored)."""
    stored, base = set(names), param_names(config)
    head = param_names(config, predictor=True)[len(base):]
    expected = base if stored.isdisjoint(head) else base + head
    missing = [n for n in expected if n not in stored]
    if missing:
        raise TrainingStateError(f"checkpoint at {path} lacks parameter {missing[0]!r}, "
                                 "which its model config describes")
    extra = [n for n in names if n not in expected]
    if extra:
        raise TrainingStateError(f"checkpoint at {path} has parameter {extra[0]!r}, "
                                 "which its model config does not describe")


def load_checkpoint(path) -> TrainerState:
    header, buffers = read_container(path)
    if header.get("kind") != "checkpoint":
        raise TrainingStateError(f"container at {path} is not a checkpoint "
                                 f"(kind={header.get('kind')!r})")
    config = ModelConfig.from_dict(header["model_config"])
    params = ad.ParamStore()
    for spec in header["buffers"]:
        name = spec["name"]
        if name.startswith("param."):
            params.add(name[len("param."):], buffers[name])
    _check_layout(params.names(), config, path)
    for name in header.get("frozen", []):
        params.freeze(name)
    a = header["adam"]
    adam = ad.AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                        eps=a["eps"], step=a["step"])
    for name in params.names():
        key = f"adam.m.{name}"
        if key in buffers:
            adam.m[name] = buffers[key]
            adam.v[name] = buffers[f"adam.v.{name}"]
    rng = np.random.default_rng()
    rng.bit_generator.state = header["rng_state"]
    return TrainerState(params=params, config=config, adam=adam, rng=rng,
                        epoch=int(header["epoch"]),
                        holdout=tuple(header.get("holdout", [])),
                        history=list(header.get("history", [])))
