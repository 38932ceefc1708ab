"""The four benchmark workloads, each driven through codano's public API.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. A workload builds its inputs from the seed in
`setup`, repeats a fixed unit of operations for a given time in `measure`
(setting up again between units), and runs the same unit once more in
`traced_pass`, whose results must match the untraced ones bit for bit.

Module functions are called through their modules (`tr.pretrain`, not a
name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import codano.model as cm
import codano.simdata as sd
import codano.training as tr
from codano.field import Mesh

# c09 acceptance configuration (1.97M parameters on two variables)
C09_MODEL = dict(embed_dim=4, latent_width=16, n_heads=2, key_width=8,
                 value_width=8, modes=8, encoder_layers=2,
                 reconstructor_layers=1, predictor_layers=1,
                 latent_resolution=(16, 16), vspe_modes=4, seed=9)
TINY_MODEL = dict(embed_dim=2, latent_width=4, n_heads=2, key_width=3,
                  value_width=3, modes=2, encoder_layers=1,
                  reconstructor_layers=1, predictor_layers=1,
                  latent_resolution=(8, 8), vspe_modes=2, gno_hidden=(4,),
                  seed=9)

# "full" is what the benchmark measures; "tiny" is for the smoke tests.
SIZES = {
    "full": dict(model=C09_MODEL, kolmo_n=64, kolmo_warmup=1.0,
                 train_snapshots=10, sim_snapshots=5,
                 rb_res=(64, 32), rb_snapshots=6, rb_warmup=1.0,
                 superres=(128, 64), keep_fraction=0.35, setup_min_s=3.0),
    "tiny": dict(model=TINY_MODEL, kolmo_n=16, kolmo_warmup=0.2,
                 train_snapshots=6, sim_snapshots=4,
                 rb_res=(16, 8), rb_snapshots=5, rb_warmup=0.25,
                 superres=(32, 16), keep_fraction=0.5, setup_min_s=0.0),
}

# c09 training plan; one epoch from the same start state is one fixed run
PLAN = tr.TrainPlan(epochs=0, batch_size=4, learning_rate=2e-3,
                    holdout_fraction=0.2, seed=17, eval_max_samples=8,
                    mask=tr.MaskSpec())

KOLMOGOROV_DIV_TOL = 1e-8     # c11: velocity stays divergence free
RB_WALL_TOL = 1e-6            # c11: wall temperatures stay pinned
KOLMOGOROV_ENSEMBLE = 8       # initial fields per simulate unit
KOLMOGOROV_TRAIN_SEED = 101   # c09 corpus seed; the same field for every seed
SETUP_REPEATS = 3             # set-ups per run at least
SETUP_MAX_REPEATS = 30        # set-ups per run at most


class Ledger:
    """Operations attempted and failed, failed checks, and timings by class."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list] = defaultdict(list)
        self.work = 0.0
        self.tracer = tracer

    def run(self, kind, fn, *args, **kwargs):
        """One timed operation; returns None when it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{kind}#{self.attempted}"
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and the loop goes on
            self.failed += 1
            self.problems.append(f"{kind} raised:\n{traceback.format_exc()}")
            return None
        self.times[kind].append(perf_counter() - t0)
        return result

    def check(self, ok, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {what}")
        return bool(ok)

    def mean_ms(self, kind) -> float:
        t = self.times[kind]
        return 1e3 * statistics.fmean(t) if t else float("nan")

    def rate(self, count, kinds) -> float:
        """count per second of time spent in operations of the given kinds."""
        busy = sum(sum(self.times[k]) for k in kinds)
        return count / busy if busy else float("nan")

    def quantiles_ms(self, kind) -> dict:
        """Sample count, mean, median and nearest-rank p90 of one class."""
        t = sorted(self.times[kind])
        p90 = t[int(np.ceil(0.9 * len(t))) - 1]
        return {"n": len(t), "mean": self.mean_ms(kind),
                "p50": 1e3 * statistics.median(t), "p90": 1e3 * p90}


def _rb_config(size, snapshots):
    return sd.SimConfig(system="rayleigh-benard", resolution=size["rb_res"],
                        dt=0.5, snapshots=snapshots, nu=0.01, kappa=0.01,
                        alpha_g=2.0, warmup=size["rb_warmup"], seed=7)


def _kolmogorov_config(size, snapshots, seed):
    return sd.SimConfig(system="kolmogorov", resolution=size["kolmo_n"],
                        dt=0.2, snapshots=snapshots, re=500.0, forcing_n=4,
                        warmup=size["kolmo_warmup"], seed=seed)


def c09_config(size, variables, **overrides) -> cm.ModelConfig:
    return cm.ModelConfig(variables=variables, **{**size["model"], **overrides})


def param_arrays(params):
    return [t.data for _, t in params.items()]


def param_count(params) -> int:
    return sum(a.size for a in param_arrays(params))


def digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Common shape; subclasses fill in setup, one fixed unit and the metrics."""

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.reference = None     # fingerprint of the first fixed unit
        self.setup_reference = None

    def setup(self, ledger: Ledger) -> float:
        """Builds the inputs and returns the seconds that took; every repeat
        must build the same state. The checks are not timed."""
        t0 = perf_counter()
        self._setup()
        elapsed = perf_counter() - t0
        fingerprint = self._check_setup(ledger)
        if self.setup_reference is None:
            self.setup_reference = fingerprint
        else:
            ledger.check(fingerprint == self.setup_reference,
                         "set-up repeats build bit-identical state")
        return elapsed

    def _setup(self) -> None:
        raise NotImplementedError

    def _check_setup(self, ledger: Ledger):
        """Checks the state set-up built; returns a fingerprint of it."""
        raise NotImplementedError

    def unit(self, ledger: Ledger):
        """One fixed unit of work; returns a fingerprint of its results."""
        raise NotImplementedError

    def measure(self, ledger: Ledger, seconds: float) -> list:
        """Sets up, then repeats the fixed unit for `seconds`, at least once;
        returns the set-up times.

        The host's speed drifts in phases of seconds, so set-up is repeated
        between units rather than only before the first: after each unit,
        until the set-ups have taken `setup_min_s` times the share of the
        run that has passed. Then it is repeated until there are at least
        SETUP_REPEATS. Set-up time does not count towards `seconds`."""
        setups = [self.setup(ledger)]
        min_s = self.size["setup_min_s"]

        def more(budget):
            return sum(setups) < budget and len(setups) < SETUP_MAX_REPEATS

        start, paused = perf_counter(), 0.0
        while True:
            self._compare(ledger, self.unit(ledger), "repeat")
            busy = perf_counter() - start - paused
            if busy >= seconds:
                break
            t0 = perf_counter()
            while more(min_s * busy / seconds):
                setups.append(self.setup(ledger))
            paused += perf_counter() - t0
        while len(setups) < SETUP_REPEATS or more(min_s):
            setups.append(self.setup(ledger))
        return setups

    def traced_pass(self, ledger: Ledger) -> None:
        self._compare(ledger, self.unit(ledger), "traced")

    def _compare(self, ledger, fingerprint, what):
        if fingerprint is None:
            return
        if self.reference is None:
            self.reference = fingerprint
        else:
            ledger.check(fingerprint == self.reference,
                         f"{what} results differ bitwise from the first run")

    def end_to_end(self, ledger: Ledger) -> dict:
        raise NotImplementedError


class Pretrain(Workload):
    """c09 masked-reconstruction pretraining; one fixed unit is one epoch
    from the state left by set-up, plus a held-out eval per sample.

    The seed picks the point cloud on `pretrain_cloud` and the training
    plan's seed (shuffle and masks) on `pretrain_grid`. The Kolmogorov
    corpus is the same for every seed: its simulation cost depends on the
    initial field through the CFL limit (793 to 1373 FFT calls over seeds 1
    to 10), and that would make `setup_s` measure the seed, not the code."""

    def __init__(self, seed, size, workdir, cloud: bool):
        super().__init__(seed, size, workdir)
        self.cloud = cloud
        self.plan = PLAN if cloud else replace(PLAN, seed=seed)

    def _setup(self):
        size = self.size
        if self.cloud:
            rb = sd.simulate_rayleigh_benard(
                _rb_config(size, size["rb_snapshots"]))
            self.dataset = sd.irregularize(rb, size["keep_fraction"],
                                           seed=self.seed)
            self.config = c09_config(size, ("u_x", "u_y", "T"), use_gno=True,
                                     vspe_variant="coord-mlp")
        else:
            self.dataset = sd.simulate_kolmogorov(_kolmogorov_config(
                size, size["train_snapshots"], KOLMOGOROV_TRAIN_SEED))
            self.config = c09_config(size, ("u_x", "u_y"), use_gno=False)
        self.base = tr.pretrain(cm.init_params(self.config), self.config,
                                self.dataset, self.plan)
        self.params = self.base.params
        self.n_train = self.dataset.n_snapshots - len(self.base.holdout)

    def _check_setup(self, ledger):
        epoch0 = self.base.history[0]["eval_loss"]
        ledger.check(np.isfinite(epoch0), "epoch-0 eval loss is finite")
        return (epoch0, self.base.rng.bit_generator.state,
                digest([self.dataset.snapshots, self.dataset.mesh.points,
                        *param_arrays(self.params)]))

    def unit(self, ledger):
        state = copy.deepcopy(self.base)
        state = ledger.run("epoch", tr.pretrain, None, None, self.dataset,
                           replace(self.plan, epochs=1), state=state)
        if state is None:
            return None
        ledger.work += self.n_train
        last = state.history[-1]
        ledger.check(np.isfinite(last["train_loss"])
                     and np.isfinite(last["eval_loss"]),
                     "training and eval losses are finite")
        self.eval_rel_l2 = last["eval_loss"]
        evals = []
        for i in state.holdout:
            report = ledger.run("eval", tr.evaluate_reconstruction,
                                state.params, state.config, self.dataset,
                                self.plan, [i])
            if report is not None:
                ledger.check(np.isfinite(report.overall),
                             "held-out eval is finite")
                evals.append(report.overall)
        return (last["train_loss"], last["eval_loss"], tuple(evals))

    def end_to_end(self, ledger):
        return {
            "throughput_per_s": (ledger.rate(ledger.work, ["epoch"]), "1/s"),
            "primary_ms_mean": (ledger.mean_ms("epoch"), "ms"),
            "secondary_ms_mean": (ledger.mean_ms("eval"), "ms"),
        }


class Infer(Workload):
    """Next-step prediction with a c09 model extended by T, served from a
    reloaded checkpoint; requests alternate between the native mesh and a
    grid of twice the resolution."""

    def _setup(self):
        size = self.size
        self.rb = sd.simulate_rayleigh_benard(
            _rb_config(size, size["rb_snapshots"]))
        base = c09_config(size, ("u_x", "u_y"), use_gno=False)
        self.saved = cm.extend_variables(cm.init_params(base), base, ("T",))
        path = self.workdir / "served.cdno"
        tr.save_checkpoint(path, tr.fresh_state(*self.saved, PLAN), PLAN)
        loaded = tr.load_checkpoint(path)
        self.params, self.config = loaded.params, loaded.config
        self.inputs = [self.rb.function(i) for i in range(self.rb.n_snapshots)]
        self.query = Mesh.uniform(size["superres"],
                                  extents=self.rb.mesh.extents)
        self.order_rng = np.random.default_rng([self.seed, 1])

    def _check_setup(self, ledger):
        params, config = self.saved
        ledger.check(self.config == config
                     and self.params.names() == params.names()
                     and all(np.array_equal(self.params[n].data, t.data)
                             for n, t in params.items()),
                     "checkpoint round trip is bit-exact")
        return digest([self.rb.snapshots, *param_arrays(self.params)])

    def _request(self, ledger, kind, a, query):
        out = ledger.run(kind, cm.predict, self.params, self.config, a,
                         query_mesh=query, head="predictor")
        if out is None:
            return None
        shape = ((a.mesh if query is None else query).n_points,
                 len(self.config.variables))
        ledger.check(out.values.shape == shape
                     and np.all(np.isfinite(out.values)),
                     f"{kind} output is finite with shape {shape}")
        ledger.work += 1
        return out.values

    def unit(self, ledger):
        """Every snapshot once per request class, in a seeded order."""
        outputs = {}
        for i in self.order_rng.permutation(len(self.inputs)):
            a = self.inputs[i]
            outputs[("native", i)] = self._request(ledger, "native", a, None)
            outputs[("superres", i)] = self._request(ledger, "superres", a,
                                                     self.query)
        return {k: None if v is None else v.tobytes()
                for k, v in outputs.items()}

    def end_to_end(self, ledger):
        return {
            "throughput_per_s": (
                ledger.rate(ledger.work, ["native", "superres"]), "1/s"),
            "primary_ms_mean": (ledger.mean_ms("native"), "ms"),
            "secondary_ms_mean": (ledger.mean_ms("superres"), "ms"),
        }


class Simulate(Workload):
    """Data generation: an ensemble of Kolmogorov runs, a Rayleigh-Benard
    run, then a container round trip of every dataset and of a c09-size
    checkpoint. The cost of one Kolmogorov run depends on its initial field
    through the CFL limit (about 20 % between seeds), so an ensemble of
    initial fields is timed as one operation; with eight short runs the
    work varies by about 4 % between seeds."""

    def _setup(self):
        self.config = c09_config(self.size, ("u_x", "u_y"), use_gno=False)
        params = cm.init_params(self.config)
        state = tr.fresh_state(params, self.config, PLAN)
        rng = np.random.default_rng([self.seed, 2])
        for name, t in params.items():
            state.adam.m[name] = rng.standard_normal(t.data.shape)
            state.adam.v[name] = rng.random(t.data.shape)
        state.adam.step = 1
        self.state, self.params = state, params
        self.kolmogorov = [
            _kolmogorov_config(self.size, self.size["sim_snapshots"],
                               KOLMOGOROV_ENSEMBLE * self.seed + k)
            for k in range(KOLMOGOROV_ENSEMBLE)]
        self.rb = _rb_config(self.size, self.size["rb_snapshots"])

    def _check_setup(self, ledger):
        state = self.state
        return digest([*param_arrays(self.params), *state.adam.m.values(),
                       *state.adam.v.values()])

    def round_trip(self, datasets):
        back = []
        for i, ds in enumerate(datasets):
            path = self.workdir / f"dataset{i}.cdno"
            sd.dataset_write(ds, path)
            back.append(sd.dataset_read(path))
        path = self.workdir / "checkpoint.cdno"
        tr.save_checkpoint(path, self.state, PLAN)
        return back, tr.load_checkpoint(path)

    def kolmogorov_ensemble(self):
        return [sd.simulate_kolmogorov(cfg) for cfg in self.kolmogorov]

    def unit(self, ledger):
        kos = ledger.run("kolmogorov", self.kolmogorov_ensemble)
        rb = ledger.run("rb", sd.simulate_rayleigh_benard, self.rb)
        if kos is None or rb is None:
            return None
        ledger.check(max(map(kolmogorov_divergence, kos)) < KOLMOGOROV_DIV_TOL,
                     "kolmogorov velocity is divergence free")
        ledger.check(rb_wall_error(rb) <= RB_WALL_TOL,
                     "rayleigh-benard wall temperatures are pinned")
        datasets = (*kos, rb)
        result = ledger.run("roundtrip", self.round_trip, datasets)
        if result is None:
            return None
        back, loaded = result
        ledger.check(all(np.array_equal(b.snapshots, d.snapshots)
                         and b.variables == d.variables
                         and np.array_equal(b.mesh.points, d.mesh.points)
                         for b, d in zip(back, datasets)),
                     "dataset round trip is bit-exact")
        ledger.check(checkpoint_equal(loaded, self.state),
                     "checkpoint round trip is bit-exact")
        return tuple(d.snapshots.tobytes() for d in datasets)

    def end_to_end(self, ledger):
        return {
            "throughput_per_s": (ledger.rate(len(ledger.times["roundtrip"]),
                                             ["roundtrip"]), "1/s"),
            "primary_ms_mean": (ledger.mean_ms("kolmogorov"), "ms"),
            "secondary_ms_mean": (ledger.mean_ms("rb"), "ms"),
        }


def kolmogorov_divergence(ds) -> float:
    nx, ny = ds.mesh.resolution
    u = ds.snapshots[:, :, 0].reshape(-1, nx, ny)
    v = ds.snapshots[:, :, 1].reshape(-1, nx, ny)
    kx = np.fft.fftfreq(nx, d=1.0 / nx)[:, None]
    ky = np.fft.fftfreq(ny, d=1.0 / ny)[None, :]
    div = np.fft.ifft2(1j * kx * np.fft.fft2(u, axes=(1, 2))
                       + 1j * ky * np.fft.fft2(v, axes=(1, 2)), axes=(1, 2))
    return float(np.abs(div).max())


def rb_wall_error(ds) -> float:
    nx, ny = ds.mesh.resolution
    temp = ds.snapshots[:, :, ds.variables.index("T")].reshape(-1, nx, ny)
    return float(max(np.abs(temp[:, :, 0] - 1.0).max(),
                     np.abs(temp[:, :, -1]).max()))


def checkpoint_equal(loaded, state) -> bool:
    names = state.params.names()
    return (loaded.params.names() == names
            and loaded.config == state.config
            and loaded.adam.step == state.adam.step
            and all(np.array_equal(loaded.params[n].data, state.params[n].data)
                    and np.array_equal(loaded.adam.m[n], state.adam.m[n])
                    and np.array_equal(loaded.adam.v[n], state.adam.v[n])
                    for n in names))


WORKLOADS = {
    "pretrain_grid": lambda s, z, d: Pretrain(s, z, d, cloud=False),
    "pretrain_cloud": lambda s, z, d: Pretrain(s, z, d, cloud=True),
    "infer": Infer,
    "simulate": Simulate,
}
