"""The three benchmark workloads: cloud training, edge transfer, edge inference.

Each workload is a closed loop with one caller in one process, driven
only through edgediag's public API. Every input (data, weight init,
training batches, sample order) derives from the workload seed. A run
sets up ``Plan.setup_repeats`` times (set-up time is their median),
then repeats its operation until ``seconds`` have passed, checking the
outputs as it goes. Failed checks and operations that raise count as
failed operations against those attempted.

Step times run from the step's ``Tape`` being entered to the end of its
``Adam.step`` update; :class:`StepClock` takes them by wrapping those
methods, and counts tape entries and backward calls per step.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from edgediag.archive import Manifest, load_archive, save_archive
from edgediag.config import ExperimentConfig
from edgediag.datagen import SampleSet, SplitCounts, load_splits, make_splits, save_splits
from edgediag.models import build_model, freeze_pre_fe, share_pre_fe
from edgediag.tensor import Tape, Tensor
from edgediag.training import Adam, evaluate, train_cloud, transfer_edge

TRANSFER_VARIANTS = ("proposed", "wo_domain_adaptation")
TRANSFER_EPOCHS = 10              # epoch 10 of 10 is past the 90% switch
PRE_FE = "pre_fe."


@dataclass(frozen=True)
class Plan:
    """Sizes of one run. The defaults are the benchmark; tests shrink them."""

    n_train: int = 80                 # windows per class; the default config's split
    n_finetune: int = 10
    n_test: int = 100
    setup_repeats: int = 3
    warm_cloud_windows: int = 80      # short cloud training in edge_transfer set-up
    infer_pairs: int = 150            # edge then cloud batch-1 call, per round before evaluate()


TINY = Plan(n_train=8, n_finetune=4, n_test=6, setup_repeats=1,
            warm_cloud_windows=10, infer_pairs=3)


@dataclass
class Seeds:
    data: int
    cloud: int
    edge: int
    train: int
    order: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        vals = np.random.default_rng([int(seed), 0x5EED]).integers(0, 2**31 - 1, size=5)
        return cls(*(int(v) for v in vals))


class Outcome:
    """Operations and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")

    def ops(self, n: int) -> None:
        self.attempted += n

    def op_raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{what} raised:\n{traceback.format_exc()}")


class StepClock:
    """Per-step wall time, tape entries and backward calls of a training loop."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.label = ""
        self.steps: list = []      # (label, ms, tape_entries, backward_calls, forward_ms)
        self._start = None
        self._fwd_end = None
        self._entries = 0
        self._bwd = 0

    @contextmanager
    def installed(self):
        enter, exit_, backward, step = Tape.__enter__, Tape.__exit__, Tape.backward, Adam.step
        clock = self

        def t_enter(tape):
            if clock._start is None:
                clock._start = time.perf_counter()
                if clock.tracer is not None:
                    clock.tracer.begin_step()
            return enter(tape)

        def t_exit(tape, *exc):
            clock._entries += len(tape)
            return exit_(tape, *exc)

        def t_backward(tape, *args, **kwargs):
            if clock._fwd_end is None:
                clock._fwd_end = time.perf_counter()
            clock._bwd += 1
            return backward(tape, *args, **kwargs)

        def a_step(adam, *args, **kwargs):
            out = step(adam, *args, **kwargs)
            t = time.perf_counter()
            clock.steps.append((clock.label, (t - clock._start) * 1e3, clock._entries, clock._bwd,
                                (clock._fwd_end - clock._start) * 1e3))
            clock._start, clock._fwd_end, clock._entries, clock._bwd = None, None, 0, 0
            if clock.tracer is not None:
                clock.tracer.end_step()
            return out

        Tape.__enter__, Tape.__exit__ = t_enter, t_exit
        Tape.backward, Adam.step = t_backward, a_step
        try:
            yield self
        finally:
            Tape.__enter__, Tape.__exit__, Tape.backward, Adam.step = enter, exit_, backward, step

    def of(self, label: str) -> list:
        return [s for s in self.steps if s[0] == label]

    def counts(self) -> dict:
        """Tape entries and backward calls per step, the median per label; exact."""
        out = {}
        for label in sorted({s[0] for s in self.steps}):
            steps = self.of(label)
            out[label] = {"tape_entries_per_step": float(median(s[2] for s in steps)),
                          "backward_calls_per_step": float(median(s[3] for s in steps))}
        return out


def percentile(values, q: float) -> float:
    """q-th percentile; NaN when an operation failed before any sample."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def batch_rates(batches) -> list:
    """Samples per second of each (samples, seconds) batch."""
    return [n / t for n, t in batches]


def batch_sizes(n: int, batch: int) -> list:
    """Sizes of the batches an epoch over n windows is cut into, in order."""
    return [min(batch, n - i) for i in range(0, n, batch)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up

@dataclass
class State:
    seeds: Seeds
    cfg: ExperimentConfig
    splits: object = None
    cloud: object = None
    edge: object = None
    edge_start: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)


def _timed(stages: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = time.perf_counter() - t0
    return out


def splits_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, k).x, getattr(b, k).x)
        and np.array_equal(getattr(a, k).y, getattr(b, k).y)
        and np.array_equal(getattr(a, k).cond, getattr(b, k).cond)
        for k in ("d_training", "d_finetune_src", "d_finetune_tgt", "d_test")
    )


def stores_equal(a, b) -> bool:
    return a.names() == b.names() and all(np.array_equal(a[n].data, b[n].data) for n in a.names())


def model_roundtrip(st: State, model, kind: str, seed: int, workdir: str, oc: Outcome):
    """Save through .edgewts and load into a differently initialised model."""
    path = os.path.join(workdir, f"{kind}.edgewts")
    manifest = Manifest(kind=kind, config_hash=st.cfg.model_hash(), seed=seed)
    _timed(st.stages, f"archive.{kind}.save_s", save_archive, model.store, manifest, path)
    store = _timed(st.stages, f"archive.{kind}.load_s", load_archive, path, manifest)
    st.stages[f"archive.{kind}.bytes"] = os.path.getsize(path)
    loaded = build_model(st.cfg.model_config(), kind, seed=seed + 1)
    for name, tensor in loaded.store.items():
        tensor.data[...] = store[name].data
    oc.check(stores_equal(model.store, loaded.store), f"{kind} archive round-trip is bit-exact")
    return loaded


def setup(name: str, seeds: Seeds, plan: Plan, workdir: str, oc: Outcome) -> State:
    st = State(seeds=seeds, cfg=ExperimentConfig())
    src, tgt = st.cfg.conditions()
    made = _timed(st.stages, "datagen.make_splits_s", make_splits,
                  src, tgt, st.cfg.faults(),
                  SplitCounts(plan.n_train, plan.n_finetune, plan.n_test), seed=seeds.data)
    path = os.path.join(workdir, "dataset.edgewts")
    _timed(st.stages, "archive.dataset.save_s", save_splits, made, path)
    st.splits = _timed(st.stages, "archive.dataset.load_s", load_splits, path)
    st.stages["archive.dataset.bytes"] = os.path.getsize(path)
    st.stages["datagen.windows"] = sum(len(getattr(made, k)) for k in (
        "d_training", "d_finetune_src", "d_finetune_tgt", "d_test"))
    oc.check(splits_equal(made, st.splits), "dataset archive round-trip is bit-exact")

    mcfg = st.cfg.model_config()
    cloud = build_model(mcfg, "cloud", seed=seeds.cloud)
    if name == "edge_transfer":
        cfg = replace(st.cfg.cloud_train_config(seeds.train), num_epoch=1)
        reports = train_cloud(cloud, spread_subset(st.splits.d_training, plan.warm_cloud_windows),
                              cfg)
        oc.check(all(math.isfinite(r.loss_classify) for r in reports), "warm-up cloud loss finite")
    st.cloud = model_roundtrip(st, cloud, "cloud", seeds.cloud, workdir, oc)
    if name == "edge_transfer":
        st.cloud.set_training(False)
        st.edge = fresh_edge(st)
        st.edge_start = st.edge.store.snapshot()
    if name == "edge_infer":
        edge = build_model(mcfg, "edge", seed=seeds.edge)
        st.edge = model_roundtrip(st, edge, "edge", seeds.edge, workdir, oc)
        st.cloud.set_training(False)
        st.edge.set_training(False)
    return st


def spread_subset(d: SampleSet, n: int) -> SampleSet:
    """n windows evenly spaced over a class-ordered split, so every class is in."""
    pick = np.linspace(0, len(d) - 1, n).round().astype(np.int64)
    return SampleSet(x=d.x[pick], y=d.y[pick], cond=d.cond[pick], role=d.role)


def fresh_edge(st: State):
    edge = build_model(st.cfg.model_config(), "edge", seed=st.seeds.edge)
    share_pre_fe(st.cloud, edge)
    freeze_pre_fe(edge)
    return edge


# ---------------------------------------------------------------------------
# measurement loops; each returns its per-operation samples

def measure_cloud_train(st: State, plan: Plan, seconds: float, oc: Outcome, tracer=None) -> dict:
    d = st.splits.d_training
    sizes = batch_sizes(len(d), st.cfg["cloud.batch_size"])
    per_epoch = len(sizes)
    clock = StepClock(tracer)
    batches, wall, epoch = [], 0.0, 0
    with clock.installed():
        while epoch == 0 or wall < seconds:
            cfg = replace(st.cfg.cloud_train_config(st.seeds.train + epoch), num_epoch=1)
            before = len(clock.steps)
            t0 = time.perf_counter()
            try:
                reports = train_cloud(st.cloud, d, cfg)
            except Exception:
                oc.op_raised("train_cloud")
                break
            wall += time.perf_counter() - t0
            epoch += 1
            steps = clock.steps[before:]
            batches += [(n, s[1] / 1e3) for n, s in zip(sizes, steps)]
            oc.ops(len(steps))
            oc.check(len(steps) == per_epoch, f"{per_epoch} steps per cloud epoch")
            oc.check(all(math.isfinite(r.loss_classify) for r in reports), "cloud loss finite")
            oc.check(all(s[3] == 1 for s in steps), "one backward per cloud step")
    return {"op_ms": [s[1] for s in clock.steps], "batches": batches, "clock": clock}


def measure_edge_transfer(st: State, plan: Plan, seconds: float, oc: Outcome, tracer=None) -> dict:
    fs, ft = st.splits.d_finetune_src, st.splits.d_finetune_tgt
    per_epoch = math.ceil(len(ft) / st.cfg["transfer.batch_size"])
    late = [e for e in range(1, TRANSFER_EPOCHS + 1) if 10 * e > 9 * TRANSFER_EPOCHS]
    clock = StepClock(tracer)
    wall, rnd = 0.0, 0
    with clock.installed():
        while rnd == 0 or wall < seconds:
            cfg = replace(st.cfg.transfer_train_config(st.seeds.train + rnd),
                          num_epoch=TRANSFER_EPOCHS)
            for variant in TRANSFER_VARIANTS:
                edge = fresh_edge(st)
                oc.check(all(np.array_equal(t.data, st.edge_start[n])
                             for n, t in edge.store.items()),
                         "every variant starts from the same shared and frozen state")
                frozen = {n: t.data.copy() for n, t in edge.store.items() if n.startswith(PRE_FE)}
                clock.label = variant
                before = len(clock.steps)
                t0 = time.perf_counter()
                try:
                    reports = transfer_edge(st.cloud, edge, fs, ft, cfg, variant=variant)
                except Exception:
                    oc.op_raised(f"transfer_edge {variant}")
                    return _transfer_result(clock, st.cfg["transfer.batch_size"])
                wall += time.perf_counter() - t0
                steps = clock.steps[before:]
                oc.ops(len(steps))
                oc.check(len(steps) == per_epoch * TRANSFER_EPOCHS, f"{variant} step count")
                oc.check(all(math.isfinite(r.loss_feature) and math.isfinite(r.loss_classify)
                             for r in reports), f"{variant} losses finite")
                zero_alpha = late if variant == "proposed" else [r.epoch for r in reports]
                oc.check(all(reports[e - 1].alpha == 0.0 for e in zero_alpha),
                         f"{variant} alpha == 0 in epochs {zero_alpha}")
                oc.check(all(np.array_equal(edge.store[n].data, a) for n, a in frozen.items()),
                         f"{variant} leaves pre_fe bit-identical")
            rnd += 1
    return _transfer_result(clock, st.cfg["transfer.batch_size"])


def _transfer_result(clock: StepClock, batch: int) -> dict:
    """Every step, of either variant, takes a balanced batch of ``batch`` target windows."""
    return {"op_ms": [s[1] for s in clock.steps], "clock": clock,
            "batches": [(batch, s[1] / 1e3) for s in clock.of("proposed")]}


LOGIT_RTOL = 1e-5                 # batch-1 vs batch-64 logits, float32 storage
LOGIT_ATOL = 1e-6


def _argmax_agrees(a: np.ndarray, b: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Equal argmax per row, except rows whose top two logits tie within tol."""
    top2 = np.sort(b, axis=1)[:, -2:]
    tie = (top2[:, 1] - top2[:, 0]) <= tol
    return (np.argmax(a, axis=1) == np.argmax(b, axis=1)) | tie


def measure_edge_infer(st: State, plan: Plan, seconds: float, oc: Outcome, tracer=None) -> dict:
    d = st.splits.d_test
    rng = np.random.default_rng([st.seeds.order, 1])
    edge_ms, cloud_ms, chunks, evals = [], [], [], []
    b1 = {}
    t_start = time.perf_counter()
    while not edge_ms or time.perf_counter() - t_start < seconds:
        # edge and cloud calls alternate, so both latencies sample the same stretch of time
        for i in rng.integers(0, len(d), size=plan.infer_pairs):
            x = Tensor(d.x[i:i + 1])
            for model, sink in ((st.edge, edge_ms), (st.cloud, cloud_ms)):
                if tracer is not None:
                    tracer.begin_step()
                t0 = time.perf_counter()
                try:
                    out = model.forward_logits(x)
                except Exception:
                    oc.op_raised(f"{model.kind} forward_logits")
                    return _infer_result(edge_ms, cloud_ms, chunks)
                sink.append((time.perf_counter() - t0) * 1e3)
                if tracer is not None:
                    tracer.end_step()
                oc.ops(1)
                if model is st.edge:
                    row = b1.setdefault(int(i), out.data[0].copy())
                    oc.check(np.array_equal(row, out.data[0]), "repeat batch-1 call is identical")
                else:
                    oc.check(np.all(np.isfinite(out.data)), "cloud logits finite")
        try:
            with chunk_clock(st.edge, chunks):
                acc, conf = evaluate(st.edge, d)
        except Exception:
            oc.op_raised("evaluate")
            return _infer_result(edge_ms, cloud_ms, chunks)
        oc.ops(1)
        evals.append((acc, conf.counts.copy()))

    # reference: eval-mode forward_logits at batch 64, as evaluate() chunks it
    ref = np.concatenate([st.edge.forward_logits(Tensor(d.x[i:i + 64])).data
                          for i in range(0, len(d), 64)])
    idx = np.asarray(sorted(b1))
    rows = np.stack([b1[i] for i in idx])
    want = ref[idx]
    tol = LOGIT_ATOL + LOGIT_RTOL * np.abs(want).max(axis=1)
    close = np.abs(rows - want) <= tol[:, None]
    agree = _argmax_agrees(rows, want, tol)
    for ok_close, ok_arg in zip(close.all(axis=1), agree):
        oc.check(ok_close and ok_arg, "batch-1 edge logits match the batch-64 rows")
    pred = np.argmax(ref, axis=1)
    ref_acc = float(np.mean(pred == d.y))
    k = st.cfg["model.num_classes"]
    counts = np.zeros((k, k), dtype=np.int64)
    for p, y in zip(pred, d.y):
        counts[int(y), int(p)] += 1
    for acc, conf in evals:
        oc.check(acc == ref_acc and np.array_equal(conf, counts),
                 "evaluate() agrees with the argmax of the batch-64 logits")
    return _infer_result(edge_ms, cloud_ms, chunks)


def _infer_result(edge_ms, cloud_ms, chunks) -> dict:
    return {"op_ms": edge_ms, "cloud_ms": cloud_ms, "batches": chunks}


@contextmanager
def chunk_clock(model, chunks: list):
    """Append (batch size, seconds) of each forward_logits call on ``model``."""
    forward = model.forward_logits

    def timed(x):
        t0 = time.perf_counter()
        out = forward(x)
        chunks.append((x.shape[0], time.perf_counter() - t0))
        return out

    model.forward_logits = timed
    try:
        yield
    finally:
        del model.forward_logits


MEASURE = {
    "cloud_train": measure_cloud_train,
    "edge_transfer": measure_edge_transfer,
    "edge_infer": measure_edge_infer,
}


def end_to_end(name: str, res: dict) -> tuple:
    """(generic end-to-end metrics, the same under per-workload names, samples).

    Every workload reports the same generic metrics, taken from the slow
    tail: the 75th percentile of operation times and the 25th percentile of
    per-batch throughput. The shared 2-vCPU host switches between a fast
    state and one about 1.65x slower every few milliseconds, spends most of
    its time in the slow one, and the share of fast time drifts from minute
    to minute. The mean and the median of a run move with that share; the
    slow tail moves less. Means, medians and p90s are kept in the record.
    """
    if name == "cloud_train":
        op, alt = res["op_ms"], [s[4] for s in res["clock"].steps]
        names = ("cloud_step_ms", "cloud_forward_ms", "cloud_train_samples_per_s")
    elif name == "edge_transfer":
        op = [s[1] for s in res["clock"].of("proposed")]
        alt = [s[1] for s in res["clock"].of("wo_domain_adaptation")]
        names = ("transfer_proposed_step_ms", "transfer_wo_da_step_ms",
                 "transfer_samples_per_s")
    else:
        op, alt = res["op_ms"], res["cloud_ms"]
        names = ("edge_latency_ms", "cloud_latency_ms", "eval_samples_per_s")
    generic = {
        "op_ms_p75": percentile(op, 75),
        "alt_op_ms_p75": percentile(alt, 75),
        "samples_per_s_p25": percentile(batch_rates(res["batches"]), 25),
    }
    named = {f"{names[2]}_p25": generic["samples_per_s_p25"],
             f"{names[2]}_p50": percentile(batch_rates(res["batches"]), 50)}
    for key, values in ((names[0], op), (names[1], alt)):
        named.update({f"{key}_mean": mean(values), f"{key}_p50": percentile(values, 50),
                      f"{key}_p75": percentile(values, 75), f"{key}_p90": percentile(values, 90)})
    return generic, named, {"op_ms": op, "alt_op_ms": alt, "batches": res["batches"]}


def sample_counts(name: str, res: dict) -> dict:
    if name == "edge_transfer":
        return {v: len(res["clock"].of(v)) for v in TRANSFER_VARIANTS}
    if name == "edge_infer":
        return {"edge": len(res["op_ms"]), "cloud": len(res["cloud_ms"]),
                "evaluate_chunks": len(res["batches"])}
    return {"steps": len(res["op_ms"])}


def exact_counts(res: dict) -> dict:
    """Tape entries and backward calls per step of the workload's training steps."""
    clock = res.get("clock")
    if clock is None:
        return {}
    return {f"{label or 'cloud'}.{k}": v
            for label, counts in clock.counts().items() for k, v in counts.items()}


@contextmanager
def workdir(root: str):
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="work-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_setups(name: str, seeds: Seeds, plan: Plan, wdir: str, oc: Outcome):
    """Set up ``plan.setup_repeats`` times; keep the last state and every time."""
    times, stage_runs = [], []
    st = None
    for _ in range(plan.setup_repeats):
        st = None      # free the previous set-up first, so peak memory holds one
        t0 = time.perf_counter()
        st = setup(name, seeds, plan, wdir, oc)
        times.append(time.perf_counter() - t0)
        stage_runs.append(st.stages)
    stages = {k: median(r[k] for r in stage_runs) for k in stage_runs[0]}
    return st, times, stages

