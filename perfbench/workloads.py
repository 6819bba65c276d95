"""The benchmark's workloads: closed loops of public calls with one caller.

A workload repeats one fixed pass until the run's time is up; the next
call starts when the previous one returns.  Every pass starts from the
same state, so each does identical work and produces identical outputs,
which the pass checks (see `Checks`) and hashes into a digest.

* `search-cnn-mnist`: `run_search` on cnn-small (1x28x28, batch 32, the
  default recipe's alpha, beta and learning rates).  Its time goes to
  max-pool, batch norm and relu more than to conv GEMMs, and its masks
  stay mostly dense.
* `search-resnet-cifar`: `run_search` on resnet-tiny (3x32x32, batch 16,
  alpha 20).  Conv/im2col GEMMs dominate; stride-2 and 1x1 convs and the
  residual `add` run; there is no max-pool; most channels are masked to
  zero within the first iterations.
* `train-prune-mnist`: dense `train_supervised` on cnn-small, then
  `finalize_plan` + `export_pruned` to a seed-drawn plan removing about
  half the FLOPs, `finetune` of the sliced model, `evaluate` on the test
  split and a checkpoint round trip.  No masks and no ratio gradients.

A pass of either search workload is one `run_search` call of one epoch
(`iterations` iterations), followed by the plan/export of its ratios.
`ranking_interval` and `log_interval` are shrunk from the desk recipe so
that each pass holds two ranking refreshes and a probe evaluation on
every fifth iteration.  The probe iterations are then the slowest fifth,
so the 90th percentile of iteration times is the median probe iteration,
not the ragged edge between probe and plain iterations.  The learning
rates run one cosine cycle per pass: the desk recipe's cycle (a fifth of
six epochs) is longer than a pass, and a fifth of one pass would restart
the ratio step before resnet-tiny's channels have collapsed.
"""

from __future__ import annotations

import copy
import hashlib
import math
import resource
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gen_data
from tracer import OPS, Clock, Tracer


@dataclass(frozen=True)
class Spec:
    dataset: str  # "mnist" or "cifar10"
    model: str
    kind: str  # "search" or "train-prune"
    batch: int
    train_n: int  # training images used by one pass
    iterations: int = 0  # search iterations per pass
    alpha: float = 0.5
    ranking_interval: int = 0
    log_interval: int = 0
    probe_size: int = 0


SPECS = {
    "search-cnn-mnist": Spec("mnist", "cnn-small", "search", batch=32, train_n=1280, iterations=40,
                             alpha=0.5, ranking_interval=20, log_interval=5, probe_size=256),
    "search-resnet-cifar": Spec("cifar10", "resnet-tiny", "search", batch=16, train_n=480, iterations=30,
                                alpha=20.0, ranking_interval=15, log_interval=5, probe_size=64),
    "train-prune-mnist": Spec("mnist", "cnn-small", "train-prune", batch=64, train_n=1280),
}

# Generated dataset sizes: large enough that loading is a stable, visible
# share of set-up, small enough to write in well under a second.
MNIST_TRAIN, MNIST_TEST = 6000, 1024
CIFAR_PER_BATCH, CIFAR_TEST = 500, 512
VALIDATION_FRACTION = 0.1
SETUP_REPEATS = 7
EXPORT_REPEATS = 20  # finalize_plan + export_pruned per pass
EVAL_REPEATS = 6  # test-split evaluations per train-prune pass
CHECKPOINT_REPEATS = 3
CHECK_IMAGES = 64  # images compared in the logits checks
LOGIT_TOL = 1e-5  # the suite's masked-dense vs sliced tolerance (criterion 4)
EVAL_BATCH = 256
TRAIN_BATCH = 64
CHANCE = 1.0 / gen_data.CLASSES

# The host this runs on swings between speed regimes for minutes at a time:
# the same pass measured 100 ms per search iteration in one run and 190 ms
# in another.  A fixed numpy + Python kernel, owned by the benchmark and
# timed between passes, slows with the host.  End-to-end timings are
# reported at the nominal speed, where one kernel block takes
# CALIBRATION_NOMINAL_MS, so they follow the program's own cost rather than
# the host's; the report lines also give the raw figures.  Changing the
# kernel or the nominal value changes the unit of every timing.
CALIBRATION_BLOCKS = 20  # kernel blocks timed before the first pass and after each pass
CALIBRATION_NOMINAL_MS = 17.0

E2E_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def conv_ids(ap, name: str, shape) -> list[int]:
    model = ap.model.build_model(name, gen_data.CLASSES, shape)
    return [l.id for l in model.layers if l.kind == "conv"]


def per_layer_units(ap) -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"data.load_s": "s/call", "data.batch_ms": "ms/batch"}
    for op in OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms/step"
        units[f"tensor.{op}.bwd_ms"] = "ms/step"
        units[f"tensor.{op}.calls"] = "count/step"
    units.update({
        "tensor.backward.self_ms": "ms/step",
        "tensor.nodes_per_step": "count/step",
        "tensor.conv2d.flop": "flop-computed",
        "tensor.conv2d.im2col_bytes": "B-computed",
        "tensor.conv2d.gflops_per_s": "Gflop/s-computed",
    })
    for model, shape in (("cnn-small", gen_data.MNIST_SHAPE), ("resnet-tiny", gen_data.CIFAR_SHAPE)):
        for lid in conv_ids(ap, model, shape):
            units[f"tensor.conv2d.{model}.L{lid}.fwd_ms"] = "ms/step"
            units[f"tensor.conv2d.{model}.L{lid}.bwd_ms"] = "ms/step"
    units.update({
        "masking.ratio_mask_tensor_ms": "ms/step",
        "masking.build_mask_ms": "ms/step",
        "masking.refresh_ranking_ms": "ms/step",
        "masking.kink_count": "count/pass",
        "masking.zero_mask_frac": "fraction",
        "objective.combined_loss_ms": "ms/step",
        "objective.flops_cost_tensor_ms": "ms/step",
        "model.forward.train.self_ms": "ms/step",
        "model.forward.eval.self_ms": "ms/step",
        "model.exact_flops_calls": "count/step",
        "model.exact_flops_ms": "ms/step",
        "search.inner_step_ms": "ms/call",
        "search.outer_step_ms": "ms/call",
        "search.outer_step.bwd_ms": "ms/call",
        "search.probe_eval_ms": "ms/iter",
        "search.loop.self_ms": "ms/iter",
        "pruner.finalize_plan_ms": "ms/call",
        "pruner.export_pruned_ms": "ms/call",
        "pruner.train_step_ms.dense": "ms/step",
        "pruner.train_step_ms.pruned": "ms/step",
        "pruner.epoch_eval_ms": "ms/call",
        "pruner.save_checkpoint_ms": "ms/call",
        "pruner.load_checkpoint_ms": "ms/call",
        "pruner.checkpoint_bytes": "B",
        "trace_overhead_frac": "fraction",
    })
    return units


class Checks:
    """Output checks and timed calls; both count toward `attempted`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def call(self, name: str, fn, *args, **kwargs):
        """A timed public call; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a result, not a crash
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def _digest(ratios: dict, plan, model) -> str:
    h = hashlib.sha256()
    for i in sorted(ratios):
        h.update(np.float64(ratios[i]).tobytes())
    for i in sorted(plan.entries):
        h.update(np.asarray(plan.entries[i].kept_channel_ids, dtype=np.int64).tobytes())
    for p in model.parameters():
        h.update(np.ascontiguousarray(p.data).tobytes())
    for lid in sorted(model.bn_stats):
        h.update(model.bn_stats[lid].mean.tobytes())
        h.update(model.bn_stats[lid].var.tobytes())
    return h.hexdigest()


class Calibration:
    """The machine-speed kernel: GEMM, elementwise, reductions, a strided gather, a Python loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((32, 144)).astype(np.float32)
        self.cols = rng.standard_normal((144, 6272)).astype(np.float32)
        self.x = rng.standard_normal((32, 16, 28, 28)).astype(np.float32)
        self.block_ms: list[float] = []

    def measure(self) -> None:
        x = self.x
        for _ in range(CALIBRATION_BLOCKS):
            t0 = perf_counter()
            for _ in range(2):
                self.w @ self.cols
                np.where(x > 0, x, np.float32(0))
                x.mean(axis=(0, 2, 3))
                x.var(axis=(0, 2, 3))
                x.reshape(32, 16, 14, 2, 14, 2).transpose(0, 1, 2, 4, 3, 5).reshape(32, 16, 14, 14, 4).argmax(-1)
            total = 0
            for i in range(3000):
                total += i * i
            self.block_ms.append((perf_counter() - t0) * 1e3)

    def scale(self) -> float:
        """Multiply a duration, or divide a rate, by this to express it at nominal speed."""
        return CALIBRATION_NOMINAL_MS / statistics.median(self.block_ms)


class Runner:
    """Generates inputs, sets up, warms up, then repeats passes until time is up."""

    def __init__(self, ap, name: str, seed: int, workdir: Path):
        self.ap = ap
        self.spec = SPECS[name]
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.clock = Clock(ap)
        self.calibration = Calibration()
        self.tracer: Tracer | None = None
        self.tracing = False
        self.passes: list[dict] = []
        self.digest: str | None = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        ap, spec = self.ap, self.spec
        datadir = Path(tempfile.mkdtemp(prefix="data-", dir=self.workdir))
        if spec.dataset == "mnist":
            gen_data.write_mnist(datadir, self.seed, MNIST_TRAIN, MNIST_TEST)
            load, shape = ap.data.load_mnist, gen_data.MNIST_SHAPE
        else:
            gen_data.write_cifar10(datadir, self.seed, CIFAR_PER_BATCH, CIFAR_TEST)
            load, shape = ap.data.load_cifar10, gen_data.CIFAR_SHAPE
        self.setup_s, self.load_s = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            train_full, test = load(str(datadir))
            t1 = perf_counter()
            train, val = ap.data.split_validation(train_full, VALIDATION_FRACTION, seed=self.seed)
            model = ap.model.build_model(spec.model, gen_data.CLASSES, shape,
                                         rng=np.random.default_rng(self.seed))
            t2 = perf_counter()
            self.setup_s.append(t2 - t0)
            self.load_s.append(t1 - t0)
        self.train, self.val, self.test = train.take(spec.train_n), val, test
        self.base = model
        self.check_x = test.images[:CHECK_IMAGES]

    def prepare(self) -> None:
        """Untimed: pretrain the search start point, fix the plan, warm up."""
        ap, spec = self.ap, self.spec
        if spec.kind == "search":
            pre = ap.pruner.train_supervised(self.base, self.train, self.val.take(EVAL_BATCH), epochs=1,
                                             lr_max=0.1, lr_min=0.01, batch_size=spec.batch, seed=self.seed)
            self.check("pretrain loss finite", not pre.diverged)
            self.config = ap.search.SearchConfig(
                alpha=spec.alpha, epochs=1, batch_size=spec.batch, ranking_interval=spec.ranking_interval,
                log_interval=spec.log_interval, probe_size=spec.probe_size, cosine_period_epochs=1.0,
                seed=self.seed)
            warm = ap.search.SearchConfig(**{**self.config.__dict__, "log_interval": 1})
            model = copy.deepcopy(self.base)
            ap.search.run_search(model, self.train.take(2 * spec.batch), self.val, warm)
            plan = ap.pruner.finalize_plan(model, {i: 1.0 for i in model.prunable_ids()})
            ap.pruner.export_pruned(model, plan)
        else:
            self.ratios = gen_data.prune_ratios(self.seed, self.base)
            model = copy.deepcopy(self.base)
            ap.pruner.train_supervised(model, self.train.take(2 * TRAIN_BATCH), self.val.take(EVAL_BATCH),
                                       epochs=1, lr_max=0.1, lr_min=0.01, batch_size=TRAIN_BATCH, seed=self.seed)
            small = ap.pruner.export_pruned(model, ap.pruner.finalize_plan(model, self.ratios))
            ap.model.evaluate(small, self.test.images[:EVAL_BATCH], self.test.labels[:EVAL_BATCH])

    def check(self, name: str, ok: bool) -> None:
        self.checks.check(name, bool(ok))

    # -- passes --------------------------------------------------------------

    def _call(self, name: str, fn, *args, **kwargs):
        """A timed public call, spanned when the pass is traced."""
        if self.tracing:
            return self.checks.call(name, self.tracer.call, name, fn, *args, **kwargs)
        return self.checks.call(name, fn, *args, **kwargs)

    @contextmanager
    def _untraced(self):
        """Lift the trace hooks while the benchmark computes its own checks."""
        if not self.tracing:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install(self.ap)

    def _timed(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = self._call(name, fn, *args, **kwargs)
        return out, perf_counter() - t0

    def _prune_export(self, model, ratios, rec: dict):
        ap = self.ap
        rec["prune_export_ms"] = []
        plan = small = None
        for _ in range(EXPORT_REPEATS):
            t0 = perf_counter()
            plan = self._call("pruner.finalize_plan", ap.pruner.finalize_plan, model, ratios)
            small = self._call("pruner.export_pruned", ap.pruner.export_pruned, model, plan)
            rec["prune_export_ms"].append((perf_counter() - t0) * 1e3)
        if plan is None or small is None:
            return None, None
        masks = {}
        for i, e in plan.entries.items():
            v = np.zeros(model.layer(i).out_channels, dtype=np.float32)
            v[e.kept_channel_ids] = 1.0
            masks[i] = v
        with self._untraced(), ap.tensor.no_grad():
            dense = ap.model.forward(model, self.check_x, masks=masks, mode="eval").data
            sliced = ap.model.forward(small, self.check_x, mode="eval").data
        self.check("sliced logits match masked-dense logits", np.abs(dense - sliced).max() <= LOGIT_TOL)
        return plan, small

    def _ratios_in_range(self, model, ratios) -> bool:
        return all(1.0 / model.layer(i).out_channels <= r <= 1.0 for i, r in ratios.items())

    def search_pass(self, rec: dict) -> None:
        ap = self.ap
        model = copy.deepcopy(self.base)
        self.clock.reset()
        t0 = perf_counter()
        result = self._call("search.run_search", ap.search.run_search, model, self.train, self.val, self.config)
        t1 = perf_counter()
        if result is None:
            return
        ends = self.clock.iter_ends
        bounds = [t0] + ends[:-1] + [t1]
        rec["step_ms"] = (np.diff(bounds) * 1e3).tolist()
        rec["eval_images_per_s"] = [n / (b - a) for a, b, n in self.clock.probe_spans]
        rec["iterations"] = result.iterations
        rec["kink_count"] = result.diagnostics.kink_count
        self.check("search ran every iteration", result.iterations == len(ends) == self.spec.iterations)
        self.check("search losses finite",
                   all(math.isfinite(r["loss_ce"]) and math.isfinite(r["total"]) for r in result.metrics))
        self.check("ratios within [1/C, 1]", self._ratios_in_range(model, result.ratios))
        plan, small = self._prune_export(model, result.ratios, rec)
        rec["wall_s"] = (t1 - t0) + sum(rec["prune_export_ms"]) / 1e3
        if plan is None:
            return
        self.check("run_search fpr_exact equals finalize_plan fpr", result.fpr_exact == plan.fpr)
        rec["fpr_exact"] = result.fpr_exact
        rec["search_val_accuracy"] = result.metrics[-1]["val_accuracy"]
        self.check("search accuracy above chance", rec["search_val_accuracy"] > CHANCE)
        rec["digest"] = _digest(result.ratios, plan, model)

    def train_prune_pass(self, rec: dict) -> None:
        ap, seed = self.ap, self.seed
        model = copy.deepcopy(self.base)
        self.clock.reset()
        t0 = perf_counter()
        dense, t_dense = self._timed("pruner.train_supervised", ap.pruner.train_supervised, model, self.train,
                                     self.val, epochs=1, lr_max=0.1, lr_min=0.01, batch_size=TRAIN_BATCH,
                                     seed=seed)
        rec["step_ms"] = (np.diff([t0] + self.clock.step_ends) * 1e3).tolist()
        rec["dense_steps"] = len(self.clock.step_ends)
        if dense is None:
            return
        self.check("dense losses finite", not dense.diverged)
        self.check("dense accuracy above chance", dense.best_val_accuracy > CHANCE)
        self.check("plan ratios within [1/C, 1]", self._ratios_in_range(model, self.ratios))
        plan, small = self._prune_export(model, self.ratios, rec)
        if plan is None:
            return
        rec["fpr_exact"] = plan.fpr
        self.clock.reset()
        t0 = perf_counter()
        tuned, t_tune = self._timed("pruner.finetune", ap.pruner.finetune, small, self.train, self.val,
                                    epochs=1, lr_max=0.01, lr_min=0.0001, batch_size=TRAIN_BATCH, seed=seed)
        rec["finetune_step_ms"] = (np.diff([t0] + self.clock.step_ends) * 1e3).tolist()
        rec["pruned_steps"] = len(self.clock.step_ends)
        if tuned is None:
            return
        self.check("finetune losses finite", not tuned.diverged)
        rec["eval_images_per_s"], tops, t_eval = [], [], 0.0
        for _ in range(EVAL_REPEATS):
            top1, dt = self._timed("model.evaluate", ap.model.evaluate, small, self.test.images,
                                   self.test.labels, batch_size=EVAL_BATCH)
            tops.append(top1)
            t_eval += dt
            rec["eval_images_per_s"].append(len(self.test) / dt)
        self.check("evaluate is repeatable", len(set(tops)) == 1)
        rec["top1"] = tops[0]
        self.check("test accuracy above chance", tops[0] is not None and tops[0] > CHANCE)
        rec["checkpoint_roundtrip_ms"] = []
        loaded = None
        for k in range(CHECKPOINT_REPEATS):
            target = self.workdir / f"ckpt{k}"
            _, t_save = self._timed("pruner.save_checkpoint", ap.pruner.save_checkpoint, small, target)
            out, t_load = self._timed("pruner.load_checkpoint", ap.pruner.load_checkpoint, target)
            loaded = out[0] if out is not None else None
            rec["checkpoint_roundtrip_ms"].append((t_save + t_load) * 1e3)
            rec["checkpoint_bytes"] = sum(f.stat().st_size for f in target.iterdir())
        with self._untraced(), ap.tensor.no_grad():
            want = ap.model.forward(small, self.check_x, mode="eval").data
            got = ap.model.forward(loaded, self.check_x, mode="eval").data if loaded is not None else None
        self.check("checkpoint round trip reproduces logits bit for bit",
                   got is not None and np.array_equal(want, got))
        rec["wall_s"] = (t_dense + sum(rec["prune_export_ms"]) / 1e3 + t_tune + t_eval
                         + sum(rec["checkpoint_roundtrip_ms"]) / 1e3)
        rec["digest"] = _digest(self.ratios, plan, small)

    def run_pass(self, traced: bool) -> None:
        rec: dict = {"traced": traced}
        if traced:
            self.tracer.install(self.ap)
            self.tracing = True
        try:
            if self.spec.kind == "search":
                self.search_pass(rec)
            else:
                self.train_prune_pass(rec)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracing = False
        digest = rec.get("digest")
        if self.digest is None:
            self.digest = digest
        self.check("pass output digest equals the first pass's", digest is not None and digest == self.digest)
        self.passes.append(rec)

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat passes until `seconds` have elapsed.

        A traced run alternates untraced and traced passes, starting
        untraced, so the trace overhead is measured in the same process.
        """
        if trace:
            self.tracer = Tracer()
        self.calibration.measure()
        deadline = perf_counter() + seconds
        while True:
            traced = trace and len(self.passes) % 2 == 1
            self.run_pass(traced)
            self.calibration.measure()
            if perf_counter() >= deadline and (not trace or any(p["traced"] for p in self.passes)):
                break

    # -- metrics -------------------------------------------------------------

    def _pool(self, key: str) -> list[float]:
        """One sample list over the untraced passes."""
        return [v for p in self.passes if not p["traced"] for v in p.get(key, [])]

    def end_to_end(self, nominal: bool = True) -> dict[str, float]:
        """The gated metrics; timings at nominal machine speed unless `nominal` is off."""
        k = self.calibration.scale() if nominal else 1.0
        steps = self._pool("step_ms")
        return {
            "setup_s": statistics.median(self.setup_s) * k,
            "step_ms_p50": float(np.percentile(steps, 50)) * k,
            "step_ms_p90": float(np.percentile(steps, 90)) * k,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def report(self) -> dict:
        """Every named end-to-end figure that applies to this workload, with units.

        Timings are at nominal machine speed, as in the gated metrics; the
        `raw_` entries repeat the gated timings as measured.
        """
        k = self.calibration.scale()
        e2e = self.end_to_end()
        steps = self._pool("step_ms")
        out = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
        for name, v in self.end_to_end(nominal=False).items():
            if name != "peak_rss_mb":
                out[f"raw_{name}"] = {"value": v, "unit": E2E_UNITS[name]}
        walls = [p["wall_s"] for p in self.passes if not p["traced"] and "wall_s" in p]
        out["wall_s"] = {"value": statistics.median(walls) * k, "unit": "s"}
        out["raw_wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        rate = statistics.median(self._pool("eval_images_per_s"))
        out["eval_images_per_s"] = {"value": rate / k, "unit": "1/s"}
        out["raw_eval_images_per_s"] = {"value": rate, "unit": "1/s"}
        out["calibration_block_ms"] = {"value": statistics.median(self.calibration.block_ms), "unit": "ms"}
        first = self.passes[0]
        out["step_samples"] = {"value": len(steps), "unit": "count"}
        out["prune_export_ms"] = {"value": statistics.median(self._pool("prune_export_ms")) * k, "unit": "ms"}
        out["passes"] = {"value": len(self.passes), "unit": "count"}
        if self.spec.kind == "search":
            out["search_iter_ms_p50"] = out["step_ms_p50"]
            out["search_iter_ms_p90"] = out["step_ms_p90"]
            out["fpr_exact"] = {"value": first.get("fpr_exact"), "unit": "fraction"}
            out["search_val_accuracy"] = {"value": first.get("search_val_accuracy"), "unit": "fraction"}
        else:
            tune = self._pool("finetune_step_ms")
            out["train_images_per_s"] = {"value": TRAIN_BATCH / (e2e["step_ms_p50"] / 1e3), "unit": "1/s"}
            out["finetune_images_per_s"] = {"value": TRAIN_BATCH / (statistics.median(tune) * k / 1e3),
                                            "unit": "1/s"}
            out["checkpoint_roundtrip_ms"] = {
                "value": statistics.median(self._pool("checkpoint_roundtrip_ms")) * k, "unit": "ms"}
            out["fpr_exact"] = {"value": first.get("fpr_exact"), "unit": "fraction"}
            out["top1"] = {"value": first.get("top1"), "unit": "fraction"}
        out["ops_failed_frac"] = {"value": self.checks.failed / max(1, self.checks.attempted),
                                  "unit": "fraction"}
        return out

    def per_layer(self) -> dict[str, float]:
        """Per-layer figures from the traced passes (see `per_layer_units`)."""
        units = per_layer_units(self.ap)
        m = {name: 0.0 for name in units}
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]
        summ = self.tracer.summary()
        counts = self.tracer.counts
        search = self.spec.kind == "search"
        iters = sum(p.get("iterations", 0) for p in traced)
        sgd = sum(p.get("dense_steps", 0) + p.get("pruned_steps", 0) for p in traced)
        steps = max(1, iters if search else sgd)

        def row(name):
            return summ.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "outer_ms": 0.0})

        def per_call(name, key="total_ms"):
            r = row(name)
            return r[key] / r["calls"] if r["calls"] else 0.0

        m["data.load_s"] = statistics.median(self.load_s)
        m["data.batch_ms"] = per_call("data.batch", "self_ms")
        conv_ms = 0.0
        for name, r in summ.items():
            if name.startswith("tensor.conv2d."):
                direction, label = name[len("tensor.conv2d."):].split("@")
                conv_ms += r["self_ms"]
                m[f"tensor.conv2d.{direction}_ms"] += r["self_ms"] / steps
                m["tensor.conv2d.calls"] += r["calls"] / steps if direction == "fwd" else 0.0
                key = f"tensor.conv2d.{label}.{direction}_ms"
                if key in m:
                    m[key] += r["self_ms"] / steps
        for op in OPS:
            if op == "conv2d":
                continue
            m[f"tensor.{op}.fwd_ms"] = row(f"tensor.{op}.fwd")["self_ms"] / steps
            m[f"tensor.{op}.bwd_ms"] = row(f"tensor.{op}.bwd")["self_ms"] / steps
            m[f"tensor.{op}.calls"] = row(f"tensor.{op}.fwd")["calls"] / steps
        m["tensor.backward.self_ms"] = row("tensor.backward")["self_ms"] / steps
        m["tensor.nodes_per_step"] = counts["tensor.nodes"] / steps
        m["tensor.conv2d.flop"] = counts["conv2d.flop"] / steps
        m["tensor.conv2d.im2col_bytes"] = counts["conv2d.im2col_bytes"] / steps
        m["tensor.conv2d.gflops_per_s"] = counts["conv2d.flop"] / (conv_ms / 1e3) / 1e9 if conv_ms else 0.0
        m["masking.ratio_mask_tensor_ms"] = (row("masking.ratio_mask_tensor.fwd")["self_ms"]
                                             + row("masking.ratio_mask_tensor.bwd")["self_ms"]) / steps
        m["masking.build_mask_ms"] = row("masking.build_mask")["self_ms"] / steps
        m["masking.refresh_ranking_ms"] = row("masking.refresh_ranking")["self_ms"] / steps
        if search:
            m["masking.kink_count"] = float(self.passes[0].get("kink_count", 0))
        zeros, total = counts["mask.zero_channels"], counts["mask.channels"]
        m["masking.zero_mask_frac"] = zeros / total if total else 0.0
        m["objective.combined_loss_ms"] = row("objective.combined_loss")["self_ms"] / steps
        m["objective.flops_cost_tensor_ms"] = (row("objective.flops_cost_tensor.fwd")["self_ms"]
                                               + row("objective.flops_cost_tensor.bwd")["self_ms"]) / steps
        m["model.forward.train.self_ms"] = row("model.forward.train")["self_ms"] / steps
        m["model.forward.eval.self_ms"] = row("model.forward.eval")["self_ms"] / steps
        m["model.exact_flops_calls"] = row("model.exact_flops")["calls"] / steps
        m["model.exact_flops_ms"] = row("model.exact_flops")["self_ms"] / steps
        m["search.inner_step_ms"] = per_call("search.inner_step")
        m["search.outer_step_ms"] = per_call("search.outer_step")
        outer_calls = row("search.outer_step")["calls"]
        if outer_calls:
            bwd = sum(r["outer_ms"] for name, r in summ.items() if ".bwd" in name and name.startswith("tensor."))
            m["search.outer_step.bwd_ms"] = bwd / outer_calls
        if iters:
            m["search.probe_eval_ms"] = row("search.probe_eval")["total_ms"] / iters
            m["search.loop.self_ms"] = row("search.run_search")["self_ms"] / iters
        m["pruner.finalize_plan_ms"] = per_call("pruner.finalize_plan")
        m["pruner.export_pruned_ms"] = per_call("pruner.export_pruned")
        if not search:
            m["pruner.train_step_ms.dense"] = float(np.median([s for p in traced for s in p["step_ms"]]))
            m["pruner.train_step_ms.pruned"] = float(
                np.median([s for p in traced for s in p["finetune_step_ms"]]))
            m["pruner.checkpoint_bytes"] = float(self.passes[0].get("checkpoint_bytes", 0))
        m["pruner.epoch_eval_ms"] = per_call("pruner.epoch_eval")
        m["pruner.save_checkpoint_ms"] = per_call("pruner.save_checkpoint")
        m["pruner.load_checkpoint_ms"] = per_call("pruner.load_checkpoint")
        t_wall = statistics.median(p["wall_s"] for p in traced)
        u_wall = statistics.median(p["wall_s"] for p in untraced)
        m["trace_overhead_frac"] = t_wall / u_wall - 1.0
        return m
