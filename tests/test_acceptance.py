"""Acceptance suite: one test per shipping criterion.

Each test asserts its stated tolerance and records a one-line verdict
(printed in the terminal summary).  Criteria 6-8 run the desk-scale
pipeline on real MNIST and are skipped when AUTOPRUNE_DATA_DIR does not
point at the IDX files; everything else is self-contained and fast.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from autoprune.cli import main
from autoprune.data import DATA_DIR_ENV, MNIST_FILES, load_mnist, split_validation
from autoprune.masking import (
    build_mask,
    mask_by_rank,
    rank_channels,
    ratio_mask_tensor,
    refresh_ranking,
)
from autoprune.model import build_model, forward, prunable_flops
from autoprune.objective import combined_loss, flops_cost, flops_cost_grad
from autoprune.pruner import export_pruned, finalize_plan, load_checkpoint
from autoprune.search import SearchConfig, run_search
from autoprune.tensor import (
    RunningStats,
    Tensor,
    backward,
    batch_norm2d,
    channel_scale,
    conv2d,
    finite_diff_check,
    linear,
    no_grad,
    pool2d,
    relu,
    reshape,
    use_dtype,
)

import test_tensor

VERDICT_DETAILS: dict[int, str] = {}


def note(criterion: int, detail: str) -> None:
    VERDICT_DETAILS[criterion] = detail


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def mnist_dir():
    root = os.environ.get(DATA_DIR_ENV)
    if not root:
        pytest.skip(f"set {DATA_DIR_ENV} to the MNIST directory for desk-scale criteria")
    missing = [f for f in MNIST_FILES.values() if not (Path(root) / f).is_file()]
    if missing:
        pytest.skip(f"MNIST files missing under {root}: {missing}")
    return str(root)


def _run_phases(out_dir, mnist_dir, seed):
    times = {}
    for phase in ("pretrain", "search", "prune"):
        t0 = time.perf_counter()
        code = main([phase, "--data-dir", mnist_dir, "--out", str(out_dir),
                     "--seed", str(seed)])
        times[phase] = time.perf_counter() - t0
        assert code == 0, f"{phase} exited with {code}"
    return times


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory, mnist_dir):
    """Two identical desk-scale runs: metrics for one, determinism across both."""
    root = tmp_path_factory.mktemp("desk")
    run_a, run_b = root / "a", root / "b"
    times_a = _run_phases(run_a, mnist_dir, seed=0)
    assert main(["report", "--data-dir", mnist_dir, "--out", str(run_a)]) == 0
    times_b = _run_phases(run_b, mnist_dir, seed=0)
    return {"a": run_a, "b": run_b, "times_a": times_a, "times_b": times_b}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_mask_rule_grid():
    def piecewise(ratio, channels):
        # independent statement of the rule: full above the boundary rank,
        # fractional at it, empty below
        rc = ratio * channels
        out = np.empty(channels, dtype=np.float64)
        for k in range(1, channels + 1):
            if k <= math.floor(rc):
                out[k - 1] = 1.0
            elif k == math.floor(rc) + 1:
                out[k - 1] = min(max(rc - math.floor(rc), 0.0), 1.0)
            else:
                out[k - 1] = 0.0
        return out

    t0 = time.perf_counter()
    worst_rule = 0.0
    worst_mass = 0.0
    for channels in range(1, 33):
        for hundredths in range(0, 101):
            ratio = hundredths / 100.0
            got = mask_by_rank(ratio, channels)
            worst_rule = max(worst_rule, float(np.abs(got - piecewise(ratio, channels)).max()))
            worst_mass = max(worst_mass, abs(got.sum() - min(ratio * channels, channels)))
    elapsed = time.perf_counter() - t0
    note(1, f"closed vs piecewise {worst_rule:.2e} (<=1e-9), "
            f"mass {worst_mass:.2e} (<=1e-6), {elapsed:.2f}s (<1s)")
    assert worst_rule <= 1e-9
    assert worst_mass <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_worked_mask():
    got = mask_by_rank(0.55, 16)
    assert np.array_equal(got[:8], np.ones(8))
    assert np.array_equal(got[9:], np.zeros(7))
    assert abs(got[8] - 0.8) < 1e-12
    note(2, f"C=16 R=0.55 -> ones x8, {got[8]:.12f}, zeros x7")


def _ratio_grad_model_case(dtype):
    """End-to-end loss(ratio) for each prunable layer of a small model,
    built in the engine's default dtype, which the caller sets to `dtype`."""
    model = build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(0))
    assert model.params[0]["weight"].data.dtype == dtype
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 1, 8, 8)).astype(dtype)
    labels = rng.integers(0, 10, 6)
    flops = prunable_flops(model)
    ids = sorted(flops)
    channels = {i: model.layer(i).out_channels for i in ids}
    rankings = {i: rank_channels(model.params[i]["weight"].data) for i in ids}
    # midway between kinks for every width in the model
    base = {i: (math.floor(0.65 * channels[i]) + 0.5) / channels[i] for i in ids}

    def loss_of(ratios):
        rts = {i: Tensor(np.float64(ratios[i]), requires_grad=True, dtype=np.float64)
               for i in ids}
        masks = {i: ratio_mask_tensor(rts[i], rankings[i], dtype=dtype) for i in ids}
        logits = forward(model, x, masks=masks, mode="train", update_running=False)
        loss_t, _ = combined_loss(logits, labels, [rts[i] for i in ids],
                                  [flops[i] for i in ids], 0.5, 0.3)
        return loss_t, rts

    return ids, base, channels, loss_of


def _full_ratio_analytic(dtype):
    """Analytic end-to-end loss gradient per ratio on the full model."""
    ids, base, channels, loss_of = _ratio_grad_model_case(dtype)
    loss_t, rts = loss_of(base)
    backward(loss_t)
    return ids, {i: float(rts[i].grad) for i in ids}, base, loss_of


def _full_ratio_fd_worst(dtype, step):
    """Worst relative FD error of the full-model loss gradient per ratio.

    Only meaningful with a step small enough that no downstream relu
    input crosses zero inside the window; a big step turns the central
    difference into an average over several linear pieces and stops
    measuring the gradient at the base point.
    """
    ids, analytic, base, loss_of = _full_ratio_analytic(dtype)
    worst = 0.0
    for i in ids:
        with no_grad():
            hi = dict(base)
            hi[i] += step
            lo = dict(base)
            lo[i] -= step
            f_hi = float(loss_of(hi)[0].data)
            f_lo = float(loss_of(lo)[0].data)
        numeric = (f_hi - f_lo) / (2 * step)
        denom = max(abs(analytic[i]), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def _mask_terminal_loss(dtype):
    """End-to-end loss(r) through conv, bn, relu, mask, pool, head, cost.

    The mask sits after the only relu, so between the mask rule's own
    kinks the loss is smooth in r and a central difference at float32
    precision is a valid oracle for the composed ratio gradient.
    """
    rng = np.random.default_rng(7)
    c = 16
    x = Tensor(rng.standard_normal((5, 3, 8, 8)).astype(dtype))
    w = Tensor((0.3 * rng.standard_normal((c, 3, 3, 3))).astype(dtype))
    gamma = Tensor(np.ones(c, dtype=dtype))
    beta = Tensor(np.zeros(c, dtype=dtype))
    stats = RunningStats.zeros(c, dtype=dtype)
    wh = Tensor((0.3 * rng.standard_normal((c, 10))).astype(dtype))
    bh = Tensor(np.zeros(10, dtype=dtype))
    labels = rng.integers(0, 10, 5)
    ranking = rank_channels(w.data)

    def loss_of(r_val):
        r = Tensor(np.float64(r_val), requires_grad=True, dtype=np.float64)
        mask = ratio_mask_tensor(r, ranking, dtype=dtype)
        pre = relu(batch_norm2d(conv2d(x, w, 1, 1), gamma, beta, stats,
                                mode="train", update_running=False))
        pooled = pool2d(channel_scale(pre, mask), "avg", 8)
        logits = linear(reshape(pooled, (5, c)), wh, bh)
        loss_t, _ = combined_loss(logits, labels, [r], [1000.0], 0.5, 0.3)
        return loss_t, r

    return loss_of


def _mask_terminal_fd(dtype, step):
    loss_of = _mask_terminal_loss(dtype)
    base = 0.65625  # boundary fraction 0.5: half a channel from each kink
    loss_t, r = loss_of(base)
    backward(loss_t)
    analytic = float(r.grad)
    with no_grad():
        f_hi = float(loss_of(base + step)[0].data)
        f_lo = float(loss_of(base - step)[0].data)
    numeric = (f_hi - f_lo) / (2 * step)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def test_criterion_3_gradient_oracles():
    t0 = time.perf_counter()
    worst32 = 0.0
    for name, (f, x, step) in test_tensor._fd_cases(np.float32).items():
        err = finite_diff_check(f, x, step=step)
        assert err < 1e-2, f"{name} float32: {err:.3e}"
        worst32 = max(worst32, err)
    worst64 = 0.0
    with use_dtype(np.float64):
        for name, (f, x, _) in test_tensor._fd_cases(np.float64).items():
            err = finite_diff_check(f, x, step=1e-5)
            assert err < 1e-5, f"{name} float64: {err:.3e}"
            worst64 = max(worst64, err)

    r32 = _mask_terminal_fd(np.float32, step=0.02)
    assert r32 < 1e-2, f"ratio grad float32: {r32:.3e}"
    worst32 = max(worst32, r32)
    with use_dtype(np.float64):
        r64 = _mask_terminal_fd(np.float64, step=1e-5)
        assert r64 < 1e-5, f"ratio grad float64: {r64:.3e}"
        worst64 = max(worst64, r64)
        rfull = _full_ratio_fd_worst(np.float64, step=1e-5)
        assert rfull < 1e-5, f"full-model ratio grad float64: {rfull:.3e}"
        worst64 = max(worst64, rfull)
        _, g64, _, _ = _full_ratio_analytic(np.float64)
    # the float32 build must agree with the FD-validated float64 gradient
    ids, g32, _, _ = _full_ratio_analytic(np.float32)
    rcons = max(abs(g32[i] - g64[i]) / max(abs(g64[i]), 1e-6) for i in ids)
    assert rcons < 1e-2, f"full-model 32 vs 64-bit ratio grad: {rcons:.3e}"
    worst32 = max(worst32, rcons)

    flops = [225792.0, 1806336.0, 903168.0, 1806336.0]
    ratios = [0.62, 0.81, 0.44, 0.73]
    grad = flops_cost_grad(ratios, flops, 0.3)
    worst_cost = 0.0
    h = 1e-6
    for i in range(len(ratios)):
        hi = list(ratios)
        lo = list(ratios)
        hi[i] += h
        lo[i] -= h
        numeric = (flops_cost(hi, flops, 0.3) - flops_cost(lo, flops, 0.3)) / (2 * h)
        worst_cost = max(worst_cost, abs(grad[i] - numeric) / max(abs(numeric), 1e-12))
    assert worst_cost < 1e-6, f"cost grad: {worst_cost:.3e}"

    elapsed = time.perf_counter() - t0
    note(3, f"ops+ratio-path worst {worst32:.1e}/32-bit (<1e-2), "
            f"{worst64:.1e}/64-bit (<1e-5), cost {worst_cost:.1e} (<1e-6), "
            f"{elapsed:.1f}s (<120s)")
    assert elapsed < 120.0


def test_criterion_4_mask_slice_equivalence():
    t0 = time.perf_counter()
    model = build_model("cnn-small", 10, (1, 28, 28), rng=np.random.default_rng(0))
    rng = np.random.default_rng(42)
    x = rng.standard_normal((100, 1, 28, 28)).astype(np.float32)
    ids = model.prunable_ids()
    worst = 0.0
    for _ in range(20):
        ratios = {i: float(rng.uniform(0.2, 1.0)) for i in ids}
        plan = finalize_plan(model, ratios)
        pruned = export_pruned(model, plan)
        masks = {}
        for i, e in plan.entries.items():
            v = np.zeros(model.layer(i).out_channels, dtype=np.float32)
            v[e.kept_channel_ids] = 1.0
            masks[i] = v
        with no_grad():
            dense = forward(model, x, masks=masks, mode="eval").data
            sliced = forward(pruned, x, mode="eval").data
        worst = max(worst, float(np.abs(dense - sliced).max()))
    elapsed = time.perf_counter() - t0
    note(4, f"100 inputs x 20 plans, worst |diff| {worst:.2e} (<=1e-5), "
            f"{elapsed:.1f}s (<120s)")
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_criterion_5_cost_checks():
    flops = [225792.0, 1806336.0, 903168.0, 1806336.0]

    assert flops_cost([1.0] * 4, flops, 0.3) == 1.0

    rng = np.random.default_rng(3)
    point = list(rng.uniform(0.3, 0.9, 4))
    base_cost = flops_cost(point, flops, 0.3)
    for i in range(4):
        poked = list(point)
        poked[i] -= 0.05
        assert flops_cost(poked, flops, 0.3) < base_cost
        poked[i] += 0.10
        assert flops_cost(poked, flops, 0.3) > base_cost

    scaled = [7 * p for p in flops]
    assert flops_cost(point, scaled, 0.3) == flops_cost(point, flops, 0.3)

    assert flops_cost([1.0, 0.5], [100.0, 300.0], 1.0) == 0.625
    note(5, "all-ones=1, strictly monotone per ratio, 7x scale invariant, "
            "worked value 0.625 exact")


def test_criterion_6_control_dynamics(mnist_dir, pipeline):
    train_full, _ = load_mnist(mnist_dir)
    train, val = split_validation(train_full, 0.1, seed=0)

    def control(alpha, stop=None):
        model, _ = load_checkpoint(pipeline["a"] / "baseline")
        cfg = SearchConfig(alpha=alpha, epochs=2, log_interval=2000, probe_size=256, seed=0)
        return run_search(model, train, val, cfg, mean_ratio_below=stop)

    calm = control(0.0)
    assert calm.fpr_exact < 0.05, f"alpha=0 fpr {calm.fpr_exact:.4f}"

    hungry = control(5.0, stop=0.4)
    mean_r = sum(hungry.ratios.values()) / len(hungry.ratios)
    assert mean_r < 0.4, f"alpha=5 mean ratio {mean_r:.4f}"
    assert hungry.epochs_run <= 2.0

    note(6, f"alpha=0 fpr {calm.fpr_exact:.4f} (<0.05); "
            f"alpha=5 mean ratio {mean_r:.3f} (<0.4) after {hungry.epochs_run:.2f} epochs (<=2)")


def test_criterion_7_desk_scale_pipeline(pipeline):
    run = pipeline["a"]
    baseline = json.loads((run / "baseline" / "manifest.json").read_text())
    pruned = json.loads((run / "pruned" / "manifest.json").read_text())
    total_min = sum(pipeline["times_a"].values()) / 60.0

    top1 = baseline["top1"]
    fpr = pruned["fpr"]
    drop = pruned["accuracy_drop"]
    note(7, f"baseline top1 {top1:.4f} (>=0.97), fpr {fpr:.4f} (>=0.30), "
            f"drop {drop:+.4f} (<=0.015), {total_min:.1f} min (<=45)")
    assert top1 >= 0.97
    assert fpr >= 0.30
    assert drop <= 0.015
    assert total_min <= 45.0


def test_criterion_8_determinism(pipeline):
    compared = []
    for rel in ("baseline/metrics.csv", "search/trajectory.csv",
                "search/diagnostics.csv", "pruned/metrics.csv"):
        a = (pipeline["a"] / rel).read_bytes()
        b = (pipeline["b"] / rel).read_bytes()
        assert a == b, f"{rel} differs between same-seed runs"
        compared.append(rel.split("/")[-1])
    note(8, f"same-seed reruns byte-identical across {', '.join(compared)}")


def test_criterion_9_ranking_refresh_reentry():
    model = build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(0))
    lid = model.prunable_ids()[0]
    rankings = refresh_ranking(model)
    mask = build_mask(0.5, rankings[lid])
    victim = int(rankings[lid].order[-1])  # least important: masked out at 0.5
    assert mask.by_channel[victim] == 0.0

    # its stored weights now come to dominate the layer
    w = model.params[lid]["weight"]
    w.data[victim] = np.sign(w.data[victim] + 0.5) * (np.abs(w.data).max() * 10.0)

    # when the search re-ranks (on its own cadence, see test_search), it re-enters
    renewed = refresh_ranking(model)
    mask2 = build_mask(0.5, renewed[lid])
    assert renewed[lid].ranks[victim] == 1
    assert mask2.by_channel[victim] == 1.0
    note(9, f"dominant masked channel {victim} re-enters at rank 1 after a refresh")
