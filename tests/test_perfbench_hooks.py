"""The benchmark's trace hooks still resolve against the program.

`perfbench/tracer.py` wraps the program's module attributes by name, so a
renamed or moved function breaks benchmark runs without failing any
other test.  This installs the tracer, runs one small weight step and
one ratio step through the wrapped attributes, and checks that the spans
arrive and that uninstalling puts every attribute back: once on cnn-small
at full width, and once on resnet-tiny with its prunable convs narrowed
below their input width, where conv2d takes its output-side path.  It
also checks that the always-on clock stamps every SGD step, search
iteration and probe evaluation, and that the metrics the benchmark
prints are the ones `BENCHMARK.json` declares.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

import autoprune
from autoprune import masking, model, objective, pruner, search, tensor
from autoprune.data import Dataset

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_steps(net, ratios, shape):
    """Run one inner_step and one outer_step on `net` at `ratios` under the
    tracer, check that uninstalling restores every module attribute, and
    return the tracer."""
    modules = (model, search, pruner, objective, masking)
    before = [dict(vars(m)) for m in modules]

    rng = np.random.default_rng(1)
    xb = rng.standard_normal((8, *shape)).astype(np.float32)
    yb = rng.integers(0, 10, 8)
    flops = model.prunable_flops(net)
    rankings = {i: masking.rank_channels(net.params[i]["weight"].data) for i in flops}
    masks = {i: masking.build_mask(ratios[i], rankings[i]) for i in flops}
    config = search.SearchConfig(batch_size=8)

    tracer = load_tracer().Tracer()
    tracer.install(autoprune)
    try:
        assert search.inner_step is not before[1]["inner_step"]
        search.inner_step(net, xb, yb, masks, ratios, 0.05)
        search.outer_step(net, xb, yb, ratios, rankings, flops, config, 0.05)
    finally:
        tracer.uninstall()

    for m, saved in zip(modules, before):
        now = vars(m)
        assert now.keys() == saved.keys(), m.__name__
        changed = [k for k in saved if now[k] is not saved[k]]
        assert changed == [], f"{m.__name__}: {changed} not restored"
    return tracer


def test_tracer_wraps_a_search_step_and_unwraps():
    net = model.build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(0))
    tracer = traced_steps(net, {i: 1.0 for i in net.prunable_ids()}, (1, 8, 8))

    spans = tracer.summary()
    for name in (
        "search.inner_step",
        "search.outer_step",
        "model.forward.train",
        "tensor.backward",
        "tensor.conv2d.fwd@cnn-small.L0",
        "tensor.conv2d.bwd@cnn-small.L0",
        "tensor.batch_norm2d.fwd",
        "tensor.batch_norm2d.bwd",
        "tensor.relu.bwd",
        "tensor.pool2d.bwd",
        "masking.ratio_mask_tensor.fwd",
        "objective.combined_loss",
    ):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    # the masks scale bn's gamma and beta, so no feature map is scaled
    assert spans.get("tensor.channel_scale.fwd", {}).get("calls", 0) == 0
    assert tracer.counts["conv2d.flop"] > 0


def test_narrowed_convs_run_behind_the_traced_conv2d(monkeypatch):
    # resnet-tiny's prunable convs (3, 10, 19) take 16, 16 and 32 inputs;
    # at these ratios both steps slice them to 2 outputs, which runs them
    # from the output side
    narrow = []

    def spy(x, w, *args):
        narrow.append(w.data.shape)
        return output_side(x, w, *args)

    output_side = tensor._output_side_conv2d
    monkeypatch.setattr(tensor, "_output_side_conv2d", spy)
    net = model.build_model("resnet-tiny", 10, (3, 8, 8), rng=np.random.default_rng(0))
    ratios = {i: 1.5 / net.layer(i).out_channels for i in net.prunable_ids()}
    assert net.prunable_ids() == [3, 10, 19]
    tracer = traced_steps(net, ratios, (3, 8, 8))

    assert {cout for cout, *_ in narrow} == {2} and len(narrow) >= 6
    spans = tracer.summary()
    for lid in net.prunable_ids():
        for direction in ("fwd", "bwd"):
            name = f"tensor.conv2d.{direction}@resnet-tiny.L{lid}"
            assert spans.get(name, {}).get("calls", 0) > 0, name


def test_clock_stamps_each_step_iteration_and_probe(monkeypatch):
    # Clock never uninstalls: re-set its three targets so monkeypatch puts
    # the originals back
    for module, attr in ((search, "outer_step"), (pruner, "sgd_step"), (search, "evaluate")):
        monkeypatch.setattr(module, attr, getattr(module, attr))
    clock = load_tracer().Clock(autoprune)
    rng = np.random.default_rng(2)

    def data(n):
        return Dataset(rng.standard_normal((n, 1, 8, 8)).astype(np.float32), rng.integers(0, 10, n), {})

    train, val = data(40), data(16)
    net = model.build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(0))
    pruner.train_supervised(net, train, val, epochs=1, lr_max=0.05, lr_min=0.001, batch_size=16)
    assert len(clock.step_ends) == math.ceil(40 / 16) and clock.iter_ends == []

    clock.reset()
    config = search.SearchConfig(alpha=5.0, epochs=2, batch_size=8, ranking_interval=3,
                                 log_interval=4, probe_size=12)
    result = search.run_search(net, train, val, config)
    assert result.iterations == 10
    assert len(clock.iter_ends) == result.iterations
    assert clock.iter_ends == sorted(clock.iter_ends)
    # one probe evaluation per trajectory row, each over the probe images
    assert [n for _, _, n in clock.probe_spans] == [12] * len(result.metrics)
    assert all(t0 <= t1 for t0, t1, _ in clock.probe_spans)


def test_printed_metrics_are_the_declared_ones(monkeypatch):
    # workloads.py imports its siblings `gen_data` and `tracer` by name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    try:
        sys.modules[spec.name] = workloads  # its dataclasses look their module up there
        spec.loader.exec_module(workloads)
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def pairs(metrics):
        return [(m["name"], m["unit"]) for m in metrics]

    assert list(workloads.E2E_UNITS.items()) == pairs(declared["end_to_end"])
    assert list(workloads.per_layer_units(autoprune).items()) == pairs(declared["per_layer"])
