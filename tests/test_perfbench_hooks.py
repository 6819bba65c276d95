"""The benchmark's trace hooks still resolve against the program.

`perfbench/tracer.py` wraps the program's module attributes by name, so a
renamed or moved function breaks traced benchmark runs without failing
any other test.  This installs the tracer, runs one small weight step and
one ratio step through the wrapped attributes, and checks that the spans
arrive and that uninstalling puts every attribute back.
"""

import importlib.util
from pathlib import Path

import numpy as np

import autoprune
from autoprune import masking, model, objective, pruner, search

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_search_step_and_unwraps():
    modules = (model, search, pruner, objective, masking)
    before = [dict(vars(m)) for m in modules]

    net = model.build_model("cnn-small", 10, (1, 8, 8), rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    xb = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
    yb = rng.integers(0, 10, 8)
    flops = model.prunable_flops(net)
    rankings = {i: masking.rank_channels(net.params[i]["weight"].data) for i in flops}
    ratios = {i: 1.0 for i in flops}
    masks = {i: masking.build_mask(1.0, net.layer(i).out_channels, rankings[i]) for i in flops}
    config = search.SearchConfig(batch_size=8)

    tracer = load_tracer().Tracer()
    tracer.install(autoprune)
    try:
        assert search.inner_step is not before[1]["inner_step"]
        search.inner_step(net, xb, yb, masks, ratios, flops, config, 0.05)
        search.outer_step(net, xb, yb, ratios, rankings, flops, config, 0.05)
    finally:
        tracer.uninstall()

    for m, saved in zip(modules, before):
        now = vars(m)
        assert now.keys() == saved.keys(), m.__name__
        changed = [k for k in saved if now[k] is not saved[k]]
        assert changed == [], f"{m.__name__}: {changed} not restored"

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
        "tensor.channel_scale.bwd",
        "masking.ratio_mask_tensor.fwd",
        "objective.combined_loss",
    ):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    assert tracer.counts["conv2d.flop"] > 0
