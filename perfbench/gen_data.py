"""Seeded, learnable inputs in the MNIST IDX and CIFAR-10 binary layouts.

Each class gets one stripe texture (orientation, period, colour); every
example is its class's stripes at a random phase plus Gaussian pixel
noise, quantized to uint8.  A texture survives the global average pool
at the end of both models, so `cnn-small` learns the classes in one short
epoch and accuracy checks have a margin over chance, while the noise
keeps the task from being solved by the first batch.  The same seed gives
the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

CLASSES = 10
MNIST_SHAPE = (1, 28, 28)
CIFAR_SHAPE = (3, 32, 32)
_CONTRAST = 0.35  # stripe amplitude, as a share of the 0..255 range
_NOISE = 0.15  # pixel noise standard deviation, as a share of the 0..255 range


def _class_waves(rng: np.random.Generator, channels: int):
    """Per class: a stripe orientation, a period and a colour, drawn from the seed.

    Orientations (five) and periods (two) form a grid of ten distinct
    textures, shuffled over the classes, so every class stays separable
    whatever the seed.
    """
    grid = [(np.pi * k / 5, period) for k in range(5) for period in (4.0, 8.0)]
    order = rng.permutation(CLASSES)
    theta = np.array([grid[i][0] for i in order]) + rng.uniform(-0.1, 0.1, CLASSES)
    period = np.array([grid[i][1] for i in order])
    colour = rng.uniform(0.5, 1.0, (CLASSES, channels))
    return theta, period, colour


def _examples(rng: np.random.Generator, waves, shape, n: int):
    """Each image: its class's stripes at a random phase, plus pixel noise."""
    theta, period, colour = waves
    c, h, w = shape
    labels = rng.integers(0, CLASSES, n)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    proj = np.cos(theta[labels])[:, None, None] * xx + np.sin(theta[labels])[:, None, None] * yy
    phase = rng.uniform(0.0, 2.0 * np.pi, n)[:, None, None]
    stripes = np.sin(2.0 * np.pi * proj / period[labels][:, None, None] + phase)
    pixels = 0.5 + _CONTRAST * colour[labels][:, :, None, None] * stripes[:, None]
    pixels = pixels + rng.normal(0.0, _NOISE, (n, c, h, w))
    images = np.clip(np.rint(255.0 * pixels), 0, 255).astype(np.uint8)
    return images, labels.astype(np.uint8)


def _write_idx(path: Path, array: np.ndarray) -> None:
    header = struct.pack(">i", 0x00000800 | array.ndim) + struct.pack(f">{array.ndim}i", *array.shape)
    path.write_bytes(header + np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_mnist(directory: Path, seed: int, n_train: int, n_test: int) -> None:
    """Write the four MNIST IDX files (1x28x28 images) into `directory`."""
    rng = np.random.default_rng([seed, 0])
    waves = _class_waves(rng, MNIST_SHAPE[0])
    for split, n in (("train", n_train), ("t10k", n_test)):
        images, labels = _examples(rng, waves, MNIST_SHAPE, n)
        _write_idx(directory / f"{split}-images-idx3-ubyte", images[:, 0])
        _write_idx(directory / f"{split}-labels-idx1-ubyte", labels)


def write_cifar10(directory: Path, seed: int, n_per_batch: int, n_test: int) -> None:
    """Write the five CIFAR-10 training batches and the test batch (3x32x32)."""
    rng = np.random.default_rng([seed, 1])
    waves = _class_waves(rng, CIFAR_SHAPE[0])
    files = [(f"data_batch_{i}.bin", n_per_batch) for i in range(1, 6)] + [("test_batch.bin", n_test)]
    for name, n in files:
        images, labels = _examples(rng, waves, CIFAR_SHAPE, n)
        records = np.concatenate([labels[:, None], images.reshape(n, -1)], axis=1)
        (directory / name).write_bytes(records.tobytes())


def prune_ratios(seed: int, model, target_fpr: float = 0.5) -> dict[int, float]:
    """A seed-drawn ratio vector whose plan removes about `target_fpr` of the FLOPs.

    Each layer's ratio is one common factor, found by bisection so the
    exact FLOPs pruning ratio lands on the target from below, times a
    seed-drawn jitter within 10%.  The jitter stays small so that every
    seed's plan has nearly the same widths: a seed changes the inputs, not
    the amount of work in a pass.
    """
    from autoprune.masking import kept_count
    from autoprune.model import exact_model_flops

    rng = np.random.default_rng([seed, 2])
    ids = model.prunable_ids()
    channels = {i: model.layer(i).out_channels for i in ids}
    raw = dict(zip(ids, rng.uniform(0.9, 1.1, len(ids))))
    full = exact_model_flops(model)

    def scaled(s):
        return {i: min(1.0, max(1.0 / channels[i], s * raw[i])) for i in ids}

    def fpr(s):
        kept = {i: kept_count(r, channels[i]) for i, r in scaled(s).items()}
        return 1.0 - exact_model_flops(model, kept) / full

    lo, hi = 0.0, 1.0 / min(raw.values())
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if fpr(mid) >= target_fpr:
            lo = mid
        else:
            hi = mid
    return scaled(hi)
