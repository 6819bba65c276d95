"""Dataset loading and deterministic batching.

MNIST arrives as the four standard IDX files, CIFAR-10 as the binary
batch files; both are validated against their magic numbers / record
sizes and normalized per channel with statistics computed from the
training images, which the test images share.

All randomness is a function of one integer seed, so two runs with the
same seed shuffle, split, and initialize identically.  The split and the
initial weights draw from named substreams; batch order is keyed on
seed ^ epoch alone (`batches`).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DATA_DIR_ENV = "AUTOPRUNE_DATA_DIR"

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"
_CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixels


class DataFormatError(ValueError):
    """A dataset file is missing, truncated, or has the wrong layout."""


@dataclass
class Dataset:
    """Normalized images [N, C, H, W] float32 with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    checksums: dict[str, str]

    def __len__(self) -> int:
        return len(self.images)

    def take(self, n: int) -> "Dataset":
        return replace(self, images=self.images[:n], labels=self.labels[:n])


def substream(seed: int, name: str) -> np.random.Generator:
    """A named, independent random stream derived from one master seed."""
    digest = hashlib.sha256(name.encode()).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, tag]))


def derive_seed(seed: int, name: str) -> int:
    """A deterministic child seed for an independently shuffled stream."""
    digest = hashlib.sha256(name.encode()).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & 0x7FFFFFFFFFFFFFFF


def resolve_data_dir(explicit: str | None = None) -> Path:
    """Pick the dataset directory: explicit argument, else the environment.
    A leading `~` in either expands to the home directory."""
    chosen = explicit or os.environ.get(DATA_DIR_ENV)
    if chosen:
        return Path(chosen).expanduser()
    raise DataFormatError(
        f"no data directory: pass one explicitly or set {DATA_DIR_ENV}"
    )


def _require(path: Path) -> Path:
    if not path.is_file():
        raise DataFormatError(f"missing dataset file: expected {path}")
    return path


def _read_idx(path: Path, magic: int):
    """The array in one IDX file and the sha256 of its bytes, read once."""
    raw = _require(path).read_bytes()
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated header")
    got = struct.unpack(">i", raw[:4])[0]
    if got != magic:
        raise DataFormatError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    if min(dims) < 0:
        raise DataFormatError(f"{path}: negative dimension in header {dims}")
    count = math.prod(dims)  # exact, where numpy's int64 product can wrap around
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if len(body) != count:
        raise DataFormatError(f"{path}: expected {count} bytes of payload, found {len(body)}")
    return body.reshape(dims), hashlib.sha256(raw).hexdigest()


_STATS_BLOCK = 256  # images per float64 block in `_channel_stats`


def _channel_stats(train: np.ndarray):
    """Per-channel float64 mean and std of [N, C, H, W] float32 images.

    Works on blocks of images, so no float64 copy of the whole set is
    made. Each image's channel sums come from numpy's pairwise loop over
    its pixels, and the image rows are then summed. With more than one
    channel, `train.astype(np.float64).mean/std(axis=(0, 2, 3))` sums the
    same way and gives the same bits. A single-channel array numpy sums
    as one flat pairwise run instead, so there the float64 std can differ
    in its last bits; its float32 rounding matched in every case tried.
    """
    n, c, h, w = train.shape
    count = np.intp(n * h * w)
    rows = np.empty((n, c), dtype=np.float64)
    for s in range(0, n, _STATS_BLOCK):
        block = train[s : s + _STATS_BLOCK].astype(np.float64)
        np.add.reduce(block, axis=(2, 3), out=rows[s : s + _STATS_BLOCK])
    mean = np.true_divide(np.add.reduce(rows, axis=0), count)
    mean64 = mean.reshape(1, c, 1, 1)
    for s in range(0, n, _STATS_BLOCK):
        d = train[s : s + _STATS_BLOCK].astype(np.float64)
        d -= mean64
        np.multiply(d, d, out=d)
        np.add.reduce(d, axis=(2, 3), out=rows[s : s + _STATS_BLOCK])
    var = np.true_divide(np.add.reduce(rows, axis=0), count)
    return mean, np.sqrt(var)


def _normalize(train_u8: np.ndarray, other_u8: np.ndarray):
    """Scale to [0,1], then center/scale per channel by training statistics."""
    return _standardize(_unit_float(train_u8), other_u8)


def _unit_float(images_u8: np.ndarray) -> np.ndarray:
    x = images_u8.astype(np.float32)
    x /= np.float32(255.0)
    return x


def _standardize(train: np.ndarray, other_u8: np.ndarray):
    """Center/scale `train` (float32 in [0, 1]) in place, and `other_u8`
    once scaled to [0, 1], per channel by `train`'s statistics."""
    c = train.shape[1]
    mean, std = (a.astype(np.float32) for a in _channel_stats(train))
    if np.any(std == 0):
        raise DataFormatError("constant image channel: cannot normalize")
    m = mean.reshape(1, c, 1, 1)
    s = std.reshape(1, c, 1, 1)
    other = _unit_float(other_u8)
    for x in (train, other):
        x -= m
        x /= s
    return train, other


def load_mnist(data_dir=None) -> tuple[Dataset, Dataset]:
    """Load the four canonical IDX files into (train, test) datasets."""
    root = resolve_data_dir(data_dir)
    paths = {k: _require(root / v) for k, v in MNIST_FILES.items()}
    read = {k: _read_idx(path, 0x00000803 if k.endswith("images") else 0x00000801)
            for k, path in paths.items()}
    train_x, train_y, test_x, test_y = (read[k][0] for k in MNIST_FILES)
    for x, y, tag in ((train_x, train_y, "train"), (test_x, test_y, "test")):
        if len(x) != len(y):
            raise DataFormatError(f"mnist {tag}: {len(x)} images but {len(y)} labels")
        if len(x) == 0:
            raise DataFormatError(f"{paths[tag + '_images']}: holds no images")
        if x.shape[1:] != (28, 28):
            raise DataFormatError(f"{paths[tag + '_images']}: images are {x.shape[1]}x{x.shape[2]}, not 28x28")
        if y.max() > 9:
            raise DataFormatError(f"{paths[tag + '_labels']}: label {y.max()} out of range for 10 classes")

    train_u8 = train_x[:, None, :, :]
    test_u8 = test_x[:, None, :, :]
    train_n, test_n = _normalize(train_u8, test_u8)
    checksums = {v: read[k][1] for k, v in MNIST_FILES.items()}
    train = Dataset(train_n, train_y.astype(np.int64), checksums)
    test = Dataset(test_n, test_y.astype(np.int64), checksums)
    return train, test


def _read_cifar_file(path: Path):
    """Images, labels and the sha256 of one batch file, read once."""
    raw = _require(path).read_bytes()
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a multiple of the {_CIFAR_RECORD}-byte record"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise DataFormatError(f"{path}: label {labels.max()} out of range for 10 classes")
    images = rec[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels, hashlib.sha256(raw).hexdigest()


def load_cifar10(data_dir=None) -> tuple[Dataset, Dataset]:
    """Load the six binary batch files into (train, test) datasets.

    Each training file is scaled straight into one float32 array, so
    neither a uint8 copy of the whole set nor more than one file's bytes
    is held at a time.
    """
    root = resolve_data_dir(data_dir)
    paths = [_require(root / name) for name in CIFAR_TRAIN_FILES]
    counts = [p.stat().st_size // _CIFAR_RECORD for p in paths]
    train_x = np.empty((sum(counts), 3, 32, 32), dtype=np.float32)
    ys, checksums, start = [], {}, 0
    for path, n in zip(paths, counts):
        x, y, checksums[path.name] = _read_cifar_file(path)
        if len(x) != n:
            raise DataFormatError(f"{path}: changed size while being read")
        np.divide(x, np.float32(255.0), out=train_x[start : start + n], dtype=np.float32)
        ys.append(y)
        start += n
    test_u8, test_y, checksums[CIFAR_TEST_FILE] = _read_cifar_file(root / CIFAR_TEST_FILE)

    train_n, test_n = _standardize(train_x, test_u8)
    train = Dataset(train_n, np.concatenate(ys), checksums)
    test = Dataset(test_n, test_y, checksums)
    return train, test


def split_validation(train: Dataset, fraction: float = 0.1, seed: int = 0):
    """Carve a validation split off the training set, disjoint and exhaustive."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")
    n = len(train)
    n_val = int(round(n * fraction))
    if n_val == 0 or n_val == n:
        raise ValueError(f"fraction {fraction} leaves an empty split for {n} examples")
    perm = substream(seed, "split").permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    new_train = replace(train, images=train.images[train_idx], labels=train.labels[train_idx])
    val = replace(train, images=train.images[val_idx], labels=train.labels[val_idx])
    return new_train, val


def batches(
    dataset: Dataset,
    batch_size: int,
    seed: int = 0,
    epoch: int = 0,
    augment: bool = False,
):
    """Yield (images, labels) minibatches in a per-epoch shuffled order.

    The order is a pure function of (seed xor epoch); the final partial
    batch is kept.  Augmentation (pad-4 random crop plus horizontal flip)
    is off by default and draws from the same stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence([(seed ^ epoch) & 0xFFFFFFFFFFFFFFFF]))
    order = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        xb = dataset.images[idx]
        yb = dataset.labels[idx]
        if augment:
            xb = _augment_batch(xb, rng)
        yield xb, yb


def _augment_batch(xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, c, h, w = xb.shape
    pad = 4
    padded = np.pad(xb, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(xb)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    for i in range(n):
        oy, ox = offs[i]
        crop = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out
