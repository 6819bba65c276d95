"""Dataset loading tests against synthetic fixture files written on the
fly, plus determinism properties of splitting and batching."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from autoprune.data import (
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    DATA_DIR_ENV,
    MNIST_FILES,
    DataFormatError,
    Dataset,
    _channel_stats,
    _normalize,
    batches,
    derive_seed,
    load_cifar10,
    load_mnist,
    resolve_data_dir,
    split_validation,
    substream,
)


def write_idx(path, array):
    array = np.asarray(array, dtype=np.uint8)
    ndim = array.ndim
    magic = 0x00000800 | ndim
    with open(path, "wb") as f:
        f.write(struct.pack(">i", magic))
        f.write(struct.pack(f">{ndim}i", *array.shape))
        f.write(array.tobytes())


def make_mnist_dir(tmp_path, n_train=40, n_test=12, seed=0):
    rng = np.random.default_rng(seed)
    d = tmp_path / "mnist"
    d.mkdir()
    write_idx(d / "train-images-idx3-ubyte", rng.integers(0, 256, (n_train, 28, 28)))
    write_idx(d / "train-labels-idx1-ubyte", rng.integers(0, 10, n_train))
    write_idx(d / "t10k-images-idx3-ubyte", rng.integers(0, 256, (n_test, 28, 28)))
    write_idx(d / "t10k-labels-idx1-ubyte", rng.integers(0, 10, n_test))
    return d


def make_cifar_dir(tmp_path, per_file=10, seed=0):
    rng = np.random.default_rng(seed)
    d = tmp_path / "cifar"
    d.mkdir()
    for name in CIFAR_TRAIN_FILES + [CIFAR_TEST_FILE]:
        rec = np.empty((per_file, 3073), dtype=np.uint8)
        rec[:, 0] = rng.integers(0, 10, per_file)
        rec[:, 1:] = rng.integers(0, 256, (per_file, 3072))
        (d / name).write_bytes(rec.tobytes())
    return d


def full_copy_normalize(train_u8, other_u8):
    """Reference normalisation: statistics from float64 copies of the whole set."""
    c = train_u8.shape[1]
    train = train_u8.astype(np.float32) / np.float32(255.0)
    other = other_u8.astype(np.float32) / np.float32(255.0)
    mean = train.astype(np.float64).mean(axis=(0, 2, 3)).astype(np.float32)
    std = train.astype(np.float64).std(axis=(0, 2, 3)).astype(np.float32)
    m = mean.reshape(1, c, 1, 1)
    s = std.reshape(1, c, 1, 1)
    return (train - m) / s, (other - m) / s


def toy_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        images=rng.standard_normal((n, 1, 4, 4)).astype(np.float32),
        labels=rng.integers(0, 10, n),
        checksums={},
    )


class TestMnistLoading:
    def test_shapes_dtypes_and_normalization(self, tmp_path):
        d = make_mnist_dir(tmp_path)
        train, test = load_mnist(d)
        assert train.images.shape == (40, 1, 28, 28)
        assert test.images.shape == (12, 1, 28, 28)
        assert train.images.dtype == np.float32
        assert train.labels.dtype == np.int64
        # statistics come from the training images only
        mu = train.images.astype(np.float64).mean()
        sd = train.images.astype(np.float64).std()
        assert abs(mu) < 1e-4 and abs(sd - 1.0) < 1e-3
        assert train.checksums == test.checksums == {
            name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in MNIST_FILES.values()
        }

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        d = make_mnist_dir(tmp_path)
        monkeypatch.setenv(DATA_DIR_ENV, str(d))
        train, _ = load_mnist()
        assert len(train) == 40

    def test_tilde_expands_to_home(self, tmp_path, monkeypatch):
        d = make_mnist_dir(tmp_path)
        monkeypatch.setenv("HOME", str(d.parent))
        train, _ = load_mnist(f"~/{d.name}")
        assert len(train) == 40
        monkeypatch.setenv(DATA_DIR_ENV, f"~/{d.name}")
        assert resolve_data_dir() == d
        assert len(load_mnist()[0]) == 40

    def test_no_dir_anywhere_raises(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(DataFormatError, match=DATA_DIR_ENV):
            resolve_data_dir()

    def test_missing_file_raises(self, tmp_path):
        d = make_mnist_dir(tmp_path)
        (d / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(DataFormatError, match="missing"):
            load_mnist(d)

    def test_bad_magic_raises(self, tmp_path):
        d = make_mnist_dir(tmp_path)
        p = d / "train-images-idx3-ubyte"
        body = bytearray(p.read_bytes())
        body[3] = 0x99
        p.write_bytes(bytes(body))
        with pytest.raises(DataFormatError, match="magic"):
            load_mnist(d)

    def test_truncated_payload_raises(self, tmp_path):
        d = make_mnist_dir(tmp_path)
        p = d / "train-images-idx3-ubyte"
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="payload"):
            load_mnist(d)

    @pytest.mark.parametrize("dims, payload, message", [
        ((-600, -28, 28), 600 * 28 * 28, "negative dimension in header (-600, -28, 28)"),
        ((2**30, 2**30, 16), 0, f"expected {2**64} bytes of payload, found 0"),
    ])
    def test_header_dims_that_do_not_fit_name_their_file(self, tmp_path, dims, payload, message):
        # numpy's int64 product of each matches its payload: the two minus
        # signs cancel, and 2**64 wraps to 0
        d = make_mnist_dir(tmp_path)
        p = d / "train-images-idx3-ubyte"
        p.write_bytes(struct.pack(">4i", 0x803, *dims) + bytes(payload))
        with pytest.raises(DataFormatError) as e:
            load_mnist(d)
        assert str(e.value) == f"{p}: {message}"

    def test_label_count_mismatch_raises(self, tmp_path):
        d = make_mnist_dir(tmp_path)
        write_idx(d / "train-labels-idx1-ubyte", np.zeros(7, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="images but"):
            load_mnist(d)

    @pytest.mark.parametrize("name, shape", [("train-images-idx3-ubyte", (40, 32, 32)),
                                             ("t10k-images-idx3-ubyte", (12, 28, 27))])
    def test_images_not_28x28_name_their_file(self, tmp_path, name, shape):
        d = make_mnist_dir(tmp_path)
        write_idx(d / name, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataFormatError) as e:
            load_mnist(d)
        assert str(e.value) == f"{d / name}: images are {shape[1]}x{shape[2]}, not 28x28"

    @pytest.mark.parametrize("name, n", [("train-labels-idx1-ubyte", 40), ("t10k-labels-idx1-ubyte", 12)])
    def test_label_out_of_range_names_its_file(self, tmp_path, name, n):
        d = make_mnist_dir(tmp_path)
        labels = np.arange(n) % 10
        labels[n // 2] = 200
        write_idx(d / name, labels)
        with pytest.raises(DataFormatError) as e:
            load_mnist(d)
        assert str(e.value) == f"{d / name}: label 200 out of range for 10 classes"


class TestCifarLoading:
    def test_shapes_and_concatenation(self, tmp_path):
        d = make_cifar_dir(tmp_path, per_file=10)
        train, test = load_cifar10(d)
        assert train.images.shape == (50, 3, 32, 32)
        assert test.images.shape == (10, 3, 32, 32)
        assert train.checksums == {
            name: hashlib.sha256((d / name).read_bytes()).hexdigest()
            for name in CIFAR_TRAIN_FILES + [CIFAR_TEST_FILE]
        }

    def test_matches_the_full_copy_and_holds_one_file(self, tmp_path):
        per_file = 500
        d = make_cifar_dir(tmp_path, per_file=per_file)
        recs = [np.frombuffer((d / n).read_bytes(), np.uint8).reshape(-1, 3073)
                for n in CIFAR_TRAIN_FILES + [CIFAR_TEST_FILE]]
        train_u8 = np.concatenate([r[:, 1:] for r in recs[:-1]]).reshape(-1, 3, 32, 32)
        test_u8 = recs[-1][:, 1:].reshape(-1, 3, 32, 32)
        del recs
        tracemalloc.start()
        try:
            train, test = load_cifar10(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = (train.images, test.images)
        for name, a, b in zip(("train", "test"), got, full_copy_normalize(train_u8, test_u8)):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32), err_msg=name)
        # the outputs, two float64 statistics blocks of 256 images (the
        # next is built while the last is alive), and two files' bytes
        outputs = train.images.nbytes + test.images.nbytes
        block = 256 * 3 * 32 * 32 * 8
        assert peak <= outputs + 2 * block + 2 * per_file * 3073, (peak, outputs)

    def test_ragged_file_raises(self, tmp_path):
        d = make_cifar_dir(tmp_path)
        p = d / "data_batch_3.bin"
        p.write_bytes(p.read_bytes() + b"\x00" * 17)
        with pytest.raises(DataFormatError, match="record"):
            load_cifar10(d)

    def test_label_out_of_range_raises(self, tmp_path):
        d = make_cifar_dir(tmp_path)
        p = d / "test_batch.bin"
        body = bytearray(p.read_bytes())
        body[0] = 11
        p.write_bytes(bytes(body))
        with pytest.raises(DataFormatError, match="out of range"):
            load_cifar10(d)


class TestNormalize:
    # 300 and 513 are not multiples of the 256-image statistics block
    @pytest.mark.parametrize("n, c, side, zero_frac", [
        (300, 3, 32, 0.0),
        (7, 3, 32, 0.9),
        (513, 1, 28, 0.0),
        (256, 1, 28, 0.95),
        (1000, 1, 28, 0.3),
    ])
    def test_bitwise_the_full_copy_statistics(self, n, c, side, zero_frac):
        rng = np.random.default_rng(n * 10 + c)
        train = rng.integers(0, 256, (n, c, side, side), dtype=np.uint8)
        train[rng.random(train.shape) < zero_frac] = 0
        other = rng.integers(0, 256, (13, c, side, side), dtype=np.uint8)
        got = _normalize(train, other)
        want = full_copy_normalize(train, other)
        for name, a, b in zip(("train", "other"), got, want):
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape, name
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32), err_msg=name)

    @pytest.mark.parametrize("n, zero_frac", [(300, 0.0), (7, 0.9), (600, 0.3)])
    def test_multichannel_float64_statistics_are_numpys(self, n, zero_frac):
        # one channel is left out: numpy sums it as one flat pairwise run,
        # so only the float32 rounding above is pinned there
        rng = np.random.default_rng(n)
        u8 = rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
        u8[rng.random(u8.shape) < zero_frac] = 0
        train = u8.astype(np.float32) / np.float32(255.0)
        mean, std = _channel_stats(train)
        full = train.astype(np.float64)
        for got, want in ((mean, full.mean(axis=(0, 2, 3))), (std, full.std(axis=(0, 2, 3)))):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_constant_channel_raises(self):
        train = np.full((5, 2, 4, 4), 7, dtype=np.uint8)
        train[:, 0, 0, 0] = 9
        with pytest.raises(DataFormatError, match="constant image channel"):
            _normalize(train, train[:1])

    def test_peak_memory_is_the_outputs_plus_blocks(self):
        rng = np.random.default_rng(5)
        train = rng.integers(0, 256, (2500, 3, 32, 32), dtype=np.uint8)
        other = rng.integers(0, 256, (512, 3, 32, 32), dtype=np.uint8)
        tracemalloc.start()
        try:
            out = _normalize(train, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = out[0].nbytes + out[1].nbytes
        assert peak <= outputs + (16 << 20), (peak, outputs)


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        ds = toy_dataset(n=30)
        ds.images[:] = np.arange(30, dtype=np.float32).reshape(30, 1, 1, 1)
        train, val = split_validation(ds, fraction=0.2, seed=5)
        assert len(train) == 24 and len(val) == 6
        seen = np.concatenate([train.images[:, 0, 0, 0], val.images[:, 0, 0, 0]])
        assert sorted(seen.tolist()) == list(range(30))

    def test_same_seed_same_split(self):
        a1, v1 = split_validation(toy_dataset(), fraction=0.25, seed=3)
        a2, v2 = split_validation(toy_dataset(), fraction=0.25, seed=3)
        assert np.array_equal(v1.images, v2.images)
        a3, v3 = split_validation(toy_dataset(), fraction=0.25, seed=4)
        assert not np.array_equal(v1.images, v3.images)

    def test_degenerate_fractions_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_validation(toy_dataset(), fraction=bad)
        with pytest.raises(ValueError, match="empty"):
            split_validation(toy_dataset(n=20), fraction=0.001)


class TestBatches:
    def test_covers_everything_once_and_keeps_partial(self):
        ds = toy_dataset(n=23)
        got = list(batches(ds, 5, seed=1, epoch=0))
        assert [len(y) for _, y in got] == [5, 5, 5, 5, 3]
        flat = np.concatenate([x[:, 0, 0, 0] for x, _ in got])
        assert sorted(flat.tolist()) == sorted(ds.images[:, 0, 0, 0].tolist())

    def test_epoch_reshuffles_and_reruns_repeat(self):
        ds = toy_dataset(n=32)
        e0a = np.concatenate([y for _, y in batches(ds, 8, seed=7, epoch=0)])
        e0b = np.concatenate([y for _, y in batches(ds, 8, seed=7, epoch=0)])
        e1 = np.concatenate([y for _, y in batches(ds, 8, seed=7, epoch=1)])
        assert np.array_equal(e0a, e0b)
        assert not np.array_equal(e0a, e1)

    def test_labels_track_images(self):
        ds = toy_dataset(n=16)
        ds.images[:] = ds.labels.reshape(-1, 1, 1, 1).astype(np.float32)
        for xb, yb in batches(ds, 4, seed=2, epoch=3):
            assert np.array_equal(xb[:, 0, 0, 0].astype(np.int64), yb)

    def test_augment_preserves_shape_and_determinism(self):
        ds = toy_dataset(n=10)
        a = [x for x, _ in batches(ds, 4, seed=9, epoch=0, augment=True)]
        b = [x for x, _ in batches(ds, 4, seed=9, epoch=0, augment=True)]
        for xa, xb in zip(a, b):
            assert xa.shape[1:] == (1, 4, 4)
            assert np.array_equal(xa, xb)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            list(batches(toy_dataset(), 0))


class TestSeedDerivation:
    def test_substreams_are_stable_and_distinct(self):
        a = substream(42, "alpha").integers(0, 1 << 30, 8)
        b = substream(42, "alpha").integers(0, 1 << 30, 8)
        c = substream(42, "beta").integers(0, 1 << 30, 8)
        d = substream(43, "alpha").integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(5, "x") == derive_seed(5, "x")
        assert derive_seed(5, "x") != derive_seed(5, "y")
        assert derive_seed(5, "x") != derive_seed(6, "x")
        assert derive_seed(5, "x") >= 0
