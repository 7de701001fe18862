"""IDX and CIFAR loaders, augmentations, standardization, synthetic data."""

import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

import locallearn.data as dt
from locallearn.errors import ConfigError, DataError
from locallearn.rng import make_rng


def _fixture_images(n=2, h=4, w=5, seed=80):
    return (make_rng(seed).random((n, 1, h, w)).astype(np.float32) * 255).round() / 255


# ---------------------------------------------------------------------------
# IDX round-trip and error paths
# ---------------------------------------------------------------------------

def test_idx_round_trip_bit_exact(tmp_path):
    images = _fixture_images()
    labels = np.array([3, 7], dtype=np.int64)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    dt.write_idx_images(ip, images)
    dt.write_idx_labels(lp, labels)

    ds = dt.load_idx(ip, lp)
    assert np.array_equal(ds.images, images)
    assert np.array_equal(ds.labels, labels)

    ip2, lp2 = tmp_path / "img2.idx", tmp_path / "lab2.idx"
    dt.write_idx_images(ip2, ds.images)
    dt.write_idx_labels(lp2, ds.labels)
    assert ip.read_bytes() == ip2.read_bytes()
    assert lp.read_bytes() == lp2.read_bytes()


def test_idx_magic_checked(tmp_path):
    p = tmp_path / "img.idx"
    dt.write_idx_images(p, _fixture_images())
    raw = bytearray(p.read_bytes())
    raw[3] = 0x99
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="magic"):
        dt.load_idx_images(p)


def test_idx_truncation_rejected(tmp_path):
    p = tmp_path / "img.idx"
    dt.write_idx_images(p, _fixture_images())
    p.write_bytes(p.read_bytes()[:-7])
    with pytest.raises(DataError):
        dt.load_idx_images(p)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (4, 0)])
def test_idx_zero_extent_images_rejected(tmp_path, rows, cols):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">IIII", dt.IDX_IMAGES_MAGIC, 3, rows, cols))
    with pytest.raises(DataError, match=f"img.idx: {rows}x{cols} images have no pixels"):
        dt.load_idx_images(p)


def test_idx_label_image_count_mismatch(tmp_path):
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    dt.write_idx_images(ip, _fixture_images(n=3))
    dt.write_idx_labels(lp, np.array([1, 2], dtype=np.int64))
    with pytest.raises(DataError):
        dt.load_idx(ip, lp)


def test_idx_gzip_transparent(tmp_path):
    images = _fixture_images()
    plain = tmp_path / "img.idx"
    dt.write_idx_images(plain, images)
    gz = tmp_path / "img.idx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(dt.load_idx_images(gz), images)


def test_find_idx_pair_prefers_plain_then_gz(tmp_path):
    images, labels = _fixture_images(), np.array([0, 1], dtype=np.int64)
    ip = tmp_path / "train-images-idx3-ubyte"
    lp = tmp_path / "train-labels-idx1-ubyte"
    dt.write_idx_images(ip, images)
    dt.write_idx_labels(lp, labels)
    found = dt.find_idx_pair(tmp_path, "train")
    assert found == (str(ip), str(lp))
    assert dt.find_idx_pair(tmp_path, "test") is None  # t10k files absent
    with pytest.raises(DataError, match="IDX"):
        dt.load_mnist_dir(tmp_path, "test")


def test_cifar_loader_record_format(tmp_path):
    rng = make_rng(81)
    n = 4
    labels = rng.integers(0, 10, n)
    pixels = rng.integers(0, 256, (n, 3072), dtype=np.uint8)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)]:
        with open(tmp_path / name, "wb") as f:
            for i in range(n):
                f.write(bytes([labels[i]]) + pixels[i].tobytes())
    ds = dt.load_cifar10(tmp_path, "train")
    assert ds.images.shape == (5 * n, 3, 32, 32)
    assert np.array_equal(ds.labels, np.tile(labels, 5))
    assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
    want = np.tile(pixels, (5, 1)).reshape(-1, 3, 32, 32).astype(np.float32) / np.float32(255)
    assert ds.images.tobytes() == want.tobytes()


def test_idx_images_decode_bytes(tmp_path):
    pixels = make_rng(90).integers(0, 256, (6, 5, 7), dtype=np.uint8)
    p = tmp_path / "img.idx"
    dt.write_idx_images(p, pixels)
    images = dt.load_idx_images(p)
    assert images.dtype == np.float32 and images.shape == (6, 1, 5, 7)
    assert images.tobytes() == (pixels[:, None].astype(np.float32) / np.float32(255)).tobytes()


@pytest.mark.parametrize("bad", [10, -1])
def test_label_outside_the_classes_names_split_index_and_value(bad):
    labels = np.array([0, 9, bad, 3, bad], dtype=np.int64)
    with pytest.raises(DataError, match=rf"cifar10/test: label {bad} at index 2 is outside 0\.\.9"):
        dt.Dataset(np.zeros((5, 3, 2, 2), np.float32), labels, 10, "cifar10/test")


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
def test_labels_not_of_an_integer_dtype_are_rejected(dtype):
    with pytest.raises(DataError, match=f"blobs/train: labels must be integers, got dtype {np.dtype(dtype)}"):
        dt.Dataset(np.zeros((3, 1, 2, 2), np.float32), np.array([0, 1, 0], dtype=dtype), 2, "blobs/train")
    for dtype in (np.uint8, np.int32, np.int64):
        assert dt.Dataset(np.zeros((3, 1, 2, 2), np.float32), np.array([0, 1, 0], dtype=dtype), 2).num_classes == 2


@pytest.mark.parametrize("classes", [2.5, np.float64(2.0), True, "2"])
def test_a_class_count_that_is_not_an_integer_names_split_and_field(classes):
    # a float class count once reached range() in the sampler as a bare TypeError
    with pytest.raises(DataError, match=f"blobs/train: num_classes must be an integer, got {re.escape(repr(classes))}"):
        dt.Dataset(np.zeros((3, 1, 2, 2), np.float32), np.array([0, 1, 0]), classes, "blobs/train")
    assert dt.Dataset(np.zeros((3, 1, 2, 2), np.float32), np.array([0, 1, 0]), np.int64(2)).num_classes == 2


def test_idx_labels_file_holding_a_ten_is_rejected(tmp_path):
    dt.write_idx_images(tmp_path / "train-images-idx3-ubyte", _fixture_images(n=3))
    dt.write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([1, 10, 2]))
    with pytest.raises(DataError, match=r"mnist/train: label 10 at index 1"):
        dt.load_mnist_dir(tmp_path, "train")


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

def test_shift_moves_bright_pixel():
    img = np.zeros((1, 5, 5), dtype=np.float32)
    img[0, 2, 1] = 1.0
    out = dt.shift_image(img, 0, 2)
    assert out[0, 2, 3] == 1.0 and out.sum() == 1.0


def test_shift_zero_fills_and_never_gains_mass():
    img = make_rng(82).random((1, 6, 6)).astype(np.float32)
    for dy, dx in [(-2, 0), (0, 3), (4, -4), (0, 0)]:
        out = dt.shift_image(img, dy, dx)
        assert out.sum() <= img.sum() + 1e-5


def test_jitter_radius_zero_identity():
    img = make_rng(83).random((1, 4, 4)).astype(np.float32)
    assert np.array_equal(dt.jitter(img, 0, make_rng(0)), img)


def test_hflip_reverses_width():
    img = np.array([[[1.0, 2.0]]], dtype=np.float32)
    flipped = False
    for seed in range(8):  # about half of these flip
        out = dt.hflip(img, make_rng(seed))
        if not np.array_equal(out, img):
            assert np.array_equal(out, [[[2.0, 1.0]]])
            flipped = True
    assert flipped


def test_hflip_symmetric_image_unchanged():
    img = np.array([[[3.0, 3.0]]], dtype=np.float32)
    for seed in range(4):
        assert np.array_equal(dt.hflip(img, make_rng(seed)), img)


class _FixedCenterRng:
    """Stands in for a Generator: hands out the queued center coordinates."""

    def __init__(self, cy, cx):
        self._vals = [cy, cx]

    def integers(self, low, high=None):
        return self._vals.pop(0)


def test_cutout_center_hole_covers_everything():
    img = np.ones((1, 6, 6), dtype=np.float32)
    out = dt.cutout(img, 6, _FixedCenterRng(3, 3))
    assert np.all(out == 0.0)


def test_cutout_clips_at_border_and_bounds_hole():
    img = np.ones((1, 8, 8), dtype=np.float32)
    out = dt.cutout(img, 4, _FixedCenterRng(0, 0))
    zeroed = int((out == 0.0).sum())
    assert 0 < zeroed <= 16


def test_cutout_hole_zero_identity():
    img = make_rng(84).random((1, 5, 5)).astype(np.float32)
    assert np.array_equal(dt.cutout(img, 0, make_rng(0)), img)


def test_augment_batch_all_off_is_identity():
    images = make_rng(85).random((3, 1, 4, 4)).astype(np.float32)
    out = dt.augment_batch(images, dt.AugmentConfig(), make_rng(0))
    assert np.array_equal(out, images)


def test_augment_batch_reproducible():
    images = make_rng(86).random((4, 1, 8, 8)).astype(np.float32)
    cfg = dt.AugmentConfig(jitter=2, hflip=True, cutout=3)
    a = dt.augment_batch(images, cfg, make_rng(55))
    b = dt.augment_batch(images, cfg, make_rng(55))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, images)


def test_augment_config_validation():
    with pytest.raises(ConfigError):
        dt.AugmentConfig(jitter=-1).validate_for((1, 8, 8))
    with pytest.raises(ConfigError):
        dt.AugmentConfig(cutout=10).validate_for((1, 8, 8))


@pytest.mark.parametrize("value", [1.5, np.float64(1.0), True, "1"])
@pytest.mark.parametrize("name", ["jitter", "cutout"])
def test_augment_sizes_must_be_integers(name, value):
    # a float cutout once reached a slice as a bare TypeError, a float
    # jitter trained
    with pytest.raises(ConfigError, match=f"{name} must be an integer, got {re.escape(repr(value))}"):
        dt.AugmentConfig(**{name: value})
    assert getattr(dt.AugmentConfig(**{name: np.int64(1)}), name) == 1


# ---------------------------------------------------------------------------
# standardization / synthetic data
# ---------------------------------------------------------------------------

def test_standardize_train_stats():
    train = dt.Dataset(make_rng(87).random((50, 3, 4, 4)).astype(np.float32) * 2,
                       np.zeros(50, dtype=np.int64), 10, "train")
    test = dt.Dataset(make_rng(88).random((20, 3, 4, 4)).astype(np.float32),
                      np.zeros(20, dtype=np.int64), 10, "test")
    raw_train, raw_test = train.images.copy(), test.images.copy()
    dt.standardize(dt.channel_stats(train), train, test)
    m = train.images.mean(axis=(0, 2, 3))
    s = train.images.std(axis=(0, 2, 3))
    assert np.max(np.abs(m)) < 1e-4
    assert np.max(np.abs(s - 1.0)) < 1e-4
    # the test split is shifted by the train statistics, not its own
    mu = raw_train.mean(axis=(0, 2, 3), keepdims=False)
    assert not np.allclose(test.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-3)
    assert np.allclose(test.images[:, 0], (raw_test[:, 0] - mu[0]) / raw_train[:, 0].std(), atol=1e-2)


def test_standardized_split_matches_standardize_bitwise():
    train = dt.Dataset(make_rng(87).random((50, 3, 4, 4)).astype(np.float32) * 2,
                       np.zeros(50, dtype=np.int64), 10, "train")
    test = dt.Dataset(make_rng(88).random((20, 3, 4, 4)).astype(np.float32),
                      np.zeros(20, dtype=np.int64), 10, "test")
    m, s = dt.channel_stats(train)
    raw = test.images.copy()
    together = dt.Dataset(raw.copy(), test.labels.copy(), 10, "together")
    images = test.images
    dt.standardize((m, s), test)
    assert test.images is images  # worked in place, no second array
    assert test.images.dtype == np.float32
    assert test.images.tobytes() == ((raw - m) / s).tobytes()
    dt.standardize((m, s), train, together)
    assert np.array_equal(test.images, together.images)
    assert test.name == "test" and np.array_equal(test.labels, np.zeros(20, dtype=np.int64))


def test_channel_stats_hold_no_split_sized_temporary():
    images = make_rng(89).random((1000, 3, 32, 32), dtype=np.float32) * 3 + 1
    train = dt.Dataset(images, np.zeros(1000, dtype=np.int64), 10, "train")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mean, std = dt.channel_stats(train)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < images.nbytes / 10
    want = images.astype(np.float64)
    assert np.allclose(mean.ravel(), want.mean(axis=(0, 2, 3)), rtol=1e-6, atol=0)
    assert np.allclose(std.ravel(), want.std(axis=(0, 2, 3)), rtol=1e-6, atol=0)
    assert mean.dtype == std.dtype == np.float32


def test_standardize_constant_channel_finite():
    train = dt.Dataset(np.full((10, 1, 2, 2), 0.5, dtype=np.float32),
                       np.zeros(10, dtype=np.int64), 2, "train")
    dt.standardize(dt.channel_stats(train), train)
    assert np.all(np.isfinite(train.images))


def test_blobs_deterministic_and_balanced():
    a = dt.synthetic_blobs(classes=4, per_class=10, dim=6, separation=5.0, seed=3)
    b = dt.synthetic_blobs(classes=4, per_class=10, dim=6, separation=5.0, seed=3)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert a.images.shape == (40, 6, 1, 1)
    assert np.array_equal(np.bincount(a.labels), [10, 10, 10, 10])


def test_blobs_wide_separation_centroid_error_zero():
    # every point is nearest to its own class mean
    ds = dt.synthetic_blobs(classes=5, per_class=20, dim=8, separation=100.0, seed=4)
    flat = ds.images.reshape(len(ds), -1)
    means = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)])
    d2 = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), ds.labels)


def test_class_balanced_split():
    ds = dt.synthetic_blobs(classes=3, per_class=30, dim=4, separation=5.0, seed=5)
    subset, rest = dt.class_balanced_split(ds, per_class=5, seed=1)
    assert len(subset) == 15 and len(rest) == 75
    assert np.array_equal(np.bincount(subset.labels), [5, 5, 5])
    # disjoint: together they reproduce the original multiset of rows
    joined = np.concatenate([subset.images, rest.images])
    assert np.array_equal(
        np.sort(joined.reshape(len(joined), -1), axis=0),
        np.sort(ds.images.reshape(len(ds), -1), axis=0),
    )
