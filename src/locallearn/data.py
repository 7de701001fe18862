"""Dataset loading, augmentation, and the synthetic fixtures.

Each split is decoded once into one float32 NCHW array in [0, 1];
standardize() with the train split's channel_stats() then shifts and scales
the splits it is given in place, so a run holds one float32 copy of each.
Augmentations operate on single images and are composed per batch in a
fixed order (jitter, flip, cutout) so a seeded rng reproduces a run.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import rng as rngmod
from .errors import ConfigError, DataError, InputError, ShapeError, require_ints

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """A split: float32 images (n, c, h, w), int labels (n,) in
    0..num_classes-1, class count. Images are in [0, 1] as loaded and are
    standardized in place."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeError(f"images must be (n, c, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError(f"{self.labels.shape[0]} labels for {self.images.shape[0]} images")
        require_ints(lambda message: DataError(f"{self.name or 'split'}: {message}"), num_classes=self.num_classes)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DataError(f"{self.name or 'split'}: labels must be integers, got dtype {self.labels.dtype}")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.size:
            i = bad[0]
            raise DataError(
                f"{self.name or 'split'}: label {self.labels[i]} at index {i} is outside 0..{self.num_classes - 1}"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# IDX (the MNIST family's format)
# ---------------------------------------------------------------------------


def _read_maybe_gzip(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


def load_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file -> float32 (n, 1, rows, cols) in [0, 1]."""
    buf = _read_maybe_gzip(path)
    if len(buf) < 16:
        raise DataError(f"{path}: too short for an IDX image header")
    magic, n, rows, cols = struct.unpack(">IIII", buf[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_IMAGES_MAGIC:08x}")
    if not rows or not cols:
        raise DataError(f"{path}: {rows}x{cols} images have no pixels")
    need = 16 + n * rows * cols
    if len(buf) != need:
        raise DataError(f"{path}: expected {need} bytes, found {len(buf)}")
    images = np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols).astype(np.float32)
    images /= np.float32(255.0)
    return images


def load_idx_labels(path) -> np.ndarray:
    """Big-endian IDX label file -> int64 (n,)."""
    buf = _read_maybe_gzip(path)
    if len(buf) < 8:
        raise DataError(f"{path}: too short for an IDX label header")
    magic, n = struct.unpack(">II", buf[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(buf) != 8 + n:
        raise DataError(f"{path}: expected {8 + n} bytes, found {len(buf)}")
    return np.frombuffer(buf, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path, num_classes: int = 10, name: str = "") -> Dataset:
    """Pair an IDX image file with its label file."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images.shape[0]} images but {labels.shape[0]} labels")
    return Dataset(images, labels, num_classes, name)


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of load_idx_images; expects uint8 (n, rows, cols) or float in
    [0, 1] shaped (n, 1, rows, cols)."""
    arr = np.asarray(images)
    if arr.ndim == 4:
        if arr.shape[1] != 1:
            raise ShapeError("IDX images are single channel")
        arr = np.round(arr[:, 0] * 255.0).astype(np.uint8)
    if arr.ndim != 3:
        raise ShapeError(f"expected (n, rows, cols), got {arr.shape}")
    n, rows, cols = arr.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.size))
        f.write(labels.astype(np.uint8).tobytes())


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def find_idx_pair(data_dir, split: str):
    """Locate the conventional MNIST-style filenames (optionally .gz) for a
    split; returns (images_path, labels_path) or None if absent."""
    img_name, lab_name = _MNIST_FILES[split]
    pair = []
    for base in (img_name, lab_name):
        for cand in (base, base + ".gz"):
            p = os.path.join(data_dir, cand)
            if os.path.exists(p):
                pair.append(p)
                break
        else:
            return None
    return tuple(pair)


def load_mnist_dir(data_dir, split: str, name: str = "mnist") -> Dataset:
    """Load an MNIST-layout directory (works for any of the ubyte family)."""
    pair = find_idx_pair(data_dir, split)
    if pair is None:
        raise DataError(f"no {split} IDX files under {data_dir!r} (expected {_MNIST_FILES[split][0]}[.gz] etc.)")
    return load_idx(pair[0], pair[1], num_classes=10, name=f"{name}/{split}")


# ---------------------------------------------------------------------------
# CIFAR binary format (3073-byte records: label byte + 3072 pixel bytes)
# ---------------------------------------------------------------------------


def load_cifar10(data_dir, split: str) -> Dataset:
    """CIFAR-10 from the standard binary batches, decoded in one pass."""
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] if split == "train" else ["test_batch.bin"]
    records = []
    for n in names:
        p = os.path.join(data_dir, n)
        if not os.path.exists(p):
            raise DataError(f"missing CIFAR batch {p}")
        raw = np.fromfile(p, dtype=np.uint8)
        if raw.size % 3073:
            raise DataError(f"{p}: size {raw.size} is not a multiple of 3073")
        records.append(raw)
    rec = np.concatenate(records).reshape(-1, 3073)
    images = rec[:, 1:].astype(np.float32).reshape(-1, 3, 32, 32)
    images /= np.float32(255.0)
    return Dataset(images, rec[:, 0].astype(np.int64), 10, f"cifar10/{split}")


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


@dataclass
class AugmentConfig:
    jitter: int = 0  # max absolute shift in pixels, drawn uniformly incl. 0
    hflip: bool = False
    cutout: int = 0  # square hole side; 0 disables

    def __post_init__(self):
        require_ints(ConfigError, jitter=self.jitter, cutout=self.cutout)

    def validate_for(self, image_shape) -> None:
        _, h, w = image_shape
        if self.jitter < 0 or self.cutout < 0:
            raise ConfigError("augmentation sizes must be non-negative")
        if self.cutout > min(h, w):
            raise ConfigError(f"cutout hole {self.cutout} exceeds image side {min(h, w)}")
        if self.jitter >= min(h, w):
            raise ConfigError(f"jitter radius {self.jitter} too large for {h}x{w} images")


def shift_image(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate one (c, h, w) image by (dy, dx), zero-filling what slides in."""
    c, h, w = img.shape
    out = np.zeros_like(img)
    ys, yd = (0, dy) if dy >= 0 else (-dy, 0)
    xs, xd = (0, dx) if dx >= 0 else (-dx, 0)
    out[:, yd : h - ys, xd : w - xs] = img[:, ys : h - yd, xs : w - xd]
    return out


def jitter(img: np.ndarray, radius: int, rng: np.random.Generator) -> np.ndarray:
    """Random translation up to +-radius pixels per axis (0 included)."""
    if radius == 0:
        return img
    dy, dx = rng.integers(-radius, radius + 1, size=2)
    return shift_image(img, int(dy), int(dx))


def hflip(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mirror horizontally with probability 1/2."""
    if rng.random() < 0.5:
        return img[:, :, ::-1].copy()
    return img


def cutout(img: np.ndarray, hole: int, rng: np.random.Generator) -> np.ndarray:
    """Zero a hole x hole square at a uniformly random center (clipped at the
    borders, so edge holes are smaller)."""
    if hole == 0:
        return img
    _, h, w = img.shape
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    # intersection of the square with the image, not a shifted full square
    y0 = cy - hole // 2
    x0 = cx - hole // 2
    out = img.copy()
    out[:, max(0, y0) : min(h, y0 + hole), max(0, x0) : min(w, x0 + hole)] = 0.0
    return out


def augment_batch(images: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply the configured augmentations per image, in a fixed order."""
    if not (cfg.jitter or cfg.hflip or cfg.cutout):
        return images
    cfg.validate_for(images.shape[1:])
    out = np.empty_like(images)
    for i in range(images.shape[0]):
        img = images[i]
        img = jitter(img, cfg.jitter, rng)
        if cfg.hflip:
            img = hflip(img, rng)
        img = cutout(img, cfg.cutout, rng)
        out[i] = img
    return out


# ---------------------------------------------------------------------------
# standardization / synthetic data
# ---------------------------------------------------------------------------


def channel_stats(train: Dataset):
    """Per-channel (mean, std) of a train split, each shaped (1, c, 1, 1).

    The population variance adds up the centered squares a block of images
    at a time (numerics.ROW_BLOCK elements), in float64, so no temporary as
    large as the split exists. A constant channel's std is guarded with an
    epsilon rather than letting standardize() divide by zero.
    """
    x = train.images
    mean = x.mean(axis=(0, 2, 3))
    squares = np.zeros(x.shape[1])
    for rows, centered in nm._row_blocks(x, x.dtype):
        np.subtract(x[rows], mean[None, :, None, None], out=centered)
        squares += np.square(centered, out=centered).sum(axis=(0, 2, 3), dtype=np.float64)
    std = np.sqrt(squares / (x.size // x.shape[1])).astype(x.dtype)
    std = np.maximum(std, np.float32(1e-8))
    return mean[None, :, None, None], std[None, :, None, None]


def standardize(stats, *splits: Dataset) -> None:
    """Shift and scale each split's images in place by a train split's
    channel_stats(): x = (x - m) / s, per channel."""
    m, s = stats
    for ds in splits:
        ds.images -= m
        ds.images /= s


def synthetic_blobs(classes: int, per_class: int, dim: int = 16, separation: float = 6.0, seed: int = 0) -> Dataset:
    """Gaussian blobs around random unit directions scaled by `separation`,
    unit noise, balanced labels. Images come out as (n, dim, 1, 1) so the
    rest of the pipeline can stay NCHW."""
    if classes < 2 or per_class < 1:
        raise ConfigError("need at least 2 classes and 1 example per class")
    gen = rngmod.make_rng(seed, rngmod.DATA)
    centers = gen.normal(size=(classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= separation
    labels = np.repeat(np.arange(classes), per_class)
    noise = gen.normal(size=(labels.size, dim))
    x = (centers[labels] + noise).astype(np.float32)
    return Dataset(x.reshape(-1, dim, 1, 1), labels.astype(np.int64), classes, "blobs")


def class_balanced_split(ds: Dataset, per_class: int, seed: int = 0):
    """Split off a class-balanced subset (e.g. a small eval set); returns
    (subset, remainder)."""
    gen = rngmod.make_rng(seed, rngmod.DATA, 1)
    take = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size < per_class:
            raise InputError(f"class {c} has only {idx.size} examples, need {per_class}")
        take.append(gen.permutation(idx)[:per_class])
    take = np.concatenate(take)
    rest = np.setdiff1d(np.arange(len(ds)), take)
    sub = Dataset(ds.images[take], ds.labels[take], ds.num_classes, ds.name + "/subset")
    rem = Dataset(ds.images[rest], ds.labels[rest], ds.num_classes, ds.name + "/rest")
    return sub, rem
