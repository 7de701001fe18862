"""Synthetic classification data written in the formats `locallearn train`
reads: CIFAR-10 binary batches and MNIST-style IDX files.

Each class is a smooth, left-right symmetric template (so `--flip` keeps the
class); the ten templates are orthonormal and the same for every seed, so
the seed moves which images are drawn, not how hard the task is. An image
is its class template at a random shift and at an amplitude drawn uniformly
from 0 to twice `signal`, under pixel noise, and a fixed share of labels is
reassigned. The graded amplitude spreads the difficulty: a better model
classifies fainter images, so the test error moves smoothly with model
quality instead of jumping between chance and the floor the reassigned
labels set. A matched filter that knows the templates and tries every shift
errs on about 0.25 of the conv workloads' test images (signal 0.06) and 0.37
of mlp-bpf's (signal 0.05), which bounds what a trained model can reach.
"""

from __future__ import annotations

import os
import struct

import numpy as np

CLASSES = 10
NOISE = 0.3  # pixel noise sd, on the [0, 1] pixel scale
SHIFT = 3  # largest shift of a template, in pixels per axis
RELABEL = 0.2  # share of each split whose label is redrawn at random
TEMPLATE_SEED = 0  # the class templates are the same for every seed
# the IDX header magics, written here rather than taken from the library so
# the inputs do not depend on the code they test
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _templates(gen: np.random.Generator, channels: int, side: int, coarse: int) -> np.ndarray:
    """(CLASSES, channels*side*side) orthonormal rows, each a blocky
    upsampling of a coarse random field, mirrored to be flip-symmetric."""
    block = side // coarse
    fields = gen.standard_normal((CLASSES, channels, coarse, coarse))
    fields = np.kron(fields, np.ones((block, block)))
    pad = side - fields.shape[-1]
    fields = np.pad(fields, ((0, 0), (0, 0), (0, pad), (0, pad)), mode="edge")
    fields = fields + fields[..., ::-1]
    q, _ = np.linalg.qr(fields.reshape(CLASSES, -1).T)
    return q.T


def make_split(seed: int, split: int, n: int, channels: int, side: int, signal: float):
    """Returns (uint8 images (n, channels, side, side), uint8 labels (n,)).

    `seed` and `split` key the stream the images and labels are drawn
    from, so train and test never share draws.
    Exactly round(RELABEL * n) examples get a label drawn uniformly from
    all classes, so about nine in ten of them name a class other than the
    one their image shows: a floor of about 0.9 * RELABEL under the error
    that no model can beat.
    """
    templates = _templates(np.random.default_rng(TEMPLATE_SEED), channels, side, coarse=4)
    templates = templates.reshape(CLASSES, channels, side, side) * np.sqrt(channels * side * side)
    gen = np.random.default_rng([seed, 1 + split])
    classes = np.arange(n) % CLASSES
    gen.shuffle(classes)
    labels = classes.copy()
    moved = gen.permutation(n)[: round(RELABEL * n)]
    labels[moved] = gen.integers(0, CLASSES, size=moved.size)
    shifts = gen.integers(-SHIFT, SHIFT + 1, size=(n, 2))
    images = np.empty((n, channels, side, side))
    for i in range(n):
        images[i] = np.roll(templates[classes[i]], tuple(shifts[i]), axis=(1, 2))
    amplitude = signal * gen.uniform(0.0, 2.0, size=(n, 1, 1, 1))
    images = 0.5 + amplitude * images + NOISE * gen.standard_normal(images.shape)
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_cifar10(data_dir: str, train, test) -> None:
    """CIFAR-10 binary layout: five train batches plus test_batch.bin, each
    record one label byte followed by 3072 pixel bytes."""
    os.makedirs(data_dir, exist_ok=True)

    def write(path, images, labels):
        records = np.concatenate([labels[:, None], images.reshape(len(labels), -1)], axis=1)
        with open(path, "wb") as f:
            f.write(records.tobytes())

    images, labels = train
    for k, part in enumerate(np.array_split(np.arange(len(labels)), 5), start=1):
        write(os.path.join(data_dir, f"data_batch_{k}.bin"), images[part], labels[part])
    write(os.path.join(data_dir, "test_batch.bin"), *test)


def write_mnist(data_dir: str, train, test) -> None:
    """MNIST IDX layout: big-endian headers, uint8 payloads."""
    os.makedirs(data_dir, exist_ok=True)
    for prefix, (images, labels) in (("train", train), ("t10k", test)):
        n, _, rows, cols = images.shape
        with open(os.path.join(data_dir, f"{prefix}-images-idx3-ubyte"), "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
            f.write(images.tobytes())
        with open(os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte"), "wb") as f:
            f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
            f.write(labels.tobytes())
