"""Shared fixtures and small builders used across the suite."""

import time
import weakref

import numpy as np
import pytest

import locallearn.gradcheck as gc
import locallearn.trainer as tr
from locallearn.data import synthetic_blobs
from locallearn.rng import make_rng
from locallearn.trainer import TrainConfig, build_network


def rand(shape, seed=0, dtype=np.float64, scale=1.0):
    return (make_rng(9000, seed).standard_normal(shape) * scale).astype(dtype)


def _rows(shape):
    """(rows, units per row) of the packed mask of an array of `shape`:
    its leading-axis rows, a 0-d array being one row of one."""
    shape = (1,) if shape == () else tuple(shape)
    return shape[0], int(np.prod(shape[1:]))


def packed(bits):
    """The packed mask of a bool array: np.packbits of each row."""
    return np.packbits(np.asarray(bits, dtype=np.bool_).reshape(_rows(np.shape(bits))), axis=1)


def packed_shape(shape):
    """(rows, ceil(units per row / 8))."""
    n, row = _rows(shape)
    return (n, (row + 7) // 8)


def unpacked(mask, shape):
    """The bool array of `shape` whose packed mask is mask."""
    return np.unpackbits(mask, axis=1, count=_rows(shape)[1]).astype(np.bool_).reshape(shape)


def tiny_blobs(classes=3, per_class=40, dim=16, separation=6.0, seed=0):
    return synthetic_blobs(classes=classes, per_class=per_class, dim=dim,
                           separation=separation, seed=seed)


def small_net(mode, arch="fc16-fc", input_shape=(8, 1, 1), classes=3,
              seed=0, dropout=0.0, dtype=np.float32, **kw):
    """A throwaway network for step-level tests; kw sets other TrainConfig
    fields."""
    cfg = TrainConfig(arch=arch, loss=mode, seed=seed, dropout=dropout, **kw)
    return build_network(cfg, input_shape, classes, dtype)


def peak_live_caches(step):
    """Call step() with the trainer's block_forward wrapped; returns its
    result and the most block caches alive at once, counted by weakref right
    after each forward."""
    refs, peak = [], 0
    forward = tr.block_forward

    def counting(*args, **kwargs):
        nonlocal peak
        h, cache = forward(*args, **kwargs)
        refs.append(weakref.ref(cache))
        peak = max(peak, sum(ref() is not None for ref in refs))
        return h, cache

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "block_forward", counting)
        return step(), peak


@pytest.fixture
def blobs3():
    """3 well-separated Gaussian clusters, 120 points, 16-dim."""
    return tiny_blobs()


@pytest.fixture(scope="session")
def gradcheck_run():
    """One run of the whole gradient-check suite per session, shared by the
    tests that read it: (results, wall seconds)."""
    t0 = time.perf_counter()
    results = gc.run_all()
    return results, time.perf_counter() - t0
