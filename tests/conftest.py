"""Shared fixtures and small builders used across the suite."""

import weakref

import numpy as np
import pytest

import locallearn.trainer as tr
from locallearn.data import synthetic_blobs
from locallearn.losses import LossConfig
from locallearn.rng import make_rng
from locallearn.trainer import build_network, parse_arch


def rand(shape, seed=0, dtype=np.float64, scale=1.0):
    return (make_rng(9000, seed).standard_normal(shape) * scale).astype(dtype)


def tiny_blobs(classes=3, per_class=40, dim=16, separation=6.0, seed=0):
    return synthetic_blobs(classes=classes, per_class=per_class, dim=dim,
                           separation=separation, seed=seed)


def small_net(mode, arch="fc16-fc", input_shape=(8, 1, 1), classes=3,
              seed=0, dropout=0.0, dtype=np.float32, **kw):
    """A throwaway network for step-level tests."""
    spec = parse_arch(arch, input_shape, classes)
    return build_network(spec, LossConfig(mode=mode), dropout=dropout,
                         seed=seed, dtype=dtype, **kw)


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
