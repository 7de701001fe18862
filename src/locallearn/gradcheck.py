"""Finite-difference verification of every backward pass.

Each check compares analytic gradients against central differences in
float64 and reports the worst relative error. The per-op checks exercise the
kernels in isolation. The per-mode checks run `train_step` itself, with a
`GradRecorder` as its update, on a 2-block toy net (conv -> pool -> dense
-> output) in every loss mode, and compare the gradients it hands to Adam
with the finite difference of the loss each parameter trains on: its
block's local loss in a local mode, the sum of every layer's loss in a
global one, extrapolated from two steps (see MODE_FD_STEP). A parameter the
step gives no gradient fails its check.

Feedback alignment needs a caveat: in the *-bpf pred path the activation
gradient is routed through a fixed random matrix B in place of the
classifier's w^T, so it is deliberately not the gradient of the loss. The
mode checks set w = B first, where the routed gradient is the true one. The
op-level pred_bpf check keeps w != B and compares the activation gradient
with the frozen-error surrogate sum(dlogits0 * (H @ B)), whose exact
gradient is what the implementation computes.

The `corrupt` hook flips the sign of a named check's analytic gradients so
the harness itself can be shown to catch a broken backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Optional

import numpy as np

from . import numerics as nm
from .losses import (
    MODE_TABLE,
    binarized_targets,
    pred_bpf_loss,
    pred_loss,
    sim_bpf_loss,
    sim_loss,
    similarity_matrix,
    similarity_matrix_backward,
)
from .rng import make_rng
from .trainer import GradRecorder, TrainConfig, build_network, dropout_rngs, train_step

THRESHOLD = 1e-4
FD_STEP = 1e-5
# A mode check differences a whole train_step: its central difference D at
# FD_STEP keeps a truncation error (as the step squared) of up to ~2e-5, and
# a smaller step drowns in roundoff. (4 D(h/2) - D(h)) / 3 cancels D's h^2
# term, at a step still clear of the activations' kinks.
MODE_FD_STEP = 1e-4
# entries where both gradients are this small count as matching; float64
# central differences carry ~1e-10 absolute noise, far below this floor
REL_FLOOR = 1e-6


def fd_grad(f: Callable[[], float], x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of the scalar f() w.r.t. x, in place."""
    if x.dtype != np.float64:
        raise TypeError("finite differences need float64 parameters")
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a), np.abs(n))
    err = np.where(denom > REL_FLOOR, np.abs(a - n) / np.where(denom > REL_FLOOR, denom, 1.0), 0.0)
    return float(err.max()) if err.size else 0.0


@dataclass
class CheckResult:
    name: str
    max_err: float
    threshold: ClassVar[float] = THRESHOLD

    @property
    def ok(self) -> bool:
        return self.max_err < self.threshold


# ---------------------------------------------------------------------------
# per-op checks; each returns a list of (analytic, finite-difference) pairs
# ---------------------------------------------------------------------------


def _check_matmul():
    r = make_rng(10)
    a = r.normal(size=(3, 4))
    b = r.normal(size=(4, 5))
    g = r.normal(size=(3, 5))
    da, db = nm.matmul_backward(a, b, g)
    f = lambda: float((g * nm.matmul(a, b)).sum())
    return [(da, fd_grad(f, a)), (db, fd_grad(f, b))]


def _check_conv(shape, kshape, seed):
    r = make_rng(seed)
    x = r.normal(size=shape)
    k = r.normal(size=kshape)
    g = r.normal(size=nm.conv2d(x, k).shape)
    dx, dk = nm.conv2d_backward(x, k, g.copy())  # f reads g, which a same-channel dx takes over
    f = lambda: float((g * nm.conv2d(x, k)).sum())
    return [(dx, fd_grad(f, x)), (dk, fd_grad(f, k))]


def _check_maxpool():
    r = make_rng(12)
    x = r.normal(size=(2, 2, 4, 4))
    out, idx = nm.maxpool2x2(x)
    g = r.normal(size=out.shape)
    dx = nm.maxpool2x2_backward(g, idx)
    f = lambda: float((g * nm.maxpool2x2(x)[0]).sum())
    return [(dx, fd_grad(f, x))]


def _check_avgpool():
    r = make_rng(13)
    x = r.normal(size=(2, 3, 4, 4))
    g = r.normal(size=(2, 3, 2, 2))
    dx = nm.avgpool_backward(g, 2)
    f = lambda: float((g * nm.avgpool(x, 2)).sum())
    return [(dx, fd_grad(f, x))]


def _check_batchnorm(shape, seed):
    r = make_rng(seed)
    x = r.normal(size=shape)
    gamma = r.normal(size=shape[1]) + 1.0
    beta = r.normal(size=shape[1])
    g = r.normal(size=shape)
    _, xhat, inv_std, _, _ = nm.batchnorm_train(x, gamma, beta)
    dx, dgamma, dbeta = nm.batchnorm_backward(g, gamma, xhat, inv_std)
    f = lambda: float((g * nm.batchnorm_train(x, gamma, beta)[0]).sum())
    return [(dx, fd_grad(f, x)), (dgamma, fd_grad(f, gamma)), (dbeta, fd_grad(f, beta))]


def _check_leaky_relu():
    r = make_rng(15)
    x = r.normal(size=(4, 6))
    x += np.sign(x) * 0.1  # keep clear of the kink, FD cannot cross it
    g = r.normal(size=x.shape)
    _, positive = nm.leaky_relu(x, 0.01, need_sign=True)
    dx = nm.leaky_relu_backward(positive, g, 0.01)
    f = lambda: float((g * nm.leaky_relu(x, 0.01)).sum())
    return [(dx, fd_grad(f, x))]


def _check_dropout():
    r = make_rng(16)
    x = r.normal(size=(4, 6))
    g = r.normal(size=x.shape)
    _, mask = nm.dropout(x, 0.3, make_rng(160))
    dx = nm.dropout_backward(g, mask, 0.3)
    # the mask depends only on the rng, so reseeding makes dropout a fixed
    # linear map and finite differences apply
    f = lambda: float((g * nm.dropout(x, 0.3, make_rng(160))[0]).sum())
    return [(dx, fd_grad(f, x))]


def _check_std():
    r = make_rng(17)
    x = r.normal(size=(2, 3, 4, 4))
    g = r.normal(size=(2, 3))
    dx = nm.std_per_feature_map_backward(x, g, nm.std_per_feature_map(x))
    f = lambda: float((g * nm.std_per_feature_map(x)).sum())
    return [(dx, fd_grad(f, x))]


def _check_cross_entropy():
    r = make_rng(18)
    logits = r.normal(size=(5, 4))
    targets = nm.one_hot(r.integers(0, 4, size=5), 4, np.float64)
    _, dlogits = nm.cross_entropy_logits(logits, targets)
    f = lambda: nm.cross_entropy_logits(logits, targets)[0]
    return [(dlogits, fd_grad(f, logits))]


def _check_bce():
    r = make_rng(19)
    logits = r.normal(size=(4, 6))
    targets = (r.random((4, 6)) > 0.5).astype(np.float64)
    _, dlogits = nm.bce_logits(logits, targets)
    f = lambda: nm.bce_logits(logits, targets)[0]
    return [(dlogits, fd_grad(f, logits))]


def _check_similarity_matrix():
    r = make_rng(20)
    x = r.normal(size=(5, 4))
    g = r.normal(size=(4, 4))  # deliberately not symmetric, nonzero diagonal
    dx = similarity_matrix_backward(x, g)
    f = lambda: float((g * similarity_matrix(x)).sum())
    return [(dx, fd_grad(f, x))]


def _check_sim_loss_dense():
    r = make_rng(21)
    h = r.normal(size=(4, 6))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    w = r.normal(size=(6, 6)) * 0.4
    b = r.normal(size=6) * 0.1
    res = sim_loss(h, y, w, b)
    f = lambda: sim_loss(h, y, w, b).loss
    return [(res.dh, fd_grad(f, h)), (res.grads["sim_w"], fd_grad(f, w)), (res.grads["sim_b"], fd_grad(f, b))]


def _check_sim_loss_conv():
    # 3+ channels: a 2-dim descriptor is degenerate after centering (all
    # columns +-parallel, cosine pinned at +-1) and its gradient vanishes
    r = make_rng(22)
    h = r.normal(size=(4, 3, 4, 4))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    w = r.normal(size=(3, 3, 3, 3)) * 0.4
    res = sim_loss(h, y, w)
    f = lambda: sim_loss(h, y, w).loss
    return [(res.dh, fd_grad(f, h)), (res.grads["sim_w"], fd_grad(f, w))]


def _check_pred_loss_dense():
    r = make_rng(23)
    h = r.normal(size=(4, 6))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    w = r.normal(size=(6, 3)) * 0.4
    b = r.normal(size=3) * 0.1
    res = pred_loss(h, y, w, b)
    f = lambda: pred_loss(h, y, w, b).loss
    return [(res.dh, fd_grad(f, h)), (res.grads["cls_w"], fd_grad(f, w)), (res.grads["cls_b"], fd_grad(f, b))]


def _check_pred_loss_conv():
    r = make_rng(24)
    h = r.normal(size=(4, 2, 4, 4))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    w = r.normal(size=(8, 3)) * 0.4  # pooled 2x(4/2)^2 = 8 inputs
    b = r.normal(size=3) * 0.1
    res = pred_loss(h, y, w, b, pool_k=2)
    f = lambda: pred_loss(h, y, w, b, pool_k=2).loss
    return [(res.dh, fd_grad(f, h)), (res.grads["cls_w"], fd_grad(f, w)), (res.grads["cls_b"], fd_grad(f, b))]


def _check_sim_bpf(conv: bool):
    r = make_rng(25 if conv else 26)
    h = r.normal(size=(4, 3, 4, 4) if conv else (4, 6))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    proj = r.normal(size=(5, 3))
    res = sim_bpf_loss(h, proj @ y.T)
    f = lambda: sim_bpf_loss(h, proj @ y.T).loss
    return [(res.dh, fd_grad(f, h))]


def _check_pred_bpf():
    r = make_rng(27)
    h = r.normal(size=(4, 6))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    w = r.normal(size=(6, 5)) * 0.4
    b = r.normal(size=5) * 0.1
    feedback = r.normal(size=(6, 5)) * 0.4
    proj = r.normal(size=(5, 3))
    t = binarized_targets(proj, y, np.float64)
    res = pred_bpf_loss(h, t, w, b, feedback)
    pairs = []
    # classifier params: true gradients of the BCE loss
    f = lambda: pred_bpf_loss(h, t, w, b, feedback).loss
    pairs.append((res.grads["cls_w"], fd_grad(f, w)))
    pairs.append((res.grads["cls_b"], fd_grad(f, b)))
    # activation path: gradient of the frozen-error feedback surrogate
    _, dlogits0 = nm.bce_logits(nm.matmul(h, w) + b, t)
    fs = lambda: float((dlogits0 * (h @ feedback)).sum())
    pairs.append((res.dh, fd_grad(fs, h)))
    return pairs


# ---------------------------------------------------------------------------
# per-mode composite checks through a 2-block toy net
# ---------------------------------------------------------------------------

_TOY_ARCH = "conv3-pool-fc8-fc"  # 3 channels keep the conv sim descriptor non-degenerate


def _toy_setup(mode: str):
    cfg = TrainConfig(arch=_TOY_ARCH, loss=mode, projection_dim=6, dropout=0.1, pred_target_dim=8, seed=3)
    net = build_network(cfg, (1, 6, 6), 3, dtype=np.float64)
    r = make_rng(3, 9)
    x = r.normal(size=(4, 1, 6, 6))
    y = nm.one_hot(r.integers(0, 3, size=4), 3, np.float64)
    return net, x, y


def _check_mode(mode: str):
    net, x, y = _toy_setup(mode)
    for block in net.blocks:
        if block.feedback is not None:
            block.cls_w[...] = block.feedback  # at w = B the routed gradient is the true one
    step = lambda kept: train_step(net, x, y, 0.0, dropout_rngs(7, 0, len(net.blocks)), update=kept).losses
    kept = GradRecorder()
    step(kept)
    local = MODE_TABLE[mode].local
    pairs = []
    # a local block trains on its own loss and the output layer on the last
    # one; a global step trains everything on the sum, where blocks without a
    # local loss report exactly 0.0
    for k, owner in enumerate(net.blocks + [net.out]):
        target = lambda: step(GradRecorder())[k] if local else float(sum(step(GradRecorder())))
        for name in owner.adam:
            p = getattr(owner, name)
            fd = (4.0 * fd_grad(target, p, MODE_FD_STEP / 2) - fd_grad(target, p, MODE_FD_STEP)) / 3.0
            pairs.append((kept[k].get(name), fd))
    return pairs


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def all_checks():
    """Name -> pair-producing callable, in report order."""
    checks = [
        ("matmul", _check_matmul),
        ("conv2d_3x3", lambda: _check_conv((2, 2, 4, 4), (3, 2, 3, 3), 11)),
        # co <= ci: dk and dx from one lowering of g
        ("conv2d_same_channel", lambda: _check_conv((2, 3, 4, 4), (3, 3, 3, 3), 113)),
        ("conv2d_narrowing", lambda: _check_conv((2, 4, 4, 4), (2, 4, 3, 3), 114)),
        ("maxpool2x2", _check_maxpool),
        ("avgpool", _check_avgpool),
        ("batchnorm_dense", lambda: _check_batchnorm((8, 5), 14)),
        ("batchnorm_conv", lambda: _check_batchnorm((4, 3, 2, 2), 141)),
        ("leaky_relu", _check_leaky_relu),
        ("dropout", _check_dropout),
        ("std_per_feature_map", _check_std),
        ("cross_entropy", _check_cross_entropy),
        ("binary_cross_entropy", _check_bce),
        ("similarity_matrix", _check_similarity_matrix),
        ("sim_loss_dense", _check_sim_loss_dense),
        ("sim_loss_conv", _check_sim_loss_conv),
        ("pred_loss_dense", _check_pred_loss_dense),
        ("pred_loss_conv", _check_pred_loss_conv),
        ("sim_bpf_dense", lambda: _check_sim_bpf(False)),
        ("sim_bpf_conv", lambda: _check_sim_bpf(True)),
        ("pred_bpf", _check_pred_bpf),
    ]
    checks += [(f"mode_{mode}", partial(_check_mode, mode)) for mode in MODE_TABLE]
    return checks


def run_all(corrupt: Optional[str] = None):
    """Run every check; returns a list of CheckResult.

    `corrupt` flips the analytic sign for checks whose name starts with it
    (test hook proving the harness detects a wrong backward pass). An
    analytic gradient of None, a parameter nothing differentiated, fails
    its check with an infinite error.
    """
    results = []
    for name, fn in all_checks():
        flip = corrupt is not None and name.startswith(corrupt)
        err = 0.0
        for analytic, numeric in fn():
            if analytic is None:
                err = np.inf
                continue
            a = -np.asarray(analytic) if flip else analytic
            err = max(err, max_rel_err(a, numeric))
        results.append(CheckResult(name, err))
    return results
