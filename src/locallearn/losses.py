"""Local error signals: similarity matching, local classifiers, and the
backprop-free variants built from fixed random projections.

Every loss here returns the scalar, the gradient w.r.t. the hidden activation
it was attached to, and the gradients of its own head parameters. That is the
whole point: a layer can be trained from these outputs alone, without waiting
for anything downstream.

Each loss mode is defined by its row in `MODE_TABLE`, and nothing else:
the pred part, the sim part, local or global training, the default beta.

Both pred parts are one local linear classifier on the layer's (pooled,
flattened) activations, and differ in two things only. pred scores one-hot
labels with cross-entropy and sends its error down through the classifier's
own w. pred-bpf scores binarised projected labels with binary cross-entropy
and sends its error down through a fixed random matrix B of w's shape
(feedback alignment), so its dh is deliberately not its loss's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import numerics as nm
from .errors import ConfigError, InputError, ShapeError


class ModeRow(NamedTuple):
    """What one loss mode trains the hidden blocks with."""

    pred: Optional[str]  # local classifier: "ce" on labels, or "bpf" on binarised projected labels via B
    sim: Optional[str]  # similarity matching: "head" (trainable sim head) or "bpf" (projected labels)
    local: bool  # train from the local loss alone; otherwise global backprop adds it with unit weight
    beta: float  # default weight of sim in (1 - beta) * pred + beta * sim


MODE_TABLE = {
    "glob": ModeRow(None, None, False, 1.0),
    "pred": ModeRow("ce", None, True, 1.0),
    "sim": ModeRow(None, "head", True, 1.0),
    "predsim": ModeRow("ce", "head", True, 0.99),
    "pred-bpf": ModeRow("bpf", None, True, 1.0),
    "sim-bpf": ModeRow(None, "bpf", True, 1.0),
    "predsim-bpf": ModeRow("bpf", "bpf", True, 0.01),
    "glob+sim": ModeRow(None, "head", False, 1.0),
}

MODES = tuple(MODE_TABLE)


# ---------------------------------------------------------------------------
# similarity matching
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-8


def similarity_matrix(x: np.ndarray) -> np.ndarray:
    """Adjusted cosine similarity between the columns of x.

    Each column is an example descriptor. Columns are mean-centered, then the
    matrix of pairwise cosines is formed, symmetrised, clipped to [-1, 1],
    and given an exact unit diagonal. Zero-norm columns are guarded with a
    small epsilon instead of dividing by zero.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"similarity_matrix expects (features, n), got {x.shape}")
    if x.shape[1] < 2:
        raise InputError("similarity needs at least 2 examples")
    c = x - x.mean(axis=0)
    nu = np.maximum(np.sqrt((c * c).sum(axis=0)), x.dtype.type(_NORM_EPS))
    z = c / nu
    s = z.T @ z
    s = (s + s.T) * x.dtype.type(0.5)
    np.clip(s, -1.0, 1.0, out=s)
    np.fill_diagonal(s, 1.0)
    return s


def similarity_matrix_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum(g * similarity_matrix(x)) w.r.t. x.

    The diagonal of g is ignored (those entries are pinned to 1), and the
    clip is treated as the identity since it only trims float fuzz. The
    result is Fortran-ordered, so its transpose, one row per example as the
    losses consume it, is C-ordered.

    It holds at most three buffers of x's shape: the centred c, normalised
    in place to z; dz, made into dc in place; and one scratch. z and the
    scratch die before the result is made. Each column sum reads a buffer
    laid out as the expression it stands for would be (c*c in c's order,
    z*dz and dc C-ordered, as matmul makes dz), so every byte is the one
    the expressions give.
    """
    x = np.asarray(x)
    if g.shape != (x.shape[1], x.shape[1]):
        raise ShapeError(f"grad shape {g.shape} does not match {(x.shape[1], x.shape[1])}")
    if g.dtype != x.dtype:  # the buffers are x's dtype
        raise ShapeError(f"grad dtype {g.dtype} does not match {x.dtype}")
    z = x - x.mean(axis=0)  # c for now
    flat = np.empty(z.size, dtype=z.dtype)
    scratch = flat.reshape(z.shape, order="F" if z.flags.f_contiguous else "C")
    nrm = np.sqrt(np.multiply(z, z, out=scratch).sum(axis=0))
    nu = np.maximum(nrm, x.dtype.type(_NORM_EPS))
    z /= nu
    g0 = g.copy()
    np.fill_diagonal(g0, 0.0)
    # through sym(Z^T Z): dL/dZ = Z (G0 + G0^T), the 1/2 of sym cancels
    dc = z @ (g0 + g0.T)  # dz for now
    # normalisation backward; columns at the epsilon floor have constant nu
    scratch = flat.reshape(z.shape)
    proj = np.multiply(z, dc, out=scratch).sum(axis=0)
    active = (nrm > _NORM_EPS).astype(x.dtype)
    dc /= nu
    dc -= np.multiply(active * proj / nu, z, out=scratch)
    z = scratch = flat = None  # dead before the result takes their place
    return np.subtract(dc, dc.mean(axis=0), order="F")


def label_similarity(targets_onehot: np.ndarray) -> np.ndarray:
    """Similarity matrix of one-hot label rows (n, C): 1 within a class,
    -1/(C-1) across classes."""
    t = np.asarray(targets_onehot)
    if t.ndim != 2:
        raise ShapeError(f"expected one-hot rows, got {t.shape}")
    return similarity_matrix(t.T)


def _sim_match(feat: np.ndarray, target_sim: np.ndarray, weight: float = 1.0, out=None):
    """Core sim loss: the mean-squared gap (sum of squares / n^2) between
    target_sim and the similarity matrix of feat's descriptors. Dense rows
    are descriptors as they are; conv maps reduce to their per-map std, and
    their gradient goes into out (a new array by default; out=feat, from a
    caller that no longer reads feat, overwrites it). Returns (loss, d feat),
    the gradient that of weight * loss: the weight scales the n x n
    gradient of the similarity matrix, the smallest one on the way down."""
    desc = feat if feat.ndim == 2 else nm.std_per_feature_map(feat)
    n = desc.shape[0]
    diff = similarity_matrix(desc.T) - target_sim
    loss = float((diff * diff).sum() / (n * n))
    ddesc = similarity_matrix_backward(desc.T, diff * desc.dtype.type(weight * 2.0 / (n * n))).T
    return loss, (ddesc if feat.ndim == 2 else nm.std_per_feature_map_backward(feat, ddesc, std=desc, out=out))


@dataclass
class LocalLossResult:
    """What a local loss hands back: scalar, grad w.r.t. the tapped hidden
    activation, and grads for the loss's own head parameters (keyed by the
    block attribute names). The scalar is the loss itself; the gradients
    are those of the weight the loss was given times it."""

    loss: float
    dh: np.ndarray
    grads: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sim loss (trainable head -> descriptor -> similarity match against labels)
# ---------------------------------------------------------------------------


def sim_loss(
    h: np.ndarray, targets_onehot: np.ndarray, head_w: np.ndarray, head_b=None, weight: float = 1.0
) -> LocalLossResult:
    """Similarity-matching loss through the layer's sim head.

    Dense h (n, d): the head is a square linear map, the descriptor is its
    output. Conv h (n, c, hh, ww): the head is a 3x3 same-channel conv with
    no bias, and the descriptor is the per-feature-map std of its output.
    The gradients are those of weight * loss (see _sim_match).
    """
    target_sim = label_similarity(targets_onehot)
    if h.ndim == 2:
        feat = nm.matmul(h, head_w) + head_b
        loss, dfeat = _sim_match(feat, target_sim, weight)
        dh, dw = nm.matmul_backward(h, head_w, dfeat)
        return LocalLossResult(loss, dh, {"sim_w": dw, "sim_b": dfeat.sum(axis=0)})
    if h.ndim == 4:
        # nothing reads the head's feature map once its std is taken, so its
        # gradient is written over it, and the same-channel head's dx (the
        # block's dh) over that: map, gradient and dh are one buffer
        feat = nm.conv2d(h, head_w)
        loss, dfeat = _sim_match(feat, target_sim, weight, out=feat)
        dh, dw = nm.conv2d_backward(h, head_w, dfeat)
        return LocalLossResult(loss, dh, {"sim_w": dw})
    raise ShapeError(f"sim_loss expects 2-d or 4-d activations, got {h.shape}")


def sim_bpf_loss(h: np.ndarray, proj_targets: np.ndarray, weight: float = 1.0) -> LocalLossResult:
    """Backprop-free sim loss: no head, descriptors matched against the
    similarity matrix of randomly projected labels.

    proj_targets is (projection_dim, n), columns per example. dh is the
    gradient of weight * loss.
    """
    return LocalLossResult(*_sim_match(h, similarity_matrix(proj_targets), weight))


# ---------------------------------------------------------------------------
# pred loss (local linear classifier) and its feedback-alignment variant
# ---------------------------------------------------------------------------


def _classifier_loss(h, targets, w, b, back, loss_fn, pool_k, weight, add_to) -> LocalLossResult:
    """The local classifier both pred parts are: average-pool a conv map
    (pool_k > 1), flatten, score the logits with loss_fn against targets,
    and send dlogits down through back, w or B. The weight scales dlogits,
    the smallest gradient, so cls_w and cls_b are those of weight * loss.
    Given add_to, an array of h's shape the caller hands over, dh is added
    into it, bit for bit add_to + dh, and the result's dh is add_to."""
    if h.ndim not in (2, 4):
        raise ShapeError(f"expected 2-d or 4-d activations, got {h.shape}")
    pooled = nm.avgpool(h, pool_k) if h.ndim == 4 and pool_k > 1 else h
    flat = pooled.reshape(h.shape[0], -1)
    loss, dlogits = loss_fn(nm.matmul(flat, w) + b, targets)
    dlogits *= dlogits.dtype.type(weight)
    dflat, dw = nm.matmul_backward(flat, back, dlogits)
    d = dflat.reshape(pooled.shape)
    if pooled is not h:
        dh = nm.avgpool_backward(d, pool_k, add_to)
    else:
        dh = d if add_to is None else np.add(add_to, d, out=add_to)
    return LocalLossResult(loss, dh, {"cls_w": dw, "cls_b": dlogits.sum(axis=0)})


def pred_loss(
    h: np.ndarray,
    targets_onehot: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    pool_k: int = 1,
    weight: float = 1.0,
    add_to=None,
) -> LocalLossResult:
    """The pred part: the local classifier on one-hot labels, its error
    sent down through w (see _classifier_loss)."""
    return _classifier_loss(h, targets_onehot, w, b, w, nm.cross_entropy_logits, pool_k, weight, add_to)


def binarized_targets(proj: np.ndarray, targets_onehot: np.ndarray, dtype) -> np.ndarray:
    """Sign-binarised random label projection: t = 1[P y > 0], rows per example."""
    return ((proj @ targets_onehot.T) > 0).T.astype(dtype)


def pred_bpf_loss(
    h: np.ndarray,
    bin_targets: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    feedback: np.ndarray,
    pool_k: int = 1,
    weight: float = 1.0,
    add_to=None,
) -> LocalLossResult:
    """The pred-bpf part: the local classifier on binarised projected
    labels, its error sent down through feedback, B, in w's place (see
    _classifier_loss)."""
    if feedback.shape != w.shape:
        raise ShapeError(f"feedback shape {feedback.shape} must match classifier {w.shape}")
    return _classifier_loss(h, bin_targets, w, b, feedback, nm.bce_logits, pool_k, weight, add_to)


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------


def combine(pred_res: LocalLossResult, sim_res: LocalLossResult, beta: float) -> LocalLossResult:
    """Convex combination (1-beta)*pred + beta*sim of two parts whose
    gradients already carry their weights (each loss took its own as
    weight=), so that only the scalar losses are mixed here.

    The result is exactly the gradient of the combined scalar. The two heads
    stay independent: neither receives a contribution from the other's loss,
    so their gradients are merged as they are. The result takes over
    sim_res.dh. local_block_loss has the pred part add its dh into it
    (add_to=), which leaves nothing to add here; a pred part with a dh of
    its own is added into sim_res.dh in place, and pred_res is left as it is.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    dh = sim_res.dh
    if pred_res.dh is not dh:
        dh += pred_res.dh
    loss = (1.0 - beta) * pred_res.loss + beta * sim_res.loss
    return LocalLossResult(loss, dh, {**pred_res.grads, **sim_res.grads})


def local_block_loss(block, h: np.ndarray, targets_onehot: np.ndarray, beta: float) -> LocalLossResult:
    """The local error signal of one hidden block, whose output is h: the
    pred and sim parts its spec names, run on its head tensors and mixed by
    beta when it has both.

    Each part takes its weight, 1 - beta and beta, into its own smallest
    gradient; a block with one part weighs it by 1. The sim part runs
    first, and the pred part adds its gradient into the sim one (add_to=):
    no full-size pred gradient is made only to be added, and the sim
    gradient, not a pred one, lives through the lighter pred part.
    """
    spec = block.spec
    if not (spec.pred or spec.sim):
        raise ConfigError("the block has no local-loss part")
    wp, ws = (1.0 - beta, beta) if spec.pred and spec.sim else (1.0, 1.0)
    pred = sim = None
    if spec.sim == "head":
        sim = sim_loss(h, targets_onehot, block.sim_w, block.sim_b, weight=ws)
    elif spec.sim == "bpf":
        sim = sim_bpf_loss(h, block.proj @ targets_onehot.T, weight=ws)
    add_to = None if sim is None else sim.dh
    if spec.pred == "ce":
        pred = pred_loss(h, targets_onehot, block.cls_w, block.cls_b, spec.pool_k, weight=wp, add_to=add_to)
    elif spec.pred == "bpf":
        t = binarized_targets(block.proj, targets_onehot, h.dtype)
        pred = pred_bpf_loss(h, t, block.cls_w, block.cls_b, block.feedback, spec.pool_k, weight=wp, add_to=add_to)
    if pred is None or sim is None:
        return sim if pred is None else pred
    return combine(pred, sim, beta)
