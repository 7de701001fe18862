"""Trainable blocks, their optimizer state, and checkpoint serialization.

A hidden block is affine (dense or conv) -> batchnorm -> leaky relu ->
dropout, plus the heads of the local-loss parts its spec names, its loss
mode's row (losses.MODE_TABLE): a pred part's linear classifier (cls), a
sim "head" part's similarity head (sim), a "bpf" pred part's fixed random
feedback matrix B for feedback alignment, and any "bpf" part's fixed random
label projection P. B and P are drawn once at init and never updated;
everything else has Adam state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DataError, NonFiniteError, ShapeError
from .losses import choose_pool_kernel


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one parameter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, p: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(p), np.zeros_like(p))


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update, in place on both param and state.

    m += (1-beta1)(g-m); v += (1-beta2)(g*g-v);
    param -= alpha * m / (sqrt(v) + eps_hat), with the bias corrections
    folded into the two scalars (Kingma & Ba, arXiv:1412.6980, section 2):
    alpha = lr * sqrt(1-beta2^t) / (1-beta1^t), eps_hat = eps * sqrt(1-beta2^t).
    That is lr * mhat / (sqrt(vhat) + eps) for the bias-corrected mhat and
    vhat, with no pass spent on either. Worked op for op in two
    scratch buffers, a block of leading-axis rows (about numerics.ROW_BLOCK
    elements) at a time, so every byte is the one a whole-tensor evaluation
    gives, while its passes run over blocks that stay in cache instead of
    streaming whole multi-MiB tensors from memory a dozen times.
    """
    if grad.shape != param.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match param {param.shape}")
    if not (np.isfinite(grad.min()) and np.isfinite(grad.max())):  # a NaN reaches both, an inf one
        raise NonFiniteError("non-finite gradient reached the optimizer")
    state.t += 1
    root = math.sqrt(1.0 - beta2**state.t)
    alpha, eps_hat = lr * root / (1.0 - beta1**state.t), eps * root
    for rows, s, d in nm._row_blocks(param, param.dtype, param.dtype):
        p, g, m, v = (a[rows] for a in (param, grad, state.m, state.v))
        np.subtract(g, m, out=s)
        s *= 1.0 - beta1
        m += s
        np.multiply(g, g, out=s)
        s -= v
        s *= 1.0 - beta2
        v += s
        np.sqrt(v, out=d)
        d += eps_hat
        np.multiply(m, alpha, out=s)
        s /= d
        p -= s


# ---------------------------------------------------------------------------
# block definition / init
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one hidden block and its local-loss parts.

    pred and sim are the parts of the mode's row (losses.MODE_TABLE), None
    for an absent one; init_params draws the heads they name, and
    losses.local_block_loss runs them. Frozen, so the spec a block runs with
    is the one __post_init__ checked.
    """

    # every conv block is 3x3, stride 1, pad 1, so it keeps its input's
    # extent; numerics.conv2d takes no stride or pad, and the benchmark's
    # flop count (perfbench/perlayer.py) reads stride and pad from here
    kernel: ClassVar[int] = 3
    stride: ClassVar[int] = 1
    pad: ClassVar[int] = 1

    kind: str  # "dense" | "conv"
    in_shape: tuple  # (d,) for dense, (c, h, w) for conv
    units: int = 0  # dense output width
    channels: int = 0  # conv output channels
    pool: bool = False  # a 2x2 max pool, which the trainer runs, follows the block (conv only)
    slope: float = 0.0
    dropout: float = 0.0
    pred: Optional[str] = None  # "ce": classifier on the labels; "bpf": on P's binarised labels, through B
    sim: Optional[str] = None  # "head": similarity through a trainable head; "bpf": against P's labels
    projection: int = 0  # rows of the fixed random label projection P, which a bpf part reads
    classes: int = 0  # columns of P, and the width of a ce classifier
    pred_target_dim: int = 1024  # pooled size the conv classifier input aims for

    def __post_init__(self):
        if self.kind not in ("dense", "conv"):
            raise ConfigError(f"unknown block kind {self.kind!r}")
        if self.kind == "dense" and self.units < 1:
            raise ConfigError("dense block needs units >= 1")
        if self.kind == "dense" and self.pool:
            raise ConfigError("a 2x2 pool follows only a conv block")
        if self.kind == "conv":
            if self.channels < 1:
                raise ConfigError("conv block needs channels >= 1")
            if len(self.in_shape) != 3:
                raise ConfigError(f"conv block needs a (c, h, w) input shape, got {self.in_shape}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.slope <= 1.0:
            raise ConfigError(f"leaky relu slope must be in [0, 1], got {self.slope}")
        if self.pred not in (None, "ce", "bpf") or self.sim not in (None, "head", "bpf"):
            raise ConfigError(f"unknown local-loss part: pred {self.pred!r}, sim {self.sim!r}")
        if "bpf" in (self.pred, self.sim) and self.projection < 1:
            raise ConfigError(f"a bpf part needs projection >= 1, got {self.projection}")

    @property
    def fan_in(self) -> int:
        if self.kind == "dense":
            return int(np.prod(self.in_shape))
        return self.in_shape[0] * self.kernel * self.kernel

    @property
    def out_shape(self) -> tuple:
        if self.kind == "dense":
            return (self.units,)
        return (self.channels, *self.in_shape[1:])

    @property
    def width(self) -> int:
        """Feature count the batchnorm/bias act on."""
        return self.units if self.kind == "dense" else self.channels


@dataclass
class LayerBlock:
    """One hidden block's parameters and optimizer state."""

    spec: LayerSpec
    weight: np.ndarray
    bias: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray
    cls_w: Optional[np.ndarray] = None
    cls_b: Optional[np.ndarray] = None
    sim_w: Optional[np.ndarray] = None
    sim_b: Optional[np.ndarray] = None
    feedback: Optional[np.ndarray] = None  # fixed, no Adam state
    proj: Optional[np.ndarray] = None  # fixed, no Adam state
    pool_k: int = 1
    adam: dict = field(default_factory=dict)

    def fold_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's mean and population variance into the running
        batchnorm stats (momentum 0.1)."""
        momentum = mean.dtype.type(0.1)
        self.run_mean += momentum * (mean - self.run_mean)
        self.run_var += momentum * (var - self.run_var)

    def param_names(self):
        """Trainable parameters, in a stable order."""
        names = ["weight", "bias", "gamma", "beta"]
        for extra in ("cls_w", "cls_b", "sim_w", "sim_b"):
            if getattr(self, extra) is not None:
                names.append(extra)
        return names


def _uniform_fan_in(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(spec: LayerSpec, rng: np.random.Generator, dtype=np.float32) -> LayerBlock:
    """Materialise a block: fan-in uniform weights, zero biases, unit
    batchnorm scale; the heads of the spec's pred and sim parts. Draw order
    is fixed so equal seeds give bit-identical blocks."""
    if spec.kind == "dense":
        w = _uniform_fan_in(rng, (spec.fan_in, spec.units), spec.fan_in, dtype)
    else:
        c_in = spec.in_shape[0]
        w = _uniform_fan_in(rng, (spec.channels, c_in, spec.kernel, spec.kernel), spec.fan_in, dtype)
    width = spec.width
    block = LayerBlock(
        spec=spec,
        weight=w,
        bias=np.zeros(width, dtype=dtype),
        gamma=np.ones(width, dtype=dtype),
        beta=np.zeros(width, dtype=dtype),
        run_mean=np.zeros(width, dtype=dtype),
        run_var=np.ones(width, dtype=dtype),
    )

    if spec.pred:
        targets = spec.classes if spec.pred == "ce" else spec.projection
        cls_in = _classifier_input_dim(spec, block)
        block.cls_w = _uniform_fan_in(rng, (cls_in, targets), cls_in, dtype)
        block.cls_b = np.zeros(targets, dtype=dtype)
    if spec.sim == "head":
        if spec.kind == "dense":
            block.sim_w = _uniform_fan_in(rng, (spec.units, spec.units), spec.units, dtype)
            block.sim_b = np.zeros(spec.units, dtype=dtype)
        else:
            c = spec.channels
            block.sim_w = _uniform_fan_in(rng, (c, c, 3, 3), c * 9, dtype)
    if spec.pred == "bpf":
        sd = 1.0 / np.sqrt(spec.projection)
        block.feedback = (rng.normal(0.0, 1.0, size=block.cls_w.shape) * sd).astype(dtype)
    if "bpf" in (spec.pred, spec.sim):
        sd = 1.0 / np.sqrt(spec.classes)
        block.proj = (rng.normal(0.0, 1.0, size=(spec.projection, spec.classes)) * sd).astype(dtype)

    block.adam = {name: AdamState.for_param(getattr(block, name)) for name in block.param_names()}
    return block


def _classifier_input_dim(spec: LayerSpec, block: LayerBlock) -> int:
    if spec.kind == "dense":
        return spec.units
    c, ho, wo = spec.out_shape
    if ho != wo:
        raise ConfigError(f"conv classifier head needs square activations, got {ho}x{wo}")
    block.pool_k = choose_pool_kernel(c, ho, spec.pred_target_dim)
    return c * (ho // block.pool_k) ** 2


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


@dataclass
class BlockCache:
    """Everything the paired backward pass needs from one forward.
    block_backward sets xhat and the two masks to None once it has read
    them."""

    x: np.ndarray  # affine input (dense: already flattened)
    x_shape: tuple  # original input shape, for reshaping dx
    xhat: Optional[np.ndarray]
    inv_std: np.ndarray
    positive: Optional[np.ndarray]  # packed sign of the leaky relu input (numerics.leaky_relu)
    mask: Optional[np.ndarray]  # packed dropout mask, None without dropout
    stats: tuple  # the batch (mean, var), for LayerBlock.fold_stats


def block_forward(block: LayerBlock, x: np.ndarray, train: bool, rng: Optional[np.random.Generator] = None):
    """Run one block; returns (out, cache). cache is None in eval mode.

    Train mode normalises with the batch statistics and hands them back in
    the cache; whoever updates the block folds them in (fold_stats). Neither
    mode touches the running stats, and eval mode consumes no randomness.
    """
    spec = block.spec
    x_shape = x.shape
    if spec.kind == "dense":
        x2 = x.reshape(x.shape[0], -1)
        if x2.shape[1] != spec.fan_in:
            raise ShapeError(f"block expects {spec.fan_in} features, got {x2.shape[1]}")
        pre = nm.matmul(x2, block.weight)
        pre += block.bias
    else:
        x2 = x
        pre = nm.conv2d(x, block.weight)
        pre += block.bias[None, :, None, None]

    # nothing reads pre after batchnorm, nor bn_out after the leaky relu (its
    # backward reads the sign mask), nor act after dropout, so each of them
    # is written over by the next kernel
    if not train:
        act = nm.batchnorm_eval(pre, block.gamma, block.beta, block.run_mean, block.run_var, out=pre)
        return nm.leaky_relu(act, spec.slope, out=act), None
    bn_out, xhat, inv_std, mean, var = nm.batchnorm_train(pre, block.gamma, block.beta, out=pre)
    del pre
    act, positive = nm.leaky_relu(bn_out, spec.slope, out=bn_out, need_sign=True)

    mask = None
    if spec.dropout > 0.0:
        if rng is None:
            raise ConfigError("dropout needs an rng in train mode")
        act, mask = nm.dropout(act, spec.dropout, rng, out=act)
    return act, BlockCache(x2, x_shape, xhat, inv_std, positive, mask, (mean, var))


def block_backward(block: LayerBlock, cache: BlockCache, d_out: np.ndarray, need_dx: bool = True):
    """Backward through one block; returns (grads dict, dx).

    The block takes over d_out: the dropout, leaky relu and batchnorm
    backwards write their gradients into it, so a caller that reads d_out
    afterwards must pass a copy. It takes over the cache too: the dropout
    mask, the sign mask and xhat are set to None right after the kernel
    that reads each, so none of them lives through the weight gradient's
    GEMM, and a cache goes through one backward only. dx comes back in the
    shape the block was fed, so it can cross a flatten boundary on the way
    down in the global modes. With need_dx=False it is not computed and
    comes back None: the weight gradients are the same bytes either way.
    """
    spec = block.spec
    g = d_out
    if cache.mask is not None:
        g = nm.dropout_backward(g, cache.mask, spec.dropout, out=g)
        cache.mask = None
    g = nm.leaky_relu_backward(cache.positive, g, spec.slope, out=g)
    cache.positive = None
    g, dgamma, dbeta = nm.batchnorm_backward(g, block.gamma, cache.xhat, cache.inv_std, out=g)
    cache.xhat = None
    dx = None
    if spec.kind == "dense":
        if need_dx:
            dx2, dw = nm.matmul_backward(cache.x, block.weight, g)
            dx = dx2.reshape(cache.x_shape)
        else:
            dw = cache.x.T @ g
        db = g.sum(axis=0)
    else:
        if need_dx:
            dx, dw = nm.conv2d_backward(cache.x, block.weight, g)
        else:
            dw = nm.conv2d_weight_grad(cache.x, block.weight, g)
        db = g.sum(axis=(0, 2, 3))
    return {"weight": dw, "bias": db, "gamma": dgamma, "beta": dbeta}, dx


def block_local_backward(block: LayerBlock, cache: BlockCache, d_out: np.ndarray) -> dict:
    """Backward for locally trained blocks: the weight gradients alone,
    because nothing upstream ever reads the input gradient. Takes over d_out
    and the cache as block_backward does."""
    return block_backward(block, cache, d_out, need_dx=False)[0]


def update_params(owner, grads: dict, lr: float) -> None:
    """Adam-update every named gradient against the owner's matching
    parameter and state; works for blocks and the output layer alike."""
    for name, g in grads.items():
        try:
            adam_step(getattr(owner, name), g, owner.adam[name], lr)
        except NonFiniteError as e:
            raise NonFiniteError(f"{e} (parameter {name!r})") from None


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"LLRN"
CKPT_VERSION = 1


def save_checkpoint(path, tensors: dict, block_count: int) -> None:
    """Write named float32 tensors to a flat little-endian binary file.

    Layout: magic "LLRN", version u32, block count u32, then per tensor:
    name length u32, utf-8 name, rank u32, extents u64 each, row-major
    float32 payload. Rank 0 is legal (single scalar, no extents).
    """
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, block_count))
        for name, arr in tensors.items():
            # asarray, not ascontiguousarray: the latter promotes rank 0 to rank 1
            a = np.asarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            f.write(struct.pack(f"<{a.ndim}Q", *a.shape) if a.ndim else b"")
            f.write(a.tobytes())


def load_checkpoint(path):
    """Read a checkpoint back; returns (tensors dict, block_count).

    Bad magic, truncation mid-record, absurd field values, a name that is
    not utf-8 or one that repeats raise DataError with the failing offset.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e

    def take(n, what):
        nonlocal off
        if off + n > len(buf):
            raise DataError(f"checkpoint truncated at byte {off} while reading {what}")
        out = buf[off : off + n]
        off += n
        return out

    off = 0
    if take(4, "magic") != CKPT_MAGIC:
        raise DataError(f"bad checkpoint magic at byte 0 in {path}")
    version, block_count = struct.unpack("<II", take(8, "header"))
    if version != CKPT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    tensors = {}
    while off < len(buf):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        if name_len > 4096:
            raise DataError(f"implausible name length {name_len} at byte {off - 4}")
        name_at = off
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"tensor name at byte {name_at} is not utf-8") from None
        if name in tensors:
            raise DataError(f"tensor {name!r} at byte {name_at} repeats an earlier name")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        if rank > 8:
            raise DataError(f"implausible rank {rank} for {name!r}")
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents")) if rank else ()
        count = math.prod(shape)  # Python ints: an int64 product can wrap round
        if 4 * count > len(buf) - off:
            raise DataError(f"checkpoint truncated at byte {off}: {name!r} needs {4 * count} payload bytes")
        data = np.frombuffer(take(4 * count, f"payload of {name!r}"), dtype="<f4")
        tensors[name] = data.reshape(shape).copy()
    return tensors, block_count
