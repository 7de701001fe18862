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
from .errors import ConfigError, DataError, InputError, NonFiniteError, ShapeError


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults, which every run trains with


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one parameter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, p: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(p), np.zeros_like(p))


# ROW_BLOCK passes in one block of a.T @ g that adam_step makes at once: 1 MiB
# of float32 gradient. Measured on a 2-core Xeon (OpenBLAS, 2 threads) at
# (n, fan_in, units) = (128, 1024, 1024), (128, 784, 1024), (32, 8192, 256)
# and (512, 1024, 1024), against the whole product followed by the update:
# one pass per block (256 KiB) was 6-17% slower, four were within 3%.
# Eight raise mlp3x1024's step peak from 3.43 to 4.03 MiB.
ADAM_PRODUCT_PASSES = 4


@dataclass(frozen=True)
class ProductGrad:
    """A dense weight gradient held as its two factors: it stands for
    a.T @ g, which adam_step makes a block of rows at a time, so the whole
    gradient never exists."""

    a: np.ndarray  # (n, fan_in): the dense layer's input
    g: np.ndarray  # (n, units): the gradient at its output

    def __post_init__(self):
        if self.a.ndim != 2 or self.g.ndim != 2 or len(self.a) != len(self.g):
            raise ShapeError(f"a gradient product needs (n, i) and (n, o) factors, got {self.a.shape} and {self.g.shape}")

    @property
    def shape(self) -> tuple:
        return (self.a.shape[1], self.g.shape[1])

    def whole(self) -> np.ndarray:
        """The gradient as one array, a.T @ g, the bytes its row blocks hold."""
        return self.a.T @ self.g


def adam_step(param: np.ndarray, grad, state: AdamState, lr: float) -> None:
    """One Adam update, in place on both param and state, with
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS. grad is an array
    of param's shape or a ProductGrad.

    m += (1-beta1)(g-m); v += (1-beta2)(g*g-v);
    param -= alpha * m / (sqrt(v) + eps_hat), with the bias corrections
    folded into the two scalars (Kingma & Ba, arXiv:1412.6980, section 2):
    alpha = lr * sqrt(1-beta2^t) / (1-beta1^t), eps_hat = eps * sqrt(1-beta2^t).
    That is lr * mhat / (sqrt(vhat) + eps) for the bias-corrected mhat and
    vhat, with no pass spent on either.

    The gradient is taken a block of ADAM_PRODUCT_PASSES row passes at a
    time: a ProductGrad's block is made by one GEMM into a block-sized
    buffer of param's dtype, an array's is a view. Each block is checked for a non-finite
    value before it is applied, so a NonFiniteError in the first block
    leaves param and state as they were; one in a later block leaves the
    blocks before it applied, as update_params leaves the parameters before
    the bad one. Within a block the ops run a pass of leading-axis rows
    (about numerics.ROW_BLOCK elements) at a time, in two scratch buffers,
    or in one and the made block once g*g has read it, so every byte is
    the one a whole-tensor evaluation of a.T @ g and the update gives,
    while the passes run over blocks that stay in cache.
    """
    if grad.shape != param.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match param {param.shape}")
    product = isinstance(grad, ProductGrad)
    n = len(param)
    rows = max(1, nm.ROW_BLOCK // max(1, param[0].size))  # rows of one pass
    # rows of one checked block. numpy makes a product of one row or one
    # column by gemv, not gemm, and gemv's bytes depend on where the block
    # starts: a one-column product is made whole, and no block is one row
    span = n if product and param.shape[1] == 1 else ADAM_PRODUCT_PASSES * rows
    scratch = np.empty((1 if product else 2, min(rows, n)) + param.shape[1:], dtype=param.dtype)
    if product:
        made = np.empty((min(span, n),) + param.shape[1:], dtype=param.dtype)
    ends = list(range(span, n, span)) + [n]
    if len(ends) > 1 and ends[-1] - ends[-2] == 1:
        ends[-2] -= 1
    for i, j in zip([0] + ends[:-1], ends):
        block = np.matmul(grad.a[:, i:j].T, grad.g, out=made[: j - i]) if product else grad[i:j]
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):  # a NaN reaches both, an inf one
            raise NonFiniteError("non-finite gradient reached the optimizer")
        if i == 0:  # nothing has moved before the first block passes
            state.t += 1
            root = math.sqrt(1.0 - ADAM_BETA2**state.t)
            alpha, eps_hat = lr * root / (1.0 - ADAM_BETA1**state.t), ADAM_EPS * root
        for r in range(i, j, rows):
            e = min(r + rows, j)
            p, g, m, v = param[r:e], block[r - i : e - i], state.m[r:e], state.v[r:e]
            s = scratch[0, : e - r]
            d = g if product else scratch[1, : e - r]  # a made block is not read past g*g
            np.subtract(g, m, out=s)
            s *= 1.0 - ADAM_BETA1
            m += s
            np.multiply(g, g, out=s)
            s -= v
            s *= 1.0 - ADAM_BETA2
            v += s
            np.sqrt(v, out=d)
            d += eps_hat
            np.multiply(m, alpha, out=s)
            s /= d
            p -= s


# ---------------------------------------------------------------------------
# block definition / init
# ---------------------------------------------------------------------------

# The most elements one weight may hold: numpy refuses an array of more bytes
# than np.intp counts, and every weight is drawn in float64 before its cast.
MAX_WEIGHT_ELEMENTS = np.iinfo(np.intp).max // 8


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
    rebuild_xhat: bool = False  # the cache keeps no xhat; block_backward rebuilds it from the input
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
            if self.pred:  # the classifier's average pool (pool_k)
                _, h, w = self.in_shape
                if h != w:
                    raise ConfigError(f"conv classifier head needs square activations, got {h}x{w}")
        if self.pred_target_dim < 1:  # as TrainConfig, whatever the block reads
            raise ConfigError(f"pred_target_dim must be >= 1, got {self.pred_target_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.slope <= 1.0:
            raise ConfigError(f"leaky relu slope must be in [0, 1], got {self.slope}")
        if self.pred not in (None, "ce", "bpf") or self.sim not in (None, "head", "bpf"):
            raise ConfigError(f"unknown local-loss part: pred {self.pred!r}, sim {self.sim!r}")
        if "bpf" in (self.pred, self.sim) and self.projection < 1:
            raise ConfigError(f"a bpf part needs projection >= 1, got {self.projection}")
        if (self.pred or self.sim == "bpf") and self.classes < 2:  # the parts that read the labels' width
            raise ConfigError(f"a {self.pred or self.sim} part needs at least 2 classes, got {self.classes}")
        sizes = {"weight": self.fan_in * self.width}  # B is cls_w's shape
        if self.pred:
            sizes["cls_w"] = self.cls_in * (self.classes if self.pred == "ce" else self.projection)
        if self.sim == "head":
            sizes["sim_w"] = self.width**2 * (1 if self.kind == "dense" else self.kernel**2)
        if "bpf" in (self.pred, self.sim):
            sizes["proj"] = self.projection * self.classes
        for name, size in sizes.items():
            if size > MAX_WEIGHT_ELEMENTS:
                raise ConfigError(f"a {name} of {size} elements is more than numpy can hold")

    @property
    def fan_in(self) -> int:
        if self.kind == "dense":
            return math.prod(self.in_shape)
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

    @property
    def pool_k(self) -> int:
        """Kernel of the average pool in front of a conv block's classifier:
        the largest k dividing the output's extent that leaves at least
        pred_target_dim inputs, 1 when none does, and for a dense block or
        one with no pred part."""
        if self.kind == "dense" or not self.pred:
            return 1
        c, side, _ = self.out_shape
        fits = (k for k in range(2, side + 1) if side % k == 0 and c * (side // k) ** 2 >= self.pred_target_dim)
        return max(fits, default=1)

    @property
    def cls_in(self) -> int:
        """Input width of the pred part's classifier: the block's output,
        pooled by pool_k and flattened."""
        return math.prod(self.out_shape) // self.pool_k**2


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
        block.cls_w = _uniform_fan_in(rng, (spec.cls_in, targets), spec.cls_in, dtype)
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


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


@dataclass
class BlockCache:
    """Everything the paired backward pass needs from one forward.
    block_backward sets xhat and the two masks to None once it has read
    them. A block whose spec has rebuild_xhat keeps no xhat (None from the
    forward on): its backward rebuilds it from x, the weight and bias and
    the batch mean and inv_std, so the cache holds no float array of the
    output's size."""

    x: np.ndarray  # affine input (dense: already flattened)
    x_shape: tuple  # original input shape, for reshaping dx
    xhat: Optional[np.ndarray]  # the normalised pre-activation
    inv_std: np.ndarray
    positive: Optional[np.ndarray]  # packed sign of the leaky relu input (numerics.leaky_relu)
    mask: Optional[np.ndarray]  # packed dropout mask, None without dropout
    stats: tuple  # the batch (mean, var), for LayerBlock.fold_stats


def _affine(block: LayerBlock, x2: np.ndarray) -> np.ndarray:
    """The block's pre-activation: its weight applied to x2 (dense: already
    flattened), plus its bias."""
    if block.spec.kind == "dense":
        pre = nm.matmul(x2, block.weight)
        pre += block.bias
    else:
        pre = nm.conv2d(x2, block.weight)
        pre += block.bias[None, :, None, None]
    return pre


def _xhat(block: LayerBlock, cache: BlockCache) -> np.ndarray:
    """The cache's xhat, or, when it keeps none, the one batchnorm_train
    made in the forward, bit for bit, rebuilt by the forward's own ops:
    the affine map of x, minus the batch mean, times inv_std. Read it
    before an update moves the weight or the bias."""
    if cache.xhat is not None:
        return cache.xhat
    xhat = _affine(block, cache.x)
    shape = (1, block.spec.width) + (1,) * (xhat.ndim - 2)
    xhat -= cache.stats[0].reshape(shape)
    xhat *= cache.inv_std.reshape(shape)
    return xhat


def block_forward(block: LayerBlock, x: np.ndarray, train: bool, rng: Optional[np.random.Generator] = None):
    """Run one block; returns (out, cache). cache is None in eval mode.

    Train mode normalises with the batch statistics and hands them back in
    the cache; whoever updates the block folds them in (fold_stats). Neither
    mode touches the running stats, and eval mode consumes no randomness.
    """
    spec = block.spec
    x2 = x
    if spec.kind == "dense":
        x2 = x.reshape(x.shape[0], -1)
        if x2.shape[1] != spec.fan_in:
            raise ShapeError(f"block expects {spec.fan_in} features, got {x2.shape[1]}")
    pre = _affine(block, x2)

    # nothing reads pre after batchnorm, nor bn_out after the leaky relu (its
    # backward reads the sign mask), nor act after dropout, so each of them
    # is written over by the next kernel
    if not train:
        act = nm.batchnorm_eval(pre, block.gamma, block.beta, block.run_mean, block.run_var, out=pre)
        return nm.leaky_relu(act, spec.slope, out=act), None
    bn_out, xhat, inv_std, mean, var = nm.batchnorm_train(pre, block.gamma, block.beta, out=pre)
    del pre
    if spec.rebuild_xhat:  # block_backward rebuilds it
        xhat = None
    act, positive = nm.leaky_relu(bn_out, spec.slope, out=bn_out, need_sign=True)

    mask = None
    if spec.dropout > 0.0:
        if rng is None:
            raise ConfigError("dropout needs an rng in train mode")
        act, mask = nm.dropout(act, spec.dropout, rng, out=act)
    return act, BlockCache(x2, x.shape, xhat, inv_std, positive, mask, (mean, var))


def block_output(block: LayerBlock, cache: BlockCache) -> np.ndarray:
    """block_forward's train-mode output for cache, bit for bit, by its own
    ops from xhat (rebuilt when the cache keeps none) and the masks: call
    it before block_backward takes them over and before an update moves
    the block's parameters."""
    xhat = _xhat(block, cache)
    shape = (1, block.spec.width) + (1,) * (xhat.ndim - 2)
    out = np.multiply(block.gamma.reshape(shape), xhat)
    out += block.beta.reshape(shape)
    out = nm.leaky_relu(out, block.spec.slope, out=out)
    if cache.mask is not None:  # the dropout backward scales by the mask as dropout does
        out = nm.dropout_backward(out, cache.mask, block.spec.dropout, out=out)
    return out


def block_backward(block: LayerBlock, cache: BlockCache, d_out: np.ndarray, need_dx: bool = True):
    """Backward through one block; returns (grads dict, dx).

    The block takes over d_out: the dropout, leaky relu and batchnorm
    backwards write their gradients into it, and a same-channel conv its
    dx, so a caller that reads d_out afterwards must pass a copy. It takes
    over the cache too: the dropout mask, the sign mask and xhat are set to
    None right after the kernel that reads each, so none of them lives
    through the weight gradient's GEMM, and a cache goes through one
    backward only (a second raises
    InputError). A cache that keeps no xhat (LayerSpec.rebuild_xhat) has
    it rebuilt, bit for bit, once the masks are dead, so the grads and dx
    are the bytes a cache that kept it gives; the weight and bias must not
    have moved since the forward. dx comes back in the shape the block was
    fed, so it can cross a flatten boundary on the way down in the global
    modes. With need_dx=False it is not computed and
    comes back None: the weight gradients are the same bytes either way.
    A dense block's weight gradient comes back as ProductGrad(x, g), the
    cache's input and the gradient at the affine output, which adam_step
    makes a block of rows at a time; its dx, g @ W.T, is made here, before
    any update moves W.
    """
    spec = block.spec
    if cache.positive is None:
        raise InputError("a block cache goes through one backward only")
    g = d_out
    if cache.mask is not None:
        g = nm.dropout_backward(g, cache.mask, spec.dropout, out=g)
        cache.mask = None
    g = nm.leaky_relu_backward(cache.positive, g, spec.slope, out=g)
    cache.positive = None
    xhat, cache.xhat = _xhat(block, cache), None
    g, dgamma, dbeta = nm.batchnorm_backward(g, block.gamma, xhat, cache.inv_std, out=g)
    xhat = None
    dx = None
    if spec.kind == "dense":
        if need_dx:  # before any update moves the weight
            dx = nm.matmul(g, block.weight.T).reshape(cache.x_shape)
        dw = ProductGrad(cache.x, g)
        db = g.sum(axis=0)
    else:
        db = g.sum(axis=(0, 2, 3))  # before a same-channel conv's dx takes over g
        if need_dx:
            dx, dw = nm.conv2d_backward(cache.x, block.weight, g)
        else:
            dw = nm.conv2d_weight_grad(cache.x, block.weight, g)
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
