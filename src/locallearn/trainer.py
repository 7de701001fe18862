"""The training engine: architecture parsing, the training step's one
sweep, the epoch loop, and checkpoint/metrics plumbing.

A run is described once, by a TrainConfig. A network is described once
too: parse_arch(cfg, input_shape, classes) reads cfg.arch into each hidden
block's complete LayerSpec, with the fields the loss mode and the run set,
and build_network initialises what it returns: the net train(cfg, ...)
starts from. TrainConfig.validate_for runs the same parse, so a spec the
data cannot run fails before a run writes anything.

The point of the local modes is the shape of the step: activations flow
forward once through the blocks (a conv block may end in a 2x2 pool), and
every hidden block computes its own loss, backpropagates one layer deep,
updates immediately, and drops its cache before the next block runs (more
than one live cache would be a bug). In predsim and sim, the conv blocks
with the largest output keep no xhat in their cache either: the backward
rebuilds it from the block's input a row block at a time
(LayerSpec.rebuild_xhat). A conv block with a sim head that pools pools
first and hands its output to the head, which writes its map, then dfeat
and dh over it and reads the output's rows back from the cache, so the
block holds one full-size float map through its loss and backward.
Global backprop is the same forward sweep, except that each block's
cache goes onto a trace for one backward pass at the end; there too the
widest conv blocks keep no xhat, so the trace holds none of their
full-size float arrays through the later blocks, and glob+sim hands each
conv block's output, recomputed from its cache, to its sim head. In
every mode one body runs a block's local loss, head update, backward and
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import numerics as nm
from . import rng as rngmod
from .data import AugmentConfig, Dataset, augment_batch
from .errors import ConfigError, DataError, NonFiniteError, ShapeError, require_ints, require_reals
from .layers import (
    MAX_WEIGHT_ELEMENTS,
    AdamState,
    LayerSpec,
    ProductGrad,
    block_backward,
    block_forward,
    block_local_backward,
    block_output,
    init_params,
    load_checkpoint,
    save_checkpoint,
    update_params,
)
from .losses import MODE_TABLE, MODES, local_block_loss

ARCH_PRESETS = {
    "vgg8b": "conv128-conv256-pool-conv256-conv512-pool-conv512-pool-conv512-pool-fc1024-fc",
    "vgg11b": "conv128-conv128-conv128-conv256-pool-conv256-conv512-pool-conv512-conv512-pool-conv512-pool-fc1024-fc",
    "mlp3x1024": "fc1024-fc1024-fc1024-fc",
}

LR_DROP_FRACTIONS = (0.50, 0.75, 0.89, 0.94)

# Version of the arithmetic a run's trained bytes follow, which manifest.txt
# records (a manifest without it is contract 1). 2: the conv weight gradient
# from the smaller lowering, Adam's bias correction folded into its step
# size, beta folded into each local loss part's smallest gradient, batchnorm's
# dgamma and the channel statistics summed in row blocks, and one dropout
# stream per hidden block. 3: each example's conv output (and a conv input
# gradient's rows) is one GEMM of that example's lowering, whatever other
# examples share its chunk.
CONTRACT = 3


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------


def _int_suffix(token: str, prefix: str) -> int:
    # int() alone also takes a sign, spaces, underscores and non-ASCII
    # digits, which would give one network many spellings
    digits = token[len(prefix) :]
    if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        raise ConfigError("the width must be a positive number in digits 0-9 with no leading zero")
    return int(digits)


def parse_arch(cfg: TrainConfig, input_shape, classes: int) -> tuple:
    """Each hidden block's complete LayerSpec, in forward order, and the
    output layer's fan-in, (specs, out_in_dim), for cfg.arch (a token string
    or preset name) on inputs of input_shape in classes classes.

    Tokens: convN (3x3, stride 1, pad 1, N times cfg.width_mult channels),
    pool (2x2 max, which joins the conv block before it), fcN (hidden dense),
    and a final fc or fcN output layer. A convN or fcN token appends its
    block's LayerSpec: its input shape is the one the tokens before it leave,
    and the rest comes from cfg: the loss mode's pred and sim parts (and the
    projection width a bpf part reads), the slope, the dropout and the
    pooling target. A pool token marks the block before it. So impossible
    networks fail here, not mid-epoch. LayerSpec rejects conv after a dense
    block, pool after one, a conv classifier on non-square activations, and
    a weight or head too large for numpy to hold. Pooling an odd extent, pool
    first or after pool, a non-fc final token and an output weight too large
    raise here too. A token's error names the token. In a global mode, and
    in a local mode with a sim head, each conv block whose output has the
    most elements of any hidden block gets rebuild_xhat: its cache keeps no
    xhat.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if len(input_shape) != 3 or min(input_shape) < 1:
        raise ConfigError(f"input shape must be (c, h, w) with positive extents, got {tuple(input_shape)}")
    row = MODE_TABLE[cfg.loss]
    shared = dict(  # every field of a block's spec but its shape
        slope=cfg.resolved_slope,
        dropout=cfg.dropout,
        pred_target_dim=cfg.pred_target_dim,
        classes=classes,
        pred=row.pred,
        sim=row.sim,
        projection=cfg.projection_dim if "bpf" in (row.pred, row.sim) else 0,
    )
    resolved = ARCH_PRESETS.get(cfg.arch, cfg.arch)
    tokens = resolved.split("-")
    shape = tuple(input_shape)
    blocks: list = []
    for i, tok in enumerate(tokens):
        try:
            if i == len(tokens) - 1:  # the output layer, whose fan-in is the last shape
                if not tok.startswith("fc"):
                    raise ConfigError("the final token must be a fc output layer")
                units = classes if tok == "fc" else _int_suffix(tok, "fc")
                if units != classes:
                    raise ConfigError(f"output width {units} does not match {classes} classes")
                size = math.prod(shape) * classes
                if size > MAX_WEIGHT_ELEMENTS:
                    raise ConfigError(f"an output weight of {size} elements is more than numpy can hold")
            elif tok == "pool":
                if not blocks:
                    raise ConfigError("pool cannot be the first layer")
                if blocks[-1].pool:
                    raise ConfigError("pool after a pool")
                blocks[-1] = replace(blocks[-1], pool=True)
                c, h, w = shape
                if h % 2 or w % 2:
                    raise ShapeError(f"pool needs even extents, got {h}x{w}")
                shape = (c, h // 2, w // 2)
            elif tok.startswith("conv"):
                blocks.append(LayerSpec("conv", shape, channels=_int_suffix(tok, "conv") * cfg.width_mult, **shared))
                shape = blocks[-1].out_shape  # 3x3 stride 1 pad 1 keeps the extent
            elif tok == "fc":
                raise ConfigError("bare fc denotes the output layer and must be last")
            elif tok.startswith("fc"):
                blocks.append(LayerSpec("dense", (math.prod(shape),), units=_int_suffix(tok, "fc"), **shared))
                shape = blocks[-1].out_shape
            else:
                raise ConfigError("unknown architecture token")
        except (ConfigError, ShapeError) as e:
            raise type(e)(f"token {i + 1} {tok!r} of {resolved!r}: {e}") from None
    if not row.local or row.sim == "head":
        # the conv blocks with the largest output keep no xhat, which their
        # backward rebuilds a RowMap block at a time, running the block's
        # trunk conv once in each of batchnorm_backward's two passes. A
        # local step with a sim head peaks there, and its head's GEMMs hide
        # the rebuild; a global step would hold that xhat through every
        # later block's forward and backward. Measured at batch 32, with
        # each pooled sim head writing over its block's output: glob 21.42
        # -> 13.96 MiB on the benchmark conv net (16.55 while the rebuild
        # was whole; step time 0.988 [0.969, 1.011] of that, paired A/B),
        # glob+sim 30.05 -> 19.34, 36.11 -> 25.31 at quarter-width vgg8b
        # and 153.80 -> 117.54 at full width. Rebuilding in every conv
        # block gave predsim the same peak at +9% step time at quarter
        # width. In pred and the bpf modes no sim head's GEMMs hide the
        # conv: a whole rebuild cut pred's benchmark-net peak 25.95 ->
        # 18.57 MiB for 5-10% of its step, and predsim-bpf's quarter-width
        # peak 29.58 -> 23.27 for 6-11%, so they keep xhat
        most = max(math.prod(b.out_shape) for b in blocks) if blocks else 0
        blocks = [replace(b, rebuild_xhat=b.kind == "conv" and math.prod(b.out_shape) == most) for b in blocks]
    return blocks, math.prod(shape)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Everything about a run: the net, the error signal that trains its
    hidden layers, and the protocol."""

    arch: str = "mlp3x1024"
    loss: str = "predsim"  # the loss mode, a row of losses.MODE_TABLE
    beta: Optional[float] = None  # None = the mode's default
    projection_dim: int = 128  # width of the fixed random label projection (bpf modes)
    epochs: int = 1
    lr: float = 5e-4
    batch_size: int = 128
    dropout: float = 0.0
    slope: Optional[float] = None  # None = 0.01 for sim-bearing modes, else 0
    seed: int = 0
    classes_per_batch: int = 0  # 0 = unrestricted; active until the first lr drop
    width_mult: int = 1
    pred_target_dim: int = 1024  # pooled input size for conv classifier heads
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.loss not in MODE_TABLE:
            raise ConfigError(f"unknown loss mode {self.loss!r}; valid: {', '.join(MODES)}")
        defaulted = {"beta": self.beta, "slope": self.slope}  # None = the mode's default
        require_reals(
            ConfigError, lr=self.lr, dropout=self.dropout, **{k: v for k, v in defaulted.items() if v is not None}
        )
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        row = MODE_TABLE[self.loss]
        if self.beta is not None and self.beta != row.beta and not (row.pred and row.sim):
            # beta weighs a pred part against a sim part; a mode without both never reads it
            raise ConfigError(
                f"loss mode {self.loss!r} does not mix pred and sim, so beta must stay {row.beta}, got {self.beta}"
            )
        require_ints(
            ConfigError,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
            width_mult=self.width_mult,
            projection_dim=self.projection_dim,
            pred_target_dim=self.pred_target_dim,
            classes_per_batch=self.classes_per_batch,
        )
        if self.projection_dim < 1:
            raise ConfigError(f"projection_dim must be >= 1, got {self.projection_dim}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):  # a nan lr is not <= 0 either
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(f"batch size must be >= 2 (batchnorm), got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.slope is not None and not 0.0 <= self.slope <= 1.0:
            raise ConfigError(f"leaky relu slope must be in [0, 1], got {self.slope}")
        if self.classes_per_batch < 0:
            raise ConfigError("classes_per_batch must be >= 0")
        if self.width_mult < 1:
            raise ConfigError(f"width multiplier must be >= 1, got {self.width_mult}")
        if self.pred_target_dim < 1:
            raise ConfigError("pred_target_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def validate_for(self, train_ds: Dataset) -> None:
        """The checks that need the data: parse_arch's whole block specs
        against its shape and classes, the augmentation against the image
        size, and the batch size against the train split. So a config
        build_network would reject fails here, before a run writes."""
        parse_arch(self, train_ds.images.shape[1:], train_ds.num_classes)
        self.augment.validate_for(train_ds.images.shape[1:])
        if self.batch_size > len(train_ds):
            raise ConfigError(f"batch size {self.batch_size} exceeds dataset size {len(train_ds)}")

    @property
    def resolved_beta(self) -> float:
        return MODE_TABLE[self.loss].beta if self.beta is None else self.beta

    @property
    def resolved_slope(self) -> float:
        if self.slope is not None:
            return self.slope
        return 0.01 if MODE_TABLE[self.loss].sim else 0.0


def lr_breakpoints(total_epochs: int):
    """0-based epochs at which the learning rate is quartered."""
    return [math.ceil(f * total_epochs) for f in LR_DROP_FRACTIONS]


def lr_at(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Piecewise-constant schedule: base times 0.25 per passed breakpoint.

    Powers of 0.25 scale the float exponent only, so the result is exact.
    """
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside 0..{total_epochs - 1}")
    drops = sum(epoch >= bp for bp in lr_breakpoints(total_epochs))
    return base_lr * 0.25**drops


# ---------------------------------------------------------------------------
# network assembly
# ---------------------------------------------------------------------------


@dataclass
class OutputLayer:
    weight: np.ndarray
    bias: np.ndarray
    adam: dict


@dataclass
class Network:
    mode: str
    beta: float
    blocks: list  # LayerBlock, forward order
    out: OutputLayer


def build_network(cfg: TrainConfig, input_shape, classes: int, dtype=np.float32) -> Network:
    """The net train(cfg, ...) starts from, for inputs of input_shape in
    classes classes: each block parse_arch specifies, initialised, then the
    output layer. Each weight layer draws from its own stream of cfg.seed,
    so nets with equal seeds match bit for bit regardless of mode-dependent
    head counts."""
    specs, out_in_dim = parse_arch(cfg, input_shape, classes)
    blocks = [init_params(spec, rngmod.make_rng(cfg.seed, rngmod.INIT, k), dtype) for k, spec in enumerate(specs)]

    orng = rngmod.make_rng(cfg.seed, rngmod.INIT, len(blocks))
    bound = float(np.sqrt(1.0 / out_in_dim))
    weight = orng.uniform(-bound, bound, size=(out_in_dim, classes)).astype(dtype)
    bias = np.zeros(classes, dtype=dtype)
    out = OutputLayer(weight, bias, {"weight": AdamState.for_param(weight), "bias": AdamState.for_param(bias)})
    return Network(cfg.loss, cfg.resolved_beta, blocks, out)


# ---------------------------------------------------------------------------
# single training step
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    """Per-layer losses (hidden blocks then the output cross-entropy) and
    the batch predictions; the gradients pass only through the update."""

    losses: list
    predictions: np.ndarray


class GradRecorder(list):
    """A train_step update that moves nothing: it keeps each owner's
    gradients, whole, by layer index, the output layer last. One per step."""

    def __call__(self, k, owner, grads, stats=None):
        self.extend({} for _ in range(k + 1 - len(self)))
        self[k] |= {name: g.whole() if isinstance(g, ProductGrad) else g for name, g in grads.items()}


def _output_forward(net: Network, a: np.ndarray):
    flat = a.reshape(a.shape[0], -1)
    return flat, nm.matmul(flat, net.out.weight) + net.out.bias


def dropout_rngs(seed: int, epoch: int, blocks: int) -> list:
    """One dropout generator per hidden block for one epoch, keyed by
    (seed, DROPOUT, epoch, block): a block's masks depend on no other
    block's width, nor on the order in which the blocks run."""
    return [rngmod.make_rng(seed, rngmod.DROPOUT, epoch, k) for k in range(blocks)]


def _train_block(net: Network, trace: list, targets_onehot: np.ndarray, update):
    """Local loss, head update, pool, backward and update of the block on
    top of the trace, in every mode; returns (local loss, what the next
    block in the sweep reads). It pops the block's entry, the only
    reference to its cache. In a local mode the entry holds the block's
    live output, which the loss reads and the block's 2x2 pool, if it has
    one, reduces: the next block's input, which comes back. In a global
    mode the loss reads the output recomputed from the cache, the pool
    backward reads the entry's gradient, and the gradient the block below
    reads comes back. Each buffer dies at its last reader: the head
    gradients at their update; the local dh once added into d; the masks
    and xhat inside the block's backward; the rest of the cache before the
    update, which gets the trunk's gradients and the batch stats.

    A conv sim head takes over an output that nothing after the loss reads:
    a local block's that pools, once pooled, and the output glob+sim
    recomputes. The pred part reads it first and keeps its gradient at the
    pooled map, the head writes its map over it, then dfeat and dh, and the
    head's weight gradient reads the output's rows made again from the
    cache (a RowMap of block_output), so the block holds one full-size
    float map through its loss and its backward. A local block that pools
    with no sim head pools after its update, so the pool does not run
    while the cache and dh are live."""
    k, cache, h, idx, d = trace.pop()
    block = net.blocks[k]
    spec = block.spec
    local = h is not None
    nxt = h  # the next block's input, in a local mode
    loss, dh = 0.0, None
    if spec.pred or spec.sim:
        rebuilt = None
        if not local:
            h = block_output(block, cache)
        if spec.sim == "head" and spec.kind == "conv" and (spec.pool or not local):
            if local:
                nxt, _ = nm.maxpool2x2(h, need_index=False)
            rebuilt = nm.RowMap(h.shape, h.dtype, lambda rows: block_output(block, cache, rows))
        res = local_block_loss(block, h, targets_onehot, net.beta, rebuilt)
        if nxt is not h:  # dh's buffer now, or dead
            h = rebuilt = None
        if not np.isfinite(res.loss):
            raise NonFiniteError(f"non-finite loss at layer {k} ({net.mode})")
        if res.grads:
            update(k, block, res.grads)
        loss, dh, res = res.loss, res.dh, None  # the head gradients die here
    if idx is not None:
        d = nm.maxpool2x2_backward(d, idx)
        idx = None  # dies here, before the block's backward
    if d is None:
        d = dh
    elif dh is not None:
        d += dh
    dh = None  # added into d, or d itself
    if local:
        grads, d = block_local_backward(block, cache, d), None
    else:
        grads, d = block_backward(block, cache, d, need_dx=k > 0)
    stats, cache = cache.stats, None  # the cache dies before the update
    update(k, block, grads, stats)
    if h is not None and spec.pool:  # a local output no sim head took over
        nxt, _ = nm.maxpool2x2(h, need_index=False)
    return loss, nxt if local else d


def train_step(net: Network, x: np.ndarray, targets_onehot: np.ndarray, lr: float, rngs, update=None) -> StepResult:
    """One optimisation step: a single forward sweep in which each block
    runs and pushes its cache onto a trace. Each block trains in
    _train_block: in a local mode at once, so its cache dies before the
    next block runs, and its 2x2 pool, if it has one, runs there: first
    in a conv block with a sim head, which then hands its full-size output
    to the head, and after the update in any other.
    In glob and glob+sim the pool runs in the sweep, and each block trains
    in the global backward, one reverse loop over the trace that the
    output layer's cross-entropy starts, where glob+sim adds each block's
    sim gradient with unit weight. Each owner hands its gradients to
    update(k, owner, grads, stats=None) once they exist, the output layer
    (k = len(net.blocks)) first in the global modes, a block's head
    gradients when its local loss returns and its trunk's with its batch
    (mean, var). By default Adam steps each parameter on its own at lr, so
    the order leaves the bytes as they are, and the stats fold in; a
    GradRecorder moves nothing. No gradient outlives its update, and no
    cache, block output or pool index outlives its last reader. No layer
    computes an input gradient that nothing reads: not a local block, not
    the first block, and not the output layer of a local mode. Block k
    draws its dropout masks from rngs[k] (see dropout_rngs). A non-finite
    lr, or targets not of shape (len(x), classes), fail before anything runs.
    """
    if len(rngs) != len(net.blocks):
        raise ConfigError(f"train_step takes a dropout generator per hidden block, {len(net.blocks)}, got {len(rngs)}")
    if not math.isfinite(lr):
        raise ConfigError(f"lr must be finite, got {lr}")
    want = (len(x), net.out.weight.shape[1])
    if targets_onehot.shape != want:
        raise ShapeError(f"targets of shape {targets_onehot.shape} for inputs of shape {x.shape}: want {want}")
    if update is None:
        def update(k, owner, grads, stats=None):
            try:
                update_params(owner, grads, lr)
            except NonFiniteError as e:
                where = "output layer" if owner is net.out else f"layer {k} ({net.mode})"
                raise NonFiniteError(f"{e} at {where}") from None
            if stats is not None:
                owner.fold_stats(*stats)

    local = MODE_TABLE[net.mode].local
    a = x
    losses = [0.0] * len(net.blocks)
    trace: list = []  # [block index, cache, live output (local modes), pool index, output gradient]
    for k, block in enumerate(net.blocks):
        a, cache = block_forward(block, a, train=True, rng=rngs[k])
        trace.append([k, cache, a if local else None, None, None])
        cache = None  # the trace holds the only reference
        if local:  # pushed and popped at once; the next block's input comes back, pooled if the block pools
            a = None  # the trace holds the only reference to the output too
            losses[k], a = _train_block(net, trace, targets_onehot, update)
        elif block.spec.pool:  # a is rebound, so the block's output dies with the pool
            a, trace[-1][3] = nm.maxpool2x2(a, need_index=True)

    flat, logits = _output_forward(net, a)
    out_loss, dlogits = nm.cross_entropy_logits(logits, targets_onehot)
    if not np.isfinite(out_loss):
        raise NonFiniteError("non-finite loss at output layer")
    if local:  # nothing reads the output layer's input gradient
        d, dw = None, flat.T @ dlogits  # matmul_backward's dw
    else:
        d, dw = nm.matmul_backward(flat, net.out.weight, dlogits)
        d = d.reshape(a.shape)
    update(len(net.blocks), net.out, {"weight": dw, "bias": dlogits.sum(axis=0)})
    for k in range(len(trace) - 1, -1, -1):  # empty in a local mode
        trace[-1][4], d = d, None  # handed over with the entry, which _train_block pops
        losses[k], d = _train_block(net, trace, targets_onehot, update)

    losses.append(out_loss)
    return StepResult(losses, logits.argmax(axis=1))


# ---------------------------------------------------------------------------
# sampling / evaluation / epoch loop
# ---------------------------------------------------------------------------


def sample_batches(labels: np.ndarray, batch_size: int, rng, classes_per_batch: int = 0):
    """Partition the epoch into batches of index arrays.

    With classes_per_batch > 0, each batch is drawn from at most that many
    randomly chosen classes (per-class pools are pre-shuffled and drained, so
    every example still appears exactly once per epoch). Batchnorm needs two
    examples, so a batch of one is folded into an earlier batch.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    require_ints(ConfigError, batch_size=batch_size, classes_per_batch=classes_per_batch)
    if batch_size < 2:
        raise ConfigError(f"batch size must be >= 2 (batchnorm), got {batch_size}")
    if batch_size > n:
        raise ConfigError(f"batch size {batch_size} exceeds dataset size {n}")
    if not classes_per_batch:
        perm = rng.permutation(n)
        return _fold_singletons([perm[i : i + batch_size] for i in range(0, n, batch_size)], labels)

    classes = np.unique(labels)
    queues = {int(c): list(rng.permutation(np.flatnonzero(labels == c))) for c in classes}
    batches = []
    while True:
        nonempty = np.array([c for c in queues if queues[c]])
        if nonempty.size == 0:
            break
        chosen = rng.choice(nonempty, size=min(classes_per_batch, nonempty.size), replace=False)
        tags = np.concatenate([np.full(len(queues[int(c)]), c) for c in chosen])
        rng.shuffle(tags)
        tags = tags[:batch_size]
        batch = []
        for c in chosen:
            m = int((tags == c).sum())
            if m:
                batch.extend(queues[int(c)][:m])
                del queues[int(c)][:m]
        batch = np.array(batch, dtype=np.int64)
        rng.shuffle(batch)
        batches.append(batch)
    return _fold_singletons(batches, labels)


def _fold_singletons(batches: list, labels: np.ndarray) -> list:
    """Append each one-example batch to the last earlier batch holding its
    class, so a class limit still holds where the split allows it, or to the
    batch right before it when none does. A leading one takes in the batch
    after it. A partition without one-example batches is returned as is."""
    out: list = []
    for b in batches:
        if out and len(out[-1]) == 1:
            out[-1] = np.concatenate([out[-1], b])
        elif out and len(b) == 1:
            last = len(out) - 1
            j = next((k for k in range(last, -1, -1) if labels[b[0]] in labels[out[k]]), last)
            out[j] = np.concatenate([out[j], b])
        else:
            out.append(b)
    return out


def forward_eval(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference logits: eval-mode blocks, no dropout, running batchnorm stats.
    Under np.errstate(over="raise", invalid="raise"), as evaluate runs it, an
    overflow or invalid value is a NonFiniteError naming its layer."""
    a = x
    try:
        for k, block in enumerate(net.blocks):
            where = f"layer {k}"
            a, _ = block_forward(block, a, train=False)
            if block.spec.pool:
                a, _ = nm.maxpool2x2(a, need_index=False)
        where = "output layer"
        _, logits = _output_forward(net, a)
    except FloatingPointError as e:
        raise NonFiniteError(f"{e} at {where}") from None
    return logits


def _check_split(net: Network, ds: Dataset) -> None:
    """A DataError naming the split unless the net can score it: its class
    count is the output layer's width, and the first layer takes its
    examples (a conv block their exact shape, a dense layer their size)."""
    classes = net.out.weight.shape[1]
    if ds.num_classes != classes:
        raise DataError(f"the {ds.name!r} split has {ds.num_classes} classes, the net's output layer {classes}")
    shape = ds.images.shape[1:]
    first = net.blocks[0].spec if net.blocks else None
    if first is not None and first.kind == "conv":
        fits, takes = shape == tuple(first.in_shape), f"{tuple(first.in_shape)} examples"
    else:
        fan_in = first.fan_in if first is not None else net.out.weight.shape[0]
        fits, takes = int(np.prod(shape)) == fan_in, f"{fan_in} features"
    if not fits:
        raise DataError(f"the {ds.name!r} split's examples are {shape}, the net's first layer takes {takes}")


def evaluate(net: Network, ds: Dataset, batch_size: int = 512) -> float:
    """Classification error fraction on a dataset.

    The split goes through forward_eval a slice at a time. batch_size is an
    upper bound on a slice's examples; a slice also holds no more of them
    than fit their widest activation (the input or any block's output) into
    numerics.COLS_BUDGET, at least one. The slice size bounds the memory
    the pass holds, and it can move the logits' low bits: the convs, pools
    and elementwise ops compute each example's bytes from that example
    alone, but a dense layer's GEMM, the output layer's included, may take
    another BLAS kernel for another number of rows. A value that overflows
    or turns invalid (a checkpoint holding huge weights) is a
    NonFiniteError naming the split and the layer, not a score. A split the
    net cannot score (_check_split) is a DataError naming it, before any
    slice runs.
    """
    require_ints(ConfigError, batch_size=batch_size)
    if batch_size < 1:
        raise ConfigError(f"eval batch size must be >= 1, got {batch_size}")
    if not len(ds):
        raise DataError(f"cannot evaluate on the empty split {ds.name!r}")
    _check_split(net, ds)
    shapes = [ds.images.shape[1:]] + [b.spec.out_shape for b in net.blocks]
    widest = max(int(np.prod(s)) for s in shapes) * ds.images.itemsize
    step = max(1, min(batch_size, nm.COLS_BUDGET // widest))
    wrong = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(0, len(ds), step):
                logits = forward_eval(net, ds.images[i : i + step])
                wrong += int((logits.argmax(axis=1) != ds.labels[i : i + step]).sum())
    except NonFiniteError as e:
        raise NonFiniteError(f"{e}, evaluating the {ds.name!r} split") from None
    return wrong / len(ds)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_error: float
    test_error: float
    layer_losses: list


def train(cfg: TrainConfig, train_ds: Dataset, test_ds: Optional[Dataset] = None):
    """Run the full protocol on build_network(cfg, ...)'s net; returns
    (net, history).

    Derived rng streams are keyed by (seed, purpose, epoch), dropout's by
    hidden block as well (dropout_rngs), so two calls with identical
    configs and data produce bit-identical parameters and metrics on the
    same numpy and BLAS build and thread count. Train error is counted on
    the step predictions (augmented batches, parameters moving); the train
    split passed as test_ds as well gives its eval-mode error. The
    class-per-batch restriction, when set, lifts at the first learning-rate
    drop. A test split the net cannot score (_check_split) is a DataError
    before the first step.
    """
    net = build_network(cfg, train_ds.images.shape[1:], train_ds.num_classes)
    history = train_network(net, cfg, train_ds, test_ds)
    return net, history


def train_network(net: Network, cfg: TrainConfig, train_ds: Dataset, test_ds: Optional[Dataset] = None):
    if test_ds is not None:
        _check_split(net, test_ds)
    first_drop = lr_breakpoints(cfg.epochs)[0]
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.epochs, cfg.lr)
        limit = cfg.classes_per_batch if epoch < first_drop else 0
        sampler_rng = rngmod.make_rng(cfg.seed, rngmod.SAMPLER, epoch)
        augment_rng = rngmod.make_rng(cfg.seed, rngmod.AUGMENT, epoch)
        rngs = dropout_rngs(cfg.seed, epoch, len(net.blocks))

        correct = 0
        seen = 0
        loss_sums = np.zeros(len(net.blocks) + 1)
        batches = sample_batches(train_ds.labels, cfg.batch_size, sampler_rng, limit)
        for step, idx in enumerate(batches):
            xb = augment_batch(train_ds.images[idx], cfg.augment, augment_rng)
            yb = nm.one_hot(train_ds.labels[idx], train_ds.num_classes, xb.dtype)
            try:
                result = train_step(net, xb, yb, lr, rngs)
            except NonFiniteError as e:
                raise NonFiniteError(f"{e}, epoch {epoch}, step {step}") from None
            correct += int((result.predictions == train_ds.labels[idx]).sum())
            seen += len(idx)
            loss_sums += result.losses

        train_error = 1.0 - correct / seen
        test_error = evaluate(net, test_ds) if test_ds is not None else float("nan")
        history.append(EpochStats(epoch, lr, train_error, test_error, list(loss_sums / len(batches))))
    return history


def metrics_csv(history) -> str:
    """Render epoch stats in the fixed CSV schema (stable bytes for stable
    runs; errors as 6-decimal fractions)."""
    k = len(history[0].layer_losses)
    lines = ["epoch,lr,train_error,test_error," + ",".join(f"loss_layer_{i}" for i in range(k))]
    for h in history:
        lines.append(
            f"{h.epoch},{h.lr:.8g},{h.train_error:.6f},{h.test_error:.6f},"
            + ",".join(f"{v:.6f}" for v in h.layer_losses)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------

_BLOCK_TENSORS = ("weight", "bias", "gamma", "beta", "run_mean", "run_var")
_HEAD_TENSORS = ("cls_w", "cls_b", "sim_w", "sim_b", "feedback", "proj")


def state_tensors(net: Network) -> dict:
    """Flat name -> array view of everything a run produced, including the
    fixed random matrices and a rank-0 slope per block (so a checkpoint alone
    can rebuild an inference net)."""
    out = {}
    for i, b in enumerate(net.blocks):
        prefix = f"block{i}."
        for name in _BLOCK_TENSORS:
            out[prefix + name] = getattr(b, name)
        out[prefix + "slope"] = np.float32(b.spec.slope)
        for name in _HEAD_TENSORS:
            value = getattr(b, name)
            if value is not None:
                out[prefix + name] = value
    out["out.weight"] = net.out.weight
    out["out.bias"] = net.out.bias
    return out


def save_network(net: Network, path) -> None:
    save_checkpoint(path, state_tensors(net), block_count=len(net.blocks) + 1)


def load_network_state(net: Network, path) -> None:
    """Load a checkpoint into a compatible net.

    Every tensor the net owns must be present with the right shape; tensors
    in the file the net does not own (another mode's heads) are ignored, so
    an inference net can consume any mode's checkpoint. A non-finite value,
    a negative running variance, or a slope that is not one number in
    [0, 1] is a DataError naming the tensor. Slope scalars are applied to
    the blocks. Every tensor and slope is checked before any is written,
    so a net that raises keeps what it held.
    """
    tensors, block_count = load_checkpoint(path)
    if block_count != len(net.blocks) + 1:
        raise DataError(f"checkpoint has {block_count} weight layers, net has {len(net.blocks) + 1}")
    wanted = {name: param for name, param in state_tensors(net).items() if not name.endswith(".slope")}
    for name, param in wanted.items():
        if name not in tensors:
            raise DataError(f"checkpoint is missing tensor {name!r}")
        src = tensors[name]
        if src.shape != param.shape:
            raise DataError(f"tensor {name!r} has shape {src.shape}, net expects {param.shape}")
        if not np.isfinite(src).all():
            raise DataError(f"tensor {name!r} holds a non-finite value")
        if name.endswith(".run_var") and (src < 0).any():
            raise DataError(f"tensor {name!r} holds a negative variance")
    specs = []
    for i, b in enumerate(net.blocks):
        name = f"block{i}.slope"
        value = tensors.get(name, np.float32(b.spec.slope))
        if value.shape != ():
            raise DataError(f"tensor {name!r} has shape {value.shape}, net expects ()")
        slope = float(value)
        if not 0.0 <= slope <= 1.0:  # a nan is not either
            raise DataError(f"tensor {name!r} holds slope {slope}, outside [0, 1]")
        specs.append(replace(b.spec, slope=slope))
    for name, param in wanted.items():
        param[...] = tensors[name].astype(param.dtype)
    for b, spec in zip(net.blocks, specs):
        b.spec = spec
