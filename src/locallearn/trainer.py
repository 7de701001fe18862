"""The training engine: architecture parsing, the training step's one
sweep, the epoch loop, and checkpoint/metrics plumbing.

A network is described once: parse_arch reads an architecture string into
its hidden blocks' LayerSpecs (shapes only), and build_network completes
each with the fields the loss mode and the run set, then initialises it.

The point of the local modes is the shape of the step: activations flow
forward once through the blocks (a conv block may end in a 2x2 pool), and
every hidden block computes its own loss, backpropagates one layer deep,
updates immediately, and drops its cache before the next block runs. Global
backprop is the same forward sweep, except that each block's cache goes onto
a trace for one backward pass at the end. Both sweeps run a block's backward
through one helper. In a local mode, holding more than one block's cache at
a time would be a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import numerics as nm
from . import rng as rngmod
from .data import AugmentConfig, Dataset, augment_batch
from .errors import ConfigError, DataError, NonFiniteError, ShapeError
from .layers import (
    AdamState,
    LayerSpec,
    block_backward,
    block_forward,
    block_local_backward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    update_params,
)
from .losses import MODE_TABLE, LossConfig, local_block_loss

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
# stream per hidden block.
CONTRACT = 2


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------


@dataclass
class NetworkSpec:
    """A parsed architecture: each hidden block's LayerSpec in forward order,
    with only its shape fields set (build_network adds the rest), and the
    output layer's fan-in and width."""

    blocks: list  # LayerSpec
    out_in_dim: int
    classes: int


def _int_suffix(token: str, prefix: str) -> int:
    # int() alone also takes a sign, spaces, underscores and non-ASCII
    # digits, which would give one network many spellings
    digits = token[len(prefix) :]
    if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        raise ConfigError("the width must be a positive number in digits 0-9 with no leading zero")
    return int(digits)


def parse_arch(arch: str, input_shape, classes: int, width_mult: int = 1) -> NetworkSpec:
    """Turn an architecture string (or preset name) into a NetworkSpec.

    Tokens: convN (3x3, stride 1, pad 1), pool (2x2 max, which joins the
    conv block before it), fcN (hidden dense), and a final fc or fcN output
    layer. A convN or fcN token appends its block's LayerSpec, whose input
    shape is the one the tokens before it leave; a pool token marks the
    block before it. So impossible networks fail here, not mid-epoch:
    LayerSpec rejects conv after a dense block and pool after one, and
    pooling an odd extent, pool first or after pool, or a non-fc final
    token raise too. A token's error names the token.
    """
    if width_mult < 1:
        raise ConfigError(f"width multiplier must be >= 1, got {width_mult}")
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if len(input_shape) != 3 or min(input_shape) < 1:
        raise ConfigError(f"input shape must be (c, h, w) with positive extents, got {tuple(input_shape)}")
    resolved = ARCH_PRESETS.get(arch, arch)
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
                blocks.append(LayerSpec("conv", shape, channels=_int_suffix(tok, "conv") * width_mult))
                shape = blocks[-1].out_shape  # 3x3 stride 1 pad 1 keeps the extent
            elif tok == "fc":
                raise ConfigError("bare fc denotes the output layer and must be last")
            elif tok.startswith("fc"):
                blocks.append(LayerSpec("dense", (int(np.prod(shape)),), units=_int_suffix(tok, "fc")))
                shape = blocks[-1].out_shape
            else:
                raise ConfigError("unknown architecture token")
        except (ConfigError, ShapeError) as e:
            raise type(e)(f"token {i + 1} {tok!r} of {resolved!r}: {e}") from None
    return NetworkSpec(blocks, int(np.prod(shape)), classes)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Everything about a run except the loss mode (see LossConfig)."""

    arch: str = "mlp3x1024"
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
    clean_train_error: bool = False  # extra eval-mode pass over the train split

    def __post_init__(self):
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
        if self.pred_target_dim < 1:
            raise ConfigError("pred_target_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def validate_for(self, train_ds: Dataset) -> None:
        """The checks that need the data: the architecture against its shape
        and classes, the augmentation against the image size, and the batch
        size against the train split."""
        parse_arch(self.arch, train_ds.images.shape[1:], train_ds.num_classes, self.width_mult)
        self.augment.validate_for(train_ds.images.shape[1:])
        if self.batch_size > len(train_ds):
            raise ConfigError(f"batch size {self.batch_size} exceeds dataset size {len(train_ds)}")


def resolved_slope(slope: Optional[float], mode: str) -> float:
    if slope is not None:
        return slope
    return 0.01 if MODE_TABLE[mode].sim else 0.0


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


def build_network(
    spec: NetworkSpec,
    loss: LossConfig,
    dropout: float = 0.0,
    slope: Optional[float] = None,
    pred_target_dim: int = 1024,
    seed: int = 0,
    dtype=np.float32,
) -> Network:
    """Materialise each parsed block, its LayerSpec completed with the
    mode row's pred and sim parts (and the projection width a bpf part
    reads), the slope, the dropout and the pooling target, and then the
    output layer. Each weight layer draws from its own seeded
    stream, so nets with equal seeds match bit for bit regardless of
    mode-dependent head counts."""
    row = MODE_TABLE[loss.mode]
    shared = dict(  # every field of a block's spec but its shape
        slope=resolved_slope(slope, loss.mode),
        dropout=dropout,
        pred_target_dim=pred_target_dim,
        classes=spec.classes,
        pred=row.pred,
        sim=row.sim,
        projection=loss.projection_dim if "bpf" in (row.pred, row.sim) else 0,
    )

    blocks = [
        init_params(replace(lspec, **shared), rngmod.make_rng(seed, rngmod.INIT, k), dtype)
        for k, lspec in enumerate(spec.blocks)
    ]

    orng = rngmod.make_rng(seed, rngmod.INIT, len(blocks))
    bound = float(np.sqrt(1.0 / spec.out_in_dim))
    weight = orng.uniform(-bound, bound, size=(spec.out_in_dim, spec.classes)).astype(dtype)
    bias = np.zeros(spec.classes, dtype=dtype)
    out = OutputLayer(weight, bias, {"weight": AdamState.for_param(weight), "bias": AdamState.for_param(bias)})
    return Network(loss.mode, loss.resolved_beta, blocks, out)


# ---------------------------------------------------------------------------
# single training step
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    """Per-layer losses (hidden blocks then the output cross-entropy), the
    raw gradients of a dry step (apply=False; an applied step keeps none),
    and the batch predictions."""

    losses: list
    grads: list
    predictions: np.ndarray


def _output_forward(net: Network, a: np.ndarray):
    flat = a.reshape(a.shape[0], -1)
    return flat, nm.matmul(flat, net.out.weight) + net.out.bias


def _check_finite(loss: float, what: str) -> None:
    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite loss at {what}")


def _update(owner, grads: dict, lr: float, what: str) -> None:
    """update_params, with a non-finite gradient's error naming the layer
    as well as the parameter."""
    try:
        update_params(owner, grads, lr)
    except NonFiniteError as e:
        raise NonFiniteError(f"{e} at {what}") from None


def dropout_rngs(seed: int, epoch: int, blocks: int) -> list:
    """One dropout generator per hidden block for one epoch, keyed by
    (seed, DROPOUT, epoch, block): a block's masks depend on no other
    block's width, nor on the order in which the blocks run."""
    return [rngmod.make_rng(seed, rngmod.DROPOUT, epoch, k) for k in range(blocks)]


def _block_backward(net: Network, trace: list, lr: float, kept: Optional[list]):
    """Backward and update of the block on top of the trace, in either sweep;
    returns the gradient the block below reads, None in a local mode.

    Pops the block's entry, whose output gradient is None in a local mode
    (the local dh stands in), and so holds the only reference to the cache
    and the gradients, which die as soon as nothing reads them: the local
    dh once it is added in or taken over, the cache's masks and xhat inside
    the block's backward, the rest of the cache before the update. A dry
    step (kept not None) keeps the gradients at the block's index instead of
    updating, ahead of the head gradients the local loss left there."""
    k, cache, dh, idx, d = trace.pop()
    block = net.blocks[k]
    if idx is not None:
        d = nm.maxpool2x2_backward(d, idx)
        idx = None  # dies here, before the block's backward
    if d is None:
        d = dh
    elif dh is not None:
        d += dh
    dh = None  # added into d, or d itself
    if MODE_TABLE[net.mode].local:
        grads, d = block_local_backward(block, cache, d), None
    else:
        grads, d = block_backward(block, cache, d, need_dx=k > 0)
    stats, cache = cache.stats, None  # the cache dies before the update
    if kept is None:
        _update(block, grads, lr, f"layer {k} ({net.mode})")
        block.fold_stats(*stats)
    else:
        kept[k] = {**grads, **kept[k]}
    return d


def train_step(
    net: Network, x: np.ndarray, targets_onehot: np.ndarray, lr: float, rngs, apply: bool = True
) -> StepResult:
    """One optimisation step: a single forward sweep over the blocks.

    After each hidden block the local loss, if the mode has one, runs, and
    its head gradients are applied (or, in a dry step, kept) at once, so
    none of them lives through a backward. Then the sweep either trains the
    block at once (local modes: one-block backward, update, and the cache
    dies before the next block runs) or pushes its cache and local dh onto
    a trace (glob, glob+sim); then its 2x2 pool runs, if it has one. The
    output layer's cross-entropy then starts one reverse loop over the
    trace, the global backward, where glob+sim adds each block's sim
    gradient with unit weight. Both sweeps run a block's backward in
    _block_backward. Every owner of parameters updates as soon as its
    gradients exist: a block's heads right after its local loss, the output
    layer first in the global modes, and each block's trunk right after its
    backward; each parameter updates on its own, so the order leaves the
    bytes as they are. A block's batch statistics are folded into its
    running batchnorm stats when its trunk is updated, so with apply=False
    the gradients are computed and returned, by layer index, but nothing
    moves, which the gradient checks build on; with apply=True no gradient
    outlives its update, and no cache, block output or pool index outlives
    its last reader. No layer computes an input gradient that nothing reads:
    not a local block, not the first block, and not the output layer of a
    local mode. Hidden block k draws its dropout masks from rngs[k] (see
    dropout_rngs).
    """
    if len(rngs) != len(net.blocks):
        raise ConfigError(f"train_step takes a dropout generator per hidden block, {len(net.blocks)}, got {len(rngs)}")
    row = MODE_TABLE[net.mode]
    a = x
    losses: list = []
    kept = None if apply else [{} for _ in range(len(net.blocks) + 1)]  # a dry step's gradients
    trace: list = []  # [block index, cache, local dh, pool index, output gradient]
    for k, block in enumerate(net.blocks):
        a, cache = block_forward(block, a, train=True, rng=rngs[k])
        loss, dh = 0.0, None
        if row.pred or row.sim:
            res = local_block_loss(block, a, targets_onehot, net.beta)
            _check_finite(res.loss, f"layer {k} ({net.mode})")
            if kept is not None:
                kept[k] = res.grads
            elif res.grads:
                _update(block, res.grads, lr, f"layer {k} ({net.mode})")
            loss, dh, res = res.loss, res.dh, None  # the head gradients die here
        losses.append(loss)
        trace.append([k, cache, dh, None, None])
        cache = dh = None  # the trace holds the only references
        if row.local:  # pushed and popped at once
            _block_backward(net, trace, lr, kept)
        if block.spec.pool:  # a is rebound, so the block's output dies with the pool
            a, idx = nm.maxpool2x2(a, need_index=not row.local)
            if idx is not None:  # only a global backward reads it
                trace[-1][3], idx = idx, None

    flat, logits = _output_forward(net, a)
    out_loss, dlogits = nm.cross_entropy_logits(logits, targets_onehot)
    _check_finite(out_loss, "output layer")
    if row.local:  # nothing reads the output layer's input gradient
        d, dw = None, flat.T @ dlogits  # matmul_backward's dw
    else:
        d, dw = nm.matmul_backward(flat, net.out.weight, dlogits)
        d = d.reshape(a.shape)
    ograds = {"weight": dw, "bias": dlogits.sum(axis=0)}
    if apply:
        _update(net.out, ograds, lr, "output layer")
    else:
        kept[-1] = ograds
    while trace:
        trace[-1][4], d = d, None  # handed over with the entry, which the backward pops
        d = _block_backward(net, trace, lr, kept)

    losses.append(out_loss)
    return StepResult(losses, kept or [], logits.argmax(axis=1))


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
    """Inference logits: eval-mode blocks, no dropout, running batchnorm stats."""
    a = x
    for block in net.blocks:
        a, _ = block_forward(block, a, train=False)
        if block.spec.pool:
            a, _ = nm.maxpool2x2(a, need_index=False)
    _, logits = _output_forward(net, a)
    return logits


def evaluate(net: Network, ds: Dataset, batch_size: int = 512) -> float:
    """Classification error fraction on a dataset.

    The split goes through forward_eval a slice at a time. batch_size is an
    upper bound on a slice's examples; a slice also holds no more of them
    than fit their widest activation (the input or any block's output) into
    numerics.COLS_BUDGET, at least one. Every op of an eval forward works
    per example, so the slice size bounds the memory the pass holds, not
    what it computes.
    """
    if batch_size < 1:
        raise ConfigError(f"eval batch size must be >= 1, got {batch_size}")
    if not len(ds):
        raise DataError(f"cannot evaluate on the empty split {ds.name!r}")
    shapes = [ds.images.shape[1:]] + [b.spec.out_shape for b in net.blocks]
    widest = max(int(np.prod(s)) for s in shapes) * ds.images.itemsize
    step = max(1, min(batch_size, nm.COLS_BUDGET // widest))
    wrong = 0
    for i in range(0, len(ds), step):
        logits = forward_eval(net, ds.images[i : i + step])
        wrong += int((logits.argmax(axis=1) != ds.labels[i : i + step]).sum())
    return wrong / len(ds)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_error: float
    test_error: float
    layer_losses: list


def train(cfg: TrainConfig, loss: LossConfig, train_ds: Dataset, test_ds: Optional[Dataset] = None):
    """Run the full protocol; returns (net, history).

    Derived rng streams are keyed by (seed, purpose, epoch), dropout's by
    hidden block as well (dropout_rngs), so two calls with identical
    configs and data produce bit-identical parameters and metrics on the
    same numpy and BLAS build and thread count. Train error is counted on the step predictions (augmented
    batches, parameters moving), unless clean_train_error asks for an extra
    eval pass. The class-per-batch restriction, when set, lifts at the first
    learning-rate drop.
    """
    spec = parse_arch(cfg.arch, train_ds.images.shape[1:], train_ds.num_classes, cfg.width_mult)
    net = build_network(
        spec,
        loss,
        dropout=cfg.dropout,
        slope=cfg.slope,
        pred_target_dim=cfg.pred_target_dim,
        seed=cfg.seed,
    )
    history = train_network(net, cfg, train_ds, test_ds)
    return net, history


def train_network(net: Network, cfg: TrainConfig, train_ds: Dataset, test_ds: Optional[Dataset] = None):
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
        steps = 0
        for idx in sample_batches(train_ds.labels, cfg.batch_size, sampler_rng, limit):
            xb = augment_batch(train_ds.images[idx], cfg.augment, augment_rng)
            yb = nm.one_hot(train_ds.labels[idx], train_ds.num_classes, xb.dtype)
            result = train_step(net, xb, yb, lr, rngs, apply=True)
            correct += int((result.predictions == train_ds.labels[idx]).sum())
            seen += len(idx)
            loss_sums += result.losses
            steps += 1

        train_error = 1.0 - correct / seen
        if cfg.clean_train_error:
            train_error = evaluate(net, train_ds)
        test_error = evaluate(net, test_ds) if test_ds is not None else float("nan")
        history.append(EpochStats(epoch, lr, train_error, test_error, list(loss_sums / steps)))
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
    an inference net can consume any mode's checkpoint. Slope scalars are
    applied to the blocks.
    """
    tensors, block_count = load_checkpoint(path)
    if block_count != len(net.blocks) + 1:
        raise DataError(f"checkpoint has {block_count} weight layers, net has {len(net.blocks) + 1}")
    wanted = state_tensors(net)
    for name, param in wanted.items():
        if name.endswith(".slope"):
            continue
        if name not in tensors:
            raise DataError(f"checkpoint is missing tensor {name!r}")
        src = tensors[name]
        if src.shape != param.shape:
            raise DataError(f"tensor {name!r} has shape {src.shape}, net expects {param.shape}")
        param[...] = src.astype(param.dtype)
    for i, b in enumerate(net.blocks):
        key = f"block{i}.slope"
        if key in tensors:
            b.spec = replace(b.spec, slope=float(tensors[key]))
