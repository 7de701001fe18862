"""Which library functions the traced run wraps, what each span records,
and the per-layer metrics computed from the spans.

The layers are the package's modules on the training path: cli, data,
trainer, layers, losses and numerics. Every function is wrapped where its
caller looks it up at call time: `numerics.*` (reached as `nm.`), the module
globals of `losses` and `trainer` (which include the names trainer imported
from layers, losses and data), `layers.block_backward` and
`layers.adam_step` (reached from inside layers), and the loaders cli reaches
through `datamod`.
"""

from __future__ import annotations

import os
import types
from collections import defaultdict

from tracing import PHASES, Recorder, block_labels, block_of

MIB = float(1 << 20)
BLOCKS = 3  # hidden blocks of every workload's net

ELEMENTWISE = (
    "batchnorm_train",
    "batchnorm_backward",
    "leaky_relu",
    "dropout",
    "maxpool2x2",
    "maxpool2x2_backward",
    "avgpool",
    "std_per_feature_map",
    "std_per_feature_map_backward",
)
LOSSES = (
    "pred_loss",
    "sim_loss",
    "pred_bpf_loss",
    "sim_bpf_loss",
    "similarity_matrix",
    "similarity_matrix_backward",
    "combine",
)
GEMMS = ("conv2d", "conv2d_backward", "matmul", "matmul_backward")
BLOCK_PHASES = ("forward", "local_loss", "backward", "update")


def _conv_flop(x, k, stride=1, pad=1) -> int:
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    return 2 * n * co * ho * wo * ci * kh * kw


def _block_dx_flop(block, cache) -> int:
    """Flops of the input-gradient product of block_backward."""
    if block.spec.kind == "dense":
        n, fan_in = cache.x.shape
        return 2 * n * fan_in * block.weight.shape[1]
    return _conv_flop(cache.x, block.weight, block.spec.stride, block.spec.pad)


def _step_attrs(rec, args, kwargs):
    # the calls inside this step name their block through these labels
    rec.labels = block_labels(args[0])
    return {"n": args[1].shape[0]}


def _conv_backward_attrs(rec, args, kwargs):
    # dx and dk cost one forward's flops each
    dx = _conv_flop(args[0], args[1], *args[3:], **kwargs)
    return {"flop": 2 * dx, "dx_flop": dx}


def _block_attrs(rec, args, kwargs):
    return {"block": block_of(rec.labels, args, kwargs)}


ATTRS = {
    "train_step": _step_attrs,
    "evaluate": lambda rec, a, kw: {"n": a[1].images.shape[0]},
    "conv2d": lambda rec, a, kw: {"flop": _conv_flop(*a, **kw)},
    "conv2d_backward": _conv_backward_attrs,
    "matmul": lambda rec, a, kw: {"flop": 2 * a[0].shape[0] * a[0].shape[1] * a[1].shape[1]},
    "matmul_backward": lambda rec, a, kw: {"flop": 4 * a[0].shape[0] * a[0].shape[1] * a[1].shape[1]},
    "adam_step": lambda rec, a, kw: {"params": a[0].size},
    "block_forward": _block_attrs,
    "local_block_loss": _block_attrs,
    "block_backward": lambda rec, a, kw: {**_block_attrs(rec, a, kw), "dx_flop": _block_dx_flop(a[0], a[1])},
    "block_local_backward": _block_attrs,
    "update_params": _block_attrs,
    "save_checkpoint": lambda rec, a, kw: {"path": a[0]},
}

# what the untraced runs wrap: enough for the end-to-end timings, a few
# calls per step
TIMING = ("train_step", "evaluate", "sample_batches", "train_network")


def timing_recorder(ll) -> Recorder:
    rec = Recorder()
    for name in TIMING:
        rec.wrap(ll.trainer, name, ATTRS.get(name))
    return rec


def _public_functions(module):
    """Public functions of the package bound in module, its own or imported."""
    return [
        n
        for n, v in vars(module).items()
        if isinstance(v, types.FunctionType) and not n.startswith("_") and v.__module__.startswith("locallearn.")
    ]


def trace_recorder(ll) -> Recorder:
    rec = timing_recorder(ll)
    for module in (ll.numerics, ll.losses, ll.trainer):
        for name in _public_functions(module):
            rec.wrap(module, name, ATTRS.get(name))
    for name in ("block_backward", "adam_step"):
        rec.wrap(ll.layers, name, ATTRS.get(name))
    for name in ("load_cifar10", "load_mnist_dir", "standardize"):
        rec.wrap(ll.data, name)
    return rec


def _dx_wasted(span) -> bool:
    """An input gradient is thrown away when block_backward runs for a
    locally trained block (through block_local_backward) or for block 0."""
    while span is not None and span.name != "layers.block_backward":
        span = span.parent
    if span is None:
        return False  # a loss head's backward: its dx feeds the block
    parent = span.parent
    return span.attrs["block"] == 0 or (parent is not None and parent.name == "layers.block_local_backward")


def _useful_share(spans) -> float:
    total = sum(s.attrs["dx_flop"] for s in spans)
    useful = sum(s.attrs["dx_flop"] for s in spans if not _dx_wasted(s))
    return useful / total if total else 0.0


def _phase_seconds(spans) -> dict:
    """(block label, phase) -> seconds, from the calls train_step makes.

    A 2x2 pool belongs to the block before it, as in the paper's conv-pool
    blocks: its forward counts in that block's forward phase and, in the
    global backward sweep, its backward in that block's backward phase.
    """
    phase = defaultdict(float)
    last_forward = None
    pending_pool_s = 0.0
    for s in spans:
        if s.parent is None or s.parent.name != "trainer.train_step":
            continue
        if s.name == "numerics.maxpool2x2":
            phase[(last_forward, "forward")] += s.seconds
        elif s.name == "numerics.maxpool2x2_backward":
            pending_pool_s += s.seconds
        elif s.name in PHASES:
            label, kind = s.attrs["block"], PHASES[s.name]
            phase[(label, kind)] += s.seconds
            if kind == "forward":
                last_forward = label
            elif kind == "backward":
                phase[(label, kind)] += pending_pool_s
                pending_pool_s = 0.0
    return phase


def per_layer_metrics(rec: Recorder, probe, traced_s: float, untraced_s: float) -> dict:
    """name -> (value, unit). Times are totals over the traced job (every
    epoch, evaluation included); names absent from a workload read 0."""
    total = defaultdict(float)
    calls = defaultdict(int)
    flop = defaultdict(int)
    child = defaultdict(float)
    by_name = defaultdict(list)
    for s in rec.spans:
        total[s.name] += s.seconds
        calls[s.name] += 1
        flop[s.name] += (s.attrs or {}).get("flop", 0)
        by_name[s.name].append(s)
        if s.parent is not None:
            child[id(s.parent)] += s.seconds

    out = {}
    for fn in GEMMS:
        key = f"numerics.{fn}"
        gflop = flop[key] / 1e9
        out[f"{key}.ms"] = (total[key] * 1e3, "ms")
        out[f"{key}.calls"] = (calls[key], "count")
        out[f"{key}.gflop"] = (gflop, "GFLOP")
        out[f"{key}.gflops"] = (gflop / total[key] if total[key] else 0.0, "GFLOP/s")
    out["numerics.conv2d_backward.dx_useful_share"] = (_useful_share(by_name["numerics.conv2d_backward"]), "fraction")
    out["layers.block_backward.dx_useful_share"] = (_useful_share(by_name["layers.block_backward"]), "fraction")
    for fn in ELEMENTWISE:
        out[f"numerics.{fn}.ms"] = (total[f"numerics.{fn}"] * 1e3, "ms")
        out[f"numerics.{fn}.calls"] = (calls[f"numerics.{fn}"], "count")
    for fn in LOSSES:
        out[f"losses.{fn}.ms"] = (total[f"losses.{fn}"] * 1e3, "ms")

    steps = by_name["trainer.train_step"]
    phase = _phase_seconds(rec.spans)
    for k in range(BLOCKS):
        for p in BLOCK_PHASES:
            out[f"trainer.block{k}.{p}_ms"] = (phase[(k, p)] * 1e3, "ms")
        out[f"trainer.block{k}.peak_mib"] = (probe.phase_peaks.get(k, 0) / MIB, "MiB")
    out["trainer.out.update_ms"] = (phase[("out", "update")] * 1e3, "ms")
    step_s = sum(s.seconds for s in steps)
    out["trainer.train_step.self_ms"] = ((step_s - sum(child[id(s)] for s in steps)) * 1e3, "ms")

    out["layers.adam_step.ms"] = (total["layers.adam_step"] * 1e3, "ms")
    out["layers.adam_step.calls"] = (calls["layers.adam_step"], "count")
    params = sum(s.attrs["params"] for s in by_name["layers.adam_step"])
    out["layers.adam_step.params"] = (params / len(steps) if steps else 0, "count")
    out["data.augment_batch.ms"] = (total["data.augment_batch"] * 1e3, "ms")
    out["data.load_s"] = (total["data.load_cifar10"] + total["data.load_mnist_dir"], "s")
    out["data.standardize_s"] = (total["data.standardize"], "s")
    out["trainer.evaluate.s"] = (total["trainer.evaluate"], "s")
    out["layers.save_checkpoint.ms"] = (total["layers.save_checkpoint"] * 1e3, "ms")
    saved = by_name["layers.save_checkpoint"]
    out["layers.save_checkpoint.bytes"] = (sum(os.path.getsize(s.attrs["path"]) for s in saved), "B")
    out["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "fraction")
    out["trace.coverage_share"] = (sum(phase.values()) / step_s if step_s else 0.0, "fraction")
    return out
