"""Command line interface: train / gradcheck / eval.

`train` runs the full protocol and leaves three artifacts in --out:
metrics.csv (one row per epoch), manifest.txt (the resolved configuration as
sorted key=value lines, with the arithmetic contract its trained bytes follow
and the BLAS, version and thread count that computed them), and final.ckpt.
`gradcheck` runs the finite difference suite and fails loudly on the first
broken backward. `eval`
rebuilds an inference net from an architecture string and scores a
checkpoint on a dataset's test split.

Per-dataset defaults follow the experimental protocol (initial lr, epoch
budget, classifier pooling target, dropout by architecture family); explicit
flags always win.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from . import data as datamod
from . import gradcheck as gc
from .data import AugmentConfig
from .errors import ConfigError, DataError, LocalLearnError
from .losses import MODES
from .trainer import (
    ARCH_PRESETS,
    CONTRACT,
    TrainConfig,
    build_network,
    evaluate,
    load_network_state,
    metrics_csv,
    save_network,
    train,
)

DATASETS = ("mnist", "fashion-mnist", "kmnist", "cifar10", "blobs")

# lr / epochs / pooling target per dataset; dropout by architecture family
DATASET_PRESETS = {
    "mnist": dict(lr=5e-4, epochs=100, pred_dim=1024, dropout_mlp=0.1, dropout_vgg=0.2),
    "fashion-mnist": dict(lr=5e-4, epochs=200, pred_dim=1024, dropout_mlp=0.025, dropout_vgg=0.1),
    "kmnist": dict(lr=5e-4, epochs=100, pred_dim=1024, dropout_mlp=0.2, dropout_vgg=0.3),
    "cifar10": dict(lr=5e-4, epochs=400, pred_dim=2048, dropout_mlp=0.1, dropout_vgg=0.2),
    "blobs": dict(lr=1e-3, epochs=20, pred_dim=64, dropout_mlp=0.0, dropout_vgg=0.0),
}


def _load_dataset(args):
    """The (train split, test split) of args.dataset; an empty one is an error."""
    name, data_dir, seed = args.dataset, args.data_dir, args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if name == "blobs":
        full = datamod.synthetic_blobs(classes=10, per_class=120, dim=32, separation=6.0, seed=seed)
        test, train_ds = datamod.class_balanced_split(full, per_class=20, seed=seed)
        return train_ds, test
    if not data_dir:
        raise LocalLearnError(f"dataset {name!r} needs --data-dir")
    if name == "cifar10":
        splits = datamod.load_cifar10(data_dir, "train"), datamod.load_cifar10(data_dir, "test")
    else:
        splits = datamod.load_mnist_dir(data_dir, "train", name), datamod.load_mnist_dir(data_dir, "test", name)
    for ds in splits:
        if not len(ds):
            raise DataError(f"the {ds.name} split under {data_dir!r} holds no images")
    return splits


def _family(resolved_arch: str) -> str:
    return "vgg" if "conv" in resolved_arch else "mlp"


def _openblas_threads() -> str:
    """The thread count of the OpenBLAS numpy calls, or "unknown". numpy's
    own extension module is dlopen-ed again, which looks the symbol up
    through the libraries it links, the bundled OpenBLAS among them."""
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed numpy.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return str(fn())
    return "unknown"


def blas_entries() -> dict:
    """Manifest entries for the BLAS numpy calls: its name and version, and
    its thread count, because the thread count moves trained bytes (a
    float32 GEMM sums in another order on another count)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 takes no mode=
        blas = {}
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    return {"blas": name, "blas_threads": _openblas_threads()}


def cmd_train(args) -> int:
    preset = DATASET_PRESETS[args.dataset]
    train_ds, test_ds = _load_dataset(args)
    resolved_arch = ARCH_PRESETS.get(args.arch, args.arch)

    lr = args.lr if args.lr is not None else preset["lr"]
    epochs = args.epochs if args.epochs is not None else preset["epochs"]
    pred_dim = args.pred_dim if args.pred_dim is not None else preset["pred_dim"]
    dropout = args.dropout if args.dropout is not None else preset[f"dropout_{_family(resolved_arch)}"]

    cfg = TrainConfig(
        arch=args.arch,
        loss=args.loss,
        beta=args.beta,
        epochs=epochs,
        lr=lr,
        batch_size=args.batch_size,
        dropout=dropout,
        slope=args.slope,
        seed=args.seed,
        classes_per_batch=args.classes_per_batch,
        width_mult=args.width_mult,
        pred_target_dim=pred_dim,
        augment=AugmentConfig(jitter=args.jitter, hflip=args.flip, cutout=args.cutout),
    )
    # fail on a config the data cannot run before touching the filesystem
    cfg.validate_for(train_ds)

    datamod.standardize(datamod.channel_stats(train_ds), train_ds, test_ds)
    # every field of cfg, augment's flattened, with beta and slope resolved
    fields = {**vars(cfg), **vars(cfg.augment), "beta": cfg.resolved_beta, "slope": cfg.resolved_slope}
    del fields["augment"]
    manifest = {key: str(v).lower() if isinstance(v, bool) else v for key, v in fields.items()}
    manifest.update(
        dataset=args.dataset,
        data_dir=args.data_dir or "",
        arch_resolved=resolved_arch,
        out=args.out,
        contract=CONTRACT,
        **blas_entries(),
    )
    # the manifest: the run's whole resolved configuration as sorted key=value
    # lines, a float as its repr, so a run reruns from it. An --out that
    # cannot be written fails before training, as one error line
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "manifest.txt"), "w") as f:
            f.writelines(f"{key}={manifest[key]}\n" for key in sorted(manifest))
    except OSError as e:
        raise LocalLearnError(f"cannot write the run directory {args.out!r}: {e.strerror or e}") from None

    net, history = train(cfg, train_ds, test_ds)

    with open(os.path.join(args.out, "metrics.csv"), "w") as f:
        f.write(metrics_csv(history))
    save_network(net, os.path.join(args.out, "final.ckpt"))
    print(f"test_error={history[-1].test_error:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gc.run_all(corrupt=args.corrupt)
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"{r.name:24s} max_rel_err={r.max_err:.3e} {'ok' if r.ok else 'FAIL'}")
    if failed:
        print(f"gradcheck FAILED: {failed[0].name}", file=sys.stderr)
        return 1
    print(f"gradcheck passed: {len(results)} checks")
    return 0


def cmd_eval(args) -> int:
    train_ds, test_ds = _load_dataset(args)
    # the train split lends its channel statistics and is never standardized
    datamod.standardize(datamod.channel_stats(train_ds), test_ds)
    # heads never run at inference; a plain-backprop skeleton accepts any
    # mode's checkpoint and picks the trained slope up from it
    skeleton = TrainConfig(arch=args.arch, loss="glob", width_mult=args.width_mult)
    net = build_network(skeleton, test_ds.images.shape[1:], test_ds.num_classes)
    load_network_state(net, args.checkpoint)
    err = evaluate(net, test_ds, args.batch_size)
    print(f"test_error={err:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="locallearn", description="Train deep nets from local error signals.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the training protocol")
    t.add_argument("--dataset", choices=DATASETS, required=True)
    t.add_argument("--data-dir", default="", help="directory holding the dataset files")
    t.add_argument("--arch", default="mlp3x1024", help="preset name or token string like conv128-pool-fc")
    t.add_argument("--loss", choices=MODES, default="predsim")
    t.add_argument("--beta", type=float, default=None, help="sim weight for combined modes")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--batch-size", type=int, default=128)
    t.add_argument("--dropout", type=float, default=None)
    t.add_argument("--slope", type=float, default=None, help="leaky relu slope (default by mode)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--classes-per-batch", type=int, default=0, help="restrict classes per batch until the first lr drop")
    t.add_argument("--jitter", type=int, default=0, help="random shift radius in pixels")
    t.add_argument("--flip", action="store_true", help="random horizontal flips")
    t.add_argument("--cutout", type=int, default=0, help="cutout hole side in pixels")
    t.add_argument("--width-mult", type=int, default=1, help="multiply conv channel counts")
    t.add_argument("--pred-dim", type=int, default=None, help="pooling target for local classifiers")
    t.add_argument("--out", required=True, help="output directory for metrics/manifest/checkpoint")
    t.set_defaults(fn=cmd_train)

    g = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    g.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)  # test hook
    g.set_defaults(fn=cmd_gradcheck)

    e = sub.add_parser("eval", help="score a checkpoint on a test split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", choices=DATASETS, required=True)
    e.add_argument("--data-dir", default="")
    e.add_argument("--arch", required=True)
    e.add_argument("--width-mult", type=int, default=1)
    e.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="most examples per evaluation slice; a wide net's slices hold fewer",
    )
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LocalLearnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # a net that fits numpy's index but not this machine
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
