"""Layer-local training against global backprop on separable blobs.

Local modes compute an error signal at every hidden block from two
single-layer sub-networks (a classifier and a similarity head), update the
block immediately, and detach. The payoff this script makes visible: the
trainer never holds more than one hidden activation cache at a time, while
backprop keeps one per layer, and one step's peak memory shows it.
"""

import tracemalloc

import numpy as np

from locallearn.data import synthetic_blobs
from locallearn.numerics import one_hot
from locallearn.rng import make_rng
from locallearn.trainer import TrainConfig, build_network, dropout_rngs, train, train_step

ds = synthetic_blobs(classes=3, per_class=60, dim=16, separation=6.0, seed=5)
print(f"dataset: {len(ds)} points, {ds.num_classes} classes, 16-dim\n")

print(f"{'mode':12s} {'final train err':>16s} {'epochs to 0':>12s}")
for mode in ("glob", "pred", "sim", "predsim", "pred-bpf", "sim-bpf", "predsim-bpf"):
    cfg = TrainConfig(arch="fc32-fc", loss=mode, epochs=20, lr=5e-3, batch_size=32, seed=100)
    _, hist = train(cfg, ds, ds)  # scored in eval mode on the train split
    first_zero = next((h.epoch for h in hist if h.test_error == 0.0), None)
    when = str(first_zero) if first_zero is not None else "never"
    print(f"{mode:12s} {hist[-1].test_error:16.4f} {when:>12s}")

print("\n== peak transient memory of one step of a 6-block conv net ==")
x = make_rng(6).standard_normal((8, 2, 8, 8)).astype(np.float32)
y = one_hot(np.arange(8) % 3, 3, np.float32)
arch = "conv4-conv4-conv4-conv4-conv4-conv4-fc"
for mode in ("predsim", "glob"):
    net = build_network(TrainConfig(arch=arch, loss=mode, seed=1, pred_target_dim=32), (2, 8, 8), 3)
    tracemalloc.start()
    train_step(net, x, y, 1e-3, dropout_rngs(0, 0, len(net.blocks)))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{mode:8s} {peak / 1024:6.0f} KiB (tracemalloc peak)")
print("\nlocal modes free each cache right after that block's update;")
print("backprop must keep all of them until the backward pass returns.")
