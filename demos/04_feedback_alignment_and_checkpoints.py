"""The backprop-free pred loss, and a checkpoint round-trip.

pred-bpf trains each block's local classifier on a binarized random
projection of the labels, then transports the error to the activations
through a fixed random matrix B instead of the classifier's transpose.
The gradient w.r.t. the classifier stays exact; the path to the hidden
layer deliberately is not a gradient at all.
"""

import hashlib
import tempfile
from dataclasses import replace

import numpy as np

from locallearn.data import synthetic_blobs
from locallearn.losses import pred_bpf_loss
from locallearn.rng import make_rng
from locallearn.trainer import (TrainConfig, build_network, evaluate,
                                load_network_state, save_network, train)

print("== swapping B changes the activation signal, not the classifier grad ==")
rng = make_rng(7)
h = rng.standard_normal((8, 16))
t = rng.integers(0, 2, (8, 32)).astype(np.float64)
w, b = rng.standard_normal((16, 32)), np.zeros(32)
r1 = pred_bpf_loss(h, t, w, b, feedback=rng.standard_normal((16, 32)))
r2 = pred_bpf_loss(h, t, w, b, feedback=rng.standard_normal((16, 32)))
print("classifier grads identical:",
      bool(np.array_equal(r1.grads["cls_w"], r2.grads["cls_w"])))
print("activation grads identical:", bool(np.array_equal(r1.dh, r2.dh)), "\n")

print("== B never moves during training ==")
ds = synthetic_blobs(classes=3, per_class=60, dim=16, separation=6.0, seed=8)
cfg = TrainConfig(arch="fc32-fc32-fc", loss="pred-bpf", epochs=10, lr=5e-3, batch_size=32, seed=8)
net, hist = train(cfg, ds)


def b_digest(n):
    return hashlib.sha256(
        b"".join(blk.feedback.tobytes() for blk in n.blocks)
    ).hexdigest()[:16]


fresh = build_network(cfg, (16, 1, 1), 3)  # the net train(cfg, ds) started from
print(f"B digest untrained: {b_digest(fresh)}")
print(f"B digest after {cfg.epochs} epochs: {b_digest(net)}")
print(f"train error went {hist[0].train_error:.3f} -> {hist[-1].train_error:.3f}\n")

print("== checkpoints restore inference bit-for-bit ==")
with tempfile.NamedTemporaryFile(suffix=".ckpt") as f:
    save_network(net, f.name)
    # a plain skeleton is enough to score it; heads never run at inference
    clone = build_network(replace(cfg, loss="glob", seed=999), (16, 1, 1), 3)
    load_network_state(clone, f.name)
    print(f"trained net error: {evaluate(net, ds):.4f}")
    print(f"reloaded    error: {evaluate(clone, ds):.4f}")
