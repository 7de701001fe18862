"""The trained bytes, pinned: a SHA-256 over what a few steps of every loss
mode compute, on two conv nets and two dense nets.

Each case hashes 3 dry steps (the losses, the predictions and every
gradient a GradRecorder kept as the step's update), then 3 applied steps,
and after them every state tensor, every Adam m, v and t, and the
eval-mode logits. The expected hashes live in
fingerprints.json, keyed by the arithmetic contract, the numpy version and
the BLAS with its thread count, since each of these moves float32 bytes. A
machine whose key has no entry fails with the key and the hashes it
computed, which are the entry to add after checking that nothing else
moved. The hashes change only with a contract bump.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import locallearn.trainer as tr
from locallearn import cli
from locallearn.losses import MODES
from locallearn.numerics import one_hot

from conftest import rand, small_net

FINGERPRINTS = pathlib.Path(__file__).with_name("fingerprints.json")

NETS = {
    # pools, a same-channel conv block, and pred heads that pool by 2
    "conv": dict(arch="conv8-pool-conv12-conv12-pool-fc16-fc", input_shape=(3, 8, 8), pred_target_dim=40),
    # 4x4 maps of 64 channels, a shape where BLAS takes another kernel for
    # one example's GEMM than for several examples' at once
    "conv4x4": dict(arch="conv64-conv64-fc", input_shape=(3, 4, 4)),
    "dense": dict(arch="fc32-fc32-fc", input_shape=(12, 1, 1)),
    # a 2700x256 weight: Adam makes and applies its gradient in several row
    # blocks, the last one ragged
    "wide": dict(arch="fc256-fc", input_shape=(3, 30, 30)),
}


def machine_key() -> str:
    blas = cli.blas_entries()
    return f"contract={tr.CONTRACT} numpy={np.__version__} blas={blas['blas']} threads={blas['blas_threads']}"


def fingerprint(net_name: str, mode: str) -> str:
    net = small_net(mode, classes=4, dropout=0.2, seed=5, **NETS[net_name])
    x = rand((10,) + NETS[net_name]["input_shape"], seed=131, dtype=np.float32)
    y = one_hot(np.arange(10) % 4, 4, np.float32)
    sha = hashlib.sha256()

    def put(*arrays):
        for a in arrays:
            sha.update(np.ascontiguousarray(a).tobytes())

    for step in range(6):  # 3 dry steps, then 3 applied ones
        kept = tr.GradRecorder() if step < 3 else None
        res = tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(7, step, len(net.blocks)), update=kept)
        put(np.array(res.losses, dtype=np.float64), res.predictions)
        for grads in kept or []:
            put(*(grads[name] for name in sorted(grads)))
    state = tr.state_tensors(net)
    put(*(state[name] for name in sorted(state)))
    for owner in net.blocks + [net.out]:
        for name in sorted(owner.adam):
            s = owner.adam[name]
            put(np.int64(s.t), s.m, s.v)
    put(tr.forward_eval(net, x))
    return sha.hexdigest()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("net_name", sorted(NETS))
def test_trained_bytes_match_the_recorded_fingerprint(net_name, mode):
    key = machine_key()
    case = f"{net_name}/{mode}"
    got = fingerprint(net_name, mode)
    recorded = json.loads(FINGERPRINTS.read_text()).get(key)
    assert recorded is not None, f"no fingerprints recorded for {key!r}; {case} computes {got}"
    assert got == recorded[case], f"{case} under {key!r}: computed {got}, recorded {recorded[case]}"


if __name__ == "__main__":  # prints this machine's entry for fingerprints.json
    print(json.dumps({machine_key(): {f"{n}/{m}": fingerprint(n, m) for n in sorted(NETS) for m in MODES}}, indent=2))
