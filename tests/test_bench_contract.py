"""The names the benchmark under perfbench/ looks up in the library.

perfbench wraps library functions by module attribute, so a rename in the
library breaks it without an error of its own. These tests install the
benchmark's wrappers, without training anything, and check that every name
it reads resolves and that every original is back afterwards. The last
test runs the harness's own self-test, a shrunk run of every workload.
"""

import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from locallearn import cli, data, gradcheck, layers, losses, numerics, trainer

from conftest import rand, small_net

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import perlayer  # noqa: E402
import tracing  # noqa: E402

LL = types.SimpleNamespace(
    cli=cli, data=data, gradcheck=gradcheck, layers=layers, losses=losses, numerics=numerics, trainer=trainer
)


def _state() -> dict:
    return {(m.__name__, k): v for m in vars(LL).values() for k, v in vars(m).items()}


def _wrapped(before: dict, during: dict) -> dict:
    """(module, name) -> original, for every attribute a wrapper replaced."""
    return {key: before[key] for key in before if during.get(key) is not before[key]}


def _assert_restored(before: dict) -> None:
    after = _state()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_trace_recorder_finds_every_name_it_reads():
    before = _state()
    with perlayer.trace_recorder(LL):
        during = _state()
    _assert_restored(before)

    wrapped = _wrapped(before, during)
    for key, original in wrapped.items():
        assert during[key].__wrapped__ is original, key
    spans = {tracing.span_name(original) for original in wrapped.values()}
    read = set(tracing.PHASES)
    read |= {f"losses.{fn}" for fn in perlayer.LOSSES}
    read |= {f"numerics.{fn}" for fn in perlayer.GEMMS + perlayer.ELEMENTWISE}
    read |= {"trainer.train_step", "trainer.evaluate", "layers.adam_step", "layers.save_checkpoint"}
    read |= {"data.augment_batch", "data.load_cifar10", "data.load_mnist_dir", "data.standardize"}
    assert read <= spans, sorted(read - spans)
    assert set(perlayer.ATTRS) <= {original.__name__ for original in wrapped.values()}


def test_memory_probe_finds_every_name_it_wraps():
    before = _state()
    with tracing.MemoryProbe().watch_training(trainer).watch_evaluate(trainer).watch_evaluate(cli):
        during = _state()
    _assert_restored(before)

    wrapped = _wrapped(before, during)
    names = {name for _, name in wrapped}
    assert names == {"train_step", "evaluate", *(fn.rsplit(".", 1)[1] for fn in tracing.PHASES)}
    assert ("locallearn.cli", "evaluate") in wrapped


@pytest.mark.parametrize("mode", ["predsim", "glob"])
def test_traced_conv_step_runs_and_counts_flops(mode):
    # the traced run feeds every call's arguments to perfbench's attribute
    # functions, so an argument they do not expect fails here, not in --trace 1
    net = small_net(mode, arch="conv3-pool-conv4-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=80, dtype=np.float32)
    y = numerics.one_hot(np.arange(6) % 3, 3, np.float32)
    before = _state()
    with perlayer.trace_recorder(LL) as rec:
        trainer.train_step(net, x, y, 1e-3, trainer.dropout_rngs(0, 0, len(net.blocks)))
    _assert_restored(before)
    spans = {}
    for s in rec.spans:
        spans.setdefault(s.name, []).append(s)
    assert len(spans["trainer.train_step"]) == 1
    # a 3x3 same conv of n examples from ci to co channels at h x w costs
    # 2*n*co*h*w*ci*9 flops; block 0 maps 2 -> 3 channels at 4x4, block 1
    # 3 -> 4 at 2x2, and each predsim sim head keeps its block's channels.
    # predsim's block 0, the largest output, runs its trunk conv again in
    # its backward, to rebuild xhat
    flop = lambda ci, co, hw: 2 * 6 * co * hw * ci * 9
    trunk, heads = [flop(2, 3, 16), flop(3, 4, 4)], [flop(3, 3, 16), flop(4, 4, 4)]
    forward = {"predsim": [trunk[0], heads[0], trunk[0], trunk[1], heads[1]], "glob": trunk}[mode]
    assert [s.attrs["flop"] for s in spans["numerics.conv2d"]] == forward
    # dx-producing conv backwards, dx and dk a forward's flops each: the two
    # sim heads in predsim, block 1 in glob
    backward = {"predsim": heads, "glob": trunk[1:]}[mode]
    assert [s.attrs["flop"] for s in spans["numerics.conv2d_backward"]] == [2 * f for f in backward]
    assert len(spans["layers.block_backward"]) == 2
    # perlayer times a block's update phase from the update_params spans
    # train_step calls directly, so an update seam that perfbench wraps
    # would read every update_ms as 0
    updates = spans["layers.update_params"]
    assert all(s.parent is not None and s.parent.name == "trainer.train_step" for s in updates)
    assert {s.attrs["block"] for s in updates} == {0, 1, "out"}


def test_harness_selftest_passes():
    # the harness imports the library from this checkout's src/ itself
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]
    assert "selftest: ok" in done.stdout
