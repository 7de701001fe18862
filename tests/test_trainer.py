"""Architecture parsing, the LR schedule, batch sampling, the step/epoch
loop, metrics formatting, and network state round-trips."""

import dataclasses
import math
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import locallearn.layers as ly
import locallearn.losses as ls
import locallearn.numerics as nm
import locallearn.trainer as tr
from locallearn.data import Dataset
from locallearn.errors import ConfigError, DataError, NonFiniteError, ShapeError
from locallearn.losses import MODE_TABLE, MODES
from locallearn.numerics import one_hot
from locallearn.rng import SAMPLER, make_rng

from conftest import peak_live_caches, rand, small_net, tiny_blobs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import MemoryProbe  # noqa: E402

LOCAL_MODES = tuple(m for m, row in MODE_TABLE.items() if row.local)


# ---------------------------------------------------------------------------
# architecture grammar
# ---------------------------------------------------------------------------

def test_parse_vgg8b_has_8_weight_layers():
    specs, _ = tr.parse_arch(tr.TrainConfig(arch=tr.ARCH_PRESETS["vgg8b"]), (3, 32, 32), 10)
    assert len(specs) + 1 == 8
    kinds = [b.kind for b in specs]
    assert kinds.count("conv") == 6 and kinds.count("dense") == 1  # + the output layer


def test_parse_vgg11b_has_11_weight_layers():
    specs, _ = tr.parse_arch(tr.TrainConfig(arch=tr.ARCH_PRESETS["vgg11b"]), (3, 32, 32), 10)
    assert len(specs) + 1 == 11


def test_parse_shape_bookkeeping():
    specs, out_in_dim = tr.parse_arch(tr.TrainConfig(arch="conv128-pool-fc10", loss="glob"), (1, 28, 28), 10)
    # the conv block records the pool that follows it; the pool is no block
    assert specs == [ly.LayerSpec("conv", (1, 28, 28), channels=128, pool=True, classes=10)]
    # the trailing fc10 is the output layer: 128 channels at 14x14 flattened
    assert out_in_dim == 128 * 14 * 14


@pytest.mark.parametrize("mode", MODES)
def test_only_the_largest_sim_head_conv_blocks_rebuild_xhat(mode):
    # in predsim and sim, the conv blocks whose output has the most
    # elements, ties included; never a dense block, and no block of the
    # other modes
    rebuilds = mode in ("predsim", "sim")
    cases = [
        (tr.ARCH_PRESETS["vgg8b"], (3, 32, 32), [False, True, False, False, False, False, False]),
        ("conv64-pool-conv128-pool-fc256-fc", (3, 32, 32), [True, False, False]),
        ("conv4-conv4-pool-conv8-fc", (2, 8, 8), [True, True, False]),
        ("conv2-fc512-fc", (3, 8, 8), [False, False]),  # the dense output is the largest
    ]
    for arch, shape, largest in cases:
        specs, _ = tr.parse_arch(tr.TrainConfig(arch=arch, loss=mode), shape, 10)
        assert [spec.rebuild_xhat for spec in specs] == [rebuilds and r for r in largest], arch
    # and in a step, those blocks' caches keep no xhat from the forward on
    net = small_net(mode, arch="conv3-pool-conv4-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    forward, no_xhat = tr.block_forward, []

    def recording(*args, **kwargs):
        h, cache = forward(*args, **kwargs)
        no_xhat.append(cache.xhat is None)
        return h, cache

    x = rand((6, 2, 4, 4), seed=96, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "block_forward", recording)
        tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert no_xhat == [rebuilds, False]


def test_parse_width_mult_scales_conv_only():
    specs, _ = tr.parse_arch(tr.TrainConfig(arch="conv128-pool-fc1024-fc", width_mult=2), (3, 32, 32), 10)
    assert specs[0].channels == 256
    fc = [b for b in specs if b.kind == "dense"][0]
    assert fc.units == 1024
    assert fc.in_shape == (256 * 16 * 16,)


def test_parse_errors():
    """Each error is the type its check raises, and names the token and the
    architecture it came from."""
    cases = [
        ("pool-conv8-fc", (1, 8, 8), ConfigError, "token 1 'pool'"),          # pool first
        ("conv8-fc16-pool-fc", (1, 8, 8), ConfigError, "token 3 'pool'"),     # pool after flatten
        ("conv8-pool-conv8-pool-conv8-pool-fc", (1, 28, 28), ShapeError, "token 6 'pool'"),  # 7 is odd
        ("conv8-pool-pool-fc", (1, 8, 8), ConfigError, "token 3 'pool'"),     # pool after pool
        ("conv8-fc16-conv8-fc", (1, 8, 8), ConfigError, "token 3 'conv8'"),   # conv after flatten
        ("conv8-fc7", (1, 8, 8), ConfigError, "token 2 'fc7'"),               # output width != classes
        ("fc-fc16-fc", (8, 1, 1), ConfigError, "token 1 'fc'"),               # bare fc not last
        ("conv8-dense16-fc", (1, 8, 8), ConfigError, "token 2 'dense16'"),    # unknown token
        ("conv8-fcx-fc", (1, 8, 8), ConfigError, "token 2 'fcx'"),            # malformed width
        ("conv0-fc", (1, 8, 8), ConfigError, "token 1 'conv0'"),              # zero width
        ("fc1_6-fc", (8, 1, 1), ConfigError, "token 1 'fc1_6'"),              # digit-group underscore
        ("fc 16-fc", (8, 1, 1), ConfigError, "token 1 'fc 16'"),              # space
        ("fc016-fc", (8, 1, 1), ConfigError, "token 1 'fc016'"),              # leading zero
        ("fc\u0661\u0666-fc", (8, 1, 1), ConfigError, "token 1 'fc\u0661\u0666'"),  # Arabic-Indic digits
        ("conv+8-fc", (1, 8, 8), ConfigError, "token 1 'conv+8'"),            # sign
        ("conv8-pool", (1, 8, 8), ConfigError, "token 2 'pool'"),             # no output layer
        ("", (8, 1, 1), ConfigError, "token 1 ''"),
        ("vgg8b", (3, 28, 28), ShapeError, "token 8 'pool'"),                 # a preset names its tokens
    ]
    for arch, shape, error, token in cases:
        with pytest.raises(error) as info:
            tr.parse_arch(tr.TrainConfig(arch=arch, loss="glob"), shape, 3)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{token} of {tr.ARCH_PRESETS.get(arch, arch)!r}: ")


@pytest.mark.parametrize("shape", [(1, 0, 0), (1, 8, 0), (0, 8, 8), (8, 1), (1, 2, 3, 4)])
def test_parse_rejects_an_input_shape_without_three_positive_extents(shape):
    for arch in ("fc8-fc", "conv4-fc"):
        with pytest.raises(ConfigError, match=r"input shape must be \(c, h, w\) with positive extents"):
            tr.parse_arch(tr.TrainConfig(arch=arch, loss="glob"), shape, 3)


def test_parse_rejects_an_output_weight_numpy_cannot_hold():
    # each conv weight fits; the output layer's 10**18 x 10 does not
    with pytest.raises(ConfigError, match=r"^token 2 'fc' of .*: an output weight of 10240000000000000000 elements"):
        tr.parse_arch(tr.TrainConfig(arch="conv1000000000000000-fc", loss="glob"), (3, 32, 32), 10)


def test_parse_trailing_fc_n_as_output():
    specs, out_in_dim = tr.parse_arch(tr.TrainConfig(arch="fc32-fc10"), (16, 1, 1), 10)
    assert len(specs) + 1 == 2
    assert out_in_dim == 32


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arch, shape", [
    ("conv8-pool-conv16-fc24-fc", (3, 8, 8)),
    ("fc32-fc16-fc", (12, 1, 1)),
])
def test_build_network_keeps_the_parsed_shapes(mode, arch, shape):
    """Every built block runs with the whole LayerSpec parse_arch gives it:
    build_network changes no field."""
    cfg = tr.TrainConfig(arch=arch, loss=mode, pred_target_dim=8)
    net = tr.build_network(cfg, shape, 4)
    assert [b.spec for b in net.blocks] == tr.parse_arch(cfg, shape, 4)[0]


def _what_net(net):
    """What a net is: its mode and beta, each block's spec, and the bytes of
    every tensor it holds."""
    tensors = {name: np.asarray(t).tobytes() for name, t in tr.state_tensors(net).items()}
    return net.mode, net.beta, [b.spec for b in net.blocks], tensors


_SHAPING = tr.TrainConfig(arch="conv4-pool-fc8-fc", loss="predsim-bpf", pred_target_dim=8)


@pytest.mark.parametrize("field, value", [
    ("loss", "predsim"), ("beta", 0.5), ("projection_dim", 7), ("dropout", 0.2),
    ("slope", 0.3), ("pred_target_dim", 4), ("width_mult", 2), ("seed", 1),
])
def test_build_network_reads_every_field_that_shapes_a_net(field, value):
    changed = dataclasses.replace(_SHAPING, **{field: value})
    assert _what_net(tr.build_network(changed, (2, 4, 4), 3)) != _what_net(tr.build_network(_SHAPING, (2, 4, 4), 3))


def test_train_starts_from_the_net_build_network_builds(monkeypatch):
    ds = Dataset(rand((12, 2, 4, 4), seed=75, dtype=np.float32), np.arange(12) % 3, 3)
    cfg = dataclasses.replace(_SHAPING, beta=0.5, dropout=0.1, slope=0.2, width_mult=2, seed=3)
    started = []
    monkeypatch.setattr(tr, "train_network", lambda net, *args: started.append(_what_net(net)) or [])
    tr.train(cfg, ds)
    assert started == [_what_net(tr.build_network(cfg, (2, 4, 4), 3))]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_breakpoints_100():
    assert tr.lr_breakpoints(100) == [50, 75, 89, 94]


def test_lr_at_exact_values():
    assert tr.lr_at(49, 100, 5e-4) == 5e-4
    assert tr.lr_at(50, 100, 5e-4) == 1.25e-4
    assert tr.lr_at(94, 100, 5e-4) == 5e-4 * 0.25**4
    with pytest.raises(ConfigError):
        tr.lr_at(100, 100, 5e-4)


def test_resolved_slope_by_mode():
    assert tr.TrainConfig(loss="predsim").resolved_slope == 0.01
    assert tr.TrainConfig(loss="sim-bpf").resolved_slope == 0.01
    assert tr.TrainConfig(loss="glob").resolved_slope == 0.0
    assert tr.TrainConfig(loss="pred").resolved_slope == 0.0
    assert tr.TrainConfig(loss="glob", slope=0.2).resolved_slope == 0.2


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

def test_sample_batches_partitions():
    labels = np.arange(10) % 3
    batches = tr.sample_batches(labels, 4, make_rng(70))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_sample_batches_class_limit():
    labels = np.repeat(np.arange(4), 25)
    batches = tr.sample_batches(labels, 10, make_rng(71), classes_per_batch=2)
    for b in batches:
        assert len(np.unique(labels[b])) <= 2
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(100))


def test_sample_batches_rejects_oversized_batch():
    with pytest.raises(ConfigError):
        tr.sample_batches(np.zeros(5), 6, make_rng(0))


@pytest.mark.parametrize("classes_per_batch", [0, 1])
def test_one_example_batch_is_folded_and_trains(classes_per_batch):
    """33 examples at batch 32 would leave a batch of one, which batchnorm
    rejects in train mode; it joins its neighbour instead. With one class
    per batch, the lone class-1 example comes first or last by seed."""
    labels = np.array([0] * 32 + [1])
    for seed in range(4):
        batches = tr.sample_batches(labels, 32, make_rng(72, seed), classes_per_batch)
        assert [len(b) for b in batches] == [33]
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(33))
    with pytest.raises(ConfigError, match="batch size"):
        tr.sample_batches(labels, 1, make_rng(72), classes_per_batch)

    ds = Dataset(rand((33, 4, 1, 1), seed=73, dtype=np.float32), labels, 2)
    cfg = _quick_cfg(arch="fc8-fc", loss="predsim", epochs=1, classes_per_batch=classes_per_batch)
    _, hist = tr.train(cfg, ds)
    assert len(hist) == 1 and all(np.isfinite(hist[0].layer_losses))


@pytest.mark.parametrize("batch_size,classes_per_batch", [(8, 1), (10, 2)])
def test_folded_batches_keep_the_class_limit(batch_size, classes_per_batch):
    """25 per class at batch 8 ends each class on a batch of one; at batch 10
    with two classes, some epochs end on one. A folded example joins a batch
    of its own class, so the limit holds."""
    labels = np.repeat(np.arange(4), 25)
    for seed in range(10):
        batches = tr.sample_batches(labels, batch_size, make_rng(74, seed), classes_per_batch)
        assert min(len(b) for b in batches) >= 2
        assert max(len(np.unique(labels[b])) for b in batches) <= classes_per_batch
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(100))


# ---------------------------------------------------------------------------
# gradients through the whole net
# ---------------------------------------------------------------------------

def test_global_chain_rule_hand_derived():
    """Two linear maps + cross-entropy, gradient written out by hand."""
    x, w1, w2 = rand((4, 3), seed=72), rand((3, 5), seed=73), rand((5, 4), seed=74)
    y = one_hot(np.array([0, 1, 2, 3]), 4, np.float64)
    h = nm.matmul(x, w1)
    logits = nm.matmul(h, w2)
    _, dlogits = nm.cross_entropy_logits(logits, y)

    dh, dw2 = nm.matmul_backward(h, w2, dlogits)
    _, dw1 = nm.matmul_backward(x, w1, dh)
    assert np.max(np.abs(dw2 - h.T @ dlogits)) < 1e-12
    assert np.max(np.abs(dw1 - x.T @ (dlogits @ w2.T))) < 1e-12

    from locallearn.gradcheck import fd_grad, max_rel_err
    fd1 = fd_grad(lambda: nm.cross_entropy_logits(nm.matmul(nm.matmul(x, w1), w2), y)[0], w1)
    assert max_rel_err(dw1, fd1) < 1e-6


def test_local_grads_keyed_by_param_names():
    net = small_net("predsim", arch="fc8-fc", input_shape=(6, 1, 1), classes=3)
    x = rand((6, 6, 1, 1), seed=75, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    kept = tr.GradRecorder()
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)), update=kept)
    block_grads = kept[0]
    assert set(block_grads) >= {"weight", "bias", "gamma", "beta", "cls_w", "sim_w"}
    assert set(kept[-1]) == {"weight", "bias"}


@pytest.mark.parametrize("mode", MODES)
def test_step_contract_in_every_mode(mode):
    net = small_net(mode, arch="conv3-pool-fc8-fc", input_shape=(2, 4, 4), classes=3,
                    dropout=0.1, pred_target_dim=4)
    n_blocks = len(net.blocks)
    assert n_blocks == 2
    x = rand((6, 2, 4, 4), seed=77, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)

    owners = net.blocks + [net.out]
    before = [
        {name: (getattr(o, name).copy(), st.m.copy(), st.v.copy(), st.t) for name, st in o.adam.items()}
        for o in owners
    ]
    stats = [(b.run_mean.copy(), b.run_var.copy()) for b in net.blocks]
    logits = tr.forward_eval(net, x)
    rngs = tr.dropout_rngs(0, 0, len(net.blocks))
    kept = tr.GradRecorder()
    res, peak = peak_live_caches(lambda: tr.train_step(net, x, y, 1e-3, rngs, update=kept))
    for o, saved in zip(owners, before):
        for name, (param, m, v, t) in saved.items():
            st = o.adam[name]
            assert np.array_equal(getattr(o, name), param), name
            assert np.array_equal(st.m, m) and np.array_equal(st.v, v) and st.t == t, name
    for b, (mean, var) in zip(net.blocks, stats):
        assert np.array_equal(b.run_mean, mean) and np.array_equal(b.run_var, var)
    assert np.array_equal(tr.forward_eval(net, x), logits)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert all(not np.array_equal(b.run_mean, mean) for b, (mean, _) in zip(net.blocks, stats))

    assert peak == (1 if mode in LOCAL_MODES else n_blocks)
    assert len(kept) == n_blocks + 1
    assert len(res.losses) == n_blocks + 1
    hidden_zero = [loss == 0.0 for loss in res.losses[:-1]]
    assert hidden_zero == [mode == "glob"] * n_blocks


@pytest.mark.parametrize("mode", MODES)
def test_step_computes_no_input_gradient_that_nothing_reads(mode, monkeypatch):
    net = small_net(mode, arch="conv3-pool-conv4-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=78, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    kernels = []
    conv_backward = nm.conv2d_backward

    def counting(x, k, *args, **kwargs):
        kernels.append(k)
        return conv_backward(x, k, *args, **kwargs)

    monkeypatch.setattr(nm, "conv2d_backward", counting)
    kept = tr.GradRecorder()
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)), update=kept)
    monkeypatch.setattr(nm, "conv2d_backward", conv_backward)

    # every dx-producing conv backward is a sim head's, or in the global
    # modes the trunk's of a block above the first
    sim_heads = [b.sim_w for b in net.blocks if b.sim_w is not None]
    trunk_dx = [] if MODE_TABLE[mode].local else [net.blocks[1].weight]
    assert sorted(map(id, kernels)) == sorted(map(id, sim_heads + trunk_dx))

    # the same step with every input gradient computed: the same weight grads
    block_backward = ly.block_backward

    def always_dx(block, cache, d_out, need_dx=True):
        return block_backward(block, cache, d_out)

    monkeypatch.setattr(ly, "block_backward", always_dx)
    monkeypatch.setattr(tr, "block_backward", always_dx)
    full = tr.GradRecorder()
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)), update=full)
    assert len(full) == len(kept)
    for want, got in zip(full, kept):
        assert want.keys() == got.keys()
        for name in want:
            assert np.array_equal(want[name], got[name]), name


@pytest.mark.parametrize("mode", MODES)
def test_output_layer_computes_an_input_gradient_only_for_a_global_sweep(mode, monkeypatch):
    net = small_net(mode, arch="fc16-fc8-fc", input_shape=(8, 1, 1), classes=3, dropout=0.2)
    x = rand((6, 8, 1, 1), seed=79, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    outputs, calls = [], []
    output_forward, matmul_backward = tr._output_forward, nm.matmul_backward
    monkeypatch.setattr(tr, "_output_forward", lambda *a: outputs.append(output_forward(*a)) or outputs[-1])
    monkeypatch.setattr(nm, "matmul_backward", lambda a, b, g: calls.append(b) or matmul_backward(a, b, g))
    kept = tr.GradRecorder()
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)), update=kept)
    out_calls = [b for b in calls if b is net.out.weight]
    assert len(out_calls) == (0 if MODE_TABLE[mode].local else 1)
    # the output layer's weight gradient is matmul_backward's dw, bit for bit
    (flat, logits), = outputs
    _, dlogits = nm.cross_entropy_logits(logits, y)
    _, dw = matmul_backward(flat, net.out.weight, dlogits)
    got = kept[-1]["weight"]
    assert got.dtype == dw.dtype and got.tobytes() == dw.tobytes()


@pytest.mark.parametrize("mode", ["predsim", "glob"])
def test_a_blocks_dropout_masks_do_not_depend_on_another_blocks_width(mode, monkeypatch):
    # block 0 draws the same masks in every step whatever block 1's width,
    # because each hidden block has its own stream
    ds = tiny_blobs()
    masks = {}
    block_forward = tr.block_forward

    def recording(block, x, train, rng=None):
        out, cache = block_forward(block, x, train, rng)
        if train and block.spec.units == 16:
            masks[width].append(cache.mask.copy())
        return out, cache

    monkeypatch.setattr(tr, "block_forward", recording)
    for width in (8, 12):
        masks[width] = []
        cfg = tr.TrainConfig(arch=f"fc16-fc{width}-fc", loss=mode, epochs=1, lr=1e-3, batch_size=60, dropout=0.3, seed=4)
        tr.train(cfg, ds)
    assert len(masks[8]) == len(masks[12]) == 2
    assert all(np.array_equal(a, b) for a, b in zip(masks[8], masks[12]))


def test_step_takes_one_dropout_generator_per_block():
    net = small_net("predsim", arch="fc16-fc8-fc", dropout=0.2)
    x = rand((6, 8, 1, 1), seed=81, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    for count in (1, 3):
        with pytest.raises(ConfigError, match="per hidden block"):
            tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, count))


def _state_bytes(net):
    """Every state tensor and Adam moment of net, as bytes."""
    state = {name: np.asarray(t).tobytes() for name, t in tr.state_tensors(net).items()}
    for k, owner in enumerate(net.blocks + [net.out]):
        state |= {(k, name): (st.t, st.m.tobytes(), st.v.tobytes()) for name, st in owner.adam.items()}
    return state


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["predsim", "pred", "glob"])
def test_step_rejects_a_non_finite_lr_before_anything_moves(mode, lr):
    # such a step reported finite losses and wrote NaN into every weight,
    # so the next step's error blamed the wrong step
    net = small_net(mode, arch="fc8-fc", input_shape=(6, 1, 1), classes=3)
    x = rand((6, 6, 1, 1), seed=88, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    before = _state_bytes(net)
    with pytest.raises(ConfigError, match=f"lr must be finite, got {lr}"):
        tr.train_step(net, x, y, lr, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert _state_bytes(net) == before


@pytest.mark.parametrize("mode", MODES)
def test_step_rejects_targets_not_shaped_examples_by_classes(mode):
    net = small_net(mode, arch="fc8-fc", input_shape=(6, 1, 1), classes=3)
    x = rand((6, 6, 1, 1), seed=89, dtype=np.float32)
    before = _state_bytes(net)
    for y in (one_hot(np.arange(5) % 3, 3, np.float32), one_hot(np.arange(6) % 3, 4, np.float32)):
        want = rf"targets of shape \({y.shape[0]}, {y.shape[1]}\) for inputs of shape \(6, 6, 1, 1\): want \(6, 3\)$"
        with pytest.raises(ShapeError, match=want):
            tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert _state_bytes(net) == before


@pytest.mark.parametrize("mode", MODES)
def test_update_sees_the_owners_an_applied_step_updates_in_its_order(mode, monkeypatch):
    # the seam hands update what an applied step hands update_params, owner
    # by owner and name by name, and each hidden block's batch stats once,
    # with its trunk's gradients
    nets = [small_net(mode, arch="conv3-pool-conv4-fc8-fc", input_shape=(2, 4, 4), classes=3,
                      dropout=0.1, pred_target_dim=4) for _ in range(2)]
    x = rand((6, 2, 4, 4), seed=90, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    index = [{id(o): k for k, o in enumerate(net.blocks + [net.out])} for net in nets]
    applied, seen = [], []
    update = tr.update_params

    def applying(owner, grads, lr):
        applied.append((index[0][id(owner)], list(grads)))
        return update(owner, grads, lr)

    def recording(k, owner, grads, stats=None):
        assert index[1][id(owner)] == k
        seen.append((k, list(grads), stats))

    monkeypatch.setattr(tr, "update_params", applying)
    tr.train_step(nets[0], x, y, 1e-3, tr.dropout_rngs(0, 0, len(nets[0].blocks)))
    tr.train_step(nets[1], x, y, 1e-3, tr.dropout_rngs(0, 0, len(nets[1].blocks)), update=recording)
    assert [(k, names) for k, names, _ in seen] == applied
    trunk = ["weight", "bias", "gamma", "beta"]
    with_stats = [(k, names) for k, names, stats in seen if stats is not None]
    assert with_stats == [(k, trunk) for k, names, _ in seen if names == trunk]
    assert sorted(k for k, _ in with_stats) == list(range(len(nets[1].blocks)))
    for k, _, stats in seen:
        if stats is not None:
            width = nets[1].blocks[k].gamma.shape
            assert len(stats) == 2 and all(s.shape == width for s in stats)
    assert nets[1].blocks[0].adam["weight"].t == 0 and nets[0].blocks[0].adam["weight"].t == 1


@pytest.mark.parametrize("mode", [m for m in MODES if not MODE_TABLE[m].local])
def test_global_backward_frees_each_cache_above_the_block_it_runs(mode, monkeypatch):
    net = small_net(mode, arch="conv3-pool-conv4-conv4-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=79, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    caches, alive_above = [], []  # a weakref to each block's cache, in forward order
    forward, backward = tr.block_forward, tr.block_backward

    def recording(block, *args, **kwargs):
        h, cache = forward(block, *args, **kwargs)
        caches.append(weakref.ref(cache))
        return h, cache

    def checking(block, cache, *args, **kwargs):
        k = next(i for i, ref in enumerate(caches) if ref() is cache)
        alive_above.append((k, [ref() is not None for ref in caches[k + 1 :]]))
        return backward(block, cache, *args, **kwargs)

    monkeypatch.setattr(tr, "block_forward", recording)
    monkeypatch.setattr(tr, "block_backward", checking)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert alive_above == [(2, []), (1, [False]), (0, [False, False])]


@pytest.mark.parametrize("mode", MODES)
def test_pool_index_is_made_only_for_a_backward_that_reads_it(mode, monkeypatch):
    net = small_net(mode, arch="conv3-pool-conv4-pool-fc", input_shape=(2, 8, 8), classes=3, pred_target_dim=4)
    x = rand((6, 2, 8, 8), seed=80, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    made, read = [], []
    pool, pool_backward = nm.maxpool2x2, nm.maxpool2x2_backward

    def recording_pool(*args, **kwargs):
        out, idx = pool(*args, **kwargs)
        made.append(idx)
        return out, idx

    def recording_backward(g, idx):
        read.append(idx)
        return pool_backward(g, idx)

    monkeypatch.setattr(nm, "maxpool2x2", recording_pool)
    monkeypatch.setattr(nm, "maxpool2x2_backward", recording_backward)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)), update=tr.GradRecorder())
    if MODE_TABLE[mode].local:
        assert made == [None, None] and read == []
    else:
        assert all(idx.dtype == np.uint8 for idx in made)
        assert list(map(id, read)) == list(map(id, reversed(made)))
    made.clear()
    tr.forward_eval(net, x)
    assert made == [None, None]


@pytest.mark.parametrize("mode", LOCAL_MODES)
def test_applied_step_drops_each_blocks_gradients_before_the_next_block(mode, monkeypatch):
    net = small_net(mode, arch="fc8-fc8-fc8-fc", input_shape=(6, 1, 1), classes=3)
    x = rand((6, 6, 1, 1), seed=81, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    refs, live_at_forward = [], []
    forward, local_backward = tr.block_forward, tr.block_local_backward

    def watched_forward(*args, **kwargs):
        live_at_forward.append(sum(ref() is not None for ref in refs))
        return forward(*args, **kwargs)

    def watched_backward(block, cache, dh):
        grads = local_backward(block, cache, dh)
        refs.extend([weakref.ref(grads["weight"]), weakref.ref(dh)])
        return grads

    monkeypatch.setattr(tr, "block_forward", watched_forward)
    monkeypatch.setattr(tr, "block_local_backward", watched_backward)
    res = tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert live_at_forward == [0, 0, 0]  # block k's dw and dh are dead before block k+1 runs
    assert len(refs) == 6 and set(vars(res)) == {"losses", "predictions"}


@pytest.mark.parametrize("mode", LOCAL_MODES)
def test_local_blocks_cache_is_dead_when_its_update_starts(mode, monkeypatch):
    # Adam's scratch buffers come on top of whatever the step still holds,
    # so a cache that lives into its block's update raises the step's peak;
    # the head gradients are applied as soon as the local loss returns, so
    # none of them lives through the block's backward either
    net = small_net(mode, arch="conv3-pool-conv4-fc8-fc", input_shape=(2, 4, 4), classes=3,
                    dropout=0.2, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=85, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    caches, live_at_update = {}, []  # id(block) -> weakref to its cache
    heads, live_at_backward = [], []  # weakrefs to every head gradient
    forward, loss, backward, update = tr.block_forward, tr.local_block_loss, tr.block_local_backward, tr.update_params

    def recording(block, *args, **kwargs):
        h, cache = forward(block, *args, **kwargs)
        caches[id(block)] = weakref.ref(cache)
        return h, cache

    def local_loss(*args, **kwargs):
        res = loss(*args, **kwargs)
        heads.extend(weakref.ref(g) for g in res.grads.values())
        return res

    def watched_backward(block, cache, d_out):
        live_at_backward.append(sum(ref() is not None for ref in heads))
        return backward(block, cache, d_out)

    def checking(owner, grads, lr):
        if owner is not net.out and "weight" in grads:  # the update carrying the trunk's gradients
            live_at_update.append(caches[id(owner)]() is not None)
        return update(owner, grads, lr)

    monkeypatch.setattr(tr, "block_forward", recording)
    monkeypatch.setattr(tr, "local_block_loss", local_loss)
    monkeypatch.setattr(tr, "block_local_backward", watched_backward)
    monkeypatch.setattr(tr, "update_params", checking)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert live_at_update == [False, False, False]
    assert len(heads) == sum(len(b.param_names()) - 4 for b in net.blocks)
    assert live_at_backward == [0, 0, 0]


@pytest.mark.parametrize("mode", [m for m in MODES if not MODE_TABLE[m].local])
def test_global_sweep_drops_each_blocks_gradients_before_the_block_below(mode, monkeypatch):
    net = small_net(mode, arch="conv3-pool-conv4-fc8-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=82, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    refs, live_at_backward, updated_at_backward = [], [], []
    backward = tr.block_backward

    def watched(block, cache, d_out, need_dx=True):
        live_at_backward.append(sum(ref() is not None for ref in refs))
        updated_at_backward.append([b.adam["weight"].t for b in net.blocks])
        grads, dx = backward(block, cache, d_out, need_dx=need_dx)
        refs.append(weakref.ref(grads["weight"]))
        return grads, dx

    monkeypatch.setattr(tr, "block_backward", watched)
    res = tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert live_at_backward == [0, 0, 0] and len(refs) == 3 and set(vars(res)) == {"losses", "predictions"}
    # each block above has been updated by the time the one below runs
    assert updated_at_backward == [[0, 0, 0], [0, 0, 1], [0, 1, 1]]
    assert net.out.adam["weight"].t == 1 and [b.adam["weight"].t for b in net.blocks] == [1, 1, 1]


@pytest.mark.parametrize("mode", [m for m in MODES if not MODE_TABLE[m].local])
def test_global_sweep_frees_each_output_gradient_once_read(mode, monkeypatch):
    # a pooled output's gradient dies once the pool backward has read it, and
    # a block's output gradient once its backward has: neither lives into
    # the block's backward or update
    net = small_net(mode, arch="conv3-pool-conv4-pool-fc", input_shape=(2, 8, 8), classes=3, pred_target_dim=4)
    x = rand((6, 2, 8, 8), seed=86, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    refs, live = [], []
    pool_backward, backward, update = nm.maxpool2x2_backward, tr.block_backward, tr.update_params

    def unpooling(g, idx):
        refs.append(weakref.ref(g))
        return pool_backward(g, idx)

    def checking(block, cache, d_out, need_dx=True):
        live.append(sum(ref() is not None for ref in refs))
        result = backward(block, cache, d_out, need_dx=need_dx)
        refs.append(weakref.ref(d_out))
        return result

    def updating(owner, grads, lr):
        # glob+sim's sim heads update first in their block's turn, before
        # its pool backward; each block's trunk updates after its backward
        if owner is not net.out and "weight" in grads:
            live.append(sum(ref() is not None for ref in refs))
        return update(owner, grads, lr)

    monkeypatch.setattr(nm, "maxpool2x2_backward", unpooling)
    monkeypatch.setattr(tr, "block_backward", checking)
    monkeypatch.setattr(tr, "update_params", updating)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert len(refs) == 4 and live == [0, 0, 0, 0]


@pytest.mark.parametrize("mode", [m for m in MODES if not MODE_TABLE[m].local])
def test_pool_index_dies_once_its_backward_has_read_it(mode, monkeypatch):
    # the trace holds the only reference to a pool index, so each index is
    # dead by the time its block's backward starts, the last block's too
    net = small_net(mode, arch="conv3-pool-conv4-pool-fc", input_shape=(2, 8, 8), classes=3, pred_target_dim=4)
    x = rand((6, 2, 8, 8), seed=87, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    refs, live = [], []
    pool, backward = nm.maxpool2x2, tr.block_backward

    def pooling(*args, **kwargs):
        out, idx = pool(*args, **kwargs)
        refs.append(weakref.ref(idx))
        return out, idx

    def checking(block, cache, d_out, need_dx=True):
        live.append([ref() is not None for ref in refs])
        return backward(block, cache, d_out, need_dx=need_dx)

    monkeypatch.setattr(nm, "maxpool2x2", pooling)
    monkeypatch.setattr(tr, "block_backward", checking)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert live == [[True, False], [False, False]]


@pytest.mark.parametrize("mode", MODES)
def test_pooled_block_output_is_dead_when_the_next_block_runs(mode, monkeypatch):
    net = small_net(mode, arch="conv3-pool-conv4-pool-fc", input_shape=(2, 8, 8), classes=3, pred_target_dim=4)
    x = rand((6, 2, 8, 8), seed=83, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    refs, live_at_forward = [], []
    forward = tr.block_forward

    def watched(*args, **kwargs):
        live_at_forward.append([ref() is not None for ref in refs])
        h, cache = forward(*args, **kwargs)
        refs.append(weakref.ref(h))
        return h, cache

    monkeypatch.setattr(tr, "block_forward", watched)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    assert live_at_forward == [[], [False]]


@pytest.mark.parametrize("mode, backward", [("glob", "block_backward"), ("predsim", "block_local_backward")])
def test_non_finite_gradient_names_its_layer(mode, backward, monkeypatch):
    # gamma's gradient is an array; the dense weight's is a ProductGrad,
    # poisoned through its g, so adam_step meets the NaN as it makes a block
    x = rand((6, 6, 1, 1), seed=84, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    original = getattr(tr, backward)
    for name in ("gamma", "weight"):
        net = small_net(mode, arch="fc8-fc8-fc8-fc", input_shape=(6, 1, 1), classes=3)

        def poisoned(block, *args, **kwargs):
            result = original(block, *args, **kwargs)
            if block is net.blocks[1]:
                grads = result[0] if isinstance(result, tuple) else result
                (grads[name].g if name == "weight" else grads[name])[0, ...] = np.nan
            return result

        monkeypatch.setattr(tr, backward, poisoned)
        with pytest.raises(NonFiniteError, match=rf"parameter '{name}'\) at layer 1 \({mode}\)$"):
            tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
        # the global sweep stops mid-way: the block above is updated, the one below is not
        t = [b.adam["weight"].t for b in net.blocks]
        assert (t[0], t[2]) == ((0, 1) if mode == "glob" else (1, 0))
        # update_params takes the weight before gamma, and a bad first block moves nothing
        assert t[1] == (0 if name == "weight" else 1)


def test_forward_eval_matches_the_reference_batchnorm_bitwise(monkeypatch):
    net = small_net("predsim", arch="conv3-pool-fc8-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((6, 2, 4, 4), seed=79, dtype=np.float32)
    y = one_hot(np.arange(6) % 3, 3, np.float32)
    tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))  # moves the running stats off their init
    logits = tr.forward_eval(net, x)

    def reference(x, gamma, beta, running_mean, running_var, eps=1e-5, out=None):
        shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
        inv_std = 1.0 / np.sqrt(running_var + eps)
        y = gamma.reshape(shape) * ((x - running_mean.reshape(shape)) * inv_std.reshape(shape)) + beta.reshape(shape)
        if out is None:
            return y
        out[...] = y
        return out

    monkeypatch.setattr(nm, "batchnorm_eval", reference)
    assert np.array_equal(tr.forward_eval(net, x), logits)


@pytest.mark.parametrize("mode", MODES)
def test_heads_match_mode_row(mode):
    # each built block's spec carries its row's parts, and the block has
    # exactly the heads they name, in their shapes: the classifier is the
    # classes wide for ce and the projection wide for bpf, and only a dense
    # sim head has a bias
    row = MODE_TABLE[mode]
    p = tr.TrainConfig(loss=mode).projection_dim
    width = {"ce": 3, "bpf": p}.get(row.pred)
    for arch, input_shape in (("fc8-fc", (6, 1, 1)), ("conv3-fc", (2, 4, 4))):
        net = small_net(mode, arch=arch, input_shape=input_shape, classes=3, pred_target_dim=4)
        (block,) = net.blocks
        assert (block.spec.pred, block.spec.sim) == (row.pred, row.sim)
        dense = block.spec.kind == "dense"
        cls_in = 8 if dense else 3 * 2 * 2  # conv: 3 maps of 4x4, average-pooled by 2 toward 4
        want = {
            "cls_w": (cls_in, width) if row.pred else None,
            "cls_b": (width,) if row.pred else None,
            "sim_w": ((8, 8) if dense else (3, 3, 3, 3)) if row.sim == "head" else None,
            "sim_b": (8,) if dense and row.sim == "head" else None,
            "feedback": (cls_in, p) if row.pred == "bpf" else None,
            "proj": (p, 3) if "bpf" in (row.pred, row.sim) else None,
        }
        got = {name: getattr(block, name) for name in want}
        assert {name: None if t is None else t.shape for name, t in got.items()} == want, arch
        trained = {name for name in ("cls_w", "cls_b", "sim_w", "sim_b") if want[name]}
        assert set(block.adam) == {"weight", "bias", "gamma", "beta"} | trained


def test_non_finite_input_aborts_with_layer():
    net = small_net("predsim", arch="fc8-fc", input_shape=(6, 1, 1), classes=3)
    x = rand((4, 6, 1, 1), seed=76, dtype=np.float32)
    x[0, 0] = np.nan
    y = one_hot(np.arange(4) % 3, 3, np.float32)
    with pytest.raises(NonFiniteError, match="layer 0"):
        tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))


@pytest.mark.parametrize("mode", [m for m in MODES if not MODE_TABLE[m].local])
def test_non_finite_input_aborts_a_global_step_at_the_output_layer(mode):
    # a global mode's blocks run no loss in the forward sweep, so the first
    # loss a NaN reaches is the output layer's, and nothing has moved yet
    net = small_net(mode, arch="conv3-pool-fc8-fc", input_shape=(2, 4, 4), classes=3, pred_target_dim=4)
    x = rand((4, 2, 4, 4), seed=87, dtype=np.float32)
    x[0, 0, 0, 0] = np.nan
    y = one_hot(np.arange(4) % 3, 3, np.float32)
    before = {name: np.array(t) for name, t in tr.state_tensors(net).items()}
    with pytest.raises(NonFiniteError, match=r"^non-finite loss at output layer$"):
        tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    after = tr.state_tensors(net)
    assert all(np.asarray(after[name]).tobytes() == t.tobytes() for name, t in before.items())
    assert all(st.t == 0 for o in net.blocks + [net.out] for st in o.adam.values())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _quick_cfg(**kw):
    base = dict(arch="fc16-fc", epochs=4, lr=5e-3, batch_size=32, seed=1)
    base.update(kw)
    return tr.TrainConfig(**base)


def test_train_deterministic_across_runs(blobs3):
    cfg = _quick_cfg(loss="predsim", dropout=0.1)
    net1, hist1 = tr.train(cfg, blobs3)
    net2, hist2 = tr.train(cfg, blobs3)
    assert tr.metrics_csv(hist1) == tr.metrics_csv(hist2)
    s1, s2 = tr.state_tensors(net1), tr.state_tensors(net2)
    assert list(s1) == list(s2)
    for name in s1:
        assert np.array_equal(np.asarray(s1[name]), np.asarray(s2[name])), name


def test_non_finite_step_names_its_epoch_and_step(blobs3, monkeypatch):
    cfg = _quick_cfg(loss="predsim", epochs=2)
    images = blobs3.images.copy()
    images[77] = np.nan
    poisoned = Dataset(images, blobs3.labels, blobs3.num_classes)
    batches = tr.sample_batches(blobs3.labels, cfg.batch_size, make_rng(cfg.seed, SAMPLER, 0))
    step = next(i for i, b in enumerate(batches) if 77 in b)
    with pytest.raises(NonFiniteError, match=rf"^non-finite loss at layer 0 \(predsim\), epoch 0, step {step}$"):
        tr.train(cfg, poisoned)
    # epochs and steps count from 0, as metrics.csv's epochs do
    calls, train_step = [], tr.train_step

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == len(batches) + 2:
            raise NonFiniteError("non-finite loss at output layer")
        return train_step(*args, **kwargs)

    monkeypatch.setattr(tr, "train_step", failing)
    with pytest.raises(NonFiniteError, match=r"^non-finite loss at output layer, epoch 1, step 1$"):
        tr.train(dataclasses.replace(cfg, loss="glob"), blobs3)


def test_train_learns_separable_blobs(blobs3):
    _, hist = tr.train(_quick_cfg(loss="predsim", epochs=12), blobs3)
    assert hist[-1].train_error < 0.1


def test_train_reports_test_error(blobs3):
    test = tiny_blobs(per_class=10, seed=9)
    _, hist = tr.train(_quick_cfg(loss="sim", epochs=2), blobs3, test)
    assert 0.0 <= hist[-1].test_error <= 1.0
    assert not math.isnan(hist[-1].test_error)


def test_evaluate_is_deterministic_and_chance_level():
    ds = tiny_blobs(classes=10, per_class=60, dim=12, seed=4)
    net = small_net("glob", arch="fc16-fc", input_shape=(12, 1, 1), classes=10, seed=11)
    e1 = tr.evaluate(net, ds)
    e2 = tr.evaluate(net, ds)
    assert e1 == e2
    assert abs(e1 - 0.9) < 0.05  # untrained net guesses


def _recording_forward_eval(monkeypatch):
    """Wrap the trainer's forward_eval; returns the list of (slice, logits) it saw."""
    seen = []
    forward = tr.forward_eval

    def recording(net, x):
        logits = forward(net, x)
        seen.append((len(x), logits))
        return logits

    monkeypatch.setattr(tr, "forward_eval", recording)
    return seen


@pytest.mark.parametrize("batch_size, slices", [(512, [8, 8, 8, 8, 5]), (5, [5] * 7 + [2])])
def test_evaluate_slices_match_a_per_example_reference(batch_size, slices, monkeypatch):
    net = small_net("predsim", arch="conv8-pool-conv16-fc", input_shape=(3, 8, 8), classes=4, pred_target_dim=4)
    x = rand((16, 3, 8, 8), seed=82, dtype=np.float32)
    # moves the running stats
    tr.train_step(net, x, one_hot(np.arange(16) % 4, 4, np.float32), 1e-3, tr.dropout_rngs(0, 0, len(net.blocks)))
    ds = Dataset(rand((37, 3, 8, 8), seed=83, dtype=np.float32), np.arange(37) % 4, 4, "probe")
    reference = np.concatenate([tr.forward_eval(net, ds.images[i : i + 1]) for i in range(len(ds))])
    # the widest activation, block 0's output, is 8*8*8 float32: 2 KiB, so 8 examples fill 16 KiB
    monkeypatch.setattr(nm, "COLS_BUDGET", 16 << 10)
    seen = _recording_forward_eval(monkeypatch)
    err = tr.evaluate(net, ds, batch_size)
    assert [n for n, _ in seen] == slices
    logits = np.concatenate([lg for _, lg in seen])
    assert np.allclose(logits, reference, rtol=1e-5, atol=1e-6)
    assert err == np.mean(reference.argmax(axis=1) != ds.labels)


def test_evaluate_peak_holds_with_the_split_and_the_batch():
    # the benchmark's conv net: block 0's output is 256 KiB an image, so a
    # slice holds 16 of them and never 4 MiB more; the pass peaks at 7.43 MiB
    # (9.89 while each chunk's conv GEMM made a product of its own)
    cfg = tr.TrainConfig(arch="conv64-pool-conv128-pool-fc256-fc", loss="predsim", pred_target_dim=2048, seed=0)
    net = tr.build_network(cfg, (3, 32, 32), 10)
    peaks = []
    for n in (64, 512):
        ds = Dataset(rand((n, 3, 32, 32), seed=84, dtype=np.float32), np.arange(n) % 10, 10, "probe")
        probe = MemoryProbe().watch_evaluate(tr)
        with probe.tracking():
            tr.evaluate(net, ds, batch_size=512)
        peaks += probe.eval_peaks
    assert len(peaks) == 2
    assert max(peaks) < 8 << 20
    assert abs(peaks[0] - peaks[1]) < 1 << 20


def test_evaluate_keeps_the_batch_size_on_a_dense_net(monkeypatch):
    # mlp3x1024 on 28x28 images: 1024 floats per example lets 1024 into the
    # budget, so the 512 cap sets every slice
    net = tr.build_network(tr.TrainConfig(arch="mlp3x1024", loss="predsim-bpf", seed=0), (1, 28, 28), 10)
    ds = Dataset(rand((1100, 1, 28, 28), seed=85, dtype=np.float32), np.arange(1100) % 10, 10, "probe")
    seen = _recording_forward_eval(monkeypatch)
    tr.evaluate(net, ds, batch_size=512)
    assert [n for n, _ in seen] == [512, 512, 76]


def test_evaluate_rejects_an_empty_split():
    net = small_net("glob", arch="fc16-fc", input_shape=(16, 1, 1), classes=3)
    empty = Dataset(np.zeros((0, 16, 1, 1), np.float32), np.zeros(0, np.int64), 3, "blobs/test")
    with pytest.raises(DataError, match="blobs/test"):
        tr.evaluate(net, empty)


@pytest.mark.parametrize("batch_size", [0, -5])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    ds = tiny_blobs(per_class=4, seed=4)
    net = small_net("glob", arch="fc16-fc", input_shape=(16, 1, 1), classes=3)
    with pytest.raises(ConfigError, match="batch size"):
        tr.evaluate(net, ds, batch_size)


def test_metrics_csv_format(blobs3):
    _, hist = tr.train(_quick_cfg(loss="glob", epochs=2), blobs3)
    lines = tr.metrics_csv(hist).strip().split("\n")
    assert lines[0] == "epoch,lr,train_error,test_error,loss_layer_0,loss_layer_1"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 5e-3
    # errors carry 6 decimals; glob mode reports no hidden-layer losses
    assert len(first[2].split(".")[1]) == 6
    assert first[4] == "0.000000"


def test_glob_sim_records_sim_losses(blobs3):
    _, hist = tr.train(_quick_cfg(loss="glob+sim", epochs=1), blobs3)
    assert hist[0].layer_losses[0] > 0.0


def test_build_network_validates_the_spec_it_uses():
    """An out-of-range dropout never reaches a built block (TrainConfig
    checks it as the block spec does), and the built spec cannot be changed
    behind that check."""
    for dropout in (-0.5, 1.5):
        with pytest.raises(ConfigError, match="dropout"):
            small_net("pred", dropout=dropout)
    block = small_net("pred").blocks[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.spec.slope = 0.5


def test_zero_epochs_rejected():
    with pytest.raises(ConfigError):
        _quick_cfg(epochs=0)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        _quick_cfg(batch_size=1)
    with pytest.raises(ConfigError):
        _quick_cfg(dropout=1.0)
    with pytest.raises(ConfigError):
        _quick_cfg(lr=0.0)
    with pytest.raises(ConfigError, match="seed"):
        _quick_cfg(seed=-1)
    with pytest.raises(ConfigError, match="width multiplier"):
        _quick_cfg(width_mult=0)


# each integer setting, with a legal value of it; the net is one the value can build
_INT_SETTINGS = {"epochs": 2, "batch_size": 4, "seed": 1, "width_mult": 2, "projection_dim": 4,
                 "pred_target_dim": 8, "classes_per_batch": 2}


def _int_setting_use(where, name, value):
    """Hand value to where takes it as name: a TrainConfig field (built,
    checked against the data and trained, as a run does), evaluate's batch
    size, or sample_batches' batch size or class limit."""
    ds = tiny_blobs(per_class=4, dim=8, seed=5)
    if where == "evaluate":
        return tr.evaluate(small_net("glob", arch="fc8-fc"), ds, value)
    if where == "sample_batches":
        return tr.sample_batches(ds.labels, rng=make_rng(5), **{"batch_size": 4, name: value})
    arch, loss = ("conv4-fc", "pred") if name == "width_mult" else ("fc8-fc", "predsim-bpf")
    cfg = tr.TrainConfig(arch=arch, loss=loss, **{"epochs": 1, "batch_size": 4, name: value})
    cfg.validate_for(ds)
    return tr.train(cfg, ds)


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"])
@pytest.mark.parametrize("where, name", [*(("TrainConfig", n) for n in _INT_SETTINGS), ("evaluate", "batch_size"),
                                         ("sample_batches", "batch_size"), ("sample_batches", "classes_per_batch")])
def test_integer_settings_must_be_integers(where, name, value):
    # a float, a bool or a string is a ConfigError naming the setting before
    # anything runs; a numpy integer is an integer
    with pytest.raises(ConfigError, match=f"{name} must be an integer, got {re.escape(repr(value))}"):
        _int_setting_use(where, name, value)
    _int_setting_use(where, name, np.int64(_INT_SETTINGS[name]))


@pytest.mark.parametrize("name, value", [*((n, v) for n in ("lr", "dropout", "beta", "slope") for v in ("0.1", True)),
                                         ("lr", None), ("dropout", None)])
def test_real_settings_must_be_real_numbers(name, value):
    # a string once reached a comparison or math.isfinite as a bare
    # TypeError, and a bool lr or beta was taken as 1; None is beta's and
    # slope's default, and a numpy float is a real number
    with pytest.raises(ConfigError, match=f"{name} must be a real number, got {re.escape(repr(value))}"):
        tr.TrainConfig(loss="predsim", **{name: value})
    assert getattr(tr.TrainConfig(loss="predsim", **{name: np.float32(0.25)}), name) == np.float32(0.25)


@pytest.mark.parametrize("classes, dim, match", [
    (4, 8, "'blobs/test' split has 4 classes, the net's output layer 3"),
    (3, 6, r"'blobs/test' split's examples are \(6, 1, 1\), the net's first layer takes 8 features"),
])
def test_a_split_the_net_cannot_score_is_an_error_naming_it(classes, dim, match, monkeypatch):
    # evaluate rejects it before any slice runs; train before its first step
    test = tiny_blobs(classes=classes, per_class=4, dim=dim, seed=6)
    test.name = "blobs/test"
    forward, step = [], []
    monkeypatch.setattr(tr, "forward_eval", lambda *a: forward.append(a))
    monkeypatch.setattr(tr, "train_step", lambda *a: step.append(a))
    with pytest.raises(DataError, match=match):
        tr.evaluate(small_net("glob", arch="fc8-fc"), test)
    cfg = tr.TrainConfig(arch="fc8-fc", loss="glob", epochs=2, batch_size=4)
    with pytest.raises(DataError, match=match):
        tr.train(cfg, tiny_blobs(per_class=4, dim=8, seed=5), test)
    assert forward == [] and step == []


def test_a_conv_net_takes_only_its_input_shape():
    net = small_net("glob", arch="conv4-fc", input_shape=(1, 4, 4), classes=3)
    ds = tiny_blobs(per_class=4, dim=16, seed=6)
    ds.name = "flat"
    with pytest.raises(DataError, match=r"'flat' split's examples are \(16, 1, 1\), .* takes \(1, 4, 4\) examples"):
        tr.evaluate(net, ds)
    ds.images = ds.images.reshape(-1, 1, 4, 4)
    assert 0.0 <= tr.evaluate(net, ds) <= 1.0


@pytest.mark.parametrize("slope", [-1.0, 5.0, float("nan")])
def test_train_config_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ConfigError, match="slope"):
        _quick_cfg(slope=slope)


def test_train_config_slope_bounds_and_mode_default_are_legal():
    for slope in (None, 0.0, 1.0):
        assert _quick_cfg(slope=slope).slope == slope


# ---------------------------------------------------------------------------
# state round-trip
# ---------------------------------------------------------------------------

def test_save_load_network_restores_bitwise(tmp_path, blobs3):
    cfg = _quick_cfg(loss="predsim", epochs=2)
    net, _ = tr.train(cfg, blobs3)
    path = tmp_path / "net.ckpt"
    tr.save_network(net, path)

    clone = small_net("predsim", arch="fc16-fc", input_shape=(16, 1, 1), classes=3, seed=999)
    tr.load_network_state(clone, path)
    for name, arr in tr.state_tensors(net).items():
        clone_arr = tr.state_tensors(clone)[name]
        assert np.array_equal(np.asarray(arr), np.asarray(clone_arr)), name
    assert tr.evaluate(clone, blobs3) == tr.evaluate(net, blobs3)


def test_load_network_rejects_block_count_mismatch(tmp_path, blobs3):
    net, _ = tr.train(_quick_cfg(loss="predsim", epochs=1), blobs3)
    path = tmp_path / "net.ckpt"
    tr.save_network(net, path)
    other = small_net("predsim", arch="fc16-fc16-fc", input_shape=(16, 1, 1), classes=3)
    with pytest.raises(DataError, match="weight layers"):
        tr.load_network_state(other, path)


def test_load_network_rejects_shape_mismatch(tmp_path):
    net = small_net("glob", arch="fc16-fc", input_shape=(8, 1, 1), classes=3)
    path = tmp_path / "net.ckpt"
    tr.save_network(net, path)
    other = small_net("glob", arch="fc32-fc", input_shape=(8, 1, 1), classes=3)
    with pytest.raises(DataError, match="shape"):
        tr.load_network_state(other, path)


def test_plain_skeleton_loads_any_modes_checkpoint(tmp_path, blobs3):
    """Inference ignores the heads, so a glob skeleton accepts them all."""
    for mode in ("predsim", "pred-bpf", "sim-bpf", "glob+sim"):
        net, _ = tr.train(_quick_cfg(loss=mode, epochs=1), blobs3)
        path = tmp_path / f"{mode}.ckpt"
        tr.save_network(net, path)
        plain = small_net("glob", arch="fc16-fc", input_shape=(16, 1, 1), classes=3, seed=5)
        tr.load_network_state(plain, path)
        assert tr.evaluate(plain, blobs3) == tr.evaluate(net, blobs3)
        # slope travels through the file as f32
        assert plain.blocks[0].spec.slope == pytest.approx(net.blocks[0].spec.slope, abs=1e-7)


def test_load_network_rejects_out_of_range_slope(tmp_path):
    net = small_net("glob", arch="fc16-fc", input_shape=(8, 1, 1), classes=3)
    tensors = tr.state_tensors(net)
    tensors["block0.slope"] = np.float32(5.0)
    path = tmp_path / "net.ckpt"
    ly.save_checkpoint(path, tensors, block_count=2)
    with pytest.raises(DataError, match=r"tensor 'block0.slope' holds slope 5.0, outside \[0, 1\]"):
        tr.load_network_state(net, path)
    assert net.blocks[0].spec.slope == 0.0


def test_load_network_rejects_a_slope_that_is_not_one_number(tmp_path):
    net = small_net("glob", arch="fc16-fc", input_shape=(8, 1, 1), classes=3)
    tensors = tr.state_tensors(net)
    tensors["block0.slope"] = np.array([0.1, 0.2], dtype=np.float32)
    path = tmp_path / "net.ckpt"
    ly.save_checkpoint(path, tensors, block_count=2)
    with pytest.raises(DataError, match=r"tensor 'block0.slope' has shape \(2,\), net expects \(\)"):
        tr.load_network_state(net, path)


@pytest.mark.parametrize("bad, error", [
    ("out.bias", DataError),  # a non-finite value in the last tensor loaded
    ("block0.run_var", DataError),  # a negative variance
    ("block0.slope", DataError),  # a slope outside [0, 1]
])
def test_load_network_that_raises_keeps_every_tensor_and_slope(tmp_path, bad, error):
    # the checkpoint's own tensors differ from the net's, so a tensor written
    # before the bad one was found would show
    src = small_net("predsim", arch="fc8-fc", input_shape=(6, 1, 1), classes=3, seed=1, slope=0.2)
    tensors = {name: np.array(t) for name, t in tr.state_tensors(src).items()}
    tensors[bad].flat[0] = {"out.bias": np.nan, "block0.run_var": -1.0, "block0.slope": 5.0}[bad]
    path = tmp_path / "net.ckpt"
    ly.save_checkpoint(path, tensors, block_count=2)
    net = small_net("predsim", arch="fc8-fc", input_shape=(6, 1, 1), classes=3, seed=2)
    before = {name: np.array(t) for name, t in tr.state_tensors(net).items()}
    with pytest.raises(error):
        tr.load_network_state(net, path)
    after = tr.state_tensors(net)
    for name, t in before.items():
        assert np.asarray(after[name]).tobytes() == t.tobytes(), name
    assert [b.spec.slope for b in net.blocks] == [0.01]


def _step_peak(net, x, y) -> int:
    """Traced bytes one applied step peaks at above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.train_step(net, x, y, 1e-3, tr.dropout_rngs(1, 0, len(net.blocks)))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["predsim", "glob", "glob+sim", "sim", "pred"])
def test_conv_step_peak_stays_near_the_first_block_output(mode):
    # the benchmark's conv net and batch, with its dropout and pooling target
    cfg = tr.TrainConfig(arch="conv64-pool-conv128-pool-fc256-fc", loss=mode, dropout=0.2, pred_target_dim=2048, seed=0)
    net = tr.build_network(cfg, (3, 32, 32), 10)
    x = rand((32, 3, 32, 32), seed=110, dtype=np.float32)
    y = one_hot(np.arange(32) % 10, 10, np.float32)
    peak = _step_peak(net, x, y)
    block0_out = 32 * 64 * 32 * 32 * 4
    # the block-0 cache (xhat and the two bit masks) and its output hold
    # 2.25x of it; glob's peak (2.68x) is block 1's conv backward, with
    # block 0's cache still waiting on it (2.94x when block 0's pool
    # backward built a full-size mask for each window position, 3.20x when
    # block 2's 8 MiB weight gradient was made whole; adam_step now makes
    # it a 1 MiB block at a time). In predsim and sim block 0, the largest
    # output, keeps no xhat and pools its output right after its local
    # loss; both peak (2.49x) in block 0's xhat rebuild, the conv of its
    # input, with its output, a lowering chunk's im2col buffer, d and the
    # pooled output live (2.99x while each chunk's GEMM made a product of
    # its own before its rows were copied into the output). The sim head's
    # same-channel conv backward writes its dx over dfeat, which is written
    # over the head's feature map, so it reads 2.47x (3.45x, and the step's
    # peak, while dx had a buffer of its own; 4.45x when the cache kept
    # xhat through it). pred's (3.24x) falls at block 0 too. glob+sim's
    # (3.76x) is block 0's sim loss in the global backward, on the output
    # recomputed from its cache (4.76x while the head's dx had its own
    # buffer; 5.10x when each block's sim dh waited on the trace from the
    # forward sweep)
    bound = {"glob": 2.8, "predsim": 2.55, "glob+sim": 3.85, "sim": 2.55, "pred": 3.5}[mode]
    assert peak < bound * block0_out


QUARTER_VGG8B = "conv32-conv64-pool-conv64-conv128-pool-conv128-pool-conv128-pool-fc256-fc"


def _quarter_vgg8b_peak(mode) -> int:
    cfg = tr.TrainConfig(arch=QUARTER_VGG8B, loss=mode, dropout=0.1, seed=0)
    x = rand((32, 3, 32, 32), seed=113, dtype=np.float32)
    y = one_hot(np.arange(32) % 10, 10, np.float32)
    return _step_peak(tr.build_network(cfg, (3, 32, 32), 10), x, y)


def test_glob_sim_step_peak_stays_near_globs_on_a_quarter_width_vgg8b():
    # glob+sim runs each block's sim loss when the global backward reaches
    # the block, on its output recomputed from the cache, so no block's sim
    # gradient waits on the trace: its step peaks at 42.4 MiB against glob's
    # 36.1 (1.17x; 46.4 against 37.1 while a same-channel conv's dx had a
    # buffer of its own; 59.1 MiB, 1.59x, when the sim loss ran in the
    # forward)
    assert _quarter_vgg8b_peak("glob+sim") < 1.35 * _quarter_vgg8b_peak("glob")


def test_local_step_with_a_sim_head_holds_less_than_glob_on_a_quarter_width_vgg8b():
    # the paper's memory argument at its depth, batch 32 (dropout 0.1):
    # block 1, the largest output, rebuilds xhat in its backward, and each
    # sim head's same-channel conv writes its dx over its gradient, so
    # predsim and sim peak at 26.5 MiB against glob's 36.1, 0.73x (31.6
    # against 37.1 while the head's dx had a buffer of its own; 39.6 each
    # when the cache kept xhat)
    glob = _quarter_vgg8b_peak("glob")
    for mode in ("predsim", "sim"):
        assert _quarter_vgg8b_peak(mode) < 0.75 * glob, mode


@pytest.mark.parametrize("mode, mib", [("pred", 29.09), ("predsim-bpf", 29.59), ("glob", 36.11), ("glob+sim", 42.43)])
def test_modes_that_keep_xhat_keep_their_peak_on_a_quarter_width_vgg8b(mode, mib):
    # these modes keep xhat in every cache; the local ones pool after the
    # update, where the output is not live with the cache and dh (pred and
    # predsim-bpf read 30.57 MiB when every local block pooled right after
    # its local loss). In glob and glob+sim the same-channel trunk convs
    # write their dx over their gradient (37.11 and 46.43 while each had a
    # buffer of its own)
    assert _quarter_vgg8b_peak(mode) < (mib + 0.1) * (1 << 20)


def test_dense_bpf_step_peak_holds_no_gradient_past_its_reader():
    # the benchmark's mlp-bpf net, batch and dropout: a block's head
    # gradients are applied before its backward, its xhat and masks die
    # inside it, adam_step makes its 4 MiB weight gradient 1 MiB at a time
    # and the sim backward works in three buffers, so the step peaks at
    # 3.43 MiB, in block 1's and block 2's local loss (5.53 with the whole
    # weight gradient and the allocating sim backward, 6.56 when the heads
    # and the cache lived through the backward)
    cfg = tr.TrainConfig(arch="mlp3x1024", loss="predsim-bpf", dropout=0.1, seed=0)
    net = tr.build_network(cfg, (1, 28, 28), 10)
    x = rand((128, 1, 28, 28), seed=111, dtype=np.float32)
    y = one_hot(np.arange(128) % 10, 10, np.float32)
    assert _step_peak(net, x, y) < 3.6 * (1 << 20)


def _reference_local_loss(net, block, h, y):
    """local_block_loss with each part's dh in an array of its own, summed
    by combine."""
    row = MODE_TABLE[net.mode]
    wp, ws = (1.0 - net.beta, net.beta) if row.pred and row.sim else (1.0, 1.0)
    parts = []
    if row.sim == "head":
        parts.append(ls.sim_loss(h, y, block.sim_w, block.sim_b, weight=ws))
    elif row.sim == "bpf":
        parts.append(ls.sim_bpf_loss(h, block.proj @ y.T, weight=ws))
    if row.pred == "ce":
        parts.append(ls.pred_loss(h, y, block.cls_w, block.cls_b, block.spec.pool_k, weight=wp))
    elif row.pred == "bpf":
        t = ls.binarized_targets(block.proj, y, h.dtype)
        parts.append(ls.pred_bpf_loss(h, t, block.cls_w, block.cls_b, block.feedback, block.spec.pool_k, weight=wp))
    return parts[0] if len(parts) == 1 else ls.combine(parts[1], parts[0], net.beta)


def _reference_step(net, x, y, lr, rngs):
    """A step in the order of the arithmetic, holding everything to the
    end: each block's head gradients join its trunk's in one update after
    its backward. Returns the losses and the predictions."""
    row = MODE_TABLE[net.mode]
    a, losses, trace = x, [], []
    for k, block in enumerate(net.blocks):
        a, cache = ly.block_forward(block, a, train=True, rng=rngs[k])
        res = _reference_local_loss(net, block, a, y) if row.pred or row.sim else None
        losses.append(0.0 if res is None else res.loss)
        trace.append([k, cache, res, None])
        if block.spec.pool:
            a, trace[-1][3] = nm.maxpool2x2(a)
    flat = a.reshape(len(a), -1)
    logits = flat @ net.out.weight + net.out.bias
    out_loss, dlogits = nm.cross_entropy_logits(logits, y)
    d, dw = nm.matmul_backward(flat, net.out.weight, dlogits)
    ly.update_params(net.out, {"weight": dw, "bias": dlogits.sum(axis=0)}, lr)
    d = None if row.local else d.reshape(a.shape)
    for k, cache, res, idx in reversed(trace):
        if row.local:
            grads = ly.block_backward(net.blocks[k], cache, res.dh, need_dx=False)[0]
        else:
            if idx is not None:
                d = nm.maxpool2x2_backward(d, idx)
            if res is not None:
                d = d + res.dh
            grads, d = ly.block_backward(net.blocks[k], cache, d, need_dx=k > 0)
        ly.update_params(net.blocks[k], {**grads, **(res.grads if res else {})}, lr)
        net.blocks[k].fold_stats(*cache.stats)
    return losses + [out_loss], logits.argmax(axis=1)


@pytest.mark.parametrize("mode", MODES)
def test_step_trains_the_bytes_of_the_reference_order(mode):
    # a conv net with dropout whose pred heads pool by 2, then not at all,
    # and a dense block: 3 steps of train_step leave every parameter, Adam
    # moment and running stat, and report every loss and prediction, bit
    # for bit as the reference does
    nets = [small_net(mode, arch="conv8-pool-conv12-pool-fc16-fc", input_shape=(3, 8, 8), classes=4,
                      dropout=0.2, pred_target_dim=100, seed=12) for _ in range(2)]
    assert [b.spec.pool_k for b in nets[0].blocks] == ([2, 1, 1] if MODE_TABLE[mode].pred else [1, 1, 1])
    x = rand((10, 3, 8, 8), seed=112, dtype=np.float32)
    y = one_hot(np.arange(10) % 4, 4, np.float32)
    for step in range(3):
        res = tr.train_step(nets[0], x, y, 1e-3, tr.dropout_rngs(2, step, 3))
        losses, predictions = _reference_step(nets[1], x, y, 1e-3, tr.dropout_rngs(2, step, 3))
        assert res.losses == losses and np.array_equal(res.predictions, predictions)
    got, want = (tr.state_tensors(net) for net in nets)
    for name in want:
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
    for mine, theirs in zip(nets[0].blocks + [nets[0].out], nets[1].blocks + [nets[1].out]):
        for name, state in theirs.adam.items():
            other = mine.adam[name]
            assert (other.t, other.m.tobytes(), other.v.tobytes()) == (state.t, state.m.tobytes(), state.v.tobytes())
