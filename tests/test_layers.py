"""Blocks, initialization, Adam, and the checkpoint container."""

import dataclasses
import math
import struct
import weakref

import numpy as np
import pytest

import locallearn.layers as ly
import locallearn.numerics as nm
from locallearn.errors import ConfigError, DataError, InputError, NonFiniteError, ShapeError
from locallearn.losses import local_block_loss
from locallearn.numerics import one_hot
from locallearn.rng import make_rng

from conftest import packed_shape, rand, unpacked


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude():
    p = np.zeros(1)
    st = ly.AdamState.for_param(p)
    ly.adam_step(p, np.ones(1), st, lr=1e-3)
    # bias correction makes the first step almost exactly -lr
    assert p[0] == pytest.approx(-1e-3, rel=1e-6)
    assert st.t == 1


def test_adam_zero_grad_no_move():
    p = np.full(3, 0.5)
    ly.adam_step(p, np.zeros(3), ly.AdamState.for_param(p), lr=1e-3)
    assert np.array_equal(p, np.full(3, 0.5))


def test_adam_fixed_gradient_limit():
    p = np.zeros(1)
    st = ly.AdamState.for_param(p)
    prev = p.copy()
    for _ in range(500):
        prev = p.copy()
        ly.adam_step(p, np.ones(1), st, lr=1e-3)
    assert abs(prev[0] - p[0]) == pytest.approx(1e-3, rel=0.05)


def test_adam_rejects_non_finite_grad():
    p = np.zeros(2)
    with pytest.raises(NonFiniteError):
        ly.adam_step(p, np.array([1.0, np.nan]), ly.AdamState.for_param(p), lr=1e-3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_adam_rejects_infinite_grad(bad):
    p = np.zeros(3, dtype=np.float32)
    st = ly.AdamState.for_param(p)
    with pytest.raises(NonFiniteError):
        ly.adam_step(p, np.array([1.0, bad, 2.0], dtype=np.float32), st, lr=1e-3)
    assert st.t == 0 and not p.any() and not st.m.any()


def _allocating_adam(param, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state.t += 1
    root = math.sqrt(1.0 - beta2**state.t)
    alpha, eps_hat = lr * root / (1.0 - beta1**state.t), eps * root
    state.m += (1.0 - beta1) * (grad - state.m)
    state.v += (1.0 - beta2) * (grad * grad - state.v)
    param -= state.m * alpha / (np.sqrt(state.v) + eps_hat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_folded_adam_is_the_bias_corrected_step(dtype):
    # the folded scalars give lr * mhat / (sqrt(vhat) + eps) up to rounding
    p = rand((64,), seed=69, dtype=dtype)
    q = p.astype(np.float64)
    st, m, v = ly.AdamState.for_param(p), np.zeros(64), np.zeros(64)
    for t in range(1, 8):
        g = rand(p.shape, seed=80 + t, dtype=dtype, scale=10.0 ** (t % 3 - 1))
        ly.adam_step(p, g, st, 1e-2)
        m += 0.1 * (g - m)
        v += 0.001 * (g.astype(np.float64) ** 2 - v)
        q -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.allclose(p, q, rtol=0, atol=1e-5 if dtype == np.float32 else 1e-12)


@pytest.mark.parametrize("chunk", [nm.ROW_BLOCK, 8, 4])  # one block; blocks with a ragged last one
@pytest.mark.parametrize("shape", [(9, 3), (9,), (3, 2, 3, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_allocating_oracle_bitwise(dtype, shape, chunk, monkeypatch):
    monkeypatch.setattr(nm, "ROW_BLOCK", chunk)
    p = rand(shape, seed=70, dtype=dtype)
    q = p.copy()
    st, ref = ly.AdamState.for_param(p), ly.AdamState.for_param(q)
    for t in range(12):
        g = rand(p.shape, seed=71 + t, dtype=dtype, scale=10.0 ** (t % 4 - 2))
        lr = 2e-3 * 0.25 ** (t // 5)
        ly.adam_step(p, g, st, lr)
        _allocating_adam(q, g, ref, lr)
        assert st.t == ref.t
        for got, want in ((p, q), (st.m, ref.m), (st.v, ref.v)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, fan_in, units, chunk, dtype", [
    (128, 1024, 1024, None, np.float32),  # mlp-bpf's dense blocks
    (32, 8192, 256, None, np.float32),  # conv-glob's fc256
    (512, 1024, 1024, None, np.float32),
    (128, 1025, 1024, None, np.float32),  # blocks of 256, 256, 256, 255 and 2 rows
    (7, 9, 3, 4, np.float32),  # blocks of 4, 3 and 2 rows: no block is one row
    (7, 9, 3, 8, np.float64),  # blocks of 8 and 1 row, which become 7 and 2
    (6, 23, 5, 4, np.float64),
    (5, 33, 1, 4, np.float64),  # one column, made whole
    (3, 2, 7, 4, np.float32),
])
def test_adam_on_a_gradient_product_matches_the_whole_product_bitwise(n, fan_in, units, chunk, dtype, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(nm, "ROW_BLOCK", chunk)
    p = rand((fan_in, units), seed=140, dtype=dtype, scale=0.1)
    q = p.copy()
    st, ref = ly.AdamState.for_param(p), ly.AdamState.for_param(q)
    for t in range(3):
        a = rand((n, fan_in), seed=141 + t, dtype=dtype)
        g = rand((n, units), seed=151 + t, dtype=dtype, scale=10.0 ** (t - 2))
        ly.adam_step(p, ly.ProductGrad(a, g), st, 1e-3)
        ly.adam_step(q, a.T @ g, ref, 1e-3)
        assert st.t == ref.t == t + 1
        for got, want in ((p, q), (st.m, ref.m), (st.v, ref.v)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("product", [False, True])
def test_adam_applies_the_blocks_before_a_non_finite_one(product, monkeypatch):
    # ROW_BLOCK 4 on a (9, 3) weight: passes of 1 row, checked blocks of
    # rows 0-3, 4-6 and 7-8. A NaN in row 0 moves nothing; one in row 8
    # leaves the first two blocks applied and the last as it was
    monkeypatch.setattr(nm, "ROW_BLOCK", 4)
    for bad_row, moved in ((0, 0), (8, 7)):
        a = rand((5, 9), seed=160, dtype=np.float32)
        g = rand((5, 3), seed=161, dtype=np.float32)
        a[2, bad_row] = np.nan
        p = rand((9, 3), seed=162, dtype=np.float32)
        before, st = p.copy(), ly.AdamState.for_param(p)
        with pytest.raises(NonFiniteError):
            ly.adam_step(p, ly.ProductGrad(a, g) if product else a.T @ g, st, 1e-3)
        assert st.t == (1 if moved else 0)
        assert (p[:moved] != before[:moved]).all() and p[moved:].tobytes() == before[moved:].tobytes()
        assert st.m[:moved].all() and not st.m[moved:].any() and not st.v[moved:].any()


def test_adam_rejects_shape_mismatch():
    p = np.zeros(2)
    with pytest.raises(ShapeError):
        ly.adam_step(p, np.zeros(3), ly.AdamState.for_param(p), lr=1e-3)
    w = np.zeros((4, 2))
    with pytest.raises(ShapeError, match=r"\(4, 3\)"):
        ly.adam_step(w, ly.ProductGrad(np.zeros((5, 4)), np.zeros((5, 3))), ly.AdamState.for_param(w), lr=1e-3)
    with pytest.raises(ShapeError, match="factors"):
        ly.ProductGrad(np.zeros((5, 4)), np.zeros((6, 2)))


def test_update_params_names_offending_tensor():
    spec = ly.LayerSpec("dense", (4,), units=3)
    block = ly.init_params(spec, make_rng(0))
    bad = {"weight": np.full_like(block.weight, np.inf)}
    with pytest.raises(NonFiniteError, match="weight"):
        ly.update_params(block, bad, 1e-3)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_dense_bounds_and_zero_bias():
    spec = ly.LayerSpec("dense", (784,), units=1024)
    block = ly.init_params(spec, make_rng(1))
    assert block.weight.shape == (784, 1024)
    assert np.max(np.abs(block.weight)) < np.sqrt(1.0 / 784)
    assert np.all(block.bias == 0.0)
    assert np.all(block.gamma == 1.0) and np.all(block.beta == 0.0)
    assert np.all(block.run_mean == 0.0) and np.all(block.run_var == 1.0)


def test_init_is_seed_deterministic():
    spec = ly.LayerSpec("dense", (32,), units=16, pred="ce", sim="head", classes=10)
    b1 = ly.init_params(spec, make_rng(7))
    b2 = ly.init_params(spec, make_rng(7))
    for name in ("weight", "cls_w", "cls_b", "sim_w", "sim_b"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name)), name


def test_init_conv_shapes_and_heads():
    spec = ly.LayerSpec("conv", (3, 8, 8), channels=5, pred="bpf", sim="head",
                        projection=6, classes=4, pred_target_dim=16)
    block = ly.init_params(spec, make_rng(2))
    assert block.weight.shape == (5, 3, 3, 3)
    assert block.sim_w.shape == (5, 5, 3, 3)    # same-channel head, no bias
    assert block.sim_b is None
    assert block.feedback.shape == block.cls_w.shape
    assert block.proj.shape == (6, 4)
    assert block.spec.pool_k == 4  # 5 maps of 8x8 pooled by 4 leave 20 >= 16 inputs, by 8 leave 5
    assert block.cls_w.shape == (block.spec.cls_in, 6) == (20, 6)
    # fixed tensors carry no optimizer state
    assert "feedback" not in block.adam and "proj" not in block.adam


@pytest.mark.parametrize("slope", [-1.0, -1e-9, 1.5, 5.0, float("nan"), float("inf")])
def test_spec_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ConfigError, match="slope"):
        ly.LayerSpec("dense", (4,), units=3, slope=slope)


@pytest.mark.parametrize("dropout", [-0.5, 1.0, 1.5])
def test_spec_rejects_dropout_outside_its_range(dropout):
    with pytest.raises(ConfigError, match="dropout"):
        ly.LayerSpec("dense", (4,), units=3, dropout=dropout)


@pytest.mark.parametrize("fields, name", [
    (dict(in_shape=(2,), units=ly.MAX_WEIGHT_ELEMENTS // 2 + 1), "weight"),
    (dict(units=2**31, sim="head"), "sim_w"),
    (dict(units=2**59, pred="ce", classes=4), "cls_w"),
    (dict(pred="bpf", projection=2**59, classes=4), "cls_w"),
    (dict(sim="bpf", projection=2**59, classes=4), "proj"),
])
def test_spec_rejects_a_weight_numpy_cannot_hold(fields, name):
    # the count alone is checked: nothing is allocated
    spec = dict(kind="dense", in_shape=(1,), units=3) | fields
    with pytest.raises(ConfigError, match=f"^a {name} of [0-9]+ elements is more than numpy can hold$"):
        ly.LayerSpec(**spec)
    # a weight of exactly the bound is no error
    ly.LayerSpec("dense", (1,), units=ly.MAX_WEIGHT_ELEMENTS)


def test_spec_slope_bounds_are_legal_and_replace_rechecks():
    specs = [ly.LayerSpec("dense", (4,), units=3, slope=slope) for slope in (0.0, 0.01, 1.0)]
    with pytest.raises(ConfigError):
        dataclasses.replace(specs[1], slope=5.0)


def test_init_rejects_bad_spec():
    with pytest.raises(ConfigError):
        ly.LayerSpec("dense", (4,), units=0)
    with pytest.raises(ConfigError):
        ly.LayerSpec("what", (4,), units=3)
    for parts in (dict(pred="xx"), dict(sim="xx"), dict(pred="head"), dict(sim="ce")):
        with pytest.raises(ConfigError, match="unknown local-loss part"):
            ly.LayerSpec("dense", (4,), units=3, classes=3, projection=2, **parts)
    for parts in (dict(pred="bpf"), dict(sim="bpf"), dict(pred="ce", sim="bpf")):
        with pytest.raises(ConfigError, match="projection >= 1"):
            ly.LayerSpec("dense", (4,), units=3, classes=3, projection=0, **parts)
    # the parts that read the labels' width need two classes, as parse_arch does
    for parts in (dict(pred="ce"), dict(pred="bpf"), dict(sim="bpf"), dict(pred="ce", sim="head")):
        for classes in (0, 1):
            with pytest.raises(ConfigError, match=f"needs at least 2 classes, got {classes}"):
                ly.LayerSpec("dense", (4,), units=3, classes=classes, projection=2, **parts)
    ly.LayerSpec("dense", (4,), units=3, sim="head")  # a sim head never reads the labels' width
    with pytest.raises(ConfigError):
        ly.LayerSpec("dense", (4,), units=3, pool=True)  # a pool follows only a conv block


def _pred_conv(channels, side, target):
    return ly.LayerSpec("conv", (3, side, side), channels=channels, pred="ce", classes=10, pred_target_dim=target)


def test_spec_pool_k_cases():
    # the largest kernel dividing the extent that leaves pred_target_dim inputs
    assert _pred_conv(128, 16, 2048).pool_k == 4   # 128*4*4 exact
    assert _pred_conv(1024, 1, 1024).pool_k == 1
    assert _pred_conv(512, 8, 1024).pool_k == 4    # k=8 would leave 512
    assert _pred_conv(8, 4, 1024).pool_k == 1      # nothing reaches the target
    assert _pred_conv(128, 16, 2048).cls_in == 2048
    # no pred part, or a dense block, means no pool
    assert ly.LayerSpec("conv", (3, 16, 16), channels=128, sim="head", pred_target_dim=2048).pool_k == 1
    assert ly.LayerSpec("dense", (4,), units=3, pred="ce", classes=3, pred_target_dim=1).pool_k == 1


def test_spec_checks_a_conv_pred_parts_pool():
    with pytest.raises(ConfigError, match="square activations, got 6x8"):
        ly.LayerSpec("conv", (3, 6, 8), channels=4, pred="ce", classes=3)
    with pytest.raises(ConfigError, match="pred_target_dim must be >= 1, got 0"):
        _pred_conv(4, 8, 0)
    # the square check is the pred part's: without one, or on a dense block, it does not apply
    ly.LayerSpec("conv", (3, 6, 8), channels=4, sim="head")
    spec = ly.LayerSpec("dense", (4,), units=3, pred="ce", classes=3, pred_target_dim=1)
    assert ly.init_params(spec, make_rng(4)).cls_w.shape == (3, 3)


@pytest.mark.parametrize("kw", [
    dict(kind="dense", in_shape=(4,), units=3, pred="ce", classes=3),  # a pred part that never pools
    dict(kind="dense", in_shape=(4,), units=3),
    dict(kind="conv", in_shape=(3, 6, 8), channels=4, sim="head"),
])
def test_spec_rejects_pred_target_dim_below_one_on_every_block(kw):
    # as TrainConfig does, whether or not the block reads it
    with pytest.raises(ConfigError, match="pred_target_dim must be >= 1, got 0"):
        ly.LayerSpec(**kw, pred_target_dim=0)


# ---------------------------------------------------------------------------
# block forward / backward
# ---------------------------------------------------------------------------

def _dense_block(din=4, units=4, dropout=0.0, slope=0.0, seed=3):
    spec = ly.LayerSpec("dense", (din,), units=units, dropout=dropout, slope=slope)
    return ly.init_params(spec, make_rng(seed))


def test_block_forward_eval_ignores_rng():
    block = _dense_block(dropout=0.2)
    x = rand((6, 4), seed=62, dtype=np.float32)
    y1, _ = ly.block_forward(block, x, train=False)
    y2, _ = ly.block_forward(block, x, train=False)
    assert np.array_equal(y1, y2)


def test_block_forward_train_same_seed_identical():
    block = _dense_block(dropout=0.3)
    x = rand((6, 4), seed=63, dtype=np.float32)
    run1 = ly.block_forward(block, x, train=True, rng=make_rng(9))[0]
    block.run_mean[:] = 0.0
    block.run_var[:] = 1.0
    run2 = ly.block_forward(block, x, train=True, rng=make_rng(9))[0]
    assert np.array_equal(run1, run2)


def test_block_forward_identity_weight_is_relu():
    # identity weight + already-normalized input: batchnorm is a near no-op
    block = _dense_block()
    block.weight = np.eye(4)
    x = rand((64, 4), seed=64)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    y, _ = ly.block_forward(block, x, train=True, rng=make_rng(0))
    assert np.max(np.abs(y - np.maximum(x, 0.0))) < 1e-3


@pytest.mark.parametrize("rebuild", [False, True])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_cache_keeps_a_bool_sign_mask_and_no_float_copy(kind, rebuild):
    if kind == "dense":
        block = ly.init_params(ly.LayerSpec("dense", (4,), units=5, slope=0.01, rebuild_xhat=rebuild), make_rng(3))
        x = rand((6, 4), seed=65, dtype=np.float32)
        pre = x @ block.weight + block.bias
    else:
        block = ly.init_params(ly.LayerSpec("conv", (2, 4, 4), channels=3, slope=0.01, rebuild_xhat=rebuild), make_rng(4))
        x = rand((3, 2, 4, 4), seed=66, dtype=np.float32)
        pre = nm.conv2d(x, block.weight) + block.bias[None, :, None, None]
    y, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    bn_out = nm.batchnorm_train(pre, block.gamma, block.beta)[0]
    # the sign mask as bits: uint8, ceil(row/8) bytes for each example
    assert cache.positive.dtype == np.uint8 and cache.positive.shape == packed_shape(y.shape)
    assert np.array_equal(unpacked(cache.positive, y.shape), bn_out >= 0)
    # of the activation's size, the cache holds xhat alone in floats, and
    # nothing when the backward rebuilds it
    floats = [v for v in vars(cache).values() if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
    assert [v is cache.xhat for v in floats if v.shape == y.shape] == ([] if rebuild else [True])
    # at 0 the relu takes the x >= 0 branch: gamma = beta = 0 makes every output 0
    block.gamma[:] = 0.0
    _, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    assert unpacked(cache.positive, y.shape).all()


def test_block_forward_shape_mismatch():
    block = _dense_block()
    with pytest.raises(ShapeError):
        ly.block_forward(block, np.ones((2, 5)), train=False)


def test_block_forward_train_needs_rng_when_dropping():
    block = _dense_block(dropout=0.5)
    with pytest.raises(ConfigError):
        ly.block_forward(block, np.ones((4, 4), dtype=np.float32), train=True)


def test_running_stats_move_only_in_train():
    block = _dense_block()
    x = rand((16, 4), seed=65, dtype=np.float32) + 3.0
    before = block.run_mean.copy()
    ly.block_forward(block, x, train=False)
    assert np.array_equal(block.run_mean, before)
    # a train forward hands its batch stats back; the update folds them in
    _, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    assert np.array_equal(block.run_mean, before)
    block.fold_stats(*cache.stats)
    assert not np.array_equal(block.run_mean, before)


def test_batch_of_one_rejected_in_train():
    block = _dense_block()
    with pytest.raises(InputError):
        ly.block_forward(block, np.ones((1, 4), dtype=np.float32), train=True, rng=make_rng(0))


def _whole(g):
    """A gradient as an array: a dense weight's ProductGrad made whole."""
    return g.whole() if isinstance(g, ly.ProductGrad) else g


def test_block_local_backward_zero_grad_gives_zero():
    block = _dense_block()
    x = rand((5, 4), seed=66)
    h, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    grads = ly.block_local_backward(block, cache, np.zeros_like(h))
    for name, g in grads.items():
        assert np.all(_whole(g) == 0.0), name


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_backward_without_dx_gives_the_same_weight_grads(kind):
    if kind == "dense":
        block, x = _dense_block(din=6, units=5), rand((7, 6), seed=67, dtype=np.float32)
    else:
        block = ly.init_params(ly.LayerSpec("conv", (2, 5, 7), channels=3), make_rng(4))
        x = rand((4, 2, 5, 7), seed=68, dtype=np.float32)
    h, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    d_out = rand(h.shape, seed=69, dtype=np.float32)
    # block_backward takes over d_out and the cache, so each call gets a
    # copy of d_out and a cache of its own, from the same forward
    full, dx = ly.block_backward(block, cache, d_out.copy())
    _, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    weights_only, no_dx = ly.block_backward(block, cache, d_out.copy(), need_dx=False)
    assert dx.shape == x.shape and no_dx is None
    assert full.keys() == weights_only.keys()
    # with dx, a conv weight gradient comes from conv2d_backward; a dense
    # one is the same product either way
    for name in full:
        assert np.array_equal(_whole(full[name]), _whole(weights_only[name])), name


@pytest.mark.parametrize("rebuild", [False, True])
@pytest.mark.parametrize("slope", [0.0, 0.01])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_output_is_the_train_forwards_output_bytes(kind, dropout, slope, rebuild):
    # recomputed from the cache by the forward's own ops, signed zeros and
    # all, with gamma, beta and the bias moved off their init so all take
    # part; from an xhat rebuilt from the input when the cache keeps none
    if kind == "dense":
        spec = ly.LayerSpec("dense", (6,), units=5, dropout=dropout, slope=slope, rebuild_xhat=rebuild)
        x = rand((7, 6), seed=75, dtype=np.float32)
    else:
        spec = ly.LayerSpec("conv", (2, 5, 7), channels=3, dropout=dropout, slope=slope, rebuild_xhat=rebuild)
        x = rand((4, 2, 5, 7), seed=76, dtype=np.float32)
    block = ly.init_params(spec, make_rng(9))
    block.gamma[...] = rand(block.gamma.shape, seed=77, dtype=np.float32)
    block.beta[...] = rand(block.beta.shape, seed=78, dtype=np.float32)
    block.bias[...] = rand(block.bias.shape, seed=79, dtype=np.float32)
    h, cache = ly.block_forward(block, x, train=True, rng=make_rng(1))
    got = ly.block_output(block, cache)
    assert got.dtype == h.dtype and got.shape == h.shape and got.tobytes() == h.tobytes()
    assert (cache.mask is None) == (dropout == 0.0) and (cache.xhat is None) == rebuild  # the cache is left as it was


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_backward_on_a_rebuilt_xhat_gives_the_kept_ones_bytes(kind, dtype, need_dx):
    # the same block run with and without rebuild_xhat, with a nonzero bias,
    # dropout and a slope: the forward's own ops rebuild xhat bit for bit,
    # so every gradient and dx is the same bytes
    if kind == "dense":
        spec = ly.LayerSpec("dense", (6,), units=5, dropout=0.3, slope=0.01)
        x = rand((7, 6), seed=90, dtype=dtype)
    else:
        spec = ly.LayerSpec("conv", (2, 5, 7), channels=3, dropout=0.3, slope=0.01)
        x = rand((4, 2, 5, 7), seed=91, dtype=dtype)
    kept = ly.init_params(spec, make_rng(10), dtype=dtype)
    kept.bias[...] = rand(kept.bias.shape, seed=92, dtype=dtype)
    kept.gamma[...] = rand(kept.gamma.shape, seed=93, dtype=dtype)
    rebuilt = dataclasses.replace(kept, spec=dataclasses.replace(spec, rebuild_xhat=True))
    results = []
    for block in (kept, rebuilt):
        h, cache = ly.block_forward(block, x, train=True, rng=make_rng(2))
        assert (cache.xhat is None) == (block is rebuilt)
        grads, dx = ly.block_backward(block, cache, rand(h.shape, seed=94, dtype=dtype), need_dx=need_dx)
        results.append((h, {name: _whole(g) for name, g in grads.items()}, dx))
    (h, want, want_dx), (got_h, got, dx) = results
    assert got_h.tobytes() == h.tobytes()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == dtype and got[name].tobytes() == want[name].tobytes(), name
    assert (dx is None and want_dx is None) if not need_dx else dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("rebuild", [False, True])
def test_a_block_cache_goes_through_one_backward_only(rebuild):
    # a used cache has lost its masks; one that rebuilds xhat never had one,
    # so the second backward would otherwise rebuild it and run again
    spec = ly.LayerSpec("conv", (2, 5, 7), channels=3, dropout=0.3, rebuild_xhat=rebuild)
    block = ly.init_params(spec, make_rng(11))
    h, cache = ly.block_forward(block, rand((4, 2, 5, 7), seed=95, dtype=np.float32), train=True, rng=make_rng(3))
    ly.block_backward(block, cache, np.ones_like(h))
    with pytest.raises(InputError, match="one backward only"):
        ly.block_backward(block, cache, np.ones_like(h))
    with pytest.raises(InputError, match="one backward only"):
        ly.block_local_backward(block, cache, np.ones_like(h))


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_backward_takes_over_d_out(kind):
    if kind == "dense":
        block = ly.init_params(ly.LayerSpec("dense", (6,), units=5, dropout=0.3), make_rng(5))
        x = rand((7, 6), seed=70, dtype=np.float32)
    else:
        block = ly.init_params(ly.LayerSpec("conv", (2, 5, 7), channels=3, dropout=0.3), make_rng(6))
        x = rand((4, 2, 5, 7), seed=71, dtype=np.float32)
    h, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    d_out = rand(h.shape, seed=72, dtype=np.float32)
    saved = d_out.copy()
    want, want_dx = ly.block_backward(block, cache, saved.copy())
    _, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))  # the first call took the cache over
    got, dx = ly.block_backward(block, cache, d_out)
    assert not np.array_equal(d_out, saved)  # written over, not copied
    assert dx.tobytes() == want_dx.tobytes()
    for name in want:
        assert _whole(got[name]).tobytes() == _whole(want[name]).tobytes(), name


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_block_backward_releases_each_cache_field_after_its_reader(kind, need_dx, monkeypatch):
    # the dropout mask dies before the leaky relu backward runs, the sign
    # mask before the batchnorm backward, and xhat before the GEMMs (a dense
    # block's dx alone: adam_step makes its weight gradient); each such
    # field of the cache is None afterwards
    if kind == "dense":
        block = ly.init_params(ly.LayerSpec("dense", (6,), units=5, dropout=0.3), make_rng(7))
        x = rand((7, 6), seed=73, dtype=np.float32)
        gemms = ("matmul",) if need_dx else ()
    else:
        block = ly.init_params(ly.LayerSpec("conv", (2, 5, 7), channels=3, dropout=0.3), make_rng(8))
        x = rand((4, 2, 5, 7), seed=74, dtype=np.float32)
        gemms = ("conv2d_backward",) if need_dx else ("conv2d_weight_grad",)
    h, cache = ly.block_forward(block, x, train=True, rng=make_rng(0))
    fields = ("mask", "positive", "xhat")
    refs = {name: weakref.ref(getattr(cache, name)) for name in fields}
    live = {}

    def watching(name, kernel):
        def watched(*args, **kwargs):
            live[name] = [f for f in fields if refs[f]() is not None]
            return kernel(*args, **kwargs)

        return watched

    for name in ("leaky_relu_backward", "batchnorm_backward") + gemms:
        monkeypatch.setattr(nm, name, watching(name, getattr(nm, name)))
    ly.block_backward(block, cache, rand(h.shape, seed=75, dtype=np.float32), need_dx=need_dx)
    assert live.pop("leaky_relu_backward") == ["positive", "xhat"]
    assert live.pop("batchnorm_backward") == ["xhat"]
    assert all(v == [] for v in live.values()) and len(live) == len(gemms)
    assert [getattr(cache, f) for f in fields] == [None, None, None]
    assert cache.x is not None and cache.stats is not None


def test_one_step_decreases_local_loss_statistically():
    """One Adam step on a repeated batch lowers that batch's loss, 19/20 seeds."""
    y = one_hot(np.arange(8) % 4, 4, np.float64)
    wins = 0
    for seed in range(20):
        spec = ly.LayerSpec("dense", (6,), units=16, pred="ce", sim="head", classes=4)
        block = ly.init_params(spec, make_rng(1000 + seed), dtype=np.float64)
        x = make_rng(2000 + seed).standard_normal((8, 6))

        def batch_loss(apply):
            h, cache = ly.block_forward(block, x, train=True)
            res = local_block_loss(block, h, y, 0.99)
            if apply:
                grads = ly.block_local_backward(block, cache, res.dh)
                grads.update(res.grads)
                ly.update_params(block, grads, 1e-3)
            return res.loss

        before = batch_loss(apply=True)
        after = batch_loss(apply=False)
        wins += after < before
    assert wins >= 19


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    path = tmp_path / "net.ckpt"
    tensors = {
        "block0.weight": rand((3, 4), seed=67, dtype=np.float32),
        "block0.slope": np.float32(0.01),
        "out.bias": rand((4,), seed=68, dtype=np.float32),
    }
    ly.save_checkpoint(path, tensors, block_count=2)
    loaded, count = ly.load_checkpoint(path)
    assert count == 2
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(np.asarray(loaded[name]), np.asarray(tensors[name])), name
    assert loaded["block0.slope"].shape == ()

    twice = tmp_path / "again.ckpt"
    ly.save_checkpoint(twice, loaded, block_count=2)
    assert path.read_bytes() == twice.read_bytes()


def test_checkpoint_magic_and_version(tmp_path):
    path = tmp_path / "net.ckpt"
    ly.save_checkpoint(path, {"a": np.zeros(2, np.float32)}, block_count=1)
    raw = path.read_bytes()
    assert raw[:4] == b"LLRN"

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataError, match="magic"):
        ly.load_checkpoint(bad)


def test_checkpoint_truncation_names_offset(tmp_path):
    path = tmp_path / "net.ckpt"
    ly.save_checkpoint(path, {"a": np.zeros(64, np.float32)}, block_count=1)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:40])
    with pytest.raises(DataError, match="truncated at byte"):
        ly.load_checkpoint(cut)


def test_checkpoint_absurd_extents_name_offset(tmp_path):
    # 2**62 * 4 elements wrap to 0 in an int64 product
    name = b"a"
    raw = (b"LLRN" + struct.pack("<II", ly.CKPT_VERSION, 1) + struct.pack("<I", len(name)) + name
           + struct.pack("<I", 2) + struct.pack("<2Q", 2**62, 4) + bytes(16))
    path = tmp_path / "huge.ckpt"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=f"at byte {len(raw) - 16}"):
        ly.load_checkpoint(path)


def _checkpoint_bytes(*names):
    """A checkpoint holding one rank-0 tensor per raw name."""
    raw = b"LLRN" + struct.pack("<II", ly.CKPT_VERSION, 1)
    for name in names:
        raw += struct.pack("<I", len(name)) + name + struct.pack("<I", 0) + bytes(4)
    return raw


def test_checkpoint_name_that_is_not_utf8_names_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_checkpoint_bytes(b"a", b"block0.\xff"))
    with pytest.raises(DataError, match="tensor name at byte 29 is not utf-8"):
        ly.load_checkpoint(path)


def test_checkpoint_repeated_name_names_offset(tmp_path):
    path = tmp_path / "twice.ckpt"
    path.write_bytes(_checkpoint_bytes(b"a", b"b", b"a"))
    with pytest.raises(DataError, match="tensor 'a' at byte 42 repeats an earlier name"):
        ly.load_checkpoint(path)
