"""Local loss functions: similarity matching, local classifiers, the
backprop-free variants, and their combination."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import locallearn.losses as ls
import locallearn.numerics as nm
from locallearn.errors import ConfigError, InputError, ShapeError
from locallearn.layers import LayerSpec
from locallearn.numerics import one_hot
from locallearn.rng import make_rng
from locallearn.trainer import TrainConfig

from conftest import rand


# ---------------------------------------------------------------------------
# similarity matrix
# ---------------------------------------------------------------------------

def test_similarity_hand_case():
    # columns (1,0) and (0,1); centering gives +-(0.5,-0.5), cosine -1
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = ls.similarity_matrix(x)
    assert np.allclose(s, [[1.0, -1.0], [-1.0, 1.0]])


def test_similarity_self_is_one():
    x = rand((7, 5), seed=30)
    assert np.array_equal(np.diag(ls.similarity_matrix(x)), np.ones(5))


def test_similarity_one_hot_law():
    labels = np.array([0, 1, 2, 0])
    s = ls.similarity_matrix(one_hot(labels, 3, np.float64).T)
    assert s[0, 3] == pytest.approx(1.0)
    assert s[0, 1] == pytest.approx(-0.5)  # -1/(C-1) at C=3
    assert s[1, 2] == pytest.approx(-0.5)


def test_similarity_single_column_rejected():
    with pytest.raises(InputError):
        ls.similarity_matrix(np.ones((4, 1)))


def test_similarity_properties_random():
    for trial in range(50):
        x = rand((6, 9), seed=31 + trial, scale=3.0)
        s = ls.similarity_matrix(x)
        assert np.array_equal(s, s.T)
        assert np.array_equal(np.diag(s), np.ones(9))
        assert s.min() >= -1.0 and s.max() <= 1.0


def _allocating_similarity_backward(x, g):
    """similarity_matrix_backward as the expressions read, each in a new
    array: the oracle for the buffers it works in."""
    c = x - x.mean(axis=0)
    nrm = np.sqrt((c * c).sum(axis=0))
    nu = np.maximum(nrm, x.dtype.type(1e-8))
    z = c / nu
    g0 = g.copy()
    np.fill_diagonal(g0, 0.0)
    dz = z @ (g0 + g0.T)
    proj = (z * dz).sum(axis=0)
    active = (nrm > 1e-8).astype(x.dtype)
    dc = dz / nu - active * proj / nu * z
    return np.subtract(dc, dc.mean(axis=0), order="F")


@pytest.mark.parametrize("layout", ["transposed", "c"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d, n, flat_column", [
    (1024, 128, None),  # mlp-bpf's blocks
    (64, 32, None),
    (128, 32, None),
    (64, 32, 5),  # a constant column, whose norm sits at the epsilon floor
])
def test_similarity_backward_matches_the_allocating_expressions_bitwise(d, n, flat_column, dtype, layout):
    # the losses pass the transpose of C-ordered (n, d) descriptors; the
    # gradient check passes a C-ordered (d, n) array
    rows = rand((n, d), seed=170, dtype=dtype)
    if flat_column is not None:
        rows[flat_column] = 0.5
    x = rows.T if layout == "transposed" else np.ascontiguousarray(rows.T)
    g = rand((n, n), seed=171, dtype=dtype, scale=1e-3)
    got = ls.similarity_matrix_backward(x, g)
    want = _allocating_similarity_backward(x, g)
    assert got.flags.f_contiguous and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes(order="A") == want.tobytes(order="A")


def test_similarity_backward_takes_a_gradient_of_its_dtype():
    with pytest.raises(ShapeError, match="dtype"):
        ls.similarity_matrix_backward(np.ones((4, 3), dtype=np.float32), np.ones((3, 3)))


def test_similarity_affine_invariance():
    rng = make_rng(32)
    x = rng.standard_normal((8, 6))
    a = rng.uniform(0.2, 5.0, size=6)
    b = rng.standard_normal(6)
    assert np.allclose(ls.similarity_matrix(x * a + b), ls.similarity_matrix(x), atol=1e-6)


def test_label_similarity_matches_one_hot_matrix():
    y = one_hot(np.array([2, 0, 1, 2]), 4, np.float64)
    assert np.allclose(ls.label_similarity(y), ls.similarity_matrix(y.T))


# ---------------------------------------------------------------------------
# sim loss
# ---------------------------------------------------------------------------

def test_sim_loss_zero_when_descriptor_matches_labels():
    labels = np.array([0, 2, 1, 0, 2])
    y = one_hot(labels, 3, np.float64)
    # identity head reproduces h; h rows equal to the one-hot labels make
    # the two similarity matrices coincide
    res = ls.sim_loss(y.copy(), y, np.eye(3), np.zeros(3))
    assert res.loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.dh, 0.0, atol=1e-9)


def test_sim_loss_zero_when_single_class_and_identical_rows():
    y = one_hot(np.zeros(4, dtype=np.int64), 3, np.float64)
    h = np.tile(rand((1, 5), seed=33), (4, 1))
    res = ls.sim_loss(h, y, np.eye(5), np.zeros(5))
    assert res.loss == pytest.approx(0.0, abs=1e-10)


def test_sim_loss_nonnegative_and_returns_head_grads():
    h = rand((6, 4), seed=34)
    y = one_hot(np.array([0, 1, 2, 0, 1, 2]), 3, np.float64)
    res = ls.sim_loss(h, y, rand((4, 4), seed=35), np.zeros(4))
    assert res.loss >= 0.0
    assert set(res.grads) == {"sim_w", "sim_b"}
    assert res.dh.shape == h.shape


def test_sim_loss_conv_uses_std_descriptor():
    h = rand((4, 3, 6, 6), seed=36)
    y = one_hot(np.array([0, 1, 0, 1]), 2, np.float64)
    res = ls.sim_loss(h, y, rand((3, 3, 3, 3), seed=37, scale=0.3))
    assert set(res.grads) == {"sim_w"}  # conv head has no bias
    assert res.dh.shape == h.shape


# ---------------------------------------------------------------------------
# pred loss and pooling policy
# ---------------------------------------------------------------------------

def test_pred_loss_zero_weights_gives_log_c():
    h = rand((5, 7), seed=38)
    y = one_hot(np.array([0, 1, 2, 3, 4]), 10, np.float64)
    res = ls.pred_loss(h, y, np.zeros((7, 10)), np.zeros(10))
    assert res.loss == pytest.approx(math.log(10), rel=1e-12)


def test_pred_loss_conv_pools_then_flattens():
    h = rand((3, 4, 4, 4), seed=39)
    y = one_hot(np.array([0, 1, 2]), 3, np.float64)
    res = ls.pred_loss(h, y, np.zeros((16, 3)), np.zeros(3), pool_k=2)
    assert res.loss == pytest.approx(math.log(3), rel=1e-12)
    assert res.dh.shape == h.shape


# ---------------------------------------------------------------------------
# backprop-free variants
# ---------------------------------------------------------------------------

def test_sim_bpf_dense_uses_activations_directly():
    h = rand((5, 6), seed=40)
    proj_targets = rand((6, 5), seed=41)
    res = ls.sim_bpf_loss(h, proj_targets)
    assert res.grads == {}  # nothing trainable in this loss
    assert res.dh.shape == h.shape


def test_sim_bpf_same_label_target_similarity_is_one():
    y = one_hot(np.array([2, 2, 0]), 4, np.float64)
    proj = rand((6, 4), seed=42)
    t = ls.similarity_matrix(proj @ y.T)
    assert t[0, 1] == pytest.approx(1.0)


def test_sim_bpf_zero_when_descriptors_match_targets():
    proj_targets = rand((6, 4), seed=43)
    res = ls.sim_bpf_loss(proj_targets.T.copy(), proj_targets)
    assert res.loss == pytest.approx(0.0, abs=1e-12)


def test_binarized_targets_sign_law():
    y = one_hot(np.array([1, 0]), 3, np.float64)
    proj = rand((8, 3), seed=44)
    t = ls.binarized_targets(proj, y, np.float64)
    assert t.shape == (2, 8)
    assert np.array_equal(t, (proj[:, [1, 0]] > 0).T.astype(np.float64))


def test_pred_bpf_zero_weights_gives_log_two():
    h = rand((4, 6), seed=45)
    t = make_rng(46).integers(0, 2, (4, 8)).astype(np.float64)
    res = ls.pred_bpf_loss(h, t, np.zeros((6, 8)), np.zeros(8), rand((6, 8), seed=47))
    assert res.loss == pytest.approx(math.log(2), rel=1e-12)


def test_pred_bpf_saturated_logits_zero_grads():
    h = rand((3, 5), seed=48)
    t = make_rng(49).integers(0, 2, (3, 7)).astype(np.float64)
    b = np.where(t[0] > 0, 50.0, -50.0)  # drive every sigmoid onto its target
    res = ls.pred_bpf_loss(h, np.tile(t[0], (3, 1)), np.zeros((5, 7)), b, rand((5, 7), seed=50))
    assert res.loss < 1e-12
    assert np.max(np.abs(res.dh)) < 1e-12
    assert np.max(np.abs(res.grads["cls_w"])) < 1e-12


def test_pred_bpf_feedback_swap_changes_dh_not_dw():
    h = rand((4, 6), seed=51)
    t = make_rng(52).integers(0, 2, (4, 8)).astype(np.float64)
    w, b = rand((6, 8), seed=53), rand((8,), seed=54)
    r1 = ls.pred_bpf_loss(h, t, w, b, rand((6, 8), seed=55))
    r2 = ls.pred_bpf_loss(h, t, w, b, rand((6, 8), seed=56))
    assert np.array_equal(r1.grads["cls_w"], r2.grads["cls_w"])
    assert np.array_equal(r1.grads["cls_b"], r2.grads["cls_b"])
    assert not np.array_equal(r1.dh, r2.dh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, pool_k", [((16, 12), 1), ((4, 3, 4, 4), 1), ((4, 3, 4, 4), 2)])
def test_pred_bpf_computes_the_classifier_gradient_alone(shape, pool_k, dtype, monkeypatch):
    # feedback alignment is the classifier's backward with B in w's place:
    # one matmul_backward, through feedback; w never reaches it, so no input
    # gradient through w is made, only to be dropped
    h = rand(shape, seed=57, dtype=dtype)
    pooled = nm.avgpool(h, pool_k) if pool_k > 1 else h
    flat = pooled.reshape(shape[0], -1)
    dim = flat.shape[1]
    t = make_rng(58).integers(0, 2, (shape[0], 8)).astype(dtype)
    w, b, feedback = (rand(s, seed=seed, dtype=dtype) for s, seed in (((dim, 8), 59), ((8,), 60), ((dim, 8), 61)))
    calls = []
    matmul_backward = nm.matmul_backward
    monkeypatch.setattr(nm, "matmul_backward", lambda *a: calls.append(a) or matmul_backward(*a))
    res = ls.pred_bpf_loss(h, t, w, b, feedback, pool_k)
    assert len(calls) == 1 and calls[0][1] is feedback
    assert not any(arg is w for arg in calls[0])
    _, dlogits = nm.bce_logits(nm.matmul(flat, w) + b, t)
    dh = (dlogits @ feedback.T).reshape(pooled.shape)
    dh = nm.avgpool_backward(dh, pool_k) if pool_k > 1 else dh
    dw = flat.T @ dlogits
    for got, want in ((res.dh, dh), (res.grads["cls_w"], dw)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pred_bpf_feedback_shape_enforced():
    with pytest.raises(ShapeError):
        ls.pred_bpf_loss(np.ones((2, 4)), np.ones((2, 3)), np.zeros((4, 3)),
                         np.zeros(3), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# combination and config
# ---------------------------------------------------------------------------

def test_combine_arithmetic():
    # the parts' gradients carry their weights already: combine mixes the
    # scalars, sums the dh and merges the head gradients as they are
    a = ls.LocalLossResult(1.0, np.ones((2, 2)), {"cls_w": np.ones(3)})
    b = ls.LocalLossResult(2.0, np.full((2, 2), 3.0), {"sim_w": np.full(3, 2.0)})
    cls_w, sim_w = a.grads["cls_w"], b.grads["sim_w"]
    out = ls.combine(a, b, 0.99)
    assert out.loss == pytest.approx(1.99)
    assert np.array_equal(out.dh, np.full((2, 2), 4.0))
    assert sorted(out.grads) == ["cls_w", "sim_w"]
    assert out.grads["cls_w"] is cls_w and out.grads["sim_w"] is sim_w


def test_combine_endpoints():
    a = ls.LocalLossResult(1.0, np.ones(2))
    b = ls.LocalLossResult(2.0, np.full(2, 3.0))
    assert ls.combine(a, b, 0.0).loss == 1.0
    assert ls.combine(a, b, 1.0).loss == 2.0


@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (6, 7)])
def test_combine_adds_the_same_products_and_leaves_its_inputs(shape):
    p = rand(shape, seed=60, dtype=np.float32)
    s = rand(shape[::-1], seed=61, dtype=np.float32).T  # a transposed dh, as sim_bpf_loss once handed back
    a, b = ls.LocalLossResult(1.0, p.copy()), ls.LocalLossResult(2.0, s.copy(order="K"))
    out = ls.combine(a, b, 0.3)
    want = s + p
    assert out.dh.dtype == want.dtype and out.dh.tobytes() == want.tobytes()
    # the sum is built in the sim part's dh; the pred part is left as it was
    assert out.dh is b.dh and a.dh.tobytes() == p.tobytes()


@pytest.mark.parametrize("bpf", [False, True])
@pytest.mark.parametrize("shape, pool_k", [((6, 12), 1), ((4, 3, 8, 8), 1), ((4, 3, 8, 8), 2), ((4, 3, 8, 8), 4)])
def test_pred_part_adds_its_dh_into_a_given_buffer_bitwise(shape, pool_k, bpf):
    # local_block_loss hands the sim part's dh over as add_to: each element
    # is the sum combine made of the two parts' arrays, and no pred-sized
    # array is left
    h = rand(shape, seed=62, dtype=np.float32)
    y = one_hot(np.arange(shape[0]) % 3, 3, np.float32)
    dim = shape[1] if len(shape) == 2 else shape[1] * (shape[2] // pool_k) ** 2
    w, feedback = (rand((dim, 3), seed=seed, dtype=np.float32) for seed in (63, 64))
    b = np.zeros(3, np.float32)

    def part(**kw):
        if bpf:
            return ls.pred_bpf_loss(h, (y > 0).astype(np.float32), w, b, feedback, pool_k, weight=0.3, **kw)
        return ls.pred_loss(h, y, w, b, pool_k, weight=0.3, **kw)

    sim = rand(shape, seed=65, dtype=np.float32)
    want = part()
    buf = sim.copy()
    got = part(add_to=buf)
    assert got.dh is buf and buf.tobytes() == (sim + want.dh).tobytes()
    assert got.loss == want.loss and all(got.grads[n].tobytes() == want.grads[n].tobytes() for n in want.grads)


def test_combine_beta_out_of_range():
    a = ls.LocalLossResult(1.0, np.ones(2))
    with pytest.raises(ConfigError):
        ls.combine(a, a, 1.5)


def test_mode_lists():
    assert ls.MODES == ("glob", "pred", "sim", "predsim", "pred-bpf",
                        "sim-bpf", "predsim-bpf", "glob+sim")
    assert {m for m, row in ls.MODE_TABLE.items() if row.local} == set(ls.MODES) - {"glob", "glob+sim"}


def test_loss_config_beta_defaults():
    assert TrainConfig(loss="predsim").resolved_beta == 0.99
    assert TrainConfig(loss="predsim-bpf").resolved_beta == 0.01
    assert TrainConfig(loss="sim").resolved_beta == 1.0
    assert TrainConfig(loss="predsim", beta=0.3).resolved_beta == 0.3


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(loss="nonsense")
    with pytest.raises(ConfigError):
        TrainConfig(loss="predsim", beta=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(loss="predsim", projection_dim=0)


@pytest.mark.parametrize("mode", ls.MODES)
def test_loss_config_beta_only_where_it_mixes(mode):
    row = ls.MODE_TABLE[mode]
    assert TrainConfig(loss=mode, beta=row.beta).resolved_beta == row.beta
    if row.pred and row.sim:
        assert TrainConfig(loss=mode, beta=0.3).resolved_beta == 0.3
    else:
        with pytest.raises(ConfigError, match=re.escape(repr(mode))):
            TrainConfig(loss=mode, beta=0.3)


def test_local_block_loss_dispatch():
    h = rand((4, 5), seed=57)
    y = one_hot(np.array([0, 1, 2, 0]), 3, np.float64)
    kw = dict(cls_b=np.zeros(3), sim_w=rand((5, 5), seed=59), sim_b=np.zeros(5),
              feedback=rand((5, 6), seed=60), proj=rand((6, 3), seed=61))
    ce_w, bpf_w, bpf_b = rand((5, 3), seed=58), rand((5, 6), seed=62), np.zeros(6)

    def block(pred, sim):
        # a block's spec names its parts, and the loss reads the block's tensors
        spec = LayerSpec("dense", (5,), units=5, pred=pred, sim=sim, projection=6, classes=3)
        heads = {**kw, "cls_w": bpf_w, "cls_b": bpf_b} if pred == "bpf" else {**kw, "cls_w": ce_w}
        return SimpleNamespace(spec=spec, **heads)

    pred = ls.local_block_loss(block("ce", None), h, y, 1.0)
    sim = ls.local_block_loss(block(None, "head"), h, y, 1.0)
    both = ls.local_block_loss(block("ce", "head"), h, y, 0.99)
    assert both.loss == pytest.approx(0.01 * pred.loss + 0.99 * sim.loss)
    # each part carries its weight into its gradients; a one-part block weighs 1
    assert np.allclose(both.dh, 0.01 * pred.dh + 0.99 * sim.dh, rtol=1e-12, atol=0)
    assert np.allclose(both.grads["cls_w"], 0.01 * pred.grads["cls_w"], rtol=1e-12, atol=0)
    assert np.allclose(both.grads["sim_w"], 0.99 * sim.grads["sim_w"], rtol=1e-12, atol=0)
    assert pred.dh.tobytes() == ls.pred_loss(h, y, ce_w, kw["cls_b"]).dh.tobytes()
    assert sim.dh.tobytes() == ls.sim_loss(h, y, kw["sim_w"], kw["sim_b"]).dh.tobytes()
    t = ls.binarized_targets(kw["proj"], y, h.dtype)
    pred_bpf = ls.local_block_loss(block("bpf", None), h, y, 1.0)
    assert pred_bpf.dh.tobytes() == ls.pred_bpf_loss(h, t, bpf_w, bpf_b, kw["feedback"]).dh.tobytes()
    sim_bpf = ls.local_block_loss(block(None, "bpf"), h, y, 1.0)
    assert sim_bpf.dh.tobytes() == ls.sim_bpf_loss(h, kw["proj"] @ y.T).dh.tobytes()
    both_bpf = ls.local_block_loss(block("bpf", "bpf"), h, y, 0.01)
    assert both_bpf.loss == pytest.approx(0.99 * pred_bpf.loss + 0.01 * sim_bpf.loss)
    assert set(both_bpf.grads) == {"cls_w", "cls_b"}
    with pytest.raises(ConfigError, match="no local-loss part"):
        ls.local_block_loss(block(None, None), h, y, 1.0)
    with pytest.raises(ConfigError):
        block("nonsense", None)


def test_sim_head_feature_map_is_dead_when_its_backward_starts(monkeypatch):
    h = rand((4, 3, 6, 6), seed=62, dtype=np.float32)
    head_w = rand((3, 3, 3, 3), seed=63, dtype=np.float32)
    t = one_hot(np.array([0, 1, 2, 0]), 3, np.float32)
    maps, reuse = [], []
    conv, conv_backward = nm.conv2d, nm.conv2d_backward

    def recording(*args, **kwargs):
        out = conv(*args, **kwargs)
        maps.append(out)
        return out

    def checking(x, k, g, *args, **kwargs):
        # the map's buffer is the gradient the head's backward receives
        reuse.append(np.shares_memory(maps[-1], g))
        return conv_backward(x, k, g, *args, **kwargs)

    monkeypatch.setattr(nm, "conv2d", recording)
    monkeypatch.setattr(nm, "conv2d_backward", checking)
    res = ls.sim_loss(h, t, head_w)
    assert len(maps) == 1 and reuse == [True]
    # and the same-channel head's dx, the block's dh, is written over it too
    assert np.shares_memory(res.dh, maps[0])
    assert res.dh.shape == h.shape and np.isfinite(res.loss)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_sim_gradient_comes_back_c_ordered(dtype):
    h = rand((16, 40), seed=64, dtype=dtype)
    proj_targets = rand((6, 16), seed=65, dtype=dtype)
    res = ls.sim_bpf_loss(h, proj_targets)
    assert res.dh.flags.c_contiguous
    # the same gradient from a C-ordered (features, n) copy of h
    diff = ls.similarity_matrix(h.T) - ls.similarity_matrix(proj_targets)
    want = ls.similarity_matrix_backward(np.ascontiguousarray(h.T), diff * dtype(2.0 / 16**2))
    assert np.allclose(res.dh, want.T, rtol=1e-4, atol=1e-6 * np.abs(want).max())
