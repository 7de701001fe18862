"""Kernel-level tests: hand-computed values, contracts, and error paths.

Finite-difference coverage for every backward lives in test_gradcheck; here
the forwards are pinned against values small enough to verify by hand.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest

import locallearn.numerics as nm
from locallearn.errors import ConfigError, InputError, ShapeError
from locallearn.gradcheck import fd_grad, max_rel_err
from locallearn.rng import make_rng

from conftest import packed, packed_shape, rand, unpacked


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = rand((3, 3), seed=1)
    assert np.allclose(nm.matmul(np.eye(3), a), a)


def test_matmul_hand_case():
    out = nm.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_matmul_backward_matches_fd():
    a, b = rand((4, 3), seed=2), rand((3, 5), seed=3)
    g = rand((4, 5), seed=4)
    da, db = nm.matmul_backward(a, b, g)
    assert np.allclose(da, g @ b.T) and np.allclose(db, a.T @ g)
    fda = fd_grad(lambda: float((nm.matmul(a, b) * g).sum()), a)
    fdb = fd_grad(lambda: float((nm.matmul(a, b) * g).sum()), b)
    assert max_rel_err(da, fda) < 1e-6
    assert max_rel_err(db, fdb) < 1e-6


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_all_ones_counts_taps():
    # with zero padding the output counts how many kernel taps land inside
    x = np.ones((1, 1, 3, 3))
    k = np.ones((1, 1, 3, 3))
    out = nm.conv2d(x, k)[0, 0]
    assert out[1, 1] == 9.0
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert out[i, j] == 4.0
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert out[i, j] == 6.0


def test_conv2d_delta_kernel_is_identity():
    x = rand((2, 3, 5, 5), seed=5)
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    assert np.allclose(nm.conv2d(x, k), x)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        nm.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))


def test_conv2d_backward_matches_fd():
    x, k = rand((2, 2, 4, 4), seed=6), rand((3, 2, 3, 3), seed=7)
    g = rand((2, 3, 4, 4), seed=8)
    dx, dk = nm.conv2d_backward(x, k, g)
    fdx = fd_grad(lambda: float((nm.conv2d(x, k) * g).sum()), x)
    fdk = fd_grad(lambda: float((nm.conv2d(x, k) * g).sum()), k)
    assert max_rel_err(dx, fdx) < 1e-5
    assert max_rel_err(dk, fdk) < 1e-5


@pytest.mark.parametrize("size", [1, 5, 7])
def test_conv_kernels_take_only_3x3_kernels(size):
    x, k = rand((1, 2, 8, 8), seed=9), rand((4, 2, size, size), seed=10)
    g = rand((1, 4, 8, 8), seed=11)
    with pytest.raises(ShapeError):
        nm.conv2d(x, k)
    with pytest.raises(ShapeError):
        nm.conv2d_backward(x, k, g)
    with pytest.raises(ShapeError):
        nm.conv2d_weight_grad(x, k, g)


def _conv_oracle(x, k, g, stride, pad):
    """The per-tap loop the kernels replaced, in float64: (out, dx, dk)."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, co, ho, wo))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for u in range(kh):
        for v in range(kw):
            rows = slice(u, u + (ho - 1) * stride + 1, stride)
            cols = slice(v, v + (wo - 1) * stride + 1, stride)
            patch = xp[:, :, rows, cols]
            out += np.einsum("nchw,oc->nohw", patch, k[:, :, u, v])
            dk[:, :, u, v] = np.einsum("nohw,nchw->oc", g, patch)
            dxp[:, :, rows, cols] += np.einsum("nohw,oc->nchw", g, k[:, :, u, v])
    return out, dxp[:, :, pad : pad + h, pad : pad + w], dk


# (x shape, k shape): co > ci lowers x for the weight gradient, co <= ci
# lowers g
CONV_CASES = {
    "5x7-image": ((3, 2, 5, 7), (4, 2, 3, 3)),
    # every tap but the centre reads the zero border
    "1x1-image": ((3, 2, 1, 1), (4, 2, 3, 3)),
    "1-channel": ((2, 1, 5, 5), (2, 1, 3, 3)),
    "1-channel-1x7-image": ((2, 1, 1, 7), (3, 1, 3, 3)),
    "1-channel-1x1-image": ((2, 1, 1, 1), (3, 1, 3, 3)),
    "same-channel": ((2, 3, 5, 5), (3, 3, 3, 3)),
    "same-channel-5x7": ((3, 4, 5, 7), (4, 4, 3, 3)),
    "narrowing-8to3-5x7": ((2, 8, 5, 7), (3, 8, 3, 3)),
    "narrowing-8to2-7x7": ((2, 8, 7, 7), (2, 8, 3, 3)),
    "narrowing-8to2-1x1-image": ((2, 8, 1, 1), (2, 8, 3, 3)),
}


def _conv_case(xs, ks, seed, dtype=np.float64):
    x, k = rand(xs, seed=seed, dtype=dtype), rand(ks, seed=seed + 1, dtype=dtype)
    return x, k, rand((xs[0], ks[0], xs[2], xs[3]), seed=seed + 2, dtype=dtype)


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_kernels_match_per_tap_oracle(case):
    x, k, g = _conv_case(*CONV_CASES[case], seed=30)
    out, dx, dk = _conv_oracle(x, k, g, 1, 1)
    assert np.allclose(nm.conv2d(x, k), out, rtol=1e-12, atol=1e-12)
    got_dx, got_dk = nm.conv2d_backward(x, k, g.copy())  # a same-channel dx takes over g
    assert np.allclose(got_dx, dx, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_dk, dk, rtol=1e-12, atol=1e-12)
    assert np.allclose(nm.conv2d_weight_grad(x, k, g), dk, rtol=1e-12, atol=1e-12)


CHUNK_CASES = {
    # the forward and every pass over g lower one example per chunk; x's
    # lowering for a widening weight gradient takes the budget's chunks: two
    # examples' im2col buffer splits 5 examples as 2 + 2 + 1
    "budget": (
        (5, 2, 5, 7),
        (3, 2, 3, 3),
        lambda x: 2 * x.itemsize * 2 * 9 * 5 * 7,
        [("x", [1] * 5)],
        [("x", [2, 2, 1]), ("g", [1] * 5)],
        [("x", [2, 2, 1])],
    ),
    # under a budget of one byte the widening weight gradient's chunk may
    # still take a quarter of the output, so 16 examples go as 4 x 4 and
    # not as 16 one-example calls
    "quarter": (
        (16, 1, 5, 7),
        (9, 1, 3, 3),
        lambda x: 1,
        [("x", [1] * 16)],
        [("x", [4, 4, 4, 4]), ("g", [1] * 16)],
        [("x", [4, 4, 4, 4])],
    ),
    # same-channel: g's lowering is no larger than x's, so the backward
    # lowers g alone, once, for dk and dx both, and dk alone lowers g too,
    # an example at a time whatever the budget
    "same-channel": (
        (5, 2, 5, 7),
        (2, 2, 3, 3),
        lambda x: 2 * x.itemsize * 2 * 9 * 5 * 7,
        [("x", [1] * 5)],
        [("g", [1] * 5)],
        [("g", [1] * 5)],
    ),
}


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_conv_kernels_split_the_batch_into_chunks(monkeypatch, case):
    xs, ks, budget, forward, backward, weight_grad = CHUNK_CASES[case]
    x, k, g = _conv_case(xs, ks, seed=40)
    fed = g.copy()  # what conv2d_backward takes over: a same-channel dx is written there
    monkeypatch.setattr(nm, "COLS_BUDGET", budget(x))
    passes = []  # (lowered array, its chunk sizes) for each pass of a call
    make_chunks = nm._im2col_chunks

    def recording(a, *args):
        passes.append(("x" if a is x else "g" if a is g or a is fed else "?", []))
        for rows, cols in make_chunks(a, *args):
            passes[-1][1].append(len(range(len(a))[rows]))
            yield rows, cols

    def lowered(call):
        passes.clear()
        return call(), list(passes)

    monkeypatch.setattr(nm, "_im2col_chunks", recording)
    out, dx, dk = _conv_oracle(x, k, g, 1, 1)
    got, passes = lowered(lambda: nm.conv2d(x, k))
    assert np.allclose(got, out, rtol=1e-12, atol=1e-12) and passes == forward
    (got_dx, got_dk), passes = lowered(lambda: nm.conv2d_backward(x, k, fed))
    assert np.allclose(got_dx, dx, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_dk, dk, rtol=1e-12, atol=1e-12)
    assert passes == backward
    got, passes = lowered(lambda: nm.conv2d_weight_grad(x, k, g))
    assert np.allclose(got, dk, rtol=1e-12, atol=1e-12) and passes == weight_grad


def _windowed_im2col_chunks(x, m):
    """The lowering as it was before it copied whole rows: each chunk of m
    examples in the interior of an (h+2, w+2) canvas, its 3x3 windows
    copied into cols a row of w at a time. An oracle for nm._im2col_chunks."""
    n, ci, h, w = x.shape
    canvas = np.zeros((min(m, n), ci, h + 2, w + 2), dtype=x.dtype)
    for i in range(0, n, m):
        chunk = canvas[: min(m, n - i)]
        chunk[:, :, 1:-1, 1:-1] = x[i : i + m]
        cols = sliding_window_view(chunk, (3, 3), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)
        yield slice(i, i + m), cols.reshape(ci * 9, -1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("xs", [(5, 2, 5, 7), (3, 2, 1, 1), (2, 1, 1, 7), (4, 3, 6, 1), (7, 4, 8, 8), (3, 16, 4, 4)])
def test_lowering_copies_the_windowed_oracles_bytes(xs, dtype):
    # whole-row copies out of a canvas padded only above and below give the
    # bytes of the windowed copy, chunk for chunk, the wrapped columns and
    # the guards included: one example per chunk, two (uneven chunks), and
    # as many as the budget's buffer holds (the whole batch here)
    x = rand(xs, seed=41, dtype=dtype)
    for m in (1, 2, nm.COLS_BUDGET // (x.itemsize * xs[1] * 9 * xs[2] * xs[3])):
        want = [(rows, cols.copy()) for rows, cols in _windowed_im2col_chunks(x, m)]
        got = [(rows, cols.copy()) for rows, cols in nm._im2col_chunks(x, m)]
        assert [rows for rows, _ in got] == [rows for rows, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_weight_grad_is_conv_backward_dk_bitwise(case):
    x, k, g = _conv_case(*CONV_CASES[case], seed=50, dtype=np.float32)
    _, dk = nm.conv2d_backward(x, k, g.copy())  # a same-channel dx takes over g
    assert np.array_equal(nm.conv2d_weight_grad(x, k, g), dk)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_chunk", [1, 3])
def test_same_channel_conv_backward_writes_dx_over_g(dtype, per_chunk, monkeypatch):
    # dx is g's buffer, holding the bytes of the conv of g with the flipped
    # kernel taken first, over a batch of at least 3 chunks: each chunk of g
    # is lowered before its dx rows are written over it
    x, k, g = _conv_case((7, 3, 5, 6), (3, 3, 3, 3), seed=70, dtype=dtype)
    monkeypatch.setattr(nm, "COLS_BUDGET", per_chunk * x.itemsize * 3 * 9 * 5 * 6)
    assert len(list(nm._im2col_chunks(g, 3))) >= 3
    want_dx = nm.conv2d(g, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    want_dk = nm.conv2d_backward(x, k, g.copy())[1]
    dx, dk = nm.conv2d_backward(x, k, g)
    assert np.shares_memory(dx, g)
    assert dx.dtype == want_dx.dtype == dtype and dx.tobytes() == want_dx.tobytes()
    assert dk.tobytes() == want_dk.tobytes()


@pytest.mark.parametrize("case", ["5x7-image", "narrowing-8to3-5x7"])
def test_widening_and_narrowing_conv_backward_leave_g_be(case):
    x, k, g = _conv_case(*CONV_CASES[case], seed=71, dtype=np.float32)
    before = g.tobytes()
    dx, _ = nm.conv2d_backward(x, k, g)
    assert g.tobytes() == before and not np.shares_memory(dx, g)


PER_EXAMPLE_CASES = {
    # BLAS picks another float32 kernel for one example's GEMM than for a
    # chunk of 10 at this shape, so a product per chunk moved these bytes
    "same-channel 64to64 4x4": ((10, 64, 4, 4), (64, 64, 3, 3)),
    # the benchmark conv net's two trunk convs, at its batch
    "widening 3to64 32x32": ((32, 3, 32, 32), (64, 3, 3, 3)),
    "widening 64to128 16x16": ((32, 64, 16, 16), (128, 64, 3, 3)),
}


@pytest.mark.parametrize("case", PER_EXAMPLE_CASES)
def test_conv_rows_of_an_example_are_its_one_example_calls(case):
    # each example's rows of the conv and of its input gradient are one GEMM
    # of that example's lowering, whatever shares its chunk
    x, k, g = _conv_case(*PER_EXAMPLE_CASES[case], seed=72, dtype=np.float32)
    out = nm.conv2d(x, k)
    dx, _ = nm.conv2d_backward(x, k, g.copy())  # a same-channel dx takes over g
    for i in range(len(x)):
        one = slice(i, i + 1)
        assert out[i].tobytes() == nm.conv2d(x[one], k)[0].tobytes(), i
        assert dx[i].tobytes() == nm.conv2d_backward(x[one], k, g[one].copy())[0][0].tobytes(), i


# (x shape, k shape) for each branch of the conv backward: a widening conv
# lowers x for dk in the budget's chunks and g for dx, a same-channel or
# narrowing one lowers g alone
BRANCH_CASES = {
    "widening 16to64 8x8": ((8, 16, 8, 8), (64, 16, 3, 3)),
    "same-channel 64to64 4x4": ((10, 64, 4, 4), (64, 64, 3, 3)),
    "narrowing 64to16 8x8": ((8, 64, 8, 8), (16, 64, 3, 3)),
}


@pytest.mark.parametrize("case", BRANCH_CASES)
def test_conv_bytes_do_not_depend_on_the_budget(case, monkeypatch):
    # the conv, every branch's dx and a dk over g's lowering are made an
    # example at a time, so the budget moves none of their bytes; only a
    # widening dk, one GEMM per chunk of x, is fixed by its chunks
    x, k, g = _conv_case(*BRANCH_CASES[case], seed=75, dtype=np.float32)

    def run():
        dx, dk = nm.conv2d_backward(x, k, g.copy())  # a same-channel dx takes over g
        return nm.conv2d(x, k), dx, dk, nm.conv2d_weight_grad(x, k, g)

    want = run()
    monkeypatch.setattr(nm, "COLS_BUDGET", 1)
    got = run()
    fixed = 2 if case.startswith("widening") else 4
    for i in range(fixed):
        assert got[i].tobytes() == want[i].tobytes(), i


def test_conv_weight_grad_rejects_misshapen_grad():
    x, k, g = _conv_case((2, 2, 4, 4), (3, 2, 3, 3), seed=60)
    with pytest.raises(ShapeError):
        nm.conv2d_weight_grad(x, k, g[:, :, :3])


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_maxpool_window_max():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out, _ = nm.maxpool2x2(x)
    assert out.item() == 4.0


def test_maxpool_tie_break_first_in_row_major():
    x = np.ones((1, 1, 4, 4))
    out, idx = nm.maxpool2x2(x)
    assert np.all(out == 1.0)
    dx = nm.maxpool2x2_backward(np.ones_like(out), idx)
    # grad lands on exactly one element per window: the window's first cell
    assert dx.sum() == 4.0
    assert np.array_equal(np.flatnonzero(dx[0, 0]), [0, 2, 8, 10])


def test_maxpool_odd_extent_rejected():
    with pytest.raises(ShapeError):
        nm.maxpool2x2(np.ones((1, 1, 3, 4)))


def test_maxpool_backward_matches_fd():
    x = rand((2, 3, 4, 4), seed=11)
    x += np.arange(x.size).reshape(x.shape) * 1e-3  # no ties
    g = rand((2, 3, 2, 2), seed=12)
    _, idx = nm.maxpool2x2(x)
    dx = nm.maxpool2x2_backward(g, idx)
    fdx = fd_grad(lambda: float((nm.maxpool2x2(x)[0] * g).sum()), x)
    assert max_rel_err(dx, fdx) < 1e-6


def test_avgpool_constant_and_hand_case():
    assert np.all(nm.avgpool(np.full((1, 2, 4, 4), 7.5), 2) == 7.5)
    x = np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 1, 2, 2)
    assert nm.avgpool(x, 2).item() == 3.0


def test_avgpool_non_divisible_rejected():
    with pytest.raises(ShapeError):
        nm.avgpool(np.ones((1, 1, 6, 6)), 4)


def test_avgpool_backward_uniform_split():
    g = np.array([[4.0]]).reshape(1, 1, 1, 1)
    dx = nm.avgpool_backward(g, 2)
    assert np.all(dx == 1.0) and dx.shape == (1, 1, 2, 2)


@pytest.mark.parametrize("k", [2, 4])
def test_avgpool_float32_matches_the_float64_mean(k):
    x = rand((3, 4, 8, 12), seed=21, dtype=np.float32, scale=3.0) + 1.0
    got = nm.avgpool(x, k)
    want = x.astype(np.float64).reshape(3, 4, 8 // k, k, 12 // k, k).mean(axis=(3, 5))
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpool_backward_matches_the_repeat_formula_bitwise(k, dtype, monkeypatch):
    g = _mixed((7, 4, 2, 5), seed=22, dtype=dtype)
    want = np.repeat(np.repeat(g / (k * k), k, axis=2), k, axis=3)
    for per_block in _PER_BLOCK:
        _blocks_of(monkeypatch, per_block, g[0].size * k)
        assert _same_bytes(nm.avgpool_backward(g, k), want)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpool_backward_adds_into_a_given_buffer_bitwise(k, dtype, monkeypatch):
    g = _mixed((7, 4, 2, 5), seed=23, dtype=dtype)
    before = _mixed((7, 4, 2 * k, 5 * k), seed=26, dtype=dtype)
    want = before + np.repeat(np.repeat(g / (k * k), k, axis=2), k, axis=3)
    for per_block in _PER_BLOCK:
        _blocks_of(monkeypatch, per_block, g[0].size * k)
        buf = before.copy()
        got = nm.avgpool_backward(g, k, add_to=buf)
        assert got is buf and got.tobytes() == want.tobytes()


def test_avgpool_backward_rejects_a_buffer_it_cannot_add_into():
    g = rand((2, 3, 2, 2), seed=25)
    for buf in (np.zeros((2, 3, 4, 6)), np.zeros((2, 3, 4, 8))[..., ::2]):
        with pytest.raises(ShapeError, match="adds into"):
            nm.avgpool_backward(g, 2, add_to=buf)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def test_batchnorm_constant_batch_near_zero():
    x = np.full((8, 5), 3.0)
    y, *_ = nm.batchnorm_train(x, np.ones(5), np.zeros(5))
    assert np.max(np.abs(y)) <= 1e-2


def test_batchnorm_normalizes_per_feature():
    x = rand((32, 6), seed=13, scale=4.0) + 2.5
    y, *_ = nm.batchnorm_train(x, np.ones(6), np.zeros(6))
    assert np.max(np.abs(y.mean(axis=0))) < 1e-5
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-3


def test_batchnorm_conv_axes():
    x = rand((4, 3, 5, 5), seed=14, scale=2.0)
    y, *_ = nm.batchnorm_train(x, np.ones(3), np.zeros(3))
    assert np.max(np.abs(y.mean(axis=(0, 2, 3)))) < 1e-5
    assert np.max(np.abs(y.var(axis=(0, 2, 3)) - 1.0)) < 1e-3


def test_batchnorm_batch_of_one_rejected():
    with pytest.raises(InputError):
        nm.batchnorm_train(np.ones((1, 4)), np.ones(4), np.zeros(4))


def test_batchnorm_eval_uses_running_stats():
    x = rand((4, 3), seed=15)
    mean, var = np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0])
    y = nm.batchnorm_eval(x, np.ones(3), np.zeros(3), mean, var)
    assert np.allclose(y, (x - mean) / np.sqrt(var + 1e-5))


def test_batchnorm_eval_leaves_input_and_matches_formula_bitwise():
    x = rand((5, 3, 4, 4), seed=16, dtype=np.float32)
    gamma, beta = rand((3,), seed=17, dtype=np.float32), rand((3,), seed=18, dtype=np.float32)
    mean, var = rand((3,), seed=19, dtype=np.float32), np.abs(rand((3,), seed=20, dtype=np.float32))
    saved = x.copy()
    y = nm.batchnorm_eval(x, gamma, beta, mean, var)
    assert np.array_equal(x, saved)
    shape = (1, 3, 1, 1)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    ref = gamma.reshape(shape) * ((x - mean.reshape(shape)) * inv_std.reshape(shape)) + beta.reshape(shape)
    assert y.dtype == ref.dtype and np.array_equal(y, ref)


# ---------------------------------------------------------------------------
# leaky relu / dropout
# ---------------------------------------------------------------------------

def test_leaky_relu_values():
    assert nm.leaky_relu(np.array(2.0), 0.01) == 2.0
    assert nm.leaky_relu(np.array(-1.0), 0.01) == pytest.approx(-0.01)
    assert nm.leaky_relu(np.array(-1.0), 0.0) == 0.0


def test_leaky_relu_backward_branches():
    x = np.array([-2.0, 3.0])
    g = np.array([1.0, 1.0])
    assert np.allclose(nm.leaky_relu_backward(packed(x >= 0), g, 0.01), [0.01, 1.0])


def test_dropout_rate_zero_is_identity():
    x = rand((5, 5), seed=16)
    y, mask = nm.dropout(x, 0.0, make_rng(1))
    assert np.array_equal(y, x)


def test_dropout_inverted_scaling_preserves_mean():
    x = np.ones(1_000_000)
    y, _ = nm.dropout(x, 0.5, make_rng(17))
    assert abs(y.mean() - 1.0) < 0.01


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        nm.dropout(np.ones(3), 1.0, make_rng(0))


def test_dropout_same_seed_same_mask():
    x = rand((64,), seed=18)
    y1, _ = nm.dropout(x, 0.4, make_rng(5, 6))
    y2, _ = nm.dropout(x, 0.4, make_rng(5, 6))
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# std over feature maps
# ---------------------------------------------------------------------------

def test_std_constant_map_near_zero():
    x = np.full((2, 3, 4, 4), 5.0)
    assert np.max(nm.std_per_feature_map(x)) <= 1e-4


def test_std_two_point_map():
    x = np.array([0.0, 2.0]).reshape(1, 1, 1, 2)
    assert nm.std_per_feature_map(x).item() == pytest.approx(1.0, abs=1e-7)


def test_std_population_normalization():
    x = rand((2, 3, 4, 4), seed=19)
    expect = x.std(axis=(2, 3))  # numpy default is population (ddof=0)
    assert np.allclose(nm.std_per_feature_map(x), expect, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_std_backward_is_the_formula_bitwise(dtype):
    x = rand((4, 3, 5, 6), seed=23, dtype=dtype, scale=2.0)
    g = rand((4, 3), seed=24, dtype=dtype)
    s = nm.std_per_feature_map(x)
    got = nm.std_per_feature_map_backward(x, g, s)
    mu = x.mean(axis=(2, 3), keepdims=True)
    want = g[:, :, None, None] * (x - mu) / (x.dtype.type(30) * s[:, :, None, None])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# losses at the kernel level
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    targets = nm.one_hot(np.array([0, 3, 7, 9]), 10, np.float64)
    loss, grad = nm.cross_entropy_logits(logits, targets)
    assert loss == pytest.approx(math.log(10), rel=1e-12)
    assert grad.shape == (4, 10)


def test_cross_entropy_huge_logit_stable():
    logits = np.zeros((1, 10))
    logits[0, 2] = 1000.0
    targets = nm.one_hot(np.array([2]), 10, np.float64)
    loss, _ = nm.cross_entropy_logits(logits, targets)
    assert np.isfinite(loss) and loss < 1e-6


def test_cross_entropy_rejects_non_one_hot():
    bad = np.array([[0.5, 0.5, 0.0]])
    with pytest.raises(InputError):
        nm.cross_entropy_logits(np.zeros((1, 3)), bad)


def test_bce_uniform_logits():
    loss, _ = nm.bce_logits(np.zeros((3, 8)), make_rng(20).integers(0, 2, (3, 8)).astype(np.float64))
    assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_bce_huge_logits_stable():
    t = np.array([[1.0, 0.0]])
    loss, _ = nm.bce_logits(np.array([[1000.0, -1000.0]]), t)
    assert np.isfinite(loss) and loss < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_matches_the_masked_two_exp_oracle_bitwise(dtype):
    f = np.finfo(dtype)
    edge = np.array([0.0, -0.0, 1.0, -1.0, 1000.0, -1000.0, f.max, -f.max, f.tiny, -f.tiny], dtype)
    z = np.stack([edge, edge[::-1], rand(edge.shape, seed=18, dtype=dtype, scale=30.0)])
    t = (np.arange(z.size).reshape(z.shape) % 2).astype(dtype)
    with np.errstate(over="ignore"):  # the mean of a few finfo.max terms is inf on both sides
        want_loss = float((np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())
        loss, dlogits = nm.bce_logits(z, t)
    # the sigmoid from exp(-z) where z >= 0 and from exp(z) elsewhere
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    assert _same_bytes(np.float64(loss), np.float64(want_loss))
    assert _same_bytes(dlogits, (sig - t) / z.dtype.type(z.size))


def test_one_hot():
    y = nm.one_hot(np.array([1, 0]), 3, np.float32)
    assert y.dtype == np.float32
    assert np.array_equal(y, [[0, 1, 0], [1, 0, 0]])


# ---------------------------------------------------------------------------
# oracles: the allocating kernels the one-pass ones replaced
# ---------------------------------------------------------------------------

def _argmax_maxpool(x):
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = np.argmax(win, axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def _argmax_maxpool_backward(g, idx):
    n, c, ho, wo = g.shape
    dwin = np.zeros((n, c, ho, wo, 4), dtype=g.dtype)
    np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
    return dwin.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * ho, 2 * wo)


def _tied(shape, seed, dtype):
    """Values drawn from a handful, so that most windows hold ties, +0 and
    -0 against each other included."""
    values = np.array([-0.0, 0.0, 1.0, -1.0, 2.5], dtype=dtype)
    return make_rng(seed).choice(values, size=shape)


def _strided_sum_avgpool(x, k):
    """avgpool as whole-tensor sums in the kernel's order: a window's k rows
    first, then the k columns of that, then one division by k*k."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // k, k, w // k, k)
    rows = win[:, :, :, 0]
    for u in range(1, k):
        rows = rows + win[:, :, :, u]
    out = rows[..., 0]
    for v in range(1, k):
        out = out + rows[..., v]
    return out / x.dtype.type(k * k)


# examples a row-blocked kernel works at a time: a batch of 7 splits into
# 1 x 7, 2+2+2+1 and 3+3+1, each ending in a block of one, and one block
_PER_BLOCK = (1, 2, 3, 7)


def _blocks_of(monkeypatch, per_block, row):
    """Set ROW_BLOCK so that a kernel whose blocks take `row` elements of
    each example works per_block examples at a time."""
    monkeypatch.setattr(nm, "ROW_BLOCK", per_block * row)


def _mixed(shape, seed, dtype):
    """Random values and signed zeros, every fifth drawn from a handful
    (ties), and a NaN last."""
    a = _tied(shape, seed, dtype) * rand(shape, seed=seed + 1, dtype=dtype)
    a.flat[::5] = _tied((a.size + 4) // 5, seed + 2, dtype)
    a.flat[-1] = np.nan
    return a


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_maximum_keeps_its_second_argument_on_a_tie():
    # maxpool2x2's tie rule rests on this: +0 and -0 compare equal, and
    # np.maximum(tap, running_max) must hand back running_max
    x = _tied((8, 4, 16, 16), seed=30, dtype=np.float32)
    a, b = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
    tie = a == b
    assert (tie & (np.signbit(a) != np.signbit(b))).any()
    for first, second in ((a, b), (b, a), (np.ascontiguousarray(a), np.ascontiguousarray(b))):
        got = np.maximum(first, second)
        assert np.array_equal(np.signbit(got[tie]), np.signbit(second[tie]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_argmax_oracle_with_ties_and_signed_zeros(dtype, monkeypatch):
    tied = _tied((7, 3, 8, 10), seed=31, dtype=dtype)
    # a NaN only as a window's first tap, where argmax and the running max
    # both keep it: the max stays NaN and no later tap beats it
    tied[1::3, :, 0::4, 0::4] = np.nan
    for x in (tied, rand(tied.shape, seed=32, dtype=dtype)):
        want, want_idx = _argmax_maxpool(x)
        g = _mixed(want.shape, seed=33, dtype=dtype)
        want_dx = _argmax_maxpool_backward(g, want_idx)
        for per_block in _PER_BLOCK:
            _blocks_of(monkeypatch, per_block, want[0].size)
            got, idx = nm.maxpool2x2(x)
            assert _same_bytes(got, want)
            assert idx.dtype == np.uint8 and np.array_equal(idx, want_idx)
            assert _same_bytes(nm.maxpool2x2_backward(g, idx), want_dx)
            unindexed, none = nm.maxpool2x2(x, need_index=False)
            assert none is None and _same_bytes(unindexed, want)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpool_matches_the_strided_sum_oracle_bitwise(dtype, k, monkeypatch):
    x = _mixed((7, 3, 8, 12), seed=122, dtype=dtype)
    want = _strided_sum_avgpool(x, k)
    assert np.isnan(want).any()
    for per_block in _PER_BLOCK:
        _blocks_of(monkeypatch, per_block, x[0].size // k)
        assert _same_bytes(nm.avgpool(x, k), want)


@pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_matches_where_oracle_bitwise(slope, dtype):
    x = np.concatenate([
        _tied((64,), seed=34, dtype=dtype),
        rand((64,), seed=35, dtype=dtype),
        np.array([np.finfo(dtype).tiny, -np.finfo(dtype).tiny, np.finfo(dtype).max, -np.finfo(dtype).max], dtype),
    ])
    s = x.dtype.type(slope)
    assert _same_bytes(nm.leaky_relu(x, slope), np.where(x >= 0, x, x * s))
    y, sign = nm.leaky_relu(x, slope, need_sign=True)
    assert _same_bytes(y, np.where(x >= 0, x, x * s)) and _same_bytes(sign, packed(x >= 0))
    g = rand(x.shape, seed=36, dtype=dtype)
    assert _same_bytes(nm.leaky_relu_backward(packed(x >= 0), g, slope), np.where(x >= 0, g, g * s))


def test_leaky_relu_out_writes_over_its_input():
    x = rand((5, 6), seed=37, dtype=np.float32)
    want = nm.leaky_relu(x, 0.01)
    got = nm.leaky_relu(x, 0.01, out=x)
    assert got is x and _same_bytes(x, want)


def test_leaky_relu_backward_takes_a_bool_mask():
    # the bool mask x >= 0 packed (see the numerics docstring), and nothing else
    x = rand((3, 12), seed=38)
    g = np.ones_like(x)
    for wrong in (x, x >= 0, packed(x[:, :8] >= 0), packed(x >= 0).astype(np.int8), packed(x[:2] >= 0)):
        with pytest.raises(ShapeError):
            nm.leaky_relu_backward(wrong, g, 0.01)
        with pytest.raises(ShapeError):
            nm.dropout_backward(g, wrong, 0.5)
    assert _same_bytes(nm.leaky_relu_backward(packed(x >= 0), g, 0.01), np.where(x >= 0, g, g * 0.01))


@pytest.mark.parametrize("shape", [(16, 5), (4, 3, 5, 5)])
def test_batchnorm_train_matches_two_pass_oracle_bitwise(shape):
    x = rand(shape, seed=39, dtype=np.float32, scale=3.0) + 2.0
    c = shape[1]
    gamma, beta = rand((c,), seed=40, dtype=np.float32) + 1.0, rand((c,), seed=41, dtype=np.float32)
    axes = (0,) if len(shape) == 2 else (0, 2, 3)
    bshape = (1, c) + (1,) * (len(shape) - 2)
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
    want = (gamma.reshape(bshape) * xhat + beta.reshape(bshape), xhat, inv_std, mean, var)
    for got, ref in zip(nm.batchnorm_train(x, gamma, beta), want):
        assert _same_bytes(got, ref)


@pytest.mark.parametrize("shape", [(16, 5), (4, 3, 5, 5)])
def test_batchnorm_backward_matches_the_expanded_oracle(shape):
    x = rand(shape, seed=42, scale=2.0)
    c = shape[1]
    gamma = rand((c,), seed=43) + 1.0
    g = rand(shape, seed=44)
    _, xhat, inv_std, _, _ = nm.batchnorm_train(x, gamma, np.zeros(c))
    axes = (0,) if len(shape) == 2 else (0, 2, 3)
    bshape = (1, c) + (1,) * (len(shape) - 2)
    count = g.size // c
    dxhat = g * gamma.reshape(bshape)
    want = (
        inv_std.reshape(bshape)
        / count
        * (count * dxhat - dxhat.sum(axis=axes).reshape(bshape)
           - xhat * (dxhat * xhat).sum(axis=axes).reshape(bshape))
    )
    dx, dgamma, dbeta = nm.batchnorm_backward(g, gamma, xhat, inv_std)
    assert np.allclose(dx, want, rtol=1e-10, atol=1e-12)
    assert _same_bytes(dgamma, (g * xhat).sum(axis=axes)) and _same_bytes(dbeta, g.sum(axis=axes))


@pytest.mark.parametrize("row_block", [130, 1])
@pytest.mark.parametrize("shape", [(16, 5), (7, 3, 4, 5)])
def test_batchnorm_backward_sums_dgamma_a_row_block_at_a_time(shape, row_block, monkeypatch):
    monkeypatch.setattr(nm, "ROW_BLOCK", row_block)
    x = rand(shape, seed=42, dtype=np.float32, scale=2.0)
    c = shape[1]
    gamma = rand((c,), seed=43, dtype=np.float32) + 1.0
    g = rand(shape, seed=44, dtype=np.float32)
    _, xhat, inv_std, _, _ = nm.batchnorm_train(x, gamma, np.zeros(c, dtype=np.float32))
    axes = (0,) if len(shape) == 2 else (0, 2, 3)
    bshape = (1, c) + (1,) * (len(shape) - 2)
    step = max(1, row_block // (g[0].size))
    dgamma = np.zeros(c, dtype=np.float32)
    for i in range(0, len(g), step):
        dgamma += (g[i : i + step] * xhat[i : i + step]).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dx = g * np.float32(g.size // c) - dbeta.reshape(bshape) - xhat * dgamma.reshape(bshape)
    dx *= (gamma * inv_std).reshape(bshape) / np.float32(g.size // c)
    for got, want in zip(nm.batchnorm_backward(g, gamma, xhat, inv_std), (dx, dgamma, dbeta)):
        assert _same_bytes(got, want)


def _kept_xhat_batchnorm(x, gamma, beta):
    """batchnorm_train as it was when it always kept xhat: the squares made
    whole into y and reduced by y.mean, the parameters broadcast per
    feature."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    mean = x.mean(axis=axes)
    xhat = x - mean.reshape(shape)
    y = np.square(xhat)
    var = y.mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + nm.BN_EPS)
    xhat *= inv_std.reshape(shape)
    np.multiply(gamma.reshape(shape), xhat, out=y)
    y += beta.reshape(shape)
    return y, xhat, inv_std, mean, var


# a one-feature map is one contiguous run that numpy sums pairwise as a
# whole, (7, 1, 5, 5) and (32, 1, 16, 16) once missed its bytes, and
# (3, 1, 200, 200) is longer than ROW_BLOCK; (9, 1) and (40, 3) are dense
_BN_SHAPES = [(7, 1, 5, 5), (32, 1, 16, 16), (3, 1, 200, 200), (7, 3, 5, 5), (7, 64, 5, 5), (7, 512, 2, 3), (9, 1), (40, 3)]


@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _BN_SHAPES)
def test_batchnorm_train_with_and_without_xhat_is_the_kept_paths_bytes(shape, dtype, ragged, monkeypatch):
    x = rand(shape, seed=102, dtype=dtype, scale=3.0) + dtype(1.5)
    c = shape[1]
    gamma, beta = rand((c,), seed=103, dtype=dtype) + dtype(1.0), rand((c,), seed=104, dtype=dtype)
    want = _kept_xhat_batchnorm(x, gamma, beta)
    if ragged:  # blocks of 2, 2, 2 and 1 examples for a batch of 7
        _blocks_of(monkeypatch, 2, x[0].size)
    kept = nm.batchnorm_train(x, gamma, beta)
    assert all(_same_bytes(a, b) for a, b in zip(kept, want))
    buf = x.copy()
    y, xhat, *stats = nm.batchnorm_train(buf, gamma, beta, out=buf, need_xhat=False)
    assert y is buf and xhat is None
    assert _same_bytes(y, want[0]) and all(_same_bytes(a, b) for a, b in zip(stats, want[2:]))


def test_batchnorm_train_without_xhat_holds_one_buffer():
    # the benchmark's block 0 output, 8 MiB: its squares exist a row block
    # at a time, not as a second full-size buffer
    x = rand((32, 64, 32, 32), seed=105, dtype=np.float32)
    ones, zeros = np.ones(64, np.float32), np.zeros(64, np.float32)
    assert _transient_bytes(lambda: nm.batchnorm_train(x, ones, zeros, out=x, need_xhat=False)) < 1 << 20


def _row_map(a, made=None):
    """A RowMap of a's rows, each make a copy, its row spans kept in made."""

    def make(rows):
        if made is not None:
            made.append(range(len(a))[rows])
        return a[rows].copy()

    return nm.RowMap(a.shape, a.dtype, make)


@pytest.mark.parametrize("row_block", [None, 130])
@pytest.mark.parametrize("budget", [None, 1, 500])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(16, 5), (7, 3, 4, 5)])
def test_batchnorm_backward_reads_a_row_maps_xhat_as_the_whole_one(shape, dtype, budget, row_block, monkeypatch):
    if row_block:
        monkeypatch.setattr(nm, "ROW_BLOCK", row_block)
    if budget:
        monkeypatch.setattr(nm, "ROWS_BUDGET", budget)
    x = rand(shape, seed=106, dtype=dtype, scale=2.0)
    c = shape[1]
    gamma = rand((c,), seed=107, dtype=dtype) + dtype(1.0)
    g = rand(shape, seed=108, dtype=dtype)
    _, xhat, inv_std, _, _ = nm.batchnorm_train(x, gamma, np.zeros(c, dtype=dtype))
    want = nm.batchnorm_backward(g.copy(), gamma, xhat, inv_std)
    got = nm.batchnorm_backward(g, gamma, _row_map(xhat), inv_std, out=g)
    assert got[0] is g and all(_same_bytes(a, b) for a, b in zip(got, want))


def test_row_map_hands_out_only_the_rows_asked_for(monkeypatch):
    a = rand((10, 3, 4, 4), seed=109, dtype=np.float32)  # 192 bytes a row
    monkeypatch.setattr(nm, "ROWS_BUDGET", 3 * 192)
    made = []
    m = _row_map(a, made)
    assert (m.shape, m.ndim, m.dtype, m.itemsize) == (a.shape, 4, np.float32, 4)
    for rows in (slice(0, 1), slice(1, 3), slice(2, 3), slice(3, 4), slice(4, 9), slice(0, 2), slice(9, None)):
        assert _same_bytes(m[rows], a[rows])
    # three rows a make, or the rows asked for when more, from the first
    # row asked for that its block does not hold; never the whole map
    assert made == [range(0, 3), range(3, 6), range(4, 9), range(0, 3), range(9, 10)]
    assert _same_bytes(m[5:5], a[5:5])
    for wrong in (0, slice(0, 4, 2), (slice(0, 1), 0)):
        with pytest.raises(ShapeError):
            m[wrong]


def test_conv_backward_reads_a_row_maps_x_as_the_whole_one(monkeypatch):
    # the sim head's weight gradient reads its input from a RowMap; a
    # same-channel conv asks for one example at a time
    monkeypatch.setattr(nm, "ROWS_BUDGET", 1)
    x = rand((5, 3, 6, 6), seed=110, dtype=np.float32)
    k = rand((3, 3, 3, 3), seed=111, dtype=np.float32)
    g = rand((5, 3, 6, 6), seed=112, dtype=np.float32)
    want = nm.conv2d_backward(x, k, g.copy())
    made = []
    got = nm.conv2d_backward(_row_map(x, made), k, g)
    assert all(_same_bytes(a, b) for a, b in zip(got, want))
    assert made == [range(i, i + 1) for i in range(5)]


def test_batchnorm_eval_out_writes_over_its_input():
    x = rand((5, 3, 4, 4), seed=45, dtype=np.float32)
    gamma, beta = rand((3,), seed=46, dtype=np.float32), rand((3,), seed=47, dtype=np.float32)
    mean, var = rand((3,), seed=48, dtype=np.float32), np.abs(rand((3,), seed=49, dtype=np.float32))
    want = nm.batchnorm_eval(x, gamma, beta, mean, var)
    got = nm.batchnorm_eval(x, gamma, beta, mean, var, out=x)
    assert got is x and _same_bytes(x, want)


# ---------------------------------------------------------------------------
# kernels that write into a buffer their caller hands over
# ---------------------------------------------------------------------------

_SHAPE = (7, 3, 4, 5)  # 7 rows of 60: ROW_BLOCK 130 makes blocks of 2, 2, 2 and 1


def _case_args(kernel):
    """Fresh arguments for one call of kernel; the same values every time."""
    x = rand(_SHAPE, seed=90, dtype=np.float32, scale=2.0)
    g = rand(_SHAPE, seed=91, dtype=np.float32)
    gamma = rand((3,), seed=92, dtype=np.float32) + 1.0
    if kernel == "batchnorm_train":
        return [x, gamma, rand((3,), seed=93, dtype=np.float32)]
    if kernel == "batchnorm_backward":
        _, xhat, inv_std, _, _ = nm.batchnorm_train(x, gamma, gamma)
        return [g, gamma, xhat, inv_std]
    if kernel == "leaky_relu":
        return [x, 0.01]
    if kernel == "leaky_relu_backward":
        return [packed(x >= 0), g, 0.01]
    if kernel == "dropout":
        return [x, 0.3, make_rng(3)]
    if kernel == "dropout_backward":
        return [g, packed(make_rng(4).random(_SHAPE) >= 0.3), 0.3]
    assert kernel == "std_per_feature_map_backward"
    return [x, rand(_SHAPE[:2], seed=94, dtype=np.float32), nm.std_per_feature_map(x)]


# kernel -> position of the argument that out= may be
_TAKES_OUT = {
    "batchnorm_train": 0,
    "batchnorm_backward": 0,
    "leaky_relu": 0,
    "leaky_relu_backward": 1,
    "dropout": 0,
    "dropout_backward": 0,
    "std_per_feature_map_backward": 0,
}


@pytest.mark.parametrize("row_block", [None, 130])
@pytest.mark.parametrize("onto_input", [False, True])
@pytest.mark.parametrize("kernel", sorted(_TAKES_OUT))
def test_out_gives_the_bytes_of_the_allocating_call(kernel, onto_input, row_block, monkeypatch):
    if row_block:
        monkeypatch.setattr(nm, "ROW_BLOCK", row_block)
    fn = getattr(nm, kernel)
    want = fn(*_case_args(kernel))
    args = _case_args(kernel)
    taken = args[_TAKES_OUT[kernel]]
    out = taken if onto_input else np.full_like(taken, np.nan)
    got = fn(*args, out=out)
    want, got = (r if isinstance(r, tuple) else (r,) for r in (want, got))
    assert got[0] is out
    assert len(got) == len(want) and all(_same_bytes(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("row_block", [None, 130, 1])
@pytest.mark.parametrize("shape", [_SHAPE, (300,), ()])
def test_dropout_draws_the_whole_stream_a_block_at_a_time(shape, row_block, monkeypatch):
    if row_block:
        monkeypatch.setattr(nm, "ROW_BLOCK", row_block)
    x = np.asarray(rand(shape, seed=95, dtype=np.float32))
    ref = make_rng(5, 6)
    want = ref.random(shape) >= 0.3
    rng = make_rng(5, 6)
    y, mask = nm.dropout(x, 0.3, rng)
    assert mask.dtype == np.uint8 and mask.shape == packed_shape(shape)
    assert np.array_equal(unpacked(mask, shape), want) and _same_bytes(mask, packed(want))
    assert np.asarray(y).tobytes() == np.asarray(x * want / np.float32(0.7)).tobytes()
    # the generator moved on exactly as far as one whole draw takes it
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("shape", [(), (5,)])
def test_row_blocked_kernels_take_0d_and_1d_input(shape):
    x = np.asarray(rand(shape, seed=96, dtype=np.float32))
    g = np.asarray(rand(shape, seed=97, dtype=np.float32))
    s = np.float32(0.01)
    positive = packed(x >= 0)
    assert _same_bytes(np.asarray(nm.leaky_relu(x, 0.01)), np.asarray(np.where(x >= 0, x, x * s)))
    y, sign = nm.leaky_relu(x, 0.01, need_sign=True)
    assert _same_bytes(np.asarray(y), np.asarray(np.where(x >= 0, x, x * s))) and _same_bytes(sign, positive)
    assert sign.shape == packed_shape(shape)
    assert _same_bytes(nm.leaky_relu_backward(positive, g, 0.01), np.asarray(np.where(x >= 0, g, g * s)))
    keep = np.asarray(make_rng(5).random(shape) >= 0.3)
    _, mask = nm.dropout(x, 0.3, make_rng(5))
    assert _same_bytes(mask, packed(keep))
    assert _same_bytes(nm.dropout_backward(g, mask, 0.3), np.asarray(g * keep / np.float32(0.7)))
    y = x.copy()
    assert nm.leaky_relu(y, 0.01, out=y) is y and _same_bytes(y, np.asarray(np.where(x >= 0, x, x * s)))


@pytest.mark.parametrize("row_block", [None, 130, 1])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_feature_map_variance_is_the_whole_tensor_one(n, dtype, row_block, monkeypatch):
    if row_block:
        monkeypatch.setattr(nm, "ROW_BLOCK", row_block)
    x = rand((n, 3, 4, 5), seed=98, dtype=dtype, scale=3.0) + 1.0
    want = np.sqrt(x.var(axis=(2, 3)) + x.dtype.type(1e-8))
    assert _same_bytes(nm.std_per_feature_map(x), want)


def _transient_bytes(fn):
    """Peak bytes fn() holds beyond what is still allocated once it has
    returned (its results included), under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


# kernel -> a call with out= over a (16, 64, 32, 32) float32 batch, 4 MiB
_IN_PLACE_CALLS = {
    "leaky_relu": lambda x, g, pos, mask: nm.leaky_relu(x, 0.01, out=x),
    "leaky_relu_backward": lambda x, g, pos, mask: nm.leaky_relu_backward(pos, g, 0.01, out=g),
    "dropout": lambda x, g, pos, mask: nm.dropout(x, 0.2, make_rng(7), out=x),
    "dropout_backward": lambda x, g, pos, mask: nm.dropout_backward(g, mask, 0.2, out=g),
    "std_per_feature_map_backward": lambda x, g, pos, mask: nm.std_per_feature_map_backward(
        x, g[:, :, 0, 0].copy(), std=nm.std_per_feature_map(x), out=x
    ),
    # x stands in for xhat: the scratch depends on the shapes alone
    "batchnorm_backward": lambda x, g, pos, mask: nm.batchnorm_backward(
        g, np.ones(64, dtype=np.float32), x, np.ones(64, dtype=np.float32), out=g
    ),
}


@pytest.mark.parametrize("kernel", sorted(_IN_PLACE_CALLS))
def test_in_place_kernels_allocate_under_a_quarter_of_their_input(kernel):
    x = rand((16, 64, 32, 32), seed=99, dtype=np.float32)
    g = rand(x.shape, seed=100, dtype=np.float32)
    pos, mask = packed(x >= 0), packed(g >= -0.8)
    assert _transient_bytes(lambda: _IN_PLACE_CALLS[kernel](x, g, pos, mask)) < x.nbytes // 4


# kernel -> the call, its arguments made from x before it is traced, whose
# full-size side is x; a (32, 64, 32, 32) float32 batch (8 MiB) is block
# 0's output in the benchmark's conv net. Each kernel, working on the whole
# batch at once, held (MiB) 1.03, 4.50, 4.00, 2.00, 4.00, 6.00 and 2.50
_POOL_CALLS = {
    "maxpool2x2": lambda x: partial(nm.maxpool2x2, x),
    "maxpool2x2_backward": lambda x: partial(nm.maxpool2x2_backward, *nm.maxpool2x2(x)),
    "avgpool k=2": lambda x: partial(nm.avgpool, x, 2),
    "avgpool k=4": lambda x: partial(nm.avgpool, x, 4),
    "avgpool_backward k=2": lambda x: partial(nm.avgpool_backward, nm.avgpool(x, 2), 2),
    "avgpool_backward k=2 add_to": lambda x: partial(nm.avgpool_backward, nm.avgpool(x, 2), 2, add_to=x),
    "avgpool_backward k=4 add_to": lambda x: partial(nm.avgpool_backward, nm.avgpool(x, 4), 4, add_to=x),
}


@pytest.mark.parametrize("kernel", list(_POOL_CALLS))
def test_pool_kernels_hold_under_1_mib_of_scratch(kernel):
    x = rand((32, 64, 32, 32), seed=101, dtype=np.float32)
    assert _transient_bytes(_POOL_CALLS[kernel](x)) < 1 << 20


@pytest.mark.parametrize("xs, co, mib", [((32, 3, 32, 32), 64, 0.25), ((32, 64, 16, 16), 128, 0.8)])
def test_conv_holds_its_lowering_and_no_product_of_it(xs, co, mib):
    # the benchmark's conv net's two trunk convs at its batch: one example's
    # im2col buffer (0.11 and 0.56 MiB) and its canvas (0.01 and 0.07); each
    # example's GEMM writes its rows of the output, so no product is made.
    # 1.89 and 4.43 MiB held while a chunk of up to 16 examples was lowered
    # at once, 5.89 for the first when each chunk's GEMM made a product
    x = rand(xs, seed=73, dtype=np.float32)
    k = rand((co, xs[1], 3, 3), seed=74, dtype=np.float32)
    assert _transient_bytes(lambda: nm.conv2d(x, k)) < mib * (1 << 20)
