"""Array kernels with hand-paired forward/backward passes.

There is no autodiff tape anywhere in this package: every forward op here has
a matching ``*_backward`` that consumes the upstream gradient plus whatever
the forward cached, and the training loop wires them together explicitly.

Conventions:
  * tensors are numpy ndarrays, C-order, float32 in training and float64 in
    the gradient-check oracles; ops preserve the input dtype
  * image batches are NCHW
  * backward functions return gradients in the same order as the forward
    arguments they correspond to
  * no kernel overwrites an argument unless its caller hands that array
    over as out=, an array it no longer reads; the result is then written
    there, bit for bit the one a new array gets. These take out=:
    batchnorm_train and batchnorm_eval (block_forward passes the conv/dense
    output; with need_xhat=False batchnorm_train centers the batch there
    too, so the output, xhat and y are one buffer), leaky_relu and dropout
    (the batchnorm output, then the relu's), dropout_backward,
    leaky_relu_backward and batchnorm_backward (the gradient block_backward
    takes over), and std_per_feature_map_backward (sim_loss passes the sim
    head's feature map, which a block that hands its output over has
    written over that output). conv2d_backward takes over g with no out=:
    a same-channel conv writes its dx there, a conv that widens or narrows
    leaves g be (sim_loss and block_backward hand over a gradient they no
    longer read). avgpool_backward takes add_to=, an array its result is
    added into, bit for bit the sum with a new array (a pred head's caller
    passes the sim part's gradient). Every other kernel returns new arrays
  * leaky_relu, dropout, their backwards, the feature-map variance,
    batchnorm_train's variance, batchnorm_backward and the four pool
    kernels (maxpool2x2, avgpool and their backwards, add_to= included)
    work a block of leading rows at a time (see _row_blocks), so their
    scratch stays small; the window masks maxpool2x2_backward ands g's bits
    with are one row block at g's integer width
  * batchnorm_backward's xhat and conv2d_backward's x are read a row block
    at a time, as a[rows] for a slice of leading rows, and nothing else is
    read of them but shape, ndim, dtype and itemsize. So either may be a
    RowMap, an array-like whose rows are made again when they are read, a
    block of about ROWS_BUDGET bytes at a time: a full-size map that can
    be rebuilt bit for bit from a block's cache (its xhat, its output) is
    rebuilt rather than held
  * a per-feature vector meets a map as feature_row lays it out, so the
    elementwise op runs along whole rows
  * the two masks a backward reads, leaky_relu's sign (x >= 0) and
    dropout's keep mask, are bits: np.packbits rows, uint8, with
    ceil(row/8) bytes for each leading-axis row of the tensor (a 1-d
    tensor's rows are single units, a 0-d tensor is one row of one). Only
    this module writes or reads them, a row block at a time, so no
    full-size bool array ever exists

Every convolution is a 3x3 same conv (stride 1, one pixel of zero padding,
so the output keeps the input's extent), the only conv the networks build:
GEMMs over im2col buffers, one example lowered at a time, its GEMM written
straight into its output rows; only a widening conv's weight gradient
lowers x a chunk of examples at a time (see COLS_BUDGET).
conv2d and the input gradient share one private lowering: a conv's dx is the
same conv of g, with the kernel flipped in space and its in and out channels
swapped, so no gradient is scatter-added back into the input. The lowering
zeroes one canvas per call, with a zero row above and below each plane, and
copies each chunk's image rows into it; no chunk is padded on its own, and
each tap of a plane is copied out of it as one run of h*w elements. The
weight gradient comes from the smaller of the two lowerings a backward could
make, x's (ci*9 rows) or g's (co*9 rows, both of n*h*w columns), and when it
is g's the input gradient's GEMM reads the same buffer: a conv that keeps or
narrows its channels, such as the sim heads', lowers once per backward, a
conv that widens them lowers x for dk and g for dx.
std_per_feature_map_backward takes the forward's std, and writes the
gradient into one buffer.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, InputError, ShapeError


# Elements one block of a row-blocked loop covers: Adam, leaky_relu, dropout,
# their backwards, the feature-map variance, batchnorm_backward's two passes
# over xhat and the pool kernels each work through their tensor a block of
# whole leading-axis rows at a time, so their scratch stays cache-sized
# instead of as large as the tensor.
ROW_BLOCK = 1 << 16


def _row_blocks(a: np.ndarray, *dtypes):
    """Yield (rows, *scratch) over a's leading axis (a.ndim >= 1), in order:
    rows slices whole rows, at least one, of about ROW_BLOCK elements in all;
    one scratch per dtype, shaped like a[rows] and reused by every block."""
    n = len(a)
    step = max(1, ROW_BLOCK // max(1, a[0].size)) if n else 1
    scratch = [np.empty((min(step, n),) + a.shape[1:], dtype=d) for d in dtypes]
    for i in range(0, n, step):
        size = min(step, n - i)
        yield (slice(i, i + size), *(s[:size] for s in scratch))


# Bytes of rows a RowMap makes at once, and of the examples a handed-over
# sim head's map is made in (losses.sim_loss). Measured on the benchmark's
# conv net under predsim at batch 32 (a 2-core Xeon, OpenBLAS), whose block
# 0 output is 8 MiB: one example at a time held the same 15.93 MiB step
# peak and ran 7% slower (paired step ratio 1.074 [1.033, 1.098], 30
# pairs); 2 MiB ran 4% faster (0.959 [0.941, 0.982]) and peaked at 16.57
# MiB, 4 MiB at 18.56.
ROWS_BUDGET = 1 << 20


class RowMap:
    """A full-size map that is never whole: an array-like with the map's
    shape, ndim, dtype and itemsize whose a[rows], for a slice of leading
    rows, hands out those rows, made by make(rows). It makes the block of
    rows from rows.start that covers ROWS_BUDGET bytes, or the rows asked
    for when they are more, keeps that block alone, and hands out later
    requests inside it from it, so the row-blocked kernels that read a
    map's rows in order (batchnorm_backward's xhat, a same-channel
    conv2d_backward's x) read one block per ROWS_BUDGET bytes. make must give
    each row's bytes whatever rows it is asked for together; what a[rows]
    hands out is a view of the block, so read it before the next a[...]."""

    def __init__(self, shape: tuple, dtype, make):
        self.shape = tuple(shape)
        self.ndim = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self._make = make
        self._step = max(1, ROWS_BUDGET // (self.itemsize * max(1, math.prod(self.shape[1:]))))
        self._block, self._start = None, 0

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice):
            raise ShapeError(f"a RowMap hands out a slice of leading rows, not {rows!r}")
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ShapeError("a RowMap hands out contiguous rows")
        stop = max(start, stop)
        if self._block is None or not self._start <= start <= stop <= self._start + len(self._block):
            self._block = None  # dies before the next block is made
            end = min(self.shape[0], max(stop, start + self._step))
            self._block, self._start = self._make(slice(start, end)), start
        return self._block[start - self._start : stop - self._start]


def _as_float(x, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        raise ShapeError(f"{name} must be float32 or float64, got {x.dtype}")
    return x


# ---------------------------------------------------------------------------
# dense / conv primitives
# ---------------------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-d matrix product a @ b with explicit shape validation."""
    a = _as_float(a, "a")
    b = _as_float(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    return a @ b


def matmul_backward(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Gradients of sum(g * (a@b)) w.r.t. a and b."""
    if g.shape != (a.shape[0], b.shape[1]):
        raise ShapeError(f"upstream grad shape {g.shape} does not match {(a.shape[0], b.shape[1])}")
    return g @ b.T, a.T @ g


# Bytes one chunk of a widening conv's weight-gradient lowering may take, or
# a quarter of the conv output's bytes when that is more, with the copy of
# g's chunk that the GEMM multiplies it by. That dk is one GEMM per chunk,
# the chunk's examples along K, so the chunk size fixes its bytes; the
# quarter keeps the number of chunks of a batch whose conv output exceeds
# 16 MiB at a few dozen. Every other lowering goes one example at a time:
# each example's rows are one GEMM of its own columns, so a larger buffer
# buys neither bytes nor speed. evaluate slices its split so that no
# activation exceeds the budget either.
COLS_BUDGET = 4 << 20


def _im2col_chunks(x: np.ndarray, m: int):
    """Yield (examples, cols) over the batch in chunks of m examples, the
    last one short if m does not divide it; cols[(c,u,v), (i,p,q)] is pixel
    (c, p+u-1, q+v-1) of example i of the chunk, zero off the image, so
    that a product with cols is a single 2-d GEMM. The caller sets m.

    Each chunk is copied into one zeroed canvas per call, whose (example,
    channel) planes are padded by a zero row above and below, not at the
    sides, and the canvas by one guard element at each end; only the image
    rows are ever written. On it, tap (u, v) of a plane is the run of h*w
    elements from offset u*w + v - 1, so cols takes each tap of every plane
    as one contiguous copy. Only the first column of a v = 0 tap and the
    last of a v = 2 tap read across a row's edge (the guards included), so
    they are zeroed after the copy. cols, too, is one buffer per call, so a
    consumer must be done with one chunk's cols before it asks for the next.
    """
    n, ci, h, w = x.shape
    plane = (h + 2) * w
    canvas = np.zeros(min(m, n) * ci * plane + 2, dtype=x.dtype)
    buf = np.empty(ci * 9 * min(m, n) * h * w, dtype=x.dtype)
    s = x.itemsize
    for i in range(0, n, m):
        rows = slice(i, i + m)
        size = min(m, n - i)
        canvas[1 : 1 + size * ci * plane].reshape(size, ci, h + 2, w)[:, :, 1:-1] = x[rows]
        # taps[c, u, v, i] is the run of tap (u, v) of example i's plane c
        taps = as_strided(canvas, (ci, 3, 3, size, h * w), (plane * s, w * s, s, ci * plane * s, s), writeable=False)
        cols = buf[: ci * 9 * size * h * w].reshape(ci, 3, 3, size, h, w)
        np.copyto(cols.reshape(taps.shape), taps)
        cols[:, :, 0, :, :, 0] = 0
        cols[:, :, 2, :, :, -1] = 0
        yield rows, cols.reshape(ci * 9, -1)


def _lowered_conv(x: np.ndarray, k: np.ndarray):
    """The (n, co, h, w) conv of x with k: x lowered one example at a time,
    each example's GEMM written into its rows."""
    n, _, h, w = x.shape
    co = k.shape[0]
    out = np.empty((n, co, h * w), dtype=x.dtype)
    k2 = k.reshape(co, -1)
    for rows, cols in _im2col_chunks(x, 1):
        np.matmul(k2, cols[None], out=out[rows])
    return out.reshape(n, co, h, w)


def _check_conv(x: np.ndarray, k: np.ndarray) -> None:
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and k, got {x.shape} and {k.shape}")
    if x.shape[1] != k.shape[1]:
        raise ShapeError(f"channel mismatch: input has {x.shape[1]}, kernel expects {k.shape[1]}")
    if k.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d takes 3x3 kernels, got {k.shape[2]}x{k.shape[3]}")


def conv2d(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """3x3 same cross-correlation of an NCHW batch with OIHW kernels.

    Lowered one example at a time, to one GEMM per example: the kernel as a
    (co, ci*9) matrix times that example's im2col buffer, written straight
    into the example's rows of the output. So an example's output depends
    on that example alone, and the call holds one example's buffer and no
    product of its own.
    """
    x = _as_float(x, "x")
    k = _as_float(k, "k")
    _check_conv(x, k)
    return _lowered_conv(x, k)


def _conv_grads(x: np.ndarray, k: np.ndarray, g: np.ndarray, need_dx: bool):
    """(dx or None, dk) of sum(g * conv2d(x, k)).

    dx is the same conv of g with the kernel flipped in space and its in
    and out channels swapped.

    dk comes from whichever lowering is smaller, chosen on the shapes alone,
    so it is the same bytes with or without dx. x's im2col has ci*9 rows,
    g's co*9, both of n*h*w columns. x's is lowered in the chunks
    COLS_BUDGET sizes, and dk adds up g @ colsᵀ over them, one GEMM per
    chunk whose size fixes dk's bytes; dx, if wanted, lowers g afterwards.
    g's is lowered one example at a time, and the same cols feed both
    GEMMs, one lowering in all: dk adds up cols @ x[i]ᵀ, a (co, 2-u, 2-v)
    by ci product that the end un-flips to (co, ci, u, v), and dx, as
    conv2d does, is one GEMM per example written into its rows.
    """
    _check_conv(x, k)
    n, ci, h, w = x.shape
    co = k.shape[0]
    if g.shape != (n, co, h, w):
        raise ShapeError(f"upstream grad shape {g.shape} does not match {(n, co, h, w)}")
    flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if co > ci:
        g3 = g.reshape(n, co, h * w)
        dk = np.zeros_like(k).reshape(co, -1)
        budget = max(COLS_BUDGET, x.itemsize * n * co * h * w // 4)
        m = max(1, budget // (x.itemsize * h * w * max(ci * 9, co)))  # a chunk's cols or g's copy
        for rows, cols in _im2col_chunks(x, m):
            dk += g3[rows].transpose(1, 0, 2).reshape(co, -1) @ cols.T
        cols = None  # the weight pass's im2col buffer dies before the dx pass makes its own
        dx = _lowered_conv(g, flipped) if need_dx else None
        return dx, dk.reshape(k.shape)
    dkf = np.zeros((co * 9, ci), dtype=k.dtype)
    # a same-channel dx takes over g: each example of g is in the canvas
    # before its dx rows are written over it
    dx = None
    if need_dx:
        dx = g.reshape(n, ci, h * w) if ci == co else np.empty((n, ci, h * w), dtype=x.dtype)
    f2 = flipped.reshape(ci, -1)
    for rows, cols in _im2col_chunks(g, 1):
        dkf += cols @ x[rows].reshape(ci, h * w).T
        if need_dx:
            np.matmul(f2, cols[None], out=dx[rows])
    dk = dkf.reshape(co, 3, 3, ci)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return (None if dx is None else dx.reshape(n, ci, h, w)), np.ascontiguousarray(dk)


def conv2d_backward(x: np.ndarray, k: np.ndarray, g: np.ndarray):
    """Gradients (dx, dk) of sum(g * conv2d(x, k)) w.r.t. x and k.

    Takes over g: a same-channel conv (ci == co) writes dx into g's buffer,
    bit for bit the dx a new array gets, so a caller that reads g afterwards
    must pass a copy. A conv that widens or narrows its channels leaves g
    as it was. x is read as x[rows], one example or one lowering chunk at a
    time, so it may be a RowMap."""
    return _conv_grads(x, k, g, need_dx=True)


def conv2d_weight_grad(x: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The dk of conv2d_backward alone, bit for bit, for a caller that never
    reads the input gradient."""
    return _conv_grads(x, k, g, need_dx=False)[1]


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

# (row, column) of each position in a 2x2 window, in row-major order: the
# maxpool index is a position in this tuple
_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: np.ndarray, need_index: bool = True):
    """2x2/stride-2 max pooling; returns (pooled, index).

    index holds each window's winning position (0..3, row-major in the
    window) as uint8, for maxpool2x2_backward; with need_index=False, for a
    caller that never backpropagates through the pool, it is not computed
    and comes back None. Ties go to the first maximum in row-major window
    order: each tap is folded into the running max as np.maximum(tap, max),
    which keeps its second argument on a tie (+0 against -0 too), and the
    index moves only where a tap is strictly greater. Odd spatial extents
    are an error, halving must be exact. Works a block of examples at a
    time, so each tap's wins exist one block at a time.
    """
    x = _as_float(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"maxpool2x2 expects NCHW, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even extents, got {h}x{w}")
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
    idx = np.empty(out.shape, dtype=np.uint8) if need_index else None
    for (rows,) in _row_blocks(out):
        t0, t1, t2, t3 = (x[rows, :, u::2, v::2] for u, v in _POOL_TAPS)
        top = out[rows]
        if need_index:
            at = idx[rows]
            np.greater(t1, t0, out=at.view(np.bool_))
        np.maximum(t1, t0, out=top)
        for p, tap in ((2, t2), (3, t3)):
            if need_index:
                # p where this tap wins, 0 elsewhere: the later winner has the larger p
                wins = (tap > top).view(np.uint8)
                wins *= np.uint8(p)
                np.maximum(at, wins, out=at)
            np.maximum(tap, top, out=top)
    return out, idx


def maxpool2x2_backward(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Route the upstream gradient to the winning input positions, +0 to
    the rest.

    One pass per window position, through its strided view of dx: g's bits
    and-ed with an all-ones mask where the position won (an exact copy, -0
    and NaN included) and an all-zeros one where it lost (+0). The mask is
    one block of examples at g's integer width.
    """
    if g.shape != idx.shape:
        raise ShapeError(f"grad shape {g.shape} does not match index shape {idx.shape}")
    n, c, ho, wo = g.shape
    bits = np.dtype(f"i{g.itemsize}")  # the signed integer as wide as g's floats
    dx = np.empty((n, c, 2 * ho, 2 * wo), dtype=g.dtype)
    gb, dxb = g.view(bits), dx.view(bits)
    for rows, mask in _row_blocks(g, bits):
        for p, (u, v) in enumerate(_POOL_TAPS):
            np.equal(idx[rows], p, out=mask)
            np.negative(mask, out=mask)  # 1 -> all ones
            np.bitwise_and(gb[rows], mask, out=dxb[rows, :, u::2, v::2])
    return dx


def avgpool(x: np.ndarray, k: int) -> np.ndarray:
    """k x k / stride-k average pooling; k must divide both spatial extents.

    Sums each window's k rows as k strided slices of whole image rows, then
    the k columns of that as k strided slices, and divides once by k*k; the
    row sums exist a block of examples at a time.
    """
    x = _as_float(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"avgpool expects NCHW, got {x.shape}")
    if k < 1:
        raise ConfigError(f"avgpool kernel must be >= 1, got {k}")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"avgpool kernel {k} does not divide extents {h}x{w}")
    win_rows = x.reshape(n, c, h // k, k, w)
    out = np.empty((n, c, h // k, w // k), dtype=x.dtype)
    for rows, acc in _row_blocks(win_rows[:, :, :, 0], x.dtype):
        np.copyto(acc, win_rows[rows, :, :, 0])
        for u in range(1, k):
            acc += win_rows[rows, :, :, u]
        cols = acc.reshape(-1, c, h // k, w // k, k)
        pooled = out[rows]
        np.copyto(pooled, cols[..., 0])
        for v in range(1, k):
            pooled += cols[..., v]
        pooled /= x.dtype.type(k * k)
    return out


def avgpool_backward(g: np.ndarray, k: int, add_to=None) -> np.ndarray:
    """Spread each pooled gradient uniformly over its k*k window: each
    scaled value repeated k times along a row, then each such row written k
    times, a block of examples at a time.

    With add_to, a C-ordered (n, c, ho*k, wo*k) array its caller hands over,
    the rows are added into it instead of written into a new array, and
    add_to comes back: bit for bit add_to + avgpool_backward(g, k).
    """
    if g.ndim != 4:
        raise ShapeError(f"avgpool_backward expects NCHW grad, got {g.shape}")
    n, c, ho, wo = g.shape
    if add_to is not None and (add_to.shape != (n, c, ho * k, wo * k) or not add_to.flags.c_contiguous):
        raise ShapeError(f"avgpool_backward adds into a C-ordered {(n, c, ho * k, wo * k)} array, got {add_to.shape}")
    dx = np.empty((n, c, ho * k, wo * k), dtype=g.dtype) if add_to is None else add_to
    win_rows = dx.reshape(n, c, ho, k, wo * k)
    for rows, row in _row_blocks(win_rows[:, :, :, 0], g.dtype):
        np.divide(g[rows, :, :, :, None], k * k, out=row.reshape(-1, c, ho, wo, k))
        dst = win_rows[rows]
        if add_to is None:
            dst[...] = row[:, :, :, None]
        else:
            np.add(dst, row[:, :, :, None], out=dst)
    return dx


# ---------------------------------------------------------------------------
# normalization / activation / regularization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5  # batchnorm's variance floor, one for train and eval mode so a net scores as it trained
STD_EPS = 1e-8  # std_per_feature_map's variance floor


def _bn_axes(x: np.ndarray):
    if x.ndim == 2:
        return (0,)
    if x.ndim == 4:
        return (0, 2, 3)
    raise ShapeError(f"batchnorm expects 2-d or 4-d input, got {x.shape}")


def feature_row(v: np.ndarray, x) -> np.ndarray:
    """v, one value per feature (axis 1) of a dense or NCHW x, laid out as
    one of x's leading-axis rows: a conv map's channel values each repeated
    over its plane. An elementwise op of x with it is, bit for bit, the op
    with v broadcast per feature, but numpy runs it along whole contiguous
    rows instead of one (H, W) plane at a time, about twice as fast on a
    conv map."""
    return v if x.ndim == 2 else np.repeat(v, math.prod(x.shape[2:])).reshape(x.shape[1:])


def _bn_param(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p, once its shape is checked against x's features."""
    c = x.shape[1]
    if p.shape != (c,):
        raise ShapeError(f"batchnorm parameter shape {p.shape} does not match {c} features")
    return p


def _square_sum(flat: np.ndarray):
    """The sum of a contiguous 1-d run's squares, bit for bit the one numpy's
    pairwise sum makes of them: numpy adds a run of up to 128 elements in
    eight accumulators and splits a longer one at half its length rounded
    down to a multiple of 8, so a run of more than ROW_BLOCK (and 128)
    elements is split where numpy splits it, and the squares exist one leaf
    at a time."""
    n = len(flat)
    if n <= max(ROW_BLOCK, 128):
        return np.square(flat).sum()
    half = n // 2 - n // 2 % 8
    return _square_sum(flat[:half]) + _square_sum(flat[half:])


def _mean_square(a: np.ndarray) -> np.ndarray:
    """np.square(a).mean(axis=_bn_axes(a)) of a C-ordered a, bit for bit, with
    the squares a row block at a time. numpy adds up a map of more than one
    feature example by example, one pairwise sum per (H, W) plane (a dense
    row's elements one each), so the per-example plane sums are added in
    example order. A one-feature map is one contiguous run, which numpy sums
    pairwise as a whole (see _square_sum). The count divides as np.mean
    divides it."""
    c = a.shape[1]
    acc = np.zeros(c, dtype=a.dtype)
    if c == 1:
        acc[0] = _square_sum(a.reshape(-1))
    else:
        for rows, sq in _row_blocks(a, a.dtype):
            np.square(a[rows], out=sq)
            sums = sq if a.ndim == 2 else sq.sum(axis=(2, 3))
            # the sum so far, then the block's: one reduction over examples,
            # which numpy makes in example order for more than one feature
            acc = np.add.reduce(np.concatenate((acc[None], sums)), axis=0)
    return np.true_divide(acc, np.intp(a.size // c), out=acc, casting="unsafe")


def batchnorm_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out=None, need_xhat: bool = True):
    """Train-mode batch normalization over the feature axis.

    Uses population (1/N) variance. Returns (y, xhat, inv_std, mean, var);
    mean/var are the batch statistics the caller folds into running stats.
    The batch is centered once, the variance is the mean of the centered
    batch's squares (the bytes of x.var), taken a row block at a time (see
    _mean_square), and the centered batch becomes xhat in place. y is
    written into out (a new array by default; out=x overwrites x once the
    mean is taken). With need_xhat=False, for a caller that never reads xhat
    (block_backward rebuilds it), the batch is centered in out, which
    becomes xhat and then y, the same ops in the same order, and xhat comes
    back None: the call holds no other buffer of x's size.
    """
    x = _as_float(x, "x")
    if x.shape[0] < 2:
        raise InputError("batchnorm in train mode needs a batch of at least 2")
    gamma, beta = (feature_row(_bn_param(x, p), x) for p in (gamma, beta))
    mean = x.mean(axis=_bn_axes(x))
    xhat = np.subtract(x, feature_row(mean, x), out=None if need_xhat else out)
    var = _mean_square(xhat)  # population variance, matches the running-stat update
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= feature_row(inv_std, x)
    y = np.multiply(gamma, xhat, out=out if need_xhat else xhat)
    y += beta
    return y, (xhat if need_xhat else None), inv_std, mean, var


def batchnorm_eval(x, gamma, beta, running_mean, running_var, out=None):
    """Eval-mode batch normalization using stored running statistics.

    Works in one buffer, out (a new array by default; out=x overwrites x):
    the same elementwise steps in the same order as
    gamma * ((x - mean) * inv_std) + beta.
    """
    x = _as_float(x, "x")
    _bn_axes(x)
    inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
    y = np.subtract(x, feature_row(_bn_param(x, running_mean), x), out=out)
    y *= feature_row(inv_std, x)
    y *= feature_row(_bn_param(x, gamma), x)
    y += feature_row(_bn_param(x, beta), x)
    return y


def batchnorm_backward(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, out=None):
    """Full batch-coupled backward pass; returns (dx, dgamma, dbeta).

    dx includes the mean/variance coupling terms, so perturbing one example
    moves every other example's gradient, which the finite-difference checks
    rely on. With N examples per feature it is
    gamma * inv_std / N * (N*g - dbeta - xhat*dgamma): the coupling sums of
    g*gamma and g*gamma*xhat are gamma times dbeta and dgamma. dgamma adds
    up the sums of g*xhat a block of rows at a time (see _row_blocks), and
    xhat*dgamma is subtracted a block at a time, so the scratch stays
    block-sized; xhat is read as xhat[rows] in those two passes alone, so
    it may be a RowMap. dx is written into out (a new array by default;
    out=g overwrites g once both sums are taken).
    """
    if g.shape != xhat.shape:
        raise ShapeError(f"grad shape {g.shape} does not match activations {xhat.shape}")
    axes = _bn_axes(g)
    count = g.dtype.type(g.size // g.shape[1])
    gamma = _bn_param(g, gamma)
    dgamma = np.zeros(g.shape[1], dtype=g.dtype)
    for rows, scratch in _row_blocks(g, g.dtype):
        dgamma += np.multiply(g[rows], xhat[rows], out=scratch).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dx = np.multiply(g, count, out=out)
    dx -= feature_row(dbeta, g)
    coupled = feature_row(dgamma, g)
    for rows, scratch in _row_blocks(g, g.dtype):
        dx[rows] -= np.multiply(xhat[rows], coupled, out=scratch)
    coupled = None
    dx *= feature_row(gamma * inv_std / count, g)
    return dx, dgamma, dbeta


def _packed_shape(a: np.ndarray) -> tuple:
    """Shape of the packed mask of a: one row of ceil(row/8) bytes for each
    leading-axis row of a (a 0-d a is one row of one)."""
    rows = np.atleast_1d(a)
    return (len(rows), (math.prod(rows.shape[1:]) + 7) // 8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """The packed rows of a bool block, one per leading-axis row."""
    return np.packbits(bits.reshape(len(bits), -1), axis=1)


def _unpack(packed: np.ndarray, shape: tuple) -> np.ndarray:
    """The 0/1 uint8 block of `shape` whose rows packed holds."""
    return np.unpackbits(packed, axis=1, count=math.prod(shape[1:])).reshape(shape)


def _check_packed(mask: np.ndarray, g: np.ndarray, what: str) -> None:
    want = _packed_shape(g)
    if mask.dtype != np.uint8 or mask.shape != want:
        raise ShapeError(f"{what} takes the packed uint8 {want} mask of a {g.shape} grad, got {mask.dtype} {mask.shape}")


def leaky_relu(x: np.ndarray, slope: float = 0.0, out=None, need_sign: bool = False):
    """max(x, slope*x) for 0 <= slope <= 1; slope 0 is plain relu.

    In that range this is bit for bit where(x >= 0, x, slope*x), signed
    zeros included. slope*x exists one block of rows at a time. The result
    goes into out (a new array by default; out=x overwrites x). With
    need_sign=True, for a caller that backpropagates, it returns (out, sign),
    sign the packed mask of x >= 0 (see the module docstring) that
    leaky_relu_backward reads.
    """
    x = _as_float(x, "x")
    if out is None:
        out = np.empty_like(x)
    xs, ys = np.atleast_1d(x, out)  # a 0-d x is one row
    sign = np.empty(_packed_shape(x), dtype=np.uint8) if need_sign else None
    for rows, scaled in _row_blocks(xs, x.dtype):
        if need_sign:  # before out, which may be x, is written
            sign[rows] = _pack(xs[rows] >= 0)
        np.multiply(xs[rows], x.dtype.type(slope), out=scaled)
        np.maximum(xs[rows], scaled, out=ys[rows])
    return (out, sign) if need_sign else out


def leaky_relu_backward(positive: np.ndarray, g: np.ndarray, slope: float = 0.0, out=None) -> np.ndarray:
    """Gradient through leaky_relu from the forward's packed sign mask of
    x >= 0: g times 1 where it is set (g exactly), times slope elsewhere.

    The factor exists one block of rows at a time. The result goes into out
    (a new C-ordered array by default; out=g overwrites g).
    """
    _check_packed(positive, g, "leaky_relu_backward")
    if out is None:
        out = np.empty(g.shape, dtype=g.dtype)
    table = np.array([slope, 1], dtype=g.dtype)
    gs, ys = np.atleast_1d(g, out)
    for rows, factor in _row_blocks(gs, g.dtype):
        np.take(table, _unpack(positive[rows], factor.shape), out=factor, mode="clip")  # indices are 0 and 1
        np.multiply(gs[rows], factor, out=ys[rows])
    return out


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator, out=None):
    """Inverted dropout, for training. Returns (y, mask).

    Keeping E[y] = x means surviving units are scaled by 1/(1-rate), so an
    eval-mode network skips dropout altogether. The mask is the packed
    form (see the module docstring) of rng.random(x.shape) >= rate, drawn a
    block of rows at a time into one small float64 buffer: the same doubles,
    and the same generator state after, as one whole draw. y goes into out
    (a new array by default; out=x overwrites x).
    """
    x = _as_float(x, "x")
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if out is None:
        out = np.empty_like(x)
    mask = np.empty(_packed_shape(x), dtype=np.uint8)  # depends on shape and rng only, never on values
    xs, ys = np.atleast_1d(x, out)
    scale = x.dtype.type(1.0 - rate)
    for rows, draw in _row_blocks(xs, np.float64):
        rng.random(out=draw)
        keep = draw >= rate
        mask[rows] = _pack(keep)
        np.multiply(xs[rows], keep, out=ys[rows])
        ys[rows] /= scale
    return out, mask


def dropout_backward(g: np.ndarray, mask: np.ndarray, rate: float, out=None) -> np.ndarray:
    """g * mask / (1 - rate) from the forward's packed mask, a block of rows
    at a time, written into out (a new array by default; out=g overwrites
    g)."""
    _check_packed(mask, g, "dropout_backward")
    if out is None:
        out = np.empty(g.shape, dtype=g.dtype)
    gs, ys = np.atleast_1d(g, out)
    scale = g.dtype.type(1.0 - rate)
    for (rows,) in _row_blocks(gs):
        np.multiply(gs[rows], _unpack(mask[rows], gs[rows].shape), out=ys[rows])
        ys[rows] /= scale
    return out


def std_per_feature_map(x: np.ndarray) -> np.ndarray:
    """Population std over each (H, W) feature map; (n,c,h,w) -> (n,c).

    STD_EPS inside the sqrt keeps constant maps differentiable (their std
    reports as sqrt(STD_EPS) instead of 0). The variance is taken a block of
    examples at a time, so its centered squares stay block-sized.
    """
    x = _as_float(x, "x")
    if x.ndim != 4:
        raise ShapeError(f"std_per_feature_map expects NCHW, got {x.shape}")
    var = np.empty(x.shape[:2], dtype=x.dtype)
    for (rows,) in _row_blocks(x):
        var[rows] = x[rows].var(axis=(2, 3))
    return np.sqrt(var + x.dtype.type(STD_EPS))


def std_per_feature_map_backward(x: np.ndarray, g: np.ndarray, std: np.ndarray, out=None) -> np.ndarray:
    """Gradient of sum(g * std_per_feature_map(x)) w.r.t. x, std the
    forward's result.

    The gradient is written into one buffer, out (a new array by default;
    out=x overwrites x).
    """
    if g.shape != x.shape[:2]:
        raise ShapeError(f"grad shape {g.shape} does not match {x.shape[:2]}")
    n, c, h, w = x.shape
    # d std/dx_i = (x_i - mu) / (HW * s); the mean term cancels because sum(x - mu) = 0
    dx = np.subtract(x, x.mean(axis=(2, 3), keepdims=True), out=out)
    dx *= g[:, :, None, None]
    dx /= x.dtype.type(h * w) * std[:, :, None, None]
    return dx


# ---------------------------------------------------------------------------
# classification losses
# ---------------------------------------------------------------------------


def one_hot(labels: np.ndarray, classes: int, dtype=np.float32) -> np.ndarray:
    """Integer labels (n,) -> one-hot rows (n, classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= classes):
        raise InputError(f"labels out of range for {classes} classes")
    out = np.zeros((labels.size, classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1
    return out


def _check_one_hot(targets: np.ndarray, logits_shape) -> None:
    if targets.shape != logits_shape:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits_shape}")
    ones = targets == 1
    if not (np.all((targets == 0) | ones) and np.all(ones.sum(axis=1) == 1)):
        raise InputError("targets must be one-hot rows")


def cross_entropy_logits(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy from raw logits; returns (loss, dlogits).

    Stabilised with log-sum-exp, so a 1000-unit logit margin neither
    overflows nor underflows.
    """
    logits = _as_float(logits, "logits")
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (n, classes), got {logits.shape}")
    _check_one_hot(np.asarray(targets), logits.shape)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(targets * logp).sum() / n)
    dlogits = (np.exp(logp) - targets) / logits.dtype.type(n)
    return loss, dlogits


def bce_logits(logits: np.ndarray, targets: np.ndarray):
    """Mean elementwise binary cross-entropy from logits; returns (loss, dlogits).

    Targets are 0/1 floats of the same shape. The loss averages over every
    element, and uses the max(z,0) - z*t + log1p(exp(-|z|)) form to stay
    finite for any logit magnitude.
    """
    logits = _as_float(logits, "logits")
    targets = np.asarray(targets)
    if targets.shape != logits.shape:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if not np.all((targets == 0) | (targets == 1)):
        raise InputError("binary targets must be 0 or 1")
    z = logits
    e = np.exp(-np.abs(z))
    loss = float((np.maximum(z, 0) - z * targets + np.log1p(e)).mean())
    # the sigmoid as 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below,
    # both from e, so neither exp can overflow
    d = 1.0 + e
    sig = np.where(z >= 0, 1.0 / d, e / d)
    dlogits = (sig - targets) / z.dtype.type(z.size)
    return loss, dlogits
