"""Acceptance gate: ten binding criteria, one test each.

Each test prints a single [criterion N] PASS line once its assertions hold,
so a verbose run reads as a checklist. Criterion 6 needs the real MNIST IDX
files; when they are absent the test skips loudly instead of faking a result
(see the README for how to supply them).
"""

import hashlib
import os
import time

import numpy as np
import pytest

import locallearn.data as dt
import locallearn.layers as ly
import locallearn.losses as ls
import locallearn.trainer as tr
from locallearn.data import AugmentConfig, synthetic_blobs
from locallearn.numerics import one_hot
from locallearn.rng import make_rng
from locallearn.trainer import TrainConfig

from conftest import peak_live_caches

LOCAL_MODES = tuple(m for m, row in ls.MODE_TABLE.items() if row.local)


def _grab_all_params(block):
    names = ["weight", "bias", "gamma", "beta", "cls_w", "cls_b",
             "sim_w", "sim_b", "feedback", "proj"]
    return {n: getattr(block, n) for n in names if getattr(block, n) is not None}


def _build(mode, arch, in_shape, classes, seed=0, **kw):
    return tr.build_network(TrainConfig(arch=arch, loss=mode, seed=seed, **kw), in_shape, classes)


# ---------------------------------------------------------------------------
# 1. gradient oracle suite
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle_suite(gradcheck_run):
    results, elapsed = gradcheck_run
    bad = [(r.name, r.max_err) for r in results if not (r.ok and r.max_err < 1e-4)]
    assert bad == [], f"gradient checks out of tolerance: {bad}"
    covered = {r.name for r in results}
    for mode in ("pred", "sim", "predsim", "pred-bpf", "sim-bpf", "predsim-bpf",
                 "glob", "glob+sim"):
        assert f"mode_{mode}" in covered
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: {len(results)} checks < 1e-4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. detachment on a 4-block net
# ---------------------------------------------------------------------------

def test_criterion_02_detachment_four_blocks():
    arch, in_shape, classes = "fc16-fc16-fc16-fc16-fc", (12, 1, 1), 3
    x = make_rng(301).standard_normal((8, 12, 1, 1)).astype(np.float32)
    y = one_hot(np.arange(8) % classes, classes, np.float32)

    for mode in LOCAL_MODES:
        base = _build(mode, arch, in_shape, classes, seed=9)
        ref = tr.GradRecorder()
        tr.train_step(base, x, y, 1e-3, tr.dropout_rngs(77, 0, len(base.blocks)), update=ref)

        for j in range(1, 4):
            poked = _build(mode, arch, in_shape, classes, seed=9)
            for arr in _grab_all_params(poked.blocks[j]).values():
                arr += np.float32(0.05)
            got = tr.GradRecorder()
            tr.train_step(poked, x, y, 1e-3, tr.dropout_rngs(77, 0, len(poked.blocks)), update=got)
            for i in range(j):
                for name in ref[i]:
                    assert np.array_equal(ref[i][name], got[i][name]), \
                        f"{mode}: block {i} grad {name} moved when block {j} was perturbed"
            assert any(not np.array_equal(ref[j][n], got[j][n]) for n in ref[j]), \
                f"{mode}: perturbing block {j} changed nothing (test has no teeth)"
    print("\n[criterion 2] PASS: upstream grads bit-identical under downstream "
          f"perturbation, {len(LOCAL_MODES)} modes x 3 perturbed blocks")


# ---------------------------------------------------------------------------
# 3. feedback alignment structure
# ---------------------------------------------------------------------------

def test_criterion_03_feedback_alignment_structure():
    ds = synthetic_blobs(classes=3, per_class=60, dim=16, separation=6.0, seed=21)
    net = _build("pred-bpf", "fc32-fc32-fc", (16, 1, 1), 3, seed=4)

    def fixed_hashes():
        return [
            (hashlib.sha256(b.feedback.tobytes()).hexdigest(),
             hashlib.sha256(b.proj.tobytes()).hexdigest())
            for b in net.blocks
        ]

    before = fixed_hashes()
    rng = make_rng(22)
    for step in range(100):
        idx = rng.choice(len(ds), size=32, replace=False)
        yb = one_hot(ds.labels[idx], 3, np.float32)
        tr.train_step(net, ds.images[idx], yb, 5e-4, tr.dropout_rngs(22, step, len(net.blocks)))
    assert fixed_hashes() == before, "a fixed matrix moved during training"

    # swapping B changes dL/dH but leaves the classifier's own gradient alone
    h = make_rng(23).standard_normal((8, 32))
    t = make_rng(24).integers(0, 2, (8, 128)).astype(np.float64)
    w = make_rng(25).standard_normal((32, 128))
    b = np.zeros(128)
    r1 = ls.pred_bpf_loss(h, t, w, b, make_rng(26).standard_normal((32, 128)))
    r2 = ls.pred_bpf_loss(h, t, w, b, make_rng(27).standard_normal((32, 128)))
    assert np.array_equal(r1.grads["cls_w"], r2.grads["cls_w"])
    assert np.array_equal(r1.grads["cls_b"], r2.grads["cls_b"])
    assert not np.array_equal(r1.dh, r2.dh)

    # and at the network level: only gradients downstream of dH move
    x = ds.images[:16]
    y = one_hot(ds.labels[:16], 3, np.float32)
    g1, g2 = tr.GradRecorder(), tr.GradRecorder()
    tr.train_step(net, x, y, 5e-4, tr.dropout_rngs(1, 0, len(net.blocks)), update=g1)
    net.blocks[0].feedback = make_rng(28).standard_normal(net.blocks[0].feedback.shape).astype(np.float32)
    tr.train_step(net, x, y, 5e-4, tr.dropout_rngs(1, 0, len(net.blocks)), update=g2)
    assert np.array_equal(g1[0]["cls_w"], g2[0]["cls_w"])
    assert not np.array_equal(g1[0]["weight"], g2[0]["weight"])
    print("\n[criterion 3] PASS: B frozen across 100 steps; B-swap moved dL/dH only")


# ---------------------------------------------------------------------------
# 4. similarity-matrix laws, 1000 trials
# ---------------------------------------------------------------------------

def test_criterion_04_similarity_laws_1000_trials():
    rng = make_rng(401)
    for trial in range(1000):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 25))
        x = rng.standard_normal((d, n)) * float(rng.uniform(0.1, 10.0))
        s = ls.similarity_matrix(x)
        assert np.array_equal(s, s.T)
        assert np.array_equal(np.diag(s), np.ones(n))
        assert s.min() >= -1.0 and s.max() <= 1.0

        a = rng.uniform(0.1, 10.0, size=n)   # positive per-example scale
        b = rng.uniform(-5.0, 5.0, size=n)   # per-example shift
        s2 = ls.similarity_matrix(x * a + b)
        assert np.max(np.abs(s2 - s)) < 1e-6

        c = int(rng.integers(2, 11))
        labels = rng.integers(0, c, size=n)
        sy = ls.similarity_matrix(one_hot(labels, c, np.float64).T)
        same = labels[:, None] == labels[None, :]
        assert np.max(np.abs(sy[same] - 1.0)) < 1e-9
        if (~same).any():
            assert np.max(np.abs(sy[~same] + 1.0 / (c - 1))) < 1e-9
    print("\n[criterion 4] PASS: symmetry/diagonal/range/affine-invariance/one-hot "
          "law held for 1000 randomized trials")


# ---------------------------------------------------------------------------
# 5. LR schedule exactness
# ---------------------------------------------------------------------------

def test_criterion_05_lr_schedule_exact():
    expected = {
        0: 5e-4, 49: 5e-4,
        50: 1.25e-4, 74: 1.25e-4,
        75: 3.125e-5, 88: 3.125e-5,
        89: 7.8125e-6, 93: 7.8125e-6,
        94: 1.953125e-6, 99: 1.953125e-6,
    }
    for epoch, lr in expected.items():
        assert tr.lr_at(epoch, 100, 5e-4) == lr, f"epoch {epoch}"
    print("\n[criterion 5] PASS: schedule values exact at all 10 probe epochs")


# ---------------------------------------------------------------------------
# 6. desk-scale MNIST trend
# ---------------------------------------------------------------------------

def _locate_mnist():
    here = os.path.dirname(os.path.abspath(__file__))
    candidates = [os.environ.get("MNIST_DATA_DIR", "")]
    candidates += [os.path.join(here, "data", "mnist"),
                   os.path.join(here, "..", "data", "mnist")]
    for cand in candidates:
        if cand and dt.find_idx_pair(cand, "train") and dt.find_idx_pair(cand, "test"):
            return cand
    return None


def test_criterion_06_mnist_mlp_trend():
    data_dir = _locate_mnist()
    if data_dir is None:
        pytest.skip(
            "MNIST IDX files not found (set MNIST_DATA_DIR or place "
            "train/t10k ubyte files under tests/data/mnist); this criterion "
            "needs the real dataset and cannot be checked without it"
        )
    train_ds = dt.load_mnist_dir(data_dir, "train")
    test_ds = dt.load_mnist_dir(data_dir, "test")
    dt.standardize(dt.channel_stats(train_ds), train_ds, test_ds)

    means = {}
    for mode in ("glob", "pred", "sim", "predsim"):
        errs = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(arch="fc256-fc256-fc256-fc", loss=mode, epochs=15, lr=5e-4,
                              batch_size=128, seed=seed,
                              augment=AugmentConfig(jitter=2))
            _, hist = tr.train(cfg, train_ds, test_ds)
            errs.append(hist[-1].test_error)
        means[mode] = float(np.mean(errs))
        assert means[mode] <= 0.03, f"{mode}: mean test error {means[mode]:.4f} > 3%"
    assert means["predsim"] <= means["pred"] + 0.005, \
        f"predsim {means['predsim']:.4f} worse than pred {means['pred']:.4f} + 0.5pp"
    print(f"\n[criterion 6] PASS: seed-averaged test errors {means}")


# ---------------------------------------------------------------------------
# 7. synthetic-blobs convergence, every local mode
# ---------------------------------------------------------------------------

def test_criterion_07_blobs_converge_all_local_modes():
    t0 = time.perf_counter()
    for mode in LOCAL_MODES:
        for s in range(5):
            seed = 100 + s
            ds = synthetic_blobs(classes=3, per_class=60, dim=16,
                                 separation=6.0, seed=seed)
            cfg = TrainConfig(arch="fc32-fc", loss=mode, epochs=20, lr=5e-3, batch_size=32, seed=seed)
            # the train split as the test split: its eval-mode error each epoch
            _, hist = tr.train(cfg, ds, ds)
            best = min(h.test_error for h in hist)
            assert best == 0.0, f"{mode} seed {seed}: best train error {best:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[criterion 7] PASS: 6 modes x 5 seeds hit 0% train error in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. memory contract on a 6-block conv net
# ---------------------------------------------------------------------------

def test_criterion_08_one_live_cache_in_local_mode():
    arch = "conv4-conv4-conv4-conv4-conv4-conv4-fc"
    x = make_rng(801).standard_normal((8, 2, 8, 8)).astype(np.float32)
    y = one_hot(np.arange(8) % 3, 3, np.float32)

    local = _build("predsim", arch, (2, 8, 8), 3, seed=2, pred_target_dim=32)
    _, peak = peak_live_caches(lambda: tr.train_step(local, x, y, 1e-3, tr.dropout_rngs(0, 0, len(local.blocks))))
    assert len(local.blocks) == 6
    assert peak == 1, f"local mode retained {peak} caches"

    full = _build("glob", arch, (2, 8, 8), 3, seed=2, pred_target_dim=32)
    _, peak = peak_live_caches(lambda: tr.train_step(full, x, y, 1e-3, tr.dropout_rngs(0, 0, len(full.blocks))))
    assert peak == 6, f"glob mode retained {peak} caches"
    print("\n[criterion 8] PASS: peak live caches 1 (predsim) vs 6 (glob)")


# ---------------------------------------------------------------------------
# 9. determinism and formats
# ---------------------------------------------------------------------------

def test_criterion_09_determinism_and_round_trips(tmp_path):
    # small image-shaped dataset so jitter/flip/cutout streams all run
    gen = make_rng(31)
    ds = dt.Dataset(gen.random((96, 1, 6, 6)).astype(np.float32),
                    gen.integers(0, 4, 96), 4, "pixels")
    cfg = TrainConfig(arch="conv4-pool-fc", loss="predsim", epochs=3, lr=1e-3, batch_size=16, seed=8,
                      dropout=0.1, pred_target_dim=8,
                      augment=AugmentConfig(jitter=1, hflip=True, cutout=2))
    runs = []
    for tag in ("a", "b"):
        net, hist = tr.train(cfg, ds)
        path = tmp_path / f"{tag}.ckpt"
        tr.save_network(net, path)
        runs.append((tr.metrics_csv(hist), path.read_bytes()))
    assert runs[0][0] == runs[1][0], "metrics differ between identical runs"
    assert runs[0][1] == runs[1][1], "checkpoints differ between identical runs"

    images = (make_rng(32).random((3, 1, 5, 5)).astype(np.float32) * 255).round() / 255
    labels = np.array([1, 0, 2], dtype=np.int64)
    ip1, ip2 = tmp_path / "i1.idx", tmp_path / "i2.idx"
    lp1, lp2 = tmp_path / "l1.idx", tmp_path / "l2.idx"
    dt.write_idx_images(ip1, images)
    dt.write_idx_labels(lp1, labels)
    loaded = dt.load_idx(ip1, lp1, num_classes=3)
    dt.write_idx_images(ip2, loaded.images)
    dt.write_idx_labels(lp2, loaded.labels)
    assert ip1.read_bytes() == ip2.read_bytes()
    assert lp1.read_bytes() == lp2.read_bytes()

    tensors, count = ly.load_checkpoint(tmp_path / "a.ckpt")
    again = tmp_path / "again.ckpt"
    ly.save_checkpoint(again, tensors, count)
    assert (tmp_path / "a.ckpt").read_bytes() == again.read_bytes()
    print("\n[criterion 9] PASS: byte-identical reruns; IDX and checkpoint "
          "round-trips bit-exact")


# ---------------------------------------------------------------------------
# 10. class-limited sampler on a 100-class set
# ---------------------------------------------------------------------------

def test_criterion_10_class_limited_batches(monkeypatch):
    ds = synthetic_blobs(classes=100, per_class=12, dim=8, separation=8.0, seed=7)

    batches = tr.sample_batches(ds.labels, 64, make_rng(41), classes_per_batch=20)
    for b in batches:
        assert len(np.unique(ds.labels[b])) <= 20
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(len(ds)))

    # integrated: the restriction must lift exactly at the first LR drop
    seen = []
    real = tr.sample_batches

    def spy(labels, batch_size, rng, classes_per_batch=0):
        out = real(labels, batch_size, rng, classes_per_batch)
        seen.append((classes_per_batch, [np.array(b) for b in out]))
        return out

    monkeypatch.setattr(tr, "sample_batches", spy)
    cfg = TrainConfig(arch="fc8-fc", loss="pred", epochs=2, lr=1e-3, batch_size=64, seed=3,
                      classes_per_batch=20)
    tr.train(cfg, ds)

    assert [limit for limit, _ in seen] == [20, 0]  # drop at ceil(0.5*2) = epoch 1
    for _, epoch_batches in seen:
        cover = np.sort(np.concatenate(epoch_batches))
        assert np.array_equal(cover, np.arange(len(ds)))
    for b in seen[0][1]:
        assert len(np.unique(ds.labels[b])) <= 20
    assert any(len(np.unique(ds.labels[b])) > 20 for b in seen[1][1])
    print("\n[criterion 10] PASS: <=20 classes per pre-drop batch, exact cover, "
          "limit off from the first LR-drop epoch")
