"""End-to-end command line behavior: artifacts, determinism, exit codes."""

import ctypes
import tracemalloc

import numpy as np
import pytest

import locallearn.cli as cli
import locallearn.data as datamod
import locallearn.gradcheck as gc
from locallearn.cli import main
from locallearn.rng import make_rng


def _train_argv(out, **over):
    flags = {
        "--dataset": "blobs", "--arch": "fc16-fc", "--loss": "predsim",
        "--epochs": "2", "--lr": "5e-3", "--batch-size": "32", "--seed": "3",
        "--out": str(out),
    }
    flags.update(over)
    argv = ["train"]
    for k, v in flags.items():
        if v is None:
            argv.append(k)
        else:
            argv += [k, str(v)]
    return argv


def _read(path):
    with open(path) as f:
        return f.read()


def _write_mnist_dir(path, n_train, n_test):
    """An MNIST-layout directory of random 28x28 images, labels 0..9 in turn."""
    path.mkdir()
    gen = np.random.default_rng(0)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        datamod.write_idx_images(path / f"{prefix}-images-idx3-ubyte", gen.integers(0, 256, (n, 28, 28), dtype=np.uint8))
        datamod.write_idx_labels(path / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 10)
    return path


def _write_cifar_dir(path, per_batch, n_test):
    """A CIFAR-10 binary directory of random images, labels 0..9 in turn."""
    path.mkdir()
    gen = np.random.default_rng(0)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    for name in names:
        n = n_test if name == "test_batch.bin" else per_batch
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(n) % 10
        records[:, 1:] = gen.integers(0, 256, (n, 3072), dtype=np.uint8)
        (path / name).write_bytes(records.tobytes())
    return path


def _set_cifar_test_labels(data_dir, index, value):
    records = np.fromfile(data_dir / "test_batch.bin", dtype=np.uint8).reshape(-1, 3073)
    records[index, 0] = value
    (data_dir / "test_batch.bin").write_bytes(records.tobytes())


def _cifar_train_argv(data_dir, out):
    return ["train", "--dataset", "cifar10", "--data-dir", str(data_dir), "--arch", "fc16-fc",
            "--epochs", "1", "--batch-size", "8", "--out", str(out)]


def _mnist_train_argv(data_dir, out):
    return ["train", "--dataset", "mnist", "--data-dir", str(data_dir), "--arch", "fc16-fc",
            "--epochs", "1", "--batch-size", "8", "--out", str(out)]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out)) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("test_error=")

    csv = _read(out / "metrics.csv").strip().split("\n")
    assert csv[0] == "epoch,lr,train_error,test_error,loss_layer_0,loss_layer_1"
    assert len(csv) == 3  # header + 2 epochs
    # stdout repeats the last row's test error digit for digit
    last_test_error = csv[-1].split(",")[3]
    assert printed.strip() == f"test_error={last_test_error}"

    manifest = dict(line.split("=", 1) for line in _read(out / "manifest.txt").strip().split("\n"))
    assert manifest["loss"] == "predsim"
    assert manifest["beta"] == "0.99"
    assert manifest["arch"] == "fc16-fc"
    assert manifest["contract"] == "2"
    # the BLAS that computed the bytes, with its version and thread count
    want = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == f"{want['name']} {want['version']}"
    assert manifest["blas_threads"] == cli._openblas_threads()
    assert (out / "final.ckpt").exists()


def test_blas_thread_count_moves_float32_gemm_bytes():
    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if setter is None or getter is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas")
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    a = make_rng(1).standard_normal((32, 784), dtype=np.float32)
    b = make_rng(2).standard_normal((784, 1024), dtype=np.float32)
    before = getter()
    try:
        products = {}
        for threads in (1, 2):
            setter(threads)
            products[threads] = a @ b
            assert cli.blas_entries()["blas_threads"] == str(threads)
    finally:
        setter(before)
    assert getter() == before
    # the same product, summed in another order: which is why the manifest
    # records the thread count
    assert products[1].tobytes() != products[2].tobytes()
    assert np.allclose(products[1], products[2], rtol=0, atol=1e-3)


def test_train_same_seed_byte_identical_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_train_argv(a)) == 0
    assert main(_train_argv(b)) == 0
    assert _read(a / "metrics.csv") == _read(b / "metrics.csv")
    assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()


def test_train_run_is_reproducible_from_manifest_alone(tmp_path):
    first = tmp_path / "first"
    assert main(_train_argv(first, **{"--loss": "sim-bpf", "--seed": "11"})) == 0
    m = dict(line.split("=", 1) for line in _read(first / "manifest.txt").strip().split("\n"))

    second = tmp_path / "second"
    argv = ["train",
            "--dataset", m["dataset"], "--arch", m["arch"], "--loss", m["loss"],
            "--beta", m["beta"], "--epochs", m["epochs"], "--lr", m["lr"],
            "--batch-size", m["batch_size"], "--dropout", m["dropout"],
            "--slope", m["slope"], "--seed", m["seed"],
            "--classes-per-batch", m["classes_per_batch"],
            "--jitter", m["jitter"], "--cutout", m["cutout"],
            "--width-mult", m["width_mult"], "--pred-dim", m["pred_target_dim"],
            "--out", str(second)]
    if m["hflip"] == "true":
        argv.append("--flip")
    if m["data_dir"]:
        argv += ["--data-dir", m["data_dir"]]
    assert main(argv) == 0
    assert _read(first / "metrics.csv") == _read(second / "metrics.csv")
    assert (first / "final.ckpt").read_bytes() == (second / "final.ckpt").read_bytes()


def test_train_beta_defaults_per_mode(tmp_path):
    out = tmp_path / "bpf"
    assert main(_train_argv(out, **{"--loss": "predsim-bpf", "--epochs": "1"})) == 0
    manifest = _read(out / "manifest.txt")
    assert "beta=0.01" in manifest


def test_train_unknown_loss_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_train_argv(tmp_path / "x", **{"--loss": "mystery"}))
    assert exc.value.code == 2
    assert "predsim" in capsys.readouterr().err  # usage lists the valid modes


def test_train_missing_data_dir_errors(tmp_path, capsys):
    code = main(_train_argv(tmp_path / "x", **{"--dataset": "mnist"}))
    assert code == 1
    assert "--data-dir" in capsys.readouterr().err


def test_train_bad_arch_reports_error(tmp_path, capsys):
    code = main(_train_argv(tmp_path / "x", **{"--arch": "fc16-pool-fc"}))
    assert code == 1
    assert not (tmp_path / "x").exists()  # fails before writing anything


@pytest.mark.parametrize("flag, value", [("--cutout", "-1"), ("--batch-size", "5000")])
def test_train_config_that_misfits_the_data_writes_nothing(tmp_path, capsys, flag, value):
    code = main(_train_argv(tmp_path / "x", **{"--arch": "fc32-fc", flag: value}))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_unwritable_out_is_an_error_line_before_training(tmp_path, capsys, monkeypatch, out):
    """An --out that names a file, or a directory under one, cannot be made."""
    (tmp_path / "taken").write_text("keep")
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training started"))
    assert main(_train_argv(tmp_path / out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the run directory {str(tmp_path / out)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "keep"


def test_empty_test_split_is_rejected_before_training(tmp_path, capsys):
    data_dir = _write_mnist_dir(tmp_path / "mnist", n_train=40, n_test=0)
    code = main(_mnist_train_argv(data_dir, tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mnist/test" in err
    assert not (tmp_path / "x").exists()


def test_label_outside_the_classes_is_rejected_before_training(tmp_path, capsys):
    data_dir = _write_cifar_dir(tmp_path / "cifar", per_batch=8, n_test=40)
    _set_cifar_test_labels(data_dir, [3, 11, 20, 27, 39], 200)
    assert main(_cifar_train_argv(data_dir, tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cifar10/test: label 200 at index 3 is outside 0..9")
    assert not (tmp_path / "x").exists()


class _Stop(Exception):
    pass


def test_train_holds_one_float32_copy_of_each_split(tmp_path, monkeypatch):
    data_dir = _write_cifar_dir(tmp_path / "cifar", per_batch=400, n_test=500)
    live = []

    def stop(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        raise _Stop

    monkeypatch.setattr(cli, "train", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            main(_cifar_train_argv(data_dir, tmp_path / "run"))
    finally:
        tracemalloc.stop()
    one_copy = (2000 + 500) * 3 * 32 * 32 * 4  # float32 bytes of both splits
    assert live[0] <= 1.1 * one_copy, live[0] / one_copy


def test_beta_for_a_mode_that_never_reads_it_writes_nothing(tmp_path, capsys):
    assert main(_train_argv(tmp_path / "x", **{"--loss": "pred", "--beta": "0.3"})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'pred'" in err
    assert not (tmp_path / "x").exists()
    # the default beta, as a manifest records it, still runs
    assert main(_train_argv(tmp_path / "y", **{"--loss": "pred", "--beta": "1.0", "--epochs": "1"})) == 0


def test_negative_seed_is_an_error_line(tmp_path, capsys):
    assert main(_train_argv(tmp_path / "x", **{"--seed": "-1"})) == 1
    assert not (tmp_path / "x").exists()
    code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error: seed must be >= 0") == 2 and "Traceback" not in err


@pytest.mark.parametrize("slope", ["5", "-1", "nan"])
def test_slope_outside_unit_interval_writes_nothing(tmp_path, capsys, slope):
    assert main(_train_argv(tmp_path / "x", **{"--slope": slope})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "slope" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_lr_writes_nothing(tmp_path, capsys, lr):
    assert main(_train_argv(tmp_path / "x", **{"--lr": lr})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lr" in err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_matches_training_stdout(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out)) == 0
    train_line = capsys.readouterr().out.strip().split("\n")[-1]

    code = main(["eval", "--checkpoint", str(out / "final.ckpt"),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == train_line


def test_eval_wrong_arch_is_structured_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out)) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "final.ckpt"),
                 "--dataset", "blobs", "--arch", "fc32-fc", "--seed", "3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_truncated_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out)) == 0
    capsys.readouterr()
    ckpt = out / "final.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:50])
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 1
    assert "truncated" in capsys.readouterr().err


def test_eval_checkpoint_name_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out)) == 0
    capsys.readouterr()
    ckpt = out / "final.ckpt"
    raw = ckpt.read_bytes()
    assert raw[16:29] == b"block0.weight"  # the first name, after the header and its length
    ckpt.write_bytes(raw[:16] + b"block0.\xffeight" + raw[29:])
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tensor name at byte 16 is not utf-8\n"
    assert captured.out == ""


def test_eval_batch_size_below_one_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    capsys.readouterr()
    for batch_size in ("0", "-5"):
        code = main(["eval", "--checkpoint", str(out / "final.ckpt"), "--dataset", "blobs",
                     "--arch", "fc16-fc", "--seed", "3", "--batch-size", batch_size])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "batch size" in captured.err
        assert captured.out == ""


def test_eval_on_an_empty_split_is_an_error_line(tmp_path, capsys):
    data_dir = _write_mnist_dir(tmp_path / "mnist", n_train=40, n_test=10)
    out = tmp_path / "run"
    assert main(_mnist_train_argv(data_dir, out)) == 0
    capsys.readouterr()
    datamod.write_idx_images(data_dir / "t10k-images-idx3-ubyte", np.zeros((0, 28, 28), dtype=np.uint8))
    datamod.write_idx_labels(data_dir / "t10k-labels-idx1-ubyte", np.zeros(0, dtype=np.int64))
    code = main(["eval", "--checkpoint", str(out / "final.ckpt"), "--dataset", "mnist",
                 "--data-dir", str(data_dir), "--arch", "fc16-fc"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "mnist/test" in captured.err
    assert captured.out == ""


def test_eval_rejects_a_label_outside_the_classes(tmp_path, capsys):
    data_dir = _write_cifar_dir(tmp_path / "cifar", per_batch=8, n_test=40)
    out = tmp_path / "run"
    assert main(_cifar_train_argv(data_dir, out)) == 0
    capsys.readouterr()
    _set_cifar_test_labels(data_dir, [3, 11, 20, 27, 39], 200)
    code = main(["eval", "--checkpoint", str(out / "final.ckpt"), "--dataset", "cifar10",
                 "--data-dir", str(data_dir), "--arch", "fc16-fc"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cifar10/test: label 200 at index 3 is outside 0..9")
    assert captured.out == ""


def test_eval_standardizes_the_test_split_alone(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    train_line = capsys.readouterr().out.strip()
    sizes = []
    standardize = datamod.standardize

    def recording(stats, *splits):
        sizes.extend(len(ds) for ds in splits)
        standardize(stats, *splits)

    monkeypatch.setattr(datamod, "standardize", recording)
    code = main(["eval", "--checkpoint", str(out / "final.ckpt"),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == train_line
    assert sizes == [200]  # the blobs test split; the 1000-example train split is never copied


def test_eval_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dataset", "blobs"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes_and_reports_every_mode(capsys, monkeypatch, gradcheck_run):
    results, _ = gradcheck_run  # the session's one run of the suite, printed by the CLI
    monkeypatch.setattr(gc, "run_all", lambda corrupt=None: results)
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    for mode in ("pred", "sim", "predsim", "pred-bpf", "sim-bpf", "predsim-bpf", "glob"):
        assert f"mode_{mode} " in out or f"mode_{mode}" in out, mode
    assert "FAIL" not in out
    assert f"gradcheck passed: {len(results)} checks" in out


def test_gradcheck_corrupt_exits_1_naming_op(capsys, monkeypatch):
    checks = [c for c in gc.all_checks() if c[0] == "avgpool"]  # the one check this looks at
    monkeypatch.setattr(gc, "all_checks", lambda: checks)
    assert main(["gradcheck", "--corrupt", "avgpool"]) == 1
    captured = capsys.readouterr()
    assert "avgpool" in captured.err
    assert "FAIL" in captured.out
