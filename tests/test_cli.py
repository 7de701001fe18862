"""End-to-end command line behavior: artifacts, determinism, exit codes."""

import builtins
import ctypes
import dataclasses
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import locallearn.cli as cli
import locallearn.data as datamod
import locallearn.gradcheck as gc
import locallearn.layers as ly
import locallearn.trainer as tr
from locallearn.cli import main
from locallearn.errors import DataError
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


def _write_mnist_dir(path, n_train, n_test, rows=28, cols=28):
    """An MNIST-layout directory of random rows x cols images, labels 0..9
    in turn."""
    path.mkdir()
    gen = np.random.default_rng(0)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        datamod.write_idx_images(path / f"{prefix}-images-idx3-ubyte", gen.integers(0, 256, (n, rows, cols), dtype=np.uint8))
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
    assert manifest["contract"] == "3"
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


def test_manifest_records_every_config_field(tmp_path):
    """The manifest holds each TrainConfig field, augment's three
    flattened, and the run's other facts: a field added without a manifest
    entry fails here."""
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    manifest = dict(line.split("=", 1) for line in _read(out / "manifest.txt").strip().split("\n"))
    fields = {f.name for f in dataclasses.fields(tr.TrainConfig)} - {"augment"}
    fields |= {f.name for f in dataclasses.fields(datamod.AugmentConfig)}
    run = {"dataset", "data_dir", "arch_resolved", "out", "contract", "blas", "blas_threads"}
    assert set(manifest) == fields | run


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


@pytest.mark.parametrize("flag, value, names", [
    ("--cutout", "-1", "augmentation sizes must be non-negative"),
    ("--batch-size", "5000", "batch size 5000"),
    ("--arch", "fc2000000000-fc", "token 1 'fc2000000000'"),  # its 2e9 x 2e9 sim head
])
def test_train_config_that_misfits_the_data_writes_nothing(tmp_path, capsys, flag, value, names):
    code = main(_train_argv(tmp_path / "x", **{"--arch": "fc32-fc", flag: value}))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert not (tmp_path / "x").exists()


def test_conv_classifier_on_non_square_images_writes_nothing(tmp_path, capsys):
    """Only a pred part needs square activations: predsim fails as one error
    line before --out exists, and glob trains on the same 8x12 images."""
    data_dir = _write_mnist_dir(tmp_path / "mnist", n_train=16, n_test=8, rows=8, cols=12)
    argv = ["train", "--dataset", "mnist", "--data-dir", str(data_dir), "--arch", "conv4-fc",
            "--epochs", "1", "--batch-size", "8"]
    assert main(argv + ["--loss", "predsim", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == \
        "error: token 1 'conv4' of 'conv4-fc': conv classifier head needs square activations, got 8x12\n"
    assert not (tmp_path / "x").exists()
    assert main(argv + ["--loss", "glob", "--out", str(tmp_path / "y")]) == 0


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


@pytest.mark.parametrize("name, index, value, why", [
    ("block0.weight", (0, 0), np.nan, "holds a non-finite value"),
    ("out.bias", (1,), -np.inf, "holds a non-finite value"),
    ("block0.run_var", (0,), -1.0, "holds a negative variance"),
    ("block0.slope", (), np.nan, "holds slope nan, outside [0, 1]"),
    ("block0.slope", (), 5.0, "holds slope 5.0, outside [0, 1]"),
], ids=["nan-weight", "inf-bias", "negative-run-var", "nan-slope", "slope-above-one"])
def test_eval_checkpoint_with_an_impossible_value_is_an_error_line(tmp_path, capsys, name, index, value, why):
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    capsys.readouterr()
    ckpt = out / "final.ckpt"
    tensors, block_count = ly.load_checkpoint(ckpt)
    tensors[name][index] = value
    ly.save_checkpoint(ckpt, tensors, block_count)
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: tensor {name!r} {why}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, where", [
    ("block0.weight", "layer 0"),
    ("block0.gamma", "layer 0"),
    ("out.weight", "output layer"),
])
def test_eval_checkpoint_whose_forward_overflows_is_an_error_line(tmp_path, capsys, name, where):
    # finite, so the loader takes it, but 3e38 times an activation above
    # about 1.13 is past float32's range
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    capsys.readouterr()
    ckpt = out / "final.ckpt"
    tensors, block_count = ly.load_checkpoint(ckpt)
    tensors[name].flat[0] = 3e38
    ly.save_checkpoint(ckpt, tensors, block_count)
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--dataset", "blobs", "--arch", "fc16-fc", "--seed", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: overflow encountered in ")
    assert captured.err.endswith(f" at {where}, evaluating the 'blobs/subset' split\n")


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
# nets too large to build, and a sweep of malformed inputs
# ---------------------------------------------------------------------------

def _eval_argv(checkpoint, arch="fc16-fc", dataset="blobs", data_dir=""):
    return ["eval", "--checkpoint", str(checkpoint), "--dataset", dataset, "--data-dir", str(data_dir),
            "--arch", arch, "--seed", "3"]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) with warnings as errors;
    a file main opened and left open fails."""
    opened, real_open = [], builtins.open

    def tracked(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(builtins, "open", tracked)
        code = main(argv)
    captured = capsys.readouterr()
    assert [f.name for f in opened if not f.closed] == [], argv
    return code, captured.out, captured.err


def _is_error_line(outcome):
    code, out, err = outcome
    return code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: ")


def _is_score(outcome):
    code, out, err = outcome
    return code == 0 and err == "" and re.fullmatch(r"test_error=(0\.\d{6}|1\.000000)\n", out) is not None


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_width_too_large_to_build_is_one_error_line(tmp_path, capsys, command):
    out = tmp_path / "run"
    arch = "fc99999999999999999999-fc"
    argv = _train_argv(out, **{"--arch": arch}) if command == "train" else _eval_argv(tmp_path / "none.ckpt", arch)
    code, printed, err = _outcome(argv, capsys)
    assert (code, printed) == (1, "")
    assert err == (f"error: token 1 'fc99999999999999999999' of '{arch}': "
                   "a weight of 3199999999999999999968 elements is more than numpy can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_net_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # a width that numpy can index but this machine cannot hold; raised, not allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (32, 2**60) and data type float64")

    monkeypatch.setattr(tr, "init_params", out_of_memory)
    argv = _train_argv(tmp_path / "run") if command == "train" else _eval_argv(tmp_path / "none.ckpt")
    outcome = _outcome(argv, capsys)
    assert _is_error_line(outcome)
    assert outcome[2].startswith("error: out of memory: Unable to allocate 8.00 EiB")


# Malformed architecture strings for blobs' (32, 1, 1) inputs in 10 classes,
# as --arch or with the --width-mult that follows them
_BAD_ARCHS = [
    ("", None), ("-", None), ("fc-", None), ("-fc", None), ("fc16", None),
    ("fc16--fc", None), ("fc-16-fc", None), ("fc16-fc-fc", None), ("pool-fc", None),
    ("fc16-pool-fc", None), ("fc16-conv8-fc", None), ("conv8-pool-fc", None), ("fc0-fc", None),
    ("fc016-fc", None), ("fc+16-fc", None), ("fc 16-fc", None), ("fc1_6-fc", None),
    ("fc\u0661\u0666-fc", None), ("fc16-fc9", None), ("FC16-fc", None), ("fc1e3-fc", None),
    ("mlp3x1024-fc", None), ("fc99999999999999999999-fc", None), ("conv99999999999999999999-fc", None),
    ("conv8-fc", "0"), ("conv8-fc", str(10**20)),
]


def test_malformed_archs_are_one_error_line_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    capsys.readouterr()
    fresh = tmp_path / "never"
    for arch, mult in _BAD_ARCHS:
        extra = [f"--arch={arch}"] + (["--width-mult", mult] if mult else [])
        train = ["train", "--dataset", "blobs", "--epochs", "1", "--out", str(fresh)] + extra
        evaluate = ["eval", "--checkpoint", str(out / "final.ckpt"), "--dataset", "blobs", "--seed", "3"] + extra
        assert _is_error_line(_outcome(train, capsys)), (arch, mult)
        assert not fresh.exists(), (arch, mult)
        assert _is_error_line(_outcome(evaluate, capsys)), (arch, mult)


def _payload_offsets(raw):
    """The byte offset of every float32 in a checkpoint's tensor payloads."""
    offsets, off = [], 12  # past the magic, version and block count
    while off < len(raw):
        (size,) = struct.unpack_from("<I", raw, off)
        (rank,) = struct.unpack_from("<I", raw, off + 4 + size)
        start = off + 8 + size + 8 * rank
        end = start + 4 * math.prod(struct.unpack_from(f"<{rank}Q", raw, off + 8 + size))
        offsets += range(start, end, 4)
        off = end
    return offsets


def _edited(clean, rng, hot):
    """clean with 1-3 bytes changed, each in the positions hot names half
    of the time."""
    raw = bytearray(clean)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.choice(hot)) if rng.random() < 0.5 else int(rng.integers(len(raw)))
        raw[pos] = (raw[pos] + int(rng.integers(1, 256))) % 256
    return bytes(raw)


def test_mutated_checkpoints_score_or_give_one_error_line(tmp_path, capsys):
    """A seeded sweep of a 1-epoch checkpoint through eval: byte edits,
    truncations, and payload floats set to NaN, +-Inf or +-3e38. A file the
    loader rejects is one error line. One whose tensors that eval reads are
    the clean file's scores as the clean file does. Any other scores or is
    one error line: a finite edit of a weight may move the score."""
    out = tmp_path / "run"
    assert main(_train_argv(out, **{"--epochs": "1"})) == 0
    capsys.readouterr()
    ckpt = out / "final.ckpt"
    clean = ckpt.read_bytes()
    clean_tensors, blocks = ly.load_checkpoint(ckpt)
    argv = _eval_argv(ckpt)
    clean_outcome = _outcome(argv, capsys)
    assert _is_score(clean_outcome)
    read = set(tr.state_tensors(tr.build_network(tr.TrainConfig(arch="fc16-fc", loss="glob"), (32, 1, 1), 10)))
    payload = _payload_offsets(clean)
    assert len(payload) == sum(t.size for t in clean_tensors.values())

    rng = make_rng(2024)
    cases = [_edited(clean, rng, payload) for _ in range(160)]
    cases += [clean[: int(rng.integers(len(clean)))] for _ in range(40)]
    for value in [np.nan, np.inf, -np.inf, 3e38, -3e38] * 20:
        pos = int(rng.choice(payload))
        cases.append(clean[:pos] + struct.pack("<f", value) + clean[pos + 4:])
    for i, raw in enumerate(cases):
        ckpt.write_bytes(raw)
        outcome = _outcome(argv, capsys)
        try:
            tensors, count = ly.load_checkpoint(ckpt)
        except DataError:
            assert _is_error_line(outcome), (i, outcome)
            continue
        same = count == blocks and all(
            name in tensors and tensors[name].shape == clean_tensors[name].shape
            and tensors[name].tobytes() == clean_tensors[name].tobytes() for name in read)
        assert outcome == clean_outcome if same else _is_error_line(outcome) or _is_score(outcome), (i, outcome)


def test_mutated_data_files_score_or_give_one_error_line(tmp_path, capsys):
    """Seeded byte edits, half of them in a header or a label byte, and
    truncations of each file of an IDX pair of splits and of two CIFAR
    batches, through eval. A truncation is one error line, except a CIFAR
    batch cut at a record boundary, which is fewer records. An edit scores
    or is one error line: an edited pixel, or a label still in range, is
    other data."""
    rng = make_rng(2025)
    mnist = _write_mnist_dir(tmp_path / "mnist", n_train=16, n_test=8)
    cifar = _write_cifar_dir(tmp_path / "cifar", per_batch=4, n_test=8)
    idx_files = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    for data_dir, train_argv, dataset, files in (
        (mnist, _mnist_train_argv, "mnist", idx_files),
        (cifar, _cifar_train_argv, "cifar10", ["data_batch_1.bin", "test_batch.bin"]),
    ):
        out = tmp_path / f"{dataset}-run"
        assert main(train_argv(data_dir, out)) == 0
        capsys.readouterr()
        argv = _eval_argv(out / "final.ckpt", dataset=dataset, data_dir=data_dir)
        assert _is_score(_outcome(argv, capsys))
        for name in files:
            path = data_dir / name
            clean = path.read_bytes()
            hot = range(0, len(clean), 3073) if dataset == "cifar10" else range(16 if "images" in name else 8)
            for case in range(24):
                if case < 16:
                    raw, whole = _edited(clean, rng, hot), False
                else:
                    raw = clean[: int(rng.integers(len(clean)))]
                    whole = dataset == "cifar10" and len(raw) % 3073 == 0
                path.write_bytes(raw)
                outcome = _outcome(argv, capsys)
                ok = _is_error_line(outcome) or (case < 16 or whole) and _is_score(outcome)
                assert ok, (name, case, outcome)
            path.write_bytes(clean)


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
