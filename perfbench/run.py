"""Benchmark of `locallearn train`: end-to-end throughput, memory and
quality per workload, or, with --trace 1, per-layer time and counts.

    python3 perfbench/run.py --workload conv-predsim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/selftest.py                        # checks the harness

Run from the root of a checkout. Each workload is a real training run,
`locallearn.cli.main(["train", ...])` in this process, on synthetic files
written from the seed in the CIFAR-10 binary or IDX format; the same seed is
the run's --seed. The library is imported from the checkout's src/ and
nowhere else. Every workload is a closed loop: one process, one caller,
BLAS at its default thread count.

Untraced (--trace 0), a run sets up 15 times, stopping at the first
train_step, for setup_s; trains one whole job; scores its checkpoint again
through `locallearn eval` under tracemalloc for peak_eval_mib; and trains
two batches under tracemalloc for peak_step_mib. The workload fixes a job's
length, so that its trained bytes and quality metrics depend on the seed
alone: --seconds is accepted for the common benchmark interface and a run
measures one job (15 to 35 s of training and evaluation on a 2-vCPU VM)
whatever it says. Traced (--trace 1), it trains once untraced and once with
every library function on the training path wrapped, checks that both leave
the same bytes, writes the spans out and prints the per-layer metrics.

Every invocation runs the gradient checks once and checks each job's
outputs; a failed check or step counts in `failed` and makes `correct`
false. The last line of stdout is one JSON object with correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import synth
from perlayer import MIB, per_layer_metrics, timing_recorder, trace_recorder
from tracing import MemoryProbe, Patcher, write_spans

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_run"  # a run's scratch directories, removed after it
SPANS = RUNS / "spans"  # except the spans traced runs write out here
CONV_NET = "conv64-pool-conv128-pool-fc256-fc"
SETUP_PASSES = 15
TAIL_BEYOND = 10  # the tail percentile leaves at least this many steps above it
COVERAGE_GATE = 0.9
WARMUP = 2  # first steps of a job left out of step and loop timings


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str  # "cifar10" (3x32x32) or "mnist" (1x28x28)
    arch: str
    loss: str
    batch: int
    flags: tuple  # further train flags: augmentation, lr
    epochs: int
    n_train: int
    n_test: int
    signal: float  # mean template amplitude per pixel; noise sd is synth.NOISE


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conv-predsim",
            "the paper's headline mode: conv kernels for trunk and 3x3 sim heads, dead trunk dx, one live block cache",
            "cifar10",
            CONV_NET,
            "predsim",
            32,
            ("--flip", "--cutout", "14", "--lr", "2e-3"),
            epochs=1,
            n_train=1024,
            n_test=512,
            signal=0.06,
        ),
        Workload(
            "conv-glob",
            "same net, data and augmentation under global backprop: dx is used, all caches live, no local heads",
            "cifar10",
            CONV_NET,
            "glob",
            32,
            ("--flip", "--cutout", "14", "--lr", "2e-3"),
            epochs=1,
            n_train=1024,
            n_test=512,
            signal=0.06,
        ),
        Workload(
            "mlp-bpf",
            "no conv and no augmentation: dense GEMMs, Adam over ~3M parameters and the feedback-alignment losses",
            "mnist",
            "mlp3x1024",
            "predsim-bpf",
            128,
            (),
            epochs=3,
            n_train=12800,
            n_test=8192,
            signal=0.05,
        ),
    )
}


# ---------------------------------------------------------------------------
# library, data, environment
# ---------------------------------------------------------------------------


def import_library():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import locallearn
        from locallearn import cli, data, gradcheck, layers, losses, numerics, trainer
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import locallearn from {src}: {e}")
    if Path(locallearn.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: locallearn was imported from {locallearn.__file__}, not from {src}")
    return types.SimpleNamespace(
        cli=cli, data=data, gradcheck=gradcheck, layers=layers, losses=losses, numerics=numerics, trainer=trainer
    )


def write_data(w: Workload, seed: int, data_dir: Path, n_train: int, n_test: int) -> None:
    shape = (3, 32) if w.dataset == "cifar10" else (1, 28)
    train = synth.make_split(seed, 0, n_train, *shape, signal=w.signal)
    test = synth.make_split(seed, 1, n_test, *shape, signal=w.signal)
    writer = synth.write_cifar10 if w.dataset == "cifar10" else synth.write_mnist
    writer(str(data_dir), train, test)


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(workload: str, seed: int) -> list:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rows = [
        ("workload", workload),
        ("seed", seed),
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("blas", f"{blas.get('name')} {blas.get('version')}"),
        ("blas_config", blas.get("openblas configuration", "n/a")),
        ("blas_threads", _blas_threads()),
        ("nproc", os.cpu_count()),
        ("cpus_usable", len(os.sched_getaffinity(0))),
    ]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        rows.append((var, os.environ.get(var, "unset")))
    return rows


# ---------------------------------------------------------------------------
# jobs and checks
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed steps and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        print(f"check {what}: {'ok' if ok else 'FAILED'}{' ' + detail if detail else ''}")
        return ok

    def steps(self, spans) -> None:
        steps = [s for s in spans if s.name == "trainer.train_step"]
        self.attempted += len(steps)
        self.failed += sum(not s.ok for s in steps)


@dataclass
class Job:
    out: Path
    rc: object  # exit code, or None when main raised
    stdout: str
    t0: float
    wall: float
    rec: object


def train_argv(w: Workload, seed: int, data_dir: Path, out: Path) -> list:
    return [
        "train",
        "--dataset",
        w.dataset,
        "--data-dir",
        str(data_dir),
        "--arch",
        w.arch,
        "--loss",
        w.loss,
        "--batch-size",
        str(w.batch),
        *w.flags,
        "--epochs",
        str(w.epochs),
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]


def call_main(ll, argv):
    """cli.main with stdout captured; returns (exit code or None, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = ll.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, buf.getvalue()


def run_job(ll, argv, out: Path, rec) -> Job:
    with rec:
        t0 = time.perf_counter()
        rc, stdout = call_main(ll, argv)
        wall = time.perf_counter() - t0
    return Job(out, rc, stdout, t0, wall, rec)


class _SetupDone(Exception):
    pass


def setup_pass(ll, argv):
    """Seconds from the call into cli.main to the first train_step, which
    is stopped before it runs; None when train ends without a step."""

    def stop(original):
        def first_step(*args, **kwargs):
            raise _SetupDone(time.perf_counter())

        return first_step

    with Patcher() as patcher:
        patcher.patch(ll.trainer, "train_step", stop)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                ll.cli.main(argv)
        except _SetupDone as done:
            return done.args[0] - t0
    return None


def _last_row(out: Path):
    with open(out / "metrics.csv") as f:
        return f.read().splitlines()[-1].split(",")


def check_job(tally: Tally, ll, w: Workload, job: Job, data_dir: Path, seed: int, reload=None) -> bool:
    """Exit code, stdout against metrics.csv, finite losses and, given a
    MemoryProbe as reload, the checkpoint scored again through `locallearn
    eval` while the probe reads the evaluate peak (batch 512, as in train)."""
    if not tally.check("exit code", job.rc == 0, f"rc={job.rc}"):
        return False
    lines = job.stdout.strip().splitlines()
    printed = lines[-1] if lines else ""
    row = _last_row(job.out)
    ok = tally.check("stdout test_error matches metrics.csv", printed == f"test_error={row[3]}", printed)
    ok &= tally.check("losses finite", all(math.isfinite(float(v)) for v in row[4:]))
    if reload is not None:
        argv = ["eval", "--checkpoint", str(job.out / "final.ckpt"), "--dataset", w.dataset]
        argv += ["--data-dir", str(data_dir), "--arch", w.arch, "--seed", str(seed)]
        with reload.watch_evaluate(ll.cli).tracking():
            rc, stdout = call_main(ll, argv)
        same = rc == 0 and stdout.strip() == printed
        ok &= tally.check("final.ckpt reloads to the same test_error", same, stdout.strip())
    return ok


def artifacts(job: Job) -> tuple:
    return tuple((job.out / name).read_bytes() for name in ("metrics.csv", "final.ckpt"))


def memory_pass(ll, w: Workload, seed: int, work: Path, tally: Tally) -> MemoryProbe:
    """A short job under tracemalloc for the step and block-phase peaks:
    two train batches are enough, the peaks depend on shapes only."""
    data_dir = work / "mem-data"
    write_data(w, seed, data_dir, 2 * w.batch, w.batch)
    argv = train_argv(replace(w, epochs=1), seed, data_dir, work / "mem-out")
    probe = MemoryProbe().watch_training(ll.trainer)
    with probe.tracking():
        rc, _ = call_main(ll, argv)
    tally.check("memory pass", rc == 0 and bool(probe.step_peaks), f"rc={rc}")
    return probe


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def tail(values: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it, on numpy's linear percentile scale."""
    ranked = sorted(values)
    rank = max(0, len(ranked) - 1 - TAIL_BEYOND)
    return ranked[rank], 100.0 * rank / max(1, len(ranked) - 1)


def job_timings(job: Job) -> dict:
    """Setup, step, training-loop, evaluate and epoch times of one job."""
    spans = job.rec.spans
    steps = [s for s in spans if s.name == "trainer.train_step"]
    evals = [s for s in spans if s.name == "trainer.evaluate"]
    epochs = [s.start for s in spans if s.name == "trainer.sample_batches"]
    finish = [s.end for s in spans if s.name == "trainer.train_network"][0]
    loop_s = loop_n = 0.0
    epoch_s, epoch_steps = [], []
    for i, start in enumerate(epochs):
        end = epochs[i + 1] if i + 1 < len(epochs) else finish
        epoch_s.append(end - start)
        loop_end = min(e.start for e in evals if e.start > start)
        start = max(start, steps[WARMUP - 1].end)
        loop_s += loop_end - start
        timed = [s for s in steps[WARMUP:] if start <= s.start < loop_end]
        loop_n += sum(s.attrs["n"] for s in timed)
        epoch_steps.append([s.seconds * 1e3 for s in timed])
    return {
        "setup_s": steps[0].start - job.t0,
        "step_ms": [s.seconds * 1e3 for s in steps[WARMUP:]],
        "epoch_steps": epoch_steps,
        "loop": (loop_n, loop_s),
        "eval": (sum(e.attrs["n"] for e in evals), sum(e.seconds for e in evals)),
        "epoch_s": epoch_s,
    }


def end_to_end(setups: list, t: dict, step_probe: MemoryProbe, eval_probe: MemoryProbe, row: list) -> dict:
    # a tail per epoch and their median, so that a burst of slow steps from
    # other load on the machine moves one epoch's tail, not the result
    tails = [tail(ms) for ms in t["epoch_steps"]]
    each = ", ".join(f"p{p:.1f} of {len(ms)}" for (_, p), ms in zip(tails, t["epoch_steps"]))
    print(f"note step_ms_tail is the median over epochs of each epoch's tail: {each} steps")
    return {
        "setup_s": (statistics.median(setups + [t["setup_s"]]), "s"),
        "train_examples_per_s": (t["loop"][0] / t["loop"][1], "ex/s"),
        "step_ms_p50": (statistics.median(t["step_ms"]), "ms"),
        "step_ms_tail": (statistics.median(v for v, _ in tails), "ms"),
        "eval_examples_per_s": (t["eval"][0] / t["eval"][1], "ex/s"),
        "epoch_s": (statistics.median(t["epoch_s"]), "s"),
        "peak_step_mib": (max(step_probe.step_peaks) / MIB, "MiB"),
        "peak_eval_mib": (max(eval_probe.eval_peaks) / MIB, "MiB"),
        "final_loss": (float(row[-1]), "nats"),
        "test_error": (float(row[3]), "fraction"),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(ll, w: Workload, seed: int, trace: bool, work: Path, tally: Tally) -> dict:
    data_dir = work / "data"
    write_data(w, seed, data_dir, w.n_train, w.n_test)

    def argv(out):
        return train_argv(w, seed, data_dir, out)

    if trace:
        untraced = run_job(ll, argv(work / "untraced"), work / "untraced", timing_recorder(ll))
        traced = run_job(ll, argv(work / "traced"), work / "traced", trace_recorder(ll))
        ok = True
        for job in (untraced, traced):
            tally.steps(job.rec.spans)
            reload = MemoryProbe() if job is untraced else None
            ok &= check_job(tally, ll, w, job, data_dir, seed, reload)
        if ok:
            tally.check("traced run trains the same bytes", artifacts(traced) == artifacts(untraced))
        spans = SPANS / f"{w.name}-{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        write_spans(traced.rec.spans, spans)
        print(f"note {len(traced.rec.spans)} spans of the traced run written to {spans.relative_to(ROOT)}")
        probe = memory_pass(ll, w, seed, work, tally)
        metrics = per_layer_metrics(traced.rec, probe, traced.wall, untraced.wall)
        coverage = metrics["trace.coverage_share"][0]
        gate = f"block phases cover >= {COVERAGE_GATE:.0%} of train_step"
        tally.check(gate, coverage >= COVERAGE_GATE, f"{coverage:.3f}")
        return metrics

    setups = [setup_pass(ll, argv(work / f"setup{i}")) for i in range(SETUP_PASSES)]
    if not tally.check("setup reaches the first train_step", None not in setups):
        return {}
    job = run_job(ll, argv(work / "job"), work / "job", timing_recorder(ll))
    tally.steps(job.rec.spans)
    eval_probe = MemoryProbe()
    if not check_job(tally, ll, w, job, data_dir, seed, reload=eval_probe):
        return {}
    step_probe = memory_pass(ll, w, seed, work, tally)
    if not (step_probe.step_peaks and eval_probe.eval_peaks):
        return {}
    return end_to_end(setups, job_timings(job), step_probe, eval_probe, _last_row(job.out))


def measure(ll, w: Workload, seed: int, trace: bool, tally: Tally) -> dict:
    """run_workload in a scratch directory of the checkout, removed after."""
    work = RUNS / f"{w.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(ll, w, seed, trace, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="accepted; a run measures one job of fixed length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = p.parse_args(argv)

    ll = import_library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for key, value in environment(args.workload, args.seed):
        print(f"env {key}={value}")

    tally = Tally()
    results = ll.gradcheck.run_all()
    worst = max(results, key=lambda r: r.max_err)
    passed = all(r.ok for r in results)
    tally.check(f"gradcheck ({len(results)} checks)", passed, f"worst {worst.name} {worst.max_err:.2e}")

    metrics = {}
    for name in names:
        found = measure(ll, WORKLOADS[name], args.seed, bool(args.trace), tally)
        if not found:
            tally.check(f"{name} produced its metrics", False)
        for metric, (value, unit) in found.items():
            print(f"metric {name} {metric} = {value:.6g} {unit}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}

    print(f"failed_share = {tally.failed / max(1, tally.attempted):.6g} ({tally.failed} of {tally.attempted})")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
