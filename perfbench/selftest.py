"""Self-test of the benchmark harness:

    python3 perfbench/selftest.py

Runs every workload shrunk to three training steps (one past the warm-up)
and a small test split, untraced and traced, and checks that:

- BENCHMARK.json lists the workloads run.py defines, and exactly the
  metric names it lists are emitted, per-layer names that do not apply to
  a workload reading 0 (no conv on mlp-bpf);
- every name uses only [A-Za-z0-9_.-];
- a traced run writes its spans out, parents before children;
- the library's modules hold the same objects afterwards, so no wrapper
  is left installed.

Exits 1 and lists the problems when one fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import replace

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def module_state(ll) -> dict:
    return {(m.__name__, k): v for m in vars(ll).values() for k, v in vars(m).items()}


def span_problems(path) -> list:
    """The written spans parse and every parent precedes its child."""
    try:
        with open(path) as f:
            rows = [json.loads(line) for line in f]
    except (OSError, ValueError) as e:
        return [f"spans unreadable: {e}"]
    if not rows:
        return ["no spans written"]
    return [f"span {i} has parent {r['parent']}" for i, r in enumerate(rows) if not -1 <= r["parent"] < i]


def main() -> int:
    ll = run.import_library()
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    before = module_state(ll)
    problems = []
    if spec["workloads"] != [{"name": w.name, "why": w.why} for w in run.WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for w in run.WORKLOADS.values():
        small = replace(w, n_train=(run.WARMUP + 1) * w.batch, n_test=64, epochs=1)
        for trace in (False, True):
            tally = run.Tally()
            with contextlib.redirect_stdout(io.StringIO()):
                metrics = run.measure(ll, small, 1, trace, tally)
            where = f"{w.name} trace={int(trace)}"
            if tally.failed:
                problems.append(f"{where}: {tally.failed} failed checks or steps")
            missing, extra = sorted(wanted[trace] - set(metrics)), sorted(set(metrics) - wanted[trace])
            if missing or extra:
                problems.append(f"{where}: missing {missing}, extra {extra}")
            problems += [f"{where}: bad name {n!r}" for n in metrics if not NAME.fullmatch(n)]
            if trace:
                problems += [f"{where}: {p}" for p in span_problems(run.SPANS / f"{w.name}-1.jsonl")]
                conv_calls = metrics.get("numerics.conv2d.calls", (None,))[0]
                if (conv_calls == 0) != (w.dataset == "mnist"):
                    problems.append(f"{where}: numerics.conv2d.calls = {conv_calls}")
    after = module_state(ll)
    changed = [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]
    problems += [f"not restored: {mod}.{name}" for mod, name in sorted(changed)]
    for line in problems:
        print(line)
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
