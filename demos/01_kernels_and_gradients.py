"""A tour of the numeric kernels and the finite-difference harness.

Every backward pass in this library is hand-written and paired with its
forward. This script shows the forwards on values you can verify mentally,
then runs the oracle suite's op checks, which keep each kernel's backward
honest, and exits 1 if one fails. `locallearn gradcheck` runs those and the
eight mode checks, which differentiate train_step itself in every loss mode.
"""

import sys

import numpy as np

import locallearn.numerics as nm
from locallearn.gradcheck import CheckResult, all_checks, max_rel_err
from locallearn.rng import make_rng

print("== conv2d on an all-ones 3x3 image, all-ones 3x3 kernel, pad 1 ==")
x = np.ones((1, 1, 3, 3))
k = np.ones((1, 1, 3, 3))
print(nm.conv2d(x, k)[0, 0])
print("corners count 4 taps, edges 6, the center all 9.\n")

print("== maxpool2x2 keeps each window's winning position for its backward ==")
x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
pooled, idx = nm.maxpool2x2(x)
print("input:\n", x[0, 0])
print("pooled:\n", pooled[0, 0])
print("winner index (uint8, 0..3 row-major in the 2x2 window):\n", idx[0, 0])
grad = nm.maxpool2x2_backward(np.ones_like(pooled), idx)
print("a unit upstream gradient lands only on the winners:\n", grad[0, 0])
_, none = nm.maxpool2x2(x, need_index=False)
print(f"with need_index=False (inference, local blocks) no index is made: {none}\n")

print("== batchnorm whitens per feature ==")
data = make_rng(1).standard_normal((256, 4)) * 3.0 + 7.0
out, *_ = nm.batchnorm_train(data, np.ones(4), np.zeros(4))
print("input  mean/std:", data.mean(0).round(2), data.std(0).round(2))
print("output mean/std:", out.mean(0).round(6), out.std(0).round(6), "\n")

print("== cross entropy is log-sum-exp stabilized ==")
logits = np.zeros((1, 10))
logits[0, 3] = 1000.0
targets = np.zeros((1, 10))
targets[0, 3] = 1.0
loss, _ = nm.cross_entropy_logits(logits, targets)
print(f"a +1000 logit on the true class gives loss {loss:.3e}, no overflow\n")

print("== the op checks: every kernel's backward vs central differences ==")
results = [
    CheckResult(name, max(max_rel_err(a, n) for a, n in check()))
    for name, check in all_checks()
    if not name.startswith("mode_")
]
for r in results:
    print(f"  {r.name:24s} max_rel_err={r.max_err:.3e} {'ok' if r.ok else 'FAIL'}")
failed = [r for r in results if not r.ok]
if failed:
    sys.exit(f"\nop check {failed[0].name} FAILED: {failed[0].max_err:.3e} is not below {failed[0].threshold:g}")
worst = max(results, key=lambda r: r.max_err)
print(f"\nall {len(results)} op checks below {worst.threshold:g}; worst was {worst.name} at {worst.max_err:.3e}.")
print("`locallearn gradcheck` runs them and the eight mode checks through train_step.")
