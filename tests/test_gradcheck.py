"""The finite-difference harness itself, plus its coverage guarantees."""

import numpy as np
import pytest

import locallearn.gradcheck as gc
import locallearn.trainer as tr
from locallearn.losses import MODES


def test_fd_grad_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    fd = gc.fd_grad(lambda: float((x ** 2).sum()), x)
    assert np.allclose(fd, 2 * x, atol=1e-8)


def test_fd_grad_requires_f64():
    with pytest.raises(TypeError):
        gc.fd_grad(lambda: 0.0, np.zeros(2, dtype=np.float32))


def test_max_rel_err_floor():
    a = np.array([1e-9])  # below the floor: absolute comparison kicks in
    assert gc.max_rel_err(a, np.array([0.0])) < 1e-2
    # normalized by the larger magnitude
    assert gc.max_rel_err(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)


@pytest.fixture
def results(gradcheck_run):
    return gradcheck_run[0]


def test_all_checks_pass(results):
    bad = [r for r in results if not r.ok]
    assert bad == [], f"failing checks: {[r.name for r in bad]}"
    # none of the checks may be vacuous (comparing zero against zero)
    assert all(r.max_err > 0.0 for r in results)


def test_corrupt_hook_flags_named_check(monkeypatch):
    by_name = _run_only(monkeypatch, "matmul", "conv2d_3x3", corrupt="matmul")
    assert not by_name["matmul"].ok
    assert by_name["conv2d_3x3"].ok


def test_every_loss_mode_is_covered(results):
    names = {r.name for r in results}
    for mode in MODES:
        assert f"mode_{mode}" in names, mode


def test_every_backward_op_is_covered(results):
    names = {r.name for r in results}
    for op in ("matmul", "conv2d_3x3", "conv2d_stride2", "conv2d_7x7", "maxpool2x2",
               "avgpool", "batchnorm_dense", "batchnorm_conv", "leaky_relu", "dropout",
               "std_per_feature_map", "cross_entropy", "binary_cross_entropy",
               "similarity_matrix", "sim_loss_dense", "sim_loss_conv", "pred_loss_dense",
               "pred_loss_conv", "sim_bpf_dense", "sim_bpf_conv", "pred_bpf"):
        assert op in names, op


def _run_only(monkeypatch, *names, corrupt=None):
    """run_all restricted to the named checks; name -> result."""
    checks = [c for c in gc.all_checks() if c[0] in names]
    monkeypatch.setattr(gc, "all_checks", lambda: checks)
    return {r.name: r for r in gc.run_all(corrupt=corrupt)}


def test_mode_check_differentiates_the_gradients_train_step_hands_to_adam(monkeypatch):
    loss = tr.local_block_loss

    def halved_heads(*args, **kwargs):
        res = loss(*args, **kwargs)
        res.grads = {name: g / 2 for name, g in res.grads.items()}
        return res

    monkeypatch.setattr(tr, "local_block_loss", halved_heads)
    result = _run_only(monkeypatch, "mode_predsim")["mode_predsim"]
    assert not result.ok and result.max_err > 0.4


def test_parameter_without_a_gradient_fails_its_check(monkeypatch):
    backward = tr.block_local_backward

    def without_gamma(*args, **kwargs):
        grads = backward(*args, **kwargs)
        del grads["gamma"]
        return grads

    monkeypatch.setattr(tr, "block_local_backward", without_gamma)
    result = _run_only(monkeypatch, "mode_pred")["mode_pred"]
    assert not result.ok and result.max_err == np.inf
