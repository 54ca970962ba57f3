"""Tests for the verification suite itself: the small profile must pass, and
corrupted derivative routes must demonstrably fail (negative controls)."""

import numpy as np
import pytest

from metalink import graph
from metalink.autodiff import eval_with_gradient, hvp, unrolled_meta_gradient
from metalink.checks import (
    CheckResult,
    check_gradients,
    check_hvp,
    check_meta_closed_form,
    check_quadratic_oracle,
    check_stacked_autoencoder_meta_gradient,
    check_stacked_meta_gradient,
    check_values_only_sweep,
    dense_hessian,
    fd_gradient,
    fd_hvp,
    relative_error,
    run_gradcheck,
)


def test_relative_error_basics():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert relative_error([2.0], [1.0]) == 1.0
    assert relative_error([1e-3], [0.0]) == 1e-3  # safe denominator at zero


def test_fd_routes_on_known_quadratic():
    x = np.array([0.3, -1.2, 2.0])
    grad = fd_gradient(lambda z: float(np.sum(z**2)), x)
    assert relative_error(grad, 2.0 * x) < 1e-8
    v = np.array([1.0, 0.5, -2.0])
    assert np.allclose(fd_hvp(lambda z: 2.0 * z, x, v), 2.0 * v, rtol=0, atol=1e-9)


def test_dense_hessian_of_scaled_square():
    def lossfn(t, _):
        return graph.scale(graph.asum(graph.mul(t, t)), 1.5)

    h = dense_hessian(lossfn, np.array([0.4, -0.7]), None)
    assert np.allclose(h, 3.0 * np.eye(2), rtol=0, atol=1e-12)


def test_check_result_pass_boundary():
    assert CheckResult("x", 1.0, 1.0).passed
    assert CheckResult("x", 1.0, 1.0).line().startswith("pass")
    assert not CheckResult("x", 1.1, 1.0).passed
    assert "FAIL" in CheckResult("x", 1.1, 1.0).line()


def test_small_gradcheck_passes_quickly():
    report = run_gradcheck("small")
    assert report.passed
    assert report.seconds < 10.0
    assert len(report.results) == 12
    text = report.format()
    assert "all checks passed" in text
    for fragment in (
        "central differences", "hvp", "symmetry", "linearity", "closed form", "oracle", "first-order", "stacked",
        "stacked autoencoder", "values-only sweep",
    ):
        assert fragment in text, f"missing {fragment!r} in report"
    with pytest.raises(ValueError):
        run_gradcheck("huge")


def test_quadratic_oracle_is_tight():
    assert check_quadratic_oracle().error <= 1e-12


def test_corrupted_gradient_is_caught():
    def skewed(lossfn, p, data):
        return 1.001 * eval_with_gradient(lossfn, p, data).gradient

    assert check_gradients(3, gradient_fn=skewed).passed is False
    assert check_gradients(3).passed  # same instances, honest route


def test_corrupted_hvp_is_caught():
    def skewed(lossfn, p, v, data):
        out = hvp(lossfn, p, v, data)
        return out + 0.01 * np.linalg.norm(out)

    assert check_hvp(2, hvp_fn=skewed).passed is False
    assert check_hvp(2).passed


def test_corrupted_meta_gradient_is_caught():
    def skewed(f_tr, f_te, theta, eta, m, d_tr, d_te):
        loss, grad = unrolled_meta_gradient(f_tr, f_te, theta, eta, m, d_tr, d_te)
        return loss, 1.0001 * grad

    assert check_meta_closed_form(1, meta_fn=skewed).passed is False
    assert check_meta_closed_form(1).passed


def test_stacked_meta_gradient_row_off_by_one_ulp_is_caught():
    def nudged(f_tr, f_te, theta, eta, m, d_tr, d_te):
        losses, grads = unrolled_meta_gradient(f_tr, f_te, theta, eta, m, d_tr, d_te)
        grads = grads.copy()
        grads[-1, 0] = np.nextafter(grads[-1, 0], np.inf)
        return losses, grads

    for check in (check_stacked_meta_gradient, check_stacked_autoencoder_meta_gradient):
        assert check(meta_fn=nudged).passed is False, check.__name__
        assert check().passed, check.__name__


def test_values_only_sweep_off_by_one_ulp_is_caught():
    def nudged(output, wrt):
        (g,) = graph.gradients(output, [wrt], create_graph=False)
        values = g.value.copy()
        values[-1, -1] = np.nextafter(values[-1, -1], np.inf)
        return values

    assert check_values_only_sweep(sweep_fn=nudged).passed is False
    assert check_values_only_sweep().passed
