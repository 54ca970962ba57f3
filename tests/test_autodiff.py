"""Oracle tests for the derivative entry points.

The gold standards here are independent of the engine: central finite
differences, hand algebra on 1-d quadratics, and a dense Hessian assembled
column by column.  Anything labelled "exact" is compared at or near machine
precision, not with loose tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalink import graph
from metalink.autodiff import eval_with_gradient, hvp, unrolled_meta_gradient
from metalink.checks import dense_hessian, fd_gradient, fd_hvp, relative_error
from metalink.errors import NumericalError
from metalink.nn import Dataset, init_params, make_mlp_lossfn, mlp_arch, stack_datasets


def _square(p_node, _data):
    return graph.asum(graph.mul(p_node, p_node))


def _quadratic(center):
    """f(p) = 0.5 * (p - center)^2 for 1-d p, as a graph lossfn."""

    def f(p_node, _data):
        d = graph.add(p_node, graph.const(np.array([-center])))
        return graph.scale(graph.asum(graph.mul(d, d)), 0.5)

    return f


def _mlp_instance(seed, sizes=(2, 8, 4), n=5):
    rng = np.random.default_rng(seed)
    arch = mlp_arch(sizes)
    p = init_params(arch, seed)
    data = Dataset(rng.standard_normal((n, sizes[0])), rng.integers(0, sizes[-1], n), sizes[-1])
    return make_mlp_lossfn(arch), p, data


def test_value_and_gradient_of_square():
    r = eval_with_gradient(_square, np.array([3.0]))
    assert r.value == 9.0
    assert np.array_equal(r.gradient, [6.0])


def test_gradient_of_constant_function_is_zero():
    def f(p_node, _data):
        return graph.asum(graph.const(np.array([5.0])))

    r = eval_with_gradient(f, np.arange(4.0))
    assert r.value == 5.0
    assert np.array_equal(r.gradient, np.zeros(4))


def test_mlp_gradient_matches_finite_differences():
    lossfn, p, data = _mlp_instance(0)

    def value(x):
        theta = graph.inp(x)
        return float(lossfn(theta, data).value)

    r = eval_with_gradient(lossfn, p, data)
    fd = fd_gradient(value, p.values)
    assert relative_error(r.gradient, fd) < 1e-6


def test_eval_with_gradient_accepts_param_vector_and_array():
    lossfn, p, data = _mlp_instance(1)
    a = eval_with_gradient(lossfn, p, data)
    b = eval_with_gradient(lossfn, p.values, data)
    assert a.value == b.value
    assert np.array_equal(a.gradient, b.gradient)


def test_eval_with_gradient_rejects_matrix_parameters():
    # a (T, P) matrix is a stack of T parameter rows, and needs a (T,) loss
    with pytest.raises(ValueError):
        eval_with_gradient(_square, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        eval_with_gradient(_square, np.zeros((2, 2, 2)))


def test_entry_points_on_a_stack_give_each_row_its_own_result():
    instances = [_mlp_instance(seed) for seed in (20, 21, 22)]
    lossfn = instances[0][0]
    stack = np.stack([p.values for _, p, _ in instances])
    data = stack_datasets(d for _, _, d in instances)
    te = stack_datasets(_mlp_instance(seed)[2] for seed in (23, 24, 25))
    v = np.random.default_rng(26).standard_normal(stack.shape)
    r = eval_with_gradient(lossfn, stack, data)
    hv = hvp(lossfn, stack, v, data)
    losses, grads = unrolled_meta_gradient(lossfn, lossfn, stack, 0.1, 2, data, te)
    for t, (_, p, d) in enumerate(instances):
        alone = eval_with_gradient(lossfn, p, d)
        assert r.value[t] == alone.value
        assert np.array_equal(r.gradient[t], alone.gradient)
        assert np.array_equal(hv[t], hvp(lossfn, p, v[t], d))
        loss, grad = unrolled_meta_gradient(lossfn, lossfn, p, 0.1, 2, d, _mlp_instance(23 + t)[2])
        assert losses[t] == loss
        assert np.array_equal(grads[t], grad)


# ---------------------------------------------------------------------------
# Hessian-vector products


def test_hvp_on_diagonal_quadratic():
    # f = 0.5 p' A p, A = diag(2, 4): H v = A v for any p.
    def f(p_node, _data):
        a = graph.const(np.array([2.0, 4.0]))
        return graph.scale(graph.asum(graph.mul(a, graph.mul(p_node, p_node))), 0.5)

    out = hvp(f, np.array([0.3, -0.7]), np.array([1.0, 1.0]))
    assert np.allclose(out, [2.0, 4.0], rtol=0, atol=1e-14)


def test_hvp_zero_direction_gives_zero():
    lossfn, p, data = _mlp_instance(2)
    out = hvp(lossfn, p, np.zeros(len(p)), data)
    assert np.array_equal(out, np.zeros(len(p)))


def test_hvp_matches_finite_difference_of_gradients():
    lossfn, p, data = _mlp_instance(3)
    rng = np.random.default_rng(33)
    v = rng.standard_normal(len(p))

    def grad(x):
        return eval_with_gradient(lossfn, x, data).gradient

    assert relative_error(hvp(lossfn, p, v, data), fd_hvp(grad, p.values, v)) < 1e-4


def test_hvp_linearity():
    lossfn, p, data = _mlp_instance(4)
    rng = np.random.default_rng(44)
    u = rng.standard_normal(len(p))
    v = rng.standard_normal(len(p))
    alpha, beta = 1.3, -0.7
    combined = hvp(lossfn, p, alpha * u + beta * v, data)
    parts = alpha * hvp(lossfn, p, u, data) + beta * hvp(lossfn, p, v, data)
    assert np.abs(combined - parts).max() < 1e-12


def test_hvp_symmetry():
    lossfn, p, data = _mlp_instance(5)
    rng = np.random.default_rng(55)
    u = rng.standard_normal(len(p))
    v = rng.standard_normal(len(p))
    lhs = float(u @ hvp(lossfn, p, v, data))
    rhs = float(v @ hvp(lossfn, p, u, data))
    assert abs(lhs - rhs) / (abs(lhs) + 1e-12) < 1e-10


def test_hvp_rejects_mismatched_direction():
    with pytest.raises(ValueError):
        hvp(_square, np.zeros(3), np.zeros(4))


def test_hvp_is_deterministic():
    lossfn, p, data = _mlp_instance(6)
    v = np.random.default_rng(66).standard_normal(len(p))
    assert np.array_equal(hvp(lossfn, p, v, data), hvp(lossfn, p, v, data))


# ---------------------------------------------------------------------------
# unrolled meta-gradients


def test_quadratic_meta_oracle():
    # L_tr = 0.5 (phi - 1)^2, L_te = 0.5 (phi + 1)^2, theta = 0, eta = 0.1:
    # phi_1 = 0.1, meta-loss = 0.5 * 1.1^2 = 0.605,
    # meta-grad = (1 - eta) * (phi_1 + 1) = 0.9 * 1.1 = 0.99.
    loss, grad = unrolled_meta_gradient(_quadratic(1.0), _quadratic(-1.0), np.array([0.0]), 0.1, 1)
    assert abs(loss - 0.605) < 1e-12
    assert abs(grad[0] - 0.99) < 1e-12


def test_zero_inner_rate_reduces_to_plain_gradient():
    lossfn, p, data = _mlp_instance(7)
    te = _mlp_instance(8)[2]
    for m in (1, 3):
        loss, grad = unrolled_meta_gradient(lossfn, lossfn, p, 0.0, m, data, te)
        plain = eval_with_gradient(lossfn, p, te)
        assert loss == plain.value
        assert np.array_equal(grad, plain.gradient)


def test_two_step_unroll_matches_hand_chain_on_quadratic():
    # With L_tr = 0.5 (phi - 1)^2: phi_{i+1} = phi_i - eta (phi_i - 1), so
    # d phi_2 / d theta = (1 - eta)^2 and meta-grad = (1-eta)^2 (phi_2 + 1).
    eta, theta = 0.25, 0.0
    phi1 = theta - eta * (theta - 1.0)
    phi2 = phi1 - eta * (phi1 - 1.0)
    loss, grad = unrolled_meta_gradient(_quadratic(1.0), _quadratic(-1.0), np.array([theta]), eta, 2)
    assert abs(loss - 0.5 * (phi2 + 1.0) ** 2) < 1e-12
    assert abs(grad[0] - (1.0 - eta) ** 2 * (phi2 + 1.0)) < 1e-12


def test_unrolled_meta_gradient_matches_dense_hessian_closed_form():
    # (I - eta H_tr(theta)) grad L_te(phi_1) with the Hessian assembled
    # column by column; exact up to accumulation noise.
    arch = mlp_arch((2, 3, 3))  # 21 parameters
    lossfn = make_mlp_lossfn(arch)
    p = init_params(arch, 9)
    rng = np.random.default_rng(99)
    d_tr = Dataset(rng.standard_normal((6, 2)), rng.integers(0, 3, 6), 3)
    d_te = Dataset(rng.standard_normal((4, 2)), rng.integers(0, 3, 4), 3)
    eta = 0.05

    h = dense_hessian(lossfn, p.values, d_tr)
    g_tr = eval_with_gradient(lossfn, p, d_tr).gradient
    phi = p.values - eta * g_tr
    g_te = eval_with_gradient(lossfn, phi, d_te).gradient
    closed = (np.eye(len(p)) - eta * h) @ g_te

    _, grad = unrolled_meta_gradient(lossfn, lossfn, p, eta, 1, d_tr, d_te)
    assert relative_error(grad, closed) < 1e-8


def test_unrolled_meta_gradient_validates_arguments():
    with pytest.raises(ValueError):
        unrolled_meta_gradient(_square, _square, np.zeros(2), -0.1, 1)
    with pytest.raises(ValueError):
        unrolled_meta_gradient(_square, _square, np.zeros(2), 0.1, 0)


def test_inner_divergence_is_annotated_with_the_step():
    def explode(p_node, _data):
        big = graph.scale(p_node, 1e200)
        return graph.asum(graph.mul(big, big))

    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError) as exc:
            unrolled_meta_gradient(explode, _square, np.array([2.0]), 0.1, 3)
    assert "inner step 0 of 3" in str(exc.value)


def test_unrolled_meta_gradient_is_deterministic():
    lossfn, p, data = _mlp_instance(10)
    te = _mlp_instance(11)[2]
    a = unrolled_meta_gradient(lossfn, lossfn, p, 0.01, 2, data, te)
    b = unrolled_meta_gradient(lossfn, lossfn, p, 0.01, 2, data, te)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


@given(st.floats(0.0, 0.5), st.floats(-2.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_one_step_meta_gradient_closed_form_on_quadratics(eta, theta):
    # Scalar case is fully solvable: phi = theta - eta (theta - 1),
    # meta-grad = (1 - eta) * (phi + 1).
    phi = theta - eta * (theta - 1.0)
    want = (1.0 - eta) * (phi + 1.0)
    loss, grad = unrolled_meta_gradient(
        _quadratic(1.0), _quadratic(-1.0), np.array([theta]), eta, 1
    )
    assert abs(loss - 0.5 * (phi + 1.0) ** 2) < 1e-10
    assert abs(grad[0] - want) < 1e-10
