"""Derivative entry points: gradients, Hessian-vector products, meta-gradients.

A loss function here is any callable f(p_node, data) -> scalar Node, where
p_node is a graph input holding the flat parameter vector.  Because the
backward pass of graph.gradients emits nodes, second derivatives come from
running it twice, and the m-step unrolled meta-gradient comes from building
the adaptation trajectory inside one graph and differentiating through it.
No finite differences, no first-order shortcuts, anywhere in this module.

Every entry point also takes a (T, P) stack of parameter vectors, with data
that f maps to the (T,) vector of per-row losses (f.stack builds it from
the rows' data: nn.stack_datasets for the MLP loss,
nn.stack_autoencoder_batches for the autoencoder's).  The sweep
then starts from the sum of the rows' losses, so row t of the result is row
t's own value and derivative, bit for bit what the row gives alone: T
problems in one graph.

A sweep whose adjoints are only read, not differentiated again (the
gradient, the second sweep of hvp, the final sweep of the meta-gradient),
runs with create_graph=False and keeps no adjoint graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import NumericalError


@dataclass(frozen=True)
class GradientResult:
    """Loss value and gradient from a single forward/backward pass.

    For a (T, P) stack, value is the (T,) array of per-row losses and
    gradient the (T, P) stack of per-row gradients.
    """

    value: float
    gradient: np.ndarray


def _param_values(p):
    """Accept a ParamVector-like (has .values), a bare vector or a (T, P) stack."""
    values = getattr(p, "values", p)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"parameters must be a flat vector or a (T, P) stack, got shape {arr.shape}")
    return arr


def _objective(loss, p_node):
    """The scalar a sweep starts from: the loss, or a stack's summed row losses."""
    if p_node.value.ndim == 1:
        return loss
    rows = p_node.value.shape[:1]
    if loss.value.shape != rows:
        raise ValueError(
            f"a stack of {rows[0]} parameter rows needs a {rows} loss vector, got {loss.value.shape}"
        )
    return graph.asum(loss)


def _loss_value(loss):
    return float(loss.value) if loss.value.ndim == 0 else loss.value


def eval_with_gradient(f, p, data=None):
    """Evaluate f at p and return GradientResult(value, dL/dp)."""
    theta = graph.inp(_param_values(p))
    loss = f(theta, data)
    (grad,) = graph.gradients(_objective(loss, theta), [theta], create_graph=False)
    return GradientResult(_loss_value(loss), grad.value)


def hvp(f, p, v, data=None):
    """Exact Hessian-vector product H(p) @ v via reverse-over-reverse.

    Differentiates s(p) = grad(f)(p) . v, so the cost is a small constant
    times one gradient, independent of the parameter count.
    """
    flat = _param_values(p)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != flat.shape:
        raise ValueError(f"direction shape {v.shape} != parameter shape {flat.shape}")
    theta = graph.inp(flat)
    (grad_node,) = graph.gradients(_objective(f(theta, data), theta), [theta])
    s = graph.asum(graph.mul(grad_node, graph.const(v)))
    (hv,) = graph.gradients(s, [theta], create_graph=False)
    return hv.value


def unrolled_meta_gradient(f_tr, f_te, theta, eta, m, d_tr=None, d_te=None):
    """Meta-loss and exact meta-gradient through m inner SGD steps.

    Builds phi_0 = theta, phi_i = phi_{i-1} - eta * grad f_tr(phi_{i-1}),
    entirely as graph nodes, evaluates f_te(phi_m), and backpropagates to
    theta.  For m = 1 this reproduces the closed form
    (I - eta * H_tr(theta)) @ grad f_te(phi_1) exactly, second-order term
    included; larger m chains the per-step Jacobians automatically.

    eta = 0 is allowed (the meta-gradient degenerates to the plain gradient
    of f_te at theta); negative eta or m < 1 is rejected.
    """
    if eta < 0.0:
        raise ValueError(f"inner step size must be >= 0, got {eta}")
    if m < 1:
        raise ValueError(f"inner step count must be >= 1, got {m}")

    theta_node = graph.inp(_param_values(theta))
    phi = theta_node
    for step in range(m):
        try:
            inner_loss = _objective(f_tr(phi, d_tr), phi)
            (g,) = graph.gradients(inner_loss, [phi])
            phi = graph.add_scaled(phi, g, -eta)
        except NumericalError as err:
            raise NumericalError(
                f"inner step {step} of {m} diverged: {err}", op_kind=err.op_kind
            ) from err

    meta_loss = f_te(phi, d_te)
    (meta_grad,) = graph.gradients(_objective(meta_loss, theta_node), [theta_node], create_graph=False)
    return _loss_value(meta_loss), meta_grad.value
