"""Self-contained numerical verification suites for the derivative engine.

Every check compares the engine against an independent route: central finite
differences for first derivatives, finite differences of exact gradients for
Hessian-vector products, a dense-Hessian closed form for one-step
meta-gradients, and the analytic relation between the full and first-order
meta-gradients as the inner step vanishes.  A stacked instance covers the
task axis: its gradient against central differences, and each row against
the same network's gradient computed alone; a stacked exact meta-gradient,
of MLPs and of autoencoders on a batch with a task axis, is held to each
row's meta-gradient computed alone.  Tolerances live here, in one place,
and the check functions take the computed quantities as inputs where
practical so a corrupted value demonstrably fails (negative controls in the
test suite rely on that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import graph
from .autodiff import eval_with_gradient, hvp, unrolled_meta_gradient
from .nn import (
    AutoencoderSpec,
    Dataset,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
)
from .tasks import SCOPE_CHECKS, generate_autoencoder_batch, rng_for, sample_task

GRAD_FD_TOL = 1.0e-6
GRAD_FD_STEP = 1.0e-5
HVP_FD_TOL = 1.0e-4
HVP_FD_STEP = 1.0e-4
HVP_SYMMETRY_TOL = 1.0e-10
HVP_LINEARITY_TOL = 1.0e-12
META_CLOSED_FORM_TOL = 1.0e-8
QUADRATIC_ORACLE_TOL = 1.0e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self):
        return self.error <= self.tol

    def line(self):
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}: err={self.error:.3e} tol={self.tol:.0e}"


@dataclass(frozen=True)
class CheckReport:
    results: tuple
    seconds: float

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def format(self):
        lines = [r.line() for r in self.results]
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(f"{verdict} ({len(self.results)} checks, {self.seconds:.1f}s)")
        return "\n".join(lines)


def relative_error(got, want):
    """||got - want|| / ||want||, safe at want = 0."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (denom if denom > 0 else 1.0))


def fd_gradient(value_fn, x, step=GRAD_FD_STEP):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * step)
    return out


def fd_hvp(grad_fn, x, v, step=HVP_FD_STEP):
    """Directional finite difference of an exact-gradient function."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return (grad_fn(x + step * v) - grad_fn(x - step * v)) / (2.0 * step)


def dense_hessian(lossfn, p, data):
    """Full Hessian column by column via Hessian-vector products."""
    flat = np.asarray(getattr(p, "values", p), dtype=np.float64)
    n = flat.size
    h = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        h[:, i] = hvp(lossfn, flat, e, data)
    return h


def _random_instance(i, n_classes=4, hidden=6, activation=None):
    """Small random MLP classification instance, deterministic in i.

    Unless pinned, the activation alternates so both tanh and relu nets are
    exercised; checks on second derivatives pin tanh (smooth).
    """
    rng = rng_for(1234, SCOPE_CHECKS, i)
    d = int(rng.integers(2, 5))
    if activation is None:
        activation = "relu" if i % 3 == 0 else "tanh"
    arch = mlp_arch((d, hidden, n_classes), hidden=activation)
    n = int(rng.integers(5, 20))
    data = Dataset(rng.standard_normal((n, d)), rng.integers(0, n_classes, n), n_classes)
    p = init_params(arch, rng)
    # Move off the zero-bias init so relu kinks are not sitting on the
    # fd evaluation points.
    p = p.with_values(p.values + 0.05 * rng.standard_normal(len(p)))
    return make_mlp_lossfn(arch), p, data


def check_gradients(n_instances=20, gradient_fn=None):
    """Max relative error between engine gradients and central differences.

    gradient_fn defaults to the engine; tests can inject a corrupted one to
    prove this check has teeth.
    """
    worst = 0.0
    for i in range(n_instances):
        lossfn, p, data = _random_instance(i)
        if gradient_fn is None:
            got = eval_with_gradient(lossfn, p, data).gradient
        else:
            got = gradient_fn(lossfn, p, data)

        def value(x, lossfn=lossfn, p=p, data=data):
            return eval_with_gradient(lossfn, p.with_values(x), data).value

        want = fd_gradient(value, p.values)
        worst = max(worst, relative_error(got, want))
    return CheckResult("gradient vs central differences", worst, GRAD_FD_TOL)


def check_hvp(n_instances=10, hvp_fn=None):
    """Max relative error of Hessian-vector products vs fd of exact gradients."""
    worst = 0.0
    for i in range(n_instances):
        lossfn, p, data = _random_instance(i, activation="tanh")
        rng = rng_for(99, SCOPE_CHECKS, i)
        v = rng.standard_normal(len(p))
        got = (hvp_fn or hvp)(lossfn, p, v, data)

        def grad(x, lossfn=lossfn, p=p, data=data):
            return eval_with_gradient(lossfn, p.with_values(x), data).gradient

        want = fd_hvp(grad, p.values, v)
        worst = max(worst, relative_error(got, want))
    return CheckResult("hvp vs fd of gradients", worst, HVP_FD_TOL)


def check_hvp_symmetry(n_instances=10):
    """u.H v == v.H u and H(av+bu) == a Hv + b Hu for random directions."""
    worst_sym = 0.0
    worst_lin = 0.0
    for i in range(n_instances):
        lossfn, p, data = _random_instance(i, activation="tanh")
        rng = rng_for(7, SCOPE_CHECKS, i)
        u = rng.standard_normal(len(p))
        v = rng.standard_normal(len(p))
        a, b = rng.standard_normal(2)
        hv = hvp(lossfn, p, v, data)
        hu = hvp(lossfn, p, u, data)
        hmix = hvp(lossfn, p, a * v + b * u, data)
        uhv = float(u @ hv)
        vhu = float(v @ hu)
        worst_sym = max(worst_sym, abs(uhv - vhu) / max(abs(uhv), abs(vhu), 1e-300))
        worst_lin = max(worst_lin, float(np.max(np.abs(hmix - a * hv - b * hu))))
    return (
        CheckResult("hvp symmetry u.Hv = v.Hu", worst_sym, HVP_SYMMETRY_TOL),
        CheckResult("hvp linearity", worst_lin, HVP_LINEARITY_TOL),
    )


def check_stacked_gradient(n_tasks=3):
    """A (T, P) stack of T tanh MLPs on T datasets, T = n_tasks.

    The gradient of the summed per-task losses must match central
    differences, and row t of it must equal network t's gradient computed
    alone, bit for bit (that error is the largest absolute difference).
    """
    rng = rng_for(4321, SCOPE_CHECKS, n_tasks)
    arch = mlp_arch((3, 6, 4))
    lossfn = make_mlp_lossfn(arch)
    tasks = [Dataset(rng.standard_normal((8, 3)), rng.integers(0, 4, 8), 4) for _ in range(n_tasks)]
    stack = np.stack([init_params(arch, rng).values for _ in range(n_tasks)])
    stack = stack + 0.05 * rng.standard_normal(stack.shape)
    data = lossfn.stack(tasks)

    def value(x):
        return float(graph.asum(lossfn(graph.const(x.reshape(stack.shape)), data)).value)

    p = graph.inp(stack)
    (got,) = graph.gradients(graph.asum(lossfn(p, data)), [p])
    fd_err = relative_error(got.value, fd_gradient(value, stack.ravel()).reshape(stack.shape))
    row_err = max(
        float(np.abs(got.value[t] - eval_with_gradient(lossfn, stack[t], task).gradient).max())
        for t, task in enumerate(tasks)
    )
    return (
        CheckResult(f"stacked (T={n_tasks}) gradient vs central differences", fd_err, GRAD_FD_TOL),
        CheckResult("stacked gradient rows vs each row alone", row_err, 0.0),
    )


def _stacked_meta_rows_error(lossfn, stack, d_tr, d_te, m, meta_fn):
    """Largest absolute difference between row t of the stacked m-step
    meta-loss and meta-gradient (data stacked by lossfn.stack) and task t's
    computed alone, over all t."""
    stacked = lossfn.stack(d_tr), lossfn.stack(d_te)
    losses, grads = (meta_fn or unrolled_meta_gradient)(lossfn, lossfn, stack, 0.1, m, *stacked)
    err = 0.0
    for t in range(stack.shape[0]):
        loss, grad = unrolled_meta_gradient(lossfn, lossfn, stack[t], 0.1, m, d_tr[t], d_te[t])
        err = max(err, abs(float(losses[t]) - loss), float(np.abs(grads[t] - grad).max()))
    return err


def check_stacked_meta_gradient(n_tasks=3, m=2, meta_fn=None):
    """The exact m-step meta-gradient of a (T, P) stack of T tasks.

    Row t of the stacked meta-gradient, and of the meta-loss, must equal task
    t's computed alone by unrolled_meta_gradient, bit for bit (the error is
    the largest absolute difference).  meta_fn replaces the stacked route.
    """
    rng = rng_for(4322, SCOPE_CHECKS, n_tasks)
    arch = mlp_arch((3, 6, 4))
    d_tr = [Dataset(rng.standard_normal((5, 3)), rng.integers(0, 4, 5), 4) for _ in range(n_tasks)]
    d_te = [Dataset(rng.standard_normal((7, 3)), rng.integers(0, 4, 7), 4) for _ in range(n_tasks)]
    stack = np.stack([init_params(arch, rng).values for _ in range(n_tasks)])
    stack = stack + 0.05 * rng.standard_normal(stack.shape)
    err = _stacked_meta_rows_error(make_mlp_lossfn(arch), stack, d_tr, d_te, m, meta_fn)
    return CheckResult(f"stacked (T={n_tasks}, m={m}) meta-gradient rows vs each row alone", err, 0.0)


def check_stacked_autoencoder_meta_gradient(n_tasks=3, m=2, meta_fn=None):
    """check_stacked_meta_gradient for autoencoder tasks: a (T, P) stack of
    small encoder/decoder pairs on batches with a task axis, row t on task
    t's channel draw (nn.stack_autoencoder_batches)."""
    rng = rng_for(4323, SCOPE_CHECKS, n_tasks)
    spec = AutoencoderSpec(n_messages=4, n_uses=2, enc_hidden=(5,), dec_hidden=(5,))
    tasks = [sample_task("autoencoder", rng) for _ in range(n_tasks)]
    d_tr = [generate_autoencoder_batch(task, 5, rng, spec) for task in tasks]
    d_te = [generate_autoencoder_batch(task, 7, rng, spec) for task in tasks]
    stack = np.stack([init_autoencoder_params(spec, rng).values for _ in range(n_tasks)])
    lossfn = make_autoencoder_lossfn(spec)
    err = _stacked_meta_rows_error(lossfn, stack, d_tr, d_te, m, meta_fn)
    return CheckResult(f"stacked autoencoder (T={n_tasks}, m={m}) meta-gradient rows vs each row alone", err, 0.0)


def closed_form_meta_gradient(lossfn, theta, eta, d_tr, d_te):
    """(I - eta H_tr(theta)) grad L_te(phi_1) via the dense Hessian.

    Independent route for the one-step meta-gradient on models small enough
    to materialize H.
    """
    flat = np.asarray(getattr(theta, "values", theta), dtype=np.float64)
    g_tr = eval_with_gradient(lossfn, flat, d_tr).gradient
    phi = flat - eta * g_tr
    g_te = eval_with_gradient(lossfn, phi, d_te).gradient
    h = dense_hessian(lossfn, flat, d_tr)
    return g_te - eta * (h @ g_te)


def check_meta_closed_form(n_instances=5, meta_fn=None):
    """Unrolled m=1 meta-gradient against the dense-Hessian closed form."""
    worst = 0.0
    eta = 0.05
    for i in range(n_instances):
        rng = rng_for(55, SCOPE_CHECKS, i)
        arch = mlp_arch((2, 3, 3))  # 21 params: dense Hessian is cheap
        p = init_params(arch, rng)
        p = p.with_values(p.values + 0.1 * rng.standard_normal(len(p)))
        lossfn = make_mlp_lossfn(arch)
        d_tr = Dataset(rng.standard_normal((6, 2)), rng.integers(0, 3, 6), 3)
        d_te = Dataset(rng.standard_normal((9, 2)), rng.integers(0, 3, 9), 3)
        if meta_fn is None:
            _, got = unrolled_meta_gradient(lossfn, lossfn, p.values, eta, 1, d_tr, d_te)
        else:
            _, got = meta_fn(lossfn, lossfn, p.values, eta, 1, d_tr, d_te)
        want = closed_form_meta_gradient(lossfn, p, eta, d_tr, d_te)
        worst = max(worst, relative_error(got, want))
    return CheckResult("m=1 meta-gradient vs dense closed form", worst, META_CLOSED_FORM_TOL)


def check_quadratic_oracle():
    """Hand-computed 1-d quadratic: theta=0, eta=0.1, one inner step.

    L_tr = 0.5 (phi - 1)^2 and L_te = 0.5 (phi + 1)^2 give phi_1 = 0.1,
    meta-loss 0.605, meta-gradient (1 - eta) * (phi_1 + 1) = 0.99.
    """

    def f_tr(t, _):
        d = graph.add(t, graph.const(np.array([-1.0])))
        return graph.scale(graph.asum(graph.mul(d, d)), 0.5)

    def f_te(t, _):
        d = graph.add(t, graph.const(np.array([1.0])))
        return graph.scale(graph.asum(graph.mul(d, d)), 0.5)

    loss, grad = unrolled_meta_gradient(f_tr, f_te, np.zeros(1), 0.1, 1)
    err = max(abs(loss - 0.605), abs(float(grad[0]) - 0.99))
    return CheckResult("1-d quadratic meta oracle", err, QUADRATIC_ORACLE_TOL)


def first_order_gap(eta, seed=0, m=1):
    """||full - first_order|| / ||full|| meta-gradient gap at inner rate eta.

    The curvature term the first-order variant drops is O(eta), so this gap
    must shrink linearly; callers compare two etas a decade apart.
    """
    rng = rng_for(seed, SCOPE_CHECKS, 77)
    arch = mlp_arch((2, 8, 4))
    p = init_params(arch, rng)
    lossfn = make_mlp_lossfn(arch)
    d_tr = Dataset(rng.standard_normal((8, 2)), rng.integers(0, 4, 8), 4)
    d_te = Dataset(rng.standard_normal((12, 2)), rng.integers(0, 4, 12), 4)
    _, full = unrolled_meta_gradient(lossfn, lossfn, p.values, eta, m, d_tr, d_te)
    phi = p.values
    for _ in range(m):
        phi = phi - eta * eval_with_gradient(lossfn, phi, d_tr).gradient
    fo = eval_with_gradient(lossfn, phi, d_te).gradient
    return float(np.linalg.norm(full - fo) / np.linalg.norm(full))


def check_first_order_limit():
    """Gap ratio across one decade of eta should be ~10 (linear shrink)."""
    gap_hi = first_order_gap(1.0e-3)
    gap_lo = first_order_gap(1.0e-4)
    ratio = gap_hi / gap_lo
    err = abs(ratio - 10.0)
    return CheckResult("first-order gap shrinks linearly in eta", err, 2.0)


def run_gradcheck(scale="small"):
    """Run every derivative check; scale 'full' uses the acceptance counts."""
    if scale not in ("small", "full"):
        raise ValueError(f"scale must be 'small' or 'full', got {scale!r}")
    n_grad = 20 if scale == "full" else 5
    n_hvp = 10 if scale == "full" else 3
    t0 = time.perf_counter()
    results = [
        check_gradients(n_grad),
        *check_stacked_gradient(),
        check_stacked_meta_gradient(),
        check_stacked_autoencoder_meta_gradient(),
        check_hvp(n_hvp),
    ]
    results.extend(check_hvp_symmetry(n_hvp))
    results.append(check_meta_closed_form(5 if scale == "full" else 2))
    results.append(check_quadratic_oracle())
    results.append(check_first_order_limit())
    return CheckReport(tuple(results), time.perf_counter() - t0)
