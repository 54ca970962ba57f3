"""Training loops: conventional, joint, and model-agnostic meta-learning.

Conventions shared by every loop here:

* full-batch SGD; eta_inner is the task-level rate and, for the conventional
  and joint baselines, outer_iters doubles as their step count;
* a divergence guard: if a loss comes back non-finite or above 1e6, the
  previous step is retried once at half size, and training aborts with a
  NumericalError, chained to the last divergence, if that does not cure it;
* everything is a pure function of (inputs, init, config): no hidden state,
  no default initialization or data, and repeated calls give bit-identical
  results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .autodiff import eval_with_gradient, unrolled_meta_gradient
from .errors import ConfigurationError, NumericalError
from .nn import Dataset, ParamVector, make_autoencoder_lossfn, make_mlp_lossfn, mlp_arch
from .tasks import SCOPE_META_STREAM, rng_for

DEMOD_ARCH = mlp_arch((2, 32, 32, 16))

LOSS_CEILING = 1.0e6


@dataclass(frozen=True)
class TrainConfig:
    """Step sizes, inner/outer step counts, variant flags."""

    eta_inner: float = 0.1
    eta_outer: float = 0.3
    m: int = 1
    outer_iters: int = 100
    first_order: bool = False
    seed: int = 0

    def __post_init__(self):
        # eta_inner = 0 is legal (adaptation becomes the identity, which some
        # equivalence checks rely on); a zero outer rate never makes sense.
        if not (math.isfinite(self.eta_inner) and math.isfinite(self.eta_outer)):
            raise ConfigurationError("step sizes must be finite")
        if self.eta_inner < 0 or self.eta_outer <= 0:
            raise ConfigurationError("step sizes must be positive (eta_inner may be 0)")
        if self.m < 1:
            raise ConfigurationError("inner step count m must be >= 1")
        if self.outer_iters < 0:
            raise ConfigurationError("outer_iters must be >= 0")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class MetaTrainResult:
    """Final initialization and per-iteration meta-loss trace."""

    params: ParamVector
    history: tuple


def sgd_step(p, gradient, eta):
    """One gradient-descent update; returns the same type it was given."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if isinstance(p, ParamVector):
        if gradient.shape != p.values.shape:
            raise ConfigurationError(
                f"gradient shape {gradient.shape} does not match parameters {p.values.shape}"
            )
        return p.with_values(p.values - eta * gradient)
    p = np.asarray(p, dtype=np.float64)
    if gradient.shape != p.shape:
        raise ConfigurationError(f"gradient shape {gradient.shape} does not match {p.shape}")
    return p - eta * gradient


@dataclass(frozen=True)
class SyntheticObjective:
    """Hand-built differentiable objective for oracle tests and toy tasks.

    Wraps a callable p_node -> scalar Node; trainers and meta ops treat it
    like task data, so closed-form problems (quadratics with known minima)
    can exercise the exact same code paths as real tasks.
    """

    build: object

    def make_lossfn(self):
        build = self.build
        return lambda p_node, _data: build(p_node)


def _lossfn_for_data(arch, data):
    """Pick the loss builder matching the data container."""
    maker = getattr(data, "make_lossfn", None)
    if maker is not None:
        return maker()
    if isinstance(data, Dataset):
        if arch is None:
            raise ConfigurationError("dataset tasks need parameters with an architecture")
        return make_mlp_lossfn(arch)
    spec = getattr(data, "spec", None)
    if spec is not None:
        return make_autoencoder_lossfn(spec)
    raise ConfigurationError(f"cannot build a loss for data of type {type(data).__name__}")


def _attempt(value_grad, p):
    """(loss, gradient) at p, or the NumericalError saying why the loss diverged."""
    try:
        loss, grad = value_grad(p)
    except NumericalError as err:
        return err
    if loss > LOSS_CEILING:
        return NumericalError(f"loss {loss:.6g} above the ceiling {LOSS_CEILING:g}")
    return loss, grad


def _guarded_step(value_grad, p, prev, eta, what, it):
    """Loss and gradient at p, under the divergence guard.

    If the loss at p diverges, the last step is retried once at half size
    from prev = (previous point, its gradient); with no previous step, or if
    the retry diverges too, NumericalError, chained to the last divergence
    and carrying its message and op kind.  Returns (point used, loss, grad).
    """
    out = _attempt(value_grad, p)
    if isinstance(out, NumericalError):
        if prev is None:
            where = "loss diverged at the initial point"
        else:
            p = sgd_step(prev[0], prev[1], 0.5 * eta)
            out = _attempt(value_grad, p)
            where = f"diverged at iteration {it}; half-step retry failed"
        if isinstance(out, NumericalError):
            raise NumericalError(f"{what}: {where}: {out}", op_kind=out.op_kind) from out
    return (p, *out)


def _guarded_descent(value_grad, p, eta, n_iters, what):
    """SGD with the retry-once-at-half-step divergence guard."""
    prev = None
    for it in range(n_iters):
        p, _, grad = _guarded_step(value_grad, p, prev, eta, what, it)
        prev = (p, grad)
        p = sgd_step(p, grad, eta)
    return p


def train_conventional(task, config, *, dataset, init):
    """Train a demodulator for one task from init on its pilot dataset.

    Runs config.outer_iters full-batch steps at rate config.eta_inner.
    """
    if task.kind != "demod":
        raise ConfigurationError("conventional training is defined for demodulator tasks")
    lossfn = make_mlp_lossfn(init.arch)

    def value_grad(params):
        r = eval_with_gradient(lossfn, params, dataset)
        return r.value, r.gradient

    return _guarded_descent(value_grad, init, config.eta_inner, config.outer_iters, f"task {task.id}")


def train_joint(meta_batch, config, *, init):
    """Train one shared model on the pooled training data of all tasks.

    The objective is the mean of per-task losses, reduced pairwise so a batch
    of identical tasks reproduces single-task training bit for bit.  No
    adaptation happens here; this is the common-model baseline.
    """
    arch = getattr(init, "arch", None)
    lossfns = [_lossfn_for_data(arch, item.train) for item in meta_batch.items]

    def value_grad(params):
        theta = graph.inp(getattr(params, "values", params))
        per_task = [fn(theta, item.train) for fn, item in zip(lossfns, meta_batch.items)]
        total = graph.mean_nodes(per_task)
        (g,) = graph.gradients(total, [theta])
        return float(total.value), g.value

    return _guarded_descent(value_grad, init, config.eta_inner, config.outer_iters, "joint training")


def maml_adapt(theta, d_tr, eta, m):
    """m plain SGD steps on the adaptation data, starting from theta.

    This is the deployment-time procedure; it has no divergence guard and no
    randomness, and NumericalErrors propagate to the caller.
    """
    if m < 0:
        raise ConfigurationError("adaptation step count must be >= 0")
    lossfn = _lossfn_for_data(getattr(theta, "arch", None), d_tr)
    p = theta
    for _ in range(m):
        r = eval_with_gradient(lossfn, p, d_tr)
        p = sgd_step(p, r.gradient, eta)
    return p


def _per_task_meta_grad(theta, item, config):
    arch = getattr(theta, "arch", None)
    f_tr = _lossfn_for_data(arch, item.train)
    f_te = _lossfn_for_data(arch, item.test)
    if config.first_order:
        phi = maml_adapt(theta, item.train, config.eta_inner, config.m)
        r = eval_with_gradient(f_te, phi, item.test)
        return r.value, r.gradient
    return unrolled_meta_gradient(
        f_tr, f_te, getattr(theta, "values", theta), config.eta_inner, config.m, item.train, item.test
    )


def _meta_value_grad(theta, meta_batch, config):
    """Meta-loss and meta-gradient averaged over the batch's tasks."""
    losses = []
    grads = []
    for item in meta_batch.items:
        try:
            loss, grad = _per_task_meta_grad(theta, item, config)
        except NumericalError as err:
            task_id = getattr(item.task, "id", "?")
            raise NumericalError(f"task {task_id}: {err}", op_kind=err.op_kind) from err
        losses.append(loss)
        grads.append(grad)
    return float(np.mean(losses)), np.mean(grads, axis=0)


def meta_train(task_stream, config, *, init):
    """Full meta-training loop over a stream of meta-batches, from init.

    task_stream is a callable rng -> MetaBatch; it is drawn once per outer
    iteration from a generator derived from config.seed, so the run is a pure
    function of (stream definition, config, init).  Each outer update is
    theta - eta_outer * (mean per-task meta-gradient): the exact unrolled
    meta-gradient, or with config.first_order the plain test-loss gradient at
    the adapted parameters.  Returns the learned initialization and the
    meta-loss history [(iteration, loss at the point stepped from), ...].
    """
    rng = rng_for(config.seed, SCOPE_META_STREAM)
    theta = init
    history = []
    prev = None
    for it in range(config.outer_iters):
        batch = task_stream(rng)
        theta, loss, grad = _guarded_step(
            lambda q: _meta_value_grad(q, batch, config), theta, prev, config.eta_outer, "meta-training", it
        )
        history.append((it, loss))
        prev = (theta, grad)
        theta = sgd_step(theta, grad, config.eta_outer)
    return MetaTrainResult(theta, tuple(history))
