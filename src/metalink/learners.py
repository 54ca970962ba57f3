"""Training loops: conventional, joint, and model-agnostic meta-learning.

Conventions shared by every loop here:

* full-batch SGD; eta_inner is the task-level rate and, for the conventional
  and joint baselines, outer_iters doubles as their step count;
* a divergence guard: if a loss comes back non-finite or above 1e6, the
  previous step is retried once at half size, and training aborts with a
  NumericalError if that does not cure it;
* everything is a pure function of (inputs, config.seed): no hidden state,
  repeated calls give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .autodiff import eval_with_gradient, unrolled_meta_gradient
from .errors import ConfigurationError, NumericalError
from .nn import (
    Dataset,
    ParamVector,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
)
from .tasks import SCOPE_META_STREAM, SCOPE_PILOTS_TRAIN, rng_for

DEMOD_ARCH = mlp_arch((2, 32, 32, 16))

LOSS_CEILING = 1.0e6


@dataclass(frozen=True)
class TrainConfig:
    """Step sizes, inner/outer step counts, meta-batch size, variant flags."""

    eta_inner: float = 0.1
    eta_outer: float = 0.3
    m: int = 1
    K_meta_batch: int = 10
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
        if self.K_meta_batch < 1:
            raise ConfigurationError("meta-batch size must be >= 1")
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


def loss_value(lossfn, p, data):
    """Loss as a plain float, no gradient."""
    theta = graph.inp(np.asarray(getattr(p, "values", p), dtype=np.float64))
    return float(lossfn(theta, data).value)


def _attempt(value_grad, p):
    """(loss, gradient) at p, or None if the loss is non-finite or above the ceiling."""
    try:
        loss, grad = value_grad(p)
    except NumericalError:
        return None
    return None if loss > LOSS_CEILING else (loss, grad)


def _guarded_step(value_grad, p, prev, eta, what, it):
    """Loss and gradient at p, under the divergence guard.

    If the loss at p diverges, the last step is retried once at half size
    from prev = (previous point, its gradient); with no previous step, or if
    the retry diverges too, NumericalError.  Returns (point used, loss, grad).
    """
    out = _attempt(value_grad, p)
    if out is None:
        if prev is None:
            raise NumericalError(f"{what}: loss diverged at the initial point")
        p = sgd_step(prev[0], prev[1], 0.5 * eta)
        out = _attempt(value_grad, p)
        if out is None:
            raise NumericalError(f"{what}: diverged at iteration {it}; half-step retry failed")
    return (p, *out)


def _guarded_descent(value_grad, p, eta, n_iters, what):
    """SGD with the retry-once-at-half-step divergence guard."""
    prev = None
    for it in range(n_iters):
        p, _, grad = _guarded_step(value_grad, p, prev, eta, what, it)
        prev = (p, grad)
        p = sgd_step(p, grad, eta)
    return p


def train_conventional(task, n_pilots, config, *, dataset=None, init=None):
    """Train a demodulator for one task from scratch on its pilots.

    Runs config.outer_iters full-batch steps at rate config.eta_inner.  The
    pilot set defaults to a fresh draw from the task (seeded by config.seed
    and the task id); pass dataset= to reuse an existing one.
    """
    if task.kind != "demod":
        raise ConfigurationError("conventional training is defined for demodulator tasks")
    if dataset is None:
        from .tasks import make_pilot_dataset

        dataset = make_pilot_dataset(
            task, n_pilots, rng_for(config.seed, SCOPE_PILOTS_TRAIN, task.id)
        )
    p = init if init is not None else init_params(DEMOD_ARCH, config.seed)
    lossfn = make_mlp_lossfn(p.arch)

    def value_grad(params):
        r = eval_with_gradient(lossfn, params, dataset)
        return r.value, r.gradient

    return _guarded_descent(value_grad, p, config.eta_inner, config.outer_iters, f"task {task.id}")


def train_joint(meta_batch, config, *, init=None):
    """Train one shared model on the pooled training data of all tasks.

    The objective is the mean of per-task losses, reduced pairwise so a batch
    of identical tasks reproduces single-task training bit for bit.  No
    adaptation happens here; this is the common-model baseline.
    """
    p = init if init is not None else _default_init(meta_batch, config.seed)
    arch = getattr(p, "arch", None)
    lossfns = [_lossfn_for_data(arch, item.train) for item in meta_batch.items]

    def value_grad(params):
        theta = graph.inp(getattr(params, "values", params))
        per_task = [fn(theta, item.train) for fn, item in zip(lossfns, meta_batch.items)]
        total = graph.mean_nodes(per_task)
        (g,) = graph.gradients(total, [theta])
        return float(total.value), g.value

    return _guarded_descent(value_grad, p, config.eta_inner, config.outer_iters, "joint training")


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


def maml_meta_loss(theta, meta_batch, config):
    """Mean over tasks of the post-adaptation test loss."""
    total = 0.0
    arch = getattr(theta, "arch", None)
    for item in meta_batch.items:
        phi = maml_adapt(theta, item.train, config.eta_inner, config.m)
        total += loss_value(_lossfn_for_data(arch, item.test), phi, item.test)
    return total / len(meta_batch.items)


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


def maml_meta_step(theta, meta_batch, config):
    """One outer update: theta - eta_outer * (mean per-task meta-gradient).

    Uses the exact unrolled meta-gradient unless config.first_order, which
    drops the curvature factor and evaluates the plain test-loss gradient at
    the adapted parameters.
    """
    _, grad = _meta_value_grad(theta, meta_batch, config)
    return sgd_step(theta, grad, config.eta_outer)


def _default_init(meta_batch, seed):
    if meta_batch.kind == "demod":
        return init_params(DEMOD_ARCH, seed)
    return init_autoencoder_params(meta_batch.ae_spec, seed)


def meta_train(task_stream, config, *, init=None):
    """Full meta-training loop over a stream of meta-batches.

    task_stream is a callable rng -> MetaBatch; it is drawn once per outer
    iteration from a generator derived from config.seed, so the run is a pure
    function of (stream definition, config).  Returns the learned
    initialization and the meta-loss history [(iteration, loss), ...].
    """
    rng = rng_for(config.seed, SCOPE_META_STREAM)
    pending = None
    if init is None:
        pending = task_stream(rng)
        init = _default_init(pending, config.seed)
    theta = init
    history = []
    prev = None
    for it in range(config.outer_iters):
        batch = pending if pending is not None else task_stream(rng)
        pending = None
        theta, loss, grad = _guarded_step(
            lambda q: _meta_value_grad(q, batch, config), theta, prev, config.eta_outer, "meta-training", it
        )
        history.append((it, loss))
        prev = (theta, grad)
        theta = sgd_step(theta, grad, config.eta_outer)
    return MetaTrainResult(theta, tuple(history))
