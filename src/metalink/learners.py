"""Training loops: conventional, joint, and model-agnostic meta-learning.

Conventions shared by every loop here:

* full-batch SGD; eta_inner is the task-level rate and, for the conventional
  and joint baselines, outer_iters doubles as their step count;
* a divergence guard: if a loss comes back non-finite or above 1e6, the
  previous step is retried once at half size, and training aborts with a
  NumericalError, chained to the last divergence, if that does not cure it;
* everything is a pure function of (inputs, init, config): no hidden state,
  no default initialization or data, and repeated calls give bit-identical
  results;
* the caller owns the loss: every learner takes lossfn(p_node, data) ->
  scalar Node, the contract of autodiff, and applies it to whatever data
  the tasks carry.  No learner looks at its data to choose a loss, so a
  closed-form objective (a quadratic with a known minimum) is just another
  lossfn, with no wrapper type for its data; one that a learner runs on a
  task stack carries its stacker too (see meta_train).

The conventional baseline and meta-training run their tasks in one graph
per step, on a task axis (see graph), and each row of a stack computes bit
for bit what it computes alone.  train_conventional is adaptation from a
random start: it is maml_adapt of a (T, P) stack tiled from init, one row
per device.  train_joint needs no task axis: it is one network's guarded
descent on the tasks' pooled data (nn.pool_datasets).  meta_train runs each
meta-batch of K tasks as one (K, P) stack: row k of the stacked
meta-gradient, exact or first-order, is task k's.  Deployment stacks too:
harness adapts and scores a pilot count's demod receivers as one stack, and
the autoencoder's test channels in groups that hold at most a meta-batch's
rows.

One rule covers divergence in a stack: a task stack has no guard of its own,
and if it diverges (an op raises, or a conventional row's loss passes the
ceiling) its tasks rerun alone.  Conventional tasks rerun each under its own
guard, named "task <id>"; a meta-batch reruns as stacks of one task inside
the batch's meta-loss, so the error that meta-training's guard sees names
the first task that diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import eval_with_gradient, unrolled_meta_gradient
from .errors import ConfigurationError, NumericalError
from .nn import ParamVector
from .tasks import SCOPE_META_STREAM, rng_for

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


def _value_grad(lossfn, data):
    """p -> (loss, gradient) of lossfn(., data): what the guarded descent steps on."""

    def value_grad(p):
        r = eval_with_gradient(lossfn, p, data)
        return r.value, r.gradient

    return value_grad


def train_conventional(tasks, config, *, datasets, init, lossfn):
    """Train one model per task from init, each on its own dataset, on lossfn.

    This is adaptation from init: maml_adapt of a (T, P) stack tiled from
    init, row t task t's, for config.outer_iters steps at config.eta_inner,
    on a loss that raises where a row is above LOSS_CEILING (the guard's
    check, at the same points).  If the stack raises, every task trains
    alone under the guard, and the first that still diverges is named.
    Returns one ParamVector per task, bit for bit that task trained alone.
    """
    tasks, datasets = tuple(tasks), tuple(datasets)
    if len(tasks) != len(datasets):
        raise ConfigurationError(f"{len(tasks)} tasks but {len(datasets)} datasets")

    def capped(p, data):
        losses = lossfn(p, data)
        if (losses.value > LOSS_CEILING).any():
            raise NumericalError("a task's loss is above the ceiling")
        return losses

    start, data = np.tile(init.values, (len(tasks), 1)), lossfn.stack(datasets)
    try:
        trained = maml_adapt(start, data, config.eta_inner, config.outer_iters, lossfn=capped)
    except NumericalError:
        pass  # every task trains alone below, under the guard, to name the task that diverges
    else:
        return tuple(init.with_values(row) for row in trained)
    return tuple(
        _guarded_descent(
            _value_grad(lossfn, pilots), init, config.eta_inner, config.outer_iters, f"task {task.id}"
        )
        for task, pilots in zip(tasks, datasets)
    )


def train_joint(data, config, *, init, lossfn):
    """Train one shared model on data, many tasks' pooled training data
    (nn.pool_datasets): a guarded descent of lossfn from init for
    config.outer_iters steps at config.eta_inner.  No adaptation happens
    here; this is the common-model baseline."""
    return _guarded_descent(_value_grad(lossfn, data), init, config.eta_inner, config.outer_iters, "joint training")


def maml_adapt(theta, d_tr, eta, m, *, lossfn):
    """m plain SGD steps on lossfn(., d_tr), starting from theta.

    This is the deployment-time procedure; it has no divergence guard and no
    randomness, and NumericalErrors propagate to the caller.
    """
    if m < 0:
        raise ConfigurationError("adaptation step count must be >= 0")
    p = theta
    for _ in range(m):
        r = eval_with_gradient(lossfn, p, d_tr)
        p = sgd_step(p, r.gradient, eta)
    return p


def _meta_grad(theta, d_tr, d_te, config, lossfn):
    """Meta-loss and meta-gradient of one task, or per row of a (K, P) stack."""
    if config.first_order:
        phi = maml_adapt(theta, d_tr, config.eta_inner, config.m, lossfn=lossfn)
        r = eval_with_gradient(lossfn, phi, d_te)
        return r.value, r.gradient
    return unrolled_meta_gradient(lossfn, lossfn, theta, config.eta_inner, config.m, d_tr, d_te)


def _meta_value_grad(theta, meta_batch, config, lossfn):
    """Meta-loss and meta-gradient averaged over the batch's tasks.

    The K tasks run as one (K, P) stack, row k task k.  If it raises, the
    batch reruns as stacks of one row, and the error of the first that
    raises names its task.
    """
    items = meta_batch.items
    flat = theta.values if isinstance(theta, ParamVector) else theta

    def stacked(tasks):
        d_tr = lossfn.stack([item.train for item in tasks])
        d_te = lossfn.stack([item.test for item in tasks])
        return _meta_grad(np.tile(flat, (len(tasks), 1)), d_tr, d_te, config, lossfn)

    def averaged(per_stack):
        losses, grads = zip(*per_stack)
        return float(np.mean(np.concatenate(losses))), np.mean(np.concatenate(grads), axis=0)

    if len(items) > 1:
        try:
            return averaged([stacked(items)])
        except NumericalError:
            pass  # every task reruns alone below, so the error names the first that diverges
    per_task = []
    for item in items:
        try:
            per_task.append(stacked((item,)))
        except NumericalError as err:
            raise NumericalError(f"task {item.task.id}: {err}", op_kind=err.op_kind) from err
    return averaged(per_task)


def meta_train(task_stream, config, *, init, lossfn):
    """Full meta-training loop over a stream of meta-batches, from init.

    task_stream is a callable rng -> MetaBatch; it is drawn once per outer
    iteration from a generator derived from config.seed, so the run is a pure
    function of (stream definition, config, init, lossfn).  lossfn(p_node,
    data) is the per-task loss on both sides of every task split: the
    adaptation steps descend it on the train data, the meta-objective is it
    on the test data.  Each outer update is theta - eta_outer * (mean
    per-task meta-gradient): the exact unrolled meta-gradient, or with
    config.first_order the plain test-loss gradient at the adapted
    parameters.  Returns the learned initialization and the meta-loss
    history [(iteration, loss at the point stepped from), ...].

    lossfn.stack maps a list of T tasks' train (or test) data to one data
    object on which lossfn of a (T, P) stack is the (T,) vector of their
    losses (nn.stack_datasets for the MLP loss, nn.stack_autoencoder_batches
    for the autoencoder's).  Each meta-batch runs as one stack, one graph.
    """
    rng = rng_for(config.seed, SCOPE_META_STREAM)
    theta = init
    history = []
    prev = None
    for it in range(config.outer_iters):
        batch = task_stream(rng)
        theta, loss, grad = _guarded_step(
            lambda q: _meta_value_grad(q, batch, config, lossfn),
            theta, prev, config.eta_outer, "meta-training", it,
        )
        history.append((it, loss))
        prev = (theta, grad)
        theta = sgd_step(theta, grad, config.eta_outer)
    return MetaTrainResult(theta, tuple(history))
