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

The baselines and meta-training run their tasks in one graph per step, on a
task axis (see graph), and each row of a stack computes bit for bit what it
computes alone.  train_conventional is adaptation from a random start: it is
maml_adapt of a (T, P) stack tiled from init, one row per device.
train_joint broadcasts its shared parameters to one row per task and
descends on the mean of the per-task loss vector.  meta_train runs each
meta-batch as stacks of at most max_rows tasks (harness runs a demod batch
as one (K, P) stack and an autoencoder batch, whose task tapes are larger,
as stacks of two): row k of a stacked meta-gradient, exact or first-order,
is task k's.  Deployment stacks too: harness adapts and scores a pilot
count's demod receivers as one stack, and the autoencoder's test channels
in stacks of at most two channels, the cap its meta-training has.

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

from . import graph
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


def train_joint(meta_batch, config, *, init, lossfn):
    """Train one shared model on the pooled training data of all tasks.

    The objective is the mean of the per-task losses, built in one graph per
    step: theta is broadcast to a (T, P) stack with one row per task, and
    the stacked loss gives the (T,) vector of per-task losses.  The rows go
    in reverse task order, so the broadcast's adjoint, which adds the rows
    first to last, sums the per-task gradients latest task first.  No
    adaptation happens here; this is the common-model baseline.
    """
    items = meta_batch.items[::-1]
    n_tasks = len(items)

    def mean_loss(theta, data):
        per_task = lossfn(graph.bcast(theta, (n_tasks, theta.value.shape[0])), data)
        return graph.scale(graph.asum(per_task), 1.0 / n_tasks)

    data = lossfn.stack(item.train for item in items)
    return _guarded_descent(
        _value_grad(mean_loss, data), init, config.eta_inner, config.outer_iters, "joint training"
    )


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


def _meta_value_grad(theta, meta_batch, config, lossfn, max_rows=None):
    """Meta-loss and meta-gradient averaged over the batch's tasks.

    The K tasks run as consecutive stacks of at most max_rows rows (all K at
    once when None), row k task k, and the rows of all stacks are averaged.
    If a stack raises, the batch reruns as stacks of one row, and the error
    of the first that raises names its task.
    """
    items = meta_batch.items
    flat = theta.values if isinstance(theta, ParamVector) else theta
    rows = len(items) if max_rows is None else min(max_rows, len(items))
    while True:
        per_stack = []
        try:
            for lo in range(0, len(items), rows):
                chunk = items[lo:lo + rows]
                d_tr = lossfn.stack([item.train for item in chunk])
                d_te = lossfn.stack([item.test for item in chunk])
                per_stack.append(_meta_grad(np.tile(flat, (len(chunk), 1)), d_tr, d_te, config, lossfn))
        except NumericalError as err:
            if rows > 1:
                rows = 1  # rerun, so that the error names the first task that diverges alone
                continue
            raise NumericalError(f"task {chunk[0].task.id}: {err}", op_kind=err.op_kind) from err
        losses, grads = zip(*per_stack)
        return float(np.mean(np.concatenate(losses))), np.mean(np.concatenate(grads), axis=0)


def meta_train(task_stream, config, *, init, lossfn, max_rows=None):
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
    for the autoencoder's).  Each meta-batch runs as stacks of at most
    max_rows tasks (the whole batch when None), one graph per stack:
    max_rows bounds a stacked tape's memory, and every max_rows gives the
    same result bit for bit.
    """
    if max_rows is not None and max_rows < 1:
        raise ConfigurationError(f"a stack needs at least one row, got max_rows={max_rows}")
    rng = rng_for(config.seed, SCOPE_META_STREAM)
    theta = init
    history = []
    prev = None
    for it in range(config.outer_iters):
        batch = task_stream(rng)
        theta, loss, grad = _guarded_step(
            lambda q: _meta_value_grad(q, batch, config, lossfn, max_rows),
            theta, prev, config.eta_outer, "meta-training", it,
        )
        history.append((it, loss))
        prev = (theta, grad)
        theta = sgd_step(theta, grad, config.eta_outer)
    return MetaTrainResult(theta, tuple(history))
