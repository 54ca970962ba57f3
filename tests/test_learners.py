"""Training-loop tests: the SGD primitive, the three learners, the meta
objective against hand-worked quadratic oracles, and the divergence guard."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metalink import graph, learners
from metalink.autodiff import eval_with_gradient
from metalink.errors import ConfigurationError, NumericalError
from metalink.learners import (
    DEMOD_ARCH,
    MetaTrainResult,
    TrainConfig,
    maml_adapt,
    meta_train,
    sgd_step,
    train_conventional,
    train_joint,
)
from metalink.nn import (
    AutoencoderBatch,
    AutoencoderSpec,
    Dataset,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
    param_count,
)
from metalink.tasks import (
    SCOPE_PILOTS_TRAIN,
    MetaBatch,
    Task,
    TaskFamily,
    TaskSplit,
    autoencoder_stream,
    autoencoder_task_pool,
    demod_task_pool,
    make_pilot_dataset,
    rng_for,
    sample_task,
    subsample_stream,
)


DEMOD_LOSS = make_mlp_lossfn(DEMOD_ARCH)


def _row_sum(x):
    """Sum over the last axis: a scalar for one vector, (T,) for a (T, P) stack."""
    lead = x.value.shape[:-1]
    return graph.reshape(graph.asum(x, lead + (1,)), lead)


def quadratic(p, center):
    """0.5 * sum((p - center)^2): a lossfn whose data is the centre array."""
    d = graph.add(p, graph.const(-center))
    return graph.scale(_row_sum(graph.mul(d, d)), 0.5)


quadratic.stack = np.stack  # meta_train stacks the tasks' centre arrays


def _item(train, test=None, task_id=0):
    """A task split carrying `train` and `test` (default: `train`) as its data."""
    task = Task(task_id, sample_task("demod", np.random.default_rng(0)).realization, "demod")
    return TaskSplit(task, train, train if test is None else test)


# The hand-worked oracle: adapt on 0.5(p-1)^2, evaluate on 0.5(p+1)^2.
# From theta=0 with eta=0.1, one step lands at phi=0.1, the outer loss is
# 0.5*1.1^2 = 0.605, and the chain rule gives (1-0.1)*1.1 = 0.99.
ORACLE_ITEM = _item(np.array([1.0]), np.array([-1.0]))
ORACLE_BATCH = MetaBatch("demod", (ORACLE_ITEM,))


def _loss(lossfn, p, data):
    return eval_with_gradient(lossfn, p, data).value


def _meta_run(batch, cfg, theta, steps=1, lossfn=quadratic):
    """meta_train on a fixed meta-batch: `steps` outer updates from theta."""
    return meta_train(lambda rng: batch, replace(cfg, outer_iters=steps), init=theta, lossfn=lossfn)


def _meta_loss(batch, cfg, theta, lossfn=quadratic):
    """Meta-loss at theta: the history entry of one outer iteration from it."""
    ((_, loss),) = _meta_run(batch, cfg, theta, lossfn=lossfn).history
    return loss


# ---------------------------------------------------------------------------
# sgd_step


def test_sgd_step_arithmetic():
    p = np.array([1.0, 2.0])
    assert np.array_equal(sgd_step(p, np.array([3.0, -4.0]), 0.0), p)
    assert np.array_equal(sgd_step(p, np.array([1.0, -1.0]), 0.5), np.array([0.5, 2.5]))


def test_sgd_step_contracts_quadratic_norm():
    p = np.array([3.0, -4.0, 1.0])
    for _ in range(20):
        nxt = sgd_step(p, p, 0.1)  # gradient of 0.5*||p||^2 is p
        assert abs(np.linalg.norm(nxt) / np.linalg.norm(p) - 0.9) < 1e-12
        p = nxt


def test_sgd_step_preserves_type_and_checks_shape():
    pv = init_params(mlp_arch((2, 3, 2)), 0)
    out = sgd_step(pv, np.zeros(pv.values.shape), 0.1)
    assert out.arch == pv.arch
    assert np.array_equal(out.values, pv.values)
    with pytest.raises(ConfigurationError):
        sgd_step(pv, np.zeros(3), 0.1)
    with pytest.raises(ConfigurationError):
        sgd_step(np.zeros(4), np.zeros(3), 0.1)


def test_train_config_validation():
    assert TrainConfig(eta_inner=0.0).eta_inner == 0.0
    for bad in (
        dict(eta_inner=-0.1),
        dict(eta_outer=0.0),
        dict(m=0),
        dict(outer_iters=-1),
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# conventional training


def test_conventional_zero_iters_returns_init():
    task = sample_task("demod", np.random.default_rng(40))
    init = init_params(DEMOD_ARCH, 7)
    pilots = make_pilot_dataset(task, 8, np.random.default_rng(40))
    (out,) = train_conventional([task], TrainConfig(outer_iters=0), datasets=[pilots], init=init)
    assert np.array_equal(out.values, init.values)


def test_conventional_descends_on_pilots():
    task = sample_task("demod", np.random.default_rng(41))
    cfg = TrainConfig(outer_iters=60, seed=3)
    pilots = make_pilot_dataset(task, 16, rng_for(cfg.seed, SCOPE_PILOTS_TRAIN, task.id))
    init = init_params(DEMOD_ARCH, cfg.seed)
    (trained,) = train_conventional([task], cfg, datasets=[pilots], init=init)
    assert _loss(DEMOD_LOSS, trained, pilots) <= _loss(DEMOD_LOSS, init, pilots)


def test_conventional_solves_separable_toy():
    arch = mlp_arch((2, 8, 2))
    rng = np.random.default_rng(43)
    n = 8
    inputs = np.concatenate(
        [
            np.array([-1.0, 0.0]) + 0.1 * rng.standard_normal((n, 2)),
            np.array([1.0, 0.0]) + 0.1 * rng.standard_normal((n, 2)),
        ]
    )
    targets = np.repeat([0, 1], n)
    data = Dataset(inputs, targets, 2)
    task = sample_task("demod", np.random.default_rng(44))
    cfg = TrainConfig(eta_inner=0.5, outer_iters=150)
    (trained,) = train_conventional([task], cfg, datasets=[data], init=init_params(arch, 0))
    assert _loss(make_mlp_lossfn(arch), trained, data) < 0.05


def test_conventional_rejects_autoencoder_tasks():
    ae = sample_task("autoencoder", np.random.default_rng(45))
    demod = sample_task("demod", np.random.default_rng(45))
    pilots = make_pilot_dataset(demod, 8, np.random.default_rng(45))
    with pytest.raises(ConfigurationError):
        train_conventional([demod, ae], TrainConfig(), datasets=[pilots, pilots], init=init_params(DEMOD_ARCH, 0))


def test_conventional_is_pure():
    task = sample_task("demod", np.random.default_rng(46))
    cfg = TrainConfig(outer_iters=25, seed=2)
    pilots = make_pilot_dataset(task, 8, rng_for(cfg.seed, SCOPE_PILOTS_TRAIN, task.id))
    init = init_params(DEMOD_ARCH, cfg.seed)
    (a,) = train_conventional([task], cfg, datasets=[pilots], init=init)
    (b,) = train_conventional([task], cfg, datasets=[pilots], init=init)
    assert np.array_equal(a.values, b.values)


def _devices(n_devices, n_pilots, seed):
    family = TaskFamily()
    tasks = [family.sample(np.random.default_rng([seed, d]), task_id=10 + d) for d in range(n_devices)]
    pilots = [make_pilot_dataset(t, n_pilots, np.random.default_rng([seed, d, 1])) for d, t in enumerate(tasks)]
    return tasks, pilots


@pytest.mark.parametrize("n_pilots", [1, 8])
def test_conventional_stack_equals_stacks_of_one(n_pilots):
    tasks, pilots = _devices(5, n_pilots, 57)
    cfg = TrainConfig(outer_iters=12, seed=8)
    init = init_params(DEMOD_ARCH, 8)
    stacked = train_conventional(tasks, cfg, datasets=pilots, init=init)
    assert len(stacked) == len(tasks)
    for task, data, got in zip(tasks, pilots, stacked, strict=True):
        (alone,) = train_conventional([task], cfg, datasets=[data], init=init)
        assert got.arch == DEMOD_ARCH
        assert np.array_equal(got.values, alone.values)


@pytest.mark.parametrize("huge", [[1], [1, 2]])
def test_conventional_divergence_names_the_device_in_a_stack(huge):
    # First-layer weights of 1e9 saturate tanh on ordinary pilots, but inputs
    # of 1e300 overflow in that layer's affine op.  The stacked step raises, the
    # stack's tasks train alone, and the error names the first diverging
    # device's task and carries the failing op.
    tasks, pilots = _devices(4, 4, 58)
    for d in huge:
        pilots[d] = Dataset(np.full_like(pilots[d].inputs, 1e300), pilots[d].targets, 16)
    init = init_params(DEMOD_ARCH, 9)
    init = init.with_values(np.concatenate([1e9 * init.values[:64], init.values[64:]]))
    cfg = TrainConfig(outer_iters=3, seed=9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=f"^task {tasks[huge[0]].id}: ") as exc:
            train_conventional(tasks, cfg, datasets=pilots, init=init)
    assert exc.value.op_kind == "affine"
    assert "'affine'" in str(exc.value)
    assert isinstance(exc.value.__cause__, NumericalError)


def _count_retries(monkeypatch):
    """Count value_grad calls beyond the planned steps of every guarded descent."""
    retries = []
    orig = learners._guarded_descent

    def counting(value_grad, p, eta, n_iters, what):
        calls = [0]

        def counted(params):
            calls[0] += 1
            return value_grad(params)

        try:
            return orig(counted, p, eta, n_iters, what)
        finally:
            retries.append(max(calls[0] - n_iters, 0))

    monkeypatch.setattr(learners, "_guarded_descent", counting)
    return retries


def test_conventional_guard_retries_only_the_diverging_device(monkeypatch):
    # At this rate device 0's loss passes the ceiling at iteration 2 and its
    # half-step retry succeeds; devices 1 and 2 never diverge.  The stack
    # raises there, every device trains alone, device 0 with exactly one
    # retry, and each ends as trained alone.
    tasks, pilots = _devices(3, 4, 59)
    cfg = TrainConfig(eta_inner=1.47e5, outer_iters=3, seed=10)
    init = init_params(DEMOD_ARCH, 10)
    retries = _count_retries(monkeypatch)
    stacked = train_conventional(tasks, cfg, datasets=pilots, init=init)
    assert sum(retries) == 1
    for task, data, got in zip(tasks, pilots, stacked, strict=True):
        (alone,) = train_conventional([task], cfg, datasets=[data], init=init)
        assert np.array_equal(got.values, alone.values)


def _saturated_init():
    """DEMOD_ARCH weights whose first layer, at 1e9 times Glorot, saturates
    tanh on ordinary pilots and overflows its affine op on inputs of 1e300."""
    init = init_params(DEMOD_ARCH, 9)
    return init.with_values(np.concatenate([1e9 * init.values[:64], init.values[64:]]))


def _device_pilots(kind, task, d):
    pilots = make_pilot_dataset(task, 4, np.random.default_rng([61, d, 1]))
    if kind == "calm":  # one label at the origin: the first step fits it, and training stops moving
        return Dataset(np.zeros_like(pilots.inputs), np.full_like(pilots.targets, pilots.targets[0]), 16)
    if kind == "overflow":  # the first layer's affine op raises at the initial point
        return Dataset(np.full_like(pilots.inputs, 1e300), pilots.targets, 16)
    # at rate 4e5 its loss passes the ceiling at iteration 1 or 2 and the
    # half-step retry succeeds or fails by device; at 1e7 the retry fails
    return pilots


@given(kinds=st.lists(st.sampled_from(["calm", "breach", "overflow"]), min_size=1, max_size=5),
       eta=st.sampled_from([4e5, 1e7]))
@example(kinds=["calm", "breach", "overflow"], eta=1e7)
@example(kinds=["calm", "breach", "breach", "calm"], eta=4e5)
@example(kinds=["overflow", "calm"], eta=4e5)
@settings(max_examples=30, deadline=None)
def test_conventional_equals_each_device_under_its_own_guard(kinds, eta):
    # The reference trains each device alone, on 1-d parameters, under the
    # guard; the stack must give its results, or its first device's error.
    family = TaskFamily()
    tasks = [family.sample(np.random.default_rng([61, d]), task_id=20 + d) for d in range(len(kinds))]
    pilots = [_device_pilots(kind, task, d) for d, (kind, task) in enumerate(zip(kinds, tasks))]
    init = _saturated_init()
    cfg = TrainConfig(eta_inner=eta, outer_iters=3)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = []
        for task, data in zip(tasks, pilots):

            def value_grad(p, data=data):
                r = eval_with_gradient(DEMOD_LOSS, p, data)
                return r.value, r.gradient

            try:
                reference.append(learners._guarded_descent(value_grad, init.values, eta, 3, f"task {task.id}"))
            except NumericalError as err:
                first_error = err
                break
        else:
            first_error = None
        if first_error is None:
            stacked = train_conventional(tasks, cfg, datasets=pilots, init=init)
            for got, want in zip(stacked, reference, strict=True):
                assert np.array_equal(got.values, want)
        else:
            with pytest.raises(NumericalError) as exc:
                train_conventional(tasks, cfg, datasets=pilots, init=init)
            assert str(exc.value) == str(first_error)
            assert exc.value.op_kind == first_error.op_kind


@pytest.mark.parametrize("kinds, calls", [(["calm", "calm", "calm"], 0), (["calm", "breach", "calm"], 3)])
def test_conventional_reruns_every_device_under_the_guard_only_when_the_stack_diverges(monkeypatch, kinds, calls):
    tasks, _ = _devices(len(kinds), 4, 61)
    pilots = [_device_pilots(kind, task, d) for d, (kind, task) in enumerate(zip(kinds, tasks))]
    retries = _count_retries(monkeypatch)
    # at rate 4e5 device 1's half-step retry succeeds, so every device is trained
    train_conventional(tasks, TrainConfig(eta_inner=4e5, outer_iters=3), datasets=pilots, init=_saturated_init())
    assert len(retries) == calls


# ---------------------------------------------------------------------------
# joint training


def test_joint_single_task_matches_conventional_bitwise():
    pool = demod_task_pool(TaskFamily(), 1, 8, 8, seed=47)
    cfg = TrainConfig(outer_iters=30, seed=4)
    init = init_params(DEMOD_ARCH, 4)
    joint = train_joint(pool, cfg, init=init)
    (conv,) = train_conventional([pool.items[0].task], cfg, datasets=[pool.items[0].train], init=init)
    assert np.array_equal(joint.values, conv.values)


def test_joint_matches_per_task_reference_bitwise():
    # the reference: one loss branch per task on a shared theta, added up
    # in task order and scaled by 1/k, stepped by hand
    pool = demod_task_pool(TaskFamily(), 12, 8, 8, seed=60)
    cfg = TrainConfig(outer_iters=6, seed=11)
    init = init_params(DEMOD_ARCH, 11)
    lossfn = make_mlp_lossfn(DEMOD_ARCH)
    p = init.values
    for _ in range(cfg.outer_iters):
        theta = graph.inp(p)
        branches = [lossfn(theta, item.train) for item in pool.items]
        total = branches[0]
        for branch in branches[1:]:
            total = graph.add(total, branch)
        (g,) = graph.gradients(graph.scale(total, 1.0 / len(branches)), [theta])
        p = p - cfg.eta_inner * g.value
    assert np.array_equal(train_joint(pool, cfg, init=init).values, p)


@pytest.mark.parametrize("copies", [2, 4])
def test_joint_duplicate_tasks_change_nothing(copies):
    pool = demod_task_pool(TaskFamily(), 1, 8, 8, seed=48)
    dup = MetaBatch("demod", pool.items * copies)
    cfg = TrainConfig(outer_iters=20, seed=5)
    init = init_params(DEMOD_ARCH, 5)
    assert np.array_equal(
        train_joint(pool, cfg, init=init).values, train_joint(dup, cfg, init=init).values
    )


def test_joint_divergence_at_the_initial_point_names_the_op():
    # pilots of 1e300 overflow in the first layer's affine op of the stacked
    # step, under first-layer weights of 1e9 as in the conventional test
    pool = demod_task_pool(TaskFamily(), 3, 4, 4, seed=61)
    items = list(pool.items)
    bad = items[1].train
    items[1] = replace(items[1], train=Dataset(np.full_like(bad.inputs, 1e300), bad.targets, 16))
    init = init_params(DEMOD_ARCH, 12)
    init = init.with_values(np.concatenate([1e9 * init.values[:64], init.values[64:]]))
    cfg = TrainConfig(outer_iters=3, seed=12)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="^joint training: loss diverged at the initial point: ") as exc:
            train_joint(MetaBatch("demod", tuple(items)), cfg, init=init)
    assert exc.value.op_kind == "affine"
    assert isinstance(exc.value.__cause__, NumericalError)


def test_joint_rejects_autoencoder_tasks():
    tasks = autoencoder_task_pool(TaskFamily(kind="autoencoder", snr_db=10.0), 2, seed=62)
    batch = autoencoder_stream(tasks, AutoencoderSpec(), k=2, n_blocks=4)(np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="demodulator"):
        train_joint(batch, TrainConfig(), init=init_params(DEMOD_ARCH, 0))


# ---------------------------------------------------------------------------
# adaptation and the meta objective


def test_adapt_single_step_on_quadratic():
    phi = maml_adapt(np.array([0.0]), np.array([1.0]), 0.1, 1, lossfn=quadratic)
    assert abs(phi[0] - 0.1) < 1e-15


def test_adapt_zero_rate_is_identity():
    theta = init_params(DEMOD_ARCH, 9)
    pool = demod_task_pool(TaskFamily(), 1, 8, 8, seed=49)
    phi = maml_adapt(theta, pool.items[0].train, 0.0, 3, lossfn=DEMOD_LOSS)
    assert np.array_equal(phi.values, theta.values)


def test_adapt_two_steps_compose():
    theta = init_params(DEMOD_ARCH, 10)
    pool = demod_task_pool(TaskFamily(), 1, 8, 8, seed=50)
    data = pool.items[0].train

    def adapt(p, m):
        return maml_adapt(p, data, 0.1, m, lossfn=DEMOD_LOSS)

    assert np.array_equal(adapt(theta, 2).values, adapt(adapt(theta, 1), 1).values)
    assert adapt(theta, 0) is theta
    with pytest.raises(ConfigurationError):
        adapt(theta, -1)


def test_meta_loss_oracle_value():
    cfg = TrainConfig(eta_inner=0.1, m=1)
    assert abs(_meta_loss(ORACLE_BATCH, cfg, np.array([0.0])) - 0.605) < 1e-12


def test_meta_loss_zero_rate_is_test_loss_at_theta():
    cfg = TrainConfig(eta_inner=0.0, m=1)
    theta = np.array([0.0])
    got = _meta_loss(ORACLE_BATCH, cfg, theta)
    want = _loss(quadratic, theta, ORACLE_ITEM.test)
    assert got == want


def test_meta_loss_duplicate_invariance():
    cfg = TrainConfig(eta_inner=0.1, m=1)
    dup = MetaBatch("demod", ORACLE_BATCH.items * 3)
    assert _meta_loss(dup, cfg, np.array([0.0])) == _meta_loss(ORACLE_BATCH, cfg, np.array([0.0]))


def test_meta_step_oracle_update():
    cfg = TrainConfig(eta_inner=0.1, eta_outer=1.0, m=1)
    theta = _meta_run(ORACLE_BATCH, cfg, np.array([0.0])).params
    assert abs(theta[0] - (-0.99)) < 1e-12


def test_meta_step_first_order_equals_full_at_zero_rate():
    pool = demod_task_pool(TaskFamily(), 4, 4, 8, seed=51)
    theta = init_params(DEMOD_ARCH, 12)
    full = _meta_run(pool, TrainConfig(eta_inner=0.0), theta, lossfn=DEMOD_LOSS).params
    fo = _meta_run(pool, TrainConfig(eta_inner=0.0, first_order=True), theta, lossfn=DEMOD_LOSS).params
    assert np.array_equal(full.values, fo.values)
    # and at a nonzero rate the curvature term must show up
    full = _meta_run(pool, TrainConfig(eta_inner=0.1), theta, lossfn=DEMOD_LOSS).params
    fo = _meta_run(pool, TrainConfig(eta_inner=0.1, first_order=True), theta, lossfn=DEMOD_LOSS).params
    assert not np.array_equal(full.values, fo.values)


def test_meta_step_descends_on_fixed_demod_batch():
    # history[100] is the meta-loss after 100 outer updates on the same batch
    pool = demod_task_pool(TaskFamily(), 10, 4, 16, seed=52)
    cfg = TrainConfig(eta_inner=0.1, eta_outer=0.3, m=1)
    history = dict(_meta_run(pool, cfg, init_params(DEMOD_ARCH, 13), steps=101, lossfn=DEMOD_LOSS).history)
    assert history[100] < history[0]


def test_meta_step_reports_failing_task():
    # The guard's error names the task, keeps the failing op and chains the
    # engine's error as its cause.
    def explode(p, _data):
        big = graph.scale(p, 1e200)
        return _row_sum(graph.mul(big, big))

    explode.stack = np.stack
    item = _item(None, task_id=3)
    cfg = TrainConfig(eta_inner=0.1)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="task 3") as exc:
        _meta_run(MetaBatch("demod", (item,)), cfg, np.array([2.0]), lossfn=explode)
    assert "meta-training: loss diverged at the initial point" in str(exc.value)
    assert "'mul'" in str(exc.value)
    assert exc.value.op_kind == "mul"
    assert isinstance(exc.value.__cause__, NumericalError)
    assert exc.value.__cause__.op_kind == "mul"


# ---------------------------------------------------------------------------
# the stacked meta-batch


_SMALL_AE = AutoencoderSpec(n_messages=4, n_uses=2, enc_hidden=(5,), dec_hidden=(5,))


def _meta_instances(k, seed):
    """(meta-batch of k tasks, lossfn, theta) for a demod MLP and for a small
    autoencoder."""
    arch = mlp_arch((2, 8, 16))
    demod_pool = demod_task_pool(TaskFamily(), k, 4, 8, seed=seed)
    ae_stream = autoencoder_stream(autoencoder_task_pool(TaskFamily(kind="autoencoder"), k, seed=seed), _SMALL_AE, k, 6)
    return (
        (demod_pool, make_mlp_lossfn(arch), init_params(arch, seed)),
        (
            ae_stream(np.random.default_rng(seed)),
            make_autoencoder_lossfn(_SMALL_AE),
            init_autoencoder_params(_SMALL_AE, seed),
        ),
    )


@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.booleans(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
@example(5, 1, 2, False, 0)  # stacks of 2, 2 and 1
@example(5, 2, 2, True, 1)
def test_stacked_meta_gradient_rows_equal_the_per_task_loop(k, m, max_rows, first_order, seed):
    cfg = TrainConfig(eta_inner=0.3, m=m, first_order=first_order)
    for batch, lossfn, theta in _meta_instances(k, seed):
        losses, grads = learners._meta_grad(
            np.tile(theta.values, (k, 1)),
            lossfn.stack([item.train for item in batch.items]),
            lossfn.stack([item.test for item in batch.items]),
            cfg,
            lossfn,
        )
        assert losses.shape == (k,) and grads.shape == (k, len(theta))
        alone = []  # each task's meta-loss and meta-gradient on the flat vector
        for row, item in enumerate(batch.items):
            loss, grad = learners._meta_grad(theta.values, item.train, item.test, cfg, lossfn)
            assert losses[row] == loss
            assert np.array_equal(grads[row], grad)
            alone.append((loss, grad))
        want_loss, want_grad = float(np.mean([loss for loss, _ in alone])), np.mean([g for _, g in alone], axis=0)
        # one stack of all k, stacks of at most max_rows, and stacks of one
        for rows in (None, max_rows, 1):
            got_loss, got_grad = learners._meta_value_grad(theta, batch, cfg, lossfn, rows)
            assert got_loss == want_loss
            assert np.array_equal(got_grad, want_grad)


@pytest.mark.parametrize("first_order", [False, True])
def test_meta_train_on_stacks_equals_the_per_task_loop(first_order):
    # stacks of one row are the per-task reference: each row is bit for bit its task alone
    pool = demod_task_pool(TaskFamily(), 12, 4, 16, seed=62)
    cfg = TrainConfig(m=2, outer_iters=4, first_order=first_order, seed=3)
    init = init_params(DEMOD_ARCH, 14)
    one, two, whole = (
        meta_train(subsample_stream(pool, 5), cfg, init=init, lossfn=DEMOD_LOSS, max_rows=rows) for rows in (1, 2, None)
    )
    for stacked in (two, whole):
        assert np.array_equal(stacked.params.values, one.params.values)
        assert stacked.history == one.history
    # the autoencoder profile's spec, K = 5 tasks as stacks of 1, of 2, 2 and 1, and of 5
    spec = AutoencoderSpec()
    stream = autoencoder_stream(autoencoder_task_pool(TaskFamily(kind="autoencoder"), 8, seed=63), spec, 5, 16)
    cfg = replace(cfg, eta_inner=0.05, eta_outer=0.05, outer_iters=3)
    init, lossfn = init_autoencoder_params(spec, 15), make_autoencoder_lossfn(spec)
    one, two, whole = (meta_train(stream, cfg, init=init, lossfn=lossfn, max_rows=rows) for rows in (1, 2, None))
    for stacked in (two, whole):
        assert np.array_equal(stacked.params.values, one.params.values)
        assert stacked.history == one.history


def _spy_on_parameter_shapes(monkeypatch):
    """The parameter shape of each autodiff call that learners makes, in order."""
    shapes = []
    for name, index in (("unrolled_meta_gradient", 2), ("eval_with_gradient", 1)):
        def spy(*args, orig=getattr(learners, name), index=index):
            shapes.append(np.shape(getattr(args[index], "values", args[index])))
            return orig(*args)

        monkeypatch.setattr(learners, name, spy)
    return shapes


@pytest.mark.parametrize("first_order", [False, True])
def test_stacked_meta_batch_names_the_task_that_diverges(first_order, monkeypatch):
    # Task 2's pilots are scaled to 1e200: its relu net survives the first
    # inner step, but the step's size overflows the next forward.  The stack
    # raises, and the rerun as stacks of one names task 2 and the failing op.
    pool = demod_task_pool(TaskFamily(), 4, 4, 8, seed=61)
    items = list(pool.items)

    def huge(d):
        return Dataset(d.inputs * 1e200, d.targets, d.n_classes)

    items[2] = TaskSplit(items[2].task, huge(items[2].train), huge(items[2].test))
    arch = mlp_arch((2, 8, 16), hidden="relu")
    shapes = _spy_on_parameter_shapes(monkeypatch)
    cfg = TrainConfig(m=2, outer_iters=1, first_order=first_order)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=f"task {items[2].task.id}: ") as exc:
        meta_train(
            lambda rng: MetaBatch("demod", tuple(items)), cfg,
            init=init_params(arch, 1), lossfn=make_mlp_lossfn(arch),
        )
    assert "'affine'" in str(exc.value)
    assert exc.value.op_kind == "affine"
    assert shapes[0] == (4, param_count(arch))  # the stack ran first
    assert (1, param_count(arch)) in shapes  # then the tasks as stacks of one


@pytest.mark.parametrize("first_order", [False, True])
def test_stacked_autoencoder_meta_batch_names_the_task_that_diverges(first_order, monkeypatch):
    # Task 3's noise is 1e308 in every entry, so the decoder's first layer
    # overflows.  Tasks 0 and 1 run as the first stack, which succeeds; the
    # second stack (tasks 2 and 3) raises, and the rerun as stacks of one
    # names task 3.
    spec = AutoencoderSpec()
    stream = autoencoder_stream(autoencoder_task_pool(TaskFamily(kind="autoencoder"), 4, seed=3), spec, 4, 8)
    items = list(stream(np.random.default_rng(1)).items)

    def huge(b):
        return AutoencoderBatch(b.messages, np.full_like(b.noise, 1e308), b.channel_matrix, b.spec)

    items[3] = TaskSplit(items[3].task, huge(items[3].train), huge(items[3].test))
    shapes = _spy_on_parameter_shapes(monkeypatch)
    cfg = TrainConfig(eta_inner=0.05, m=1, outer_iters=1, first_order=first_order)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=f"task {items[3].task.id}: ") as exc:
        meta_train(
            lambda rng: MetaBatch("autoencoder", tuple(items)), cfg, init=init_autoencoder_params(spec, 1),
            lossfn=make_autoencoder_lossfn(spec), max_rows=2,
        )
    assert "'affine'" in str(exc.value)
    assert exc.value.op_kind == "affine"
    stack, alone = (2, param_count(spec.arch)), (1, param_count(spec.arch))
    # both stacks ran first, the second raising in its first call; then each
    # task as a stack of one up to task 3, which raises in its first call too
    calls_per_task = 2 if first_order else 1  # first order: the inner step, then the test gradient
    assert shapes == [stack] * (calls_per_task + 1) + [alone] * (3 * calls_per_task + 1)


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("max_rows", [1, 3, None])
def test_a_diverging_stack_reruns_once_as_stacks_of_one(max_rows, first_order, monkeypatch):
    # Task 2's pilots of 1e300 overflow the first layer's affine op, under
    # first-layer weights of 1e9, in the first autodiff call that reaches
    # them.  Stacks of one name it there, with no rerun; a larger stack
    # raises, and the batch reruns once as stacks of one, up to task 2.
    pool = demod_task_pool(TaskFamily(), 4, 4, 8, seed=64)
    items = list(pool.items)
    bad = items[2].train
    items[2] = replace(items[2], train=Dataset(np.full_like(bad.inputs, 1e300), bad.targets, 16))
    shapes = _spy_on_parameter_shapes(monkeypatch)
    cfg = TrainConfig(m=1, outer_iters=1, first_order=first_order)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=f"task {items[2].task.id}: ") as exc:
            meta_train(
                lambda rng: MetaBatch("demod", tuple(items)), cfg,
                init=_saturated_init(), lossfn=DEMOD_LOSS, max_rows=max_rows,
            )
    assert exc.value.op_kind == "affine"
    n_params = param_count(DEMOD_ARCH)
    calls_per_task = 2 if first_order else 1  # first order: the inner step, then the test gradient
    alone = [(1, n_params)] * (2 * calls_per_task + 1)  # tasks 0 and 1, then task 2's first call
    first_pass = [] if max_rows == 1 else [(max_rows or len(items), n_params)]
    assert shapes == first_pass + alone


def test_meta_train_rejects_a_stack_without_rows():
    pool = demod_task_pool(TaskFamily(), 3, 4, 8, seed=53)
    with pytest.raises(ConfigurationError, match="at least one row"):
        meta_train(
            subsample_stream(pool, 2), TrainConfig(outer_iters=1), init=init_params(DEMOD_ARCH, 1),
            lossfn=DEMOD_LOSS, max_rows=0,
        )


# ---------------------------------------------------------------------------
# meta_train


def test_meta_train_zero_iters_returns_init():
    pool = demod_task_pool(TaskFamily(), 3, 4, 8, seed=53)
    init = init_params(DEMOD_ARCH, 14)
    result = meta_train(subsample_stream(pool, 2), TrainConfig(outer_iters=0), init=init, lossfn=DEMOD_LOSS)
    assert isinstance(result, MetaTrainResult)
    assert np.array_equal(result.params.values, init.values)
    assert result.history == ()


def test_meta_train_deterministic():
    pool = demod_task_pool(TaskFamily(), 6, 4, 8, seed=54)
    cfg = TrainConfig(outer_iters=20, seed=6)
    init = init_params(DEMOD_ARCH, 6)
    a = meta_train(subsample_stream(pool, 4), cfg, init=init, lossfn=DEMOD_LOSS)
    b = meta_train(subsample_stream(pool, 4), cfg, init=init, lossfn=DEMOD_LOSS)
    assert np.array_equal(a.params.values, b.params.values)
    assert a.history == b.history
    assert a.params.arch == DEMOD_ARCH
    assert [it for it, _ in a.history] == list(range(20))


def test_meta_train_improves_meta_loss():
    pool = demod_task_pool(TaskFamily(), 8, 4, 16, seed=55)
    cfg = TrainConfig(outer_iters=150, seed=7)
    init = init_params(DEMOD_ARCH, 7)
    result = meta_train(subsample_stream(pool, 4), cfg, init=init, lossfn=DEMOD_LOSS)
    eval_cfg = TrainConfig(eta_inner=0.1, m=1)
    assert _meta_loss(pool, eval_cfg, result.params, DEMOD_LOSS) < _meta_loss(pool, eval_cfg, init, DEMOD_LOSS)


def test_meta_train_demod_profile_loss_drops_by_iteration_500():
    # Desk-scale check on the real task distribution: median over 5 seeds of
    # the training meta-loss, iteration 500 against iteration 0.
    first, late = [], []
    for seed in range(5):
        pool = demod_task_pool(TaskFamily(), 100, 4, 64, seed=seed)
        cfg = TrainConfig(
            eta_inner=0.1, eta_outer=0.3, m=1, outer_iters=501, seed=seed
        )
        init = init_params(DEMOD_ARCH, seed)
        history = dict(meta_train(subsample_stream(pool, 10), cfg, init=init, lossfn=DEMOD_LOSS).history)
        first.append(history[0])
        late.append(history[500])
    assert np.median(late) < np.median(first)


def test_meta_train_runs_on_autoencoder_stream():
    tasks = autoencoder_task_pool(TaskFamily(kind="autoencoder", snr_db=10.0), 2, seed=56)
    spec = AutoencoderSpec()
    stream = autoencoder_stream(tasks, spec, k=2, n_blocks=8)
    cfg = TrainConfig(eta_inner=0.05, eta_outer=0.05, outer_iters=5)
    result = meta_train(stream, cfg, init=init_autoencoder_params(spec, 0), lossfn=make_autoencoder_lossfn(spec))
    assert result.params.arch == spec.arch
    assert result.params.values.shape == (param_count(spec.arch),)
    assert len(result.history) == 5


# ---------------------------------------------------------------------------
# divergence guard


def _steep(scale):
    """p -> scale * sum(p^2), gradient 2*scale*p; eta*2*scale = 30 diverges."""

    def lossfn(p, _data):
        return graph.scale(_row_sum(graph.mul(p, p)), scale)

    lossfn.stack = np.stack
    return lossfn


def _descend(lossfn, init, eta, n_iters):
    """The baselines' guarded SGD on lossfn, named as joint training names it."""

    def value_grad(p):
        r = eval_with_gradient(lossfn, p)
        return r.value, r.gradient

    return learners._guarded_descent(value_grad, init, eta, n_iters, "joint training")


def test_guard_initial_point_divergence():
    with pytest.raises(NumericalError, match="^joint training: loss diverged at the initial point"):
        _descend(_steep(15000.0), np.array([1000.0]), 0.001, 1)


def test_guard_half_step_retry_failure():
    # eta * curvature = 30, so step 1 lands at -29 (loss 1.26e7) and the
    # half-step retry at -14 still sits above the ceiling (2.94e6).
    with pytest.raises(NumericalError, match="^joint training: diverged at iteration 1; half-step retry failed"):
        _descend(_steep(15000.0), np.array([1.0]), 0.001, 2)


def test_guard_half_step_retry_success():
    # Same dynamics a decade lower: the retry point -14 has loss 2.94e5,
    # under the ceiling, so training resumes at full rate and ends at 406.
    out = _descend(_steep(1500.0), np.array([1.0]), 0.01, 2)
    assert out[0] == 406.0


def test_adapt_has_no_guard():
    # A huge-but-finite loss is the guard's business and adaptation has none:
    # it happily returns the exploded parameters.
    phi = maml_adapt(np.array([1000.0]), None, 0.001, 1, lossfn=_steep(15000.0))
    assert phi[0] == -29000.0
    # real numerical failure still surfaces
    def explode(p, _data):
        return graph.asum(graph.mul(p, p))

    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        maml_adapt(np.array([1e200]), None, 0.1, 1, lossfn=explode)


STEEP_BATCH = MetaBatch("demod", (_item(None),))


def test_meta_train_guard_initial_point():
    cfg = TrainConfig(eta_inner=0.001, outer_iters=1)
    with pytest.raises(NumericalError, match="meta-training"):
        meta_train(lambda rng: STEEP_BATCH, cfg, init=np.array([1000.0]), lossfn=_steep(15000.0))


def test_meta_train_guard_half_step_retry_success():
    # eta_inner = 0 makes the meta-loss the plain loss, so the dynamics are
    # those of test_guard_half_step_retry_success; the history keeps the
    # retry point's loss (2.94e5 at -14) for the retried iteration.
    cfg = TrainConfig(eta_inner=0.0, eta_outer=0.01, outer_iters=2)
    out = meta_train(lambda rng: STEEP_BATCH, cfg, init=np.array([1.0]), lossfn=_steep(1500.0))
    assert np.array_equal(out.params, [406.0])
    assert out.history == ((0, 1500.0), (1, 294000.0))


def test_meta_train_guard_half_step_retry_failure():
    cfg = TrainConfig(eta_inner=0.0, eta_outer=0.001, outer_iters=2)
    with pytest.raises(NumericalError, match="meta-training") as exc:
        meta_train(lambda rng: STEEP_BATCH, cfg, init=np.array([1.0]), lossfn=_steep(15000.0))
    assert "half-step retry failed" in str(exc.value)
