"""Network tests: parameter layout, the graph forward against plain numpy
references, losses, and the autoencoder building blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from metalink import graph
from metalink.autodiff import eval_with_gradient
from metalink.checks import fd_gradient, relative_error
from metalink.errors import ConfigurationError, NumericalError
from metalink.learners import sgd_step
from metalink.nn import (
    AutoencoderBatch,
    AutoencoderSpec,
    Dataset,
    ParamVector,
    autoencoder_logits_node,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
    mlp_logits_node,
    param_count,
    pool_datasets,
    power_normalize_node,
    stack_autoencoder_batches,
    stack_datasets,
)
from metalink.channel import BLOCK_TAPS, ChannelRealization, apply_channel_block
from metalink.tasks import Task, TaskFamily, generate_autoencoder_batch


def test_mlp_arch_layout():
    arch = mlp_arch((2, 32, 32, 16))
    assert arch == ((2, 32, "tanh"), (32, 32, "tanh"), (32, 16, "linear"))
    assert mlp_arch((3, 5)) == ((3, 5, "linear"),)
    with pytest.raises(ConfigurationError):
        mlp_arch((4,))
    with pytest.raises(ConfigurationError, match="unknown activation 'relu'"):
        init_params(((2, 3, "relu"), (3, 2, "linear")), 0)


def test_param_count_example():
    assert param_count(((2, 4, "tanh"), (4, 16, "linear"))) == 2 * 4 + 4 + 4 * 16 + 16 == 92


def test_init_params_deterministic_and_bounded():
    arch = mlp_arch((2, 8, 4))
    a = init_params(arch, 5)
    b = init_params(arch, 5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init_params(arch, 6).values)

    offset = 0
    for fan_in, fan_out, _ in arch:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = a.values[offset:offset + fan_in * fan_out]
        offset += fan_in * fan_out
        b_chunk = a.values[offset:offset + fan_out]
        offset += fan_out
        assert np.abs(w).max() <= limit
        assert np.array_equal(b_chunk, np.zeros(fan_out))


def test_init_params_weight_mean_is_centered():
    # 1e5 weight draws; the sample mean of uniform(-l, l) has std l/sqrt(3N).
    arch = ((100, 100, "linear"),)
    limit = math.sqrt(6.0 / 200)
    means = [init_params(arch, seed).values[:10000].mean() for seed in range(10)]
    pooled = float(np.mean(means))
    sigma = limit / math.sqrt(3.0 * 10 * 10000)
    assert abs(pooled) < 3.0 * sigma


def test_param_vector_is_immutable_and_validated():
    arch = mlp_arch((2, 3))
    p = init_params(arch, 0)
    with pytest.raises(ValueError):
        p.values[0] = 1.0
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros(5), arch)  # needs 2*3+3 = 9
    q = p.with_values(np.arange(9.0))
    assert q.arch == p.arch
    assert np.array_equal(q.values, np.arange(9.0))


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros(3), np.zeros(3, dtype=int), 2)  # inputs not 2-d
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)  # length mismatch
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)  # target out of range
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 4)
    assert len(empty) == 0


def test_pool_datasets_concatenates_rows_in_order():
    a = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]), 4)
    b = Dataset(-np.arange(6.0).reshape(3, 2), np.array([3, 3, 1]), 4)
    pooled = pool_datasets(iter([a, b]))
    assert np.array_equal(pooled.inputs, np.concatenate([a.inputs, b.inputs]))
    assert np.array_equal(pooled.targets, [0, 1, 2, 3, 3, 1])
    assert pooled.n_classes == 4 and len(pooled) == 6


def _zeros(n, d=2, n_classes=4):
    return Dataset(np.zeros((n, d)), np.zeros(n, dtype=int), n_classes)


@pytest.mark.parametrize(
    "datasets",
    [[], [_zeros(2), _zeros(2, d=3)], [_zeros(2), _zeros(2, n_classes=5)], [_zeros(2), _zeros(3)], [stack_datasets([_zeros(2)] * 2)]],
    ids=["none", "widths", "class-counts", "lengths", "stacked"],
)
def test_pool_datasets_rejects_datasets_of_different_shapes(datasets):
    with pytest.raises(ConfigurationError, match=r"^a stack needs \(n, d\) datasets of one shape and class count, got "):
        pool_datasets(datasets)


def test_zero_parameters_give_uniform_softmax():
    arch = mlp_arch((2, 8, 4))
    p = ParamVector(np.zeros(param_count(arch)), arch)
    logits = mlp_logits_node(graph.const(p.values), arch, np.array([[0.3, -0.7], [2.0, 1.0]])).value
    assert np.array_equal(logits, np.zeros((2, 4)))
    assert np.allclose(graph.softmax_rows(graph.const(logits)).value, 0.25, atol=1e-15)


def test_single_identity_layer_reproduces_input():
    arch = ((2, 2, "linear"),)
    p = ParamVector(np.concatenate([np.eye(2).ravel(), np.zeros(2)]), arch)
    x = np.array([[1.5, -0.25], [0.0, 3.0]])
    assert np.array_equal(mlp_logits_node(graph.const(p.values), arch, x).value, x)


def test_two_two_two_network_against_hand_computation():
    # W1 = [[1, -1], [2, 0.5]], b1 = (0.1, -0.2), tanh hidden,
    # W2 = [[1, 2], [3, 4]], b2 = (0.5, -0.5), linear out.
    arch = ((2, 2, "tanh"), (2, 2, "linear"))
    values = np.array([1.0, -1.0, 2.0, 0.5, 0.1, -0.2, 1.0, 2.0, 3.0, 4.0, 0.5, -0.5])
    p = ParamVector(values, arch)
    x1, x2 = 0.3, -0.6
    h1 = math.tanh(x1 * 1.0 + x2 * 2.0 + 0.1)
    h2 = math.tanh(x1 * -1.0 + x2 * 0.5 - 0.2)
    want = np.array([h1 * 1.0 + h2 * 3.0 + 0.5, h1 * 2.0 + h2 * 4.0 - 0.5])
    (got,) = mlp_logits_node(graph.const(p.values), arch, np.array([[x1, x2]])).value
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def _numpy_mlp(values, arch, h):
    """Plain numpy reference: the graph's ops in the same order, so equal bit for bit."""
    offset = 0
    for fan_in, fan_out, act in arch:
        w = values[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        h = h @ w + values[offset:offset + fan_out]
        offset += fan_out
        h = {"tanh": np.tanh, "linear": lambda z: z}[act](h)
    return h


@pytest.mark.parametrize("hidden", ["tanh", "linear"])
def test_numpy_forward_equals_graph_forward(hidden):
    rng = np.random.default_rng(21)
    arch = ((3, 7, hidden), (7, 5, "linear"))
    p = init_params(arch, 21)
    x = rng.standard_normal((6, 3))
    h = _numpy_mlp(p.values, arch, x)
    node = mlp_logits_node(graph.inp(p.values), arch, x)
    assert np.array_equal(h, node.value)
    assert np.array_equal(h, mlp_logits_node(graph.const(p.values), arch, x).value)


def test_forward_rejects_wrong_input_width():
    p = init_params(mlp_arch((2, 4)), 0)
    with pytest.raises(ConfigurationError):
        mlp_logits_node(graph.const(p.values), p.arch, np.zeros((3, 5)))


def test_forward_raises_on_non_finite_logits():
    # Finite weights whose logits overflow: evaluation raises instead of
    # taking an argmax over inf/nan.
    arch = ((1, 2, "linear"),)
    p = ParamVector(np.array([1e300, -1e300, 0.0, 0.0]), arch)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        mlp_logits_node(graph.const(p.values), arch, np.array([[1e10]]))
    q = init_params(mlp_arch((2, 3)), 0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        mlp_logits_node(graph.const(q.values), q.arch, np.array([[np.nan, 0.0]]))


def _xent(p, data):
    return eval_with_gradient(make_mlp_lossfn(p.arch), p, data).value


def test_xent_uniform_logits_equals_log_class_count():
    arch = mlp_arch((2, 16))
    p = ParamVector(np.zeros(param_count(arch)), arch)
    data = Dataset(np.random.default_rng(0).standard_normal((9, 2)), np.arange(9) % 16, 16)
    assert abs(_xent(p, data) - math.log(16.0)) < 1e-15


def test_xent_vanishes_as_correct_logit_grows():
    targets = np.array([1])
    last = None
    for margin in (1.0, 5.0, 20.0, 200.0):
        logits = np.array([[0.0, margin, 0.0]])
        loss = float(graph._xent_value(logits, targets)[0])
        if last is not None:
            assert loss < last
        last = loss
    assert last < 1e-80


def test_xent_matches_independent_formula():
    rng = np.random.default_rng(13)
    arch = mlp_arch((2, 6, 4))
    p = init_params(arch, 13)
    data = Dataset(rng.standard_normal((8, 2)), rng.integers(0, 4, 8), 4)
    logits = mlp_logits_node(graph.const(p.values), arch, data.inputs).value
    direct = float(np.mean(logsumexp(logits, axis=1) - logits[np.arange(8), data.targets]))
    assert abs(_xent(p, data) - direct) < 1e-12


def test_xent_is_nonnegative_and_exceeds_entropy_only_off_uniform():
    rng = np.random.default_rng(14)
    arch = mlp_arch((2, 5, 3))
    p = init_params(arch, 14)
    data = Dataset(rng.standard_normal((10, 2)), rng.integers(0, 3, 10), 3)
    loss = _xent(p, data)
    assert loss >= 0.0
    assert abs(loss - math.log(3.0)) > 1e-6  # non-constant logits


def test_lossfn_rejects_empty_and_mismatched_datasets():
    arch = mlp_arch((2, 4))
    lossfn = make_mlp_lossfn(arch)
    p = graph.inp(init_params(arch, 0).values)
    with pytest.raises(ConfigurationError):
        lossfn(p, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 4))
    with pytest.raises(ConfigurationError):
        lossfn(p, Dataset(np.zeros((2, 2)), np.array([0, 1]), 2))


# ---------------------------------------------------------------------------
# power normalization


@given(
    st.lists(
        st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_power_normalize_row_energy(rows):
    x = np.array(rows)
    if np.any((x * x).sum(axis=1) < 1e-6):  # degenerate rows cannot normalize
        return
    n_uses = 2
    y = power_normalize_node(graph.const(x), n_uses).value
    assert np.allclose((y * y).sum(axis=1), n_uses, rtol=0, atol=1e-12)


def test_power_normalize_node_matches_numpy_twin():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 8))
    node = power_normalize_node(graph.const(x), 4)
    # plain numpy reference: same ops in the same order, so equal bit for bit
    want = x * (math.sqrt(4) / np.sqrt((x * x).sum(axis=1, keepdims=True)))
    assert np.array_equal(node.value, want)


def test_power_normalize_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    x0 = rng.standard_normal(8)
    w = rng.standard_normal((1, 8))

    def f(p_node, _data):
        y = power_normalize_node(graph.reshape(p_node, (1, 8)), 4)
        return graph.asum(graph.mul(y, graph.const(w)))

    r = eval_with_gradient(f, x0)
    fd = fd_gradient(lambda x: eval_with_gradient(f, x).value, x0)
    assert relative_error(r.gradient, fd) < 1e-6


# ---------------------------------------------------------------------------
# autoencoder


def test_autoencoder_spec_shapes():
    spec = AutoencoderSpec()
    assert spec.enc_arch == ((16, 32, "tanh"), (32, 16, "linear"))
    assert spec.dec_arch == ((20, 32, "tanh"), (32, 16, "linear"))
    assert spec.rx_width == 2 * (spec.n_uses + BLOCK_TAPS - 1) == 20
    assert spec.arch == spec.enc_arch + spec.dec_arch
    assert spec.n_enc_params == param_count(spec.enc_arch)
    with pytest.raises(ConfigurationError):
        AutoencoderSpec(n_messages=0)


def test_autoencoder_params_split_round_trip():
    # One flat vector: the encoder's parameters, then the decoder's, both
    # drawn from one generator in that order.
    spec = AutoencoderSpec()
    p = init_autoencoder_params(spec, 3)
    assert np.array_equal(p.values, init_autoencoder_params(spec, 3).values)
    assert p.arch == spec.arch
    rng = np.random.default_rng(3)
    enc, dec = init_params(spec.enc_arch, rng), init_params(spec.dec_arch, rng)
    assert np.array_equal(p.values[:spec.n_enc_params], enc.values)
    assert np.array_equal(p.values[spec.n_enc_params:], dec.values)


def _toy_batch(spec, taps, messages, snr_db=10.0):
    from metalink.channel import channel_conv_matrix

    return type(
        "Batch",
        (),
        {
            "messages": np.asarray(messages),
            "noise": np.zeros((len(messages), spec.rx_width)),
            "channel_matrix": channel_conv_matrix(np.asarray(taps, dtype=complex), spec.n_uses),
            "spec": spec,
        },
    )()


def test_autoencoder_loss_gradient_matches_finite_differences():
    spec = AutoencoderSpec(n_messages=4, n_uses=3, enc_hidden=(6,), dec_hidden=(6,))
    lossfn = make_autoencoder_lossfn(spec)
    p = init_autoencoder_params(spec, 41)
    rng = np.random.default_rng(41)
    taps = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(6.0)
    batch = _toy_batch(spec, taps, rng.integers(0, 4, size=5))
    r = eval_with_gradient(lossfn, p, batch)
    fd = fd_gradient(lambda x: eval_with_gradient(lossfn, x, batch).value, p.values)
    assert relative_error(r.gradient, fd) < 1e-6


def test_autoencoder_loss_validates_inputs():
    spec = AutoencoderSpec()
    lossfn = make_autoencoder_lossfn(spec)
    with pytest.raises(ConfigurationError):
        lossfn(graph.inp(np.zeros(3)), _toy_batch(spec, [1.0, 0.0, 0.0], [0]))
    p = init_autoencoder_params(spec, 0)
    with pytest.raises(ConfigurationError):
        lossfn(graph.inp(p.values), _toy_batch(spec, [1.0, 0.0, 0.0], []))


def test_trained_toy_autoencoder_recovers_messages_without_noise():
    # Two messages, a delta channel, no noise: a few hundred SGD steps have
    # to make the code pair separable and the decoder exact on both inputs.
    spec = AutoencoderSpec(n_messages=2, n_uses=2, enc_hidden=(8,), dec_hidden=(8,))
    lossfn = make_autoencoder_lossfn(spec)
    batch = _toy_batch(spec, [1.0, 0.0, 0.0], [0, 1])
    p = init_autoencoder_params(spec, 7)
    for _ in range(400):
        r = eval_with_gradient(lossfn, p, batch)
        p = sgd_step(p, r.gradient, 0.5)
    assert eval_with_gradient(lossfn, p, batch).value < 0.05

    logits = autoencoder_logits_node(graph.const(p.values), spec, batch).value
    assert np.array_equal(np.argmax(logits, axis=1), [0, 1])


def test_autoencoder_forward_matches_training_loss_path():
    # The forward the loss differentiates, against a plain numpy forward
    # through the exact complex convolution of the block channel.
    spec = AutoencoderSpec()
    rng = np.random.default_rng(51)
    taps = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(6.0)
    messages = rng.integers(0, 16, size=4)
    batch = _toy_batch(spec, taps, messages)
    p = init_autoencoder_params(spec, 51)
    graph_logits = autoencoder_logits_node(graph.inp(p.values), spec, batch).value
    loss = make_autoencoder_lossfn(spec)(graph.inp(p.values), batch).value
    assert loss == graph.softmax_xent(graph.const(graph_logits), messages).value

    n = spec.n_uses
    coded = _numpy_mlp(p.values[:spec.n_enc_params], spec.enc_arch, np.eye(16)[messages])
    coded = coded * (math.sqrt(n) / np.sqrt((coded * coded).sum(axis=1, keepdims=True)))
    received = apply_channel_block(coded[:, :n] + 1j * coded[:, n:], ChannelRealization(taps, 10.0))
    stacked = np.concatenate([received.real, received.imag], axis=1)
    numpy_logits = _numpy_mlp(p.values[spec.n_enc_params:], spec.dec_arch, stacked)
    assert np.allclose(graph_logits, numpy_logits, rtol=0, atol=1e-12)


_STACK_SPECS = (AutoencoderSpec(), AutoencoderSpec(n_messages=4, n_uses=3, enc_hidden=(6,), dec_hidden=(6, 5)))


@given(
    spec=st.sampled_from(_STACK_SPECS),
    n_starts=st.integers(1, 4),
    n_blocks=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_autoencoder_stack_rows_are_each_start_alone(spec, n_starts, n_blocks, seed):
    rng = np.random.default_rng(seed)
    task = TaskFamily(kind="autoencoder", snr_db=float(rng.uniform(0.0, 20.0))).sample(rng)
    batch = generate_autoencoder_batch(task, n_blocks, rng, spec)
    starts = [init_autoencoder_params(spec, rng).values for _ in range(n_starts)]
    lossfn = make_autoencoder_lossfn(spec)
    logits = autoencoder_logits_node(graph.const(np.stack(starts)), spec, batch).value
    stacked = eval_with_gradient(lossfn, np.stack(starts), batch)
    assert logits.shape == (n_starts, n_blocks, spec.n_messages)
    assert stacked.value.shape == (n_starts,)
    for row, p in enumerate(starts):
        alone = eval_with_gradient(lossfn, p, batch)
        assert np.array_equal(logits[row], autoencoder_logits_node(graph.const(p), spec, batch).value)
        assert np.array_equal(stacked.value[row], alone.value)
        assert np.array_equal(stacked.gradient[row], alone.gradient)


def _per_block_logits(p_node, spec, batch):
    """The autoencoder forward composed per block: the encoder and the power
    normalisation run on every block's one-hot instead of once per message."""
    n_enc, n_total = spec.n_enc_params, param_count(spec.arch)
    encoded = mlp_logits_node(graph.vslice(p_node, 0, n_enc), spec.enc_arch, np.eye(spec.n_messages)[batch.messages])
    coded = power_normalize_node(encoded, spec.n_uses)
    channel = graph.const(np.swapaxes(batch.channel_matrix, -1, -2))
    received = graph.affine(coded, channel, graph.const(batch.noise))
    return mlp_logits_node(graph.vslice(p_node, n_enc, n_total), spec.dec_arch, received)


def _per_block_loss(p_node, batch):
    logits = _per_block_logits(p_node, batch.spec, batch)
    return graph.softmax_xent(logits, np.broadcast_to(batch.messages, logits.value.shape[:-1]))


@given(
    spec=st.sampled_from(_STACK_SPECS),
    n_blocks=st.integers(2, 40),
    stack=st.sampled_from(("none", "starts", "tasks")),
    n_rows=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_codebook_forward_equals_the_per_block_composition(spec, n_blocks, stack, n_rows, seed):
    # Block counts below and above n_messages (16 and 4).  Picking a codeword
    # is an exact product, so the logits keep every bit; the encoder's
    # adjoints are summed per message first, which moves the last bits of the
    # gradient.  One block is left out: there numpy's matrix-vector product
    # ran the per-block encoder, whose sums may differ in the last bit.
    rng = np.random.default_rng(seed)

    def draw():
        return generate_autoencoder_batch(TaskFamily(kind="autoencoder", snr_db=10.0).sample(rng), n_blocks, rng, spec)

    batch = draw()
    params = np.stack([init_autoencoder_params(spec, rng).values for _ in range(n_rows)])
    if stack == "none":
        params = params[0]
    elif stack == "tasks":
        batch = stack_autoencoder_batches([batch] + [draw() for _ in range(n_rows - 1)])
    logits = autoencoder_logits_node(graph.const(params), spec, batch).value
    assert np.array_equal(logits, _per_block_logits(graph.const(params), spec, batch).value)
    got = eval_with_gradient(make_autoencoder_lossfn(spec), params, batch)
    want = eval_with_gradient(_per_block_loss, params, batch)
    assert np.array_equal(got.value, want.value)
    # relative to the gradient's scale too: an entry summed to near zero keeps
    # the rounding of its larger terms
    assert np.allclose(got.gradient, want.gradient, rtol=1e-12, atol=1e-12 * np.abs(want.gradient).max())


def test_one_block_logits_match_the_per_block_composition_to_rounding():
    for spec in _STACK_SPECS:
        rng = np.random.default_rng(17)
        batch = generate_autoencoder_batch(TaskFamily(kind="autoencoder", snr_db=10.0).sample(rng), 1, rng, spec)
        p = graph.const(init_autoencoder_params(spec, rng).values)
        got = autoencoder_logits_node(p, spec, batch).value
        assert np.allclose(got, _per_block_logits(p, spec, batch).value, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n_blocks", [128, 2000])
def test_encoder_runs_once_per_message_not_once_per_block(monkeypatch, n_blocks):
    spec = AutoencoderSpec()
    built = {"affine": [], "tanh": []}
    for name, rows in built.items():
        def spy(*args, _op=getattr(graph, name), _rows=rows):
            node = _op(*args)
            _rows.append(node.value.shape[-2])
            return node

        monkeypatch.setattr(graph, name, spy)
    rng = np.random.default_rng(3)
    batch = generate_autoencoder_batch(TaskFamily(kind="autoencoder", snr_db=10.0).sample(rng), n_blocks, rng, spec)
    logits = autoencoder_logits_node(graph.const(init_autoencoder_params(spec, 0).values), spec, batch)
    assert logits.value.shape == (n_blocks, spec.n_messages)
    # encoder layers first, then the channel and the decoder layers
    n_enc = len(spec.enc_arch)
    assert len(built["affine"]) == n_enc + 1 + len(spec.dec_arch)
    assert built["affine"][:n_enc] == [spec.n_messages] * n_enc
    assert built["tanh"][:n_enc - 1] == [spec.n_messages] * (n_enc - 1)
    assert built["affine"][n_enc:] == [n_blocks] * (1 + len(spec.dec_arch))


def test_autoencoder_forward_shapes_and_validation():
    spec = AutoencoderSpec()
    p = graph.const(init_autoencoder_params(spec, 0).values)
    task = Task(0, ChannelRealization(np.array([1.0, 0.0, 0.0], dtype=complex), 20.0))
    rng = np.random.default_rng(0)
    for n_blocks in (1, 3):
        batch = generate_autoencoder_batch(task, n_blocks, rng, spec)
        assert autoencoder_logits_node(p, spec, batch).value.shape == (n_blocks, 16)
    with pytest.raises(ConfigurationError):
        autoencoder_logits_node(graph.const(np.zeros(3)), spec, batch)
    with pytest.raises(ConfigurationError):
        AutoencoderBatch(np.array([16]), batch.noise[:1], batch.channel_matrix, spec)
    with pytest.raises(ConfigurationError):
        autoencoder_logits_node(p, spec, _toy_batch(spec, [1.0, 0.0, 0.0], np.array([], dtype=int)))


def _two_task_batches(n_blocks=3, spec=AutoencoderSpec()):
    rng = np.random.default_rng(61)
    return [generate_autoencoder_batch(TaskFamily(kind="autoencoder", snr_db=10.0).sample(rng), n_blocks, rng, spec) for _ in range(2)]


def test_stacked_autoencoder_batch_holds_its_tasks_in_order():
    batches = _two_task_batches()
    stack = stack_autoencoder_batches(batches)
    assert stack.messages.shape == (2, 3) and len(stack) == 3
    assert stack.noise.shape == (2, 3, stack.spec.rx_width)
    assert stack.channel_matrix.shape == (2, stack.spec.rx_width, 2 * stack.spec.n_uses)
    for t, batch in enumerate(batches):
        for name in ("messages", "noise", "channel_matrix"):
            assert np.array_equal(getattr(stack, name)[t], getattr(batch, name)), name


def _stack_fields(**changes):
    """messages, noise and channel_matrix of a two-task stack, some replaced."""
    stack = stack_autoencoder_batches(_two_task_batches())
    fields = {"messages": stack.messages, "noise": stack.noise, "channel_matrix": stack.channel_matrix}
    return {**fields, **{name: change(fields[name]) for name, change in changes.items()}}


@pytest.mark.parametrize(
    "fields,match",
    [
        (_stack_fields(messages=lambda a: a[:1]), "noise must be"),  # T = 1 against T = 2 in the others
        (_stack_fields(noise=lambda a: a[:1]), "noise must be"),
        (_stack_fields(channel_matrix=lambda a: a[:1]), "channel matrix must be"),
        (_stack_fields(channel_matrix=lambda a: a[:, :-1]), "channel matrix must be"),  # wrong r
        (_stack_fields(channel_matrix=lambda a: a[:, :, :-1]), "channel matrix must be"),  # wrong c
        (_stack_fields(channel_matrix=lambda a: a[0]), "channel matrix must be"),  # no task axis
        # an empty stack: T = 0 in every field
        (_stack_fields(**dict.fromkeys(("messages", "noise", "channel_matrix"), lambda a: a[:0])), "at least one"),
        (_stack_fields(messages=lambda a: a[None]), "at least one message"),  # two task axes
    ],
)
def test_stacked_autoencoder_batch_validation(fields, match):
    with pytest.raises(ConfigurationError, match=match):
        AutoencoderBatch(spec=AutoencoderSpec(), **fields)


@pytest.mark.parametrize(
    "batches,match",
    [
        ([], "one or more single-task batches"),
        ([stack_autoencoder_batches(_two_task_batches())], "one or more single-task batches"),
        (_two_task_batches(3)[:1] + _two_task_batches(4)[1:], "block count"),
        (
            _two_task_batches(3)[:1] + _two_task_batches(3, AutoencoderSpec(n_messages=8))[1:],
            "one spec",
        ),
    ],
)
def test_stack_autoencoder_batches_validation(batches, match):
    with pytest.raises(ConfigurationError, match=match):
        stack_autoencoder_batches(batches)


def test_stacked_batch_needs_one_parameter_row_per_task():
    spec = AutoencoderSpec()
    stack = stack_autoencoder_batches(_two_task_batches())
    p = init_autoencoder_params(spec, 0).values
    for params in (p, np.stack([p] * 3)):
        with pytest.raises(ConfigurationError, match="a batch of 2 tasks needs a"):
            autoencoder_logits_node(graph.const(params), spec, stack)
