"""Engine-level tests: forward values, per-op VJPs against finite
differences, determinism of the backward sweep, and closure (gradients are
nodes, so they can be differentiated again)."""

import math
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metalink import autodiff, graph
from metalink.errors import NumericalError
from metalink.learners import DEMOD_ARCH
from metalink.nn import (
    AutoencoderSpec,
    Dataset,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
    param_count,
    stack_autoencoder_batches,
    stack_datasets,
)
from metalink.tasks import (
    TaskFamily,
    generate_autoencoder_batch,
    make_demod_split,
    sample_task,
)


def _fd(fn, x, step=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return out


def _contract(node, seed):
    """Reduce any node to a scalar with fixed random weights."""
    if np.ndim(node.value) == 0:
        return node
    r = np.random.default_rng(seed).standard_normal(node.value.shape)
    return graph.asum(graph.mul(node, graph.const(r)))


# one entry per differentiable op, and per reduction or broadcast that the
# models and VJPs build from asum, bcast and add/mul: (name, x0, builder
# p_node -> node)
_OP_CASES = [
    ("add", np.arange(1.0, 7.0), lambda p: graph.add(graph.vslice(p, 0, 3), graph.vslice(p, 3, 6))),
    ("scale", np.arange(1.0, 5.0), lambda p: graph.scale(p, -2.5)),
    ("add_scaled", np.arange(1.0, 7.0), lambda p: graph.add_scaled(graph.vslice(p, 0, 3), graph.vslice(p, 3, 6), -0.7)),
    ("add_scaled_bcast", np.arange(1.0, 5.0), lambda p: graph.add_scaled(
        graph.asum(graph.vslice(p, 0, 1)), graph.reshape(graph.vslice(p, 1, 4), (3, 1)), 1.5)),
    ("mul", np.arange(1.0, 7.0), lambda p: graph.mul(graph.vslice(p, 0, 3), graph.vslice(p, 3, 6))),
    ("div", np.arange(2.0, 8.0), lambda p: graph.div(graph.vslice(p, 0, 3), graph.vslice(p, 3, 6))),
    ("smul", np.arange(1.0, 6.0), lambda p: graph.mul(graph.asum(graph.vslice(p, 0, 1)), graph.vslice(p, 1, 5))),
    ("matmat", np.arange(1.0, 13.0), lambda p: graph.matmat(graph.reshape(graph.vslice(p, 0, 6), (2, 3)), graph.reshape(graph.vslice(p, 6, 12), (3, 2)))),
    ("affine", np.arange(1.0, 15.0) / 4.0, lambda p: graph.affine(
        graph.reshape(graph.vslice(p, 0, 6), (2, 3)),
        graph.reshape(graph.vslice(p, 6, 12), (3, 2)),
        graph.vslice(p, 12, 14))),
    ("affine_stack", np.arange(1.0, 27.0) / 8.0, lambda p: graph.affine(
        graph.reshape(graph.vslice(p, 0, 8), (2, 2, 2)),
        graph.reshape(graph.vslice(p, 8, 20), (2, 2, 3)),
        graph.reshape(graph.vslice(p, 20, 26), (2, 1, 3)))),
    ("transpose", np.arange(1.0, 7.0), lambda p: graph.transpose(graph.reshape(p, (2, 3)))),
    ("reshape", np.arange(1.0, 7.0), lambda p: graph.reshape(p, (3, 2))),
    ("vslice", np.arange(1.0, 8.0), lambda p: graph.vslice(p, 2, 5)),
    ("scatter", np.arange(1.0, 7.0), lambda p: graph.scatter([graph.vslice(p, 0, 3), graph.vslice(p, 1, 5)], [2, 3], 8)),
    ("sum", np.arange(1.0, 6.0), lambda p: graph.asum(p)),
    ("row_sum", np.arange(1.0, 7.0), lambda p: graph.asum(graph.reshape(p, (2, 3)), (2, 1))),
    ("col_sum", np.arange(1.0, 7.0), lambda p: graph.asum(graph.reshape(p, (2, 3)), (3,))),
    ("sum_to_shape", np.arange(1.0, 13.0), lambda p: graph.asum(graph.reshape(p, (2, 3, 2)), (3, 1))),
    ("bcast", np.array([1.5]), lambda p: graph.bcast(graph.asum(p), (2, 3))),
    ("bcast_rows", np.arange(1.0, 4.0), lambda p: graph.bcast(p, (4, 3))),
    ("bcast_cols", np.arange(1.0, 4.0), lambda p: graph.bcast(graph.reshape(p, (3, 1)), (3, 4))),
    ("bias_add", np.arange(1.0, 10.0), lambda p: graph.add(graph.reshape(graph.vslice(p, 0, 6), (2, 3)), graph.vslice(p, 6, 9))),
    ("tanh", np.arange(1.0, 5.0) / 3.0, lambda p: graph.tanh(p)),
    ("relu", np.array([-2.0, -0.5, 0.7, 3.0]), lambda p: graph.relu(p)),
    ("sqrt", np.arange(1.0, 5.0), lambda p: graph.sqrt(p)),
    ("softmax_rows", np.arange(-3.0, 3.0) / 2.0, lambda p: graph.softmax_rows(graph.reshape(p, (2, 3)))),
    ("softmax_xent", np.arange(-3.0, 3.0) / 2.0, lambda p: graph.softmax_xent(graph.reshape(p, (2, 3)), np.array([2, 0]))),
]


@pytest.mark.parametrize("name,x0,builder", _OP_CASES, ids=[c[0] for c in _OP_CASES])
def test_vjp_matches_finite_differences(name, x0, builder):
    def value(x):
        return float(_contract(builder(graph.inp(x)), seed=7).value)

    p = graph.inp(x0)
    loss = _contract(builder(p), seed=7)
    (g,) = graph.gradients(loss, [p])
    fd = _fd(value, x0)
    err = np.abs(g.value - fd).max() / (np.abs(fd).max() + 1e-12)
    assert err < 1e-7, f"{name}: VJP vs finite differences, rel err {err:.3e}"


@st.composite
def _broadcast_operands(draw):
    """Two arrays of broadcast-compatible shapes: an (n, k) matrix and a
    scalar, a row vector, an (n, 1) column or another (n, k) matrix, in
    either order, with entries away from zero so both can divide."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = [(n, k), draw(st.sampled_from([(), (k,), (n, 1), (n, k)]))]
    if draw(st.booleans()):
        shapes.reverse()
    entries = st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
    return [draw(hnp.arrays(np.float64, shape, elements=entries)) for shape in shapes]


@given(_broadcast_operands(), st.sampled_from(["add", "mul", "div"]))
@settings(max_examples=120, deadline=None)
def test_broadcasting_adjoints_have_operand_shapes_and_match_differences(operands, kind):
    op = getattr(graph, kind)
    x, y = operands
    a, b = graph.inp(x), graph.inp(y)
    adjoints = graph.gradients(_contract(op(a, b), seed=5), [a, b])
    for i, (operand, g) in enumerate(zip(operands, adjoints)):
        assert g.value.shape == operand.shape, f"{kind}: adjoint {i} has shape {g.value.shape}"

        def value(flat, i=i):
            args = [graph.inp(v) for v in operands]
            args[i] = graph.inp(flat.reshape(operand.shape))
            return float(_contract(op(*args), seed=5).value)

        fd = _fd(value, operand.ravel()).reshape(operand.shape)
        err = np.abs(g.value - fd).max() / (np.abs(fd).max() + 1e-12)
        assert err < 1e-7, f"{kind}: adjoint {i} vs finite differences, rel err {err:.3e}"


def test_forward_values_simple_ops():
    a = graph.inp(np.array([1.0, -2.0, 3.0]))
    b = graph.const(np.array([4.0, 5.0, 6.0]))
    assert np.array_equal(graph.add(a, b).value, [5.0, 3.0, 9.0])
    assert np.array_equal(graph.mul(a, b).value, [4.0, -10.0, 18.0])
    assert np.array_equal(graph.scale(a, 2.0).value, [2.0, -4.0, 6.0])
    assert graph.asum(a).value == 2.0
    assert np.array_equal(graph.relu(a).value, [1.0, 0.0, 3.0])
    assert np.array_equal(graph.relu_mask(a).value, [1.0, 0.0, 1.0])
    assert np.array_equal(graph.scatter([graph.vslice(a, 0, 2)], [1], 4).value, [0.0, 1.0, -2.0, 0.0])
    # overlapping parts are added
    assert np.array_equal(graph.scatter([a, b], [0, 1], 4).value, [1.0, 2.0, 8.0, 6.0])


def test_softmax_sums_to_one_and_survives_huge_logits():
    big = graph.inp(np.array([[1e4, -1e4, 0.0, 5e3]]))
    s = graph.softmax_rows(big)
    assert np.all(np.isfinite(s.value))
    assert abs(s.value.sum() - 1.0) < 1e-12

    rows = graph.inp(np.array([[1e4, 0.0], [-1e4, -9.9e3]]))
    sr = graph.softmax_rows(rows)
    assert np.allclose(sr.value.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_xent_uniform_logits_is_log_of_class_count():
    z = graph.inp(np.zeros((5, 16)))
    loss = graph.softmax_xent(z, np.arange(5) % 16)
    assert abs(loss.value - math.log(16.0)) < 1e-15


def test_softmax_xent_matches_direct_formula():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((7, 4))
    targets = rng.integers(0, 4, size=7)
    loss = graph.softmax_xent(graph.inp(logits), targets)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    direct = -np.log(probs[np.arange(7), targets]).mean()
    assert abs(loss.value - direct) < 1e-12


def test_gradient_of_quadratic_is_exact():
    x0 = np.array([1.0, -2.0, 0.5])
    p = graph.inp(x0)
    loss = graph.asum(graph.mul(p, p))
    (g,) = graph.gradients(loss, [p])
    assert np.array_equal(g.value, 2.0 * x0)


def test_gradient_closure_second_derivative_is_exact():
    # y = sum(x^3): second backward pass through the first gives 6 x * v.
    x0 = np.array([0.5, -1.5, 2.0])
    v = np.array([1.0, -2.0, 0.25])
    p = graph.inp(x0)
    y = graph.asum(graph.mul(graph.mul(p, p), p))
    (g,) = graph.gradients(y, [p])
    s = graph.asum(graph.mul(g, graph.const(v)))
    (hv,) = graph.gradients(s, [p])
    assert np.allclose(hv.value, 6.0 * x0 * v, rtol=0, atol=1e-12)


def test_relu_mask_blocks_second_order_term():
    # d/dx relu(x) = mask(x); differentiating through the mask contributes
    # nothing, which encodes relu'' = 0 almost everywhere.
    x0 = np.array([-1.0, 2.0])
    v = np.ones(2)
    p = graph.inp(x0)
    y = graph.asum(graph.relu(p))
    (g,) = graph.gradients(y, [p])
    s = graph.asum(graph.mul(g, graph.const(v)))
    (hv,) = graph.gradients(s, [p])
    assert np.array_equal(hv.value, np.zeros(2))


def test_unreached_wrt_gets_zero_constant():
    p = graph.inp(np.array([1.0, 2.0]))
    q = graph.inp(np.array([[3.0, 4.0], [5.0, 6.0]]))
    loss = graph.asum(graph.mul(p, p))
    gp, gq = graph.gradients(loss, [p, q])
    assert np.array_equal(gp.value, [2.0, 4.0])
    assert gq.value.shape == (2, 2)
    assert np.array_equal(gq.value, np.zeros((2, 2)))


def test_gradients_rejects_non_scalar_output():
    p = graph.inp(np.arange(3.0))
    with pytest.raises(ValueError):
        graph.gradients(graph.scale(p, 2.0), [p])


def test_constants_receive_no_adjoint_but_flow_through():
    p = graph.inp(np.array([2.0, 3.0]))
    c = graph.const(np.array([10.0, 20.0]))
    loss = graph.asum(graph.mul(p, c))
    (g,) = graph.gradients(loss, [p])
    assert np.array_equal(g.value, [10.0, 20.0])


def test_backward_sweep_is_deterministic():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(6)

    def build():
        p = graph.inp(x0)
        h = graph.tanh(graph.matmat(graph.const(rng_w), graph.reshape(p, (6, 1))))
        loss = graph.asum(graph.mul(h, h))
        (g,) = graph.gradients(loss, [p])
        return g.value

    rng_w = np.random.default_rng(12).standard_normal((4, 6))
    first = build()
    second = build()
    assert np.array_equal(first, second)


def test_uid_order_is_topological():
    p = graph.inp(np.arange(4.0))
    y = graph.tanh(graph.scale(p, 0.5))
    z = graph.add(y, graph.mul(p, p))
    for node in (y, z):
        assert all(parent.uid < node.uid for parent in node.parents)


def test_nonfinite_value_raises_naming_the_op():
    p = graph.inp(np.array([1e200]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError) as exc:
            graph.mul(p, p)
    assert exc.value.op_kind == "mul"
    assert "'mul'" in str(exc.value)

    with np.errstate(divide="ignore"):
        with pytest.raises(NumericalError) as exc:
            graph.div(graph.inp(np.array([1.0])), graph.const(np.array([0.0])))
    assert exc.value.op_kind == "div"


def test_constant_leaf_rejects_nan():
    with pytest.raises(NumericalError):
        graph.const(np.array([np.nan]))


@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_softmax_normalization_property(logits):
    s = graph.softmax_rows(graph.inp(np.array([logits])))
    assert abs(s.value.sum() - 1.0) < 1e-12
    assert np.all(s.value >= 0.0)


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_relu_equals_masked_identity(xs):
    x = np.array(xs)
    p = graph.inp(x)
    assert np.array_equal(graph.relu(p).value, graph.mul(p, graph.relu_mask(p)).value)


def test_finite_values_whose_sum_overflows_are_accepted():
    # accepted silently: the check's own sum may overflow (1e308 + 1e308)
    # or meet +max and -max, and neither is a warning
    top = np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = graph.const(np.array([1e308, 1e308]))
        graph.const(np.array([top, top, -top, -top]))
        moved = graph.add(big, graph.const(np.zeros(2)))
    assert np.array_equal(moved.value, [1e308, 1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError) as exc:
            graph.asum(big)  # here the value itself is inf
    assert exc.value.op_kind == "sum"
    with pytest.raises(NumericalError):
        graph.inp(np.array([1e308, np.inf]))


def test_graphs_build_on_two_threads_at_once():
    # Each thread checks in its own quiet context: two threads checking
    # large values at once both finish, and a worker thread's check still
    # raises on a non-finite value and stays silent on an overflowing sum.
    big = np.ones(200_000)
    outcomes = []

    def build():
        try:
            a, b = graph.const(big), graph.const(big)
            for _ in range(300):
                graph.mul(a, b)
            outcomes.append("done")
        except Exception as err:  # noqa: BLE001 - any error fails the test below
            outcomes.append(repr(err))

    def diverge():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph.const(np.array([1e308, 1e308]))
            try:
                with np.errstate(over="ignore"):
                    graph.mul(graph.const(np.array([1e200])), graph.const(np.array([1e200])))
            except NumericalError as err:
                outcomes.append(err.op_kind)

    for targets in ((build, build), (diverge,)):
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert outcomes == ["done", "done", "mul"]


def test_overlapping_scatter_is_checked():
    # disjoint parts only move entries; overlapping ones are added and can overflow
    big = graph.const(np.array([1e308, 1e308]))
    assert np.array_equal(graph.scatter([big, big], [0, 2], 4).value, [1e308] * 4)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError) as exc:
            graph.scatter([big, big], [0, 1], 3)
    assert exc.value.op_kind == "scatter"


# ---------------------------------------------------------------------------
# the op table

# one builder per exempt kind, from a finite matrix, its flattening and its
# first entry as a scalar
_EXEMPT_BUILDERS = {
    "transpose": lambda mat, vec, sca: graph.transpose(mat),
    "reshape": lambda mat, vec, sca: graph.reshape(mat, (mat.value.size,)),
    "vslice": lambda mat, vec, sca: graph.vslice(vec, 1, vec.value.size),
    "scatter": lambda mat, vec, sca: graph.scatter([vec, vec], [0, vec.value.size + 1], 2 * vec.value.size + 2),
    "bcast": lambda mat, vec, sca: graph.bcast(mat, (3, *mat.value.shape)),
    "tanh": lambda mat, vec, sca: graph.tanh(mat),
    "relu": lambda mat, vec, sca: graph.relu(mat),
    "relu_mask": lambda mat, vec, sca: graph.relu_mask(mat),
    "softmax_rows": lambda mat, vec, sca: graph.softmax_rows(mat),
}

# and one per checked kind, from the same arguments
_CHECKED_BUILDERS = {
    "input": lambda mat, vec, sca: graph.inp(vec.value.tolist()),
    "constant": lambda mat, vec, sca: graph.const(np.arange(3)),
    "add": lambda mat, vec, sca: graph.add(mat, sca),
    "scale": lambda mat, vec, sca: graph.scale(mat, 2.0),
    "add_scaled": lambda mat, vec, sca: graph.add_scaled(sca, mat, -0.5),
    "mul": lambda mat, vec, sca: graph.mul(vec, sca),
    "div": lambda mat, vec, sca: graph.div(mat, graph.const(2.0)),
    "matmat": lambda mat, vec, sca: graph.matmat(mat, graph.transpose(mat)),
    "affine": lambda mat, vec, sca: graph.affine(mat, graph.transpose(mat), sca),
    "sum": lambda mat, vec, sca: graph.asum(mat),
    "sqrt": lambda mat, vec, sca: graph.sqrt(graph.mul(sca, sca)),
    "softmax_xent": lambda mat, vec, sca: graph.softmax_xent(mat, np.zeros(mat.value.shape[0], dtype=int)),
}


def test_each_row_is_built_by_its_builder():
    assert set(_EXEMPT_BUILDERS) | set(_CHECKED_BUILDERS) == set(graph.OPS)
    assert {kind for kind, op in graph.OPS.items() if not op.checked} == set(_EXEMPT_BUILDERS)
    x = np.array([[0.5, -1.0], [2.0, 0.25]])
    mat, vec, sca = graph.inp(x), graph.inp(x.ravel()), graph.inp(x.flat[0])
    for kind, build in {**_EXEMPT_BUILDERS, **_CHECKED_BUILDERS}.items():
        node = build(mat, vec, sca)
        assert node.op is graph.OPS[kind] and node.kind == kind == node.op.name
        assert type(node.value) is np.ndarray and node.value.dtype == np.float64, kind
        if kind in ("input", "constant", "relu_mask"):  # no adjoint flows through these
            assert node.op.vjps == ()
        elif kind != "scatter":  # a scatter has one VJP per part, however many
            assert len(node.op.vjps) == len(node.parents), kind


def _relu_hvp():
    arch = mlp_arch((2, 5, 4), hidden="relu")
    rng = np.random.default_rng(12)
    data = Dataset(rng.standard_normal((6, 2)), rng.integers(0, 4, 6), 4)
    theta = init_params(arch, 13).values
    autodiff.hvp(make_mlp_lossfn(arch), theta, rng.standard_normal(theta.shape), data)


def _autoencoder_meta_gradient():
    spec = AutoencoderSpec(n_messages=4, n_uses=2, enc_hidden=(6,), dec_hidden=(6,))
    task = sample_task("autoencoder", np.random.default_rng(14))
    rng = np.random.default_rng(15)
    train, test = (generate_autoencoder_batch(task, 8, rng, spec) for _ in range(2))
    lossfn = make_autoencoder_lossfn(spec)
    autodiff.unrolled_meta_gradient(lossfn, lossfn, init_autoencoder_params(spec, 16).values, 0.1, 2, train, test)


def test_every_row_is_used_by_a_model_or_a_vjp(monkeypatch):
    # The ops of every node built by the demod and autoencoder exact
    # meta-gradients and a relu network's Hessian-vector product: an op
    # that no model and no VJP builds has no place in the table.
    used = set()
    make = graph._make

    def spy(op, *args):
        used.add(op.name)
        return make(op, *args)

    monkeypatch.setattr(graph, "_make", spy)
    lossfn, theta, split = _demod_problem(2)
    autodiff.unrolled_meta_gradient(lossfn, lossfn, np.tile(theta, (2, 1)), 0.1, 2,
                                    stack_datasets([split.train] * 2), stack_datasets([split.test] * 2))
    _autoencoder_meta_gradient()
    _relu_hvp()
    assert used == set(graph.OPS)


_FINITE_EXTREMES = st.sampled_from([
    np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e308, -1e308,
    np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny, 5e-324, -5e-324, 0.0, -0.0,
])


@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
    elements=st.one_of(_FINITE_EXTREMES, st.floats(allow_nan=False, allow_infinity=False)),
))
@settings(max_examples=200, deadline=None)
def test_exempt_ops_map_finite_extremes_to_finite_values(x):
    with np.errstate(over="ignore", invalid="ignore"):
        mat = graph.inp(x)
        vec = graph.inp(x.ravel())
        sca = graph.inp(x.flat[0])
        for kind, build in _EXEMPT_BUILDERS.items():
            out = build(mat, vec, sca)
            assert out.kind == kind
            assert np.isfinite(out.value).all(), kind


# ---------------------------------------------------------------------------
# the pruned backward sweep against the full-ancestry reference

def _full_ancestry_gradients(output, wrt, create_graph=True):
    """The sweep as first written: walk the whole ancestry of `output`, mark
    active nodes in uid order, then visit every ancestor in reverse.  It
    always builds the adjoint graph; callers that pass create_graph=False
    read only its values."""
    if np.ndim(output.value) != 0:
        raise ValueError("gradients() needs a scalar output node")
    seen = {}
    stack = [output]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen[node.uid] = node
        stack.extend(node.parents)
    order = sorted(seen)

    wrt_ids = {w.uid for w in wrt}
    active = set()
    for uid in order:
        node = seen[uid]
        if uid in wrt_ids or any(p.uid in active for p in node.parents):
            active.add(uid)

    adjoint = {}
    if output.uid in active:
        adjoint[output.uid] = graph.const(1.0)
        for uid in reversed(order):
            if uid not in adjoint or uid not in active:
                continue
            node = seen[uid]
            g = adjoint[uid]
            for parent, builder in zip(node.parents, node.op.vjps):
                if parent.uid not in active:
                    continue
                contrib = builder(node, g)
                prev = adjoint.get(parent.uid)
                adjoint[parent.uid] = contrib if prev is None else graph.add(prev, contrib)

    return [adjoint.get(w.uid) or graph.const(np.zeros_like(w.value)) for w in wrt]


def _assert_same_adjoints(output, wrt):
    pruned = graph.gradients(output, wrt)
    reference = _full_ancestry_gradients(output, wrt)
    for got, want in zip(pruned, reference, strict=True):
        assert np.array_equal(got.value, want.value)


def _demod_problem(seed):
    task = TaskFamily().sample(np.random.default_rng(seed), task_id=seed)
    split = make_demod_split(task, 4, 16, np.random.default_rng(seed + 100))
    return make_mlp_lossfn(DEMOD_ARCH), init_params(DEMOD_ARCH, seed).values, split


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pruned_sweep_is_bit_identical_on_unrolled_meta_gradient(m, monkeypatch):
    lossfn, theta, split = _demod_problem(m)
    loss, grad = autodiff.unrolled_meta_gradient(lossfn, lossfn, theta, 0.1, m, split.train, split.test)

    # the same trajectory by hand, differentiated with respect to theta and
    # to every intermediate phi, where the pruning cuts the most
    phis = [graph.inp(theta)]
    for _ in range(m):
        (g,) = graph.gradients(lossfn(phis[-1], split.train), [phis[-1]])
        phis.append(graph.add_scaled(phis[-1], g, -0.1))
    meta_loss = lossfn(phis[-1], split.test)
    _assert_same_adjoints(meta_loss, phis)
    for phi in phis:
        _assert_same_adjoints(meta_loss, [phi])

    monkeypatch.setattr(graph, "gradients", _full_ancestry_gradients)
    ref_loss, ref_grad = autodiff.unrolled_meta_gradient(lossfn, lossfn, theta, 0.1, m, split.train, split.test)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_pruned_sweep_is_bit_identical_on_hvp(monkeypatch):
    lossfn, theta, split = _demod_problem(5)
    v = np.random.default_rng(6).standard_normal(theta.shape)
    hv = autodiff.hvp(lossfn, theta, v, split.train)
    monkeypatch.setattr(graph, "gradients", _full_ancestry_gradients)
    assert np.array_equal(hv, autodiff.hvp(lossfn, theta, v, split.train))


def test_pruned_sweep_is_bit_identical_on_joint_loss():
    # the joint loss as train_joint builds it: theta broadcast to one row per
    # task, the mean of the stacked per-task losses
    lossfn, theta, _ = _demod_problem(7)
    data = stack_datasets(_demod_problem(seed)[2].train for seed in (8, 9, 10))
    p = graph.inp(theta)
    total = graph.scale(graph.asum(lossfn(graph.bcast(p, (3, theta.size)), data)), 1.0 / 3)
    _assert_same_adjoints(total, [p])
    (g,) = graph.gradients(total, [p])
    v = graph.const(np.random.default_rng(11).standard_normal(theta.shape))
    _assert_same_adjoints(graph.asum(graph.mul(g, v)), [p])


# ---------------------------------------------------------------------------
# the values-only sweep


def _unrolled_objective(m, n_tasks=None):
    """An m-step unrolled meta-loss on demod data and its theta: the deepest
    graph the models build.  With n_tasks, a stack of that many tasks."""
    lossfn, theta, split = _demod_problem(m)
    train, test = split.train, split.test
    if n_tasks:
        splits = [_demod_problem(m + 10 * t)[2] for t in range(n_tasks)]
        theta = np.tile(theta, (n_tasks, 1))
        train = stack_datasets(s.train for s in splits)
        test = stack_datasets(s.test for s in splits)
    t = graph.inp(theta)
    phi = t
    for _ in range(m):
        (g,) = graph.gradients(graph.asum(lossfn(phi, train)), [phi])
        phi = graph.add_scaled(phi, g, -0.1)
    return graph.asum(lossfn(phi, test)), t, phi


@pytest.mark.parametrize("m,n_tasks", [(1, None), (3, None), (2, 3)])
def test_values_only_sweep_equals_the_node_sweep(m, n_tasks):
    meta_loss, theta, phi = _unrolled_objective(m, n_tasks)
    kept = graph.gradients(meta_loss, [theta, phi])
    bare = graph.gradients(meta_loss, [theta, phi], create_graph=False)
    for got, want in zip(bare, kept, strict=True):
        assert np.array_equal(got.value, want.value)
        assert got.parents == ()
    assert kept[0].parents  # the node sweep's gradient can be differentiated


def test_values_only_sweep_drops_each_adjoint_once_its_node_is_swept(monkeypatch):
    # Spy on the adjoints that reach tanh nodes.  When the sweep reaches a
    # tanh node, the adjoint of the tanh node swept before it must be gone;
    # the node sweep, which keeps the adjoint graph, keeps it alive.
    meta_loss, theta, _ = _unrolled_objective(2)
    (vjp,) = graph.OPS["tanh"].vjps
    refs = []
    alive = []

    def spy(n, g):
        if refs:
            alive.append(refs[-1]() is not None)
        refs.append(weakref.ref(g))
        return vjp(n, g)

    monkeypatch.setattr(graph.OPS["tanh"], "vjps", (spy,))
    (bare,) = graph.gradients(meta_loss, [theta], create_graph=False)
    assert len(refs) >= 4 and not any(alive)
    assert all(ref() is None for ref in refs)

    refs.clear()
    alive.clear()
    (kept,) = graph.gradients(meta_loss, [theta])
    assert all(alive) and all(ref() is not None for ref in refs)
    assert np.array_equal(bare.value, kept.value)


# ---------------------------------------------------------------------------
# the fused ops build the graphs of the ops they fuse


def _unfused_mlp_loss(arch):
    """make_mlp_lossfn(arch) built from add(matmat(h, w), b), on one task."""

    def lossfn(p, data):
        h = graph.const(data.inputs)
        offset = 0
        for fan_in, fan_out, act in arch:
            w = graph.reshape(graph.vslice(p, offset, offset + fan_in * fan_out), (fan_in, fan_out))
            offset += fan_in * fan_out
            b = graph.vslice(p, offset, offset + fan_out)
            offset += fan_out
            h = graph.add(graph.matmat(h, w), b)
            h = graph.tanh(h) if act == "tanh" else h
        return graph.softmax_xent(h, data.targets)

    return lossfn


def _unfused_tanh_vjp(n, g):
    return graph.mul(g, graph.add(graph._ONE, graph.scale(graph.mul(n, n), -1.0)))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_fused_ops_give_the_unfused_meta_gradient_bit_for_bit(m, monkeypatch):
    # affine for add(matmat), add_scaled for add(scale) in the inner step and
    # in the tanh VJP: the same values, and adjoints built in the same order,
    # so second-order sums are added up in the same order too
    lossfn, theta, split = _demod_problem(m)
    fused = autodiff.unrolled_meta_gradient(lossfn, lossfn, theta, 0.1, m, split.train, split.test)

    monkeypatch.setattr(graph.OPS["tanh"], "vjps", (_unfused_tanh_vjp,))
    unfused_loss = _unfused_mlp_loss(DEMOD_ARCH)
    phi = t = graph.inp(theta)
    for _ in range(m):
        (g,) = graph.gradients(unfused_loss(phi, split.train), [phi])
        phi = graph.add(phi, graph.scale(g, -0.1))
    meta_loss = unfused_loss(phi, split.test)
    (grad,) = graph.gradients(meta_loss, [t])
    assert fused[0] == float(meta_loss.value)
    assert np.array_equal(fused[1], grad.value)


# ---------------------------------------------------------------------------
# a leading task axis: a stack computes what each of its rows computes alone


@given(
    st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
    st.sampled_from(["tanh", "relu"]), st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stack_matches_its_rows_bit_for_bit(n_tasks, n, d, k, hidden, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_tasks, n, d))
    w = rng.standard_normal((n_tasks, d, k))
    y = rng.standard_normal((n_tasks, n, k))
    classes = rng.integers(0, d, (n_tasks, n))
    lo = int(rng.integers(0, d))
    hi = int(rng.integers(lo + 1, d + 1))
    cases = {
        "matmat": (lambda a, b: graph.matmat(graph.inp(a), graph.inp(b)), x, w),
        "transpose": (lambda a: graph.transpose(graph.inp(a)), x),
        "vslice": (lambda a: graph.vslice(graph.inp(a), lo, hi), x),
        # y at 1..k+1 overlaps x at lo..lo+d unless lo > k
        "scatter": (lambda a, b: graph.scatter([graph.inp(a), graph.inp(b)], [lo, 1], lo + d + k + 1), x, y),
        "softmax_rows": (lambda a: graph.softmax_rows(graph.inp(a)), x),
        "softmax_xent": (lambda a, t: graph.softmax_xent(graph.inp(a), t), x, classes),
    }
    for name, (build, *arrays) in cases.items():
        stacked = build(*arrays).value
        assert stacked.shape[0] == n_tasks, name
        for t in range(n_tasks):
            assert np.array_equal(stacked[t], build(*(a[t] for a in arrays)).value), name

    arch = mlp_arch((d, 3, k), hidden=hidden)
    lossfn = make_mlp_lossfn(arch)
    params = rng.standard_normal((n_tasks, param_count(arch)))
    tasks = [Dataset(x[t], rng.integers(0, k, n), k) for t in range(n_tasks)]
    p = graph.inp(params)
    losses = lossfn(p, stack_datasets(tasks))
    (g,) = graph.gradients(graph.asum(losses), [p])
    for t, data in enumerate(tasks):
        alone = autodiff.eval_with_gradient(lossfn, params[t], data)
        assert losses.value[t] == alone.value
        assert np.array_equal(g.value[t], alone.gradient)

    # an autoencoder stack on a batch with a task axis: row t on task t's draw
    spec = AutoencoderSpec(n_messages=k + 1, n_uses=d, enc_hidden=(3,), dec_hidden=(3,))
    ae_loss = make_autoencoder_lossfn(spec)
    batches = [generate_autoencoder_batch(sample_task("autoencoder", rng), n, rng, spec) for _ in range(n_tasks)]
    params = np.stack([init_autoencoder_params(spec, rng).values for _ in range(n_tasks)])
    p = graph.inp(params)
    losses = ae_loss(p, stack_autoencoder_batches(batches))
    (g,) = graph.gradients(graph.asum(losses), [p])
    for t, batch in enumerate(batches):
        alone = autodiff.eval_with_gradient(ae_loss, params[t], batch)
        assert losses.value[t] == alone.value
        assert np.array_equal(g.value[t], alone.gradient)
