"""Eagerly evaluated computation graph with reverse-mode differentiation.

The one structural commitment that makes exact higher-order derivatives work:
the backward pass does not return bare arrays, it builds new graph nodes.
Differentiating a gradient (Hessian-vector products, unrolled meta-gradients)
is then just another backward pass over a larger graph, with no
special-casing and no approximation.

Values are float64 numpy arrays, computed at node construction time.  Every
node value is finite, and the op that would first produce a nan or inf raises
NumericalError naming its kind, so divergence surfaces at the first bad node
instead of as a mystery NaN three modules later.  Leaves and the ops that can
create a non-finite value from finite inputs (arithmetic, products,
reductions, sqrt, cross-entropy) check their result as they are
built.  The remaining ops (_FINITE_PRESERVING) only move, copy or zero
entries, or map them into a bounded range, so finite inputs give finite
outputs; since their inputs are nodes, and so already finite, they skip the
check without weakening the invariant.

Graphs are throwaway: build, differentiate, read values, drop.  Nothing here
mutates a node after construction, and node ids increase in creation order,
which doubles as a topological order for the backward sweep.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericalError

_uids = itertools.count()


class Node:
    """A single value in the graph.

    kind    op name, e.g. "matmat" or "softmax_xent"
    value   cached float64 result, computed eagerly
    parents predecessor nodes, in positional order
    meta    op-specific static data (slice bounds, targets, a python scalar)
    uid     creation counter; parent.uid < child.uid always holds
    """

    __slots__ = ("kind", "value", "parents", "meta", "uid")

    def __init__(self, kind, value, parents=(), meta=None):
        self.kind = kind
        self.value = value
        self.parents = parents
        self.meta = meta
        self.uid = next(_uids)

    def __repr__(self):
        return f"Node({self.kind}, uid={self.uid}, shape={np.shape(self.value)})"


# Ops that cannot turn finite inputs into a non-finite output: transpose,
# reshape, vslice, vpad and the broadcasts copy existing entries or zeros;
# tanh lies in [-1, 1], relu_mask in {0, 1} and relu is an entry or 0;
# softmax_rows lies in [0, 1], because the shifted exponents are <= 0 (an
# overflowing shift is -inf, whose exp is 0) and each row sum includes
# exp(0) = 1.
_FINITE_PRESERVING = frozenset({
    "transpose", "reshape", "vslice", "vpad",
    "bcast", "bcast_rows", "bcast_cols",
    "tanh", "relu", "relu_mask", "softmax_rows",
})


def _make(kind, value, parents=(), meta=None):
    value = np.asarray(value, dtype=np.float64)
    # Every op outside _FINITE_PRESERVING checks its result here, so every
    # node value is finite and the first bad op is the one that raises.  One
    # reduction catches any nan/inf (inf sums stay non-finite); a non-finite
    # sum can also come from finite entries that overflow when added, so it
    # is confirmed entrywise.
    if kind not in _FINITE_PRESERVING:
        if not math.isfinite(np.add.reduce(value, None)) and not np.isfinite(value).all():
            raise NumericalError(f"non-finite value produced by op '{kind}'", op_kind=kind)
    return Node(kind, value, parents, meta)


# ---------------------------------------------------------------------------
# leaves

def inp(x):
    """Leaf the caller will differentiate with respect to."""
    return _make("input", x)


def const(x):
    """Leaf treated as fixed data; receives no adjoint."""
    return _make("constant", x)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b):
    return _make("add", a.value + b.value, (a, b))


def scale(a, c):
    """a * c for a python scalar c (kept out of the graph)."""
    return _make("scale", a.value * float(c), (a,), float(c))


def mul(a, b):
    """Elementwise product; both operands the same shape."""
    return _make("mul", a.value * b.value, (a, b))


def div(a, b):
    return _make("div", a.value / b.value, (a, b))


def smul(s, a):
    """Scalar node s times array node a."""
    return _make("smul", s.value * a.value, (s, a))


# ---------------------------------------------------------------------------
# linear algebra

def matmat(a, b):
    return _make("matmat", a.value @ b.value, (a, b))


def transpose(a):
    return _make("transpose", a.value.T, (a,))


def reshape(a, shape):
    return _make("reshape", a.value.reshape(shape), (a,), tuple(shape))


def vslice(a, lo, hi):
    """Contiguous slice of a 1-d node."""
    return _make("vslice", a.value[lo:hi], (a,), (lo, hi))


def vpad(a, lo, n):
    """Embed a 1-d node into a zero vector of length n starting at lo."""
    out = np.zeros(n)
    out[lo:lo + a.value.shape[0]] = a.value
    return _make("vpad", out, (a,), (lo, n))


# ---------------------------------------------------------------------------
# reductions and broadcasts

def asum(a):
    """Sum of all entries; scalar output."""
    return _make("sum", a.value.sum(), (a,))


def row_sum(a):
    return _make("row_sum", a.value.sum(axis=1), (a,))


def col_sum(a):
    return _make("col_sum", a.value.sum(axis=0), (a,))


def bcast(s, shape):
    """Scalar node broadcast to a full array."""
    return _make("bcast", np.full(shape, float(s.value)), (s,), tuple(shape))


def bcast_rows(v, n_rows):
    """1-d node tiled as the rows of an (n_rows, len(v)) matrix."""
    value = np.empty((n_rows, v.value.shape[0]))
    value[...] = v.value
    return _make("bcast_rows", value, (v,), n_rows)


def bcast_cols(v, n_cols):
    """1-d node tiled as the columns of a (len(v), n_cols) matrix."""
    value = np.empty((v.value.shape[0], n_cols))
    value[...] = v.value[:, None]
    return _make("bcast_cols", value, (v,), n_cols)


def bias_add(z, b):
    """Add a bias row-vector b to every row of matrix z."""
    return _make("bias_add", z.value + b.value, (z, b))


# ---------------------------------------------------------------------------
# nonlinearities

def tanh(a):
    return _make("tanh", np.tanh(a.value), (a,))


def relu(a):
    return _make("relu", np.maximum(a.value, 0.0), (a,))


def relu_mask(a):
    """Indicator (a > 0); the derivative of relu, itself with zero derivative.

    Giving the mask an empty VJP encodes the almost-everywhere convention
    relu'' = 0, keeping relu networks inside the engine's closure under
    differentiation.
    """
    return _make("relu_mask", (a.value > 0.0).astype(np.float64), (a,))


def sqrt(a):
    return _make("sqrt", np.sqrt(a.value), (a,))


def softmax_rows(z):
    """Row-wise stable softmax of a 2-d node."""
    shifted = z.value - z.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return _make("softmax_rows", e / e.sum(axis=1, keepdims=True), (z,))


def softmax_xent(z, targets):
    """Mean cross-entropy of logits z (n, c) against integer targets (n,).

    The per-row max is subtracted before exponentiation; by shift invariance
    of softmax this changes no value and no derivative of any order, it only
    keeps exp() in range.
    """
    targets = np.asarray(targets)
    value = _xent_value(z.value, targets)
    return _make("softmax_xent", value, (z,), targets)


def _xent_value(logits, targets):
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    picked = logits[np.arange(logits.shape[0]), targets]
    return (lse - picked).mean()


# ---------------------------------------------------------------------------
# VJP table: kind -> one builder per parent, each (node, adjoint) -> Node.
# A builder may return None for "contributes nothing" (relu_mask).

def _tanh_vjp(n, g):
    one = const(np.ones_like(n.value))
    return mul(g, add(one, scale(mul(n, n), -1.0)))


def _softmax_rows_vjp(n, g):
    inner = row_sum(mul(g, n))
    return mul(n, add(g, scale(bcast_cols(inner, n.value.shape[1]), -1.0)))


def _softmax_xent_vjp(n, g):
    logits = n.parents[0]
    n_rows, n_cols = logits.value.shape
    onehot = np.zeros((n_rows, n_cols))
    onehot[np.arange(n_rows), n.meta] = 1.0
    diff = add(softmax_rows(logits), const(-onehot))
    return smul(scale(g, 1.0 / n_rows), diff)


_VJPS = {
    "add": (lambda n, g: g, lambda n, g: g),
    "scale": (lambda n, g: scale(g, n.meta),),
    "mul": (lambda n, g: mul(g, n.parents[1]), lambda n, g: mul(g, n.parents[0])),
    "div": (
        lambda n, g: div(g, n.parents[1]),
        lambda n, g: scale(mul(g, div(n, n.parents[1])), -1.0),
    ),
    "smul": (lambda n, g: asum(mul(g, n.parents[1])), lambda n, g: smul(n.parents[0], g)),
    "matmat": (
        lambda n, g: matmat(g, transpose(n.parents[1])),
        lambda n, g: matmat(transpose(n.parents[0]), g),
    ),
    "transpose": (lambda n, g: transpose(g),),
    "reshape": (lambda n, g: reshape(g, n.parents[0].value.shape),),
    "vslice": (lambda n, g: vpad(g, n.meta[0], n.parents[0].value.shape[0]),),
    "vpad": (lambda n, g: vslice(g, n.meta[0], n.meta[0] + n.parents[0].value.shape[0]),),
    "sum": (lambda n, g: bcast(g, n.parents[0].value.shape),),
    "row_sum": (lambda n, g: bcast_cols(g, n.parents[0].value.shape[1]),),
    "col_sum": (lambda n, g: bcast_rows(g, n.parents[0].value.shape[0]),),
    "bcast": (lambda n, g: asum(g),),
    "bcast_rows": (lambda n, g: col_sum(g),),
    "bcast_cols": (lambda n, g: row_sum(g),),
    "bias_add": (lambda n, g: g, lambda n, g: col_sum(g)),
    "tanh": (_tanh_vjp,),
    "relu": (lambda n, g: mul(g, relu_mask(n.parents[0])),),
    "relu_mask": (lambda n, g: None,),
    "sqrt": (lambda n, g: scale(div(g, n), 0.5),),
    "softmax_rows": (_softmax_rows_vjp,),
    "softmax_xent": (_softmax_xent_vjp,),
}


def gradients(output, wrt):
    """Adjoints of scalar node `output` with respect to each node in `wrt`.

    Returns a list of nodes (not arrays) so the result can itself be
    differentiated.  Nodes in `wrt` that `output` does not depend on get a
    zero constant of the right shape.

    Deterministic by construction: the sweep visits nodes in descending uid
    order and parents in positional order, so repeated calls on an identical
    graph accumulate adjoints in an identical sequence.
    """
    if np.ndim(output.value) != 0:
        raise ValueError("gradients() needs a scalar output node")

    # Collect the ancestry of `output`.  A parent is always older (smaller
    # uid) than its child, so a node older than every wrt node cannot lie on
    # a path from wrt to the output and the walk stops there: the gradient at
    # inner step k of an unrolled meta-gradient does not walk steps 0..k-1.
    wrt_ids = {w.uid for w in wrt}
    oldest = min(wrt_ids, default=output.uid + 1)
    seen = {}
    stack = [output]
    while stack:
        node = stack.pop()
        uid = node.uid
        if uid < oldest or uid in seen:
            continue
        seen[uid] = node
        stack.extend(node.parents)

    # Keep only nodes on a path from some wrt node to the output, in uid order.
    active = set()
    order = []
    for uid in sorted(seen):
        node = seen[uid]
        if uid not in wrt_ids:
            for parent in node.parents:
                if parent.uid in active:
                    break
            else:
                continue
        active.add(uid)
        order.append(node)

    adjoint = {}
    if output.uid in active:
        adjoint[output.uid] = const(1.0)
        for node in reversed(order):
            g = adjoint.get(node.uid)
            if g is None:
                continue
            builders = _VJPS.get(node.kind)
            if builders is None:  # input/constant leaves
                continue
            for parent, builder in zip(node.parents, builders):
                if parent.uid not in active:
                    continue
                contrib = builder(node, g)
                if contrib is None:
                    continue
                prev = adjoint.get(parent.uid)
                adjoint[parent.uid] = contrib if prev is None else add(prev, contrib)

    out = []
    for w in wrt:
        node = adjoint.get(w.uid)
        if node is None:
            node = const(np.zeros_like(w.value))
        out.append(node)
    return out


def mean_nodes(nodes):
    """Mean of scalar nodes by balanced pairwise reduction.

    Balanced pairing makes the reduction exactly reproducible under
    duplication: for k a power of two, k copies of the same loss reduce to
    bit-identical partial sums, so joint training on duplicated tasks matches
    single-task training to the last ulp.
    """
    if not nodes:
        raise ValueError("mean_nodes() needs at least one node")
    k = len(nodes)
    work = list(nodes)
    while len(work) > 1:
        nxt = [add(work[i], work[i + 1]) for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return scale(work[0], 1.0 / k)
