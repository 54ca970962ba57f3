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
create a non-finite value from finite inputs (arithmetic, products, sums,
sqrt, cross-entropy) check their result as they are built.  The remaining
ops (_FINITE_PRESERVING) only move, copy or zero entries, or map them into a
bounded range, so finite inputs give finite outputs; since their inputs are
nodes, and so already finite, they skip the check without weakening the
invariant.

Broadcasting has one rule, numpy's: add, mul and div accept any two
broadcast-compatible operands, and their VJPs sum each adjoint back to its
operand's shape with asum(g, shape).  asum and bcast are each other's VJP;
between them they are every reduction and every broadcast the models need.

The structural ops act on the last axes, so a leading task axis passes
through them: vslice and scatter cut and place entries on the last axis,
transpose swaps the last two, matmat multiplies matrix by matrix for each
leading index, and softmax_rows and softmax_xent work row by row on the last
two (softmax_xent gives one mean per leading index).  A (T, P) stack of
parameter vectors and (T, n, d) data then run T independent models in one
graph, each row bit for bit as it runs alone.  gradients() builds the
adjoint of a node read through several slices (a flat parameter vector) as
one scatter of all the slice adjoints, instead of one zero-padded copy per
slice added up in turn.

Two fused ops keep the tape short where the models and the meta-gradient
spend their nodes: affine(h, w, b) is h @ w + b, one node per network layer,
and add_scaled(a, b, c) is a + c * b, one node per inner SGD step and per
tanh VJP.  Each computes the same expression as the ops it fuses and builds
the same adjoints, so values and derivatives of every order are unchanged.

A caller that only reads the values of the gradients passes
create_graph=False: the sweep is the same, but the adjoints it builds hold
no parents, and each is dropped once its node is swept, so no adjoint graph
outlives the sweep and peak memory is that of the forward graph plus a few
adjoints.

Graphs are throwaway: build, differentiate, read values, drop.  Nothing here
mutates a node after construction, apart from such a sweep cutting the
parents of the adjoints it has just built, which nothing else holds; node
ids increase in creation order, which doubles as a topological order for the
backward sweep.
"""

from __future__ import annotations

import contextvars
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
    meta    op-specific static data (slice bounds, targets, a python scalar,
            whether broadcast operand shapes differ)
    uid     creation counter; parent.uid < child.uid always holds
    """

    __slots__ = ("kind", "value", "parents", "meta", "uid", "__weakref__")

    def __init__(self, kind, value, parents=(), meta=None):
        self.kind = kind
        self.value = value
        self.parents = parents
        self.meta = meta
        self.uid = next(_uids)

    def __repr__(self):
        return f"Node({self.kind}, uid={self.uid}, shape={np.shape(self.value)})"


# Ops that cannot turn finite inputs into a non-finite output: transpose,
# reshape, vslice and bcast copy existing entries, and scatter copies its
# parts into zeros (sum, which adds entries, can overflow and is checked, and
# so is a scatter whose parts overlap and are added, in scatter() itself);
# tanh lies in [-1, 1], relu_mask in {0, 1} and relu is an entry or 0;
# softmax_rows lies in [0, 1], because the shifted exponents are <= 0 (an
# overflowing shift is -inf, whose exp is 0) and each row sum includes
# exp(0) = 1.
_FINITE_PRESERVING = frozenset({
    "transpose", "reshape", "vslice", "scatter", "bcast",
    "tanh", "relu", "relu_mask", "softmax_rows",
})

# The finiteness check sums in this context, where numpy ignores overflow and
# invalid results, so finite entries whose sum overflows raise no warning.
# Unlike an np.errstate block it adds no measurable time per node; it admits one
# thread at a time, and graphs are built on one thread.
_QUIET = contextvars.copy_context()
_QUIET.run(np.seterr, over="ignore", invalid="ignore")
_ADD_REDUCE = np.add.reduce


def _check(kind, value):
    # One reduction catches any nan/inf (inf sums stay non-finite); a
    # non-finite sum can also come from finite entries that overflow when
    # added, so it is confirmed entrywise.
    if not math.isfinite(_QUIET.run(_ADD_REDUCE, value, None)) and not np.isfinite(value).all():
        raise NumericalError(f"non-finite value produced by op '{kind}'", op_kind=kind)


def _make(kind, value, parents=(), meta=None):
    value = np.asarray(value, dtype=np.float64)
    # Every op outside _FINITE_PRESERVING checks its result here, so every
    # node value is finite and the first bad op is the one that raises.
    if kind not in _FINITE_PRESERVING:
        _check(kind, value)
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
#
# add, mul and div broadcast by numpy's rule; meta records whether the
# operand shapes differ, so their VJPs look at shapes only when they do.

def add(a, b):
    return _make("add", a.value + b.value, (a, b), a.value.shape != b.value.shape)


def scale(a, c):
    """a * c for a python scalar c (kept out of the graph)."""
    return _make("scale", a.value * float(c), (a,), float(c))


def add_scaled(a, b, c):
    """a + c * b for a python scalar c, as one node: add(a, scale(b, c)).

    b has the result's shape and a broadcasts to it (the 0-d one of tanh's
    1 - n*n, or a parameter vector stepped by its gradient).
    """
    c = float(c)
    return _make("add_scaled", a.value + b.value * c, (a, b), c)


def mul(a, b):
    return _make("mul", a.value * b.value, (a, b), a.value.shape != b.value.shape)


def div(a, b):
    return _make("div", a.value / b.value, (a, b), a.value.shape != b.value.shape)


# ---------------------------------------------------------------------------
# linear algebra

def matmat(a, b):
    return _make("matmat", a.value @ b.value, (a, b))


def affine(h, w, b):
    """h @ w + b as one node: add(matmat(h, w), b), b broadcast over rows.

    Its parents are (b, h, w): the sweep builds b's adjoint first and then
    h's and w's, the order it built them in for add and then matmat, so a
    further backward adds up their contributions in the same order.
    """
    return _make("affine", h.value @ w.value + b.value, (b, h, w))


def transpose(a):
    """Swap of the last two axes."""
    return _make("transpose", a.value.swapaxes(-1, -2), (a,))


def reshape(a, shape):
    return _make("reshape", a.value.reshape(shape), (a,), tuple(shape))


def vslice(a, lo, hi):
    """Entries lo:hi of a's last axis."""
    return _make("vslice", a.value[..., lo:hi], (a,), (lo, hi))


def scatter(parts, los, n):
    """Zeros of length n on the last axis with parts[i] added in at los[i].

    The parts share their leading axes.  Overlapping parts are added in the
    order given, and only then can the result overflow, so only then is it
    checked.  The adjoint of vslice, and of all the slices of one node at
    once in gradients().
    """
    parts, los = tuple(parts), tuple(los)
    out = np.zeros(parts[0].value.shape[:-1] + (n,))
    spans = []
    for part, lo in zip(parts, los):
        hi = lo + part.value.shape[-1]
        out[..., lo:hi] += part.value
        spans.append((lo, hi))
    spans.sort()
    if any(lo < prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
        _check("scatter", out)
    return _make("scatter", out, parts, los)


# ---------------------------------------------------------------------------
# reductions and broadcasts

def asum(a, shape=()):
    """Sum of a down to `shape`: over the leading axes a has beyond len(shape),
    and over the axes where shape has size 1.  The default sums everything
    to a scalar.  The adjoint of a broadcast to a's shape."""
    v = a.value
    if not shape:
        value = v.sum()
    elif shape == v.shape[1:]:  # rows onto one row
        value = v.sum(axis=0)
    elif shape == v.shape[:-1] + (1,):  # each row of the last axis onto one entry
        value = v.sum(axis=-1, keepdims=True)
    else:
        lead = v.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
        value = v.sum(axis=axes, keepdims=True).reshape(shape)
    return _make("sum", value, (a,))


def bcast(a, shape):
    """a broadcast to `shape` by numpy's rule; the adjoint of asum."""
    value = np.empty(shape)
    value[...] = a.value
    return _make("bcast", value, (a,))


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
    """Stable softmax of each row (last axis) of a 2-d node or of a stack."""
    shifted = z.value - z.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return _make("softmax_rows", e / e.sum(axis=-1, keepdims=True), (z,))


def softmax_xent(z, targets):
    """Mean cross-entropy of logits z (n, c) against integer targets (n,).

    For a stack, logits (T, n, c) and targets (T, n), the value is the (T,)
    vector of per-task means.  The per-row max is subtracted before
    exponentiation; by shift invariance of softmax this changes no value and
    no derivative of any order, it only keeps exp() in range.
    """
    targets = np.asarray(targets)
    value = _xent_value(z.value, targets)
    return _make("softmax_xent", value, (z,), targets)


def _xent_value(logits, targets):
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    rows = logits.reshape(-1, logits.shape[-1])
    picked = rows[np.arange(rows.shape[0]), targets.ravel()].reshape(targets.shape)
    return (lse - picked).mean(axis=-1)


# ---------------------------------------------------------------------------
# VJP table: kind -> one builder per parent, each (node, adjoint) -> Node.
# A builder may return None for "contributes nothing" (relu_mask).  It
# returns the adjoint itself or a node built from it, never a node of the
# forward graph, whose parents a create_graph=False sweep would cut.

# One 0-d constant shared by every tanh VJP.  It is older than any node a
# caller differentiates with respect to, so the sweep never walks it.
_ONE = const(1.0)

def _tanh_vjp(n, g):
    return mul(g, add_scaled(_ONE, mul(n, n), -1.0))


def _softmax_rows_vjp(n, g):
    inner = asum(mul(g, n), n.value.shape[:-1] + (1,))
    return mul(n, add(g, scale(inner, -1.0)))


def _softmax_xent_vjp(n, g):
    logits = n.parents[0]
    *_, n_rows, n_cols = logits.value.shape
    onehot = (n.meta[..., None] == np.arange(n_cols)).astype(np.float64)
    diff = add(softmax_rows(logits), const(-onehot))
    weight = scale(g, 1.0 / n_rows)
    if g.value.ndim:  # one weight per task of a stack, over its (n, c) block
        weight = reshape(weight, g.value.shape + (1, 1))
    return mul(weight, diff)


class _EachPart:
    """The VJP builders of a scatter, one per part: part i's adjoint is its
    slice of the scatter's adjoint."""

    def __getitem__(self, i):
        return lambda n, g: vslice(g, n.meta[i], n.meta[i] + n.parents[i].value.shape[-1])


def _sum_to(d, parent):
    """Adjoint d summed to the shape of parent, which it may broadcast."""
    shape = parent.value.shape
    return d if d.value.shape == shape else asum(d, shape)


def _fit(d, n, i):
    """Adjoint d of parent i of the broadcasting op n, summed to its shape."""
    return _sum_to(d, n.parents[i]) if n.meta else d


_VJPS = {
    "add": (lambda n, g: _fit(g, n, 0), lambda n, g: _fit(g, n, 1)),
    "scale": (lambda n, g: scale(g, n.meta),),
    "add_scaled": (lambda n, g: _sum_to(g, n.parents[0]), lambda n, g: scale(g, n.meta)),
    "mul": (lambda n, g: _fit(mul(g, n.parents[1]), n, 0), lambda n, g: _fit(mul(g, n.parents[0]), n, 1)),
    "div": (
        lambda n, g: _fit(div(g, n.parents[1]), n, 0),
        lambda n, g: scale(_fit(mul(g, div(n, n.parents[1])), n, 1), -1.0),
    ),
    "matmat": (
        lambda n, g: matmat(g, transpose(n.parents[1])),
        lambda n, g: matmat(transpose(n.parents[0]), g),
    ),
    "affine": (
        lambda n, g: _sum_to(g, n.parents[0]),
        lambda n, g: matmat(g, transpose(n.parents[2])),
        lambda n, g: matmat(transpose(n.parents[1]), g),
    ),
    "transpose": (lambda n, g: transpose(g),),
    "reshape": (lambda n, g: reshape(g, n.parents[0].value.shape),),
    "vslice": (lambda n, g: scatter((g,), (n.meta[0],), n.parents[0].value.shape[-1]),),
    "scatter": _EachPart(),
    "sum": (lambda n, g: bcast(g, n.parents[0].value.shape),),
    "bcast": (lambda n, g: asum(g, n.parents[0].value.shape),),
    "tanh": (_tanh_vjp,),
    "relu": (lambda n, g: mul(g, relu_mask(n.parents[0])),),
    "relu_mask": (lambda n, g: None,),
    "sqrt": (lambda n, g: scale(div(g, n), 0.5),),
    "softmax_rows": (_softmax_rows_vjp,),
    "softmax_xent": (_softmax_xent_vjp,),
}


def gradients(output, wrt, create_graph=True):
    """Adjoints of scalar node `output` with respect to each node in `wrt`.

    Returns a list of nodes (not arrays) so the result can itself be
    differentiated.  Nodes in `wrt` that `output` does not depend on get a
    zero constant of the right shape.

    With create_graph=False the sweep is the same and the values are bit for
    bit the same, but every adjoint it builds (each contribution, and each
    sum of them) holds no parents, and each is dropped once its node is
    swept.  The returned nodes then only carry values: a caller that reads
    .value and differentiates no further keeps no adjoint graph alive.

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

    # A node read through vslices (a flat parameter vector, or a stack of
    # them) has the slices' adjoints collected in `parts`, in sweep order,
    # and placed by one scatter when the sweep reaches it; that scatter is
    # then added to the sum of its other adjoints, if it has any.  An
    # adjoint leaves `adjoint` when its node is swept; those of wrt nodes
    # are kept in `found`.
    adjoint = {}
    parts = {}
    found = {}
    if output.uid in active:
        adjoint[output.uid] = const(1.0)
        for node in reversed(order):
            uid = node.uid
            g = adjoint.pop(uid, None)
            pending = parts.pop(uid, None)
            if pending is not None:
                placed = scatter(pending[0], pending[1], node.value.shape[-1])
                g = placed if g is None else add(g, placed)
                if not create_graph:
                    g.parents = ()
            if g is None:
                continue
            if uid in wrt_ids:
                found[uid] = g
            if node.kind == "vslice":
                parent = node.parents[0]
                if parent.uid in active:
                    adjs, los = parts.setdefault(parent.uid, ([], []))
                    adjs.append(g)
                    los.append(node.meta[0])
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
                if prev is not None:
                    contrib = add(prev, contrib)
                if not create_graph:
                    contrib.parents = ()
                adjoint[parent.uid] = contrib

    out = []
    for w in wrt:
        node = found.get(w.uid)
        if node is None:
            node = const(np.zeros_like(w.value))
        out.append(node)
    return out
