"""Eagerly evaluated computation graph with reverse-mode differentiation.

The one structural commitment that makes exact higher-order derivatives work:
the backward pass does not return bare arrays, it builds new graph nodes.
Differentiating a gradient (Hessian-vector products, unrolled meta-gradients)
is then just another backward pass over a larger graph, with no
special-casing and no approximation.

Each kind of node, the leaves input and constant included, has one row in
the op table (OPS): its name, its value kernel, one VJP builder per parent
and whether its result is checked for finiteness.  A public builder (add,
matmat, ...) computes the row's meta and calls its kernel; gradients() reads
each node's row for its VJPs.

Values are float64 numpy arrays, computed at node construction time.  Every
node a caller can hold is finite, and the op that would first produce a nan
or inf raises NumericalError naming its kind, so divergence surfaces at the
first bad node instead of as a mystery NaN three modules later.  A row marked
checked=False cannot turn finite inputs, which nodes are, into a non-finite
output, so it skips the check without weakening the invariant: transpose,
reshape, vslice and bcast copy entries, scatter copies its parts into zeros
(overlapping parts are added, and scatter() checks that case), tanh lies in
[-1, 1], and softmax_rows lies in [0, 1] (its shifted exponents are <= 0, an
overflowing shift is -inf, whose exp is 0, and each row sum includes
exp(0) = 1).  Every other row checks its result as it is built.

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

Three fused ops keep the tape short where the models and the meta-gradient
spend their nodes: affine(h, w, b) is h @ w + b, one node per network layer,
add_scaled(a, b, c) is a + c * b, one node per inner SGD step, and
tanh_grad(g, n) is g * (1 - n*n), one node per tanh VJP.  Each computes the
same expression as the ops it fuses and builds the same adjoints in the same
order, so values and derivatives are bit for bit unchanged: of every order
for affine and add_scaled, and to second order, that of every meta-gradient
and Hessian-vector product here, for tanh_grad, which doubles the equal
terms the two factors of n*n pass to n at once.  A third sweep passes each
adjoint of 1 - n*n on to n apart, where the three nodes summed them first,
so its last bits can move.

Memory.  The engine makes and frees an array at every node, of 100 KB - 1 MB
in an autoencoder meta-gradient.  glibc's defaults hand such memory back to
the OS when it is freed (the top of the heap once 128 KiB of it is free, and
each allocation over a threshold that slides up to 32 MiB from a mapping of
its own), so the next node faulted the same pages in again, zeroed: 31k-33k
minor faults per repetition of the autoencoder benchmark workload, 15k-18k of
the demod sweep one, and 6.8k-7.4k over ten warm autoencoder meta-gradients.
At import this module sets glibc's trim threshold to 256 MiB and its mmap
threshold to 32 MiB (setting either one stops the sliding), so freed memory
stays in the heap for the next node: each of those counts falls below 100.
The setting is process-wide, forked sweep workers inherit it, and a libc
without mallopt keeps its own.
The fused kernels, and those of softmax_rows and softmax_xent, compute into
the array they have just made (out = h @ w, then out += b), never into a
parent's value; where broadcasting would widen that array they evaluate the
plain expression, and a + b equals b + a exactly, so every value is bit for
bit unchanged.  softmax_xent keeps the softmax that its log-sum-exp already
computes in its meta, next to the targets, and its VJP's softmax_rows node
holds that array instead of computing it again.

A caller that only reads the values of the gradients passes
create_graph=False, and the sweep runs on bare values: the same builders call
the same kernels in the same order, so every value is bit for bit the same,
but in this values mode _make wraps each result in a holder with no uid, no
parents and no finiteness check, under a numpy context that ignores
overflow and invalid results, and each adjoint is dropped once its node is swept.  Only the
returned adjoints become nodes, and each is checked once.  Nothing a caller
can hold goes unchecked: every divisor and mask the sweep reads is a checked
forward node, and an inf or nan anywhere in the sweep is carried on into
some returned adjoint by the sums, products and copies that build them.  If
one is not finite, the sweep reruns with nodes, checked as they are built,
so the same NumericalError, naming the same op, is raised as by a checked
sweep.  The mode is per thread: a thread sweeping values leaves every other
thread's nodes checked.

Graphs are throwaway: build, differentiate, read values, drop.  Nothing here
mutates a node after construction; node ids increase in creation order,
which doubles as a topological order for the backward sweep.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import math
import threading

import numpy as np

from .errors import NumericalError

_uids = itertools.count()


def _keep_freed_heap():
    # Keep freed memory in the heap (see Memory in the module docstring).
    # Both thresholds are set: with only the mmap one fixed, the top of the
    # heap is still trimmed at 128 KiB, and an autoencoder benchmark
    # repetition still took 25k faults, against 32k with neither.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: trim only a free top of 256 MiB
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's 64-bit cap, 32 MiB


_keep_freed_heap()

OPS = {}  # the op table: kind -> Op, in the order the rows are stated


class Op:
    """One row of the op table.

    name    the kind, as Node.kind and NumericalError.op_kind give it
    kernel  the value, (parent values..., meta) -> array; softmax_xent's
            returns (value, softmax), and the node keeps the softmax
    vjps    one builder per parent, (node, adjoint) -> the adjoint itself or a
            node built from it; a row with none adds nothing
    checked whether the result is checked for finiteness
    """

    __slots__ = ("name", "kernel", "vjps", "checked")

    def __init__(self, name, kernel, vjps=(), checked=True):
        self.name, self.kernel, self.vjps, self.checked = name, kernel, vjps, checked
        OPS[name] = self


class Node:
    """A single value in the graph.

    op      its row of the op table; kind is op.name, e.g. "matmat"
    value   cached float64 result, computed eagerly
    parents predecessor nodes, in positional order
    meta    op-specific static data (a slice, targets, a python scalar, a
            shape), the kernel's last argument
    uid     creation counter; parent.uid < child.uid always holds
    """

    __slots__ = ("op", "value", "parents", "meta", "uid", "__weakref__")

    def __init__(self, op, value, parents=(), meta=None):
        self.op = op
        self.value = value
        self.parents = parents
        self.meta = meta
        self.uid = next(_uids)

    @property
    def kind(self):
        return self.op.name

    def __repr__(self):
        return f"Node({self.kind}, uid={self.uid}, shape={np.shape(self.value)})"


class _Value:
    """A result built in values mode: the value, and nothing to differentiate."""

    __slots__ = ("value", "__weakref__")

    def __init__(self, value):
        self.value = value


# True only inside a thread's values context, where _make builds _Values
_VALUES_ONLY = contextvars.ContextVar("values_only", default=False)


class _Quiet(threading.local):
    """A context in which numpy ignores overflow, invalid results and
    division by zero, at no measurable cost per call, unlike np.errstate.
    The finiteness check sums in one; a values-only sweep runs in another,
    which also sets values mode.  A context admits one thread at a time, so
    each thread makes its own."""

    def __init__(self, values_only):
        self.run = contextvars.Context().run
        self.run(np.seterr, all="ignore")
        self.run(_VALUES_ONLY.set, values_only)


_QUIET = _Quiet(False)
_VALUES = _Quiet(True)
_ADD_REDUCE = np.add.reduce


def _check(op, value):
    # One reduction catches any nan/inf; a non-finite sum can also come from
    # finite entries that overflow when added, so it is confirmed entrywise.
    if not math.isfinite(_QUIET.run(_ADD_REDUCE, value, None)) and not np.isfinite(value).all():
        raise NumericalError(f"non-finite value produced by op '{op.name}'", op_kind=op.name)


def _make(op, value, parents=(), meta=None):
    if type(value) is not np.ndarray:  # a kernel's 0-d result is a numpy scalar
        value = np.asarray(value)
    if _VALUES_ONLY.get():
        return _Value(value)
    if op.checked:
        _check(op, value)
    return Node(op, value, parents, meta)


def _into(ufunc, fresh, other):
    """ufunc(fresh, other), written into fresh, an array the calling kernel
    has just made and no node holds.  Where other would widen it by
    broadcasting, or fresh is a numpy scalar (a 0-d product), the result is a
    new array of the same values."""
    try:
        return ufunc(fresh, other, out=fresh)
    except (TypeError, ValueError):
        return ufunc(fresh, other)


def _sum_to(d, parent):
    """Adjoint d summed to the shape of parent, which it may broadcast."""
    shape = parent.value.shape
    return d if d.value.shape == shape else asum(d, shape)


def _summed(i):  # the VJP that sums the adjoint to the shape of parent i
    return lambda n, g: _sum_to(g, n.parents[i])


# ---------------------------------------------------------------------------
# leaves: the kernel makes the caller's array float64, which every op keeps

_INPUT = Op("input", lambda x: np.asarray(x, dtype=np.float64))
_CONSTANT = Op("constant", lambda x: np.asarray(x, dtype=np.float64))


def inp(x):
    """Leaf the caller will differentiate with respect to."""
    return _make(_INPUT, _INPUT.kernel(x))


def const(x):
    """Leaf treated as fixed data; receives no adjoint."""
    return _make(_CONSTANT, _CONSTANT.kernel(x))


# ---------------------------------------------------------------------------
# arithmetic: add, mul and div broadcast by numpy's rule

_ADD = Op("add", lambda a, b, _: a + b, (_summed(0), _summed(1)))
_SCALE = Op("scale", lambda a, c: a * c, (lambda n, g: scale(g, n.meta),))
_ADD_SCALED = Op("add_scaled", lambda a, b, c: _into(np.add, b * c, a), (_summed(0), lambda n, g: scale(g, n.meta)))
_MUL = Op("mul", lambda a, b, _: a * b, (lambda n, g: _sum_to(mul(g, n.parents[1]), n.parents[0]),
                                         lambda n, g: _sum_to(mul(g, n.parents[0]), n.parents[1])))
_DIV = Op("div", lambda a, b, _: a / b, (lambda n, g: _sum_to(div(g, n.parents[1]), n.parents[0]),
                                         lambda n, g: scale(_sum_to(mul(g, div(n, n.parents[1])), n.parents[1]), -1.0)))


def add(a, b):
    return _make(_ADD, _ADD.kernel(a.value, b.value, None), (a, b))


def scale(a, c):
    """a * c for a python scalar c (kept out of the graph)."""
    c = float(c)
    return _make(_SCALE, _SCALE.kernel(a.value, c), (a,), c)


def add_scaled(a, b, c):
    """a + c * b for a python scalar c, as one node: add(a, scale(b, c)).

    b has the result's shape and a broadcasts to it (in an inner SGD step,
    a parameter vector stepped by its gradient, both of one shape).
    """
    c = float(c)
    return _make(_ADD_SCALED, _ADD_SCALED.kernel(a.value, b.value, c), (a, b), c)


def mul(a, b):
    return _make(_MUL, _MUL.kernel(a.value, b.value, None), (a, b))


def div(a, b):
    return _make(_DIV, _DIV.kernel(a.value, b.value, None), (a, b))


# ---------------------------------------------------------------------------
# linear algebra

_MATMAT = Op("matmat", lambda a, b, _: a @ b, (lambda n, g: matmat(g, transpose(n.parents[1])),
                                               lambda n, g: matmat(transpose(n.parents[0]), g)))
_AFFINE = Op("affine", lambda b, h, w, _: _into(np.add, h @ w, b), (_summed(0),
                                                      lambda n, g: matmat(g, transpose(n.parents[2])),
                                                      lambda n, g: matmat(transpose(n.parents[1]), g)))
_TRANSPOSE = Op("transpose", lambda a, _: a.swapaxes(-1, -2), (lambda n, g: transpose(g),), checked=False)
_RESHAPE = Op("reshape", lambda a, shape: a.reshape(shape), (lambda n, g: reshape(g, n.parents[0].value.shape),),
              checked=False)
_VSLICE = Op("vslice", lambda a, s: a[..., s],
             (lambda n, g: scatter((g,), (n.meta.start,), n.parents[0].value.shape[-1]),), checked=False)


class _EachPart:
    """The VJPs of a scatter: part i's adjoint is its slice of the scatter's adjoint."""
    def __getitem__(self, i):
        return lambda n, g: vslice(g, n.meta[0][i], n.meta[0][i] + n.parents[i].value.shape[-1])


def _scatter_value(*args):
    *parts, (los, n) = args
    out = np.zeros(parts[0].shape[:-1] + (n,))
    for part, lo in zip(parts, los):
        out[..., lo:lo + part.shape[-1]] += part
    return out


_SCATTER = Op("scatter", _scatter_value, _EachPart(), checked=False)


def matmat(a, b):
    return _make(_MATMAT, _MATMAT.kernel(a.value, b.value, None), (a, b))


def affine(h, w, b):
    """h @ w + b as one node: add(matmat(h, w), b), b broadcast over rows.

    Its parents are (b, h, w): the sweep builds b's adjoint first and then
    h's and w's, the order it built them in for add and then matmat, so a
    further backward adds up their contributions in the same order.
    """
    return _make(_AFFINE, _AFFINE.kernel(b.value, h.value, w.value, None), (b, h, w))


def transpose(a):
    """Swap of the last two axes."""
    return _make(_TRANSPOSE, _TRANSPOSE.kernel(a.value, None), (a,))


def reshape(a, shape):
    shape = tuple(shape)
    return _make(_RESHAPE, _RESHAPE.kernel(a.value, shape), (a,), shape)


def vslice(a, lo, hi):
    """Entries lo:hi of a's last axis."""
    s = slice(lo, hi)
    return _make(_VSLICE, _VSLICE.kernel(a.value, s), (a,), s)


def scatter(parts, los, n):
    """Zeros of length n on the last axis with parts[i] added in at los[i].

    The parts share their leading axes.  Overlapping parts are added in the
    order given, and only then can the result overflow, so only then is it
    checked.  The adjoint of vslice, and of all the slices of one node at
    once in gradients().
    """
    parts, meta = tuple(parts), (tuple(los), n)
    out = _SCATTER.kernel(*[part.value for part in parts], meta)
    if not _VALUES_ONLY.get():
        spans = sorted((lo, lo + part.value.shape[-1]) for part, lo in zip(parts, meta[0]))
        if any(lo < prev_hi for (_, prev_hi), (lo, _) in zip(spans, spans[1:])):
            _check(_SCATTER, out)
    return _make(_SCATTER, out, parts, meta)


# ---------------------------------------------------------------------------
# reductions and broadcasts


def _sum_value(v, shape):
    if not shape:
        return v.sum()
    if shape == v.shape[1:]:  # rows onto one row
        return v.sum(axis=0)
    if shape == v.shape[:-1] + (1,):  # each row of the last axis onto one entry
        return v.sum(axis=-1, keepdims=True)
    lead = v.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return v.sum(axis=axes, keepdims=True).reshape(shape)


def _bcast_value(v, shape):
    out = np.empty(shape)
    out[...] = v
    return out


_SUM = Op("sum", _sum_value, (lambda n, g: bcast(g, n.parents[0].value.shape),))
_BCAST = Op("bcast", _bcast_value, (lambda n, g: asum(g, n.parents[0].value.shape),), checked=False)


def asum(a, shape=()):
    """Sum of a down to `shape`: over the leading axes a has beyond len(shape),
    and over the axes where shape has size 1.  The default sums everything
    to a scalar.  The adjoint of a broadcast to a's shape."""
    return _make(_SUM, _SUM.kernel(a.value, shape), (a,), shape)


def bcast(a, shape):
    """a broadcast to `shape` by numpy's rule; the adjoint of asum."""
    return _make(_BCAST, _BCAST.kernel(a.value, shape), (a,), shape)


# ---------------------------------------------------------------------------
# nonlinearities


def _softmax_value(z, _):
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_rows_vjp(n, g):
    inner = asum(mul(g, n), n.value.shape[:-1] + (1,))
    return mul(n, add(g, scale(inner, -1.0)))


def _xent_value(logits, targets):
    """The mean cross-entropy, and the softmax of the logits, which the node
    keeps for its VJP: the exponentials and row sums of the log-sum-exp are
    those _softmax_value computes, so it is softmax_rows' value bit for bit."""
    m = logits.max(axis=-1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    lse = _into(np.add, np.log(s[..., 0]), m[..., 0])
    rows = logits.reshape(-1, logits.shape[-1])
    picked = rows[np.arange(rows.shape[0]), targets.ravel()].reshape(targets.shape)
    e /= s
    return _into(np.subtract, lse, picked).mean(axis=-1), e


def _softmax_xent_vjp(n, g):
    logits = n.parents[0]
    targets, probs = n.meta
    *_, n_rows, n_cols = logits.value.shape
    onehot = (targets[..., None] == np.arange(n_cols)).astype(np.float64)
    diff = add(softmax_rows(logits, probs), const(-onehot))
    weight = scale(g, 1.0 / n_rows)
    if g.value.ndim:  # one weight per task of a stack, over its (n, c) block
        weight = reshape(weight, g.value.shape + (1, 1))
    return mul(weight, diff)


def _tanh_grad_value(g, n, _):
    t = n * n
    if type(t) is not np.ndarray:  # a 0-d product is a numpy scalar
        return g * (1 - t)
    np.subtract(1, t, out=t)
    return _into(np.multiply, t, g)


_TANH = Op("tanh", lambda a, _: np.tanh(a), (lambda n, g: tanh_grad(g, n),), checked=False)
_TANH_GRAD = Op("tanh_grad", _tanh_grad_value,
                (lambda n, g: tanh_grad(g, n.parents[1]),
                 lambda n, g: scale(mul(mul(g, n.parents[0]), n.parents[1]), -2.0)))
_SQRT = Op("sqrt", lambda a, _: np.sqrt(a), (lambda n, g: scale(div(g, n), 0.5),))
_SOFTMAX_ROWS = Op("softmax_rows", _softmax_value, (_softmax_rows_vjp,), checked=False)
_SOFTMAX_XENT = Op("softmax_xent", _xent_value, (_softmax_xent_vjp,))


def tanh(a):
    return _make(_TANH, _TANH.kernel(a.value, None), (a,))


def tanh_grad(g, n):
    """g * (1 - n*n), the VJP of n = tanh(a) for adjoint g, as one node.

    The fusion of mul(g, add_scaled(1, mul(n, n), -1.0)).  Its parents are
    (g, n): the sweep builds g's adjoint first and then n's, the two equal
    terms -(adjoint * g) * n of n*n's factors as one, doubled, which is
    exact.  A second sweep reaches this node before any other adjoint of n,
    so n's adjoint is the sum the three nodes built, bit for bit.
    """
    return _make(_TANH_GRAD, _TANH_GRAD.kernel(g.value, n.value, None), (g, n))


def sqrt(a):
    return _make(_SQRT, _SQRT.kernel(a.value, None), (a,))


def softmax_rows(z, value=None):
    """Stable softmax of each row (last axis) of a 2-d node or of a stack.

    `value` is that softmax already computed, as softmax_xent keeps it for
    its VJP; the node then holds that array.
    """
    if value is None:
        value = _SOFTMAX_ROWS.kernel(z.value, None)
    return _make(_SOFTMAX_ROWS, value, (z,))


def softmax_xent(z, targets):
    """Mean cross-entropy of logits z (n, c) against integer targets (n,).

    For a stack, logits (T, n, c) and targets (T, n), the value is the (T,)
    vector of per-task means.  The per-row max is subtracted before
    exponentiation; by shift invariance of softmax this changes no value and
    no derivative of any order, it only keeps exp() in range.
    """
    targets = np.asarray(targets)
    value, probs = _SOFTMAX_XENT.kernel(z.value, targets)
    return _make(_SOFTMAX_XENT, value, (z,), (targets, probs))


def gradients(output, wrt, create_graph=True):
    """Adjoints of scalar node `output` with respect to each node in `wrt`.

    Returns a list of nodes (not arrays) so the result can itself be
    differentiated.  Nodes in `wrt` that `output` does not depend on get a
    zero constant of the right shape.

    With create_graph=False the sweep runs in values mode (see the module
    docstring): it builds no nodes, keeps each adjoint only until its node
    is swept, and returns one constant per wrt node, with bit for bit the
    values the node sweep gives.  A caller that reads .value and
    differentiates no further keeps no adjoint graph alive.

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

    if not create_graph:
        found = _VALUES.run(_sweep, output, order, active, wrt_ids)
        try:
            return [const(found[w.uid].value if w.uid in found else np.zeros_like(w.value)) for w in wrt]
        except NumericalError:
            pass  # rerun checked, so that the op that first went non-finite raises
    found = _sweep(output, order, active, wrt_ids)
    return [found.get(w.uid) or const(np.zeros_like(w.value)) for w in wrt]


def _sweep(output, order, active, wrt_ids):
    """The reverse sweep over `order`: the adjoints of the wrt nodes, by uid.

    A node read through vslices (a flat parameter vector, or a stack of
    them) has the slices' adjoints collected in `parts`, in sweep order, and
    placed by one scatter when the sweep reaches it; that scatter is then
    added to the sum of its other adjoints, if it has any.  An adjoint
    leaves `adjoint` when its node is swept; those of wrt nodes are kept in
    `found`.
    """
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
            if g is None:
                continue
            if uid in wrt_ids:
                found[uid] = g
            if node.op is _VSLICE:
                parent = node.parents[0]
                if parent.uid in active:
                    adjs, los = parts.setdefault(parent.uid, ([], []))
                    adjs.append(g)
                    los.append(node.meta.start)
                continue
            for parent, builder in zip(node.parents, node.op.vjps):
                if parent.uid not in active:
                    continue
                contrib = builder(node, g)
                prev = adjoint.get(parent.uid)
                if prev is not None:
                    contrib = add(prev, contrib)
                adjoint[parent.uid] = contrib
    return found
