"""Flat-parameter MLPs and the autoencoder used for end-to-end link training.

All trainable parameters live in one flat float64 vector so the derivative
machinery never has to know about layers.  The layout per layer is
[W (in*out, row-major), b (out)], layers in order.  An architecture is a
tuple of (fan_in, fan_out, activation) with activation "tanh" or "linear";
every network built here has tanh hidden layers and a linear output layer
(logits or channel symbols).

Each network has one forward, built from graph nodes: training
differentiates it to any order, and evaluation reads its value.  Each also
takes an (S, P) stack on shared inputs, row s bit for bit vector s alone:
harness scores a device's demodulators as one stack.  With a leading task
axis on the data (each loss's `stack`: stack_datasets or
stack_autoencoder_batches) row t runs on task t's data instead, which is
how meta-training stacks its tasks and the autoencoder's deployment its
test channels.  Like every graph
value, evaluation logits are finite: an overflow raises NumericalError
instead of being argmax-ed.

The autoencoder's encoder sees only its n_messages one-hot inputs, so it
runs once per message, not once per block: the forward encodes the identity
into a codebook and each block selects its message's codeword from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graph
from .channel import BLOCK_TAPS
from .errors import ConfigurationError

_ACTIVATIONS = ("tanh", "linear")


def mlp_arch(sizes):
    """Architecture tuple for a fully-connected tanh net with linear output.

    >>> mlp_arch((2, 32, 16))
    ((2, 32, 'tanh'), (32, 16, 'linear'))
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigurationError(f"bad layer sizes {sizes}")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        act = "linear" if i == len(sizes) - 2 else "tanh"
        layers.append((fan_in, fan_out, act))
    return tuple(layers)


def param_count(arch):
    return sum(fi * fo + fo for fi, fo, _ in arch)


def _check_arch(arch):
    if not arch:
        raise ConfigurationError("empty architecture")
    for layer in arch:
        if len(layer) != 3:
            raise ConfigurationError(f"bad layer spec {layer!r}")
        fan_in, fan_out, act = layer
        if fan_in < 1 or fan_out < 1:
            raise ConfigurationError(f"non-positive layer dims in {layer!r}")
        if act not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation '{act}'")
    # No adjacency check here: a ParamVector may pack several independent
    # networks (encoder + decoder) into one flat vector.  Chained widths are
    # enforced where the parameters are actually consumed, in the forwards.


@dataclass(frozen=True)
class ParamVector:
    """Flat parameter vector plus the architecture that interprets it."""

    values: np.ndarray
    arch: tuple

    def __post_init__(self):
        _check_arch(self.arch)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ConfigurationError(f"parameter vector must be 1-d, got {values.shape}")
        expected = param_count(self.arch)
        if values.shape[0] != expected:
            raise ConfigurationError(
                f"architecture needs {expected} parameters, vector has {values.shape[0]}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "arch", tuple(tuple(layer) for layer in self.arch))

    def __len__(self):
        return self.values.shape[0]

    def with_values(self, values):
        return ParamVector(values, self.arch)


def init_params(arch, seed):
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    _check_arch(arch)
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out, _ in arch:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), arch)


@dataclass(frozen=True)
class Dataset:
    """Supervised batch: real-valued inputs and integer class targets.

    inputs are (n, d) with targets (n,), or a stack of T tasks' batches,
    (T, n, d) with targets (T, n) (see stack_datasets); len() is n.
    """

    inputs: np.ndarray
    targets: np.ndarray
    n_classes: int

    def __post_init__(self):
        # copies: freezing must not reach the caller's arrays
        inputs = np.array(self.inputs, dtype=np.float64)
        targets = np.array(self.targets, dtype=np.int64)
        if inputs.ndim not in (2, 3):
            raise ConfigurationError(f"inputs must be (n, d) or (T, n, d), got {inputs.shape}")
        if targets.shape != inputs.shape[:-1]:
            raise ConfigurationError(
                f"targets shape {targets.shape} does not match inputs {inputs.shape}"
            )
        if self.n_classes < 1:
            raise ConfigurationError("n_classes must be positive")
        if targets.size and (targets.min() < 0 or targets.max() >= self.n_classes):
            raise ConfigurationError("targets out of range")
        inputs.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self):
        return self.inputs.shape[-2]


def stack_datasets(datasets):
    """One Dataset holding equally shaped task datasets along a leading task axis."""
    datasets = tuple(datasets)
    shapes = {(d.inputs.shape, d.n_classes) for d in datasets}
    if len(shapes) != 1 or datasets[0].inputs.ndim != 2:
        raise ConfigurationError(
            f"a stack needs (n, d) datasets of one shape and class count, got {sorted(shapes)}"
        )
    return Dataset(
        np.stack([d.inputs for d in datasets]), np.stack([d.targets for d in datasets]), datasets[0].n_classes
    )


def pool_datasets(datasets):
    """One (T·n, d) Dataset of the rows of T equally shaped (n, d) task datasets,
    in order: its mean loss is the mean of the per-task losses."""
    stack = stack_datasets(datasets)
    return Dataset(stack.inputs.reshape(-1, stack.inputs.shape[-1]), stack.targets.reshape(-1), stack.n_classes)


@dataclass(frozen=True)
class AutoencoderBatch:
    """Everything random in one autoencoder training draw, frozen as data.

    channel_matrix is the real-stacked convolution matrix of the task's taps
    and noise the real-stacked additive noise at the task's SNR, so the loss
    built on this batch is exactly the Monte-Carlo sample the transmitter
    would have seen.  A stack of T tasks' draws (stack_autoencoder_batches)
    carries a leading task axis on every field: messages (T, n), noise
    (T, n, rx_width) and channel_matrix (T, rx_width, 2 n_uses); len() is n.
    """

    messages: np.ndarray
    noise: np.ndarray
    channel_matrix: np.ndarray
    spec: AutoencoderSpec

    def __post_init__(self):
        # copies: freezing must not reach the caller's arrays
        messages = np.array(self.messages, dtype=np.int64)
        noise = np.array(self.noise, dtype=np.float64)
        matrix = np.array(self.channel_matrix, dtype=np.float64)
        rx_width = self.spec.rx_width
        if messages.ndim not in (1, 2) or messages.size < 1:
            raise ConfigurationError("batch needs at least one message, as (n,) or a (T, n) stack of T >= 1 tasks")
        if messages.min() < 0 or messages.max() >= self.spec.n_messages:
            raise ConfigurationError("message indices out of range")
        lead = messages.shape[:-1]
        if noise.shape != messages.shape + (rx_width,):
            raise ConfigurationError(f"noise must be {messages.shape + (rx_width,)}, got {noise.shape}")
        if matrix.shape != lead + (rx_width, 2 * self.spec.n_uses):
            raise ConfigurationError(
                f"channel matrix must be {lead + (rx_width, 2 * self.spec.n_uses)} for the spec, got {matrix.shape}"
            )
        for name, arr in (("messages", messages), ("noise", noise), ("channel_matrix", matrix)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.messages.shape[-1]


def stack_autoencoder_batches(batches):
    """One AutoencoderBatch holding single-task batches of one spec and block
    count along a leading task axis, in order."""
    batches = tuple(batches)
    if not batches or any(b.messages.ndim != 1 for b in batches):
        raise ConfigurationError("a stack needs one or more single-task batches")
    if len({(b.spec, len(b)) for b in batches}) != 1:
        raise ConfigurationError("a stack needs batches of one spec and one block count")
    return AutoencoderBatch(
        np.stack([b.messages for b in batches]),
        np.stack([b.noise for b in batches]),
        np.stack([b.channel_matrix for b in batches]),
        batches[0].spec,
    )


# ---------------------------------------------------------------------------
# graph builders

def mlp_logits_node(p_node, arch, x):
    """Forward pass as graph nodes; x is an (n, d) array or an (n, d) Node.

    p_node may also be a (T, P) stack of parameter vectors, with (T, n, d)
    inputs or (n, d) inputs shared by all: the (T, n, k) logits then hold
    network t on its inputs at row t.
    """
    _check_arch(arch)
    h = x if isinstance(x, graph.Node) else graph.const(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    lead = p_node.value.shape[:-1]
    offset = 0
    for fan_in, fan_out, act in arch:
        if h.value.shape[-1] != fan_in:
            raise ConfigurationError(
                f"layer expects width {fan_in}, got {h.value.shape[-1]}"
            )
        w = graph.reshape(graph.vslice(p_node, offset, offset + fan_in * fan_out), lead + (fan_in, fan_out))
        offset += fan_in * fan_out
        b = graph.vslice(p_node, offset, offset + fan_out)
        if lead:  # one bias row per task, broadcast over that task's samples
            b = graph.reshape(b, lead + (1, fan_out))
        offset += fan_out
        h = graph.affine(h, w, b)
        h = graph.tanh(h) if act == "tanh" else h
    if offset != p_node.value.shape[-1]:
        raise ConfigurationError(
            f"architecture consumes {offset} parameters, vector has {p_node.value.shape[-1]}"
        )
    return h


def make_mlp_lossfn(arch):
    """Loss function f(p_node, dataset) -> mean cross-entropy Node.

    For a (T, P) parameter stack and a stacked dataset (f.stack, that is
    stack_datasets) it is the (T,) vector of per-task mean cross-entropies.
    """
    _check_arch(arch)
    out_width = arch[-1][1]

    def lossfn(p_node, data):
        if len(data) == 0:
            raise ConfigurationError("cannot evaluate a loss on an empty dataset")
        if data.n_classes != out_width:
            raise ConfigurationError(
                f"dataset has {data.n_classes} classes, network emits {out_width}"
            )
        logits = mlp_logits_node(p_node, arch, data.inputs)
        return graph.softmax_xent(logits, data.targets)

    lossfn.stack = stack_datasets
    return lossfn


# ---------------------------------------------------------------------------
# autoencoder

@dataclass(frozen=True)
class AutoencoderSpec:
    """Message set size, complex channel uses, and the two nets.

    The decoder consumes the channel output of a linear convolution with
    BLOCK_TAPS taps, rx_width reals per block; hence its fan-in.
    """

    n_messages: int = 16
    n_uses: int = 8
    enc_hidden: tuple = (32,)
    dec_hidden: tuple = (32,)

    def __post_init__(self):
        if min(self.n_messages, self.n_uses) < 1:
            raise ConfigurationError("autoencoder dimensions must be positive")

    @cached_property
    def enc_arch(self):
        return mlp_arch((self.n_messages, *self.enc_hidden, 2 * self.n_uses))

    @cached_property
    def rx_width(self):
        """Reals per received block: n_uses + BLOCK_TAPS - 1 complex samples, stacked [Re; Im]."""
        return 2 * (self.n_uses + BLOCK_TAPS - 1)

    @cached_property
    def dec_arch(self):
        return mlp_arch((self.rx_width, *self.dec_hidden, self.n_messages))

    @cached_property
    def arch(self):
        return self.enc_arch + self.dec_arch

    @cached_property
    def n_enc_params(self):
        return param_count(self.enc_arch)


def init_autoencoder_params(spec, seed):
    """One flat vector holding encoder then decoder parameters."""
    rng = np.random.default_rng(seed)
    enc = init_params(spec.enc_arch, rng)
    dec = init_params(spec.dec_arch, rng)
    return ParamVector(np.concatenate([enc.values, dec.values]), spec.arch)


def power_normalize_node(s, n_uses):
    """Scale each row (last axis) to squared norm n_uses (unit average power per use)."""
    sq = graph.asum(graph.mul(s, s), s.value.shape[:-1] + (1,))
    factor = graph.div(graph.const(math.sqrt(n_uses)), graph.sqrt(sq))
    # An explicit bcast, not a broadcasting mul: the product and its VJP both
    # read the stretched factor, and the bcast node sums their adjoints across
    # each row at once, where mul would sum each one apart and move exact
    # second-order meta-gradients in the last ulp.
    return graph.mul(s, graph.bcast(factor, s.value.shape))


def autoencoder_logits_node(p_node, spec, batch):
    """Decoder logits (n_blocks, n_messages) for one frozen draw, as graph nodes.

    The one encoder -> channel -> decoder composition.  The encoder runs once
    per message: the n_messages one-hot inputs are encoded to 2*n_uses reals
    each ([Re block; Im block]) and power-normalized, an (n_messages,
    2*n_uses) codebook.  Each block selects its message's codeword as the
    product of its one-hot row with the codebook, which copies the row
    exactly; in a backward pass it sums the blocks' adjoints per message
    before they reach the encoder.  The codewords are sent through the
    batch's real-stacked channel matrix plus its real-stacked noise, and
    decoded.  Training differentiates it; evaluation reads it.  An
    (S, P) stack on the one batch gives (S, n_blocks, n_messages) logits,
    and a (T, P) stack on a stack of T tasks' batches (a leading task axis,
    stack_autoencoder_batches) runs row t on task t's draw.
    """
    n_enc, n_total = spec.n_enc_params, param_count(spec.arch)
    if p_node.value.shape[-1] != n_total:
        raise ConfigurationError(
            f"autoencoder needs {n_total} parameters, vector has {p_node.value.shape[-1]}"
        )
    messages = np.asarray(batch.messages)
    if messages.size == 0:
        raise ConfigurationError("cannot evaluate the autoencoder on an empty batch")
    if messages.ndim > 1 and p_node.value.shape[:-1] != messages.shape[:-1]:
        raise ConfigurationError(
            f"a batch of {messages.shape[0]} tasks needs a ({messages.shape[0]}, {n_total}) parameter stack,"
            f" got {p_node.value.shape}"
        )
    one_hot = np.eye(spec.n_messages)
    encoded = mlp_logits_node(graph.vslice(p_node, 0, n_enc), spec.enc_arch, one_hot)
    codebook = power_normalize_node(encoded, spec.n_uses)
    # each block selects its message's row, exactly: one nonzero term per entry
    coded = graph.matmat(graph.const(one_hot[messages]), codebook)
    # the transposed view, not a contiguous copy: BLAS reads it as a transposed
    # operand, and a copy would move the product in the last bits
    channel = graph.const(np.swapaxes(batch.channel_matrix, -1, -2))
    received = graph.affine(coded, channel, graph.const(batch.noise))
    return mlp_logits_node(graph.vslice(p_node, n_enc, n_total), spec.dec_arch, received)


def make_autoencoder_lossfn(spec):
    """Loss f(p_node, batch) -> mean cross-entropy of decoded messages.

    The batch fixes everything random for the draw (messages, stacked real
    channel matrix, stacked real noise), so the loss is a deterministic,
    smooth function of the joint encoder/decoder parameter vector and can be
    differentiated to any order; for an (S, P) stack it is the (S,) vector,
    as for a (T, P) stack on T tasks' batches stacked by f.stack.
    """

    def lossfn(p_node, batch):
        logits = autoencoder_logits_node(p_node, spec, batch)
        return graph.softmax_xent(logits, np.broadcast_to(batch.messages, logits.value.shape[:-1]))

    lossfn.stack = stack_autoencoder_batches
    return lossfn
