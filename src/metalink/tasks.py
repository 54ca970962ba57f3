"""Task sampling: channel draws, pilot datasets, and meta-batches.

Randomness discipline: every consumer derives its generator through
rng_for(seed, *path), where the path is a tuple of small integers naming the
purpose (scope constant) and indices (task id, pilot count, ...).  Streams
are therefore disjoint by construction and results never depend on the order
tasks happen to be processed in, which is what makes sweep output invariant
to the worker count.

A task is its channel: its tap count says which experiment it serves, one
tap the demodulator (make_pilot_dataset), BLOCK_TAPS the autoencoder
(generate_autoencoder_batch), and each rejects the other's.  Only a
TaskFamily has a kind, one of TASK_KINDS, which chooses what it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import BLOCK_TAPS, ChannelRealization, channel_conv_matrix, noise_variance, rayleigh_taps
from .channel import apply_channel_demod
from .errors import ConfigurationError
from .nn import AutoencoderBatch, Dataset

TASK_KINDS = ("demod", "autoencoder")
EPS3_MAX = 0.3

# scope constants for rng_for paths
SCOPE_TASK = 0
SCOPE_PILOTS_TRAIN = 1
SCOPE_META_STREAM = 3
SCOPE_EVAL = 4
SCOPE_ADAPT_PILOTS = 5
SCOPE_TEST_TASK = 6
SCOPE_ADAPT_STEPS = 7
SCOPE_CHECKS = 8


def rng_for(seed, *path):
    """Independent generator for (seed, path); same inputs, same stream."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path)))


@dataclass(frozen=True)
class Task:
    """One device/channel instance a learner can adapt to."""

    id: int
    realization: ChannelRealization


@dataclass(frozen=True)
class TaskSplit:
    """A task with disjoint adaptation (train) and meta-objective (test) data."""

    task: Task
    train: object
    test: object


@dataclass(frozen=True)
class MetaBatch:
    """A batch of task splits, as consumed by meta-training."""

    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ConfigurationError("a meta-batch needs at least one task")

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class TaskFamily:
    """Distribution over tasks.

    demod default: one Rayleigh tap, cubic distortion eps3 ~ U[0, EPS3_MAX],
    phase offset ~ U[0, 2pi).  unit_tap=True replaces the Rayleigh draw with
    a pure rotation e^{j theta} and no distortion (the hard family for joint
    training, where averaging over rotations washes out to no information).
    autoencoder: three Rayleigh taps, no transmitter non-ideality; it has no
    unit_tap variant.
    """

    kind: str = "demod"
    snr_db: float = 15.0
    unit_tap: bool = False

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind '{self.kind}'")
        if self.unit_tap and self.kind != "demod":
            raise ConfigurationError(f"unit_tap is a demod family; the {self.kind} family has none")

    def sample(self, rng, task_id=0):
        if self.kind == "demod":
            if self.unit_tap:
                taps = np.array([np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))])
                nonideality = (0.0, 0.0)
            else:
                taps = rayleigh_taps(1, rng)
                eps3 = rng.uniform(0.0, EPS3_MAX)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                nonideality = (eps3, phase)
            return Task(task_id, ChannelRealization(taps, self.snr_db, nonideality))
        taps = rayleigh_taps(BLOCK_TAPS, rng)
        return Task(task_id, ChannelRealization(taps, self.snr_db, (0.0, 0.0)))


def make_pilot_dataset(task, n_pilots, rng):
    """n_pilots labelled received samples from the task's channel.

    Pilot symbol indices are drawn as whole random permutations of the 16
    messages, concatenated and truncated, so pilots 16i to 16i + 15 cover
    every class and small counts never miss classes by chance more than they
    must.  The permutations are the rows of one array, so a count no
    allocation can hold fails at once.  Inputs are (n, 2) stacked [Re, Im].
    """
    if n_pilots < 1:
        raise ConfigurationError("need at least one pilot")
    cycles = np.tile(np.arange(16), ((n_pilots + 15) // 16, 1))
    indices = rng.permuted(cycles, axis=1).ravel()[:n_pilots]
    received, labels = apply_channel_demod(indices, task.realization, rng)
    inputs = np.stack([received.real, received.imag], axis=1)
    return Dataset(inputs, labels, 16)


def make_demod_split(task, n_train, n_test, rng):
    """Disjoint pilot train/test sets from independent substreams of rng."""
    rng_train, rng_test = rng.spawn(2)
    return TaskSplit(
        task,
        make_pilot_dataset(task, n_train, rng_train),
        make_pilot_dataset(task, n_test, rng_test),
    )


def generate_autoencoder_batch(task, n_blocks, rng, spec):
    """Uniform messages plus one noise draw at the task's SNR."""
    if n_blocks < 1:
        raise ConfigurationError("need at least one block")
    if task.realization.taps.shape[0] != BLOCK_TAPS:
        raise ConfigurationError(
            f"task has {task.realization.taps.shape[0]} taps, block channel needs {BLOCK_TAPS}"
        )
    messages = rng.integers(0, spec.n_messages, size=n_blocks)
    sigma = math.sqrt(noise_variance(task.realization.snr_db) / 2.0)
    noise = sigma * rng.standard_normal((n_blocks, spec.rx_width))
    matrix = channel_conv_matrix(task.realization.taps, spec.n_uses)
    return AutoencoderBatch(messages, noise, matrix, spec)


# ---------------------------------------------------------------------------
# pools and streams for meta-training

def demod_task_pool(family, n_tasks, n_train, n_test, seed):
    """Fixed pool of demod tasks, each with frozen train/test pilot splits."""
    if n_tasks < 1:
        raise ConfigurationError("pool needs at least one task")
    items = []
    for i in range(n_tasks):
        task = family.sample(rng_for(seed, SCOPE_TASK, i), task_id=i)
        items.append(make_demod_split(task, n_train, n_test, rng_for(seed, SCOPE_PILOTS_TRAIN, i)))
    return MetaBatch(tuple(items))


def subsample_stream(pool, k):
    """Stream drawing k-task sub-batches from a fixed pool without replacement.

    k >= pool size degenerates to the full pool every call (still freshly
    ordered by task index, so iteration order is stable).
    """
    if k < 1:
        raise ConfigurationError("meta-batch size must be positive")

    def stream(rng):
        if k >= len(pool.items):
            return pool
        chosen = sorted(rng.choice(len(pool.items), size=k, replace=False))
        return MetaBatch(tuple(pool.items[i] for i in chosen))

    return stream


def autoencoder_task_pool(family, n_tasks, seed):
    """Fixed pool of 3-tap channel realizations for meta-training."""
    if family.kind != "autoencoder":
        raise ConfigurationError("pool family must be autoencoder kind")
    if n_tasks < 1:
        raise ConfigurationError("pool needs at least one task")
    return tuple(family.sample(rng_for(seed, SCOPE_TASK, i), task_id=i) for i in range(n_tasks))


def autoencoder_stream(tasks, spec, k, n_blocks):
    """Stream over a channel pool with fresh data every call.

    Each draw picks k channels and generates new message/noise batches for
    both the adaptation and meta-objective sides, mirroring a transmitter
    that can simulate its channel at will.
    """
    if k < 1 or k > len(tasks):
        raise ConfigurationError(f"meta-batch size must be in [1, {len(tasks)}]")

    def stream(rng):
        chosen = sorted(rng.choice(len(tasks), size=k, replace=False)) if k < len(tasks) else range(len(tasks))
        items = []
        for i in chosen:
            train = generate_autoencoder_batch(tasks[i], n_blocks, rng, spec)
            test = generate_autoencoder_batch(tasks[i], n_blocks, rng, spec)
            items.append(TaskSplit(tasks[i], train, test))
        return MetaBatch(tuple(items))

    return stream
