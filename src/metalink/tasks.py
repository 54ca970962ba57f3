"""Task sampling: channel draws, pilot datasets, and meta-batches.

Randomness discipline: every consumer derives its generator through
rng_for(seed, *path), where the path is a tuple of small integers naming the
purpose (scope constant) and indices (task id, pilot count, ...).  Streams
are therefore disjoint by construction and results never depend on the order
tasks happen to be processed in, which is what makes sweep output invariant
to the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import BLOCK_TAPS, ChannelRealization, channel_conv_matrix, noise_variance, rayleigh_taps
from .channel import apply_channel_demod
from .errors import ConfigurationError
from .nn import AutoencoderBatch, AutoencoderSpec, Dataset

TASK_KINDS = ("demod", "autoencoder")

# scope constants for rng_for paths
SCOPE_TASK = 0
SCOPE_PILOTS_TRAIN = 1
SCOPE_PILOTS_TEST = 2
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
    kind: str = "demod"

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind '{self.kind}'")


@dataclass(frozen=True)
class TaskSplit:
    """A task with disjoint adaptation (train) and meta-objective (test) data."""

    task: Task
    train: object
    test: object


@dataclass(frozen=True)
class MetaBatch:
    """A batch of task splits of one kind, as consumed by meta-training."""

    kind: str
    items: tuple

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind '{self.kind}'")
        if not self.items:
            raise ConfigurationError("a meta-batch needs at least one task")

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class TaskFamily:
    """Distribution over tasks.

    demod default: one Rayleigh tap, cubic distortion eps3 ~ U[0, eps3_max],
    phase offset ~ U[0, 2pi).  unit_tap=True replaces the Rayleigh draw with
    a pure rotation e^{j theta} (the hard family for joint training, where
    averaging over rotations washes out to no information).
    autoencoder: three Rayleigh taps, no transmitter non-ideality.
    """

    kind: str = "demod"
    snr_db: float = 15.0
    eps3_max: float = 0.3
    unit_tap: bool = False

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind '{self.kind}'")
        if self.eps3_max < 0:
            raise ConfigurationError("eps3_max must be non-negative")

    def sample(self, rng, task_id=0):
        if self.kind == "demod":
            if self.unit_tap:
                taps = np.array([np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))])
                nonideality = (0.0, 0.0)
            else:
                taps = rayleigh_taps(1, rng)
                eps3 = rng.uniform(0.0, self.eps3_max)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                nonideality = (eps3, phase)
            return Task(task_id, ChannelRealization(taps, self.snr_db, nonideality), "demod")
        taps = rayleigh_taps(BLOCK_TAPS, rng)
        return Task(task_id, ChannelRealization(taps, self.snr_db, (0.0, 0.0)), "autoencoder")


def phase_rotation_family(snr_db=20.0):
    """Pure-rotation single-tap family at high SNR; no distortion."""
    return TaskFamily(kind="demod", snr_db=snr_db, eps3_max=0.0, unit_tap=True)


def sample_task(kind, rng, task_id=0, snr_db=None):
    """One task from the default family of the given kind."""
    if kind not in TASK_KINDS:
        raise ConfigurationError(f"unknown task kind '{kind}'")
    default_snr = 15.0 if kind == "demod" else 10.0
    family = TaskFamily(kind=kind, snr_db=default_snr if snr_db is None else snr_db)
    return family.sample(rng, task_id)


def make_pilot_dataset(task, n_pilots, rng):
    """n_pilots labelled received samples from the task's channel.

    Pilot symbol indices are drawn as whole random permutations of the 16
    messages, concatenated and truncated, so any 16 consecutive pilots cover
    every class and small counts never miss classes by chance more than they
    must.  Inputs are (n, 2) stacked [Re, Im].
    """
    if task.kind != "demod":
        raise ConfigurationError("pilot datasets are defined for demodulator tasks")
    if n_pilots < 1:
        raise ConfigurationError("need at least one pilot")
    cycles = [rng.permutation(16) for _ in range((n_pilots + 15) // 16)]
    indices = np.concatenate(cycles)[:n_pilots]
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


def generate_autoencoder_batch(task, n_blocks, rng, spec=None):
    """Uniform messages plus one noise draw at the task's SNR."""
    if task.kind != "autoencoder":
        raise ConfigurationError("autoencoder batches are defined for autoencoder tasks")
    if n_blocks < 1:
        raise ConfigurationError("need at least one block")
    spec = spec if spec is not None else AutoencoderSpec()
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
    return MetaBatch("demod", tuple(items))


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
        return MetaBatch(pool.kind, tuple(pool.items[i] for i in chosen))

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
        return MetaBatch("autoencoder", tuple(items))

    return stream


# ---------------------------------------------------------------------------
# hygiene


def _rows_intersect(a, b):
    if a.size == 0 or b.size == 0:
        return False
    return bool((a[:, None, :] == b[None, :, :]).all(axis=2).any())


def audit_meta_batch(meta_batch):
    """Raise if any adaptation example also appears on the held-out side.

    The check is exact equality, not tolerance-based: demod pilots are
    compared by their (re, im) input rows, autoencoder batches by noise rows
    (message indices repeat by design, so an identical noise row is the
    fingerprint of a reused draw).  Returns the number of task splits
    inspected so callers can assert the audit covered the whole batch.
    """
    for item in meta_batch.items:
        if meta_batch.kind == "demod":
            a, b = item.train.inputs, item.test.inputs
        else:
            a, b = item.train.noise, item.test.noise
        if _rows_intersect(a, b):
            raise ConfigurationError(
                f"task {item.task.id}: adaptation data leaked into the held-out set"
            )
    return len(meta_batch.items)
