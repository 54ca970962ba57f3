"""Task sampling tests: seeded stream derivation, family statistics, pilot
set construction, batch freezing, and disjoint train/test splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from metalink.channel import (
    QAM16,
    ChannelRealization,
    apply_channel_demod,
    channel_conv_matrix,
    noise_variance,
    tx_nonideality,
)
from metalink.errors import ConfigurationError
from metalink.nn import AutoencoderBatch, AutoencoderSpec, Dataset
from metalink.tasks import (
    SCOPE_EVAL,
    SCOPE_TASK,
    MetaBatch,
    TaskFamily,
    autoencoder_stream,
    autoencoder_task_pool,
    demod_task_pool,
    generate_autoencoder_batch,
    make_demod_split,
    make_pilot_dataset,
    rng_for,
    subsample_stream,
)
from oracles import pilot_indices


# ---------------------------------------------------------------------------
# seeded stream derivation


def test_rng_for_is_reproducible():
    a = rng_for(3, SCOPE_TASK, 7).standard_normal(8)
    b = rng_for(3, SCOPE_TASK, 7).standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_for_separates_paths():
    draws = {
        name: rng_for(*path).standard_normal(4).tobytes()
        for name, path in {
            "task0": (0, SCOPE_TASK, 0),
            "task1": (0, SCOPE_TASK, 1),
            "eval0": (0, SCOPE_EVAL, 0),
            "seed1": (1, SCOPE_TASK, 0),
            "deeper": (0, SCOPE_TASK, 0, 0),
        }.items()
    }
    assert len(set(draws.values())) == len(draws)


# ---------------------------------------------------------------------------
# task families


def test_task_kind_is_validated():
    with pytest.raises(ConfigurationError):
        TaskFamily(kind="qpsk")
    # the autoencoder family has no rotation variant; its unit_tap = False is the default
    with pytest.raises(ConfigurationError, match="unit_tap is a demod family; the autoencoder family has none"):
        TaskFamily(kind="autoencoder", unit_tap=True)
    assert TaskFamily(kind="autoencoder", unit_tap=False) == TaskFamily(kind="autoencoder")


def test_family_sample_deterministic():
    fam = TaskFamily()
    a = fam.sample(np.random.default_rng(5), task_id=2)
    b = fam.sample(np.random.default_rng(5), task_id=2)
    assert np.array_equal(a.realization.taps, b.realization.taps)
    assert a.realization.nonideality == b.realization.nonideality
    assert a.id == 2 and a.realization.taps.shape == (1,)


def test_demod_family_statistics():
    fam = TaskFamily()
    rng = np.random.default_rng(6)
    tasks = [fam.sample(rng, task_id=i) for i in range(10_000)]
    power = np.array([np.abs(t.realization.taps[0]) ** 2 for t in tasks])
    assert 0.97 < power.mean() < 1.03
    eps3 = np.array([t.realization.eps3 for t in tasks])
    phase = np.array([t.realization.phase for t in tasks])
    assert 0.0 <= eps3.min() and eps3.max() <= 0.3
    assert 0.0 <= phase.min() and phase.max() < 2.0 * math.pi
    assert abs(eps3.mean() - 0.15) < 0.005
    assert abs(phase.mean() - math.pi) < 0.06


def test_phase_rotation_family_is_pure_rotation():
    fam = TaskFamily(kind="demod", snr_db=20.0, unit_tap=True)
    rng = np.random.default_rng(7)
    for i in range(50):
        t = fam.sample(rng, task_id=i)
        assert abs(abs(t.realization.taps[0]) - 1.0) < 1e-12
        assert t.realization.nonideality == (0.0, 0.0)
        assert t.realization.snr_db == 20.0


def test_autoencoder_family_three_clean_taps():
    t = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(8))
    assert t.realization.taps.shape == (3,)
    assert t.realization.nonideality == (0.0, 0.0)
    assert t.realization.snr_db == 10.0
    assert TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(8)).realization.snr_db == 15.0
    assert TaskFamily(kind="demod", snr_db=3.0).sample(np.random.default_rng(8)).realization.snr_db == 3.0


def test_pool_tasks_are_serially_uncorrelated():
    pool = demod_task_pool(TaskFamily(), 5000, 1, 1, seed=9)
    power = np.array([np.abs(it.task.realization.taps[0]) ** 2 for it in pool.items])
    rho = np.corrcoef(power[:-1], power[1:])[0, 1]
    assert abs(rho) < 0.05


# ---------------------------------------------------------------------------
# pilot datasets


def test_pilot_labels_cycle_through_all_messages():
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(10))
    ds = make_pilot_dataset(task, 16, np.random.default_rng(11))
    assert sorted(ds.targets.tolist()) == list(range(16))
    ds4 = make_pilot_dataset(task, 4, np.random.default_rng(12))
    assert len(set(ds4.targets.tolist())) == 4
    ds35 = make_pilot_dataset(task, 35, np.random.default_rng(13))
    counts = np.bincount(ds35.targets, minlength=16)
    assert counts.min() >= 2 and counts.max() <= 3
    assert ds35.inputs.shape == (35, 2)


@given(n_pilots=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pilots_are_drawn_as_one_permutation_per_sixteen(n_pilots, seed):
    # the same pilots as drawing the permutations one at a time, and the
    # generator left where that leaves it
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(seed), task_id=0)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ds = make_pilot_dataset(task, n_pilots, rng)
    received, labels = apply_channel_demod(pilot_indices(n_pilots, ref_rng), task.realization, ref_rng)
    assert np.array_equal(ds.targets, labels)
    assert np.array_equal(ds.inputs, np.stack([received.real, received.imag], axis=1))
    assert rng.random() == ref_rng.random()


def test_pilot_inputs_are_the_distorted_faded_symbols():
    # At capped SNR the noise term is ~1e-15, so inputs must reproduce
    # tap * nonideality(constellation[label]) to 1e-12.
    rng = np.random.default_rng(14)
    family = TaskFamily(snr_db=300.0)
    task = family.sample(rng, task_id=0)
    ds = make_pilot_dataset(task, 48, np.random.default_rng(15))
    ch = task.realization
    want = ch.taps[0] * tx_nonideality(QAM16[ds.targets], ch.eps3, ch.phase)
    got = ds.inputs[:, 0] + 1j * ds.inputs[:, 1]
    assert np.abs(got - want).max() < 1e-12


def test_pilot_dataset_validation():
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(16))
    with pytest.raises(ConfigurationError):
        make_pilot_dataset(task, 0, np.random.default_rng(0))
    ae = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(17))
    with pytest.raises(ConfigurationError, match="exactly one tap"):
        make_pilot_dataset(ae, 4, np.random.default_rng(0))


def test_demod_split_sides_are_disjoint():
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(18))
    split = make_demod_split(task, 32, 64, np.random.default_rng(19))
    assert split.train.inputs.shape == (32, 2)
    assert split.test.inputs.shape == (64, 2)
    common = (split.train.inputs[:, None, :] == split.test.inputs[None, :, :]).all(axis=2)
    assert not common.any()


# ---------------------------------------------------------------------------
# demod pools and subsampling


def test_demod_pool_deterministic_and_indexed():
    a = demod_task_pool(TaskFamily(), 6, 4, 8, seed=20)
    b = demod_task_pool(TaskFamily(), 6, 4, 8, seed=20)
    assert [it.task.id for it in a.items] == list(range(6))
    for x, y in zip(a.items, b.items):
        assert np.array_equal(x.task.realization.taps, y.task.realization.taps)
        assert np.array_equal(x.train.inputs, y.train.inputs)
        assert np.array_equal(x.test.targets, y.test.targets)
    assert all(it.task.realization.taps.shape == (1,) for it in a.items)
    with pytest.raises(ConfigurationError):
        demod_task_pool(TaskFamily(), 0, 4, 8, seed=0)


def test_subsample_stream_draws_without_replacement():
    pool = demod_task_pool(TaskFamily(), 10, 2, 2, seed=21)
    stream = subsample_stream(pool, 4)
    batch = stream(np.random.default_rng(22))
    ids = [it.task.id for it in batch.items]
    assert len(ids) == 4
    assert ids == sorted(set(ids))
    assert set(ids) <= set(range(10))
    again = stream(np.random.default_rng(22))
    assert [it.task.id for it in again.items] == ids


def test_subsample_stream_degenerates_to_full_pool():
    pool = demod_task_pool(TaskFamily(), 3, 2, 2, seed=23)
    stream = subsample_stream(pool, 5)
    assert stream(np.random.default_rng(0)) is pool
    with pytest.raises(ConfigurationError):
        subsample_stream(pool, 0)


def test_meta_batch_validation():
    with pytest.raises(ConfigurationError):
        MetaBatch(())


# ---------------------------------------------------------------------------
# autoencoder batches


def test_autoencoder_batch_reproducible_and_frozen():
    task = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(25))
    a = generate_autoencoder_batch(task, 32, np.random.default_rng(26), AutoencoderSpec())
    b = generate_autoencoder_batch(task, 32, np.random.default_rng(26), AutoencoderSpec())
    assert np.array_equal(a.messages, b.messages)
    assert np.array_equal(a.noise, b.noise)
    assert np.array_equal(a.channel_matrix, channel_conv_matrix(task.realization.taps, 8))
    with pytest.raises(ValueError):
        a.noise[0, 0] = 0.0
    assert len(a) == 32


def test_autoencoder_batch_statistics():
    task = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(27))
    batch = generate_autoencoder_batch(task, 100_000, np.random.default_rng(28), AutoencoderSpec())
    counts = np.bincount(batch.messages, minlength=16)
    expected = len(batch) / 16.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, 15)
    half_n0 = noise_variance(task.realization.snr_db) / 2.0
    measured = float(np.mean(batch.noise[:1000] ** 2))
    assert abs(measured - half_n0) < 0.02 * half_n0


def test_constructors_freeze_a_copy_not_the_callers_array():
    spec = AutoencoderSpec()
    rx_width = spec.rx_width
    cases = (
        (Dataset, dict(inputs=np.zeros((2, 2)), targets=np.array([0, 1]), n_classes=2)),
        (ChannelRealization, dict(taps=np.array([1.0 + 0.5j, 0.2j]), snr_db=10.0)),
        (
            AutoencoderBatch,
            dict(
                messages=np.array([0, 3]),
                noise=np.zeros((2, rx_width)),
                channel_matrix=np.zeros((rx_width, 2 * spec.n_uses)),
                spec=spec,
            ),
        ),
    )
    for cls, kwargs in cases:
        obj = cls(**kwargs)
        for name, arr in kwargs.items():
            if not isinstance(arr, np.ndarray):
                continue
            held = getattr(obj, name)
            assert not held.flags.writeable, f"{cls.__name__}.{name}"
            assert arr.flags.writeable, f"{cls.__name__}.{name}"
            before = held.copy()
            arr[0] = 1
            assert np.array_equal(held, before), f"{cls.__name__}.{name}"


def test_autoencoder_batch_validation():
    task = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(29))
    spec = AutoencoderSpec()
    good = generate_autoencoder_batch(task, 4, np.random.default_rng(30), spec)
    with pytest.raises(ConfigurationError):
        AutoencoderBatch(good.messages, good.noise[:, :-2], good.channel_matrix, spec)
    with pytest.raises(ConfigurationError):
        AutoencoderBatch(np.array([16]), good.noise[:1], good.channel_matrix, spec)
    with pytest.raises(ConfigurationError):
        AutoencoderBatch(good.messages, good.noise, good.channel_matrix[:-1], spec)
    with pytest.raises(ConfigurationError):
        generate_autoencoder_batch(task, 0, np.random.default_rng(0), spec)
    one_tap = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(31))
    with pytest.raises(ConfigurationError, match="task has 1 taps, block channel needs 3"):
        generate_autoencoder_batch(one_tap, 4, np.random.default_rng(0), spec)


def test_autoencoder_pool_and_stream():
    fam = TaskFamily(kind="autoencoder", snr_db=10.0)
    tasks = autoencoder_task_pool(fam, 5, seed=32)
    again = autoencoder_task_pool(fam, 5, seed=32)
    assert len(tasks) == 5
    for x, y in zip(tasks, again):
        assert np.array_equal(x.realization.taps, y.realization.taps)
    with pytest.raises(ConfigurationError):
        autoencoder_task_pool(TaskFamily(), 5, seed=0)

    stream = autoencoder_stream(tasks, AutoencoderSpec(), k=2, n_blocks=8)
    rng = np.random.default_rng(33)
    first = stream(rng)
    second = stream(rng)
    assert len(first.items) == 2
    assert all(item.task.realization.taps.shape == (3,) for item in first.items)
    for item in first.items:
        assert not np.array_equal(item.train.noise, item.test.noise)
        assert np.array_equal(item.train.channel_matrix, item.test.channel_matrix)
    # fresh draws each call: noise must not repeat across calls
    assert not any(
        np.array_equal(x.train.noise, y.train.noise)
        for x in first.items
        for y in second.items
    )
    with pytest.raises(ConfigurationError):
        autoencoder_stream(tasks, AutoencoderSpec(), k=0, n_blocks=8)
    with pytest.raises(ConfigurationError):
        autoencoder_stream(tasks, AutoencoderSpec(), k=6, n_blocks=8)


# ---------------------------------------------------------------------------
# split disjointness


def test_meta_batch_splits_are_disjoint():
    # No adaptation example reappears on the held-out side.  Demod pilots are
    # compared by their (re, im) input rows, autoencoder batches by noise rows
    # (message indices repeat by design, so an identical noise row would be a
    # reused draw).  Exact equality, no tolerance.
    pool = demod_task_pool(TaskFamily(), 10, 4, 16, seed=34)
    tasks = autoencoder_task_pool(TaskFamily(kind="autoencoder"), 3, seed=35)
    batch = autoencoder_stream(tasks, AutoencoderSpec(), 3, 16)(np.random.default_rng(36))
    sides = [(s.train.inputs, s.test.inputs) for s in pool.items]
    sides += [(s.train.noise, s.test.noise) for s in batch.items]
    assert len(sides) == 13
    for train, test in sides:
        assert not (train[:, None, :] == test[None, :, :]).all(axis=2).any()
