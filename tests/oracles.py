"""Reference implementations the tests compare the package against."""

import numpy as np

from metalink import graph
from metalink.channel import QAM16, tx_nonideality
from metalink.errors import ConfigurationError


def qam16_min_distance_detect(received, ch):
    """Coherent minimum-distance detection given the true channel.

    Compares against the 16 points the transmitter actually emits (tap gain
    and non-ideality included), so this is the maximum-likelihood reference
    for a known single-tap channel.  Ties resolve to the lowest index.
    """
    if ch.taps.shape[0] != 1:
        raise ConfigurationError("reference detector expects a single-tap channel")
    reference = ch.taps[0] * tx_nonideality(QAM16, ch.eps3, ch.phase)
    received = np.asarray(received)
    distance = np.abs(received[..., None] - reference)
    return np.argmin(distance, axis=-1)


def per_task_mean_loss(lossfn, theta, datasets):
    """The mean of one loss branch per task on a shared theta node: the
    branches added in task order, then scaled by 1/k."""
    branches = [lossfn(theta, d) for d in datasets]
    total = branches[0]
    for branch in branches[1:]:
        total = graph.add(total, branch)
    return graph.scale(total, 1.0 / len(branches))


def pilot_indices(n_pilots, rng):
    """make_pilot_dataset's pilot symbol indices, drawn one permutation of
    the 16 messages at a time and truncated to n_pilots."""
    cycles = [rng.permutation(16) for _ in range((n_pilots + 15) // 16)]
    return np.concatenate(cycles)[:n_pilots]
