"""Reference implementations the tests compare the package against."""

import numpy as np

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
