"""16-QAM modulation, Rayleigh fading, transmitter non-idealities, AWGN.

Complex baseband throughout, float64/complex128.  SNR is Es/N0 in dB with
unit average symbol energy, so N0 = 10**(-snr_db/10); complex noise splits
N0 evenly between real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Per-axis Gray map over amplitude levels (-3, -1, +1, +3): adjacent levels
# differ in one bit.  A symbol index encodes four bits b3 b2 b1 b0; (b3, b2)
# select the I level and (b1, b0) the Q level.
_GRAY_LEVELS = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}

# Average energy of the +-1/+-3 grid is 10, so dividing by sqrt(10)
# normalizes the constellation to unit average energy.
QAM16 = np.array(
    [
        complex(_GRAY_LEVELS[(i >> 3) & 1, (i >> 2) & 1], _GRAY_LEVELS[(i >> 1) & 1, (i >> 0) & 1])
        for i in range(16)
    ]
) / np.sqrt(10.0)
QAM16.flags.writeable = False

_SNR_DB_CAP = 300.0

# Taps of the multipath block channel the autoencoder is trained over.
BLOCK_TAPS = 3


def qam16_modulate(indices):
    """Map integer symbol indices in [0, 16) to unit-energy Gray-coded points."""
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() > 15):
        raise ConfigurationError("16-QAM symbol indices must lie in [0, 16)")
    return QAM16[indices]


def noise_variance(snr_db):
    """Total complex noise variance N0 for unit symbol energy; capped at 300 dB.

    An SNR below -300 dB, the mirror of the cap, is rejected: from about
    -3082.5 dB down, N0 overflows a float.
    """
    snr_db = float(snr_db)
    if snr_db < -_SNR_DB_CAP:
        raise ConfigurationError(f"snr_db must be >= {-_SNR_DB_CAP:g} dB, got {snr_db:g}")
    return 10.0 ** (-min(snr_db, _SNR_DB_CAP) / 10.0)


def awgn(signal, snr_db, rng):
    """Add circularly symmetric complex Gaussian noise at the given Es/N0.

    One draw covers the whole signal: all its real parts, then all its
    imaginary parts.  rng=None selects noiseless mode: the signal passes
    through exactly, not merely at high SNR, for oracles that demand
    bit-level agreement.
    """
    signal = np.asarray(signal)
    if rng is None:
        return signal
    sigma = np.sqrt(noise_variance(snr_db) / 2.0)
    z = rng.standard_normal((2,) + signal.shape)
    return signal + sigma * (z[0] + 1j * z[1])


def rayleigh_taps(n_taps, rng):
    """n_taps i.i.d. CN(0, 1/n_taps) coefficients; total mean power 1."""
    if n_taps < 1:
        raise ConfigurationError("need at least one channel tap")
    scale = np.sqrt(1.0 / (2.0 * n_taps))
    return scale * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))


def tx_nonideality(symbols, eps3, phase):
    """Transmitter impairment: phase offset plus cubic (AM/AM) distortion.

    x -> exp(j*phase) * (x + eps3 * x * |x|^2).  eps3 = 0, phase = 0 is the
    identity.
    """
    symbols = np.asarray(symbols)
    return np.exp(1j * float(phase)) * (symbols + float(eps3) * symbols * np.abs(symbols) ** 2)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of a channel: taps, operating SNR, transmitter non-ideality."""

    taps: np.ndarray
    snr_db: float
    nonideality: tuple = (0.0, 0.0)

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.complex128)  # a copy: freezing must not reach the caller
        if taps.ndim != 1 or taps.size < 1:
            raise ConfigurationError(f"taps must be a non-empty 1-d array, got shape {taps.shape}")
        if len(self.nonideality) != 2:
            raise ConfigurationError("nonideality must be (eps3, phase)")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "snr_db", float(self.snr_db))
        object.__setattr__(self, "nonideality", (float(self.nonideality[0]), float(self.nonideality[1])))

    @property
    def eps3(self):
        return self.nonideality[0]

    @property
    def phase(self):
        return self.nonideality[1]


def apply_channel_demod(indices, ch, rng):
    """Single-tap use case: modulate, distort, scale by the tap, add noise.

    Returns (received complex samples, symbol indices).  rng=None skips the
    noise (see awgn).
    """
    if ch.taps.shape[0] != 1:
        raise ConfigurationError("demodulator channel expects exactly one tap")
    indices = np.asarray(indices)
    sent = tx_nonideality(qam16_modulate(indices), ch.eps3, ch.phase)
    received = awgn(ch.taps[0] * sent, ch.snr_db, rng)
    return received, indices


def apply_channel_block(symbols, ch):
    """Multipath use case: full linear convolution with 3 taps, no noise.

    symbols is one block (n,) or a stack of blocks (n_blocks, n); each block
    of n complex samples comes out as n + 2.  The oracle for
    channel_conv_matrix, through which the autoencoder runs.
    """
    if ch.taps.shape[0] != BLOCK_TAPS:
        raise ConfigurationError("block channel expects exactly three taps")
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim not in (1, 2) or symbols.size < 1:
        raise ConfigurationError("blocks must be a non-empty (n,) or (n_blocks, n) complex array")
    # Taps in ascending order, real and imaginary parts kept apart and
    # combined as in the scalar complex product (hr*xr - hi*xi,
    # hr*xi + hi*xr): the output equals a direct y_t = sum_l h_l x_{t-l}
    # double loop over Python complex numbers bit for bit, which numpy's
    # complex multiply would not (its SIMD lanes round differently).
    n = symbols.shape[-1]
    xr, xi = symbols.real, symbols.imag
    re = np.zeros(symbols.shape[:-1] + (n + BLOCK_TAPS - 1,))
    im = np.zeros_like(re)
    for lag, tap in enumerate(ch.taps.tolist()):
        hr, hi = tap.real, tap.imag
        re[..., lag:lag + n] += hr * xr - hi * xi
        im[..., lag:lag + n] += hr * xi + hi * xr
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def channel_conv_matrix(taps, n):
    """Real-stacked matrix of y = conv(x, taps) for length-n complex blocks.

    With x stacked as [Re x; Im x] (length 2n) the product M @ x_stacked is
    [Re y; Im y] (length 2(n + L - 1)):  M = [[A, -B], [B, A]] where
    A = Re(C), B = Im(C), and C is the (n+L-1, n) Toeplitz convolution matrix.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    length = taps.shape[0]
    if n < 1 or length < 1:
        raise ConfigurationError("convolution matrix needs positive sizes")
    rows = n + length - 1
    conv = np.zeros((rows, n), dtype=np.complex128)
    flat = conv.reshape(-1)  # a view: C[k + lag, k] is flat[lag*n + k*(n+1)]
    for lag, tap in enumerate(taps.tolist()):
        flat[lag * n::n + 1][:n] = tap
    a, b = conv.real, conv.imag
    stacked = np.empty((2 * rows, 2 * n))
    stacked[:rows, :n] = a
    stacked[:rows, n:] = -b
    stacked[rows:, :n] = b
    stacked[rows:, n:] = a
    return stacked


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
