"""Channel-layer tests: constellation identities, noise calibration, fading
statistics, the convolution contract, and the matched-filter reference
detector against the closed-form error rate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfc

from metalink.channel import (
    QAM16,
    ChannelRealization,
    apply_channel_block,
    apply_channel_demod,
    awgn,
    channel_conv_matrix,
    noise_variance,
    qam16_modulate,
    rayleigh_taps,
    tx_nonideality,
)
from metalink.errors import ConfigurationError
from oracles import qam16_min_distance_detect


def _analytic_qam16_ser(snr_db):
    """Symbol error rate of Gray 16-QAM with coherent ML detection."""
    snr = 10.0 ** (snr_db / 10.0)
    q = 0.5 * erfc(math.sqrt(0.2 * snr) / math.sqrt(2.0))
    p4 = 1.5 * q
    return 1.0 - (1.0 - p4) ** 2


# ---------------------------------------------------------------------------
# constellation


def test_qam16_unit_energy_in_rational_arithmetic():
    # Levels are +-1, +-3 over sqrt(10); recover the integers and check the
    # mean energy with exact fractions: (2*1 + 2*9)/10 = 1 per axis pair.
    levels = np.round(QAM16.view(np.float64) * math.sqrt(10.0)).astype(int)
    assert set(np.abs(levels).ravel()) == {1, 3}
    energy = sum(Fraction(int(re) ** 2 + int(im) ** 2, 10) for re, im in levels.reshape(16, 2))
    assert energy / 16 == Fraction(1)
    # and the float table is those integers over sqrt(10) to the last digit
    assert np.allclose(QAM16.view(np.float64), levels / math.sqrt(10.0), rtol=0, atol=1e-15)


def test_qam16_points_pairwise_distinct():
    assert len({complex(s) for s in QAM16}) == 16


def test_qam16_gray_neighbors_differ_in_one_bit():
    step = 2.0 / math.sqrt(10.0)
    n_pairs = 0
    for i in range(16):
        for j in range(i + 1, 16):
            d = QAM16[i] - QAM16[j]
            re_step = abs(abs(d.real) - step) < 1e-12 and abs(d.imag) < 1e-12
            im_step = abs(abs(d.imag) - step) < 1e-12 and abs(d.real) < 1e-12
            if re_step or im_step:
                n_pairs += 1
                assert bin(i ^ j).count("1") == 1, f"neighbors {i},{j} differ in >1 bit"
    assert n_pairs == 24  # 2 * 4 * 3 axis-adjacent pairs on a 4x4 grid


def test_qam16_modulate_validates_indices():
    assert np.array_equal(qam16_modulate([0, 15]), QAM16[[0, 15]])
    with pytest.raises(ConfigurationError):
        qam16_modulate([16])
    with pytest.raises(ConfigurationError):
        qam16_modulate([-1])


# ---------------------------------------------------------------------------
# noise


def test_noise_variance_db_identities():
    assert noise_variance(0.0) == 1.0
    assert abs(noise_variance(10.0) - 0.1) < 1e-16
    assert noise_variance(1e9) == noise_variance(300.0)  # cap


def test_noise_variance_rejects_snr_below_the_floor():
    assert noise_variance(-300.0) == 10.0**30  # the floor itself is honoured
    for snr_db in (-300.5, -4000.0, -np.inf):
        with pytest.raises(ConfigurationError, match="snr_db must be >= -300 dB"):
            noise_variance(snr_db)


def test_awgn_vanishes_at_capped_snr():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    out = awgn(sig, 1e9, rng)
    assert np.abs(out - sig).max() < 1e-12


def test_awgn_noiseless_mode_is_exact():
    sig = np.array([0.3 - 0.4j, 1.0 + 2.0j])
    assert np.array_equal(awgn(sig, 0.0, None), sig)


def test_awgn_empirical_variance_within_two_percent():
    rng = np.random.default_rng(1)
    sig = np.zeros(100_000, dtype=complex)
    for snr_db in (0.0, 5.0, 15.0):
        noise = awgn(sig, snr_db, rng)
        measured = float(np.mean(np.abs(noise) ** 2))
        assert abs(measured - noise_variance(snr_db)) < 0.02 * noise_variance(snr_db)


def test_awgn_noise_independent_of_signal():
    rng = np.random.default_rng(2)
    sig = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    noise = awgn(sig, 10.0, rng) - sig
    for a, b in ((sig.real, noise.real), (sig.imag, noise.imag), (sig.real, noise.imag)):
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01


def test_awgn_reproducible_from_seed():
    sig = np.ones(16, dtype=complex)
    a = awgn(sig, 7.0, np.random.default_rng(3))
    b = awgn(sig, 7.0, np.random.default_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5)])
def test_awgn_matches_reference_draw_order(shape):
    # All real parts, then all imaginary parts: exactly the two draws
    # written out here, leaving the generator where they leave it.
    rng = np.random.default_rng(4)
    sig = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = awgn(sig, 6.0, got_rng)
    sigma = np.sqrt(noise_variance(6.0) / 2.0)
    want = sig + sigma * (want_rng.standard_normal(shape) + 1j * want_rng.standard_normal(shape))
    assert got.shape == shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# fading taps


def test_rayleigh_taps_deterministic_and_validated():
    a = rayleigh_taps(3, np.random.default_rng(4))
    b = rayleigh_taps(3, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert a.shape == (3,)
    with pytest.raises(ConfigurationError):
        rayleigh_taps(0, np.random.default_rng(0))


@pytest.mark.parametrize("n_taps", [1, 3])
def test_rayleigh_total_power_is_unit_on_average(n_taps):
    rng = np.random.default_rng(5)
    total = np.array([np.sum(np.abs(rayleigh_taps(n_taps, rng)) ** 2) for _ in range(100_000)])
    assert 0.99 < total.mean() < 1.01


# ---------------------------------------------------------------------------
# transmitter non-ideality


def test_tx_nonideality_identity():
    s = QAM16.copy()
    assert np.array_equal(tx_nonideality(s, 0.0, 0.0), s)


def test_tx_nonideality_pi_phase_flips_sign():
    s = np.array([1.0 + 2.0j, -0.5j])
    assert np.allclose(tx_nonideality(s, 0.0, math.pi), -s, rtol=0, atol=1e-12)


def test_tx_nonideality_cubic_gain_on_unit_symbol():
    out = tx_nonideality(np.array([1.0 + 0.0j]), 0.1, 0.0)
    assert abs(out[0] - 1.1) < 1e-15


def test_channel_realization_validation():
    ch = ChannelRealization(np.array([0.5 + 0.5j]), 15.0, (0.1, 2.0))
    assert ch.eps3 == 0.1 and ch.phase == 2.0
    with pytest.raises(ValueError):
        ch.taps[0] = 0.0
    with pytest.raises(ConfigurationError):
        ChannelRealization(np.zeros((2, 2)), 15.0)
    with pytest.raises(ConfigurationError):
        ChannelRealization(np.array([1.0]), 15.0, (0.1,))


# ---------------------------------------------------------------------------
# single-tap pipeline


def test_demod_identity_channel_returns_constellation():
    ch = ChannelRealization(np.array([1.0 + 0.0j]), 15.0)
    received, labels = apply_channel_demod(np.arange(16), ch, None)
    assert np.array_equal(received, QAM16)
    assert np.array_equal(labels, np.arange(16))


def test_demod_j_channel_rotates_by_ninety_degrees():
    ch = ChannelRealization(np.array([1.0j]), 15.0)
    received, _ = apply_channel_demod(np.arange(16), ch, None)
    assert np.array_equal(received, 1j * QAM16)


def test_demod_rejects_multitap_channel():
    ch = ChannelRealization(np.array([1.0, 0.0, 0.0], dtype=complex), 15.0)
    with pytest.raises(ConfigurationError):
        apply_channel_demod(np.array([0]), ch, None)


def test_demod_pipeline_reproducible():
    ch = ChannelRealization(np.array([0.7 - 0.2j]), 12.0, (0.05, 1.0))
    idx = np.arange(32) % 16
    a, _ = apply_channel_demod(idx, ch, np.random.default_rng(8))
    b, _ = apply_channel_demod(idx, ch, np.random.default_rng(8))
    assert np.array_equal(a, b)


def test_min_distance_detector_perfect_on_clean_points():
    for ch in (
        ChannelRealization(np.array([1.0 + 0.0j]), 15.0),
        ChannelRealization(np.array([0.4 - 1.1j]), 15.0, (0.2, 2.5)),
    ):
        received, labels = apply_channel_demod(np.arange(16), ch, None)
        assert np.array_equal(qam16_min_distance_detect(received, ch), labels)


def test_min_distance_tie_resolves_to_lowest_index():
    ch = ChannelRealization(np.array([1.0 + 0.0j]), 15.0)
    midpoint = 0.5 * (QAM16[0] + QAM16[4])  # equidistant from symbols 0 and 4
    assert qam16_min_distance_detect(np.array([midpoint]), ch)[0] == 0


def test_min_distance_ser_matches_analytic_formula():
    # h = 1 at 15 dB over 1e5 symbols; the estimate must land inside the
    # 95% interval around the closed-form rate.
    rng = np.random.default_rng(9)
    ch = ChannelRealization(np.array([1.0 + 0.0j]), 15.0)
    n = 100_000
    indices = rng.integers(0, 16, size=n)
    received, labels = apply_channel_demod(indices, ch, rng)
    ser = float(np.mean(qam16_min_distance_detect(received, ch) != labels))
    want = _analytic_qam16_ser(15.0)
    half_width = 1.96 * math.sqrt(want * (1.0 - want) / n)
    assert abs(ser - want) <= half_width, f"ser {ser:.5f} vs analytic {want:.5f} +- {half_width:.5f}"


# ---------------------------------------------------------------------------
# 3-tap block channel


def _random_channel(seed, snr_db=10.0):
    rng = np.random.default_rng(seed)
    return ChannelRealization(rayleigh_taps(3, rng), snr_db), rng


def test_block_delta_channel_pads_with_zeros():
    ch = ChannelRealization(np.array([1.0, 0.0, 0.0], dtype=complex), 10.0)
    x = np.arange(1, 9) * (1.0 + 0.5j)
    assert np.array_equal(apply_channel_block(x, ch), np.concatenate([x, [0.0, 0.0]]))


def test_block_shift_channel_delays_by_one():
    ch = ChannelRealization(np.array([0.0, 1.0, 0.0], dtype=complex), 10.0)
    x = np.arange(1, 6) * (1.0 - 2.0j)
    assert np.array_equal(apply_channel_block(x, ch), np.concatenate([[0.0], x, [0.0]]))


@pytest.mark.parametrize("seed,n", [(10, 8), (11, 5), (12, 1)])
def test_block_convolution_matches_brute_force_exactly(seed, n):
    ch, rng = _random_channel(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = apply_channel_block(x, ch)
    want = np.zeros(n + 2, dtype=complex)
    for t in range(n + 2):
        acc = 0j
        for lag in range(3):
            if 0 <= t - lag < n:
                acc += ch.taps[lag] * x[t - lag]
        want[t] = acc
    assert np.array_equal(got, want)


def test_block_channel_linear_in_input_without_noise():
    ch, rng = _random_channel(13)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a, b = 1.7, -0.3
    lhs = apply_channel_block(a * x + b * y, ch)
    rhs = a * apply_channel_block(x, ch) + b * apply_channel_block(y, ch)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_block_channel_scaling_by_power_of_two_is_bitwise():
    ch, rng = _random_channel(14)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.array_equal(apply_channel_block(2.0 * x, ch), 2.0 * apply_channel_block(x, ch))


def test_block_channel_validation_and_reproducibility():
    ch, rng = _random_channel(15)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for bad in (np.array([], dtype=complex), np.ones((3, 0), dtype=complex), np.ones((2, 2, 4), dtype=complex)):
        with pytest.raises(ConfigurationError):
            apply_channel_block(bad, ch)
    single_tap = ChannelRealization(np.array([1.0 + 0.0j]), 10.0)
    with pytest.raises(ConfigurationError):
        apply_channel_block(x, single_tap)
    assert np.array_equal(apply_channel_block(x, ch), apply_channel_block(x, ch))


def test_block_channel_batch_equals_per_block_calls():
    # Random taps and shapes: a stack of blocks in one call gives the bytes
    # of one call per block.
    draw = np.random.default_rng(20)
    for seed in range(200):
        ch = ChannelRealization(rayleigh_taps(3, draw), draw.uniform(-5.0, 30.0))
        n_blocks, n = draw.integers(1, 12), draw.integers(1, 17)
        blocks = draw.standard_normal((n_blocks, n)) + 1j * draw.standard_normal((n_blocks, n))
        got = apply_channel_block(blocks, ch)
        want = np.stack([apply_channel_block(block, ch) for block in blocks])
        assert got.shape == (n_blocks, n + 2) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes(), seed


def test_conv_matrix_agrees_with_block_channel():
    # Exactly: the matrix's columns are the noiseless block channel's
    # responses to the basis inputs [I; iI], stacked as [Re; Im].
    for draw in range(2000):
        ch, _ = _random_channel(1000 + draw)
        n = 1 + draw % 16
        m = channel_conv_matrix(ch.taps, n)
        assert m.shape == (2 * (n + 2), 2 * n)
        y = apply_channel_block(np.concatenate([np.eye(n), 1j * np.eye(n)]), ch)
        assert np.array_equal(m, np.concatenate([y.real, y.imag], axis=1).T)
    with pytest.raises(ConfigurationError):
        channel_conv_matrix(ch.taps, 0)
