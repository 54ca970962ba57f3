"""Acceptance gate: one test per top-level requirement, at stated tolerances.

The two default-profile sweeps are the expensive parts (minutes); they run
once as module fixtures and the criteria read off the shared results.  Each
test prints the measured numbers so a failing run shows how far off it was.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from metalink import cli
from metalink.channel import ChannelRealization, apply_channel_block, apply_channel_demod, rayleigh_taps
from metalink.checks import (
    check_gradients,
    check_hvp,
    check_hvp_symmetry,
    check_meta_closed_form,
    check_quadratic_oracle,
    first_order_gap,
)
from metalink.harness import (
    default_config,
    median_of_seed_means,
    read_curve,
    run_adaptation_sweep,
    run_phase_rotation_seed,
    run_pilot_sweep,
    write_config,
)
from oracles import qam16_min_distance_detect


@pytest.fixture(scope="module")
def demod_sweep():
    t0 = time.perf_counter()
    result = run_pilot_sweep(default_config("demod"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ae_sweep():
    t0 = time.perf_counter()
    result = run_adaptation_sweep(default_config("autoencoder"))
    return result, time.perf_counter() - t0


def test_criterion_1_gradient_exactness():
    t0 = time.perf_counter()
    result = check_gradients(20)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: gradient rel err {result.error:.3e} (< 1e-6), {elapsed:.1f}s")
    assert result.error < 1e-6
    assert elapsed < 30.0


def test_criterion_2_hvp_exactness():
    t0 = time.perf_counter()
    hvp_result = check_hvp(10)
    sym, lin = check_hvp_symmetry(10)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: hvp rel err {hvp_result.error:.3e} (< 1e-4), "
        f"symmetry {sym.error:.3e} (<= 1e-10), linearity {lin.error:.3e}, {elapsed:.1f}s"
    )
    assert hvp_result.error < 1e-4
    assert sym.error <= 1e-10
    assert lin.passed
    assert elapsed < 30.0


def test_criterion_3_meta_gradient_closed_form():
    dense = check_meta_closed_form(5)
    oracle = check_quadratic_oracle()
    print(
        f"criterion 3: dense-Hessian rel err {dense.error:.3e} (< 1e-8), "
        f"quadratic oracle err {oracle.error:.3e} (<= 1e-12)"
    )
    assert dense.error < 1e-8
    assert oracle.error <= 1e-12


def test_criterion_4_first_order_limit():
    gap_hi = first_order_gap(1.0e-3)
    gap_lo = first_order_gap(1.0e-4)
    ratio = gap_hi / gap_lo
    print(f"criterion 4: gap {gap_hi:.3e} at eta=1e-3, {gap_lo:.3e} at eta=1e-4, ratio {ratio:.3f}")
    assert abs(ratio - 10.0) <= 2.0


def test_criterion_5_demod_pilot_sweep_ordering(demod_sweep):
    result, elapsed = demod_sweep
    lines = []
    for n in (2.0, 4.0, 8.0):
        maml = median_of_seed_means(result.records, "maml", "ser", n)
        joint_adapt = median_of_seed_means(result.records, "joint+adapt", "ser", n)
        conventional = median_of_seed_means(result.records, "conventional", "ser", n)
        lines.append(
            f"  n={int(n)}: maml {maml:.4f}, joint+adapt {joint_adapt:.4f}, "
            f"conventional {conventional:.4f} (0.8x = {0.8 * conventional:.4f})"
        )
        assert maml < joint_adapt, lines[-1]
        assert maml <= 0.8 * conventional, lines[-1]
    # Aggregate means at n=4 tell the same story.  The pooled baseline sits
    # near chance here whether or not it adapts: the task family's uniform
    # phase rotations wash out to almost no shared signal, so joint+adapt is
    # not expected to beat from-scratch training, only to lose to maml.
    at4 = {r.method: r.mean for r in result.table.rows if (r.metric, r.sweep_value) == ("ser", 4.0)}
    lines.append(f"  aggregate means at n=4: {at4}")
    assert at4["maml"] < at4["joint+adapt"]
    assert at4["maml"] < at4["conventional"]
    print("criterion 5: SER medians over 5 seeds " + f"({elapsed:.0f}s)\n" + "\n".join(lines))
    assert elapsed < 15 * 60


def test_criterion_6_autoencoder_adaptation(ae_sweep):
    result, elapsed = ae_sweep
    maml_t10 = median_of_seed_means(result.records, "maml", "bler", 10.0)
    rand_t10 = median_of_seed_means(result.records, "conventional", "bler", 10.0)
    maml_t0 = median_of_seed_means(result.records, "maml", "bler", 0.0)
    print(
        f"criterion 6: BLER at t=10 maml {maml_t10:.4f} vs random-init {rand_t10:.4f} "
        f"(half = {0.5 * rand_t10:.4f}); maml t=0 {maml_t0:.4f} ({elapsed:.0f}s)"
    )
    assert maml_t10 <= 0.5 * rand_t10
    assert maml_t10 < maml_t0
    # chance level before any adaptation from a random start
    rand_t0_row = [r for r in result.table.rows if (r.method, r.metric, r.sweep_value) == ("conventional", "bler", 0.0)]
    assert abs(rand_t0_row[0].mean - 15.0 / 16.0) < 0.05
    # a row exists for every adaptation step, both inits
    assert len(result.table) == (default_config("autoencoder").adapt_iters_max + 1) * 2
    assert elapsed < 20 * 60


def test_criterion_7_joint_training_degeneracy_on_rotations():
    joint_means, maml_means = zip(*(run_phase_rotation_seed(seed) for seed in (0, 1, 2)))
    joint_med = float(np.median(joint_means))
    maml_med = float(np.median(maml_means))
    print(
        f"criterion 7: pure rotations at 20 dB, joint SER {joint_med:.4f} (>= 0.5), "
        f"maml after 16 pilots {maml_med:.4f} (<= 0.2)"
    )
    assert joint_med >= 0.5
    assert maml_med <= 0.2


def test_criterion_8_channel_oracles():
    # (a) detector SER against the closed-form rate, 1e5 symbols at 15 dB
    rng = np.random.default_rng(123)
    ch = ChannelRealization(np.array([1.0 + 0.0j]), 15.0)
    n = 100_000
    indices = rng.integers(0, 16, size=n)
    received, labels = apply_channel_demod(indices, ch, rng)
    ser = float(np.mean(qam16_min_distance_detect(received, ch) != labels))
    snr = 10.0 ** 1.5
    p4 = 1.5 * 0.5 * erfc(math.sqrt(0.2 * snr) / math.sqrt(2.0))
    want = 1.0 - (1.0 - p4) ** 2
    half_width = 1.96 * math.sqrt(want * (1.0 - want) / n)
    print(f"criterion 8: SER {ser:.6f} vs analytic {want:.6f} +- {half_width:.6f}")
    assert abs(ser - want) <= half_width

    # (b) noiseless 3-tap convolution equals a brute-force reimplementation
    for seed, length in ((0, 8), (1, 8), (2, 3), (3, 1), (4, 17)):
        draw = np.random.default_rng(seed)
        taps = rayleigh_taps(3, draw)
        x = draw.standard_normal(length) + 1j * draw.standard_normal(length)
        got = apply_channel_block(x, ChannelRealization(taps, 10.0))
        want_conv = np.zeros(length + 2, dtype=complex)
        for t in range(length + 2):
            acc = 0j
            for lag in range(3):
                if 0 <= t - lag < length:
                    acc += taps[lag] * x[t - lag]
            want_conv[t] = acc
        assert np.array_equal(got, want_conv), f"draw {seed}: convolution mismatch"


def test_criterion_9_sweep_determinism_across_invocations(tmp_path, capsys):
    config = replace(
        default_config("demod"),
        outer_iters=100,
        baseline_iters=50,
        pilot_counts=(2, 4, 8),
        n_meta_train_tasks=20,
        n_meta_test_tasks=5,
        n_eval_symbols_or_blocks=500,
        meta_test_pilots=16,
        seeds=(0, 1),
    )
    cfg_path = tmp_path / "repro.cfg"
    write_config(config, cfg_path)
    outs = [tmp_path / name for name in ("first.csv", "second.csv", "parallel.csv")]
    for out, workers in zip(outs, ("1", "1", "2")):
        code = cli.main(
            ["sweep-pilots", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
        )
        assert code == cli.EXIT_OK
    capsys.readouterr()
    first, second, parallel = (p.read_bytes() for p in outs)
    print(f"criterion 9: {len(first)} CSV bytes, workers 1/1/2 identical")
    assert first == second == parallel
    assert read_curve(outs[0]).rows  # and it parses back
