"""Experiment harness tests: metrics, config parsing, CSV persistence, sweep
structure, and run-to-run byte determinism at toy scale."""

import ctypes
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalink import harness, learners
from metalink.autodiff import eval_with_gradient
from metalink.errors import ConfigurationError
from metalink.harness import (
    CSV_HEADER,
    DEMOD_ARCH,
    CurveRow,
    CurveTable,
    ExperimentConfig,
    SweepRecord,
    default_config,
    evaluate_bler,
    evaluate_params,
    evaluate_ser,
    load_config,
    load_params,
    median_of_seed_means,
    read_curve,
    run_adaptation_sweep,
    run_meta_train,
    run_pilot_sweep,
    save_params,
    write_config,
    write_curve,
)
from metalink.learners import (
    TrainConfig,
    maml_adapt,
    sgd_step,
    train_conventional,
    train_joint,
)
from metalink.nn import (
    AutoencoderSpec,
    ParamVector,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
    param_count,
    pool_datasets,
)
from metalink.channel import ChannelRealization
from metalink.tasks import (
    SCOPE_ADAPT_PILOTS,
    SCOPE_ADAPT_STEPS,
    SCOPE_EVAL,
    SCOPE_META_STREAM,
    SCOPE_TASK,
    Task,
    TaskFamily,
    autoencoder_stream,
    autoencoder_task_pool,
    generate_autoencoder_batch,
    make_pilot_dataset,
    rng_for,
)

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _tiny_demod_config(**overrides):
    base = default_config("demod")
    small = dict(
        outer_iters=8,
        baseline_iters=6,
        K_meta_batch=3,
        pilot_counts=(2, 4),
        n_meta_train_tasks=6,
        n_meta_test_tasks=2,
        n_eval_symbols_or_blocks=200,
        meta_train_pilots=4,
        meta_test_pilots=8,
        seeds=(0, 1),
    )
    small.update(overrides)
    return replace(base, **small)


def _tiny_rotation_config(**overrides):
    """The phase-rotation study's config at toy scale."""
    small = dict(seeds=(5,), n_meta_train_tasks=2, outer_iters=1, n_meta_test_tasks=3, pilot_counts=(4,))
    small.update(overrides)
    return replace(load_config(_CONFIGS / "phase_rotation.cfg"), **small)


def _tiny_ae_config(**overrides):
    base = default_config("autoencoder")
    small = dict(
        outer_iters=4,
        baseline_iters=4,
        K_meta_batch=2,
        adapt_iters_max=3,
        n_meta_train_tasks=3,
        n_meta_test_tasks=2,
        n_eval_symbols_or_blocks=200,
        n_train_blocks=16,
        seeds=(0,),
    )
    small.update(overrides)
    return replace(base, **small)


# ---------------------------------------------------------------------------
# metrics


def test_evaluate_ser_perfect_after_clean_training():
    family = TaskFamily(snr_db=300.0)
    task = family.sample(np.random.default_rng(60))
    cfg = TrainConfig(outer_iters=300, seed=1)
    pilots = make_pilot_dataset(task, 64, np.random.default_rng(61))
    init, lossfn = init_params(DEMOD_ARCH, cfg.seed), make_mlp_lossfn(DEMOD_ARCH)
    (trained,) = train_conventional([task], cfg, datasets=[pilots], init=init, lossfn=lossfn)
    assert evaluate_ser((trained,), task, 2000, np.random.default_rng(62)) == (0.0,)


def test_evaluate_ser_constant_logits_guess_one_class():
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(63))
    zero = init_params(DEMOD_ARCH, 0).with_values(np.zeros_like(init_params(DEMOD_ARCH, 0).values))
    (ser,) = evaluate_ser((zero,), task, 2000, np.random.default_rng(64))
    assert abs(ser - 15.0 / 16.0) < 0.03


def test_evaluate_ser_requires_demod_task():
    ae = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(65))
    with pytest.raises(ConfigurationError):
        evaluate_ser((init_params(DEMOD_ARCH, 0),), ae, 100, np.random.default_rng(0))


@pytest.mark.parametrize(
    "receivers,n_symbols,message",
    [
        ((init_params(DEMOD_ARCH, 0),), 0, "n_symbols must be positive, got 0"),
        ((init_params(DEMOD_ARCH, 0),), -5, "n_symbols must be positive, got -5"),
        ((), 100, "one or more receivers"),
        ((init_params(DEMOD_ARCH, 0), init_params(mlp_arch((2, 8, 16)), 0)), 100, "one architecture"),
    ],
)
def test_evaluate_ser_rejects_bad_input(receivers, n_symbols, message):
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(65))
    with pytest.raises(ConfigurationError, match=message):
        evaluate_ser(receivers, task, n_symbols, np.random.default_rng(0))


_SER_ARCHS = (DEMOD_ARCH, mlp_arch((2, 8, 16)))


@given(
    arch=st.sampled_from(_SER_ARCHS),
    init_seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
    scale=st.floats(0.5, 8.0),
    n_symbols=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_evaluate_ser_of_a_stack_is_each_receiver_scored_alone(arch, init_seeds, scale, n_symbols, seed):
    task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(seed))
    receivers = [p.with_values(scale * p.values) for p in (init_params(arch, s) for s in init_seeds)]
    stacked = evaluate_ser(receivers, task, n_symbols, np.random.default_rng(seed))
    alone = tuple(evaluate_ser((p,), task, n_symbols, np.random.default_rng(seed))[0] for p in receivers)
    assert stacked == alone


_AE = AutoencoderSpec()


@pytest.mark.parametrize(
    "receivers,message",
    [
        ((), "one or more receivers"),
        # the spec's parameter count, but not its architecture
        ((ParamVector(init_autoencoder_params(_AE, 0).values, _AE.dec_arch + _AE.enc_arch),), "spec's architecture"),
        (
            (init_autoencoder_params(_AE, 0), init_autoencoder_params(replace(_AE, enc_hidden=(8,)), 0)),
            "spec's architecture",
        ),
    ],
)
def test_evaluate_bler_rejects_bad_input(receivers, message):
    task = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(65))
    with pytest.raises(ConfigurationError, match=message):
        evaluate_bler([receivers], _AE, [task], 100, [np.random.default_rng(0)])


def test_evaluate_bler_untrained_is_chance_level():
    spec = AutoencoderSpec()
    task = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(66))
    [(bler,)] = evaluate_bler([(init_autoencoder_params(spec, 2),)], spec, [task], 2000, [np.random.default_rng(67)])
    assert abs(bler - 15.0 / 16.0) < 0.06


def test_evaluate_bler_drops_after_training_on_the_task():
    spec = AutoencoderSpec()
    task = TaskFamily(kind="autoencoder", snr_db=20.0).sample(np.random.default_rng(68))
    lossfn = make_autoencoder_lossfn(spec)
    p = init_autoencoder_params(spec, 3)
    [(before,)] = evaluate_bler([(p,)], spec, [task], 1000, [np.random.default_rng(69)])
    rng = np.random.default_rng(70)
    for _ in range(200):
        batch = generate_autoencoder_batch(task, 128, rng, spec)
        p = sgd_step(p, eval_with_gradient(lossfn, p, batch).gradient, 0.05)
    [(after,)] = evaluate_bler([(p,)], spec, [task], 1000, [np.random.default_rng(69)])
    assert after < before - 0.2


def test_evaluate_bler_trained_toy_is_error_free_without_noise():
    spec = AutoencoderSpec(n_messages=2, n_uses=3, enc_hidden=(8,), dec_hidden=(8,))
    delta = Task(0, ChannelRealization(np.array([1.0, 0.0, 0.0], dtype=complex), 300.0))
    lossfn = make_autoencoder_lossfn(spec)
    p = init_autoencoder_params(spec, 5)
    rng = np.random.default_rng(72)
    for _ in range(400):
        batch = generate_autoencoder_batch(delta, 64, rng, spec)
        p = sgd_step(p, eval_with_gradient(lossfn, p, batch).gradient, 0.5)
    assert evaluate_bler([(p,)], spec, [delta], 500, [np.random.default_rng(73)]) == [(0.0,)]


def test_evaluate_bler_monotone_in_snr_for_fixed_pair():
    spec = AutoencoderSpec()
    noisy = TaskFamily(kind="autoencoder", snr_db=0.0).sample(np.random.default_rng(74))
    clean = Task(noisy.id, ChannelRealization(noisy.realization.taps, 20.0))
    lossfn = make_autoencoder_lossfn(spec)
    p = init_autoencoder_params(spec, 6)
    rng = np.random.default_rng(75)
    for _ in range(150):
        batch = generate_autoencoder_batch(clean, 128, rng, spec)
        p = sgd_step(p, eval_with_gradient(lossfn, p, batch).gradient, 0.05)
    [(at_20,)] = evaluate_bler([(p,)], spec, [clean], 2000, [np.random.default_rng(76)])
    [(at_0,)] = evaluate_bler([(p,)], spec, [noisy], 2000, [np.random.default_rng(76)])
    assert at_20 <= at_0


def test_evaluate_bler_requires_autoencoder_task():
    spec = AutoencoderSpec()
    demod = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(71))
    with pytest.raises(ConfigurationError):
        evaluate_bler([(init_autoencoder_params(spec, 0),)], spec, [demod], 100, [np.random.default_rng(0)])



def _scored_in_chunks(rows, evaluate):
    """evaluate() with at most `rows` rows per forward: its rates, and the
    logits of each chunk it ran, in order."""
    chunks = []

    def spy(forward):
        def recorded(*args):
            node = forward(*args)
            chunks.append(node.value)
            return node
        return recorded

    with mock.patch.object(harness, "_EVAL_ROWS", rows), \
            mock.patch.object(harness, "mlp_logits_node", spy(harness.mlp_logits_node)), \
            mock.patch.object(harness, "autoencoder_logits_node", spy(harness.autoencoder_logits_node)):
        return evaluate(), chunks


@given(
    rows=st.integers(64, 600),
    n=st.integers(1, 1500),
    n_receivers=st.integers(1, 3),
    scale=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_scores_do_not_depend_on_the_chunk_size(rows, n, n_receivers, scale, seed):
    # Chunks of at most `rows` rows of all draws together, as even as they
    # divide, give the logits of the whole draws in one forward, bit for
    # bit, and so the same rates.
    demods = [p.with_values(scale * p.values) for p in (init_params(DEMOD_ARCH, seed + i) for i in range(n_receivers))]
    aes = [p.with_values(scale * p.values) for p in (init_autoencoder_params(_AE, seed + i) for i in range(n_receivers))]
    demod_task, ae_task = TaskFamily(kind="demod", snr_db=15.0).sample(np.random.default_rng(seed)), TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(seed))
    other_task = TaskFamily(kind="autoencoder", snr_db=5.0).sample(np.random.default_rng(seed + 1))
    for n_draws, evaluate in (
        (1, lambda: evaluate_ser(demods, demod_task, n, np.random.default_rng(seed))),
        (1, lambda: evaluate_bler([aes], _AE, [ae_task], n, [np.random.default_rng(seed)])),
        (2, lambda: evaluate_bler(
            [aes, aes[:1]], _AE, [ae_task, other_task], n, [np.random.default_rng(seed), np.random.default_rng(seed + 1)])),
    ):
        whole_rates, (whole,) = _scored_in_chunks(n_draws * n, evaluate)
        rates, chunks = _scored_in_chunks(rows, evaluate)
        sizes = [chunk.shape[-2] for chunk in chunks]
        assert len(sizes) == -(-n_draws * n // rows) and max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(chunks, axis=-2), whole)
        assert rates == whole_rates


def test_default_scale_scores_in_chunks_of_500():
    # 500 rows of all draws together: a deployment group's two channels
    # (two receivers each) run in chunks of 250 blocks, four rows each
    receivers = (init_autoencoder_params(_AE, 0), init_autoencoder_params(_AE, 1))
    tasks = TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(77)), TaskFamily(kind="autoencoder", snr_db=10.0).sample(np.random.default_rng(79))
    n_blocks = default_config("autoencoder").n_eval_symbols_or_blocks
    for n_tasks, shape, count in ((1, (2, 500), 4), (2, (4, 250), 8)):
        _, chunks = _scored_in_chunks(harness._EVAL_ROWS, lambda: evaluate_bler(
            [receivers] * n_tasks, _AE, tasks[:n_tasks], n_blocks, [np.random.default_rng(78 + i) for i in range(n_tasks)]))
        assert [chunk.shape for chunk in chunks] == [shape + (_AE.n_messages,)] * count


@pytest.mark.parametrize("counts", [(1, 1), (2, 1), (1, 3), (2, 2, 1)])
def test_evaluate_bler_scores_each_task_on_its_own_draw(counts):
    # receivers of several tasks in one stack: each rate is that receiver
    # scored alone on its own task's draw
    family = TaskFamily(kind="autoencoder", snr_db=8.0)
    tasks = [family.sample(np.random.default_rng(80 + i)) for i in range(len(counts))]
    receivers = [tuple(init_autoencoder_params(_AE, 10 * i + j) for j in range(c)) for i, c in enumerate(counts)]
    got = evaluate_bler(receivers, _AE, tasks, 300, [np.random.default_rng(90 + i) for i in range(len(counts))])
    want = [
        tuple(evaluate_bler([(p,)], _AE, [task], 300, [np.random.default_rng(90 + i)])[0][0] for p in rs)
        for i, (task, rs) in enumerate(zip(tasks, receivers))
    ]
    assert got == want
    with pytest.raises(ConfigurationError, match="one rng per task"):
        evaluate_bler(receivers, _AE, tasks, 300, [np.random.default_rng(0)] * (len(counts) + 1))


# ---------------------------------------------------------------------------
# curve tables and CSV


def test_curve_row_validation():
    CurveRow(2.0, "maml", "ser", 0.5, 0.1, 3)
    CurveRow(0.0, "maml", "meta_loss", 7.3, 0.0, 1)  # losses may exceed 1
    for bad in (
        dict(method="magic"),
        dict(metric="accuracy"),
        dict(mean=1.5),
        dict(std=-0.1),
        dict(n_seeds=0),
    ):
        kw = dict(sweep_value=2.0, method="maml", metric="ser", mean=0.5, std=0.1, n_seeds=3)
        kw.update(bad)
        with pytest.raises(ConfigurationError):
            CurveRow(**kw)


def test_curve_table_len():
    rows = (
        CurveRow(2.0, "maml", "ser", 0.3, 0.0, 1),
        CurveRow(4.0, "maml", "ser", 0.2, 0.0, 1),
        CurveRow(2.0, "joint", "ser", 0.6, 0.0, 1),
    )
    table = CurveTable(rows)
    assert len(table) == 3


def test_curve_csv_round_trip_preserves_floats(tmp_path):
    rows = (
        CurveRow(1.0, "maml", "ser", 1.0 / 3.0, 0.1234567890123456789, 5),
        CurveRow(2.0, "conventional", "ser", 0.25, 0.0, 5),
    )
    path = tmp_path / "curve.csv"
    write_curve(CurveTable(rows), path)
    back = read_curve(path)
    assert back.rows == rows  # 17 significant digits round-trip doubles
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER


def test_read_curve_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("nope\n")
    with pytest.raises(ConfigurationError, match="header"):
        read_curve(bad_header)
    bad_fields = tmp_path / "b.csv"
    bad_fields.write_text(CSV_HEADER + "\n1.0,maml,ser,0.5\n")
    with pytest.raises(ConfigurationError, match="6 fields"):
        read_curve(bad_fields)
    with pytest.raises(ConfigurationError):
        read_curve(tmp_path / "missing.csv")
    not_utf8 = tmp_path / "c.csv"
    not_utf8.write_bytes(CSV_HEADER.encode() + b"\n1.0,ma\xffml,ser,0.5,0,1\n")
    with pytest.raises(ConfigurationError, match="c.csv"):
        read_curve(not_utf8)



@pytest.mark.parametrize(
    "rows,where",
    [
        ("x,maml,ser,0.5,0,1\n", "d.csv:2: could not convert"),
        ("1.0,maml,ser,0.5,0,1\n2.0,maml,ser,0.5,0,two\n", "d.csv:3: invalid literal"),
        ("1.0,maml,ser,0.5,0,1\n\n2.0,maml,ser,1.5,0,1\n", "d.csv:4: ser mean 1.5 outside"),
        ("1.0,magic,ser,0.5,0,1\n", "d.csv:2: unknown method label"),
        ("nan,maml,meta_loss,nan,nan,1\n", "d.csv:2: sweep value, mean and std must be finite"),
        ("1.0,maml,ser,0.5,0,1\ninf,maml,ser,0.5,inf,2\n", "d.csv:3: sweep value, mean and std must be finite"),
        ("1.0,maml,meta_loss,-inf,0,1\n", "d.csv:2: sweep value, mean and std must be finite"),
    ],
)
def test_read_curve_names_the_line_of_a_bad_row(tmp_path, rows, where):
    path = tmp_path / "d.csv"
    path.write_text(CSV_HEADER + "\n" + rows)
    with pytest.raises(ConfigurationError, match=where):
        read_curve(path)

# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(tmp_path):
    for profile in ("demod", "autoencoder"):
        cfg = default_config(profile)
        path = tmp_path / f"{profile}.cfg"
        write_config(cfg, path)
        assert load_config(path) == cfg
    # a path with inner spaces and an '=' reads back as written
    cfg = replace(default_config("demod"), output_path="my runs/n=1.csv")
    write_config(cfg, tmp_path / "odd.cfg")
    assert load_config(tmp_path / "odd.cfg") == cfg
    # one that load_config would read back differently is refused, and nothing is written
    for out in ("run#1.csv", " padded.csv ", "two\nlines.csv", "two\rlines.csv"):
        with pytest.raises(ConfigurationError, match="cannot write output_path"):
            write_config(replace(default_config("demod"), output_path=out), tmp_path / "bad.cfg")
        assert not (tmp_path / "bad.cfg").exists()


def test_load_config_overrides_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment line\n"
        "profile = demod\n"
        "\n"
        "outer_iters = 12   # trailing comment\n"
        "pilot_counts = 2, 8\n"
        "first_order = true\n"
    )
    cfg = load_config(path)
    assert cfg.outer_iters == 12
    assert cfg.pilot_counts == (2, 8)
    assert cfg.first_order is True
    assert cfg.snr_db == default_config("demod").snr_db


def test_load_config_diagnostics(tmp_path):
    cases = {
        "missing_profile.cfg": ("outer_iters = 5\n", "missing required key 'profile'"),
        "unknown_key.cfg": ("profile = demod\nbogus = 1\n", "unknown key 'bogus'"),
        "repeated.cfg": ("profile = demod\nm = 1\nm = 2\n", "repeated key 'm'"),
        "bad_value.cfg": ("profile = demod\nm = x\n", "bad value for 'm'"),
        "no_equals.cfg": ("profile = demod\njust words\n", "expected 'key = value'"),
        "bad_profile.cfg": ("profile = qpsk\n", "unknown profile"),
        "bad_bool.cfg": ("profile = demod\nfirst_order = maybe\n", "expected a boolean"),
        "empty_pilots.cfg": ("profile = demod\npilot_counts =\n", "pilot_counts"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=message):
            load_config(path)
    with pytest.raises(ConfigurationError, match="cannot read config"):
        load_config(tmp_path / "missing.cfg")
    # line numbers point at the offending line
    path = tmp_path / "lineno.cfg"
    path.write_text("profile = demod\n\nm = x\n")
    with pytest.raises(ConfigurationError, match="lineno.cfg:3"):
        load_config(path)


_CONFIG_LINES = st.lists(
    st.tuples(
        st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["", "bogus", "#"]),
        st.sampled_from(["=", " = ", "", "=="]),
        st.one_of(
            st.sampled_from(["demod", "autoencoder", "nan", "-inf", "1e400", "-1", "0", "0,0", "4,2", "true", ""]),
            st.text(max_size=12),
        ),
    ).map(lambda kv: "".join(kv)),
    max_size=8,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@given(st.one_of(st.binary(max_size=200), _CONFIG_LINES))
@settings(max_examples=300, deadline=None)
def test_load_config_gives_a_config_or_an_error_naming_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    try:
        assert isinstance(load_config(path), ExperimentConfig)
    except ConfigurationError as err:
        assert str(path) in str(err)


def test_experiment_config_validation():
    base = default_config("demod")
    for bad in (
        dict(baseline_iters=0),
        dict(pilot_counts=()),
        dict(pilot_counts=(4, 2)),
        dict(pilot_counts=(2, 2)),
        dict(seeds=()),
        dict(eta_outer=0.0),
        dict(m=0),
    ):
        with pytest.raises(ConfigurationError):
            replace(base, **bad)
    with pytest.raises(ConfigurationError):
        default_config("qpsk")


def test_unit_tap_loads_only_under_the_profile_that_honours_it(tmp_path):
    path = tmp_path / "u.cfg"
    path.write_text("profile = demod\nunit_tap = true\n")
    assert load_config(path) == replace(default_config("demod"), unit_tap=True)
    # write_config writes every field, so the autoencoder reads a false one back
    path.write_text("profile = autoencoder\nunit_tap = false\n")
    assert load_config(path) == default_config("autoencoder")
    path.write_text("profile = autoencoder\n\nunit_tap = true\n")
    with pytest.raises(ConfigurationError, match="u.cfg:3: unit_tap is a demod family; the autoencoder family has none"):
        load_config(path)


def test_an_integer_no_index_holds_is_refused():
    top = int(np.iinfo(np.intp).max)
    base = default_config("demod")
    assert replace(base, n_eval_symbols_or_blocks=top).n_eval_symbols_or_blocks == top
    assert replace(base, n_eval_symbols_or_blocks=10**17).n_eval_symbols_or_blocks == 10**17
    ints = [f.name for f in fields(ExperimentConfig) if type(getattr(base, f.name)) is int]
    assert {"m", "seed", "n_eval_symbols_or_blocks"} <= set(ints)
    for name, value in [*((name, top + 1) for name in ints), ("pilot_counts", (2, top + 1)), ("seeds", (top + 1,))]:
        with pytest.raises(ConfigurationError, match=f"{name} must be at most {top}, got"):
            replace(base, **{name: value})


def test_shipped_configs_load_and_the_defaults_are_the_profiles():
    loaded = {path.stem: load_config(path) for path in sorted(_CONFIGS.glob("*.cfg"))}
    assert {"demod_default", "autoencoder_default", "demod_smoke", "phase_rotation"} <= set(loaded)
    for profile in ("demod", "autoencoder"):
        assert loaded[f"{profile}_default"] == default_config(profile)


def test_autoencoder_meta_batch_must_fit_the_task_pool():
    ae = default_config("autoencoder")
    assert replace(ae, K_meta_batch=7, n_meta_train_tasks=7).K_meta_batch == 7
    with pytest.raises(ConfigurationError, match="K_meta_batch 8 exceeds n_meta_train_tasks 7"):
        replace(ae, K_meta_batch=8, n_meta_train_tasks=7)
    # The demod stream takes the whole pool when the batch outgrows it.
    assert replace(default_config("demod"), K_meta_batch=8, n_meta_train_tasks=7).K_meta_batch == 8


# ---------------------------------------------------------------------------
# parameter persistence


def test_params_round_trip(tmp_path):
    p = init_params(mlp_arch((2, 5, 3)), 9)
    path = tmp_path / "p.npz"
    save_params(path, p)
    back = load_params(path)
    assert np.array_equal(back.values, p.values)
    assert back.arch == p.arch
    with pytest.raises(ConfigurationError):
        load_params(tmp_path / "missing.npz")


# ---------------------------------------------------------------------------
# sweeps at toy scale


def test_pilot_sweep_structure_and_determinism(tmp_path):
    cfg = _tiny_demod_config()
    result = run_pilot_sweep(cfg)
    methods = ("conventional", "joint", "joint+adapt", "maml")
    assert len(result.records) == len(cfg.seeds) * cfg.n_meta_test_tasks * len(cfg.pilot_counts) * 4
    assert len(result.table) == len(cfg.pilot_counts) * 4
    for row in result.table.rows:
        assert row.metric == "ser"
        assert 0.0 <= row.mean <= 1.0
        assert row.method in methods
        assert row.n_seeds == 2
    for n in cfg.pilot_counts:
        for method in methods:
            assert sum((r.method, r.sweep_value) == (method, float(n)) for r in result.table.rows) == 1

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curve(result.table, a)
    write_curve(run_pilot_sweep(cfg).table, b)
    assert a.read_bytes() == b.read_bytes()


def test_pilot_sweep_worker_count_does_not_change_records(tmp_path):
    cfg = _tiny_demod_config(seeds=(0, 1))
    serial = run_pilot_sweep(cfg, workers=1)
    parallel = run_pilot_sweep(cfg, workers=2)
    assert serial.records == parallel.records
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_curve(serial.table, a)
    write_curve(parallel.table, b)
    assert a.read_bytes() == b.read_bytes()


def test_pilot_sweep_first_order_label():
    cfg = _tiny_demod_config(first_order=True, seeds=(0,), outer_iters=2)
    table = run_pilot_sweep(cfg).table
    assert {row.method for row in table.rows} >= {"maml-fo"}
    assert all(row.method != "maml" for row in table.rows)


def test_pilot_sweep_requires_demod_profile():
    with pytest.raises(ConfigurationError):
        run_pilot_sweep(_tiny_ae_config())


def test_adaptation_sweep_structure_and_determinism():
    cfg = _tiny_ae_config()
    result = run_adaptation_sweep(cfg)
    t_values = cfg.adapt_iters_max + 1
    assert len(result.records) == len(cfg.seeds) * cfg.n_meta_test_tasks * t_values * 2
    assert len(result.table) == t_values * 2
    for row in result.table.rows:
        assert row.metric == "bler"
        assert row.method in ("maml", "conventional")
        assert 0.0 <= row.mean <= 1.0
    again = run_adaptation_sweep(cfg)
    assert result.records == again.records
    with pytest.raises(ConfigurationError):
        run_adaptation_sweep(_tiny_demod_config())


def test_adaptation_sweep_draws_once_for_both_starts(monkeypatch):
    # Both starts adapt on the unit's one step stream and are scored on its
    # one evaluation stream, so each step and each t draws one batch.
    cfg = _tiny_ae_config()
    sizes = []
    draw = harness.generate_autoencoder_batch

    def counted(task, n_blocks, rng, spec):
        sizes.append(n_blocks)
        return draw(task, n_blocks, rng, spec)

    monkeypatch.setattr(harness, "generate_autoencoder_batch", counted)
    result = run_adaptation_sweep(cfg)
    steps = cfg.adapt_iters_max
    assert sizes.count(cfg.n_train_blocks) == cfg.n_meta_test_tasks * steps
    assert sizes.count(cfg.n_eval_symbols_or_blocks) == cfg.n_meta_test_tasks * (steps + 1)

    # the conventional curve of unit 1, adapted and scored alone
    seed, unit = 0, 1
    spec = AutoencoderSpec()
    lossfn = make_autoencoder_lossfn(spec)
    family = TaskFamily(kind="autoencoder", snr_db=cfg.snr_db)
    task = family.sample(rng_for(seed, harness.SCOPE_TEST_TASK, unit), task_id=unit)
    p = init_autoencoder_params(spec, rng_for(seed, SCOPE_TASK, unit))
    step_rng = rng_for(seed, SCOPE_ADAPT_STEPS, unit)
    for t in range(steps + 1):
        [want] = evaluate_bler([(p,)], spec, [task], cfg.n_eval_symbols_or_blocks, [rng_for(seed, SCOPE_EVAL, unit, t)])
        got = tuple(r.value for r in result.records if (r.unit, r.method, r.sweep_value) == (unit, "conventional", t))
        assert got == want
        batch = draw(task, cfg.n_train_blocks, step_rng, spec)
        p = sgd_step(p, eval_with_gradient(lossfn, p, batch).gradient, cfg.eta_inner)
    # records keep their order: per unit, the maml curve, then the conventional one
    first_unit = [r.method for r in result.records[: 2 * (steps + 1)]]
    assert first_unit == ["maml"] * (steps + 1) + ["conventional"] * (steps + 1)


def test_adaptation_trace_runs_both_starts_as_one_stack(monkeypatch):
    # Units deploy in groups of K_meta_batch // 2 (two starts each), each
    # group's starts as one stack: here five units, one (10, P) gradient per
    # group and step, and one (10, P) forward per group, t and chunk of 500
    # rows of the five draws (here two of 100 blocks each).  The last two of
    # seven units are a group of their own, a (4, P) stack of one chunk.  No
    # per-unit, per-start or per-receiver call remains.
    cfg = _tiny_ae_config(K_meta_batch=10, n_meta_train_tasks=10, n_meta_test_tasks=7, n_eval_symbols_or_blocks=200)
    grads, forwards = [], []
    gradient, forward = harness.eval_with_gradient, harness.autoencoder_logits_node

    def spied_gradient(f, p, data=None):
        grads.append((np.shape(p), data.messages.shape))
        return gradient(f, p, data)

    def spied_forward(p_node, spec, batch):
        forwards.append((p_node.value.shape, batch.messages.shape))
        return forward(p_node, spec, batch)

    monkeypatch.setattr(harness, "eval_with_gradient", spied_gradient)
    monkeypatch.setattr(harness, "autoencoder_logits_node", spied_forward)
    run_adaptation_sweep(cfg)
    n_params, steps, n = param_count(AutoencoderSpec().arch), cfg.adapt_iters_max, cfg.n_train_blocks
    rows = 2 * (cfg.K_meta_batch // 2)  # a group's five units, two starts each
    assert rows == 10
    assert grads == [((rows, n_params), (rows, n))] * steps + [((4, n_params), (4, n))] * steps
    assert forwards == [((rows, n_params), (rows, 100))] * (2 * (steps + 1)) + [((4, n_params), (4, 200))] * (steps + 1)


def _deployed_alone(cfg, seed, task, unit, start, lossfn):
    """BLERs at t = 0..adapt_iters_max of one start adapted and scored alone."""
    p, step_rng, blers = start, rng_for(seed, SCOPE_ADAPT_STEPS, unit), []
    for t in range(cfg.adapt_iters_max + 1):
        if t:
            batch = generate_autoencoder_batch(task, cfg.n_train_blocks, step_rng, _AE)
            p = sgd_step(p, eval_with_gradient(lossfn, p, batch).gradient, cfg.eta_inner)
        rng = rng_for(seed, SCOPE_EVAL, unit, t)
        [(bler,)] = evaluate_bler([(p,)], _AE, [task], cfg.n_eval_symbols_or_blocks, [rng])
        blers.append(bler)
    return blers


@given(
    n_units=st.integers(1, 7),
    k_meta=st.integers(1, 10),
    first_order=st.booleans(),
    n_blocks=st.integers(1, 1200),
    seed=st.integers(0, 2**10),
)
@settings(max_examples=12, deadline=None)
def test_adaptation_sweep_records_are_each_unit_deployed_and_scored_alone(n_units, k_meta, first_order, n_blocks, seed):
    # groups of k_meta // 2 units (at least one), a count that the group
    # size does not divide leaving a partial group, and draws long enough to
    # be chunked: every record is what its start gives adapted and scored
    # alone
    cfg = _tiny_ae_config(
        seeds=(seed,), seed=seed, n_meta_test_tasks=n_units, first_order=first_order, K_meta_batch=k_meta,
        n_meta_train_tasks=10, outer_iters=1, adapt_iters_max=2, n_train_blocks=8, n_eval_symbols_or_blocks=n_blocks,
    )
    records = run_adaptation_sweep(cfg).records
    meta, lossfn = run_meta_train(cfg).params, make_autoencoder_lossfn(_AE)
    tasks = harness._test_tasks(TaskFamily(kind="autoencoder", snr_db=cfg.snr_db), seed, n_units)
    want = []
    for unit, task in enumerate(tasks):
        starts = {"maml-fo" if first_order else "maml": meta, "conventional": init_autoencoder_params(_AE, rng_for(seed, SCOPE_TASK, unit))}
        for method, start in starts.items():
            curve = _deployed_alone(cfg, seed, task, unit, start, lossfn)
            want.extend(SweepRecord(seed, unit, float(t), method, "bler", b) for t, b in enumerate(curve))
    assert records == tuple(want)


def test_deployment_groups_move_no_bit():
    # Only K_meta_batch differs, so only the group size moves: in the sweep's
    # deployment (two starts per unit) groups of one unit against five, in
    # eval (one start per unit) groups of two units against all seven.
    cfg = _tiny_ae_config(n_meta_train_tasks=10, n_meta_test_tasks=7, adapt_iters_max=2, n_eval_symbols_or_blocks=600)
    small, large = replace(cfg, K_meta_batch=2), replace(cfg, K_meta_batch=10)
    tasks = harness._test_tasks(TaskFamily(kind="autoencoder", snr_db=cfg.snr_db), 0, 7)
    params, lossfn = init_autoencoder_params(_AE, 4), make_autoencoder_lossfn(_AE)
    starts = [(params, init_autoencoder_params(_AE, rng_for(0, SCOPE_TASK, unit))) for unit in range(7)]
    scored = range(cfg.adapt_iters_max + 1)
    assert harness._adaptation(small, 0, tasks, starts, lossfn, scored) == harness._adaptation(large, 0, tasks, starts, lossfn, scored)
    assert evaluate_params(small, params) == evaluate_params(large, params)


# Most tape per task row that an autoencoder meta-batch's stack may hold.
_TAPE_MB_PER_ROW = 0.92


def test_a_deployment_group_holds_less_than_a_meta_iteration():
    # One group's adaptation step and its scoring at the default profile
    # (five channels, two starts each, 128 training and 2,000 evaluation
    # blocks), within 0.92 MB (_TAPE_MB_PER_ROW) per channel: half the
    # bound of a meta-iteration's tape, whose stack holds as many rows as
    # the group.  tracemalloc peak, measured: 3.66 MB.
    cfg = replace(default_config("autoencoder"), adapt_iters_max=1)
    channels = cfg.K_meta_batch // 2
    tasks = harness._test_tasks(TaskFamily(kind="autoencoder", snr_db=cfg.snr_db), 0, channels)
    meta, lossfn = init_autoencoder_params(_AE, 0), make_autoencoder_lossfn(_AE)
    starts = [(meta, init_autoencoder_params(_AE, rng_for(0, SCOPE_TASK, unit))) for unit in range(channels)]
    tracemalloc.start()
    try:
        harness._adaptation(cfg, 0, tasks, starts, lossfn, (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _TAPE_MB_PER_ROW * channels * 2**20, f"peak {peak / 2**20:.2f} MB"


# ---------------------------------------------------------------------------
# single-run entry points


def test_run_meta_train_and_evaluate_demod():
    cfg = _tiny_demod_config(seeds=(0,))
    result = run_meta_train(cfg)
    assert result.params.arch == DEMOD_ARCH
    assert len(result.history) == cfg.outer_iters
    metric, values = evaluate_params(cfg, result.params)
    assert metric == "ser"
    assert len(values) == cfg.n_meta_test_tasks
    assert all(0.0 <= v <= 1.0 for v in values)


def test_evaluate_params_is_the_sweeps_maml_point():
    cfg = _tiny_demod_config(seeds=(3,), seed=3)
    n = max(cfg.pilot_counts)
    sweep = run_pilot_sweep(cfg).records
    _, values = evaluate_params(cfg, run_meta_train(cfg).params)
    assert values == [r.value for r in sweep if r.method == "maml" and r.sweep_value == n]


def test_evaluate_params_is_the_sweeps_maml_point_for_the_autoencoder():
    cfg = _tiny_ae_config(seeds=(2,), seed=2, n_meta_test_tasks=3)
    t = cfg.adapt_iters_max
    sweep = run_adaptation_sweep(cfg).records
    _, values = evaluate_params(cfg, run_meta_train(cfg).params)
    assert values == [r.value for r in sweep if r.method == "maml" and r.sweep_value == t]


def test_pilot_sweep_records_are_each_receiver_deployed_and_scored_alone():
    seed = 4
    cfg = _tiny_demod_config(seeds=(seed,), seed=seed)
    records = run_pilot_sweep(cfg).records
    pool, init, lossfn, result = harness._meta_trained(cfg, seed)
    tc = cfg.train_config(seed)
    tc_base = replace(tc, outer_iters=cfg.baseline_iters)
    theta = result.params
    joint = train_joint(pool_datasets(item.train for item in pool.items), tc_base, init=init, lossfn=lossfn)
    tasks = harness._test_tasks(cfg.family(), seed, cfg.n_meta_test_tasks)
    methods = ("conventional", "joint", "joint+adapt", "maml")
    # per device, pilot counts ascending, the four methods in order
    assert [(r.unit, r.sweep_value, r.method) for r in records] == [
        (device, float(n), method) for device in range(len(tasks)) for n in cfg.pilot_counts for method in methods
    ]
    for r in records:
        task, n = tasks[r.unit], int(r.sweep_value)
        pilots = make_pilot_dataset(task, n, rng_for(seed, SCOPE_ADAPT_PILOTS, r.unit, n))
        if r.method == "conventional":
            (alone,) = train_conventional([task], tc_base, datasets=[pilots], init=init, lossfn=lossfn)
        elif r.method == "joint":
            alone = joint
        else:
            start = joint if r.method == "joint+adapt" else theta
            alone = maml_adapt(start, pilots, tc.eta_inner, tc.m, lossfn=lossfn)
        rng = rng_for(seed, SCOPE_EVAL, r.unit, n)
        assert (r.value,) == evaluate_ser((alone,), task, cfg.n_eval_symbols_or_blocks, rng), r


def test_pilot_sweep_adapts_once_per_pilot_count_and_draws_once_per_device(monkeypatch):
    cfg = _tiny_demod_config(seeds=(0, 1), n_meta_test_tasks=3, pilot_counts=(1, 2, 4))
    calls = {"maml_adapt": [], "evaluate_ser": []}
    for name in calls:
        def counted(*args, _orig=getattr(harness, name), _log=calls[name], **kwargs):
            _log.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    run_pilot_sweep(cfg)
    # one (devices x 2 starts) stack per seed and pilot count, four receivers per draw
    assert [args[0].shape[0] for args in calls["maml_adapt"]] == [3 * 2] * (2 * len(cfg.pilot_counts))
    assert [len(args[0]) for args in calls["evaluate_ser"]] == [4] * (2 * 3 * len(cfg.pilot_counts))


@pytest.mark.parametrize("workers,n_seeds,forked", [(500, 5, [5]), (2, 5, [2]), (500, 1, []), (1, 3, [])])
def test_sweep_forks_no_more_workers_than_seeds(monkeypatch, workers, n_seeds, forked):
    made = []

    class NoProcessPool:  # records max_workers and runs in-process
        def __init__(self, max_workers, initializer=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", NoProcessPool)
    cfg = _tiny_demod_config(seeds=tuple(range(n_seeds)))

    def worker(config, seed):
        return [SweepRecord(seed, 0, 1.0, "maml", "ser", 0.5)]

    result = harness._sweep(worker, "demod", cfg, workers)
    assert made == forked
    assert [r.seed for r in result.records] == list(range(n_seeds))


@pytest.mark.parametrize("n_pilots", [0, -3])
def test_phase_rotation_rejects_a_pilot_count_before_training(tmp_path, monkeypatch, n_pilots):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the pilot count")

    monkeypatch.setattr(harness, "meta_train", no_training)
    monkeypatch.setattr(harness, "train_joint", no_training)
    path = tmp_path / "rotation.cfg"
    path.write_text((_CONFIGS / "phase_rotation.cfg").read_text().replace("pilot_counts = 16", f"pilot_counts = {n_pilots}"))
    with pytest.raises(ConfigurationError, match=r"rotation.cfg:\d+: pilot counts must be positive"):
        run_pilot_sweep(load_config(path))


def test_phase_rotation_scores_both_receivers_on_one_draw_per_device(monkeypatch):
    # joint and the adapted model share each device's (device, n_pilots) draw
    # with the pilot sweep's two other receivers
    calls = []
    score = harness.evaluate_ser

    def counted(receivers, task, n_symbols, rng):
        calls.append((len(receivers), rng.bit_generator.state))
        return score(receivers, task, n_symbols, rng)

    monkeypatch.setattr(harness, "evaluate_ser", counted)
    run_pilot_sweep(_tiny_rotation_config())
    assert calls == [(4, rng_for(5, SCOPE_EVAL, device, 4).bit_generator.state) for device in range(3)]


def test_unit_tap_reaches_every_stage_that_draws_devices(monkeypatch):
    # meta-train's pool, the sweep's pool and test devices, and eval's test
    # devices all come from the config's family
    families = []
    for name in ("demod_task_pool", "_test_tasks"):
        def spy(family, *args, _orig=getattr(harness, name)):
            families.append(family)
            return _orig(family, *args)

        monkeypatch.setattr(harness, name, spy)
    config = _tiny_rotation_config(snr_db=12.5, n_meta_test_tasks=1)
    run_meta_train(config)
    run_pilot_sweep(config)
    evaluate_params(config, init_params(DEMOD_ARCH, 0))
    assert families == [TaskFamily(kind="demod", snr_db=12.5, unit_tap=True)] * 4


def test_phase_rotation_and_demod_eval_adapt_as_one_stack(monkeypatch):
    # they deploy through the pilot sweep's stage: one stacked maml_adapt of
    # every device's starts, joint and maml in the study, the saved params in eval
    shapes = []
    adapt = harness.maml_adapt

    def counted(theta, *args, **kwargs):
        shapes.append(theta.shape[0])
        return adapt(theta, *args, **kwargs)

    monkeypatch.setattr(harness, "maml_adapt", counted)
    run_pilot_sweep(_tiny_rotation_config())
    assert shapes == [3 * 2]
    shapes.clear()
    evaluate_params(_tiny_demod_config(n_meta_test_tasks=3), init_params(DEMOD_ARCH, 0))
    assert shapes == [3]


def test_median_of_seed_means():
    records = [
        SweepRecord(seed, unit, 2.0, "maml", "ser", value)
        for seed, unit, value in ((0, 0, 0.1), (0, 1, 0.3), (1, 0, 0.5), (2, 0, 0.9), (2, 1, 0.7))
    ]
    # per-seed means 0.2, 0.5, 0.8
    assert median_of_seed_means(records, "maml", "ser", 2.0) == 0.5
    with pytest.raises(ConfigurationError, match="no records"):
        median_of_seed_means(records, "joint", "ser", 2.0)


def test_run_meta_train_and_evaluate_autoencoder():
    cfg = _tiny_ae_config()
    result = run_meta_train(cfg)
    spec = AutoencoderSpec()
    assert result.params.arch == spec.arch
    metric, values = evaluate_params(cfg, result.params)
    assert metric == "bler"
    assert len(values) == cfg.n_meta_test_tasks
    assert all(0.0 <= v <= 1.0 for v in values)


def test_an_autoencoder_meta_iteration_holds_one_task_tape_per_stacked_row():
    # One exact meta-iteration of the default autoencoder profile (K = 10,
    # 128 blocks) as meta-training runs it, one stack of 10.  tracemalloc
    # peaks, measured: 1.10 MB one task at a time, 4.40 MB as a stack of 5
    # and 8.64 MB as one stack of 10 (0.86 MB per row).  The bound of
    # 0.92 MB per row fails a tanh VJP of three nodes (4.76 MB as a stack of
    # 5) and an encoder run once per block instead of once per message
    # (6.41 MB as a stack of 5).
    rows = default_config("autoencoder").K_meta_batch
    meta_value_grad = _default_autoencoder_meta_iteration()
    tracemalloc.start()
    try:
        meta_value_grad()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _TAPE_MB_PER_ROW * rows * 2**20, f"peak {peak / 2**20:.2f} MB"


def _default_autoencoder_meta_iteration():
    """One exact meta-iteration's meta-gradient of the default autoencoder
    profile, on seed 0's first meta-batch, as one stack."""
    cfg = default_config("autoencoder")
    pool = autoencoder_task_pool(TaskFamily(kind="autoencoder", snr_db=cfg.snr_db), cfg.n_meta_train_tasks, 0)
    stream = autoencoder_stream(pool, AutoencoderSpec(), cfg.K_meta_batch, cfg.n_train_blocks)
    batch = stream(rng_for(0, SCOPE_META_STREAM))
    init, lossfn = init_autoencoder_params(AutoencoderSpec(), 0), make_autoencoder_lossfn(AutoencoderSpec())
    assert len(batch) == 10 and len(batch.items[0].train) == 128
    tc = cfg.train_config(0)
    return lambda: learners._meta_value_grad(init, batch, tc, lossfn)


@pytest.mark.skipif(
    resource is None or not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs getrusage and a libc with mallopt"
)
def test_warm_autoencoder_meta_iterations_fault_in_no_memory():
    # The engine frees and makes arrays of 100 KB - 1 MB at every node.  With
    # glibc's default settings each comes back as fresh pages from the OS, so
    # ten warm meta-iterations took 6.8k-7.4k minor faults (measured); with
    # graph's mallopt settings freed memory stays in the heap, and they take
    # 10-22.
    meta_value_grad = _default_autoencoder_meta_iteration()
    meta_value_grad()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        meta_value_grad()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, f"{faults} minor page faults"


def test_a_default_autoencoder_meta_iteration_runs_as_one_stack(monkeypatch):
    shapes = []
    meta_grad = learners._meta_grad

    def spied(theta, d_tr, d_te, config, lossfn):
        shapes.append((theta.shape, d_tr.messages.shape, d_te.messages.shape))
        return meta_grad(theta, d_tr, d_te, config, lossfn)

    monkeypatch.setattr(learners, "_meta_grad", spied)
    cfg = replace(default_config("autoencoder"), outer_iters=1)
    harness._meta_trained(cfg, 0)
    n_params, n = param_count(AutoencoderSpec().arch), cfg.n_train_blocks
    assert cfg.K_meta_batch == 10
    assert shapes == [((10, n_params), (10, n), (10, n))]
