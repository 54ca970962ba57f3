"""Command-line interface tests: exit codes, file outputs, flag overrides,
printed tables, and end-to-end subprocess invocations."""

import contextlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metalink
from metalink import __main__ as entry
from metalink import cli
from metalink.checks import CheckReport, CheckResult
from metalink.errors import ConfigurationError
from metalink.harness import (
    CurveTable,
    default_config,
    load_params,
    median_of_seed_means,
    read_curve,
    run_phase_rotation_seed,
    save_params,
)
from metalink.learners import MetaTrainResult
from metalink.nn import AutoencoderSpec, ParamVector, init_autoencoder_params, init_params, mlp_arch


def _write_tiny_demod(path, **extra):
    lines = {
        "profile": "demod",
        "outer_iters": 8,
        "baseline_iters": 6,
        "K_meta_batch": 3,
        "pilot_counts": "2,4",
        "n_meta_train_tasks": 6,
        "n_meta_test_tasks": 2,
        "n_eval_symbols_or_blocks": 200,
        "meta_train_pilots": 4,
        "meta_test_pilots": 8,
        "seeds": "0,1",
    }
    lines.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def _write_tiny_ae(path, **extra):
    lines = {
        "profile": "autoencoder",
        "outer_iters": 4,
        "K_meta_batch": 2,
        "adapt_iters_max": 3,
        "n_meta_train_tasks": 3,
        "n_meta_test_tasks": 2,
        "n_eval_symbols_or_blocks": 200,
        "n_train_blocks": 16,
        "seeds": "0",
    }
    lines.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def test_gradcheck_small_exits_clean(capsys):
    assert cli.main(["gradcheck", "--scale", "small"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_gradcheck_failure_exits_three(monkeypatch, capsys):
    failing = CheckReport((CheckResult("planted failure", 1.0, 1e-6),), 0.0)
    monkeypatch.setattr(cli, "run_gradcheck", lambda scale: failing)
    assert cli.main(["gradcheck"]) == cli.EXIT_CHECK
    assert "CHECKS FAILED" in capsys.readouterr().out


def test_configuration_errors_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where meta-train saves when --out names no file
    # parameter files whose arch is not a list of (fan_in, fan_out, act) triples
    for name, arch in (("flat", "[1, 2]"), ("null", '[[null, 2, "tanh"]]')):
        np.savez(tmp_path / f"{name}.npz", values=np.zeros(3), arch=np.array(arch))
    # and parameter files whose values are not finite real numbers
    arch = np.array(json.dumps([[2, 16, "linear"]]))
    for name, values in (("text", np.zeros(48).astype(str)), ("nan", np.append(np.zeros(47), np.nan))):
        np.savez(tmp_path / f"{name}.npz", values=values, arch=arch)
    # and parameter files whose widths are JSON numbers int() would coerce to
    # a width that fits the values: a float, a bool and a string
    for name, fan_in, n_values in (("float", "2.9", 48), ("bool", "true", 32), ("string", '"2"', 48)):
        width_arch = np.array(f'[[{fan_in}, 16, "linear"]]')
        np.savez(tmp_path / f"{name}.npz", values=np.zeros(n_values), arch=width_arch)
    cases = [(argv, "config error: ") for argv in (
        ["gradcheck", "--bogus"],
        ["sweep-pilots", "--config", str(tmp_path / "missing.cfg")],
        ["meta-train", "--profile", "qpsk"],
        ["eval", "--profile", "demod"],  # --params is required
        ["meta-train", "--config", ""],  # an empty path names no config file
        [],
        ["meta-train", "--config", _write_tiny_demod(tmp_path / "t.cfg", seeds="0"), "--out", "a\x00b"],
        ["sweep-pilots", "--config", str(tmp_path / "t.cfg"), "--out", "a\x00b"],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "flat.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "null.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "text.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "nan.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "float.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "bool.npz")],
        ["eval", "--profile", "demod", "--params", str(tmp_path / "string.npz")],
    )]
    # an empty output path is rejected before any training, not replaced by
    # a default path or found out when the curve is written
    # a bare .npy array is not a parameter archive
    np.save(tmp_path / "bare.npy", np.zeros(48))
    cases += [
        (["eval", "--profile", "demod", "--params", str(tmp_path / "bare.npy")], "not an .npz archive"),
        (["meta-train", "--config", str(tmp_path / "t.cfg"), "--out", ""], "config error: argument --out: must not be empty"),
        (
            ["sweep-pilots", "--config", _write_tiny_demod(tmp_path / "o.cfg", output_path=tmp_path / "o.csv"), "--out", ""],
            "config error: argument --out: must not be empty",
        ),
        (["sweep-pilots", "--config", _write_tiny_demod(tmp_path / "e.cfg", output_path="")], "e.cfg:12: output_path must not be empty"),
    ]
    files = sorted(os.listdir(tmp_path))
    for argv, said in cases:
        assert cli.main(argv) == cli.EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert said in err, err
        if "--params" in argv:
            assert err.startswith(f"config error: cannot load parameters '{argv[-1]}': "), err
        assert sorted(os.listdir(tmp_path)) == files, argv


@pytest.fixture(scope="module")
def saved_params(tmp_path_factory):
    """The bytes of a parameter archive written by `meta-train`."""
    where = tmp_path_factory.mktemp("saved")
    out = where / "theta.npz"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["meta-train", "--config", _write_tiny_demod(where / "t.cfg", seeds="0"), "--out", str(out)]) == 0
    return out.read_bytes()


def _flipped(data, offset, *positions):
    data = bytearray(data)
    for i in positions:
        data[offset + i] ^= 0xFF
    return bytes(data)


def test_unreadable_parameter_archives_exit_one_with_one_line(tmp_path, capsys, saved_params):
    # a file that starts like a zip archive but is not one, the first half of
    # a valid archive (an interrupted write), a byte flipped inside the
    # stored values, and two bytes flipped in a compressed archive
    values = load_params(io.BytesIO(saved_params)).values
    stored = saved_params.index(values.tobytes())
    buffer = io.BytesIO()
    np.savez_compressed(buffer, values=values, arch=np.array(json.dumps([[2, 32, "tanh"]])))
    compressed = buffer.getvalue()
    files = {
        "zeros.npz": (b"PK\x03\x04" + bytes(60), "File is not a zip file"),
        "half.npz": (saved_params[:len(saved_params) // 2], "File is not a zip file"),
        "flipped.npz": (_flipped(saved_params, stored, 100), "Bad CRC-32"),
        # the deflate stream starts after the 30-byte local header, the name
        # and a 20-byte zip64 field; these two bytes are in its code tables
        "compressed.npz": (_flipped(compressed, 30 + len("values.npy") + 20, 2, 3), "Error -3 while decompressing"),
    }
    for name, (data, said) in files.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert cli.main(["eval", "--profile", "demod", "--params", str(path)]) == cli.EXIT_CONFIG, name
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot load parameters '{path}': ") and said in err, err
        assert err.count("\n") == 1, err


_DAMAGE = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 2**20), st.just(b"")),
        st.tuples(st.just("flip"), st.integers(0, 2**20), st.binary(min_size=1, max_size=1).filter(any)),
        st.tuples(st.just("append"), st.just(0), st.binary(min_size=1, max_size=64)),
    ),
    min_size=1,
    max_size=4,
)


@given(damage=_DAMAGE)
@settings(max_examples=300, deadline=None)
def test_load_params_gives_params_or_an_error_naming_the_file(tmp_path_factory, saved_params, damage):
    data = bytearray(saved_params)
    for kind, where, what in damage:
        if kind == "truncate":
            del data[where % (len(data) + 1):]
        elif kind == "flip" and data:
            data[where % len(data)] ^= what[0]
        elif kind == "append":
            data += what
    path = tmp_path_factory.getbasetemp() / "fuzz.npz"
    path.write_bytes(bytes(data))
    try:
        assert isinstance(load_params(path), ParamVector)
    except ConfigurationError as err:
        assert str(path) in str(err)


def test_numerical_failure_exits_two(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "diverge.cfg", eta_outer="1e9", seeds="0")
    assert cli.main(["meta-train", "--config", cfg, "--out", str(tmp_path / "p.npz")]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_meta_train_then_eval_round_trip(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "tiny.cfg", seeds="0")
    out = tmp_path / "theta.npz"
    assert cli.main(["meta-train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert "meta-trained demod" in capsys.readouterr().out
    assert load_params(out).values.size > 0

    assert cli.main(["eval", "--config", cfg, "--params", str(out)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "ser over 2 meta-test tasks" in text


def test_meta_train_saves_exactly_the_path_given(tmp_path, capsys):
    # np.savez appends .npz to a path without it; the saved file must be the
    # one meta-train names and eval then reads
    cfg = _write_tiny_ae(tmp_path / "tiny.cfg")
    out = tmp_path / "theta"
    assert cli.main(["meta-train", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith(f"saved {out}\n")
    assert cli.main(["eval", "--config", cfg, "--params", str(out)]) == cli.EXIT_OK
    assert "bler over 2 meta-test tasks" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["theta", "tiny.cfg"]


_RELU_ARCH = ((2, 32, "relu"), (32, 32, "relu"), (32, 16, "linear"))


@pytest.mark.parametrize(
    "params, code, said",
    [
        # a relu net of the profile's size, saved by an older metalink, is
        # rejected: the networks are tanh nets
        (
            lambda: SimpleNamespace(values=np.zeros(1680), arch=_RELU_ARCH),
            cli.EXIT_CONFIG,
            "config error: cannot load parameters '{path}': unknown activation 'relu'\n",
        ),
        # a smaller net than the profile's adapts and is scored
        (
            lambda: init_params(mlp_arch((2, 8, 16)), 4),
            cli.EXIT_OK,
            "ser over 20 meta-test tasks: mean 0.92257, min 0.82450, max 0.99650\n",
        ),
        (lambda: init_autoencoder_params(AutoencoderSpec(), 5), cli.EXIT_CONFIG, "config error: "),
    ],
    ids=["relu", "small", "autoencoder"],
)
def test_eval_demod_adapts_the_saved_network(tmp_path, capsys, params, code, said):
    # said is the whole stdout on success, the start of stderr on failure
    path = tmp_path / "p.npz"
    save_params(path, params())
    assert cli.main(["eval", "--profile", "demod", "--params", str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == cli.EXIT_OK:
        assert captured.out == said
    else:
        assert captured.out == "" and captured.err.startswith(said.format(path=path))


def test_sweep_pilots_writes_deterministic_csv(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "sweep.cfg")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(b)]) == cli.EXIT_OK
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(c), "--workers", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    table = read_curve(a)
    assert any(row.method == "maml" for row in table.rows)
    assert all(row.metric == "ser" for row in table.rows)


def test_sweep_seed_and_first_order_flags(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "flags.cfg")
    out = tmp_path / "fo.csv"
    argv = ["sweep-pilots", "--config", cfg, "--out", str(out), "--seed", "7", "--first-order"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    table = read_curve(out)
    assert {row.method for row in table.rows} >= {"maml-fo"}
    assert all(row.method != "maml" for row in table.rows)
    assert all(row.n_seeds == 1 for row in table.rows)  # --seed collapses the seed list


def test_sweep_adapt_writes_bler_curve(tmp_path, capsys):
    cfg = _write_tiny_ae(tmp_path / "ae.cfg")
    out = tmp_path / "bler.csv"
    assert cli.main(["sweep-adapt", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    table = read_curve(out)
    assert all(row.metric == "bler" for row in table.rows)
    assert {row.method for row in table.rows} == {"maml", "conventional"}
    assert sum(row.method == "maml" for row in table.rows) == 4  # t = 0..3


def test_module_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "metalink", "gradcheck", "--scale", "small"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


@pytest.mark.parametrize(
    "extra,flags",
    [
        ({}, ["--seed", "-1"]),
        ({"seed": "-3"}, []),
        ({"seeds": "0,-1"}, []),
        ({"seeds": "0,0"}, []),
        ({"eta_inner": "nan"}, []),
        ({"eta_inner": "inf"}, []),
        ({"eta_outer": "nan"}, []),
        ({"eta_outer": "inf"}, []),
        ({"snr_db": "nan"}, []),
        ({"snr_db": "inf"}, []),
        ({"snr_db": "-inf"}, []),
        ({"snr_db": "-4000"}, []),
    ],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else " ".join(v),
)
@pytest.mark.parametrize("command", ["meta-train", "sweep-pilots"])
def test_rejected_config_values_exit_one(tmp_path, capsys, command, extra, flags):
    cfg = _write_tiny_demod(tmp_path / "bad.cfg", **extra)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,where",
    [
        ("profile = demod\nm = 2\neta_inner = nan\n", "n.cfg:3: step sizes must be finite"),
        ("profile = demod\nseeds = 0,0\n\nsnr_db = inf\n", "n.cfg:2: seeds must not repeat"),
        ("# header\nsnr_db = -inf\nprofile = demod\n", "n.cfg:2: snr_db must be finite"),
        ("profile = demod\nsnr_db = -4000\n", "n.cfg:2: snr_db must be >= -300 dB, got -4000"),
        ("profile = demod\npilot_counts = 4,2\n", "n.cfg:2: pilot_counts must be strictly ascending"),
        ("m = 1\nprofile = qpsk\n", "n.cfg:2: unknown profile"),
        ("profile = autoencoder\nn_meta_train_tasks = 4\n", "n.cfg:2: K_meta_batch 10 exceeds n_meta_train_tasks 4"),
        ("profile = autoencoder\nn_meta_train_tasks = 12\nK_meta_batch = 13\n", "n.cfg:3: K_meta_batch 13 exceeds"),
        ("profile = demod\n\nK_meta_batch = 0\n", "n.cfg:3: K_meta_batch must be positive"),
    ],
)
def test_rejected_config_value_names_its_line(tmp_path, capsys, text, where):
    path = tmp_path / "n.cfg"
    path.write_text(text)
    assert cli.main(["meta-train", "--config", str(path), "--out", str(tmp_path / "p.npz")]) == cli.EXIT_CONFIG
    assert where in capsys.readouterr().err


def test_non_utf8_config_exits_one(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"profile = demod\nm = \xff\xfe\n")
    assert cli.main(["sweep-pilots", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "latin.cfg" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["sweep-pilots", "sweep-adapt"])
def test_workers_below_one_exit_one(tmp_path, capsys, command, workers):
    write = _write_tiny_demod if command == "sweep-pilots" else _write_tiny_ae
    cfg = write(tmp_path / "w.cfg")
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == cli.EXIT_CONFIG
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["meta-train", "eval"])
def test_workers_is_rejected_where_it_is_not_honoured(tmp_path, capsys, command):
    # and eval, which trains nothing and writes nothing, takes neither --out
    # nor --first-order
    cfg = _write_tiny_demod(tmp_path / "w.cfg", seeds="0")
    out = tmp_path / "p.npz"
    if command == "meta-train":
        runs = [(["--out", str(out)], ["--workers", "2"])]
    else:
        params = tmp_path / "theta.npz"
        save_params(params, init_params(mlp_arch((2, 8, 16)), 4))
        runs = [(["--params", str(params)], flags) for flags in (["--workers", "2"], ["--out", str(out)], ["--first-order"])]
    for given, flags in runs:
        assert cli.main([command, "--config", cfg, *given, *flags]) == cli.EXIT_CONFIG, flags
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep-adapt", "--config", "{bad}"], id="sweep-adapt-config"),
        pytest.param(["sweep-pilots", "--config", "{bad}"], id="sweep-pilots-ae-config"),
        pytest.param(["phase-rotation", "--tasks", "0"], id="rotation-tasks-0"),
        pytest.param(["sweep-pilots", "--workers", "x"], id="sweep-pilots-workers-x"),
        pytest.param(["sweep-pilots", "--config", "{diverge}"], id="sweep-pilots-diverges"),
        pytest.param(["phase-rotation", "--seeds", "-1"], id="rotation-seeds-negative"),
        pytest.param(["phase-rotation", "--seeds", "0", "0"], id="rotation-seeds-repeat"),
        pytest.param(
            ["phase-rotation", "--seeds", "0", "--tasks", "2", "--outer-iters", "1", "--devices", "1", "--pilots", "-3"],
            id="rotation-pilots-negative",
        ),
        pytest.param(
            ["phase-rotation", "--seeds", "0", "--tasks", "2", "--outer-iters", "1", "--devices", "1", "--pilots", "0"],
            id="rotation-pilots-0",
        ),
        pytest.param(["sweep-pilots", "--out", ""], id="sweep-pilots-empty-out"),
    ],
)
def test_experiment_errors_exit_as_documented(tmp_path, capsys, monkeypatch, argv):
    # 1 and one `config error` line on bad input, 2 and one `numerical failure` line on divergence
    monkeypatch.chdir(tmp_path)
    bad = _write_tiny_ae(tmp_path / "bad.cfg", K_meta_batch=4)
    diverge = _write_tiny_demod(tmp_path / "diverge.cfg", eta_outer="1e9", seeds="0")
    code, prefix = (cli.EXIT_NUMERICAL, "numerical failure: ") if "{diverge}" in argv else (cli.EXIT_CONFIG, "config error: ")
    assert cli.main([a.format(bad=bad, diverge=diverge) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, said",
    [
        (["sweep-pilots", "--profile", "demod"], "unrecognized arguments: --profile demod"),
        (["sweep-adapt", "--profile", "autoencoder"], "unrecognized arguments: --profile autoencoder"),
        (["meta-train", "--config", "{demod}", "--profile", "autoencoder"], "not allowed with argument --config"),
        (["meta-train", "--profile", "demod", "--config", "{demod}"], "not allowed with argument --profile"),
        (["eval", "--config", "{ae}", "--profile", "autoencoder", "--params", "p.npz"], "not allowed with"),
        (["eval", "--profile", "demod", "--config", "{demod}", "--params", "p.npz"], "not allowed with"),
    ],
)
def test_profile_is_honoured_or_absent(tmp_path, capsys, monkeypatch, argv, said):
    # a sweep runs its one profile, and a profile never hides behind a config
    monkeypatch.chdir(tmp_path)
    files = {"demod": _write_tiny_demod(tmp_path / "d.cfg", seeds="0"), "ae": _write_tiny_ae(tmp_path / "a.cfg")}
    before = sorted(os.listdir(tmp_path))
    assert cli.main([a.format(**files) for a in argv]) == cli.EXIT_CONFIG
    assert said in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "argv, profile",
    [
        (["meta-train"], "demod"),
        (["meta-train", "--profile", "autoencoder"], "autoencoder"),
        (["eval", "--params", "p.npz"], "demod"),
        (["eval", "--profile", "autoencoder", "--params", "p.npz"], "autoencoder"),
        (["sweep-pilots"], "demod"),
        (["sweep-adapt"], "autoencoder"),
    ],
)
def test_commands_without_a_config_run_their_profile(monkeypatch, argv, profile):
    seen = []
    _stub_work(monkeypatch)
    monkeypatch.setattr(cli, "default_config", lambda name: seen.append(name) or default_config(name))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert seen == [profile]


def test_phase_rotation_defaults_are_the_studys(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_phase_rotation_seed", lambda *args: calls.append(args) or (0.5, 0.5))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["phase-rotation", "--seeds", "4"]) == cli.EXIT_OK
    defaults = [p.default for p in inspect.signature(run_phase_rotation_seed).parameters.values()][1:]
    assert calls == [(4, *defaults)]


@pytest.mark.parametrize("flag", ["--tasks", "--devices", "--pilots"])
def test_phase_rotation_rejects_counts_below_one(capsys, flag):
    # argparse names the flag the user wrote, before anything trains
    assert cli.main(["phase-rotation", flag, "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: argument {flag}: must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "command, write, runner, points",
    [
        ("sweep-pilots", _write_tiny_demod, "run_pilot_sweep", (2, 4)),
        ("sweep-adapt", _write_tiny_ae, "run_adaptation_sweep", (0, 1, 3)),
    ],
)
def test_sweeps_print_the_median_of_seed_means(tmp_path, capsys, monkeypatch, command, write, runner, points):
    results = []
    run = getattr(cli, runner)

    def keep_result(config, workers):
        results.append(run(config, workers))
        return results[-1]

    monkeypatch.setattr(cli, runner, keep_result)
    out = tmp_path / "curve.csv"
    assert cli.main([command, "--config", write(tmp_path / "t.cfg"), "--out", str(out)]) == cli.EXIT_OK
    (result,) = results
    metric = result.records[0].metric
    methods = list(dict.fromkeys(r.method for r in result.records))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {len(result.table)} rows to {out}"
    assert lines[1] == f"median over {len({r.seed for r in result.records})} seeds of per-seed mean {metric.upper()}:"
    assert lines[2].split() == [{"ser": "pilots", "bler": "iter"}[metric], *methods]
    assert len(lines) == 3 + len(points)
    for line, x in zip(lines[3:], points):
        cells = [f"{median_of_seed_means(result.records, m, metric, float(x)):.4f}" for m in methods]
        assert line.split() == [str(x), *cells]


def test_phase_rotation_prints_each_seed_and_the_medians(capsys):
    argv = ["phase-rotation", "--snr-db", "12.5", "--seeds", "3", "1", "--tasks", "2", "--outer-iters", "2"]
    assert cli.main([*argv, "--devices", "1", "--pilots", "4"]) == cli.EXIT_OK
    sers = [run_phase_rotation_seed(seed, 12.5, 2, 2, 1, 4) for seed in (3, 1)]
    (joint0, maml0), (joint1, maml1) = sers
    assert capsys.readouterr().out == (
        f"seed 3: joint SER {joint0:.4f}, adapted-from-meta SER {maml0:.4f}\n"
        f"seed 1: joint SER {joint1:.4f}, adapted-from-meta SER {maml1:.4f}\n"
        f"medians over 2 seeds at 12.5 dB: joint {np.median([joint0, joint1]):.4f}, "
        f"meta-learned + 4 pilots {np.median([maml0, maml1]):.4f}\n"
    )


def test_closed_stdout_exits_quietly():
    # a command's own output, and argparse's --help, of the program and of a subcommand
    for argv in (["gradcheck", "--scale", "small"], ["--help"], ["sweep-pilots", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "metalink", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_PIPE, argv
        assert proc.stderr == b"", argv



# runs `metalink <args>` with a sweep whose seed 0 ends at once, leaving a
# worker idle, and whose other seeds run until stopped; each seed writes the
# pid of its process to a file in <dir> as it starts
_ONE_SEED_HANGS = """
import os, pathlib, sys, time
from metalink import cli, harness


def seed_records(config, seed):
    (pathlib.Path(sys.argv[1]) / f"seed{seed}").write_text(str(os.getpid()))
    if seed:
        time.sleep(600)
    return []


harness._pilot_seed_records = seed_records
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_sweep_exits_130_with_one_line_and_no_worker_left(tmp_path, workers):
    # Ctrl-C signals the terminal's whole process group: the sweep's own
    # process and every worker it forked, busy or idle
    config = _write_tiny_demod(tmp_path / "t.cfg", seeds="0,1")
    argv = ["sweep-pilots", "--config", config, "--workers", str(workers), "--out", str(tmp_path / "x.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_SEED_HANGS, str(tmp_path), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (tmp_path / "seed1").exists() or not (tmp_path / "seed1").read_text():
            assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
            time.sleep(0.05)
        busy = int((tmp_path / "seed1").read_text())
        if busy != proc.pid:  # a worker leaves SIGINT to the sweep's own process
            os.kill(busy, signal.SIGINT)
        time.sleep(0.3)  # for that, and for seed 0's worker to go back to waiting
        assert proc.poll() is None
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)  # not the 600 s of seed 1
        assert proc.returncode == cli.EXIT_INTERRUPT
        assert err == b"interrupted\n"
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(proc.pid, 0)  # any process left in the group
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived the sweep"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()

class _InterruptingImport:
    """A meta-path finder that delivers Ctrl-C while `name` is imported."""

    def __init__(self, name):
        self.name = name

    def find_spec(self, name, path=None, target=None):
        if name == self.name:
            raise KeyboardInterrupt
        return None


def test_interrupt_while_cli_loads_exits_130_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["metalink", "--help"])
    assert entry.main() == cli.EXIT_OK  # the entry point runs cli.main
    capsys.readouterr()
    monkeypatch.delitem(sys.modules, "metalink.cli")
    monkeypatch.delattr(metalink, "cli")
    monkeypatch.setattr(sys, "meta_path", [_InterruptingImport("metalink.cli"), *sys.meta_path])
    try:
        code = entry.main()
    except KeyboardInterrupt:  # escaped: let it fail this test, not stop the run
        code = None
    assert code == cli.EXIT_INTERRUPT
    assert capsys.readouterr() == ("", "interrupted\n")


def _started(command):
    """A child running command with `-X importtime`, once it reports numpy's
    first module: that import runs in main(), after the interpreter's own
    start-up (site), in which no program code can catch a signal."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "metalink", *command],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    for line in iter(proc.stderr.readline, b""):
        if line.startswith(b"import time:") and line.rsplit(b"|", 1)[-1].strip().startswith(b"numpy"):
            return proc
    proc.wait()
    raise AssertionError(f"no numpy import reported, exit {proc.returncode}")


def test_ctrl_c_during_start_up_exits_130_with_one_line():
    # The signal follows numpy's first module by offsets spread over the
    # rest of a start-up, timed on a first one (`--help`): numpy, the
    # package, and the numpy.random that numpy would load on first use
    proc = _started(["--help"])
    began = time.perf_counter()
    proc.communicate(timeout=120)
    span = time.perf_counter() - began
    for k in range(9):
        proc = _started(["gradcheck", "--scale", "full"])
        try:
            time.sleep(span * k / 8)
            proc.send_signal(signal.SIGINT)
            rest = proc.stderr.read().splitlines(keepends=True)
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        said = b"".join(line for line in rest if not line.startswith(b"import time:"))
        assert (proc.returncode, said) == (cli.EXIT_INTERRUPT, b"interrupted\n"), (span * k / 8, said.decode())


_SUBCOMMANDS = ["meta-train", "sweep-pilots", "sweep-adapt", "phase-rotation", "gradcheck", "eval"]
_FLAGS = [
    "--config", "--profile", "--seed", "--out", "--first-order", "--workers", "--params", "--scale",
    "--snr-db", "--seeds", "--tasks", "--outer-iters", "--devices", "--pilots",
    "-h", "--help", "demod", "autoencoder", "small", "full", "0", "-1", "2", "x.npz", "",
]


def _stub_work(monkeypatch):
    """Replace every sweep, trainer, check and file write in cli's namespace."""
    monkeypatch.setattr(cli, "run_meta_train", lambda config: MetaTrainResult(None, ((0, 1.0),)))
    for name in ("run_pilot_sweep", "run_adaptation_sweep"):
        monkeypatch.setattr(cli, name, lambda config, workers: SimpleNamespace(records=(), table=CurveTable(())))
    monkeypatch.setattr(cli, "run_phase_rotation_seed", lambda *args: (0.5, 0.5))
    monkeypatch.setattr(cli, "run_gradcheck", lambda scale: CheckReport((), 0.0))
    monkeypatch.setattr(cli, "evaluate_params", lambda config, params: ("ser", [0.5]))
    monkeypatch.setattr(cli, "load_params", lambda path: None)
    monkeypatch.setattr(cli, "save_params", lambda path, p: None)
    monkeypatch.setattr(cli, "write_curve", lambda table, path: None)


@given(
    st.lists(
        st.one_of(st.sampled_from(_SUBCOMMANDS), st.sampled_from(_FLAGS), st.text(max_size=12)),
        max_size=8,
    )
)
@example(["meta-train", "--config", "a\x00b"])  # open() raises ValueError on a NUL
@settings(max_examples=300, deadline=None)
def test_main_never_raises_on_arbitrary_argv(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _stub_work(monkeypatch)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), (argv, err.getvalue())
    if code == cli.EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
