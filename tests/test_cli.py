"""Command-line interface tests: exit codes, file outputs, flag overrides,
and one end-to-end subprocess invocation."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metalink
from metalink import cli
from metalink.checks import CheckReport, CheckResult
from metalink.harness import CurveTable, load_params, read_curve, save_params
from metalink.learners import MetaTrainResult
from metalink.nn import AutoencoderSpec, init_autoencoder_params, init_params, mlp_arch


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
    cases += [
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


@pytest.mark.parametrize(
    "params, code, printed",
    [
        # a relu net of the profile's size adapts and is scored on its own activation
        (
            lambda: init_params(mlp_arch((2, 32, 32, 16), hidden="relu"), 3),
            cli.EXIT_OK,
            "ser over 20 meta-test tasks: mean 0.92902, min 0.86900, max 0.98850\n",
        ),
        # so does a smaller net than the profile's
        (
            lambda: init_params(mlp_arch((2, 8, 16)), 4),
            cli.EXIT_OK,
            "ser over 20 meta-test tasks: mean 0.92257, min 0.82450, max 0.99650\n",
        ),
        (lambda: init_autoencoder_params(AutoencoderSpec(), 5), cli.EXIT_CONFIG, ""),
    ],
    ids=["relu", "small", "autoencoder"],
)
def test_eval_demod_adapts_the_saved_network(tmp_path, capsys, params, code, printed):
    path = tmp_path / "p.npz"
    save_params(path, params())
    assert cli.main(["eval", "--profile", "demod", "--params", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == printed
    assert "Traceback" not in captured.err
    if code == cli.EXIT_CONFIG:
        assert captured.err.startswith("config error: ")


def test_sweep_pilots_writes_deterministic_csv(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "sweep.cfg")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(b)]) == cli.EXIT_OK
    assert cli.main(["sweep-pilots", "--config", cfg, "--out", str(c), "--workers", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    table = read_curve(a)
    assert table.select(method="maml")
    assert all(row.metric == "ser" for row in table.rows)


def test_sweep_seed_and_first_order_flags(tmp_path, capsys):
    cfg = _write_tiny_demod(tmp_path / "flags.cfg")
    out = tmp_path / "fo.csv"
    argv = ["sweep-pilots", "--config", cfg, "--out", str(out), "--seed", "7", "--first-order"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    table = read_curve(out)
    assert table.select(method="maml-fo")
    assert not table.select(method="maml")
    assert all(row.n_seeds == 1 for row in table.rows)  # --seed collapses the seed list


def test_sweep_adapt_writes_bler_curve(tmp_path, capsys):
    cfg = _write_tiny_ae(tmp_path / "ae.cfg")
    out = tmp_path / "bler.csv"
    assert cli.main(["sweep-adapt", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    table = read_curve(out)
    assert all(row.metric == "bler" for row in table.rows)
    assert {row.method for row in table.rows} == {"maml", "conventional"}
    assert len(table.select(method="maml")) == 4  # t = 0..3


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


_SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_autoencoder_adaptation.py", ["--config", "{cfg}"]),
        ("run_demod_sweep.py", ["--config", "{cfg}"]),
        ("run_phase_rotation_study.py", ["--tasks", "0"]),
        ("run_demod_sweep.py", ["--workers", "x"]),
        ("run_demod_sweep.py", ["--config", "{diverge}"]),
        ("run_phase_rotation_study.py", ["--seeds", "-1"]),
        ("run_phase_rotation_study.py", ["--seeds", "0", "0"]),
        ("run_phase_rotation_study.py", ["--seeds", "0", "--tasks", "2", "--outer-iters", "1", "--devices", "1", "--pilots", "-3"]),
        ("run_phase_rotation_study.py", ["--seeds", "0", "--tasks", "2", "--outer-iters", "1", "--devices", "1", "--pilots", "0"]),
        ("run_demod_sweep.py", ["--out", ""]),
    ],
)
def test_scripts_report_config_errors_without_a_traceback(tmp_path, script, args):
    # The scripts exit as `metalink` does: 1 on bad input, 2 on divergence.
    cfg = _write_tiny_ae(tmp_path / "bad.cfg", K_meta_batch=4)
    diverge = _write_tiny_demod(tmp_path / "diverge.cfg", eta_outer="1e9", seeds="0")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(metalink.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(_SCRIPTS / script), *(a.format(cfg=cfg, diverge=diverge) for a in args)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    code, prefix = (2, "numerical failure: ") if "{diverge}" in args else (1, "config error: ")
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


_SUBCOMMANDS = ["meta-train", "sweep-pilots", "sweep-adapt", "gradcheck", "eval"]
_FLAGS = [
    "--config", "--profile", "--seed", "--out", "--first-order", "--workers", "--params", "--scale",
    "-h", "--help", "demod", "autoencoder", "small", "full", "0", "-1", "2", "x.npz", "",
]


def _stub_work(monkeypatch):
    """Replace every sweep, trainer, check and file write in cli's namespace."""
    monkeypatch.setattr(cli, "run_meta_train", lambda config: MetaTrainResult(None, ((0, 1.0),)))
    for name in ("run_pilot_sweep", "run_adaptation_sweep"):
        monkeypatch.setattr(cli, name, lambda config, workers: SimpleNamespace(table=CurveTable(())))
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
