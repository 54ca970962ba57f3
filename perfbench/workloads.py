"""The benchmark's workloads: which entry points a repetition calls, and the gate
that decides whether its output is correct.

Each workload is one seed of real traffic, driven through the public entry points
the CLI uses (`harness.run_pilot_sweep`, `harness.run_adaptation_sweep`,
`harness.run_meta_train`, `harness.evaluate_params`).  The config comes from
`configs/<workload>.cfg` through `harness.load_config`; the benchmark only sets
`seed`/`seeds=(seed,)` and, for the benchmark's own tests, shrinks the three
length knobs together.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from metalink import harness

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Knobs that set how long one seed runs; shrinking them together keeps the
# default profile's phase proportions.
LENGTH_KNOBS = ("outer_iters", "baseline_iters", "n_eval_symbols_or_blocks")

# The adaptation sweep reports err_maml as BLER after this many adaptation steps.
AE_REPORT_STEP = 10


@dataclass(frozen=True)
class Outcome:
    """What the gate checks after one repetition.

    values    every per-unit error rate the repetition produced (SER or BLER)
    expected  how many a complete repetition produces
    problems  gate failures other than bad values (row count, non-finite loss)
    """

    table: harness.CurveTable
    values: tuple
    expected: int
    problems: tuple
    err_maml: float
    err_maml_fo: float | None

    @property
    def failed(self):
        bad = sum(1 for v in self.values if not (math.isfinite(v) and 0.0 <= v <= 1.0))
        missing = max(self.expected - len(self.values), 0)
        return self.expected if self.problems else bad + missing


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # config -> raw result; this is the timed part
    digest: Callable  # (config, raw result) -> Outcome
    expected: Callable  # config -> records a complete repetition produces


def _rows_problem(table, want):
    return () if len(table) == want else (f"table has {len(table)} rows, expected {want}",)


def _demod_sweep_expected(cfg):
    return cfg.n_meta_test_tasks * len(cfg.pilot_counts) * 4


def _demod_sweep_digest(cfg, result):
    values = tuple(r.value for r in result.records)
    maml = [r.value for r in result.records if r.method == "maml"]
    return Outcome(
        table=result.table,
        values=values,
        expected=_demod_sweep_expected(cfg),
        problems=_rows_problem(result.table, len(cfg.pilot_counts) * 4),
        err_maml=statistics.fmean(maml),
        err_maml_fo=None,
    )


def _ae_sweep_expected(cfg):
    return cfg.n_meta_test_tasks * 2 * (cfg.adapt_iters_max + 1)


def _ae_sweep_digest(cfg, result):
    step = float(min(AE_REPORT_STEP, cfg.adapt_iters_max))
    at_step = [r.value for r in result.records if r.method == "maml" and r.sweep_value == step]
    return Outcome(
        table=result.table,
        values=tuple(r.value for r in result.records),
        expected=_ae_sweep_expected(cfg),
        problems=_rows_problem(result.table, 2 * (cfg.adapt_iters_max + 1)),
        err_maml=statistics.fmean(at_step),
        err_maml_fo=None,
    )


def _deep_meta_run(cfg):
    """meta-train then eval, exact meta-gradient first, then first-order."""
    out = []
    for first_order in (False, True):
        c = replace(cfg, first_order=first_order)
        trained = harness.run_meta_train(c)
        _, values = harness.evaluate_params(c, trained.params)
        out.append((trained, tuple(values)))
    return out


def _deep_meta_expected(cfg):
    return 2 * cfg.n_meta_test_tasks


def _deep_meta_digest(cfg, result):
    problems = []
    rows = []
    for (trained, values), label in zip(result, ("maml", "maml-fo")):
        losses = [loss for _, loss in trained.history]
        if len(losses) != cfg.outer_iters or not all(math.isfinite(x) for x in losses):
            problems.append(f"{label}: meta-loss history is short or non-finite")
        elif all(0.0 <= v <= 1.0 for v in values):
            rows.append(harness.CurveRow(float(max(cfg.pilot_counts)), label, "ser",
                                         statistics.fmean(values), statistics.pstdev(values), 1))
            rows.append(harness.CurveRow(float(cfg.outer_iters), label, "meta_loss", losses[-1], 0.0, 1))
    (_, exact), (_, first_order) = result
    return Outcome(
        table=harness.CurveTable(tuple(rows)),
        values=exact + first_order,
        expected=_deep_meta_expected(cfg),
        problems=tuple(problems),
        err_maml=statistics.fmean(exact),
        err_maml_fo=statistics.fmean(first_order),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demod_sweep", harness.run_pilot_sweep, _demod_sweep_digest, _demod_sweep_expected),
        Workload("ae_adapt_sweep", harness.run_adaptation_sweep, _ae_sweep_digest, _ae_sweep_expected),
        Workload("demod_deep_meta", _deep_meta_run, _deep_meta_digest, _deep_meta_expected),
    )
}


@contextmanager
def patched(sites, wrap):
    """Replace each (module, attribute) in `sites` by `wrap(original)` while inside."""
    originals = [(module, name, getattr(module, name)) for module, name in sites]
    for module, name, orig in originals:
        setattr(module, name, wrap(orig))
    try:
        yield
    finally:
        for module, name, orig in originals:
            setattr(module, name, orig)


@contextmanager
def on_first_step(callback):
    """Call `callback()` once, when the workload first calls `harness.meta_train`.

    That first training step is where set-up ends and `wall_s` starts: the
    runner starts timing there, the tracer opens its root span there, and the
    set-up probe stops there.  Enter it after the tracer or calibrator, so that
    the callback runs before their `meta_train` wrappers.
    """
    fired = False

    def wrap(orig):
        def hooked(*args, **kwargs):
            nonlocal fired
            if not fired:
                fired = True
                callback()
            return orig(*args, **kwargs)

        return hooked

    with patched(((harness, "meta_train"),), wrap):
        yield


def load_workload_config(name, seed, scale=1.0):
    """The workload's config for one seed; scale < 1 shortens it for tests."""
    cfg = harness.load_config(CONFIG_DIR / f"{name}.cfg")
    cfg = replace(cfg, seed=seed, seeds=(seed,))
    if scale != 1.0:
        cfg = replace(cfg, **{k: max(1, round(getattr(cfg, k) * scale)) for k in LENGTH_KNOBS})
    return cfg


def table_sha256(table, out_dir):
    """SHA-256 of the table as `harness.write_curve` writes it."""
    fd, path = tempfile.mkstemp(prefix="table-", suffix=".csv", dir=out_dir)
    os.close(fd)
    try:
        harness.write_curve(table, path)
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    finally:
        os.unlink(path)
