"""Experiment orchestration: sweeps, metrics, config files, CSV persistence.

Two experiments ship with the package, one per profile:

* `metalink sweep-pilots` (demod, run_pilot_sweep): symbol error rate of a
  16-QAM demodulator on unseen devices versus the number of pilots, for four
  training strategies (conventional from scratch, joint across devices,
  joint plus adaptation, meta-learned initialization plus adaptation);
* `metalink sweep-adapt` (autoencoder, run_adaptation_sweep): block error
  rate of an end-to-end autoencoder on unseen 3-tap fading channels versus
  the number of adaptation iterations, starting either from the meta-learned
  initialization or from a random one.

The phase-rotation study is the pilot sweep on a config of its own
(configs/phase_rotation.cfg): its `unit_tap` key draws devices that differ
only by a phase rotation, where joint training learns nearly nothing.

`metalink meta-train` (run_meta_train) and `metalink eval`
(evaluate_params) run single steps of the same per-profile pipeline: build
the task pool, meta-train (_meta_trained), adapt on test tasks and
evaluate (_pilot_sers for demod, _adaptation for the autoencoder).  Both
metrics score receivers as one stack through the forward their training
differentiates: SER through nn.mlp_logits_node on one draw of fresh
symbols, BLER through nn.autoencoder_logits_node on one fresh
generate_autoencoder_batch draw per test channel.

Determinism contract: everything a run produces is a pure function of the
config (including its seed list).  Per-purpose rng streams are derived from
(seed, scope, indices), never from execution order, so running with any
--workers value yields byte-identical CSV.
"""

from __future__ import annotations

import concurrent.futures  # importing ProcessPoolExecutor by name would load multiprocessing
import functools
import json
import math
import signal
import tokenize
import typing
import zipfile
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import graph
from .autodiff import eval_with_gradient
from .channel import apply_channel_demod, noise_variance
from .errors import ConfigurationError
from .learners import (
    TrainConfig,
    maml_adapt,
    meta_train,
    sgd_step,
    train_conventional,
    train_joint,
)
from .nn import (
    AutoencoderBatch,
    AutoencoderSpec,
    ParamVector,
    autoencoder_logits_node,
    init_autoencoder_params,
    init_params,
    make_autoencoder_lossfn,
    make_mlp_lossfn,
    mlp_arch,
    mlp_logits_node,
    pool_datasets,
)
from .tasks import (
    SCOPE_ADAPT_PILOTS,
    SCOPE_ADAPT_STEPS,
    SCOPE_EVAL,
    SCOPE_TASK,
    SCOPE_TEST_TASK,
    TASK_KINDS,
    TaskFamily,
    autoencoder_stream,
    autoencoder_task_pool,
    demod_task_pool,
    generate_autoencoder_batch,
    make_pilot_dataset,
    rng_for,
    subsample_stream,
)

METHOD_LABELS = ("conventional", "joint", "joint+adapt", "maml", "maml-fo")
METRIC_LABELS = ("ser", "bler", "meta_loss")

# ---------------------------------------------------------------------------
# curve tables


@dataclass(frozen=True)
class CurveRow:
    sweep_value: float
    method: str
    metric: str
    mean: float
    std: float
    n_seeds: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sweep_value, self.mean, self.std))):
            raise ConfigurationError("sweep value, mean and std must be finite")
        if self.method not in METHOD_LABELS:
            raise ConfigurationError(f"unknown method label '{self.method}'")
        if self.metric not in METRIC_LABELS:
            raise ConfigurationError(f"unknown metric label '{self.metric}'")
        if self.metric in ("ser", "bler") and not 0.0 <= self.mean <= 1.0:
            raise ConfigurationError(f"{self.metric} mean {self.mean} outside [0, 1]")
        if self.std < 0.0:
            raise ConfigurationError("std must be non-negative")
        if self.n_seeds < 1:
            raise ConfigurationError("n_seeds must be positive")


@dataclass(frozen=True)
class CurveTable:
    rows: tuple

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class SweepRecord:
    """One raw measurement before aggregation: (seed, test unit, x, method)."""

    seed: int
    unit: int
    sweep_value: float
    method: str
    metric: str
    value: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    table: CurveTable


# ---------------------------------------------------------------------------
# configuration

# The largest index numpy holds (2**63 - 1 on a 64-bit host).  A config
# integer above it cannot size any draw, so it is refused before training.
_INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see default_config() for per-profile values.

    Training fields mirror TrainConfig; K_meta_batch is the number of tasks
    the meta-train stream draws per outer iteration.  `seed` seeds single
    runs (meta-train/eval subcommands) while `seeds` drives sweeps.
    `unit_tap` (demod only) draws every device from the pure-rotation family
    (TaskFamily.unit_tap).
    """

    profile: str
    eta_inner: float
    eta_outer: float
    m: int
    K_meta_batch: int
    outer_iters: int
    baseline_iters: int
    first_order: bool
    seed: int
    snr_db: float
    pilot_counts: tuple
    adapt_iters_max: int
    n_meta_train_tasks: int
    n_meta_test_tasks: int
    n_eval_symbols_or_blocks: int
    meta_train_pilots: int
    meta_test_pilots: int
    n_train_blocks: int
    seeds: tuple
    output_path: str
    unit_tap: bool = False

    def __post_init__(self):
        if self.profile not in TASK_KINDS:
            raise ConfigurationError(f"unknown profile '{self.profile}'")
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(type(v) is int and v > _INDEX_MAX for v in entries):
                raise ConfigurationError(f"{f.name} must be at most {_INDEX_MAX}, got {value}")
        for name in (
            "K_meta_batch",
            "baseline_iters",
            "adapt_iters_max",
            "n_meta_train_tasks",
            "n_meta_test_tasks",
            "n_eval_symbols_or_blocks",
            "meta_train_pilots",
            "meta_test_pilots",
            "n_train_blocks",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not self.pilot_counts:
            raise ConfigurationError("pilot_counts must not be empty")
        if any(n < 1 for n in self.pilot_counts):
            raise ConfigurationError("pilot counts must be positive")
        if list(self.pilot_counts) != sorted(set(self.pilot_counts)):
            raise ConfigurationError("pilot_counts must be strictly ascending")
        if not math.isfinite(self.snr_db):
            raise ConfigurationError(f"snr_db must be finite, got {self.snr_db}")
        noise_variance(self.snr_db)  # delegate the -300 dB floor
        self.train_config(self.seed)  # delegate step-size/m/seed validation
        self.family()  # delegate the unit_tap check: only demod has one
        if self.profile == "autoencoder" and self.K_meta_batch > self.n_meta_train_tasks:
            # The demod stream degenerates to the full pool instead; the
            # autoencoder stream cannot.
            raise ConfigurationError(
                f"K_meta_batch {self.K_meta_batch} exceeds n_meta_train_tasks {self.n_meta_train_tasks}"
            )
        if not self.output_path:
            raise ConfigurationError("output_path must not be empty")
        if not self.seeds:
            raise ConfigurationError("seeds must not be empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigurationError(f"seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must not repeat, got {self.seeds}")

    def train_config(self, seed):
        return TrainConfig(
            eta_inner=self.eta_inner,
            eta_outer=self.eta_outer,
            m=self.m,
            outer_iters=self.outer_iters,
            first_order=self.first_order,
            seed=seed,
        )

    def family(self):
        return TaskFamily(kind=self.profile, snr_db=self.snr_db, unit_tap=self.unit_tap)


def default_config(profile):
    """Calibrated defaults for each experiment profile."""
    if profile == "demod":
        return ExperimentConfig(
            profile="demod",
            eta_inner=0.1,
            eta_outer=0.3,
            m=1,
            K_meta_batch=10,
            outer_iters=2000,
            baseline_iters=300,
            first_order=False,
            seed=0,
            snr_db=15.0,
            pilot_counts=(1, 2, 4, 8, 16, 32),
            adapt_iters_max=40,
            n_meta_train_tasks=100,
            n_meta_test_tasks=20,
            n_eval_symbols_or_blocks=2000,
            meta_train_pilots=4,
            meta_test_pilots=64,
            n_train_blocks=128,
            seeds=(0, 1, 2, 3, 4),
            output_path="demod_ser.csv",
        )
    if profile == "autoencoder":
        return ExperimentConfig(
            profile="autoencoder",
            eta_inner=0.05,
            eta_outer=0.05,
            m=1,
            K_meta_batch=10,
            outer_iters=1000,
            baseline_iters=300,
            first_order=False,
            seed=0,
            snr_db=10.0,
            pilot_counts=(1, 2, 4, 8, 16, 32),
            adapt_iters_max=40,
            n_meta_train_tasks=50,
            n_meta_test_tasks=10,
            n_eval_symbols_or_blocks=2000,
            meta_train_pilots=16,
            meta_test_pilots=64,
            n_train_blocks=128,
            seeds=(0, 1, 2),
            output_path="autoencoder_bler.csv",
        )
    raise ConfigurationError(f"unknown profile '{profile}'")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text):
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"expected a boolean, got '{text}'") from None


def _parse_int_tuple(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


# each config value is parsed by its field's annotation
_PARSERS = {int: int, float: float, bool: _parse_bool, tuple: _parse_int_tuple, str: str.strip}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def load_config(path):
    """Strict parse of a flat `key = value` file into an ExperimentConfig.

    Unknown keys, repeated keys, malformed lines and values no run can
    honour are rejected with the offending line number.  The `profile` key
    selects which defaults fill in anything unspecified.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as err:  # ValueError: undecodable bytes, a NUL in the path
        raise ConfigurationError(f"cannot read config '{path}': {err}") from err

    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key '{key}'")
        if key in pairs:
            raise ConfigurationError(f"{path}:{lineno}: repeated key '{key}'")
        pairs[key] = (lineno, value.strip())

    if "profile" not in pairs:
        raise ConfigurationError(f"{path}: missing required key 'profile'")
    lineno, profile = pairs.pop("profile")
    if profile not in TASK_KINDS:
        raise ConfigurationError(f"{path}:{lineno}: unknown profile '{profile}'")

    config = default_config(profile)
    overrides = {}
    for key, (lineno, value) in pairs.items():
        try:
            overrides[key] = _PARSERS[_FIELD_TYPES[key]](value)
        except (ValueError, ConfigurationError) as err:
            raise ConfigurationError(f"{path}:{lineno}: bad value for '{key}': {err}") from err
    try:
        return replace(config, **overrides)
    except ConfigurationError:
        # Name the line: the first override that fails when applied in file order.
        for key, value in overrides.items():
            try:
                config = replace(config, **{key: value})
            except ConfigurationError as err:
                raise ConfigurationError(f"{path}:{pairs[key][0]}: {err}") from err
        raise


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _config_line(name, value):
    text = _format_value(value)
    if isinstance(value, str) and (text != text.strip() or any(c in text for c in "#\r\n")):
        # load_config strips the value, starts a comment at '#' and ends the line at a break
        raise ConfigurationError(f"cannot write {name} {text!r} so that load_config reads it back")
    return f"{name} = {text}"


def write_config(config, path):
    """Write a config as `key = value` lines; load_config() round-trips it.

    A string value it would not read back as written (one with a '#', a
    line break, or surrounding whitespace) is rejected before any write.
    """
    lines = [_config_line(f.name, getattr(config, f.name)) for f in fields(config)]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except (OSError, ValueError) as err:
        raise ConfigurationError(f"cannot write config '{path}': {err}") from err


# ---------------------------------------------------------------------------
# CSV persistence

CSV_HEADER = "sweep_value,method,metric,mean,std,n_seeds"


def write_curve(table, path):
    """CSV with 17-significant-digit reals and LF endings, deterministic."""
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            f"{r.sweep_value:.17g},{r.method},{r.metric},{r.mean:.17g},{r.std:.17g},{r.n_seeds}"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except (OSError, ValueError) as err:
        raise ConfigurationError(f"cannot write curve '{path}': {err}") from err


def read_curve(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, ValueError) as err:
        raise ConfigurationError(f"cannot read curve '{path}': {err}") from err
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"{path}: missing curve header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigurationError(f"{path}:{lineno}: expected 6 fields")
        try:
            rows.append(
                CurveRow(float(parts[0]), parts[1], parts[2], float(parts[3]), float(parts[4]), int(parts[5]))
            )
        except (ValueError, ConfigurationError) as err:
            raise ConfigurationError(f"{path}:{lineno}: {err}") from err
    return CurveTable(tuple(rows))


# ---------------------------------------------------------------------------
# metrics


# Most rows per forward, summed over the draws it stacks.  A forward over
# whole draws holds every receiver's intermediates together (one BLAS
# thread, 2-core host): four receivers on one 2,000-symbol SER draw take
# 5.1 ms in chunks of 500 and 5.9 ms whole.  500 rows of each draw would
# score a deployment group of five 2,000-block BLER draws, two receivers
# each, in 10.0 ms instead of 12.6, but its peak would go 3.7 -> 8.4 MB,
# and ten draws of one receiver 4.8 -> 10.1 MB, above a meta-batch's tape.
_EVAL_ROWS = 500


def _error_rates(receivers, forward, labels):
    """Argmax error rates on D draws of n rows; ties resolve to the lowest index.

    receivers[d] is the tuple of receivers scored on draw d, labels[d] of
    the (D, n) labels.  They run as one (R, P) stack, draw-major, through
    forward(stack node, lo, hi) -> the logits node of rows lo:hi of each
    row's draw, over the fewest consecutive chunks that hold at most
    _EVAL_ROWS rows of the D draws together, as even as they divide: a
    product over a few rows can take another BLAS kernel and move its last
    bits, so no chunk is cut short.  Each row's logits are then its own,
    whatever the chunks.  Returns per draw the tuple of its receivers' rates.
    """
    owner = np.repeat(np.arange(len(receivers)), [len(rs) for rs in receivers])
    stack = graph.const(np.stack([p.values for rs in receivers for p in rs]))
    errors = np.zeros(len(owner), dtype=np.int64)
    n = labels.shape[-1]
    chunks = -(-labels.size // _EVAL_ROWS)
    for i in range(chunks):
        lo, hi = i * n // chunks, (i + 1) * n // chunks
        predicted = np.argmax(forward(stack, lo, hi).value, axis=-1)
        errors += np.count_nonzero(predicted != labels[owner, lo:hi], axis=-1)
    rates = iter(float(e) / n for e in errors)
    return [tuple(next(rates) for _ in rs) for rs in receivers]


def evaluate_ser(receivers, task, n_symbols, rng):
    """Symbol error rate of each demodulator, all of one architecture, on one
    fresh draw from the task."""
    receivers = tuple(receivers)
    if n_symbols < 1:
        raise ConfigurationError(f"n_symbols must be positive, got {n_symbols}")
    if len({p.arch for p in receivers}) != 1:
        raise ConfigurationError("evaluate_ser needs one or more receivers, all of one architecture")
    indices = rng.integers(0, 16, size=n_symbols)
    received, labels = apply_channel_demod(indices, task.realization, rng)
    x = np.stack([received.real, received.imag], axis=1)
    (rates,) = _error_rates([receivers], lambda stack, lo, hi: mlp_logits_node(stack, receivers[0].arch, x[lo:hi]), labels[None])
    return rates


def evaluate_bler(receivers, spec, tasks, n_blocks, rngs):
    """Block error rate of each autoencoder, all of the spec's architecture:
    per task, the tuple of rates of its tuple of receivers (receivers[i]) on
    one fresh generate_autoencoder_batch draw from tasks[i] with rngs[i].

    All receivers run as one stack, each row on its own task's draw, and a
    chunk of the forward stacks only its own rows of the draws."""
    receivers = [tuple(rs) for rs in receivers]
    tasks, rngs = tuple(tasks), tuple(rngs)
    if not receivers or not all(receivers) or any(p.arch != spec.arch for rs in receivers for p in rs):
        raise ConfigurationError("evaluate_bler needs one or more receivers per task, all of the spec's architecture")
    if not len(receivers) == len(tasks) == len(rngs):
        raise ConfigurationError("evaluate_bler needs one tuple of receivers and one rng per task")
    draws = [generate_autoencoder_batch(task, n_blocks, rng, spec) for task, rng in zip(tasks, rngs)]
    rows = [draw for draw, rs in zip(draws, receivers) for _ in rs]  # each receiver's draw

    def forward(stack, lo, hi):
        chunk = AutoencoderBatch(
            np.stack([d.messages[lo:hi] for d in rows]),
            np.stack([d.noise[lo:hi] for d in rows]),
            np.stack([d.channel_matrix for d in rows]),
            spec,
        )
        return autoencoder_logits_node(stack, spec, chunk)

    return _error_rates(receivers, forward, np.stack([d.messages for d in draws]))


# ---------------------------------------------------------------------------
# sweeps


DEMOD_ARCH = mlp_arch((2, 32, 32, 16))
_DEMOD_LOSSFN = make_mlp_lossfn(DEMOD_ARCH)
_AE_SPEC = AutoencoderSpec()
_AE_LOSSFN = make_autoencoder_lossfn(_AE_SPEC)


def _maml_label(config):
    return "maml-fo" if config.first_order else "maml"


def _meta_trained(config, seed):
    """(meta-training pool, initial params, loss, MetaTrainResult) of the
    profile's meta-training stage for one seed, on the config's family.

    The loss is the profile's lossfn(p_node, data), the one every learner
    and the adaptation trace (a (T, P) stack on one batch) descend; it
    carries its stacker, lossfn.stack, with which meta_train stacks a
    meta-batch's tasks.
    """
    family = config.family()
    if config.profile == "demod":
        pool = demod_task_pool(
            family, config.n_meta_train_tasks, config.meta_train_pilots, config.meta_test_pilots, seed
        )
        stream = subsample_stream(pool, config.K_meta_batch)
        init, lossfn = init_params(DEMOD_ARCH, seed), _DEMOD_LOSSFN
    else:
        pool = autoencoder_task_pool(family, config.n_meta_train_tasks, seed)
        stream = autoencoder_stream(pool, _AE_SPEC, config.K_meta_batch, config.n_train_blocks)
        init, lossfn = init_autoencoder_params(_AE_SPEC, seed), _AE_LOSSFN
    tc = config.train_config(seed)
    result = meta_train(stream, tc, init=init, lossfn=lossfn)
    return pool, init, lossfn, result


def _test_tasks(family, seed, n_units):
    return [family.sample(rng_for(seed, SCOPE_TEST_TASK, unit), task_id=unit) for unit in range(n_units)]


def _pilots(tasks, seed, n):
    return [make_pilot_dataset(t, n, rng_for(seed, SCOPE_ADAPT_PILOTS, i, n)) for i, t in enumerate(tasks)]


def _pilot_sers(config, seed, tasks, n, lossfn, fixed, starts, pilots):
    """Per device, the SERs on its one (device, n) draw of its tuple of fixed
    receivers fixed[d], then of each start adapted on its pilots[d].

    The S starts adapt as one (D·S, P) maml_adapt, device-major, each row bit
    for bit that start adapted alone.  All receivers of a device share the
    draw: paired comparisons cut the Monte-Carlo variance of orderings.
    """
    stack = np.tile(np.stack([p.values for p in starts]), (len(tasks), 1))
    data = lossfn.stack(d for d in pilots for _ in starts)
    rows = iter(maml_adapt(stack, data, config.eta_inner, config.m, lossfn=lossfn))
    receivers = [(*fs, *(p.with_values(next(rows)) for p in starts)) for fs in fixed]
    return [
        evaluate_ser(rs, task, config.n_eval_symbols_or_blocks, rng_for(seed, SCOPE_EVAL, device, n))
        for device, (task, rs) in enumerate(zip(tasks, receivers))
    ]


def _adaptation(config, seed, tasks, starts, lossfn, scored):
    """Autoencoder BLERs after t SGD steps on fresh batches, for each t in scored.

    starts[u] is test unit u's tuple of starting params.  The units deploy
    in groups of K_meta_batch // len(starts[u]) units (at least one), each
    group's starts as one stack, unit-major: per step one gradient and one
    step of the stack, each unit's rows on the one batch its step stream
    draws, and at each scored t one evaluate_bler of the stack, each unit's
    rows on its one evaluation draw at t.  Every row is bit for bit that start adapted and scored
    alone.  Returns per unit the list, over the scored t, of the tuple of
    its starts' BLERs.
    """
    # A meta-batch's exact tape (0.86 MB per row) is the largest array set a
    # run holds; a deployment row holds less (3.7-4.8 MB per 10 rows), so a
    # group stacks no more rows than a meta-batch.
    per_group = max(1, config.K_meta_batch // len(starts[0]))
    curves = []
    for first in range(0, len(tasks), per_group):
        units = range(first, min(first + per_group, len(tasks)))
        group = [tuple(starts[u]) for u in units]
        step_rngs = [rng_for(seed, SCOPE_ADAPT_STEPS, u) for u in units]
        stack = np.stack([p.values for ps in group for p in ps])
        group_curves = [[] for _ in units]
        for t in range(config.adapt_iters_max + 1):
            if t:
                batches = [generate_autoencoder_batch(tasks[u], config.n_train_blocks, rng, _AE_SPEC) for u, rng in zip(units, step_rngs)]
                data = lossfn.stack(batch for batch, ps in zip(batches, group) for _ in ps)
                stack = sgd_step(stack, eval_with_gradient(lossfn, stack, data).gradient, config.eta_inner)
                del batches, data  # not held while the larger evaluation draws are made
            if t in scored:
                rows = iter(stack)
                receivers = [tuple(p.with_values(next(rows)) for p in ps) for ps in group]
                rngs = [rng_for(seed, SCOPE_EVAL, u, t) for u in units]
                blers = evaluate_bler(receivers, _AE_SPEC, [tasks[u] for u in units], config.n_eval_symbols_or_blocks, rngs)
                for curve, bler in zip(group_curves, blers):
                    curve.append(bler)
        curves.extend(group_curves)
    return curves


def _pilot_seed_records(config, seed):
    """All raw SER measurements for one seed of the pilot sweep."""
    pool, init, lossfn, result = _meta_trained(config, seed)
    # Meta-training runs outer_iters meta-updates; the per-device baseline and
    # the joint baseline get baseline_iters plain SGD steps (they see far more
    # gradients per iteration, so tying the two budgets together would either
    # starve meta-training or drag the sweep out for nothing).
    tc_base = replace(config.train_config(seed), outer_iters=config.baseline_iters)
    joint = train_joint(pool_datasets(item.train for item in pool.items), tc_base, init=init, lossfn=lossfn)
    tasks = _test_tasks(config.family(), seed, config.n_meta_test_tasks)
    methods = ("conventional", "joint", "joint+adapt", _maml_label(config))
    records = []
    # one pilot count at a time: its devices train, and adapt, as one stack each
    for n in config.pilot_counts:
        pilots = _pilots(tasks, seed, n)
        conventional = train_conventional(tasks, tc_base, datasets=pilots, init=init, lossfn=lossfn)
        fixed = [(c, joint) for c in conventional]
        per_device = _pilot_sers(config, seed, tasks, n, lossfn, fixed, (joint, result.params), pilots)
        for device, sers in enumerate(per_device):
            for method, ser in zip(methods, sers):
                records.append(SweepRecord(seed, device, float(n), method, "ser", ser))
    return sorted(records, key=lambda r: r.unit)  # per device, pilot counts ascending


def _adaptation_seed_records(config, seed):
    """All raw BLER measurements for one seed of the adaptation sweep."""
    _, _, lossfn, result = _meta_trained(config, seed)
    methods = (_maml_label(config), "conventional")
    tasks = _test_tasks(config.family(), seed, config.n_meta_test_tasks)
    # both starts of a unit adapt and are scored on the same draws, in lockstep
    starts = [(result.params, init_autoencoder_params(_AE_SPEC, rng_for(seed, SCOPE_TASK, u))) for u in range(len(tasks))]
    records = []
    for unit, blers in enumerate(_adaptation(config, seed, tasks, starts, lossfn, range(config.adapt_iters_max + 1))):
        for method, curve in zip(methods, zip(*blers)):
            records.extend(SweepRecord(seed, unit, float(t), method, "bler", b) for t, b in enumerate(curve))
    return records


def _aggregate(records, n_seeds):
    groups = {}  # (sweep value, method, metric) -> values in record order
    for r in records:
        groups.setdefault((r.sweep_value, r.method, r.metric), []).append(r.value)
    rows = (CurveRow(*key, float(np.mean(v)), float(np.std(v)), n_seeds) for key, v in sorted(groups.items()))
    return CurveTable(tuple(rows))


def _ignore_interrupts():
    # Ctrl-C signals every process of the terminal's group: a pool worker
    # leaves it to the sweep's own process, which stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _sweep(worker, profile, config, workers):
    if config.profile != profile:
        raise ConfigurationError(f"this sweep needs profile = {profile}, got '{config.profile}'")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(config.seeds))  # the pool forks every worker up front
    if workers == 1:
        per_seed = [worker(config, s) for s in config.seeds]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_ignore_interrupts) as pool:
            try:
                per_seed = list(pool.map(functools.partial(worker, config), config.seeds))
            except KeyboardInterrupt:
                # the workers ignore it, so stop them before the pool waits
                # for their seeds (Python 3.14 names this terminate_workers)
                for process in list(pool._processes.values()):
                    process.terminate()
                raise
    records = tuple(r for chunk in per_seed for r in chunk)  # seeds order, not completion order
    return SweepResult(records, _aggregate(records, len(config.seeds)))


def run_pilot_sweep(config, workers=1):
    """SER vs number of pilots across training strategies; see module doc."""
    return _sweep(_pilot_seed_records, "demod", config, workers)


def run_adaptation_sweep(config, workers=1):
    """BLER vs adaptation iterations from meta-learned and random inits."""
    return _sweep(_adaptation_seed_records, "autoencoder", config, workers)


def median_of_seed_means(records, method, metric, sweep_value):
    """Median over seeds of the per-seed mean of the matching records."""
    by_seed = {}
    for r in records:
        if (r.method, r.metric, r.sweep_value) == (method, metric, sweep_value):
            by_seed.setdefault(r.seed, []).append(r.value)
    if not by_seed:
        raise ConfigurationError(f"no records for {method}/{metric} at {sweep_value}")
    return float(np.median([np.mean(vals) for vals in by_seed.values()]))


# ---------------------------------------------------------------------------
# single-run entry points used by the CLI


def run_meta_train(config):
    """Meta-train one initialization per the config's profile, from its seed."""
    return _meta_trained(config, config.seed)[-1]


def evaluate_params(config, params):
    """Adapt saved parameters to fresh meta-test tasks and report the metric.

    Each value is one point of the profile's sweep for the maml method.
    demod: adapt on max(pilot_counts) pilots with m steps, mean SER over
    n_meta_test_tasks devices.  autoencoder: adapt for adapt_iters_max
    iterations, BLER over test channels, measured on the sweep's evaluation
    draw at t = adapt_iters_max, all drawn from the config's seed.  Returns
    (metric_name, values).
    """
    seed = config.seed
    tasks = _test_tasks(config.family(), seed, config.n_meta_test_tasks)
    if config.profile == "demod":
        # the saved network adapts, and is scored, on its own architecture,
        # which need not be the profile's
        n = max(config.pilot_counts)
        lossfn = make_mlp_lossfn(params.arch)
        sers = _pilot_sers(config, seed, tasks, n, lossfn, [()] * len(tasks), (params,), _pilots(tasks, seed, n))
        return "ser", [ser for (ser,) in sers]
    blers = _adaptation(config, seed, tasks, [(params,)] * len(tasks), _AE_LOSSFN, (config.adapt_iters_max,))
    return "bler", [bler for [(bler,)] in blers]


def save_params(path, p):
    """Persist a ParamVector as .npz (flat values + architecture) at exactly path."""
    arch_json = json.dumps([[fi, fo, act] for fi, fo, act in p.arch])
    try:
        with open(path, "wb") as fh:
            np.savez(fh, values=p.values, arch=np.array(arch_json))
    except (OSError, ValueError) as err:
        raise ConfigurationError(f"cannot write parameters '{path}': {err}") from err


def _width(x):
    """A layer width from the arch JSON: an integer, not a bool, float or string."""
    if type(x) is not int:
        raise ValueError(f"layer widths must be integers, got {x!r}")
    return x


# what zipfile, zlib and numpy's .npy header parser raise on a truncated or
# corrupted archive, besides OSError and ValueError
_DAMAGED_ARCHIVE = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, tokenize.TokenError)


def load_params(path):
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("not an .npz archive")
        with data:
            values = data["values"]
            arch = tuple((_width(fi), _width(fo), str(act)) for fi, fo, act in json.loads(str(data["arch"])))
        if values.dtype.kind not in "iuf":
            raise ValueError(f"values must be real numbers, got dtype {values.dtype}")
        params = ParamVector(values, arch)
        if not np.isfinite(params.values).all():
            raise ValueError("values must be finite")
    except (OSError, KeyError, ValueError, TypeError, ConfigurationError, *_DAMAGED_ARCHIVE) as err:
        # TypeError: an arch entry that is not a (fan_in, fan_out, act) triple of scalars
        raise ConfigurationError(f"cannot load parameters '{path}': {err}") from err
    return params
