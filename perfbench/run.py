"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload demod_sweep --seed 0 --seconds 25 --trace 0

Run from anywhere; the program is imported from `src/` beside this directory.
With --trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  The line before it holds the host
context.  Exit code 0 means every correctness gate passed, 1 that one failed,
2 that the program is missing.  See README.md.
"""

import os

# Pinned before numpy loads: one BLAS/OpenMP thread, like a single-core user.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Cold set-ups are timed between repetitions, about SETUP_PROBES of them spread
# evenly over --seconds; setup_s is the median of their calibrated seconds.
SETUP_PROBES = 20
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "err_maml": "ratio",
}

PER_LAYER_UNITS = {
    "graph.nodes": "count",
    "graph.gradients_calls": "count",
    "graph.nodes_per_meta_grad": "count",
    "graph.gradients_s": "s",
    "graph.ns_per_node": "ns",
    "autodiff.meta_grad_calls": "count",
    "autodiff.meta_grad_ms_p50": "ms",
    "autodiff.meta_grad_ms_p95": "ms",
    "autodiff.eval_with_gradient_calls": "count",
    "autodiff.eval_with_gradient_us_p50": "us",
    "learners.meta_train_s": "s",
    "learners.meta_iter_ms": "ms",
    "learners.meta_iter_ms_fo": "ms",
    "learners.train_conventional_s": "s",
    "learners.train_joint_s": "s",
    "learners.maml_adapt_s": "s",
    "learners.guard_retries": "count",
    "channel.apply_channel_block_calls": "count",
    "channel.apply_channel_block_s": "s",
    "channel.awgn_calls": "count",
    "tasks.pool_s": "s",
    "tasks.generate_autoencoder_batch_calls": "count",
    "tasks.generate_autoencoder_batch_s": "s",
    "harness.evaluate_ser_s": "s",
    "harness.evaluate_bler_s": "s",
    "harness.eval_ms_per_1k_units": "ms",
    "err_maml_fo": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Per-layer counts that must repeat exactly across repetitions of one seed.
EXACT_COUNTS = tuple(
    k for k, unit in PER_LAYER_UNITS.items() if unit == "count" and k != "graph.nodes_per_meta_grad"
)

# Reference loop kept as host context: 20k 32x32 matmuls.
REF_LOOP_MATMULS = 20_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("demod_sweep", "ae_adapt_sweep", "demod_deep_meta"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink outer_iters, baseline_iters and n_eval_symbols_or_blocks together (tests)",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or not 0.0 < args.scale <= 1.0 or args.seconds < 0:
        p.error("need --seed >= 0, 0 < --scale <= 1 and --seconds >= 0")
    return args


def reference_loop_ms(np):
    a = np.full((32, 32), 1.0 / 32.0)
    t = time.perf_counter()
    for _ in range(REF_LOOP_MATMULS):
        a @ a
    return 1e3 * (time.perf_counter() - t)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_context(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(name, seed, scale):
    """Seconds of one cold set-up, in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), repr(scale)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def phase_check(name, shares):
    """The ROADMAP baseline's phase ordering, on self-time shares of one repetition."""
    if name == "demod_sweep":
        order = (
            shares.get("meta_train", 0.0),
            shares.get("train_conventional", 0.0),
            shares.get("train_joint", 0.0),
            shares.get("evaluate_ser", 0.0) + shares.get("maml_adapt", 0.0),
        )
        return all(a > b for a, b in zip(order, order[1:]))
    if name == "ae_adapt_sweep":
        return shares.get("meta_train", 0.0) + shares.get("evaluate_bler", 0.0) > 0.5
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "metalink" / "__init__.py").is_file():
        print(f"perfbench: metalink sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    from metalink import checks
    from metalink.errors import ConfigurationError, NumericalError

    from calibrate import Calibrator, reference_chunk, scaled
    from tracer import Tracer
    from workloads import WORKLOADS, load_workload_config, on_first_step, table_sha256

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    context = {"workload": args.workload, "seed": args.seed, "scale": args.scale, **host_context(np)}
    context["ref_loop_ms_start"] = reference_loop_ms(np)
    problems = []

    report = checks.run_gradcheck("small")
    context["gradcheck_s"] = report.seconds
    if not report.passed:
        problems.append("gradcheck failed:\n" + report.format())

    cfg = load_workload_config(args.workload, args.seed, args.scale)

    tracer = Tracer(run_id) if args.trace else None
    walls = {False: [], True: []}
    calibrated = []
    calibrator = Calibrator()
    layers = []
    shas = set()
    attempted = failed = 0
    err_maml = err_maml_fo = None

    def one_rep(traced):
        nonlocal attempted, failed, err_maml, err_maml_fo
        start = None

        def first_step():
            nonlocal start
            start = tracer.open_root() if traced else calibrator.begin()

        raw = None
        with tracer if traced else calibrator.installed(), on_first_step(first_step):
            try:
                raw = workload.run(cfg)
            except (NumericalError, ConfigurationError) as err:
                # ConfigurationError here means a CurveRow refused a result
                # outside [0, 1]: the program's output, not the config, is bad.
                problems.append(f"repetition {len(walls[False]) + len(walls[True])}: {err}")
            t_end = time.perf_counter()
        attempted += workload.expected(cfg)
        if traced:
            layer = tracer.end_rep(t_end)
        elif start is not None:
            seconds, seconds_calibrated = calibrator.end()
        if raw is None:
            failed += workload.expected(cfg)
            return
        outcome = workload.digest(cfg, raw)
        failed += outcome.failed
        problems.extend(outcome.problems)
        if outcome.failed and not outcome.problems:
            problems.append(f"{outcome.failed} records missing, non-finite or outside [0, 1]")
        shas.add(table_sha256(outcome.table, OUT_DIR))
        err_maml, err_maml_fo = outcome.err_maml, outcome.err_maml_fo
        if traced:
            walls[True].append(t_end - start)
            layers.append((tracer.rep, layer))
        else:
            walls[False].append(seconds)
            calibrated.append(seconds_calibrated)

    # ABBA order in a traced run, so host drift hits both sides alike.  Cold
    # set-ups are spread over the run, so they sample the same stretches of
    # host speed as the repetitions.
    pattern = (False, True, True, False) if args.trace else (False,)
    setup_times = []
    setup_calibrated = []
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < args.seconds or not all(walls[t] for t in set(pattern)):
        elapsed = time.perf_counter() - t0
        due = 1 + int(elapsed * SETUP_PROBES / args.seconds) if args.seconds else 1
        while len(setup_times) < due:
            before = reference_chunk()
            setup_times.append(time_setup(args.workload, args.seed, args.scale))
            setup_calibrated.append(scaled(setup_times[-1], before, reference_chunk()))
        one_rep(pattern[i % len(pattern)])
        i += 1
        if problems:
            break
    measured_s = time.perf_counter() - t0

    if len(shas) > 1:
        problems.append(f"table bytes differ across repetitions of one seed: {sorted(shas)}")
    for key in EXACT_COUNTS:
        if len({layer[key] for _, layer in layers}) > 1:
            problems.append(f"{key} differs across repetitions of one seed")
    context.update(
        {
            "measured_s": measured_s,
            "setup_s_raw": setup_times,
            "setup_s_all": setup_calibrated,
            "reps_untraced": len(walls[False]),
            "reps_traced": len(walls[True]),
            "wall_s_raw": walls[False],
            "wall_s_all": calibrated,
            "traced_wall_s_all": walls[True],
            "table_sha256": shas.pop() if len(shas) == 1 else None,
            "ref_loop_ms_end": reference_loop_ms(np),
            "problems": problems,
        }
    )
    correct = not problems and attempted > 0 and failed == 0

    if args.trace:
        metrics = {}
        if layers and walls[False]:
            fastest = min(range(len(layers)), key=lambda k: walls[True][k])
            rep, layer = layers[fastest]
            metrics = dict(layer)
            metrics["err_maml_fo"] = err_maml_fo if err_maml_fo is not None else 0.0
            metrics["trace.overhead_ratio"] = walls[True][fastest] / min(walls[False])
            shares = {k: v / walls[True][fastest] for k, v in tracer.self_times(rep).items()}
            context["phase_self_share"] = shares
            context["phase_order_ok"] = phase_check(args.workload, shares)
            if context["phase_order_ok"] is False:
                print(f"perfbench: phase shares off the baseline ordering: {shares}", file=sys.stderr)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_calibrated),
            "wall_s": statistics.median(calibrated) if calibrated else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "err_maml": err_maml,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    (OUT_DIR / f"{run_id}.json").write_text(json.dumps({"context": context, **result}, indent=1) + "\n")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print("context " + json.dumps(context))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
