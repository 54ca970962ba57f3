"""Command-line interface: `metalink <command>`, the one front end.

Subcommands: meta-train, sweep-pilots, sweep-adapt, gradcheck, eval.  The
sweeps write their curve as CSV, then print per pilot count (sweep-pilots)
or adaptation checkpoint (sweep-adapt) the median over seeds of each
method's per-seed mean error rate.  The joint-training degeneracy study on
pure phase rotations is `sweep-pilots --config configs/phase_rotation.cfg`.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification-check failure, 4 out of memory (a size no allocation can
hold), 130 interrupted by Ctrl-C (SIGINT), 141 stdout closed by its reader
(the codes a shell reports for a process ended by SIGINT and by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .checks import run_gradcheck
from .errors import ConfigurationError, NumericalError
from .harness import (
    default_config,
    evaluate_params,
    load_config,
    load_params,
    median_of_seed_means,
    run_adaptation_sweep,
    run_meta_train,
    run_pilot_sweep,
    save_params,
    write_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3
EXIT_MEMORY = 4
EXIT_INTERRUPT = 130
EXIT_PIPE = 141

class Parser(argparse.ArgumentParser):
    """argparse that raises ConfigurationError instead of calling sys.exit(2),
    and whose --help lets a closed stdout's BrokenPipeError out (argparse's
    own writer swallows it)."""

    def error(self, message):
        raise ConfigurationError(message)

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def output_path(text):
    """An --out value: any path but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _build_parser():
    parser = Parser(prog="metalink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=None, trains=True):
        # a sweep runs its one profile; meta-train and eval take --config or --profile
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="path to a key = value config file")
        if profile is None:
            source.add_argument("--profile", help="profile when no --config is given (default demod)")
        p.set_defaults(profile=profile)
        p.add_argument("--seed", type=int, help="override the config's seed / seed list")
        if trains:
            p.add_argument("--out", type=output_path, help="output path (overrides config.output_path)")
            p.add_argument("--first-order", action="store_true", help="use the first-order meta-gradient")
        return p

    common(sub.add_parser("meta-train", help="learn an initialization"))
    for sweep in (
        common(sub.add_parser("sweep-pilots", help="SER vs pilot count"), "demod"),
        common(sub.add_parser("sweep-adapt", help="BLER vs adaptation iteration"), "autoencoder"),
    ):
        sweep.add_argument("--workers", type=int, default=1, help="parallel workers over seeds")

    check = sub.add_parser("gradcheck", help="run the derivative verification suites")
    check.add_argument("--scale", choices=("small", "full"), default="small")

    # eval adapts with the config's inner steps and writes nothing
    ev = common(sub.add_parser("eval", help="evaluate saved parameters on fresh tasks"), trains=False)
    ev.add_argument("--params", required=True, help="path to a .npz saved by meta-train")

    return parser


def _config_from_args(args):
    profile = "demod" if args.profile is None else args.profile
    config = default_config(profile) if args.config is None else load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed, seeds=(args.seed,))
    if getattr(args, "first_order", False):
        config = replace(config, first_order=True)
    if getattr(args, "out", None) is not None:
        config = replace(config, output_path=args.out)
    return config


def _check_writable(path):
    """Refuse, before any training, an output path naming no file in an existing directory."""
    if "\0" in path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"cannot write '{path}': it names no file in an existing directory")


def _cmd_meta_train(args):
    config = _config_from_args(args)
    out = args.out or f"meta_params_{config.profile}.npz"
    _check_writable(out)
    result = run_meta_train(config)
    save_params(out, result.params)
    if not result.history:
        print(f"meta-trained {config.profile}: no iteration ran (outer_iters = 0), saved the initialization {out}")
        return EXIT_OK
    first, last = result.history[0][1], result.history[-1][1]
    print(f"meta-trained {config.profile}: {len(result.history)} iterations, "
          f"meta-loss {first:.4f} -> {last:.4f}, saved {out}")
    return EXIT_OK


def _cmd_sweep(args, runner):
    config = _config_from_args(args)
    _check_writable(config.output_path)
    result = runner(config, workers=args.workers)
    write_curve(result.table, config.output_path)
    print(f"wrote {len(result.table)} rows to {config.output_path}")

    if config.profile == "demod":
        metric, axis, points = "ser", "pilots", config.pilot_counts
    else:
        last = config.adapt_iters_max
        metric, axis, points = "bler", " iter", sorted({0, 1, 5, 10, last} & set(range(last + 1)))
    methods = list(dict.fromkeys(r.method for r in result.records))  # in the order the sweep measured them
    print(f"median over {len(config.seeds)} seeds of per-seed mean {metric.upper()}:")
    print(f"  {axis}  " + "  ".join(f"{m:>12s}" for m in methods))
    for x in points:
        cells = (f"{median_of_seed_means(result.records, m, metric, float(x)):12.4f}" for m in methods)
        print(f"  {x:{len(axis)}d}  " + "  ".join(cells))
    return EXIT_OK


def _cmd_gradcheck(args):
    report = run_gradcheck(args.scale)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CHECK


def _cmd_eval(args):
    config = _config_from_args(args)
    params = load_params(args.params)
    metric, values = evaluate_params(config, params)
    mean = sum(values) / len(values)
    print(f"{metric} over {len(values)} meta-test tasks: mean {mean:.5f}, "
          f"min {min(values):.5f}, max {max(values):.5f}")
    return EXIT_OK


def _dispatch(argv):
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "meta-train":
            return _cmd_meta_train(args)
        if args.command == "sweep-pilots":
            return _cmd_sweep(args, run_pilot_sweep)
        if args.command == "sweep-adapt":
            return _cmd_sweep(args, run_adaptation_sweep)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        return _cmd_eval(args)
    finally:
        sys.stdout.flush()  # so a reader that has gone shows here, not in the interpreter's exit flush


def main(argv=None):
    """Run one command; errors become exit codes and one-line messages.

    ConfigurationError (bad arguments included) prints `config error: ...`
    and gives 1, NumericalError prints `numerical failure: ...` and gives 2,
    MemoryError (a sweep worker's too) prints `out of memory: ...` and gives
    4; --help prints the usage and gives 0.  Ctrl-C prints `interrupted` and
    gives 130.  A closed stdout gives 141 and prints nothing.
    """
    try:
        return _dispatch(argv)
    except SystemExit as done:  # raised only by argparse's --help
        return done.code
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:  # numpy's names the size it could not allocate
        print(f"out of memory: {err}" if str(err) else "out of memory", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush land
        # in devnull instead of raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
