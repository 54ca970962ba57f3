"""Command-line interface.

Subcommands: meta-train, sweep-pilots, sweep-adapt, gradcheck, eval.
Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification-check failure.  The scripts in scripts/ parse with Parser
and run under run(), so they map errors to the same codes and messages.
"""

from __future__ import annotations

import argparse
import sys

from .checks import run_gradcheck
from .errors import ConfigurationError, NumericalError
from .harness import (
    default_config,
    evaluate_params,
    load_config,
    load_params,
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


class Parser(argparse.ArgumentParser):
    """argparse that raises ConfigurationError instead of calling sys.exit(2)."""

    def error(self, message):
        raise ConfigurationError(message)


def output_path(text):
    """An --out value: any path but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def run(body, argv):
    """body(argv), with errors turned into exit codes and one-line messages.

    ConfigurationError (bad arguments included) prints `config error: ...`
    and gives 1, NumericalError prints `numerical failure: ...` and gives 2;
    --help prints the usage and gives 0.
    """
    try:
        return body(argv)
    except SystemExit as done:  # raised only by argparse's --help
        return done.code
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser():
    parser = Parser(prog="metalink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile_default, trains=True):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--profile", default=profile_default, help="profile when no --config is given")
        p.add_argument("--seed", type=int, help="override the config's seed / seed list")
        if trains:
            p.add_argument("--out", type=output_path, help="output path (overrides config.output_path)")
            p.add_argument("--first-order", action="store_true", help="use the first-order meta-gradient")
        return p

    common(sub.add_parser("meta-train", help="learn an initialization"), "demod")
    for sweep in (
        common(sub.add_parser("sweep-pilots", help="SER vs pilot count"), "demod"),
        common(sub.add_parser("sweep-adapt", help="BLER vs adaptation iteration"), "autoencoder"),
    ):
        sweep.add_argument("--workers", type=int, default=1, help="parallel workers over seeds")

    check = sub.add_parser("gradcheck", help="run the derivative verification suites")
    check.add_argument("--scale", choices=("small", "full"), default="small")

    # eval adapts with the config's inner steps and writes nothing
    ev = common(sub.add_parser("eval", help="evaluate saved parameters on fresh tasks"), "demod", trains=False)
    ev.add_argument("--params", required=True, help="path to a .npz saved by meta-train")

    return parser


def _config_from_args(args):
    config = load_config(args.config) if args.config else default_config(args.profile)
    from dataclasses import replace

    if args.seed is not None:
        config = replace(config, seed=args.seed, seeds=(args.seed,))
    if getattr(args, "first_order", False):
        config = replace(config, first_order=True)
    if getattr(args, "out", None) is not None:
        config = replace(config, output_path=args.out)
    return config


def _cmd_meta_train(args):
    config = _config_from_args(args)
    result = run_meta_train(config)
    out = args.out or f"meta_params_{config.profile}.npz"
    save_params(out, result.params)
    first = result.history[0][1] if result.history else float("nan")
    last = result.history[-1][1] if result.history else float("nan")
    print(f"meta-trained {config.profile}: {len(result.history)} iterations, "
          f"meta-loss {first:.4f} -> {last:.4f}, saved {out}")
    return EXIT_OK


def _cmd_sweep(args, runner):
    config = _config_from_args(args)
    result = runner(config, workers=args.workers)
    write_curve(result.table, config.output_path)
    print(f"wrote {len(result.table)} rows to {config.output_path}")
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


def main(argv=None):
    return run(_dispatch, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
