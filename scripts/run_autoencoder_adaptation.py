"""Run the autoencoder fast-adaptation experiment and print the BLER trace.

Meta-trains an encoder/decoder initialization over random 3-tap Rayleigh
block-fading channels, then adapts on fresh channels for t = 0..max
iterations, against the same procedure started from a random initialization.
Writes the aggregate BLER-vs-iteration curve as CSV.
"""

import sys

from metalink.cli import Parser, output_path, run
from metalink.harness import default_config, load_config, median_of_seed_means, run_adaptation_sweep, write_curve


def main(argv):
    parser = Parser(description=__doc__)
    parser.add_argument("--config", help="key = value config file (default: autoencoder profile)")
    parser.add_argument("--out", type=output_path, help="CSV path (default: config output_path)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    config = load_config(args.config) if args.config else default_config("autoencoder")
    result = run_adaptation_sweep(config, workers=args.workers)
    out = args.out or config.output_path
    write_curve(result.table, out)
    print(f"wrote {len(result.table)} rows to {out}")

    checkpoints = sorted({0, 1, 5, 10, config.adapt_iters_max} & set(range(config.adapt_iters_max + 1)))
    print(f"median over {len(config.seeds)} seeds of per-seed mean BLER:")
    methods = ("maml-fo" if config.first_order else "maml", "conventional")
    print("   iter  " + "  ".join(f"{m:>12s}" for m in methods))
    for t in checkpoints:
        cells = [f"{median_of_seed_means(result.records, m, 'bler', float(t)):12.4f}" for m in methods]
        print(f"  {t:5d}  " + "  ".join(cells))


if __name__ == "__main__":
    sys.exit(run(main, sys.argv[1:]))
