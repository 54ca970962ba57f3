"""Run the few-pilot demodulator experiment and print the headline numbers.

Meta-trains an initialization over a population of single-tap fading devices
with transmitter non-idealities, then compares four receivers on fresh
devices as a function of pilot count: trained from scratch, the joint model,
the joint model after adaptation, and the meta-learned model after
adaptation.  Writes the aggregate curve as CSV and prints per-method medians
of per-seed mean SER.
"""

import sys

from metalink.cli import Parser, output_path, run
from metalink.harness import default_config, load_config, median_of_seed_means, run_pilot_sweep, write_curve


def main(argv):
    parser = Parser(description=__doc__)
    parser.add_argument("--config", help="key = value config file (default: demod profile)")
    parser.add_argument("--out", type=output_path, help="CSV path (default: config output_path)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    config = load_config(args.config) if args.config else default_config("demod")
    result = run_pilot_sweep(config, workers=args.workers)
    out = args.out or config.output_path
    write_curve(result.table, out)
    print(f"wrote {len(result.table)} rows to {out}")

    methods = sorted({r.method for r in result.records})
    print(f"median over {len(config.seeds)} seeds of per-seed mean SER:")
    print("  pilots  " + "  ".join(f"{m:>12s}" for m in methods))
    for n in config.pilot_counts:
        cells = [f"{median_of_seed_means(result.records, m, 'ser', float(n)):12.4f}" for m in methods]
        print(f"  {n:6d}  " + "  ".join(cells))


if __name__ == "__main__":
    sys.exit(run(main, sys.argv[1:]))
