"""Joint-training degeneracy study on a family of pure phase rotations.

When every device differs only by a uniform carrier phase offset, pooling
their pilots teaches a shared model almost nothing: averaging over rotations
leaves at best ring membership.  A meta-learned initialization adapted with a
handful of pilots recovers the rotation per device.  This script measures
both, mirroring the hardest case for the joint baseline.
"""

import sys
from dataclasses import replace

import numpy as np

from metalink.cli import Parser, run
from metalink.harness import default_config, run_phase_rotation_seed


def main(argv):
    parser = Parser(description=__doc__)
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--tasks", type=int, default=50)
    parser.add_argument("--outer-iters", type=int, default=1500)
    parser.add_argument("--devices", type=int, default=10)
    parser.add_argument("--pilots", type=int, default=16)
    args = parser.parse_args(argv)
    # a sweep's seed rules hold here too: non-negative, none repeated
    replace(default_config("demod"), seeds=tuple(args.seeds))

    joint_means, maml_means = [], []
    for seed in args.seeds:
        joint_ser, maml_ser = run_phase_rotation_seed(
            seed, args.snr_db, args.tasks, args.outer_iters, args.devices, args.pilots
        )
        joint_means.append(joint_ser)
        maml_means.append(maml_ser)
        print(f"seed {seed}: joint SER {joint_ser:.4f}, adapted-from-meta SER {maml_ser:.4f}")

    print(
        f"medians over {len(args.seeds)} seeds at {args.snr_db:g} dB: "
        f"joint {np.median(joint_means):.4f}, "
        f"meta-learned + {args.pilots} pilots {np.median(maml_means):.4f}"
    )


if __name__ == "__main__":
    sys.exit(run(main, sys.argv[1:]))
