"""Time one cold set-up of a workload in a fresh process and print the seconds.

Set-up is everything before the first training step: importing numpy and
metalink, loading the config, building the task pool and initialising the
parameters.  The real entry point runs until its first `harness.meta_train`
call, where a stop signal is raised.

    python3 perfbench/setup_probe.py <workload> <seed> <scale>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, load_workload_config, on_first_step  # noqa: E402


class FirstStep(Exception):
    pass


def _stop():
    raise FirstStep


def main():
    name, seed, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    cfg = load_workload_config(name, seed, scale)
    try:
        with on_first_step(_stop):
            WORKLOADS[name].run(cfg)
    except FirstStep:
        print(repr(time.perf_counter() - T0))
        return 0
    print("set-up probe: the workload never reached meta_train", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
