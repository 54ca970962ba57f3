"""`python -m metalink` and the `metalink` script: cli.main, with a Ctrl-C
that lands while cli's imports load numpy mapped as cli.main maps one."""

import importlib
import signal
import sys


def main():
    # A Ctrl-C while the imports load is recorded, not raised, and start-up
    # stops once they are done.  Raised, it lands in whatever code numpy or
    # importlib runs, which can turn it into another error (numpy: an
    # ImportError), print it as ignored (importlib's module-lock callback)
    # or swallow it (numpy.random's import, which numpy makes on first use
    # and which is therefore made here too).
    interrupts = []
    signal.signal(signal.SIGINT, lambda signum, frame: interrupts.append(signum))
    try:
        from . import cli

        importlib.import_module("numpy.random")
    except KeyboardInterrupt:  # raised by code, not by the signal
        interrupts.append(signal.SIGINT)
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    if interrupts:
        print("interrupted", file=sys.stderr)
        return 130  # cli.EXIT_INTERRUPT, from a module that may not have loaded
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
