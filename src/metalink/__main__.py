"""`python -m metalink` and the `metalink` script: cli.main, with a Ctrl-C
that lands while cli's imports load numpy mapped as cli.main maps one."""

import sys


def main():
    try:
        from . import cli
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # cli.EXIT_INTERRUPT, from the module that failed to load
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
