"""Run one ``partition_modes.cli`` command with the span wrappers installed.

    python3 perfbench/traced_cli.py SPANS_OUT <cli arguments...>

Behaves as ``python -m partition_modes.cli <cli arguments...>`` and
writes the recorded spans to SPANS_OUT when the command returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracing.install()
    from partition_modes import cli
    try:
        return cli.main(argv)
    finally:
        tracing.dump(out)


if __name__ == "__main__":
    sys.exit(main())
