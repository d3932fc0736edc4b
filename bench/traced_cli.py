"""Run one mmhopfield command with its layers traced.

    python3 bench/traced_cli.py STATS_JSON SUBCOMMAND [ARGS...]

Imports the command-line module, wraps the package's public functions (see
spans.py), runs the command as the console script would, and writes the
per-layer totals to STATS_JSON. Exits with the command's own exit code.
"""

import json
import sys

import mmhopfield.cli

from spans import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mmhopfield.cli.main(argv)
    finally:
        tracer.remove()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
