"""Run one lfpoly CLI command with per-layer tracing.

    python3 lfbench/traced_cli.py STATS.json <lfpoly arguments>

Times the import of lfpoly.cli, wraps the traced functions (tracer.py),
runs the command, writes the raw tallies to STATS.json and exits with the
command's exit code.
"""

import json
import sys

from tracer import Tracer, perf


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf()
    import lfpoly.cli as cli
    import_s = perf() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "raw": tracer.raw}, fh)


if __name__ == "__main__":
    sys.exit(main())
