"""Run one ``ladder-forge`` command in this process with the tracer installed.

Used by traced ``cli-fresh`` runs in place of the plain entry point:

    python3 perfbench/cli_child.py OUT_JSON REQUEST_ID <ladder-forge arguments>

Writes the per-layer summary and the spans to OUT_JSON and exits with the
command's own status.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    out_path, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    trace = tracing.Tracer()
    trace.request_id = request_id
    tracing.install(trace)
    from ladder_forge import cli

    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"summary": trace.summary(), "cache": tracing.cache_stats(),
                       "spans": trace.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
