"""Runs the blslab command line from this checkout's sources.

    python3 bench/cli_launcher.py [--trace-out FILE] -- <blslab arguments>

Without ``--trace-out`` this is the ``blslab`` console script.  With it, the
span wrappers are installed before ``blslab.cli.dispatch`` runs, and the span
totals plus the moment dispatch started (``time.perf_counter``) are written to
FILE as JSON.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from blslab import cli

    if trace_out is None:
        return cli.dispatch(argv)
    sys.path.insert(0, str(HERE))
    import spans

    tracer = spans.Tracer()
    with spans.Patch(tracer):
        ready = time.perf_counter()
        code = cli.dispatch(argv)
    doc = spans.snapshot(tracer)
    doc["ready_ts"] = ready
    Path(trace_out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
