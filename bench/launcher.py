"""Traced stand-in for `python -m gideal`.

    python3 bench/launcher.py <command> [args...]

Imports gideal (timed), wraps its public functions as in the traced
in-process run, calls `gideal.cli.main(argv)` and exits with its code.
The span summary goes to the last line of stderr, after the marker
`BENCH-TRACE `, so stdout stays the CLI's own report.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import gideal.cli

    import_s = time.perf_counter() - t0
    from tracer import TRACE_MARK, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.start()
    try:
        code = gideal.cli.main(argv)
    finally:
        tracer.stop()
        sys.stdout.flush()
        summary = tracer.summary()
        main_s = summary.pop("top_s").get(0, 0.0)
        print(TRACE_MARK + json.dumps(
            {"import_s": import_s, "main_s": main_s, "summary": summary}),
            file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
