"""Starts the CLI processes of the `cli` workload.

A process made by fork or vfork starts with its parent's peak resident
size, so CLI processes started by the worker, which holds gideal and
numpy, would report at least the worker's size.  The worker starts this
process before it imports anything large.  It reads one JSON argv per
line on stdin, runs it and answers with one JSON line
[returncode, stdout, stderr]; when stdin closes it writes the peak
resident size of its children in MB and exits.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), capture_output=True, text=True,
                              timeout=120)
        print(json.dumps([proc.returncode, proc.stdout, proc.stderr]), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps(peak), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
