"""Smoke check of the benchmark: a tiny run of every workload.

    python3 bench/smoke.py        (from the root of a checkout)

For every workload in BENCHMARK.json it asserts that the untraced run
prints exactly the end-to-end metrics and the traced run exactly the
per-layer metrics, each with its declared unit, and that every answer
checks.  A further run corrupts one answer inside the check; it must
come back with `failed` above 0 and `ok_ratio` below 1.
"""

from __future__ import annotations

import json
import subprocess
import sys


def _run(workload: str, trace: int, *extra: str) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.5", "--trace", str(trace), "--min-ops", "3",
            "--trace-ops", "3", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"smoke: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if _units(result) != declared:
                raise SystemExit(f"smoke: {workload} --trace {trace} prints "
                                 f"{sorted(_units(result).items())}, "
                                 f"declared {sorted(declared.items())}")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"smoke: {workload} --trace {trace} has wrong answers")
        corrupted = _run(workload, 0, "--corrupt")
        ok_ratio = corrupted["metrics"]["ok_ratio"]["value"]
        if corrupted["correct"] or corrupted["failed"] < 1 or not ok_ratio < 1:
            raise SystemExit(f"smoke: a corrupted {workload} answer went unnoticed")
        print(f"smoke: {workload} ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
