"""One workload in one fresh interpreter; prints one JSON line.

    python3 bench/worker.py --root DIR --workload W --seed N --mode M ...

Modes: `setup` builds the inputs and stops; `run` times ops until
`--seconds` have passed and at least `--min-ops` ops ran; `plain` and
`traced` run the first `--trace-ops` ops, without and with spans.  The
caller puts the checkout's `src/` first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from tracer import TRACE_MARK, Tracer, merge_summaries

def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "plain", "traced"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-ops", type=int, default=100)
    p.add_argument("--trace-ops", type=int, default=None)
    p.add_argument("--corrupt", action="store_true",
                   help="replace the first answer before checking it")
    return p.parse_args(argv)


def _timed(ops, seconds: float, min_ops: int, before=None):
    """Closed loop, one client: next op starts when the last one ended."""
    done = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if len(done) >= min_ops and time.perf_counter() - start >= seconds:
            break
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            answer, error = op.run(), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            answer, error = None, exc
        done.append((op, time.perf_counter() - t0, answer, error))
    return done, time.perf_counter() - start


def _checked(done, corrupt: bool) -> int:
    failed = 0
    for i, (op, _, answer, error) in enumerate(done):
        if corrupt and i == 0:
            answer = object()
        ok = False
        if error is None:
            try:
                ok = bool(op.check(answer))
            except Exception:  # noqa: BLE001 - a wrong-shaped answer fails
                ok = False
        if not ok:
            failed += 1
            why = f"raised {error!r}" if error is not None else "wrong answer"
            print(f"op {i} ({op.kind}) failed: {why}", file=sys.stderr)
    return failed


class _Spawner:
    """Client of bench/spawner.py, which starts the CLI processes."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv) -> tuple:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self) -> float:
        """Peak resident size of the CLI processes, in MB."""
        self.proc.stdin.close()
        peak = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=60)
        return peak

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main(argv=None) -> int:
    args = _parse(argv)
    # Started while this process is still small; see bench/spawner.py.
    spawner = _Spawner() if args.workload == "cli" else None
    try:
        return _main(args, spawner)
    finally:
        if spawner is not None:
            spawner.kill()


def _main(args, spawner) -> int:
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "tests"))
    t0 = time.perf_counter()
    import gideal  # noqa: F401 - timed: the import is part of set-up

    import_s = time.perf_counter() - t0
    import workloads

    workloads.check_package_origin(root)
    workdir = None
    ctx = None
    if args.workload == "cli":
        workdir = os.path.join(root, ".bench_work", f"{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        ctx = workloads.CliContext(root, workdir, args.mode == "traced", spawner.run)
    try:
        ops = workloads.build(args.workload, random.Random(args.seed), ctx)
        setup_end = time.monotonic()
        digest = hashlib.sha256(
            "\n".join(f"{op.kind} {op.key}" for op in ops).encode()).hexdigest()
        out = {"setup_end": setup_end, "digest": digest, "pool": len(ops)}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        tracer = None
        before = None
        if args.mode in ("plain", "traced"):
            count = args.trace_ops or workloads.TRACE_OPS[args.workload]
            ops = ops[:count]
            seconds, min_ops = 0.0, len(ops)
            if args.mode == "traced" and args.workload != "cli":
                tracer = Tracer()
                tracer.install()

                def before(i):
                    tracer.op = i
                tracer.start()
        else:
            seconds, min_ops = args.seconds, args.min_ops
        done, elapsed = _timed(ops, seconds, min_ops, before)
        if tracer is not None:
            tracer.stop()
        if spawner is not None:
            peak = spawner.close()
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        latencies = [dt for _, dt, _, _ in done]
        out.update(attempted=len(done), elapsed=elapsed, latencies=latencies,
                   peak_rss_mb=peak,
                   kinds=dict(Counter(op.kind for op, _, _, _ in done)))
        if args.mode == "traced":
            if tracer is not None:
                summary = tracer.summary()
                top = summary.pop("top_s")
                out["trace"] = summary
                harness = [w - top.get(i, 0.0) for i, w in enumerate(latencies)]
                if min(harness, default=0.0) < -1e-6:
                    raise RuntimeError("spans of an op outlast the op")
                out["harness_s"] = sum(harness)
                out["import_s_all"] = [import_s]
            else:
                out.update(_cli_trace(done))
        out["failed"] = _checked(done, args.corrupt)
        print(json.dumps(out))
        return 0
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass


def _cli_trace(done) -> dict:
    """Per-child summaries from the launcher's last stderr line."""
    parts, imports, mains, harness = [], [], {}, 0.0
    for op, wall, answer, error in done:
        if error is not None:
            continue
        line = answer[2].rstrip("\n").rsplit("\n", 1)[-1]
        if not line.startswith(TRACE_MARK):
            raise RuntimeError(f"no trace from the {op.kind} child")
        child = json.loads(line[len(TRACE_MARK):])
        parts.append(child["summary"])
        imports.append(child["import_s"])
        mains.setdefault(op.kind, []).append(child["main_s"])
        harness += wall - child["import_s"] - child["main_s"]
    summary = merge_summaries(parts)
    summary["calls"]["cli.import"] = len(imports)
    summary["self_s"]["cli.import"] = sum(imports)
    return {"trace": summary, "harness_s": harness, "import_s_all": imports,
            "main_p50_s": {k: statistics.median(v) for k, v in mains.items()}}


if __name__ == "__main__":
    raise SystemExit(main())
