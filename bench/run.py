"""gideal benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload {cli,closure,staircase,hilbert}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload runs in fresh
interpreters (bench/worker.py) with the checkout's `src/` first on
PYTHONPATH.  `--trace 0` prints the end-to-end metrics: set-up is
measured three times (two set-up-only processes and the measuring one)
and reported as the median.  `--trace 1` runs a fixed seeded prefix of
the ops twice, untraced and traced, in two more fresh interpreters, and
prints the per-layer metrics.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import CACHES, LAYERS, SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0
SETUP_RUNS = 3
CLI_COMMANDS = ("classify", "factor", "close", "simple-factor", "hilbert",
                "verify-examples")


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli", "closure", "staircase", "hilbert"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--min-ops", type=int, default=100,
                   help="ops a measuring run times at least (default 100)")
    p.add_argument("--trace-ops", type=int, default=None,
                   help="ops in each traced-run pass (default per workload)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one answer before it is checked")
    return p.parse_args(argv)


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("GIDEAL_BUDGET", None)
    return env


def _worker(base, env, mode, extra, started) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON and its start time."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the " + mode + " worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(base + ["--mode", mode] + extra, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setups: list[float], run: dict) -> dict:
    lat = run["latencies"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run["attempted"] / run["elapsed"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": ((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    tr = traced["trace"]
    calls, self_s, counters, caches = tr["calls"], tr["self_s"], tr["counters"], tr["caches"]
    m = {"cli.import_s": (statistics.median(traced["import_s_all"]), "s")}
    mains = traced.get("main_p50_s", {})
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.p50_ms"] = (mains.get(f"cli.{cmd}", 0.0) * 1e3, "ms")
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["ideals.mul.keep_ratio"] = (
        _ratio(counters.get("ideals.mul.kept", 0), counters.get("ideals.mul.formed", 0)), "ratio")
    for stem, _, _, kinds in CACHES:
        info = caches.get(stem, {"hits": 0, "misses": 0, "size": 0})
        if "hit_ratio" in kinds:
            m[f"{stem}.hit_ratio"] = (_ratio(info["hits"], info["hits"] + info["misses"]), "ratio")
        if "size" in kinds:
            m[f"{stem}.size"] = (info["size"], "count")
    rows = counters.get("newton.separate_batch.rows", 0)
    m["newton.separate_batch.rows"] = (rows, "count")
    m["newton.separate_batch.reject_ratio"] = (
        _ratio(counters.get("newton.separate_batch.rejected", 0), rows), "ratio")
    m["lp.max_convex_cover.member_ratio"] = (
        _ratio(counters.get("lp.max_convex_cover.members", 0), calls.get("lp.max_convex_cover", 0)),
        "ratio")
    m["hilbert.filtration_terms"] = (counters.get("hilbert.filtration_terms", 0), "count")
    wall = sum(traced["latencies"])
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = (_ratio(own, wall), "ratio")
    m["harness.self_share"] = (_ratio(traced["harness_s"], wall), "ratio")
    m["trace.overhead_ratio"] = (
        _ratio(traced["attempted"] / traced["elapsed"], plain["attempted"] / plain["elapsed"]),
        "ratio")
    return m


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    root = os.getcwd()
    for need in (("src", "gideal", "__init__.py"), ("tests", "samplers.py")):
        if not os.path.isfile(os.path.join(root, *need)):
            print(f"bench: run from a gideal checkout; {os.path.join(*need)} is missing",
                  file=sys.stderr)
            return 2
    env = _env(root)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.corrupt:
        base.append("--corrupt")
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                out, t0 = _worker(base, env, "setup", [], started)
                setups.append(out["setup_end"] - t0)
            run, t0 = _worker(base, env, "run", ["--seconds", str(args.seconds),
                                                 "--min-ops", str(args.min_ops)], started)
            setups.append(run["setup_end"] - t0)
            metrics = end_to_end(setups, run)
            failed, attempted = run["failed"], run["attempted"]
        else:
            extra = [] if args.trace_ops is None else ["--trace-ops", str(args.trace_ops)]
            plain, _ = _worker(base, env, "plain", extra, started)
            run, _ = _worker(base, env, "traced", extra, started)
            metrics = per_layer(plain, run)
            failed = plain["failed"] + run["failed"]
            attempted = plain["attempted"] + run["attempted"]
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    kinds = " ".join(f"{k}={v}" for k, v in sorted(run["kinds"].items()))
    print(f"workload={args.workload} seed={args.seed} inputs sha256={run['digest']} "
          f"pool={run['pool']} samples={run['attempted']}")
    print(f"ops: {kinds}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
