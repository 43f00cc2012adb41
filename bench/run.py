"""Benchmark for integra: whole command runs, timed in a fresh process.

    python3 bench/run.py --workload {claims,query,census} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It makes the workload's inputs from the
seed, times set-up (interpreter start-up, ``import integra`` and any group
construction ahead of the first op) in several fresh processes, then runs
whole rounds of the workload's ops in one fresh single-threaded worker
process for S seconds and checks every output against the exact reference
route in ``reference.py``. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
SETUP_SAMPLES = 7  # set-up times per run, the worker's own included
RUN_TIMEOUT = 170.0  # seconds for all worker processes of one run


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("claims", "query", "census"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _spawn(plan_path: str, result_path: str | None, deadline: float) -> float:
    """Run one worker; return its set-up time in reference seconds.

    Set-up is interpreter start-up plus the worker's own set-up, without the
    calibration kernels it times in between; the kernels give the speed.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), plan_path]
    if result_path is not None:
        cmd.append(result_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if result_path is None:
        rec = json.loads(proc.stdout)
    else:
        with open(result_path) as fh:
            rec = json.load(fh)["setup"]
    wall = (rec["entered"] - start) + (rec["ready"] - rec["resumed"])
    return wall * speed.REFERENCE_KERNEL_S / statistics.median(rec["kernels"])


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "integra", "__init__.py")):
        print(f"error: no integra sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT
    sys.path.insert(0, SRC)
    work = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str, deadline: float) -> int:
    if args.workload == "claims":
        plan, expect = inputs.claims_inputs(args.seed)
    elif args.workload == "query":
        plan, expect = inputs.query_inputs(args.seed)
    else:
        plan, expect = inputs.census_inputs(args.seed, work)
    trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.csv")
    plan.update(src=SRC, seconds=args.seconds, trace=bool(args.trace), trace_path=trace_path)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    setups = [_spawn(plan_path, None, deadline) for _ in range(SETUP_SAMPLES - 1)]
    result_path = os.path.join(work, "result.json")
    setups.append(_spawn(plan_path, result_path, deadline))
    with open(result_path) as fh:
        result = json.load(fh)

    check = getattr(checks, f"check_{args.workload}")
    attempted = failed = 0
    verdicts: dict = {}
    latencies: dict[str, list[float]] = {}
    for rnd in result["rounds"]:
        for i, (code, latency, out, err) in enumerate(rnd["ops"]):
            key = (i, code, out, err)
            if key not in verdicts:
                try:
                    verdicts[key] = check(expect, i, code, out, err)
                except (ValueError, KeyError, IndexError, TypeError, AttributeError):
                    verdicts[key] = (False, "malformed")
                if not verdicts[key][0]:
                    print(f"failed op {i} {plan['ops'][i]}: exit {code}: {err.strip()[:300]}",
                          file=sys.stderr)
            ok, kind = verdicts[key]
            attempted += 1
            failed += not ok
            if not rnd["traced"]:
                latencies.setdefault(kind, []).append(latency * 1000.0)
    untraced = [r["wall"] for r in result["rounds"] if not r["traced"]]
    traced = [r["wall"] for r in result["rounds"] if r["traced"]]
    stdout_bytes = [sum(len(op[2].encode()) for op in r["ops"]) for r in result["rounds"] if r["traced"]]

    walls = " ".join(f"{'T' if r['traced'] else 'U'}{r['wall']:.3f}/{r['raw_wall']:.3f}"
                     for r in result["rounds"])
    print(f"{args.workload}: rounds (reference/wall s) {walls}; "
          f"set-up {' '.join(f'{x:.3f}' for x in setups)}",
          file=sys.stderr)
    for kind, vals in sorted(latencies.items()):
        # A median only over one kind of query; other workloads mix op sizes.
        p50 = f", p50 {statistics.median(vals):.1f} ms" if args.workload == "query" else ""
        print(f"{args.workload}: {kind}: {len(vals)} ops{p50}", file=sys.stderr)
    if args.trace:
        layers = result["layers"]
        wall_u, wall_t = statistics.median(untraced), statistics.median(traced)
        layers.update({
            "cli.stdout_bytes": statistics.mean(stdout_bytes),
            "trace.untraced_wall_s": wall_u,
            "trace.traced_wall_s": wall_t,
            "trace.overhead_s": wall_t - wall_u,
            "query.int_p50_ms": _median(latencies.get("integral")),
            "query.int_ops": len(latencies.get("integral", ())),
            "query.nonint_p50_ms": _median(latencies.get("non-integral")),
            "query.nonint_ops": len(latencies.get("non-integral", ())),
        })
        if result["absent"]:
            print(f"absent from the program: {', '.join(result['absent'])}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_set")):
        return "ratio"
    return "count"


def _median(vals) -> float:
    return statistics.median(vals) if vals else 0.0


if __name__ == "__main__":
    sys.exit(main())
