"""Runs one workload's ops in a fresh, single-threaded process.

    python3 bench/worker.py PLAN.json [RESULT.json]

The plan names the program's source directory, the group specs to build
before the first op, the ops (argument lists for ``integra.cli.main``), the
run length and whether to trace. The worker notes its set-up times on the
system-wide monotonic clock, with the calibration kernel timed around them,
then runs whole rounds of the ops with stdout and stderr captured until the
run length is used up. It writes every op's exit code, latency in reference
seconds and output, and each round's reference and wall time, to
RESULT.json. Without RESULT.json it prints its set-up record and exits. In
a traced run, rounds alternate untraced and traced, starting untraced; only
traced rounds carry wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import speed

SETUP_KERNELS = 3


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(main, argv, clock):
    out, err = io.StringIO(), io.StringIO()
    start = clock.now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback from the program is a failed op
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return [code, clock.now() - start, out.getvalue(), err.getvalue()]


def main(plan_path: str, result_path: str | None) -> int:
    entered = _monotonic()
    speed.prepare()
    kernels = [speed.kernel_seconds() for _ in range(SETUP_KERNELS)]
    resumed = _monotonic()
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import integra.cli
    from integra.groups import construct

    for spec in plan["setup_specs"]:
        construct(spec)
    ready = _monotonic()
    kernels += [speed.kernel_seconds() for _ in range(SETUP_KERNELS)]
    setup = {"entered": entered, "resumed": resumed, "ready": ready, "kernels": kernels}
    if result_path is None:
        print(json.dumps(setup))
        return 0

    ops = plan["ops"]
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    clock = speed.SpeedClock()
    clock.start()
    rounds = []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        start, wall = clock.now(), time.perf_counter()
        results = [_run_op(integra.cli.main, argv, clock) for argv in ops]
        rnd = {"traced": traced, "wall": clock.now() - start,
               "raw_wall": time.perf_counter() - wall, "ops": results}
        if traced:
            tracer.remove()
        rounds.append(rnd)
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            break
    clock.stop()
    result = {
        "setup": setup,
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced_rounds = sum(1 for r in rounds if r["traced"])
        result["layers"] = tracer.layer_report(traced_rounds)
        result["absent"] = tracer.absent
        tracer.write(plan["trace_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print("usage: worker.py PLAN.json [RESULT.json]", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else None))
