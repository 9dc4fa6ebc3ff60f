"""One round of one workload in a fresh interpreter; run.py starts it.

The round first times the cold start (importing ``ionqpt.cli``, building the
plan and the forward model), then runs the workload's steps, then checks the
outputs.  It prints one JSON record on its last line of standard output.
With ``--setup-only`` it stops after the cold start.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

STAGES = ("simulate", "reconstruct", "report")


def cold_start() -> dict:
    t0 = time.perf_counter()
    import ionqpt.cli  # noqa: F401
    t1 = time.perf_counter()
    from ionqpt.process import identity_chi
    from ionqpt.protocol import build_plan, predict_p2
    plan = build_plan()
    t2 = time.perf_counter()
    predict_p2(identity_chi(), plan)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "cli.import_s": t1 - t0,
            "protocol.build_plan_ms": 1e3 * (t2 - t1),
            "protocol.design_cold_ms": 1e3 * (t3 - t2)}


def run_once(step) -> tuple[int, str]:
    """Run one step with its output captured; returns (exit code, output)."""
    from ionqpt.cli import main

    os.environ["QPT_THREADS"] = str(step.threads)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if step.call is not None:
                step.call()
                rc = 0
            else:
                rc = main(step.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup = cold_start()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Result

    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload]
    steps = workload.steps(args.seed, args.workdir, nproc)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # Repeated steps rerun after the whole workload has run once, so that
    # their samples lie tens of seconds apart and a burst of load on the
    # machine moves few of them.  A traced round records only the first
    # pass: its counts describe one pass, its times the traced pass's.
    times: dict[str, list[float]] = {s.label: [] for s in steps}
    first: dict[str, tuple[int, str]] = {}
    attempted = failed = 0
    for i in range(max(s.repeat for s in steps)):
        if tracer:
            tracer.paused = i > 0
        for step in steps:
            if i >= step.repeat:
                continue
            span = (tracer.span(f"{step.stage}.{step.label}") if tracer
                    else contextlib.nullcontext())
            with span:
                t0 = time.perf_counter()
                rc, out = run_once(step)
                times[step.label].append(time.perf_counter() - t0)
            first.setdefault(step.label, (rc, out))
            if step.argv is not None:
                attempted += 1
                failed += rc != 0
            if rc != 0:
                print(f"[{args.workload}] {step.label} exited {rc}:\n{out}",
                      file=sys.stderr)

    stage_s = dict.fromkeys(STAGES, 0.0)
    results = {}
    for step in steps:
        ts = times[step.label]
        seconds = ts[0] if tracer else statistics.median(ts)
        results[step.label] = Result(*first[step.label], seconds)
        if step.stage in stage_s:
            stage_s[step.stage] += seconds
    wall_s = sum(r.seconds for r in results.values())

    record = {"setup": setup, "stages": stage_s, "wall_s": wall_s,
              "attempted": attempted, "failed": failed}
    if tracer:
        tracer.uninstall()
        record["layers"] = layer_metrics(tracer.spans)
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
        threaded = [s for s in steps if s.threads > 1]
        if threaded:
            record["layers"]["recon.bootstrap_thread_speedup"] = \
                thread_speedup(threaded[0], results)
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)

    try:
        failures = workload.check(results, args.seed, args.workdir)
    except (OSError, ValueError, KeyError) as exc:
        failures = [f"outputs could not be checked: {exc!r}"]
    for msg in failures:
        print(f"[{args.workload}] check failed: {msg}", file=sys.stderr)
    record["correct"] = not failures
    print(json.dumps(record))
    return 0


def thread_speedup(step, results) -> float:
    """The threaded step's time at QPT_THREADS=1 over its time as run."""
    from dataclasses import replace

    t0 = time.perf_counter()
    run_once(replace(step, threads=1))
    return (time.perf_counter() - t0) / results[step.label].seconds


if __name__ == "__main__":
    sys.exit(main())
