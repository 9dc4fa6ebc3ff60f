"""Benchmark of ionqpt's simulate -> reconstruct -> report pipeline.

    python3 perfbench/run.py --workload paper_qpt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each round of a workload runs in a fresh interpreter (child.py), so every
round pays the same cold start and no cache carries over between rounds.
Rounds repeat until ``--seconds`` have passed, at least one.  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics: per-stage and whole-workload wall times, peak
memory, and the median of several cold starts.  With ``--trace 1`` the run
does one untraced and one traced round and reports the per-layer metrics;
``trace.overhead_s`` is the difference between their wall times.  See
README.md for what each metric should respond to.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper_qpt", "noiseless_seeds", "gate_budget")
# Cold starts per run besides the one every round makes.
EXTRA_SETUPS = 1
# A run must end within 180 s; rounds still running past this are killed.
RUN_DEADLINE_S = 175


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json at the repository root lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # One BLAS thread: the MLE's iteration count depends on the summation
    # order of its reductions, which must repeat from run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QPT_THREADS", None)
    return env


def run_child(workload: str, seed: int, workdir: str, trace: int,
              deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    def med(key):
        return statistics.median(key(r) for r in rounds)

    return {
        "setup_s": statistics.median(setups),
        "simulate_s": med(lambda r: r["stages"]["simulate"]),
        "reconstruct_s": med(lambda r: r["stages"]["reconstruct"]),
        "report_s": med(lambda r: r["stages"]["report"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    workdir = os.path.join(OUT, workload)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rounds = []
    if trace:
        for t in (0, 1):
            rounds.append(run_child(workload, seed,
                                    fresh_dir(os.path.join(workdir, str(t))),
                                    t, deadline))
        metrics = {k: v for k, v in rounds[1]["setup"].items()
                   if k != "setup_s"}
        metrics.update(rounds[1]["layers"])
        metrics.setdefault("recon.bootstrap_thread_speedup", 0.0)
        metrics["trace.overhead_s"] = (rounds[1]["wall_s"]
                                       - rounds[0]["wall_s"])
    else:
        while not rounds or time.monotonic() - start < seconds:
            rounds.append(run_child(workload, seed,
                                    fresh_dir(os.path.join(workdir, "0")), 0,
                                    deadline))
        setups = [r["setup"]["setup_s"] for r in rounds]
        for _ in range(EXTRA_SETUPS):
            setups.append(run_child(workload, seed, workdir, 0, deadline,
                                    setup_only=True)["setup"]["setup_s"])
        metrics = end_to_end(rounds, setups)
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ionqpt", "cli.py")):
        print(f"error: no ionqpt sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  units)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"{name}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for key, m in result["metrics"].items():
                print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
