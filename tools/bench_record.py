"""Write a BENCH_*.json record: the benchmark on a parent and a change commit.

Each commit's committed files are exported with ``git archive`` into a fresh
directory, and ``perfbench/run.py`` runs there (untraced, for its own run
length) for every workload. The two commits alternate over 10 pairs, with one
workload seed per pair, and the one that goes first alternates too. For every
workload and end-to-end metric the record holds each commit's median and
quartiles over the pairs, the change/parent ratio of the medians and the
number of pairs the change won. It also holds the failed share of commands,
the machine, both git SHAs and the thread variables of the benchmark's
rounds. The Tier-1 suite runs four times, in the order parent, change,
change, parent, so that a drift of the machine's speed during the record
weighs on both commits alike; the record holds both runs of each commit,
each with its wall time and the duration of each test in
``tests/test_acceptance.py`` (its setup, call and teardown, as pytest's
JUnit XML reports it), so a record shows which criterion moved.

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD --seed 501 \\
        -o BENCH_<n>.json
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
TIER1_ORDER = ("parent", "change", "change", "parent")


def export(rev: str, root: str) -> tuple[str, str]:
    sha = subprocess.run(["git", "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    path = os.path.join(root, sha[:12])
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", sha], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return sha, path


def run_benchmark(path: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=path, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def round_threads(path: str) -> dict:
    """The thread variables perfbench sets for the rounds it starts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(path, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    env = module.child_env()
    return {v: env.get(v) for v in THREAD_VARS}


def run_tier1(path: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    junit = os.path.join(path, "tier1-junit.xml")
    start = time.perf_counter()
    proc = subprocess.run(TIER1 + ["--junitxml", junit], cwd=path, env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    acceptance = {}
    if os.path.exists(junit):
        for case in ET.parse(junit).iter("testcase"):
            if case.get("classname") == "tests.test_acceptance":
                acceptance[case.get("name")] = round(float(case.get("time")),
                                                     2)
    return {"wall_s": round(wall_s, 1),
            "summary": lines[-1] if lines else "", "exit_code": proc.returncode,
            "acceptance_s": acceptance}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy
    return {"platform": platform.platform(), "cpu": model,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision")
    ap.add_argument("--seed", type=int, default=501,
                    help="workload seed of the first pair")
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as root:
        commits = {name: export(rev, root) for name, rev in
                   (("parent", args.parent), ("change", args.change))}
        with open(os.path.join(commits["change"][1], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seeds = [args.seed + i for i in range(PAIRS)]
        workloads = {}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                for name in order:
                    result = run_benchmark(commits[name][1], workload, seed)
                    runs[name].append(result)
                    print(f"{workload} seed {seed} {name}: " + ", ".join(
                        f"{k} {v['value']:.3f}"
                        for k, v in result["metrics"].items()), flush=True)
            metrics = {}
            for spec in bench["end_to_end"]:
                key = spec["name"]
                vals = {n: [r["metrics"][key]["value"] for r in runs[n]]
                        for n in runs}
                sign = 1 if spec["better"] == "lower" else -1
                metrics[key] = {
                    "unit": spec["unit"], "better": spec["better"],
                    "parent": spread(vals["parent"]),
                    "change": spread(vals["change"]),
                    "ratio": (statistics.median(vals["change"])
                              / statistics.median(vals["parent"])),
                    "change_wins": sum(sign * (c - p) < 0 for p, c in
                                       zip(vals["parent"], vals["change"])),
                }
            workloads[workload] = {
                "metrics": metrics,
                "failed": {n: [f"{r['failed']}/{r['attempted']}"
                               for r in runs[n]] for n in runs},
                "correct": {n: all(r["correct"] for r in runs[n])
                            for n in runs},
            }
        record = {
            "commits": {n: sha for n, (sha, _) in commits.items()},
            "machine": machine(),
            "threads": {
                "environment": {v: os.environ.get(v) for v in THREAD_VARS},
                "benchmark_rounds": round_threads(commits["change"][1]),
            },
            "benchmark": {"command": "python3 perfbench/run.py --workload W "
                                     "--seed S --trace 0",
                          "pairs": PAIRS, "seeds": seeds,
                          "workloads": workloads},
            "tier1": {"command": "PYTHONPATH=src " + " ".join(
                ["python"] + TIER1[1:] + ["--junitxml", "tier1-junit.xml"])},
        }
        record["tier1"].update(parent=[], change=[])
        for name in TIER1_ORDER:
            run = run_tier1(commits[name][1])
            record["tier1"][name].append(run)
            print(f"tier1 {name}: {run}", flush=True)
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
