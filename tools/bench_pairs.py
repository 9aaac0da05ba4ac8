"""Paired benchmark runs of two checkouts, summarized as medians and IQRs.

    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_<n>.json \\
        [--workload NAME ...] [--pairs 10] [--seed 5001]

``--base`` and ``--change`` are two checkouts of this repository, for
example two ``git clone``s checked out at the parent commit and at the
change (the benchmark reads each side's commit from its ``.git``).  The
workloads, the run length and the end-to-end metrics with their bounds come
from the base checkout's ``BENCHMARK.json``, which the change must declare
alike.  For each workload, pair i runs ``perfbench/run.py --trace 0`` with
seed ``--seed + i`` once in each checkout, each run a fresh child process
started from that checkout's root.  The side that runs first alternates
from pair to pair, so a drift of the host's speed falls on both sides
alike.  Runs go one at a time: two benchmark processes on one small host
would time each other.

The output JSON holds, per workload and side, every run's end-to-end
metrics and its ``run.cpu_s`` (the CPU time of the timed batches), their
median and quartiles, and the deterministic counts of its first run.
``counts_repeat`` says whether every run of a side gave those counts (true
on workloads whose work does not depend on the seed), and ``counts_equal``
whether the two sides gave equal counts on every seed.  Per metric it also
gives the pairs the change won and whether the gain rule holds: the change
wins at least nine pairs in ten, and the medians differ by more than the
distance between the base's quartiles.  Each end-to-end metric also gets a
``regression`` verdict against its bound: ``worse`` when the change's
median is worse than the base's by more than the bound (relative to the
base median), else ``unresolved`` when the base's IQR is wider than the
bound times its median, else ``within``; a change whose every run beats
every base run is ``within`` whatever the spread.  A wrong answer in any
run stops the script with exit 1 and writes nothing.  After writing the
JSON, the script prints one line per workload on stderr, naming the metrics
whose gain rule holds and each metric whose regression verdict is not
``within``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900
# the gain rule reads nine wins in ten pairs
MIN_PAIRS = 10


def load_spec(root: Path) -> dict:
    """The run length, the workload names, and {metric: (better, bound)} for
    the end-to-end metrics that the checkout's BENCHMARK.json declares, with
    run.cpu_s, which has no bound."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    return {"seconds": spec["run_seconds"],
            "workloads": [w["name"] for w in spec["workloads"]],
            "metrics": dict(metrics, **{"run.cpu_s": ("lower", None)})}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, counts, outcome and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not last.get("correct"):
        raise RuntimeError(f"{root} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    report = json.loads(lines[-2])
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    metrics["run.cpu_s"] = report["run.cpu_s"]
    return {"metrics": metrics,
            "counts": report["counts"], "attempted": last["attempted"],
            "failed": last["failed"], "record": report["record"]}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list) -> dict:
    counts = [r["counts"] for r in runs]
    first = runs[0]["record"]
    return {"commit": first["commit"], "src_sha256": first["src_sha256"], "cpu": first["cpu"],
            "metrics": {name: dict(quartiles([r["metrics"][name] for r in runs]),
                                   runs=[r["metrics"][name] for r in runs])
                        for name in runs[0]["metrics"]},
            "counts": counts[0],
            "counts_repeat": all(c == counts[0] for c in counts),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs)}


def regression(b: dict, c: dict, flip: int, bound: float) -> str:
    """"within", "worse" or "unresolved" for one metric's base and change
    summaries; flip is 1 where lower is better and -1 where higher is."""
    if max(flip * y for y in c["runs"]) < min(flip * x for x in b["runs"]):
        return "within"
    if flip * (c["median"] - b["median"]) > bound * abs(b["median"]):
        return "worse"
    if b["iqr"] > bound * abs(b["median"]):
        return "unresolved"
    return "within"


def compare(base: dict, change: dict, metrics: dict) -> dict:
    """Per metric: pairs the change won (ties count for neither side), the
    relative change of the median, whether the gain rule holds, and for a
    metric with a bound the regression verdict."""
    out = {}
    for name, (sign, bound) in metrics.items():
        b, c = base["metrics"][name], change["metrics"][name]
        flip = 1 if sign == "lower" else -1
        wins = sum(1 for x, y in zip(b["runs"], c["runs"]) if flip * (x - y) > 0)
        gain = flip * (b["median"] - c["median"])
        out[name] = {"change_won": wins, "pairs": len(b["runs"]),
                     "median_change": (c["median"] - b["median"]) / b["median"]
                     if b["median"] else None,
                     "gain_resolved": 10 * wins >= 9 * len(b["runs"]) and gain > b["iqr"]}
        if bound is not None:
            out[name]["regression"] = regression(b, c, flip, bound)
    return out


def verdict_line(workload: str, compared: dict) -> str:
    """One workload's verdicts from its compare() result: the metrics whose
    gain rule holds, and each metric whose regression is not within."""
    gains = [name for name, v in compared.items() if v["gain_resolved"]]
    flagged = [f"{name} {v['regression']}" for name, v in compared.items()
               if v.get("regression", "within") != "within"]
    return (f"{workload}: gain resolved: {', '.join(gains) or 'none'}; "
            f"not within: {', '.join(flagged) or 'none'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=5001)
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = load_spec(roots["base"])
    if load_spec(roots["change"]) != spec:
        p.error("the two checkouts' BENCHMARK.json declare different benchmarks")
    unknown = set(args.workload or ()) - set(spec["workloads"])
    if unknown:
        p.error(f"unknown workload {sorted(unknown)}; BENCHMARK.json lists {spec['workloads']}")
    # stale bytecode would be recompiled on every import of one side only
    for root in roots.values():
        compileall.compile_dir(root / "src", quiet=1)
    result = {"record": {"seconds": spec["seconds"], "pairs": args.pairs,
                         "seeds": [args.seed + i for i in range(args.pairs)],
                         "python": platform.python_version(), "machine": platform.machine(),
                         "cpus": len(os.sched_getaffinity(0))},
              "workloads": {}}
    for workload in args.workload or spec["workloads"]:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(roots[side], workload, args.seed + i,
                                           spec["seconds"]))
            print(f"{workload} pair {i + 1}/{args.pairs}: wall_s "
                  f"{runs['base'][-1]['metrics']['wall_s']:.3f} -> "
                  f"{runs['change'][-1]['metrics']['wall_s']:.3f}", file=sys.stderr)
        sides = {side: summarize(r) for side, r in runs.items()}
        result["workloads"][workload] = dict(
            sides, compare=compare(sides["base"], sides["change"], spec["metrics"]),
            counts_equal=all(b["counts"] == c["counts"]
                             for b, c in zip(runs["base"], runs["change"])))
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for workload, summary in result["workloads"].items():
        print(verdict_line(workload, summary["compare"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
