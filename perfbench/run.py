"""ordlib's benchmark: seeded closed-loop workloads, end-to-end and per-layer
metrics, and a correctness gate.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports ordlib from ``src/``.  One
process, one caller: each operation is issued after the previous one
returns.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (it runs the untraced run in a child process first, to get
the tracing overhead).  Human-readable lines come first; the last line of
stdout is one JSON object.  A wrong answer exits 1 with no metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import battery  # noqa: E402
import braid_words  # noqa: E402
import cone_search  # noqa: E402
import exact_mix  # noqa: E402
from spans import Tracer, untraced  # noqa: E402

WORKLOADS = {w.NAME: w for w in (battery, braid_words, exact_mix, cone_search)}
ORDLIB_MODULES = ("quadfield", "lattice", "magnus", "braid", "extensions", "lospace",
                  "core", "verify", "cli")
SETUP_PROBES = 5
# Keeps a runaway computation from taking the host's memory with it; an
# operation that hits it fails with MemoryError.
ADDRESS_SPACE_LIMIT = 4 << 30

SUITES = ("cone-axioms", "least-elements", "handle-robustness", "braid-witnesses",
          "klein-four", "klein-kernel", "matrix-eigen", "scalar-kernel", "free-probes",
          "extension-pipeline", "vlo-commensuration")

END_TO_END = (("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _site(name, extra=(), p50=False):
    out = [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.fail", "count")]
    if p50:
        out.append((f"{name}.p50_us", "us"))
    return out + list(extra)


# Every per-layer metric, reported on every workload (0 where a workload
# does not reach the site).  BENCHMARK.json lists the same names.
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"verify.{s}.busy_s", "s") for s in SUITES]
    + _site("extensions.g_multiply", p50=True) + _site("extensions.g_sign", p50=True)
    + _site("extensions.g_invert") + _site("extensions.k_sign")
    + _site("extensions.k_multiply") + _site("extensions.k_invert")
    + _site("braid.dehornoy_sign", p50=True)
    + [(f"braid.dehornoy_sign.B{n}.{b}.p50_ms", "ms")
       for n in (4, 10) for b in ("short", "mid", "long")]
    + _site("braid.ordering_sign") + _site("braid.compare")
    + _site("braid.handle_reduce", [("braid.handle_reduce.out_letters", "count")])
    + _site("braid.is_identity") + _site("braid.same")
    + _site("core.ball_data", [("core.ball_data.elements", "count")])
    + _site("core.product_table", [("core.product_table.cells", "count")])
    + [(f"core.product_table.{g}.busy_s", "s") for g in ("klein", "z2", "z3", "f2", "b3", "b4")]
    + _site("lospace.enumerate", [("lospace.enumerate.cones", "count")])
    + _site("lospace.extend", [("lospace.extend.completions", "count"),
                               ("lospace.extend.hit_ratio", "ratio"),
                               ("lospace.extend.hit_base", "count")])
    + [m for d in (2, 3, 5) for m in _site(f"lattice.form_sign.d{d}", p50=True)]
    + _site("lattice.eigen_orderings") + _site("lattice.preserves") + _site("lattice.vlo_equal")
    + _site("lattice.comm_acts_trivially", p50=True)
    + _site("quadfield.sign", p50=True)
    + _site("magnus.magnus_sign", [("magnus.magnus_sign.p99_ms", "ms")], p50=True)
    + _site("magnus.closure_lex_sign")
    + [("magnus.long_probe.attempted", "count"), ("magnus.long_probe.fail", "count")]
    + [("run.cpu_s", "s"), ("run.trace_overhead_s", "s"), ("run.harness_s", "s"),
       ("run.error_rate", "ratio")]
)


def import_ordlib():
    """Import every layer; returns a namespace of the modules."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"ordlib.{name}") for name in ORDLIB_MODULES}
    return argparse.Namespace(**mods)


def timed_setup(workload):
    """(import_s, setup_s, holdings): import and the workload's set-up."""
    t0 = time.perf_counter()
    m = import_ordlib()
    t1 = time.perf_counter()
    h = workload.setup(m)
    return t1 - t0, time.perf_counter() - t0, h


def child(args: list[str]) -> dict:
    """Run this script in a fresh process and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


class Runner:
    """Issues operations and classifies their outcomes."""

    def __init__(self, m, call):
        self.call = call
        core = m.core
        self.failures = (core.BudgetExceededError, core.SizeLimitError,
                         core.InconclusiveTruncationError)
        self.failed: list[tuple[str, str]] = []
        self._refusals: tuple = ()

    def is_failure(self, err) -> bool:
        """ordlib's budget, size and truncation errors, and every exception
        that is neither ordlib's own nor a documented refusal of the current
        operation (RecursionError, MemoryError, ...)."""
        if isinstance(err, self._refusals):
            return False
        ordlib_error = type(err).__module__.startswith("ordlib.")
        return isinstance(err, self.failures) or not ordlib_error

    def __call__(self, op):
        """(failed, output).  Documented refusals and ordlib's own answer
        errors come back as ("refused", class name) for the check."""
        self._refusals = op.refusals
        try:
            return False, op.fn(self.call, *op.args)
        except op.refusals as err:
            return False, ("refused", type(err).__name__)
        except Exception as err:
            if not self.is_failure(err):
                return False, ("refused", type(err).__name__)
            self.failed.append((op.kind, type(err).__name__))
            return True, None


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (p99 from
    1000 operations on).  Below 20 operations no such percentile is a tail,
    and the maximum (p100) is reported instead."""
    if n >= 1000:
        return 99.0
    if n < 20:
        return 100.0
    return float(int(100 * (n - 10) / n))


def percentile(sorted_values, pct: float) -> float:
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(round(pct / 100 * len(sorted_values))) - 1))
    return sorted_values[k]


def run_record(args, n_batches) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordlib").glob("*.py")):
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "batches": n_batches, "nproc": os.cpu_count(),
            "cpu": model, "python": platform.python_version(), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(stats, counts, extras, untraced_wall, traced_wall, cpu_s, error_rate):
    values = {name: 0.0 for name, _ in PER_LAYER}
    for site, s in stats.items():
        values[f"{site}.calls"] = s["calls"]
        values[f"{site}.busy_s"] = s["busy_s"]
        values[f"{site}.fail"] = s["fail"]
        if s["durations_s"]:
            values[f"{site}.p50_us"] = statistics.median(s["durations_s"]) * 1e6
        if site.startswith("core.product_table."):
            for key in ("calls", "busy_s", "fail"):
                values[f"core.product_table.{key}"] += s[key]
    mag = sorted(stats.get("magnus.magnus_sign", {}).get("durations_s", []))
    values["magnus.magnus_sign.p99_ms"] = percentile(mag, 99.0) * 1e3
    values.update(counts)
    values.update(extras)
    if counts.get("lospace.extend.hit_base"):
        values["lospace.extend.hit_ratio"] = (counts["lospace.extend.hits"]
                                              / counts["lospace.extend.hit_base"])
    values["run.cpu_s"] = cpu_s
    values["run.trace_overhead_s"] = traced_wall - untraced_wall
    values["run.harness_s"] = stats.get("run.op", {}).get("busy_s", 0.0)
    values["run.error_rate"] = error_rate
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "ordlib" / "__init__.py").is_file():
        print(f"error: no ordlib sources under {SRC}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

    if args.setup_probe:
        import_s, setup_s, _ = timed_setup(workload)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    try:
        untraced_run = child(base + ["--trace", "0"]) if args.trace else None
    except RuntimeError as err:
        print(f"error: the untraced run failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    probes = [child(base + ["--setup-probe"]) for _ in range(SETUP_PROBES)]

    import_s, setup_s, h = timed_setup(workload)
    setup_times = [p["setup_s"] for p in probes] + [setup_s]
    import_times = [p["import_s"] for p in probes] + [import_s]
    n_batches = max(1, round(args.seconds / workload.BATCH_SECONDS))
    record = run_record(args, n_batches)
    ref = load_reference()

    runner = Runner(h["m"], untraced)
    tracer = None
    if args.trace:
        tracer = runner.call = Tracer(runner.is_failure)
        h["wrap"] = tracer.wrap
    latency_key = getattr(workload, "latency_key", lambda op: None)
    lat: list[float] = []
    keyed: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    errors: list[str] = []
    counts: dict = {}
    batch_walls = []
    cpu_s = 0.0
    for ops in workload.batches(args.seed, n_batches, h):
        # inputs are made before the clock starts and checked after it stops;
        # freezing them keeps the collector from rescanning them while timed
        gc.collect()
        gc.freeze()
        done = []
        cpu0 = time.process_time()
        tb = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.op_id = len(lat) + len(done)
                _, out = tracer("run.op", runner, op)
            else:
                _, out = runner(op)
            done.append((op, out, time.perf_counter() - t0))
        batch_walls.append(time.perf_counter() - tb)
        cpu_s += time.process_time() - cpu0
        gc.unfreeze()
        batch_errors, batch_counts = workload.check(done, h, ref)
        errors += batch_errors
        for key, value in batch_counts.items():
            counts[key] = counts.get(key, 0) + value
        for op, _, t in done:
            lat.append(t)
            by_kind.setdefault(op.kind, []).append(t)
            key = latency_key(op)
            if key is not None:
                keyed.setdefault(key, []).append(t)
        del done, ops
    wall_s = sum(batch_walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if hasattr(workload, "final_check"):
        errors += workload.final_check(h, ref)
    if hasattr(workload, "long_probe"):
        counts.update(workload.long_probe(args.seed, h, Runner(h["m"], untraced)))
    attempted, failed = len(lat), len(runner.failed)
    if errors:
        for line in errors[:20]:
            print(f"wrong: {line}", file=sys.stderr)
        print(json.dumps({"record": record, "errors": len(errors)}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    lat.sort()
    tail_pct = tail_percentile(len(lat))
    e2e = {"wall_s": wall_s, "ops_per_s": attempted / wall_s,
           "op_p50_ms": statistics.median(lat) * 1e3,
           "op_tail_ms": percentile(lat, tail_pct) * 1e3,
           "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
    report = {"record": record, "end_to_end": e2e,
              "op_tail_pct": tail_pct, "op_samples": attempted,
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "failed_ops": runner.failed[:20], "run.cpu_s": cpu_s,
              "batch_wall_s": batch_walls, "setup_samples_s": setup_times,
              "import_s": statistics.median(import_times), "counts": counts,
              "p50_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()}}
    units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    for name, value in e2e.items():
        print(f"{name:>44} {value:16.6f} {units[name]}")
    if tracer is not None:
        untraced_wall = untraced_run["metrics"]["wall_s"]["value"]
        extras = {key: statistics.median(v) * 1e3 for key, v in keyed.items()}
        extras["cli.import_s"] = statistics.median(import_times)
        stats = tracer.site_stats()
        layer = layer_metrics(stats, counts, extras, untraced_wall, wall_s, cpu_s,
                              failed / attempted)
        lunits = dict(PER_LAYER)
        metrics = {k: {"value": layer[k], "unit": lunits[k]} for k in lunits}
        report["trace"] = {"untraced_wall_s": untraced_wall, "traced_wall_s": wall_s,
                           "span_self_sum_s": sum(s["busy_s"] for s in stats.values()),
                           "spans": len(tracer.spans)}
        if hasattr(workload, "PARTS"):
            busy = {part: sum(s["busy_s"] for site, s in stats.items()
                              if site.startswith(prefixes))
                    for part, prefixes in workload.PARTS.items()}
            report["trace"]["part_share"] = {k: v / sum(busy.values()) for k, v in busy.items()}
        for name, unit in PER_LAYER:
            print(f"{name:>44} {layer[name]:16.6f} {unit}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
