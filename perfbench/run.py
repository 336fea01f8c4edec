"""Benchmark of the sheafnet library: three workloads, end-to-end and
per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance|symmetry|pipeline \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # summary table

Every workload runs closed-loop on one thread in a fresh worker process
with PYTHONHASHSEED fixed, so that ``peak_rss_mb`` is the workload's own.
The worker imports ``sheafnet`` from ``src/``, generates the inputs from the
seed, makes passes over the items until ``--seconds`` are used (at least
one pass) and checks every output outside the timed spans.  Set-up time is
also measured in four more fresh processes, each with another hash seed;
their input digests must equal the worker's, which shows that the inputs
depend on the seed alone.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the worker makes untraced
passes for half the time and traced passes (see ``spans.py``) for the other
half, and reports the per-layer metrics per traced pass together with the
tracing overhead.  Before that line come one ``metric`` line per metric
and one ``record`` line with the run's context (versions, cores, seeds,
input digest, work sizes).
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("acceptance", "symmetry", "pipeline")
WORKER_HASH_SEED = 0
SETUP_HASH_SEEDS = (1, 2, 3, 4)
RUN_LIMIT_S = 170           # one launcher, all of its children included
# item percentiles only where a pass has enough items for a stable p90
# (pipeline; acceptance times run_all as one item, symmetry has 5)
PERCENTILE_MIN_ITEMS = 100
COVERAGE = {"verify.criterion_02.literal_pairs": "literal_pairs",
            "verify.criterion_02.kernel_pairs": "kernel_pairs",
            "verify.criterion_02.sampled_scans": "sampled_scans",
            "verify.criterion_03.triples": "triples"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("launch", "worker", "setup"), default="launch",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _setup(args, workdir):
    """Import the library and generate the inputs; returns the workload,
    its inputs, the input digest and the set-up time."""
    import hashlib

    t0 = perf_counter()
    src = ROOT / "src"
    if not (src / "sheafnet" / "__init__.py").is_file():
        raise SystemExit(f"no sheafnet sources under {src}")
    sys.path.insert(0, str(src))
    import sheafnet.cli  # noqa: F401  (the whole package)

    if not Path(sheafnet.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported sheafnet from {sheafnet.__file__}, not {src}")
    from workloads import WORKLOADS as DEFINED

    workload = DEFINED[args.workload]
    inputs, described = workload.generate(args.seed, workdir)
    setup_s = perf_counter() - t0
    digest = hashlib.sha256(
        json.dumps(described, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return workload, inputs, digest, setup_s


def _passes(workload, inputs, seconds):
    """Passes until `seconds` would be exceeded (at least one).  Each pass
    is checked after its span ends, and its outputs are dropped then, so
    that memory does not grow with the number of passes."""
    walls, latencies, verdicts = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        lat, out = workload.run(inputs)
        walls.append(perf_counter() - t0)
        latencies += lat
        verdicts += workload.check(inputs, out)
        elapsed = perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            return walls, latencies, verdicts, out
        del lat, out


def worker(args):
    workdir = ROOT / ".perfbench_work" / f"{args.role}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload, inputs, digest, setup_s = _setup(args, workdir)
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s, "digest": digest}))
            return 0
        record = {"workload": args.workload, "seed": args.seed,
                  "hash_seed": os.environ.get("PYTHONHASHSEED"), "digest": digest,
                  "setup_s": setup_s}
        if args.trace:
            from spans import Tracer

            plain, _, verdicts, _ = _passes(workload, inputs, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, latencies, traced_verdicts, last = _passes(
                    workload, inputs, args.seconds / 2)
            finally:
                tracer.uninstall()
            verdicts += traced_verdicts
            metrics = tracer.metrics(len(traced))
            coverage = getattr(workload, "coverage", None)
            counts = coverage(last) if coverage else {}
            metrics.update({name: (counts.get(key, 0), "count")
                            for name, key in COVERAGE.items()})
            metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain),
                                         "ratio")
            record.update(absent=tracer.absent, untraced_walls_s=plain)
            walls = traced
        else:
            walls, latencies, verdicts, _ = _passes(workload, inputs, args.seconds)
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
            if len(latencies) >= PERCENTILE_MIN_ITEMS * len(walls):
                metrics["item_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
                metrics["item_p90_ms"] = (
                    1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms")
        failures = [why for ok, why in verdicts if not ok]
        remarks = [why for ok, why in verdicts if ok and why]
        record.update(passes=len(walls), walls_s=walls, items=len(latencies),
                      attempted=len(verdicts), failed=len(failures), failures=failures[:5],
                      remarks=remarks, metrics=metrics)
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


# ---------------------------------------------------------------------------
# launcher side
# ---------------------------------------------------------------------------

def _child(args, role, hash_seed, deadline):
    """Run this script in a fresh process; returns its last stdout line
    parsed as JSON, or exits if the child failed or passed the deadline."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process for {args.workload} failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _context():
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def launch(args):
    """Set-up processes and the worker for one workload; returns the run's
    record, its metrics with sample counts, and the result line."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [] if args.trace else [_child(args, "setup", h, deadline)
                                    for h in SETUP_HASH_SEEDS]
    record = _child(args, "worker", WORKER_HASH_SEED, deadline)
    record.update(_context())
    digests = {s["digest"] for s in setups} | {record["digest"]}
    attempted = record["attempted"] + 1
    failed = record["failed"] + (len(digests) != 1)
    if len(digests) != 1:
        record["failures"].append(f"input digests differ across processes: {sorted(digests)}")
    metrics = record["metrics"]
    samples = {"failed_ratio": attempted}
    if not args.trace:
        setup_samples = [s["setup_s"] for s in setups] + [record["setup_s"]]
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        samples.update(setup_s=len(setup_samples), wall_s=record["passes"],
                       item_p50_ms=record["items"], item_p90_ms=record["items"], peak_rss_mb=1)
        record["setup_samples_s"] = setup_samples
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    record.update(setup_hash_seeds=list(SETUP_HASH_SEEDS), attempted=attempted, failed=failed,
                  run_s=perf_counter() - start)
    rows = [(name, value, unit, samples.get(name, "")) for name, (value, unit) in metrics.items()]
    # the result line carries exactly the metrics BENCHMARK.json declares
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in names}}
    return record, rows, result


def launch_one(args):
    record, rows, result = launch(args)
    for name, value, unit, n in rows:
        print(f"metric {name} {value!r} {unit}" + (f" n={n}" if n != "" else ""))
    for remark in record["remarks"]:
        print(f"remark {remark}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def launch_all(args):
    """Every workload in turn, each with its own worker; prints one table."""
    table, summary = [("workload", "metric", "value", "unit", "samples")], {}
    for name in WORKLOADS:
        record, rows, summary[name] = launch(argparse.Namespace(**{**vars(args),
                                                                  "workload": name}))
        table += [(name, *row) for row in rows]
        table += [(name, "remark", remark, "", "") for remark in record["remarks"]]
    for row in table:
        print("  ".join(str(x) for x in row))
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.role != "launch":
        return worker(args)
    if args.workload == "all":
        return launch_all(args)
    return launch_one(args)


if __name__ == "__main__":
    sys.exit(main())
