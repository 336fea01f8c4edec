"""Interleaved A/B timing of one callable in two source trees of sheafnet.

Both trees are loaded into one process as separately named packages, so
that they share the interpreter, the heap and the machine state, and one
named callable of each is timed alternately for N pairs, with the cyclic
garbage collector off during each timed sample.  A sample calls the
callable the same number of times on both sides, fixed once from the
warm-up calls so that a sample lasts at least about half a second; short
callables are then timed over many calls, not at the timer's resolution.
The order swaps in every pair: pair 0 runs the base first, pair 1 the
change first, and so on.  The report gives that repeat count, each side's
median time per call, the median of the paired ratios change/base, and a
95 % interval of that median, bootstrapped over blocks of consecutive
pairs.

A side is a git revision, unpacked with ``git archive`` into a temporary
directory, or the working tree when no revision is given.  Stdlib only.

Usage, from the root of a checkout:

    python3 tools/abtime.py verify.criterion_04 --pairs 40
    python3 tools/abtime.py verify.criterion_04 --base HEAD~1
    python3 tools/abtime.py verify.criterion_04 --base HEAD --change HEAD   # A/A

The callable is called with no arguments (a criterion then runs at its
default seed, 0).  The last line of standard output is one JSON object
with every number reported.
"""

import argparse
import gc
import importlib
import importlib.util
import io
import json
import math
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 2000
SAMPLE_S = 0.5          # the least time one timed sample should take


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("callable", help="module.name inside the package, e.g. verify.criterion_04")
    p.add_argument("--base", default="HEAD", help="git revision of side A (default HEAD)")
    p.add_argument("--change", default=None,
                   help="git revision of side B (default: the working tree)")
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    return args


def unpack(rev, into):
    """The ``src`` directory of ``rev``, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if tar.returncode:
        raise SystemExit(f"git archive {rev} failed: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")
    return Path(into) / "src"


def load(name, src):
    """Import the ``sheafnet`` package under ``src`` as the package ``name``."""
    init = src / "sheafnet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def resolve(package, dotted):
    module, _, attr = dotted.rpartition(".")
    try:
        return getattr(importlib.import_module(f"{package}.{module}"), attr)
    except (ImportError, AttributeError) as exc:
        raise SystemExit(f"no callable {dotted!r} in the package: {exc}") from None


def timed(fn, repeats=1):
    """Seconds per call over ``repeats`` calls of ``fn`` in a row, with the
    cyclic garbage collector off during the calls, so that a collection set
    off by the other side's garbage does not land in this side's time."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(repeats):
            fn()
        return (perf_counter() - start) / repeats
    finally:
        gc.enable()


def bootstrap_median(values, rng, resamples=BOOTSTRAP_RESAMPLES):
    """The 2.5 % and 97.5 % quantiles of the median over circular block
    bootstrap resamples of ``values`` (Politis and Romano 1992): each
    resample joins runs of ceil(sqrt(n)) consecutive values, wrapping
    around, from random starts, cut to n values.  Neighbouring pairs share
    the machine's slow and fast phases; resampling them as runs keeps that
    dependence in the interval."""
    n = len(values)
    block = math.ceil(math.sqrt(n))
    ring = values + values[:block]
    medians = []
    for _ in range(resamples):
        sample = []
        while len(sample) < n:
            start = rng.randrange(n)
            sample += ring[start:start + block]
        medians.append(statistics.median(sample[:n]))
    medians.sort()
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            src = unpack(rev, Path(tmp) / side) if rev else ROOT / "src"
            load(f"sheafnet_ab_{side}", src)
            sides[side] = resolve(f"sheafnet_ab_{side}", args.callable)
        # warm-up: imports, first-use caches; the faster side sets the count
        warm = min(timed(fn) for fn in sides.values())
        repeats = math.ceil(SAMPLE_S / max(warm, 1e-6))
        times = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                times[side].append(timed(sides[side], repeats))
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    low, high = bootstrap_median(ratios, random.Random(0))
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    result = {
        "callable": args.callable, "pairs": args.pairs, "repeats": repeats,
        "base": args.base, "change": args.change or "working tree",
        "base_median_s": statistics.median(times["base"]),
        "change_median_s": statistics.median(times["change"]),
        "median_ratio": statistics.median(ratios), "ratio_ci95": [low, high],
        "ratio_iqr": q3 - q1, "change_faster_in_pairs": sum(r < 1 for r in ratios),
    }
    print(f"{args.callable}(), {args.pairs} pairs of {repeats} calls: "
          f"base {result['base_median_s']:.4g} s, change {result['change_median_s']:.4g} s "
          f"(medians per call)")
    print(f"paired ratio change/base: median {result['median_ratio']:.3f}, "
          f"95 % bootstrap interval [{low:.3f}, {high:.3f}], IQR {result['ratio_iqr']:.3f}; "
          f"change faster in {result['change_faster_in_pairs']}/{args.pairs} pairs")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
