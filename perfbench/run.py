#!/usr/bin/env python3
"""polartree benchmark: time to a verified verdict, one pair at a time.

    python3 perfbench/run.py --workload corpus|growing|ramified \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
single-threaded process runs a closed loop: each pair is taken to a finished
verdict, ``analyze_pair(f, g)`` then ``run_document`` and ``render_run``
(the work of ``polartree verify [--json]`` after start-up), before the next
pair starts.  Every pair is checked: it must not raise, must verify and
give a complete factor partition, and the sha256 of its canonical JSON
document plus rendered text must equal the golden digest in
``golden.json``.

``--trace 0`` measures the end-to-end metrics over whole passes of the
workload's pool; ``--trace 1`` runs one pool set untraced and then traced,
repeatedly, and reports per-layer metrics.
The last line of standard output is one JSON object; the metrics it holds
are the ones BENCHMARK.json lists.  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import quantile  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_BEYOND_P90 = 10    # samples that must lie beyond the 90th percentile
HARD_STOP_S = 140.0    # wall seconds; a slow program still ends within 180 s
SETUP_REPEATS = 21
SETUP_COMMAND = ("-m", "polartree.cli", "verify", "--fixture", "sec2")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing package, files or metric)."""


def load_package():
    if not (SRC / "polartree" / "__init__.py").is_file():
        raise BenchmarkError(f"no polartree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polartree
    import polartree.pipeline  # noqa: F401  (module objects the tracer patches)
    return polartree


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchmarkError(f"cannot read {path}: {e}")


def output_digest(doc: dict, text: str) -> str:
    canonical = json.dumps(doc, indent=1, sort_keys=True) + "\n" + text
    return hashlib.sha256(canonical.encode()).hexdigest()


class Checker:
    """Times and checks pairs; keeps the failure tally of the run."""

    def __init__(self, package, golden: dict):
        self.pipeline = package.pipeline
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def run_pair(self, pair, tracer=None):
        """(seconds, output digest, Run) for one pair taken to its verdict;
        digest and Run are None when the pair raised."""
        pid, f, g = pair
        self.attempted += 1
        # start every pair from a collected heap, as a fresh CLI process
        # does, so a collection owed to earlier pairs is not charged to it
        gc.collect()
        t0 = perf_counter()
        try:
            if tracer is None:
                run, doc, text = self._verdict(f, g)
            else:
                run, doc, text = tracer.call(pid, self._verdict, f, g)
        except Exception as e:  # a raising pair is a failed pair; go on
            self.fail(pid, f"raised {type(e).__name__}: {e}")
            return perf_counter() - t0, None, None
        seconds = perf_counter() - t0
        digest = output_digest(doc, text)
        expected = self.golden.get(pid)
        if not run.verification.passed:
            self.fail(pid, "verification failed")
        elif not run.factors.complete:
            self.fail(pid, "factor partition incomplete")
        elif expected is None or expected[0] != workloads.pair_digest(f, g):
            self.fail(pid, "input differs from the recorded golden input")
        elif expected[1] != digest:
            self.fail(pid, "output digest differs from the golden digest")
        return seconds, digest, run

    def _verdict(self, f, g):
        pl = self.pipeline
        run = pl.analyze_pair(f, g)
        return run, pl.run_document(run), pl.render_run(run)

    def fail(self, pid: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {pid}: {why}", file=sys.stderr)


def setup_seconds() -> float:
    """Median rescaled wall time of a fresh interpreter running the CLI on
    sec2."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *SETUP_COMMAND]
    times = []
    before = speed.probe()
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        elapsed = perf_counter() - t0
        after = speed.probe()
        if done.returncode != 0 or "verification: PASS" not in done.stdout:
            raise BenchmarkError(f"set-up command failed: {done.stderr.strip()}")
        if i:  # the first call may compile bytecode; users pay that once
            times.append(elapsed / speed.slowdown(before, after))
        before = after
    return statistics.median(times)


def beyond_p90(samples: list[float]) -> int:
    if len(samples) < 2:
        return 0
    p90 = quantile.harrell_davis(samples, 0.9)
    return sum(1 for s in samples if s > p90)


def measure(workload: str, seed: int, seconds: float, package, golden) -> dict:
    """Whole passes over the workload's pool until ``seconds`` of rescaled
    time (see speed.py) are spent and MIN_BEYOND_P90 samples lie beyond
    the 90th percentile."""
    checker = Checker(package, golden)
    setup_s = setup_seconds()
    for pair in workloads.traced_set(workload, seed, package.FIXTURES):
        checker.run_pair(pair)  # warm-up: field caches, first imports
    pool = workloads.pool_pairs(workload, package.FIXTURES)
    samples: list[float] = []    # rescaled seconds per verdict
    busy = 0.0                   # rescaled seconds of the whole loop
    passes = 0
    start = perf_counter()
    before = speed.probe()
    while busy < seconds or beyond_p90(samples) < MIN_BEYOND_P90:
        for pair in workloads.pass_order(pool, seed, passes):
            if perf_counter() - start >= HARD_STOP_S:
                break
            t0 = perf_counter()
            seconds_to_verdict = checker.run_pair(pair)[0]
            stretch = perf_counter() - t0
            after = speed.probe()
            slow = speed.slowdown(before, after)
            samples.append(seconds_to_verdict / slow)
            busy += stretch / slow
            before = after
        else:
            passes += 1
            continue
        print(f"warning: stopped at the {HARD_STOP_S:.0f} s hard stop", file=sys.stderr)
        break
    wall = perf_counter() - start
    p90 = quantile.harrell_davis(samples, 0.9)
    beyond = beyond_p90(samples)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{workload} seed {seed}: {len(samples)} pairs in {passes} pool passes, "
          f"{wall:.2f} s wall, {busy:.2f} s rescaled; {beyond} samples beyond p90; "
          f"failed {checker.failed} of {checker.attempted} attempted")
    values = {
        "setup_s": setup_s,
        "verdict_p50_s": quantile.harrell_davis(samples, 0.5),
        "verdict_p90_s": p90,
        "pairs_per_s": len(samples) / busy,
        "peak_rss_mb": rss_kib / 1024,
    }
    return {"checker": checker, "values": values}


def measure_traced(workload: str, seed: int, seconds: float, package, golden) -> dict:
    """Alternate untraced and traced passes over the set the seed picks."""
    checker = Checker(package, golden)
    pairs = workloads.traced_set(workload, seed, package.FIXTURES)
    for pair in pairs:  # warm-up
        checker.run_pair(pair)
    ratios: list[float] = []
    tracer = tracing.Tracer(package)
    start = perf_counter()
    runs: list = []
    while not ratios or perf_counter() - start < seconds:
        t0 = perf_counter()
        plain = [checker.run_pair(pair) for pair in pairs]
        t1 = perf_counter()
        runs = runs or [r for _s, _d, r in plain if r is not None]
        tracer.install()
        try:
            traced = [checker.run_pair(pair, tracer)[1] for pair in pairs]
        finally:
            tracer.uninstall()
        t2 = perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
        for pair, a, b in zip(pairs, plain, traced):
            if a[1] != b:
                checker.fail(pair[0], "traced output differs from untraced output")
    passes = len(ratios)
    values = tracing.summarise(tracer.spans, tracer.counts)
    for name, value in values.items():
        if not name.endswith(("_ratio", "_share")):
            values[name] = value / passes
    values["trace_overhead_ratio"] = statistics.median(ratios)
    values["treemodel.bars"] = sum(len(r.tree.finite_bars()) for r in runs)
    values["jacoracle.records"] = sum(len(r.oracle.records) for r in runs)
    values["jacoracle.unresolved_bundles"] = sum(
        1 for r in runs for rec in r.oracle.records if rec.branch_exp is not None)
    values["jacoracle.checks"] = sum(len(r.verification.comparisons) for r in runs)
    print(f"{workload} seed {seed}: {len(pairs)} pairs per pass, {passes} traced passes; "
          f"failed {checker.failed} of {checker.attempted} attempted")
    rows = tracing.per_pair_rows(tracer.spans)
    print(f"{'pair':16s} {'total_s':>9s} {'mult_split_s':>12s} {'expand_J_s':>10s} "
          f"{'verify_s':>9s} {'jacobian':>8s}   (per pass)")
    for pid in sorted(rows):
        r = rows[pid]
        print(f"{pid:16s} {r['total'] / passes:9.4f} {r['multiplicity_split'] / passes:12.4f} "
              f"{r['expand_jacobian'] / passes:10.4f} {r['verify'] / passes:9.4f} "
              f"{r['jacobian_calls'] // passes:8d}")
    return {"checker": checker, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one core for this process and its set-up children, so the speed probes
    # measure the core that does the timed work
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        golden = load_json(HERE / "golden.json").get(args.workload)
        if not golden:
            raise BenchmarkError(f"no golden digests for {args.workload}")
        package = load_package()
        run = measure_traced if args.trace else measure
        result = run(args.workload, args.seed, args.seconds, package, golden)
        listed = spec["per_layer" if args.trace else "end_to_end"]
        values = result["values"]
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    checker = result["checker"]
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
