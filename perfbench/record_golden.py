#!/usr/bin/env python3
"""Record the golden output digest of every pair in every workload pool.

    python3 perfbench/record_golden.py [workload ...]

Run from the repository root on the commit whose output is the reference.
A pair that raises, fails verification or leaves the factor partition
incomplete is not recorded, and the script exits 1.  The digests are the
benchmark's exactness gate: re-record only for a change that is meant to
alter the output, and say so with the change.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads


def record(workload: str, package) -> dict[str, list[str]]:
    pl = package.pipeline
    out: dict[str, list[str]] = {}
    for index in range(workloads.POOL_SIZE[workload]):
        for pid, f, g in workloads.pool_set(workload, index, package.FIXTURES):
            run = pl.analyze_pair(f, g)
            if not (run.verification.passed and run.factors.complete):
                raise SystemExit(f"{pid} does not verify; nothing recorded")
            digest = bench.output_digest(pl.run_document(run), pl.render_run(run))
            out[pid] = [workloads.pair_digest(f, g), digest]
        print(f"{workload} set {index}: {len(out)} pairs so far", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    path = bench.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    package = bench.load_package()
    for name in names:
        golden[name] = record(name, package)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
