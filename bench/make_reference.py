#!/usr/bin/env python3
"""Record the reference records hashes that bench/run.py checks reps against.

    python3 bench/make_reference.py

Runs each workload once per seed 0..REFERENCE_SEEDS-1 (0..31) and writes
bench/reference.json: the sha256 of every run's records.jsonl (and of the
sweep table), plus the CPU, numpy and BLAS they were recorded with, since
the bits depend on them. Re-record only on purpose: when a change must
alter the numerics and says so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# seeds 0..REFERENCE_SEEDS-1 get stored hashes; other seeds need agreeing reps
REFERENCE_SEEDS = 32


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    hashes: dict[str, dict[str, dict[str, str]]] = {}
    workdir = run.OUT / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(REFERENCE_SEEDS):
                workload.setup(seed, workdir)
                got, _ = workload.check(workload.execute(seed, workdir), workdir)
                hashes.setdefault(name, {})[str(seed)] = got
                print(f"{name} seed {seed}: {len(got)} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = {"fingerprint": run.fingerprint(run.machine()), "hashes": hashes}
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
