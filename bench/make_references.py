"""Regenerate bench/references.json from the program as it is now.

    python3 bench/make_references.py --seeds 0-19

For each workload and seed this runs one untraced pass of the op list,
requires every op's output to pass the workload's checks, and stores the
values the checks later compare against (discrete region bounds and sum-rates
exactly, optimizer objectives as a floor).  Ops that fail are left out of the
references, so a known crash keeps showing as a failure.  Run it only on a
commit whose outputs are trusted; the stored file records which one in
``source_sha256``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run  # sets the thread variables before numpy loads

from workloads import REFERENCES, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    from ocran import cli

    refs = {"source_sha256": run.source_sha256()}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for name, cls in WORKLOADS.items():
        refs[name] = {}
        for seed in parse_seeds(args.seeds):
            workload = cls(seed)
            workload.reference = None  # compare against the oracles only
            workdir = tempfile.mkdtemp(prefix=f"refs-{name}-", dir=run.OUT_DIR)
            try:
                records = run.run_pass(cli, workload.prepare(workdir))
                outputs = {r.label: r.files for r in records if r.files is not None}
                problems = workload.check(outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: outputs fail their checks: {problems}", file=sys.stderr)
                return 1
            refs[name][str(seed)] = workload.reference_values(outputs)
            failed = sorted(r.label for r in records if r.files is None)
            print(f"{name} seed {seed}: {len(refs[name][str(seed)])} values"
                  + (f", no output from {failed}" if failed else ""), flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
