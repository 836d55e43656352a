"""Print one sha256 per output file of the benchmark's ops and of
``verify --seed 0..4``, so that two checkouts can be compared for
byte-identical output with one command each.

    python tools/output_digests.py [--root CHECKOUT]

The ops of the three workloads in ``bench/workloads.py`` are prepared at
seeds 1-4 in a temporary directory, from CHECKOUT's ``bench/`` (read, never
written) and run in this process through ``ocran.cli.main`` from CHECKOUT's
``src/``; CHECKOUT defaults to the one that holds this script.  Then
``verify --seed N`` runs for N = 0..4, all with one BLAS thread.  Each
line reads

    <sha256>  <workload>/<seed>/<file>  exit <code>

with ``missing`` for a file the op did not write.  Run manifests hold wall
times and paths, so they are left out.  Two checkouts print the same lines
when every op exits alike and writes the same bytes:

    diff <(python tools/output_digests.py --root PARENT) <(python tools/output_digests.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import pathlib
import sys
import tempfile

WORKLOADS = ("discrete-k4", "gaussian-opt", "verify-small")
SEEDS = range(1, 5)
VERIFY_SEEDS = range(5)


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and bench/ are run (default: this one)")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.dont_write_bytecode = True  # leaves no __pycache__ in the checkout
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one BLAS thread, as bench/run.py runs the ops
    from ocran.cli import main as ocran_main

    workloads = importlib.import_module("workloads").WORKLOADS

    def run(prefix: str, argv, outputs) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ocran_main(list(argv))
        for path in outputs:
            print(f"{_digest(path)}  {prefix}/{os.path.basename(path)}  exit {code}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = os.path.join(tmp, name, str(seed))
                os.makedirs(workdir)
                for op in workloads[name](seed).prepare(workdir):
                    run(f"{name}/{seed}", op.argv, op.outputs)
        for seed in VERIFY_SEEDS:
            out = os.path.join(tmp, f"verify-{seed}.json")
            run(f"verify/{seed}", ("verify", "--seed", str(seed), "--out", out), (out,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
