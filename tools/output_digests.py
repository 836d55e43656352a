"""Print one sha256 per output file of the benchmark's ops and of
``verify --seed 0..4``, so that two checkouts can be compared for
byte-identical output with one command each.

    python tools/output_digests.py [--root CHECKOUT] [--keep DIR] [--against OTHER]

The ops of the three workloads in ``bench/workloads.py`` are prepared at
seeds 1-4 in a temporary directory (DIR with ``--keep``, which keeps the
files), from CHECKOUT's ``bench/`` (read, never written) and run in this
process through ``ocran.cli.main`` from CHECKOUT's ``src/``; CHECKOUT
defaults to the one that holds this script.  Then ``verify --seed N`` runs
for N = 0..4, all with one BLAS thread.  Each line reads

    <sha256>  <workload>/<seed>/<file>  exit <code>

with ``missing`` for a file the op did not write.  Run manifests hold wall
times and paths, so they are left out.  Two checkouts print the same lines
when every op exits alike and writes the same bytes:

    diff <(python tools/output_digests.py --root PARENT) <(python tools/output_digests.py)

With ``--against OTHER`` the same ops of checkout OTHER run in a child
process, and after the digest lines one line per file whose line differs
says how far it moved: the largest absolute and relative difference among
the numbers of its JSON values and CSV cells, or why they cannot be paired
(an exit code, a missing file, text or a count of numbers that differs).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

WORKLOADS = ("discrete-k4", "gaussian-opt", "verify-small")
SEEDS = range(1, 5)
VERIFY_SEEDS = range(5)


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _run_all(root: pathlib.Path, out_dir: str) -> None:
    """Run every op of ``root`` with its outputs under ``out_dir``, each file
    at ``out_dir/<label>``, and print each file's digest line."""
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

    for name in WORKLOADS:
        for seed in SEEDS:
            workdir = os.path.join(out_dir, name, str(seed))
            os.makedirs(workdir)
            for op in workloads[name](seed).prepare(workdir):
                run(f"{name}/{seed}", op.argv, op.outputs)
    for seed in VERIFY_SEEDS:
        workdir = os.path.join(out_dir, "verify", str(seed))
        os.makedirs(workdir)
        out = os.path.join(workdir, f"verify-{seed}.json")
        run(f"verify/{seed}", ("verify", "--seed", str(seed), "--out", out), (out,))


def _numbers(path: pathlib.Path) -> tuple[list[float], list[str]]:
    """The numbers of a JSON or CSV file in document order, and the text
    around them: every other JSON value or key, every CSV cell that is no
    number."""
    numbers, text = [], []
    if path.suffix == ".json":
        def walk(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    text.append(key)
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                numbers.append(float(value))
            else:
                text.append(repr(value))

        walk(json.loads(path.read_text()))
    else:
        for row in csv.reader(io.StringIO(path.read_text())):
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    text.append(cell)
    return numbers, text


def _moved(ours: pathlib.Path, theirs: pathlib.Path) -> str:
    """How far the numbers of one output file moved from the other's."""
    (a, a_text), (b, b_text) = _numbers(ours), _numbers(theirs)
    if len(a) != len(b):
        return f"{len(a)} numbers here, {len(b)} in the other checkout"
    largest_abs = largest_rel = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        largest_abs = max(largest_abs, diff)
        largest_rel = max(largest_rel, diff / max(abs(x), abs(y)))
    note = "" if a_text == b_text else ", and its text differs"
    return f"max abs {largest_abs:.3g}, max rel {largest_rel:.3g}{note}"


def _lines(text: str) -> dict[str, tuple[str, str]]:
    """label -> (digest, exit code) of digest lines."""
    return {label: (digest, code) for digest, label, _, code in map(str.split, text.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and bench/ are run (default: this one)")
    parser.add_argument("--keep", help="write the output files here and keep them")
    parser.add_argument("--against", help="checkout to report the moved numbers against")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        ours = pathlib.Path(args.keep or os.path.join(tmp, "ours"))
        if not args.against:
            _run_all(root, str(ours))
            return 0
        theirs = os.path.join(tmp, "theirs")
        child = subprocess.run([sys.executable, __file__, "--root", args.against,
                                "--keep", theirs], capture_output=True, text=True, check=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            _run_all(root, str(ours))
        print(captured.getvalue(), end="")
        mine, other = _lines(captured.getvalue()), _lines(child.stdout)
        moved = 0
        for label in sorted(mine.keys() | other.keys()):
            if mine.get(label) == other.get(label):
                continue
            moved += 1
            if label not in mine or label not in other:
                reason = "written by one checkout only"
            elif mine[label][1] != other[label][1]:
                reason = f"exit {mine[label][1]} here, {other[label][1]} in the other checkout"
            elif "missing" in (mine[label][0], other[label][0]):
                reason = "missing in one checkout"
            else:
                reason = _moved(ours / label, pathlib.Path(theirs) / label)
            print(f"moved  {label}  {reason}")
        print(f"{moved} of {len(mine)} output files differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
