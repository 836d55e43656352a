"""Benchmark of the ocran command-line calculator.

Run from the repository root:

    python3 bench/run.py --workload discrete-k4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run sets up (imports ocran and scipy, writes the seeded inputs, runs one
warm-up op), then runs whole passes over the workload's op list, each op one
``ocran.cli.main(argv)`` call in this process (a closed loop with one
client).  The number of passes is fixed by ``--seconds`` and the workload's
nominal pass time (see pass_count), so that every run of one seed attempts
the same ops and fails the same ones.  Between passes it sets up again in
fresh processes, for the ``setup_s`` median, and times a speed probe that
scales ``setup_s`` and ``wall_s`` (see PROBE_REF_S).  Afterwards it checks
every output of the first pass and checks that later passes wrote the same
bytes.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  Everything else (every
command's latency, failures, the machine, the full layer table) goes to the
lines before it and to ``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy is imported, so the BLAS pool starts with one thread
INHERITED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 4  # fresh-process set-ups besides the run's own
MIN_PASSES = 2  # fewest timed passes (and traced passes, in a traced run) of a run
# On a shared 2-core virtual machine the same code ran up to 1.6x slower for
# seconds to tens of minutes at a time, in CPU time as much as in wall time.
# So an untraced run times a fixed probe between ops, at most every
# PROBE_EVERY_S, and scales setup_s and wall_s to the speed at which the
# probe takes PROBE_REF_S (its typical time on that machine).
PROBE_REF_S = 0.025
PROBE_EVERY_S = 0.5
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Data and unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads() -> dict[str, int | None]:
    """Threads each OpenBLAS that numpy and scipy load reports it will use;
    a BLAS this cannot read refuses the run."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            count = None
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    count = int(fn())
                    break
            found[os.path.basename(path)] = count
    if not found:
        raise BenchError("found no OpenBLAS next to numpy or scipy, so cannot tell how many "
                         "threads BLAS would use")
    return found


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: v for k, v in sorted(os.environ.items())
           if any(s in k for s in ("THREAD", "OMP_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": env,
        "thread_env_inherited": INHERITED_THREAD_ENV,
    }


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ocran", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class SpeedProbe:
    """Times a fixed mix of interpreter loops, small numpy calls and
    reductions over a 4.7 MB tensor, the kinds of work ocran does, without
    calling ocran, so that no change to the program can move it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.random((3, 3))
        self._np = np
        self._small = m + m.T
        self._tensor = rng.random((3, 3) + (4,) * 8)
        self._last = time.perf_counter()
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(800):
            self._np.linalg.eigh(self._small)
        for _ in range(15):
            self._tensor.sum(axis=(1, 3, 5))
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the probe if PROBE_EVERY_S have passed since it last ran."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.append(self._once())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        if not self.samples:
            self.samples.append(self._once())
        return PROBE_REF_S / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def timing(values: list[float]) -> dict:
    """Median, sample count, and the highest of p99.9/p99/p95/p90/p75 that
    has at least ten samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            tail = {"p": p, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class OpRecord:
    __slots__ = ("label", "command", "seconds", "error", "trace", "files", "stderr", "digest")

    def __init__(self, label, command):
        self.label, self.command = label, command
        self.seconds = 0.0
        self.error = self.trace = None
        self.files = None
        self.stderr = ""
        self.digest = ""


def run_op(cli, op) -> OpRecord:
    rec = OpRecord(op.label, op.command)
    for path in op.outputs:
        for stale in (path, path + ".manifest.json"):
            if os.path.exists(stale):
                os.remove(stale)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an op that crashes is a measured failure, not the end of the run
        rec.seconds = time.perf_counter() - t0
        rec.error = f"{type(exc).__name__}: {exc}"
        rec.trace = traceback.format_exc()
    else:
        rec.seconds = time.perf_counter() - t0
    rec.stderr = err.getvalue()
    if rec.error is None and code != 0:
        rec.error = f"exit code {code}"
    if rec.error is None:
        missing = [p for p in op.outputs if not os.path.exists(p)]
        if missing:
            rec.error = f"missing output {os.path.basename(missing[0])}"
        else:
            rec.files = {}
            for path in op.outputs:
                with open(path, "rb") as fh:
                    rec.files[path] = fh.read()
    digest = hashlib.sha256(rec.stderr.encode() + out.getvalue().encode())
    for path, data in sorted((rec.files or {}).items()):
        digest.update(path.encode() + b"\0" + data)
    rec.digest = digest.hexdigest()
    return rec


def run_pass(cli, ops, tracer=None, first_op_id=0, speed=None) -> list[OpRecord]:
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        records.append(run_op(cli, op))
        if speed is not None:
            speed.sample()
    return records


def pass_seconds(records) -> float:
    return sum(r.seconds for r in records)


def op_list_seconds(passes) -> float:
    """One pass over the op list, from the median latency of each op across
    passes, so a burst of noise in one pass moves only the ops it hit."""
    return sum(statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0])))


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def load_metric_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def set_up(args):
    """Import the program, write the inputs, run the warm-up op."""
    if not os.path.isfile(os.path.join(SRC, "ocran", "__init__.py")):
        raise BenchError(f"no ocran sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy.optimize  # noqa: F401  (imported lazily by the LP; part of set-up)
    from ocran import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "ocran"):
        raise BenchError(f"imported ocran from {cli.__file__}, not from {SRC}")
    machine = machine_record()
    bad = {lib: n for lib, n in machine["blas_threads"].items() if n != 1}
    if bad:
        raise BenchError(f"BLAS would use more or unknown threads: {bad}")
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    ops = workload.prepare(workdir)
    order = np.random.default_rng([args.seed, 7]).permutation(len(ops))
    ops = [ops[i] for i in order]
    warm = run_op(cli, workload.warmup(ops))
    return cli, workload, ops, workdir, machine, warm, time.perf_counter() - _T0


def probe_setup(args) -> float:
    """Set-up time of a fresh process running only the set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    spec = load_metric_spec()
    cli, workload, ops, workdir, machine, warm, setup_s = set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, cli, workload, ops, machine, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["warmup"] = {"label": warm.label, "seconds": warm.seconds, "error": warm.error}
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], result)
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in result["e2e"]:
                raise BenchError(f"BENCHMARK.json names {m['name']}, which this run lacks")
            metrics[m["name"]] = {"value": result["e2e"][m["name"]]["median"], "unit": m["unit"]}
    report(args, result)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"  details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def pass_count(seconds: float, pass_s: float, traced: bool) -> int:
    """Passes that fill --seconds at the nominal pass time (a traced run
    also runs a traced pass after each), at least MIN_PASSES.  It depends on
    the arguments only, not on the clock, so a slow phase of the machine
    lengthens the run instead of changing which ops it attempts."""
    return max(MIN_PASSES, round(seconds / (pass_s * (2 if traced else 1))))


def measure(args, cli, workload, ops, machine, setup_s) -> dict:
    """Timed passes, pass_count of them.  An untraced run also
    sets up in fresh processes between passes, so its set-up samples spread
    over the run as the passes do."""
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    speed = SpeedProbe() if tracer is None else None
    untraced, traced, setups = [], [], [setup_s]
    for _ in range(pass_count(args.seconds, workload.PASS_S, tracer is not None)):
        untraced.append(run_pass(cli, ops, speed=speed))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, ops, tracer, len(traced) * len(ops)))
            finally:
                tracer.uninstall()
        elif len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(args))
            speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        while len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(args))
            speed.sample()

    # correctness: check the first pass, then require every later pass (and
    # every traced pass) to have written exactly the same bytes
    first = {r.label: r for r in untraced[0]}
    outputs = {r.label: r.files for r in untraced[0] if r.files is not None}
    problems = workload.check(outputs)
    mismatches = []
    for records in untraced[1:] + traced:
        for r in records:
            if r.digest != first[r.label].digest:
                mismatches.append(r.label)
    executions = [r for records in untraced for r in records]
    failed = [r for r in executions
              if r.error is not None or r.label in problems or r.digest != first[r.label].digest]
    errors = {}
    for traced_run, records in [(False, r) for r in untraced] + [(True, r) for r in traced]:
        for r in records:
            if r.error is not None:
                key = r.label + (" (traced)" if traced_run else "")
                entry = errors.setdefault(key, {"error": r.error, "count": 0, "traceback": r.trace})
                entry["count"] += 1

    by_command: dict[str, list[float]] = {}
    for r in executions:
        by_command.setdefault(r.command, []).append(r.seconds * 1e3)
    commands = {cmd: timing(v) for cmd, v in sorted(by_command.items())}
    walls = [pass_seconds(p) for p in untraced]
    wall_s = op_list_seconds(untraced)
    scale = speed.scale() if speed is not None else 1.0
    e2e = {
        "setup_s": {"median": statistics.median(setups) * scale, "n": len(setups), "tail": None,
                    "unit": "s"},
        "wall_s": {"median": wall_s * scale, "n": len(untraced), "tail": None, "unit": "s"},
        "peak_rss_mb": {"median": peak_rss_mb, "n": 1, "tail": None, "unit": "MB"},
    }
    for cmd, summary in commands.items():
        e2e[cmd.replace("-", "_") + "_ms"] = dict(summary, unit="ms")
    e2e["fail_ratio"] = {"median": len(failed) / len(executions), "n": len(executions),
                         "tail": None, "unit": "failed/attempted"}
    facts = workload.facts(outputs)
    if "optimize_bits" in facts:
        e2e["optimize_bits"] = {"median": facts["optimize_bits"], "n": 1, "tail": None,
                                "unit": "bits"}
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "source_sha256": source_sha256(),
        "ops": [{"label": op.label, "argv": list(op.argv)} for op in ops],
        "passes": len(untraced),
        "pass_walls_s": walls,
        "measured_wall_s": wall_s,
        "measured_setup_s": statistics.median(setups),
        "speed_probe_s": speed.samples if speed is not None else [],
        "speed_scale": scale,
        "op_seconds": {r.label: [p[i].seconds for p in untraced] for i, r in enumerate(untraced[0])},
        "setup_samples_s": setups,
        "e2e": e2e,
        "errors": errors,
        "check_problems": problems,
        "pass_mismatches": sorted(set(mismatches)),
        "facts": facts,
        "reference_values": workload.reference_values(outputs),
        "attempted": len(executions),
        "failed": len(failed),
        "correct": not problems and not mismatches,
    }
    if tracer is not None:
        result["layers"] = layer_table(tracer, traced, len(ops))
        result["traced_pass_walls_s"] = [pass_seconds(p) for p in traced]
        result["traced_wall_s"] = op_list_seconds(traced)
        spans = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}.spans.npz")
        tracer.save(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
        result["correct"] = result["correct"] and result["layers"]["calls_repeat"]
    return result


def layer_table(tracer, traced, ops_per_pass) -> dict:
    """Per traced pass totals of every span name; calls must match exactly."""
    per_pass = [tracer.layer_totals(range(i * ops_per_pass, (i + 1) * ops_per_pass))
                for i in range(len(traced))]
    calls = [{n: t["calls"] for n, t in p.items()} for p in per_pass]
    table = {}
    for name in per_pass[0]:
        table[name] = {
            "calls": per_pass[0][name]["calls"],
            "self_ms": statistics.median(p[name]["self_ms"] for p in per_pass),
            "total_ms": statistics.median(p[name]["total_ms"] for p in per_pass),
            "mb_computed": per_pass[0][name]["mb_computed"],
        }
    return {"passes": len(per_pass), "calls_repeat": all(c == calls[0] for c in calls),
            "spans": len(tracer.start), "by_span": table}


def layer_metrics(spec: list[dict], result: dict) -> dict:
    layers = result["layers"]["by_span"]
    untraced = result["e2e"]["wall_s"]["median"]
    traced = result["traced_wall_s"]
    special = {
        "bench.untraced_wall_s": untraced,
        "bench.traced_wall_s": traced,
        "bench.trace_overhead": traced / untraced,
        "discrete.entropy_hit_ratio": (
            1.0 - layers["discrete.marginal"]["calls"] / layers["discrete.entropy"]["calls"]
            if layers["discrete.entropy"]["calls"] else 0.0),
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        span, _, stat = name.rpartition(".")
        if name in special:
            value = special[name]
        elif stat == "self_ms" and "." not in span:
            value = sum(t["self_ms"] for n, t in layers.items() if n.startswith(span + "."))
        elif span in layers and stat in ("calls", "mb_computed"):
            value = layers[span][stat]
        elif span in layers and stat == "ms":
            value = layers[span]["self_ms"]
        else:
            raise BenchError(f"BENCHMARK.json names {name}, which the trace does not measure")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def report(args, result) -> None:
    m = result["machine"]
    print(f"ocran benchmark: workload={result['workload']} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={result['passes']}")
    print(f"  why: {result['why']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"caches={m['caches']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']['name']} "
          f"{m['blas']['version']} blas_threads={m['blas_threads']} env={m['thread_env']}")
    for name, s in result["e2e"].items():
        tail = f", p{s['tail']['p']:g} {s['tail']['value']:.6g}" if s["tail"] else ""
        print(f"  {name:<20} {s['median']:>14.6g} {s['unit']:<8} (median of {s['n']}{tail})")
    for label, e in result["errors"].items():
        print(f"  failed op {label}: {e['error']} ({e['count']}x)")
    for label, why in result["check_problems"].items():
        print(f"  wrong output {label}: {why}")
    for label in result["pass_mismatches"]:
        print(f"  output of {label} changed between passes or under tracing")
    if "layers" in result:
        layers = result["layers"]
        print(f"  trace: {layers['spans']} spans, {layers['passes']} traced passes, "
              f"calls repeat: {layers['calls_repeat']}, "
              f"overhead {result['traced_wall_s'] / result['e2e']['wall_s']['median']:.3f}x")
        for name, t in sorted(layers["by_span"].items(), key=lambda kv: -kv[1]["self_ms"]):
            if t["calls"]:
                print(f"    {name:<42} calls {t['calls']:>9}  self {t['self_ms']:>10.2f} ms"
                      f"  total {t['total_ms']:>10.2f} ms")


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S + 60, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (feeds the setup_s median)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
