"""Command-line interface.

Subcommands: region, optimize, sumrate, extreme-points, swz-check, mc-check,
codebook-check, verify, boundary.  Every run takes one path through ``main``:
it parses the arguments, loads the scenario once (every command but
``verify`` takes one) and checks the scenario kind the subcommand declares,
then hands the scenario and one ``_Emitter`` to the subcommand's ``cmd_*``
function, which only computes and writes (and returns nothing, unless it is
``verify`` with a failed suite).  The scenario file is read once; its
embedded quantization tables, if any, ride along on the parsed arguments.
``main`` builds its parser once per process, and looks the ``cmd_*``
function of the parsed subcommand up in this module at call time.  When
that function returns, ``main`` writes the run manifest and prints the
captured warnings; an exception instead becomes an exit code and an error
line, followed by the warnings captured before it.  The command runs on
one BLAS thread: ``main`` sets numpy's and scipy's OpenBLAS pools to 1, so
that output bytes do not depend on the caller's pool, and gives the caller
its thread counts back on return.  Data goes to stdout or to the --out path; warnings and the run
manifest (when not written next to --out) go to stderr.

Exit codes: 0 success, 1 failed verification property, 2 validation error
(``ScenarioError``, ``CapacityError``), 3 numeric failure or any other
internal error, a plain ``ValueError`` included.  Emitted rate values are
finite or the literal ``-inf``; a NaN anywhere is treated as a numeric
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import importlib.util
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import (
    CapacityError,
    CodebookEnsemble,
    Evaluator,
    MAX_BLOCKLENGTH,
    RateRegion,
    ScenarioError,
    SubsetPair,
    indices_of,
    load_quantizers,
    load_scenario,
    max_weighted_rate,
    quantizers_to_dict,
    sample_codebook_marginal,
    scenario_sha256,
)
from .discrete import AuxChannels, DiscreteEvaluator, DiscreteScenario, region_discrete
from .gaussian import GaussianEvaluator, GaussianScenario, QuantizerSetGaussian, region_gaussian
from .optimize import mc_mutual_information, optimize_discrete_aux, optimize_gaussian_quantizers
from .sumrate import check_orderings, extreme_points, jd_subset_bounds, jd_sum_rate, swz_equals_jd
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# scenario kinds a subcommand can require (set_defaults(kind=...)); None
# means the command takes no scenario
KINDS = {"any": (DiscreteScenario, GaussianScenario),
         "discrete": DiscreteScenario, "gaussian": GaussianScenario}
# the thread-count entry points ({} is get or set) of the OpenBLAS that each
# package's wheel ships in <package>.libs beside it; numpy's has 64-bit ints
BLAS_POOLS = {"numpy": "scipy_openblas_{}_num_threads64_",
              "scipy": "scipy_openblas_{}_num_threads"}


def fmt_bits(x: float) -> str:
    """Fixed formatting for rate values in CSV output (``inf`` and ``-inf``
    as such); never NaN."""
    if math.isnan(x):
        raise ArithmeticError("NaN rate value")
    return f"{x:.12g}"


def _jsonable(x):
    """Recursively convert payloads to JSON-safe values (inf -> string)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            raise ArithmeticError("NaN value in output")
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return x
    return x


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written (a directory,
    a missing parent, no permission) is a ScenarioError that names it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"{path}: not a writable output path ({exc.strerror or exc})") from exc


class _Emitter:
    """Routes payloads to --out files or stdout and records the manifest."""

    def __init__(self, args, scenario):
        self.args = args
        self.t0 = time.monotonic()
        self.outputs: list[str] = []
        self.scenario_hash = scenario_sha256(scenario) if scenario is not None else None

    def write_text(self, text: str, path: str | None) -> None:
        if path:
            _write_file(path, text)
            self.outputs.append(path)
        else:
            sys.stdout.write(text)

    def write_json(self, payload: dict, path: str | None) -> None:
        text = json.dumps(_jsonable(payload), indent=1, sort_keys=True) + "\n"
        self.write_text(text, path)

    def finish(self) -> None:
        manifest = {
            "command": self.args.command,
            "scenario_path": getattr(self.args, "scenario", None),
            "scenario_sha256": self.scenario_hash,
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "wall_time_s": round(time.monotonic() - self.t0, 6),
            "outputs": self.outputs,
        }
        text = json.dumps(manifest, sort_keys=True)
        if self.outputs:
            _write_file(self.outputs[0] + ".manifest.json", text + "\n")
        else:
            print(text, file=sys.stderr)


def _region_csv(region: RateRegion) -> str:
    lines = ["T_mask,S_mask,bound_bits"]
    for t_mask, s_mask, bound in region.csv_rows():
        lines.append(f"{t_mask},{s_mask},{fmt_bits(bound)}")
    return "\n".join(lines) + "\n"


def _quantizers(args, sc) -> QuantizerSetGaussian | AuxChannels:
    """The fixed quantizers a command evaluates: those of --quantizers or,
    without it, the discrete tables embedded in the scenario file.  Their
    consumer checks them against the scenario."""
    if args.quantizers:
        return load_quantizers(args.quantizers, sc)
    if isinstance(sc, GaussianScenario):
        raise ScenarioError(f"{args.command} needs --quantizers with the B matrices")
    if args.scenario_aux is None:
        raise ScenarioError("aux channels required (in the scenario file or --quantizers)")
    return args.scenario_aux


def _evaluator(args, sc) -> Evaluator:
    """The evaluator of the fixed quantizers that ``_quantizers`` reads."""
    q = _quantizers(args, sc)
    if isinstance(sc, GaussianScenario):
        return GaussianEvaluator.from_quantizers(sc, q)
    return DiscreteEvaluator.from_aux(sc, q)


def _scenario_region(args, sc) -> RateRegion:
    """The region of ``--which``; thm1 and thm3 agree on the Gaussian class."""
    q = _quantizers(args, sc)
    if isinstance(sc, GaussianScenario):
        return region_gaussian(sc, q)
    return region_discrete(sc, q, args.which)


def cmd_region(args, sc, emit):
    region = _scenario_region(args, sc)
    csv_text = _region_csv(region)
    summary = {
        "num_constraints": region.bounds.size,
        "sum_rate_bound_bits": region.sum_rate_bound(),
        "per_user_max_bits": [
            region.max_user_rate(l) for l in range(1, region.num_users + 1)
        ],
    }
    if args.out:
        emit.write_text(csv_text, args.out)
        emit.write_json(summary, args.out + ".summary.json")
    elif args.format == "json":
        emit.write_json(summary, None)
    else:
        emit.write_text(csv_text, None)


def cmd_boundary(args, sc, emit):
    if args.points < 2:
        raise ScenarioError(f"--points must be at least 2, got {args.points}")
    if sc.num_users != 2:
        raise ScenarioError("boundary sweeps need exactly 2 users")
    region = _scenario_region(args, sc)
    lines = ["w1,w2,R1_bits,R2_bits"]
    if region.contains(np.zeros(2)):
        for t in np.linspace(0.0, 1.0, args.points):
            w = np.array([1.0 - t, t])
            _, rates = max_weighted_rate(region, w)
            if not region.contains(rates):
                raise ArithmeticError("boundary point fell outside the region")
            lines.append(
                f"{fmt_bits(w[0])},{fmt_bits(w[1])},{fmt_bits(rates[0])},{fmt_bits(rates[1])}"
            )
    else:
        warnings.warn("region is empty (some bound is negative); no boundary points",
                      RuntimeWarning)
    emit.write_text("\n".join(lines) + "\n", args.out)


def _flag_list(text: str, flag: str, convert) -> tuple:
    """The comma-separated values of ``flag``, each read by ``convert``."""
    try:
        return tuple(convert(v) for v in text.split(","))
    except ValueError as exc:
        raise ScenarioError(f"{flag}: must be comma-separated {convert.__name__}s ({exc})") from exc


def cmd_optimize(args, sc, emit):
    weights = None if args.weights is None else _flag_list(args.weights, "--weights", float)
    if args.restarts < 1 or args.iters < 1:
        raise ScenarioError("restarts and max_iters must be positive")
    if isinstance(sc, GaussianScenario):
        if args.aux_sizes is not None:
            raise ScenarioError("--aux-sizes applies to discrete scenarios only")
        res = optimize_gaussian_quantizers(sc, weights)
    else:
        if weights is not None:
            raise ScenarioError("discrete search supports only the sum-rate objective")
        if args.aux_sizes is not None:
            sizes = _flag_list(args.aux_sizes, "--aux-sizes", int)
        else:
            sizes = tuple(n + 1 for n in sc.output_sizes)
        res = optimize_discrete_aux(sc, sizes, args.restarts, args.iters, args.seed)
    payload = {
        "objective_bits": res.objective,
        "upper_bound_bits": res.upper_bound,
        "gap_bits": res.gap,
        "converged": res.converged,
        "trace_bits": list(res.trace),
        "active_constraints": [{"T_mask": t, "S_mask": s} for t, s in res.active],
        "quantizers": quantizers_to_dict(res.quantizers),
    }
    emit.write_json(payload, args.out)


def cmd_sumrate(args, sc, emit):
    ev = _evaluator(args, sc)
    payload = {"sum_rate_bits": jd_sum_rate(ev),
               "subset_bounds": [{"S_mask": s, "bound_bits": float(b)}
                                 for s, b in enumerate(jd_subset_bounds(ev))]}
    emit.write_json(payload, args.out)


def cmd_extreme_points(args, sc, emit):
    if args.rsum is not None and not (math.isfinite(args.rsum) and args.rsum >= 0.0):
        raise ScenarioError(f"--rsum must be a finite nonnegative number, got {args.rsum!r}")
    check_orderings(args.command, sc.num_relays)
    lines = ["ordering,k,relay,C_tilde_bits"]
    for pi, point in extreme_points(_evaluator(args, sc), args.rsum):
        label = "-".join(str(k) for k in pi)
        for pos, relay in enumerate(pi, start=1):
            lines.append(f"{label},{pos},{relay},{fmt_bits(point[relay - 1])}")
    emit.write_text("\n".join(lines) + "\n", args.out)


def cmd_swz_check(args, sc, emit):
    check_orderings(args.command, sc.num_relays)
    cmp_res = swz_equals_jd(_evaluator(args, sc))
    payload = {
        "jd_sum_rate": cmp_res.jd_sum_rate,
        "best_ordering": list(cmp_res.best_ordering),
        "best_sum_rate": cmp_res.best_sum_rate,
        "gap": cmp_res.gap,
        "equal": cmp_res.equal,
    }
    emit.write_json(payload, args.out)


def cmd_mc_check(args, sc, emit):
    q = _quantizers(args, sc)
    t_mask = args.t_mask if args.t_mask is not None else (1 << sc.num_users) - 1
    if not (0 < t_mask < 1 << sc.num_users and 0 <= args.s_mask < 1 << sc.num_relays):
        raise ScenarioError("--t-mask must name a nonempty user set, --s-mask a relay set")
    pair = SubsetPair(users=indices_of(t_mask), relays=indices_of(args.s_mask))
    est = mc_mutual_information(sc, q, pair, samples=args.samples, seed=args.seed)
    analytic = float(GaussianEvaluator.from_quantizers(sc, q).info_terms(pair.users)[pair.s_mask])
    z = abs(est.estimate - analytic) / max(est.std_error, 1e-300)
    payload = {
        "estimate_bits": est.estimate,
        "std_error_bits": est.std_error,
        "analytic_bits": analytic,
        "z_score": z,
        "within_3se": bool(z <= 3.0),
        "samples": est.samples,
    }
    emit.write_json(payload, args.out)


def cmd_codebook_check(args, sc, emit):
    if not 1 <= args.user <= sc.num_users:
        raise ScenarioError(f"--user must be in 1..{sc.num_users}")
    if args.blocklength < 1:
        raise ScenarioError(f"--blocklength must be at least 1, got {args.blocklength}")
    if args.blocklength > MAX_BLOCKLENGTH:
        raise CapacityError(
            f"--blocklength must be at most {MAX_BLOCKLENGTH}, got {args.blocklength}")
    rng = np.random.default_rng(args.seed)
    time_seq = rng.choice(sc.num_timeshare, size=args.blocklength, p=np.asarray(sc.time_share))
    ens = CodebookEnsemble(
        rate=args.rate,
        blocklength=args.blocklength,
        input_pmf=sc.px[args.user - 1],
        time_seq=time_seq,
        seed=args.seed,
    )
    res = sample_codebook_marginal(ens, args.trials)
    payload = {
        "num_codewords": ens.num_codewords,
        "trials": args.trials,
        "tv_per_position": list(res.tv),
        "max_tv": float(res.tv.max()),
        "empirical": res.empirical.tolist(),
        "target": res.target.tolist(),
    }
    emit.write_json(payload, args.out)


def cmd_verify(args, sc, emit) -> int | None:
    names = None if args.suite == "all" else (args.suite,)
    reports = run_suites(names, seed=args.seed, instances=args.instances)
    payload = {
        "suites": [dataclasses.asdict(r) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    emit.write_json(payload, args.out)
    if not payload["passed"]:
        failed = ", ".join(r.suite for r in reports if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocran",
        description="Rate regions for cloud radio access networks with oblivious relays.",
    )
    parser.add_argument("--version", action="version", version=f"ocran {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, kind="any"):
        p = sub.add_parser(name, help=help)
        if kind is not None:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output path (manifest lands next to it)")
        p.add_argument("--threads", type=int, choices=(1,), default=1,
                       help="accepted for existing command lines; ocran runs on one thread")
        p.set_defaults(kind=kind)
        return p

    p = command("region", "evaluate every (T, S) constraint bound")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--quantizers", help="JSON with Gaussian B matrices or discrete aux tables")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1",
                   help="constraint family; Gaussian regions are the same under both")

    p = command("boundary", "two-user weighted-rate boundary sweep")
    p.add_argument("--quantizers")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1",
                   help="constraint family; Gaussian regions are the same under both")
    p.add_argument("--points", type=int, default=33, help="weights swept, at least 2")

    p = command("optimize", "search quantizers for the best objective")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the discrete search's random starts (Gaussian: unused)")
    p.add_argument("--weights", help="comma-separated user weights: maximize w.R (Gaussian only)")
    p.add_argument("--restarts", type=int, default=4,
                   help="starts of the discrete search (Gaussian: one certified solve)")
    p.add_argument("--iters", type=int, default=120,
                   help="SLSQP iteration cap per discrete start (Gaussian: one certified solve)")
    p.add_argument("--aux-sizes", help="comma-separated |U_k| for discrete scenarios")

    p = command("sumrate", "sum-rate bound of a fixed quantizer choice")
    p.add_argument("--quantizers")

    p = command("extreme-points", "fronthaul-polytope extreme points per ordering")
    p.add_argument("--quantizers")
    p.add_argument("--rsum", type=float, default=None,
                   help="target sum-rate (default: the joint-decoding sum-rate)")

    p = command("swz-check", "successive Wyner-Ziv vs joint decoding sum-rate",
                kind="discrete")
    p.add_argument("--quantizers")

    p = command("mc-check", "Monte Carlo vs analytic information term", kind="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantizers")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--t-mask", type=int, default=None)
    p.add_argument("--s-mask", type=int, default=0)

    p = command("codebook-check", "randomized-codebook marginal check", kind="discrete")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--user", type=int, default=1)
    p.add_argument("--blocklength", type=int, default=4)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100_000)

    p = command("verify", "run the cross-module property suites", kind=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--instances", type=int, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built once per process.  It holds subcommand
    names, not functions, so a ``cmd_*`` rebound later in this module runs."""
    return build_parser()


def _blas_pool(package: str):
    """(get, set) of the thread count of the OpenBLAS beside ``package``, or
    None when there is none to be found."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    libs = os.path.join(os.path.dirname(spec.origin), os.pardir, f"{package}.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # the copy that the package loads, not a second one
        get, put = (getattr(lib, BLAS_POOLS[package].format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@functools.cache
def _blas_pools() -> tuple[tuple, tuple[str, ...]]:
    """The (get, set) pairs of numpy's and scipy's BLAS pools and the
    packages without one, looked up once per process."""
    pools = {package: _blas_pool(package) for package in BLAS_POOLS}
    return (tuple(pool for pool in pools.values() if pool is not None),
            tuple(package for package, pool in pools.items() if pool is None))


def _one_blas_thread() -> list[tuple]:
    """Set each BLAS pool to one thread and return (set, former count) pairs
    that restore the caller's pools.  SLSQP's path follows the last bits of
    BLAS reductions, whose order changes with the thread count, so output
    bytes hold only on a fixed pool; a BLAS that cannot be set is warned of."""
    pools, missing = _blas_pools()
    for package in missing:
        warnings.warn(f"cannot set {package}'s BLAS to one thread; "
                      "output bytes may depend on its thread count")
    restore = [(put, get()) for get, put in pools]
    for put, _ in restore:
        put(1)
    return restore


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    caught, restore = [], []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restore = _one_blas_thread()
            if getattr(args, "seed", 0) < 0:
                raise ScenarioError(f"--seed: must be a nonnegative integer, got {args.seed}")
            sc = args.scenario_aux = None
            if args.kind is not None:
                sc, args.scenario_aux = load_scenario(args.scenario, with_aux=True)
                if not isinstance(sc, KINDS[args.kind]):
                    raise ScenarioError(f"{args.command} needs a {args.kind} scenario")
            emit = _Emitter(args, sc)
            command = globals()["cmd_" + args.command.replace("-", "_")]
            code = command(args, sc, emit) or EXIT_OK
            emit.finish()
        return code
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # any other error is internal: exit 3, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:  # a failed run still shows what it warned of before failing
        for put, count in restore:
            put(count)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
