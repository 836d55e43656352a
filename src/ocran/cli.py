"""Command-line interface.

Subcommands: region, optimize, sumrate, extreme-points, swz-check, mc-check,
codebook-check, verify, boundary.  Every run takes one path through ``main``:
it parses the arguments, loads the scenario once (every command but
``verify`` takes one) and checks the scenario kind the subcommand declares,
then hands the scenario and one ``_Emitter`` to the subcommand's ``cmd_*``
function, which only computes and writes (and returns nothing, unless it is
``verify`` with a failed suite).  When that function returns, ``main`` writes
the run manifest and prints the captured warnings; an exception instead
becomes an exit code and an error line.  Data goes to
stdout or to the --out path; warnings and the run manifest (when not written
next to --out) go to stderr.

Exit codes: 0 success, 1 failed verification property, 2 validation error,
3 numeric failure or any other internal error.  Emitted rate values are
finite or the literal ``-inf``; a NaN anywhere is treated as a numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import (
    CapacityError,
    CodebookEnsemble,
    RateRegion,
    ScenarioError,
    SubsetPair,
    _complex_matrix_from_json,
    _complex_matrix_to_json,
    indices_of,
    load_aux_tables,
    load_scenario,
    max_weighted_rate,
    sample_codebook_marginal,
    scenario_sha256,
)
from .discrete import AuxChannels, DiscreteScenario, region_discrete
from .gaussian import GaussianEvaluator, GaussianScenario, QuantizerSetGaussian, region_gaussian
from .optimize import (
    OptimizerConfig,
    mc_mutual_information,
    optimize_discrete_aux,
    optimize_gaussian_quantizers,
)
from .sumrate import extreme_points, jd_sum_rate, swz_equals_jd
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# scenario kinds a subcommand can require (set_defaults(kind=...)); None
# means the command takes no scenario
KINDS = {"any": (DiscreteScenario, GaussianScenario),
         "discrete": DiscreteScenario, "gaussian": GaussianScenario}


def fmt_bits(x: float) -> str:
    """Fixed formatting for rate values in CSV output; never NaN."""
    if math.isnan(x):
        raise ArithmeticError("NaN rate value")
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
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


class _Emitter:
    """Routes payloads to --out files or stdout and records the manifest."""

    def __init__(self, args, scenario):
        self.args = args
        self.t0 = time.monotonic()
        self.outputs: list[str] = []
        self.scenario_hash = scenario_sha256(scenario) if scenario is not None else None

    def write_text(self, text: str, path: str | None) -> None:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.outputs.append(path)
        else:
            sys.stdout.write(text)

    def write_json(self, payload: dict, path: str | None) -> None:
        text = json.dumps(_jsonable(payload), indent=1, sort_keys=True) + "\n"
        self.write_text(text, path)

    def finish(self) -> None:
        manifest = {
            "command": self.args.command,
            "scenario_path": self.args.scenario,
            "scenario_sha256": self.scenario_hash,
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "wall_time_s": round(time.monotonic() - self.t0, 6),
            "outputs": self.outputs,
        }
        text = json.dumps(manifest, sort_keys=True)
        if self.outputs:
            path = self.outputs[0] + ".manifest.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text, file=sys.stderr)


def _region_csv(region: RateRegion) -> str:
    lines = ["T_mask,S_mask,bound_bits"]
    for t_mask, s_mask, bound in region.csv_rows():
        lines.append(f"{t_mask},{s_mask},{fmt_bits(bound)}")
    return "\n".join(lines) + "\n"


def _read_field(path: str, field: str):
    """Field ``field`` of the JSON object in the quantizer file ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or field not in doc:
        article = "an" if field[0] in "aeiou" else "a"
        raise ScenarioError(f"{path}: quantizer file needs {article} {field!r} field")
    return doc[field]


def _quantizers(args, sc) -> QuantizerSetGaussian | AuxChannels:
    """The fixed quantizers a command evaluates: Gaussian B matrices from
    --quantizers, or discrete aux tables from --quantizers or, without it,
    from the scenario file."""
    if isinstance(sc, GaussianScenario):
        if not args.quantizers:
            raise ScenarioError(f"{args.command} needs --quantizers with the B matrices")
        q = QuantizerSetGaussian(B=tuple(
            _complex_matrix_from_json(m, f"B[{k}]")
            for k, m in enumerate(_read_field(args.quantizers, "B"), start=1)))
        q.validate(sc)
        return q
    if args.quantizers:
        tables = _read_field(args.quantizers, "aux")
        aux = AuxChannels(tables=tuple(np.asarray(t, dtype=float) for t in tables))
    else:
        aux = load_aux_tables(args.scenario)
        if aux is None:
            raise ScenarioError("aux channels required (in the scenario file or --quantizers)")
    aux.check_compatible(sc)
    return aux


def _scenario_region(args, sc) -> RateRegion:
    q = _quantizers(args, sc)
    if isinstance(sc, GaussianScenario):
        return region_gaussian(sc, q)
    return region_discrete(sc, q, args.which)


def cmd_region(args, sc, emit):
    region = _scenario_region(args, sc)
    csv_text = _region_csv(region)
    summary = {
        "num_constraints": len(region.constraints),
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
    if sc.num_users != 2:
        raise ScenarioError("boundary sweeps need exactly 2 users")
    region = _scenario_region(args, sc)
    lines = ["w1,w2,R1_bits,R2_bits"]
    if region.contains(np.zeros(2)):
        for t in np.linspace(0.0, 1.0, args.points):
            w = np.array([1.0 - t, t])
            _, rates = max_weighted_rate(region, w)
            rates[rates < 1e-9] = 0.0  # scrub LP epsilon dust
            if not region.contains(rates):
                raise ArithmeticError("boundary point fell outside the region")
            lines.append(
                f"{fmt_bits(w[0])},{fmt_bits(w[1])},{fmt_bits(rates[0])},{fmt_bits(rates[1])}"
            )
    else:
        print("warning: region is empty (some bound is negative); no boundary points",
              file=sys.stderr)
    emit.write_text("\n".join(lines) + "\n", args.out)


def cmd_optimize(args, sc, emit):
    weights = None
    if args.objective == "weighted":
        if not args.weights:
            raise ScenarioError("weighted objective needs --weights")
        weights = tuple(float(w) for w in args.weights.split(","))
        if len(weights) != sc.num_users:
            raise ScenarioError("need one weight per user")
    elif args.weights is not None:
        raise ScenarioError("--weights needs --objective weighted")
    cfg = OptimizerConfig(
        objective="sum_rate" if args.objective == "sum" else "weighted",
        weights=weights,
        restarts=args.restarts,
        max_iters=args.iters,
        seed=args.seed,
    )
    bound = gap = None  # the discrete search carries no certificate
    if isinstance(sc, GaussianScenario):
        res = optimize_gaussian_quantizers(sc, cfg)
        active = [{"T_mask": t, "S_mask": s} for t, s in res.active]
        quantizers = {"B": [_complex_matrix_to_json(b) for b in res.quantizers.B]}
        bound, gap = res.upper_bound, res.gap
    else:
        if args.aux_sizes:
            sizes = tuple(int(v) for v in args.aux_sizes.split(","))
        else:
            sizes = tuple(n + 1 for n in sc.output_sizes)
        res = optimize_discrete_aux(sc, sizes, cfg)
        active = [{"S_mask": s} for s in res.active]
        quantizers = {"aux": [t.tolist() for t in res.aux.tables]}
    payload = {
        "objective_bits": res.objective,
        "upper_bound_bits": bound,
        "gap_bits": gap,
        "converged": res.converged,
        "trace_bits": list(res.trace),
        "active_constraints": active,
        "quantizers": quantizers,
    }
    emit.write_json(payload, args.out)


def cmd_sumrate(args, sc, emit):
    q = _quantizers(args, sc)
    if isinstance(sc, GaussianScenario):
        bounds = GaussianEvaluator.from_quantizers(sc, q).subset_bounds()
        rows = [{"S_mask": s, "bound_bits": float(b)} for s, b in enumerate(bounds)]
        payload = {"sum_rate_bits": max(0.0, float(bounds.min())), "subset_bounds": rows}
    else:
        payload = {"sum_rate_bits": jd_sum_rate(sc, q)}
    emit.write_json(payload, args.out)


def cmd_extreme_points(args, sc, emit):
    if sc.num_relays > 6:
        raise CapacityError("extreme-points enumerates K! orderings; K <= 6 required")
    if args.rsum is not None and not math.isfinite(args.rsum):
        raise ScenarioError(f"--rsum must be a finite number, got {args.rsum!r}")
    aux = _quantizers(args, sc)
    lines = ["ordering,k,relay,C_tilde_bits"]
    for pi, point in extreme_points(sc, aux, args.rsum):
        label = "-".join(str(k) for k in pi)
        for pos, relay in enumerate(pi, start=1):
            lines.append(f"{label},{pos},{relay},{fmt_bits(point[relay - 1])}")
    emit.write_text("\n".join(lines) + "\n", args.out)


def cmd_swz_check(args, sc, emit):
    cmp_res = swz_equals_jd(sc, _quantizers(args, sc))
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
    analytic = GaussianEvaluator.from_quantizers(sc, q).info_term(pair)
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
    reports = run_suites(
        names,
        seed=args.seed,
        instances=args.instances,
        inject_fault=args.inject_fault,
    )
    payload = {
        "suites": [
            {
                "suite": r.suite,
                "cases": r.cases,
                "failures": r.failures,
                "worst_gap": r.worst_gap,
                "messages": list(r.messages),
            }
            for r in reports
        ],
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

    def command(name, func, help, kind="any"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=kind is not None, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output path (manifest lands next to it)")
        p.add_argument("--threads", type=int, choices=(1,), default=1,
                       help="accepted for existing command lines; ocran runs on one thread")
        p.set_defaults(func=func, kind=kind)
        return p

    p = command("region", cmd_region, "evaluate every (T, S) constraint bound")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--quantizers", help="JSON with Gaussian B matrices or discrete aux tables")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1",
                   help="constraint family for discrete scenarios")

    p = command("boundary", cmd_boundary, "two-user weighted-rate boundary sweep")
    p.add_argument("--quantizers")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1")
    p.add_argument("--points", type=int, default=33)

    p = command("optimize", cmd_optimize, "search quantizers for the best objective")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the discrete search's random restarts (Gaussian: unused)")
    p.add_argument("--objective", choices=("sum", "weighted"), default="sum")
    p.add_argument("--weights", help="comma-separated user weights (--objective weighted only)")
    p.add_argument("--restarts", type=int, default=4,
                   help="restarts of the discrete search (Gaussian: one certified solve)")
    p.add_argument("--iters", type=int, default=120,
                   help="sweep cap of the discrete search (Gaussian: one certified solve)")
    p.add_argument("--aux-sizes", help="comma-separated |U_k| for discrete scenarios")

    p = command("sumrate", cmd_sumrate, "sum-rate bound of a fixed quantizer choice")
    p.add_argument("--quantizers")

    p = command("extreme-points", cmd_extreme_points,
                "fronthaul-polytope extreme points per ordering", kind="discrete")
    p.add_argument("--quantizers")
    p.add_argument("--rsum", type=float, default=None,
                   help="target sum-rate (default: the joint-decoding sum-rate)")

    p = command("swz-check", cmd_swz_check,
                "successive Wyner-Ziv vs joint decoding sum-rate", kind="discrete")
    p.add_argument("--quantizers")

    p = command("mc-check", cmd_mc_check, "Monte Carlo vs analytic information term",
                kind="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantizers")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--t-mask", type=int, default=None)
    p.add_argument("--s-mask", type=int, default=0)

    p = command("codebook-check", cmd_codebook_check, "randomized-codebook marginal check",
                kind="discrete")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--user", type=int, default=1)
    p.add_argument("--blocklength", type=int, default=4)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100_000)

    p = command("verify", cmd_verify, "run the cross-module property suites", kind=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--inject-fault", choices=SUITE_NAMES, default=None,
                   help="perturb one suite's comparison (failure-path test hook)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sc = None
            if args.kind is not None:
                sc = load_scenario(args.scenario)
                if not isinstance(sc, KINDS[args.kind]):
                    raise ScenarioError(f"{args.command} needs a {args.kind} scenario")
            emit = _Emitter(args, sc)
            code = args.func(args, sc, emit) or EXIT_OK
            emit.finish()
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FileNotFoundError) as exc:  # ScenarioError, CapacityError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # any other error is internal: exit 3, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
