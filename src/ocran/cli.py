"""Command-line interface.

Subcommands: region, optimize, sumrate, extreme-points, swz-check, mc-check,
codebook-check, verify, boundary.  Data goes to stdout or to the --out path;
warnings and the run manifest (when not written next to --out) go to stderr.

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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    CapacityError,
    CodebookEnsemble,
    RateRegion,
    ScenarioError,
    SubsetPair,
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
from .core import _complex_matrix_from_json, _complex_matrix_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class NumericFailure(RuntimeError):
    pass


def fmt_bits(x: float) -> str:
    """Fixed formatting for rate values in CSV output; never NaN."""
    if math.isnan(x):
        raise NumericFailure("NaN rate value")
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
            raise NumericFailure("NaN value in output")
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return x
    return x


@dataclass
class RunManifest:
    command: str
    scenario_path: str | None
    scenario_sha256: str | None
    seed: int | None
    version: str
    wall_time_s: float
    outputs: list[str]

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario_path": self.scenario_path,
            "scenario_sha256": self.scenario_sha256,
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
        }


class _Emitter:
    """Routes payloads to --out files or stdout and records the manifest."""

    def __init__(self, args, scenario=None):
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
        manifest = RunManifest(
            command=self.args.command,
            scenario_path=getattr(self.args, "scenario", None),
            scenario_sha256=self.scenario_hash,
            seed=getattr(self.args, "seed", None),
            version=__version__,
            wall_time_s=round(time.monotonic() - self.t0, 6),
            outputs=self.outputs,
        )
        text = json.dumps(manifest.as_dict(), sort_keys=True)
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


def _region_summary(region: RateRegion) -> dict:
    return {
        "num_constraints": len(region.constraints),
        "sum_rate_bound_bits": region.sum_rate_bound(),
        "per_user_max_bits": [
            region.max_user_rate(l) for l in range(1, region.num_users + 1)
        ],
    }


def _load_gaussian_quantizers(path: str, sc: GaussianScenario) -> QuantizerSetGaussian:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "B" not in doc:
        raise ScenarioError(f"{path}: quantizer file needs a 'B' field")
    mats = tuple(
        _complex_matrix_from_json(m, f"B[{k}]") for k, m in enumerate(doc["B"], start=1)
    )
    q = QuantizerSetGaussian(B=mats)
    q.validate(sc)
    return q


def _load_aux(args, sc: DiscreteScenario) -> AuxChannels:
    if args.quantizers:
        with open(args.quantizers, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "aux" not in doc:
            raise ScenarioError(f"{args.quantizers}: quantizer file needs an 'aux' field")
        aux = AuxChannels(tables=tuple(np.asarray(t, dtype=float) for t in doc["aux"]))
    else:
        aux = load_aux_tables(args.scenario)
        if aux is None:
            raise ScenarioError("aux channels required (in the scenario file or --quantizers)")
    aux.check_compatible(sc)
    return aux


def _scenario_region(args, sc, emit) -> RateRegion:
    if isinstance(sc, GaussianScenario):
        if not args.quantizers:
            raise ScenarioError("gaussian region needs --quantizers with the B matrices")
        q = _load_gaussian_quantizers(args.quantizers, sc)
        return region_gaussian(sc, q)
    aux = _load_aux(args, sc)
    return region_discrete(sc, aux, args.which)


def cmd_region(args) -> int:
    sc = load_scenario(args.scenario)
    emit = _Emitter(args, sc)
    region = _scenario_region(args, sc, emit)
    csv_text = _region_csv(region)
    summary = _region_summary(region)
    if args.out:
        emit.write_text(csv_text, args.out)
        emit.write_json(summary, args.out + ".summary.json")
    elif args.format == "json":
        emit.write_json(summary, None)
    else:
        emit.write_text(csv_text, None)
    emit.finish()
    return EXIT_OK


def cmd_boundary(args) -> int:
    sc = load_scenario(args.scenario)
    if sc.num_users != 2:
        raise ScenarioError("boundary sweeps need exactly 2 users")
    emit = _Emitter(args, sc)
    region = _scenario_region(args, sc, emit)
    lines = ["w1,w2,R1_bits,R2_bits"]
    if region.contains(np.zeros(2)):
        for t in np.linspace(0.0, 1.0, args.points):
            w = np.array([1.0 - t, t])
            _, rates = max_weighted_rate(region, w)
            rates = np.clip(rates, 0.0, None)
            rates[rates < 1e-9] = 0.0  # scrub LP epsilon dust
            if not region.contains(rates):
                raise NumericFailure("boundary point fell outside the region")
            lines.append(
                f"{fmt_bits(w[0])},{fmt_bits(w[1])},{fmt_bits(rates[0])},{fmt_bits(rates[1])}"
            )
    else:
        print("warning: region is empty (some bound is negative); no boundary points",
              file=sys.stderr)
    emit.write_text("\n".join(lines) + "\n", args.out)
    emit.finish()
    return EXIT_OK


def cmd_optimize(args) -> int:
    sc = load_scenario(args.scenario)
    emit = _Emitter(args, sc)
    weights = None
    if args.objective == "weighted":
        if not args.weights:
            raise ScenarioError("weighted objective needs --weights")
        weights = tuple(float(w) for w in args.weights.split(","))
        if len(weights) != sc.num_users:
            raise ScenarioError("need one weight per user")
    cfg = OptimizerConfig(
        objective="sum_rate" if args.objective == "sum" else "weighted",
        weights=weights,
        restarts=args.restarts,
        max_iters=args.iters,
        seed=args.seed,
    )
    if isinstance(sc, GaussianScenario):
        res = optimize_gaussian_quantizers(sc, cfg)
        payload = {
            "objective_bits": res.objective,
            "converged": res.converged,
            "trace_bits": list(res.trace),
            "active_constraints": [{"T_mask": t, "S_mask": s} for t, s in res.active],
            "quantizers": {"B": [_complex_matrix_to_json(b) for b in res.quantizers.B]},
        }
    else:
        if args.aux_sizes:
            sizes = tuple(int(v) for v in args.aux_sizes.split(","))
        else:
            sizes = tuple(n + 1 for n in sc.output_sizes)
        res = optimize_discrete_aux(sc, sizes, cfg)
        payload = {
            "objective_bits": res.objective,
            "converged": res.converged,
            "trace_bits": list(res.trace),
            "active_constraints": [{"S_mask": s} for s in res.active],
            "quantizers": {"aux": [t.tolist() for t in res.aux.tables]},
        }
    emit.write_json(payload, args.out)
    emit.finish()
    return EXIT_OK


def cmd_sumrate(args) -> int:
    sc = load_scenario(args.scenario)
    emit = _Emitter(args, sc)
    if isinstance(sc, GaussianScenario):
        if not args.quantizers:
            raise ScenarioError("gaussian sum-rate needs --quantizers")
        q = _load_gaussian_quantizers(args.quantizers, sc)
        bounds = GaussianEvaluator.from_quantizers(sc, q).subset_bounds()
        rows = [{"S_mask": s, "bound_bits": float(b)} for s, b in enumerate(bounds)]
        payload = {"sum_rate_bits": max(0.0, float(bounds.min())), "subset_bounds": rows}
    else:
        aux = _load_aux(args, sc)
        payload = {"sum_rate_bits": jd_sum_rate(sc, aux)}
    emit.write_json(payload, args.out)
    emit.finish()
    return EXIT_OK


def cmd_extreme_points(args) -> int:
    sc = load_scenario(args.scenario)
    if not isinstance(sc, DiscreteScenario):
        raise ScenarioError("extreme-points needs a discrete scenario")
    if sc.num_relays > 6:
        raise CapacityError("extreme-points enumerates K! orderings; K <= 6 required")
    if args.rsum is not None and not math.isfinite(args.rsum):
        raise ScenarioError(f"--rsum must be a finite number, got {args.rsum!r}")
    emit = _Emitter(args, sc)
    aux = _load_aux(args, sc)
    lines = ["ordering,k,relay,C_tilde_bits"]
    for pi, point in extreme_points(sc, aux, args.rsum):
        label = "-".join(str(k) for k in pi)
        for pos, relay in enumerate(pi, start=1):
            lines.append(f"{label},{pos},{relay},{fmt_bits(point[relay - 1])}")
    emit.write_text("\n".join(lines) + "\n", args.out)
    emit.finish()
    return EXIT_OK


def cmd_swz_check(args) -> int:
    sc = load_scenario(args.scenario)
    if not isinstance(sc, DiscreteScenario):
        raise ScenarioError("swz-check needs a discrete scenario")
    emit = _Emitter(args, sc)
    aux = _load_aux(args, sc)
    cmp_res = swz_equals_jd(sc, aux)
    payload = {
        "jd_sum_rate": cmp_res.jd_sum_rate,
        "best_ordering": list(cmp_res.best_ordering),
        "best_sum_rate": cmp_res.best_sum_rate,
        "gap": cmp_res.gap,
        "equal": cmp_res.equal,
    }
    emit.write_json(payload, args.out)
    emit.finish()
    return EXIT_OK


def cmd_mc_check(args) -> int:
    sc = load_scenario(args.scenario)
    if not isinstance(sc, GaussianScenario):
        raise ScenarioError("mc-check needs a gaussian scenario")
    emit = _Emitter(args, sc)
    if not args.quantizers:
        raise ScenarioError("mc-check needs --quantizers")
    q = _load_gaussian_quantizers(args.quantizers, sc)
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
    emit.finish()
    return EXIT_OK


def cmd_codebook_check(args) -> int:
    sc = load_scenario(args.scenario)
    if not isinstance(sc, DiscreteScenario):
        raise ScenarioError("codebook-check needs a discrete scenario")
    emit = _Emitter(args, sc)
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
    emit.finish()
    return EXIT_OK


def cmd_verify(args) -> int:
    emit = _Emitter(args)
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
    emit.finish()
    if not payload["passed"]:
        failed = ", ".join(r.suite for r in reports if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocran",
        description="Rate regions for cloud radio access networks with oblivious relays.",
    )
    parser.add_argument("--version", action="version", version=f"ocran {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required, help="scenario JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (manifest lands next to it)")
        p.add_argument("--threads", type=int, choices=(1,), default=1,
                       help="accepted for existing command lines; ocran runs on one thread")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("region", help="evaluate every (T, S) constraint bound")
    common(p)
    p.add_argument("--quantizers", help="JSON with Gaussian B matrices or discrete aux tables")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1",
                   help="constraint family for discrete scenarios")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("boundary", help="two-user weighted-rate boundary sweep")
    common(p)
    p.add_argument("--quantizers")
    p.add_argument("--which", choices=("thm1", "thm3"), default="thm1")
    p.add_argument("--points", type=int, default=33)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("optimize", help="search quantizers for the best objective")
    common(p)
    p.add_argument("--objective", choices=("sum", "weighted"), default="sum")
    p.add_argument("--weights", help="comma-separated user weights")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=120)
    p.add_argument("--aux-sizes", help="comma-separated |U_k| for discrete scenarios")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sumrate", help="sum-rate bound of a fixed quantizer choice")
    common(p)
    p.add_argument("--quantizers")
    p.set_defaults(func=cmd_sumrate)

    p = sub.add_parser("extreme-points", help="fronthaul-polytope extreme points per ordering")
    common(p)
    p.add_argument("--quantizers")
    p.add_argument("--rsum", type=float, default=None,
                   help="target sum-rate (default: the joint-decoding sum-rate)")
    p.set_defaults(func=cmd_extreme_points)

    p = sub.add_parser("swz-check", help="successive Wyner-Ziv vs joint decoding sum-rate")
    common(p)
    p.add_argument("--quantizers")
    p.set_defaults(func=cmd_swz_check)

    p = sub.add_parser("mc-check", help="Monte Carlo vs analytic information term")
    common(p)
    p.add_argument("--quantizers")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--t-mask", type=int, default=None)
    p.add_argument("--s-mask", type=int, default=0)
    p.set_defaults(func=cmd_mc_check)

    p = sub.add_parser("codebook-check", help="randomized-codebook marginal check")
    common(p)
    p.add_argument("--user", type=int, default=1)
    p.add_argument("--blocklength", type=int, default=4)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=cmd_codebook_check)

    p = sub.add_parser("verify", help="run the cross-module property suites")
    common(p, scenario_required=False)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--inject-fault", choices=SUITE_NAMES, default=None,
                   help="perturb one suite's comparison (failure-path test hook)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    import warnings

    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (ScenarioError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericFailure, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # any other error is internal: exit 3, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
