"""The benchmark workloads: their inputs, their op lists and their output checks.

A workload writes its seeded inputs into a directory and returns a list of
ops, each one ``ocran`` CLI call.  After the timed passes, ``check`` reads the
outputs of the first pass and returns, per op label, the reason that op's
output is wrong.  Ops that raise or exit non-zero are failures on their own
and are not checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np

import instances
import oracles

RATE_TOL = 1e-9  # bits; program outputs against oracles and stored references
LP_TOL = 1e-7  # bits; weighted-rate optimum found by the LP against the closed form
# The optimizer caps normalized quantizer eigenvalues at 1 - 1e-9, where
# -log2(1 - lambda) amplifies a 1e-16 eigenvalue error to about 1e-7 bits.
OPT_TOL = 1e-6

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Op:
    label: str  # unique within the workload
    command: str  # ocran subcommand; latencies are grouped by it
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # data files the op writes (run manifests aside)


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _op(workdir: str, label: str, command: str, args, out_ext: str, extra_outputs=()) -> Op:
    out = os.path.join(workdir, f"{label}.{out_ext}")
    argv = (command, *args, "--threads", "1", "--out", out)
    return Op(label, command, argv, (out,) + tuple(out + suffix for suffix in extra_outputs))


def _rows(text: bytes, header: str) -> list[list[str]]:
    lines = text.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _bits(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("NaN in output")
    return v


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    name = ""
    why = ""  # one sentence, copied into BENCHMARK.json
    WARMUP = ""  # command of the warm-up op
    PASS_S = 1.0  # one untraced pass in reference seconds, as measured; sets the pass count

    def __init__(self, seed: int):
        self.seed = seed
        with open(REFERENCES, "r", encoding="utf-8") as fh:
            self.reference = json.load(fh).get(self.name, {}).get(str(seed))

    def prepare(self, workdir: str) -> list[Op]:
        """Write the inputs under workdir; return the op list in run order."""
        raise NotImplementedError

    def warmup(self, ops: list[Op]) -> Op:
        """The set-up's warm-up op: the first op of the WARMUP command."""
        return next(op for op in ops if op.command == self.WARMUP)

    def check(self, outputs: dict[str, dict[str, bytes]]) -> dict[str, str]:
        """Reasons keyed by op label; outputs maps label -> path -> bytes."""
        problems: dict[str, str] = {}
        for label, files in outputs.items():
            try:
                self.check_one(label, files, outputs)
            except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
                problems[label] = f"{type(exc).__name__}: {exc}"
        return problems

    def check_one(self, label: str, files: dict[str, bytes], outputs) -> None:
        raise NotImplementedError

    def facts(self, outputs: dict[str, dict[str, bytes]]) -> dict:
        """Result values the run reports next to its timings: the mean
        objective of the optimize ops."""
        bits = [json.loads(_main_output(files))["objective_bits"]
                for label, files in outputs.items() if label.endswith(".optimize")]
        return {"optimize_bits": float(np.mean(bits))} if bits else {}

    def reference_values(self, outputs: dict[str, dict[str, bytes]]) -> dict:
        """The values stored in references.json for this seed."""
        return {}

    def _expect_reference(self, key: str, value, tol: float = RATE_TOL,
                          at_least: bool = False) -> None:
        if self.reference is None or key not in self.reference:
            return
        ref = self.reference[key]
        if isinstance(ref, list):
            if len(ref) != len(value) or any(not _close(a, b, tol) for a, b in zip(value, ref)):
                raise ArithmeticError(f"{key} differs from the stored reference")
        elif at_least:
            if value < ref - tol:
                raise ArithmeticError(f"{key} = {value!r} fell below the reference {ref!r}")
        elif not _close(value, ref, tol):
            raise ArithmeticError(f"{key} = {value!r} differs from the reference {ref!r}")


def _main_output(files: dict[str, bytes]) -> bytes:
    """The file written to the op's --out path."""
    return next(iter(files.values()))


def _summary(files: dict[str, bytes]) -> dict:
    """The JSON summary ``region`` writes next to its CSV."""
    (data,) = [v for k, v in files.items() if k.endswith(".summary.json")]
    return json.loads(data)


# ---------------------------------------------------------------------------
# discrete-k4
# ---------------------------------------------------------------------------


class DiscreteK4(Workload):
    name = "discrete-k4"
    why = ("a few calls on one 5.9e5-entry joint, larger than L2, where discrete and sumrate "
           "do the work; Gaussian layers idle, so Gaussian-side changes should not move it")
    WARMUP = "sumrate"
    PASS_S = 7.0
    INSTANCES = 2  # even index factorizing, odd index correlated
    SHAPE = dict(x_sizes=(3, 3), y_sizes=(4, 4, 4, 4), u_sizes=(4, 4, 4, 4))

    def prepare(self, workdir: str) -> list[Op]:
        self.inst = {}
        self.r_sum = {}
        ops = []
        for i in range(self.INSTANCES):
            inst = instances.discrete_instance(
                instances.instance_rng(self.seed, 1, i), i % 2 == 0, **self.SHAPE)
            tag = f"k4-{i}"
            self.inst[tag] = inst
            files = ("--scenario", _write(os.path.join(workdir, f"{tag}.scenario.json"),
                                          inst.scenario),
                     "--quantizers", _write(os.path.join(workdir, f"{tag}.quantizers.json"),
                                            inst.quantizers))
            ops += [
                _op(workdir, f"{tag}.thm1", "region", files + ("--which", "thm1"), "csv",
                    (".summary.json",)),
                _op(workdir, f"{tag}.thm3", "region", files + ("--which", "thm3"), "csv",
                    (".summary.json",)),
                _op(workdir, f"{tag}.sumrate", "sumrate", files, "json"),
                _op(workdir, f"{tag}.swz", "swz-check", files, "json"),
                _op(workdir, f"{tag}.extreme", "extreme-points", files, "csv"),
            ]
        return ops

    def _r_sum(self, tag: str) -> float:
        if tag not in self.r_sum:
            inst = self.inst[tag]
            self.r_sum[tag] = oracles.jd_sum_rate(inst, inst.scenario["fronthaul"])
        return self.r_sum[tag]

    @staticmethod
    def _region(files) -> tuple[list[float], dict]:
        rows = _rows(_main_output(files), "T_mask,S_mask,bound_bits")
        summary = _summary(files)
        return [_bits(r[2]) for r in rows], summary

    def check_one(self, label, files, outputs):
        tag, kind = label.split(".")
        inst = self.inst[tag]
        r_sum = self._r_sum(tag)
        if kind in ("thm1", "thm3"):
            bounds, summary = self._region(files)
            if len(bounds) != 3 * 16 or summary["num_constraints"] != len(bounds):
                raise ValueError(f"expected 48 constraints, got {len(bounds)}")
            if kind == "thm3" and not _close(summary["sum_rate_bound_bits"], r_sum, RATE_TOL):
                raise ArithmeticError("thm3 sum-rate bound is not the joint-decoding sum-rate")
            other = outputs.get(f"{tag}.thm3")
            if kind == "thm1" and inst.factorizing and other is not None:
                thm3, _ = self._region(other)
                gap = max(abs(a - b) for a, b in zip(bounds, thm3))
                if gap > RATE_TOL:
                    raise ArithmeticError(f"thm1 and thm3 differ by {gap:.3e} (factorizing)")
            self._expect_reference(label, bounds)
        elif kind == "sumrate":
            value = json.loads(_main_output(files))["sum_rate_bits"]
            if not _close(value, r_sum, RATE_TOL):
                raise ArithmeticError(f"sum-rate {value!r} differs from the oracle {r_sum!r}")
            self._expect_reference(label, value)
        elif kind == "swz":
            doc = json.loads(_main_output(files))
            if not doc["gap"] <= RATE_TOL or doc["equal"] is not True:
                raise ArithmeticError(f"successive Wyner-Ziv gap {doc['gap']!r} exceeds 1e-9")
            if not _close(doc["jd_sum_rate"], r_sum, RATE_TOL):
                raise ArithmeticError("swz-check joint-decoding sum-rate differs from the oracle")
            self._expect_reference(label, doc["jd_sum_rate"])
        elif kind == "extreme":
            rows = _rows(_main_output(files), "ordering,k,relay,C_tilde_bits")
            target = oracles.g_plus_all(inst, r_sum)
            orderings = {}
            for ordering, pos, relay, value in rows:
                orderings.setdefault(ordering, []).append((int(pos), int(relay), _bits(value)))
            expected = {"-".join(map(str, p)) for p in permutations(range(1, 5))}
            if set(orderings) != expected:
                raise ValueError("extreme points do not cover the 24 orderings")
            for ordering, entries in orderings.items():
                relays = [int(k) for k in ordering.split("-")]
                if [(p, r) for p, r, _ in entries] != list(enumerate(relays, start=1)):
                    raise ValueError(f"ordering {ordering}: rows out of order")
                if min(v for _, _, v in entries) < 0:
                    raise ArithmeticError(f"ordering {ordering}: negative fronthaul")
                total = sum(v for _, _, v in entries)
                if not _close(total, target, RATE_TOL):
                    raise ArithmeticError(
                        f"ordering {ordering} telescopes to {total!r}, not g+(all) = {target!r}")
        else:
            raise KeyError(label)

    def reference_values(self, outputs):
        refs = {}
        for label, files in outputs.items():
            tag, kind = label.split(".")
            if kind in ("thm1", "thm3"):
                refs[label] = self._region(files)[0]
            elif kind == "sumrate":
                refs[label] = json.loads(_main_output(files))["sum_rate_bits"]
            elif kind == "swz":
                refs[label] = json.loads(_main_output(files))["jd_sum_rate"]
        return refs


# ---------------------------------------------------------------------------
# gaussian-opt
# ---------------------------------------------------------------------------


class GaussianOpt(Workload):
    name = "gaussian-opt"
    why = ("region/sumrate at L=4 K=6, boundary and optimize at L=2 K=3: gaussian, linalg and "
           "optimize do the work, soft-min polish most; discrete layers idle")
    WARMUP = "sumrate"
    PASS_S = 9.0
    BIG = 2  # region and sumrate at L=4, K=6
    # gaussian_instance regions are never empty; an empty one would skip
    # boundary's LP
    BOUNDARY = 2  # L=2, K=3
    OPTIMIZE = 4  # L=2, K=3
    OPT_ARGS = ("--restarts", "2", "--iters", "10", "--seed", "1")

    def prepare(self, workdir):
        self.docs = {}
        ops = []

        def files(tag, inst, with_quantizers=True):
            self.docs[tag] = inst
            args = ("--scenario", _write(os.path.join(workdir, f"{tag}.scenario.json"),
                                         inst.scenario))
            if with_quantizers:
                args += ("--quantizers", _write(os.path.join(workdir, f"{tag}.quantizers.json"),
                                                inst.quantizers))
            return args

        for i in range(self.BIG):
            tag = f"big-{i}"
            inst = instances.gaussian_instance(instances.instance_rng(self.seed, 2, i), 4, 6)
            args = files(tag, inst)
            ops += [_op(workdir, f"{tag}.region", "region", args, "csv", (".summary.json",)),
                    _op(workdir, f"{tag}.sumrate", "sumrate", args, "json")]
        for i in range(self.BOUNDARY):
            tag = f"bnd-{i}"
            inst = instances.gaussian_instance(instances.instance_rng(self.seed, 3, i), 2, 3)
            args = files(tag, inst)
            ops.append(_op(workdir, f"{tag}.boundary", "boundary", args, "csv"))
        for i in range(self.OPTIMIZE):
            tag = f"opt-{i}"
            args = files(tag, instances.optimize_instance(instances.instance_rng(self.seed, 4, i)),
                         with_quantizers=False)
            ops.append(_op(workdir, f"{tag}.optimize", "optimize", args + self.OPT_ARGS, "json"))
        return ops

    def _bounds(self, tag: str, b_mats) -> oracles.GaussianBounds:
        return oracles.GaussianBounds(self.docs[tag].scenario, b_mats)

    def _given(self, tag: str) -> oracles.GaussianBounds:
        given = self.docs[tag].quantizers["B"]
        return self._bounds(tag, [oracles.complex_matrix(b) for b in given])

    def check_one(self, label, files, outputs):
        tag, kind = label.split(".")
        if kind == "region":
            oracle = self._given(tag)
            rows = _rows(_main_output(files), "T_mask,S_mask,bound_bits")
            if len(rows) != 15 * 64:
                raise ValueError(f"expected 960 constraints, got {len(rows)}")
            for t_mask, s_mask, value in rows:
                if not _close(_bits(value), oracle.bound(int(t_mask), int(s_mask)), RATE_TOL):
                    raise ArithmeticError(f"bound (T={t_mask}, S={s_mask}) differs from the oracle")
            summary = _summary(files)
            if not _close(summary["sum_rate_bound_bits"], oracle.sum_rate(), RATE_TOL):
                raise ArithmeticError("region sum-rate bound differs from the oracle")
        elif kind == "sumrate":
            oracle = self._given(tag)
            doc = json.loads(_main_output(files))
            bounds = [row["bound_bits"] for row in doc["subset_bounds"]]
            if [row["S_mask"] for row in doc["subset_bounds"]] != list(range(64)):
                raise ValueError("subset bounds are not the 64 relay subsets in order")
            for s_mask, value in enumerate(bounds):
                if not _close(value, oracle.bound(15, s_mask), RATE_TOL):
                    raise ArithmeticError(f"subset bound S={s_mask} differs from the oracle")
            if not _close(doc["sum_rate_bits"], oracle.sum_rate(), RATE_TOL):
                raise ArithmeticError("sum-rate differs from the oracle")
            self._expect_reference(label, doc["sum_rate_bits"])
        elif kind == "boundary":
            oracle = self._given(tag)
            rows = _rows(_main_output(files), "w1,w2,R1_bits,R2_bits")
            if len(rows) != 33:
                raise ValueError(f"expected 33 boundary points, got {len(rows)}")
            a, b, c = oracle.two_user_caps()
            for w1, w2, r1, r2 in rows:
                w1, w2, r1, r2 = map(_bits, (w1, w2, r1, r2))
                if min(r1, r2) < 0 or r1 > a + RATE_TOL or r2 > b + RATE_TOL \
                        or r1 + r2 > c + RATE_TOL:
                    raise ArithmeticError(f"boundary point ({r1!r}, {r2!r}) is outside the region")
                if w1 * r1 + w2 * r2 < oracle.max_weighted(w1, w2) - LP_TOL:
                    raise ArithmeticError(f"boundary point at w = ({w1}, {w2}) is not optimal")
        elif kind == "optimize":
            doc = json.loads(_main_output(files))
            value = doc["objective_bits"]
            b_mats = [oracles.complex_matrix(b) for b in doc["quantizers"]["B"]]
            oracle = self._bounds(tag, b_mats)
            if min(float(lam.min()) for lam in oracle.normalized_eigs) < -1e-10 or \
                    max(float(lam.max()) for lam in oracle.normalized_eigs) >= 1.0:
                raise ArithmeticError("returned quantizers are infeasible")
            if not (value > 0 and _close(value, oracle.sum_rate(), OPT_TOL)):
                raise ArithmeticError(
                    f"objective {value!r} is not the sum-rate {oracle.sum_rate()!r} of the "
                    "returned quantizers")
            self._expect_reference(label, value, at_least=True)
        else:
            raise KeyError(label)

    def reference_values(self, outputs):
        refs = {}
        for label, files in outputs.items():
            if label.endswith(".sumrate"):
                refs[label] = json.loads(_main_output(files))["sum_rate_bits"]
            elif label.endswith(".optimize"):
                refs[label] = json.loads(_main_output(files))["objective_bits"]
        return refs


# ---------------------------------------------------------------------------
# verify-small
# ---------------------------------------------------------------------------


class VerifySmall(Workload):
    name = "verify-small"
    why = ("verify at its acceptance counts plus a small discrete optimize: thousands of tiny "
           "instances, so per-call overhead dominates, not FLOPs")
    WARMUP = "optimize"
    PASS_S = 14.0
    SUITES = {"class_equivalence": 100, "swz": 50, "mc": 10, "codebook": 3, "matrix_lemmas": 10_000}
    OPTIMIZE = 4  # L=2, K=2, |X_l| = 2, |Y_k| = 3; even index factorizing
    OPT_ARGS = ("--restarts", "4", "--iters", "120", "--seed", "1")

    def prepare(self, workdir):
        self.inst = {}
        ops = [_op(workdir, "verify", "verify", ("--seed", "0"), "json")]
        for i in range(self.OPTIMIZE):
            tag = f"dopt-{i}"
            inst = instances.discrete_instance(
                instances.instance_rng(self.seed, 5, i), i % 2 == 0,
                x_sizes=(2, 2), y_sizes=(3, 3), u_sizes=(3, 3))
            self.inst[tag] = inst
            path = _write(os.path.join(workdir, f"{tag}.scenario.json"), inst.scenario)
            ops.append(_op(workdir, f"{tag}.optimize", "optimize",
                           ("--scenario", path) + self.OPT_ARGS, "json"))
        return ops

    def check_one(self, label, files, outputs):
        doc = json.loads(_main_output(files))
        if label == "verify":
            cases = {s["suite"]: (s["cases"], s["failures"]) for s in doc["suites"]}
            expected = {name: (n, 0) for name, n in self.SUITES.items()}
            if cases != expected or doc["passed"] is not True:
                raise ArithmeticError(f"verify failed a suite or ran another size: {cases}")
            return
        tag, _ = label.split(".")
        inst = self.inst[tag]
        tables = [np.asarray(t, dtype=float)[0] for t in doc["quantizers"]["aux"]]
        if any(np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12 for t in tables):
            raise ArithmeticError("returned quantization tables are not conditional pmfs")
        value = doc["objective_bits"]
        expected = oracles.jd_sum_rate(inst, inst.scenario["fronthaul"], aux=tables)
        if not _close(value, expected, RATE_TOL):
            raise ArithmeticError(f"objective {value!r} is not the sum-rate {expected!r} "
                                  "of the returned tables")
        self._expect_reference(label, value, at_least=True)

    def reference_values(self, outputs):
        return {label: json.loads(_main_output(files))["objective_bits"]
                for label, files in outputs.items() if label.endswith(".optimize")}


WORKLOADS = {w.name: w for w in (DiscreteK4, GaussianOpt, VerifySmall)}
