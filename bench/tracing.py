"""Span tracing of the ocran modules from outside the program.

``Tracer.install`` wraps the public functions and methods listed in LAYERS
and rebinds each wrapped name in every ``ocran`` module that imported it (so
``sumrate.build_joint`` and ``cli.region_gaussian`` are traced as well as
``discrete.build_joint``).  ``Tracer.uninstall`` puts the originals back,
so untraced passes run the unmodified program.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``), the index of the enclosing span, and the op id shared
by every span of one op.  A call made directly inside a span of the same
name is folded into it (``write_json`` calling ``write_text`` is one
``cli.emit``).  Spans stay in memory, in flat integer columns, until the run
writes them out.  Self time is a span's duration minus the durations of its
child spans; the program is run with one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _joint_bytes(args, kwargs, result) -> int:
    return result.tensor.nbytes


def _marginal_bytes(args, kwargs, result) -> int:
    # bytes read by the reduction; a marginal on every axis is the tensor itself
    joint = args[0]
    return joint.tensor.nbytes if result is not joint.tensor else 0


def _mc_bytes(args, kwargs, result) -> int:
    # complex128 input draws, noise draws and received samples per sample
    sc, q, pair = args[:3]
    samples = kwargs["samples"] if "samples" in kwargs else args[3]
    d_t = sum(sc.user_antennas[l - 1] for l in pair.users)
    d_u = sum(sc.relay_antennas[k - 1] for k in pair.relays_complement(sc.num_relays))
    return samples * 16 * (d_t + 2 * d_u)


# (span name, module, attribute path, bytes-computed function or None)
LAYERS = (
    ("cli.main", "ocran.cli", "main", None),
    ("cli.emit", "ocran.cli", "_Emitter.write_text", None),
    ("cli.emit", "ocran.cli", "_Emitter.write_json", None),
    ("cli.emit", "ocran.cli", "_Emitter.finish", None),
    ("core.load_scenario", "ocran.core", "load_scenario", None),
    ("core.scenario_sha256", "ocran.core", "scenario_sha256", None),
    ("core.enumerate_constraint_pairs", "ocran.core", "enumerate_constraint_pairs", None),
    ("core.max_weighted_rate", "ocran.core", "max_weighted_rate", None),
    ("core.sample_codebook_marginal", "ocran.core", "sample_codebook_marginal", None),
    ("discrete.region_discrete", "ocran.discrete", "region_discrete", None),
    ("discrete.build_joint", "ocran.discrete", "build_joint", _joint_bytes),
    ("discrete.marginal", "ocran.discrete", "JointPmf.marginal", _marginal_bytes),
    ("discrete.entropy", "ocran.discrete", "JointPmf.entropy", None),
    ("discrete.cmi", "ocran.discrete", "cmi", None),
    ("discrete.check_conditional_independence", "ocran.discrete",
     "check_conditional_independence", None),
    ("sumrate.jd_subset_bounds", "ocran.sumrate", "jd_subset_bounds", None),
    ("sumrate.jd_sum_rate", "ocran.sumrate", "jd_sum_rate", None),
    ("sumrate.extreme_point", "ocran.sumrate", "extreme_point", None),
    ("sumrate.swz_dominating_point", "ocran.sumrate", "swz_dominating_point", None),
    ("sumrate.swz_equals_jd", "ocran.sumrate", "swz_equals_jd", None),
    ("gaussian.region_gaussian", "ocran.gaussian", "region_gaussian", None),
    ("gaussian.rate_constraint_gaussian", "ocran.gaussian", "rate_constraint_gaussian", None),
    ("gaussian.fronthaul_mi", "ocran.gaussian", "fronthaul_mi", None),
    ("gaussian.validate", "ocran.gaussian", "QuantizerSetGaussian.validate", None),
    ("gaussian.matrix_lemma_check", "ocran.gaussian", "matrix_lemma_check", None),
    ("linalg.require_hermitian", "ocran._linalg", "require_hermitian", None),
    ("linalg.psd_sqrt", "ocran._linalg", "psd_sqrt", None),
    ("linalg.logdet2", "ocran._linalg", "logdet2", None),
    ("linalg.clip_eigenvalues", "ocran._linalg", "clip_eigenvalues", None),
    ("optimize.optimize_gaussian_quantizers", "ocran.optimize",
     "optimize_gaussian_quantizers", None),
    ("optimize.optimize_discrete_aux", "ocran.optimize", "optimize_discrete_aux", None),
    ("optimize.coordinate_search", "ocran.optimize", "_coordinate_search", None),
    ("optimize.softmin_polish", "ocran.optimize", "_softmin_polish", None),
    ("optimize.project", "ocran.optimize", "_GaussianObjective.project", None),
    ("optimize.branch_values", "ocran.optimize", "_GaussianObjective.branch_values", None),
    ("optimize.branch_gradient", "ocran.optimize", "_GaussianObjective._branch_gradient", None),
    ("optimize.softmin", "ocran.optimize", "_GaussianObjective.softmin", None),
    ("optimize.mc_mutual_information", "ocran.optimize", "mc_mutual_information", _mc_bytes),
    ("verify.suite_class_equivalence", "ocran.verify", "suite_class_equivalence", None),
    ("verify.suite_swz", "ocran.verify", "suite_swz", None),
    ("verify.suite_mc", "ocran.verify", "suite_mc", None),
    ("verify.suite_codebook", "ocran.verify", "suite_codebook", None),
    ("verify.suite_matrix_lemmas", "ocran.verify", "suite_matrix_lemmas", None),
)

# layer names; "linalg" is the module ocran._linalg (metric names may not
# start with "_")
MODULES = ("cli", "core", "discrete", "sumrate", "gaussian", "linalg", "optimize", "verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = sorted({name for name, *_ in LAYERS})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.nbytes = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for span_name, module_name, path, nbytes in LAYERS:
            module = sys.modules[module_name]
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(span_name, original, nbytes))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, nbytes)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "ocran" or name.startswith("ocran.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, fn, nbytes):
        nid = self._ids[span_name]
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends, parents, ops, sizes = (
            self.name, self.start, self.end, self.parent, self.op, self.nbytes)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            sizes.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if nbytes is not None:
                sizes[idx] = nbytes(args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        # copies: a live view would keep the arrays from growing
        return {
            key: np.frombuffer(col, dtype=np.int64).copy()
            for key, col in (("name", self.name), ("start_ns", self.start),
                             ("end_ns", self.end), ("parent", self.parent),
                             ("op", self.op), ("bytes_computed", self.nbytes))
        }

    def save(self, path: str) -> None:
        """Write every span as numpy columns; ``names`` maps the name ids."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_totals(self, op_ids) -> dict[str, dict[str, float]]:
        """Per span name over the given ops: calls, self ms, total ms and
        bytes computed."""
        cols = self.columns()
        dur = cols["end_ns"] - cols["start_ns"]
        parent = cols["parent"]
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        keep = np.isin(cols["op"], np.asarray(list(op_ids), dtype=np.int64))
        n = len(self.names)
        name = cols["name"][keep]
        calls = np.bincount(name, minlength=n)
        self_ms = np.bincount(name, weights=self_ns[keep], minlength=n) / 1e6
        total_ms = np.bincount(name, weights=dur[keep], minlength=n) / 1e6
        mb = np.bincount(name, weights=cols["bytes_computed"][keep], minlength=n) / 1e6
        return {
            nm: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                 "total_ms": float(total_ms[i]), "mb_computed": float(mb[i])}
            for i, nm in enumerate(self.names)
        }
