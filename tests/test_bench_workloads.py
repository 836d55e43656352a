"""Every benchmark op must parse with the CLI's parser, so a flag change that
would break the benchmark's fixed command lines fails here rather than in a
benchmark run; the discrete-k4 and gaussian-opt ops, and verify-small's
discrete optimize ops, must also pass the workload's own output checks at the
benchmark's size."""

import importlib
import pathlib
import sys

import pytest

from ocran.cli import build_parser, main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("workloads", "instances", "oracles")  # workloads imports its siblings


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_workload_op_parses(workloads, tmp_path):
    parser = build_parser()
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workload(1).prepare(str(workdir))
        assert ops, name
        for op in ops:
            args = parser.parse_args(list(op.argv))
            assert args.command == op.command, op.label


def test_discrete_k4_outputs_pass_the_workload_checks(workloads, tmp_path):
    # the benchmark's oracles and the seed references stored in references.json
    workload = workloads.WORKLOADS["discrete-k4"](1)
    ops = workload.prepare(str(tmp_path))
    assert len(ops) == 10
    for op in ops:
        assert main(list(op.argv)) == 0, op.label
    outputs = {op.label: {path: pathlib.Path(path).read_bytes() for path in op.outputs}
               for op in ops}
    assert workload.reference is not None
    assert workload.check(outputs) == {}


def test_gaussian_opt_outputs_pass_the_workload_checks(workloads, tmp_path):
    # guards the optimize objectives against the references, which they may
    # not fall below, as well as the region, sumrate and boundary oracles
    workload = workloads.WORKLOADS["gaussian-opt"](1)
    ops = workload.prepare(str(tmp_path))
    assert [op.command for op in ops].count("optimize") == 4
    for op in ops:
        assert main(list(op.argv)) == 0, op.label
    outputs = {op.label: {path: pathlib.Path(path).read_bytes() for path in op.outputs}
               for op in ops}
    assert workload.reference is not None
    assert workload.check(outputs) == {}


def test_verify_small_discrete_optimize_passes_the_workload_checks(workloads, tmp_path):
    # the discrete optimizer gate: objectives equal the sum-rate of the
    # returned tables and do not fall below the references
    workload = workloads.WORKLOADS["verify-small"](1)
    ops = [op for op in workload.prepare(str(tmp_path)) if op.command == "optimize"]
    assert len(ops) == 4
    for op in ops:
        assert main(list(op.argv)) == 0, op.label
    outputs = {op.label: {path: pathlib.Path(path).read_bytes() for path in op.outputs}
               for op in ops}
    assert workload.reference is not None
    assert workload.check(outputs) == {}
