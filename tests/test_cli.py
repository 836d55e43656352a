import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ocran
from ocran.cli import build_parser, main
from ocran.core import save_scenario
from ocran.verify import random_aux, random_factorizing_scenario


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def golden_gaussian_doc(fronthaul=2.0, snr=1.0, users=1):
    return {
        "schema": 1,
        "users": users,
        "relays": 1,
        "fronthaul": [fronthaul],
        "time_share": [1.0],
        "channel": {
            "kind": "gaussian",
            "H": [[[[[1.0, 0.0]]] for _ in range(users)]],
            "Sigma": [[[[1.0, 0.0]]]],
            "Kin": [[[[snr, 0.0]]] for _ in range(users)],
            "power": [snr] * users,
        },
    }


def discrete_doc(with_aux=True, factorizing=True):
    if factorizing:
        channel = [0.81, 0.09, 0.09, 0.01, 0.01, 0.09, 0.09, 0.81]
    else:
        # shared noise: y1 = y2 = x xor z, wire axes (Y1, Y2, X1)
        channel = [0.75, 0.25, 0.0, 0.0, 0.0, 0.0, 0.25, 0.75]
    doc = {
        "schema": 1,
        "users": 1,
        "relays": 2,
        "fronthaul": [0.7, 0.7],
        "time_share": [1.0],
        "channel": {
            "kind": "discrete",
            "alphabets": {"X": [2], "Y": [2, 2]},
            "px": [[[0.5, 0.5]]],
            "channel": channel,
        },
    }
    if with_aux:
        doc["channel"]["aux"] = [
            [[[0.9, 0.1], [0.1, 0.9]]],
            [[[0.8, 0.2], [0.2, 0.8]]],
        ]
    return doc


class TestRegionCommand:
    def test_golden_csv_to_stdout(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(["region", "--scenario", scenario, "--quantizers", quant])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T_mask,S_mask,bound_bits"
        assert len(lines) == 3
        bounds = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
        assert bounds[("1", "0")] == pytest.approx(math.log2(1.5), abs=1e-9)
        assert bounds[("1", "1")] == pytest.approx(1.0, abs=1e-9)

    def test_out_files_and_manifest(self, tmp_path):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        out = tmp_path / "region.csv"
        rc = main(
            ["region", "--scenario", scenario, "--quantizers", quant, "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        summary = json.loads((tmp_path / "region.csv.summary.json").read_text())
        assert summary["sum_rate_bound_bits"] == pytest.approx(math.log2(1.5), abs=1e-9)
        manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
        assert manifest["command"] == "region"
        assert manifest["scenario_sha256"]
        assert str(out) in manifest["outputs"]

    def test_reproducible_output_bytes(self, tmp_path):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["region", "--scenario", scenario, "--quantizers", quant, "--out", str(a)])
        main(["region", "--scenario", scenario, "--quantizers", quant, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == (
            tmp_path / "b.csv.summary.json"
        ).read_bytes()

    def test_missing_aux_is_validation_error(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc(with_aux=False))
        rc = main(["region", "--scenario", scenario])
        assert rc == 2
        assert "aux channels required" in capsys.readouterr().err

    def test_thm1_on_correlated_channel_warns_but_succeeds(self, tmp_path, capsys):
        scenario = write_json(
            tmp_path / "sc.json", discrete_doc(with_aux=True, factorizing=False)
        )
        rc = main(["region", "--scenario", scenario, "--which", "thm1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" in captured.err.lower()
        assert "conditionally independent" in captured.err

    def test_minus_inf_literal(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[1.0, 0.0]]]]})
        rc = main(["region", "--scenario", scenario, "--quantizers", quant])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-inf" in out
        assert "nan" not in out.lower()

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        doc = golden_gaussian_doc()
        doc["time_share"] = [0.9]
        scenario = write_json(tmp_path / "sc.json", doc)
        rc = main(["region", "--scenario", scenario])
        assert rc == 2
        assert "time_share" in capsys.readouterr().err

    def test_json_summary_to_stdout(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(
            ["region", "--scenario", scenario, "--quantizers", quant, "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_constraints"] == 2


NONFINITE_CASES = [
    # (channel kind, file holding the entry, path to the entry, value)
    ("gaussian", "scenario", ("fronthaul", 0), math.nan),
    ("gaussian", "scenario", ("fronthaul", 0), math.inf),
    ("gaussian", "scenario", ("time_share", 0), math.nan),
    ("gaussian", "scenario", ("channel", "power", 0), math.nan),
    ("gaussian", "scenario", ("channel", "power", 0), math.inf),
    ("gaussian", "scenario", ("channel", "H", 0, 0, 0, 0, 0), math.nan),
    ("gaussian", "scenario", ("channel", "Sigma", 0, 0, 0, 1), math.nan),
    ("gaussian", "scenario", ("channel", "Kin", 0, 0, 0, 0), math.nan),
    ("gaussian", "quantizers", ("B", 0, 0, 0, 0), math.nan),
    ("discrete", "scenario", ("channel", "px", 0, 0, 0), math.nan),
    ("discrete", "scenario", ("channel", "channel", 0), math.nan),
    ("discrete", "quantizers", ("aux", 0, 0, 0, 0), math.nan),
]


@pytest.mark.parametrize(
    "kind,where,path,value",
    NONFINITE_CASES,
    ids=[f"{k}-{w}-{'.'.join(map(str, p))}-{v}" for k, w, p, v in NONFINITE_CASES],
)
def test_nonfinite_input_is_validation_error(tmp_path, capsys, kind, where, path, value):
    if kind == "gaussian":
        docs = {"scenario": golden_gaussian_doc(), "quantizers": {"B": [[[[0.5, 0.0]]]]}}
        command = "region"
    else:
        aux = discrete_doc()["channel"]["aux"]
        docs = {"scenario": discrete_doc(with_aux=False), "quantizers": {"aux": aux}}
        command = "sumrate"
    entry = docs[where]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    scenario = write_json(tmp_path / "sc.json", docs["scenario"])
    quant = write_json(tmp_path / "q.json", docs["quantizers"])
    out = tmp_path / "out.data"
    rc = main([command, "--scenario", scenario, "--quantizers", quant, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_extreme_points_nonfinite_rsum_is_validation_error(tmp_path, capsys, value):
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "ext.csv"
    rc = main(["extreme-points", "--scenario", scenario, "--rsum", value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "--rsum" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.65", "1e17"])
def test_extreme_points_above_the_channel_information_exit_2(tmp_path, capsys, value):
    # I(U; X | Q) = 0.3457 bits here, so the fronthaul polytope is empty
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "ext.csv"
    rc = main(["extreme-points", "--scenario", scenario, "--rsum", value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "fronthaul polytope is empty" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e6"])
def test_codebook_check_unusable_rate_is_validation_error(tmp_path, capsys, value):
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "cb.json"
    rc = main(["codebook-check", "--scenario", scenario, "--rate", value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "rate" in err or "codewords" in err


class TestBoundaryCommand:
    def _two_user_doc(self, fronthaul=1.0):
        return {
            "schema": 1,
            "users": 2,
            "relays": 1,
            "fronthaul": [fronthaul],
            "time_share": [1.0],
            "channel": {
                "kind": "gaussian",
                "H": [[[[[1.0, 0.0]]], [[[1.0, 0.0]]]]],
                "Sigma": [[[[1.0, 0.0]]]],
                "Kin": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]],
                "power": [1.0, 1.0],
            },
        }

    def test_symmetric_scenario_gives_symmetric_boundary(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(
            ["boundary", "--scenario", scenario, "--quantizers", quant, "--points", "21"]
        )
        assert rc == 0
        rows = [
            tuple(float(v) for v in line.split(","))
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        ]
        assert len(rows) == 21
        by_weight = {round(r[0], 9): (r[2], r[3]) for r in rows}
        for w1, (r1, r2) in by_weight.items():
            mirrored = by_weight[round(1.0 - w1, 9)]
            assert r1 == pytest.approx(mirrored[1], abs=1e-6)
            assert r2 == pytest.approx(mirrored[0], abs=1e-6)

    def test_endpoints_match_per_user_capacities(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        main(["region", "--scenario", scenario, "--quantizers", quant, "--format", "json"])
        summary = json.loads(capsys.readouterr().out)
        rc = main(
            ["boundary", "--scenario", scenario, "--quantizers", quant, "--points", "5"]
        )
        assert rc == 0
        rows = [
            tuple(float(v) for v in line.split(","))
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        ]
        first, last = rows[0], rows[-1]
        assert first[2] == pytest.approx(summary["per_user_max_bits"][0], abs=1e-6)
        assert last[3] == pytest.approx(summary["per_user_max_bits"][1], abs=1e-6)

    def test_zero_fronthaul_single_point(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc(fronthaul=0.0))
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.0, 0.0]]]]})
        rc = main(
            ["boundary", "--scenario", scenario, "--quantizers", quant, "--points", "7"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(line.split(",")[2:] == ["0", "0"] for line in rows)

    def test_wrong_user_count(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        rc = main(["boundary", "--scenario", scenario])
        assert rc == 2


class TestOptimizeCommand:
    def test_gaussian_golden(self, tmp_path):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(fronthaul=1.0))
        out = tmp_path / "opt.json"
        rc = main(
            [
                "optimize",
                "--scenario",
                scenario,
                "--restarts",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        expected = math.log2(1.0 + 1.0 * (2.0 - 1.0) / (2.0 + 1.0))
        assert payload["objective_bits"] == pytest.approx(expected, abs=1e-9)
        assert payload["converged"] is True
        assert 0.0 <= payload["gap_bits"] <= 1e-6
        assert payload["upper_bound_bits"] == pytest.approx(
            payload["objective_bits"] + payload["gap_bits"], abs=1e-15)
        assert payload["trace_bits"] == sorted(payload["trace_bits"])
        assert payload["quantizers"]["B"]

    def test_uncertified_gaussian_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        from ocran import optimize

        monkeypatch.setattr(optimize, "GAP_TOL", -1.0)
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(fronthaul=1.0))
        out = tmp_path / "opt.json"
        for objective in (["--objective", "sum"], ["--objective", "weighted", "--weights", "1"]):
            assert main(["optimize", "--scenario", scenario, *objective, "--out", str(out)]) == 3
            assert "not certified" in capsys.readouterr().err
            assert not out.exists()

    def test_weighted_is_certified_and_discrete_is_not(self, tmp_path):
        gaussian = write_json(tmp_path / "g.json", golden_gaussian_doc(fronthaul=1.0, users=2))
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", gaussian, "--objective", "weighted",
                   "--weights", "0.3,0.7", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert 0.0 <= payload["gap_bits"] <= 1e-6
        assert payload["upper_bound_bits"] == pytest.approx(
            payload["objective_bits"] + payload["gap_bits"], abs=1e-15)
        discrete = write_json(tmp_path / "d.json", discrete_doc(with_aux=False))
        rc = main(["optimize", "--scenario", discrete, "--aux-sizes", "2,2", "--restarts", "1",
                   "--iters", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["upper_bound_bits"] is None and payload["gap_bits"] is None

    def test_weights_without_the_weighted_objective_exit_2(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--weights", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "--weights needs --objective weighted" in capsys.readouterr().err

    def test_discrete(self, tmp_path):
        scenario = write_json(tmp_path / "sc.json", discrete_doc(with_aux=False))
        out = tmp_path / "opt.json"
        rc = main(
            [
                "optimize",
                "--scenario",
                scenario,
                "--aux-sizes",
                "2,2",
                "--restarts",
                "2",
                "--iters",
                "6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["objective_bits"] > 0.0
        assert len(payload["quantizers"]["aux"]) == 2


    @pytest.mark.parametrize("weights", ["nan", "inf", "-1", "0"])
    def test_unusable_weights_are_validation_errors(self, tmp_path, capsys, weights):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--objective", "weighted",
                   f"--weights={weights}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "weights" in err


class TestSumRateCommands:
    def test_discrete_sumrate(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        rc = main(["sumrate", "--scenario", scenario])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_rate_bits"] >= 0.0

    def test_swz_check(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        rc = main(["swz-check", "--scenario", scenario])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] <= 1e-9
        assert payload["equal"] is True
        assert payload["best_ordering"] in ([1, 2], [2, 1])

    def test_swz_check_out_with_numpy_scalars(self, tmp_path):
        # on this instance the best ordering has a fractional idle share, so
        # the gap is computed from numpy scalars
        rng = np.random.default_rng(0)
        sc = random_factorizing_scenario(rng, 1, 2)
        scenario = tmp_path / "sc.json"
        save_scenario(sc, scenario, random_aux(rng, sc))
        out = tmp_path / "swz.json"
        assert main(["swz-check", "--scenario", str(scenario), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["equal"] is True
        assert payload["gap"] <= 1e-9

    def test_extreme_points_csv(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        rc = main(["extreme-points", "--scenario", scenario])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ordering,k,relay,C_tilde_bits"
        assert len(lines) == 1 + 2 * 2  # 2 orderings x 2 relays

    def test_gaussian_sumrate(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(["sumrate", "--scenario", scenario, "--quantizers", quant])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_rate_bits"] == pytest.approx(math.log2(1.5), abs=1e-9)


class TestCheckCommands:
    def test_mc_check(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(
            [
                "mc-check",
                "--scenario",
                scenario,
                "--quantizers",
                quant,
                "--samples",
                "100000",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["within_3se"] is True
        assert payload["analytic_bits"] == pytest.approx(math.log2(1.5), abs=1e-9)

    def test_mc_check_boundary_quantizer_on_charged_relay(self, tmp_path, capsys):
        # B_1 = Sigma_1^{-1}: relay 1's fronthaul rate is infinite, but it is
        # in S, so the information term only involves relay 2
        doc = golden_gaussian_doc()
        doc["relays"] = 2
        doc["fronthaul"] = [2.0, 2.0]
        for key in ("H", "Sigma"):
            doc["channel"][key] = doc["channel"][key] * 2
        scenario = write_json(tmp_path / "sc.json", doc)
        quant = write_json(tmp_path / "q.json", {"B": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]]})
        rc = main(["mc-check", "--scenario", scenario, "--quantizers", quant,
                   "--s-mask", "1", "--samples", "100000", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_bits"] == pytest.approx(math.log2(1.5), abs=1e-12)
        assert payload["within_3se"] is True

    @pytest.mark.parametrize("masks", [("--s-mask", "2"), ("--t-mask", "2"), ("--t-mask", "0")])
    def test_mc_check_masks_out_of_range(self, tmp_path, capsys, masks):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(["mc-check", "--scenario", scenario, "--quantizers", quant, *masks])
        assert rc == 2
        assert "mask" in capsys.readouterr().err

    def test_codebook_check(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        rc = main(
            [
                "codebook-check",
                "--scenario",
                scenario,
                "--blocklength",
                "4",
                "--rate",
                "1.0",
                "--trials",
                "20000",
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_codewords"] == 16
        assert payload["max_tv"] <= 0.02


class TestVerifyCommand:
    def test_small_pass(self, tmp_path, capsys):
        rc = main(
            [
                "verify",
                "--suite",
                "class_equivalence",
                "--instances",
                "4",
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["suites"][0]["cases"] == 4

    def test_threads_default_to_one(self):
        parser = build_parser()
        assert parser.parse_args(["verify"]).threads == 1
        assert parser.parse_args(["verify", "--threads", "1"]).threads == 1
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify", "--threads", "2"])
        assert exc.value.code == 2

    def test_injected_fault_fails_with_named_suite(self, tmp_path, capsys):
        rc = main(
            [
                "verify",
                "--suite",
                "class_equivalence",
                "--instances",
                "4",
                "--inject-fault",
                "class_equivalence",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "class_equivalence" in captured.err
        payload = json.loads(captured.out)
        assert payload["passed"] is False

    @pytest.mark.parametrize("instances", [1, 50, 200])
    def test_injected_matrix_lemma_fault_fails_at_any_count(self, instances, capsys):
        args = ["verify", "--suite", "matrix_lemmas", "--instances", str(instances)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--inject-fault", "matrix_lemmas"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["suites"][0]["failures"] == 1


    @pytest.mark.parametrize("suite", ["swz", "mc", "matrix_lemmas"])
    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_instances_below_one_are_validation_errors(self, tmp_path, capsys, suite, instances):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--suite", suite, f"--instances={instances}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "instances must be at least 1" in capsys.readouterr().err


class TestRunPath:
    """What main does for every command: the scenario-kind check, one
    manifest per run, and only the flags a command reads."""

    @pytest.mark.parametrize("command,kind", [
        ("extreme-points", "discrete"),
        ("swz-check", "discrete"),
        ("codebook-check", "discrete"),
        ("mc-check", "gaussian"),
    ])
    def test_wrong_scenario_kind_is_validation_error(self, tmp_path, capsys, command, kind):
        doc = golden_gaussian_doc() if kind == "discrete" else discrete_doc()
        scenario = write_json(tmp_path / "sc.json", doc)
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        out = tmp_path / "out.data"
        argv = [command, "--scenario", scenario, "--out", str(out)]
        if command != "codebook-check":
            argv += ["--quantizers", quant]
        assert main(argv) == 2
        assert not out.exists()
        assert f"error: {command} needs a {kind} scenario" in capsys.readouterr().err

    COMMANDS = {
        "region": ("gaussian", ["--quantizers", "Q"]),
        "boundary": ("two-user", ["--quantizers", "Q", "--points", "3"]),
        "optimize": ("gaussian", ["--restarts", "1", "--iters", "2"]),
        "sumrate": ("discrete", []),
        "extreme-points": ("discrete", []),
        "swz-check": ("discrete", []),
        "mc-check": ("gaussian", ["--quantizers", "Q", "--samples", "1000"]),
        "codebook-check": ("discrete", ["--trials", "100"]),
        "verify": (None, ["--suite", "swz", "--instances", "2"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_writes_one_manifest(self, tmp_path, command):
        docs = {"gaussian": golden_gaussian_doc(), "discrete": discrete_doc(),
                "two-user": TestBoundaryCommand()._two_user_doc()}
        kind, args = self.COMMANDS[command]
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        argv = [command, *(quant if a == "Q" else a for a in args), "--out",
                str(tmp_path / "out.data")]
        if kind is not None:
            argv += ["--scenario", write_json(tmp_path / "sc.json", docs[kind])]
        assert main(argv) == 0
        (manifest,) = tmp_path.glob("*.manifest.json")
        doc = json.loads(manifest.read_text())
        assert doc["command"] == command
        assert doc["outputs"][0] == str(tmp_path / "out.data")

    @pytest.mark.parametrize("argv", [["region", "--seed", "1"], ["optimize", "--format", "json"]])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scenario", scenario])
        assert exc.value.code == 2


def test_internal_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    from ocran import cli

    def broken(*args):
        raise TypeError("Object of type bool is not JSON serializable")

    monkeypatch.setattr(cli, "cmd_swz_check", broken)
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    assert main(["swz-check", "--scenario", scenario]) == 3
    err = capsys.readouterr().err
    assert "TypeError: Object of type bool is not JSON serializable" in err
    assert "Traceback" not in err


def test_failed_weighted_rate_lp_exits_3(tmp_path, capsys, monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(
        scipy.optimize, "linprog",
        lambda *args, **kwargs: scipy.optimize.OptimizeResult(
            success=False, status=4, message="forced failure", x=None, fun=None),
    )
    scenario = write_json(tmp_path / "sc.json", TestBoundaryCommand()._two_user_doc())
    quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
    out = tmp_path / "boundary.csv"
    rc = main(["boundary", "--scenario", scenario, "--quantizers", quant, "--out", str(out)])
    assert rc == 3
    assert "forced failure" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(golden_gaussian_doc()))
    quant = tmp_path / "q.json"
    quant.write_text(json.dumps({"B": [[[[0.5, 0.0]]]]}))
    # the child imports ocran from the same tree as this test, installed or not
    src = str(pathlib.Path(ocran.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ocran.cli",
            "region",
            "--scenario",
            str(scenario),
            "--quantizers",
            str(quant),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("T_mask,S_mask,bound_bits")
    # manifest goes to stderr when no --out is given
    manifest = json.loads(proc.stderr.strip().splitlines()[-1])
    assert manifest["command"] == "region"
