import argparse
import ctypes
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import orjson
import pytest

import ocran
from ocran import cli, optimize
from ocran.cli import build_parser, fmt_bits, main
from ocran.core import enumerate_constraint_pairs, load_scenario, mask_of, quantizers_to_dict
from ocran.discrete import DiscreteEvaluator
from ocran.gaussian import GaussianEvaluator, QuantizerSetGaussian
from ocran.sumrate import extreme_points, jd_sum_rate
from ocran.verify import (random_aux, random_factorizing_scenario, random_gaussian_scenario,
                          random_quantizers)

from helpers import g_function, inject_suite_fault, inject_suite_nan, save_scenario


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

    def test_csv_and_summary_follow_the_pair_order(self, tmp_path):
        rng = np.random.default_rng(41)
        sc = random_gaussian_scenario(rng, 3, 2)
        q = random_quantizers(rng, sc)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        quant = write_json(tmp_path / "q.json", quantizers_to_dict(q))
        out = tmp_path / "region.csv"
        assert main(["region", "--scenario", str(path), "--quantizers", quant,
                     "--out", str(out)]) == 0
        ev = GaussianEvaluator.from_quantizers(load_scenario(path), q)
        pairs = enumerate_constraint_pairs(3, 2)
        bounds = [ev.bound(p) for p in pairs]
        lines = ["T_mask,S_mask,bound_bits"] + [
            f"{mask_of(p.users)},{p.s_mask},{fmt_bits(b)}" for p, b in zip(pairs, bounds)]
        assert out.read_text() == "\n".join(lines) + "\n"
        summary = {
            "num_constraints": len(pairs),
            "sum_rate_bound_bits": max(0.0, min(b for p, b in zip(pairs, bounds)
                                                if mask_of(p.users) == 0b111)),
            "per_user_max_bits": [max(0.0, min(b for p, b in zip(pairs, bounds) if l in p.users))
                                  for l in (1, 2, 3)],
        }
        assert (tmp_path / "region.csv.summary.json").read_text() == json.dumps(
            summary, indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["region", "sumrate"])
    def test_too_many_subset_bits_exit_2(self, tmp_path, capsys, command):
        # L + K = 25: rejected when the scenario is built, before any table
        # of 2^K entries is allocated
        doc = golden_gaussian_doc()
        one = [[[1.0, 0.0]]]
        doc["relays"] = 24
        doc["fronthaul"] = [2.0] * 24
        doc["channel"].update(H=[[one]] * 24, Sigma=[one] * 24)
        scenario = write_json(tmp_path / "sc.json", doc)
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]] * 24})
        assert main([command, "--scenario", scenario, "--quantizers", quant]) == 2
        assert "L + K = 25" in capsys.readouterr().err

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

    def test_scenario_file_is_parsed_once(self, tmp_path, monkeypatch):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        source = {pathlib.Path(scenario).read_bytes(): scenario}
        parsed = []
        loads = orjson.loads

        def counted(data):
            parsed.append(source.get(data, data))
            return loads(data)

        monkeypatch.setattr(orjson, "loads", counted)
        assert main(["region", "--scenario", scenario]) == 0
        assert parsed == [scenario]

    def test_thm1_on_correlated_channel_warns_but_succeeds(self, tmp_path, capsys):
        scenario = write_json(
            tmp_path / "sc.json", discrete_doc(with_aux=True, factorizing=False)
        )
        rc = main(["region", "--scenario", scenario, "--which", "thm1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" in captured.err.lower()
        assert "conditionally independent" in captured.err

    def test_discrete_family_defaults_to_thm1(self, tmp_path):
        scenario = write_json(
            tmp_path / "sc.json", discrete_doc(with_aux=True, factorizing=False)
        )
        outputs = {}
        for which in ([], ["--which", "thm1"], ["--which", "thm3"]):
            out = tmp_path / f"region{len(outputs)}.csv"
            assert main(["region", "--scenario", scenario, *which, "--out", str(out)]) == 0
            outputs[tuple(which)] = out.read_bytes()
        assert outputs[()] == outputs[("--which", "thm1")] != outputs[("--which", "thm3")]

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


MALFORMED_CASES = [
    # (channel kind, file holding the field, path to the field, value of a wrong type)
    ("gaussian", "scenario", ("channel", "H"), 5),
    ("gaussian", "scenario", ("channel", "Sigma"), 5),
    ("gaussian", "scenario", ("channel", "power"), None),
    ("gaussian", "scenario", ("users",), "two"),
    ("discrete", "scenario", ("channel", "px"), 5),
    ("discrete", "scenario", ("channel", "channel"), [[0.81, 0.09, 0.09, 0.01],
                                                      [0.01, 0.09, 0.09, 0.81]]),
    ("gaussian", "quantizers", ("B",), 5),
    ("discrete", "quantizers", ("aux",), 5),
]


def run_with_entry(tmp_path, kind, where, path, value):
    """Exit code and --out path of ``region`` (Gaussian) or ``sumrate``
    (discrete) on the golden files, with one entry of one file replaced."""
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
    return main([command, "--scenario", scenario, "--quantizers", quant, "--out", str(out)]), out


@pytest.mark.parametrize(
    "kind,where,path,value",
    NONFINITE_CASES,
    ids=[f"{k}-{w}-{'.'.join(map(str, p))}-{v}" for k, w, p, v in NONFINITE_CASES],
)
def test_nonfinite_input_is_validation_error(tmp_path, capsys, kind, where, path, value):
    rc, out = run_with_entry(tmp_path, kind, where, path, value)
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,where,path,value",
    MALFORMED_CASES,
    ids=[f"{k}-{w}-{'.'.join(p)}-{v}" for k, w, p, v in MALFORMED_CASES],
)
def test_field_of_a_wrong_type_is_validation_error(tmp_path, capsys, kind, where, path, value):
    rc, out = run_with_entry(tmp_path, kind, where, path, value)
    assert rc == 2
    assert not out.exists()
    assert f"{'.'.join(path)}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag,content", [
    ("scenario", None),  # a directory
    ("quantizers", "{not json"),
    ("scenario", "[" * 100_000),  # nested deeper than the parser recurses
], ids=["scenario-directory", "quantizers-invalid", "scenario-too-deep"])
def test_unreadable_file_is_validation_error_naming_it(tmp_path, capsys, flag, content):
    files = {"scenario": write_json(tmp_path / "sc.json", golden_gaussian_doc()),
             "quantizers": write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})}
    if content is None:
        files[flag] = str(tmp_path)
    else:
        pathlib.Path(files[flag]).write_text(content)
    out = tmp_path / "out.data"
    assert main(["region", "--scenario", files["scenario"], "--quantizers", files["quantizers"],
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {files[flag]}: not a readable JSON file" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"
# outside strict JSON (RFC 8259); Python's json module reads all but the byte order mark
STRICT_JSON_TOKENS = {"nan": b"NaN", "infinity": b"Infinity", "minus-infinity": b"-Infinity",
                      "overflow": b"1e400", "unpaired-surrogate": b'"\\ud800"', "bom": BOM}
STRICT_JSON_ENTRIES = {"scenario": ("fronthaul", 0), "quantizers": ("B", 0, 0, 0, 0)}


@pytest.mark.parametrize("where", sorted(STRICT_JSON_ENTRIES))
@pytest.mark.parametrize("token", sorted(STRICT_JSON_TOKENS))
def test_token_outside_strict_json_is_an_unreadable_file(tmp_path, capsys, where, token):
    docs = {"scenario": golden_gaussian_doc(), "quantizers": {"B": [[[[0.5, 0.0]]]]}}
    entry = docs[where]
    for key in STRICT_JSON_ENTRIES[where][:-1]:
        entry = entry[key]
    entry[STRICT_JSON_ENTRIES[where][-1]] = "TOKEN"
    files = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}
    path = pathlib.Path(files[where])
    text = path.read_bytes()
    if token == "bom":  # a valid document behind a byte order mark
        path.write_bytes(BOM + text.replace(b'"TOKEN"', b"1.0"))
    else:
        path.write_bytes(text.replace(b'"TOKEN"', STRICT_JSON_TOKENS[token]))
    out = tmp_path / "out.data"
    assert main(["region", "--scenario", files["scenario"], "--quantizers", files["quantizers"],
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {files[where]}: not a readable JSON file" in capsys.readouterr().err


def test_nan_under_an_ignored_key_exits_2(tmp_path, capsys):
    # the whole file is parsed as strict JSON, also the fields the schema ignores
    doc = golden_gaussian_doc()
    doc["comment"] = math.nan
    scenario = write_json(tmp_path / "sc.json", doc)
    assert main(["region", "--scenario", scenario]) == 2
    assert f"error: {scenario}: not a readable JSON file" in capsys.readouterr().err


def test_integer_beyond_64_bits_reads_as_a_float(tmp_path, capsys):
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc() | {"users": 2 ** 64})
    assert main(["region", "--scenario", scenario]) == 2
    assert "error: users: must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "under-a-file", "missing-parent"])
def test_unwritable_out_path_is_validation_error_naming_it(tmp_path, capsys, target):
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = {"directory": tmp_path,
           "under-a-file": tmp_path / "sc.json" / "sum.json",
           "missing-parent": tmp_path / "missing" / "sum.json"}[target]
    assert main(["sumrate", "--scenario", scenario, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {out}: not a writable output path" in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_codebook_check_blocklength_below_one_exit_2(tmp_path, capsys, value):
    # checked before the time-sharing sequence of that length is drawn
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "cb.json"
    rc = main(["codebook-check", "--scenario", scenario, "--blocklength", value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--blocklength must be at least 1" in err


@pytest.mark.parametrize("rate", ["0", "1e-6"])
def test_codebook_check_blocklength_above_its_cap_exit_2(tmp_path, capsys, rate):
    # at rate 0 the codebook holds one codeword, so no codeword guard
    # binds; the cap is checked before the time-sharing sequence of that
    # length is drawn (drawing it would exit 3 with a MemoryError)
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "cb.json"
    argv = ["codebook-check", "--scenario", scenario, "--blocklength", "10000000000000",
            "--rate", rate, "--trials", "1", "--out", str(out)]
    rc = main(argv)
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--blocklength must be at most 10000" in err


def test_codebook_check_blocklength_at_its_cap_runs(tmp_path, capsys):
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    out = tmp_path / "cb.json"
    argv = ["codebook-check", "--scenario", scenario, "--blocklength", "10000",
            "--rate", "0", "--trials", "1", "--out", str(out)]
    assert main(argv) == 0
    assert len(json.loads(out.read_text())["tv_per_position"]) == 10000


def test_codebook_check_user_outside_the_users_exit_2(tmp_path, capsys):
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    for user in ("0", "2"):
        assert main(["codebook-check", "--scenario", scenario, "--user", user]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --user must be in 1..1" in captured.err


def test_mc_check_samples_above_the_sampler_guard_exit_2(tmp_path, capsys):
    # 10^12 samples of one input and one noise dimension are 2 * 10^12
    # exponential draws against the guard of 5 * 10^7; checked before any is
    # drawn
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
    quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
    out = tmp_path / "mc.json"
    argv = ["mc-check", "--scenario", scenario, "--quantizers", quant,
            "--samples", "1000000000000", "--out", str(out)]
    assert main(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json", "sc.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "2000000000000 exponential draws exceed the sampler guard" in captured.err


def test_mc_check_guard_counts_the_draws_in_the_signals_rank(tmp_path, capsys, monkeypatch):
    # two single-antenna users through one single-antenna relay: 1000
    # samples draw 1000 * (min(2, 1) + 1) = 2000 exponentials, not 3000
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(users=2))
    quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
    out = tmp_path / "mc.json"
    argv = ["mc-check", "--scenario", scenario, "--quantizers", quant,
            "--samples", "1000", "--out", str(out)]
    monkeypatch.setattr(optimize, "MAX_SAMPLER_DRAWS", 1_999)
    assert main(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json", "sc.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2000 exponential draws exceed the sampler guard" in captured.err
    monkeypatch.setattr(optimize, "MAX_SAMPLER_DRAWS", 2_000)
    assert main(argv) == 0
    assert json.loads(out.read_text())["samples"] == 1000


def test_mc_check_non_hermitian_quantizer_exits_2(tmp_path, capsys):
    scenario = write_json(tmp_path / "sc.json", {
        **golden_gaussian_doc(),
        "channel": {"kind": "gaussian", "H": [[[[[1.0, 0.0]], [[0.0, 0.0]]]]],
                    "Sigma": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                    "Kin": [[[[1.0, 0.0]]]], "power": [1.0]},
    })
    quant = write_json(tmp_path / "q.json",
                       {"B": [[[[0.1, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]]})
    assert main(["mc-check", "--scenario", scenario, "--quantizers", quant]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "B[1] is not Hermitian" in captured.err


def test_sampler_counts_below_their_minimum_exit_2(tmp_path, capsys):
    discrete = write_json(tmp_path / "d.json", discrete_doc())
    gaussian = write_json(tmp_path / "g.json", golden_gaussian_doc())
    quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
    for argv, message in (
        (["codebook-check", "--scenario", discrete, "--trials", "0"], "trials must be positive"),
        (["mc-check", "--scenario", gaussian, "--quantizers", quant, "--samples", "1"],
         "at least two samples"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err


def test_gaussian_sumrate_without_quantizers_exit_2(tmp_path, capsys):
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
    assert main(["sumrate", "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sumrate needs --quantizers with the B matrices" in captured.err


def test_discrete_optimize_beyond_the_jacobian_guard_exit_2(tmp_path, capsys):
    # 12 relays: 2^12 sum-rate bounds of a 1.1e6-entry reduced joint
    scenario = tmp_path / "sc.json"
    save_scenario(random_factorizing_scenario(np.random.default_rng(0), 1, 12), scenario)
    assert main(["optimize", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sum-rate Jacobian would hold 4353564672 entries" in captured.err


def test_fmt_bits_writes_infinities_as_words_and_refuses_nan():
    assert (fmt_bits(math.inf), fmt_bits(-math.inf)) == ("inf", "-inf")
    with pytest.raises(ArithmeticError, match="NaN rate value"):
        fmt_bits(math.nan)


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

    def test_empty_region_warns_once_and_writes_the_header(self, tmp_path, capsys):
        # a quantizer whose description needs fronthaul the relay lacks
        # makes a bound negative, so not even the zero rates are achievable
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc(fronthaul=0.0))
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        out = tmp_path / "bnd.csv"
        rc = main(["boundary", "--scenario", scenario, "--quantizers", quant, "--points", "3",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "w1,w2,R1_bits,R2_bits\n"
        assert capsys.readouterr().err == (
            "warning: region is empty (some bound is negative); no boundary points\n")

    def test_empty_region_warning_survives_a_failed_write(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc(fronthaul=0.0))
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        rc = main(["boundary", "--scenario", scenario, "--quantizers", quant, "--points", "3",
                   "--out", str(tmp_path)])  # a directory: the write fails
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"error: {tmp_path}: not a writable output path")
        assert err[1:] == [
            "warning: region is empty (some bound is negative); no boundary points"]

    def test_wrong_user_count(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        rc = main(["boundary", "--scenario", scenario])
        assert rc == 2

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_fewer_than_two_points_exit_2(self, tmp_path, capsys, points):
        scenario = write_json(tmp_path / "sc.json", self._two_user_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
        out = tmp_path / "bnd.csv"
        rc = main(["boundary", "--scenario", scenario, "--quantizers", quant,
                   f"--points={points}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"--points must be at least 2, got {points}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["region", "boundary"])
    def test_which_on_a_gaussian_scenario_writes_the_same_bytes(self, tmp_path, command):
        # the Gaussian channels are in the capacity class, where thm1 and thm3
        # agree; their bounds are bit-equal, so --which changes no byte
        rng = np.random.default_rng(7)
        sc = random_gaussian_scenario(rng, 2, 2)
        q = random_quantizers(rng, sc)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        quant = write_json(tmp_path / "q.json", quantizers_to_dict(q))
        ev = GaussianEvaluator.from_quantizers(load_scenario(path), q)
        assert np.array_equal(ev.region("thm1").bounds, ev.region("thm3").bounds)
        points = ["--points", "5"] if command == "boundary" else []
        written = []
        for which in ([], ["--which", "thm1"], ["--which", "thm3"]):
            out = tmp_path / f"{command}{len(written)}.csv"
            assert main([command, "--scenario", str(path), "--quantizers", quant, *which, *points,
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]


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
        for weights in ([], ["--weights", "1"]):
            assert main(["optimize", "--scenario", scenario, *weights, "--out", str(out)]) == 3
            assert "not certified" in capsys.readouterr().err
            assert not out.exists()

    def test_weighted_is_certified_and_discrete_is_not(self, tmp_path):
        gaussian = write_json(tmp_path / "g.json", golden_gaussian_doc(fronthaul=1.0, users=2))
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", gaussian, "--weights", "0.3,0.7", "--out", str(out)])
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

    def test_aux_sizes_on_a_gaussian_scenario_exit_2(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(fronthaul=1.0))
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--aux-sizes", "2", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "--aux-sizes applies to discrete scenarios only" in capsys.readouterr().err

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

    def test_discrete_active_constraints_name_every_user(self, tmp_path):
        # the sum-rate search's tight rows are (T, S) pairs at T = all users,
        # as the Gaussian sum-rate solve reports them
        rng = np.random.default_rng(12)
        sc = random_factorizing_scenario(rng, 2, 2)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--scenario", str(path), "--restarts", "1", "--iters", "5",
                     "--out", str(out)]) == 0
        active = json.loads(out.read_text())["active_constraints"]
        assert active and all(row["T_mask"] == 0b11 for row in active)
        assert [row["S_mask"] for row in active] == sorted({row["S_mask"] for row in active})
        assert all(0 <= row["S_mask"] < 0b100 for row in active)


    def test_discrete_writes_no_warning(self, tmp_path, capsys):
        # an input letter of probability 0 leaves zeros in the reduced
        # joint, whose logarithms the gradients read
        rng = np.random.default_rng(5)
        law = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)  # p(y1, y2 | x)
        doc = discrete_doc(with_aux=False)
        doc["channel"].update(alphabets={"X": [3], "Y": [2, 2]}, px=[[[0.5, 0.5, 0.0]]],
                              channel=np.moveaxis(law, 0, -1).ravel().tolist())
        scenario = write_json(tmp_path / "sc.json", doc)
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--aux-sizes", "2,2", "--out", str(out)])
        assert rc == 0
        assert "warning:" not in capsys.readouterr().err

    def test_restarts_below_one_exit_2(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc(with_aux=False))
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--restarts", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "restarts and max_iters must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value", [
        ("gaussian", "--weights", "1,a"),
        ("discrete", "--aux-sizes", "2,x"),
        ("discrete", "--aux-sizes", ""),
    ])
    def test_unparsable_flag_list_exit_2_naming_the_flag(self, tmp_path, capsys, kind, flag,
                                                         value):
        doc = golden_gaussian_doc() if kind == "gaussian" else discrete_doc(with_aux=False)
        scenario = write_json(tmp_path / "sc.json", doc)
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, flag, value, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"error: {flag}: must be comma-separated" in capsys.readouterr().err

    def test_discrete_weighted_objective_exit_2(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "sc.json", discrete_doc(with_aux=False))
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, "--weights", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "supports only the sum-rate objective" in capsys.readouterr().err

    def test_gaussian_ignores_the_search_settings(self, tmp_path):
        # one deterministic certified solve: the discrete search's starts,
        # iteration cap and seed do not change a byte
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(fronthaul=1.0, users=2))
        written = []
        for i, settings in enumerate((["--restarts", "1", "--iters", "1", "--seed", "0"],
                                      ["--restarts", "7", "--iters", "300", "--seed", "9"])):
            out = tmp_path / f"opt{i}.json"
            assert main(["optimize", "--scenario", scenario, *settings, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("weights", ["nan", "inf", "-1", "0"])
    def test_unusable_weights_are_validation_errors(self, tmp_path, capsys, weights):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        out = tmp_path / "opt.json"
        rc = main(["optimize", "--scenario", scenario, f"--weights={weights}", "--out", str(out)])
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
        # the same payload as a Gaussian sumrate: every b_S, and their
        # minimum floored at 0
        ev = DiscreteEvaluator.from_aux(*load_scenario(scenario, with_aux=True))
        bounds = ev.subset_bounds()
        assert payload["subset_bounds"] == [{"S_mask": s, "bound_bits": float(b)}
                                            for s, b in enumerate(bounds)]
        assert payload["sum_rate_bits"] == max(0.0, float(bounds.min()))

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

    def test_gaussian_extreme_points(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        sc = random_gaussian_scenario(rng, 2, 3)
        q = random_quantizers(rng, sc)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        quant = write_json(tmp_path / "q.json", quantizers_to_dict(q))
        out = tmp_path / "ext.csv"
        assert main(["extreme-points", "--scenario", str(path), "--quantizers", quant,
                     "--out", str(out)]) == 0
        ev = GaussianEvaluator.from_quantizers(load_scenario(path), q)
        g_plus_all = max(0.0, float(g_function(ev, jd_sum_rate(ev))[-1]))
        lines = ["ordering,k,relay,C_tilde_bits"]
        for pi, point in extreme_points(ev):
            assert point.sum() == pytest.approx(g_plus_all, abs=1e-12, rel=1e-12)
            lines += [f"{'-'.join(map(str, pi))},{pos},{relay},{fmt_bits(point[relay - 1])}"
                      for pos, relay in enumerate(pi, start=1)]
        assert len(lines) == 1 + 6 * 3
        assert out.read_text() == "\n".join(lines) + "\n"

        # B_1 = Sigma_1^{-1} needs infinite fronthaul: the polytope is empty
        boundary = [np.linalg.inv(ev.sc.Sigma[0]), *q.B[1:]]
        quant = write_json(tmp_path / "q.json",
                           quantizers_to_dict(QuantizerSetGaussian(B=tuple(boundary))))
        out = tmp_path / "boundary.csv"
        assert main(["extreme-points", "--scenario", str(path), "--quantizers", quant,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "infinite fronthaul" in capsys.readouterr().err

    @pytest.mark.parametrize("command,kind,num_relays,limit", [
        ("extreme-points", "discrete", 7, 6),
        ("extreme-points", "gaussian", 7, 6),
        ("swz-check", "discrete", 9, 8),
    ])
    def test_factorial_guard_refuses_before_building_the_evaluator(
            self, tmp_path, capsys, monkeypatch, command, kind, num_relays, limit):
        rng = np.random.default_rng(num_relays)
        path = tmp_path / "sc.json"
        argv = [command, "--scenario", str(path), "--out", str(tmp_path / "out.data")]
        if kind == "discrete":
            sc = random_factorizing_scenario(rng, 1, num_relays)
            save_scenario(sc, path, random_aux(rng, sc, (1,) * num_relays))
            evaluator = DiscreteEvaluator
        else:
            sc = random_gaussian_scenario(rng, 1, num_relays, max_antennas=1)
            save_scenario(sc, path)
            quant = quantizers_to_dict(random_quantizers(rng, sc))
            argv += ["--quantizers", write_json(tmp_path / "q.json", quant)]
            evaluator = GaussianEvaluator
        built = []

        def refused(self, *args, **kwargs):
            built.append(1)

        monkeypatch.setattr(evaluator, "__init__", refused)
        rc = main(argv)
        assert built == []
        assert rc == 2
        assert f"K <= {limit} required" in capsys.readouterr().err
        assert not (tmp_path / "out.data").exists()

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

    def test_mc_check_boundary_test_is_scale_free(self, tmp_path, capsys):
        # Sigma = 10^6 and B = 5e-14: the normalized quantizer is 5e-8,
        # strictly inside (0, 1), though B itself is below 1e-12
        doc = golden_gaussian_doc()
        doc["channel"]["H"] = [[[[[1e4, 0.0]]]]]
        doc["channel"]["Sigma"] = [[[[1e6, 0.0]]]]
        scenario = write_json(tmp_path / "sc.json", doc)
        quant = write_json(tmp_path / "q.json", {"B": [[[[5e-14, 0.0]]]]})
        rc = main(["mc-check", "--scenario", scenario, "--quantizers", quant,
                   "--samples", "1000", "--seed", "1"])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_bits"] == pytest.approx(math.log2(1.0 + 5e-6), rel=1e-9)

    @pytest.mark.parametrize("b", [0.0, 1.0 - 1e-13])
    def test_mc_check_boundary_quantizer_outside_s_exits_2(self, tmp_path, capsys, b):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        quant = write_json(tmp_path / "q.json", {"B": [[[[b, 0.0]]]]})
        out = tmp_path / "mc.json"
        rc = main(["mc-check", "--scenario", scenario, "--quantizers", quant,
                   "--samples", "1000", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "B[1] is on the feasibility boundary" in captured.err

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

    def test_injected_fault_fails_with_named_suite(self, tmp_path, capsys, monkeypatch):
        inject_suite_fault(monkeypatch, "class_equivalence")
        rc = main(["verify", "--suite", "class_equivalence", "--instances", "4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "class_equivalence" in captured.err
        payload = json.loads(captured.out)
        assert payload["passed"] is False
        assert payload["suites"][0]["cases"] == payload["suites"][0]["failures"] == 4

    @pytest.mark.parametrize("instances", [1, 50, 200])
    def test_injected_matrix_lemma_fault_fails_at_any_count(self, instances, capsys, monkeypatch):
        args = ["verify", "--suite", "matrix_lemmas", "--instances", str(instances)]
        assert main(args) == 0
        capsys.readouterr()
        inject_suite_fault(monkeypatch, "matrix_lemmas")
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["suites"][0]["cases"] == instances
        assert payload["suites"][0]["failures"] == 1

    @pytest.mark.parametrize("suite, instances", [("matrix_lemmas", 50),
                                                  ("class_equivalence", 5)])
    def test_a_nan_gap_fails_and_writes_its_report(self, tmp_path, capsys, monkeypatch,
                                                   suite, instances):
        # the NaN sits in the first case of matrix_lemmas and the third of
        # class_equivalence; either way it is one failure and an infinite gap
        inject_suite_nan(monkeypatch, suite)
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", suite, "--instances", str(instances),
                     "--out", str(out)]) == 1
        (report,) = json.loads(out.read_text())["suites"]
        assert report["cases"] == instances
        assert report["failures"] == 1
        assert report["worst_gap"] == "inf"
        assert f"verification failed: {suite}" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["swz", "mc", "matrix_lemmas"])
    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_instances_below_one_are_validation_errors(self, tmp_path, capsys, suite, instances):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--suite", suite, f"--instances={instances}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "instances must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["codebook", "all"])
    def test_too_many_codebook_instances_name_the_flag(self, tmp_path, capsys, suite):
        # 4 positions x 781,251 trials x 16 codewords exceed the sampler
        # guard of 5e7 draws; the refusal names --instances and its limit,
        # before any suite runs
        out = tmp_path / "verify.json"
        rc = main(["verify", "--suite", suite, "--instances", "781251", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "instances = 781251 is too large for the codebook suite" in err
        assert "at most 781250" in err
        assert "blocklength * trials * codewords" not in err


class TestRunPath:
    """What main does for every command: the scenario-kind check, one
    manifest per run, and only the flags a command reads."""

    @pytest.mark.parametrize("command,kind", [
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

    def test_second_run_in_a_process_builds_no_parser(self, tmp_path, monkeypatch):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        argv = ["sumrate", "--scenario", scenario, "--out", str(tmp_path / "s.json")]
        assert main(argv) == 0
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(argv) == 0
        assert added == []
        assert build_parser() is not build_parser()
        assert added  # the counter sees every parser that is built

    def test_data_outputs_do_not_depend_on_earlier_runs(self, tmp_path):
        scenario = write_json(tmp_path / "sc.json", discrete_doc())
        runs = {
            "optimize": ["--restarts", "2", "--iters", "5", "--seed", "3"],
            "region": ["--which", "thm3"],
            "sumrate": [],
            "verify": ["--suite", "swz", "--instances", "2", "--seed", "1"],
        }
        written = []
        for order in (sorted(runs), sorted(runs, reverse=True)):
            out = tmp_path / "-".join(order)
            out.mkdir()
            for command in order:
                argv = [command, *runs[command], "--out", str(out / command)]
                if command != "verify":
                    argv += ["--scenario", scenario]
                assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if not p.name.endswith(".manifest.json")})
        assert sorted(written[0]) == ["optimize", "region", "region.summary.json", "sumrate",
                                      "verify"]
        assert written[0] == written[1]

    @pytest.mark.parametrize("argv", [["region", "--seed", "1"], ["optimize", "--format", "json"],
                                      ["verify", "--suite", "swz"],
                                      ["optimize", "--objective", "sum"]])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv):
        scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scenario", scenario])
        assert exc.value.code == 2


@pytest.mark.parametrize("command,kind,extra", [
    ("optimize", "discrete", ["--restarts", "1", "--iters", "2"]),
    ("optimize", "gaussian", []),
    ("mc-check", "gaussian", ["--samples", "1000"]),
    ("codebook-check", "discrete", ["--trials", "100"]),
    ("verify", None, ["--suite", "swz", "--instances", "1"]),
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command, kind, extra):
    # each run would succeed at seed 0
    argv = [command, *extra, "--seed", "-1", "--out", str(tmp_path / "out")]
    if kind == "gaussian":
        argv += ["--scenario", write_json(tmp_path / "sc.json", golden_gaussian_doc())]
        if command == "mc-check":
            argv += ["--quantizers", write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})]
    elif kind == "discrete":
        argv += ["--scenario", write_json(tmp_path / "sc.json", discrete_doc())]
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()
    assert "error: --seed: must be a nonnegative integer, got -1" in capsys.readouterr().err
    argv[argv.index("-1")] = "0"
    assert main(argv) == 0


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


def test_failed_logdet_factorization_exits_3_without_output(tmp_path, capsys, monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc())
    quant = write_json(tmp_path / "q.json", {"B": [[[[0.5, 0.0]]]]})
    out = tmp_path / "region.csv"
    assert main(["region", "--scenario", scenario, "--quantizers", quant,
                 "--out", str(out)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json", "sc.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: Matrix is not positive definite")


def test_plain_value_error_is_internal_and_exits_3(tmp_path, capsys, monkeypatch):
    # exit 2 is for ScenarioError and CapacityError; any other ValueError is a bug
    from ocran import cli

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "cmd_sumrate", broken)
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    assert main(["sumrate", "--scenario", scenario]) == 3
    err = capsys.readouterr().err
    assert "internal error: ValueError: operands could not be broadcast together" in err
    assert "Traceback" not in err


def test_failed_weighted_rate_lp_exits_3(tmp_path, capsys, monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(
        scipy.optimize, "linprog",
        lambda *args, **kwargs: scipy.optimize.OptimizeResult(
            success=False, status=4, message="forced failure", x=None, fun=None),
    )
    # two-user regions take an exact corner; the weighted solve values its
    # three-user iterates with the LP
    scenario = write_json(tmp_path / "sc.json", golden_gaussian_doc(fronthaul=1.0, users=3))
    out = tmp_path / "opt.json"
    rc = main(["optimize", "--scenario", scenario, "--weights", "1,2,3", "--out", str(out)])
    assert rc == 3
    assert "weighted-rate LP failed: forced failure" in capsys.readouterr().err
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


def openblas_pools():
    """(get, set) of the thread count of each OpenBLAS beside numpy and
    scipy, found through ctypes as the benchmark's machine record finds them."""
    import glob

    import scipy

    pools = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = pathlib.Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pools.append((get, put))
    assert len(pools) == 2
    return pools


def test_main_runs_on_one_blas_thread_and_restores_the_pool(tmp_path, monkeypatch):
    pools = openblas_pools()
    before = [get() for get, _ in pools]
    seen = []
    cmd_sumrate = cli.cmd_sumrate

    def watched(*args):
        seen.append([get() for get, _ in pools])
        return cmd_sumrate(*args)

    monkeypatch.setattr(cli, "cmd_sumrate", watched)
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    try:
        for _, put in pools:
            put(2)
        assert main(["sumrate", "--scenario", scenario, "--out", str(tmp_path / "s.json")]) == 0
        assert seen == [[1, 1]]
        assert [get() for get, _ in pools] == [2, 2]
    finally:
        for (_, put), count in zip(pools, before):
            put(count)


def test_a_blas_pool_that_cannot_be_set_is_warned_of(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_blas_pools", lambda: ((), ("numpy", "scipy")))
    scenario = write_json(tmp_path / "sc.json", discrete_doc())
    assert main(["sumrate", "--scenario", scenario, "--out", str(tmp_path / "s.json")]) == 0
    err = capsys.readouterr().err
    for package in ("numpy", "scipy"):
        assert f"warning: cannot set {package}'s BLAS to one thread" in err


def test_optimize_bytes_do_not_depend_on_the_blas_pool(tmp_path):
    # OpenBLAS caps its pool at the cores it may use
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core: OpenBLAS runs one thread whatever OPENBLAS_NUM_THREADS says")
    from test_optimize import load_bench_instances

    instances, _ = load_bench_instances()
    # the seed-1 gaussian-opt opt-0 and verify-small dopt-3 ops of the benchmark
    ops = {
        "opt-0": (instances.optimize_instance(instances.instance_rng(1, 4, 0)).scenario,
                  ("--restarts", "2", "--iters", "10", "--seed", "1")),
        "dopt-3": (instances.discrete_instance(instances.instance_rng(1, 5, 3), False,
                                               x_sizes=(2, 2), y_sizes=(3, 3),
                                               u_sizes=(3, 3)).scenario,
                   ("--restarts", "4", "--iters", "120", "--seed", "1")),
    }
    src = str(pathlib.Path(ocran.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        argvs = [["optimize", "--scenario", write_json(tmp_path / f"{tag}.json", doc), *args,
                  "--out", str(tmp_path / f"{tag}.{threads}.json")]
                 for tag, (doc, args) in ops.items()]
        script = ("import sys; from ocran.cli import main; "
                  f"sys.exit(max(main(argv) for argv in {argvs!r}))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {tag: (tmp_path / f"{tag}.{threads}.json").read_bytes() for tag in ops}
    for tag in ops:
        assert outputs["1"][tag] == outputs["2"][tag], tag
