"""The bounds that ``region`` writes, held to the long-double references of
``precision_reference``: float rounding is the only error, and it stays
below 1e-12 bits.  The discrete instance is shaped as the discrete-k4
benchmark's (L = 2, |X_l| = 3, K = 4, |Y_k| = |U_k| = 4, relay outputs
independent given the inputs), the Gaussian one as the gaussian-opt
benchmark's region (L = 4, K = 6)."""

import json
import math

import numpy as np
import pytest

from ocran.cli import main
from ocran.core import load_quantizers, load_scenario, quantizers_to_dict, save_scenario
from ocran.discrete import region_discrete
from ocran.gaussian import region_gaussian
from ocran.verify import (random_aux, random_factorizing_scenario, random_gaussian_scenario,
                          random_quantizers)
from precision_reference import GaussianLongDoubleReference, LongDoubleReference

FAMILIES = ("thm1", "thm3")
BOUND_TOL = 1e-12  # bits, float64 bounds against the reference
ORDER_TOL = 1e-16  # bits, the reference's two summation orders against each other


@pytest.fixture(scope="module")
def k4(tmp_path_factory):
    """The instance's file, its scenario and tables as read back from it,
    and the reference in both summation orders."""
    rng = np.random.default_rng(42)
    sc = random_factorizing_scenario(rng, 2, 4, input_sizes=(3, 3), output_sizes=(4, 4, 4, 4))
    path = tmp_path_factory.mktemp("k4") / "k4.scenario.json"
    save_scenario(sc, path, random_aux(rng, sc, aux_sizes=(4, 4, 4, 4)))
    sc, aux = load_scenario(path, with_aux=True)
    refs = {reverse: LongDoubleReference(sc, aux, reverse) for reverse in (False, True)}
    return path, sc, aux, {fam: [refs[r].bounds(fam) for r in (False, True)] for fam in FAMILIES}


@pytest.fixture(scope="module")
def gaussian(tmp_path_factory):
    """The instance's scenario and quantizer files, the two as read back
    from them, and the reference with A summed over the relays forward and
    reversed."""
    rng = np.random.default_rng(43)
    sc = random_gaussian_scenario(rng, 4, 6)
    q = random_quantizers(rng, sc)
    folder = tmp_path_factory.mktemp("gaussian")
    path, q_path = folder / "l4k6.scenario.json", folder / "l4k6.quantizers.json"
    save_scenario(sc, path)
    q_path.write_text(json.dumps(quantizers_to_dict(q)))
    sc = load_scenario(path)
    q = load_quantizers(q_path, sc)
    refs = [GaussianLongDoubleReference(sc, q, reverse).bounds() for reverse in (False, True)]
    return path, q_path, sc, q, refs


def test_the_reference_summation_orders_agree(k4):
    for family, (forward, reverse) in k4[3].items():
        assert float(np.max(np.abs(forward - reverse))) <= ORDER_TOL, family


def test_the_gaussian_reference_summation_orders_agree(gaussian):
    forward, reverse = gaussian[4]
    assert float(np.max(np.abs(forward - reverse))) <= ORDER_TOL


def check_written_bounds(label, bounds, ref, argv, out, num_users) -> None:
    """``bounds``, the table that region formats, at full precision, and the
    CSV and summary that ``region ... --out out`` writes, against ``ref``."""
    worst = float(np.max(np.abs(bounds - ref)))
    print(f"{label}: worst |bound - long-double reference| = {worst:.2e} bits")
    assert worst <= BOUND_TOL

    assert main([*argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == ref.size
    for t_mask, s_mask, text in rows:
        want = ref[int(t_mask) - 1, int(s_mask)]
        # the CSV prints 12 significant digits: half a unit of the last one
        printed = 0.5 * 10.0 ** (math.floor(math.log10(abs(float(want)))) - 11)
        assert abs(float(text) - want) <= BOUND_TOL + printed, (t_mask, s_mask)
    summary = json.loads(out.with_name(out.name + ".summary.json").read_text())
    assert abs(summary["sum_rate_bound_bits"] - max(0.0, ref[-1].min())) <= BOUND_TOL
    for user, value in enumerate(summary["per_user_max_bits"]):
        rows_with_user = [t - 1 for t in range(1, 1 << num_users) if t >> user & 1]
        assert abs(value - max(0.0, ref[rows_with_user].min())) <= BOUND_TOL


@pytest.mark.parametrize("family", FAMILIES)
def test_written_bounds_lie_within_1e_12_bits_of_the_reference(family, k4, tmp_path):
    path, sc, aux, refs = k4
    check_written_bounds(family, region_discrete(sc, aux, family).bounds, refs[family][0],
                         ["region", "--scenario", str(path), "--which", family],
                         tmp_path / "region.csv", sc.num_users)


def test_written_gaussian_bounds_lie_within_1e_12_bits_of_the_reference(gaussian, tmp_path):
    path, q_path, sc, q, refs = gaussian
    check_written_bounds("gaussian", region_gaussian(sc, q).bounds, refs[0],
                         ["region", "--scenario", str(path), "--quantizers", str(q_path)],
                         tmp_path / "region.csv", sc.num_users)
