"""The discrete bounds that ``region --which thm1|thm3`` writes, held to the
long-double reference of ``precision_reference`` on one instance shaped as
the discrete-k4 benchmark's (L = 2, |X_l| = 3, K = 4, |Y_k| = |U_k| = 4,
relay outputs independent given the inputs): float rounding is the only
error, and it stays below 1e-12 bits."""

import json
import math

import numpy as np
import pytest

from ocran.cli import main
from ocran.core import load_scenario, save_scenario
from ocran.discrete import region_discrete
from ocran.verify import random_aux, random_factorizing_scenario
from precision_reference import LongDoubleReference

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


def test_the_reference_summation_orders_agree(k4):
    for family, (forward, reverse) in k4[3].items():
        assert float(np.max(np.abs(forward - reverse))) <= ORDER_TOL, family


@pytest.mark.parametrize("family", FAMILIES)
def test_written_bounds_lie_within_1e_12_bits_of_the_reference(family, k4, tmp_path):
    path, sc, aux, refs = k4
    ref = refs[family][0]
    # the table that region formats, at full precision
    worst = float(np.max(np.abs(region_discrete(sc, aux, family).bounds - ref)))
    print(f"{family}: worst |bound - long-double reference| = {worst:.2e} bits")
    assert worst <= BOUND_TOL

    out = tmp_path / "region.csv"
    assert main(["region", "--scenario", str(path), "--which", family, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == ref.size
    for t_mask, s_mask, text in rows:
        want = ref[int(t_mask) - 1, int(s_mask)]
        # the CSV prints 12 significant digits: half a unit of the last one
        printed = 0.5 * 10.0 ** (math.floor(math.log10(abs(float(want)))) - 11)
        assert abs(float(text) - want) <= BOUND_TOL + printed, (t_mask, s_mask)
    summary = json.loads((tmp_path / "region.csv.summary.json").read_text())
    assert abs(summary["sum_rate_bound_bits"] - max(0.0, ref[-1].min())) <= BOUND_TOL
    for user, value in enumerate(summary["per_user_max_bits"]):
        rows_with_user = [t - 1 for t in range(1, 1 << sc.num_users) if t >> user & 1]
        assert abs(value - max(0.0, ref[rows_with_user].min())) <= BOUND_TOL
