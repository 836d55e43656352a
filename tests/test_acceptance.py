"""End-to-end acceptance criteria.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS line when it holds (run with ``pytest -s`` to see the lines; a
failed assertion means the criterion is red).
"""

import math
import time

import numpy as np
import pytest

from ocran.core import spawn_seeds
from ocran.discrete import DiscreteEvaluator
from ocran.gaussian import GaussianScenario, region_gaussian
from ocran.optimize import optimize_gaussian_quantizers
from ocran.verify import (
    random_aux,
    random_correlated_scenario,
    random_factorizing_scenario,
    random_gaussian_scenario,
    random_quantizers,
    suite_class_equivalence,
    suite_codebook,
    suite_matrix_lemmas,
    suite_mc,
    suite_swz,
)

from helpers import ScalarField, check_supermodular, finite_diff_check, sum_rate_field


def scalar_scenario(snr, fronthaul):
    return GaussianScenario(
        num_users=1,
        num_relays=1,
        fronthaul=(fronthaul,),
        time_share=(1.0,),
        H=(([[1.0]],),),
        Sigma=([[1.0]],),
        Kin=([[snr]],),
        power=(snr,),
    )


def bisection_golden_rate(snr, cap, iters=200):
    """Independent oracle: equalize the two scalar constraint branches by
    bisection over the normalized quantizer b in [0, 1)."""
    def gap(b):
        return math.log2(1.0 + snr * b) - (cap + math.log2(1.0 - b))

    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.log2(1.0 + snr * 0.5 * (lo + hi))


def test_criterion_1_golden_scalar_sum_rate():
    cases = [(snr, cap) for cap in (0.25, 0.5, 1.0, 2.0, 4.0) for snr in (0.5, 1.0, 4.0)]
    for snr, cap in cases:
        start = time.monotonic()
        oracle = bisection_golden_rate(snr, cap)
        closed_form = math.log2(1.0 + snr * (2.0**cap - 1.0) / (2.0**cap + snr))
        assert oracle == pytest.approx(closed_form, abs=1e-9)
        res = optimize_gaussian_quantizers(scalar_scenario(snr, cap))
        elapsed = time.monotonic() - start
        assert abs(res.objective - oracle) <= 1e-4, (snr, cap, res.objective, oracle)
        assert elapsed < 5.0, f"case snr={snr} C={cap} took {elapsed:.1f}s"
    print("\nACCEPTANCE 1 golden scalar optimized sum-rate (15 cases, tol 1e-4): PASS")


def test_criterion_2_class_equivalence():
    start = time.monotonic()
    report = suite_class_equivalence(instances=100, seed=2024)
    elapsed = time.monotonic() - start
    assert report.failures == 0
    assert report.worst_gap <= 1e-9
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 exact region == general bound on factorizing channels "
        f"(100 scenarios, worst gap {report.worst_gap:.2e} <= 1e-9): PASS"
    )


def test_criterion_3_swz_equals_jd():
    start = time.monotonic()
    report = suite_swz(instances=50, seed=99)
    elapsed = time.monotonic() - start
    assert report.failures == 0, report.messages
    assert report.worst_gap <= 1e-9
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 3 successive Wyner-Ziv reaches the joint-decoding sum-rate "
        f"(50 scenarios, worst gap {report.worst_gap:.2e} <= 1e-9): PASS"
    )


def test_criterion_4_supermodularity():
    start = time.monotonic()
    instances = 10_000
    seeds = spawn_seeds(4096, instances)
    worst = math.inf
    for i in range(instances):
        rng = np.random.default_rng(seeds[i])
        num_relays = 2 if i % 5 else 3
        factorizing = bool(rng.integers(2))
        make = random_factorizing_scenario if factorizing else random_correlated_scenario
        sc = make(rng, int(rng.integers(1, 3)), num_relays)
        aux = random_aux(rng, sc, tuple(int(rng.integers(2, 4)) for _ in range(num_relays)))
        ok, slack = check_supermodular(DiscreteEvaluator.from_aux(sc, aux),
                                       float(rng.uniform(0.0, 1.5)))
        worst = min(worst, slack)
        assert ok, f"instance {i}: supermodularity slack {slack}"
    elapsed = time.monotonic() - start
    assert worst >= -1e-10
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 4 supermodularity of the clipped set function "
        f"(10^4 instances, worst slack {worst:.2e} >= -1e-10): PASS"
    )


def test_criterion_5_matrix_lemmas():
    report = suite_matrix_lemmas(instances=10_000, seed=77)
    assert report.failures == 0
    assert report.worst_gap <= 1e-10
    print(
        "\nACCEPTANCE 5 determinant monotonicity and arithmetic-harmonic mean "
        f"ordering (10^4 instances, worst violation {report.worst_gap:.2e}): PASS"
    )


def test_criterion_6_monte_carlo_vs_analytic():
    start = time.monotonic()
    report = suite_mc(instances=10, seed=31)
    elapsed = time.monotonic() - start
    assert report.failures == 0
    assert elapsed < 300.0
    print(
        "\nACCEPTANCE 6 Monte Carlo information estimates within 3 standard "
        "errors and 2% of the log-det values (10 instances, 10^6 samples): PASS"
    )


def test_criterion_7_codebook_marginal():
    report = suite_codebook(trials=100_000, seed=8)
    assert report.failures == 0
    print(
        "\nACCEPTANCE 7 randomized-codebook marginals match the memoryless law "
        "(TV <= 0.02 at 10^5 trials, exactly 0 for point masses): PASS"
    )


def test_criterion_8_region_monotonicity_and_collapse():
    rng = np.random.default_rng(55)
    for _ in range(20):
        sc = random_gaussian_scenario(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        q = random_quantizers(rng, sc)
        doubled = GaussianScenario(
            num_users=sc.num_users,
            num_relays=sc.num_relays,
            fronthaul=tuple(2.0 * c for c in sc.fronthaul),
            time_share=sc.time_share,
            H=sc.H,
            Sigma=sc.Sigma,
            Kin=sc.Kin,
            power=sc.power,
        )
        before = region_gaussian(sc, q)
        after = region_gaussian(doubled, q)
        assert np.all(after.bounds >= before.bounds - 1e-12)
    # zero fronthaul everywhere: the optimized region is the origin
    rng = np.random.default_rng(56)
    for _ in range(5):
        sc = random_gaussian_scenario(rng, 2, 2, fronthaul_range=(0.0, 0.0))
        res = optimize_gaussian_quantizers(sc)
        assert res.objective <= 1e-9
        region = region_gaussian(sc, res.quantizers)
        assert region.contains([0.0, 0.0])
        assert region.max_user_rate(1) <= 1e-9
        assert region.max_user_rate(2) <= 1e-9
    print(
        "\nACCEPTANCE 8 regions grow with fronthaul and collapse to the origin "
        "without it (20 + 5 scenarios): PASS"
    )


def test_criterion_9_gradient_sanity():
    # closed-form description-rate derivative
    field = ScalarField(
        value=lambda x: float(-np.log2(1.0 - x[0])),
        gradient=lambda x: np.array([1.0 / ((1.0 - x[0]) * math.log(2.0))]),
    )
    for b in (0.1, 0.5, 0.9):
        chk = finite_diff_check(field, np.array([b]))
        assert not chk.inconclusive
        assert chk.max_rel_error <= 1e-5
    # smooth branches of the sum-rate objective at strictly interior points
    # (the objective is kinked both at subset ties and on the PSD boundary,
    # so the probe points keep normalized eigenvalues well inside (0, 1))
    from ocran._linalg import hermitian_part, psd_sqrt
    from ocran.optimize import _pack_hermitian

    rng = np.random.default_rng(4242)
    conclusive = 0
    for _ in range(20):
        sc = random_gaussian_scenario(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        f = sum_rate_field(sc)
        q = random_quantizers(rng, sc, lo=0.1, hi=0.6)
        ws = [
            hermitian_part(psd_sqrt(s) @ b @ psd_sqrt(s))
            for s, b in zip(sc.Sigma, q.B)
        ]
        x = _pack_hermitian(ws)
        chk = finite_diff_check(f, x)
        if chk.inconclusive:
            continue  # landed near a subset tie; the probe flagged it
        conclusive += 1
        assert chk.max_rel_error <= 1e-5, chk
    assert conclusive >= 10
    print(
        f"\nACCEPTANCE 9 analytic gradients match central differences to 1e-5 "
        f"({conclusive} conclusive objective points + closed form): PASS"
    )
