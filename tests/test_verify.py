"""The stacked matrix_lemmas suite against a loop over the per-matrix
functions, the failure path of the suites that run on stacked or whitened
kernels, and a NaN gap failing every suite."""

import math

import numpy as np
import pytest

from ocran import _linalg as la
from ocran import verify
from ocran.core import spawn_seeds
from ocran.gaussian import matrix_lemma_check, weighted_arithmetic_mean, weighted_harmonic_mean
from ocran.verify import (
    matrix_lemma_cases,
    random_pd,
    run_suites,
    suite_matrix_lemmas,
    suite_mc,
)

from helpers import inject_suite_fault, inject_suite_nan


def per_matrix_case(instance_seed):
    """One matrix_lemmas instance, drawn and checked one matrix at a time."""
    rng = np.random.default_rng(instance_seed)
    dim = int(rng.integers(1, 5))
    a = random_pd(rng, dim)
    w = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
    b = la.hermitian_part(a + w @ w.conj().T)
    c = random_pd(rng, dim)
    held = matrix_lemma_check(a, b, c)
    count = int(rng.integers(2, 5))
    mats = [random_pd(rng, dim) for _ in range(count)]
    weights = rng.dirichlet(np.ones(count))
    diff = weighted_arithmetic_mean(mats, weights) - weighted_harmonic_mean(mats, weights)
    # the same quantities written directly in numpy
    direct_held = (np.linalg.slogdet(np.eye(dim) + b @ c)[1]
                   >= np.linalg.slogdet(np.eye(dim) + a @ c)[1] - 1e-10 * math.log(2.0))
    harmonic = np.linalg.inv(sum(wi * np.linalg.inv(m) for wi, m in zip(weights, mats)))
    arithmetic = sum(wi * m for wi, m in zip(weights, mats))
    direct_gap = -np.linalg.eigvalsh(la.hermitian_part(arithmetic - harmonic)).min()
    return held, -la.min_eig(diff), bool(direct_held), float(direct_gap)


def test_stacked_cases_match_the_per_matrix_loop():
    seed, instances = 11, 500
    held, gaps = matrix_lemma_cases(instances, seed)
    expected = [per_matrix_case(s) for s in spawn_seeds(seed, instances)]
    assert list(held) == [e[0] for e in expected]
    np.testing.assert_allclose(gaps, [e[1] for e in expected], atol=1e-12, rtol=0)
    assert list(held) == [e[2] for e in expected]
    np.testing.assert_allclose(gaps, [e[3] for e in expected], atol=1e-12, rtol=0)
    # every instance dimension and number of means occurs
    dims = {np.random.default_rng(s).integers(1, 5) for s in spawn_seeds(seed, instances)}
    assert dims == {1, 2, 3, 4}


def test_suite_report_is_built_from_the_cases():
    held, gaps = matrix_lemma_cases(200, 3)
    report = suite_matrix_lemmas(200, 3)
    assert report.failures == int(np.sum(~held | (gaps > 1e-10))) == 0
    assert report.worst_gap == float(gaps.max())


def test_injected_fault_fails_matrix_lemmas(monkeypatch):
    # the mean ordering usually holds with far more slack than 1e-3, so the
    # fault must fail the suite at any count, not only where a gap is near 0
    for instances in (1, 50, 200):
        clean = suite_matrix_lemmas(instances=instances, seed=0)
        with monkeypatch.context() as patch:
            inject_suite_fault(patch, "matrix_lemmas")
            faulty = suite_matrix_lemmas(instances=instances, seed=0)
        assert clean.failures == 0
        assert faulty.failures == 1
        assert faulty.worst_gap >= 1e-3


def test_injected_fault_fails_mc(monkeypatch):
    monkeypatch.setattr(verify, "MC_SAMPLES", 20_000)
    clean = suite_mc(instances=2, seed=0)
    inject_suite_fault(monkeypatch, "mc")
    faulty = suite_mc(instances=2, seed=0)
    assert clean.failures == 0
    assert faulty.failures == 2
    assert faulty.worst_gap > clean.worst_gap


@pytest.mark.parametrize("suite, count", [("class_equivalence", 5), ("swz", 5), ("mc", 2),
                                          ("codebook", 100_000), ("matrix_lemmas", 50)])
def test_a_nan_gap_fails(monkeypatch, suite, count):
    monkeypatch.setattr(verify, "MC_SAMPLES", 20_000)
    (clean,) = run_suites((suite,), instances=count)
    inject_suite_nan(monkeypatch, suite)
    (faulty,) = run_suites((suite,), instances=count)
    assert clean.failures == 0
    assert faulty.failures == 1
    assert faulty.cases == clean.cases
    assert faulty.worst_gap == math.inf


@pytest.mark.parametrize("instances", [1, 7])
def test_small_stacks(instances):
    held, gaps = matrix_lemma_cases(instances, 5)
    expected = [per_matrix_case(s) for s in spawn_seeds(5, instances)]
    assert list(held) == [e[0] for e in expected]
    np.testing.assert_allclose(gaps, [e[1] for e in expected], atol=1e-12, rtol=0)


def test_run_suites_keeps_each_suite_default_count():
    (report,) = run_suites(("swz",))
    assert report.cases == 50
    (report,) = run_suites(("swz",), instances=3)
    assert report.cases == 3


def test_codebook_suite_runs_below_ten_trials(monkeypatch):
    """The point mass takes a tenth of the trials, at least one, and matches
    its law exactly at any count."""
    point_mass_tv = []
    original = verify.sample_codebook_marginal

    def recording(ens, trials):
        res = original(ens, trials)
        if ens.input_pmf[0, 0] == 1.0:
            point_mass_tv.append((trials, float(res.tv.max())))
        return res

    monkeypatch.setattr(verify, "sample_codebook_marginal", recording)
    (report,) = run_suites(("codebook",), instances=5)
    assert report.cases == 3
    assert point_mass_tv == [(1, 0.0)]
