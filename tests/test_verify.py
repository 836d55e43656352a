"""The stacked matrix_lemmas suite against a loop over the per-matrix
functions, the failure path of the suites that run on stacked or whitened
kernels, and a NaN gap failing every suite."""

import math

import numpy as np
import pytest

from ocran import _linalg as la
from ocran import verify
from ocran.core import ScenarioError
from ocran.gaussian import matrix_lemma_check
from ocran.verify import (
    _lemma_draws,
    matrix_lemma_cases,
    pd_from_factor,
    run_suites,
    suite_matrix_lemmas,
    suite_mc,
)

from helpers import (inject_suite_fault, inject_suite_nan, weighted_arithmetic_mean,
                     weighted_harmonic_mean)


def per_matrix_case(dim, count, head, mats, weights):
    """One matrix_lemmas instance, built from its raw draws and checked one
    matrix at a time."""
    sq = dim * dim

    def factor(part, shape):
        re, im = np.split(part, 2)
        return (re + 1j * im).reshape(shape)

    a, w, c = np.split(head, [2 * sq, 2 * sq + 2 * dim])
    a = pd_from_factor(factor(a, (dim, dim)))
    w = factor(w, (dim, 1))
    b = la.hermitian_part(a + w @ w.conj().T)
    c = pd_from_factor(factor(c, (dim, dim)))
    held = matrix_lemma_check(a, b, c)
    mats = [pd_from_factor(factor(m, (dim, dim))) for m in np.split(mats, count)]
    weights = weights / weights.sum()
    diff = weighted_arithmetic_mean(mats, weights) - weighted_harmonic_mean(mats, weights)
    # the same quantities written directly in numpy
    direct_held = (np.linalg.slogdet(np.eye(dim) + b @ c)[1]
                   >= np.linalg.slogdet(np.eye(dim) + a @ c)[1] - 1e-10 * math.log(2.0))
    harmonic = np.linalg.inv(sum(wi * np.linalg.inv(m) for wi, m in zip(weights, mats)))
    arithmetic = sum(wi * m for wi, m in zip(weights, mats))
    direct_gap = -np.linalg.eigvalsh(la.hermitian_part(arithmetic - harmonic)).min()
    return held, -la.min_eig(diff), bool(direct_held), float(direct_gap)


def per_matrix_cases(instances, seed):
    """Every instance of ``matrix_lemma_cases(instances, seed)`` from the same
    raw draws, one matrix at a time, and the (dim, count) groups drawn."""
    rng = np.random.default_rng(seed)
    expected = [None] * instances
    groups = set()
    for start in range(0, instances, verify.LEMMA_BLOCK):
        stop = min(start + verify.LEMMA_BLOCK, instances)
        for idx, dim, count, *rows in _lemma_draws(rng, start, stop):
            groups.add((dim, count))
            for i, head, mats, weights in zip(idx, *rows):
                expected[i] = per_matrix_case(dim, count, head, mats, weights)
    return expected, groups


def test_stacked_cases_match_the_per_matrix_loop(monkeypatch):
    # 500 instances in blocks of 200 continue one generator across blocks
    monkeypatch.setattr(verify, "LEMMA_BLOCK", 200)
    seed, instances = 11, 500
    held, gaps = matrix_lemma_cases(instances, seed)
    expected, groups = per_matrix_cases(instances, seed)
    assert list(held) == [e[0] for e in expected]
    np.testing.assert_allclose(gaps, [e[1] for e in expected], atol=1e-12, rtol=0)
    assert list(held) == [e[2] for e in expected]
    np.testing.assert_allclose(gaps, [e[3] for e in expected], atol=1e-12, rtol=0)
    # every instance dimension and number of means occurs
    assert groups == {(dim, count) for dim in range(1, 5) for count in range(2, 5)}


def test_lemma_draws_stack_each_group_from_one_generator():
    """A block draws its dimensions and counts first, then each group's
    stacks from the same generator: the head normals, the means' factors and
    the weights."""
    groups = list(_lemma_draws(np.random.default_rng(4), 100, 400))
    ref = np.random.default_rng(4)
    dims, counts = ref.integers(1, 5, size=300), ref.integers(2, 5, size=300)
    seen = []
    for idx, dim, count, head, mats, weights in groups:
        assert (dims[idx - 100] == dim).all() and (counts[idx - 100] == count).all()
        assert head.shape == (idx.size, 2 * dim * (2 * dim + 1))
        assert mats.shape == (idx.size, 2 * count * dim * dim)
        np.testing.assert_array_equal(head, ref.normal(size=head.shape))
        np.testing.assert_array_equal(mats, ref.normal(size=mats.shape))
        np.testing.assert_array_equal(weights, ref.standard_exponential(weights.shape))
        seen.extend(idx)
    assert sorted(seen) == list(range(100, 400))
    assert [g[1:3] for g in groups] == sorted(g[1:3] for g in groups)


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
    expected, _ = per_matrix_cases(instances, 5)
    assert list(held) == [e[0] for e in expected]
    np.testing.assert_allclose(gaps, [e[1] for e in expected], atol=1e-12, rtol=0)


@pytest.mark.parametrize("kwargs, message", [({"instances": 0}, "at least 1"),
                                             ({"names": ("nope",)}, "unknown suite")])
def test_bad_suite_arguments_are_scenario_errors(kwargs, message):
    with pytest.raises(ScenarioError, match=message):
        run_suites(**kwargs)


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
