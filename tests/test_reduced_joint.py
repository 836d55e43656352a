"""The reduced joint p(q, x, u) against the dense joint p(q, x, y, u).

Every AuxChannels entry point evaluates its bounds from the reduced joint and
the per-relay constants H(U_k | Y_k, Q).  Here each quantity is written out
again with ``cmi`` on the dense joint of ``build_joint``, which keeps the
relay outputs, and the two must agree within 1e-12."""

import itertools
import warnings

import numpy as np
import pytest

from ocran import discrete
from ocran.cli import main
from ocran.core import (
    CapacityError,
    SubsetPair,
    enumerate_constraint_pairs,
    indices_of,
    save_scenario,
)
from ocran.discrete import (
    aux_axis,
    build_joint,
    cmi,
    region_discrete,
    relay_axis,
    thm1_constraint,
    thm3_constraint,
    user_axis,
)
from ocran.optimize import OptimizerConfig, optimize_discrete_aux
from ocran.sumrate import (
    ALPHA_DENOM_TOL,
    PIVOT_TOL,
    check_supermodular,
    extreme_point,
    extreme_points,
    g_function,
    jd_subset_bounds,
    jd_sum_rate,
    sd_achievable,
    swz_dominating_point,
    swz_equals_jd,
    swz_required_fronthaul,
)
from ocran.verify import random_aux, random_correlated_scenario, random_factorizing_scenario

TOL = 1e-12


def make_instances():
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(24):
        make = random_factorizing_scenario if i % 2 == 0 else random_correlated_scenario
        num_users, num_relays, nq = 1 + (i // 2) % 2, 1 + (i // 4) % 3, 1 + (i // 12) % 2
        x_sizes = tuple(int(v) for v in rng.integers(2, 4, size=num_users))
        y_sizes = tuple(int(v) for v in rng.integers(2, 4, size=num_relays))
        u_sizes = tuple(int(v) for v in rng.integers(1, 5, size=num_relays))
        sc = make(rng, num_users, num_relays, x_sizes, y_sizes, num_timeshare=nq)
        cases.append((f"{make.__name__[7:-9]}-L{num_users}-K{num_relays}-Q{nq}",
                      sc, random_aux(rng, sc, u_sizes)))
    for i in range(4):
        make = random_factorizing_scenario if i % 2 == 0 else random_correlated_scenario
        nq = 1 + i // 2
        sc = make(rng, 1, 4, (2,), (2, 2, 2, 2), num_timeshare=nq)
        cases.append((f"{make.__name__[7:-9]}-L1-K4-Q{nq}", sc,
                      random_aux(rng, sc, (2, 3, 1, 2))))
    return cases


INSTANCES = make_instances()


@pytest.fixture(params=INSTANCES, ids=[name for name, _, _ in INSTANCES])
def instance(request):
    _, sc, aux = request.param
    return sc, aux, build_joint(sc, aux)


class Dense:
    """The rate expressions from cmi on the dense joint, as the paper writes them."""

    def __init__(self, sc, joint):
        self.sc, self.j = sc, joint
        self.x_all = {user_axis(l) for l in range(1, sc.num_users + 1)}
        self.u_all = {aux_axis(k) for k in range(1, sc.num_relays + 1)}

    @staticmethod
    def u(relays):
        return {aux_axis(k) for k in relays}

    @staticmethod
    def y(relays):
        return {relay_axis(k) for k in relays}

    def bound(self, pair, family):
        c = self.sc.fronthaul
        x_t = {user_axis(l) for l in pair.users}
        u_sc = self.u(pair.relays_complement(self.sc.num_relays))
        common = cmi(self.j, x_t, u_sc, (self.x_all - x_t) | {"Q"})
        if family == "thm1":
            return common + sum(
                c[k - 1] - cmi(self.j, self.y([k]), self.u([k]), self.x_all | {"Q"})
                for k in pair.relays)
        return common + sum(c[k - 1] for k in pair.relays) - cmi(
            self.j, self.y(pair.relays), self.u(pair.relays), self.x_all | u_sc | {"Q"})

    def g(self, r_sum, relays):
        u_s = self.u(relays)
        return (r_sum + cmi(self.j, u_s, self.y(relays), (self.u_all - u_s) | {"Q"})
                - cmi(self.j, self.u_all, self.x_all, {"Q"}))

    def jd_sum_rate(self):
        users = tuple(range(1, self.sc.num_users + 1))
        return max(0.0, min(self.bound(SubsetPair(users, indices_of(s)), "thm3")
                            for s in range(1 << self.sc.num_relays)))

    def required(self, pi):
        req = np.zeros(len(pi))
        for k, relay in enumerate(pi):
            req[relay - 1] = cmi(self.j, self.u([relay]), self.y([relay]),
                                 self.u(pi[:k]) | {"Q"})
        total = sum(cmi(self.j, {user_axis(l)}, self.u_all,
                        {user_axis(i) for i in range(1, l)} | {"Q"})
                    for l in range(1, self.sc.num_users + 1))
        return req, total

    def ordering_result(self, r_sum, pi):
        """(extreme point, pivot, idle share, scheme fronthaul, scheme sum-rate,
        the pivot's description rate that divides the idle share)."""
        kk = len(pi)
        chain = [self.g(r_sum, pi[:k]) for k in range(kk + 1)]
        point = np.zeros(kk)
        for k in range(1, kk + 1):
            point[pi[k - 1] - 1] = max(0.0, max(0.0, chain[k]) - max(0.0, chain[k - 1]))
        pivot = next((k for k in range(1, kk + 1) if chain[k] > PIVOT_TOL), None)
        if pivot is None:
            return point, None, 1.0, np.zeros(kk), 0.0, 1.0
        cond = {k: cmi(self.j, self.y([pi[k - 1]]), self.u([pi[k - 1]]), self.u(pi[k:]) | {"Q"})
                for k in range(pivot, kk + 1)}
        denom = cond[pivot]
        g_before = chain[pivot - 1] if abs(chain[pivot - 1]) > PIVOT_TOL else 0.0
        alpha = 1.0 if denom < ALPHA_DENOM_TOL else min(1.0, max(0.0, -g_before / denom))
        fronthaul = np.zeros(kk)
        for k in range(pivot, kk + 1):
            fronthaul[pi[k - 1] - 1] = (1.0 - alpha) * denom if k == pivot else cond[k]
        rate = cmi(self.j, self.x_all, self.u(pi[pivot - 1:]), {"Q"}) - alpha * cmi(
            self.j, self.x_all, self.u([pi[pivot - 1]]), self.u(pi[pivot:]) | {"Q"})
        return point, pivot, alpha, fronthaul, rate, denom


def orderings(sc):
    return list(itertools.permutations(range(1, sc.num_relays + 1)))


def test_region_bounds(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    for family in ("thm1", "thm3"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # thm1 on correlated outputs
            region = region_discrete(sc, aux, family)
        for pair, value in region.constraints:
            assert value == pytest.approx(dense.bound(pair, family), abs=TOL, rel=0)
    for pair in enumerate_constraint_pairs(sc.num_users, sc.num_relays):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # thm1 on correlated outputs
            v1 = thm1_constraint(sc, aux, pair)
        assert v1 == pytest.approx(dense.bound(pair, "thm1"), abs=TOL, rel=0)
        assert thm3_constraint(sc, aux, pair) == pytest.approx(
            dense.bound(pair, "thm3"), abs=TOL, rel=0)


def test_sum_rate_and_g(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    users = tuple(range(1, sc.num_users + 1))
    expected = [dense.bound(SubsetPair(users, indices_of(s)), "thm3")
                for s in range(1 << sc.num_relays)]
    np.testing.assert_allclose(jd_subset_bounds(sc, aux), expected, atol=TOL, rtol=0)
    r_sum = jd_sum_rate(sc, aux)
    assert r_sum == pytest.approx(dense.jd_sum_rate(), abs=TOL, rel=0)
    for s_mask in range(1 << sc.num_relays):
        relays = indices_of(s_mask)
        for r in (r_sum, 0.5 * r_sum + 0.1):
            assert g_function(sc, aux, r, relays) == pytest.approx(
                dense.g(r, relays), abs=TOL, rel=0)


def test_successive_wyner_ziv(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    for pi in orderings(sc):
        req, total = swz_required_fronthaul(sc, aux, pi)
        req_dense, total_dense = dense.required(pi)
        np.testing.assert_allclose(req, req_dense, atol=TOL, rtol=0)
        assert total == pytest.approx(total_dense, abs=TOL, rel=0)
    cmp_res = swz_equals_jd(sc, aux)
    for res in cmp_res.results:
        point, pivot, alpha, fronthaul, rate, denom = dense.ordering_result(
            cmp_res.jd_sum_rate, res.ordering)
        np.testing.assert_allclose(res.extreme_point, point, atol=TOL, rtol=0)
        # a prefix g that is 0 up to rounding (a relay with |U_k| = 1 first)
        # counts as 0 on both sides, so the pivot is no tie
        assert res.pivot_index == pivot
        # the idle share is -g(prefix) / denom: rounding scaled by 1 / denom
        assert res.idle_fraction == pytest.approx(alpha, abs=TOL / min(1.0, denom), rel=0)
        np.testing.assert_allclose(res.scheme_fronthaul, fronthaul, atol=TOL, rtol=0)
        assert res.scheme_sum_rate == pytest.approx(rate, abs=TOL, rel=0)


def test_extreme_points(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    r_sum = dense.jd_sum_rate()
    for pi, point in extreme_points(sc, aux):
        np.testing.assert_allclose(point, dense.ordering_result(r_sum, pi)[0], atol=TOL, rtol=0)


def test_entry_points_never_build_the_dense_joint(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense joint built")

    monkeypatch.setattr(discrete, "build_joint", refuse)
    _, sc, aux = INSTANCES[-1]  # K = 4, |Q| = 2, correlated
    pair = SubsetPair((1,), (2, 3))
    r_sum = jd_sum_rate(sc, aux)
    pi = (2, 4, 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        region_discrete(sc, aux, "thm1")
        thm1_constraint(sc, aux, pair)
    region_discrete(sc, aux, "thm3")
    thm3_constraint(sc, aux, pair)
    jd_subset_bounds(sc, aux)
    g_function(sc, aux, r_sum, (1, 3))
    sd_achievable(sc, aux, r_sum)
    check_supermodular(sc, aux, r_sum)
    extreme_point(sc, aux, r_sum, pi)
    extreme_points(sc, aux)
    swz_required_fronthaul(sc, aux, pi)
    swz_dominating_point(sc, aux, r_sum, pi)
    swz_equals_jd(sc, aux)
    optimize_discrete_aux(sc, (2, 2, 2, 2), OptimizerConfig(restarts=1, max_iters=1))
    path = tmp_path / "sc.json"
    save_scenario(sc, path, aux)
    for command in ("region", "sumrate", "swz-check", "extreme-points"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == 0


class TestSizeGuard:
    """MAX_JOINT_ENTRIES caps the tensors the reduced path builds, not the
    dense joint it no longer forms."""

    def test_dense_joint_over_the_guard_evaluates(self):
        rng = np.random.default_rng(7)
        sc = random_correlated_scenario(rng, 1, 4, (2,), (10, 10, 10, 10))
        aux = random_aux(rng, sc, (10, 10, 10, 10))
        with pytest.raises(CapacityError):
            build_joint(sc, aux)  # 2e8 entries
        r_sum = jd_sum_rate(sc, aux)  # largest tensor: 2e4 entries
        assert np.isfinite(r_sum) and r_sum >= 0
        assert region_discrete(sc, aux, "thm3").sum_rate_bound() == pytest.approx(
            r_sum, abs=TOL, rel=0)

    def test_oversized_reduced_joint_is_refused(self):
        rng = np.random.default_rng(8)
        sc = random_factorizing_scenario(rng, 1, 2, (2,), (2, 2))
        aux = random_aux(rng, sc, (4000, 2000))  # p(q, x, u) would hold 1.6e7 entries
        with pytest.raises(CapacityError, match="reduced joint"):
            jd_sum_rate(sc, aux)
