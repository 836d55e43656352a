"""The reduced joint p(q, x, u) against the dense joint p(q, x, y, u).

Every AuxChannels entry point evaluates its bounds from the reduced joint and
the per-relay constants H(U_k | Y_k, Q).  Here each quantity is written out
again with ``cmi`` on the dense joint of ``build_joint``, which keeps the
relay outputs, and the two must agree within 1e-12.  The contract of the
one bound formula, that every bound and region reads ``subset_bounds``, is
checked here for Gaussian evaluators too."""

import functools
import itertools
import math
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
    mask_of,
)
from ocran.discrete import (
    AuxChannels,
    DiscreteEvaluator,
    aux_axis,
    build_joint,
    cmi,
    region_discrete,
    relay_axis,
    user_axis,
)
from ocran.gaussian import GaussianEvaluator, QuantizerSetGaussian, region_gaussian
from ocran.optimize import optimize_discrete_aux
from ocran.sumrate import (
    ALPHA_DENOM_TOL,
    PIVOT_TOL,
    extreme_point,
    extreme_points,
    jd_subset_bounds,
    jd_sum_rate,
    swz_dominating_point,
    swz_equals_jd,
)
from ocran.verify import (random_aux, random_correlated_scenario, random_factorizing_scenario,
                          random_gaussian_scenario, random_quantizers)

from helpers import g_function, save_scenario, traced_peak_mb, wyner_ziv_rate

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
        for pair in enumerate_constraint_pairs(sc.num_users, sc.num_relays):
            value = region.bounds[mask_of(pair.users) - 1, pair.s_mask]
            assert value == pytest.approx(dense.bound(pair, family), abs=TOL, rel=0)
    ev = DiscreteEvaluator.from_aux(sc, aux)
    for pair in enumerate_constraint_pairs(sc.num_users, sc.num_relays):
        for family in ("thm1", "thm3"):
            assert ev.bound(pair, family) == pytest.approx(dense.bound(pair, family), abs=TOL, rel=0)


def test_sum_rate_and_g(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    users = tuple(range(1, sc.num_users + 1))
    expected = [dense.bound(SubsetPair(users, indices_of(s)), "thm3")
                for s in range(1 << sc.num_relays)]
    ev = DiscreteEvaluator.from_aux(sc, aux)
    np.testing.assert_allclose(jd_subset_bounds(ev), expected, atol=TOL, rtol=0)
    r_sum = jd_sum_rate(ev)
    assert r_sum == pytest.approx(dense.jd_sum_rate(), abs=TOL, rel=0)
    for r in (r_sum, 0.5 * r_sum + 0.1):
        g = g_function(ev, r)
        for s_mask in range(1 << sc.num_relays):
            assert g[s_mask] == pytest.approx(dense.g(r, indices_of(s_mask)), abs=TOL, rel=0)


def gaussian_cases():
    """Gaussian (name, scenario, quantizers, mask of the relays on the
    boundary B_k = Sigma_k^{-1}): random quantizers, zero quantizers, and
    relay 2 on the boundary."""
    rng = np.random.default_rng(24)
    cases = []
    for i in range(30):
        sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        cases.append((f"gaussian-{i}", sc, random_quantizers(rng, sc), 0))
    sc = random_gaussian_scenario(rng, 2, 3)
    zero = QuantizerSetGaussian(B=tuple(np.zeros_like(s) for s in sc.Sigma))
    cases.append(("gaussian-zero", sc, zero, 0))
    b = list(random_quantizers(rng, sc).B)
    b[1] = np.linalg.inv(sc.Sigma[1])
    cases.append(("gaussian-boundary", sc, QuantizerSetGaussian(B=tuple(b)), 0b10))
    return cases


BOUND_CASES = [(name, sc, aux, 0) for name, sc, aux in INSTANCES] + gaussian_cases()


@pytest.mark.parametrize("case", BOUND_CASES, ids=[name for name, *_ in BOUND_CASES])
def test_every_bound_reads_subset_bounds(case):
    # one formula for both scenario kinds: every bound, region and region
    # function reads subset_bounds, and a bound is -inf exactly where S
    # holds a relay on the boundary
    _, sc, q, boundary = case
    if isinstance(q, AuxChannels):
        ev, families = DiscreteEvaluator.from_aux(sc, q), ("thm1", "thm3")
        region_of = functools.partial(region_discrete, sc, q)
    else:
        ev, families = GaussianEvaluator.from_quantizers(sc, q), ("thm3",)
        region_of = lambda family: region_gaussian(sc, q)
    full = tuple(range(1, sc.num_users + 1))
    assert ev.subset_bounds().tolist() == ev.subset_bounds(full, "thm3").tolist()
    assert ev.region().bounds.tolist() == ev.region("thm3").bounds.tolist()
    for family in families:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # thm1 on correlated outputs
            rows = region_of(family).bounds.ravel().tolist()
        vectors = []
        for t_mask in range(1, 1 << sc.num_users):
            users = indices_of(t_mask)
            vector = ev.subset_bounds(users, family)
            for s_mask, value in enumerate(vector):
                assert ev.bound(SubsetPair(users, indices_of(s_mask)), family) == value
            vectors += vector.tolist()
        region = ev.region(family)
        assert rows == vectors == region.bounds.ravel().tolist()
        assert all((b == -math.inf) == bool(s & boundary) for _, s, b in region.csv_rows())


def test_sum_rate_bounds_take_2_to_the_k_plus_2_entropies(instance, monkeypatch):
    sc, aux, _ = instance
    # every entropy is taken in a batch of marginals: count the marginals
    calls = []
    original = discrete._batch_entropies

    def counting(batch):
        calls.extend(1 for _ in batch)
        return original(batch)

    monkeypatch.setattr(discrete, "_batch_entropies", counting)
    ev = DiscreteEvaluator.from_aux(sc, aux)
    ev.subset_bounds()
    assert len(calls) == (1 << sc.num_relays) + 2


def test_region_keeps_only_the_marginals_given_q(instance):
    # thm1 reduces p(U_m, X_{T^c}, Q) and p(U_m, X, Q) for every user set T;
    # none of those marginals stays on the evaluator, only their entropies,
    # read-only vectors of 2^K entries (the search's pass keeps its own)
    sc, aux, _ = instance
    ev = DiscreteEvaluator.from_aux(sc, aux)
    ev.region("thm1")
    held = [v for v in vars(ev).values() if isinstance(v, (list, np.ndarray)) and v is not ev.p]
    assert held == []
    vectors = [v for d in vars(ev).values() if isinstance(d, dict) for v in d.values()]
    assert vectors and all(v.shape == (1 << sc.num_relays,) for v in vectors)
    assert not any(v.flags.writeable for v in vectors)


def test_sum_rate_pass_rows_are_the_evaluator_bounds(instance):
    # the search's pass and the evaluator write b_S in different float
    # orders; the pass's gradients have one row per relay set
    sc, aux, _ = instance
    factors = discrete.ReducedFactors(sc, aux.aux_sizes)
    rows, jacobian = factors.sum_rate_pass(aux.tables, [discrete._log2(t) for t in aux.tables])
    expected = DiscreteEvaluator.from_aux(sc, aux).subset_bounds()
    np.testing.assert_allclose(rows, expected, atol=1e-12, rtol=0)
    assert [g.shape for g in jacobian()] == [(1 << sc.num_relays,) + t.shape for t in aux.tables]


def per_mask_entropies(ev, kept):
    """H(U_m, X_kept, Q) by relay bitmask m, each marginal summed from the
    whole p(U, X_kept, Q): the oracle for the lattice walk."""
    l, k = ev.sc.num_users, ev.sc.num_relays
    drop = tuple(1 + i for i in range(l) if not kept >> i & 1)
    base = ev.p.sum(axis=drop, keepdims=True) if drop else ev.p
    outs = (tuple(1 + l + i for i in range(k) if not m >> i & 1) for m in range(1 << k))
    return np.array([discrete._entropy(base.sum(axis=out, keepdims=True) if out else base)
                     for out in outs])


@pytest.mark.parametrize("num_relays", range(1, 11))
def test_lattice_entropies_match_per_mask_reductions(num_relays):
    rng = np.random.default_rng(3500 + num_relays)
    for make, num_users, nq in itertools.product(
            (random_factorizing_scenario, random_correlated_scenario), (1, 2), (1, 2)):
        sc = make(rng, num_users, num_relays, num_timeshare=nq)
        ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2,) * num_relays))
        for kept in range(1 << num_users):
            np.testing.assert_allclose(ev.u_entropies(kept), per_mask_entropies(ev, kept),
                                       atol=TOL, rtol=0)


def test_lattice_yields_each_relay_set_once():
    # relay j on axis axes[j], in an order other than the array's
    top = np.random.default_rng(35).random((2, 3, 4, 5, 6))
    axes = (3, 1, 4, 2)
    seen = []
    for m, marginal in discrete._lattice(top, axes):
        seen.append(m)
        out = tuple(a for j, a in enumerate(axes) if not m >> j & 1)
        assert marginal.shape == tuple(1 if a in out else n for a, n in enumerate(top.shape))
        np.testing.assert_allclose(marginal, top.sum(axis=out, keepdims=True), atol=TOL, rtol=0)
    assert sorted(seen) == list(range(16))


def test_lattice_holds_one_path_of_marginals():
    # one path of marginals and the entropy's temporaries peak near 3.5 times p;
    # all 2^12 marginals alive at once would be about 130 times p
    rng = np.random.default_rng(12)
    sc = random_factorizing_scenario(rng, 1, 12)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2,) * 12))
    assert traced_peak_mb(lambda: ev.u_entropies(1)) * 2.0 ** 20 < 6 * ev.p.nbytes


def test_successive_wyner_ziv(instance):
    sc, aux, joint = instance
    dense = Dense(sc, joint)
    ev = DiscreteEvaluator.from_aux(sc, aux)
    for pi in orderings(sc):
        req_dense, total_dense = dense.required(pi)
        for k, relay in enumerate(pi):
            assert wyner_ziv_rate(ev, relay, pi[:k]) == pytest.approx(req_dense[relay - 1],
                                                                       abs=TOL, rel=0)
        # by the chain rule the successive sum-rate is I(X; U | Q), the S = {} bound
        assert jd_subset_bounds(ev)[0] == pytest.approx(total_dense, abs=TOL, rel=0)
    r_sum = jd_sum_rate(ev)
    for pi in orderings(sc):
        res = swz_dominating_point(ev, r_sum, pi)
        point, pivot, alpha, fronthaul, rate, denom = dense.ordering_result(r_sum, pi)
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
    for pi, point in extreme_points(DiscreteEvaluator.from_aux(sc, aux)):
        np.testing.assert_allclose(point, dense.ordering_result(r_sum, pi)[0], atol=TOL, rtol=0)


def test_entry_points_never_build_the_dense_joint(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense joint built")

    monkeypatch.setattr(discrete, "build_joint", refuse)
    _, sc, aux = INSTANCES[-1]  # K = 4, |Q| = 2, correlated
    pair = SubsetPair((1,), (2, 3))
    ev = DiscreteEvaluator.from_aux(sc, aux)
    r_sum = jd_sum_rate(ev)
    pi = (2, 4, 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        region_discrete(sc, aux, "thm1")
    region_discrete(sc, aux, "thm3")
    for family in ("thm1", "thm3"):
        DiscreteEvaluator.from_aux(sc, aux).bound(pair, family)
    jd_subset_bounds(ev)
    extreme_point(ev, r_sum, pi)
    extreme_points(ev)
    swz_dominating_point(ev, r_sum, pi)
    swz_equals_jd(ev)
    optimize_discrete_aux(sc, (2, 2, 2, 2), restarts=1, max_iters=1)
    path = tmp_path / "sc.json"
    save_scenario(sc, path, aux)
    for command in ("region", "sumrate", "swz-check", "extreme-points"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == 0


def test_commands_never_form_a_joint_pmf(monkeypatch, tmp_path):
    # JointPmf is the dense reference of the tests; the evaluator holds the
    # reduced joint as a plain array
    def refuse(*args, **kwargs):
        raise AssertionError("JointPmf formed")

    monkeypatch.setattr(discrete, "JointPmf", refuse)
    _, sc, aux = INSTANCES[-1]  # K = 4, |Q| = 2, correlated
    path = tmp_path / "sc.json"
    save_scenario(sc, path, aux)
    runs = (["region", "--which", "thm1"], ["region", "--which", "thm3"], ["sumrate"],
            ["swz-check"], ["extreme-points"],
            ["optimize", "--aux-sizes", "2,2,2,2", "--restarts", "1", "--iters", "2"])
    for i, argv in enumerate(runs):
        assert main([*argv, "--scenario", str(path), "--out", str(tmp_path / f"out{i}")]) == 0


class TestSizeGuard:
    """MAX_JOINT_ENTRIES caps the tensors the reduced path builds, not the
    dense joint it no longer forms."""

    def test_dense_joint_over_the_guard_evaluates(self):
        rng = np.random.default_rng(7)
        sc = random_correlated_scenario(rng, 1, 4, (2,), (10, 10, 10, 10))
        aux = random_aux(rng, sc, (10, 10, 10, 10))
        with pytest.raises(CapacityError):
            build_joint(sc, aux)  # 2e8 entries
        r_sum = jd_sum_rate(DiscreteEvaluator.from_aux(sc, aux))  # largest tensor: 2e4 entries
        assert np.isfinite(r_sum) and r_sum >= 0
        assert region_discrete(sc, aux, "thm3").sum_rate_bound() == pytest.approx(
            r_sum, abs=TOL, rel=0)

    def test_oversized_reduced_joint_is_refused(self):
        rng = np.random.default_rng(8)
        sc = random_factorizing_scenario(rng, 1, 2, (2,), (2, 2))
        aux = random_aux(rng, sc, (4000, 2000))  # p(q, x, u) would hold 1.6e7 entries
        with pytest.raises(CapacityError, match="reduced joint"):
            jd_sum_rate(DiscreteEvaluator.from_aux(sc, aux))
