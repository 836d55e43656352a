import itertools
import math
import warnings

import numpy as np
import pytest

from ocran.core import CapacityError, ScenarioError, mask_of, spawn_seeds, subset_sums
from ocran.discrete import (AuxChannels, DiscreteEvaluator, DiscreteScenario, build_joint, cmi,
                            identity_aux)
from ocran.gaussian import GaussianEvaluator, QuantizerSetGaussian
from ocran.sumrate import (
    INVARIANT_TOL,
    extreme_point,
    extreme_points,
    jd_subset_bounds,
    jd_sum_rate,
    swz_dominating_point,
    swz_equals_jd,
)
from ocran import discrete, sumrate
from ocran.cli import main
from ocran.core import save_scenario
from ocran.discrete import region_discrete
from ocran.verify import (random_aux, random_correlated_scenario, random_factorizing_scenario,
                          random_gaussian_scenario, random_quantizers)

from helpers import (ScalarOrderings, check_supermodular, g_function, traced_peak_mb,
                     wyner_ziv_rate)


def noiseless_single(fronthaul=0.5):
    return DiscreteScenario(
        num_users=1,
        num_relays=1,
        fronthaul=(fronthaul,),
        time_share=(1.0,),
        px=(np.array([[0.5, 0.5]]),),
        channel=np.eye(2),
    )


def constant_aux(sc):
    return AuxChannels(
        tables=tuple(np.ones((sc.num_timeshare, y, 1)) for y in sc.output_sizes)
    )


class TestJdSumRate:
    def test_constant_aux_gives_zero(self):
        rng = np.random.default_rng(0)
        sc = random_correlated_scenario(rng, 2, 2)
        assert jd_sum_rate(DiscreteEvaluator.from_aux(sc, constant_aux(sc))) == 0.0

    def test_noiseless_single_relay(self):
        sc = noiseless_single(fronthaul=0.5)
        ev = DiscreteEvaluator.from_aux(sc, identity_aux(sc))
        assert jd_sum_rate(ev) == pytest.approx(0.5, abs=1e-12)
        sc = noiseless_single(fronthaul=2.0)
        ev = DiscreteEvaluator.from_aux(sc, identity_aux(sc))
        assert jd_sum_rate(ev) == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_user_constraints_of_general_region(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sc = random_correlated_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (2, 2))
            region = region_discrete(sc, aux, "thm3")
            bounds = region.bounds[-1].tolist()  # the full user set is the last row
            ev = DiscreteEvaluator.from_aux(sc, aux)
            assert jd_sum_rate(ev) == pytest.approx(
                max(0.0, min(bounds)), abs=1e-12
            )
            np.testing.assert_allclose(jd_subset_bounds(ev), bounds, atol=1e-12)


class TestGFunction:
    def test_empty_set(self):
        rng = np.random.default_rng(2)
        sc = random_correlated_scenario(rng, 1, 2)
        aux = random_aux(rng, sc, (2, 2))
        j = build_joint(sc, aux)
        r_sum = 0.4
        expected = r_sum - cmi(j, {"U1", "U2"}, {"X1"}, {"Q"})
        g = g_function(DiscreteEvaluator.from_aux(sc, aux), r_sum)
        assert g[mask_of(())] == pytest.approx(expected, abs=1e-12)
        assert max(0.0, g[mask_of(())]) == max(0.0, expected)

    def test_full_set_with_copy_aux(self):
        rng = np.random.default_rng(3)
        sc = random_correlated_scenario(rng, 1, 2)
        aux = identity_aux(sc)
        j = build_joint(sc, aux)
        r_sum = 0.3
        h_y = j.entropy({"Y1", "Y2", "Q"}) - j.entropy({"Q"})
        i_yx = cmi(j, {"Y1", "Y2"}, {"X1"}, {"Q"})
        assert g_function(DiscreteEvaluator.from_aux(sc, aux), r_sum)[
            mask_of((1, 2))] == pytest.approx(r_sum + h_y - i_yx, abs=1e-12)

    def test_chain_increments_are_conditional_information(self):
        # g({pi(1..k)}) - g({pi(1..k-1)}) telescopes to the per-relay
        # description rates conditioned on the later chain relays
        rng = np.random.default_rng(4)
        sc = random_correlated_scenario(rng, 2, 2)
        aux = random_aux(rng, sc, (2, 3))
        j = build_joint(sc, aux)
        g = g_function(DiscreteEvaluator.from_aux(sc, aux), 0.2)
        inc = g[mask_of((1,))] - g[mask_of(())]
        assert inc == pytest.approx(cmi(j, {"Y1"}, {"U1"}, {"U2", "Q"}), abs=1e-11)


class TestSupermodularity:
    def test_single_relay_vacuous(self):
        sc = noiseless_single()
        ok, worst = check_supermodular(DiscreteEvaluator.from_aux(sc, identity_aux(sc)), 0.5)
        assert ok and worst == 0.0

    def test_constant_aux_is_modular(self):
        rng = np.random.default_rng(5)
        sc = random_correlated_scenario(rng, 1, 2)
        ok, worst = check_supermodular(DiscreteEvaluator.from_aux(sc, constant_aux(sc)), 0.7)
        assert ok
        assert worst == pytest.approx(0.0, abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            factorizing = bool(rng.integers(2))
            make = random_factorizing_scenario if factorizing else random_correlated_scenario
            sc = make(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
            aux = random_aux(rng, sc)
            r_sum = float(rng.uniform(0.0, 1.0))
            ok, worst = check_supermodular(DiscreteEvaluator.from_aux(sc, aux), r_sum)
            assert ok, f"supermodularity violated by {worst}"


class TestExtremePoints:
    def test_single_relay(self):
        sc = noiseless_single()
        ev = DiscreteEvaluator.from_aux(sc, identity_aux(sc))
        point = extreme_point(ev, 0.5, (1,))
        assert point[0] == pytest.approx(
            max(0.0, g_function(ev, 0.5)[mask_of((1,))]), abs=1e-12
        )

    def test_two_relay_hand_telescoped(self):
        rng = np.random.default_rng(7)
        sc = random_correlated_scenario(rng, 1, 2)
        ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2, 2)))
        r_sum = jd_sum_rate(ev)
        gp = lambda s: max(0.0, g_function(ev, r_sum)[mask_of(s)])
        point = extreme_point(ev, r_sum, (2, 1))
        assert point[1] == pytest.approx(gp((2,)) - gp(()), abs=1e-12)
        assert point[0] == pytest.approx(gp((1, 2)) - gp((2,)), abs=1e-12)

    def test_all_orderings_telescope_to_full_value(self):
        rng = np.random.default_rng(8)
        sc = random_correlated_scenario(rng, 2, 3)
        ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2, 2, 2)))
        r_sum = jd_sum_rate(ev)
        total = max(0.0, g_function(ev, r_sum)[mask_of((1, 2, 3))])
        for pi in itertools.permutations((1, 2, 3)):
            point = extreme_point(ev, r_sum, pi)
            assert np.all(point >= 0.0)
            assert point.sum() == pytest.approx(total, abs=1e-12)

    def test_invalid_ordering(self):
        sc = noiseless_single()
        with pytest.raises(ValueError):
            extreme_point(DiscreteEvaluator.from_aux(sc, identity_aux(sc)), 0.5, (1, 1))


class TestSwzFronthaul:
    def test_constant_aux(self):
        rng = np.random.default_rng(9)
        sc = random_correlated_scenario(rng, 1, 2)
        ev = DiscreteEvaluator.from_aux(sc, constant_aux(sc))
        for relay, side in ((1, ()), (2, (1,))):
            assert wyner_ziv_rate(ev, relay, side) == pytest.approx(0.0, abs=1e-12)
        assert jd_subset_bounds(ev)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_relay(self):
        sc = noiseless_single()
        aux = identity_aux(sc)
        ev = DiscreteEvaluator.from_aux(sc, aux)
        j = build_joint(sc, aux)
        assert wyner_ziv_rate(ev, 1, ()) == pytest.approx(cmi(j, {"U1"}, {"Y1"}, {"Q"}),
                                                           abs=1e-12)
        assert jd_subset_bounds(ev)[0] == pytest.approx(1.0, abs=1e-12)

    def test_side_information_helps(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            sc = random_correlated_scenario(rng, 1, 2)
            aux = random_aux(rng, sc, (2, 2))
            j = build_joint(sc, aux)
            rate = wyner_ziv_rate(DiscreteEvaluator.from_aux(sc, aux), 2, (1,))
            unconditional = cmi(j, {"U2"}, {"Y2"}, {"Q"})
            assert rate <= unconditional + 1e-12

    def test_chain_rule_consistency(self):
        # decoding every relay in turn describes I(U; Y | Q) in all, and
        # delivers I(X; U | Q), the S = {} bound
        rng = np.random.default_rng(11)
        for _ in range(10):
            sc = random_correlated_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (2, 2))
            ev = DiscreteEvaluator.from_aux(sc, aux)
            j = build_joint(sc, aux)
            described = wyner_ziv_rate(ev, 1, ()) + wyner_ziv_rate(ev, 2, (1,))
            assert described == pytest.approx(
                cmi(j, {"U1", "U2"}, {"Y1", "Y2"}, {"Q"}), abs=1e-12
            )
            assert jd_subset_bounds(ev)[0] == pytest.approx(
                cmi(j, {"X1", "X2"}, {"U1", "U2"}, {"Q"}), abs=1e-12
            )


class TestDominatingPoint:
    def test_alpha_zero_boundary(self):
        # choosing the target so g(empty) = 0 puts the pivot at position 1
        # with no idle time: the scheme needs the full extreme-point fronthaul
        rng = np.random.default_rng(12)
        sc = random_correlated_scenario(rng, 1, 2)
        aux = random_aux(rng, sc, (2, 2))
        j = build_joint(sc, aux)
        r_sum = cmi(j, {"U1", "U2"}, {"X1"}, {"Q"})  # makes g(empty) exactly 0
        res = swz_dominating_point(DiscreteEvaluator.from_aux(sc, aux), r_sum, (1, 2))
        assert res.pivot_index == 1
        assert res.idle_fraction == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.scheme_fronthaul, res.extreme_point, atol=1e-9)

    def test_single_relay_equality(self):
        sc = noiseless_single(fronthaul=0.5)
        ev = DiscreteEvaluator.from_aux(sc, identity_aux(sc))
        target = jd_sum_rate(ev)
        res = swz_dominating_point(ev, target, (1,))
        assert res.scheme_sum_rate == pytest.approx(target, abs=1e-9)
        assert res.extreme_point[0] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_all_silent(self):
        rng = np.random.default_rng(13)
        sc = random_correlated_scenario(rng, 1, 2)
        res = swz_dominating_point(DiscreteEvaluator.from_aux(sc, constant_aux(sc)), 0.0, (1, 2))
        assert res.pivot_index is None
        np.testing.assert_array_equal(res.scheme_fronthaul, 0.0)
        assert res.scheme_sum_rate == 0.0

    def test_extreme_point_lies_in_fronthaul_polytope(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sc = random_correlated_scenario(rng, 2, 2)
            ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2, 3)))
            target = jd_sum_rate(ev)
            for pi in ((1, 2), (2, 1)):
                point = extreme_point(ev, target, pi)
                for s in ((1,), (2,), (1, 2)):
                    need = max(0.0, g_function(ev, target)[mask_of(s)])
                    assert sum(point[k - 1] for k in s) >= need - 1e-9

    def test_construction_matches_explicit_time_shared_scenario(self):
        # realize the time-shared scheme as an actual scenario: double the
        # time-share alphabet with an idle slot of probability idle_fraction,
        # silence the early chain relays (and the pivot during the idle slot),
        # then measure the successive-decoding fronthaul and sum-rate of that
        # scenario from scratch
        rng = np.random.default_rng(71)
        for _ in range(5):
            sc = random_correlated_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (2, 3))
            ev = DiscreteEvaluator.from_aux(sc, aux)
            target = jd_sum_rate(ev)
            for pi in ((1, 2), (2, 1)):
                res = swz_dominating_point(ev, target, pi)
                if res.pivot_index is None:
                    continue
                nq = sc.num_timeshare
                alpha = res.idle_fraction
                ts = []
                for q in range(nq):
                    ts.extend(
                        [sc.time_share[q] * alpha, sc.time_share[q] * (1 - alpha)]
                    )
                sc2 = DiscreteScenario(
                    num_users=sc.num_users,
                    num_relays=2,
                    fronthaul=sc.fronthaul,
                    time_share=tuple(ts),
                    px=tuple(np.repeat(t, 2, axis=0) for t in sc.px),
                    channel=sc.channel,
                )
                tables = []
                for k in (1, 2):
                    t = aux.tables[k - 1]
                    t2 = np.zeros((2 * nq,) + t.shape[1:])
                    pos = pi.index(k) + 1
                    for q in range(nq):
                        for slot, idle in ((2 * q, True), (2 * q + 1, False)):
                            if pos < res.pivot_index or (
                                pos == res.pivot_index and idle
                            ):
                                t2[slot, :, 0] = 1.0  # silent relay
                            else:
                                t2[slot] = t[q]
                    tables.append(t2)
                ev2 = DiscreteEvaluator.from_aux(sc2, AuxChannels(tables=tuple(tables)))
                # decoded along the chain reversed: the later chain relays are side information
                req = [wyner_ziv_rate(ev2, k, pi[pi.index(k) + 1:]) for k in (1, 2)]
                np.testing.assert_allclose(req, res.scheme_fronthaul, atol=1e-10)
                assert jd_subset_bounds(ev2)[0] == pytest.approx(res.scheme_sum_rate, abs=1e-10)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            sc = random_correlated_scenario(rng, int(rng.integers(1, 3)), 2)
            ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2, 3)))
            target = jd_sum_rate(ev) * float(rng.uniform(0.0, 1.0))
            total = max(0.0, g_function(ev, target)[mask_of((1, 2))])
            for pi in ((1, 2), (2, 1)):
                res = swz_dominating_point(ev, target, pi)
                assert res.extreme_point.sum() == pytest.approx(total, abs=1e-12)
                assert np.all(res.scheme_fronthaul <= res.extreme_point + 1e-9)
                assert res.scheme_sum_rate >= target - 1e-9
                assert 0.0 <= res.idle_fraction <= 1.0


class TestSumRateEquivalence:
    def test_constant_aux(self):
        rng = np.random.default_rng(15)
        sc = random_correlated_scenario(rng, 1, 2)
        cmp_res = swz_equals_jd(DiscreteEvaluator.from_aux(sc, constant_aux(sc)))
        assert cmp_res.jd_sum_rate == 0.0
        assert cmp_res.best_sum_rate == 0.0
        assert cmp_res.gap == 0.0

    def test_single_relay(self):
        sc = noiseless_single(fronthaul=0.5)
        cmp_res = swz_equals_jd(DiscreteEvaluator.from_aux(sc, identity_aux(sc)))
        assert cmp_res.gap <= 1e-9
        assert cmp_res.jd_sum_rate == pytest.approx(0.5, abs=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            sc = random_correlated_scenario(rng, 2, 2)
            cmp_res = swz_equals_jd(DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2, 2))))
            assert cmp_res.gap <= 1e-9
            assert cmp_res.best_ordering is not None

    def test_lexicographic_tie_break(self):
        # symmetric relays make every ordering equivalent; the reported best
        # must be the lexicographically smallest permutation
        ch = np.zeros((2, 2, 2))
        ch[0, 0, 0] = ch[1, 1, 1] = 1.0
        sc = DiscreteScenario(
            num_users=1,
            num_relays=2,
            fronthaul=(0.4, 0.4),
            time_share=(1.0,),
            px=(np.array([[0.5, 0.5]]),),
            channel=ch,
        )
        cmp_res = swz_equals_jd(DiscreteEvaluator.from_aux(sc, identity_aux(sc)))
        assert cmp_res.best_ordering == (1, 2)


class TestSharedEvaluator:
    """Every ordering is evaluated on one joint, with the same numbers as the
    per-ordering entry points."""

    @staticmethod
    def instance():
        # K = 3 with pivots at chain positions 1 and 2 and fractional idle shares
        rng = np.random.default_rng(32)
        sc = random_factorizing_scenario(rng, 1, 3)
        return sc, random_aux(rng, sc)

    @staticmethod
    def count_evaluators(monkeypatch):
        calls = []
        original = discrete.ReducedFactors.evaluator

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(discrete.ReducedFactors, "evaluator", counting)
        return calls

    def test_swz_equals_jd_builds_one_evaluator(self, monkeypatch):
        sc, aux = self.instance()
        calls = self.count_evaluators(monkeypatch)
        swz_equals_jd(DiscreteEvaluator.from_aux(sc, aux))
        assert len(calls) == 1

    @staticmethod
    def count_bound_formations(ev):
        """The keys of the bound vectors that ``ev`` forms from now on:
        formations, not calls, since each formed vector is stored once in
        the evaluator's bound cache."""
        calls = []

        class Counting(dict):
            def __setitem__(self, key, value):
                calls.append(key)
                super().__setitem__(key, value)

        ev._bounds = Counting(ev._bounds)
        return calls

    @staticmethod
    def record_blocks(monkeypatch):
        """The blocks that ``sumrate._walk`` gives its caller from now on, in
        its order, each (pi, points, ...) as the walk yields it; the caller
        keeps none of them itself."""
        blocks = []
        original = sumrate._walk

        def recording(*args, **kwargs):
            r_sum, walk = original(*args, **kwargs)
            return r_sum, (blocks.append(block) or block for block in walk)

        monkeypatch.setattr(sumrate, "_walk", recording)
        return blocks

    def test_swz_equals_jd_forms_the_bounds_once(self, monkeypatch):
        # g is one vector R_sum + C_S - b_S, formed once for all K! orderings,
        # and the walk takes each ordering once, in lexicographic order
        rng = np.random.default_rng(34)
        blocks = self.record_blocks(monkeypatch)
        for num_relays in (1, 2, 3, 4, 5):
            sc = random_factorizing_scenario(rng, 1, num_relays)
            ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2,) * num_relays))
            calls = self.count_bound_formations(ev)
            blocks.clear()
            swz_equals_jd(ev)
            walked = [tuple(pi) for block in blocks for pi in block[0].tolist()]
            assert walked == list(itertools.permutations(range(1, num_relays + 1)))
            assert len(walked) == math.factorial(num_relays)
            assert len(blocks) == -(-len(walked) // sumrate.ORDERING_BLOCK)
            assert len(calls) == 1

    def test_extreme_points_form_the_bounds_once(self):
        # the default r_sum, the joint-decoding sum-rate, comes from the same
        # formation of the bounds as g, which the evaluator keeps for the
        # next call
        rng = np.random.default_rng(35)
        for num_relays in (1, 2, 3, 4):
            sc = random_factorizing_scenario(rng, 1, num_relays)
            ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
            calls = self.count_bound_formations(ev)
            for r_sum in (None, 0.0):
                assert len(extreme_points(ev, r_sum)) == math.factorial(num_relays)
            assert len(calls) == 1

    def test_extreme_points_command_builds_one_evaluator(self, monkeypatch, tmp_path, capsys):
        sc, aux = self.instance()
        path = tmp_path / "sc.json"
        save_scenario(sc, path, aux)
        calls = self.count_evaluators(monkeypatch)
        assert main(["extreme-points", "--scenario", str(path)]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 6 * 3

    def test_extreme_points_match_extreme_point(self):
        ev = DiscreteEvaluator.from_aux(*self.instance())
        r_sum = jd_sum_rate(ev)
        points = extreme_points(ev, r_sum)
        assert [pi for pi, _ in points] == list(itertools.permutations((1, 2, 3)))
        for pi, point in points:
            np.testing.assert_array_equal(point, extreme_point(ev, r_sum, pi))
        default = extreme_points(ev)
        for (_, a), (_, b) in zip(default, points):
            np.testing.assert_array_equal(a, b)

    def test_swz_results_match_dominating_point(self, monkeypatch):
        ev = DiscreteEvaluator.from_aux(*self.instance())
        blocks = self.record_blocks(monkeypatch)
        cmp_res = swz_equals_jd(ev)
        monkeypatch.undo()  # swz_dominating_point records no more
        assert cmp_res.jd_sum_rate == jd_sum_rate(ev)
        rows = [(tuple(pi), *row) for pis, *fields in blocks
                for pi, *row in zip(pis.tolist(), *fields)]
        assert [row[0] for row in rows] == list(itertools.permutations((1, 2, 3)))
        best, best_pi = -math.inf, None
        for pi, point, pivot, alpha, fronthaul, rate in rows:
            alone = swz_dominating_point(ev, cmp_res.jd_sum_rate, pi)
            np.testing.assert_array_equal(point, alone.extreme_point)
            np.testing.assert_array_equal(fronthaul, alone.scheme_fronthaul)
            assert (pi, int(pivot) or None, alpha, rate) == (
                alone.ordering, alone.pivot_index, alone.idle_fraction, alone.scheme_sum_rate)
            # a later ordering is better only beyond the tie tolerance
            if alone.scheme_sum_rate > best + INVARIANT_TOL:
                best, best_pi = alone.scheme_sum_rate, alone.ordering
        assert (cmp_res.best_ordering, cmp_res.best_sum_rate) == (best_pi, best)
        assert cmp_res.gap == cmp_res.jd_sum_rate - best

    def test_results_are_python_floats(self):
        ev = DiscreteEvaluator.from_aux(*self.instance())
        cmp_res = swz_equals_jd(ev)
        results = [swz_dominating_point(ev, cmp_res.jd_sum_rate, pi)
                   for pi in itertools.permutations((1, 2, 3))]
        assert any(0.0 < res.idle_fraction < 1.0 for res in results)
        assert type(cmp_res.best_sum_rate) is float
        for res in results:
            for value in (res.idle_fraction, res.scheme_sum_rate):
                assert type(value) is float

    def test_swz_equals_jd_keeps_no_per_ordering_results(self):
        # the walk over the 720 orderings holds only its running best: a
        # list of every ordering's result peaked at 342 KB here
        rng = np.random.default_rng(6)
        sc = random_factorizing_scenario(rng, 1, 6)
        ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2,) * 6))
        swz_equals_jd(ev)  # forms the bounds and entropies the walk reads
        assert traced_peak_mb(lambda: swz_equals_jd(ev)) * 2.0 ** 10 < 64

    def test_swz_equals_jd_at_k8_holds_one_block(self):
        # 40,320 orderings in blocks of ORDERING_BLOCK: one block's arrays
        # are alive at a time, where all of them would take megabytes
        rng = np.random.default_rng(8)
        sc = random_factorizing_scenario(rng, 1, 8)
        ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, (2,) * 8))
        swz_equals_jd(ev)  # forms the bounds and entropies the walk reads
        assert traced_peak_mb(lambda: swz_equals_jd(ev)) * 2.0 ** 10 < 96

    def test_subset_bounds_are_the_thm3_rows_at_all_users(self):
        rng = np.random.default_rng(33)
        for make in (random_factorizing_scenario, random_correlated_scenario):
            sc = make(rng, 2, 3)
            aux = random_aux(rng, sc)
            bounds = jd_subset_bounds(DiscreteEvaluator.from_aux(sc, aux))
            rows = dict(enumerate(region_discrete(sc, aux, "thm3").bounds[0b11 - 1].tolist()))
            assert [bounds[s] for s in range(8)] == [rows[s] for s in range(8)]


class TestPivotTolerance:
    """Where a prefix g is 0 in exact arithmetic, rounding must not decide the
    pivot or leave an idle share of 1e-15: the result may not depend on the
    order in which the reduced joint contracts the relay outputs."""

    def test_contraction_order_moves_neither_pivot_nor_idle_share(self, monkeypatch):
        # |U_1| = 1 and fronthaul so large that R_sum = I(U; X): g is 0 on the
        # empty set and on {1} in exact arithmetic; seed 1, as seed 0 rounds
        # g({}) to exactly 0 in every contraction order
        rng = np.random.default_rng(1)
        sc = random_correlated_scenario(rng, 1, 3, (2,), (2, 3, 2), fronthaul_range=(4.0, 5.0))
        aux = random_aux(rng, sc, (1, 3, 2))
        ev = DiscreteEvaluator.from_aux(sc, aux)
        r_sum = jd_sum_rate(ev)
        orderings = list(itertools.permutations((1, 2, 3)))
        reference = {pi: swz_dominating_point(ev, r_sum, pi) for pi in orderings}
        g_empty = []
        for order in itertools.permutations(range(3)):
            monkeypatch.setattr(discrete, "_contraction_order", lambda a, y, order=order: order)
            ev = DiscreteEvaluator.from_aux(sc, aux)
            g_empty.append(g_function(ev, r_sum)[mask_of(())])
            for pi in orderings:
                res = swz_dominating_point(ev, r_sum, pi)
                assert res.pivot_index == (2 if pi[0] == 1 else 1)
                assert res.idle_fraction == 0.0
                np.testing.assert_allclose(
                    res.scheme_fronthaul, reference[pi].scheme_fronthaul, atol=1e-12, rtol=0)
                assert res.scheme_sum_rate == pytest.approx(
                    reference[pi].scheme_sum_rate, abs=1e-12)
        # the instance really is a rounding tie: some orders miss 0 by 1e-16
        assert max(abs(g) for g in g_empty) <= 1e-12
        assert any(g != 0.0 for g in g_empty)


class TestGaussianEvaluator:
    """The functions that read only the subset bounds take a
    GaussianEvaluator as they take a DiscreteEvaluator."""

    @staticmethod
    def instances(count):
        for seed in spawn_seeds(2025, count):
            rng = np.random.default_rng(seed)
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            yield GaussianEvaluator.from_quantizers(sc, random_quantizers(rng, sc))

    def test_g_plus_is_supermodular_and_extreme_points_telescope(self):
        count = 0
        for ev in self.instances(200):
            r_sum = jd_sum_rate(ev)
            ok, worst = check_supermodular(ev, r_sum)
            assert ok, f"supermodularity violated by {worst}"
            total = max(0.0, g_function(ev, r_sum)[-1])
            points = extreme_points(ev)
            assert len(points) == math.factorial(ev.sc.num_relays)
            for _, point in points:
                assert np.all(point >= 0.0)
                assert abs(point.sum() - total) <= 1e-12
            count += 1
        assert count == 200

    def test_sum_rate_reads_the_subset_bounds(self):
        for ev in self.instances(20):
            bounds = ev.subset_bounds()
            np.testing.assert_array_equal(jd_subset_bounds(ev), bounds)
            assert jd_sum_rate(ev) == max(0.0, float(bounds.min()))
            np.testing.assert_array_equal(
                g_function(ev, 0.25), 0.25 + subset_sums(np.asarray(ev.sc.fronthaul)) - bounds)


class TestScalarReference:
    """The walk's array passes against ``ScalarOrderings``, the per-ordering
    code they replaced: every number bit for bit, the sign of a zero too."""

    @staticmethod
    def evaluators(count):
        """Discrete (|U_k| of 1 to 3, so some prefix g is 0 up to rounding)
        and Gaussian evaluators with K <= 6."""
        for seed in spawn_seeds(2050, count):
            rng = np.random.default_rng(seed)
            num_users, num_relays = int(rng.integers(1, 3)), int(rng.integers(1, 7))
            if rng.random() < 0.3:
                sc = random_gaussian_scenario(rng, num_users, num_relays, max_antennas=1)
                yield GaussianEvaluator.from_quantizers(sc, random_quantizers(rng, sc))
                continue
            make = random_factorizing_scenario if rng.random() < 0.5 else random_correlated_scenario
            sc = make(rng, num_users, num_relays, fronthaul_range=(0.1, 4.0 * rng.random() + 0.2))
            aux_sizes = tuple(int(u) for u in rng.integers(1, 4, size=num_relays))
            yield DiscreteEvaluator.from_aux(sc, random_aux(rng, sc, aux_sizes))

    @staticmethod
    def same(a, b) -> bool:
        return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    def test_the_walk_matches_the_scalar_reference_bit_for_bit(self):
        kinds = set()
        for ev in self.evaluators(30):
            kinds.add((type(ev).__name__, ev.sc.num_relays > 4))
            orderings = list(itertools.permutations(range(1, ev.sc.num_relays + 1)))
            points = ScalarOrderings(ev, 0.0)
            for (pi, point), ref in zip(extreme_points(ev, 0.0), orderings, strict=True):
                assert pi == ref and self.same(point, points.extreme_point(pi))
            schemes = ScalarOrderings(ev)
            for pi in orderings[::max(1, len(orderings) // 40)]:
                res, ref = swz_dominating_point(ev, schemes.r_sum, pi), schemes.ordering_result(pi)
                assert (res.ordering, res.pivot_index) == (ref.ordering, ref.pivot_index)
                for field in ("extreme_point", "idle_fraction", "scheme_fronthaul",
                              "scheme_sum_rate"):
                    assert self.same(getattr(res, field), getattr(ref, field)), (pi, field)
            got, want = swz_equals_jd(ev), schemes.swz_equals_jd()
            assert got.best_ordering == want.best_ordering
            assert all(self.same(getattr(got, f), getattr(want, f))
                       for f in ("jd_sum_rate", "best_sum_rate", "gap"))
        # both kinds, and discrete walks of more than one block
        assert {("DiscreteEvaluator", True), ("GaussianEvaluator", False)} <= kinds


def _r_sum_entry_points():
    # the helpers' g_function and check_supermodular reach the r_sum checks
    # of sumrate._polytope as the library functions do
    return {
        "extreme_point": lambda ev, r: extreme_point(ev, r, (1, 2)),
        "extreme_points": extreme_points,
        "g_function": g_function,
        "swz_dominating_point": lambda ev, r: swz_dominating_point(ev, r, (2, 1)),
        "check_supermodular": check_supermodular,
    }


def test_r_sum_above_the_joint_decoding_sum_rate_is_rejected():
    # the fronthaul polytope is empty there: a ValueError, not the
    # ArithmeticError of a failed construction invariant
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 3)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    jd = jd_sum_rate(ev)
    assert jd < 0.1
    with pytest.raises(ValueError, match="exceeds the joint-decoding sum-rate"):
        swz_dominating_point(ev, 0.1, (1, 2, 3))
    res = swz_dominating_point(ev, jd, (1, 2, 3))
    assert res.scheme_sum_rate >= jd - 1e-9


def test_each_walk_keeps_its_own_cap():
    # I(U; X | Q) caps an extreme point, the joint-decoding sum-rate a
    # scheme; between the two only the scheme is refused
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 2)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    jd, ceiling = jd_sum_rate(ev), float(jd_subset_bounds(ev)[0])
    assert jd + 1e-3 < ceiling
    r_sum = (jd + ceiling) / 2
    assert extreme_point(ev, r_sum, (2, 1)).shape == (2,)
    assert len(extreme_points(ev, r_sum)) == 2
    with pytest.raises(ScenarioError, match="exceeds the joint-decoding sum-rate"):
        swz_dominating_point(ev, r_sum, (2, 1))
    above = ceiling + 1e-3
    for call in (lambda: extreme_point(ev, above, (2, 1)), lambda: extreme_points(ev, above)):
        with pytest.raises(ScenarioError, match=r"exceeds I\(U; X \| Q\) = "):
            call()
    with pytest.raises(ScenarioError, match="exceeds the joint-decoding sum-rate"):
        swz_dominating_point(ev, above, (2, 1))


def test_fractional_ordering_is_rejected():
    # int() would truncate (1.7, 2.2) to the ordering (1, 2), and refuse
    # NaN and inf with errors that are no ScenarioError
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 2)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    for call in (lambda: extreme_point(ev, 0.0, (1.7, 2.2)),
                 lambda: swz_dominating_point(ev, jd_sum_rate(ev), (2.5, 1.5)),
                 lambda: extreme_point(ev, 0.0, (float("nan"), 1))):
        with pytest.raises(ScenarioError, match="ordering must be a permutation"):
            call()
    # integral entries of any number type are relays
    np.testing.assert_array_equal(extreme_point(ev, 0.0, (2.0, np.int64(1))),
                                  extreme_point(ev, 0.0, (2, 1)))


def test_nan_ordering_result_fails_its_checks():
    # NaN comparisons are False, so each check is written as "not holds"
    nan = float("nan")

    def check(point, fronthaul, rate):
        # a block of one ordering, whose g+(all relays) is 1
        sumrate._check_schemes(np.array([point]), np.array([1.0]), np.array([fronthaul]),
                               np.array([rate]), 1.0)

    check([0.5, 0.5], [0.5, 0.5], 1.0)
    for point, fronthaul, rate in (([nan, nan], [nan, nan], nan),
                                   ([nan, 0.0], [0.0, 0.0], 1.0),
                                   ([0.5, 0.5], [nan, 0.0], 1.0),
                                   ([0.5, 0.5], [0.5, 0.5], nan)):
        with pytest.raises(ArithmeticError):
            check(point, fronthaul, rate)
    # one failing ordering fails its block
    with pytest.raises(ArithmeticError, match="fell below the target"):
        sumrate._check_schemes(np.full((2, 2), 0.5), np.ones(2), np.full((2, 2), 0.5),
                               np.array([1.0, nan]), 1.0)
    # rounding dust in an information quantity reads 0; a NaN or a more
    # negative value raises
    sumrate._check_nonnegative(np.array([0.0, -1e-10]), "I")
    for values in ([0.0, nan], [-1e-8, 0.0]):
        with pytest.raises(ArithmeticError, match="NaN or negative beyond rounding"):
            sumrate._check_nonnegative(np.array(values), "I")


@pytest.mark.parametrize("entry", list(_r_sum_entry_points()))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_r_sum_is_rejected(entry, value):
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 2)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    call = _r_sum_entry_points()[entry]
    with pytest.raises(ValueError, match="r_sum must be finite"):
        call(ev, value)
    call(ev, 0.1)  # a finite rate still goes through


def test_negative_r_sum_is_rejected():
    # a negative target is no rate, though the polytope of g = r_sum + C_S - b_S
    # would still have extreme points
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 2)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    for call in _r_sum_entry_points().values():
        with pytest.raises(ScenarioError, match="r_sum must be nonnegative"):
            call(ev, -1.0)
        call(ev, 0.0)


def test_bad_input_raises_scenario_error():
    # each is bad input, not a size guard: a ScenarioError (exit 2 in the CLI)
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 3)
    ev = DiscreteEvaluator.from_aux(sc, random_aux(rng, sc))
    ceiling = float(jd_subset_bounds(ev)[0])  # I(U; X | Q)
    bad = {
        "non-finite r_sum": lambda: g_function(ev, float("nan")),
        "r_sum above I(U; X | Q)": lambda: extreme_points(ev, ceiling + 1e-3),
        "r_sum above the joint-decoding sum-rate": lambda: swz_dominating_point(
            ev, jd_sum_rate(ev) + 1e-3, (1, 2, 3)),
    }
    for call in bad.values():
        with pytest.raises(ScenarioError):
            call()


def test_relay_on_the_boundary_empties_the_fronthaul_polytope():
    # B_1 = Sigma_1^-1 needs infinite fronthaul: b_S = -inf and g(S) = +inf
    # for every S that holds relay 1, so no fronthaul vector meets g
    sc = random_gaussian_scenario(np.random.default_rng(3), 1, 2)
    q = random_quantizers(np.random.default_rng(4), sc)
    q = QuantizerSetGaussian(B=(np.linalg.inv(sc.Sigma[0]),) + q.B[1:])
    ev = GaussianEvaluator.from_quantizers(sc, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(g_function(ev, jd_sum_rate(ev))).any()
        for call in (lambda: check_supermodular(ev, jd_sum_rate(ev)),
                     lambda: extreme_points(ev), lambda: extreme_point(ev, 0.0, (2, 1)),
                     lambda: swz_equals_jd(ev),
                     lambda: swz_dominating_point(ev, jd_sum_rate(ev), (1, 2)),
                     lambda: swz_dominating_point(ev, jd_sum_rate(ev), (2, 1))):
            with pytest.raises(ScenarioError, match="fronthaul polytope is empty"):
                call()


def test_size_guards_raise_capacity_error():
    # K = 9 relays exceed the factorial comparison; |U_k| = 1 keeps the
    # evaluator small
    rng = np.random.default_rng(0)
    sc = random_factorizing_scenario(rng, 1, 9)
    ev = DiscreteEvaluator.from_aux(sc, constant_aux(sc))
    with pytest.raises(CapacityError, match="required"):
        swz_equals_jd(ev)


def test_all_orderings_guard_lives_in_extreme_points():
    # K = 7 would enumerate 5,040 orderings; one ordering stays unguarded
    rng = np.random.default_rng(3)
    sc = random_gaussian_scenario(rng, 1, 7, max_antennas=1)
    ev = GaussianEvaluator.from_quantizers(sc, random_quantizers(rng, sc))
    with pytest.raises(CapacityError, match="K <= 6 required"):
        extreme_points(ev)
    assert extreme_point(ev, jd_sum_rate(ev), range(1, 8)).shape == (7,)
