import json
import math

import numpy as np
import pytest

from ocran.core import (
    CapacityError,
    CodebookEnsemble,
    RateRegion,
    ScenarioError,
    SubsetPair,
    enumerate_constraint_pairs,
    indices_of,
    load_aux_tables,
    load_scenario,
    mask_of,
    max_weighted_rate,
    sample_codebook_marginal,
    save_scenario,
    scenario_sha256,
    scenario_to_dict,
    spawn_seeds,
)


class TestSubsetPairs:
    def test_smallest_case(self):
        pairs = enumerate_constraint_pairs(1, 1)
        assert [(p.users, p.relays) for p in pairs] == [((1,), ()), ((1,), (1,))]

    def test_two_users_one_relay_count(self):
        assert len(enumerate_constraint_pairs(2, 1)) == 6

    def test_three_by_three_count(self):
        assert len(enumerate_constraint_pairs(3, 3)) == 56

    @pytest.mark.parametrize("num_users", range(1, 7))
    @pytest.mark.parametrize("num_relays", range(1, 7))
    def test_count_formula(self, num_users, num_relays):
        pairs = enumerate_constraint_pairs(num_users, num_relays)
        assert len(pairs) == ((1 << num_users) - 1) * (1 << num_relays)

    def test_deterministic_order(self):
        pairs = enumerate_constraint_pairs(2, 2)
        masks = [(p.t_mask, p.s_mask) for p in pairs]
        assert masks == sorted(masks)
        assert masks[0] == (1, 0)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_constraint_pairs(13, 12)

    def test_empty_user_set_rejected(self):
        with pytest.raises(ValueError):
            SubsetPair(users=(), relays=(1,))

    def test_mask_round_trip(self):
        assert indices_of(mask_of([3, 1])) == (1, 3)
        assert SubsetPair(users=(2,), relays=(1, 3)).s_mask == 0b101


class TestRateRegion:
    def _region(self, bounds):
        pairs = enumerate_constraint_pairs(2, 1)
        return RateRegion(
            num_users=2, constraints=tuple(zip(pairs, bounds))
        )

    def test_membership(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert region.contains([0.4, 0.4])
        assert not region.contains([0.6, 0.1])
        assert region.contains([0.0, 0.0])

    def test_empty_region_excludes_origin(self):
        region = self._region([-0.1, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert not region.contains([0.0, 0.0])

    def test_length_mismatch(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        with pytest.raises(ValueError):
            region.contains([0.1])

    def test_summaries(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert region.sum_rate_bound() == pytest.approx(0.8)
        assert region.max_user_rate(1) == pytest.approx(0.5)

    def test_weighted_rate(self):
        value, rates = max_weighted_rate(self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5]), [1.0, 1.0])
        assert value == pytest.approx(0.8)
        assert rates.sum() == pytest.approx(0.8)

    def test_empty_region_gives_origin(self):
        value, rates = max_weighted_rate(self._region([-0.1, 1.0, 0.5, 1.0, 0.8, 1.5]), [1.0, 1.0])
        assert value == 0.0
        np.testing.assert_array_equal(rates, 0.0)

    def test_zero_optimum_is_positive_zero(self):
        value, rates = max_weighted_rate(self._region([0.0] * 6), [1.0, 1.0])
        assert math.copysign(1.0, value) == 1.0
        np.testing.assert_array_equal(rates, 0.0)

    def test_failed_lp_is_a_numeric_failure(self, monkeypatch):
        # a failed solve must not read as the empty region's (0, zeros)
        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize, "linprog",
            lambda *args, **kwargs: scipy.optimize.OptimizeResult(
                success=False, status=4, message="forced failure", x=None, fun=None),
        )
        with pytest.raises(ArithmeticError, match="forced failure"):
            max_weighted_rate(self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5]), [1.0, 1.0])

    def test_failed_tie_break_lp_is_a_numeric_failure(self, monkeypatch):
        # the first-stage point must not stand in for a failed second stage
        import scipy.optimize

        solve = scipy.optimize.linprog
        calls = []

        def first_solve_only(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return solve(*args, **kwargs)
            return scipy.optimize.OptimizeResult(
                success=False, status=4, message="forced failure", x=None, fun=None)

        monkeypatch.setattr(scipy.optimize, "linprog", first_solve_only)
        with pytest.raises(ArithmeticError, match="tie-break LP failed: forced failure"):
            max_weighted_rate(self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5]), [1.0, 0.0])
        assert len(calls) == 2

    def test_tie_break_keeps_a_nearly_tight_row(self):
        # at HiGHS's default feasibility tolerance the first solve broke the
        # c_13 row by 9.7e-9, more than the tie-break's 1e-10 of slack, and
        # the tie-break LP came back infeasible
        bounds = {1: 1.05593293974, 2: 0.0157086009368, 3: 1.07707704833, 4: 0.763520956126,
                  5: 1.62004934435, 6: 0.783280062214, 7: 1.62004935409}
        region = RateRegion(num_users=3, constraints=tuple(
            (SubsetPair(users=indices_of(t), relays=()), b) for t, b in bounds.items()))
        weights = [0.869418649871, 0.129057726839, 0.828204178805]
        value, rates = max_weighted_rate(region, weights)
        assert region.contains(rates)
        assert np.dot(weights, rates) >= value - 1e-9
        # the optimum puts user 1 at c_1, user 3 at c_13 - c_1 and user 2 at
        # the 9.7e-9 that c_123 leaves above c_13
        rates_opt = [bounds[1], bounds[7] - bounds[5], bounds[5] - bounds[1]]
        assert value == pytest.approx(np.dot(weights, rates_opt), abs=1e-12)


def _minimal_gaussian_doc():
    return {
        "schema": 1,
        "users": 1,
        "relays": 1,
        "fronthaul": [1.0],
        "time_share": [1.0],
        "channel": {
            "kind": "gaussian",
            "H": [[[[[1.0, 0.0]]]]],
            "Sigma": [[[[1.0, 0.0]]]],
            "Kin": [[[[1.0, 0.0]]]],
            "power": [1.0],
        },
    }


def _discrete_doc():
    # binary symmetric channel with crossover 0.1, wire order (Y1, X1)
    return {
        "schema": 1,
        "users": 1,
        "relays": 1,
        "fronthaul": [0.7],
        "time_share": [0.25, 0.75],
        "channel": {
            "kind": "discrete",
            "alphabets": {"X": [2], "Y": [2]},
            "px": [[[0.5, 0.5], [0.4, 0.6]]],
            "channel": [0.9, 0.1, 0.1, 0.9],
        },
    }


class TestScenarioIO:
    def test_minimal_gaussian_round_trip(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(_minimal_gaussian_doc()))
        sc = load_scenario(path)
        assert (sc.num_users, sc.num_relays) == (1, 1)
        out = tmp_path / "rt.json"
        save_scenario(sc, out)
        sc2 = load_scenario(out)
        assert scenario_to_dict(sc) == scenario_to_dict(sc2)
        assert scenario_sha256(sc) == scenario_sha256(sc2)

    def test_discrete_round_trip(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(_discrete_doc()))
        sc = load_scenario(path)
        out = tmp_path / "rt.json"
        save_scenario(sc, out)
        assert scenario_to_dict(load_scenario(out)) == scenario_to_dict(sc)

    def test_discrete_round_trip_with_aux(self, tmp_path):
        doc = _discrete_doc()
        doc["channel"]["aux"] = [[[[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]]]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        aux = load_aux_tables(path)
        assert aux is not None
        out = tmp_path / "rt.json"
        save_scenario(sc, out, aux=aux)
        reread = load_aux_tables(out)
        np.testing.assert_allclose(reread.tables[0], aux.tables[0], atol=0)
        assert scenario_to_dict(load_scenario(out), reread) == scenario_to_dict(sc, aux)
        assert load_aux_tables(tmp_path / "sc.json") is not None

    def test_unnormalized_time_share_names_field(self, tmp_path):
        doc = _minimal_gaussian_doc()
        doc["time_share"] = [0.9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="time_share"):
            load_scenario(path)

    def test_non_pd_noise_names_relay(self, tmp_path):
        doc = _minimal_gaussian_doc()
        doc["channel"]["Sigma"] = [[[[-1.0, 0.0]]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"Sigma\[1\]"):
            load_scenario(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_gaussian_rejects_time_sharing(self, tmp_path):
        doc = _minimal_gaussian_doc()
        doc["time_share"] = [0.5, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="time-sharing"):
            load_scenario(path)


class TestCodebookSampler:
    def test_point_mass_tv_exactly_zero(self):
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=3,
            input_pmf=np.array([[1.0, 0.0]]),
            time_seq=np.zeros(3, dtype=int),
            seed=0,
        )
        res = sample_codebook_marginal(ens, 2000)
        assert np.all(res.tv == 0.0)

    def test_uniform_binary_within_binomial_bound(self):
        trials = 100_000
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=4,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(4, dtype=int),
            seed=7,
        )
        res = sample_codebook_marginal(ens, trials)
        # TV for a binary pmf is |emp(1) - 1/2|; three-sigma binomial bound
        bound = 3.0 * math.sqrt(0.25 / trials)
        assert np.all(res.tv <= bound)
        assert np.all(res.tv <= 0.02)

    def test_biased_binary_within_binomial_bound(self):
        trials = 100_000
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=2,
            input_pmf=np.array([[0.7, 0.3]]),
            time_seq=np.zeros(2, dtype=int),
            seed=11,
        )
        res = sample_codebook_marginal(ens, trials)
        bound = 3.0 * math.sqrt(0.3 * 0.7 / trials)
        assert np.all(np.abs(res.empirical[:, 1] - 0.3) <= bound)
        assert np.all(np.abs(res.empirical[:, 1] - 0.3) <= 0.01)

    def test_tv_shrinks_with_tenfold_trials(self):
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=4,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(4, dtype=int),
            seed=3,
        )
        small = sample_codebook_marginal(ens, 10_000).tv.mean()
        large = sample_codebook_marginal(ens, 100_000).tv.mean()
        assert large < small

    def test_seed_determinism(self):
        ens = CodebookEnsemble(
            rate=0.5,
            blocklength=4,
            input_pmf=np.array([[0.2, 0.8]]),
            time_seq=np.zeros(4, dtype=int),
            seed=42,
        )
        a = sample_codebook_marginal(ens, 5000)
        b = sample_codebook_marginal(ens, 5000)
        np.testing.assert_array_equal(a.empirical, b.empirical)

    def test_time_sharing_positions_follow_their_symbol(self):
        pmf = np.array([[1.0, 0.0], [0.0, 1.0]])
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=2,
            input_pmf=pmf,
            time_seq=np.array([0, 1]),
            seed=0,
        )
        res = sample_codebook_marginal(ens, 500)
        np.testing.assert_array_equal(res.empirical, pmf)

    def test_codeword_count(self):
        ens = CodebookEnsemble(
            rate=1.5,
            blocklength=3,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(3, dtype=int),
            seed=0,
        )
        assert ens.num_codewords == math.ceil(2 ** 4.5)

    def test_sampler_guard(self):
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=18,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(18, dtype=int),
            seed=0,
        )
        with pytest.raises(CapacityError):
            sample_codebook_marginal(ens, 10_000)


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(123, 8)
    b = spawn_seeds(123, 8)
    assert a == b
    assert len(set(a)) == 8
