import copy
import json
import math

import numpy as np
import pytest

from ocran.core import (
    SAMPLER_BLOCK,
    CapacityError,
    CodebookEnsemble,
    Evaluator,
    RateRegion,
    ScenarioError,
    SubsetPair,
    enumerate_constraint_pairs,
    indices_of,
    load_scenario,
    mask_of,
    max_weighted_rate,
    quantizers_to_dict,
    sample_codebook_marginal,
    scenario_from_dict,
    scenario_sha256,
    spawn_seeds,
)
from ocran.discrete import AuxChannels, DiscreteEvaluator
from ocran.gaussian import GaussianEvaluator
from ocran.verify import random_factorizing_scenario, random_gaussian_scenario

from helpers import codebook_marginal_one_shot, save_scenario, scenario_to_dict, traced_peak_mb


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
        masks = [(mask_of(p.users), p.s_mask) for p in pairs]
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


def _three_user_region():
    # L = 3, K = 1: two users share at most 0.8, all three at most 1.0; only
    # three or more users reach the weighted-rate LP
    return RateRegion(num_users=3, bounds=[[0.5, 1.0], [0.5, 1.0], [0.8, 1.5], [0.5, 1.0],
                                           [0.8, 1.5], [0.8, 1.5], [1.0, 2.0]])


class TestRateRegion:
    def _region(self, bounds):
        # L = 2, K = 1: rows T = {1}, {2}, {1, 2}, columns S = {}, {1}
        return RateRegion(num_users=2, bounds=np.reshape(bounds, (3, 2)))

    def test_membership(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert region.contains([0.4, 0.4])
        assert not region.contains([0.6, 0.1])
        assert region.contains([0.0, 0.0])

    def test_empty_region_excludes_origin(self):
        region = self._region([-0.1, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert not region.contains([0.0, 0.0])

    def test_nan_rates_are_outside(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert not region.contains([math.nan, math.nan])
        assert not region.contains([math.nan, 0.0])

    def test_bounds_are_read_only(self):
        bounds = np.array([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        region = self._region(bounds)
        bounds[0] = -1.0  # the region keeps its own copy
        assert region.contains([0.4, 0.4])
        with pytest.raises(ValueError):
            region.bounds[0, 0] = -1.0

    def test_one_row_per_user_set(self):
        with pytest.raises(ValueError):
            RateRegion(num_users=2, bounds=np.zeros((2, 2)))

    def test_length_mismatch(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        with pytest.raises(ValueError):
            region.contains([0.1])

    def test_summaries(self):
        region = self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        assert region.sum_rate_bound() == pytest.approx(0.8)
        assert region.max_user_rate(1) == pytest.approx(0.5)
        for user in (0, 3):
            with pytest.raises(ValueError):
                region.max_user_rate(user)

    def test_weighted_rate(self):
        value, rates = max_weighted_rate(self._region([0.5, 1.0, 0.5, 1.0, 0.8, 1.5]), [1.0, 1.0])
        assert value == pytest.approx(0.8)
        assert rates.sum() == pytest.approx(0.8)

    @pytest.mark.parametrize("entry", [0, 3, 5])
    def test_positive_infinite_bound_is_refused(self, entry):
        bounds = np.array([0.5, 1.0, 0.5, 1.0, 0.8, 1.5])
        bounds[entry] = math.inf
        with pytest.raises(ValueError, match="bounds must be finite or -inf"):
            self._region(bounds)

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
            max_weighted_rate(_three_user_region(), [1.0, 1.0, 1.0])

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
            max_weighted_rate(_three_user_region(), [1.0, 0.0, 0.0])
        assert len(calls) == 2

    def test_tie_break_keeps_a_nearly_tight_row(self):
        # at HiGHS's default feasibility tolerance the first solve broke the
        # c_13 row by 9.7e-9, more than the tie-break's 1e-10 of slack, and
        # the tie-break LP came back infeasible
        bounds = {1: 1.05593293974, 2: 0.0157086009368, 3: 1.07707704833, 4: 0.763520956126,
                  5: 1.62004934435, 6: 0.783280062214, 7: 1.62004935409}
        region = RateRegion(num_users=3, bounds=[[bounds[t]] for t in range(1, 8)])  # S = {}
        weights = [0.869418649871, 0.129057726839, 0.828204178805]
        value, rates = max_weighted_rate(region, weights)
        assert region.contains(rates)
        assert np.dot(weights, rates) >= value - 1e-9
        # the optimum puts user 1 at c_1, user 3 at c_13 - c_1 and user 2 at
        # the 9.7e-9 that c_123 leaves above c_13
        rates_opt = [bounds[1], bounds[7] - bounds[5], bounds[5] - bounds[1]]
        assert value == pytest.approx(np.dot(weights, rates_opt), abs=1e-12)


def _random_two_user_regions(rng, count):
    """Bounds of ``count`` two-user regions with K = 0..3 relays, cycling
    through general, triangle (R_1 + R_2 binds first), rectangle (it never
    binds) and zero-bound cases."""
    regions = []
    for i in range(count):
        bounds = rng.uniform(0.0, 2.0, size=(3, 1 << int(rng.integers(0, 4))))
        kind = i % 4
        if kind == 1:
            bounds[2] = rng.uniform(0.0, bounds[:2].min(), size=bounds.shape[1])
        elif kind == 2:
            bounds[2] += bounds[0].min() + bounds[1].min()
        elif kind == 3:
            bounds[int(rng.integers(0, 3)), int(rng.integers(0, bounds.shape[1]))] = 0.0
        regions.append(bounds)
    return regions


def _lp_weighted_rates(regions, weights):
    """Each region's weighted rate and rates by the two HiGHS LPs over all
    of its (T, S) rows: the optimum, then the largest total rate within
    1e-10 of it.  The regions are independent blocks of one LP, so two
    solves cover them all."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag, vstack

    tols = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    blocks = [np.repeat([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], bounds.shape[1], 0)
              for bounds in regions]
    a_ub, b_ub = block_diag(blocks, format="csr"), np.concatenate([b.ravel() for b in regions])
    w = np.ravel(weights)
    first = linprog(-w, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs", options=tols)
    assert first.success
    values = (first.x * w).reshape(-1, 2).sum(axis=1)
    cuts = block_diag([-np.reshape(wi, (1, 2)) for wi in weights])
    second = linprog(-np.ones(w.size), A_ub=vstack([a_ub, cuts]),
                     b_ub=np.concatenate([b_ub, -(values - 1e-10)]), bounds=(0, None),
                     method="highs", options=tols)
    assert second.success
    return values, second.x.reshape(-1, 2)


def test_two_user_corner_matches_the_lp():
    rng = np.random.default_rng(20260)
    grid = np.linspace(0.0, 1.0, 33)
    regions = _random_two_user_regions(rng, 32 * 33)
    for weights in ([(1.0 - t, t) for t in np.tile(grid, 32)],
                    [tuple(w) for w in rng.uniform(0.0, 1.0, size=(len(regions), 2))]):
        lp_values, lp_rates = _lp_weighted_rates(regions, weights)
        for bounds, w, lp_value, lp_r in zip(regions, weights, lp_values, lp_rates):
            region = RateRegion(num_users=2, bounds=bounds)
            value, rates = max_weighted_rate(region, w)
            assert value == pytest.approx(lp_value, abs=1e-12)
            assert region.contains(rates)
            # the LP's 1e-10 of slack moves its point up to 1e-10 / |w1 - w2|
            # along a sum-rate face
            if abs(w[0] - w[1]) >= 0.25:
                np.testing.assert_allclose(rates, lp_r, rtol=0.0, atol=1e-9)
            if w == (0.5, 0.5):
                # every point of the sum-rate face is optimal; the tie rule
                # takes the one with the largest R_1 in the region
                c1, _, c12 = bounds.min(axis=1)
                assert rates.sum() == pytest.approx(2.0 * lp_value, abs=1e-12)
                assert rates[0] == min(c1, c12)


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


def _wide_gaussian_doc(relays):
    """One user and ``relays`` scalar relays."""
    one = [[[1.0, 0.0]]]
    return {
        "schema": 1,
        "users": 1,
        "relays": relays,
        "fronthaul": [1.0] * relays,
        "time_share": [1.0],
        "channel": {"kind": "gaussian", "H": [[one]] * relays, "Sigma": [one] * relays,
                    "Kin": [one], "power": [1.0]},
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


def test_both_evaluators_read_the_one_bound_formula():
    # the bound, its cache and the region are written once, on core.Evaluator;
    # a subclass that defines one of them again would hold a second copy
    shared = {"subset_bounds", "bound", "region", "_bounds", "charge"}
    assert shared - {"_bounds"} <= set(vars(Evaluator))
    for kind in (DiscreteEvaluator, GaussianEvaluator):
        assert issubclass(kind, Evaluator)
        assert not shared & set(vars(kind)), kind.__name__


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
        sc, aux = load_scenario(path, with_aux=True)
        assert isinstance(aux, AuxChannels)
        assert quantizers_to_dict(aux) == {"aux": doc["channel"]["aux"]}
        out = tmp_path / "rt.json"
        save_scenario(sc, out, aux=aux)
        sc2, reread = load_scenario(out, with_aux=True)
        np.testing.assert_allclose(reread.tables[0], aux.tables[0], atol=0)
        assert scenario_to_dict(sc2, reread) == scenario_to_dict(sc, aux)

    def test_subset_bits_guard_when_the_scenario_is_built(self):
        assert scenario_from_dict(_wide_gaussian_doc(23)).num_relays == 23
        with pytest.raises(CapacityError, match="L \\+ K = 25"):
            scenario_from_dict(_wide_gaussian_doc(24))

    @pytest.mark.parametrize("axis, sizes", [("X", [2.7]), ("Y", [2.5]), ("X", [2.0000001])])
    def test_fractional_alphabet_size_names_field(self, axis, sizes):
        # an integer conversion would read 2.7 as 2 and run the scenario
        doc = _discrete_doc()
        doc["channel"]["alphabets"][axis] = sizes
        with pytest.raises(ScenarioError, match=f"channel.alphabets.{axis}: must be integers"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("x_sizes, y_sizes, field", [([-2], [-2], "X"), ([2], [0], "Y")])
    def test_nonpositive_alphabet_size_names_field(self, x_sizes, y_sizes, field):
        # (-2) * (-2) matches the 4 channel entries, and a reshape would then
        # read -2 as an unknown dimension
        doc = _discrete_doc()
        doc["channel"]["alphabets"] = {"X": x_sizes, "Y": y_sizes}
        with pytest.raises(ScenarioError,
                           match=f"channel.alphabets.{field}: must be positive integers"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("size", [2, 2.0, "2"])
    def test_integral_alphabet_size_reads_as_an_integer(self, size):
        doc = _discrete_doc()
        doc["channel"]["alphabets"]["Y"] = [size]
        sc = scenario_from_dict(doc)
        assert sc.output_sizes == (2,) and type(sc.output_sizes[0]) is int
        assert scenario_to_dict(sc) == scenario_to_dict(scenario_from_dict(_discrete_doc()))

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

    @pytest.mark.parametrize("make_doc, path, value, message", [
        (_discrete_doc, ("channel", "px"), [[[1.2, -0.2], [0.4, 0.6]]],
         r"px\[1\] has negative entries"),
        (_minimal_gaussian_doc, ("fronthaul",), [-0.5], "fronthaul capacities must be nonnegative"),
        (_minimal_gaussian_doc, ("channel", "Kin"), [[[[-0.5, 0.0]]]],
         r"Kin\[1\] is not positive semidefinite"),
        (_minimal_gaussian_doc, ("channel", "Kin"), [[[[1.5, 0.0]]]],
         r"Kin\[1\] violates the power budget power\[1\]"),
        (_minimal_gaussian_doc, ("channel", "H"), [[[[[1.0, 0.0], [1.0, 0.0]]]]],
         r"H\[1\]\[1\] has shape \(1, 2\), expected \(1, 1\)"),
    ], ids=["px", "fronthaul", "Kin-psd", "Kin-power", "H-shape"])
    def test_out_of_range_entry_names_field(self, make_doc, path, value, message):
        doc = make_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(doc)

    def test_gaussian_rejects_time_sharing(self, tmp_path):
        doc = _minimal_gaussian_doc()
        doc["time_share"] = [0.5, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="time-sharing"):
            load_scenario(path)


def _hash_scenarios():
    rng = np.random.default_rng(5)
    return {
        "discrete": random_factorizing_scenario(rng, 2, 2, num_timeshare=2),
        "gaussian": random_gaussian_scenario(rng, 2, 2),
    }


def _reversed_keys(doc):
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


def _one_entry_changes(value, delta):
    """Every copy of a field value with one numeric entry moved by delta."""
    if isinstance(value, np.ndarray):
        for i in range(value.size):
            changed = value.ravel().copy()
            changed[i] += delta
            yield changed.reshape(value.shape)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for changed in _one_entry_changes(item, delta):
                yield value[:i] + (changed,) + value[i + 1:]
    else:
        yield value + delta


class TestScenarioHash:
    @pytest.mark.parametrize("kind", ["discrete", "gaussian"])
    def test_equal_across_a_save_load_round_trip(self, tmp_path, kind):
        sc = _hash_scenarios()[kind]
        save_scenario(sc, tmp_path / "sc.json")
        assert scenario_sha256(load_scenario(tmp_path / "sc.json")) == scenario_sha256(sc)

    @pytest.mark.parametrize("kind", ["discrete", "gaussian"])
    def test_equal_across_file_formatting(self, tmp_path, kind):
        sc = _hash_scenarios()[kind]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(_reversed_keys(scenario_to_dict(sc)), indent=4))
        assert scenario_sha256(load_scenario(path)) == scenario_sha256(sc)

    @pytest.mark.parametrize("kind,field", [
        ("discrete", "channel"), ("discrete", "px"), ("discrete", "fronthaul"),
        ("gaussian", "H"), ("gaussian", "Sigma"), ("gaussian", "fronthaul"),
    ])
    def test_differs_after_any_one_entry_changes(self, kind, field):
        # the hash reads content only, so the changed copies skip validation
        sc = _hash_scenarios()[kind]
        value = getattr(sc, field)
        deltas = (2.0 ** -20, 2.0 ** -20 * 1j) if kind == "gaussian" and field != "fronthaul" \
            else (2.0 ** -20,)
        hashes = {scenario_sha256(sc)}
        count = 0
        for delta in deltas:
            for changed in _one_entry_changes(value, delta):
                other = copy.copy(sc)
                object.__setattr__(other, field, changed)
                hashes.add(scenario_sha256(other))
                count += 1
        assert count > 1
        assert len(hashes) == count + 1


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

    def test_sampler_guard_counts_every_position(self, monkeypatch):
        # 47 trials of 2^20 codewords are 4.9e7 uniforms per position, inside
        # the guard; two positions are 9.9e7, refused before any is drawn
        ens = CodebookEnsemble(rate=10.0, blocklength=2, input_pmf=np.array([[0.5, 0.5]]),
                               time_seq=np.zeros(2, dtype=int), seed=0)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(CapacityError,
                           match=r"blocklength \* trials \* codewords = 98566144 exceeds"):
            sample_codebook_marginal(ens, 47)

    def test_validation_is_a_scenario_error(self):
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=2,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(2, dtype=int),
            seed=0,
        )
        with pytest.raises(ScenarioError, match="trials"):
            sample_codebook_marginal(ens, 0)
        with pytest.raises(ScenarioError, match="blocklength"):
            CodebookEnsemble(rate=1.0, blocklength=0, input_pmf=np.array([[1.0]]),
                             time_seq=np.zeros(0, dtype=int), seed=0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ScenarioError, match="input_pmf"):
                CodebookEnsemble(rate=1.0, blocklength=2, input_pmf=np.array([[bad, 1.0]]),
                                 time_seq=np.zeros(2, dtype=int), seed=0)

    # (rate, blocklength, input_pmf, time_seq, trials): fewer trials than one
    # block; a block count with a remainder; more codewords than a block
    # holds, one trial per block; a time-shared ternary input
    STREAM_CASES = [
        (1.0, 4, [[0.5, 0.5]], [0, 0, 0, 0], 100),
        (1.0, 4, [[0.3, 0.7]], [0, 0, 0, 0], 3 * (SAMPLER_BLOCK // 16) + 17),
        (1.0, 17, [[0.5, 0.5]], [0] * 17, 3),
        (0.5, 6, [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]], [0, 1, 1, 0, 1, 0], 20_011),
    ]

    @pytest.mark.parametrize("rate,blocklength,pmf,seq,trials", STREAM_CASES)
    def test_streamed_draws_match_the_one_shot_codebook(self, rate, blocklength, pmf, seq, trials):
        ens = CodebookEnsemble(rate=rate, blocklength=blocklength, input_pmf=np.array(pmf),
                               time_seq=np.array(seq), seed=13)
        res = sample_codebook_marginal(ens, trials)
        empirical, tv = codebook_marginal_one_shot(ens, trials)
        assert np.array_equal(res.empirical, empirical)
        assert np.array_equal(res.tv, tv)

    def test_stream_cases_cover_the_block_edges(self):
        per_block = [max(1, SAMPLER_BLOCK // math.ceil(2.0 ** (r * n)))
                     for r, n, _, _, _ in self.STREAM_CASES]
        trials = [case[-1] for case in self.STREAM_CASES]
        assert trials[0] < per_block[0]
        assert trials[1] > per_block[1] and trials[1] % per_block[1] != 0
        assert 2 ** 17 > SAMPLER_BLOCK and per_block[2] == 1

    def test_memory_does_not_grow_with_trials_times_codewords(self):
        # the one-shot draw held about 150 MB here: two (trials, ncw) arrays
        ens = CodebookEnsemble(
            rate=1.0,
            blocklength=4,
            input_pmf=np.array([[0.5, 0.5]]),
            time_seq=np.zeros(4, dtype=int),
            seed=1,
        )
        assert traced_peak_mb(lambda: sample_codebook_marginal(ens, 400_000)) < 16.0


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(123, 8)
    b = spawn_seeds(123, 8)
    assert a == b
    assert len(set(a)) == 8


def test_spawn_seeds_spawns_in_chunks_with_the_one_shot_children():
    # one chunk of SeedSequence children is alive at a time; all 10^4 at
    # once take about 4 MB
    seeds = []
    peak = traced_peak_mb(lambda: seeds.extend(spawn_seeds(0, 10_000)))
    assert peak < 1.0
    children = np.random.SeedSequence(0).spawn(10_000)
    assert seeds == [int(c.generate_state(1, np.uint64)[0]) for c in children]
