import dataclasses
import importlib.util
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from ocran import _linalg as la
from ocran import optimize
from ocran.core import ScenarioError, SubsetPair, indices_of, max_weighted_rate, scenario_from_dict
from ocran.discrete import (AuxChannels, DiscreteEvaluator, DiscreteScenario, ReducedFactors,
                            build_joint, cmi)
from ocran.gaussian import (
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    rate_constraint_gaussian,
    region_gaussian,
)
from ocran.optimize import (
    _GaussianObjective,
    _pack_hermitian,
    _SoftmaxTables,
    mc_mutual_information,
    optimize_discrete_aux,
    optimize_gaussian_quantizers,
)
from ocran.verify import (random_correlated_scenario, random_gaussian_scenario, random_pd,
                          random_quantizers)
from ocran.sumrate import jd_sum_rate

import discrete_references
from helpers import (ScalarField, finite_diff_check, identity_aux, mc_mutual_information_one_shot,
                     pack_gradient, sum_rate_field, traced_peak_mb, unpack_hermitian, whitened_form)


def scalar_scenario(snr=1.0, fronthaul=1.0):
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


def antenna_scenario(rng, user_dims, relay_dims):
    """A random Gaussian scenario with the given antenna counts, drawn as
    ``random_gaussian_scenario`` draws its matrices."""
    h_grid = tuple(tuple((rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / math.sqrt(2.0)
                         for n in user_dims) for m in relay_dims)
    sigma = tuple(random_pd(rng, m) for m in relay_dims)
    kin = tuple(random_pd(rng, n) for n in user_dims)
    return GaussianScenario(
        num_users=len(user_dims),
        num_relays=len(relay_dims),
        fronthaul=tuple(rng.uniform(0.5, 3.0, size=len(relay_dims))),
        time_share=(1.0,),
        H=h_grid,
        Sigma=sigma,
        Kin=kin,
        power=tuple(float(np.real(np.trace(m))) + 0.1 for m in kin),
    )


def golden_rate(snr, cap):
    return math.log2(1.0 + snr * (2.0**cap - 1.0) / (2.0**cap + snr))


class TestConfig:
    def test_validation(self):
        sc = random_correlated_scenario(np.random.default_rng(3), 1, 2)
        for settings in ({"restarts": 0}, {"max_iters": 0}):
            with pytest.raises(ScenarioError, match="restarts and max_iters must be positive"):
                optimize_discrete_aux(sc, (2, 2), **settings)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 2.0),
                                         (0.0, 0.0), (), (1.0, 1.0, 1.0)])
    def test_unusable_weights(self, weights):
        sc = random_gaussian_scenario(np.random.default_rng(2), 2, 2)
        with pytest.raises(ScenarioError, match="weights"):
            optimize_gaussian_quantizers(sc, weights)


class TestGaussianOptimizer:
    def test_zero_fronthaul_collapses_to_zero(self):
        sc = scalar_scenario(fronthaul=0.0)
        res = optimize_gaussian_quantizers(sc)
        assert res.objective == 0.0
        assert np.allclose(res.quantizers.B[0], 0.0)

    def test_golden_scalar(self):
        sc = scalar_scenario(snr=1.0, fronthaul=1.0)
        res = optimize_gaussian_quantizers(sc)
        assert res.objective == pytest.approx(golden_rate(1.0, 1.0), abs=1e-4)
        res.quantizers.validate(sc)
        assert isinstance(res, optimize.OptResult)
        assert res.gap <= optimize.GAP_TOL

    def test_methods_agree_on_golden_case(self):
        sc = scalar_scenario(snr=4.0, fronthaul=0.5)
        res = optimize_gaussian_quantizers(sc)
        assert res.objective == pytest.approx(golden_rate(4.0, 0.5), abs=1e-4)

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(3)
        sc = random_gaussian_scenario(rng, 2, 2)
        res = optimize_gaussian_quantizers(sc)
        assert all(b >= a - 1e-12 for a, b in zip(res.trace, res.trace[1:]))

    def test_feasibility_after_projection(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sc = random_gaussian_scenario(rng, 2, 2)
            res = optimize_gaussian_quantizers(sc)
            res.quantizers.validate(sc)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        sc = random_gaussian_scenario(rng, 1, 2)
        a = optimize_gaussian_quantizers(sc)
        b = optimize_gaussian_quantizers(sc)
        assert a.trace == b.trace
        for ba, bb in zip(a.quantizers.B, b.quantizers.B):
            np.testing.assert_array_equal(ba, bb)

    def test_call_count_guard(self, monkeypatch):
        # the multi-start search that the certified solve replaced evaluated
        # 6,394 points on this instance; the solve builds one evaluator per
        # point and may build a tenth as many
        builds = []

        class Counting(optimize.GaussianEvaluator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(optimize, "GaussianEvaluator", Counting)
        sc = random_gaussian_scenario(np.random.default_rng(31), 2, 3)
        res = optimize_gaussian_quantizers(sc)
        assert res.gap <= 1e-6
        assert 0 < len(builds) <= 6_394 // 10

    def test_weighted_objective_runs(self):
        sc = GaussianScenario(
            num_users=2,
            num_relays=1,
            fronthaul=(1.0,),
            time_share=(1.0,),
            H=(([[1.0]], [[1.0]]),),
            Sigma=([[1.0]],),
            Kin=([[1.0]], [[1.0]]),
            power=(1.0, 1.0),
        )
        res = optimize_gaussian_quantizers(sc, (1.0, 1.0))
        assert res.objective > 0.1
        assert res.gap <= 1e-6
        res.quantizers.validate(sc)

    def test_identity_noise_optimum_commutes_with_signal(self):
        # with white noise and one relay the optimal quantizer shares
        # eigenvectors with H Kin H^H (reverse water-filling per eigenmode)
        rng = np.random.default_rng(9)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kin = np.eye(2)
        sc = GaussianScenario(
            num_users=1,
            num_relays=1,
            fronthaul=(2.0,),
            time_share=(1.0,),
            H=((h,),),
            Sigma=(np.eye(2),),
            Kin=(kin,),
            power=(2.0,),
        )
        res = optimize_gaussian_quantizers(sc)
        signal = h @ kin @ h.conj().T
        b = res.quantizers.B[0]
        residual = np.max(np.abs(signal @ b - b @ signal))
        assert residual <= 1e-6
        assert res.gap <= 1e-6
        res.quantizers.validate(sc)
        assert res.objective > 0.0


def sum_rate(sc, q):
    return float(GaussianEvaluator.from_quantizers(sc, q).subset_bounds().min())


def point_of(obj, q):
    """The objective's point at quantizers q, through ``at``."""
    roots = [la.psd_sqrt(s) for s in obj.sc.Sigma]
    return obj.at(_pack_hermitian([r @ b @ r for r, b in zip(roots, q.B)]))


def water_filling_rate(r, cap):
    """Single-relay sum-rate max_W min(log2 det(I + W R), C + log2 det(I - W))
    for the eigenvalues r of R = Sigma^-1/2 H Kin H^H Sigma^-1/2, in the
    reverse water-filling form of the Gaussian information bottleneck
    (Chechik, Globerson, Tishby and Weiss, JMLR 6, 2005): with water level
    theta, each mode with r_i > theta gets w_i = (1 - theta / r_i) / (1 + theta),
    so it carries log2((1 + r_i) / (1 + theta)) and costs
    log2(r_i (1 + theta) / (theta (1 + r_i))) of fronthaul.  Bisection on
    theta equalizes the carried rate with C minus the cost.  Returns the
    rate, the w_i and the weight mu of the S = {} branch."""
    r = np.asarray(r, dtype=float)

    def split(theta):
        on = r > theta
        carried = np.sum(np.log2((1.0 + r[on]) / (1.0 + theta)))
        cost = np.sum(np.log2(r[on] * (1.0 + theta) / (theta * (1.0 + r[on]))))
        return carried, cap - cost

    lo, hi = 0.0, float(r.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        carried, left = split(mid)
        lo, hi = (lo, mid) if carried < left else (mid, hi)
    theta = 0.5 * (lo + hi)
    w = np.zeros_like(r)
    on = r > theta
    w[on] = (1.0 - theta / r[on]) / (1.0 + theta)
    return split(theta)[0], w, 1.0 / (1.0 + theta)


def load_bench_instances():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module, json.loads((path.parent / "references.json").read_text())


class TestCertificate:
    @staticmethod
    def bound(sc, q, lam):
        """The solve's Frank-Wolfe bound on the sum-rate at quantizers q, for
        weights lam on the relay subsets."""
        q.validate(sc)
        obj = _GaussianObjective(sc)
        bound = optimize._FrankWolfeBound(obj, point_of(obj, q), [obj.terms.full_users])
        return bound(np.asarray(lam, dtype=float))[0]

    def test_bound_is_never_below_a_feasible_sum_rate(self):
        # any weights give a valid bound, at any quantizers: it must exceed
        # the sum-rate of random quantizers and of the optimizer's result
        rng = np.random.default_rng(71)
        for _ in range(40):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                          max_antennas=3)
            q = random_quantizers(rng, sc)
            lam = rng.dirichlet(np.ones(1 << sc.num_relays))
            bound = self.bound(sc, q, lam)
            optimum = optimize_gaussian_quantizers(sc)
            for other in [q, optimum.quantizers] + [random_quantizers(rng, sc, 0.0, 0.99)
                                                    for _ in range(5)]:
                assert sum_rate(sc, other) <= bound + 1e-12

    @staticmethod
    def written_out_bound(sc, q, lam):
        """The Frank-Wolfe bound with each relay's G_k summed over the relay
        subsets one matrix at a time, from the scenario alone."""
        relays = range(sc.num_relays)
        users = tuple(range(1, sc.num_users + 1))
        h = [sc.channel_to_users(k + 1, users) for k in relays]
        k_root = la.psd_sqrt(sc.input_covariance(users))
        inv_roots = [la.psd_inv_sqrt(s) for s in sc.Sigma]
        ws = [la.psd_sqrt(s) @ b @ la.psd_sqrt(s) for s, b in zip(sc.Sigma, q.B)]
        g = [np.zeros_like(w) for w in ws]
        for s_mask, weight in enumerate(lam):
            outside = [k for k in relays if not s_mask >> k & 1]
            a = sum((h[k].conj().T @ q.B[k] @ h[k] for k in outside), np.zeros((len(k_root),) * 2))
            inner = k_root @ np.linalg.inv(np.eye(len(k_root)) + k_root @ a @ k_root) @ k_root
            for k in relays:
                if k in outside:
                    g[k] = g[k] + weight * inv_roots[k] @ h[k] @ inner @ h[k].conj().T @ inv_roots[k]
                else:
                    g[k] = g[k] - weight * np.linalg.inv(np.eye(len(ws[k])) - ws[k])
        total = float(np.dot(lam, GaussianEvaluator.from_quantizers(sc, q).subset_bounds()))
        for gk, w in zip(g, ws):
            gk = la.hermitian_part(gk) / la.LN2
            total += np.clip(np.linalg.eigvalsh(gk), 0.0, None).sum() - np.trace(gk @ w).real
        return total

    def test_bound_matches_the_formula_written_per_relay(self):
        rng = np.random.default_rng(74)
        for _ in range(30):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3)
            q = random_quantizers(rng, sc, 0.0, 0.99)
            lam = rng.dirichlet(np.full(1 << sc.num_relays, 0.5))
            expected = self.written_out_bound(sc, q, lam)
            assert self.bound(sc, q, lam) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("snr,cap", [(0.5, 0.25), (1.0, 1.0), (4.0, 0.5), (4.0, 4.0)])
    def test_bound_at_the_scalar_optimum_is_the_golden_rate(self, snr, cap):
        w = (2.0**cap - 1.0) / (2.0**cap + snr)
        mu = (1.0 + snr * w) / (1.0 + snr)  # weight of S = {} that zeroes G
        q = QuantizerSetGaussian(B=([[w]],))
        bound = self.bound(scalar_scenario(snr, cap), q, [mu, 1.0 - mu])
        assert bound == pytest.approx(golden_rate(snr, cap), abs=1e-8)

    @pytest.mark.parametrize("relay_dim,user_dim", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4)])
    def test_single_relay_matches_reverse_water_filling(self, relay_dim, user_dim):
        rng = np.random.default_rng(10 * relay_dim + user_dim)
        for _ in range(3):
            h = rng.normal(size=(relay_dim, user_dim)) + 1j * rng.normal(size=(relay_dim, user_dim))
            sigma, kin = random_pd(rng, relay_dim), random_pd(rng, user_dim)
            cap = float(rng.uniform(0.5, 4.0))
            sc = GaussianScenario(num_users=1, num_relays=1, fronthaul=(cap,), time_share=(1.0,),
                                  H=((h,),), Sigma=(sigma,), Kin=(kin,),
                                  power=(float(np.trace(kin).real) + 0.1,))
            inv_root = la.psd_inv_sqrt(sigma)
            r, v = np.linalg.eigh(la.hermitian_part(inv_root @ h @ kin @ h.conj().T @ inv_root))
            r = np.clip(r, 0.0, None)
            rate, w, mu = water_filling_rate(r, cap)
            b_opt = la.hermitian_part(inv_root @ (v * w) @ v.conj().T @ inv_root)
            bound = self.bound(sc, QuantizerSetGaussian(B=(b_opt,)), [mu, 1.0 - mu])
            assert bound == pytest.approx(rate, abs=1e-9)
            res = optimize_gaussian_quantizers(sc)
            assert res.objective == pytest.approx(rate, abs=1e-9)
            assert res.gap <= 1e-6

    def test_bound_at_the_solver_point_matches_the_bound_at_its_quantizers(self, monkeypatch):
        # the solve certifies its own point; at() of the quantizers it
        # returns is that point up to rounding
        points = []
        original = optimize._FrankWolfeBound

        def keep(obj, p, t_sets):
            points.append((obj, p, t_sets))
            return original(obj, p, t_sets)

        monkeypatch.setattr(optimize, "_FrankWolfeBound", keep)
        rng = np.random.default_rng(76)
        for trial in range(8):
            num_users = int(rng.integers(1, 4))
            sc = random_gaussian_scenario(rng, num_users, int(rng.integers(1, 4)), max_antennas=3)
            weights = None if trial % 2 else tuple(rng.uniform(0.1, 1.0, size=num_users))
            res = optimize_gaussian_quantizers(sc, weights)
            obj, p, t_sets = points[-1]
            here = original(obj, p, t_sets)
            there = original(obj, point_of(obj, res.quantizers), t_sets)
            for _ in range(3):
                y = rng.dirichlet(np.ones(len(t_sets) << sc.num_relays))
                assert abs(here(y)[0] - there(y)[0]) <= 1e-12


class TestSolverGate:
    def test_bench_instances_are_certified_above_their_references(self):
        instances, references = load_bench_instances()
        for seed in range(1, 11):
            for i in range(4):
                doc = instances.optimize_instance(instances.instance_rng(seed, 4, i)).scenario
                res = optimize_gaussian_quantizers(scenario_from_dict(doc))
                assert res.gap <= 1e-6
                assert res.objective >= references["gaussian-opt"][str(seed)][f"opt-{i}.optimize"]

    def test_random_mimo_is_certified(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3)
            res = optimize_gaussian_quantizers(sc)
            assert res.gap <= 1e-6
            assert res.objective == pytest.approx(sum_rate(sc, res.quantizers), abs=1e-9)
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == res.objective

    def test_zero_fronthaul_is_exactly_zero(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3, fronthaul_range=(0.0, 0.0))
            res = optimize_gaussian_quantizers(sc)
            assert res.objective == 0.0
            assert res.gap <= 1e-6
            for b in res.quantizers.B:
                assert np.max(np.abs(b)) <= 1e-6

    @pytest.mark.parametrize("seed,num_users,num_relays,weights",
                             [(1, 1, 2, None), (3, 2, 2, (1.0, 2.0))])
    def test_uniform_start_certifies_when_the_multipliers_cover_nothing(
            self, monkeypatch, seed, num_users, num_relays, weights):
        # zeroed SLSQP multipliers cover no weight, so the certificate
        # starts from uniform ones and still certifies the same objective
        import scipy.optimize

        def scenario():
            return random_gaussian_scenario(np.random.default_rng(seed), num_users, num_relays)

        expected = optimize_gaussian_quantizers(scenario(), weights)
        solve, covering, starts = scipy.optimize.minimize, optimize._covering, []

        def without_multipliers(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.multipliers = np.zeros_like(res.multipliers)
            return res

        def recording(y, cover, c):
            lam = covering(y, cover, c)
            starts.append((y.copy(), lam))
            return lam

        monkeypatch.setattr(scipy.optimize, "minimize", without_multipliers)
        monkeypatch.setattr(optimize, "_covering", recording)
        res = optimize_gaussian_quantizers(scenario(), weights)
        (zeros, none), (ones, lam) = starts[:2]
        assert not zeros.any() and none is None
        assert np.all(ones == 1.0) and lam is not None
        assert res.objective == expected.objective
        assert res.gap <= optimize.GAP_TOL

    def test_uncertified_solve_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "GAP_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="not certified"):
            optimize_gaussian_quantizers(scalar_scenario())


# (users, relays, fronthaul set per relay index, index of a zero weight)
WEIGHTED_CASES = [(3, 3, {0: 0.0}, 1), (2, 2, {1: 1e-3}, None), (3, 2, {}, 0),
                  (1, 3, {0: 0.0, 2: 1e-3}, None), (2, 2, {0: 0.0, 1: 0.0}, None)]


def random_weighted_instance(rng, num_users, num_relays, fronthaul, zero_weight):
    """A random scenario with the given relays' fronthaul replaced, and
    random weights with the one at ``zero_weight`` (if any) set to zero."""
    sc = random_gaussian_scenario(rng, num_users, num_relays)
    weights = rng.uniform(0.05, 1.0, size=num_users)
    if zero_weight is not None:
        weights[zero_weight] = 0.0
    caps = tuple(fronthaul.get(k, c) for k, c in enumerate(sc.fronthaul))
    return dataclasses.replace(sc, fronthaul=caps), tuple(weights)


def weighted(sc, weights):
    return optimize_gaussian_quantizers(sc, weights)


class TestWeightedSolve:
    def test_branch_gradients_of_every_user_set_match_central_differences(self):
        rng = np.random.default_rng(81)
        for num_users, num_relays in ((2, 3), (3, 2)):
            sc = random_gaussian_scenario(rng, num_users, num_relays)
            obj = _GaussianObjective(sc)
            q = random_quantizers(rng, sc)  # normalized eigenvalues in [0.2, 0.8]
            x = _pack_hermitian([la.psd_sqrt(s) @ b @ la.psd_sqrt(s) for s, b in zip(sc.Sigma, q.B)])
            for t_mask in range(1, 1 << sc.num_users):
                users = indices_of(t_mask)
                for s_mask in range(1 << sc.num_relays):
                    field = ScalarField(
                        value=lambda x, u=users, s=s_mask: float(
                            obj.branch_values(obj.at(x), u)[s]),
                        gradient=lambda x, u=users, s=s_mask: obj._branch_gradient(
                            obj.at(x), np.array([s]), u)[0])
                    chk = finite_diff_check(field, x)
                    assert chk.max_rel_error <= 1e-6, (t_mask, s_mask)

    def test_random_instances_are_certified_above_random_quantizers(self):
        rng = np.random.default_rng(82)
        for case in WEIGHTED_CASES:
            sc, w = random_weighted_instance(rng, *case)
            res = weighted(sc, w)
            assert res.converged and -1e-9 <= res.gap <= 1e-6  # a valid bound is never below
            assert res.upper_bound == res.objective + res.gap
            res.quantizers.validate(sc)
            own, _ = max_weighted_rate(region_gaussian(sc, res.quantizers), w)
            assert res.objective == pytest.approx(own, abs=1e-9)
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == res.objective
            assert res.active
            for _ in range(5):
                other, _ = max_weighted_rate(region_gaussian(sc, random_quantizers(rng, sc)), w)
                assert other <= res.objective + 1e-9
            if not any(sc.fronthaul):  # zero quantizers win the tie at 0
                assert res.objective == 0.0
                assert all(np.max(np.abs(b)) == 0.0 for b in res.quantizers.B)

    @staticmethod
    def rows_of(sc):
        """Every user set, and each (T, S) row's users as a 0/1 cover matrix."""
        t_sets = [indices_of(t) for t in range(1, 1 << sc.num_users)]
        cover = np.repeat([[float(l in users) for l in range(1, sc.num_users + 1)]
                           for users in t_sets], 1 << sc.num_relays, axis=0)
        return t_sets, cover

    def test_covering_scales_to_the_least_valid_multiple(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            _, cover = self.rows_of(sc)
            w = rng.uniform(0.0, 2.0, size=sc.num_users)
            w[rng.integers(sc.num_users)] = 1.0
            y = rng.normal(size=cover.shape[0])
            got = optimize._covering(y, cover, w)
            if got is None:
                assert not np.all((np.clip(y, 0.0, None) @ cover)[w > 0] > 0)
                continue
            assert np.all(got >= 0.0) and np.all(got @ cover >= w * (1.0 - 1e-12))
            assert np.min((got @ cover)[w > 0] / w[w > 0]) == pytest.approx(1.0, rel=1e-12)
        assert optimize._covering(np.zeros(3), np.ones((3, 1)), np.ones(1)) is None

    def test_cutting_planes_never_fall_below_the_optimum(self):
        # asked to reach the optimum from random quantizers, the planes
        # search only covering weights, so every bound they find stays above it
        rng = np.random.default_rng(87)
        for case in WEIGHTED_CASES[:3]:
            sc, w = random_weighted_instance(rng, *case)
            res = weighted(sc, w)
            t_sets, cover = self.rows_of(sc)
            w = np.asarray(w)
            obj = _GaussianObjective(sc)
            p = point_of(obj, random_quantizers(rng, sc))
            bound = optimize._FrankWolfeBound(obj, p, t_sets)
            start = optimize._covering(np.ones(cover.shape[0]), cover, w)
            assert bound.least(start, res.objective, cover, w) >= res.objective - 1e-9

    def test_each_point_forms_each_user_set_once(self, monkeypatch):
        # the weighted objective reads the (T, S) rows that the constraints
        # already formed at the same point: each evaluator takes the
        # log-dets of each user set once
        rng = np.random.default_rng(88)
        sc, w = random_weighted_instance(rng, 2, 3, {}, None)
        original = GaussianEvaluator.info_terms
        calls = []  # holds the evaluators, so no id is reused

        def counting(ev, users):
            calls.append((ev, users))
            return original(ev, users)

        monkeypatch.setattr(GaussianEvaluator, "info_terms", counting)
        weighted(sc, w)
        keys = [(id(ev), users) for ev, users in calls]
        assert keys and len(keys) == len(set(keys))

    def test_iterates_are_valued_by_the_value_lp_alone(self, monkeypatch):
        # three users: the weighted rate of a region takes a value LP and a
        # tie-break LP; iterates need only the value, and the tie-break runs at
        # the start (its rates) and at the returned point, so the result is
        # the one every iterate's tie-break gave
        import scipy.optimize

        sc, w = random_weighted_instance(np.random.default_rng(83), 3, 3, {}, None)
        calls = []
        linprog = scipy.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        tie_breaks = []

        def asking(region, c, tie_break=True):
            tie_breaks.append(tie_break)
            return max_weighted_rate(region, c, tie_break)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        monkeypatch.setattr(optimize, "max_weighted_rate", asking)
        res = weighted(sc, w)
        lean = len(calls)
        assert tie_breaks.count(True) == 2 and lean == 19  # the previous solve took 34
        # the same solve with both LPs on every call
        monkeypatch.setattr(optimize, "max_weighted_rate",
                            lambda region, c, tie_break=True: max_weighted_rate(region, c))
        calls.clear()
        both = weighted(sc, w)
        assert lean <= len(calls) // 2 + 1
        for got, want in zip(res.quantizers.B, both.quantizers.B):
            np.testing.assert_array_equal(got, want)
        assert (res.objective, res.gap, res.active, res.trace) == (
            both.objective, both.gap, both.active, both.trace)
        # the values before iterates took one LP; the certificate's gap reads
        # 9.5e-11 with one BLAS thread and 1.6e-10 with more
        assert res.objective == pytest.approx(2.325401070135908, abs=1e-12, rel=0)
        assert res.gap == pytest.approx(1.3e-10, abs=1e-9, rel=0)
        assert res.active == ((1, 0), (5, 0), (5, 1), (7, 1), (7, 7))

    def test_single_user_weighted_rate_is_the_sum_rate(self):
        rng = np.random.default_rng(83)
        for _ in range(2):
            sc = random_gaussian_scenario(rng, 1, int(rng.integers(1, 4)), max_antennas=3)
            total = optimize_gaussian_quantizers(sc)
            assert weighted(sc, (1.0,)).objective == pytest.approx(total.objective, abs=1e-6)

    def test_unit_weights_never_beat_the_sum_rate(self):
        rng = np.random.default_rng(84)
        for _ in range(2):
            sc = random_gaussian_scenario(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            total = optimize_gaussian_quantizers(sc)
            assert weighted(sc, (1.0,) * sc.num_users).objective <= total.objective + 1e-6


class TestObjective:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_packing_round_trip(self, d):
        rng = np.random.default_rng(d)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = z + z.conj().T
        assert np.array_equal(unpack_hermitian(_pack_hermitian([w, w]), (d, d))[1], w)
        loop = []
        for i in range(d):
            loop.append(w[i, i].real)
        for i in range(d):
            for j in range(i + 1, d):
                loop += [2.0 * w[i, j].real, 2.0 * w[i, j].imag]
        assert pack_gradient([w]).tolist() == loop

    def test_softmin_value_only_and_gradient(self):
        rng = np.random.default_rng(12)
        sc = random_gaussian_scenario(rng, 2, 3)
        obj = _GaussianObjective(sc)
        x = obj.at(_pack_hermitian(
            [0.4 * np.eye(d) for d in sc.relay_antennas]) + 0.05 * rng.normal(
                size=sum(d * d for d in sc.relay_antennas)))
        for tau in (0.1, 0.01):
            value, grad = obj.softmin(x, tau)
            assert obj.softmin(x, tau, gradient=False) == (value, None)
            vals = obj.branch_values(x)
            scaled = np.exp(-(vals - vals.min()) * la.LN2 / tau)
            weights = scaled / scaled.sum()
            expected = sum(w * obj._branch_gradient(x, np.array([s]))[0]
                           for s, w in enumerate(weights) if w > 1e-12)
            np.testing.assert_array_equal(grad, expected)

    @staticmethod
    def summed_branch_gradient(obj, p, s_mask):
        """The branch gradient written out per relay and per branch, from
        the scenario alone: H^H B H summed over the relays outside S and
        I + K^1/2 A K^1/2 formed again."""
        sc = obj.sc
        relays = range(1, sc.num_relays + 1)
        users = range(1, sc.num_users + 1)
        outside = [k for k in relays if not s_mask >> (k - 1) & 1]
        ws = unpack_hermitian(p.x, sc.relay_antennas)
        h_full = [sc.channel_to_users(k, users) for k in relays]
        sig_root_inv = [la.psd_inv_sqrt(s) for s in sc.Sigma]
        k_root = la.psd_sqrt(sc.input_covariance(users))
        bs = [la.hermitian_part(ri @ w @ ri) for ri, w in zip(sig_root_inv, ws)]
        if outside:
            a = sum(h_full[k - 1].conj().T @ bs[k - 1] @ h_full[k - 1] for k in outside)
            m = np.eye(a.shape[0]) + k_root @ a @ k_root
            inner = k_root @ np.linalg.inv(m) @ k_root
        grads = []
        for k in relays:
            if k in outside:
                gb = h_full[k - 1] @ inner @ h_full[k - 1].conj().T / la.LN2
                g = sig_root_inv[k - 1] @ gb @ sig_root_inv[k - 1]
            else:
                g = -np.linalg.inv(np.eye(ws[k - 1].shape[0]) - ws[k - 1]) / la.LN2
            grads.append(la.hermitian_part(g))
        return pack_gradient(grads)

    def test_branch_gradient_reads_the_evaluator_stack(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            obj = _GaussianObjective(sc)
            dims = sc.relay_antennas
            p = obj.at(_pack_hermitian([0.5 * np.eye(d) for d in dims])
                       + 0.1 * rng.normal(size=sum(d * d for d in dims)))
            for s_mask in range(1 << sc.num_relays):
                expected = self.summed_branch_gradient(obj, p, s_mask)
                got = obj._branch_gradient(p, np.array([s_mask]))[0]
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_stacked_branch_gradients_equal_the_one_mask_calls(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3)
            obj = _GaussianObjective(sc)
            p = obj.at(0.5 * rng.normal(size=sum(d * d for d in sc.relay_antennas)))
            subsets = 1 << sc.num_relays
            some = rng.permutation(subsets)[:rng.integers(1, subsets + 1)]
            for masks in (np.arange(subsets), some):
                rows = obj._branch_gradient(p, masks)
                assert rows.shape == (masks.size, p.x.size)
                for s, row in zip(masks, rows):
                    np.testing.assert_array_equal(row, obj._branch_gradient(p, np.array([s]))[0])

    def test_at_decomposes_once_and_keeps_the_packed_projection(self, monkeypatch):
        rng = np.random.default_rng(14)
        sc = random_gaussian_scenario(rng, 2, 3)
        obj = _GaussianObjective(sc)
        raw = rng.normal(size=sum(d * d for d in sc.relay_antennas))
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        p = obj.at(raw)
        groups = len(set(sc.relay_antennas))
        assert groups == 2
        assert len(calls) == 2 * groups  # per antenna-count group: at's and smooth_at's
        np.testing.assert_array_equal(p.x, _pack_hermitian(obj.terms.unstack(p.ws)))

    @pytest.mark.parametrize("spectra, tol", [("inside", 1e-14), ("raw", 1e-10)])
    def test_at_equals_at_of_the_clipped_point(self, spectra, tol):
        # the cap in ``at`` is a map of eigenvalues, so clipping first moves
        # only the last bits: raw normal spectra reach the cap, where A_k has
        # norm about 3e4
        rng = np.random.default_rng(16)
        for _ in range(40):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                          max_antennas=3)
            obj = _GaussianObjective(sc)
            if spectra == "inside":
                ws = []
                for d in sc.relay_antennas:
                    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                    ws.append((v * rng.uniform(0.05, 0.95, d)) @ v.conj().T)
                x = _pack_hermitian(ws)
            else:
                x = rng.normal(size=sum(d * d for d in sc.relay_antennas))
            clipped = _pack_hermitian(obj.project(unpack_hermitian(x, sc.relay_antennas)))
            assert np.max(np.abs(obj.at(x).x - obj.at(clipped).x)) <= tol


class TestDiscreteOptimizer:
    def _bsc_scenario(self, fronthaul, eps=0.1):
        ch = np.array([[1 - eps, eps], [eps, 1 - eps]])
        return DiscreteScenario(
            num_users=1,
            num_relays=1,
            fronthaul=(fronthaul,),
            time_share=(1.0,),
            px=(np.array([[0.5, 0.5]]),),
            channel=ch,
        )

    def test_big_fronthaul_reaches_channel_information(self):
        sc = self._bsc_scenario(10.0)
        j = build_joint(sc, identity_aux(sc))
        target = cmi(j, {"X1"}, {"Y1"}, {"Q"})
        res = optimize_discrete_aux(sc, (2,), restarts=2, seed=1)
        assert res.objective == pytest.approx(target, abs=1e-3)
        assert isinstance(res, optimize.OptResult)
        assert res.upper_bound is None and res.gap is None

    def test_zero_fronthaul(self):
        sc = self._bsc_scenario(0.0)
        res = optimize_discrete_aux(sc, (2,), restarts=2, max_iters=10, seed=2)
        assert res.objective == 0.0

    def test_beats_handcrafted_candidate(self):
        sc = self._bsc_scenario(0.6)
        noisy_copy = np.array([[[0.9, 0.1], [0.1, 0.9]]])
        candidate = jd_sum_rate(DiscreteEvaluator.from_aux(sc, AuxChannels(tables=(noisy_copy,))))
        res = optimize_discrete_aux(sc, (2,), restarts=3, seed=3)
        assert res.objective >= candidate - 1e-9

    def test_non_convergence_is_flagged_not_raised(self):
        # only the discrete search caps its sweeps
        rng = np.random.default_rng(44)
        from ocran.verify import random_correlated_scenario

        sc = random_correlated_scenario(rng, 1, 2)
        res = optimize_discrete_aux(sc, (3, 3), restarts=1, max_iters=1, seed=1)
        assert not res.converged
        for table in res.quantizers.tables:
            np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)

    def test_objective_is_the_evaluators_value_of_the_traced_best(self):
        # the trace holds the search's own sum_rate_pass values, the objective
        # DiscreteEvaluator's value of the returned tables: they may differ
        # in the last bits, either way
        rng = np.random.default_rng(46)
        for i in range(6):
            sc = random_correlated_scenario(rng, 2, 2, output_sizes=(3, 2))
            res = optimize_discrete_aux(sc, (2, 2), restarts=2, max_iters=40, seed=i)
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            assert res.objective == jd_sum_rate(DiscreteEvaluator.from_aux(sc, res.quantizers))
            assert abs(res.objective - res.trace[-1]) <= 1e-12

    def test_the_first_of_tied_starts_is_chosen(self, monkeypatch):
        # the four starts reach one optimum within rounding; lifting the
        # last start's value 1e-15 above the best must not make it the choice
        sc = self._bsc_scenario(0.5)

        def search(lift: bool):
            values = []

            def valued(ev):
                values.append(jd_sum_rate(ev))
                return max(values) + 1e-15 if lift and len(values) == 4 else values[-1]

            monkeypatch.setattr(optimize, "jd_sum_rate", valued)
            return optimize_discrete_aux(sc, (2,), restarts=4), values

        plain, values = search(False)
        assert max(values) - min(values) < optimize.START_TIE_TOL
        lifted, _ = search(True)
        assert lifted.objective == plain.objective
        assert lifted.trace == plain.trace
        for a, b in zip(lifted.quantizers.tables, plain.quantizers.tables):
            assert np.array_equal(a, b)

    def test_the_first_converged_tied_start_is_chosen(self, monkeypatch):
        # the four starts tie; start 0 reports no SLSQP success, so start 1,
        # the first tied start that converged, gives the result
        sc = self._bsc_scenario(0.5)
        solve, solves = optimize._epigraph_solve, []

        def first_fails(*args):
            best, trace, res = solve(*args)
            if not solves:
                res = type(res)({**res, "success": False})
            solves.append((best[0][0], trace, res.success))
            return best, trace, res

        monkeypatch.setattr(optimize, "_epigraph_solve", first_fails)
        res = optimize_discrete_aux(sc, (2,), restarts=4)
        assert [s[2] for s in solves] == [False, True, True, True]
        assert res.converged
        assert res.trace == tuple(solves[1][1]) != tuple(solves[0][1])
        for a, b in zip(res.quantizers.tables, solves[1][0], strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("card, cfg", [((2,), {}), ((0, 2), {}), ((2, 2), {"restarts": 0})])
    def test_validation_is_a_scenario_error(self, card, cfg):
        sc = random_correlated_scenario(np.random.default_rng(3), 1, 2)
        with pytest.raises(ScenarioError):
            optimize_discrete_aux(sc, card, **cfg)

    @pytest.mark.parametrize("num_timeshare", [1, 2])
    def test_sum_rate_jacobian_matches_central_differences(self, num_timeshare):
        # the Jacobian of the search's pass, against differences of its rows
        rng = np.random.default_rng(20 + num_timeshare)
        for _ in range(3):
            sc = random_correlated_scenario(rng, 2, 2, output_sizes=(3, 2),
                                            num_timeshare=num_timeshare)
            card = (2, 3)
            factors = ReducedFactors(sc, card)
            params = _SoftmaxTables([(num_timeshare, y, u) for y, u in zip(sc.output_sizes, card)])
            theta = rng.normal(size=params.size)

            def rows(x):
                return factors.sum_rate_pass(*params.tables(x))[0]

            def jacobian(x):
                tables, logs = params.tables(x)
                return params.pull_back(tables, factors.sum_rate_pass(tables, logs)[1]())

            for s in range(1 << sc.num_relays):
                field = ScalarField(value=lambda x: float(rows(x)[s]),
                                    gradient=lambda x: jacobian(x)[s])
                assert finite_diff_check(field, theta, h=1e-6).max_rel_error < 1e-6

    def test_builds_one_evaluator_per_start(self, monkeypatch):
        # iterates are valued by ReducedFactors.sum_rate_pass; only each
        # start's returned tables get a DiscreteEvaluator
        built = []
        init = DiscreteEvaluator.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteEvaluator, "__init__", counting)
        sc = random_correlated_scenario(np.random.default_rng(45), 2, 2)
        for restarts in (1, 3):
            built.clear()
            optimize_discrete_aux(sc, (2, 3), restarts=restarts, max_iters=30, seed=1)
            assert len(built) <= restarts

    @staticmethod
    def binary_entropy(p):
        return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    @pytest.mark.parametrize("fronthaul", [0.3, 0.8])
    @pytest.mark.parametrize("eps", [0.05, 0.11, 0.2, 0.3])
    def test_bsc_reaches_mrs_gerbers_lemma(self, eps, fronthaul):
        # one relay seeing X through a BSC(eps), X uniform: the sum-rate is
        # max I(X; U) s.t. I(Y; U) <= C, which Mrs. Gerber's Lemma puts at
        # 1 - h(eps * d) with h(d) = 1 - C, reached by U = Y through a BSC(d)
        lo, hi = 0.0, 0.5  # h^-1(1 - C) by bisection; h increases on [0, 1/2]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.binary_entropy(mid) < 1.0 - fronthaul else (lo, mid)
        d = 0.5 * (lo + hi)
        optimum = 1.0 - self.binary_entropy(eps * (1 - d) + (1 - eps) * d)
        res = optimize_discrete_aux(self._bsc_scenario(fronthaul, eps), (2,))
        assert res.objective == pytest.approx(optimum, abs=1e-9, rel=0)

    def test_objectives_reach_the_vertex_search_references(self):
        # the references are the objectives of the vertex-move search that
        # the epigraph solve replaced, from tests/discrete_references.py
        path = pathlib.Path(__file__).with_name("discrete_references.json")
        references = json.loads(path.read_text())
        assert sorted(references) == sorted(str(seed) for seed in discrete_references.SEEDS)
        for seed in discrete_references.SEEDS:
            res = optimize_discrete_aux(
                discrete_references.instance(seed), discrete_references.AUX_SIZES,
                discrete_references.RESTARTS, discrete_references.MAX_ITERS,
                discrete_references.SEED)
            assert res.objective >= references[str(seed)] - 1e-9

    def test_data_processing_ceiling(self):
        rng = np.random.default_rng(4)
        from ocran.verify import random_correlated_scenario

        for _ in range(5):
            sc = random_correlated_scenario(rng, 1, 2)
            res = optimize_discrete_aux(sc, (2, 2), restarts=2, max_iters=8, seed=5)
            j = build_joint(sc, identity_aux(sc))
            ceiling = cmi(j, {"X1"}, {"Y1", "Y2"}, {"Q"})
            assert res.objective <= ceiling + 1e-9


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])

        def value(x):
            return float(-0.5 * x @ a @ x + x.sum())

        def gradient(x):
            return -(a @ x) + 1.0

        chk = finite_diff_check(ScalarField(value=value, gradient=gradient), np.array([0.4, -0.2]))
        assert not chk.inconclusive
        assert chk.max_rel_error <= 1e-8

    def test_fronthaul_mi_closed_form(self):
        field = ScalarField(
            value=lambda x: float(-np.log2(1.0 - x[0])),
            gradient=lambda x: np.array([1.0 / ((1.0 - x[0]) * math.log(2.0))]),
        )
        chk = finite_diff_check(field, np.array([0.5]))
        assert chk.max_rel_error <= 1e-5

    def test_sum_rate_field_away_from_tie(self):
        sc = scalar_scenario(snr=1.0, fronthaul=1.0)
        chk = finite_diff_check(sum_rate_field(sc), np.array([0.1]))
        assert not chk.inconclusive
        assert chk.max_rel_error <= 1e-5

    def test_near_tie_is_inconclusive(self):
        sc = scalar_scenario(snr=1.0, fronthaul=1.0)
        b_star = (2.0 - 1.0) / (2.0 + 1.0)  # equalizer of the two branches
        chk = finite_diff_check(sum_rate_field(sc), np.array([b_star]))
        assert chk.inconclusive
        assert math.isnan(chk.max_rel_error)


class TestMonteCarlo:
    def test_scalar_closed_form(self):
        sc = scalar_scenario(snr=1.0, fronthaul=1.0)
        q = QuantizerSetGaussian(B=([[0.5]],))
        pair = SubsetPair(users=(1,), relays=())
        est = mc_mutual_information(sc, q, pair, samples=200_000, seed=0)
        analytic = math.log2(1.5)
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error
        # a sample's variance is 2 rho^2 / ln^2 2 for the one canonical
        # correlation, rho^2 = g / (1 + g) = 1/3 at the gain g = 1/2
        spread = math.sqrt(2.0 / 3.0) / math.log(2.0) / math.sqrt(200_000)
        assert est.std_error == pytest.approx(spread, rel=0.02)

    def test_mimo_cross_module(self):
        rng = np.random.default_rng(1)
        sc = random_gaussian_scenario(rng, 2, 2)
        q = random_quantizers(rng, sc)
        pair = SubsetPair(users=(1, 2), relays=(1,))
        analytic = rate_constraint_gaussian(sc, q, pair) - (
            sc.fronthaul[0]
            - __import__("ocran.gaussian", fromlist=["fronthaul_mi"]).fronthaul_mi(
                sc.Sigma[0], q.B[0]
            )
        )
        est = mc_mutual_information(sc, q, pair, samples=400_000, seed=2)
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_std_error_scaling(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.5]],))
        pair = SubsetPair(users=(1,), relays=())
        small = mc_mutual_information(sc, q, pair, samples=2_000, seed=3)
        large = mc_mutual_information(sc, q, pair, samples=200_000, seed=3)
        ratio = small.std_error / large.std_error
        assert 10.0 / 2.0 <= ratio <= 10.0 * 2.0

    def test_vanishing_quantizer_estimates_to_zero(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[1e-9]],))
        pair = SubsetPair(users=(1,), relays=())
        est = mc_mutual_information(sc, q, pair, samples=50_000, seed=6)
        assert abs(est.estimate) <= max(3.0 * est.std_error, 1e-6)

    def test_empty_complement_is_zero(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.5]],))
        est = mc_mutual_information(
            sc, q, SubsetPair(users=(1,), relays=(1,)), samples=100, seed=4
        )
        assert est.estimate == 0.0 and est.std_error == 0.0

    def test_boundary_quantizer_rejected(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[1.0]],))
        with pytest.raises(ScenarioError, match="boundary"):
            mc_mutual_information(sc, q, SubsetPair(users=(1,), relays=()), 100, 0)

    def test_fewer_than_two_samples_is_a_scenario_error(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.5]],))
        with pytest.raises(ScenarioError, match="two samples"):
            mc_mutual_information(sc, q, SubsetPair(users=(1,), relays=()), 1, 0)

    def test_seed_determinism(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.4]],))
        pair = SubsetPair(users=(1,), relays=())
        a = mc_mutual_information(sc, q, pair, samples=10_000, seed=9)
        b = mc_mutual_information(sc, q, pair, samples=10_000, seed=9)
        assert a == b

    def test_streamed_blocks_match_the_one_shot_estimator(self, monkeypatch):
        # Each sample is one row of d = 2 min(dim_x, dim_z) exponentials,
        # drawn in chunks of SAMPLER_BLOCK // d rows.  At a block of 2^12 a
        # chunk boundary falls inside the 25_001 samples, which end on a
        # partial chunk, with an input wider than the observation and with
        # one that is not
        monkeypatch.setattr(optimize, "SAMPLER_BLOCK", 1 << 12)
        rng = np.random.default_rng(5)
        scenarios = [lambda nu=nu, nr=nr: random_gaussian_scenario(rng, nu, nr, max_antennas=4)
                     for nu, nr in ((1, 1), (2, 2), (2, 3), (2, 3))]
        scenarios += [lambda: antenna_scenario(rng, (4, 4, 4), (3, 2)),
                      lambda: antenna_scenario(rng, (2, 2), (3, 3))]
        splits = set()
        for make in scenarios:
            sc = make()
            q = random_quantizers(rng, sc)
            users = tuple(range(1, sc.num_users + 1))
            dim_x = sum(sc.user_antennas)
            for s_mask in range((1 << sc.num_relays) - 1):
                pair = SubsetPair(users=users, relays=indices_of(s_mask))
                dim_z = sum(sc.relay_antennas[k - 1] for k in pair.relays_complement(sc.num_relays))
                rows = optimize.SAMPLER_BLOCK // (2 * min(dim_x, dim_z))
                if rows < 25_001 and 25_001 % rows != 0:
                    splits.add(dim_x > dim_z)
                est = mc_mutual_information(sc, q, pair, samples=25_001, seed=s_mask)
                ref = mc_mutual_information_one_shot(sc, q, pair, 25_001, s_mask)
                assert (est.estimate, est.std_error) == ref
        assert splits == {True, False}

    def test_chunk_size_keeps_the_samples(self, monkeypatch):
        # chunks of 2^16 // d and 2^10 // d rows are row slices of the same
        # draw; only the float sums are grouped by chunk, so the estimates
        # agree to rounding, far inside their standard error
        rng = np.random.default_rng(16)
        for nu, nr in ((1, 1), (2, 2), (2, 3)):
            sc = random_gaussian_scenario(rng, nu, nr, max_antennas=3)
            q = random_quantizers(rng, sc)
            pair = SubsetPair(users=tuple(range(1, nu + 1)), relays=())
            estimates = []
            for block in (1 << 16, 1 << 10):
                monkeypatch.setattr(optimize, "SAMPLER_BLOCK", block)
                estimates.append(mc_mutual_information(sc, q, pair, samples=20_001, seed=nr))
            wide, narrow = estimates
            assert narrow.estimate == pytest.approx(wide.estimate, rel=1e-12, abs=0)
            assert narrow.std_error == pytest.approx(wide.std_error, rel=1e-9, abs=0)
            assert wide.std_error > 1e-4

    def test_memory_holds_one_chunk_whatever_the_sample_count(self):
        # 4 + 4 complex dimensions: two users and two relays of 2 antennas,
        # so d = 8 exponentials a sample.  The estimator holds one chunk of
        # 2^16 / 8 = 8,192 rows: its draws (0.5 MB) and one per-row output
        # buffer (66 kB), about 0.6 MB traced for any sample count.  One row
        # per sample for all 300,000 samples would take 19 MB
        eye = np.eye(2)
        rng = np.random.default_rng(8)
        sc = GaussianScenario(
            num_users=2,
            num_relays=2,
            fronthaul=(1.0, 1.0),
            time_share=(1.0,),
            H=tuple(tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
                    for _ in range(2)),
            Sigma=(eye, eye),
            Kin=(eye, eye),
            power=(2.0, 2.0),
        )
        q = QuantizerSetGaussian(B=(0.5 * eye, 0.5 * eye))
        pair = SubsetPair(users=(1, 2), relays=())
        peak = traced_peak_mb(lambda: mc_mutual_information(sc, q, pair, samples=300_000, seed=0))
        assert peak < 1.5

    @staticmethod
    def unwhitened(sc, q, pair, samples, seed):
        """The estimator in the observation's own coordinates, simulating the
        channel: both quadratic forms through the inverse covariances, from
        one (samples, 2(dim_x + dim_z)) normal draw whose columns are split
        into the real and imaginary parts of the input, then of the noise."""
        relays_c = pair.relays_complement(sc.num_relays)
        lam_cond = la.block_diag([la.hermitian_part(np.linalg.inv(q.B[k - 1])) for k in relays_c])
        h_t = np.vstack([sc.channel_to_users(k, pair.users) for k in relays_c])
        k_t_root = la.psd_sqrt(sc.input_covariance(pair.users))
        lam_marg = la.hermitian_part(h_t @ k_t_root @ k_t_root @ h_t.conj().T + lam_cond)
        gap = (la.logdet2(lam_marg) - la.logdet2(lam_cond)) * math.log(2.0)
        cond_inv, marg_inv = np.linalg.inv(lam_cond), np.linalg.inv(lam_marg)
        # x H_T^T = w K_T^{1/2 T} H_T^T for w ~ CN(0, I), drawn as w R through
        # the triangular factor R of that map when w is the wider
        signal = k_t_root.T @ h_t.T
        if signal.shape[0] > signal.shape[1]:
            signal = np.linalg.qr(signal, mode="r")
        cond_root = la.psd_sqrt(lam_cond)
        dim_x, dim_z = signal.shape[0], cond_root.shape[0]
        draw = np.random.default_rng(seed).standard_normal((samples, 2 * (dim_x + dim_z)))
        x_re, x_im, z_re, z_im = np.split(draw, np.cumsum([dim_x, dim_x, dim_z]), axis=1)

        def circular(re, im, m):
            return (re + 1j * im) / math.sqrt(2.0) @ m

        def quad(v, m):
            return np.real(np.einsum("ni,ij,nj->n", v.conj(), m, v))

        noise = circular(z_re, z_im, cond_root.T)
        u = circular(x_re, x_im, signal) + noise
        vals = (gap - quad(noise, cond_inv) + quad(u, marg_inv)) / math.log(2.0)
        return vals.mean(), vals.std() / math.sqrt(samples)

    def test_whitened_matches_unwhitened_estimator(self):
        # The estimator draws each sample's ratio from its form's spectrum,
        # the oracle simulates input and noise, so the two share no draws;
        # the samples have one law, hence agreeing means within 4 standard
        # errors of their difference and standard errors within 5 %
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(6):
            sc = random_gaussian_scenario(rng, 2, 2)
            q = random_quantizers(rng, sc)
            for users, relays in (((1, 2), ()), ((1,), (2,)), ((2,), (1,))):
                pair = SubsetPair(users=users, relays=relays)
                est = mc_mutual_information(sc, q, pair, samples=25_000, seed=trial)
                mean, std_error = self.unwhitened(sc, q, pair, 25_000, trial)
                assert abs(est.estimate - mean) <= 4.0 * math.hypot(est.std_error, std_error)
                assert 0.95 <= est.std_error / std_error <= 1.05
                checked += 1
        assert checked == 18

    @pytest.mark.parametrize("user_dims, relay_dims, shapes", [
        ((1,), (2, 1), {-1, 0}), ((2,), (1, 1), {0, 1}), ((3, 2), (2,), {1}), ((2, 2), (1,), {1})])
    def test_form_spectrum_is_the_signed_whitened_signal_gains(self, user_dims, relay_dims,
                                                               shapes):
        # M = A A^H - diag(0, I) with A^H A = I: its trace is 0, so each
        # sample's mean is the log-det gap, and its nonzero eigenvalues are
        # +-s_j for the singular values s_j of the whitened signal map, with
        # s_j^2 = g_j / (1 + g_j) for the SNR eigenvalues g_j of
        # lam_cond^{-1/2} H K H^H lam_cond^{-1/2}.  The sign of dim_x - dim_z
        # covers a narrower, an equal and a wider input (drawn in its rank)
        rng = np.random.default_rng(22)
        seen = set()
        for _ in range(5):
            sc = antenna_scenario(rng, user_dims, relay_dims)
            q = random_quantizers(rng, sc)
            users = tuple(range(1, sc.num_users + 1))
            for s_mask in range((1 << sc.num_relays) - 1):
                pair = SubsetPair(users=users, relays=indices_of(s_mask))
                _, form, signal_map = whitened_form(sc, q, pair)
                seen.add(int(np.sign(sum(user_dims) - signal_map.shape[1])))
                eig = np.linalg.eigvalsh(form)
                assert abs(eig.sum()) <= 1e-12
                gains = np.linalg.svd(signal_map, compute_uv=False)
                rank = gains.size
                expected = np.sort(np.concatenate([gains, -gains, np.zeros(eig.size - 2 * rank)]))
                np.testing.assert_allclose(eig, expected, atol=1e-12, rtol=0)
                relays_c = pair.relays_complement(sc.num_relays)
                lam_cond = la.block_diag([la.hermitian_part(np.linalg.inv(q.B[k - 1]))
                                          for k in relays_c])
                h_t = np.vstack([sc.channel_to_users(k, users) for k in relays_c])
                white = np.linalg.inv(la.psd_sqrt(lam_cond))
                snr = np.linalg.eigvalsh(la.hermitian_part(
                    white @ h_t @ sc.input_covariance(users) @ h_t.conj().T @ white))[-rank:]
                np.testing.assert_allclose(np.sort(gains ** 2), snr / (1.0 + snr),
                                           atol=1e-12, rtol=0)
        assert seen == shapes

    def test_rank_step_keeps_the_law_of_the_signal(self):
        # G = K_T^{1/2 T} H_T^T wider than tall: its triangular factor R is
        # dim_z x dim_z upper triangular with R^H R = G^H G, so x^T G and
        # w^T R have the same law CN(0, G^H G)
        rng = np.random.default_rng(12)
        for dim_z in (1, 2, 3):
            for dim_x in range(dim_z + 1, 5):
                g = rng.normal(size=(dim_x, dim_z)) + 1j * rng.normal(size=(dim_x, dim_z))
                r = np.linalg.qr(g, mode="r")
                assert r.shape == (dim_z, dim_z)
                assert np.array_equal(r, np.triu(r))
                np.testing.assert_allclose(r.conj().T @ r, g.conj().T @ g, atol=1e-12, rtol=0)

    def test_four_inputs_through_one_observation(self):
        # dim_x = 4 > dim_z = 1: the input is drawn as one complex entry
        sc = antenna_scenario(np.random.default_rng(13), (2, 2), (1,))
        q = random_quantizers(np.random.default_rng(14), sc)
        pair = SubsetPair(users=(1, 2), relays=())
        analytic = float(GaussianEvaluator.from_quantizers(sc, q).info_terms((1, 2))[0])
        est = mc_mutual_information(sc, q, pair, samples=200_000, seed=15)
        # the mc suite's criterion: within 3 standard errors and 2 % relative
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error
        assert abs(est.estimate - analytic) <= 0.02 * analytic

    @pytest.mark.parametrize("user_dims, relay_dims",
                             [((3, 2), (2,)), ((1,), (2, 1)), ((2,), (1, 1))])
    def test_draws_one_exponential_per_entry(self, monkeypatch, user_dims, relay_dims):
        # samples * 2 min(dim_x, dim_z) exponentials: (5, 2) draws 2 * 2 per
        # sample, (1, 3) draws 2 * 1 and (2, 2) draws 2 * 2
        sc = antenna_scenario(np.random.default_rng(16), user_dims, relay_dims)
        q = random_quantizers(np.random.default_rng(17), sc)
        pair = SubsetPair(users=tuple(range(1, sc.num_users + 1)), relays=())
        dim_x, dim_z = sum(user_dims), sum(relay_dims)
        made = []
        default_rng = np.random.default_rng

        def capture(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(optimize.np.random, "default_rng", capture)
        mc_mutual_information(sc, q, pair, samples=30_001, seed=18)
        monkeypatch.undo()
        (rng,) = made
        ref = np.random.default_rng(18)
        ref.standard_exponential(30_001 * 2 * min(dim_x, dim_z))
        assert rng.bit_generator.state == ref.bit_generator.state
