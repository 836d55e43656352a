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
from ocran.cli import main
from ocran.core import SubsetPair, indices_of, max_weighted_rate, scenario_from_dict
from ocran.discrete import AuxChannels, DiscreteScenario, build_joint, cmi, identity_aux
from ocran.gaussian import (
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    rate_constraint_gaussian,
    region_gaussian,
)
from ocran.optimize import (
    OptimizerConfig,
    _GaussianObjective,
    _pack_hermitian,
    gaussian_upper_bound,
    mc_mutual_information,
    optimize_discrete_aux,
    optimize_gaussian_quantizers,
)
from ocran.verify import random_gaussian_scenario, random_pd, random_quantizers
from ocran.sumrate import jd_sum_rate

from helpers import ScalarField, finite_diff_check, pack_gradient, sum_rate_field, unpack_hermitian


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


def golden_rate(snr, cap):
    return math.log2(1.0 + snr * (2.0**cap - 1.0) / (2.0**cap + snr))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(objective="nope")
        with pytest.raises(ValueError):
            OptimizerConfig(objective="weighted")
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 2.0),
                                         (0.0, 0.0), ()])
    def test_unusable_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            OptimizerConfig(objective="weighted", weights=weights)


class TestGaussianOptimizer:
    def test_zero_fronthaul_collapses_to_zero(self):
        sc = scalar_scenario(fronthaul=0.0)
        res = optimize_gaussian_quantizers(sc, OptimizerConfig(restarts=2, seed=1))
        assert res.objective == 0.0
        assert np.allclose(res.quantizers.B[0], 0.0)

    def test_golden_scalar(self):
        sc = scalar_scenario(snr=1.0, fronthaul=1.0)
        res = optimize_gaussian_quantizers(sc, OptimizerConfig(restarts=2, seed=5))
        assert res.objective == pytest.approx(golden_rate(1.0, 1.0), abs=1e-4)
        res.quantizers.validate(sc)

    def test_methods_agree_on_golden_case(self):
        sc = scalar_scenario(snr=4.0, fronthaul=0.5)
        cfg = OptimizerConfig(restarts=2, max_iters=200, seed=2)
        res = optimize_gaussian_quantizers(sc, cfg)
        assert res.objective == pytest.approx(golden_rate(4.0, 0.5), abs=1e-4)

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(3)
        sc = random_gaussian_scenario(rng, 2, 2)
        res = optimize_gaussian_quantizers(sc, OptimizerConfig(restarts=3, seed=3))
        assert all(b >= a - 1e-12 for a, b in zip(res.trace, res.trace[1:]))

    def test_feasibility_after_projection(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            sc = random_gaussian_scenario(rng, 2, 2)
            res = optimize_gaussian_quantizers(
                sc, OptimizerConfig(restarts=2, max_iters=15, seed=4)
            )
            res.quantizers.validate(sc)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        sc = random_gaussian_scenario(rng, 1, 2)
        cfg = OptimizerConfig(restarts=3, max_iters=20, seed=11)
        a = optimize_gaussian_quantizers(sc, cfg)
        b = optimize_gaussian_quantizers(sc, cfg)
        assert a.trace == b.trace
        for ba, bb in zip(a.quantizers.B, b.quantizers.B):
            np.testing.assert_array_equal(ba, bb)

    def test_call_count_guard(self, monkeypatch):
        # the multi-start pattern search with a soft-min polish made 6,394
        # clip_eigenvalues calls on this run, one per evaluated point; the
        # sum-rate solve may build a tenth as many evaluators
        builds = []

        class Counting(optimize.GaussianEvaluator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(optimize, "GaussianEvaluator", Counting)
        sc = random_gaussian_scenario(np.random.default_rng(31), 2, 3)
        res = optimize_gaussian_quantizers(sc, OptimizerConfig(restarts=2, max_iters=10, seed=1))
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
        cfg = OptimizerConfig(
            objective="weighted", weights=(1.0, 1.0), restarts=2, max_iters=30, seed=8
        )
        res = optimize_gaussian_quantizers(sc, cfg)
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
        res = optimize_gaussian_quantizers(
            sc, OptimizerConfig(restarts=4, max_iters=300, seed=10)
        )
        signal = h @ kin @ h.conj().T
        b = res.quantizers.B[0]
        residual = np.max(np.abs(signal @ b - b @ signal))
        assert residual <= 1e-6
        assert res.gap <= 1e-6
        res.quantizers.validate(sc)
        assert res.objective > 0.0


def sum_rate(sc, q):
    return float(GaussianEvaluator.from_quantizers(sc, q).subset_bounds().min())


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
    def test_bound_is_never_below_a_feasible_sum_rate(self):
        # any weights give a valid bound, at any quantizers: it must exceed
        # the sum-rate of random quantizers and of the optimizer's result
        rng = np.random.default_rng(71)
        for _ in range(40):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                          max_antennas=3)
            q = random_quantizers(rng, sc)
            lam = rng.dirichlet(np.ones(1 << sc.num_relays))
            bound = gaussian_upper_bound(sc, q, lam)
            optimum = optimize_gaussian_quantizers(sc, OptimizerConfig())
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
            assert gaussian_upper_bound(sc, q, lam) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("snr,cap", [(0.5, 0.25), (1.0, 1.0), (4.0, 0.5), (4.0, 4.0)])
    def test_bound_at_the_scalar_optimum_is_the_golden_rate(self, snr, cap):
        w = (2.0**cap - 1.0) / (2.0**cap + snr)
        mu = (1.0 + snr * w) / (1.0 + snr)  # weight of S = {} that zeroes G
        q = QuantizerSetGaussian(B=([[w]],))
        bound = gaussian_upper_bound(scalar_scenario(snr, cap), q, [mu, 1.0 - mu])
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
            bound = gaussian_upper_bound(sc, QuantizerSetGaussian(B=(b_opt,)), [mu, 1.0 - mu])
            assert bound == pytest.approx(rate, abs=1e-9)
            res = optimize_gaussian_quantizers(sc, OptimizerConfig())
            assert res.objective == pytest.approx(rate, abs=1e-9)
            assert res.gap <= 1e-6

    def test_rejects_unusable_weights(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.5]],))
        for lam in ([0.5, 0.6], [1.5, -0.5], [1.0], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="lam"):
                gaussian_upper_bound(sc, q, lam)


class TestSolverGate:
    def test_bench_instances_are_certified_above_their_references(self):
        instances, references = load_bench_instances()
        for seed in range(1, 11):
            for i in range(4):
                doc = instances.optimize_instance(instances.instance_rng(seed, 4, i)).scenario
                res = optimize_gaussian_quantizers(scenario_from_dict(doc), OptimizerConfig())
                assert res.gap <= 1e-6
                assert res.objective >= references["gaussian-opt"][str(seed)][f"opt-{i}.optimize"]

    def test_random_mimo_is_certified(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3)
            res = optimize_gaussian_quantizers(sc, OptimizerConfig())
            assert res.gap <= 1e-6
            assert res.objective == pytest.approx(sum_rate(sc, res.quantizers), abs=1e-9)
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == res.objective

    def test_zero_fronthaul_is_exactly_zero(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3, fronthaul_range=(0.0, 0.0))
            res = optimize_gaussian_quantizers(sc, OptimizerConfig())
            assert res.objective == 0.0
            assert res.gap <= 1e-6
            for b in res.quantizers.B:
                assert np.max(np.abs(b)) <= 1e-6

    def test_uncertified_solve_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "GAP_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="not certified"):
            optimize_gaussian_quantizers(scalar_scenario(), OptimizerConfig())


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
    return optimize_gaussian_quantizers(sc, OptimizerConfig(objective="weighted", weights=weights))


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
                        value=lambda x, u=users, s=s_mask: float(obj.branch_values(x, u)[s]),
                        gradient=lambda x, u=users, s=s_mask: obj._branch_gradient(x, s, u))
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
            bound = optimize._FrankWolfeBound(_GaussianObjective(sc), random_quantizers(rng, sc), t_sets)
            start = optimize._covering(np.ones(cover.shape[0]), cover, w)
            assert bound.least(start, res.objective, cover, w) >= res.objective - 1e-9

    def test_single_user_weighted_rate_is_the_sum_rate(self):
        rng = np.random.default_rng(83)
        for _ in range(2):
            sc = random_gaussian_scenario(rng, 1, int(rng.integers(1, 4)), max_antennas=3)
            total = optimize_gaussian_quantizers(sc, OptimizerConfig())
            assert weighted(sc, (1.0,)).objective == pytest.approx(total.objective, abs=1e-6)

    def test_unit_weights_never_beat_the_sum_rate(self):
        rng = np.random.default_rng(84)
        for _ in range(2):
            sc = random_gaussian_scenario(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            total = optimize_gaussian_quantizers(sc, OptimizerConfig())
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
            expected = sum(w * obj._branch_gradient(x, s)
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
                got = obj._branch_gradient(p, s_mask)
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
                    np.testing.assert_array_equal(row, obj._branch_gradient(p, int(s)))

    def test_at_projects_once_and_keeps_the_packed_projection(self, monkeypatch):
        rng = np.random.default_rng(14)
        sc = random_gaussian_scenario(rng, 2, 3)
        obj = _GaussianObjective(sc)
        raw = rng.normal(size=sum(d * d for d in sc.relay_antennas))
        calls = []
        original = la.clip_eigenvalues

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(la, "clip_eigenvalues", counting)
        p = obj.at(raw)
        assert len(calls) == len(set(sc.relay_antennas))  # one per antenna-count group
        np.testing.assert_array_equal(p.x, _pack_hermitian(obj.terms.unstack(p.ws)))
        assert obj.at(p) is p


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
        res = optimize_discrete_aux(sc, (2,), OptimizerConfig(restarts=2, seed=1))
        assert res.objective == pytest.approx(target, abs=1e-3)

    def test_zero_fronthaul(self):
        sc = self._bsc_scenario(0.0)
        res = optimize_discrete_aux(
            sc, (2,), OptimizerConfig(restarts=2, max_iters=10, seed=2)
        )
        assert res.objective == 0.0

    def test_beats_handcrafted_candidate(self):
        sc = self._bsc_scenario(0.6)
        noisy_copy = np.array([[[0.9, 0.1], [0.1, 0.9]]])
        candidate = jd_sum_rate(sc, AuxChannels(tables=(noisy_copy,)))
        res = optimize_discrete_aux(sc, (2,), OptimizerConfig(restarts=3, seed=3))
        assert res.objective >= candidate - 1e-9

    def test_non_convergence_is_flagged_not_raised(self):
        # only the discrete search caps its sweeps
        rng = np.random.default_rng(44)
        from ocran.verify import random_correlated_scenario

        sc = random_correlated_scenario(rng, 1, 2)
        res = optimize_discrete_aux(sc, (3, 3), OptimizerConfig(restarts=1, max_iters=1, seed=1))
        assert not res.converged
        for table in res.aux.tables:
            np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)

    def test_data_processing_ceiling(self):
        rng = np.random.default_rng(4)
        from ocran.verify import random_correlated_scenario

        for _ in range(5):
            sc = random_correlated_scenario(rng, 1, 2)
            res = optimize_discrete_aux(
                sc, (2, 2), OptimizerConfig(restarts=2, max_iters=8, seed=5)
            )
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
        assert est.std_error < 0.01

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
        with pytest.raises(ValueError, match="boundary"):
            mc_mutual_information(sc, q, SubsetPair(users=(1,), relays=()), 100, 0)

    def test_seed_determinism(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[0.4]],))
        pair = SubsetPair(users=(1,), relays=())
        a = mc_mutual_information(sc, q, pair, samples=10_000, seed=9)
        b = mc_mutual_information(sc, q, pair, samples=10_000, seed=9)
        assert a == b

    @staticmethod
    def unwhitened(sc, q, pair, samples, seed, batch):
        """The estimator in the observation's own coordinates: both quadratic
        forms through the inverse covariances, real and imaginary parts
        drawn by separate calls."""
        relays_c = pair.relays_complement(sc.num_relays)
        lam_cond = la.block_diag([la.hermitian_part(np.linalg.inv(q.B[k - 1])) for k in relays_c])
        h_t = np.vstack([sc.channel_to_users(k, pair.users) for k in relays_c])
        k_t_root = la.psd_sqrt(sc.input_covariance(pair.users))
        lam_marg = la.hermitian_part(h_t @ k_t_root @ k_t_root @ h_t.conj().T + lam_cond)
        gap = (la.logdet2(lam_marg) - la.logdet2(lam_cond)) * math.log(2.0)
        cond_inv, marg_inv = np.linalg.inv(lam_cond), np.linalg.inv(lam_marg)
        cond_root = la.psd_sqrt(lam_cond)
        rng = np.random.default_rng(seed)

        def circular(root, n):
            re = rng.standard_normal((n, root.shape[0]))
            im = rng.standard_normal((n, root.shape[0]))
            return (re + 1j * im) / math.sqrt(2.0) @ root.T

        def quad(v, m):
            return np.real(np.einsum("ni,ij,nj->n", v.conj(), m, v))

        vals = []
        for start in range(0, samples, batch):
            n = min(batch, samples - start)
            x = circular(k_t_root, n)
            noise = circular(cond_root, n)
            u = x @ h_t.T + noise
            vals.append((gap - quad(noise, cond_inv) + quad(u, marg_inv)) / math.log(2.0))
        vals = np.concatenate(vals)
        return vals.mean(), vals.std() / math.sqrt(samples)

    def test_whitened_matches_unwhitened_estimator(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(6):
            sc = random_gaussian_scenario(rng, 2, 2)
            q = random_quantizers(rng, sc)
            for users, relays in (((1, 2), ()), ((1,), (2,)), ((2,), (1,))):
                pair = SubsetPair(users=users, relays=relays)
                est = mc_mutual_information(sc, q, pair, samples=25_000, seed=trial, batch=7_000)
                mean, std_error = self.unwhitened(sc, q, pair, 25_000, trial, 7_000)
                assert est.estimate == pytest.approx(mean, abs=1e-12, rel=0)
                assert est.std_error == pytest.approx(std_error, abs=1e-12, rel=0)
                checked += 1
        assert checked == 18
