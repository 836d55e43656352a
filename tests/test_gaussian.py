import json
import math
import re

import numpy as np
import pytest

from ocran import _linalg as la
from ocran.cli import main
from ocran.core import (
    ScenarioError,
    SubsetPair,
    enumerate_constraint_pairs,
    indices_of,
    load_scenario,
    mask_of,
    quantizers_to_dict,
)
from ocran.gaussian import (
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    fronthaul_bits,
    fronthaul_mi,
    matrix_lemma_check,
    matrix_lemma_holds,
    rate_constraint_gaussian,
    region_gaussian,
    weighted_means,
)
from ocran.verify import random_gaussian_scenario, random_pd, random_quantizers

from helpers import (b_from_test_channel, drop_relay, save_scenario, weighted_arithmetic_mean,
                     weighted_harmonic_mean, whitened_parts, wyner_ziv_rate)


def scalar_scenario(snr=1.0, fronthaul=1.0, num_relays=1, gain=1.0):
    return GaussianScenario(
        num_users=1,
        num_relays=num_relays,
        fronthaul=(fronthaul,) * num_relays,
        time_share=(1.0,),
        H=tuple(([[gain]],) for _ in range(num_relays)),
        Sigma=tuple([[1.0]] for _ in range(num_relays)),
        Kin=([[snr]],),
        power=(snr,),
    )


class TestFronthaulMi:
    def test_zero_quantizer(self):
        assert fronthaul_mi([[1.0]], [[0.0]]) == 0.0

    def test_scalar_half(self):
        assert fronthaul_mi([[1.0]], [[0.5]]) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_product(self):
        val = fronthaul_mi(np.eye(2), np.diag([0.5, 0.75]))
        assert val == pytest.approx(3.0, abs=1e-12)

    def test_boundary_returns_inf(self):
        assert math.isinf(fronthaul_mi([[1.0]], [[1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ScenarioError, match="B is not Hermitian"):
            fronthaul_mi(np.eye(2), np.array([[0.1, 0.2], [0.0, 0.1]]))

    def test_rejects_a_sigma_that_is_not_positive_definite(self):
        with pytest.raises(ScenarioError, match="Sigma is not positive definite"):
            fronthaul_mi(np.diag([1.0, 0.0]), np.eye(2) / 2)

    def test_rejects_negative_quantizer(self):
        with pytest.raises(ScenarioError, match=r"B violates 0 <= B <= Sigma\^-1"):
            fronthaul_mi([[1.0]], [[-0.5]])

    def test_rejects_a_quantizer_above_the_inverse_noise(self):
        with pytest.raises(ScenarioError, match=r"B violates 0 <= B <= Sigma\^-1"):
            fronthaul_mi([[1.0]], [[2.0]])
        # normalized eigenvalues 0.5 and 3, in a basis that is not Sigma's
        sigma = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        rot = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        inv_root = la.psd_inv_sqrt(sigma)
        b = la.hermitian_part(inv_root @ (rot * [0.5, 3.0]) @ rot.conj().T @ inv_root)
        with pytest.raises(ScenarioError, match=r"in \[5\.000e-01, 3\.000e\+00\]"):
            fronthaul_mi(sigma, b)

    def test_rate_from_eigenvalues_is_never_negative_zero(self):
        assert math.copysign(1.0, fronthaul_bits(np.zeros(2))) == 1.0
        assert fronthaul_bits(np.array([0.5, 0.75])) == fronthaul_mi(np.eye(2), np.diag([0.5, 0.75]))

    def test_test_channel_consistency(self):
        # for B = (Sigma+Q)^{-1} the description rate must equal
        # log2 det(Sigma+Q) - log2 det(Q), an algebraic identity
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            sigma = random_pd(rng, dim)
            qn = random_pd(rng, dim)
            b, _ = b_from_test_channel(sigma, qn)
            expected = (
                np.log2(np.linalg.det(sigma + qn).real)
                - np.log2(np.linalg.det(qn).real)
            )
            assert fronthaul_mi(sigma, b) == pytest.approx(expected, abs=1e-10)


class TestTestChannel:
    def test_scalar(self):
        b, mmse = b_from_test_channel([[1.0]], [[1.0]])
        assert b[0, 0].real == pytest.approx(0.5)
        assert mmse[0, 0].real == pytest.approx(0.5)

    def test_infinite_noise_limit(self):
        b, mmse = b_from_test_channel([[1.0]], [[1e9]])
        assert b[0, 0].real == pytest.approx(1e-9, rel=1e-6)
        assert mmse[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_matrix_identity_against_inversion(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        qn = np.eye(2)
        b, mmse = b_from_test_channel(sigma, qn)
        np.testing.assert_allclose(b, np.linalg.inv(sigma + qn), atol=1e-12)
        np.testing.assert_allclose(mmse, sigma - sigma @ b @ sigma, atol=1e-12)

    def test_hermitian_closure(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sigma = random_pd(rng, 3)
            qn = random_pd(rng, 3)
            b, mmse = b_from_test_channel(sigma, qn)
            assert np.max(np.abs(b - b.conj().T)) <= 1e-12
            assert np.max(np.abs(mmse - mmse.conj().T)) <= 1e-12

    def test_singular_total_rejected(self):
        with pytest.raises(ValueError):
            b_from_test_channel([[1.0]], [[0.0]])


class TestRateConstraint:
    def test_scalar_no_relays_charged(self):
        sc = scalar_scenario(fronthaul=2.0)
        q = QuantizerSetGaussian(B=([[0.5]],))
        pair = SubsetPair(users=(1,), relays=())
        assert rate_constraint_gaussian(sc, q, pair) == pytest.approx(
            math.log2(1.5), abs=1e-12
        )

    def test_scalar_relay_charged(self):
        sc = scalar_scenario(fronthaul=2.0)
        q = QuantizerSetGaussian(B=([[0.5]],))
        pair = SubsetPair(users=(1,), relays=(1,))
        assert rate_constraint_gaussian(sc, q, pair) == pytest.approx(1.0, abs=1e-12)

    def test_two_relays_mixed(self):
        sc = scalar_scenario(num_relays=2)
        q = QuantizerSetGaussian(B=([[0.5]], [[0.5]]))
        pair = SubsetPair(users=(1,), relays=(1,))
        assert rate_constraint_gaussian(sc, q, pair) == pytest.approx(
            math.log2(1.5), abs=1e-12
        )

    def test_two_relays_against_covariance_oracle(self):
        # independent oracle: the recovered-information term is the log-det
        # ratio of the test-channel output covariance with and without the
        # user's input, built from first principles
        snr, q_noise = 1.0, 1.0  # B = 1/(sigma^2 + q) = 0.5
        cov_u_given_x = 1.0 + q_noise
        cov_u = snr + cov_u_given_x
        term = math.log2(cov_u / cov_u_given_x)
        mi = math.log2((1.0 + q_noise) / q_noise)
        expected = (1.0 - mi) + term
        sc = scalar_scenario(num_relays=2)
        q = QuantizerSetGaussian(B=([[0.5]], [[0.5]]))
        val = rate_constraint_gaussian(sc, q, SubsetPair(users=(1,), relays=(1,)))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_boundary_quantizer_gives_minus_inf(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=([[1.0]],))
        val = rate_constraint_gaussian(sc, q, SubsetPair(users=(1,), relays=(1,)))
        assert val == -math.inf

    def test_dimension_mismatch(self):
        sc = scalar_scenario()
        q = QuantizerSetGaussian(B=(np.zeros((2, 2)),))
        with pytest.raises(ValueError):
            region_gaussian(sc, q)


class TestRegion:
    def test_zero_quantizers_collapse_region(self):
        sc = scalar_scenario(num_relays=2)
        q = QuantizerSetGaussian(B=([[0.0]], [[0.0]]))
        region = region_gaussian(sc, q)
        assert region.contains([0.0])
        assert not region.contains([1e-3])
        assert region.sum_rate_bound() == 0.0

    def test_zero_fronthaul_with_positive_quantizer_is_empty(self):
        sc = scalar_scenario(fronthaul=0.0)
        q = QuantizerSetGaussian(B=([[0.5]],))
        region = region_gaussian(sc, q)
        assert not region.contains([0.0])

    def test_golden_boundary_matches_bisection_oracle(self):
        # oracle: equalize the two scalar constraints by bisection over b
        snr, cap = 1.0, 1.0

        def gap(b):
            return math.log2(1 + snr * b) - (cap + math.log2(1 - b))

        lo, hi = 0.0, 1.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        b_star = 0.5 * (lo + hi)
        r_star = math.log2(1 + snr * b_star)
        assert b_star == pytest.approx((2**cap - 1) / (2**cap + snr), abs=1e-9)

        sc = scalar_scenario(snr=snr, fronthaul=cap)
        q = QuantizerSetGaussian(B=([[b_star]],))
        region = region_gaussian(sc, q)
        assert region.sum_rate_bound() == pytest.approx(r_star, abs=1e-9)
        assert region.contains([r_star - 1e-9])
        assert not region.contains([r_star + 1e-3])

    def test_monotone_in_fronthaul(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sc = random_gaussian_scenario(rng, 2, 2)
            q = random_quantizers(rng, sc)
            bigger = GaussianScenario(
                num_users=sc.num_users,
                num_relays=sc.num_relays,
                fronthaul=tuple(c * 2.0 for c in sc.fronthaul),
                time_share=sc.time_share,
                H=sc.H,
                Sigma=sc.Sigma,
                Kin=sc.Kin,
                power=sc.power,
            )
            before = region_gaussian(sc, q)
            after = region_gaussian(bigger, q)
            assert np.all(after.bounds >= before.bounds - 1e-12)

    def test_degenerate_relay_equals_dropped_relay(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sc = random_gaussian_scenario(rng, 2, 2)
            q_small = random_quantizers(rng, drop_relay(sc, 2))
            q = QuantizerSetGaussian(B=(q_small.B[0], np.zeros_like(sc.Sigma[1])))
            full = {(t, s): b for t, s, b in region_gaussian(sc, q).csv_rows()}
            dropped = {
                (t, s): b for t, s, b in region_gaussian(drop_relay(sc, 2), q_small).csv_rows()
            }
            for (t_mask, s_mask), bound in dropped.items():
                # relay 2 silent: charging it only adds its fronthaul capacity
                assert full[(t_mask, s_mask)] == pytest.approx(bound, abs=1e-10)
                assert full[(t_mask, s_mask | 0b10)] == pytest.approx(
                    bound + sc.fronthaul[1], abs=1e-10
                )

    def test_one_bound_for_every_caller(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        sc = random_gaussian_scenario(rng, 2, 3)
        q = random_quantizers(rng, sc)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        quant = tmp_path / "q.json"
        quant.write_text(json.dumps(quantizers_to_dict(q)))
        sc = load_scenario(path)
        region = region_gaussian(sc, q)
        for pair in enumerate_constraint_pairs(2, 3):
            assert rate_constraint_gaussian(sc, q, pair) == region.bounds[mask_of(pair.users) - 1,
                                                                         pair.s_mask]
        rows = region.bounds[0b11 - 1].tolist()
        assert list(GaussianEvaluator.from_quantizers(sc, q).subset_bounds()) == rows
        assert main(["sumrate", "--scenario", str(path), "--quantizers", str(quant)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["bound_bits"] for r in payload["subset_bounds"]] == rows
        assert payload["sum_rate_bits"] == region.sum_rate_bound()

    @staticmethod
    def per_relay_region(sc, q) -> list[float]:
        """Every (T, S) bound written relay by relay: hermitian_part(h^H B h)
        per relay, and A_{T,S} and the charge C_k - MI_k each summed in
        increasing k."""
        users = tuple(range(1, sc.num_users + 1))
        relays = range(1, sc.num_relays + 1)
        mi = [fronthaul_mi(s, b) for s, b in zip(sc.Sigma, q.B)]
        g = []
        for k in relays:
            h = sc.channel_to_users(k, users)
            g.append(la.hermitian_part(h.conj().T @ q.B[k - 1] @ h))
        offsets = np.cumsum((0,) + sc.user_antennas)
        bounds = []
        for t_mask in range(1, 1 << sc.num_users):
            t = indices_of(t_mask)
            idx = np.concatenate([np.arange(offsets[l - 1], offsets[l]) for l in t])
            k_root = la.psd_sqrt(sc.input_covariance(t))
            for s_mask in range(1 << sc.num_relays):
                charged = sum(sc.fronthaul[k - 1] - mi[k - 1] for k in indices_of(s_mask))
                info = 0.0
                outside = [k for k in relays if not s_mask >> (k - 1) & 1]
                if outside:
                    a = np.zeros((idx.size, idx.size), dtype=np.complex128)
                    for k in outside:
                        a = a + g[k - 1][np.ix_(idx, idx)]
                    info = la.logdet2(np.eye(idx.size) + k_root @ a @ k_root)
                bounds.append(charged + info)
        return bounds

    def test_relay_groups_reproduce_the_per_relay_bounds(self):
        rng = np.random.default_rng(25)
        groups = set()
        for i in range(30):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                                          max_antennas=3)
            b = list(random_quantizers(rng, sc).B)
            if i % 5 == 0:
                b[-1] = np.linalg.inv(sc.Sigma[-1])  # boundary quantizer: -inf bounds
            q = QuantizerSetGaussian(B=tuple(b))
            ev = GaussianEvaluator.from_quantizers(sc, q)
            groups.add(len(ev.terms.groups))
            expected = self.per_relay_region(sc, q)
            assert ev.region().bounds.ravel().tolist() == expected
            # T = all users is the last user set
            assert list(ev.subset_bounds()) == expected[-(1 << sc.num_relays):]
        assert groups == {1, 2, 3}

    def test_region_prepares_each_relay_once(self, monkeypatch):
        # one Sigma_k^{1/2} per relay, shared by the quantizer check and the
        # fronthaul rate, and one K_T^{1/2} per user set
        rng = np.random.default_rng(23)
        sc = random_gaussian_scenario(rng, 2, 3)
        q = random_quantizers(rng, sc)
        calls = []
        original = la.psd_sqrt

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(la, "psd_sqrt", counting)
        region_gaussian(sc, q)
        assert len(calls) == sc.num_relays + (1 << sc.num_users) - 1

    def test_quantizer_validation(self):
        sc = scalar_scenario()
        with pytest.raises(ValueError):
            QuantizerSetGaussian(B=([[1.5]],)).validate(sc)
        QuantizerSetGaussian(B=([[1.0]],)).validate(sc)  # boundary is feasible

    @pytest.mark.parametrize("mats, message", [
        (([[0.5]], [[0.5]]), "quantizer count"),
        ((np.eye(2) / 2,), "has shape"),
        (([[1.5]],), "violates 0 <= B <= Sigma"),
        (([[-0.5]],), "violates 0 <= B <= Sigma"),
    ])
    def test_unusable_quantizers_are_scenario_errors(self, mats, message):
        with pytest.raises(ScenarioError, match=message):
            QuantizerSetGaussian(B=mats).validate(scalar_scenario())

    def test_non_hermitian_quantizer_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match=r"B\[1\] is not Hermitian"):
            QuantizerSetGaussian(B=(np.array([[0.1, 0.2], [0.0, 0.1]]),))

    @pytest.mark.parametrize("field, name", [("Sigma", "Sigma[1]"), ("Kin", "Kin[1]")])
    def test_non_hermitian_scenario_matrix_is_a_scenario_error(self, field, name):
        skew = np.array([[1.0, 0.2], [0.0, 1.0]])
        fields = dict(num_users=1, num_relays=1, fronthaul=(1.0,), time_share=(1.0,),
                      H=((np.eye(2),),), Sigma=(np.eye(2),), Kin=(np.eye(2),), power=(2.0,))
        fields[field] = (skew,)
        with pytest.raises(ScenarioError, match=rf"{re.escape(name)} is not Hermitian"):
            GaussianScenario(**fields)

    def test_evaluator_checks_its_quantizers(self):
        rng = np.random.default_rng(3)
        sc = random_gaussian_scenario(rng, 2, 2)
        b = random_quantizers(rng, sc).B
        cases = [
            ((2 * np.linalg.inv(sc.Sigma[0]), b[1]), "violates 0 <= B <= Sigma"),
            (b + b[:1], "quantizer count must equal the number of relays"),
            (b[:1], "quantizer count must equal the number of relays"),
        ]
        for mats, message in cases:
            with pytest.raises(ValueError, match=message):
                GaussianEvaluator.from_quantizers(sc, QuantizerSetGaussian(B=mats))


class TestEntropyVectors:
    """The evaluator's B-normalized entropy vectors against the covariance
    form of the same differential entropies, relay k's shifted by
    -log2 det(pi e B_k^{-1}): Cov(U_m | X_{T^c}) = H_{m,T} K_T H_{m,T}^H
    + (+)_{k in m} B_k^{-1}, where B_k^{-1} = Sigma_k + Q_k, as the Monte
    Carlo oracle forms it (``whitened_parts``, whose log-det gap is
    log2 det Cov(U_m | X_{T^c}) - log2 det (+)_{k in m} B_k^{-1})."""

    @staticmethod
    def instances(count):
        rng = np.random.default_rng(41)
        for _ in range(count):
            sc = random_gaussian_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            q = random_quantizers(rng, sc)
            yield sc, q, GaussianEvaluator.from_quantizers(sc, q)

    @staticmethod
    def covariance_form(sc, q, users, relays) -> tuple[float, float]:
        """The shifted log2 det Cov(U_relays | X of the other users), and the
        size of the log-dets it subtracts, which scales its rounding."""
        if not relays:
            return 0.0, 0.0
        others = tuple(k for k in range(1, sc.num_relays + 1) if k not in relays)
        gap, _, _, shift = whitened_parts(sc, q, SubsetPair(users, others))
        return gap, abs(gap) + 2 * abs(la.logdet2(shift))

    def test_u_entropies_match_the_covariance_form(self):
        for sc, q, ev in self.instances(200):
            full = (1 << sc.num_users) - 1
            for kept in range(full):  # every kept but all users
                users = indices_of(full ^ kept)
                h = ev.u_entropies(kept)
                for m in range(1 << sc.num_relays):
                    expected, scale = self.covariance_form(sc, q, users, indices_of(m))
                    assert abs(h[m] - expected) <= 1e-12 * scale
            assert not ev.u_entropies(full).any()

    def test_wyner_ziv_rate_matches_the_covariance_form(self):
        # I(U_K; Y_K | U_1..U_{K-1}) = h(U_1..U_K) - h(U_1..U_{K-1}) - h(U_K | Y_K),
        # with h(U_K | Y_K) = log2 det(pi e Q_K) and Q_K = B_K^{-1} - Sigma_K
        for sc, q, ev in self.instances(200):
            relays = tuple(range(1, sc.num_relays + 1))
            users = tuple(range(1, sc.num_users + 1))
            (with_k, s1), (side, s2) = (self.covariance_form(sc, q, users, r)
                                        for r in (relays, relays[:-1]))
            b_inv = np.linalg.inv(q.B[-1])
            noise = la.logdet2(b_inv - sc.Sigma[-1]) - la.logdet2(b_inv)
            rate = wyner_ziv_rate(ev, relays[-1], relays[:-1])
            assert abs(rate - (with_k - side - noise)) <= 1e-12 * (s1 + s2 + abs(noise))


class TestMatrixLemmas:
    def test_equal_matrices(self):
        a = np.eye(2)
        assert matrix_lemma_check(a, a, np.eye(2))

    def test_scaled_identity(self):
        # |I + 2I| = 9 vs |I + I| = 4 in 2x2
        assert matrix_lemma_check(np.eye(2), 2 * np.eye(2), np.eye(2))

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            matrix_lemma_check(2 * np.eye(2), np.eye(2), np.eye(2))

    def test_random_rank_one_updates(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            a = random_pd(rng, dim)
            w = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
            b = a + w @ w.conj().T
            c = random_pd(rng, dim)
            assert matrix_lemma_check(a, b, c)

    def test_arithmetic_dominates_harmonic(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            count = int(rng.integers(2, 5))
            mats = [random_pd(rng, dim) for _ in range(count)]
            weights = rng.dirichlet(np.ones(count))
            diff = weighted_arithmetic_mean(mats, weights) - weighted_harmonic_mean(
                mats, weights
            )
            assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_mean_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_arithmetic_mean([np.eye(2)], [0.5])


class TestStackedMatrixLemmas:
    """The stacked kernels validate every matrix of a stack and agree with the
    per-matrix functions, which are the same kernels on a stack of one."""

    @staticmethod
    def triples(n=6, dim=3, seed=3):
        rng = np.random.default_rng(seed)
        a = np.stack([random_pd(rng, dim) for _ in range(n)])
        w = rng.normal(size=(n, dim, 1)) + 1j * rng.normal(size=(n, dim, 1))
        b = a + w @ w.conj().swapaxes(-1, -2)
        c = np.stack([random_pd(rng, dim) for _ in range(n)])
        return a, b, c

    @staticmethod
    def means_input(n=5, count=3, dim=2, seed=4):
        rng = np.random.default_rng(seed)
        mats = np.stack([np.stack([random_pd(rng, dim) for _ in range(count)]) for _ in range(n)])
        return mats, rng.dirichlet(np.ones(count), size=n)

    def test_lemma_matches_per_matrix_check(self):
        a, b, c = self.triples()
        held = matrix_lemma_holds(a, b, c)
        assert held.shape == (6,) and held.all()
        assert list(held) == [matrix_lemma_check(*t) for t in zip(a, b, c)]
        # swapping A and B breaks the precondition in every row
        with pytest.raises(ValueError, match="precondition"):
            matrix_lemma_holds(b, a, c)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_one_non_pd_matrix_in_a_stack_raises(self, which):
        mats = list(self.triples())
        bad = mats[which].copy()
        bad[4] = np.diag([1.0, 0.0, 2.0])  # PSD but singular
        mats[which] = bad
        with pytest.raises(ValueError, match="not positive definite.*stack index 4"):
            matrix_lemma_holds(*mats)

    def test_one_non_hermitian_matrix_in_a_stack_raises(self):
        a, b, c = self.triples()
        c[1, 0, 2] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            matrix_lemma_holds(a, b, c)

    def test_one_pair_breaking_b_ge_a_raises(self):
        a, b, c = self.triples()
        b[2] = 0.5 * a[2]  # positive definite, but below A
        with pytest.raises(ValueError, match="precondition B >= A"):
            matrix_lemma_holds(a, b, c)

    @staticmethod
    def with_smallest(lam, dim=3, seed=9):
        """A Hermitian matrix with the spectrum (lam, 1, 2, ...) in a random basis."""
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        return la.hermitian_part((u * np.arange(dim, dtype=float).clip(lam, None)) @ u.conj().T)

    @pytest.mark.parametrize("lam, passes", [(2e-12, True), (5e-13, False), (0.0, False)])
    def test_pd_is_decided_at_pd_tol(self, lam, passes):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), self.with_smallest(lam), np.eye(3)])
        if passes:
            la.require_pd(stack, stacked=True)
            return
        lo = la.min_eig(stack)
        message = f"S is not positive definite (min eigenvalue {np.min(lo):.3e} at stack index 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            la.require_pd(stack, name="S", stacked=True)

    def test_b_ge_a_is_decided_at_herm_tol(self):
        a, _, c = self.triples()
        v = np.linalg.eigh(a[3])[1][:, :1]
        b = a + v @ v.conj().T  # rank-one B - A
        assert matrix_lemma_holds(a, b, c).all()
        b[3] = a[3] - 2e-10 * (v @ v.conj().T)  # min eig(B - A) = -2e-10
        with pytest.raises(ValueError, match="^precondition B >= A violated$"):
            matrix_lemma_holds(a, b, c)

    def test_means_match_per_matrix_functions(self):
        mats, weights = self.means_input()
        arith, harm = weighted_means(mats, weights)
        for i, (row, w) in enumerate(zip(mats, weights)):
            np.testing.assert_array_equal(arith[i], weighted_arithmetic_mean(list(row), w))
            np.testing.assert_array_equal(harm[i], weighted_harmonic_mean(list(row), w))
            expected = np.linalg.inv(sum(wi * np.linalg.inv(m) for wi, m in zip(w, row)))
            np.testing.assert_allclose(harm[i], expected, atol=1e-12, rtol=0)
            assert la.min_eig(arith[i] - harm[i]) >= -1e-10

    def test_means_validate_every_matrix_and_weight_row(self):
        mats, weights = self.means_input()
        bad = mats.copy()
        bad[3, 1] = -bad[3, 1]
        with pytest.raises(ValueError, match="not positive definite"):
            weighted_means(bad, weights)
        for row in ([0.5, 0.5, 0.5], [1.5, -0.5, 0.0]):
            w = weights.copy()
            w[2] = row
            with pytest.raises(ValueError, match="weights"):
                weighted_means(mats, w)
        with pytest.raises(ValueError, match="weights"):
            weighted_means(mats, weights[:, :2])

    def test_single_matrix_boundaries_still_reject_stacks(self):
        stack = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="square matrix"):
            la.require_hermitian(stack)
        with pytest.raises(ValueError, match="square matrix"):
            la.require_pd(stack)
        with pytest.raises(ValueError, match="square matrix"):
            QuantizerSetGaussian(B=(stack,))
        with pytest.raises(ValueError, match="square matrix"):
            matrix_lemma_check(stack, stack, stack)

    def test_stacked_logdet_matches_per_matrix_and_raises_off_pd(self):
        rng = np.random.default_rng(5)
        m = np.stack([random_pd(rng, 3) for _ in range(3)])
        values = la.logdet2(m)
        assert [float(v) for v in values] == [la.logdet2(x) for x in m]
        for bad in (np.diag([1.0, 0.0, 4.0]), np.diag([1.0, -1e-3, 4.0])):
            with pytest.raises(np.linalg.LinAlgError):
                la.logdet2(bad)
            with pytest.raises(np.linalg.LinAlgError):
                la.logdet2(np.stack([m[0], bad, m[2]]))
