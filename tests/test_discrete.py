import itertools
import math

import numpy as np
import pytest

from ocran.core import ScenarioError, SubsetPair, enumerate_constraint_pairs
from ocran.discrete import (
    NEGATIVE_INFO_TOL,
    AuxChannels,
    DiscreteEvaluator,
    DiscreteScenario,
    JointPmf,
    _nonnegative,
    build_joint,
    check_conditional_independence,
    cmi,
    region_discrete,
)
from ocran.verify import random_aux, random_correlated_scenario, random_factorizing_scenario

from helpers import identity_aux, traced_peak_mb, wyner_ziv_rate


def shared_noise_scenario(flip=0.5):
    """Y1 = Y2 = X xor Z with Z ~ Bernoulli(flip): outputs share their noise."""
    ch = np.zeros((2, 2, 2))
    for x in range(2):
        ch[x, x ^ 0, x ^ 0] += 1.0 - flip
        ch[x, x ^ 1, x ^ 1] += flip
    return DiscreteScenario(
        num_users=1,
        num_relays=2,
        fronthaul=(1.0, 1.0),
        time_share=(1.0,),
        px=(np.array([[0.5, 0.5]]),),
        channel=ch,
    )


def noiseless_single():
    ch = np.eye(2)
    return DiscreteScenario(
        num_users=1,
        num_relays=1,
        fronthaul=(1.0,),
        time_share=(1.0,),
        px=(np.array([[0.5, 0.5]]),),
        channel=ch,
    )


def constant_aux(sc):
    return AuxChannels(
        tables=tuple(np.ones((sc.num_timeshare, y, 1)) for y in sc.output_sizes)
    )


class TestConditionalIndependence:
    def test_product_channel(self):
        rng = np.random.default_rng(0)
        sc = random_factorizing_scenario(rng, 2, 2)
        assert check_conditional_independence(sc)

    def test_shared_noise_fails(self):
        assert not check_conditional_independence(shared_noise_scenario())

    def test_deterministic_copies_factorize(self):
        ch = np.zeros((2, 2, 2))
        ch[0, 0, 0] = 1.0
        ch[1, 1, 1] = 1.0
        sc = DiscreteScenario(
            num_users=1,
            num_relays=2,
            fronthaul=(1.0, 1.0),
            time_share=(1.0,),
            px=(np.array([[0.5, 0.5]]),),
            channel=ch,
        )
        assert check_conditional_independence(sc)


class TestBuildJoint:
    def test_binary_single_pair_shape_and_mass(self):
        sc = noiseless_single()
        aux = random_aux(np.random.default_rng(1), sc, (3,))
        j = build_joint(sc, aux)
        assert j.axes == ("Q", "X1", "Y1", "U1")
        assert j.tensor.shape == (1, 2, 2, 3)
        assert j.tensor.sum() == pytest.approx(1.0, abs=1e-14)

    def test_copy_aux_matches_output_marginal(self):
        rng = np.random.default_rng(3)
        sc = random_correlated_scenario(rng, 2, 2)
        j = build_joint(sc, identity_aux(sc))
        np.testing.assert_allclose(
            j.marginal({"U1", "U2"}), j.marginal({"Y1", "Y2"}), atol=1e-14
        )

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        sc = random_correlated_scenario(rng, 2, 2, num_timeshare=2)
        aux = random_aux(rng, sc, (2, 2))
        j = build_joint(sc, aux)
        oracle = np.zeros_like(j.tensor)
        for q, x1, x2, y1, y2, u1, u2 in itertools.product(
            range(2), range(2), range(2), range(2), range(2), range(2), range(2)
        ):
            oracle[q, x1, x2, y1, y2, u1, u2] = (
                sc.time_share[q]
                * sc.px[0][q, x1]
                * sc.px[1][q, x2]
                * sc.channel[x1, x2, y1, y2]
                * aux.tables[0][q, y1, u1]
                * aux.tables[1][q, y2, u2]
            )
        np.testing.assert_allclose(j.tensor, oracle, atol=1e-14)


class TestCmi:
    def test_independent_axes(self):
        t = np.outer([0.3, 0.7], [0.6, 0.4]).reshape(2, 2)
        j = JointPmf(t, ("X1", "Y1"))
        assert cmi(j, {"X1"}, {"Y1"}) == 0.0

    def test_identity_channel_one_bit(self):
        j = build_joint(noiseless_single(), identity_aux(noiseless_single()))
        assert cmi(j, {"X1"}, {"Y1"}) == pytest.approx(1.0, abs=1e-12)

    def test_binary_symmetric_value(self):
        eps = 0.11
        ch = np.array([[1 - eps, eps], [eps, 1 - eps]])
        sc = DiscreteScenario(
            num_users=1,
            num_relays=1,
            fronthaul=(1.0,),
            time_share=(1.0,),
            px=(np.array([[0.5, 0.5]]),),
            channel=ch,
        )
        j = build_joint(sc, identity_aux(sc))
        expected = 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
        assert cmi(j, {"X1"}, {"Y1"}) == pytest.approx(expected, abs=1e-3)

    def test_axis_overlap_rejected(self):
        j = build_joint(noiseless_single(), identity_aux(noiseless_single()))
        with pytest.raises(ValueError):
            cmi(j, {"X1"}, {"X1", "Y1"})

    def test_empty_side_is_zero(self):
        j = build_joint(noiseless_single(), identity_aux(noiseless_single()))
        assert cmi(j, set(), {"Y1"}) == 0.0

    @pytest.mark.parametrize("term", ["cmi", "wyner_ziv"])
    @pytest.mark.parametrize("shift", [5e-10, 2e-9])
    def test_negative_value_raises_beyond_rounding(self, term, shift):
        # both terms are 0 here; lowering one cached entropy by `shift`
        # makes them read -shift: dust reads 0, more raises
        if term == "cmi":
            j = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]), ("X1", "Y1"))
            key, value = {"X1"}, lambda: cmi(j, {"X1"}, {"Y1"})
            j._entropy_cache[frozenset(key)] = j.entropy(key) - shift
        else:
            # I(U_1; Y_1 | Q) = H(U_1, Q) - H(Q) - H(U_1 | Y_1, Q)
            sc = noiseless_single()
            ev = DiscreteEvaluator.from_aux(sc, constant_aux(sc))
            h = ev.u_entropies() - np.array([0.0, shift])  # H(Q), H(U_1, Q) - shift
            ev.u_entropies = lambda kept=0: h
            value = lambda: wyner_ziv_rate(ev, 1, ())
        if shift <= NEGATIVE_INFO_TOL:
            assert value() == 0.0
        else:
            with pytest.raises(ArithmeticError, match="negative beyond rounding"):
                value()

    def test_nan_raises(self):
        # max(0.0, nan) is 0.0, so only a test that a NaN fails keeps it out
        with pytest.raises(ArithmeticError, match="NaN or negative beyond rounding"):
            _nonnegative(float("nan"), "conditional mutual information")
        assert _nonnegative(-NEGATIVE_INFO_TOL, "dust") == 0.0

    def test_chain_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            sc = random_correlated_scenario(rng, 2, 2)
            j = build_joint(sc, random_aux(rng, sc, (2, 2)))
            lhs = cmi(j, {"X1"}, {"Y1", "Y2"}, {"X2"})
            rhs = cmi(j, {"X1"}, {"Y1"}, {"X2"}) + cmi(j, {"X1"}, {"Y2"}, {"X2", "Y1"})
            assert lhs == pytest.approx(rhs, abs=1e-10)


def dict_cmi(joint, a_axes, b_axes, c_axes):
    """Independent conditional-MI oracle: plain dictionaries over outcome
    tuples and the direct sum p(a,b,c) log2 [p(a,b,c) p(c) / (p(a,c) p(b,c))],
    sharing no code with the tensor implementation."""
    def key(tup, axes):
        return tuple(tup[joint.axes.index(ax)] for ax in sorted(axes))

    p_abc, p_ac, p_bc, p_c = {}, {}, {}, {}
    for idx in np.ndindex(joint.tensor.shape):
        mass = joint.tensor[idx]
        if mass == 0.0:
            continue
        for store, axes in (
            (p_abc, a_axes | b_axes | c_axes),
            (p_ac, a_axes | c_axes),
            (p_bc, b_axes | c_axes),
            (p_c, c_axes),
        ):
            k = key(idx, axes)
            store[k] = store.get(k, 0.0) + mass
    total = 0.0
    for k_abc in p_abc:
        # reconstruct the component keys from the joint cell key
        axes_sorted = sorted(a_axes | b_axes | c_axes)
        as_map = dict(zip(axes_sorted, k_abc))
        ka = tuple(as_map[ax] for ax in sorted(a_axes | c_axes))
        kb = tuple(as_map[ax] for ax in sorted(b_axes | c_axes))
        kc = tuple(as_map[ax] for ax in sorted(c_axes))
        num = p_abc[k_abc] * (p_c[kc] if c_axes else 1.0)
        den = p_ac[ka] * p_bc[kb]
        total += p_abc[k_abc] * math.log2(num / den)
    return total


class TestDictOracle:
    def test_cmi_against_dictionary_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            sc = random_correlated_scenario(rng, 2, 2, num_timeshare=2)
            aux = random_aux(rng, sc, (2, 2))
            j = build_joint(sc, aux)
            cases = [
                ({"X1"}, {"U1", "U2"}, {"X2", "Q"}),
                ({"Y1", "Y2"}, {"U1", "U2"}, {"X1", "X2", "Q"}),
                ({"X1", "X2"}, {"U2"}, {"Q"}),
                ({"U1"}, {"Y1"}, set()),
            ]
            for a, b, c in cases:
                assert cmi(j, a, b, c) == pytest.approx(
                    max(0.0, dict_cmi(j, a, b, c)), abs=1e-11
                )

    def test_general_constraint_against_dictionary_oracle(self):
        rng = np.random.default_rng(34)
        sc = random_correlated_scenario(rng, 2, 2)
        aux = random_aux(rng, sc, (2, 2))
        j = build_joint(sc, aux)
        for pair in enumerate_constraint_pairs(2, 2):
            x_all = {"X1", "X2"}
            x_t = {f"X{l}" for l in pair.users}
            x_tc = x_all - x_t
            u_s = {f"U{k}" for k in pair.relays}
            y_s = {f"Y{k}" for k in pair.relays}
            u_sc = {f"U{k}" for k in (1, 2) if k not in pair.relays}
            expected = sum(sc.fronthaul[k - 1] for k in pair.relays)
            if u_s:
                expected -= dict_cmi(j, y_s, u_s, x_all | u_sc | {"Q"})
            if u_sc:
                expected += dict_cmi(j, x_t, u_sc, x_tc | {"Q"})
            bound = DiscreteEvaluator.from_aux(sc, aux).bound(pair, "thm3")
            assert bound == pytest.approx(expected, abs=1e-10)


class TestConstraints:
    def test_constant_aux_gives_zero_without_relays(self):
        sc = shared_noise_scenario()
        aux = constant_aux(sc)
        pair = SubsetPair(users=(1,), relays=())
        ev = DiscreteEvaluator.from_aux(sc, aux)
        assert ev.bound(pair, "thm1") == 0.0
        assert ev.bound(pair, "thm3") == 0.0

    def test_noiseless_identity(self):
        sc = noiseless_single()
        aux = identity_aux(sc)
        ev = DiscreteEvaluator.from_aux(sc, aux)
        charged = ev.bound(SubsetPair(users=(1,), relays=(1,)), "thm1")
        free = ev.bound(SubsetPair(users=(1,), relays=()), "thm1")
        assert charged == pytest.approx(1.0, abs=1e-12)
        assert free == pytest.approx(1.0, abs=1e-12)

    def test_families_agree_on_factorizing_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sc = random_factorizing_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (3, 2))
            r1 = region_discrete(sc, aux, "thm1")
            r3 = region_discrete(sc, aux, "thm3")
            for b1, b3 in zip(r1.bounds.ravel(), r3.bounds.ravel()):
                assert b1 == pytest.approx(b3, abs=1e-9)

    def test_exact_formula_conservative_on_shared_noise(self):
        # when the outputs share noise, the per-relay description charges of
        # the exact-class formula double count: its bound drops strictly below
        # the general inner bound
        sc = shared_noise_scenario()
        aux = identity_aux(sc)
        pair = SubsetPair(users=(1,), relays=(1, 2))
        ev = DiscreteEvaluator.from_aux(sc, aux)
        v1 = ev.bound(pair, "thm1")
        v3 = ev.bound(pair, "thm3")
        assert v1 == pytest.approx(0.0, abs=1e-12)
        assert v3 == pytest.approx(1.0, abs=1e-12)
        assert v1 < v3 - 0.5

    def test_exact_formula_never_exceeds_general_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            sc = random_correlated_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (2, 2))
            ev = DiscreteEvaluator.from_aux(sc, aux)
            for pair in enumerate_constraint_pairs(2, 2):
                v1 = ev.bound(pair, "thm1")
                v3 = ev.bound(pair, "thm3")
                assert v1 <= v3 + 1e-12

    def test_warning_on_non_factorizing(self):
        sc = shared_noise_scenario()
        aux = identity_aux(sc)
        with pytest.warns(RuntimeWarning, match="conditionally independent"):
            region_discrete(sc, aux, "thm1")

    def test_s_empty_is_recovered_information(self):
        rng = np.random.default_rng(13)
        sc = random_correlated_scenario(rng, 2, 2)
        aux = random_aux(rng, sc, (2, 2))
        j = build_joint(sc, aux)
        pair = SubsetPair(users=(1,), relays=())
        expected = cmi(j, {"X1"}, {"U1", "U2"}, {"X2", "Q"})
        bound = DiscreteEvaluator.from_aux(sc, aux).bound(pair, "thm3")
        assert bound == pytest.approx(expected, abs=1e-12)

    def test_constant_aux_region_is_origin(self):
        sc = shared_noise_scenario()
        region = region_discrete(sc, constant_aux(sc), "thm3")
        assert region.contains([0.0])
        assert not region.contains([1e-3])

    def test_garbling_never_helps(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            sc = random_correlated_scenario(rng, 2, 2)
            aux = random_aux(rng, sc, (3, 3))
            garble = rng.dirichlet(np.ones(3), size=3)  # stochastic map on U_1
            garbled = AuxChannels(
                tables=(np.einsum("qyu,uv->qyv", aux.tables[0], garble), aux.tables[1])
            )
            j = build_joint(sc, aux)
            jg = build_joint(sc, garbled)
            for pair in enumerate_constraint_pairs(2, 2):
                if 1 in pair.relays:
                    continue  # relay 1 must sit in S^c for the comparison
                x_t = {f"X{l}" for l in pair.users}
                x_tc = {f"X{l}" for l in (1, 2) if l not in pair.users}
                u_sc = {f"U{k}" for k in (1, 2) if k not in pair.relays}
                before = cmi(j, x_t, u_sc, x_tc | {"Q"})
                after = cmi(jg, x_t, u_sc, x_tc | {"Q"})
                assert after <= before + 1e-12


class TestScenarioGuards:
    def test_joint_size_guard(self):
        from ocran.core import CapacityError

        rng = np.random.default_rng(30)
        sc = random_correlated_scenario(rng, 1, 2)
        big = AuxChannels(
            tables=tuple(rng.dirichlet(np.ones(1200), size=(1, 2)) for _ in range(2))
        )
        with pytest.raises(CapacityError):
            build_joint(sc, big)

    def test_dense_size_guard_refuses_before_copying_the_channel(self):
        # 2 * 10^7 entries: a copy of the read-only broadcast would be 160 MB
        from ocran.core import CapacityError

        def build():
            with pytest.raises(CapacityError, match="exceeds the dense-size guard"):
                DiscreteScenario(num_users=1, num_relays=7, fronthaul=(1.0,) * 7,
                                 time_share=(1.0,), px=(np.array([[0.5, 0.5]]),),
                                 channel=np.broadcast_to(1e-7, (2,) + (10,) * 7))

        assert traced_peak_mb(build) < 1.0

    def test_unnormalized_channel_rejected(self):
        ch = np.array([[0.9, 0.2], [0.1, 0.9]])
        with pytest.raises(Exception, match="pmf"):
            DiscreteScenario(
                num_users=1,
                num_relays=1,
                fronthaul=(1.0,),
                time_share=(1.0,),
                px=(np.array([[0.5, 0.5]]),),
                channel=ch,
            )

    def test_aux_compatibility(self):
        sc = noiseless_single()
        aux = AuxChannels(tables=(np.ones((1, 3, 1)),))
        with pytest.raises(ScenarioError, match="does not match the scenario alphabets"):
            aux.check_compatible(sc)
        with pytest.raises(ScenarioError, match="one aux channel per relay"):
            AuxChannels(tables=()).check_compatible(sc)

    def test_aux_shape_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match=r"aux\[1\] must have shape"):
            AuxChannels(tables=(np.ones((2, 2)),))
