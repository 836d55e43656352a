"""Helpers shared by the tests: finite-difference checks of the Gaussian
sum-rate objective's branch gradients, the inverse of the packed Hermitian
parameterization, the additive test channel of a quantizer, a Gaussian
scenario less one relay, the scenario-file writer, the copy channels U = Y
of a discrete scenario (``identity_aux``), the sum-rate set function g and
its exhaustive supermodularity check, the scalar per-ordering reference of
the sum-rate layer (``ScalarOrderings``) and its Wyner-Ziv rate, the
weighted matrix means of one stack, one-shot references of the two Monte
Carlo samplers, a traced-memory probe and the faults and NaNs that the
failure-path tests of the ``verify`` suites inject."""

from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from ocran import _linalg as la
from ocran import optimize, sumrate, verify
from ocran.core import (CodebookEnsemble, Evaluator, RateRegion, ScenarioError, SubsetPair,
                        mask_of)
from ocran.discrete import AuxChannels, DiscreteEvaluator, DiscreteScenario, _nonnegative
from ocran.gaussian import GaussianScenario, QuantizerSetGaussian, weighted_means
from ocran.optimize import IMPROVE_TOL, _GaussianObjective, _layout, _pack_hermitian, _unpack_flat

TIE_TOL = 1e-6


def unpack_hermitian(x: np.ndarray, dims) -> list[np.ndarray]:
    """The Hermitian matrices of packed coordinates x, one per dimension."""
    lay = _layout(tuple(dims))
    flat = _unpack_flat(x, lay)
    return [flat[a:b].reshape(d, d) for (a, b), d in zip(lay.bounds, dims)]


def pack_gradient(mats) -> np.ndarray:
    """Gradient w.r.t. the packed coordinates of a Hermitian parameterization:
    diagonal entries map to Re G_ii, off-diagonal (re, im) pairs to
    (2 Re G_ij, 2 Im G_ij)."""
    return _pack_hermitian(mats) * _layout(tuple(g.shape[0] for g in mats)).scale


def tie_gap(obj: _GaussianObjective, x) -> float:
    """Gap between the two smallest subset branches at x."""
    vals = np.sort(obj.branch_values(obj.at(x)))
    return float(vals[1] - vals[0]) if vals.size > 1 else math.inf


def active_gradient(obj: _GaussianObjective, x) -> np.ndarray:
    """Gradient of the active branch (smallest-bitmask argmin) of the
    sum-rate objective with respect to the packed parameters.

    Valid where the eigenvalue cap of ``at`` is inactive, i.e. every W_k
    strictly inside 0 < W < I; near a subset tie the objective is kinked
    and the returned branch gradient is one-sided."""
    p = obj.at(x)
    vals = obj.branch_values(p)
    active = int(np.flatnonzero(vals <= vals.min() + IMPROVE_TOL)[0])
    return obj._branch_gradient(p, np.array([active]))[0]


@dataclass(frozen=True)
class ScalarField:
    """A scalar objective with an analytic gradient and an optional probe for
    the distance to the nearest min-over-subsets kink."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    tie_gap: Callable[[np.ndarray], float] | None = None


@dataclass(frozen=True)
class GradientCheck:
    max_rel_error: float
    inconclusive: bool
    tie_gap: float


def sum_rate_field(sc) -> ScalarField:
    """The Gaussian sum-rate objective as a differentiable scalar field over
    packed quantizer parameters."""
    obj = _GaussianObjective(sc)
    return ScalarField(
        value=lambda x: obj.value(obj.at(x)),
        gradient=lambda x: active_gradient(obj, x),
        tie_gap=lambda x: tie_gap(obj, x),
    )


def finite_diff_check(f: ScalarField, x, h: float = 1e-5) -> GradientCheck:
    """Compare f's analytic gradient at x against central finite differences
    with per-coordinate step h * max(1, |x_d|).

    If the field reports two subset branches within TIE_TOL of tying at x,
    the result is flagged inconclusive (the objective is kinked there and
    central differences straddle the kink)."""
    x = np.asarray(x, dtype=float)
    gap = f.tie_gap(x) if f.tie_gap is not None else math.inf
    if gap < TIE_TOL:
        return GradientCheck(max_rel_error=math.nan, inconclusive=True, tie_gap=gap)
    analytic = np.asarray(f.gradient(x), dtype=float)
    numeric = np.empty_like(analytic)
    for d in range(x.size):
        hd = h * max(1.0, abs(x[d]))
        up, dn = x.copy(), x.copy()
        up[d] += hd
        dn[d] -= hd
        numeric[d] = (f.value(up) - f.value(dn)) / (2.0 * hd)
    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    err = float(np.max(np.abs(analytic - numeric))) / scale
    return GradientCheck(max_rel_error=err, inconclusive=False, tie_gap=gap)


def b_from_test_channel(sigma, qn) -> tuple[np.ndarray, np.ndarray]:
    """Quantization matrix and residual error of the additive test channel
    U = Y + Z, Z ~ CN(0, Q): B = (Sigma + Q)^{-1}, mmse = Sigma - Sigma B Sigma."""
    sigma = la.require_pd(sigma, name="Sigma")
    qn = la.require_pd(qn, name="Q")
    total = sigma + qn
    try:
        b = np.linalg.inv(total)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Sigma + Q is singular") from exc
    b = la.hermitian_part(b)
    mmse = la.hermitian_part(sigma - sigma @ b @ sigma)
    return b, mmse


def drop_relay(sc: GaussianScenario, relay: int) -> GaussianScenario:
    """Scenario with one relay (and its fronthaul link) removed."""
    if sc.num_relays < 2:
        raise ScenarioError("cannot drop the only relay")
    keep = [k for k in range(1, sc.num_relays + 1) if k != relay]
    return replace(sc, num_relays=sc.num_relays - 1,
                   fronthaul=tuple(sc.fronthaul[k - 1] for k in keep),
                   H=tuple(sc.H[k - 1] for k in keep), Sigma=tuple(sc.Sigma[k - 1] for k in keep))


def _pairs(m) -> list:
    """A complex matrix as nested rows of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def scenario_to_dict(sc, aux=None) -> dict:
    """The scenario document of ``sc``, written from README's file schema
    and not from the reader's code; discrete tables ``aux`` ride along in
    the channel payload.  The wire order of a discrete channel is
    (Y_1..Y_K, X_1..X_L), row-major; ``sc.channel`` holds the X axes first."""
    if isinstance(sc, GaussianScenario):
        channel = {"kind": "gaussian", "H": [[_pairs(m) for m in row] for row in sc.H],
                   "Sigma": [_pairs(m) for m in sc.Sigma], "Kin": [_pairs(m) for m in sc.Kin],
                   "power": np.asarray(sc.power, dtype=float).tolist()}
    else:
        l, k = sc.num_users, sc.num_relays
        wire = np.transpose(sc.channel, [*range(l, l + k), *range(l)])
        channel = {"kind": "discrete",
                   "alphabets": {"X": list(sc.input_sizes), "Y": list(sc.output_sizes)},
                   "px": [np.asarray(t).tolist() for t in sc.px],
                   "channel": wire.ravel().tolist()}
    if aux is not None:
        channel["aux"] = [np.asarray(t).tolist() for t in aux.tables]
    return {"schema": 1, "users": sc.num_users, "relays": sc.num_relays,
            "fronthaul": np.asarray(sc.fronthaul, dtype=float).tolist(),
            "time_share": np.asarray(sc.time_share, dtype=float).tolist(), "channel": channel}


def save_scenario(sc, path, aux=None) -> None:
    """Write the scenario document of ``sc`` (and ``aux``) to file ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc, aux), fh, indent=1, sort_keys=True)
        fh.write("\n")


def identity_aux(sc: DiscreteScenario) -> AuxChannels:
    """Copy channels U_k = Y_k (no quantization)."""
    return AuxChannels(tables=tuple(np.broadcast_to(np.eye(size), (sc.num_timeshare, size, size))
                                    for size in sc.output_sizes))


def g_function(ev: Evaluator, r_sum: float) -> np.ndarray:
    """Set function g(S) = R_sum + I(U_S;Y_S|U_{S^c},Q) - I(U_all;X_all|Q)
    = R_sum + C_S - b_S for every relay set S, indexed by bitmask, as the
    sum-rate layer forms it.  Its positive part max(g, 0) defines the
    fronthaul polytope."""
    return sumrate._polytope(ev, r_sum)[3]


def check_supermodular(ev: Evaluator, r_sum: float) -> tuple[bool, float]:
    """Exhaustively verify supermodularity of max(g, 0):
    g+(S+i+j) + g+(S) >= g+(S+i) + g+(S+j) for all S and i != j outside S.

    Returns (all inequalities hold within 1e-10, worst slack).  An infinite
    g raises ``ScenarioError``: the fronthaul polytope is empty."""
    kk = ev.sc.num_relays
    gp = np.maximum(sumrate._finite(g_function(ev, r_sum)), 0.0)
    masks = np.arange(1 << kk)
    worst = 0.0 if kk == 1 else math.inf  # K = 1: nothing to check
    for i, j in combinations([1 << k for k in range(kk)], 2):
        m = masks[(masks & (i | j)) == 0]  # every S with i and j outside it
        worst = min(worst, float((gp[m | i | j] + gp[m] - gp[m | i] - gp[m | j]).min()))
    return worst >= -1e-10, worst


def wyner_ziv_rate(ev: Evaluator, relay: int, side) -> float:
    """I(U_k; Y_k | U_side, Q) of relay k given the codewords of the relays
    ``side``: H(U_side, U_k, Q) - H(U_side, Q) - H(U_k | Y_k, Q), from the
    evaluator's entropies H(U_m, Q).  Rounding dust down to
    -NEGATIVE_INFO_TOL reads 0; a more negative value raises."""
    h, m = ev.u_entropies(), mask_of(side)
    return _nonnegative(h[m | 1 << (relay - 1)] - h[m] - ev.h_u_given_y[relay - 1],
                        "Wyner-Ziv rate I(U_k; Y_k | U_side, Q)")


class ScalarOrderings:
    """The chain orderings of the sum-rate layer one Python call at a time:
    the per-ordering code that ``sumrate._walk`` replaced by array passes
    over blocks of orderings, kept as the scalar reference that the library
    must match bit for bit.  g is formed once, as the library forms it, at
    r_sum (None: the joint-decoding sum-rate); the caps and the invariant
    checks are the library's own and are not repeated here."""

    def __init__(self, ev: Evaluator, r_sum: float | None = None):
        self.ev = ev
        _, _, self.r_sum, self.g = sumrate._polytope(ev, r_sum)

    def chain(self, pi) -> list[float]:
        """g({pi(1..k)}) for k = 0..K."""
        return [float(self.g[mask_of(pi[:k])]) for k in range(len(pi) + 1)]

    def extreme_point(self, pi) -> np.ndarray:
        chain, out = self.chain(pi), np.zeros(len(pi))
        for k in range(1, len(pi) + 1):
            out[pi[k - 1] - 1] = max(0.0, max(0.0, chain[k]) - max(0.0, chain[k - 1]))
        return out

    def ordering_result(self, pi) -> sumrate.OrderingResult:
        ev, kk, chain = self.ev, len(pi), self.chain(pi)
        pivot = next((k for k in range(1, kk + 1) if chain[k] > sumrate.PIVOT_TOL), None)
        alpha, c_prime, r_bar = 1.0, np.zeros(kk), 0.0
        if pivot is not None:
            for k in range(pivot, kk + 1):
                c_prime[pi[k - 1] - 1] = wyner_ziv_rate(ev, pi[k - 1], pi[k:])
            denom = c_prime[pi[pivot - 1] - 1]
            g_before = chain[pivot - 1] if abs(chain[pivot - 1]) > sumrate.PIVOT_TOL else 0.0
            alpha = (1.0 if denom < sumrate.ALPHA_DENOM_TOL
                     else min(1.0, max(0.0, -g_before / denom)))
            c_prime[pi[pivot - 1] - 1] = (1.0 - alpha) * denom
            h, hx = ev.u_entropies(), ev.u_entropies((1 << ev.sc.num_users) - 1)
            active, later = mask_of(pi[pivot - 1:]), mask_of(pi[pivot:])
            i_active = _nonnegative(hx[0] + h[active] - hx[active] - h[0], "I(X; U_A | Q)")
            i_pivot = _nonnegative(hx[later] + h[active] - hx[active] - h[later],
                                   "I(X; U_pivot | U_L, Q)")
            r_bar = i_active - alpha * i_pivot
        return sumrate.OrderingResult(ordering=tuple(pi), extreme_point=self.extreme_point(pi),
                                      pivot_index=pivot, idle_fraction=float(alpha),
                                      scheme_fronthaul=c_prime, scheme_sum_rate=float(r_bar))

    def swz_equals_jd(self) -> sumrate.SumRateComparison:
        """The comparison over every ordering in lexicographic order, with
        the library's tie rule; meant for r_sum None."""
        best, best_pi = -math.inf, None
        for pi in permutations(range(1, self.ev.sc.num_relays + 1)):
            rate = self.ordering_result(pi).scheme_sum_rate
            if rate > best + sumrate.INVARIANT_TOL:
                best, best_pi = rate, pi
        return sumrate.SumRateComparison(jd_sum_rate=self.r_sum, best_sum_rate=best,
                                         best_ordering=best_pi, gap=float(self.r_sum - best))


def weighted_arithmetic_mean(mats, weights) -> np.ndarray:
    """sum_i w_i A_i for PD matrices A_i and nonnegative weights summing to 1,
    through the stacked kernel ``gaussian.weighted_means`` on a stack of one."""
    return weighted_means(*_one_mean_input(mats, weights))[0][0]


def weighted_harmonic_mean(mats, weights) -> np.ndarray:
    """(sum_i w_i A_i^{-1})^{-1} for PD matrices A_i, as above."""
    return weighted_means(*_one_mean_input(mats, weights))[1][0]


def _one_mean_input(mats, weights) -> tuple[np.ndarray, np.ndarray]:
    # np.stack rejects an empty list and matrices of different shapes
    return np.stack([la.as_complex(m) for m in mats])[None], np.asarray(weights, dtype=float)[None]


def traced_peak_mb(fn: Callable[[], object]) -> float:
    """Peak of the memory that tracemalloc sees (numpy buffers included)
    while fn runs, above what was allocated before, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2.0 ** 20
    finally:
        tracemalloc.stop()


def codebook_marginal_one_shot(ens: CodebookEnsemble, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(empirical, tv) of the codebook sampler drawn as one (trials, ncw)
    codebook per position: the sampler's arithmetic before it streamed."""
    ncw = ens.num_codewords
    alphabet = ens.input_pmf.shape[1]
    rng = np.random.default_rng(ens.seed)
    messages = rng.integers(ncw, size=trials)
    empirical = np.empty((ens.blocklength, alphabet))
    target = np.empty((ens.blocklength, alphabet))
    for i in range(ens.blocklength):
        p = ens.input_pmf[ens.time_seq[i]]
        column = rng.choice(alphabet, size=(trials, ncw), p=p)
        chosen = column[np.arange(trials), messages]
        counts = np.bincount(chosen, minlength=alphabet).astype(float)
        empirical[i] = counts / trials
        target[i] = p
    return empirical, 0.5 * np.abs(empirical - target).sum(axis=1)


def whitened_parts(
    sc: GaussianScenario,
    q: QuantizerSetGaussian,
    pair: SubsetPair,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(logdet_gap in bits, signal, marg_factor, lam_cond) of the MC
    estimator: the input's map K_T^{1/2 T} H_T^T, the conjugated Cholesky
    factor of lam_marg^{-1} and the conditional covariance, formed as the
    estimator forms them.  Expects a nonempty relay complement and
    quantizers inside the boundary."""
    relays_c = pair.relays_complement(sc.num_relays)
    lam_cond = la.block_diag([la.hermitian_part(np.linalg.inv(q.B[k - 1])) for k in relays_c])
    h_t = np.vstack([sc.channel_to_users(k, pair.users) for k in relays_c])
    k_t_root = la.psd_sqrt(sc.input_covariance(pair.users))
    lam_marg = la.hermitian_part(h_t @ (k_t_root @ k_t_root) @ h_t.conj().T + lam_cond)
    logdet_gap = la.logdet2(lam_marg) - la.logdet2(lam_cond)
    marg_factor = np.linalg.cholesky(np.linalg.inv(lam_marg)).conj()
    return logdet_gap, k_t_root.T @ h_t.T, marg_factor, lam_cond


def whitened_form(
    sc: GaussianScenario,
    q: QuantizerSetGaussian,
    pair: SubsetPair,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(logdet_gap in bits, M, signal_map) of the MC estimator: the whitened
    input and noise v = (x, z) ~ CN(0, I) enter each sample's log-density
    ratio as the Hermitian form of M = A A^H - diag(0, I) with
    A = [signal_map; noise_map]; an input wider than the observation is
    taken through the triangular factor of its map.  Expects a nonempty
    relay complement and quantizers inside the boundary."""
    logdet_gap, signal, marg_factor, lam_cond = whitened_parts(sc, q, pair)
    if signal.shape[0] > signal.shape[1]:
        signal = np.linalg.qr(signal, mode="r")
    signal_map = signal @ marg_factor
    stacked = np.vstack([signal_map, la.psd_sqrt(lam_cond).T @ marg_factor])
    form = stacked @ stacked.conj().T
    dim_x = signal.shape[0]
    form[dim_x:, dim_x:] -= np.eye(form.shape[0] - dim_x)
    return logdet_gap, form, signal_map


def mc_mutual_information_one_shot(
    sc: GaussianScenario,
    q: QuantizerSetGaussian,
    pair: SubsetPair,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """(estimate, std_error) of the MC estimator from one (samples, d) draw
    of standard exponentials, d = 2 min(dim_x, dim_z), each row dotted with
    -rho and then +rho in ascending order, rho the singular values of the
    whitened signal map (not taken through its triangular factor, which
    moves rho by rounding); the sums are taken over row slices of
    ``optimize.SAMPLER_BLOCK // d`` samples."""
    logdet_gap, signal, marg_factor, _ = whitened_parts(sc, q, pair)
    rho = np.linalg.svd(signal @ marg_factor, compute_uv=False)
    coef = np.concatenate([-rho, rho[::-1]]) / la.LN2
    d = coef.size
    draw = np.random.default_rng(seed).standard_exponential((samples, d))
    total = 0.0
    total_sq = 0.0
    rows = max(1, optimize.SAMPLER_BLOCK // d)
    for start in range(0, samples, rows):
        vals = draw[start:start + rows] @ coef + logdet_gap
        total += float(vals.sum())
        total_sq += float(vals @ vals)
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return mean, math.sqrt(var / samples)


FAULT_BUMP = 1e-3  # bits added to a suite's comparison by an injected fault


def inject_suite_fault(monkeypatch, suite: str) -> None:
    """Perturb one comparison inside a ``verify`` suite (by FAULT_BUMP, or
    more where that would leave it passing) so that the suite fails, by
    rebinding a function the suite calls."""
    if suite == "class_equivalence":
        # every thm1 bound moves by the bump, so every instance fails
        region = DiscreteEvaluator.region

        def faulty(ev, family="thm3"):
            r = region(ev, family)
            return r if family == "thm3" else RateRegion(r.num_users, r.bounds + FAULT_BUMP)

        monkeypatch.setattr(DiscreteEvaluator, "region", faulty)
    elif suite == "mc":
        mc_mutual_information = verify.mc_mutual_information

        def faulty(*args, **kwargs):
            est = mc_mutual_information(*args, **kwargs)
            return replace(est, estimate=est.estimate + 100 * FAULT_BUMP)

        monkeypatch.setattr(verify, "mc_mutual_information", faulty)
    elif suite == "matrix_lemmas":
        # the mean ordering usually holds with far more slack than the bump,
        # so the first instance's gap is moved to its failing side
        matrix_lemma_cases = verify.matrix_lemma_cases

        def faulty(instances, seed):
            lemma_ok, gaps = matrix_lemma_cases(instances, seed)
            gaps[0] = max(gaps[0], 0.0) + FAULT_BUMP
            return lemma_ok, gaps

        monkeypatch.setattr(verify, "matrix_lemma_cases", faulty)
    else:
        raise ValueError(f"no fault defined for suite {suite!r}")


def inject_suite_nan(monkeypatch, suite: str) -> None:
    """Make exactly one case of a ``verify`` suite compare a NaN, by
    rebinding a function the suite calls: the third thm1 region of
    class_equivalence, the first comparison of swz, the first estimate of mc,
    the point-mass marginal of codebook and the first gap of matrix_lemmas."""
    calls = []

    def call_number() -> int:
        calls.append(None)
        return len(calls)

    if suite == "class_equivalence":
        region = DiscreteEvaluator.region

        def faulty(ev, family="thm3"):
            r = region(ev, family)
            if family == "thm1" and call_number() == 3:
                return RateRegion(r.num_users, np.full_like(r.bounds, math.nan))
            return r

        monkeypatch.setattr(DiscreteEvaluator, "region", faulty)
    elif suite == "swz":
        swz_equals_jd = verify.swz_equals_jd

        def faulty(ev):
            res = swz_equals_jd(ev)
            return replace(res, gap=math.nan) if call_number() == 1 else res

        monkeypatch.setattr(verify, "swz_equals_jd", faulty)
    elif suite == "mc":
        mc_mutual_information = verify.mc_mutual_information

        def faulty(*args, **kwargs):
            est = mc_mutual_information(*args, **kwargs)
            return replace(est, estimate=math.nan) if call_number() == 1 else est

        monkeypatch.setattr(verify, "mc_mutual_information", faulty)
    elif suite == "codebook":
        sample_codebook_marginal = verify.sample_codebook_marginal

        def faulty(ens, trials):
            res = sample_codebook_marginal(ens, trials)
            return replace(res, tv=res.tv * math.nan) if ens.input_pmf[0, 0] == 1.0 else res

        monkeypatch.setattr(verify, "sample_codebook_marginal", faulty)
    elif suite == "matrix_lemmas":
        matrix_lemma_cases = verify.matrix_lemma_cases

        def faulty(instances, seed):
            lemma_ok, gaps = matrix_lemma_cases(instances, seed)
            gaps[0] = math.nan
            return lemma_ok, gaps

        monkeypatch.setattr(verify, "matrix_lemma_cases", faulty)
    else:
        raise ValueError(f"no NaN defined for suite {suite!r}")
