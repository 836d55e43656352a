"""Gaussian MIMO rate region with per-relay quantization matrices.

The region is a finite set of constraints, one per (user set T, relay set S):

    sum_{t in T} R_t <= sum_{k in S} [C_k - fronthaul_mi(Sigma_k, B_k)]
                        + log2 det(I + K_T^{1/2} A K_T^{1/2})

with A = sum_{k not in S} H_{k,T}^H B_k H_{k,T}, K_T the block-diagonal input
covariance of the users in T, and fronthaul_mi the rate spent describing
relay k's observation to the processor.  Each B_k is Hermitian with
0 <= B_k <= Sigma_k^{-1}; B_k = (Sigma_k + Q_k)^{-1} corresponds to an
additive Gaussian test channel with noise covariance Q_k.  The bound is
written once, for both scenario kinds, in ``core.Evaluator.subset_bounds``;
``GaussianEvaluator`` supplies its entropy vectors.

Everything here is over complex matrices; real inputs are embedded with zero
imaginary part.  Time-sharing is intentionally not exposed: with Gaussian
inputs it adds nothing, so scenarios with |Q| > 1 are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _linalg as la
from .core import (
    Evaluator,
    RateRegion,
    Scenario,
    ScenarioError,
    SubsetPair,
    check_finite,
    indices_of,
    subset_sums,
)

# feasibility margin: eigenvalues of Sigma^{1/2} B Sigma^{1/2} live in [0, 1];
# at 1 the fronthaul rate diverges, so projections cap at 1 - QUANT_CAP_MARGIN.
QUANT_CAP_MARGIN = 1e-9
QUANT_EIG_TOL = 1e-10  # slack of the range test in normalized_spectrum
BOUNDARY_TOL = 1e-12  # a normalized eigenvalue this close to 0 or 1 is on the boundary
LEMMA_TOL = 1e-10  # slack of the log2 det comparison in matrix_lemma_holds


def _user_matrix(require, m, name: str) -> np.ndarray:
    """``require(m, name=name)`` on a user's matrix; its ValueError is a ScenarioError."""
    try:
        return require(m, name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _hermitian(m, name: str) -> np.ndarray:
    """A user's matrix as a finite, read-only Hermitian matrix."""
    m = _user_matrix(la.require_hermitian, m, name)
    check_finite(m, name)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GaussianScenario(Scenario):
    """Memoryless Gaussian MIMO uplink: Y_k = sum_l H[k][l] X_l + N_k.

    H[k][l] is M_k x N_l, Sigma[k] the Hermitian PD noise covariance at relay
    k, Kin[l] the Hermitian PSD input covariance of user l with
    trace(Kin[l]) <= power[l].
    """

    H: tuple[tuple[np.ndarray, ...], ...]
    Sigma: tuple[np.ndarray, ...]
    Kin: tuple[np.ndarray, ...]
    power: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if self.num_timeshare != 1:
            raise ScenarioError(
                "gaussian scenarios do not support time-sharing (|Q| must be 1)"
            )
        if len(self.Sigma) != self.num_relays:
            raise ScenarioError("Sigma must have one matrix per relay")
        if len(self.Kin) != self.num_users or len(self.power) != self.num_users:
            raise ScenarioError("Kin and power must have one entry per user")
        if len(self.H) != self.num_relays or any(len(row) != self.num_users for row in self.H):
            raise ScenarioError("H must be a K x L grid of matrices")

        power = tuple(float(p) for p in self.power)
        check_finite(power, "power")
        sigma = []
        for k, s in enumerate(self.Sigma, start=1):
            s = _hermitian(s, f"Sigma[{k}]")
            if la.min_eig(s) <= la.PD_TOL:
                raise ScenarioError(f"Sigma[{k}] is not positive definite")
            sigma.append(s)
        kin = []
        for l, (m, p) in enumerate(zip(self.Kin, power), start=1):
            m = _hermitian(m, f"Kin[{l}]")
            if la.min_eig(m) < -la.HERM_TOL:
                raise ScenarioError(f"Kin[{l}] is not positive semidefinite")
            if float(np.real(np.trace(m))) > p + 1e-9:
                raise ScenarioError(f"Kin[{l}] violates the power budget power[{l}]")
            kin.append(m)
        grid = []
        for k, row in enumerate(self.H, start=1):
            fixed = []
            for l, h in enumerate(row, start=1):
                h = np.array(np.atleast_2d(h), dtype=np.complex128, order="C")
                check_finite(h, f"H[{k}][{l}]")
                if h.shape != (sigma[k - 1].shape[0], kin[l - 1].shape[0]):
                    raise ScenarioError(
                        f"H[{k}][{l}] has shape {h.shape}, expected "
                        f"({sigma[k - 1].shape[0]}, {kin[l - 1].shape[0]})"
                    )
                h.setflags(write=False)
                fixed.append(h)
            grid.append(tuple(fixed))
        object.__setattr__(self, "Sigma", tuple(sigma))
        object.__setattr__(self, "Kin", tuple(kin))
        object.__setattr__(self, "H", tuple(grid))
        object.__setattr__(self, "power", power)

    @property
    def relay_antennas(self) -> tuple[int, ...]:
        return tuple(s.shape[0] for s in self.Sigma)

    @property
    def user_antennas(self) -> tuple[int, ...]:
        return tuple(m.shape[0] for m in self.Kin)

    def channel_to_users(self, relay: int, users) -> np.ndarray:
        """H_{relay,T}: horizontal concatenation of H[relay][l] over l in users."""
        return np.hstack([self.H[relay - 1][l - 1] for l in sorted(users)])

    def input_covariance(self, users) -> np.ndarray:
        return la.block_diag([self.Kin[l - 1] for l in sorted(users)])


@dataclass(frozen=True)
class QuantizerSetGaussian:
    """One Hermitian quantization matrix B_k per relay."""

    B: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "B", tuple(_hermitian(b, f"B[{k}]")
                                            for k, b in enumerate(self.B, start=1)))

    def validate(self, sc: GaussianScenario) -> list[np.ndarray]:
        """Check 0 <= B_k <= Sigma_k^{-1} with ``normalized_spectrum``;
        return those normalized spectra, one per relay."""
        if len(self.B) != sc.num_relays:
            raise ScenarioError("quantizer count must equal the number of relays")
        spectra = []
        for k, (b, s) in enumerate(zip(self.B, sc.Sigma), start=1):
            if b.shape != s.shape:
                raise ScenarioError(f"B[{k}] has shape {b.shape}, expected {s.shape}")
            spectra.append(normalized_spectrum(s, b, f"B[{k}]"))
        return spectra


def normalized_spectrum(sigma: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """The eigenvalues of the normalized quantizer Sigma^{1/2} B Sigma^{1/2},
    for a Hermitian PD Sigma and a Hermitian B of its shape.  The one check
    of 0 <= B <= Sigma^{-1}: a ScenarioError naming ``name`` when they leave
    [-QUANT_EIG_TOL, 1 + QUANT_EIG_TOL]."""
    root = la.psd_sqrt(sigma)
    lam = np.linalg.eigvalsh(la.hermitian_part(root @ b @ root))
    if lam.min() < -QUANT_EIG_TOL or lam.max() > 1.0 + QUANT_EIG_TOL:
        raise ScenarioError(
            f"{name} violates 0 <= B <= Sigma^-1 "
            f"(normalized eigenvalues in [{lam.min():.3e}, {lam.max():.3e}])"
        )
    return lam


def fronthaul_mi(sigma, b) -> float:
    """Bits per use spent quantizing one relay's observation:
    -log2 det(I - Sigma^{1/2} B Sigma^{1/2}), for 0 <= B <= Sigma^{-1}.

    Returns +inf when B touches Sigma^{-1} (the test channel becomes
    noiseless and the description rate diverges).
    """
    sigma = _user_matrix(la.require_pd, sigma, "Sigma")
    b = _user_matrix(la.require_hermitian, b, "B")
    return float(fronthaul_bits(normalized_spectrum(sigma, b, "B")))


def fronthaul_bits(lam):
    """-log2 det(I - W) from the eigenvalues lam of a normalized quantizer
    W = Sigma^{1/2} B Sigma^{1/2}, clipped at 0 (a zero rate is +0.0, never
    -0.0); +inf where an eigenvalue is within BOUNDARY_TOL of 1 (B touches
    Sigma^{-1}).  For a stack (n, d) of eigenvalues, one rate per row."""
    lam = np.clip(lam, 0.0, None)
    edge = lam.max(axis=-1) > 1.0 - BOUNDARY_TOL
    rate = -np.sum(np.log2(1.0 - np.where(edge[..., None], 0.0, lam)), axis=-1) + 0.0
    return np.where(edge, math.inf, rate)


class _RelayGroup(NamedTuple):
    """The relays with one antenna count d, in increasing order."""

    relays: np.ndarray  # their 0-based indices
    h: np.ndarray  # (n, d, N): each relay's channel to all users' N antennas
    outside: np.ndarray  # (2^K, n): relay i of the group lies outside relay set S


class ScenarioTerms:
    """The quantizer-free terms of one Gaussian scenario, built once and
    shared by all of its evaluators: the relays grouped by antenna count,
    with their channels stacked, so that per-relay work is one numpy call per
    group; and each user set's antenna indices and K_T^{1/2}, formed on
    first use."""

    def __init__(self, sc: GaussianScenario):
        self.sc = sc
        self.full_users = tuple(range(1, sc.num_users + 1))
        dims = np.array(sc.relay_antennas)
        s_masks = np.arange(1 << sc.num_relays)
        outside = (s_masks[:, None] >> np.arange(sc.num_relays) & 1) == 0
        self.groups = []
        for d in np.unique(dims):
            relays = np.flatnonzero(dims == d)
            h = np.stack([sc.channel_to_users(k + 1, self.full_users) for k in relays])
            self.groups.append(_RelayGroup(relays, h, outside[:, relays]))
        # each relay's place among the groups' relays, taken in group order
        self.order = np.argsort(np.concatenate([g.relays for g in self.groups]))
        self._users = {}

    def stack(self, mats) -> list[np.ndarray]:
        """Per-relay matrices as one stack per group."""
        return [np.stack([mats[k] for k in g.relays]) for g in self.groups]

    def unstack(self, stacks) -> list[np.ndarray]:
        """One stack per group as per-relay matrices, in relay order."""
        mats = [m for s in stacks for m in s]
        return [mats[i] for i in self.order]

    def merge(self, stacks) -> np.ndarray:
        """One stack per group, all of one entry shape, as one array in
        relay order."""
        return np.concatenate(stacks)[self.order]

    def users(self, users: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the users' antennas among all users', and K_T^{1/2}."""
        if users not in self._users:
            offsets = np.cumsum((0,) + self.sc.user_antennas)
            idx = np.concatenate([np.arange(offsets[l - 1], offsets[l]) for l in users])
            self._users[users] = (idx, la.psd_sqrt(self.sc.input_covariance(users)))
        return self._users[users]


class GaussianEvaluator(Evaluator):
    """The ``Evaluator`` of one Gaussian quantizer set, whose entropies are
    in B-normalized form: each relay's entropy less log2 det(pi e B_k^{-1}).
    So ``u_entropies(kept)[m]`` is log2 det(I + K_T^{1/2} A K_T^{1/2}), with
    A = sum_{k in m} H_{k,T}^H B_k H_{k,T} over the users T outside ``kept``;
    H(X) = H(X, U) = 0; and ``h_u_given_y[k-1]`` = log2 det(I - W_k) is minus
    relay k's fronthaul rate.  H_k^H B_k H_k is formed once per relay, in one
    batched product per antenna group of ``terms``, which every evaluator of
    one scenario may share."""

    _h_x = (0.0, 0.0)

    def __init__(self, terms: ScenarioTerms, b, mi):
        """``b`` holds one (n, d, d) stack of the B_k per group of ``terms``,
        ``mi`` each relay's fronthaul rate (+inf where B_k touches
        Sigma_k^{-1}, so the bound of every S that holds it is -inf)."""
        super().__init__(terms.sc, np.negative(mi))
        self.terms = terms
        self.gfull = terms.merge([la.hermitian_part(g.h.conj().swapaxes(-1, -2) @ bg @ g.h)
                                  for g, bg in zip(terms.groups, b)])
        self._stacks: dict[tuple[int, ...], np.ndarray] = {}  # branch_stack by user set T

    @classmethod
    def from_quantizers(cls, sc: GaussianScenario, q: QuantizerSetGaussian) -> "GaussianEvaluator":
        """The evaluator of quantizers q, after ``q.validate(sc)``, whose
        normalized spectra give the fronthaul rates."""
        spectra = q.validate(sc)
        terms = ScenarioTerms(sc)
        return cls(terms, terms.stack(q.B), [fronthaul_bits(lam) for lam in spectra])

    def branch_stack(self, users: tuple[int, ...]) -> np.ndarray:
        """The stack of I + K_T^{1/2} A_{T,S} K_T^{1/2} of user set T, one per
        relay set S but the full one (which leaves no log-det), by bitmask,
        with A_{T,S} = sum_{k not in S} H_{k,T}^H B_k H_{k,T} summed in
        increasing k; formed once per T."""
        if users not in self._stacks:
            idx, k_root = self.terms.users(users)
            a = subset_sums(self.gfull[:, idx[:, None], idx])[:0:-1]  # by the relays outside S
            self._stacks[users] = np.eye(idx.size) + k_root @ a @ k_root
        return self._stacks[users]

    def info_terms(self, users: tuple[int, ...]) -> np.ndarray:
        """I(X_T; U_{S^c} | X_{T^c}) = log2 det(I + K_T^{1/2} A_{T,S} K_T^{1/2})
        of user set T for every relay set S (index = bitmask), 0 at the full
        S; finite even when a relay in S sits on the boundary
        B_k = Sigma_k^{-1}."""
        return np.concatenate((la.logdet2(self.branch_stack(users)), [0.0]))

    def _u_entropies(self, kept: int) -> np.ndarray:
        """``info_terms`` of the users outside ``kept`` (none: 0), by the relays in m."""
        full = (1 << self.sc.num_users) - 1
        users = indices_of(full ^ kept)
        return self.info_terms(users)[::-1] if users else np.zeros(1 << self.sc.num_relays)


def rate_constraint_gaussian(
    sc: GaussianScenario, q: QuantizerSetGaussian, pair: SubsetPair
) -> float:
    """One constraint bound of the Gaussian region, in bits (may be -inf)."""
    return GaussianEvaluator.from_quantizers(sc, q).bound(pair)


def region_gaussian(sc: GaussianScenario, q: QuantizerSetGaussian) -> RateRegion:
    """Evaluate every (T, S) constraint; negative bounds are kept as-is."""
    return GaussianEvaluator.from_quantizers(sc, q).region()


def matrix_lemma_holds(a, b, c) -> np.ndarray:
    """For stacks (n, d, d) of Hermitian PD A, B, C with B >= A: check
    |I + BC| >= |I + AC| matrix by matrix.

    Determinants are compared as log2 det(I + L^H M L) = log2 det(I + MC),
    C = L L^H by Cholesky, with slack LEMMA_TOL.  Each check is made once for
    the whole stack and raises if any matrix fails it.
    """
    a = la.require_pd(a, name="A", stacked=True)
    b = la.require_pd(b, name="B", stacked=True)
    c = la.require_pd(c, name="C", stacked=True)
    if a.shape != b.shape or a.shape != c.shape:
        raise ValueError("A, B and C must have the same shape")
    if not la.has_cholesky(b - a + la.HERM_TOL * np.eye(a.shape[-1])):
        raise ValueError("precondition B >= A violated")
    factor = np.linalg.cholesky(c)
    eye = np.eye(c.shape[-1])
    lhs, rhs = (la.logdet2(eye + factor.conj().swapaxes(-1, -2) @ m @ factor) for m in (b, a))
    return lhs >= rhs - LEMMA_TOL


def matrix_lemma_check(a, b, c) -> bool:
    """``matrix_lemma_holds`` for one triple of matrices."""
    return bool(matrix_lemma_holds(*(la.as_complex(m)[None] for m in (a, b, c)))[0])


def weighted_means(mats, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted arithmetic and harmonic means of stacked PD matrices.

    ``mats`` is (n, count, d, d) and ``weights`` (n, count), each row
    nonnegative and summing to 1.  Returns the stacks (n, d, d) of
    sum_i w_i A_i and (sum_i w_i A_i^{-1})^{-1}."""
    mats = la.require_pd(mats, name="A_i", stacked=True)
    if mats.ndim != 4:
        raise ValueError(f"expected a (n, count, d, d) stack, got shape {mats.shape}")
    w = _check_weights(weights, mats.shape[:2])
    arith = la.hermitian_part(_weighted_sum(mats, w))
    harm = la.hermitian_part(np.linalg.inv(_weighted_sum(np.linalg.inv(mats), w)))
    return arith, harm


def _weighted_sum(mats: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w[:, i] mats[:, i], accumulated left to right from 0."""
    out = np.zeros(mats.shape[:1] + mats.shape[2:], dtype=np.complex128)
    for i in range(mats.shape[1]):
        out = out + w[:, i, None, None] * mats[:, i]
    return out


def _check_weights(weights, shape: tuple[int, int]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != shape or np.any(w < 0) or np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1, one per matrix")
    return w
