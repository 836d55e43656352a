"""Network scenarios, subset algebra, rate regions, and the randomized
codebook sampler.

Conventions used throughout the package:

* rates and fronthaul capacities are in bits per channel use (base-2 logs);
* users are numbered 1..L and relays 1..K; bitmask encodings put index 1 on
  the least significant bit, so masks in CSV output are stable;
* a rate region is one table of bounds, row t_mask - 1 and column s_mask
  (``RateRegion``), whose rows' users ``user_sets`` gives;
* every stochastic operation takes an explicit integer seed and is
  bit-reproducible for a fixed seed (one generator, ``numpy`` PCG64, with
  per-task seeds derived via ``SeedSequence.spawn``).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np
import orjson

PMF_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
LP_FEAS_TOL = 1e-10  # HiGHS primal and dual feasibility tolerance of the weighted-rate LPs
TIE_SLACK = 1e-10  # weighted value a point may give up to the optimum in the weighted-rate tie rule

# a region holds (2^L - 1) * 2^K bounds; beyond this combined size the table
# itself is the problem, not the numerics.
MAX_SUBSET_BITS = 24

# cap on blocklength * trials * codewords, the uniforms the codebook sampler
# draws.  The sampler streams its draws in blocks, so this bounds run time,
# not memory.
MAX_SAMPLER_DRAWS = 50_000_000
MAX_CODEWORDS = 1 << 20
# cap on the positions of the codebook-check experiment: each is one sampling
# loop and one row of its per-position tables, whatever the rate (one trial
# of a one-codeword codebook passes the draws guard up to 5 * 10^7 positions)
MAX_BLOCKLENGTH = 10_000
# entries per block of the Monte Carlo samplers' draws (codebook letters, or
# the MC estimator's exponential draws); a block holds at least one row
SAMPLER_BLOCK = 1 << 16
SPAWN_CHUNK = 256  # SeedSequence children alive at a time in spawn_seeds


class ScenarioError(ValueError):
    """A scenario file or scenario object violates the schema or an invariant."""


class CapacityError(ValueError):
    """A request exceeds the size guards of this desk-scale implementation."""


def check_finite(values, name: str) -> None:
    """Reject NaN and +-inf in numeric input.  Every later range check compares
    against numbers, and a comparison with NaN is always false."""
    if not np.isfinite(values).all():
        raise ScenarioError(f"{name} must be finite (no NaN or infinity)")


def pmf_table(t, name: str, axes: tuple[str, ...], rows: int | None = None) -> np.ndarray:
    """``t`` as a finite, read-only float table with the named ``axes``
    (``rows`` entries on the first, when given), holding pmfs along its
    nonempty last axis: the one check of every law a scenario, quantizer or
    codebook ensemble reads."""
    t = np.array(t, dtype=float, order="C")
    if t.ndim != len(axes) or t.shape[-1] < 1 or rows not in (None, t.shape[0]):
        raise ScenarioError(f"{name} must have shape ({', '.join(axes)})")
    check_finite(t, name)
    if np.any(t < 0):
        raise ScenarioError(f"{name} has negative entries")
    sums = t.sum(axis=-1)
    if sums.size and np.max(np.abs(sums - 1.0)) > PMF_TOL:
        raise ScenarioError(f"{name} must be a pmf over {axes[-1]}, summing to 1 "
                            f"within {PMF_TOL:g}")
    t.setflags(write=False)
    return t


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based indices (index 1 -> LSB)."""
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"indices are 1-based, got {i}")
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based indices of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_sums(terms: np.ndarray) -> np.ndarray:
    """out[m] = the sum of terms[k] over the bits k of the mask m, added in
    increasing k from 0, the order of a running sum over ``indices_of(m)``."""
    out = np.zeros((1 << len(terms),) + terms.shape[1:], dtype=terms.dtype)
    for k, term in enumerate(terms):
        out[1 << k:2 << k] = out[:1 << k] + term
    return out


@dataclass(frozen=True)
class SubsetPair:
    """A (users, relays) pair indexing one rate constraint.

    ``users`` is the set T of users whose rate sum is bounded (never empty in
    an emitted constraint); ``relays`` is the set S of relay links charged at
    their fronthaul capacity.
    """

    users: tuple[int, ...]
    relays: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(sorted(set(self.users))))
        object.__setattr__(self, "relays", tuple(sorted(set(self.relays))))
        if not self.users:
            raise ValueError("constraint user set must be nonempty")

    @property
    def s_mask(self) -> int:
        return mask_of(self.relays)

    def relays_complement(self, num_relays: int) -> tuple[int, ...]:
        return tuple(k for k in range(1, num_relays + 1) if k not in self.relays)


def enumerate_constraint_pairs(num_users: int, num_relays: int) -> list[SubsetPair]:
    """All (T, S) pairs with T nonempty, ordered by increasing T mask then S mask."""
    if num_users < 1 or num_relays < 1:
        raise ValueError("need at least one user and one relay")
    if num_users + num_relays > MAX_SUBSET_BITS:
        raise CapacityError(
            f"L + K = {num_users + num_relays} exceeds the supported {MAX_SUBSET_BITS} subset bits"
        )
    pairs = []
    for t_mask in range(1, 1 << num_users):
        users = indices_of(t_mask)
        for s_mask in range(1 << num_relays):
            pairs.append(SubsetPair(users=users, relays=indices_of(s_mask)))
    return pairs


def user_sets(num_users: int) -> np.ndarray:
    """The (2^L - 1, L) incidence matrix of the nonempty user sets: row
    t_mask - 1 holds 1.0 for each user in the set of bitmask t_mask."""
    t_masks = np.arange(1, 1 << num_users)
    return (t_masks[:, None] >> np.arange(num_users) & 1).astype(float)


@dataclass(frozen=True, eq=False)  # an array field has no single truth value to compare
class RateRegion:
    """The linear constraints sum_{t in T} R_t <= b_{T,S}, one for each
    nonempty user set T and each relay set S, as one read-only table:
    ``bounds[t_mask - 1, s_mask]``, of shape (2^L - 1, 2^K).

    Each bound is finite or -inf (a Gaussian relay whose B_k is Sigma_k^{-1});
    +inf is refused.  Bounds may be negative (the region is then empty once
    intersected with the nonnegative orthant); membership always intersects
    with the orthant implicitly through the caller supplying nonnegative
    rates.
    """

    num_users: int
    bounds: np.ndarray

    def __post_init__(self):
        bounds = np.array(self.bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[0] != (1 << self.num_users) - 1:
            raise ValueError(f"bounds must have shape (2^L - 1, 2^K), got {bounds.shape}")
        if np.isposinf(bounds).any():
            raise ValueError("bounds must be finite or -inf")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    def contains(self, rates: Sequence[float]) -> bool:
        """Every rate sum is within its tightest bound, up to MEMBERSHIP_TOL;
        NaN rates never are."""
        r = np.asarray(rates, dtype=float)
        if r.shape != (self.num_users,):
            raise ValueError(f"expected {self.num_users} rates, got shape {r.shape}")
        tightest = self.bounds.min(axis=1) + MEMBERSHIP_TOL
        return bool(np.all(user_sets(self.num_users) @ r <= tightest))

    def sum_rate_bound(self) -> float:
        """Tightest bound on the total rate (full user set), floored at 0."""
        return max(0.0, float(self.bounds[-1].min()))

    def max_user_rate(self, user: int) -> float:
        """Largest rate of one user with all other rates at zero, floored at 0."""
        if not 1 <= user <= self.num_users:
            raise ValueError(f"user must be in 1..{self.num_users}, got {user}")
        rows = user_sets(self.num_users)[:, user - 1] > 0
        return max(0.0, float(self.bounds[rows].min()))

    def csv_rows(self) -> list[tuple[int, int, float]]:
        """(T mask, S mask, bound) rows, by increasing T mask then S mask."""
        return [(t_mask, s_mask, b) for t_mask, row in enumerate(self.bounds.tolist(), start=1)
                for s_mask, b in enumerate(row)]


class Evaluator:
    """Every rate bound of one (scenario, quantizer) pair, written once in
    entropy vectors, each given Q, that a subclass supplies for its scenario
    kind: ``_u_entropies(kept)``, ``_h_x`` = (H(X), H(X, U)) and each relay's
    ``h_u_given_y`` = H(U_k | Y_k).  A shift of relay k's entropies shared
    by every term that holds U_k cancels in every bound.  Built once per
    pair and shared, with its caches, by every bound and chain ordering."""

    def __init__(self, sc: Scenario, h_u_given_y):
        self.sc = sc
        self.h_u_given_y = h_u_given_y
        self._h_u: dict[int, np.ndarray] = {}  # u_entropies by kept
        self._bounds: dict[tuple[int, str], np.ndarray] = {}  # subset_bounds by (T, family)

    def u_entropies(self, kept: int = 0) -> np.ndarray:
        """H(U_m, X_kept, Q) for every relay bitmask m, with X_kept the inputs
        of the users in bitmask ``kept``; reversed, it is indexed by S^c.
        Formed once per ``kept`` and read-only."""
        if kept not in self._h_u:
            h = self._u_entropies(kept)
            h.setflags(write=False)
            self._h_u[kept] = h
        return self._h_u[kept]

    @functools.cached_property
    def charge(self) -> np.ndarray:
        """C_S + sum_{k in S} H(U_k|Y_k) by relay bitmask S, in increasing k."""
        return subset_sums(np.add(self.sc.fronthaul, self.h_u_given_y))

    def subset_bounds(self, users: tuple[int, ...] | None = None,
                      family: str = "thm3") -> np.ndarray:
        """The bound of user set T (default: all users) for every relay set
        S, indexed by bitmask, with every entropy given Q.  thm3:
        C_S + sum_{k in S} H(U_k|Y_k) + H(U_{S^c}|X_{T^c}) - H(U|X); thm1:
        sum_{k in S} [C_k + H(U_k|Y_k) - H(U_k|X)] + H(U_{S^c}|X_{T^c})
        - H(U_{S^c}|X).  At T = all users the thm3 bounds are the joint-decoding
        sum-rate bounds; their S = {} entry is I(U; X | Q), in ``cmi``'s order.
        Formed once per (T, family) and kept read-only."""
        if family not in ("thm1", "thm3"):
            raise ValueError(f"unknown constraint family {family!r}")
        full = (1 << self.sc.num_users) - 1
        key = (full if users is None else mask_of(users), family)
        if key not in self._bounds:
            h_tc = self.u_entropies(full ^ key[0])  # given X_{T^c} and Q
            if family == "thm3":
                h_xq, h_all = self._h_x
                bounds = h_tc[::-1] + h_xq - h_all - h_tc[0] + self.charge
            else:
                h_x = self.u_entropies(full)  # h_x[0] = H(X, Q)
                # I(U_k; Y_k | X, Q) and I(X_T; U_{S^c} | X_{T^c}, Q), in cmi's order
                i_uy = h_x[1 << np.arange(self.sc.num_relays)] - h_x[0] - self.h_u_given_y
                info = h_x[0] + h_tc[::-1] - h_x[::-1] - h_tc[0]
                bounds = subset_sums(np.subtract(self.sc.fronthaul, i_uy)) + info
            bounds.setflags(write=False)
            self._bounds[key] = bounds
        return self._bounds[key]

    def bound(self, pair: SubsetPair, family: str = "thm3") -> float:
        """Bound of one (T, S) pair in the 'thm1' or 'thm3' family."""
        return float(self.subset_bounds(pair.users, family)[pair.s_mask])

    def region(self, family: str = "thm3") -> RateRegion:
        """All (T, S) bounds of one family, one ``subset_bounds`` per T;
        negative bounds are kept as-is."""
        rows = [self.subset_bounds(indices_of(t_mask), family)
                for t_mask in range(1, 1 << self.sc.num_users)]
        return RateRegion(self.sc.num_users, np.stack(rows))


def max_weighted_rate(region: RateRegion, weights: Sequence[float], tie_break: bool = True):
    """Maximize sum_l w_l R_l over the region intersected with R >= 0, which
    depends only on each user set's tightest bound c_T = min_S b_{T,S}.

    Returns (value, rates) or (0.0, zeros) when the region collapses to the
    origin or is empty; every c_T is finite or -inf (``RateRegion``), so
    the optimum is finite.  Tie rule: among points within TIE_SLACK
    of the optimal value, take the largest total rate, so zero-weight users
    land on the boundary; two users choose among corners only, then by the
    larger R_1.  Two users: the region is the polygon R_1 <= c_1,
    R_2 <= c_2, R_1 + R_2 <= c_12, and the rates are one of its corners,
    exactly.  Three or more: c_T is not always submodular, so two HiGHS LPs
    over the c_T rows solve it, holding them to LP_FEAS_TOL, well inside
    TIE_SLACK and MEMBERSHIP_TOL; without ``tie_break`` only the first runs
    and its optimum is the rates.  Raises ArithmeticError when an LP solve
    fails: a numeric failure, not an empty region.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (region.num_users,):
        raise ValueError("weight vector length must equal the number of users")
    c = region.bounds.min(axis=1)
    if np.any(c < 0):
        return 0.0, np.zeros(region.num_users)
    if region.num_users == 2:
        c1, c2, c12 = c.tolist()
        m1, m2 = min(c1, c12), min(c2, c12)
        corners = np.array([[0.0, 0.0], [m1, 0.0], [m1, min(c2, c12 - m1)],
                            [min(c1, c12 - m2), m2], [0.0, m2]])
        # totals as exact expressions, so rounding in c12 - m1 cannot break a tie
        totals = np.array([0.0, m1, min(m1 + c2, c12), min(c1 + m2, c12), m2])
        values = corners @ w
        best = float(values.max())
        tied = np.flatnonzero(values >= best - TIE_SLACK)
        pick = max(tied, key=lambda i: (totals[i], corners[i, 0]))
        return best + 0.0, corners[pick] + 0.0  # an optimum of 0 is +0.0, never -0.0

    from scipy.optimize import linprog

    tols = {"primal_feasibility_tolerance": LP_FEAS_TOL, "dual_feasibility_tolerance": LP_FEAS_TOL}
    a_ub, b_ub = user_sets(region.num_users), c
    res = linprog(-w, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs", options=tols)
    if not res.success:
        raise ArithmeticError(f"weighted-rate LP failed: {res.message}")
    best = float(-res.fun) + 0.0  # an optimum of 0 is +0.0, never -0.0
    if not tie_break:
        return best, np.clip(res.x, 0.0, None)
    # second stage: push the remaining slack onto zero-weight users
    res2 = linprog(
        -np.ones(region.num_users),
        A_ub=np.vstack([a_ub, -w[None, :]]),
        b_ub=np.append(b_ub, -(best - TIE_SLACK)),
        bounds=(0, None),
        method="highs",
        options=tols,
    )
    if not res2.success:
        raise ArithmeticError(f"weighted-rate tie-break LP failed: {res2.message}")
    return best, np.clip(res2.x, 0.0, None)


@dataclass(frozen=True)
class Scenario:
    """Base network description: L users, K relays, fronthaul capacities C_k
    (bits per channel use), and a time-sharing pmf over a finite alphabet Q.

    Channel-specific payloads live in the subclasses
    :class:`ocran.gaussian.GaussianScenario` and
    :class:`ocran.discrete.DiscreteScenario`.
    """

    num_users: int
    num_relays: int
    fronthaul: tuple[float, ...]
    time_share: tuple[float, ...]

    def __post_init__(self):
        if self.num_users < 1 or self.num_relays < 1:
            raise ScenarioError("need num_users >= 1 and num_relays >= 1")
        if self.num_users + self.num_relays > MAX_SUBSET_BITS:
            raise CapacityError(f"L + K = {self.num_users + self.num_relays} exceeds the "
                                f"supported {MAX_SUBSET_BITS} subset bits")
        fh = tuple(float(c) for c in self.fronthaul)
        if len(fh) != self.num_relays:
            raise ScenarioError(f"fronthaul must have {self.num_relays} entries")
        check_finite(fh, "fronthaul")
        if any(c < 0 for c in fh):
            raise ScenarioError("fronthaul capacities must be nonnegative")
        object.__setattr__(self, "fronthaul", fh)
        object.__setattr__(self, "time_share",
                           tuple(pmf_table(self.time_share, "time_share", ("|Q|",)).tolist()))

    @property
    def num_timeshare(self) -> int:
        return len(self.time_share)


@dataclass(frozen=True)
class CodebookEnsemble:
    """Random codebook ensemble for one user: ceil(2^(n*rate)) codewords of
    length ``blocklength``, entries drawn independently from the input pmf
    conditioned on the position's time-share symbol.
    """

    rate: float
    blocklength: int
    input_pmf: np.ndarray  # (|Q|, |X|)
    time_seq: np.ndarray  # (blocklength,) ints into Q
    seed: int

    def __post_init__(self):
        if self.blocklength < 1:
            raise ScenarioError("blocklength must be positive")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ScenarioError("rate must be finite and nonnegative")
        pmf = pmf_table(self.input_pmf, "input_pmf", ("|Q|", "|X|"))
        seq = np.array(self.time_seq, dtype=np.int64, order="C")
        if seq.shape != (self.blocklength,):
            raise ScenarioError("time_seq length must equal blocklength")
        if np.any(seq < 0) or np.any(seq >= pmf.shape[0]):
            raise ScenarioError("time_seq entries out of range")
        # compared as exponents: 2^(n*rate) itself can overflow a float
        if self.blocklength * self.rate > math.log2(MAX_CODEWORDS):
            raise CapacityError(
                f"codebook would have 2^{self.blocklength * self.rate:g} codewords, "
                f"more than {MAX_CODEWORDS}"
            )
        seq.setflags(write=False)
        object.__setattr__(self, "input_pmf", pmf)
        object.__setattr__(self, "time_seq", seq)

    @property
    def num_codewords(self) -> int:
        return math.ceil(2.0 ** (self.blocklength * self.rate))


@dataclass(frozen=True)
class CodebookMarginal:
    """Per-position empirical codeword statistics from the random-codebook
    experiment: draw a fresh codebook, pick a uniform message, record the
    transmitted codeword.  ``tv`` holds one total-variation distance per
    position, against the single-letter input law at that position."""

    empirical: np.ndarray  # (n, |X|)
    target: np.ndarray  # (n, |X|)
    tv: np.ndarray  # (n,)


def sample_codebook_marginal(ens: CodebookEnsemble, trials: int) -> CodebookMarginal:
    """Monte Carlo check that a uniformly selected codeword from a fresh random
    codebook is distributed like the memoryless input law, per position."""
    if trials < 1:
        raise ScenarioError("trials must be positive")
    ncw, n = ens.num_codewords, ens.blocklength
    if (draws := n * trials * ncw) > MAX_SAMPLER_DRAWS:
        raise CapacityError(f"blocklength * trials * codewords = {draws} exceeds the sampler guard")
    alphabet = ens.input_pmf.shape[1]
    rng = np.random.default_rng(ens.seed)
    # message index is uniform and independent of the codebook contents
    messages = rng.integers(ncw, size=trials)
    # Each position's (trials, ncw) codebook is drawn in blocks of whole
    # trials; consecutive blocks consume the generator's uniforms in the
    # order of one (trials, ncw) draw, so the letters are the same.  Only
    # the sent codeword's uniforms become letters, by the inverse cdf that
    # Generator.choice(alphabet, p=p) applies to every one of them.
    rows = max(1, SAMPLER_BLOCK // ncw)
    empirical = np.empty((n, alphabet))
    target = np.empty((n, alphabet))
    for i in range(n):
        p = ens.input_pmf[ens.time_seq[i]]
        cdf = p.cumsum()
        cdf /= cdf[-1]
        counts = np.zeros(alphabet, dtype=np.int64)
        for start in range(0, trials, rows):
            sent = messages[start:start + rows]
            block = rng.random((sent.size, ncw))
            letters = cdf.searchsorted(block[np.arange(sent.size), sent], side="right")
            counts += np.bincount(letters, minlength=alphabet)
        empirical[i] = counts / trials
        target[i] = p
    tv = 0.5 * np.abs(empirical - target).sum(axis=1)
    return CodebookMarginal(empirical=empirical, target=target, tv=tv)


# ---------------------------------------------------------------------------
# scenario and quantizer files (canonical, versioned JSON)
# ---------------------------------------------------------------------------
# The only code that reads either document; of the two, it writes only the
# quantizer document.
#
# {
#   "schema": 1,
#   "users": L, "relays": K,
#   "fronthaul": [C_1, ..., C_K],          # bits
#   "time_share": [p(q) ...],
#   "channel": {"kind": "gaussian" | "discrete", ...payload...}
# }
#
# Gaussian payload: "H" is a K x L nested list of row-major complex matrices
# (entries are [re, im] pairs), "Sigma" K Hermitian noise covariances, "Kin"
# L input covariances, "power" L per-user trace budgets.
#
# Discrete payload: "alphabets" holds {"X": [...], "Y": [...]}; "px" is L
# tables of shape |Q| x |X_l|; "channel" is the conditional law
# p(y_1..y_K | x_1..x_L) flattened row-major with axis order
# (Y_1, ..., Y_K, X_1, ..., X_L); optional "aux" is K tables of shape
# |Q| x |Y_k| x |U_k|.
#
# A quantizer file is {"B": [K complex matrices]} for a Gaussian scenario
# or {"aux": [K tables]} for a discrete one; optimize's "quantizers" block
# is one.  One converter reads each kind of JSON value and names its field:
# a value of the wrong type is a ScenarioError, a numeric string converts.


def _field(doc, key: str, where: str = ""):
    """doc[key]; ``where`` + key names the field, ``where`` less its separator the object."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where.rstrip('.: ') or 'top level'}: must be a JSON object")
    if key not in doc:
        raise ScenarioError(f"{where}{key}: missing required field")
    return doc[key]


def _items(value, name: str, convert) -> tuple:
    """``convert`` of each entry of the JSON list ``value``, named ``name``[1], [2], ..."""
    if not isinstance(value, list):
        raise ScenarioError(f"{name}: must be a list")
    return tuple(convert(v, f"{name}[{i}]") for i, v in enumerate(value, start=1))


def _numbers(value, name: str, dtype=float, vector: bool = False) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: must be numbers ({exc})") from exc
    if vector and arr.ndim != 1:
        raise ScenarioError(f"{name}: must be a list of numbers")
    return arr


def _sizes(value, name: str) -> tuple:
    """The alphabet sizes of the JSON list ``value``; a fractional entry,
    which an integer conversion would truncate, or one below 1 is a
    ScenarioError."""
    sizes = _numbers(value, name, int, vector=True)
    if not np.array_equal(sizes, _numbers(value, name, vector=True)):
        raise ScenarioError(f"{name}: must be integers")
    if (sizes < 1).any():
        raise ScenarioError(f"{name}: must be positive integers")
    return tuple(sizes.tolist())


def _complex_matrix(rows, name: str) -> np.ndarray:
    """A row-major complex matrix of [re, im] pairs."""
    arr = _numbers(rows, name)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ScenarioError(f"{name}: entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_json(matrices) -> list:
    return [[[[float(v.real), float(v.imag)] for v in row] for row in m] for m in matrices]


def _read_json(path):
    """The JSON document in file ``path``, parsed as strict JSON (RFC 8259)
    by orjson: ``NaN``, ``Infinity``, a number beyond a double's range, an
    unpaired surrogate escape or a byte order mark fails the parse.  A
    failed read names the path."""
    try:
        with open(path, "rb") as fh:
            return orjson.loads(fh.read())
    except (OSError, ValueError) as exc:  # bad JSON, encoding or nesting
        raise ScenarioError(f"{path}: not a readable JSON file ({exc})") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated scenario from a parsed canonical JSON document."""
    from .discrete import DiscreteScenario
    from .gaussian import GaussianScenario

    if _field(doc, "schema") != 1:
        raise ScenarioError(f"schema: unsupported version {doc['schema']!r}")
    for key in ("users", "relays"):
        if type(_field(doc, key)) is not int:
            raise ScenarioError(f"{key}: must be an integer")
    common = dict(num_users=doc["users"], num_relays=doc["relays"],
                  **{key: _numbers(_field(doc, key), key, vector=True)
                     for key in ("fronthaul", "time_share")})
    payload = functools.partial(_field, _field(doc, "channel"), where="channel.")
    kind = payload("kind")
    if kind == "gaussian":
        return GaussianScenario(
            H=_items(payload("H"), "channel.H", functools.partial(_items, convert=_complex_matrix)),
            Sigma=_items(payload("Sigma"), "channel.Sigma", _complex_matrix),
            Kin=_items(payload("Kin"), "channel.Kin", _complex_matrix),
            power=_numbers(payload("power"), "channel.power", vector=True), **common)
    if kind != "discrete":
        raise ScenarioError(f"channel.kind: unknown kind {kind!r}")
    alphabets = payload("alphabets")
    x_sizes, y_sizes = (_sizes(_field(alphabets, a, "channel.alphabets."), f"channel.alphabets.{a}")
                        for a in "XY")
    flat = _numbers(payload("channel"), "channel.channel", vector=True)
    if flat.size != int(np.prod(y_sizes)) * int(np.prod(x_sizes)):
        raise ScenarioError("channel.channel: length does not match alphabets")
    # wire order is (Y_1..Y_K, X_1..X_L) row-major; internal order puts X first
    k, l = len(y_sizes), len(x_sizes)
    tensor = np.moveaxis(flat.reshape(y_sizes + x_sizes), list(range(k)), list(range(l, l + k)))
    return DiscreteScenario(px=_items(payload("px"), "channel.px", _numbers),
                            channel=np.ascontiguousarray(tensor), **common)


def quantizers_from_dict(doc, sc: Scenario, where: str = ""):
    """The quantizers of scenario ``sc`` in a parsed quantizer document whose
    fields are named ``where`` + field: ``QuantizerSetGaussian`` or
    ``AuxChannels``, which their consumer checks against ``sc``."""
    from .discrete import AuxChannels, DiscreteScenario
    from .gaussian import QuantizerSetGaussian

    if isinstance(sc, DiscreteScenario):
        return AuxChannels(tables=_items(_field(doc, "aux", where), where + "aux", _numbers))
    return QuantizerSetGaussian(B=_items(_field(doc, "B", where), where + "B", _complex_matrix))


def quantizers_to_dict(q) -> dict:
    """The quantizer document of Gaussian quantizers or discrete aux tables."""
    from .discrete import AuxChannels

    if isinstance(q, AuxChannels):
        return {"aux": [t.tolist() for t in q.tables]}
    return {"B": _complex_json(q.B)}


def load_scenario(path, with_aux: bool = False):
    """Load and validate a scenario file (schema above).  With ``with_aux``,
    return the pair (scenario, its embedded discrete quantization tables as
    ``AuxChannels``, or None), from one read of the file."""
    doc = _read_json(path)
    sc = scenario_from_dict(doc)
    if not with_aux:
        return sc
    channel = doc["channel"]
    embedded = channel["kind"] == "discrete" and "aux" in channel
    return sc, quantizers_from_dict(channel, sc, "channel.") if embedded else None


def load_quantizers(path, sc: Scenario):
    """Load the quantizers of scenario ``sc`` from a quantizer file."""
    return quantizers_from_dict(_read_json(path), sc, f"{path}: ")


def scenario_sha256(sc: Scenario) -> str:
    """Content hash of a scenario (used in run manifests).  It feeds SHA-256
    each dataclass field's name in field order, then each numeric leaf of
    the field (nested tuples walked in order) as its dtype, its shape and
    its C-order little-endian float64 or complex128 bytes.  Equal content
    gives equal hashes, however the file that held it was formatted."""
    digest = hashlib.sha256()
    for f in fields(sc):
        digest.update(f.name.encode("ascii"))
        for leaf in _numeric_leaves(getattr(sc, f.name)):
            a = np.ascontiguousarray(leaf, dtype="<c16" if np.iscomplexobj(leaf) else "<f8")
            digest.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
            digest.update(a.tobytes())
    return digest.hexdigest()


def _numeric_leaves(value):
    """The arrays and numbers of a field value; a tuple that holds arrays or
    tuples is walked, any other value is one leaf."""
    if isinstance(value, tuple) and any(isinstance(v, (tuple, np.ndarray)) for v in value):
        for v in value:
            yield from _numeric_leaves(v)
    else:
        yield value


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Derive independent child seeds from a master seed.

    This is the one seed-splitting rule in the package: child i of master s is
    ``SeedSequence(s).spawn(count)[i]`` reduced to a 64-bit state word.  One
    parent spawns them SPAWN_CHUNK at a time; it counts the children it has
    spawned, so the chunks continue one another.
    """
    parent = np.random.SeedSequence(master_seed)
    chunks = (parent.spawn(min(SPAWN_CHUNK, count - i)) for i in range(0, count, SPAWN_CHUNK))
    return [int(c.generate_state(1, np.uint64)[0]) for chunk in chunks for c in chunk]
