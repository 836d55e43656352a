"""Network scenarios, subset algebra, rate regions, and the randomized
codebook sampler.

Conventions used throughout the package:

* rates and fronthaul capacities are in bits per channel use (base-2 logs);
* users are numbered 1..L and relays 1..K; bitmask encodings put index 1 on
  the least significant bit, so masks in CSV output are stable;
* every stochastic operation takes an explicit integer seed and is
  bit-reproducible for a fixed seed (one generator, ``numpy`` PCG64, with
  per-task seeds derived via ``SeedSequence.spawn``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PMF_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
LP_FEAS_TOL = 1e-10  # HiGHS primal and dual feasibility tolerance of the weighted-rate LPs

# enumerate_constraint_pairs materializes (2^L - 1) * 2^K pairs; beyond this
# combined size the list itself is the problem, not the numerics.
MAX_SUBSET_BITS = 24

# cap on trials * codewords per position in the codebook sampler
MAX_SAMPLER_DRAWS = 50_000_000
MAX_CODEWORDS = 1 << 20


class ScenarioError(ValueError):
    """A scenario file or scenario object violates the schema or an invariant."""


class CapacityError(ValueError):
    """A request exceeds the size guards of this desk-scale implementation."""


def check_finite(values, name: str) -> None:
    """Reject NaN and +-inf in numeric input.  Every later range check compares
    against numbers, and a comparison with NaN is always false."""
    if not np.isfinite(values).all():
        raise ScenarioError(f"{name} must be finite (no NaN or infinity)")


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
    def t_mask(self) -> int:
        return mask_of(self.users)

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


@dataclass(frozen=True)
class RateRegion:
    """A finite list of linear constraints sum_{t in T} R_t <= bound.

    Bounds may be negative (the region is then empty once intersected with
    the nonnegative orthant); membership always intersects with the orthant
    implicitly through the caller supplying nonnegative rates.
    """

    num_users: int
    constraints: tuple[tuple[SubsetPair, float], ...]

    def contains(self, rates: Sequence[float], tol: float = MEMBERSHIP_TOL) -> bool:
        r = np.asarray(rates, dtype=float)
        if r.shape != (self.num_users,):
            raise ValueError(f"expected {self.num_users} rates, got shape {r.shape}")
        for pair, bound in self.constraints:
            if sum(r[t - 1] for t in pair.users) > bound + tol:
                return False
        return True

    def sum_rate_bound(self) -> float:
        """Tightest bound on the total rate (full user set), floored at 0."""
        full = tuple(range(1, self.num_users + 1))
        vals = [b for pair, b in self.constraints if pair.users == full]
        return max(0.0, min(vals)) if vals else math.inf

    def max_user_rate(self, user: int) -> float:
        """Largest rate of one user with all other rates at zero, floored at 0."""
        vals = [b for pair, b in self.constraints if user in pair.users]
        return max(0.0, min(vals)) if vals else math.inf

    def csv_rows(self) -> list[tuple[int, int, float]]:
        return [(p.t_mask, p.s_mask, b) for p, b in self.constraints]


def max_weighted_rate(region: RateRegion, weights: Sequence[float]):
    """Maximize sum_l w_l R_l over the region intersected with R >= 0.

    Returns (value, rates) or (0.0, zeros) when the region collapses to the
    origin or is empty.  Pareto tie-break: among weighted-optimal points the
    total rate is maximized, so zero-weight coordinates land on the boundary.
    Raises ArithmeticError when either LP solve fails: that is a numeric
    failure, not an empty region.  Both solves hold their rows to
    LP_FEAS_TOL, well inside the tie-break's slack and MEMBERSHIP_TOL.
    """
    from scipy.optimize import linprog

    tols = {"primal_feasibility_tolerance": LP_FEAS_TOL, "dual_feasibility_tolerance": LP_FEAS_TOL}

    w = np.asarray(weights, dtype=float)
    if w.shape != (region.num_users,):
        raise ValueError("weight vector length must equal the number of users")
    a_ub, b_ub = [], []
    for pair, bound in region.constraints:
        if not math.isfinite(bound) and bound > 0:
            continue
        row = np.zeros(region.num_users)
        for t in pair.users:
            row[t - 1] = 1.0
        a_ub.append(row)
        b_ub.append(bound)
    if not a_ub:
        return math.inf, np.full(region.num_users, math.inf)
    a_ub = np.asarray(a_ub)
    b_ub = np.asarray(b_ub)
    if np.any(b_ub < 0):
        return 0.0, np.zeros(region.num_users)
    res = linprog(-w, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs", options=tols)
    if not res.success:
        raise ArithmeticError(f"weighted-rate LP failed: {res.message}")
    best = float(-res.fun) + 0.0  # an optimum of 0 is +0.0, never -0.0
    # second stage: push the remaining slack onto zero-weight users
    res2 = linprog(
        -np.ones(region.num_users),
        A_ub=np.vstack([a_ub, -w[None, :]]),
        b_ub=np.append(b_ub, -(best - 1e-10)),
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
        fh = tuple(float(c) for c in self.fronthaul)
        if len(fh) != self.num_relays:
            raise ScenarioError(f"fronthaul must have {self.num_relays} entries")
        check_finite(fh, "fronthaul")
        if any(c < 0 for c in fh):
            raise ScenarioError("fronthaul capacities must be nonnegative")
        ts = tuple(float(p) for p in self.time_share)
        check_finite(ts, "time_share")
        if len(ts) < 1 or any(p < 0 for p in ts):
            raise ScenarioError("time_share must be a nonempty pmf")
        if abs(sum(ts) - 1.0) > PMF_TOL:
            raise ScenarioError(f"time_share sums to {sum(ts)!r}, not 1")
        object.__setattr__(self, "fronthaul", fh)
        object.__setattr__(self, "time_share", ts)

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
            raise ValueError("blocklength must be positive")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError("rate must be finite and nonnegative")
        pmf = np.array(self.input_pmf, dtype=float, order="C")
        if pmf.ndim != 2 or pmf.shape[1] < 1:
            raise ValueError("input_pmf must be a (|Q|, |X|) table")
        if np.any(pmf < 0) or np.max(np.abs(pmf.sum(axis=1) - 1.0)) > PMF_TOL:
            raise ValueError("input_pmf rows must be pmfs")
        seq = np.array(self.time_seq, dtype=np.int64, order="C")
        if seq.shape != (self.blocklength,):
            raise ValueError("time_seq length must equal blocklength")
        if np.any(seq < 0) or np.any(seq >= pmf.shape[0]):
            raise ValueError("time_seq entries out of range")
        # compared as exponents: 2^(n*rate) itself can overflow a float
        if self.blocklength * self.rate > math.log2(MAX_CODEWORDS):
            raise CapacityError(
                f"codebook would have 2^{self.blocklength * self.rate:g} codewords, "
                f"more than {MAX_CODEWORDS}"
            )
        pmf.setflags(write=False)
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
        raise ValueError("trials must be positive")
    ncw = ens.num_codewords
    if trials * ncw > MAX_SAMPLER_DRAWS:
        raise CapacityError(f"trials * codewords = {trials * ncw} exceeds the sampler guard")
    n = ens.blocklength
    alphabet = ens.input_pmf.shape[1]
    rng = np.random.default_rng(ens.seed)
    # message index is uniform and independent of the codebook contents
    messages = rng.integers(ncw, size=trials)
    empirical = np.empty((n, alphabet))
    target = np.empty((n, alphabet))
    for i in range(n):
        p = ens.input_pmf[ens.time_seq[i]]
        column = rng.choice(alphabet, size=(trials, ncw), p=p)
        chosen = column[np.arange(trials), messages]
        counts = np.bincount(chosen, minlength=alphabet).astype(float)
        empirical[i] = counts / trials
        target[i] = p
    tv = 0.5 * np.abs(empirical - target).sum(axis=1)
    return CodebookMarginal(empirical=empirical, target=target, tv=tv)


# ---------------------------------------------------------------------------
# scenario JSON schema (canonical, versioned)
# ---------------------------------------------------------------------------
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


def _complex_matrix_from_json(rows, name: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: malformed complex matrix") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ScenarioError(f"{name}: entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated scenario from a parsed canonical JSON document."""
    from . import discrete, gaussian

    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a JSON object")
    if doc.get("schema") != 1:
        raise ScenarioError(f"schema: unsupported version {doc.get('schema')!r}")
    for key in ("users", "relays", "fronthaul", "time_share", "channel"):
        if key not in doc:
            raise ScenarioError(f"{key}: missing required field")
    channel = doc["channel"]
    if not isinstance(channel, dict) or "kind" not in channel:
        raise ScenarioError("channel: must be an object with a 'kind' field")
    common = dict(
        num_users=doc["users"],
        num_relays=doc["relays"],
        fronthaul=doc["fronthaul"],
        time_share=doc["time_share"],
    )
    kind = channel["kind"]
    if kind == "gaussian":
        return gaussian.GaussianScenario.from_payload(channel, **common)
    if kind == "discrete":
        return discrete.DiscreteScenario.from_payload(channel, **common)
    raise ScenarioError(f"channel.kind: unknown kind {kind!r}")


def scenario_to_dict(sc: Scenario, aux=None) -> dict:
    payload = sc.channel_payload(aux) if aux is not None else sc.channel_payload()
    return {
        "schema": 1,
        "users": sc.num_users,
        "relays": sc.num_relays,
        "fronthaul": list(sc.fronthaul),
        "time_share": list(sc.time_share),
        "channel": payload,
    }


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file (schema above)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def save_scenario(sc: Scenario, path, aux=None) -> None:
    """Write the canonical JSON document; discrete quantization tables ride
    along in the channel payload when ``aux`` is given."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc, aux), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_aux_tables(path):
    """The quantization tables embedded in a discrete scenario file, as an
    AuxChannels, or None when the file carries none."""
    from .discrete import AuxChannels

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    tables = doc.get("channel", {}).get("aux") if isinstance(doc, dict) else None
    if tables is None:
        return None
    return AuxChannels(tables=tuple(np.asarray(t, dtype=float) for t in tables))


def scenario_sha256(sc: Scenario) -> str:
    """Content hash of the canonical serialization (used in run manifests)."""
    blob = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Derive independent child seeds from a master seed.

    This is the one seed-splitting rule in the package: child i of master s is
    ``SeedSequence(s).spawn(count)[i]`` reduced to a 64-bit state word.
    """
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]
