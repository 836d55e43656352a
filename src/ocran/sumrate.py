"""Sum-rate layer: joint-decoding sum-rate, the supermodular set function
behind the fronthaul polytope, its per-ordering extreme points, and the
time-shared successive Wyner-Ziv scheme that dominates each extreme point.

Ordering conventions
--------------------

Two permutations of the relays appear and they are *not* the same object:

* a *chain ordering* pi builds prefixes {pi(1)}, {pi(1),pi(2)}, ... of the
  set function g; extreme points and the dominance construction use it, and
  the matching decode order of the successive scheme is pi reversed
  (the last relay of the chain is decompressed first);
* a *decode ordering* as taken by :func:`swz_required_fronthaul` lists relays
  in the order their quantization codewords are recovered, each with all
  previously recovered codewords as side information.

All rates are in bits.  K! enumerations keep lexicographic order so reported
tie-breaks are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import indices_of
from .discrete import AuxChannels, DiscreteEvaluator, DiscreteScenario, cmi, user_axis

INVARIANT_TOL = 1e-9
ALPHA_DENOM_TOL = 1e-12
# a prefix g within PIVOT_TOL of 0 counts as 0: where g is 0 in exact
# arithmetic (a relay with |U_k| = 1 early in the chain, or R_sum = I(U; X)),
# rounding must not decide the pivot or turn 1e-16 into an idle share
PIVOT_TOL = 1e-12


def _check_r_sum(r_sum) -> float:
    """r_sum as a float; NaN and +-inf are rejected, since every comparison
    against them is vacuous."""
    r = float(r_sum)
    if not math.isfinite(r):
        raise ValueError(f"r_sum must be finite, got {r_sum!r}")
    return r


def jd_subset_bounds(sc: DiscreteScenario, aux: AuxChannels) -> np.ndarray:
    """Per-relay-subset sum-rate bounds of joint decompression-decoding,
    indexed by subset bitmask:
    sum_{s in S} C_s - I(Y_S;U_S|X_all,U_{S^c},Q) + I(U_{S^c};X_all|Q),
    the thm3 bound at T = all users."""
    return DiscreteEvaluator.from_aux(sc, aux).subset_bounds()


def jd_sum_rate(sc: DiscreteScenario, aux: AuxChannels) -> float:
    """Largest sum-rate allowed by the joint-decompression-decoding bounds
    (the smallest subset bound), floored at 0."""
    return _jd_sum_rate(DiscreteEvaluator.from_aux(sc, aux))


def _jd_sum_rate(info: DiscreteEvaluator) -> float:
    return max(0.0, float(info.subset_bounds().min()))


def sd_achievable(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float, tol: float = INVARIANT_TOL
) -> bool:
    """Feasibility of separate decompression-then-decoding at sum-rate r_sum:
    r_sum <= I(X_all; U_all | Q) and, for every relay subset S,
    sum_{s in S} C_s >= I(U_S; Y_S | U_{S^c}, Q).

    The propositions' strict inequalities are tested non-strictly with
    tolerance ``tol`` because achievable regions are closures."""
    r_sum = _check_r_sum(r_sum)
    info = DiscreteEvaluator.from_aux(sc, aux)
    if r_sum > info.i_ux + tol:
        return False
    for s_mask in range(1, 1 << sc.num_relays):
        s = indices_of(s_mask)
        c_sum = sum(sc.fronthaul[k - 1] for k in s)
        if c_sum < info.i_uy_given_uc(s) - tol:
            return False
    return True


def g_function(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float, relays, positive_part: bool = False
) -> float:
    """Set function g(S) = R_sum + I(U_S;Y_S|U_{S^c},Q) - I(U_all;X_all|Q).

    With ``positive_part`` the value is floored at 0 (the form that defines
    the fronthaul polytope)."""
    val = DiscreteEvaluator.from_aux(sc, aux).g(_check_r_sum(r_sum), relays)
    return max(0.0, val) if positive_part else val


def check_supermodular(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float
) -> tuple[bool, float]:
    """Exhaustively verify supermodularity of max(g, 0):
    g+(S+i+j) + g+(S) >= g+(S+i) + g+(S+j) for all S and i != j outside S.

    Returns (all inequalities hold within 1e-10, worst slack)."""
    kk = sc.num_relays
    if kk > 12:
        raise ValueError("supermodularity check is exhaustive; K <= 12 required")
    r_sum = _check_r_sum(r_sum)
    info = DiscreteEvaluator.from_aux(sc, aux)
    gp = {}
    for mask in range(1 << kk):
        gp[mask] = max(0.0, info.g(r_sum, indices_of(mask)))
    worst = math.inf
    for mask in range(1 << kk):
        outside = [i for i in range(kk) if not (mask >> i) & 1]
        for a in range(len(outside)):
            for b in range(a + 1, len(outside)):
                i, j = 1 << outside[a], 1 << outside[b]
                slack = gp[mask | i | j] + gp[mask] - gp[mask | i] - gp[mask | j]
                worst = min(worst, slack)
    if math.isinf(worst):
        worst = 0.0  # K = 1: nothing to check
    return worst >= -1e-10, worst


def extreme_point(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float, ordering
) -> np.ndarray:
    """Extreme point of the fronthaul polytope for one chain ordering:
    entry ordering[k-1] gets g+(first k) - g+(first k-1).

    The result is indexed by relay (position k-1 holds relay k's fronthaul)
    and telescopes to g+(all relays).  An r_sum above I(U_all; X_all | Q),
    beyond INVARIANT_TOL, raises ``ValueError``: the polytope is empty."""
    r_sum = _check_r_sum(r_sum)
    pi = _check_ordering(ordering, sc.num_relays)
    info = DiscreteEvaluator.from_aux(sc, aux)
    return _extreme_point(_chain_g(info, _check_polytope(info, r_sum), pi), pi)


def extreme_points(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float | None = None
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(ordering, extreme_point(sc, aux, r_sum, ordering))`` for every
    chain ordering, in lexicographic order, from one joint.

    ``r_sum`` defaults to the joint-decoding sum-rate."""
    info = DiscreteEvaluator.from_aux(sc, aux)
    r_sum = _jd_sum_rate(info) if r_sum is None else _check_polytope(info, _check_r_sum(r_sum))
    return [
        (pi, _extreme_point(_chain_g(info, r_sum, pi), pi))
        for pi in permutations(range(1, sc.num_relays + 1))
    ]


def _check_polytope(info: DiscreteEvaluator, r_sum: float) -> float:
    """r_sum, once it is at most I(U_all; X_all | Q) within INVARIANT_TOL.
    Above that the S = {} row of the fronthaul polytope asks for
    0 >= g({}) = r_sum - I(U_all; X_all | Q) > 0, so the polytope is empty."""
    if r_sum > info.i_ux + INVARIANT_TOL:
        raise ValueError(f"r_sum = {r_sum!r} exceeds I(U; X | Q) = {info.i_ux!r}; "
                         "the fronthaul polytope is empty")
    return r_sum


def _check_ordering(ordering, num_relays: int) -> tuple[int, ...]:
    pi = tuple(int(k) for k in ordering)
    if sorted(pi) != list(range(1, num_relays + 1)):
        raise ValueError(f"ordering must be a permutation of 1..{num_relays}")
    return pi


def _chain_g(info: DiscreteEvaluator, r_sum: float, pi: tuple[int, ...]) -> list[float]:
    """g along the prefix chain of pi: entry k is g({pi(1..k)}), entry 0 is g(empty)."""
    return [info.g(r_sum, pi[:k]) for k in range(len(pi) + 1)]


def _extreme_point(chain: list[float], pi: tuple[int, ...]) -> np.ndarray:
    """The extreme point of ordering pi from its prefix chain of g."""
    out = np.zeros(len(pi))
    for k in range(1, len(pi) + 1):
        inc = max(0.0, chain[k]) - max(0.0, chain[k - 1])
        if inc < -INVARIANT_TOL:
            raise ArithmeticError(
                f"g+ decreased along the chain at position {k} ({inc:.3e}); "
                "this contradicts the chain monotonicity of g"
            )
        out[pi[k - 1] - 1] = max(0.0, inc)
    return out


def swz_required_fronthaul(
    sc: DiscreteScenario, aux: AuxChannels, ordering
) -> tuple[np.ndarray, float]:
    """Fronthaul needed by plain successive Wyner-Ziv decoding in the given
    decode order: relay pi(k) needs I(U_{pi(k)}; Y_{pi(k)} | U_{pi(1..k-1)}, Q).

    Returns (per-relay requirements indexed by relay, successive-decoding
    sum-rate sum_l I(X_l; U_all | X_1..X_{l-1}, Q))."""
    pi = _check_ordering(ordering, sc.num_relays)
    info = DiscreteEvaluator.from_aux(sc, aux)
    req = np.zeros(sc.num_relays)
    for k in range(1, sc.num_relays + 1):
        req[pi[k - 1] - 1] = info.i_uy((pi[k - 1],), info.u(pi[: k - 1]))
    total = 0.0
    for l in range(1, sc.num_users + 1):
        decoded = frozenset(user_axis(i) for i in range(1, l))
        total += cmi(info.joint, {user_axis(l)}, info.u_all, decoded | {"Q"})
    return req, total


@dataclass(frozen=True)
class OrderingResult:
    """One chain ordering's extreme point and the successive scheme that
    dominates it.

    ``pivot_index`` is the 1-based position in the chain where the prefix g
    first exceeds PIVOT_TOL (None when it never does); ``idle_fraction`` is the
    share of time the pivot relay stays silent in the time-shared scheme;
    ``scheme_fronthaul``/``scheme_sum_rate`` describe the constructed
    operating point.  Fronthaul vectors are indexed by relay, not by chain
    position."""

    ordering: tuple[int, ...]
    extreme_point: np.ndarray
    pivot_index: int | None
    idle_fraction: float
    scheme_fronthaul: np.ndarray
    scheme_sum_rate: float


def swz_dominating_point(
    sc: DiscreteScenario, aux: AuxChannels, r_sum: float, ordering
) -> OrderingResult:
    """Time-shared successive Wyner-Ziv point dominating one extreme point.

    Requires r_sum <= jd_sum_rate(sc, aux) (otherwise the fronthaul polytope
    is empty and the construction is meaningless); a larger r_sum, beyond
    INVARIANT_TOL, raises ``ValueError``.  Relays before the pivot position
    stay silent; the pivot relay is active only a (1 - idle_fraction) share
    of the time; later chain relays are always active.  Decoding runs through
    the chain in reverse.
    """
    r_sum = _check_r_sum(r_sum)
    pi = _check_ordering(ordering, sc.num_relays)
    info = DiscreteEvaluator.from_aux(sc, aux)
    jd = _jd_sum_rate(info)
    if r_sum > jd + INVARIANT_TOL:
        raise ValueError(
            f"r_sum = {r_sum!r} exceeds the joint-decoding sum-rate {jd!r}; "
            "the fronthaul polytope is empty"
        )
    return _swz_dominating_point(info, r_sum, pi)


def _swz_dominating_point(info: DiscreteEvaluator, r_sum: float, pi: tuple[int, ...]) -> OrderingResult:
    kk = info.sc.num_relays
    chain = _chain_g(info, r_sum, pi)
    c_tilde = _extreme_point(chain, pi)

    pivot = next((k for k in range(1, kk + 1) if chain[k] > PIVOT_TOL), None)
    c_prime = np.zeros(kk)
    if pivot is None:
        result = OrderingResult(
            ordering=pi,
            extreme_point=c_tilde,
            pivot_index=None,
            idle_fraction=1.0,
            scheme_fronthaul=c_prime,
            scheme_sum_rate=0.0,
        )
    else:
        # per-relay description rates conditioned on the later chain relays
        cond_info = np.zeros(kk)
        for k in range(pivot, kk + 1):
            cond_info[k - 1] = info.i_uy((pi[k - 1],), info.u(pi[k:]))
        denom = cond_info[pivot - 1]
        g_before = chain[pivot - 1] if abs(chain[pivot - 1]) > PIVOT_TOL else 0.0
        alpha = 1.0 if denom < ALPHA_DENOM_TOL else min(1.0, max(0.0, -g_before / denom))
        for k in range(pivot, kk + 1):
            c_prime[pi[k - 1] - 1] = (1.0 - alpha) * denom if k == pivot else cond_info[k - 1]
        active = info.u(pi[pivot - 1:])
        later_than_pivot = info.u(pi[pivot:])
        r_bar = cmi(info.joint, info.x_all, active, {"Q"}) - alpha * cmi(
            info.joint, info.x_all, info.u(pi[pivot - 1:pivot]), later_than_pivot | {"Q"}
        )
        result = OrderingResult(
            ordering=pi,
            extreme_point=c_tilde,
            pivot_index=pivot,
            idle_fraction=float(alpha),
            scheme_fronthaul=c_prime,
            scheme_sum_rate=float(r_bar),
        )
    _check_ordering_result(result, r_sum, max(0.0, chain[kk]))
    return result


def _check_ordering_result(res: OrderingResult, r_sum: float, g_plus_full: float) -> None:
    if abs(res.extreme_point.sum() - g_plus_full) > 1e-12 + 1e-12 * abs(g_plus_full):
        raise ArithmeticError("extreme point does not telescope to g+(all relays)")
    if np.any(res.scheme_fronthaul > res.extreme_point + INVARIANT_TOL):
        raise ArithmeticError("constructed scheme needs more fronthaul than the extreme point")
    if res.scheme_sum_rate < r_sum - INVARIANT_TOL:
        raise ArithmeticError(
            f"constructed scheme sum-rate {res.scheme_sum_rate!r} fell below "
            f"the target {r_sum!r}"
        )


@dataclass(frozen=True)
class SumRateComparison:
    """Joint-decoding sum-rate vs. the best dominating successive scheme."""

    jd_sum_rate: float
    best_sum_rate: float
    best_ordering: tuple[int, ...]
    gap: float
    results: tuple[OrderingResult, ...]

    @property
    def equal(self) -> bool:
        return bool(self.gap <= INVARIANT_TOL)


def swz_equals_jd(sc: DiscreteScenario, aux: AuxChannels) -> SumRateComparison:
    """Compare the joint-decoding sum-rate against the best time-shared
    successive Wyner-Ziv construction over all K! chain orderings.

    The gap jd - best is expected to be <= 1e-9 (the construction dominates);
    ties between orderings resolve to the lexicographically smallest."""
    if sc.num_relays > 8:
        raise ValueError("all-orderings comparison is factorial; K <= 8 required")
    info = DiscreteEvaluator.from_aux(sc, aux)
    target = _jd_sum_rate(info)
    results = []
    best = -math.inf
    best_pi = None
    for pi in permutations(range(1, sc.num_relays + 1)):
        res = _swz_dominating_point(info, target, pi)
        results.append(res)
        if res.scheme_sum_rate > best + INVARIANT_TOL:
            best = res.scheme_sum_rate
            best_pi = pi
    return SumRateComparison(
        jd_sum_rate=target,
        best_sum_rate=best,
        best_ordering=best_pi,
        gap=float(target - best),
        results=tuple(results),
    )
