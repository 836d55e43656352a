"""Sum-rate layer: joint-decoding sum-rate, the supermodular set function
behind the fronthaul polytope, its per-ordering extreme points, and the
time-shared successive Wyner-Ziv scheme that dominates each extreme point.

Every function takes the evaluator ``ev`` of one (scenario, quantizer) pair,
a ``core.Evaluator`` of either scenario kind, and forms its subset bounds
b_S = ``ev.subset_bounds()`` at most once per call: g(S) = R_sum + C_S - b_S
is one vector and I(U_all; X_all | Q) is b_{}.  One walk over chain orderings
forms g, refuses an empty polytope once (R_sum above its cap, then an
infinite g) and gives each ordering's extreme point or dominating scheme.
The Wyner-Ziv rates are differences of the 2^K entropies H(U_m, Q) and
H(U_m, X_all, Q) that the bounds already took, so this layer computes no
entropy of its own.

Ordering convention
-------------------

A *chain ordering* pi builds prefixes {pi(1)}, {pi(1),pi(2)}, ... of the set
function g; extreme points and the dominance construction use it, and the
successive scheme decodes along the chain reversed (the last relay of the
chain is decompressed first).

All rates are in bits.  K! enumerations keep lexicographic order so reported
tie-breaks are deterministic.  Bad input raises ``ScenarioError``, and an
enumeration beyond its size guard ``CapacityError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import CapacityError, Evaluator, ScenarioError, mask_of, subset_sums
from .discrete import _nonnegative

INVARIANT_TOL = 1e-9
ALPHA_DENOM_TOL = 1e-12
# a prefix g within PIVOT_TOL of 0 counts as 0: where g is 0 in exact
# arithmetic (a relay with |U_k| = 1 early in the chain, or R_sum = I(U; X)),
# rounding must not decide the pivot or turn 1e-16 into an idle share
PIVOT_TOL = 1e-12
# the command of each K! enumeration: the largest K it takes and its
# refusal, which the CLI makes before it builds an evaluator
ORDERING_GUARDS = {"extreme-points": (6, "extreme-points enumerates K! orderings"),
                   "swz-check": (8, "all-orderings comparison is factorial")}


def check_orderings(command: str, num_relays: int) -> None:
    limit, what = ORDERING_GUARDS[command]
    if num_relays > limit:
        raise CapacityError(f"{what}; K <= {limit} required")


def _polytope(ev: Evaluator, r_sum=None) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(b_S, the joint-decoding sum-rate, R_sum, g) from one formation of
    the subset bounds b_S.  The sum-rate is min_S b_S floored at 0; R_sum is
    ``r_sum``, which must be finite and nonnegative, or, when that is None,
    the sum-rate; and
    g(S) = R_sum + C_S - b_S for every relay set S, indexed by bitmask, so
    g({}) = R_sum - I(U_all; X_all | Q)."""
    bounds = ev.subset_bounds()
    jd = jd_sum_rate(ev)
    r = jd if r_sum is None else float(r_sum)
    if not math.isfinite(r):  # every comparison against NaN or +-inf is vacuous
        raise ScenarioError(f"r_sum must be finite, got {r_sum!r}")
    if r < 0.0:
        raise ScenarioError(f"r_sum must be nonnegative, got {r_sum!r}")
    return bounds, jd, r, r + subset_sums(np.asarray(ev.sc.fronthaul)) - bounds


def _finite(g: np.ndarray) -> np.ndarray:
    """g, which defines a nonempty fronthaul polytope only where it is
    finite: a Gaussian relay on B_k = Sigma_k^{-1} has an infinite fronthaul
    rate, so b_S = -inf and g(S) = +inf for every S that holds it."""
    if not np.isfinite(g).all():
        raise ScenarioError("a relay needs infinite fronthaul (B_k = Sigma_k^-1); "
                            "the fronthaul polytope is empty")
    return g


def jd_subset_bounds(ev: Evaluator) -> np.ndarray:
    """Per-relay-subset sum-rate bounds of joint decompression-decoding,
    indexed by subset bitmask:
    sum_{s in S} C_s - I(Y_S;U_S|X_all,U_{S^c},Q) + I(U_{S^c};X_all|Q),
    the thm3 bound at T = all users."""
    return ev.subset_bounds()


def jd_sum_rate(ev: Evaluator) -> float:
    """Largest sum-rate allowed by the joint-decompression-decoding bounds
    (the smallest subset bound), floored at 0."""
    return max(0.0, float(ev.subset_bounds().min()))


def extreme_point(ev: Evaluator, r_sum: float, ordering) -> np.ndarray:
    """Extreme point of the fronthaul polytope for one chain ordering:
    entry ordering[k-1] gets g+(first k) - g+(first k-1).

    The result is indexed by relay (position k-1 holds relay k's fronthaul)
    and telescopes to g+(all relays).  An r_sum above I(U_all; X_all | Q),
    beyond INVARIANT_TOL, raises ``ScenarioError``: the polytope is empty."""
    return next(_walk(ev, r_sum, [_check_ordering(ordering, ev.sc.num_relays)])[1])[1]


def extreme_points(ev: Evaluator,
                   r_sum: float | None = None) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(ordering, extreme_point(ev, r_sum, ordering))`` for every chain
    ordering, in lexicographic order, from one formation of the bounds.

    ``r_sum`` defaults to the joint-decoding sum-rate."""
    check_orderings("extreme-points", ev.sc.num_relays)
    return list(_walk(ev, r_sum, permutations(range(1, ev.sc.num_relays + 1)))[1])


def _walk(ev: Evaluator, r_sum: float | None, orderings, schemes: bool = False):
    """(R_sum, an iterator giving each of ``orderings`` as (pi, extreme
    point), or with ``schemes`` as its OrderingResult) at r_sum (None: the
    joint-decoding sum-rate).  R_sum is capped by b_{} = I(U; X | Q) for a
    point, as the S = {} row asks 0 >= g({}) = r_sum - b_{}, and by the
    joint-decoding sum-rate for a scheme."""
    bounds, jd, r_sum, g = _polytope(ev, r_sum)
    cap, name = ((jd, "the joint-decoding sum-rate") if schemes
                 else (float(bounds[0]), "I(U; X | Q) ="))
    if r_sum > cap + INVARIANT_TOL:
        raise ScenarioError(f"r_sum = {r_sum!r} exceeds {name} {cap!r}; "
                            "the fronthaul polytope is empty")
    _finite(g)
    chains = ((pi, [float(g[mask_of(pi[:k])]) for k in range(len(pi) + 1)]) for pi in orderings)
    if schemes:
        return r_sum, (_ordering_result(ev, chain, r_sum, pi) for pi, chain in chains)
    return r_sum, ((pi, _extreme_point(chain, pi)) for pi, chain in chains)


def _check_ordering(ordering, num_relays: int) -> tuple[int, ...]:
    # a fractional entry, which int() would truncate, reads as 0, no relay;
    # so do NaN and inf, which int() refuses with a ValueError or OverflowError
    pi = tuple(int(k) if float(k).is_integer() else 0 for k in ordering)
    if sorted(pi) != list(range(1, num_relays + 1)):
        raise ScenarioError(f"ordering must be a permutation of 1..{num_relays}")
    return pi


def _extreme_point(chain: list[float], pi: tuple[int, ...]) -> np.ndarray:
    """The extreme point of ordering pi from its prefix chain of g."""
    out = np.zeros(len(pi))
    for k in range(1, len(pi) + 1):
        inc = max(0.0, chain[k]) - max(0.0, chain[k - 1])
        if not inc >= -INVARIANT_TOL:
            raise ArithmeticError(f"g+ decreased along the chain at position {k} ({inc:.3e}); "
                                  "this contradicts the chain monotonicity of g")
        out[pi[k - 1] - 1] = max(0.0, inc)
    return out


def _wyner_ziv_rate(ev: Evaluator, relay: int, side) -> float:
    """I(U_k; Y_k | U_side, Q) of relay k given the codewords of the relays
    ``side``: H(U_side, U_k, Q) - H(U_side, Q) - H(U_k | Y_k, Q), from the
    evaluator's entropies H(U_m, Q).  Rounding dust down to
    -NEGATIVE_INFO_TOL reads 0; a more negative value raises."""
    h, m = ev.u_entropies(), mask_of(side)
    return _nonnegative(h[m | 1 << (relay - 1)] - h[m] - ev.h_u_given_y[relay - 1],
                        "Wyner-Ziv rate I(U_k; Y_k | U_side, Q)")


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


def swz_dominating_point(ev: Evaluator, r_sum: float, ordering) -> OrderingResult:
    """Time-shared successive Wyner-Ziv point dominating one extreme point.

    Requires r_sum <= jd_sum_rate(ev) (otherwise the fronthaul polytope
    is empty and the construction is meaningless); a larger r_sum, beyond
    INVARIANT_TOL, raises ``ScenarioError``, and so does an infinite g
    (``_finite``).  Relays before the pivot position stay silent; the pivot
    relay is active only a (1 - idle_fraction) share of the time; later
    chain relays are always active.  Decoding runs through the chain in
    reverse.
    """
    return next(_walk(ev, r_sum, [_check_ordering(ordering, ev.sc.num_relays)], schemes=True)[1])


def _ordering_result(ev: Evaluator, chain: list[float], r_sum: float, pi) -> OrderingResult:
    """Ordering pi's result from its prefix chain g({pi(1..k)}), k = 0..K."""
    kk = ev.sc.num_relays
    c_tilde = _extreme_point(chain, pi)
    pivot = next((k for k in range(1, kk + 1) if chain[k] > PIVOT_TOL), None)
    alpha, c_prime, r_bar = 1.0, np.zeros(kk), 0.0
    if pivot is not None:
        # per-relay description rates conditioned on the later chain relays
        for k in range(pivot, kk + 1):
            c_prime[pi[k - 1] - 1] = _wyner_ziv_rate(ev, pi[k - 1], pi[k:])
        denom = c_prime[pi[pivot - 1] - 1]
        g_before = chain[pivot - 1] if abs(chain[pivot - 1]) > PIVOT_TOL else 0.0
        alpha = 1.0 if denom < ALPHA_DENOM_TOL else min(1.0, max(0.0, -g_before / denom))
        c_prime[pi[pivot - 1] - 1] = (1.0 - alpha) * denom
        # I(X; U_A | Q) - alpha I(X; U_pivot | U_L, Q) with A the active relays
        # (the pivot and later) and L the later ones, in cmi's term order
        h, hx = ev.u_entropies(), ev.u_entropies((1 << ev.sc.num_users) - 1)
        active, later = mask_of(pi[pivot - 1:]), mask_of(pi[pivot:])
        i_active = _nonnegative(hx[0] + h[active] - hx[active] - h[0], "I(X; U_A | Q)")
        i_pivot = _nonnegative(hx[later] + h[active] - hx[active] - h[later],
                               "I(X; U_pivot | U_L, Q)")
        r_bar = i_active - alpha * i_pivot
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
    # each test is written so that a NaN fails it
    if not abs(res.extreme_point.sum() - g_plus_full) <= 1e-12 + 1e-12 * abs(g_plus_full):
        raise ArithmeticError("extreme point does not telescope to g+(all relays)")
    if not np.all(res.scheme_fronthaul <= res.extreme_point + INVARIANT_TOL):
        raise ArithmeticError("constructed scheme needs more fronthaul than the extreme point")
    if not res.scheme_sum_rate >= r_sum - INVARIANT_TOL:
        raise ArithmeticError(f"constructed scheme sum-rate {res.scheme_sum_rate!r} fell below "
                              f"the target {r_sum!r}")


@dataclass(frozen=True)
class SumRateComparison:
    """Joint-decoding sum-rate vs. the best dominating successive scheme."""

    jd_sum_rate: float
    best_sum_rate: float
    best_ordering: tuple[int, ...]
    gap: float

    @property
    def equal(self) -> bool:
        return bool(self.gap <= INVARIANT_TOL)


def swz_equals_jd(ev: Evaluator) -> SumRateComparison:
    """Compare the joint-decoding sum-rate against the best time-shared
    successive Wyner-Ziv construction over all K! chain orderings.

    The gap jd - best is expected to be <= 1e-9 (the construction dominates);
    ties between orderings resolve to the lexicographically smallest.  Only
    the running best is kept; ``swz_dominating_point`` gives any one
    ordering's result."""
    check_orderings("swz-check", ev.sc.num_relays)
    target, results = _walk(ev, None, permutations(range(1, ev.sc.num_relays + 1)), schemes=True)
    best, best_pi = -math.inf, None
    for res in results:
        if res.scheme_sum_rate > best + INVARIANT_TOL:
            best, best_pi = res.scheme_sum_rate, res.ordering
    return SumRateComparison(jd_sum_rate=target, best_sum_rate=best,
                             best_ordering=best_pi, gap=float(target - best))
