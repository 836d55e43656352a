"""Sum-rate layer: joint-decoding sum-rate, the supermodular set function
behind the fronthaul polytope, its per-ordering extreme points, and the
time-shared successive Wyner-Ziv scheme that dominates each extreme point.

Every function takes the evaluator ``ev`` of one (scenario, quantizer) pair,
a ``core.Evaluator`` of either scenario kind, and forms its subset bounds
b_S = ``ev.subset_bounds()`` at most once per call: g(S) = R_sum + C_S - b_S
is one vector and I(U_all; X_all | Q) is b_{}.  One walk over chain orderings
forms g, refuses an empty polytope once (R_sum above its cap, then an
infinite g) and gives the orderings' extreme points or dominating schemes,
ORDERING_BLOCK orderings to one array pass.  The Wyner-Ziv rates are
differences of the 2^K entropies H(U_m, Q) and H(U_m, X_all, Q) that the
bounds already took, so this layer computes no entropy of its own.

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
from itertools import islice, permutations

import numpy as np

from .core import CapacityError, Evaluator, ScenarioError, subset_sums
from .discrete import NEGATIVE_INFO_TOL, _nonnegative

INVARIANT_TOL = 1e-9
ALPHA_DENOM_TOL = 1e-12
# a prefix g within PIVOT_TOL of 0 counts as 0: where g is 0 in exact
# arithmetic (a relay with |U_k| = 1 early in the chain, or R_sum = I(U; X)),
# rounding must not decide the pivot or turn 1e-16 into an idle share
PIVOT_TOL = 1e-12
# chain orderings per array pass of the walk: at K = 8 one block's arrays
# peak near 64 KiB, where all 40,320 orderings at once would take tens of MB
ORDERING_BLOCK = 64
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
    return next(_walk(ev, r_sum, [_check_ordering(ordering, ev.sc.num_relays)])[1])[1][0]


def extreme_points(ev: Evaluator,
                   r_sum: float | None = None) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(ordering, extreme_point(ev, r_sum, ordering))`` for every chain
    ordering, in lexicographic order, from one formation of the bounds.

    ``r_sum`` defaults to the joint-decoding sum-rate."""
    check_orderings("extreme-points", ev.sc.num_relays)
    blocks = _walk(ev, r_sum, permutations(range(1, ev.sc.num_relays + 1)))[1]
    return [(tuple(pi), point) for orderings, points in blocks
            for pi, point in zip(orderings.tolist(), points)]


def _walk(ev: Evaluator, r_sum: float | None, orderings, schemes: bool = False):
    """(R_sum, an iterator over ``orderings`` in blocks of up to
    ORDERING_BLOCK, one array pass each) at r_sum (None: the joint-decoding
    sum-rate).  A block is (pi, points): its orderings as an (n, K) array
    of relays and their extreme points, indexed by relay; with ``schemes``
    it is (pi, points, pivot, alpha, fronthaul, rate), the OrderingResult
    fields of each ordering, pivot 0 where there is none (``_schemes``).
    R_sum is capped by b_{} = I(U; X | Q) for a point, as the S = {} row
    asks 0 >= g({}) = r_sum - b_{}, and by the joint-decoding sum-rate for
    a scheme."""
    bounds, jd, r_sum, g = _polytope(ev, r_sum)
    cap, name = ((jd, "the joint-decoding sum-rate") if schemes
                 else (float(bounds[0]), "I(U; X | Q) ="))
    if r_sum > cap + INVARIANT_TOL:
        raise ScenarioError(f"r_sum = {r_sum!r} exceeds {name} {cap!r}; "
                            "the fronthaul polytope is empty")
    _finite(g)
    orderings = iter(orderings)
    blocks = map(np.array, iter(lambda: list(islice(orderings, ORDERING_BLOCK)), []))
    if schemes:
        return r_sum, (_schemes(ev, g, r_sum, pi) for pi in blocks)
    return r_sum, ((pi, _points(g, pi)[2]) for pi in blocks)


def _check_ordering(ordering, num_relays: int) -> tuple[int, ...]:
    # a fractional entry, which int() would truncate, reads as 0, no relay;
    # so do NaN and inf, which int() refuses with a ValueError or OverflowError
    pi = tuple(int(k) if float(k).is_integer() else 0 for k in ordering)
    if sorted(pi) != list(range(1, num_relays + 1)):
        raise ScenarioError(f"ordering must be a permutation of 1..{num_relays}")
    return pi


def _plus(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) entrywise, as Python's max gives it: -0.0 reads +0.0,
    which np.maximum(0.0, x) does not promise."""
    return np.where(x > 0.0, x, 0.0)


def _points(g: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, chain, points) of the orderings pi, an (n, K) array of relays:
    row i's prefix masks {pi_i(1..k)} and g there for k = 0..K, and its
    extreme point, where relay pi_i(k) gets g+(first k) - g+(first k-1)."""
    masks = np.zeros((pi.shape[0], pi.shape[1] + 1), dtype=np.int64)
    np.cumsum(1 << (pi - 1), axis=1, out=masks[:, 1:])
    chain = g[masks]
    g_plus = _plus(chain)
    inc = g_plus[:, 1:] - g_plus[:, :-1]
    if not (rises := inc >= -INVARIANT_TOL).all():
        row, k = np.argwhere(~rises)[0]
        raise ArithmeticError(f"g+ decreased along the chain at position {k + 1} "
                              f"({inc[row, k]:.3e}); "
                              "this contradicts the chain monotonicity of g")
    points = np.zeros(pi.shape)
    points[np.arange(pi.shape[0])[:, None], pi - 1] = _plus(inc)
    return masks, chain, points


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
    pi = _check_ordering(ordering, ev.sc.num_relays)
    _, points, pivot, alpha, fronthaul, rate = next(_walk(ev, r_sum, [pi], schemes=True)[1])
    return OrderingResult(ordering=pi, extreme_point=points[0], pivot_index=int(pivot[0]) or None,
                          idle_fraction=float(alpha[0]), scheme_fronthaul=fronthaul[0],
                          scheme_sum_rate=float(rate[0]))


def _schemes(ev: Evaluator, g: np.ndarray, r_sum: float, pi: np.ndarray):
    """(pi, points, pivot, alpha, fronthaul, rate) of the orderings pi, an
    (n, K) array of relays: per row the extreme point, the 1-based pivot
    (0: none), the idle share, and the fronthaul and sum-rate of the
    dominating scheme, all indexed by relay like the points."""
    masks, chain, points = _points(g, pi)
    rows = np.arange(pi.shape[0])
    h, hx = ev.u_entropies(), ev.u_entropies((1 << ev.sc.num_users) - 1)
    later = masks[:, -1:] - masks  # the relays after chain position k, k = 0..K
    above = chain[:, 1:] > PIVOT_TOL
    found, at = above.any(axis=1), above.argmax(axis=1)  # at: the pivot's 0-based position
    # per-relay description rates from the pivot on, each I(U_k; Y_k | U_side, Q)
    # conditioned on the later chain relays
    active = found[:, None] & (np.arange(pi.shape[1]) >= at[:, None])
    wz = h[later[:, :-1]] - h[later[:, 1:]] - np.asarray(ev.h_u_given_y)[pi - 1]
    _check_nonnegative(wz[active], "Wyner-Ziv rate I(U_k; Y_k | U_side, Q)")
    wz = np.where(active, _plus(wz), 0.0)
    denom = wz[rows, at]
    g_before = chain[rows, at]
    g_before = np.where(np.abs(g_before) > PIVOT_TOL, g_before, 0.0)
    alpha = np.ones(pi.shape[0])
    np.divide(-g_before, denom, out=alpha, where=found & (denom >= ALPHA_DENOM_TOL))
    alpha = np.where(alpha > 0.0, np.minimum(alpha, 1.0), 0.0)
    wz[rows, at] = np.where(found, (1.0 - alpha) * denom, 0.0)
    fronthaul = np.zeros(pi.shape)
    fronthaul[rows[:, None], pi - 1] = wz
    # I(X; U_A | Q) - alpha I(X; U_pivot | U_L, Q) with A the active relays
    # (the pivot and later) and L the later ones, in cmi's term order
    a, l = later[rows, at], later[rows, at + 1]
    i_active = hx[0] + h[a] - hx[a] - h[0]
    i_pivot = hx[l] + h[a] - hx[a] - h[l]
    _check_nonnegative(i_active[found], "I(X; U_A | Q)")
    _check_nonnegative(i_pivot[found], "I(X; U_pivot | U_L, Q)")
    rate = np.where(found, _plus(i_active) - alpha * _plus(i_pivot), 0.0)
    _check_schemes(points, _plus(chain[:, -1]), fronthaul, rate, r_sum)
    return pi, points, np.where(found, at + 1, 0), alpha, fronthaul, rate


def _check_nonnegative(values: np.ndarray, name: str) -> None:
    """``_nonnegative``'s check on each of ``values``, raising on the first
    that fails it."""
    if not (ok := values >= -NEGATIVE_INFO_TOL).all():
        _nonnegative(float(values[~ok][0]), name)


def _check_schemes(points, g_plus_full, fronthaul, rate, r_sum: float) -> None:
    """The invariants of a block of schemes: each extreme point telescopes
    to g+(all relays), each scheme's fronthaul lies below its point and its
    sum-rate reaches r_sum."""
    # each test is written so that a NaN fails it
    if not np.all(np.abs(points.sum(axis=1) - g_plus_full)
                  <= 1e-12 + 1e-12 * np.abs(g_plus_full)):
        raise ArithmeticError("extreme point does not telescope to g+(all relays)")
    if not np.all(fronthaul <= points + INVARIANT_TOL):
        raise ArithmeticError("constructed scheme needs more fronthaul than the extreme point")
    if not (reaches := rate >= r_sum - INVARIANT_TOL).all():
        raise ArithmeticError(f"constructed scheme sum-rate {float(rate[~reaches][0])!r} "
                              f"fell below the target {r_sum!r}")


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
    target, blocks = _walk(ev, None, permutations(range(1, ev.sc.num_relays + 1)), schemes=True)
    best, best_pi = -math.inf, None
    for pi, *_, rate in blocks:
        # scanned in order: a later ordering is better only beyond the tie tolerance
        i = 0
        while (ahead := np.flatnonzero(rate[i:] > best + INVARIANT_TOL)).size:
            i += int(ahead[0])
            best, best_pi = float(rate[i]), tuple(pi[i].tolist())
            i += 1
    return SumRateComparison(jd_sum_rate=target, best_sum_rate=best,
                             best_ordering=best_pi, gap=float(target - best))
