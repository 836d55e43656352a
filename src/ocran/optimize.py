"""Search over quantizers and Monte Carlo validation of the analytic rates.

The Gaussian optimizer runs over the normalized quantizers
W_k = Sigma_k^{1/2} B_k Sigma_k^{1/2}, whose feasible set is simply
0 <= W_k <= I.  Every bound b_{T,S} of the region is concave in the W_k, so
both objectives are concave programs and a local optimum is the global one:
the sum-rate max t s.t. t <= b_{T,S} for T = all users and every relay set
S, and the weighted rate max w.R s.t. sum_{t in T} R_t <= b_{T,S} for every
(T, S) and R >= 0.  Either is one SLSQP solve over Hermitian A_k with
W_k = I - (I + A_k^2)^{-1}; that map stays strictly below I, so no
projection is needed.  The solver's multipliers certify the result through
a Frank-Wolfe bound, and a solve whose gap exceeds GAP_TOL raises.

The discrete sum-rate is not concave in the quantization tables.  It runs
the same epigraph solve (``_epigraph_solve``) from several starts, over
softmax-parametrized tables, and carries no certificate; only this search
takes restarts, an iteration cap and a seed.

Every question about the branches takes a point, built once from packed A
(``smooth_at``) or from packed W (``at``, which caps W).  A point costs a
few stacked numpy calls, not one per relay: the map W(A), fronthaul rates
and B_k take one call per antenna-count group of relays (``ScenarioTerms``),
and several branch gradients one stacked inverse and one batched product
per group.  Each element sees the float operations of a loop over relays
and branches, in the same order, so results do not depend on the grouping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _linalg as la
from .core import (MAX_SAMPLER_DRAWS, SAMPLER_BLOCK, CapacityError, RateRegion, ScenarioError,
                   SubsetPair, indices_of, mask_of, max_weighted_rate, spawn_seeds, user_sets)
from .discrete import AuxChannels, DiscreteScenario, ReducedFactors
from .gaussian import (
    BOUNDARY_TOL,
    QUANT_CAP_MARGIN,
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    ScenarioTerms,
)
from .sumrate import jd_sum_rate

ACTIVE_TOL = 1e-9
IMPROVE_TOL = 1e-12
STEP_TOL = 1e-8  # the Gaussian searches stop once their step falls below it
GAP_TOL = 1e-6  # bits; a Gaussian solve whose certified gap exceeds it raises
START_TIE_TOL = 1e-12  # bits; discrete starts this close to the best tie; the first converged wins
SOLVE_FTOL = 1e-14  # SLSQP's stopping tolerance on the change of the objective
SOLVE_MAX_ITERS = 500
CUT_ITERS = 100  # cutting planes that may refine the certificate's row weights
# the discrete staircase start gives every off-staircase letter this weight
# against 1, so that its softmax parameters are finite
STAIRCASE_SOFTENING = 0.05
# logits per unit of a discrete table parameter; SLSQP starts from an identity
# Hessian, and at 12 it needs about a quarter fewer iterations than at 1
SOFTMAX_SCALE = 12.0


def _check_weights(weights, num_users: int) -> np.ndarray:
    """The user weights as an array: one entry per user, finite and
    nonnegative, at least one of them positive, else ``ScenarioError``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_users,):
        raise ScenarioError("weights must have one entry per user")
    if not np.isfinite(w).all() or np.any(w < 0) or not np.any(w > 0):
        raise ScenarioError("weights must be finite and nonnegative, one of them positive")
    return w


# ---------------------------------------------------------------------------
# packed Hermitian parameterization
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Index arrays of the packed parameterization of Hermitian blocks of
    given dimensions, stored row-major one after another in a flat vector."""

    take: np.ndarray  # place of each packed coordinate in the flat vector as floats
    upper: np.ndarray  # flat positions of the upper-triangle entries, row by row
    lower: np.ndarray  # flat positions of their mirror images
    scale: np.ndarray  # packed gradient factors: 1 on the diagonal, 2 off it
    bounds: tuple[tuple[int, int], ...]  # each block's slice of the flat vector


def _layout(dims: tuple[int, ...]) -> _Layout:
    take, upper, lower, scale, bounds = [], [], [], [], []
    base = 0
    for d in dims:
        rows, cols = np.triu_indices(d, 1)
        up = base + rows * d + cols
        # per block: the diagonal's real parts, then (re, im) of each upper entry
        take += [2 * (base + np.arange(d) * (d + 1)), np.stack([2 * up, 2 * up + 1], 1).ravel()]
        upper.append(up)
        lower.append(base + cols * d + rows)
        scale += [1.0] * d + [2.0] * (2 * rows.size)
        bounds.append((base, base + d * d))
        base += d * d
    return _Layout(*(np.concatenate(v) for v in (take, upper, lower)), np.array(scale),
                   tuple(bounds))


def _pack_flat(flat: np.ndarray, lay: _Layout) -> np.ndarray:
    """Packed coordinates of the Hermitian blocks laid out in ``flat`` (or
    of each row of a stack of such vectors)."""
    return flat.view(np.float64)[..., lay.take]


def _pack_hermitian(mats) -> np.ndarray:
    """Diagonal real parts, then (re, im) of each upper-triangle entry row by
    row, per matrix."""
    flat = np.concatenate([np.ravel(m) for m in mats], dtype=np.complex128)
    return _pack_flat(flat, _layout(tuple(m.shape[0] for m in mats)))


def _unpack_flat(x: np.ndarray, lay: _Layout) -> np.ndarray:
    """The Hermitian blocks of packed x, row-major one after another (or of
    each row of a stack of packed vectors)."""
    flat = np.zeros(x.shape[:-1] + (lay.bounds[-1][1],), dtype=np.complex128)
    flat.view(np.float64)[..., lay.take] = x
    flat[..., lay.lower] = flat[..., lay.upper].conj()
    return flat


class _Point(NamedTuple):
    """One point W_k = I - (I + A_k^2)^{-1} of the smooth map, built once by
    ``smooth_at``: A_k, M_k = (I + A_k^2)^{-1} and W_k, one (n, d, d) stack
    per relay group, the packed W as ``x``, the region ``evaluator`` and the
    fronthaul charge gradients ``charge_grads``, stacked like ``ws``."""

    a: list[np.ndarray]
    m: list[np.ndarray]
    ws: list[np.ndarray]
    x: np.ndarray
    evaluator: GaussianEvaluator
    charge_grads: list[np.ndarray]


class _GaussianObjective:
    """The Gaussian region's branches and their gradients over packed
    normalized quantizers.

    Each question takes a point: ``at(x)`` is the one entry from packed W
    (through its eigenvalue cap) and ``smooth_at(a)`` the one from packed
    A, so a point is formed and evaluated once however many questions it
    answers.  Per-relay work runs on the scenario's relay groups
    (``ScenarioTerms``), one stacked numpy call per group."""

    def __init__(self, sc: GaussianScenario):
        self.sc = sc
        self.terms = ScenarioTerms(sc)  # shared by the evaluators of every x
        self.layout = _layout(sc.relay_antennas)
        # flat positions of each group's matrix entries, (n, d, d) per group
        blocks = [np.arange(a, b).reshape(d, d)
                  for (a, b), d in zip(self.layout.bounds, sc.relay_antennas)]
        self.positions = [np.array([blocks[k] for k in g.relays]) for g in self.terms.groups]
        self.sig_root_inv = [la.psd_inv_sqrt(s) for s in self.terms.stack(sc.Sigma)]

    def project(self, ws) -> list[np.ndarray]:
        """No optimizer path calls it; bench/tracing.py still wraps it by name."""
        return [la.clip_eigenvalues(w, 0.0, 1.0 - QUANT_CAP_MARGIN) for w in ws]

    def at(self, x: np.ndarray) -> _Point:
        """The point of packed normalized quantizers x, the only entry from
        packed W: each W_k has its eigenvalues clipped to [0, 1 - QUANT_CAP_MARGIN]
        and goes through A_k = (W_k (I - W_k)^{-1})^{1/2} to ``smooth_at``, whose
        packed W is x's eigenvalue clip up to rounding."""
        flat = _unpack_flat(x, self.layout)
        for pos in self.positions:
            lam, v = np.linalg.eigh(flat[pos])
            lam = np.clip(lam, 0.0, 1.0 - QUANT_CAP_MARGIN)
            flat[pos] = (v * np.sqrt(lam / (1.0 - lam))[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return self.smooth_at(_pack_flat(flat, self.layout))

    def smooth_at(self, a: np.ndarray) -> _Point:
        """The point W_k = I - (I + A_k^2)^{-1} of packed Hermitian A_k,
        which lies strictly below I for every A and needs no projection.
        Each fronthaul rate is taken as log2 det(I + A_k^2), from the
        eigenvalues of A_k, and its charge gradient -(I - W_k)^{-1} / ln 2
        as -(I + A_k^2) / ln 2, so neither loses digits as W_k nears I."""
        flat = _unpack_flat(a, self.layout)
        a_stacks, m_stacks, ws, mi, charge = [], [], [], [], []
        for pos in self.positions:
            ag = flat[pos]
            lam, v = np.linalg.eigh(ag)
            sq = lam * lam
            vh = v.conj().swapaxes(-1, -2)
            m_stacks.append(la.hermitian_part((v / (1.0 + sq)[..., None, :]) @ vh))
            ws.append(la.hermitian_part((v * (sq / (1.0 + sq))[..., None, :]) @ vh))
            mi.append(np.sum(np.log1p(sq), axis=-1) / la.LN2)
            charge.append(-la.hermitian_part(np.eye(ag.shape[-1]) + ag @ ag) / la.LN2)
            a_stacks.append(ag)
            flat[pos] = ws[-1]
        ev = GaussianEvaluator(self.terms, self._b(ws), self.terms.merge(mi))
        return _Point(a_stacks, m_stacks, ws, _pack_flat(flat, self.layout), ev, charge)

    def pull_back(self, p: _Point, grads: np.ndarray) -> np.ndarray:
        """Rows of packed gradients in W (as ``_branch_gradient`` gives them)
        as packed gradients in A at ``p``: with M = (I + A^2)^{-1},
        dW = M (dA A + A dA) M, so a gradient G in W is A G' + G' A in A,
        G' = M G M."""
        flat = _unpack_flat(grads / self.layout.scale, self.layout)
        for pos, a, m in zip(self.positions, p.a, p.m):
            g = m @ flat[..., pos] @ m
            flat[..., pos] = a @ g + g @ a
        return _pack_flat(flat, self.layout) * self.layout.scale

    def _b(self, ws) -> list[np.ndarray]:
        return [la.hermitian_part(ri @ w @ ri) for ri, w in zip(self.sig_root_inv, ws)]

    def quantizers(self, p: _Point) -> QuantizerSetGaussian:
        return QuantizerSetGaussian(B=tuple(self.terms.unstack(self._b(p.ws))))

    def branch_values(self, p: _Point, users=None) -> np.ndarray:
        """The bound of user set T (by default all users, the sum-rate) for
        every relay subset (index = subset bitmask)."""
        return p.evaluator.subset_bounds(users)

    def value(self, p: _Point) -> float:
        return float(self.branch_values(p).min())

    def row_values(self, p: _Point, t_sets) -> np.ndarray:
        """The bounds of the (T, S) rows of the user sets, S by bitmask."""
        return np.concatenate([self.branch_values(p, users) for users in t_sets])

    def row_gradients(self, p: _Point, t_sets) -> np.ndarray:
        """The branch gradients of those rows, one row each."""
        masks = np.arange(1 << self.sc.num_relays)
        return np.vstack([self._branch_gradient(p, masks, users) for users in t_sets])

    def _branch_gradient(self, p: _Point, masks: np.ndarray, users=None) -> np.ndarray:
        """Gradients of the (T, S) branches of user set T (by default all
        users) at ``p``, one row per relay-set bitmask in the integer array
        ``masks``: the fronthaul charge for relays in S (shared by every
        branch at one point) and the log-det term, through the inverse of
        the evaluator's branch matrix and the T columns of each relay's
        channel, for the rest.  The branch matrices are inverted as one
        stack, and each group's (S, k not in S) pairs are multiplied out as
        one batch."""
        users = users or self.terms.full_users
        idx, k_root = self.terms.users(users)
        # a slice, not idx: idx changed the rows' last bit on mixed-antenna scenarios
        cols = slice(None) if users == self.terms.full_users else idx
        stack = p.evaluator.branch_stack(users)
        rows = np.empty((masks.size, self.layout.bounds[-1][1]), dtype=np.complex128)
        for pos, charge in zip(self.positions, p.charge_grads):
            rows[:, pos] = charge
        kept = np.flatnonzero(masks < len(stack))  # some relay is outside S
        if kept.size:
            inner = k_root @ np.linalg.inv(stack[masks[kept]]) @ k_root
            for g, ri, pos in zip(self.terms.groups, self.sig_root_inv, self.positions):
                r, i = np.nonzero(g.outside[masks[kept]])  # row of inner, relay in the group
                h = g.h[i][..., cols]
                h_inner_h = h @ inner[r] @ h.conj().swapaxes(-1, -2) / la.LN2
                ri_i = ri[i]
                rows[kept[r, None, None], pos[i]] = la.hermitian_part(ri_i @ h_inner_h @ ri_i)
        return _pack_flat(rows, self.layout) * self.layout.scale

    def softmin(self, p: _Point, tau: float,
                gradient: bool = True) -> tuple[float, np.ndarray | None]:
        """Smooth lower envelope -tau log2 sum_S 2^{-v_S/tau} of the subset
        branches and its gradient (a concave surrogate of the hard min); with
        ``gradient=False`` the value alone, and None.  No optimizer path
        calls it; bench/tracing.py still wraps it by name."""
        vals = self.branch_values(p)
        lo = float(vals.min())
        scaled = np.exp(-(vals - lo) * la.LN2 / tau)
        value = lo - tau * math.log2(float(scaled.sum()))
        if not gradient:
            return value, None
        weights = scaled / scaled.sum()
        kept = np.flatnonzero(weights > 1e-12)
        grad = sum(w * row for w, row in zip(weights[kept], self._branch_gradient(p, kept)))
        return value, grad


# ---------------------------------------------------------------------------
# search loops (value-based, monotone in accepted iterates)
# ---------------------------------------------------------------------------


def _coordinate_search(value: Callable, x0: np.ndarray, max_iters: int):
    """Pattern search: along each coordinate in turn, try a step up, then
    down, doubling it while the value improves; halve the step after a
    sweep without improvement.  No optimizer path calls it; bench/tracing.py
    still wraps it by name."""
    x = x0.copy()
    best = value(x)
    trace = [best]
    step = 0.25
    converged = False
    for _ in range(max_iters):
        improved = False
        for d in range(x.size):
            for sign in (1.0, -1.0):
                moved = False
                local = step
                while True:
                    trial = x.copy()
                    trial[d] += sign * local
                    v = value(trial)
                    if v > best + IMPROVE_TOL:
                        x, best = trial, v
                        trace.append(best)
                        moved = improved = True
                        local *= 2.0
                    else:
                        break
                if moved:
                    break
        if not improved:
            step *= 0.5
            if step < STEP_TOL:
                converged = True
                break
    return x, best, trace, converged


def _softmin_polish(obj: _GaussianObjective, x0: np.ndarray, max_iters: int):
    """Annealed ascent on the smooth soft-min surrogate.  No optimizer path
    calls it; bench/tracing.py still wraps it by name.

    The hard min is kinked exactly where its maximizers live, and subgradient
    steps can stall at kinks that touch the PSD boundary; the surrogate stays
    smooth there.  Only true-objective improvements are accepted into the
    returned point/trace, so the published trace stays monotone.  Line-search
    trials take the surrogate's value alone, and an accepted trial's branch
    values give its true objective.  Returns the best point, whose
    quantizers are the ones that reached the returned value."""
    p = obj.at(x0)
    best_p, best = p, obj.value(p)
    trace = []
    for tau in (0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4):
        step = 0.1
        for _ in range(max_iters):
            val, g = obj.softmin(p, tau)
            norm = float(np.linalg.norm(g))
            if norm < 1e-14:
                break
            moved = False
            while step >= STEP_TOL:
                trial = obj.at(p.x + step * g / norm)
                v2, _ = obj.softmin(trial, tau, gradient=False)
                if v2 > val + IMPROVE_TOL:
                    p = trial
                    moved = True
                    step = min(0.25, step * 2.0)
                    break
                step *= 0.5
            if not moved:
                break
            true_val = obj.value(p)
            if true_val > best + IMPROVE_TOL:
                best_p, best = p, true_val
                trace.append(best)
    return best_p, best, trace


@dataclass(frozen=True)
class OptResult:
    """Either search's result.  ``active`` holds the tight constraints as
    (T, S) mask pairs; the sum-rate searches report T = all users, 2^L - 1.
    A Gaussian result is certified, gap = upper_bound - objective <=
    GAP_TOL bits, so ``converged`` is True; a discrete one leaves both None."""

    quantizers: QuantizerSetGaussian | AuxChannels
    objective: float
    converged: bool
    trace: tuple[float, ...]
    active: tuple[tuple[int, int], ...]
    upper_bound: float | None = None
    gap: float | None = None


class _FrankWolfeBound:
    """The Frank-Wolfe bound at a fixed point p, as a convex function of
    weights y on the (T, S) rows of the user sets ``t_sets``:

        h(y) = sum_{T,S} y_{T,S} c_{T,S} + sum_k tr (G_k(y))_+,
        c_{T,S} = b_{T,S}(W) - sum_k tr (grad_{W_k} b_{T,S}) W_k.

    The branch gradients of every row are taken once."""

    def __init__(self, obj: _GaussianObjective, p: _Point, t_sets):
        self.obj = obj
        self.rows = obj.row_gradients(p, t_sets)
        # tr G W summed over the relays is the dot product of the packed
        # gradient with the packed point
        self.offset = obj.row_values(p, t_sets) - self.rows @ p.x

    def __call__(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        """h(lam) and a subgradient of h in lam."""
        lay = self.obj.layout
        g_flat = _unpack_flat(lam @ self.rows / lay.scale, lay)
        proj = np.zeros_like(g_flat)  # projectors on the positive eigenspaces of the G_k
        positive = 0.0
        for pos in self.obj.positions:
            e, v = np.linalg.eigh(g_flat[pos])
            up = e > 0.0
            positive += float(e[up].sum())
            proj[pos] = (v * up[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return float(lam @ self.offset) + positive, self.offset + self.rows @ _pack_flat(proj, lay)

    def least(self, lam: np.ndarray, target: float, cover: np.ndarray, weights: np.ndarray) -> float:
        """The least h found by Kelley's cutting planes over the covering
        weights {0 <= y <= max w, cover^T y >= w} from lam, stopping once it
        is at most ``target`` or the planes prove that no weights reach
        it."""
        from scipy.optimize import linprog

        n = lam.size
        covering = np.hstack([-cover.T, np.zeros((cover.shape[1], 1))])
        cuts, rhs, best = [], [], math.inf
        for _ in range(CUT_ITERS):
            h, sub = self(lam)
            best = min(best, h)
            if best <= target:
                break
            cuts.append(np.append(sub, -1.0))  # h(mu) >= h + sub . (mu - lam)
            rhs.append(float(sub @ lam) - h)
            res = linprog(np.append(np.zeros(n), 1.0), A_ub=np.vstack([cuts, covering]),
                          b_ub=np.concatenate([rhs, -weights]),
                          bounds=[(0.0, weights.max())] * n + [(None, None)], method="highs")
            if res.status != 0 or res.fun > target:
                break
            lam = _covering(res.x[:-1], cover, weights)
        return best


def _covering(y: np.ndarray, cover: np.ndarray, weights: np.ndarray) -> np.ndarray | None:
    """y clipped at 0 and scaled to the least multiple with cover^T y >= w
    (None if there is none): then w.R <= sum_{T,S} y_{T,S} b_{T,S}."""
    y = np.clip(y, 0.0, None)
    pos = weights > 0.0
    ratio = float(np.min((y @ cover)[pos] / weights[pos]))
    return y / ratio if ratio > 0.0 else None


def _epigraph_solve(point: Callable, rows: Callable, jac: Callable, objective: Callable,
                    rates: Callable, cover: np.ndarray, c: np.ndarray, x0: np.ndarray, bounds,
                    max_iters: int):
    """One SLSQP solve of max c.R s.t. cover R <= rows(point(x)), over the
    parameters x and the rate columns R, from x0 with R at ``rates`` there.
    ``point(x)`` evaluates x once for ``rows`` (the row values), ``jac``
    (their gradients in x), ``objective`` (a point's value) and ``rates``
    (rates that reach it); ``bounds`` are SLSQP's, x first.  Returns the best
    iterate by value as (point, value), the best-so-far trace and SLSQP's
    result (multipliers, status)."""
    from scipy.optimize import minimize

    size = x0.size
    last = {}

    def at(z):
        key = z[:size].tobytes()
        if key not in last:
            last.clear()
            last[key] = point(z[:size])
        return last[key]

    def slack(z):
        return rows(at(z)) - cover @ z[size:]

    def slack_jac(z):
        jacobian = np.empty((cover.shape[0], z.size))
        jacobian[:, :size] = jac(at(z))
        jacobian[:, size:] = -cover
        return jacobian

    best, trace, seen = None, [], None

    def record(z):
        nonlocal best, seen
        if z[:size].tobytes() == seen:
            return
        seen = z[:size].tobytes()
        p = at(z)
        value = objective(p)
        if best is None or value > best[1]:
            best = (p, value)
        trace.append(best[1])

    z0 = np.append(x0, rates(at(x0)))
    record(z0)
    neg_c = np.append(np.zeros(size), -c)
    res = minimize(lambda z: -float(c @ z[size:]), z0, jac=lambda z: neg_c, method="SLSQP",
                   bounds=bounds, constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
                   callback=record, options={"maxiter": max_iters, "ftol": SOLVE_FTOL})
    record(res.x)  # SLSQP does not always report its final iterate
    return best, trace, res


def _certified_solve(obj: _GaussianObjective, weights=None) -> OptResult:
    """One epigraph solve (``_epigraph_solve``), over packed Hermitian A_k
    and rate columns R, from A_k = I (W = I/2), of max c.R s.t.
    cover R <= b_{T,S}(W(A)) on the (T, S) rows.  The sum-rate (``weights``
    None) keeps T = all users and one free rate t, c = 1; the weighted rate
    takes every T, one rate per user with R >= 0, and c = w.  Returns the
    better of the best iterate and the zero quantizers (worth exactly 0,
    winning a tie, since the final iterate can be unusable at zero
    fronthaul), each valued at its own objective, with the best-so-far
    trace; certified at that point by the solver's multipliers scaled to
    cover c, then by cutting planes.  Raises ArithmeticError when the gap
    exceeds GAP_TOL."""
    sc = obj.sc
    size = obj.layout.bounds[-1][1]
    subsets = 1 << sc.num_relays
    if weights is None:
        t_sets, c, rate_low = [obj.terms.full_users], np.ones(1), None
        cover = np.ones((subsets, 1))
    else:
        t_sets = [indices_of(t) for t in range(1, 1 << sc.num_users)]
        c, rate_low = np.asarray(weights, dtype=float), 0.0
        cover = np.repeat(user_sets(sc.num_users), subsets, axis=0)

    def solve(p, tie_break: bool = True) -> tuple[float, np.ndarray]:
        """The objective at p and rates that reach it, by the tie rule if ``tie_break``."""
        if weights is None:
            value = obj.value(p)
            return value, np.array([value])
        bounds = obj.row_values(p, t_sets).reshape(-1, subsets)
        return max_weighted_rate(RateRegion(sc.num_users, bounds), c, tie_break)

    (p, value), trace, res = _epigraph_solve(
        obj.smooth_at, lambda p: obj.row_values(p, t_sets),
        lambda p: obj.pull_back(p, obj.row_gradients(p, t_sets)),
        lambda p: solve(p, tie_break=False)[0], lambda p: solve(p)[1], cover, c,
        _pack_hermitian([np.eye(d) for d in sc.relay_antennas]),
        [(None, None)] * size + [(rate_low, None)] * c.size, SOLVE_MAX_ITERS)

    zero = obj.smooth_at(np.zeros(size))
    zero_value = solve(zero, tie_break=False)[0]
    if zero_value >= value:
        p, value = zero, zero_value
        trace.append(value)
    rates = solve(p)[1]
    lam = _covering(res.multipliers, cover, c)
    if lam is None:
        lam = _covering(np.ones(cover.shape[0]), cover, c)
    # h(lam) when the covered multipliers certify; cutting planes otherwise,
    # since where some W_k is singular, A_k = 0 and the multipliers do not
    # see the sign of G_k on its null space
    bound = _FrankWolfeBound(obj, p, t_sets).least(lam, value + GAP_TOL, cover, c)
    gap = bound - value
    if not gap <= GAP_TOL:
        raise ArithmeticError(f"Gaussian solve is not certified: the gap {gap:.3e} bits exceeds "
                              f"{GAP_TOL:.0e} ({res.message})")
    tight = np.flatnonzero(obj.row_values(p, t_sets) <= cover @ rates + ACTIVE_TOL)
    active = tuple((mask_of(t_sets[i // subsets]), int(i % subsets)) for i in tight)
    return OptResult(quantizers=obj.quantizers(p), objective=value, converged=True,
                     trace=tuple(trace), active=active, upper_bound=bound, gap=gap)


def optimize_gaussian_quantizers(sc: GaussianScenario, weights=None) -> OptResult:
    """Quantization matrices maximizing the sum-rate (``weights`` None) or
    the weighted rate w.R, from one certified solve (``_certified_solve``).
    Deterministic."""
    if weights is not None:
        weights = _check_weights(weights, sc.num_users)
    return _certified_solve(_GaussianObjective(sc), weights)


class _SoftmaxTables:
    """Quantization tables p(u_k|y_k,q) of the given shapes whose rows are
    the softmax of SOFTMAX_SCALE times free parameters, packed table after
    table."""

    def __init__(self, shapes):
        self.shapes = [tuple(shape) for shape in shapes]
        ends = np.cumsum([math.prod(shape) for shape in self.shapes])
        self.parts = [slice(end - math.prod(shape), end) for end, shape in zip(ends, self.shapes)]
        self.size = int(ends[-1])

    def tables(self, theta: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The tables and log2 of their entries, from the log-softmax."""
        tables, logs = [], []
        for part, shape in zip(self.parts, self.shapes):
            logits = SOFTMAX_SCALE * theta[part].reshape(shape)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            total = e.sum(axis=-1, keepdims=True)
            tables.append(e / total)
            logs.append((shifted - np.log(total)) / la.LN2)
        return tuple(tables), tuple(logs)

    def parameters(self, tables) -> np.ndarray:
        """Parameters of tables with positive entries."""
        return np.concatenate([np.log(t).ravel() for t in tables]) / SOFTMAX_SCALE

    def pull_back(self, tables, grads) -> np.ndarray:
        """Rows of gradients in the table entries, one (rows, *shape) array
        per table and each exact up to a constant per table row, as rows of
        gradients in the parameters: SOFTMAX_SCALE a (g - sum_u a g) per
        table row a."""
        return SOFTMAX_SCALE * np.hstack([(a * (g - (a * g).sum(axis=-1, keepdims=True)))
                                          .reshape(len(g), -1) for a, g in zip(tables, grads)])


def optimize_discrete_aux(sc: DiscreteScenario, cardinalities, restarts: int = 4,
                          max_iters: int = 120, seed: int = 0) -> OptResult:
    """Quantization tables p(u_k|y_k,q) maximizing the joint-decoding
    sum-rate: the best of ``restarts`` epigraph solves
    (``_epigraph_solve``) of max t s.t. t <= b_S for every relay set S,
    each capped at ``max_iters`` SLSQP iterations, over tables whose rows
    are softmax of free parameters (``_SoftmaxTables``).  Each iterate is one
    ``ReducedFactors.sum_rate_pass`` (the b_S, and their gradients where
    SLSQP asks for them); each start's returned tables are valued once by
    ``DiscreteEvaluator``.

    Start 0 is the staircase quantizer u = floor(y |U| / |Y|), softened so
    that softmax reaches it; further starts draw Dirichlet rows from seeds
    spawned from ``seed``.  Of the starts within ``START_TIE_TOL`` bits of
    the best, the first whose SLSQP run converged is chosen, else the first,
    so rounding does not choose among starts that reach the same optimum.
    ``converged`` is the chosen start's SLSQP success."""
    card = tuple(int(u) for u in cardinalities)
    if len(card) != sc.num_relays or any(u < 1 for u in card):
        raise ScenarioError("need one positive cardinality per relay")
    if restarts < 1 or max_iters < 1:
        raise ScenarioError("restarts and max_iters must be positive")
    factors = ReducedFactors(sc, card)
    params = _SoftmaxTables([(sc.num_timeshare, y, u) for y, u in zip(sc.output_sizes, card)])

    def point(theta):
        tables, logs = params.tables(theta)
        return (tables, *factors.sum_rate_pass(tables, logs))

    def objective(p):
        return max(0.0, float(p[1].min()))  # jd_sum_rate of the pass's rows

    def start(index: int) -> np.ndarray:
        if index == 0:
            tables = []
            for nq, y_size, u_size in params.shapes:
                t = np.full((nq, y_size, u_size), STAIRCASE_SOFTENING)
                y = np.arange(y_size)
                t[:, y, np.minimum(u_size - 1, y * u_size // y_size)] = 1.0
                tables.append(t)
        else:
            rng = np.random.default_rng(seeds[index])
            tables = [rng.dirichlet(np.ones(shape[2]), size=shape[:2]) for shape in params.shapes]
        return params.parameters(tables)

    seeds = spawn_seeds(seed, restarts)
    cover = np.ones((1 << sc.num_relays, 1))
    solves = []
    for i in range(restarts):
        ((tables, _, _), _), trace, res = _epigraph_solve(
            point, lambda p: p[1], lambda p: params.pull_back(p[0], p[2]()), objective,
            lambda p: np.array([objective(p)]), cover, np.ones(1), start(i),
            [(None, None)] * (params.size + 1), max_iters)
        ev = factors.evaluator(tables)
        solves.append((tables, ev.subset_bounds(), jd_sum_rate(ev), trace, res))
    top = max(s[2] for s in solves)
    tied = [s for s in solves if s[2] >= top - START_TIE_TOL]
    tables, bounds, value, trace, res = next((s for s in tied if s[4].success), tied[0])
    full = (1 << sc.num_users) - 1
    active = tuple((full, int(s)) for s in np.flatnonzero(bounds <= bounds.min() + ACTIVE_TOL))
    return OptResult(quantizers=AuxChannels(tables=tables), objective=value,
                     converged=bool(res.success), trace=tuple(trace), active=active)


# ---------------------------------------------------------------------------
# Monte Carlo validation of the Gaussian information term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def mc_mutual_information(
    sc: GaussianScenario,
    q: QuantizerSetGaussian,
    pair: SubsetPair,
    samples: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo estimate of I(X_T; U_{S^c} | X_{T^c}) in bits.

    Realizes each quantizer as the additive test channel U_k = Y_k + Z_k with
    Z_k ~ CN(0, B_k^{-1} - Sigma_k) and averages the exact Gaussian
    log-density ratio of the observation with and without the input.  Each
    sample is the covariance-form log-det gap plus sum_j rho_j (E'_j - E_j)
    / ln 2 (rho_j the canonical correlations, E_j, E'_j ~ Exp(1)), of mean 0:
    the estimate centres on that log-det by construction, so it tests the
    sampler's law.  Every B_k with k outside S must have a normalized
    spectrum strictly inside (0, 1), by BOUNDARY_TOL; boundary quantizers
    have no finite test channel.  More than MAX_SAMPLER_DRAWS exponential
    draws, samples * 2 * min(dim_x, dim_z), raise CapacityError first.
    """
    if samples < 2:
        raise ScenarioError("need at least two samples")
    spectra = q.validate(sc)
    relays_c = pair.relays_complement(sc.num_relays)
    if not relays_c:
        return McEstimate(estimate=0.0, std_error=0.0, samples=samples)
    cond_blocks = []
    for k in relays_c:
        lam = spectra[k - 1]
        if lam.min() <= BOUNDARY_TOL or lam.max() >= 1.0 - BOUNDARY_TOL:
            raise ScenarioError(
                f"B[{k}] is on the feasibility boundary; no finite test channel exists"
            )
        cond_blocks.append(la.hermitian_part(np.linalg.inv(q.B[k - 1])))  # Sigma_k + Q_k
    lam_cond = la.block_diag(cond_blocks)
    h_t = np.vstack([sc.channel_to_users(k, pair.users) for k in relays_c])
    k_t_root = la.psd_sqrt(sc.input_covariance(pair.users))
    d = 2 * min(k_t_root.shape[0], lam_cond.shape[0])
    if (draws := samples * d) > MAX_SAMPLER_DRAWS:
        raise CapacityError(f"{draws} exponential draws exceed the sampler guard")
    lam_marg = la.hermitian_part(h_t @ (k_t_root @ k_t_root) @ h_t.conj().T + lam_cond)
    logdet_gap = la.logdet2(lam_marg) - la.logdet2(lam_cond)  # bits

    # Whitened by the Cholesky factor L L^H = lam_marg^{-1}, the input's map
    # K_T^{1/2 T} H_T^T conj(L) has as singular values the canonical
    # correlations rho_j of input and observation.  Only u - H_Tc x_Tc
    # enters, so the interferers' inputs never do.  The log-density ratio
    # has the law of logdet_gap + sum_j rho_j (E'_j - E_j) / ln 2 for
    # independent E_j, E'_j ~ Exp(1): one row of d exponentials times coef.
    # The rows are drawn in chunks of SAMPLER_BLOCK // d, row slices of one
    # (samples, d) draw into one reused buffer, so the samples do not depend
    # on the chunk size; only each chunk's sum and sum of squares are kept.
    marg_factor = np.linalg.cholesky(np.linalg.inv(lam_marg)).conj()
    rho = np.linalg.svd(k_t_root.T @ h_t.T @ marg_factor, compute_uv=False)
    coef = np.concatenate([-rho, rho[::-1]]) / la.LN2  # ascending
    rows = max(1, SAMPLER_BLOCK // d)
    rng = np.random.default_rng(seed)
    # reused across chunks: fresh arrays per chunk raised the traced peak from 0.76 to 1.0 MiB
    buf = np.empty((min(rows, samples), d))
    out = np.empty(buf.shape[0])
    total = total_sq = 0.0
    for start in range(0, samples, rows):
        n = min(rows, samples - start)
        vals = np.dot(rng.standard_exponential(out=buf[:n]), coef, out=out[:n])
        vals += logdet_gap
        total += float(vals.sum())
        total_sq += float(vals @ vals)
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return McEstimate(
        estimate=mean,
        std_error=math.sqrt(var / samples),
        samples=samples,
    )
