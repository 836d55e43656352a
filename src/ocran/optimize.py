"""Search over quantizers and Monte Carlo validation of the analytic rates.

The Gaussian search runs over the normalized quantizers
W_k = Sigma_k^{1/2} B_k Sigma_k^{1/2}, whose feasible set is simply
0 <= W_k <= I; every candidate is projected onto that set (capped at
1 - 1e-9 so fronthaul rates stay finite) by eigenvalue clipping before
evaluation, so returned quantizers are always feasible.

The min-over-relay-subsets objective is piecewise smooth.  Each restart
runs a coordinate pattern search on values alone; because it can stall where
a tie surface meets the PSD boundary, sum-rate runs finish with an annealed
soft-min polish, whose steps follow the gradients of the subset branches and
whose accepted iterates are still measured on the hard objective.  Global
optimality is not claimed.

A point costs a few stacked numpy calls, not one per relay: the projection,
fronthaul rates and B_k take one call per antenna-count group of relays
(``ScenarioTerms``), and several branch gradients one stacked inverse and
one batched product per group.  Each element sees the float operations of a
loop over relays and branches, in the same order, so results do not depend
on the grouping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _linalg as la
from .core import SubsetPair, mask_of, max_weighted_rate, spawn_seeds
from .discrete import AuxChannels, DiscreteScenario, ReducedFactors
from .gaussian import (
    QUANT_CAP_MARGIN,
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    ScenarioTerms,
    fronthaul_bits,
)

TIE_TOL = 1e-6
ACTIVE_TOL = 1e-9
IMPROVE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "sum_rate"  # "sum_rate" | "weighted"
    weights: tuple[float, ...] | None = None
    restarts: int = 4
    max_iters: int = 120
    step_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.objective not in ("sum_rate", "weighted"):
            raise ValueError("objective must be 'sum_rate' or 'weighted'")
        if self.objective == "weighted" and self.weights is None:
            raise ValueError("weighted objective needs a weight vector")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not np.isfinite(w).all() or np.any(w < 0) or not np.any(w > 0):
                raise ValueError("weights must be finite and nonnegative, one of them positive")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if self.step_tol <= 0:
            raise ValueError("step_tol must be positive")


# ---------------------------------------------------------------------------
# packed Hermitian parameterization
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Index arrays of the packed parameterization of Hermitian blocks of
    given dimensions, stored row-major one after another in a flat vector."""

    diag: np.ndarray  # flat positions of the diagonal entries
    upper: np.ndarray  # flat positions of the upper-triangle entries, row by row
    lower: np.ndarray  # flat positions of their mirror images
    diag_src: np.ndarray  # packed coordinates of the diagonal entries
    re_src: np.ndarray  # packed coordinates of Re of the upper entries
    im_src: np.ndarray  # packed coordinates of Im of the upper entries
    take: np.ndarray  # place of each packed coordinate in the flat vector as floats
    scale: np.ndarray  # packed gradient factors: 1 on the diagonal, 2 off it
    bounds: tuple[tuple[int, int], ...]  # each block's slice of the flat vector


@functools.lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...]) -> _Layout:
    diag, upper, lower, on_diag, bounds = [], [], [], [], []
    base = 0
    for d in dims:
        rows, cols = np.triu_indices(d, 1)
        diag.append(base + np.arange(d) * (d + 1))
        upper.append(base + rows * d + cols)
        lower.append(base + cols * d + rows)
        on_diag += [True] * d + [False] * (2 * rows.size)
        bounds.append((base, base + d * d))
        base += d * d
    diag, upper, lower = (np.concatenate(v) for v in (diag, upper, lower))
    on_diag = np.array(on_diag)
    diag_src, off = np.flatnonzero(on_diag), np.flatnonzero(~on_diag)
    take = np.empty(on_diag.size, dtype=np.intp)
    take[diag_src], take[off[0::2]], take[off[1::2]] = 2 * diag, 2 * upper, 2 * upper + 1
    layout = _Layout(diag, upper, lower, diag_src, off[0::2], off[1::2], take,
                     np.where(on_diag, 1.0, 2.0), tuple(bounds))
    for arr in layout[:-1]:
        arr.setflags(write=False)  # shared by every caller through the cache
    return layout


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
    """The Hermitian blocks of packed x, row-major one after another."""
    flat = np.zeros(lay.bounds[-1][1], dtype=np.complex128)
    flat[lay.diag] = x[lay.diag_src]
    re, im = x[lay.re_src], x[lay.im_src]
    flat[lay.upper] = re + 1j * im
    flat[lay.lower] = re - 1j * im
    return flat


def _unpack_hermitian(x: np.ndarray, dims) -> list[np.ndarray]:
    lay = _layout(tuple(dims))
    flat = _unpack_flat(x, lay)
    return [flat[a:b].reshape(d, d) for (a, b), d in zip(lay.bounds, dims)]


def _param_count(dims) -> int:
    return sum(d * d for d in dims)


class _Point:
    """One feasible point, evaluated once.  ``ws`` are the projected
    normalized quantizers, one (n, d, d) stack per relay group, and ``x``
    their packed coordinates; the ``evaluator``, the subset branch values
    ``vals`` and the fronthaul gradients ``charge_grads`` (stacked like
    ``ws``) are filled on first use."""

    __slots__ = ("x", "ws", "evaluator", "vals", "charge_grads")

    def __init__(self, x: np.ndarray, ws: list[np.ndarray]):
        self.x = x
        self.ws = ws
        self.evaluator = self.vals = self.charge_grads = None


class _GaussianObjective:
    """Sum-rate (or weighted-rate) objective over packed normalized quantizers.

    Each question takes packed parameters x or a point from ``at(x)``; loops
    that ask several questions about one x pass the point, so x is projected
    and evaluated once.  Per-relay work runs on the scenario's relay groups
    (``ScenarioTerms``), one stacked numpy call per group."""

    def __init__(self, sc: GaussianScenario, weights=None):
        self.sc = sc
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        if self.weights is not None and self.weights.shape != (sc.num_users,):
            raise ValueError("weights must have one entry per user")
        self.terms = ScenarioTerms(sc)  # shared by the evaluators of every x
        self.layout = _layout(sc.relay_antennas)
        # flat positions of each group's matrix entries, (n, d, d) per group
        blocks = [np.arange(a, b).reshape(d, d)
                  for (a, b), d in zip(self.layout.bounds, sc.relay_antennas)]
        self.positions = [np.array([blocks[k] for k in g.relays]) for g in self.terms.groups]
        self.sig_root_inv = [la.psd_inv_sqrt(s) for s in self.terms.stack(sc.Sigma)]
        self.k_full_root = self.terms.users(self.terms.full_users)[1]

    def project(self, ws) -> list[np.ndarray]:
        return [la.clip_eigenvalues(w, 0.0, 1.0 - QUANT_CAP_MARGIN) for w in ws]

    def at(self, x) -> _Point:
        """The projection of packed parameters x, whose own packed
        coordinates become the point's x, so steps from it move the
        projected point directly; a point is returned as is."""
        if isinstance(x, _Point):
            return x
        flat = _unpack_flat(x, self.layout)
        ws = self.project([flat[pos] for pos in self.positions])
        for pos, w in zip(self.positions, ws):
            flat[pos] = w
        return _Point(_pack_flat(flat, self.layout), ws)

    def _b(self, ws) -> list[np.ndarray]:
        return [la.hermitian_part(ri @ w @ ri) for ri, w in zip(self.sig_root_inv, ws)]

    def quantizers(self, x) -> QuantizerSetGaussian:
        return QuantizerSetGaussian(B=tuple(self.terms.unstack(self._b(self.at(x).ws))))

    def evaluator(self, x) -> GaussianEvaluator:
        """The region evaluator of x's projection, with each fronthaul rate
        taken from the eigenvalues of the normalized quantizer W_k."""
        p = self.at(x)
        if p.evaluator is None:
            mi = [fronthaul_bits(np.clip(np.linalg.eigvalsh(w), 0.0, 1.0 - QUANT_CAP_MARGIN))
                  for w in p.ws]
            p.evaluator = GaussianEvaluator(self.terms, self._b(p.ws), self.terms.merge(mi))
        return p.evaluator

    def branch_values(self, x) -> np.ndarray:
        """Sum-rate bound of every relay subset (index = subset bitmask)."""
        p = self.at(x)
        if p.vals is None:
            p.vals = self.evaluator(p).subset_bounds()
        return p.vals

    def value(self, x) -> float:
        if self.weights is None:
            return float(self.branch_values(x).min())
        val, _ = max_weighted_rate(self.evaluator(x).region(), self.weights)
        return val

    def active_masks(self, x) -> tuple[tuple[int, int], ...]:
        full_mask = mask_of(self.terms.full_users)
        if self.weights is None:
            vals = self.branch_values(x)
            lo = vals.min()
            return tuple((full_mask, s) for s in range(vals.size) if vals[s] <= lo + ACTIVE_TOL)
        region = self.evaluator(x).region()
        _, rates = max_weighted_rate(region, self.weights)
        out = []
        for pair, bound in region.constraints:
            if sum(rates[t - 1] for t in pair.users) >= bound - ACTIVE_TOL:
                out.append((pair.t_mask, pair.s_mask))
        return tuple(out)

    def tie_gap(self, x) -> float:
        """Gap between the two smallest subset branches."""
        vals = np.sort(self.branch_values(x))
        return float(vals[1] - vals[0]) if vals.size > 1 else math.inf

    def _branch_gradient(self, x, s_masks) -> np.ndarray:
        """Gradient of the subset-S branch, one row per bitmask in
        ``s_masks`` (one vector for a single mask): the fronthaul charge for
        relays in S (shared by every branch at one point) and the log-det
        term, through the inverse of the evaluator's branch matrix, for the
        rest.  The branch matrices are inverted as one stack, and each
        group's (S, k not in S) pairs are multiplied out as one batch."""
        p = self.at(x)
        ev = self.evaluator(p)
        if p.charge_grads is None:
            p.charge_grads = [la.hermitian_part(-np.linalg.inv(np.eye(w.shape[-1]) - w) / la.LN2)
                              for w in p.ws]
        masks = np.atleast_1d(s_masks)
        rows = np.empty((masks.size, self.layout.bounds[-1][1]), dtype=np.complex128)
        for pos, charge in zip(self.positions, p.charge_grads):
            rows[:, pos] = charge
        kept = np.flatnonzero(masks < len(ev.branch_matrices))  # some relay is outside S
        if kept.size:
            branch_inv = np.linalg.inv(ev.branch_matrices[masks[kept]])
            inner = self.k_full_root @ branch_inv @ self.k_full_root
            for g, ri, pos in zip(self.terms.groups, self.sig_root_inv, self.positions):
                r, i = np.nonzero(g.outside[masks[kept]])  # row of inner, relay in the group
                h_inner_h = g.h[i] @ inner[r] @ g.h_conj[i].swapaxes(-1, -2) / la.LN2
                ri_i = ri[i]
                rows[kept[r, None, None], pos[i]] = la.hermitian_part(ri_i @ h_inner_h @ ri_i)
        grads = _pack_flat(rows, self.layout) * self.layout.scale
        return grads if np.ndim(s_masks) else grads[0]

    def gradient(self, x) -> np.ndarray:
        """Gradient of the active branch (smallest-bitmask argmin) of the
        sum-rate objective with respect to the packed parameters.

        Valid where the projection is inactive, i.e. every W_k strictly
        inside 0 < W < I; near a subset tie the objective is kinked and the
        returned branch gradient is one-sided."""
        if self.weights is not None:
            raise ValueError("analytic gradient is only defined for the sum-rate objective")
        p = self.at(x)
        vals = self.branch_values(p)
        active = int(np.flatnonzero(vals <= vals.min() + IMPROVE_TOL)[0])
        return self._branch_gradient(p, active)

    def softmin(self, x, tau: float, gradient: bool = True) -> tuple[float, np.ndarray | None]:
        """Smooth lower envelope -tau log2 sum_S 2^{-v_S/tau} of the subset
        branches and its gradient (a concave surrogate of the hard min); with
        ``gradient=False`` the value alone, and None."""
        p = self.at(x)
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


def _pack_gradient(mats) -> np.ndarray:
    """Gradient w.r.t. the packed coordinates of a Hermitian parameterization:
    diagonal entries map to Re G_ii, off-diagonal (re, im) pairs to
    (2 Re G_ij, 2 Im G_ij)."""
    return _pack_hermitian(mats) * _layout(tuple(g.shape[0] for g in mats)).scale


def sum_rate_field(sc: GaussianScenario) -> "ScalarField":
    """The Gaussian sum-rate objective as a differentiable scalar field over
    packed quantizer parameters (see :func:`finite_diff_check`)."""
    obj = _GaussianObjective(sc)
    return ScalarField(value=obj.value, gradient=obj.gradient, tie_gap=obj.tie_gap)


# ---------------------------------------------------------------------------
# search loops (value-based, monotone in accepted iterates)
# ---------------------------------------------------------------------------


def _coordinate_search(value: Callable, x0: np.ndarray, cfg: OptimizerConfig):
    """Pattern search: along each coordinate in turn, try a step up, then
    down, doubling it while the value improves; halve the step after a
    sweep without improvement."""
    x = x0.copy()
    best = value(x)
    trace = [best]
    step = 0.25
    converged = False
    for _ in range(cfg.max_iters):
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
            if step < cfg.step_tol:
                converged = True
                break
    return x, best, trace, converged


def _softmin_polish(obj: _GaussianObjective, x0: np.ndarray, cfg: OptimizerConfig):
    """Annealed ascent on the smooth soft-min surrogate.

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
        for _ in range(cfg.max_iters):
            val, g = obj.softmin(p, tau)
            norm = float(np.linalg.norm(g))
            if norm < 1e-14:
                break
            moved = False
            while step >= cfg.step_tol:
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
class GaussianOptResult:
    quantizers: QuantizerSetGaussian
    objective: float
    converged: bool
    trace: tuple[float, ...]
    active: tuple[tuple[int, int], ...]  # (T mask, S mask) pairs tight at the optimum


def optimize_gaussian_quantizers(sc: GaussianScenario, cfg: OptimizerConfig) -> GaussianOptResult:
    """Multi-start search for quantization matrices maximizing the configured
    objective.  Restart 0 starts from zero quantizers; the rest start from
    seeded random feasible points.  Deterministic for a fixed config."""
    obj = _GaussianObjective(sc, weights=cfg.weights if cfg.objective == "weighted" else None)
    dims = sc.relay_antennas
    seeds = spawn_seeds(cfg.seed, cfg.restarts)

    def one_restart(index: int):
        if index == 0:
            x0 = np.zeros(_param_count(dims))
        else:
            rng = np.random.default_rng(seeds[index])
            mats = []
            for d in dims:
                z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                qmat, _ = np.linalg.qr(z)
                lam = rng.uniform(0.05, 0.85, size=d)
                mats.append(la.hermitian_part((qmat * lam) @ qmat.conj().T))
            x0 = _pack_hermitian(mats)
        x, best, trace, converged = _coordinate_search(obj.value, x0, cfg)
        if cfg.objective == "sum_rate":
            x2, best2, trace2 = _softmin_polish(obj, x, cfg)
            if best2 > best:
                x, best = x2, best2
                trace = trace + trace2
        return x, best, trace, converged

    outcomes = [one_restart(i) for i in range(cfg.restarts)]

    best_idx = max(range(cfg.restarts), key=lambda i: (outcomes[i][1], -i))
    x, value, trace, converged = outcomes[best_idx]
    p = obj.at(x)
    return GaussianOptResult(
        quantizers=obj.quantizers(p),
        objective=value,
        converged=converged,
        trace=tuple(trace),
        active=obj.active_masks(p),
    )


@dataclass(frozen=True)
class DiscreteOptResult:
    aux: AuxChannels
    objective: float
    converged: bool
    trace: tuple[float, ...]
    active: tuple[int, ...]  # relay-subset masks tight at the optimum


def optimize_discrete_aux(
    sc: DiscreteScenario, cardinalities, cfg: OptimizerConfig
) -> DiscreteOptResult:
    """Random-restart coordinate ascent over the quantization tables
    p(u_k|y_k,q), maximizing the joint-decoding sum-rate.

    Restart 0 starts from the deterministic staircase quantizer
    u = floor(y |U| / |Y|); further restarts draw Dirichlet rows.  Each
    coordinate move reshapes one conditional row toward a vertex of the
    simplex and keeps it only on improvement."""
    from .sumrate import _jd_sum_rate

    card = tuple(int(u) for u in cardinalities)
    if len(card) != sc.num_relays or any(u < 1 for u in card):
        raise ValueError("need one positive cardinality per relay")
    if cfg.objective != "sum_rate":
        raise ValueError("discrete search supports only the sum-rate objective")
    factors = ReducedFactors(sc, card)
    seeds = spawn_seeds(cfg.seed, cfg.restarts)
    nq = sc.num_timeshare

    def staircase() -> list[np.ndarray]:
        tables = []
        for y_size, u_size in zip(sc.output_sizes, card):
            t = np.zeros((nq, y_size, u_size))
            for y in range(y_size):
                t[:, y, min(u_size - 1, (y * u_size) // y_size)] = 1.0
            tables.append(t)
        return tables

    def random_tables(rng) -> list[np.ndarray]:
        return [
            rng.dirichlet(np.ones(u_size), size=(nq, y_size))
            for y_size, u_size in zip(sc.output_sizes, card)
        ]

    def evaluate(tables) -> float:
        return _jd_sum_rate(factors.evaluator(tables))

    def one_restart(index: int):
        rng = np.random.default_rng(seeds[index])
        tables = staircase() if index == 0 else random_tables(rng)
        best = evaluate(tables)
        trace = [best]
        converged = False
        for _ in range(cfg.max_iters):
            improved = False
            for k, (y_size, u_size) in enumerate(zip(sc.output_sizes, card)):
                if u_size == 1:
                    continue
                for qi in range(nq):
                    for y in range(y_size):
                        row = tables[k][qi, y].copy()
                        cand_best, cand_row = best, None
                        for u in range(u_size):
                            vertex = np.zeros(u_size)
                            vertex[u] = 1.0
                            for t in (1.0, 0.5, 0.25):
                                trial_row = (1.0 - t) * row + t * vertex
                                tables[k][qi, y] = trial_row
                                v = evaluate(tables)
                                if v > cand_best + IMPROVE_TOL:
                                    cand_best, cand_row = v, trial_row.copy()
                        tables[k][qi, y] = row if cand_row is None else cand_row
                        if cand_row is not None:
                            best = cand_best
                            trace.append(best)
                            improved = True
            if not improved:
                converged = True
                break
        return tables, best, trace, converged

    outcomes = [one_restart(i) for i in range(cfg.restarts)]
    best_idx = max(range(cfg.restarts), key=lambda i: (outcomes[i][1], -i))
    tables, value, trace, converged = outcomes[best_idx]
    aux = AuxChannels(tables=tuple(np.asarray(t) for t in tables))
    bounds = factors.evaluator(aux.tables).subset_bounds()
    active = tuple(
        int(s) for s in range(bounds.size) if bounds[s] <= bounds.min() + ACTIVE_TOL
    )
    return DiscreteOptResult(
        aux=aux,
        objective=value,
        converged=converged,
        trace=tuple(trace),
        active=active,
    )


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


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


def finite_diff_check(f: ScalarField, x, h: float = 1e-5) -> GradientCheck:
    """Compare f's analytic gradient at x against central finite differences
    with per-coordinate step h * max(1, |x_d|).

    If the field reports two subset branches within 1e-6 of tying at x, the
    result is flagged inconclusive (the objective is kinked there and central
    differences straddle the kink)."""
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


# ---------------------------------------------------------------------------
# Monte Carlo validation of the Gaussian information term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def _real_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real matrices (P, Q) with a @ P + b @ Q = [Re | Im] of (a + ib) @ m,
    for real row blocks a and b."""
    return np.hstack([m.real, m.imag]), np.hstack([-m.imag, m.real])


def _row_sqnorm(v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", v, v)


def mc_mutual_information(
    sc: GaussianScenario,
    q: QuantizerSetGaussian,
    pair: SubsetPair,
    samples: int,
    seed: int,
    batch: int = 100_000,
) -> McEstimate:
    """Monte Carlo estimate of I(X_T; U_{S^c} | X_{T^c}) in bits.

    Realizes each quantizer as the additive test channel U_k = Y_k + Z_k with
    Z_k ~ CN(0, B_k^{-1} - Sigma_k), draws inputs and noises, and averages the
    exact Gaussian log-density ratio (so the estimator is unbiased for the
    analytic value).  Every B_k with k outside S must be strictly inside
    (0, Sigma_k^{-1}); boundary quantizers have no finite test channel.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    q.validate(sc)
    relays_c = pair.relays_complement(sc.num_relays)
    if not relays_c:
        return McEstimate(estimate=0.0, std_error=0.0, samples=samples)
    cond_blocks = []
    for k in relays_c:
        b = q.B[k - 1]
        lam = np.linalg.eigvalsh(b)
        root = la.psd_sqrt(sc.Sigma[k - 1])
        wlam = np.linalg.eigvalsh(la.hermitian_part(root @ b @ root))
        if lam.min() <= 1e-12 or wlam.max() >= 1.0 - 1e-12:
            raise ValueError(
                f"B[{k}] is on the feasibility boundary; no finite test channel exists"
            )
        cond_blocks.append(la.hermitian_part(np.linalg.inv(b)))  # Sigma_k + Q_k
    lam_cond = la.block_diag(cond_blocks)
    h_t = np.vstack([sc.channel_to_users(k, pair.users) for k in relays_c])
    k_t_root = la.psd_sqrt(sc.input_covariance(pair.users))
    lam_marg = la.hermitian_part(h_t @ (k_t_root @ k_t_root) @ h_t.conj().T + lam_cond)
    logdet_gap = (la.logdet2(lam_marg) - la.logdet2(lam_cond)) * la.LN2  # nats

    # Whitened coordinates.  The centred observation given x_T is the noise
    # lam_cond^{1/2} z with z ~ CN(0, I), whose quadratic form under
    # lam_cond^{-1} is ||z||^2.  The marginal form u^H lam_marg^{-1} u is
    # ||u^T conj(L)||^2 for the Cholesky factor L L^H = lam_marg^{-1}, and
    # u^T conj(L) = x^T signal_map + z^T noise_map for x ~ CN(0, I), the
    # input before K_T^{1/2}.  A CN(0, I) row is (a + ib) / sqrt(2) with a, b
    # standard normal rows, so the maps act on a and b as real matrices.
    # Only u - H_Tc x_Tc enters, so the interferers' inputs are never drawn.
    marg_factor = np.linalg.cholesky(np.linalg.inv(lam_marg)).conj()
    signal_map = k_t_root.T @ h_t.T @ marg_factor
    noise_map = la.psd_sqrt(lam_cond).T @ marg_factor
    (x_re, x_im), (z_re, z_im) = (_real_form(m / math.sqrt(2.0)) for m in (signal_map, noise_map))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        x = rng.standard_normal((2, n, k_t_root.shape[0]))  # real parts, then imaginary
        z = rng.standard_normal((2, n, lam_cond.shape[0]))
        quad_marg = _row_sqnorm(x[0] @ x_re + x[1] @ x_im + z[0] @ z_re + z[1] @ z_im)
        quad_cond = 0.5 * (_row_sqnorm(z[0]) + _row_sqnorm(z[1]))
        vals = (logdet_gap - quad_cond + quad_marg) / la.LN2
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += n
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return McEstimate(
        estimate=mean,
        std_error=math.sqrt(var / samples),
        samples=samples,
    )
