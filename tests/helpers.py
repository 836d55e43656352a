"""Helpers shared by the tests: finite-difference checks of the Gaussian
sum-rate objective's branch gradients, the inverse of the packed Hermitian
parameterization, and the additive test channel of a quantizer."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ocran import _linalg as la
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
    vals = np.sort(obj.branch_values(x))
    return float(vals[1] - vals[0]) if vals.size > 1 else math.inf


def active_gradient(obj: _GaussianObjective, x) -> np.ndarray:
    """Gradient of the active branch (smallest-bitmask argmin) of the
    sum-rate objective with respect to the packed parameters.

    Valid where the projection is inactive, i.e. every W_k strictly inside
    0 < W < I; near a subset tie the objective is kinked and the returned
    branch gradient is one-sided."""
    p = obj.at(x)
    vals = obj.branch_values(p)
    active = int(np.flatnonzero(vals <= vals.min() + IMPROVE_TOL)[0])
    return obj._branch_gradient(p, active)


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
        value=obj.value,
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
