"""Reference computations the benchmark checks the program's outputs against.

Each is written here from the formulas, with plain numpy and none of the
program's code, so that a defect in the program cannot hide in its own check.
All values are in bits; |Q| = 1 throughout, so conditioning on Q is dropped.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from instances import DiscreteInstance


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _pxy(inst: DiscreteInstance) -> np.ndarray:
    """p(x_1..x_L, y_1..y_K) with the X axes flattened into one."""
    num_users = len(inst.px)
    p = inst.channel
    for l, px in enumerate(inst.px):
        p = p * px.reshape([px.size if i == l else 1 for i in range(p.ndim)])
    return p.reshape(-1, *inst.channel.shape[num_users:])


def g_plus_all(inst: DiscreteInstance, r_sum: float) -> float:
    """max(0, R_sum + I(U_all; Y_all) - I(U_all; X_all)).  Every extreme
    point of the fronthaul polytope telescopes to this value."""
    pxy = _pxy(inst)
    py = pxy.sum(axis=0)
    # U_k depends on Y_k alone, so H(U|Y) is a sum of per-relay terms
    h_u_given_y = 0.0
    pxu = pxy
    for k, t in enumerate(inst.aux):
        p_yk = py.sum(axis=tuple(i for i in range(py.ndim) if i != k))
        h_u_given_y += float(p_yk @ np.array([_entropy(row) for row in t]))
        pxu = np.tensordot(pxu, t, axes=([1], [0]))  # y_k -> u_k, moved last
    pxu = pxu.reshape(pxu.shape[0], -1)
    h_u = _entropy(pxu.sum(axis=0))
    i_uy = h_u - h_u_given_y
    i_ux = h_u + _entropy(pxu.sum(axis=1)) - _entropy(pxu.ravel())
    return max(0.0, r_sum + i_uy - i_ux)


def jd_sum_rate(inst: DiscreteInstance, fronthaul, aux=None) -> float:
    """Joint decompression-decoding sum-rate max(0, min_S bound(S)) with
    bound(S) = sum_{k in S} C_k - I(Y_S; U_S | X, U_{S^c}) + I(U_{S^c}; X),
    from entropies of marginals of the dense joint p(x, y_1..y_K, u_1..u_K).
    ``aux`` replaces the instance's quantization tables when given."""
    aux = inst.aux if aux is None else aux
    num_relays = len(aux)
    joint = _pxy(inst)
    axes_y = list(range(1, 1 + num_relays))
    operands = [joint, [0] + axes_y]
    for k, t in enumerate(aux):
        operands += [t, [1 + k, 1 + num_relays + k]]
    joint = np.einsum(*operands, [0] + axes_y + [1 + num_relays + k for k in range(num_relays)])
    cache: dict[frozenset, float] = {}

    def h(axes) -> float:
        key = frozenset(axes)
        if key not in cache:
            drop = tuple(i for i in range(joint.ndim) if i not in key)
            cache[key] = _entropy(joint.sum(axis=drop) if drop else joint)
        return cache[key]

    def cmi(a, b, c) -> float:
        a, b, c = set(a), set(b), set(c)
        return h(a | c) + h(b | c) - h(a | b | c) - h(c)

    x = {0}
    best = math.inf
    for size in range(num_relays + 1):
        for s in combinations(range(num_relays), size):
            comp = [k for k in range(num_relays) if k not in s]
            y_s = {1 + k for k in s}
            u_s = {1 + num_relays + k for k in s}
            u_c = {1 + num_relays + k for k in comp}
            leak = cmi(y_s, u_s, x | u_c) if s else 0.0
            recovered = cmi(u_c, x, set()) if comp else 0.0
            best = min(best, sum(fronthaul[k] for k in s) - leak + recovered)
    return max(0.0, best)


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------


def complex_matrix(m) -> np.ndarray:
    """A matrix from the scenario JSON form, entries as [re, im] pairs."""
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _logdet2(m: np.ndarray) -> float:
    sign, logabs = np.linalg.slogdet(m)
    if sign.real <= 0:
        raise ArithmeticError("log-det argument is not positive definite")
    return float(logabs / math.log(2.0))


def _root(m: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T


class GaussianBounds:
    """Every constraint bound of a Gaussian region for fixed quantizers:
    bound(T, S) = sum_{k in S} [C_k - I_k] + log2 det(I + K_T^1/2 A K_T^1/2),
    A = sum_{k not in S} H_{k,T}^H B_k H_{k,T}, I_k = -log2 det(I - S_k^1/2 B_k S_k^1/2)."""

    def __init__(self, scenario: dict, b_mats):
        ch = scenario["channel"]
        self.num_users = scenario["users"]
        self.num_relays = scenario["relays"]
        self.fronthaul = list(scenario["fronthaul"])
        self.h = [[complex_matrix(m) for m in row] for row in ch["H"]]
        self.kin = [complex_matrix(m) for m in ch["Kin"]]
        sigma = [complex_matrix(m) for m in ch["Sigma"]]
        self.b = [np.asarray(b, dtype=complex) for b in b_mats]
        self.quant_bits = []
        self.normalized_eigs = []
        for s, b in zip(sigma, self.b):
            r = _root(s)
            lam = np.linalg.eigvalsh(0.5 * (r @ b @ r + (r @ b @ r).conj().T))
            self.normalized_eigs.append(lam)
            self.quant_bits.append(float(-np.sum(np.log2(1.0 - lam))))

    def bound(self, t_mask: int, s_mask: int) -> float:
        users = [l for l in range(self.num_users) if t_mask >> l & 1]
        inside = [k for k in range(self.num_relays) if not s_mask >> k & 1]
        value = sum(self.fronthaul[k] - self.quant_bits[k]
                    for k in range(self.num_relays) if s_mask >> k & 1)
        if not inside:
            return value
        k_root = _root(_block_diag([self.kin[l] for l in users]))
        a = sum(
            np.hstack([self.h[k][l] for l in users]).conj().T @ self.b[k]
            @ np.hstack([self.h[k][l] for l in users])
            for k in inside
        )
        m = np.eye(k_root.shape[0]) + k_root @ a @ k_root
        return value + _logdet2(0.5 * (m + m.conj().T))

    def sum_rate(self) -> float:
        full = (1 << self.num_users) - 1
        return max(0.0, min(self.bound(full, s) for s in range(1 << self.num_relays)))

    def two_user_caps(self) -> tuple[float, float, float]:
        """(a, b, c) such that a two-user region is {R1 <= a, R2 <= b, R1 + R2 <= c}."""
        a, b, c = (min(self.bound(t, s) for s in range(1 << self.num_relays)) for t in (1, 2, 3))
        return a, b, c

    def max_weighted(self, w1: float, w2: float) -> float:
        """Largest w1 R1 + w2 R2 over a two-user region and R >= 0; the
        optimum sits on the corner that favours the heavier user."""
        a, b, c = self.two_user_caps()
        if w1 >= w2:
            r1 = min(a, c)
            r2 = min(b, c - r1)
        else:
            r2 = min(b, c)
            r1 = min(a, c - r2)
        return w1 * r1 + w2 * r2


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out
