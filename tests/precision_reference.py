"""Long-double reference values of the discrete and Gaussian rate bounds,
against which the float64 bounds that ocran prints are held to rounding
error.

``LongDoubleReference(sc, aux)`` forms the dense joint

    p(q, x_1..x_L, y_1..y_K, u_1..u_K) = p(q) prod_l p(x_l|q) p(y|x) prod_k p(u_k|y_k,q)

in ``np.longdouble`` from the scenario's and tables' numbers, and
``bounds(family)`` the (2^L - 1, 2^K) table of thm1 or thm3 bounds, row
T mask - 1 and column S mask, from entropies of its marginals.  Both bounds
are written in the theorems' mutual informations, each given Q, and each
mutual information in joint entropies read straight off the dense joint:

    thm1: sum_{k in S} [C_k - I(Y_k; U_k | X)] + I(X_T; U_{S^c} | X_{T^c})
    thm3: C_S - I(Y_S; U_S | X, U_{S^c}) + I(X_T; U_{S^c} | X_{T^c})

No ocran code computes any of it: not ``ReducedFactors``, its subset
lattice, nor ``core.Evaluator``'s formulas.  With ``reverse`` the factors
are multiplied, the axes summed out and each entropy's terms added in the
opposite order, so the two orders bound the reference's own rounding.

``GaussianLongDoubleReference(sc, q)`` does the same for the Gaussian
bounds, in ``np.clongdouble``:

    sum_{k in S} [C_k + log2 det(I - L_k^H B_k L_k)] + log2 det(I + L_T^H A_{T,S} L_T)

with Sigma_k = L_k L_k^H, K_T = L_T L_T^H and
A_{T,S} = sum_{k not in S} H_{k,T}^H B_k H_{k,T}.  numpy factors no long
double matrix, so ``cholesky`` is written out here and every log-det is
twice the log2 of its factor's diagonal: no ``eigh``, ``psd_sqrt`` or
``core.Evaluator`` code runs.  With ``reverse`` A and the fronthaul
charges are summed over the relays in the opposite order.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble
CLD = np.clongdouble


class LongDoubleReference:
    def __init__(self, sc, aux, reverse: bool = False):
        self.sc, self.reverse = sc, reverse
        l_, k_ = sc.num_users, sc.num_relays
        self.q_axes = (0,)
        self.x_axes = tuple(range(1, 1 + l_))
        self.y_axes = tuple(range(1 + l_, 1 + l_ + k_))
        self.u_axes = tuple(range(1 + l_ + k_, 1 + l_ + 2 * k_))
        ndim = 1 + l_ + 2 * k_
        factors = [self._place(sc.time_share, (0,), ndim)]
        factors += [self._place(t, (0, x), ndim) for t, x in zip(sc.px, self.x_axes)]
        factors.append(self._place(sc.channel, self.x_axes + self.y_axes, ndim))
        factors += [self._place(t, (0, y, u), ndim)
                    for t, y, u in zip(aux.tables, self.y_axes, self.u_axes)]
        self.p = LD(1)
        for f in factors[::-1] if reverse else factors:
            self.p = self.p * f
        self._entropies: dict[tuple[int, ...], LD] = {}

    @staticmethod
    def _place(table, axes, ndim) -> np.ndarray:
        """``table`` in long double with its axes at the increasing
        positions ``axes`` of an ndim-axis array, and length 1 elsewhere."""
        t = np.asarray(table, dtype=LD)
        shape = [1] * ndim
        for axis, size in zip(axes, t.shape):
            shape[axis] = size
        return t.reshape(shape)

    def entropy(self, axes) -> LD:
        """H of the marginal on ``axes``, in bits: the other axes summed
        out one at a time, then -sum p log2 p over its positive entries."""
        key = tuple(sorted(set(axes)))
        if key not in self._entropies:
            drop = [a for a in range(self.p.ndim) if a not in key]
            marginal = self.p
            for a in drop[::-1] if self.reverse else drop:
                marginal = marginal.sum(axis=a, keepdims=True)
            m = marginal.ravel()
            m = m[m > 0]
            terms = -m * np.log2(m)
            self._entropies[key] = (terms[::-1] if self.reverse else terms).sum()
        return self._entropies[key]

    def mi(self, a, b, given) -> LD:
        """I(A; B | given) = H(A, given) + H(B, given) - H(A, B, given) - H(given)."""
        a, b, given = tuple(a), tuple(b), tuple(given)
        return (self.entropy(a + given) + self.entropy(b + given)
                - self.entropy(a + b + given) - self.entropy(given))

    def bounds(self, family: str) -> np.ndarray:
        if family not in ("thm1", "thm3"):
            raise ValueError(f"unknown constraint family {family!r}")
        sc = self.sc
        table = np.empty(((1 << sc.num_users) - 1, 1 << sc.num_relays), dtype=LD)
        fronthaul = np.asarray(sc.fronthaul, dtype=LD)
        q, x = self.q_axes, self.x_axes
        for t_mask in range(1, 1 << sc.num_users):
            x_t = tuple(a for i, a in enumerate(x) if t_mask >> i & 1)
            x_tc = tuple(a for a in x if a not in x_t)
            for s_mask in range(1 << sc.num_relays):
                inside = [k for k in range(sc.num_relays) if s_mask >> k & 1]
                u_sc = tuple(a for k, a in enumerate(self.u_axes) if k not in inside)
                info = self.mi(x_t, u_sc, x_tc + q)
                if family == "thm1":
                    charge = sum((fronthaul[k] - self.mi((self.y_axes[k],), (self.u_axes[k],),
                                                         x + q) for k in inside), LD(0))
                else:
                    y_s = tuple(self.y_axes[k] for k in inside)
                    u_s = tuple(self.u_axes[k] for k in inside)
                    charge = (sum((fronthaul[k] for k in inside), LD(0))
                              - self.mi(y_s, u_s, x + u_sc + q))
                table[t_mask - 1, s_mask] = charge + info
        return table


def cholesky(m) -> np.ndarray:
    """The lower-triangular L with m = L L^H of a Hermitian positive
    definite m, in complex long double, column by column."""
    m = np.asarray(m, dtype=CLD)
    n = m.shape[0]
    factor = np.zeros_like(m)
    for j in range(n):
        row = factor[j, :j]
        pivot = m[j, j].real - np.sum(row.real ** 2 + row.imag ** 2)
        if not pivot > 0:
            raise ValueError("matrix is not positive definite")
        factor[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            factor[i, j] = (m[i, j] - np.sum(factor[i, :j] * row.conj())) / factor[j, j]
    return factor


def logdet2(m) -> LD:
    """log2 det m of a Hermitian positive definite m, from its Cholesky factor."""
    return 2 * np.sum(np.log2(np.diagonal(cholesky(m)).real))


class GaussianLongDoubleReference:
    def __init__(self, sc, q, reverse: bool = False):
        self.sc, self.reverse = sc, reverse
        # each relay's H_k^H B_k H_k over all users' antennas
        self.g = []
        self.rates = []
        for h_row, b, sigma in zip(sc.H, q.B, sc.Sigma):
            h = np.hstack([np.asarray(m, dtype=CLD) for m in h_row])
            b = np.asarray(b, dtype=CLD)
            self.g.append(h.conj().T @ b @ h)
            root = cholesky(sigma)
            self.rates.append(-logdet2(np.eye(len(root), dtype=CLD) - root.conj().T @ b @ root))
        self.offsets = np.cumsum((0,) + sc.user_antennas)
        # all users' input covariances on the block diagonal
        self.k_in = np.zeros((self.offsets[-1],) * 2, dtype=CLD)
        for l, m in enumerate(sc.Kin):
            self.k_in[self.offsets[l]:self.offsets[l + 1], self.offsets[l]:self.offsets[l + 1]] = m

    def _relays(self, s_mask: int, inside: bool) -> list[int]:
        relays = [k for k in range(self.sc.num_relays) if bool(s_mask >> k & 1) == inside]
        return relays[::-1] if self.reverse else relays

    def bounds(self) -> np.ndarray:
        """The (2^L - 1, 2^K) table of Gaussian bounds, row T mask - 1 and
        column S mask."""
        sc = self.sc
        table = np.empty(((1 << sc.num_users) - 1, 1 << sc.num_relays), dtype=LD)
        for t_mask in range(1, 1 << sc.num_users):
            users = [l for l in range(sc.num_users) if t_mask >> l & 1]
            idx = np.concatenate([np.arange(self.offsets[l], self.offsets[l + 1]) for l in users])
            root = cholesky(self.k_in[np.ix_(idx, idx)])
            eye = np.eye(idx.size, dtype=CLD)
            for s_mask in range(1 << sc.num_relays):
                a = np.zeros((idx.size, idx.size), dtype=CLD)
                for k in self._relays(s_mask, inside=False):
                    a = a + self.g[k][np.ix_(idx, idx)]
                charge = sum((LD(sc.fronthaul[k]) - self.rates[k]
                              for k in self._relays(s_mask, inside=True)), LD(0))
                table[t_mask - 1, s_mask] = charge + logdet2(eye + root.conj().T @ a @ root)
        return table
