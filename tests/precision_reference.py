"""Long-double reference values of the discrete rate bounds, against which
the float64 bounds that ocran prints are held to rounding error.

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
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble


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
