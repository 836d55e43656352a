"""Exact finite-alphabet evaluation of the rate-region formulas.

The joint law used everywhere is

    p(q) * prod_l p(x_l|q) * p(y_1..y_K | x_1..x_L) * prod_k p(u_k|y_k,q).

Because each relay quantizes obliviously, every bound of product
quantization channels is an entropy of the reduced joint p(q, x, u) minus
per-relay constants H(U_k | Y_k, Q), so the Y axes are summed out while the
reduced joint is contracted (``ReducedFactors``).  ``JointPmf`` (labeled
axes 'Q', 'X1'.., 'Y1'.., 'U1'..), ``cmi`` and ``build_joint`` are the dense
reference the tests compare against.  Tensors are capped at
MAX_JOINT_ENTRIES entries; within that budget every information quantity
is an exact sum (0 log 0 = 0), so the only error is float rounding.

Two constraint families are evaluated:

* ``"thm1"`` - the exact region for channels whose relay outputs are
  conditionally independent given the user inputs,
* ``"thm3"`` - the general inner bound (no independence needed).

Both are written once, in ``DiscreteEvaluator.subset_bounds``: the bounds of
one user set T over every relay set S, from entropies of the reduced joint.
Every other discrete bound reads it: one (T, S) pair (``bound``), a region
(``region_discrete``), the joint-decoding sum-rate bounds, and in
``ocran.sumrate`` the set function g(S) and the separate-decompression test.
The successive Wyner-Ziv rates there are differences of the same entropy
vectors (``DiscreteEvaluator.u_entropies``), so that layer computes no
entropy of its own.
``ReducedFactors.sum_rate_jacobian`` gives the gradients of the sum-rate
bounds in the quantization tables, for the discrete optimizer.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from string import ascii_lowercase, ascii_uppercase

import numpy as np

from .core import (
    CapacityError,
    PMF_TOL,
    RateRegion,
    Scenario,
    ScenarioError,
    SubsetPair,
    check_finite,
    mask_of,
    subset_sums,
)

MAX_JOINT_ENTRIES = 10_000_000
# an information quantity below -NEGATIVE_INFO_TOL bits is a numeric failure
NEGATIVE_INFO_TOL = 1e-9
# largest entry-wise distance of a channel from the product of its marginals
# that still counts as conditionally independent
INDEPENDENCE_TOL = 1e-9


def user_axis(l: int) -> str:
    return f"X{l}"


def relay_axis(k: int) -> str:
    return f"Y{k}"


def aux_axis(k: int) -> str:
    return f"U{k}"


@dataclass(frozen=True)
class DiscreteScenario(Scenario):
    """Finite-alphabet scenario: per-user input tables p(x_l|q) of shape
    (|Q|, |X_l|) and the channel tensor p(y_1..y_K|x_1..x_L) with axes
    (X_1, ..., X_L, Y_1, ..., Y_K), normalized over the Y axes."""

    px: tuple[np.ndarray, ...]
    channel: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if len(self.px) != self.num_users:
            raise ScenarioError("px must have one table per user")
        tables = tuple(_pmf_table(t, f"px[{l}]", ("|Q|", f"|X_{l}|"), self.num_timeshare)
                       for l, t in enumerate(self.px, start=1))
        ch = np.array(self.channel, dtype=float, order="C")
        x_sizes = tuple(t.shape[1] for t in tables)
        if ch.ndim != self.num_users + self.num_relays or ch.shape[: self.num_users] != x_sizes:
            raise ScenarioError(
                f"channel tensor must have axes (X_1..X_{self.num_users}, "
                f"Y_1..Y_{self.num_relays}); got shape {ch.shape}"
            )
        y_total = ch[(0,) * self.num_users].size
        if self.num_timeshare * int(np.prod(x_sizes)) * y_total > MAX_JOINT_ENTRIES:
            raise CapacityError("scenario tensor exceeds the dense-size guard")
        check_finite(ch, "channel")
        flat = ch.reshape(int(np.prod(x_sizes)), y_total)
        if np.any(flat < 0) or np.max(np.abs(flat.sum(axis=1) - 1.0)) > PMF_TOL:
            raise ScenarioError("channel tensor rows p(.|x) must be pmfs")
        ch.setflags(write=False)
        object.__setattr__(self, "px", tables)
        object.__setattr__(self, "channel", ch)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.px)

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return self.channel.shape[self.num_users:]


@dataclass(frozen=True)
class AuxChannels:
    """Per-relay quantization channels p(u_k|y_k,q), each a table of shape
    (|Q|, |Y_k|, |U_k|)."""

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(
            _pmf_table(t, f"aux[{k}]", ("|Q|", f"|Y_{k}|", f"|U_{k}|"))
            for k, t in enumerate(self.tables, start=1)))

    @property
    def aux_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tables)

    def check_compatible(self, sc: DiscreteScenario) -> None:
        if len(self.tables) != sc.num_relays:
            raise ScenarioError("need one aux channel per relay")
        for k, t in enumerate(self.tables, start=1):
            if t.shape[0] != sc.num_timeshare or t.shape[1] != sc.output_sizes[k - 1]:
                raise ScenarioError(f"aux[{k}] does not match the scenario alphabets")


def identity_aux(sc: DiscreteScenario) -> AuxChannels:
    """Copy channels U_k = Y_k (no quantization)."""
    tables = []
    for size in sc.output_sizes:
        eye = np.broadcast_to(np.eye(size), (sc.num_timeshare, size, size))
        tables.append(np.ascontiguousarray(eye))
    return AuxChannels(tables=tuple(tables))


class JointPmf:
    """Dense joint pmf with labeled axes and cached subset entropies."""

    def __init__(self, tensor: np.ndarray, axes: tuple[str, ...]):
        """``tensor`` is a pmf by construction (products and sums of
        validated pmfs), so only its labels are checked.  It is kept as a
        clipped copy in the input's memory order, which sets every
        reduction's summation order."""
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != len(axes) or len(set(axes)) != len(axes):
            raise ValueError("axis labels must be unique and match tensor rank")
        tensor = np.clip(tensor, 0.0, None)
        tensor.setflags(write=False)
        self.tensor = tensor
        self.axes = tuple(axes)
        self._entropy_cache: dict[frozenset, float] = {}

    def marginal(self, labels) -> np.ndarray:
        keep = set(labels)
        unknown = keep - set(self.axes)
        if unknown:
            raise KeyError(f"unknown axes {sorted(unknown)}")
        drop = tuple(i for i, ax in enumerate(self.axes) if ax not in keep)
        return self.tensor.sum(axis=drop) if drop else self.tensor

    def entropy(self, labels) -> float:
        """H of the marginal on ``labels``, in bits."""
        key = frozenset(labels)
        if key not in self._entropy_cache:
            self._entropy_cache[key] = _entropy(self.marginal(key))
        return self._entropy_cache[key]


def _entropy(p: np.ndarray) -> float:
    """H in bits of a marginal pmf tensor."""
    # a total a few ulps off 1 would give a point mass H != 0
    nz = p[p > 0] / p.sum()
    return float(-(nz * np.log2(nz)).sum())


def cmi(j: JointPmf, a, b, c=()) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    A, B, C are disjoint collections of axis labels; empty A or B gives 0.
    Rounding dust down to -NEGATIVE_INFO_TOL reads 0; a more negative value
    is a numeric failure and raises ``ArithmeticError``.
    """
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise ValueError("axis sets must be disjoint")
    if not a or not b:
        return 0.0
    val = j.entropy(a | c) + j.entropy(b | c) - j.entropy(a | b | c) - j.entropy(c)
    return _nonnegative(val, "conditional mutual information")


def _nonnegative(val: float, name: str) -> float:
    """An information quantity, with rounding dust in [-NEGATIVE_INFO_TOL, 0)
    read as 0."""
    if val < -NEGATIVE_INFO_TOL:
        raise ArithmeticError(f"{name} is {val:.3e} bits, negative beyond rounding")
    return max(0.0, val)


def _pmf_table(t, name: str, axes: tuple[str, ...], rows: int | None = None) -> np.ndarray:
    """``t`` as a finite, read-only float table with the named ``axes``
    (``rows`` entries on the first, when given), holding pmfs along its
    nonempty last axis."""
    t = np.array(t, dtype=float, order="C")
    if t.ndim != len(axes) or t.shape[-1] < 1 or rows not in (None, t.shape[0]):
        raise ScenarioError(f"{name} must have shape ({', '.join(axes)})")
    check_finite(t, name)
    if np.any(t < 0):
        raise ScenarioError(f"{name} has negative entries")
    sums = t.sum(axis=-1)
    if sums.size and np.max(np.abs(sums - 1.0)) > PMF_TOL:
        raise ScenarioError(f"{name} is not normalized along its distribution axis")
    t.setflags(write=False)
    return t


def _letters(n: int) -> str:
    pool = ascii_lowercase + ascii_uppercase
    if n > len(pool):
        raise CapacityError("too many tensor axes for einsum construction")
    return pool[:n]


def check_conditional_independence(sc: DiscreteScenario) -> bool:
    """True iff p(y_1..y_K|x) factorizes into prod_k p(y_k|x) within
    INDEPENDENCE_TOL."""
    l, k = sc.num_users, sc.num_relays
    if k == 1:
        return True
    letters = _letters(l + k)
    xs, ys = letters[:l], letters[l:]
    marginals = []
    for i in range(k):
        keep = tuple(range(l)) + (l + i,)
        marginals.append(sc.channel.sum(axis=tuple(j for j in range(l + k) if j not in keep)))
    subscripts = ",".join(xs + ys[i] for i in range(k)) + "->" + xs + ys
    product = np.einsum(subscripts, *marginals, optimize=True)
    return float(np.max(np.abs(sc.channel - product))) <= INDEPENDENCE_TOL


def build_joint(sc: DiscreteScenario, aux: AuxChannels) -> JointPmf:
    """Dense joint p(q, x_1..x_L, y_1..y_K, u_1..u_K) from the product form."""
    aux.check_compatible(sc)
    l, k = sc.num_users, sc.num_relays
    size = (
        sc.num_timeshare
        * int(np.prod(sc.input_sizes))
        * int(np.prod(sc.output_sizes))
        * int(np.prod(aux.aux_sizes))
    )
    if size > MAX_JOINT_ENTRIES:
        raise CapacityError(f"joint tensor would have {size} entries")
    letters = _letters(1 + l + 2 * k)
    q = letters[0]
    xs = letters[1 : 1 + l]
    ys = letters[1 + l : 1 + l + k]
    us = letters[1 + l + k :]
    operands = [np.asarray(sc.time_share)]
    operand_axes = [q]
    for i in range(l):
        operands.append(sc.px[i])
        operand_axes.append(q + xs[i])
    operands.append(sc.channel)
    operand_axes.append(xs + ys)
    for i in range(k):
        operands.append(aux.tables[i])
        operand_axes.append(q + ys[i] + us[i])
    out = q + xs + ys + us
    tensor = np.einsum(",".join(operand_axes) + "->" + out, *operands, optimize=True)
    axes = (
        ("Q",)
        + tuple(user_axis(i) for i in range(1, l + 1))
        + tuple(relay_axis(i) for i in range(1, k + 1))
        + tuple(aux_axis(i) for i in range(1, k + 1))
    )
    return JointPmf(tensor, axes)


class ReducedFactors:
    """Scenario-only factors of the reduced joint p(q, x_1..x_L, u_1..u_K) of
    product quantization channels: p(q, y_1..y_K, x), each p(q, y_k) and the
    order in which the relay-output axes are contracted.  Built once per
    scenario and aux alphabet sizes; ``evaluator(tables)`` then costs K small
    matrix products.

    The order contracts relays by increasing |U_k|/|Y_k|, which minimizes
    every intermediate tensor at once.  MAX_JOINT_ENTRIES caps the largest
    of them and p(q, x, u), the tensors this path actually builds."""

    def __init__(self, sc: DiscreteScenario, aux_sizes):
        l, k, nq = sc.num_users, sc.num_relays, sc.num_timeshare
        y_sizes = sc.output_sizes
        self.sc = sc
        aux_sizes = tuple(int(u) for u in aux_sizes)
        self.order = _contraction_order(aux_sizes, y_sizes)
        size = nq * int(np.prod(sc.input_sizes)) * int(np.prod(y_sizes))
        largest = size
        for i in self.order:
            size = size // y_sizes[i] * aux_sizes[i]
            largest = max(largest, size)
        if largest > MAX_JOINT_ENTRIES:
            raise CapacityError(f"reduced joint contraction would hold {largest} entries")
        pqx = np.asarray(sc.time_share)[:, None]
        for t in sc.px:
            pqx = (pqx[:, :, None] * t[:, None, :]).reshape(nq, -1)
        # channel axes (X_1..X_L, Y_1..Y_K) -> (Y in contraction order, X flattened)
        ch = sc.channel.reshape((pqx.shape[1],) + tuple(y_sizes))
        ch = ch.transpose(tuple(1 + i for i in self.order) + (0,))
        self.pqyx = np.ascontiguousarray(ch[None] * pqx.reshape((nq,) + (1,) * k + (-1,)))
        position = tuple(self.order.index(i) for i in range(k))  # of relay i's axes
        self.pqy = tuple(
            self.pqyx.sum(axis=tuple(a for a in range(1, k + 2) if a != 1 + position[i]))
            for i in range(k)
        )
        self._shape = (nq,) + sc.input_sizes + tuple(aux_sizes[i] for i in self.order)
        self._perm = tuple(range(1 + l)) + tuple(1 + l + position[i] for i in range(k))
        self._unperm = (0,) + tuple(1 + int(a) for a in np.argsort(self._perm))

    def chain(self, tables) -> list[np.ndarray]:
        """The contraction of p(q, y, x) with the tables, relay by relay in
        ``order``: p(q, y, x) and then each step's result, whose relay
        output axis has left the front and whose table column axis has
        joined the back."""
        nq = self.pqyx.shape[0]
        steps = [self.pqyx]
        for i in self.order:
            a = tables[i]
            # (Q, Y_i, rest) -> (Q, rest, U_i)
            steps.append(np.matmul(steps[-1].reshape(nq, a.shape[1], -1).transpose(0, 2, 1), a))
        return steps

    def evaluator(self, tables, chain=None) -> "DiscreteEvaluator":
        """Evaluator of the quantization tables p(u_k|y_k,q), given in relay
        order with the aux sizes these factors were built for; ``chain``,
        when given, is ``self.chain(tables)``, already run."""
        h = tuple(
            float((p * _row_entropies(table)).sum()) for p, table in zip(self.pqy, tables)
        )
        t = (self.chain(tables) if chain is None else chain)[-1]
        t = t.reshape(self._shape).transpose(self._perm)
        return DiscreteEvaluator(self.sc, t, h)

    def sum_rate_jacobian(self, ev: "DiscreteEvaluator", tables,
                          chain=None) -> list[np.ndarray]:
        """The gradients of the joint-decoding sum-rate bounds b_S of
        ``ev = evaluator(tables)`` in the table entries: per relay k, a
        (2^K, |Q|, |Y_k|, |U_k|) array, row S by bitmask, each exact up to a
        constant per table row, which no move that keeps the rows summing to
        1 sees.

        Given Q, b_S = C_S + sum_{k in S} H(U_k|Y_k) + H(U_{S^c}) + H(X)
        - H(X, U).  The reduced joint is linear in each table:
        p(q, x, u) = sum_{y_k} F_k(q, x, u_{-k}, y_k) p(u_k|y_k, q), so the
        gradient of the entropy of a marginal p_A is -sum_{x, u_{-k}} F_k
        log2 p_A, up to the row constant.  The pre-table factors F_k meet the
        log-marginals backwards through ``chain`` (``self.chain(tables)``,
        run here when not given), unformed; the marginals p(q, u_m) are
        those ``ev.subset_bounds`` kept."""
        nq, rows = self.pqyx.shape[0], 1 << len(tables)
        p = ev.p
        if p.size * rows > MAX_JOINT_ENTRIES:
            raise CapacityError(f"sum-rate Jacobian would hold {p.size * rows} entries")
        # row S: log2 p(q, x, u) - log2 p(q, u_{S^c}), so the marginals of
        # the masks m = S^c in reversed order
        margins = np.empty((rows, nq) + (1,) * self.sc.num_users + p.shape[1 + self.sc.num_users:])
        for m, marginal in enumerate(ev._u_marginals(0)):
            margins[m] = marginal
        adjoint = (_log2(p) - _log2(margins)[::-1]).transpose(self._unperm)
        ts = self.chain(tables) if chain is None else chain
        grads = [None] * len(tables)
        for j in reversed(range(len(tables))):
            a = tables[self.order[j]]
            # t_{j+1} = t_j @ a, so the adjoint of t_j is the adjoint of t_{j+1} @ a^T
            adjoint = adjoint.reshape((rows,) + ts[j + 1].shape)
            grads[self.order[j]] = ts[j].reshape(nq, a.shape[1], -1) @ adjoint
            adjoint = (adjoint @ a.transpose(0, 2, 1)).transpose(0, 1, 3, 2)
        masks = np.arange(rows)
        for k, a in enumerate(tables):  # H(U_k | Y_k) for the relay sets S that hold k
            grads[k] -= (masks >> k & 1)[:, None, None, None] * (self.pqy[k][..., None] * _log2(a))
        return grads


def _contraction_order(aux_sizes, y_sizes) -> tuple[int, ...]:
    """Relays (0-based) by increasing |U_k|/|Y_k|: the order in which
    ``ReducedFactors`` contracts the relay-output axes."""
    return tuple(sorted(range(len(y_sizes)), key=lambda i: aux_sizes[i] / y_sizes[i]))


def _log2(p: np.ndarray) -> np.ndarray:
    """log2 p, with 0 where p is 0 (0 log 0 = 0)."""
    return np.log2(np.where(p > 0, p, 1.0))


def _row_entropies(table: np.ndarray) -> np.ndarray:
    """Entropy in bits of each distribution along the last axis."""
    return -(table * _log2(table)).sum(axis=-1)


class DiscreteEvaluator:
    """Every rate bound of one (scenario, quantizer) pair, written in
    entropies.  Built once per pair and shared, with its caches, by every
    bound and chain ordering evaluated on it.

    ``p`` is the reduced p(q, x, u), read-only, with axes Q, X_1..X_L,
    U_1..U_K; sets of users and relays are bitmasks.  The only quantity that
    involves the relay outputs is H(U_S | Y_S, C, Q).  Each relay quantizes
    its own output, so U_S depends on the rest of the system only through
    (Y_S, Q), and that entropy is the sum of the per-relay constants
    ``h_u_given_y[k-1]`` = H(U_k | Y_k, Q)."""

    def __init__(self, sc: DiscreteScenario, p: np.ndarray, h_u_given_y):
        self.sc = sc
        # a contraction of validated pmf tables, so nonnegative: kept as a
        # read-only view, whose memory order sets every reduction's order
        self.p = p.view()
        self.p.setflags(write=False)
        self.h_u_given_y = h_u_given_y
        self._p_u_q: list[np.ndarray] | None = None  # _u_marginals(0)
        self._h_u: dict[int, np.ndarray] = {}  # u_entropies by kept
        self._bounds: dict[tuple[int, str], np.ndarray] = {}  # subset_bounds by (T, family)

    @classmethod
    def from_aux(cls, sc: DiscreteScenario, aux: AuxChannels) -> "DiscreteEvaluator":
        """Evaluator of product quantization channels, on the reduced joint."""
        aux.check_compatible(sc)
        return ReducedFactors(sc, aux.aux_sizes).evaluator(aux.tables)

    def _u_marginals(self, kept: int):
        """p(U_m, X_kept, Q) for every relay bitmask m, each one reduction of
        the one marginal p(U, X_kept, Q) and kept on every axis of ``p``
        (size 1 where summed out).  At kept = 0 they hold no X axis and are
        kept, as a list, for ``ReducedFactors.sum_rate_jacobian``."""
        if kept == 0 and self._p_u_q is not None:
            return self._p_u_q
        l, k = self.sc.num_users, self.sc.num_relays
        drop = tuple(1 + i for i in range(l) if not kept >> i & 1)
        base = self.p.sum(axis=drop, keepdims=True) if drop else self.p
        outs = (tuple(1 + l + i for i in range(k) if not m >> i & 1) for m in range(1 << k))
        marginals = (base.sum(axis=out, keepdims=True) if out else base for out in outs)
        if kept == 0:
            self._p_u_q = marginals = list(marginals)
        return marginals

    def u_entropies(self, kept: int = 0) -> np.ndarray:
        """H(U_m, X_kept, Q) for every relay bitmask m, with X_kept the
        inputs of the users in bitmask ``kept``; reversed, it is indexed by
        the complement S^c of the relay set S.  Formed once per ``kept`` and
        kept read-only; ``ocran.sumrate`` forms the successive Wyner-Ziv
        rates from these vectors."""
        if kept not in self._h_u:
            h = np.array([_entropy(p) for p in self._u_marginals(kept)])
            h.setflags(write=False)
            self._h_u[kept] = h
        return self._h_u[kept]

    @functools.cached_property
    def _h_x(self) -> tuple[float, float]:
        """H(X, Q) and H(X, U, Q), which thm3 reads beside ``u_entropies``."""
        u_axes = tuple(range(1 + self.sc.num_users, self.p.ndim))
        return _entropy(self.p.sum(axis=u_axes)), _entropy(self.p)

    def subset_bounds(self, users: tuple[int, ...] | None = None,
                      family: str = "thm3") -> np.ndarray:
        """The bound of user set T (default: all users) for every relay set
        S, indexed by bitmask, with every entropy given Q.  thm3:
        C_S + sum_{k in S} H(U_k|Y_k) + H(U_{S^c}|X_{T^c}) - H(U|X); thm1:
        sum_{k in S} [C_k + H(U_k|Y_k) - H(U_k|X)] + H(U_{S^c}|X_{T^c})
        - H(U_{S^c}|X).  At T = all users the thm3 bounds are the joint-decoding
        sum-rate bounds; their S = {} entry is I(U; X | Q), in ``cmi``'s order.
        Formed once per (T, family) and kept read-only."""
        if family not in ("thm1", "thm3"):
            raise ValueError(f"unknown constraint family {family!r}")
        full = (1 << self.sc.num_users) - 1
        key = (full if users is None else mask_of(users), family)
        if key not in self._bounds:
            h_tc = self.u_entropies(full ^ key[0])  # given X_{T^c} and Q
            if family == "thm3":
                h_xq, h_all = self._h_x
                bounds = (h_tc[::-1] + h_xq - h_all - h_tc[0]
                          + subset_sums(np.add(self.sc.fronthaul, self.h_u_given_y)))
            else:
                h_x = self.u_entropies(full)  # h_x[0] = H(X, Q)
                # I(U_k; Y_k | X, Q) and I(X_T; U_{S^c} | X_{T^c}, Q), in cmi's order
                i_uy = h_x[1 << np.arange(self.sc.num_relays)] - h_x[0] - self.h_u_given_y
                info = h_x[0] + h_tc[::-1] - h_x[::-1] - h_tc[0]
                bounds = subset_sums(np.subtract(self.sc.fronthaul, i_uy)) + info
            bounds.setflags(write=False)
            self._bounds[key] = bounds
        return self._bounds[key]

    def bound(self, pair: SubsetPair, family: str = "thm3") -> float:
        """Bound of one (T, S) pair in the 'thm1' or 'thm3' family."""
        return float(self.subset_bounds(pair.users, family)[pair.s_mask])

    def region(self, family: str = "thm3") -> RateRegion:
        """All (T, S) bounds of one family, one ``subset_bounds`` per T."""
        return RateRegion.from_subset_bounds(
            self.sc, lambda users: self.subset_bounds(users, family))


def region_discrete(sc: DiscreteScenario, aux: AuxChannels, which: str = "thm1") -> RateRegion:
    """Evaluate all (T, S) constraints of one family ('thm1' or 'thm3')."""
    if which == "thm1" and not check_conditional_independence(sc):
        warnings.warn(
            "relay outputs are not conditionally independent given the inputs; "
            "the exact-region formula is evaluated anyway and is only an "
            "achievability expression here",
            RuntimeWarning,
            stacklevel=2,
        )
    return DiscreteEvaluator.from_aux(sc, aux).region(which)

