"""Exact finite-alphabet evaluation of the rate-region formulas.

The joint law used everywhere is

    p(q) * prod_l p(x_l|q) * p(y_1..y_K | x_1..x_L) * prod_k p(u_k|y_k,q)

with labeled axes ('Q', 'X1'.., 'Y1'.., 'U1'..).  Because each relay
quantizes obliviously, every bound of product quantization channels is an
entropy of the reduced joint p(q, x, u) minus per-relay constants
H(U_k | Y_k, Q), so the Y axes are summed out while the reduced joint is
contracted (``ReducedFactors``).  Tensors are capped at MAX_JOINT_ENTRIES
entries; within that budget every information quantity is an exact sum
(0 log 0 = 0), so the only error is float rounding.

Two constraint families are evaluated:

* ``thm1_constraint`` - the exact region for channels whose relay outputs are
  conditionally independent given the user inputs,
* ``thm3_constraint`` - the general inner bound (no independence needed).

Both are one formula, ``DiscreteEvaluator.bound``.
"""

from __future__ import annotations

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
    enumerate_constraint_pairs,
    indices_of,
)

MAX_JOINT_ENTRIES = 10_000_000


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
        tables = []
        for l, t in enumerate(self.px, start=1):
            t = np.array(t, dtype=float, order="C")
            if t.ndim != 2 or t.shape[0] != self.num_timeshare or t.shape[1] < 1:
                raise ScenarioError(f"px[{l}] must have shape (|Q|, |X_{l}|)")
            check_finite(t, f"px[{l}]")
            _check_pmf_axis(t, -1, f"px[{l}]")
            t.setflags(write=False)
            tables.append(t)
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
        object.__setattr__(self, "px", tuple(tables))
        object.__setattr__(self, "channel", ch)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.px)

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return self.channel.shape[self.num_users:]

    @classmethod
    def from_payload(cls, payload: dict, **common) -> "DiscreteScenario":
        for key in ("alphabets", "px", "channel"):
            if key not in payload:
                raise ScenarioError(f"channel.{key}: missing required field")
        alphabets = payload["alphabets"]
        try:
            x_sizes = tuple(int(v) for v in alphabets["X"])
            y_sizes = tuple(int(v) for v in alphabets["Y"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError("channel.alphabets: needs integer lists 'X' and 'Y'") from exc
        try:
            flat = np.asarray(payload["channel"], dtype=float)
        except ValueError as exc:
            raise ScenarioError("channel.channel: malformed tensor") from exc
        if flat.size != int(np.prod(y_sizes)) * int(np.prod(x_sizes)):
            raise ScenarioError("channel.channel: length does not match alphabets")
        # wire order is (Y_1..Y_K, X_1..X_L) row-major; internal order puts X first
        tensor = flat.reshape(y_sizes + x_sizes)
        tensor = np.moveaxis(
            tensor,
            list(range(len(y_sizes))),
            list(range(len(x_sizes), len(x_sizes) + len(y_sizes))),
        )
        px = tuple(np.asarray(t, dtype=float) for t in payload["px"])
        return cls(px=px, channel=np.ascontiguousarray(tensor), **common)

    def channel_payload(self, aux: "AuxChannels | None" = None) -> dict:
        k, l = self.num_relays, self.num_users
        wire = np.moveaxis(self.channel, list(range(l, l + k)), list(range(k)))
        payload = {
            "kind": "discrete",
            "alphabets": {"X": list(self.input_sizes), "Y": list(self.output_sizes)},
            "px": [t.tolist() for t in self.px],
            "channel": np.ascontiguousarray(wire).ravel().tolist(),
        }
        if aux is not None:
            payload["aux"] = [t.tolist() for t in aux.tables]
        return payload


@dataclass(frozen=True)
class AuxChannels:
    """Per-relay quantization channels p(u_k|y_k,q), each a table of shape
    (|Q|, |Y_k|, |U_k|)."""

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        fixed = []
        for k, t in enumerate(self.tables, start=1):
            t = np.array(t, dtype=float, order="C")
            if t.ndim != 3 or t.shape[2] < 1:
                raise ValueError(f"aux[{k}] must have shape (|Q|, |Y_{k}|, |U_{k}|)")
            check_finite(t, f"aux[{k}]")
            _check_pmf_axis(t, -1, f"aux[{k}]")
            t.setflags(write=False)
            fixed.append(t)
        object.__setattr__(self, "tables", tuple(fixed))

    @property
    def aux_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tables)

    def check_compatible(self, sc: DiscreteScenario) -> None:
        if len(self.tables) != sc.num_relays:
            raise ValueError("need one aux channel per relay")
        for k, t in enumerate(self.tables, start=1):
            if t.shape[0] != sc.num_timeshare or t.shape[1] != sc.output_sizes[k - 1]:
                raise ValueError(f"aux[{k}] does not match the scenario alphabets")


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
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != len(axes) or len(set(axes)) != len(axes):
            raise ValueError("axis labels must be unique and match tensor rank")
        if np.any(tensor < -1e-15):
            raise ValueError("joint tensor has negative entries")
        total = tensor.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint tensor sums to {total!r}, not 1")
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
            p = self.marginal(key)
            # a total a few ulps off 1 would give a point mass H != 0
            nz = p[p > 0] / p.sum()
            self._entropy_cache[key] = float(-(nz * np.log2(nz)).sum())
        return self._entropy_cache[key]


def cmi(j: JointPmf, a, b, c=()) -> float:
    """Conditional mutual information I(A; B | C) in bits, clipped at 0.

    A, B, C are disjoint collections of axis labels; empty A or B gives 0.
    """
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise ValueError("axis sets must be disjoint")
    if not a or not b:
        return 0.0
    val = j.entropy(a | c) + j.entropy(b | c) - j.entropy(a | b | c) - j.entropy(c)
    return max(0.0, val)


def _check_pmf_axis(table: np.ndarray, axis: int, name: str) -> None:
    if np.any(table < 0):
        raise ScenarioError(f"{name} has negative entries")
    sums = table.sum(axis=axis)
    if sums.size and np.max(np.abs(sums - 1.0)) > PMF_TOL:
        raise ScenarioError(f"{name} is not normalized along its distribution axis")


def _letters(n: int) -> str:
    pool = ascii_lowercase + ascii_uppercase
    if n > len(pool):
        raise CapacityError("too many tensor axes for einsum construction")
    return pool[:n]


def check_conditional_independence(sc: DiscreteScenario, tol: float = 1e-9) -> bool:
    """True iff p(y_1..y_K|x) factorizes into prod_k p(y_k|x) within tol."""
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
    return float(np.max(np.abs(sc.channel - product))) <= tol


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
        self._axes = (
            ("Q",)
            + tuple(user_axis(i) for i in range(1, l + 1))
            + tuple(aux_axis(i) for i in range(1, k + 1))
        )

    def evaluator(self, tables) -> "DiscreteEvaluator":
        """Evaluator of the quantization tables p(u_k|y_k,q), given in relay
        order with the aux sizes these factors were built for."""
        nq = self.pqyx.shape[0]
        t = self.pqyx
        for i in self.order:
            a = tables[i]
            # (Q, Y_i, rest) -> (Q, rest, U_i): Y_i leaves the front, U_i joins the back
            t = np.matmul(t.reshape(nq, a.shape[1], -1).transpose(0, 2, 1), a)
        t = t.reshape(self._shape).transpose(self._perm)
        h = tuple(
            float((p * _row_entropies(table)).sum()) for p, table in zip(self.pqy, tables)
        )
        return DiscreteEvaluator(self.sc, JointPmf(t, self._axes), h)


def _contraction_order(aux_sizes, y_sizes) -> tuple[int, ...]:
    """Relays (0-based) by increasing |U_k|/|Y_k|: the order in which
    ``ReducedFactors`` contracts the relay-output axes."""
    return tuple(sorted(range(len(y_sizes)), key=lambda i: aux_sizes[i] / y_sizes[i]))


def _row_entropies(table: np.ndarray) -> np.ndarray:
    """Entropy in bits of each distribution along the last axis."""
    return -(table * np.log2(np.where(table > 0, table, 1.0))).sum(axis=-1)


class DiscreteEvaluator:
    """Every information term and rate bound of one (scenario, quantizer)
    pair, written in entropies.  Built once per pair and shared, with its
    entropy cache, by every bound and chain ordering evaluated on it.

    ``joint`` is the reduced p(q, x, u), with axes Q, X_l and U_k.  The only
    quantity that involves the relay outputs is H(U_S | Y_S, C, Q).  Each
    relay quantizes its own output, so U_S depends on the rest of the system
    only through (Y_S, Q), and that entropy is the sum of the per-relay
    constants ``h_u_given_y[k-1]`` = H(U_k | Y_k, Q)."""

    def __init__(self, sc: DiscreteScenario, joint: JointPmf, h_u_given_y):
        self.sc = sc
        self.joint = joint
        self.h_u_given_y = h_u_given_y
        self.x_all = frozenset(user_axis(l) for l in range(1, sc.num_users + 1))
        self.u_all = frozenset(aux_axis(k) for k in range(1, sc.num_relays + 1))
        self.i_ux: float = cmi(self.joint, self.u_all, self.x_all, {"Q"})  # I(U_all; X_all | Q)

    @classmethod
    def from_aux(cls, sc: DiscreteScenario, aux: AuxChannels) -> "DiscreteEvaluator":
        """Evaluator of product quantization channels, on the reduced joint."""
        aux.check_compatible(sc)
        return ReducedFactors(sc, aux.aux_sizes).evaluator(aux.tables)

    def u(self, relays) -> frozenset:
        return frozenset(aux_axis(k) for k in relays)

    def i_uy(self, relays, cond=frozenset()) -> float:
        """I(U_S; Y_S | cond, Q) = H(U_S | cond, Q) - H(U_S | Y_S, cond, Q),
        clipped at 0 like ``cmi``; ``cond`` holds X and U labels."""
        if not relays:
            return 0.0
        j, u_s, c = self.joint, self.u(relays), frozenset(cond) | {"Q"}
        h_given_y = sum(self.h_u_given_y[k - 1] for k in relays)
        return max(0.0, j.entropy(u_s | c) - j.entropy(c) - h_given_y)

    def i_uy_given_uc(self, relays) -> float:
        """I(U_S; Y_S | U_{S^c}, Q)."""
        return self.i_uy(relays, self.u_all - self.u(relays))

    def g(self, r_sum: float, relays) -> float:
        """g(S) = R_sum + I(U_S; Y_S | U_{S^c}, Q) - I(U_all; X_all | Q)."""
        return r_sum + self.i_uy_given_uc(relays) - self.i_ux

    def bound(self, pair: SubsetPair, family: str = "thm3") -> float:
        """Bound of one (T, S) pair in the 'thm1' or 'thm3' family."""
        fronthaul = self.sc.fronthaul
        x_t = frozenset(user_axis(l) for l in pair.users)
        u_sc = self.u(pair.relays_complement(self.sc.num_relays))
        common = cmi(self.joint, x_t, u_sc, (self.x_all - x_t) | {"Q"})
        if family == "thm1":
            s_term = sum(fronthaul[k - 1] - self.i_uy((k,), self.x_all) for k in pair.relays)
            return s_term + common
        if family == "thm3":
            c_sum = sum(fronthaul[k - 1] for k in pair.relays)
            return c_sum - self.i_uy(pair.relays, self.x_all | u_sc) + common
        raise ValueError(f"unknown constraint family {family!r}")

    def subset_bounds(self) -> np.ndarray:
        """The thm3 bounds at T = all users, indexed by relay-subset bitmask:
        the joint-decoding sum-rate bounds."""
        users = tuple(range(1, self.sc.num_users + 1))
        return np.array([
            self.bound(SubsetPair(users=users, relays=indices_of(s_mask)), "thm3")
            for s_mask in range(1 << self.sc.num_relays)
        ])

    def region(self, family: str = "thm3") -> RateRegion:
        """All (T, S) bounds of one family."""
        pairs = enumerate_constraint_pairs(self.sc.num_users, self.sc.num_relays)
        return RateRegion(
            num_users=self.sc.num_users,
            constraints=tuple((p, self.bound(p, family)) for p in pairs),
        )


def _warn_if_not_factorizing(sc: DiscreteScenario) -> None:
    if not check_conditional_independence(sc):
        warnings.warn(
            "relay outputs are not conditionally independent given the inputs; "
            "the exact-region formula is evaluated anyway and is only an "
            "achievability expression here",
            RuntimeWarning,
            stacklevel=3,
        )


def thm1_constraint(sc: DiscreteScenario, aux: AuxChannels, pair: SubsetPair) -> float:
    """Bound for one (T, S) pair in the exact region of conditionally
    independent relay outputs:
    sum_{s in S} [C_s - I(Y_s;U_s|X_all,Q)] + I(X_T;U_{S^c}|X_{T^c},Q)."""
    _warn_if_not_factorizing(sc)
    return DiscreteEvaluator.from_aux(sc, aux).bound(pair, "thm1")


def thm3_constraint(sc: DiscreteScenario, aux: AuxChannels, pair: SubsetPair) -> float:
    """General inner-bound constraint:
    sum_{s in S} C_s - I(Y_S;U_S|X_all,U_{S^c},Q) + I(X_T;U_{S^c}|X_{T^c},Q)."""
    return DiscreteEvaluator.from_aux(sc, aux).bound(pair, "thm3")


def region_discrete(sc: DiscreteScenario, aux: AuxChannels, which: str = "thm1") -> RateRegion:
    """Evaluate all (T, S) constraints of one family ('thm1' or 'thm3')."""
    if which not in ("thm1", "thm3"):
        raise ValueError("which must be 'thm1' or 'thm3'")
    if which == "thm1":
        _warn_if_not_factorizing(sc)
    return DiscreteEvaluator.from_aux(sc, aux).region(which)

