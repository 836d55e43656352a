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

Both are written once, in ``core.Evaluator.subset_bounds``: the bounds of
one user set T over every relay set S, from entropy vectors, which
``DiscreteEvaluator`` takes from the reduced joint.  Every other discrete
bound reads it: one (T, S) pair (``bound``), a region (``region_discrete``),
the joint-decoding sum-rate bounds, and in ``ocran.sumrate`` the set
function g(S) of the fronthaul polytope.  The successive
Wyner-Ziv rates there are differences of the same entropy vectors
(``u_entropies``), so that layer computes no entropy of its own.  Only the
discrete optimizer's search reads ``ReducedFactors.sum_rate_pass``: the
sum-rate bounds and their gradients from shared logs.  Both walk one
subset lattice (``_lattice``) for their 2^K marginals, about
prod_k (1 + |U_k|) entries: 3^K for binary U, not 4^K; the evaluator takes
their entropies in batches, one array pass each (``_entropies``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from string import ascii_lowercase, ascii_uppercase
from typing import Callable

import numpy as np

from .core import CapacityError, Evaluator, RateRegion, Scenario, ScenarioError, pmf_table

MAX_JOINT_ENTRIES = 10_000_000
# entries of the marginals whose entropies one array pass takes together:
# a batch's buffer and temporaries stay a few times 32 KB
ENTROPY_BATCH = 4096
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
        tables = tuple(pmf_table(t, f"px[{l}]", ("|Q|", f"|X_{l}|"), self.num_timeshare)
                       for l, t in enumerate(self.px, start=1))
        ch = np.asarray(self.channel)
        x_sizes = tuple(t.shape[1] for t in tables)
        if ch.ndim != self.num_users + self.num_relays or ch.shape[: self.num_users] != x_sizes:
            raise ScenarioError(
                f"channel tensor must have axes (X_1..X_{self.num_users}, "
                f"Y_1..Y_{self.num_relays}); got shape {ch.shape}"
            )
        x_total, y_total = int(np.prod(x_sizes)), ch[(0,) * self.num_users].size
        if self.num_timeshare * x_total * y_total > MAX_JOINT_ENTRIES:
            raise CapacityError("scenario tensor exceeds the dense-size guard")
        # the rows p(.|x) as a view of the caller's tensor: pmf_table copies it once
        rows = pmf_table(ch.reshape(x_total, y_total), "channel", ("|X|", "|Y|"))
        object.__setattr__(self, "px", tables)
        object.__setattr__(self, "channel", rows.reshape(ch.shape))

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
            pmf_table(t, f"aux[{k}]", ("|Q|", f"|Y_{k}|", f"|U_{k}|"))
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
    return float(_entropies([(0, p)], np.empty(1))[0])


def _entropies(marginals, out: np.ndarray) -> np.ndarray:
    """``out``, with out[i] = H in bits of p for each (i, p) of the iterable
    ``marginals``, taken in batches of up to ENTROPY_BATCH entries, one array
    pass each (``_batch_entropies``); a larger marginal is a batch of its
    own.  Only one batch of marginals is held at a time."""
    batch, keys, size = [], [], 0
    for key, p in marginals:
        if size + p.size > ENTROPY_BATCH and batch:
            out[keys] = _batch_entropies(batch)
            batch, keys, size = [], [], 0
        batch.append(p)
        keys.append(key)
        size += p.size
    if batch:
        out[keys] = _batch_entropies(batch)
    return out


def _batch_entropies(batch) -> np.ndarray:
    """H in bits of each pmf tensor of ``batch``, from one buffer that holds
    them end to end and is worked on in place.  Each is normalized by its
    own total (a total a few ulps off 1 would give a point mass H != 0),
    and 0 log 0 = 0."""
    buf = np.concatenate(batch, axis=None)
    sizes = [p.size for p in batch]
    starts = list(accumulate(sizes[:-1], initial=0))
    buf /= np.repeat(np.add.reduceat(buf, starts), sizes)
    buf *= _log2(buf)
    return -np.add.reduceat(buf, starts)


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
    read as 0; a NaN raises, as a more negative value does."""
    if not val >= -NEGATIVE_INFO_TOL:
        raise ArithmeticError(f"{name} is {val:.3e} bits, NaN or negative beyond rounding")
    return max(0.0, val)


def _letters(n: int) -> str:
    pool = ascii_lowercase + ascii_uppercase
    if n > len(pool):
        raise CapacityError("too many tensor axes for einsum construction")
    return pool[:n]


def check_conditional_independence(sc: DiscreteScenario) -> bool:
    """True iff p(y_1..y_K|x) factorizes into prod_k p(y_k|x) within
    INDEPENDENCE_TOL: the product of the relays' laws p(y_k|x), each kept
    on the channel's axes, broadcasts to the channel's shape."""
    relays = range(sc.num_users, sc.channel.ndim)
    product = math.prod(sc.channel.sum(axis=tuple(j for j in relays if j != k), keepdims=True)
                        for k in relays)
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
    of them and p(q, x, u), the tensors this path actually builds, and 2^K
    times p(q, x, u), a bound on ``sum_rate_pass``'s arrays."""

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
        self._pqx = pqx
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

    def chain(self, tables, first=None) -> list[np.ndarray]:
        """The contraction of ``first`` (p(q, y, x) by default) with the
        tables, relay by relay in ``order``: ``first`` and then each step's
        result, whose relay output axis has left the front and whose table
        column axis has joined the back."""
        nq = self.pqyx.shape[0]
        steps = [self.pqyx if first is None else first]
        for i in self.order:
            a = tables[i]
            # (Q, Y_i, rest) -> (Q, rest, U_i)
            steps.append(np.matmul(steps[-1].reshape(nq, a.shape[1], -1).transpose(0, 2, 1), a))
        return steps

    def evaluator(self, tables) -> "DiscreteEvaluator":
        """Evaluator of the quantization tables p(u_k|y_k,q), given in relay
        order with the aux sizes these factors were built for."""
        h = tuple(float((p * -(t * _log2(t)).sum(axis=-1)).sum()) for p, t in zip(self.pqy, tables))
        t = self.chain(tables)[-1]
        t = t.reshape(self._shape).transpose(self._perm)
        return DiscreteEvaluator(self.sc, t, h)

    @functools.cached_property
    def _pass_constants(self):
        """H(X | Q), "relay k is in S" by (S, k), each relay's axis in the
        pass's p(q, 1, u) for ``_lattice``, and p(q, y) in ``pqyx``'s layout."""
        k, q = len(self.pqy), np.asarray(self.sc.time_share)
        return (float(q @ _log2(q) - self._pqx.ravel() @ _log2(self._pqx).ravel()),
                (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float),
                tuple(2 + self.order.index(j) for j in range(k)),
                self.pqyx.sum(axis=-1, keepdims=True))

    def sum_rate_pass(self, tables, logs) -> tuple[np.ndarray, Callable[[], list[np.ndarray]]]:
        """The search's pass over tables p(u_k|y_k,q) (relay order; ``logs``
        is log2 of each): the sum-rate bounds b_S by bitmask S, and a call
        that gives their gradients in the tables from the same logs, per
        relay a (2^K, |Q|, |Y_k|, |U_k|) array, exact up to a constant per
        table row.  b_S = C_S + sum_{k in S} H(U_k|Y_k) + H(U_{S^c}) + H(X)
        - H(X, U) given Q; ``_lattice`` walks each p(q, u_m) down from p(q, u),
        and log2 of all of them gives H(U_m, Q) in one product with p(q, u).
        As p(q, x, u) = sum_{y_k} F_k(q, x, u_{-k}, y_k) p(u_k|y_k, q), row S
        of the adjoint, log2 p(q, x, u) - log2 p(q, u_{S^c}), meets the
        pre-table factors F_k backwards through ``chain``, unformed."""
        h_x_given_q, in_s, u_axes, pqy_all = self._pass_constants
        rows = in_s.shape[0]
        if (size := math.prod(self._shape) * rows) > MAX_JOINT_ENTRIES:
            raise CapacityError(f"sum-rate Jacobian would hold {size} entries")
        ts = self.chain(tables)
        # axes Q, X flattened, U in contraction order
        p = ts[-1].reshape(self._pqx.shape + self._shape[1 + self.sc.num_users:])
        margins = np.empty((rows, p.shape[0], 1) + p.shape[2:])
        for m, marginal in _lattice(p.sum(axis=1, keepdims=True), u_axes):
            margins[m] = marginal
        log_p, log_m = _log2(p), _log2(margins)
        h_u = log_m.reshape(rows, -1) @ -margins[-1].ravel()  # H(U_m, Q)
        weighted = [py[..., None] * log for py, log in zip(self.pqy, logs)]
        minus_h_u_given_y = np.array([w.ravel() @ a.ravel() for w, a in zip(weighted, tables)])
        bounds = (h_u[::-1] + (h_x_given_q + float(p.ravel() @ log_p.ravel()))
                  + in_s @ (np.asarray(self.sc.fronthaul) - minus_h_u_given_y))

        def jacobian():
            # log2 p(q, u_{S^c}) meets sum_x F_k; log2 p(q, x, u) is one row
            grads = [a - b for a, b in zip(
                self._pull_back(ts, log_p[None], tables),
                self._pull_back(self.chain(tables, pqy_all), log_m[::-1], tables))]
            for k, w in enumerate(weighted):  # H(U_k | Y_k) for the relay sets S that hold k
                grads[k] -= in_s[:, k, None, None, None] * w
            return grads

        return bounds, jacobian

    def _pull_back(self, ts, adjoint, tables) -> list[np.ndarray]:
        """Rows of the adjoint of a ``chain``'s last step, as table gradients."""
        grads = [None] * len(tables)
        for j in reversed(range(len(tables))):
            a = tables[self.order[j]]
            adjoint = adjoint.reshape(adjoint.shape[:1] + ts[j + 1].shape)
            grads[self.order[j]] = ts[j].reshape(a.shape[0], a.shape[1], -1) @ adjoint
            if j:  # t_{j+1} = t_j @ a, so the adjoint of t_j is the adjoint of t_{j+1} @ a^T
                adjoint = (adjoint @ a.transpose(0, 2, 1)).transpose(0, 1, 3, 2)
        return grads


def _contraction_order(aux_sizes, y_sizes) -> tuple[int, ...]:
    """Relays (0-based) by increasing |U_k|/|Y_k|: the order in which
    ``ReducedFactors`` contracts the relay-output axes."""
    return tuple(sorted(range(len(y_sizes)), key=lambda i: aux_sizes[i] / y_sizes[i]))


def _log2(p: np.ndarray) -> np.ndarray:
    """log2 p, with 0 where p is 0 (0 log 0 = 0)."""
    return np.log2(np.where(p > 0, p, 1.0))


def _lattice(top: np.ndarray, axes, mask: int | None = None):
    """(m, marginal of ``top`` on relay bitmask m) for every m under ``mask``
    (default: all relays), depth first, each summed over relay j's axis
    ``axes[j]`` (kept, size 1) from its parent m | m + 1; one path is alive."""
    mask = (1 << len(axes)) - 1 if mask is None else mask
    yield mask, top
    for j in range((~mask & mask + 1).bit_length() - 1):  # the trailing ones of mask
        yield from _lattice(top.sum(axis=axes[j], keepdims=True), axes, mask & ~(1 << j))


class DiscreteEvaluator(Evaluator):
    """The ``Evaluator`` of a discrete scenario, whose entropies are read
    from the reduced p(q, x, u), ``p``, read-only, with axes Q, X_1..X_L,
    U_1..U_K.  The only quantity that involves the relay outputs is
    H(U_S | Y_S, C, Q).  Each relay quantizes its own output, so U_S depends
    on the rest of the system only through (Y_S, Q), and that entropy is the
    sum of the per-relay constants ``h_u_given_y[k-1]`` = H(U_k | Y_k, Q)."""

    def __init__(self, sc: DiscreteScenario, p: np.ndarray, h_u_given_y):
        super().__init__(sc, h_u_given_y)
        # a contraction of validated pmf tables, so nonnegative: kept as a
        # read-only view, whose memory order sets every reduction's order
        self.p = p.view()
        self.p.setflags(write=False)

    @classmethod
    def from_aux(cls, sc: DiscreteScenario, aux: AuxChannels) -> "DiscreteEvaluator":
        """Evaluator of product quantization channels, on the reduced joint."""
        aux.check_compatible(sc)
        return ReducedFactors(sc, aux.aux_sizes).evaluator(aux.tables)

    def _u_entropies(self, kept: int) -> np.ndarray:
        """H(U_m, X_kept, Q) for every relay bitmask m, from the marginals of
        a ``_lattice`` walk from p(U, X_kept, Q), in batches (``_entropies``)."""
        l, k = self.sc.num_users, self.sc.num_relays
        drop = tuple(1 + i for i in range(l) if not kept >> i & 1)
        base = self.p.sum(axis=drop, keepdims=True) if drop else self.p
        return _entropies(_lattice(base, range(1 + l, 1 + l + k)), np.empty(1 << k))

    @functools.cached_property
    def _h_x(self) -> tuple[float, float]:
        """H(X, Q) and H(X, U, Q), which thm3 reads beside ``u_entropies``."""
        u_axes = tuple(range(1 + self.sc.num_users, self.p.ndim))
        return tuple(_entropies(enumerate((self.p.sum(axis=u_axes), self.p)), np.empty(2)).tolist())


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

