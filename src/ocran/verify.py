"""Randomized cross-module property suites.

Each suite draws seeded random instances, checks a property that ties two
independent computations together (two constraint families, a construction
against its target, a sampler against an analytic value), and reports a
machine-readable summary.  A failure in any suite is a bug somewhere: the
properties hold exactly in infinite precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .core import (MAX_SAMPLER_DRAWS, CapacityError, CodebookEnsemble, ScenarioError, SubsetPair,
                   indices_of, sample_codebook_marginal, spawn_seeds)
from .discrete import AuxChannels, DiscreteEvaluator, DiscreteScenario
from .gaussian import (
    GaussianEvaluator,
    GaussianScenario,
    QuantizerSetGaussian,
    matrix_lemma_holds,
    weighted_means,
)
from .optimize import mc_mutual_information
from .sumrate import swz_equals_jd

# suite ``name`` is the function ``suite_<name>`` of this module
SUITE_NAMES = ("class_equivalence", "swz", "mc", "codebook", "matrix_lemmas")
LEMMA_BLOCK = 1000  # matrix_lemmas instances drawn before their stacks are checked
# the codebook suite's largest draw is 4 positions x trials x 16 codewords,
# so its trial count (``instances``) may be at most this
CODEBOOK_MAX_TRIALS = MAX_SAMPLER_DRAWS // (4 * 16)
MC_SAMPLES = 1_000_000  # Monte Carlo draws per mc instance


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: int
    failures: int
    worst_gap: float
    messages: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# random instance generators (also used by the test suite)
# ---------------------------------------------------------------------------


def random_factorizing_scenario(
    rng: np.random.Generator,
    num_users: int,
    num_relays: int,
    input_sizes=None,
    output_sizes=None,
    num_timeshare: int = 1,
    fronthaul_range=(0.1, 1.5),
) -> DiscreteScenario:
    """Random scenario whose relay outputs are independent given the inputs."""

    def channel(xs, ys):
        out = np.ones(xs + ys)
        for k, y_size in enumerate(ys):
            marg = rng.dirichlet(np.ones(y_size), size=xs)
            out = out * marg.reshape(xs + tuple(y_size if i == k else 1 for i in range(len(ys))))
        return out

    return _random_scenario(rng, channel, num_users, num_relays, input_sizes, output_sizes,
                            num_timeshare, fronthaul_range)


def random_correlated_scenario(
    rng: np.random.Generator,
    num_users: int,
    num_relays: int,
    input_sizes=None,
    output_sizes=None,
    num_timeshare: int = 1,
    fronthaul_range=(0.1, 1.5),
) -> DiscreteScenario:
    """Random scenario with an arbitrary (generally non-factorizing) channel."""

    def channel(xs, ys):
        return rng.dirichlet(np.ones(int(np.prod(ys))), size=xs).reshape(xs + ys)

    return _random_scenario(rng, channel, num_users, num_relays, input_sizes, output_sizes,
                            num_timeshare, fronthaul_range)


def _random_scenario(rng, channel, num_users, num_relays, input_sizes, output_sizes,
                     num_timeshare, fronthaul_range) -> DiscreteScenario:
    """The body of the random discrete scenarios: alphabets of size 2 by
    default, and draws in a fixed order: the input pmfs, the channel
    p(y | x) (``channel(input_sizes, output_sizes)``), the time share, the
    fronthaul."""
    xs = tuple(input_sizes or (2,) * num_users)
    ys = tuple(output_sizes or (2,) * num_relays)
    px = tuple(rng.dirichlet(np.ones(n), size=num_timeshare) for n in xs)
    p_y_x = channel(xs, ys)
    ts = rng.dirichlet(np.ones(num_timeshare)) if num_timeshare > 1 else np.array([1.0])
    return DiscreteScenario(
        num_users=num_users,
        num_relays=num_relays,
        fronthaul=tuple(rng.uniform(*fronthaul_range, size=num_relays)),
        time_share=tuple(ts),
        px=px,
        channel=p_y_x,
    )


def random_aux(rng: np.random.Generator, sc: DiscreteScenario, aux_sizes=None) -> AuxChannels:
    aux_sizes = aux_sizes or tuple(n + 1 for n in sc.output_sizes)
    return AuxChannels(
        tables=tuple(
            rng.dirichlet(np.ones(u), size=(sc.num_timeshare, y))
            for y, u in zip(sc.output_sizes, aux_sizes)
        )
    )


def random_pd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random complex PD matrix Z Z^H + 0.05 I with standard normal real
    and imaginary parts of Z."""
    z = rng.normal(size=(dim, dim))
    return pd_from_factor(z + 1j * rng.normal(size=(dim, dim)))


def pd_from_factor(z) -> np.ndarray:
    """The PD matrix Z Z^H + 0.05 I that ``random_pd`` builds from its random
    factor Z, matrix by matrix for a stack of factors."""
    z = np.asarray(z)
    return la.hermitian_part(z @ z.conj().swapaxes(-1, -2) + 0.05 * np.eye(z.shape[-1]))


def random_gaussian_scenario(
    rng: np.random.Generator,
    num_users: int,
    num_relays: int,
    max_antennas: int = 2,
    fronthaul_range=(0.5, 3.0),
) -> GaussianScenario:
    relay_dims = rng.integers(1, max_antennas + 1, size=num_relays)
    user_dims = rng.integers(1, max_antennas + 1, size=num_users)
    h_grid = tuple(
        tuple(
            (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / math.sqrt(2.0)
            for n in user_dims
        )
        for m in relay_dims
    )
    sigma = tuple(random_pd(rng, int(m)) for m in relay_dims)
    kin = tuple(random_pd(rng, int(n)) for n in user_dims)
    power = tuple(float(np.real(np.trace(m))) + 0.1 for m in kin)
    return GaussianScenario(
        num_users=num_users,
        num_relays=num_relays,
        fronthaul=tuple(rng.uniform(*fronthaul_range, size=num_relays)),
        time_share=(1.0,),
        H=h_grid,
        Sigma=sigma,
        Kin=kin,
        power=power,
    )


def random_quantizers(
    rng: np.random.Generator, sc: GaussianScenario, lo: float = 0.2, hi: float = 0.8
) -> QuantizerSetGaussian:
    """Feasible quantizers strictly inside the boundary: the normalized
    eigenvalues of Sigma^{1/2} B Sigma^{1/2} fall in [lo, hi]."""
    mats = []
    for s in sc.Sigma:
        d = s.shape[0]
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        qmat, _ = np.linalg.qr(z)
        lam = rng.uniform(lo, hi, size=d)
        w = la.hermitian_part((qmat * lam) @ qmat.conj().T)
        inv_root = la.psd_inv_sqrt(s)
        mats.append(la.hermitian_part(inv_root @ w @ inv_root))
    return QuantizerSetGaussian(B=tuple(mats))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _report(suite: str, gaps, tol: float, messages=()) -> SuiteReport:
    """The report of one suite's cases: a case fails unless its gap is at
    most ``tol``, so a NaN gap fails, and it reads as an infinite worst
    gap; the first five messages are kept."""
    failures = sum(1 for g in gaps if not g <= tol)
    worst = max(math.inf if math.isnan(g) else g for g in gaps)
    return SuiteReport(suite, len(gaps), failures, worst, tuple(messages)[:5])


def _per_instance(suite: str, one, instances: int, seed: int, tol: float) -> SuiteReport:
    """Run ``one(instance_seed) -> (gap, message)`` on each of ``instances``
    seeds spawned from ``seed`` and report the gaps against ``tol``."""
    gaps, messages = zip(*(one(s) for s in spawn_seeds(seed, instances)))
    return _report(suite, gaps, tol, [m for m in messages if m])


def suite_class_equivalence(instances: int = 100, seed: int = 0) -> SuiteReport:
    """On factorizing channels the exact-region and general inner-bound
    formulas must agree constraint by constraint (tolerance 1e-9)."""

    def one(instance_seed: int):
        rng = np.random.default_rng(instance_seed)
        num_users = int(rng.integers(1, 3))
        num_relays = int(rng.integers(1, 3))
        nq = int(rng.integers(1, 3))
        sc = random_factorizing_scenario(rng, num_users, num_relays, num_timeshare=nq)
        aux = random_aux(rng, sc, tuple(int(rng.integers(2, 4)) for _ in range(num_relays)))
        ev = DiscreteEvaluator.from_aux(sc, aux)
        exact, general = ev.region("thm1"), ev.region("thm3")
        return float(np.max(np.abs(exact.bounds - general.bounds))), ""

    return _per_instance("class_equivalence", one, instances, seed, 1e-9)


def suite_swz(instances: int = 50, seed: int = 0) -> SuiteReport:
    """The time-shared successive scheme must reach the joint-decoding
    sum-rate on every instance (construction invariants raise on their own)."""

    def one(instance_seed: int):
        rng = np.random.default_rng(instance_seed)
        factorizing = bool(rng.integers(2))
        make = random_factorizing_scenario if factorizing else random_correlated_scenario
        sc = make(rng, int(rng.integers(1, 3)), 2)
        aux = random_aux(rng, sc, tuple(int(rng.integers(2, 4)) for _ in range(2)))
        try:
            cmp_res = swz_equals_jd(DiscreteEvaluator.from_aux(sc, aux))
        except ArithmeticError as exc:
            return math.inf, str(exc)
        return cmp_res.gap, ""

    return _per_instance("swz", one, instances, seed, 1e-9)


def suite_mc(instances: int = 10, seed: int = 0) -> SuiteReport:
    """Monte Carlo estimates of the recovered-information term, MC_SAMPLES
    draws each, must agree with the log-det value within 3 standard errors
    and 2% relative."""

    def one(instance_seed: int):
        rng = np.random.default_rng(instance_seed)
        # resample until the analytic term is large enough for the 2%-relative
        # criterion to sit outside Monte Carlo noise at MC_SAMPLES
        for _ in range(50):
            num_users = int(rng.integers(1, 3))
            num_relays = int(rng.integers(1, 3))
            sc = random_gaussian_scenario(rng, num_users, num_relays)
            q = random_quantizers(rng, sc)
            users = tuple(range(1, num_users + 1))
            # relay subset leaves at least one relay contributing information
            s_masks = [m for m in range(1 << num_relays) if m != (1 << num_relays) - 1]
            s_mask = int(rng.choice(s_masks))
            pair = SubsetPair(users=users, relays=indices_of(s_mask))
            analytic = float(GaussianEvaluator.from_quantizers(sc, q).info_terms(users)[s_mask])
            if analytic >= 0.7:
                break
        est = mc_mutual_information(sc, q, pair, samples=MC_SAMPLES, seed=instance_seed)
        z = abs(est.estimate - analytic) / max(est.std_error, 1e-12)
        rel = abs(est.estimate - analytic) / max(abs(analytic), 1e-12)
        # np.maximum keeps a NaN, which then fails
        return float(np.maximum(z - 3.0, rel - 0.02)), ""

    return _per_instance("mc", one, instances, seed, 0.0)


def suite_codebook(trials: int = 100_000, seed: int = 0) -> SuiteReport:
    """Randomized-codebook marginals: per-position total variation against the
    memoryless law within 0.02 for binary inputs, exactly 0 for point masses.
    The tolerances assume the default 10^5 trials; the point mass takes a
    tenth of them, at least one."""

    def draw(rate, blocklength, pmf, offset, count):
        ens = CodebookEnsemble(rate=rate, blocklength=blocklength, input_pmf=np.array([pmf]),
                               time_seq=np.zeros(blocklength, dtype=int), seed=seed + offset)
        return sample_codebook_marginal(ens, count)

    gaps = [
        float(draw(1.0, 4, [0.5, 0.5], 0, trials).tv.max()) - 0.02,
        float(np.abs(draw(1.0, 2, [0.7, 0.3], 1, trials).empirical[:, 1] - 0.3).max()) - 0.01,
        # a point mass is matched exactly at any sample count
        float(draw(0.5, 3, [1.0, 0.0], 2, max(1, trials // 10)).tv.max()),
    ]
    return _report("codebook", gaps, 0.0)


def suite_matrix_lemmas(instances: int = 10_000, seed: int = 0) -> SuiteReport:
    """Determinant monotonicity |I + BC| >= |I + AC| for B >= A, and the
    arithmetic-harmonic matrix mean ordering, on random PD inputs up to 4x4.
    A case fails unless its gap is at most 1e-10; a failed lemma flag reads
    as an infinite gap."""
    lemma_ok, gaps = matrix_lemma_cases(instances, seed)
    return _report("matrix_lemmas", np.where(lemma_ok, gaps, math.inf).tolist(), 1e-10)


def matrix_lemma_cases(instances: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance results of the matrix_lemmas suite: whether
    |I + BC| >= |I + AC| held, and the mean-ordering gap
    -min eig(arithmetic mean - harmonic mean), which is <= 0 when it holds.

    One generator draws the instances a block of LEMMA_BLOCK at a time
    (``_lemma_draws``), and the matrices of each (dimension, number of
    means) group of a block are built and checked a stack at a time."""
    rng = np.random.default_rng(seed)
    lemma_ok = np.empty(instances, dtype=bool)
    gaps = np.empty(instances)
    # blocks of consecutive instances bound the memory that the kept draws
    # take until their stack is checked
    for start in range(0, instances, LEMMA_BLOCK):
        stop = min(start + LEMMA_BLOCK, instances)
        for idx, dim, count, head, mats, weights in _lemma_draws(rng, start, stop):
            n, sq = len(idx), dim * dim
            a, w, c = np.split(head, [2 * sq, 2 * sq + 2 * dim], axis=1)
            a = pd_from_factor((a[:, :sq] + 1j * a[:, sq:]).reshape(n, dim, dim))
            w = (w[:, :dim] + 1j * w[:, dim:]).reshape(n, dim, 1)
            b = la.hermitian_part(a + w @ w.conj().swapaxes(-1, -2))
            c = pd_from_factor((c[:, :sq] + 1j * c[:, sq:]).reshape(n, dim, dim))
            lemma_ok[idx] = matrix_lemma_holds(a, b, c)
            mats = mats.reshape(n, count, 2, dim, dim)
            weights = weights * (1.0 / sum(weights.T))[:, None]  # summed left to right
            means = weighted_means(pd_from_factor(mats[:, :, 0] + 1j * mats[:, :, 1]), weights)
            gaps[idx] = -la.min_eig(means[0] - means[1])
    return lemma_ok, gaps


def _lemma_draws(rng: np.random.Generator, start: int, stop: int):
    """Draw instances start..stop-1 of matrix_lemmas: their dimensions (1-4)
    and numbers of means (2-4), then per (dim, count) group in increasing
    order a stack each of the normals of A's factor, w and C's factor (real
    then imaginary parts), of the means' factors and of the exponential
    weights.  Yields (instance indices, dim, count, head, mats, weights)."""
    dims, counts = rng.integers(1, 5, size=stop - start), rng.integers(2, 5, size=stop - start)
    for dim in range(1, 5):
        for count in range(2, 5):
            idx = start + np.flatnonzero((dims == dim) & (counts == count))
            if idx.size:
                yield (idx, dim, count, rng.normal(size=(idx.size, 2 * dim * (2 * dim + 1))),
                       rng.normal(size=(idx.size, 2 * count * dim * dim)),
                       rng.standard_exponential((idx.size, count)))


def run_suites(names=None, seed: int = 0, instances: int | None = None) -> list[SuiteReport]:
    """Run the named suites (all by default) and return their reports.

    ``instances`` (at least 1) overrides each suite's case count, and each
    suite's own default applies without it.  Each suite function is looked
    up in the module when it runs, so one rebound later (a wrapper, a test
    double) is the one that runs."""
    if instances is not None and instances < 1:
        raise ScenarioError(f"instances must be at least 1, got {instances}")
    names = tuple(names) if names else SUITE_NAMES
    if "codebook" in names and instances is not None and instances > CODEBOOK_MAX_TRIALS:
        raise CapacityError(f"instances = {instances} is too large for the codebook suite, "
                            f"whose trial count it sets: at most {CODEBOOK_MAX_TRIALS}")
    counts = () if instances is None else (instances,)
    reports = []
    for name in names:
        if name not in SUITE_NAMES:
            raise ScenarioError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
        reports.append(globals()["suite_" + name](*counts, seed=seed))
    return reports
