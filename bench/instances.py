"""Seeded scenario and quantizer documents for the benchmark workloads.

The generators use numpy only and write the canonical scenario JSON
themselves, so the benchmark's inputs do not move when the program's own
generators (``ocran.verify``) change.  Every instance draws from its own
generator, seeded by ``(workload seed, instance tag, instance index)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def instance_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, index]))


def _complex_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _with_spectrum(rng, lam: np.ndarray) -> np.ndarray:
    u = _random_unitary(rng, lam.size)
    return _hermitian((u * lam) @ u.conj().T)


def _power(m: np.ndarray, p: float) -> np.ndarray:
    lam, v = np.linalg.eigh(m)
    return _hermitian((v * lam**p) @ v.conj().T)


@dataclass(frozen=True)
class DiscreteInstance:
    """A discrete scenario and its quantization tables, as documents and as
    arrays (``channel`` has axes X_1..X_L, Y_1..Y_K)."""

    scenario: dict
    quantizers: dict
    factorizing: bool
    px: tuple[np.ndarray, ...]
    channel: np.ndarray
    aux: tuple[np.ndarray, ...]


def discrete_instance(rng, factorizing: bool, x_sizes, y_sizes, u_sizes) -> DiscreteInstance:
    """|Q| = 1.  Factorizing channels multiply per-relay laws p(y_k|x);
    correlated ones draw p(y_1..y_K|x) as one Dirichlet row over all outputs.
    The laws follow the program's own random instances (``ocran.verify``):
    uniform Dirichlet rows and fronthaul uniform in [0.1, 1.5] bits."""
    x_sizes, y_sizes = tuple(x_sizes), tuple(y_sizes)
    num_users, num_relays = len(x_sizes), len(y_sizes)
    px = tuple(rng.dirichlet(np.ones(n)) for n in x_sizes)
    if factorizing:
        channel = np.ones(x_sizes + y_sizes)
        for k, y in enumerate(y_sizes):
            law = rng.dirichlet(np.ones(y), size=x_sizes)
            shape = x_sizes + tuple(y if i == k else 1 for i in range(num_relays))
            channel = channel * law.reshape(shape)
    else:
        rows = rng.dirichlet(np.ones(int(np.prod(y_sizes))), size=x_sizes)
        channel = rows.reshape(x_sizes + y_sizes)
    aux = tuple(rng.dirichlet(np.ones(u), size=y) for y, u in zip(y_sizes, u_sizes))
    fronthaul = rng.uniform(0.1, 1.5, size=num_relays)
    # wire order of the channel tensor is (Y_1..Y_K, X_1..X_L), row-major
    wire = np.moveaxis(channel, list(range(num_users)),
                       list(range(num_relays, num_relays + num_users)))
    scenario = {
        "schema": 1,
        "users": num_users,
        "relays": num_relays,
        "fronthaul": fronthaul.tolist(),
        "time_share": [1.0],
        "channel": {
            "kind": "discrete",
            "alphabets": {"X": list(x_sizes), "Y": list(y_sizes)},
            "px": [[p.tolist()] for p in px],
            "channel": np.ascontiguousarray(wire).ravel().tolist(),
        },
    }
    quantizers = {"aux": [[t.tolist()] for t in aux]}
    return DiscreteInstance(scenario, quantizers, factorizing, px, channel, aux)


@dataclass(frozen=True)
class GaussianInstance:
    scenario: dict
    quantizers: dict


def gaussian_instance(rng, num_users: int, num_relays: int, antennas: int = 2) -> GaussianInstance:
    """Gaussian MIMO scenario and quantizers, every terminal at ``antennas``
    antennas.

    Link entries have unit mean square, noise and input covariances have
    eigenvalues in [0.5, 1.5], and the quantizers' normalized eigenvalues lie
    in [0.2, 0.8] (strictly feasible).  Each fronthaul exceeds its relay's
    quantization rate by 0.2 to 1 bit, so every bound is nonnegative: the
    region is not empty and its sum-rate is positive."""
    d = antennas
    h = []
    for _ in range(num_relays):
        row = []
        for _ in range(num_users):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            row.append(m * (d / np.linalg.norm(m)))
        h.append(row)
    sigma = [_with_spectrum(rng, rng.uniform(0.5, 1.5, size=d)) for _ in range(num_relays)]
    kin = [_with_spectrum(rng, rng.uniform(0.5, 1.5, size=d)) for _ in range(num_users)]
    power = [float(np.real(np.trace(m))) + 0.1 for m in kin]
    b_mats, quant_bits = [], []
    for s in sigma:
        lam = rng.uniform(0.2, 0.8, size=d)
        w = _with_spectrum(rng, lam)
        inv_root = _power(s, -0.5)
        b_mats.append(_hermitian(inv_root @ w @ inv_root))
        quant_bits.append(float(-np.sum(np.log2(1.0 - lam))))
    fronthaul = [q + rng.uniform(0.2, 1.0) for q in quant_bits]
    scenario = {
        "schema": 1,
        "users": num_users,
        "relays": num_relays,
        "fronthaul": fronthaul,
        "time_share": [1.0],
        "channel": {
            "kind": "gaussian",
            "H": [[_complex_json(m) for m in row] for row in h],
            "Sigma": [_complex_json(m) for m in sigma],
            "Kin": [_complex_json(m) for m in kin],
            "power": power,
        },
    }
    return GaussianInstance(scenario, {"B": [_complex_json(b) for b in b_mats]})


def optimize_instance(rng, num_users: int = 2, num_relays: int = 3,
                      antennas: int = 2) -> GaussianInstance:
    """Gaussian scenario for quantizer search: unitary links, white noise and
    inputs, and equal fronthaul, so instances differ only in the links'
    eigenbases and the optimizer does a similar amount of work on each."""
    eye = _complex_json(np.eye(antennas))
    scenario = {
        "schema": 1,
        "users": num_users,
        "relays": num_relays,
        "fronthaul": [2.0] * num_relays,
        "time_share": [1.0],
        "channel": {
            "kind": "gaussian",
            "H": [[_complex_json(_random_unitary(rng, antennas)) for _ in range(num_users)]
                  for _ in range(num_relays)],
            "Sigma": [eye] * num_relays,
            "Kin": [eye] * num_users,
            "power": [float(antennas) + 0.1] * num_users,
        },
    }
    return GaussianInstance(scenario, {})
