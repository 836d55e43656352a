"""Hermitian matrix helpers shared by the Gaussian-channel code.

All matrices are complex128 internally; real symmetric inputs are accepted
and embedded with zero imaginary part.  log-determinants are base 2 and go
through Cholesky when the argument is comfortably positive definite, with an
eigenvalue fallback that clips at EIG_CLIP.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10
EIG_CLIP = 1e-14
LN2 = float(np.log(2.0))


def as_complex(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.complex128)


def hermitian_part(m) -> np.ndarray:
    a = as_complex(m)
    return 0.5 * (a + a.conj().T)


def require_hermitian(m, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Return the Hermitian part of m; reject if the skew part exceeds tol."""
    a = as_complex(m)
    skew = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if skew > tol:
        raise ValueError(f"{name} is not Hermitian (max asymmetry {skew:.3e} > {tol:.1e})")
    return 0.5 * (a + a.conj().T)


def min_eig(m) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(m)).min()) if np.asarray(m).size else 0.0


def require_pd(m, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    a = require_hermitian(m, name=name)
    lo = min_eig(a)
    if lo <= tol:
        raise ValueError(f"{name} is not positive definite (min eigenvalue {lo:.3e})")
    return a


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clipped."""
    a = hermitian_part(m)
    lam, v = np.linalg.eigh(a)
    lam = np.clip(lam, 0.0, None)
    return hermitian_part((v * np.sqrt(lam)) @ v.conj().T)


def psd_inv_sqrt(m) -> np.ndarray:
    a = hermitian_part(m)
    lam, v = np.linalg.eigh(a)
    if lam.min() <= 0.0:
        raise ValueError("matrix must be positive definite for inverse square root")
    return hermitian_part((v / np.sqrt(lam)) @ v.conj().T)


def logdet2(m) -> float:
    """log2 det of a Hermitian positive (semi)definite matrix.

    Tries Cholesky on the symmetrized argument; on failure falls back to
    eigenvalues clipped at EIG_CLIP (so a numerically singular argument gives
    a large negative value instead of NaN).
    """
    a = hermitian_part(m)
    if a.size == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(a)
        return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))
    except np.linalg.LinAlgError:
        lam = np.clip(np.linalg.eigvalsh(a), EIG_CLIP, None)
        return float(np.sum(np.log2(lam)))


def block_diag(blocks) -> np.ndarray:
    blocks = [as_complex(b) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for b in blocks:
        m = b.shape[0]
        out[i:i + m, i:i + m] = b
        i += m
    return out


def clip_eigenvalues(m, lo: float, hi: float) -> np.ndarray:
    """Project a Hermitian matrix onto {lo*I <= M <= hi*I} by eigenvalue clipping."""
    a = hermitian_part(m)
    lam, v = np.linalg.eigh(a)
    lam = np.clip(lam, lo, hi)
    return hermitian_part((v * lam) @ v.conj().T)
