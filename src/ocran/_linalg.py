"""Hermitian matrix helpers shared by the Gaussian-channel code.

All matrices are complex128 internally; real symmetric inputs are accepted
and embedded with zero imaginary part.  log-determinants are base 2 and go
through Cholesky only: every argument is positive definite, and one that
cannot be factorized raises LinAlgError instead of being clipped.

The helpers work matrix by matrix on stacks (..., n, n) as well, so one
numpy call covers many small matrices.  Validation of a stack is opt-in
(``stacked=True``): a boundary that expects one matrix still rejects a
3-D array.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10
PD_TOL = 1e-12  # require_pd rejects A unless A - PD_TOL I has a Cholesky factor
LN2 = float(np.log(2.0))


def as_complex(m, stacked: bool = False) -> np.ndarray:
    """m as a C-contiguous complex128 square matrix, or with ``stacked`` a
    stack of them on the last two axes."""
    a = np.asarray(m)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-1] != a.shape[-2]:
        what = "square matrix stack" if stacked else "square matrix"
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.complex128)


def hermitian_part(m) -> np.ndarray:
    a = as_complex(m, stacked=True)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def require_hermitian(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Return the Hermitian part of m; reject if the skew part exceeds
    HERM_TOL (for a stack: the largest skew over all of its matrices)."""
    a = as_complex(m, stacked)
    adj = a.conj().swapaxes(-1, -2)
    skew = np.max(np.abs(a - adj)) if a.size else 0.0
    if skew > HERM_TOL:
        raise ValueError(f"{name} is not Hermitian (max asymmetry {skew:.3e} > {HERM_TOL:.1e})")
    return 0.5 * (a + adj)


def min_eig(m):
    """Smallest eigenvalue of the Hermitian part of m, as a float; for a
    stack, an array with one entry per matrix."""
    a = hermitian_part(m)
    lo = np.linalg.eigvalsh(a).min(axis=-1) if a.size else np.zeros(a.shape[:-2])
    return float(lo) if a.ndim == 2 else lo


def has_cholesky(a: np.ndarray) -> bool:
    """Whether a Hermitian a, or each of a stack, has a finite Cholesky factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


def require_pd(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """The Hermitian part of m, positive definite beyond PD_TOL."""
    a = require_hermitian(m, name=name, stacked=stacked)
    if not has_cholesky(a - PD_TOL * np.eye(a.shape[-1])):
        lo = min_eig(a)
        where = "" if a.ndim == 2 else f" at stack index {np.argmin(lo)}"
        raise ValueError(
            f"{name} is not positive definite (min eigenvalue {np.min(lo):.3e}{where})"
        )
    return a


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clipped."""
    a = hermitian_part(m)
    lam, v = np.linalg.eigh(a)
    lam = np.clip(lam, 0.0, None)
    return hermitian_part((v * np.sqrt(lam)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def psd_inv_sqrt(m) -> np.ndarray:
    a = hermitian_part(m)
    lam, v = np.linalg.eigh(a)
    if lam.min() <= 0.0:
        raise ValueError("matrix must be positive definite for inverse square root")
    return hermitian_part((v / np.sqrt(lam)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def logdet2(m):
    """log2 det of a Hermitian positive definite matrix, as a float; for a
    stack, an array with one entry per matrix.

    One Cholesky of the symmetrized argument (of the whole stack); an
    argument that is not numerically positive definite raises
    ``np.linalg.LinAlgError``.
    """
    a = hermitian_part(m)
    chol = np.linalg.cholesky(a)
    out = 2.0 * np.sum(np.log2(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
    return float(out) if a.ndim == 2 else out


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
    return hermitian_part((v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2))
