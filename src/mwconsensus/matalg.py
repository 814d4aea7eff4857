"""Dense symmetric-matrix primitives underlying the whole package.

Definiteness classification, PSD eigendecompositions, null spaces and
orthogonal projectors all reduce to ``numpy.linalg.eigvalsh``/``eigh`` on
validated finite symmetric input, so every tolerance decision lives here.

Tolerance conventions
---------------------
* ``SYM_TOL``: max allowed entrywise asymmetry ``|M[p,q] - M[q,p]|``.
* ``EIG_TOL``: relative eigenvalue threshold.  Classification treats
  ``|lam| <= max(EIG_TOL * max|lam|, EIG_FLOOR)`` as zero; ties at the
  threshold count as zero.  PSD routines reject ``lam < -thr`` and the null
  space keeps eigenvectors with ``lam <= thr``, where
  ``thr = EIG_TOL * max(1, lam_max)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IndefiniteWeightError, NonSymmetricError, NotPSDError

SYM_TOL = 1e-12
EIG_TOL = 1e-9
EIG_FLOOR = 1e-12
ORTHO_TOL = 1e-10


class Definiteness(Enum):
    """Definiteness class of a symmetric matrix."""

    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    ZERO = "zero"
    INDEFINITE = "indefinite"

    @property
    def is_definite(self) -> bool:
        return self in (Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE)

    @property
    def sign(self) -> int:
        """Scalar sign: +1 for PD/PSD, -1 for ND/NSD, 0 for ZERO."""
        if self in (Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE):
            return 1
        if self in (Definiteness.NEGATIVE_DEFINITE, Definiteness.NEGATIVE_SEMIDEFINITE):
            return -1
        if self is Definiteness.ZERO:
            return 0
        raise IndefiniteWeightError("indefinite matrix has no scalar sign")


def check_symmetric(matrix, sym_tol: float = SYM_TOL) -> np.ndarray:
    """Validate that ``matrix`` is a finite square symmetric float array and return it.

    Raises NonSymmetricError for non-square input, for a NaN or infinite
    entry, and when any entry differs from its transpose partner by more than
    ``sym_tol``.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {M.shape}")
    skew = np.abs(M - M.T).max(initial=0.0)
    # a NaN or infinite entry makes skew NaN or inf, so finite input pays nothing extra
    if not skew <= sym_tol:
        if not np.isfinite(M).all():
            raise NonSymmetricError("matrix has a NaN or infinite entry")
        raise NonSymmetricError(
            f"matrix is not symmetric: max |M - M^T| = {skew:.3e} > {sym_tol:.1e}"
        )
    return M


def classify_definiteness(
    matrix, eig_tol: float = EIG_TOL, sym_tol: float = SYM_TOL
) -> Definiteness:
    """Classify a symmetric matrix by the signs of its eigenvalues.

    Eigenvalues within ``max(eig_tol * max|lam|, EIG_FLOOR)`` of zero are
    treated as zero; ties at the threshold count as zero, biasing borderline
    matrices toward the semidefinite classes rather than the definite ones.
    """
    M = check_symmetric(matrix, sym_tol)
    lam = np.linalg.eigvalsh(M)
    thr = max(eig_tol * float(np.abs(lam).max(initial=0.0)), EIG_FLOOR)
    neg = lam < -thr
    pos = lam > thr
    if not neg.any() and not pos.any():
        return Definiteness.ZERO
    if neg.any() and pos.any():
        return Definiteness.INDEFINITE
    if pos.any():
        return Definiteness.POSITIVE_DEFINITE if pos.all() else Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.NEGATIVE_DEFINITE if neg.all() else Definiteness.NEGATIVE_SEMIDEFINITE


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis of a symmetric PSD matrix's (numerical) null space.

    ``vectors`` has shape ``(ambient_dim, dim)`` with orthonormal columns;
    ``dim == 0`` gives a ``(ambient_dim, 0)`` array.  ``tol_used`` records the
    absolute eigenvalue threshold that separated "zero" from "positive".
    """

    ambient_dim: int
    vectors: np.ndarray = field(repr=False)
    tol_used: float

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.ambient_dim:
            raise NonSymmetricError(
                f"basis array shape {V.shape} does not match ambient dim {self.ambient_dim}"
            )
        gram = V.T @ V
        err = np.abs(gram - np.eye(V.shape[1])).max(initial=0.0)
        if err > ORTHO_TOL:
            raise NotPSDError(f"basis columns not orthonormal: max Gram error {err:.3e}")
        object.__setattr__(self, "vectors", V)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def projector(basis: NullSpaceBasis) -> np.ndarray:
    """Orthogonal projector ``sum_i eta_i eta_i^T`` onto the spanned subspace."""
    V = basis.vectors
    return V @ V.T


def psd_eigh(matrix, eig_tol: float = EIG_TOL) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition of a symmetric PSD matrix with negatives clipped to 0.

    Returns ``(lam, V, thr)`` with ``matrix == V diag(lam) V.T`` up to
    roundoff, ``lam >= 0`` exactly, and the zero threshold
    ``thr = eig_tol * max(1, lam_max)``.  Raises NotPSDError when an
    eigenvalue is below ``-thr``.
    """
    M = check_symmetric(matrix)
    lam, V = np.linalg.eigh(M)
    lam_max = float(lam[-1]) if lam.size else 0.0
    thr = eig_tol * max(1.0, lam_max)
    if lam.size and float(lam[0]) < -thr:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {float(lam[0]):.3e} < {-thr:.3e}"
        )
    return np.clip(lam, 0.0, None), V, thr


def null_space(matrix, eig_tol: float = EIG_TOL) -> NullSpaceBasis:
    """Numerical null space of a symmetric PSD matrix.

    Keeps the eigenvectors whose eigenvalues fall at or below
    ``eig_tol * max(1, lam_max)``; the absolute floor of 1 makes the threshold
    meaningful for near-zero matrices.  Clipping leaves that test unchanged.
    """
    lam, V, thr = psd_eigh(matrix, eig_tol)
    return NullSpaceBasis(ambient_dim=V.shape[0], vectors=V[:, lam <= thr], tol_used=thr)
