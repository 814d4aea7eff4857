"""Dense symmetric-matrix primitives underlying the whole package.

Definiteness classification of a whole stack of weights at once, PSD
eigendecompositions, null spaces and orthogonal projectors all reduce to
``numpy.linalg.eigvalsh``/``eigh`` on validated finite symmetric input, so
every tolerance decision lives here.

Tolerance conventions
---------------------
* ``SYM_TOL``: max allowed entrywise asymmetry ``|M[p,q] - M[q,p]|``; a
  matrix within it is replaced by its symmetric part.
* ``EIG_TOL``: relative eigenvalue threshold.  Classification treats
  ``|lam| <= max(EIG_TOL * max|lam|, EIG_FLOOR)`` as zero; ties at the
  threshold count as zero.  PSD routines reject ``lam < -thr`` and the null
  space keeps eigenvectors with ``lam <= thr``, where
  ``thr = EIG_TOL * max(1, lam_max)``, or a bound on ``lam_max`` in its place.
* ``CUT_GAP``: the spectral gap after a term's near-null span that
  :func:`null_space_of_sum` asks for before it tries that span.
* ``PIVOT_TIE``: relative gap under which two row norms tie when
  :func:`canonical_basis` picks a pivot row; the lower index wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NonSymmetricError, NotPSDError, WeightOverflowError

SYM_TOL = 1e-12
EIG_TOL = 1e-9
EIG_FLOOR = 1e-12
ORTHO_TOL = 1e-10
PIVOT_TIE = 1e-8
CUT_GAP = 1e3  # a term's span bounds a null space of a sum only across a gap this wide


class Definiteness(Enum):
    """Definiteness class of a symmetric matrix."""

    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    ZERO = "zero"
    INDEFINITE = "indefinite"


def check_symmetric(matrix) -> np.ndarray:
    """Validate a finite square symmetric float matrix, or a ``(k, d, d)`` stack of them.

    Returns the input as a float array, or its symmetric part
    ``(M + M^T) / 2`` where transposed entries differ within ``SYM_TOL``:
    equal entries are kept as they are, signed zeros too, and the halves are
    added so that no entry overflows.  Raises NonSymmetricError for
    non-square input, for a NaN or infinite entry, and when any entry differs
    from its transpose partner by more than ``SYM_TOL``; in a stack the first
    offending matrix raises, with its position as the error's ``index``.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise NonSymmetricError(f"must be square, got shape {M.shape}")
    S = M.reshape(-1, *M.shape[-2:])
    skew = np.abs(S - S.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    # a NaN or infinite entry makes skew NaN or inf, so finite input pays nothing extra
    bad = np.flatnonzero(~(skew <= SYM_TOL))
    if bad.size:
        k = int(bad[0])
        index = k if M.ndim == 3 else None
        if not np.isfinite(S[k]).all():
            raise NonSymmetricError("has a NaN or infinite entry", index=index)
        raise NonSymmetricError(
            f"is not symmetric: max |M - M^T| = {skew[k]:.3e} > {SYM_TOL:.1e}", index=index
        )
    if not skew.any():
        return M
    T = S.swapaxes(1, 2)
    return np.where(S == T, S, 0.5 * S + 0.5 * T).reshape(M.shape)


# code = [some eigenvalue positive] + 2 [some negative] + 4 [none zero]; code 4 cannot occur
_CLASS_OF_CODE = np.array(
    [
        Definiteness.ZERO,
        Definiteness.POSITIVE_SEMIDEFINITE,
        Definiteness.NEGATIVE_SEMIDEFINITE,
        Definiteness.INDEFINITE,
        Definiteness.ZERO,
        Definiteness.POSITIVE_DEFINITE,
        Definiteness.NEGATIVE_DEFINITE,
        Definiteness.INDEFINITE,
    ],
    dtype=object,
)


def classify_stack(stack, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Classify each matrix of a ``(k, d, d)`` stack by the signs of its eigenvalues.

    Returns a length-``k`` object array of :class:`Definiteness`.  The whole
    stack is checked by :func:`check_symmetric` and its symmetric part
    decomposed by one ``eigvalsh`` call.  Eigenvalues within
    ``max(eig_tol * max|lam|, EIG_FLOOR)`` of zero are treated as zero; ties
    at the threshold count as zero, biasing borderline matrices toward the
    semidefinite classes rather than the definite ones.  A finite matrix with
    an eigenvalue beyond the float range raises WeightOverflowError, with its
    position as the error's ``index``.
    """
    M = check_symmetric(stack)
    if M.ndim != 3:
        raise NonSymmetricError(f"must be a stack of matrices, got shape {M.shape}")
    return _classify_checked(M, eig_tol)


def _classify_checked(M: np.ndarray, eig_tol: float) -> np.ndarray:
    """:func:`classify_stack` of a ``(k, d, d)`` stack that :func:`check_symmetric` returned."""
    lam = np.linalg.eigvalsh(M)
    bad = np.flatnonzero(~np.isfinite(lam).all(axis=1))
    if bad.size:
        raise WeightOverflowError(
            "weight overflows: its eigenvalues exceed the float range", index=int(bad[0])
        )
    thr = np.maximum(eig_tol * np.abs(lam).max(axis=1, initial=0.0), EIG_FLOOR)[:, None]
    pos = (lam > thr).sum(axis=1)
    neg = (lam < -thr).sum(axis=1)
    return _CLASS_OF_CODE[(pos > 0) + 2 * (neg > 0) + 4 * (pos + neg == M.shape[-1])]


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis of a symmetric PSD matrix's (numerical) null space.

    ``vectors`` has shape ``(order, dim)`` with orthonormal columns, where
    ``order`` is the matrix's; ``dim == 0`` gives an ``(order, 0)`` array.
    ``tol_used`` records the absolute eigenvalue threshold that separated
    "zero" from "positive".
    """

    vectors: np.ndarray = field(repr=False)
    tol_used: float

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=float)
        if V.ndim != 2:
            raise NonSymmetricError(f"must be 2-D to hold a basis, got shape {V.shape}")
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


def canonical_basis(V: np.ndarray) -> np.ndarray:
    """The orthonormal basis of ``span(V)`` that depends on the span alone, not on ``V``.

    Greedy row pivoting picks rows ``piv`` (largest residual norm, lowest
    index within ``PIVOT_TIE`` of it); ``T = V V[piv]^-1`` is the basis equal
    to the identity there, orthonormalised in order by QR with ``diag(R) >
    0``.  Roundoff in ``V`` moves it by roundoff, where ``eigh``'s basis of a
    repeated eigenvalue can turn by O(1).
    """
    R = np.array(V, dtype=float)
    piv = []
    for _ in range(R.shape[1]):
        norms = np.sqrt(np.einsum("ij,ij->i", R, R))
        k = int(np.argmax(norms >= (1.0 - PIVOT_TIE) * norms.max()))
        piv.append(k)
        q = R[k] / norms[k]
        R -= np.outer(R @ q, q)
    T = np.linalg.solve(V[piv].T, V.T).T
    Q, upper = np.linalg.qr(T)
    return Q * np.where(np.diag(upper) < 0, -1.0, 1.0)


def psd_eigh(
    matrix, eig_tol: float = EIG_TOL, lam_bound: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition of a symmetric PSD matrix with negatives clipped to 0.

    Unchecked precondition: ``matrix`` is finite and exactly symmetric, as
    :func:`check_symmetric` returns it and ``laplacian()`` builds it.
    Returns ``(lam, V, thr)`` with ``matrix == V diag(lam) V.T`` up to
    roundoff, ``lam >= 0`` exactly, and the zero threshold ``thr = eig_tol *
    max(1, lam_bound)``, where ``lam_bound`` defaults to ``lam_max``: a
    compression of a larger matrix passes that matrix's bound.  Raises
    NotPSDError when an eigenvalue is below ``-thr``.
    """
    lam, V = np.linalg.eigh(matrix)
    if lam_bound is None:
        lam_bound = float(lam[-1]) if lam.size else 0.0
    thr = eig_tol * max(1.0, lam_bound)
    if lam.size and float(lam[0]) < -thr:
        raise NotPSDError(
            f"matrix is not PSD at eig_tol = {eig_tol:g}: "
            f"min eigenvalue {float(lam[0]):.3e} < {-thr:.3e}"
        )
    return np.clip(lam, 0.0, None), V, thr


def null_space(
    matrix, eig_tol: float = EIG_TOL, lam_bound: float | None = None
) -> NullSpaceBasis:
    """Numerical null space of a symmetric PSD matrix.

    Keeps the eigenvectors of the :func:`check_symmetric` result whose
    eigenvalues fall at or below ``eig_tol * max(1, lam_bound)``, with
    ``lam_bound`` as in :func:`psd_eigh`; the floor of 1 makes the threshold
    meaningful for near-zero matrices.  Clipping leaves that test unchanged.
    Raises NotPSDError, through :func:`psd_eigh`, when an eigenvalue is below
    minus that threshold.  Certification passes the schedule's ``eig_tol``,
    the one that classified its catalog edges and window averages.
    """
    lam, V, thr = psd_eigh(check_symmetric(matrix), eig_tol, lam_bound)
    return NullSpaceBasis(vectors=V[:, lam <= thr], tol_used=thr)


def null_space_of_sum(total, parts, lam_bound: float, eig_tol: float = EIG_TOL) -> NullSpaceBasis:
    """Null space of ``total = sum_i w_i A_i``, a sum of PSD terms, at ``eig_tol * max(1, lam_bound)``.

    ``total`` is symmetric, ``lam_bound`` bounds its largest eigenvalue, and
    ``parts`` holds each positive weight ``w_i`` with the ascending
    eigendecomposition ``(lam_i, V_i)`` of its term.  ``x^T total x <= thr``
    gives ``x^T A_i x <= thr / w_i``.  The term with the fewest, ``c``,
    eigenvalues up to that cut and the next, ``lam_i[c]``, at least
    ``CUT_GAP`` times it offers the candidate ``V0 U``: ``V0`` its first
    ``c`` eigenvectors and ``U`` those of ``V0^T total V0`` whose eigenvalues
    ``mu`` are at most ``thr``.  The candidate is kept when

    * no null vector is missed: with ``g = w_i lam_i[c]`` and ``a`` the next
      ``mu``, a unit ``x = u + v`` orthogonal to it (``u`` in ``span(V0)``)
      has ``x^T total x >= g |v|^2`` and ``sqrt(x^T total x) >= sqrt(a) |u| -
      sqrt(lam_bound) |v|``, so at least ``g a / ((sqrt(g) +
      sqrt(lam_bound))^2 + a)`` (``g`` when no ``mu`` exceeds ``thr``), which
      must exceed ``thr``;
    * and its residual ``||total V0 U - V0 U diag(mu)||_F`` is at most
      ``order * eps * max(1, lam_bound)``, a full ``eigh``'s backward error.

    Otherwise, and when no term offers ``V0``, :func:`null_space` decomposes
    ``total`` in full.
    """
    thr = eig_tol * max(1.0, lam_bound)
    best = None  # (c, V0, g) of the smallest span offered
    for w, lam, V in parts:
        c = int(np.searchsorted(lam, thr / w, side="right"))
        if c < (best[0] if best else total.shape[0]) and lam[c] >= CUT_GAP * thr / w:
            best = c, V[:, :c], w * float(lam[c])
    if best is not None:
        c, V0, g = best
        LV = total @ V0
        M = V0.T @ LV
        mu, U, _ = psd_eigh(0.5 * (M + M.T), eig_tol, lam_bound)
        k = int(np.count_nonzero(mu <= thr))
        low = g if k == c else g * mu[k] / ((np.sqrt(g) + np.sqrt(lam_bound)) ** 2 + mu[k])
        X = U[:, :k]
        res = np.linalg.norm(LV @ X - V0 @ (X * mu[:k]))
        if low > thr and res <= total.shape[0] * np.finfo(float).eps * max(1.0, lam_bound):
            return NullSpaceBasis(vectors=V0 @ X, tol_used=thr)
    return null_space(total, eig_tol, lam_bound)
