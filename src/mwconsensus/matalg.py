"""Dense symmetric-matrix primitives underlying the whole package.

Definiteness classification of a whole stack of weights at once, PSD
eigendecompositions and null spaces all reduce to
``numpy.linalg.eigvalsh``/``eigh`` on validated finite symmetric input, so
every eigenvalue threshold lives here.

Tolerance conventions
---------------------
Every tolerance is dimensionless and scales with what it tests, with no
absolute floor: no verdict depends on the units, and only an exact 0 is zero.

* ``SYM_TOL``: max allowed asymmetry ``|M[p,q] - M[q,p]|`` over ``max|M|``; a
  matrix within it is replaced by its symmetric part.
* ``EIG_TOL``: an eigenvalue is zero at or below ``thr = max(EIG_TOL, order
  * eps) * max|lam|``, ``order * eps`` being ``eigh``'s own roundoff; ties
  too.  :func:`_zero_threshold` alone forms it; ``max|lam|`` is ``lam_max``
  for a PSD spectrum.  PSD routines reject ``lam < -thr``; the null space
  keeps ``lam <= thr``; ``lam <= order * eps * lam_max`` is held at 0.
* Edge rank: how many eigenvalues of an edge's ``d x d`` ``|A_e|`` exceed
  that ``thr``.  A window null space reads only the edges' ranges, so
  no dose ratio moves it, except inside one integral edge summed from
  several graphs: its dosed average is ranked, so a ratio past ``1 /
  EIG_TOL`` there still sets its rank.
* ``analysis.Q_MARGIN`` and ``NECESSARY_TOL`` stay constants, not
  :class:`Tolerances` fields: both are dimensionless, and no scenario needs
  another value, so a field would only add a knob.
* ``PIVOT_TIE``: relative gap under which two row norms tie when
  :func:`canonical_basis` picks a pivot row; the lower index wins.
* ``POOL_MIN_ORDER``: the matrix order from which :func:`_map_lapack` runs
  independent LAPACK calls on a thread pool; below it a call is too short to
  pay for starting the pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NonSymmetricError, NotPSDError, WeightOverflowError

SYM_TOL = 1e-12
EIG_TOL = 1e-9
ORTHO_TOL = 1e-10
PIVOT_TIE = 1e-8
POOL_MIN_ORDER = 256
# the variables by which a BLAS is told how many threads each call may take
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Tolerances:
    """A scenario's thresholds; each reader takes only its own field.

    ``eig_tol`` classifies weights and bounds null spaces, ``ns_eq_tol`` compares
    window null spaces, ``cluster_tol`` groups agents; ``conv_tol`` has no reader yet.
    """

    eig_tol: float = EIG_TOL
    ns_eq_tol: float = 1e-8
    cluster_tol: float = 1e-6
    conv_tol: float = 1e-6


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
    ``(M + M^T) / 2`` where transposed entries differ within ``SYM_TOL *
    max|M|``: equal entries are kept as they are, signed zeros too, and the
    halves are added so that no entry overflows.  Raises NonSymmetricError
    for non-square input, for a NaN or infinite entry, and when any entry
    differs from its transpose partner by more than that; in a stack the first
    offending matrix raises, with its position as the error's ``index``.  Order 0 passes.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise NonSymmetricError(f"must be square, got shape {M.shape}")
    S = M if M.ndim == 3 else M[None]
    with np.errstate(invalid="ignore"):  # inf - inf: named below
        skew = np.abs(S - S.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    size = np.abs(S).max(axis=(1, 2), initial=0.0)
    # a NaN or infinite entry makes size NaN or inf, so finite input pays nothing extra
    bad = np.flatnonzero(~((skew <= SYM_TOL * size) & np.isfinite(size)))
    if bad.size:
        k = int(bad[0])
        index = k if M.ndim == 3 else None
        if not np.isfinite(size[k]):
            raise NonSymmetricError("has a NaN or infinite entry", index=index)
        raise NonSymmetricError(
            f"is not symmetric: max |M - M^T| = {skew[k]:.3e} > {SYM_TOL:.1e} * max|M| = "
            f"{SYM_TOL * size[k]:.3e}", index=index)
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
    decomposed by one ``eigvalsh`` call.  Eigenvalues within ``max(eig_tol, d
    * eps) * max|lam|`` of zero, ties too, are zero, biasing borderline
    matrices toward the semidefinite classes rather than the definite ones.
    Only a zero matrix is ``ZERO``.  A finite matrix with an eigenvalue beyond
    the float range raises WeightOverflowError, with its position as the
    error's ``index``.
    """
    M = check_symmetric(stack)
    if M.ndim != 3:
        raise NonSymmetricError(f"must be a stack of matrices, got shape {M.shape}")
    return _classify_checked(M, eig_tol)


def _zero_threshold(lam: np.ndarray, eig_tol: float) -> np.ndarray:
    """``max(eig_tol, order * eps) * max|lam|`` over ``lam``'s last axis, of ``order``, as a column."""
    floor = lam.shape[-1] * np.finfo(float).eps
    return max(eig_tol, floor) * np.abs(lam).max(axis=-1, keepdims=True, initial=0.0)


def _classify_checked(M: np.ndarray, eig_tol: float) -> np.ndarray:
    """:func:`classify_stack` of a ``(k, d, d)`` stack that :func:`check_symmetric` returned."""
    lam = np.linalg.eigvalsh(M)
    bad = np.flatnonzero(~np.isfinite(lam).all(axis=1))
    if bad.size:
        raise WeightOverflowError(
            "weight overflows: its eigenvalues exceed the float range", index=int(bad[0])
        )
    thr = _zero_threshold(lam, eig_tol)
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


def projector_distance(a: NullSpaceBasis, b: NullSpaceBasis) -> float:
    """``||P_a - P_b||_F`` of the orthogonal projectors onto two spans, neither of them formed.

    With orthonormal ``V_a`` and ``V_b``, ``||P_a - P_b||_F^2`` is
    ``||V_b - V_a (V_a^T V_b)||_F^2 + ||V_a - V_b (V_b^T V_a)||_F^2``: each
    term is the squared distance of one basis from the other span, formed
    from its residual, so no difference of squares cancels as in ``m_a + m_b
    - 2 ||V_a^T V_b||_F^2``.  Each residual is projected off the other span
    once more, as in Gram-Schmidt reorthogonalisation: the roundoff of
    ``V_a^T V_b``, summed over ``N`` rows, would otherwise stay in both
    residuals at about ``sqrt(N) eps``.  The cost is ``O(N m^2)`` where two
    projectors cost ``O(N^2 m)`` and hold ``2 N^2`` floats.  Equal bases are
    exactly 0 apart, as their projectors are, where the residuals would
    leave roundoff.
    """
    Va, Vb = a.vectors, b.vectors
    if np.array_equal(Va, Vb):
        return 0.0
    G = Va.T @ Vb
    rb, ra = Vb - Va @ G, Va - Vb @ G.T
    rb -= Va @ (Va.T @ rb)
    ra -= Vb @ (Vb.T @ ra)
    return float(np.hypot(np.linalg.norm(rb), np.linalg.norm(ra)))


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


def psd_eigh(matrix, eig_tol: float = EIG_TOL) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition of a symmetric PSD matrix with its roundoff eigenvalues held at 0.

    Unchecked precondition: ``matrix`` is finite and exactly symmetric, as
    :func:`check_symmetric` returns it and ``laplacian()`` builds it.
    Returns ``(lam, V, thr)`` with ``matrix == V diag(lam) V.T`` up to
    roundoff and the zero threshold ``thr = max(eig_tol, order * eps) *
    lam_max`` of :func:`_zero_threshold`.  The floor ``order * eps`` is
    ``eigh``'s own roundoff: a tolerance below it does not count roundoff as
    negative, and an eigenvalue within it, ``order * eps * lam_max``, is an
    exact 0, so no dose, however large, decays a null-space component.
    Raises NotPSDError, naming whichever set ``thr``, when an eigenvalue is below ``-thr``.
    """
    lam, V = np.linalg.eigh(matrix)
    floor = lam.size * np.finfo(float).eps
    thr = float(_zero_threshold(lam, eig_tol)[0])
    if lam.size and float(lam[0]) < -thr:
        at = f"eig_tol = {eig_tol:g}" if eig_tol >= floor else f"order * eps = {floor:.3e}"
        raise NotPSDError(f"matrix is not PSD at {at}: min eigenvalue {lam[0]:.3e} < {-thr:.3e}")
    lam[lam <= floor * lam[-1:]] = 0.0  # lam[-1:]: lam_max, empty at order 0
    return lam, V, thr


def null_space(matrix, eig_tol: float = EIG_TOL) -> NullSpaceBasis:
    """Numerical null space of a symmetric PSD matrix.

    Keeps the eigenvectors of the :func:`check_symmetric` result whose
    eigenvalues fall at or below :func:`psd_eigh`'s threshold ``max(eig_tol,
    order * eps) * lam_max``, so a zero matrix is all null space.  Raises
    NotPSDError, through :func:`psd_eigh`, when an eigenvalue is below minus
    that threshold.
    """
    lam, V, thr = psd_eigh(check_symmetric(matrix), eig_tol)
    return NullSpaceBasis(vectors=V[:, lam <= thr], tol_used=thr)


def _lapack_workers() -> int:
    """How many LAPACK calls can run at once on the CPUs of the process's affinity.

    Each call takes as many CPUs as the BLAS gives it threads: the first of
    ``_BLAS_THREAD_VARS`` set to a positive integer, or else, the BLAS's
    default, every CPU, which leaves one call at a time.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _pool_size(count: int, order: int) -> int:
    """How many of ``count`` LAPACK calls on matrices of ``order`` :func:`_map_lapack` runs at once."""
    return min(count, _lapack_workers()) if order >= POOL_MIN_ORDER else 1


def _map_lapack(fn, items, order: int, prepare=None) -> list:
    """``[fn(prepare(x)) for x in items]``, the calls run at the same time where that pays.

    ``fn`` is LAPACK-bound work on matrices of ``order``, which threads
    overlap where numpy releases the interpreter lock inside LAPACK: only in
    a call that returns more than about 500 values in all, so in an ``eigh``
    of order ``POOL_MIN_ORDER``, but not in a values-only ``svd`` or
    ``eigvalsh`` of fewer values, as of one core of order 400.  A pool of
    :func:`_lapack_workers` threads, at most one per item, runs the calls
    when there are at least two of each and ``order >= POOL_MIN_ORDER``;
    otherwise they run one after another on this thread.  ``prepare`` runs
    here as a worker comes free for its item, so at most one prepared
    argument per worker is held, and none in a worker's malloc arena.
    Results come back in the order of ``items``, and the first call to
    raise, in that order, raises here, once every call has returned.  The
    pool lives for this call only, so no thread outlives it.  A worker starts
    with numpy's default ``errstate``, not the caller's, and must only read
    shared state.
    """
    items, prepare = list(items), prepare or (lambda x: x)
    workers = _pool_size(len(items), order)
    if workers < 2:
        return [fn(prepare(x)) for x in items]
    # imported here, so that a run without a pool does not pay its 9 ms
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    def call(box):  # the argument goes with the call's frame, before its result is set
        return fn(box.pop())

    calls, running = [], set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for x in items:
            if len(running) == workers:
                running = wait(running, return_when=FIRST_COMPLETED).not_done
            calls.append(pool.submit(call, [prepare(x)]))
            running.add(calls[-1])
    return [c.result() for c in calls]
