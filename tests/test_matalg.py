"""Unit and property tests for the symmetric-matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus.errors import IndefiniteWeightError, NonSymmetricError, NotPSDError
from mwconsensus.graph import MatrixWeightedGraph, laplacian
from mwconsensus.matalg import (
    EIG_FLOOR,
    EIG_TOL,
    Definiteness,
    NullSpaceBasis,
    canonical_basis,
    check_symmetric,
    classify_stack,
    null_space,
    projector_distance,
    psd_eigh,
)

from oracles import classify_definiteness, matrix_abs, matrix_exp_neg, projector, sign_of
from randgen import rand_graph

D = Definiteness


def rand_sym(rng, d, scale=1.0):
    A = rng.normal(size=(d, d)) * scale
    return A + A.T


def classify_one(M):
    """The class of ``M`` classified as a one-matrix stack; the oracle must agree."""
    got = classify_stack(np.asarray(M, dtype=float)[None])
    assert got.shape == (1,)
    assert got[0] is classify_definiteness(M)
    return got[0]


@st.composite
def sym_matrices(draw):
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rand_sym(rng, d)


@st.composite
def signed_psd(draw):
    """(sign, P) with P PSD and well conditioned away from the zero class."""
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    sign = draw(st.sampled_from((-1, 1)))
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 2.0, size=d)
    if d > 1 and draw(st.booleans()):
        lam[0] = 0.0
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return sign, (Q * lam) @ Q.T


KINDS = ("pd", "psd", "nd", "nsd", "zero", "indefinite", "tie", "below_floor")


def spectrum(kind, rng, d, eig_tol):
    """Eigenvalues of the given kind; "tie" puts one exactly at the threshold."""
    lam = rng.uniform(0.5, 2.0, size=d)
    if kind in ("psd", "nsd") and d > 1:
        lam[rng.integers(d)] = 0.0
    if kind == "zero":
        lam[:] = 0.0
    if kind == "indefinite" and d > 1:
        lam[0] = -lam[0]
    if kind == "tie":
        lam[0] = 1.0
        lam[1:] = eig_tol * rng.choice((-1.0, 1.0), size=d - 1)
    if kind == "below_floor":
        lam = rng.uniform(-1.0, 1.0, size=d) * EIG_FLOOR * rng.choice((0.5, 10.0))
    if kind in ("nd", "nsd"):
        lam = -lam
    return lam


@st.composite
def mixed_stacks(draw):
    """A (k, d, d) stack mixing every class, ties at the threshold and sub-floor spectra."""
    d = draw(st.integers(1, 5))
    eig_tol = draw(st.sampled_from((EIG_TOL, 1e-6, 1e-3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=12))
    stack = np.zeros((len(kinds), d, d))
    for k, kind in enumerate(kinds):
        lam = spectrum(kind, rng, d, eig_tol) * rng.choice((1.0, 1e-3, 1e3))
        if kind == "tie" or draw(st.booleans()):
            stack[k] = np.diag(lam)  # a rotation would move a tie off the threshold
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            M = (Q * lam) @ Q.T
            stack[k] = 0.5 * (M + M.T)
    return stack, eig_tol


class TestClassifyStack:
    @given(mixed_stacks())
    @settings(deadline=None, max_examples=300)
    def test_agrees_with_per_matrix_oracle(self, case):
        stack, eig_tol = case
        got = classify_stack(stack, eig_tol)
        assert got.shape == (len(stack),)
        assert list(got) == [classify_definiteness(M, eig_tol) for M in stack]

    def test_empty_stack(self):
        assert classify_stack(np.zeros((0, 3, 3))).shape == (0,)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0])
    def test_error_names_first_offending_matrix(self, bad):
        stack = np.stack([np.eye(2)] * 4)
        stack[2, 0, 1] = stack[3, 0, 1] = bad
        if not np.isfinite(bad):
            stack[2, 1, 0] = bad
        with pytest.raises(NonSymmetricError) as exc:
            classify_stack(stack)
        assert exc.value.index == 2 and exc.value.i is None

    def test_rejects_a_single_matrix(self):
        with pytest.raises(NonSymmetricError):
            classify_stack(np.eye(2))


class TestClassify:
    """Each case classified as a one-matrix stack, and by the per-matrix oracle."""

    @pytest.mark.parametrize(
        "M, expected",
        [
            (np.diag([1.0, 2.0]), D.POSITIVE_DEFINITE),
            ([[1.0, 1.0], [1.0, 1.0]], D.POSITIVE_SEMIDEFINITE),
            (np.diag([-1.0, -2.0]), D.NEGATIVE_DEFINITE),
            ([[-1.0, 1.0], [1.0, -1.0]], D.NEGATIVE_SEMIDEFINITE),
            (np.zeros((3, 3)), D.ZERO),
            (np.diag([1.0, -1.0]), D.INDEFINITE),
        ],
    )
    def test_known_classes(self, M, expected):
        assert classify_one(M) is expected

    def test_near_zero_matrix_is_zero_class(self):
        assert classify_one(np.diag([1e-13, -1e-13])) is D.ZERO

    def test_tie_at_threshold_counts_as_zero(self):
        # threshold is exactly 1e-9 * max|lam| = 1e-9; the tied eigenvalue
        # must land in the zero bucket, giving PSD rather than PD
        assert classify_one(np.diag([1.0, 1e-9])) is D.POSITIVE_SEMIDEFINITE
        assert classify_one(np.diag([-1.0, -1e-9])) is D.NEGATIVE_SEMIDEFINITE

    def test_just_above_threshold_is_definite(self):
        assert classify_one(np.diag([1.0, 1e-8])) is D.POSITIVE_DEFINITE

    def test_rejects_asymmetry_beyond_tolerance(self):
        M = np.array([[1.0, 1e-10], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError, match="not symmetric"):
            classify_stack(M[None])
        with pytest.raises(NonSymmetricError):
            classify_definiteness(M)

    def test_accepts_asymmetry_within_tolerance(self):
        M = np.array([[1.0, 1e-13], [0.0, 1.0]])
        assert classify_one(M) is D.POSITIVE_DEFINITE

    @pytest.mark.filterwarnings("error")
    def test_exact_entries_kept_bit_for_bit(self):
        # signed zeros, subnormals, and entries near the float maximum, whose plain sum
        # would overflow, kept as they are beside a matrix that is symmetrized
        big = np.finfo(float).max
        exact = np.stack([
            np.array([[1.0, -0.0, 0.0], [-0.0, 2.0, 5e-324], [0.0, 5e-324, 3.0]]),
            np.array([[big / 2, big / 4, 0.0], [big / 4, big / 2, 0.0], [0.0, 0.0, big]]),
        ])
        assert check_symmetric(exact).tobytes() == exact.tobytes()
        near = np.eye(3)
        near[0, 1] += 0.9e-12
        held = check_symmetric(np.concatenate([exact, near[None]]))
        assert held[:2].tobytes() == exact.tobytes()
        assert np.array_equal(held[2], held[2].T)

    def test_rejects_non_square(self):
        with pytest.raises(NonSymmetricError):
            classify_stack(np.ones((1, 2, 3)))
        with pytest.raises(NonSymmetricError):
            classify_definiteness(np.ones((2, 3)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entry(self, bad, at):
        M = np.eye(2)
        M[at] = M[at[::-1]] = bad
        with pytest.raises(NonSymmetricError, match="NaN or infinite"):
            check_symmetric(M)
        with pytest.raises(NonSymmetricError, match="NaN or infinite"):
            classify_stack(M[None])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_raises_the_named_error_without_a_warning(self, bad):
        # inf - inf in the skew is NaN; numpy would warn of it before the error is raised
        M = np.eye(2)
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(NonSymmetricError, match="^matrix has a NaN or infinite entry$"):
            check_symmetric(M)
        with pytest.raises(NonSymmetricError, match="NaN or infinite") as exc:
            classify_stack(np.stack([np.eye(2), M]))
        assert exc.value.index == 1
        with pytest.raises(NonSymmetricError, match="^edge \\(0,1\\) weight has a NaN or infinite"):
            MatrixWeightedGraph(2, 2, {(0, 1): M})

    @given(sym_matrices())
    @settings(deadline=None)
    def test_classification_is_exhaustive(self, M):
        assert classify_one(M) in D


class TestSignAndAbs:
    def test_sign_values(self):
        weights = [np.diag(lam) for lam in ([2.0, 1.0], [1.0, 0.0], [-2.0, -1.0], [0.0, -1.0])]
        g = MatrixWeightedGraph(5, 2, {(0, k + 1): W for k, W in enumerate(weights)})
        assert g.classes.tolist() == [D.POSITIVE_DEFINITE, D.POSITIVE_SEMIDEFINITE,
                                      D.NEGATIVE_DEFINITE, D.NEGATIVE_SEMIDEFINITE]
        assert g.signs.tolist() == [1, 1, -1, -1]
        assert [sign_of(c) for c in g.classes] == [1, 1, -1, -1]
        assert sign_of(classify_definiteness(np.zeros((2, 2)))) == 0

    def test_indefinite_raises(self):
        with pytest.raises(IndefiniteWeightError):
            sign_of(classify_definiteness(np.diag([1.0, -1.0])))
        with pytest.raises(IndefiniteWeightError):
            matrix_abs(np.diag([1.0, -1.0]))

    @given(signed_psd())
    @settings(deadline=None)
    def test_abs_is_sign_times_matrix_and_psd(self, case):
        sign, P = case
        M = sign * P
        A = matrix_abs(M)
        assert np.allclose(A, sign_of(classify_definiteness(M)) * M)
        assert np.linalg.eigvalsh(A).min() >= -1e-9 * max(1.0, np.abs(A).max())
        assert np.allclose(A, P, atol=1e-12)

    def test_abs_of_zero_is_zero(self):
        assert np.array_equal(matrix_abs(np.zeros((3, 3))), np.zeros((3, 3)))


class TestNullSpace:
    def test_scalar_path_laplacian_nullspace_is_ones(self):
        # 3-node path with unit weights, d = 1
        L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        B = null_space(L)
        assert B.dim == 1
        ones = np.ones(3) / np.sqrt(3)
        assert abs(abs(B.vectors[:, 0] @ ones) - 1.0) < 1e-12

    def test_residual_bounded_by_tolerance(self, rng):
        for _ in range(20):
            d = rng.integers(2, 8)
            lam = rng.uniform(0.5, 2.0, size=d)
            lam[: rng.integers(1, d)] = 0.0
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            M = (Q * lam) @ Q.T
            M = 0.5 * (M + M.T)
            B = null_space(M)
            assert B.dim == int((lam == 0).sum())
            if B.dim:
                res = np.linalg.norm(M @ B.vectors, axis=0).max()
                assert res <= B.tol_used * max(1.0, np.abs(M).max())

    def test_threshold_scales_with_lam_max_but_floors_at_one(self):
        B_small = null_space(np.diag([0.0, 0.5]))
        assert B_small.tol_used == pytest.approx(1e-9)
        B_big = null_space(np.diag([0.0, 2e3]))
        assert B_big.tol_used == pytest.approx(2e-6)
        assert B_big.dim == 1

    def test_eigenvalue_at_threshold_included(self):
        B = null_space(np.diag([1e-9, 1.0]))
        assert B.dim == 1

    def test_bound_on_the_largest_eigenvalue_scales_the_threshold(self):
        B = null_space(np.diag([1e-7, 1.0]), 1e-9, lam_bound=100.0)
        assert B.dim == 1 and B.tol_used == 1e-9 * 100.0

    def test_public_callers_still_check_symmetry(self):
        # psd_eigh trusts its input; null_space and null_intersection check their callers'
        from mwconsensus.analysis import null_intersection

        asym = np.array([[1.0, -1.0 + 1e-9], [-1.0, 1.0]])
        with pytest.raises(NonSymmetricError, match="not symmetric"):
            null_space(asym)
        with pytest.raises(NonSymmetricError, match="not symmetric"):
            null_intersection([np.eye(2), asym - np.eye(2)])

    def test_not_psd_raises(self):
        with pytest.raises(NotPSDError):
            null_space(np.diag([-1.0, 1.0]))

    def test_full_rank_gives_empty_basis(self):
        B = null_space(np.diag([1.0, 2.0]))
        assert B.dim == 0
        assert B.vectors.shape == (2, 0)

    def test_basis_orthonormality_enforced(self):
        with pytest.raises(NotPSDError):
            NullSpaceBasis(vectors=np.array([[1.0], [1.0]]), tol_used=1e-9)

    def test_order_zero_matrix_has_an_empty_basis(self):
        # the window quotient has order 0 when every skeleton component is forced to 0
        assert check_symmetric(np.zeros((0, 0))).shape == (0, 0)
        assert check_symmetric(np.zeros((3, 0, 0))).shape == (3, 0, 0)
        B = null_space(np.zeros((0, 0)))
        assert B.vectors.shape == (0, 0) and B.dim == 0 and B.tol_used == EIG_TOL


class TestCanonicalBasis:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_roundoff_perturbation_barely_moves_it(self, seed):
        # a symmetric perturbation of relative size 1e-15 turns eigh's basis of a
        # repeated zero eigenvalue by O(1); the canonical basis moves by roundoff
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        # structurally balanced signs, so the null space has dimension d or more
        sigma = rng.choice((-1, 1), size=n)
        signs = {(i, j): int(sigma[i] * sigma[j]) for i in range(n) for j in range(i + 1, n)}
        g = rand_graph(rng, n, d, pair_signs=signs, edge_prob=float(rng.uniform(0.2, 0.9)))
        L = laplacian(g)
        E = rand_sym(rng, n * d)
        E *= 1e-15 * np.linalg.norm(L, 2) / np.linalg.norm(E, 2)
        V, W = null_space(L).vectors, null_space(L + E).vectors
        assert V.shape == W.shape and V.shape[1] >= 1
        Q = canonical_basis(V)
        assert np.abs(Q.T @ Q - np.eye(V.shape[1])).max() < 1e-12
        assert np.abs(Q @ Q.T - V @ V.T).max() < 1e-12
        assert np.abs(canonical_basis(W) - Q).max() <= 1e-10
        # any orthonormal basis of the span gives the same answer
        turned = V @ np.linalg.qr(rng.normal(size=(V.shape[1],) * 2))[0]
        assert np.abs(canonical_basis(turned) - Q).max() <= 1e-10

    @pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (7, 2)])
    def test_exact_tie_gives_the_consensus_basis(self, n, d, rng):
        # every agent's rows have the same norm: the lowest index wins each tie
        R = rng.normal(size=(n - 1, d, d))
        g = MatrixWeightedGraph(n, d, {(i, i + 1): np.eye(d) + R[i] @ R[i].T for i in range(n - 1)})
        V = null_space(laplacian(g)).vectors
        want = np.kron(np.ones((n, 1)), np.eye(d)) / np.sqrt(n)
        for turn in (np.eye(d), np.linalg.qr(rng.normal(size=(d, d)))[0]):
            assert np.abs(canonical_basis(V @ turn) - want).max() < 1e-14

    def test_near_tie_takes_the_lowest_index(self):
        # rows 0 and 1 differ in norm by 1e-12 and in sign: the pivot row gets the + sign
        for a, b in ((1.0, -(1.0 + 1e-12)), (1.0 + 1e-12, -1.0)):
            v = np.array([[a], [b], [0.5]])
            v /= np.linalg.norm(v)
            Q = canonical_basis(-v)
            assert Q[0, 0] > 0 and np.abs(Q - v).max() < 1e-15
        # in two dimensions, a plane whose pivot rows tie within 1e-12
        V = np.array([[1.0, 0.0], [0.0, 1.0], [-(1.0 + 1e-12), 0.0], [0.0, -1.0]]) / np.sqrt(2)
        V = np.linalg.qr(V)[0]
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]) / np.sqrt(2)
        for angle in (0.3, 2.0, -1.1):
            c, s = np.cos(angle), np.sin(angle)
            assert np.abs(canonical_basis(V @ np.array([[c, -s], [s, c]])) - want).max() < 1e-11

    def test_empty_span(self):
        assert canonical_basis(np.zeros((4, 0))).shape == (4, 0)


class TestProjector:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 3))
    @settings(deadline=None, max_examples=50)
    def test_idempotent_symmetric_and_fixes_basis(self, seed, d, k):
        k = min(k, d)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        B = NullSpaceBasis(vectors=Q[:, :k], tol_used=1e-9)
        P = projector(B)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P, P.T, atol=1e-15)
        assert np.allclose(P @ B.vectors, B.vectors, atol=1e-12)
        assert np.trace(P) == pytest.approx(k, abs=1e-9)


def _orthonormal(rng, N, k):
    return np.linalg.qr(rng.normal(size=(N, N)))[0][:, :k]


class TestProjectorDistance:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 12), st.integers(0, 12))
    @settings(deadline=None, max_examples=80)
    def test_matches_explicit_projectors(self, seed, N, ka, kb):
        # random spans of equal or unequal dimension, the empty one included
        rng = np.random.default_rng(seed)
        A = NullSpaceBasis(vectors=_orthonormal(rng, N, min(ka, N)), tol_used=1e-9)
        B = NullSpaceBasis(vectors=_orthonormal(rng, N, min(kb, N)), tol_used=1e-9)
        want = np.linalg.norm(projector(A) - projector(B), "fro")
        tol = 4 * N * (ka + kb + 1) * np.finfo(float).eps
        assert abs(projector_distance(A, B) - want) <= tol
        assert abs(projector_distance(B, A) - want) <= tol
        assert projector_distance(A, A) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.floats(1e-15, 1e-2))
    @settings(deadline=None, max_examples=60)
    def test_nearly_equal_spans_keep_their_small_distance(self, seed, N, theta):
        # one basis vector turned by theta out of the span: ||P_a - P_b||_F = sqrt(2) sin(theta)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, N))
        Q = _orthonormal(rng, N, k + 1)
        Vb = Q[:, :k].copy()
        Vb[:, 0] = np.cos(theta) * Q[:, 0] + np.sin(theta) * Q[:, k]
        A = NullSpaceBasis(vectors=Q[:, :k], tol_used=1e-9)
        B = NullSpaceBasis(vectors=Vb, tol_used=1e-9)
        exact = np.sqrt(2.0) * np.sin(theta)
        eps = np.finfo(float).eps
        assert abs(projector_distance(A, B) - exact) <= 4 * N * eps
        assert abs(np.linalg.norm(projector(A) - projector(B), "fro") - exact) <= 4 * N * k * eps

    def test_rotated_basis_of_one_span_reads_roundoff(self):
        # V_b = V_a Q spans V_a's space: without re-projecting the residuals, the roundoff
        # of V_a^T V_b over N = 600 rows left up to 15 eps
        eps = np.finfo(float).eps
        for seed in range(50):
            rng = np.random.default_rng(seed)
            Va = np.linalg.qr(rng.normal(size=(600, 3)))[0]
            Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            A = NullSpaceBasis(vectors=Va, tol_used=1e-9)
            B = NullSpaceBasis(vectors=Va @ Q, tol_used=1e-9)
            assert projector_distance(A, B) <= 4 * eps, seed
            assert projector_distance(B, A) <= 4 * eps, seed


class TestExpNeg:
    def test_matches_power_series(self, rng):
        for _ in range(10):
            d = rng.integers(2, 6)
            A = rng.normal(size=(d, d))
            M = A @ A.T
            M *= 2.0 / max(1.0, np.linalg.eigvalsh(M).max())
            tau = rng.uniform(0.1, 1.5)
            E = matrix_exp_neg(M, tau)
            series = np.eye(d)
            term = np.eye(d)
            for k in range(1, 60):
                term = term @ (-tau * M) / k
                series = series + term
            assert np.abs(E - series).max() < 1e-12

    def test_tau_zero_is_identity(self):
        M = np.diag([1.0, 2.0])
        assert np.array_equal(matrix_exp_neg(M, 0.0), np.eye(2))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            matrix_exp_neg(np.eye(2), -0.1)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            matrix_exp_neg(np.diag([1.0, -1.0]), 1.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=50)
    def test_semigroup_and_contraction(self, seed, a, b):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 4))
        M = A @ A.T
        Ea, Eb, Eab = matrix_exp_neg(M, a), matrix_exp_neg(M, b), matrix_exp_neg(M, a + b)
        scale = max(1.0, np.abs(Eab).max())
        assert np.abs(Ea @ Eb - Eab).max() < 1e-10 * scale
        assert np.linalg.svd(Ea, compute_uv=False).max() <= 1.0 + 1e-12


class TestPsdEigh:
    def test_reconstructs_and_clips(self, rng):
        A = rng.normal(size=(5, 5))
        M = A @ A.T
        lam, V, _ = psd_eigh(M)
        assert lam.min() >= 0.0
        assert np.abs((V * lam) @ V.T - M).max() < 1e-10 * max(1.0, np.abs(M).max())

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_eigh(np.diag([1.0, -0.5]))

    def test_threshold_floors_at_eigh_roundoff(self):
        # at eig_tol 1e-16 the threshold is order * eps, so -2 eps is roundoff, not negative
        eps = np.finfo(float).eps
        M = np.diag([-2 * eps, 1.0, 4.0])
        lam, _, thr = psd_eigh(M, 1e-16)
        assert thr == 3 * eps * 4.0 and lam[0] == 0.0
        assert null_space(M, 1e-16).dim == 1 and null_space(M, 1e-16).tol_used == thr
        assert psd_eigh(M, 1e-9)[2] == 1e-9 * 4.0  # a tolerance above the floor is unchanged
        # the message names what set the threshold: the floor here, eig_tol above it
        with pytest.raises(NotPSDError, match=r"^matrix is not PSD at order \* eps = 6\.661e-16: "
                                              r"min eigenvalue -4\.441e-14 < -2\.665e-15$"):
            psd_eigh(np.diag([-200 * eps, 1.0, 4.0]), 1e-16)
        with pytest.raises(NotPSDError, match=r"^matrix is not PSD at eig_tol = 1e-09: "
                                              r"min eigenvalue -1\.000e-06 < -4\.000e-09$"):
            psd_eigh(np.diag([-1e-6, 1.0, 4.0]), 1e-9)
