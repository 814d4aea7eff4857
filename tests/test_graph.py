"""Tests for matrix-weighted graphs, Laplacians, balance, and gauge maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus.errors import (
    DimensionMismatchError,
    IndefiniteWeightError,
    NonSymmetricError,
    SelfLoopError,
    ZeroWeightError,
)
from mwconsensus.graph import (
    Bipartition,
    MatrixWeightedGraph,
    _edge_structure,
    has_positive_negative_spanning_tree,
    laplacian,
    signed_components,
)
from mwconsensus.matalg import Definiteness
from mwconsensus.switching import simultaneous_structural_balance

from oracles import (
    gauge_transform,
    is_connected,
    laplacian_oracle,
    matrix_abs,
    quadratic_form,
    signature_matrix,
    structural_balance,
    two_color_signs,
    weight_of,
)
from randgen import rand_graph, rand_pair_signs, rand_sign_definite


def edge_classes(g):
    return dict(zip(map(tuple, g.keys.tolist()), g.classes))


def toy_graph(n=3, d=2, sign=(1, 1, 1)):
    """Triangle with diagonal weights of the given signs."""
    weights = {
        (0, 1): sign[0] * np.diag([1.0, 2.0]),
        (0, 2): sign[1] * np.diag([2.0, 1.0]),
        (1, 2): sign[2] * np.diag([1.0, 1.0]),
    }
    return MatrixWeightedGraph(n, d, weights)


class TestConstruction:
    def test_validate_reports_classes(self, cluster_cfg):
        report = edge_classes(cluster_cfg.graphs["G1"])
        assert set(report) == {(0, 1), (0, 2), (1, 2)}
        assert all(cls is Definiteness.POSITIVE_DEFINITE for cls in report.values())
        report3 = edge_classes(cluster_cfg.graphs["G3"])
        assert all(cls is Definiteness.POSITIVE_SEMIDEFINITE for cls in report3.values())

    def test_variant_third_network_classes(self, bipartite_cfg):
        report = edge_classes(bipartite_cfg.graphs["G3"])
        assert report[(2, 3)] is Definiteness.NEGATIVE_DEFINITE
        assert report[(1, 4)] is Definiteness.NEGATIVE_SEMIDEFINITE
        assert report[(3, 4)] is Definiteness.POSITIVE_DEFINITE

    def test_rejects_indefinite_weight(self):
        with pytest.raises(IndefiniteWeightError) as exc:
            MatrixWeightedGraph(2, 2, {(0, 1): np.diag([1.0, -1.0])})
        assert exc.value.i == 0 and exc.value.j == 1

    def test_rejects_zero_weight(self):
        with pytest.raises(ZeroWeightError):
            MatrixWeightedGraph(2, 2, {(0, 1): np.zeros((2, 2))})

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            MatrixWeightedGraph(2, 1, {(1, 1): np.eye(1)})

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0])
    def test_non_finite_or_asymmetric_weight_names_its_edge(self, bad):
        W = np.eye(2)
        W[0, 1] = bad
        with pytest.raises(NonSymmetricError) as exc:
            MatrixWeightedGraph(4, 2, {(0, 1): np.eye(2), (3, 2): W, (1, 2): W})
        assert (exc.value.i, exc.value.j) == (1, 2)
        problem = "has a NaN or infinite entry" if bad != 1.0 else "is not symmetric"
        assert exc.value.describe(1).startswith(f"edge (2,3) weight {problem}")

    def test_rejects_bad_shape_and_range(self):
        with pytest.raises(DimensionMismatchError):
            MatrixWeightedGraph(2, 2, {(0, 1): np.eye(3)})
        with pytest.raises(DimensionMismatchError):
            MatrixWeightedGraph(2, 2, {(0, 5): np.eye(2)})
        with pytest.raises(DimensionMismatchError):
            MatrixWeightedGraph(1, 2, {})

    def test_rejects_duplicate_edge_under_reordering(self):
        with pytest.raises(DimensionMismatchError):
            MatrixWeightedGraph(2, 1, {(0, 1): np.eye(1), (1, 0): np.eye(1)})

    def test_key_normalization_and_lookup(self):
        g = MatrixWeightedGraph(
            3, 1, {(2, 1): 3 * np.eye(1), (1, 0): np.eye(1), (0, 2): 2 * np.eye(1)}
        )
        assert g.keys.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.weights[:, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(weight_of(g, 1, 0), weight_of(g, 0, 1))

    def test_caller_weight_stays_writeable(self):
        W = np.eye(2)
        g = MatrixWeightedGraph(2, 2, {(0, 1): W})
        assert W.flags.writeable
        W[:] = -np.eye(2)
        assert np.array_equal(g.weights[0], np.eye(2))

    def test_write_through_base_array_changes_nothing(self):
        B = np.stack([np.eye(2), 2 * np.eye(2)])
        g = MatrixWeightedGraph(3, 2, {(0, 1): B[0], (1, 2): B[1]})
        L = laplacian(g)
        B[0] = -np.eye(2)
        assert np.array_equal(g.weights[0], np.eye(2))
        assert g.classes[0] is Definiteness.POSITIVE_DEFINITE
        assert np.array_equal(laplacian(g), L)
        assert np.linalg.eigvalsh(laplacian(g)).min() > -1e-12

    @pytest.mark.filterwarnings("error")
    def test_holds_symmetric_part_of_each_weight(self):
        # three edges at node 0, each off by 0.9e-12: its Laplacian block would add them up
        W = np.array([[2.0, 1.0 + 0.9e-12], [1.0, 2.0]])
        g = MatrixWeightedGraph(4, 2, {(0, 1): W, (0, 2): W, (0, 3): W})
        assert np.array_equal(g.weights, g.weights.swapaxes(1, 2))
        assert g.weights[0, 0, 1] == 0.5 * W[0, 1] + 0.5 * W[1, 0]
        assert np.array_equal(g.weights[:, 0, 0], [2.0, 2.0, 2.0])
        L = laplacian(g)
        assert np.array_equal(L, L.T)
        # exactly symmetric weights are held bit for bit: signed zeros and subnormals
        # (near-max entries: test_matalg.py TestClassify::test_exact_entries_kept_bit_for_bit)
        exact = np.array([[1.0, -0.0, 0.0], [-0.0, 2.0, 5e-324], [0.0, 5e-324, 3.0]])
        g = MatrixWeightedGraph(3, 3, {(0, 1): exact, (1, 2): exact})
        assert g.weights.tobytes() == np.stack([exact, exact]).tobytes()

    def test_from_edges_matches_the_mapping_constructor(self):
        keys = np.array([[2, 1], [0, 2], [1, 0]])
        W = np.stack([3 * np.eye(2), -np.diag([1.0, 2.0]), np.diag([1.0, 0.0])])
        g = MatrixWeightedGraph.from_edges(3, 2, keys, W, label="g")
        h = MatrixWeightedGraph(3, 2, dict(zip(map(tuple, keys.tolist()), W)), label="g")
        for a, b in ((g.keys, h.keys), (g.weights, h.weights), (g.signs, h.signs)):
            assert a.tobytes() == b.tobytes()
        assert g.classes.tolist() == h.classes.tolist()
        assert g.weights.base is not W and W.flags.writeable

    @pytest.mark.parametrize("W, message", [
        ([np.eye(2), np.eye(3)], "edge (1,2) weight has shape (3, 3), expected (2,2)"),
        (np.stack([np.eye(3)] * 2), "edge (0,1) weight has shape (3, 3), expected (2,2)"),
        (np.stack([np.eye(2)] * 3), "3 weights for 2 edges"),
    ], ids=["ragged", "stacked", "count"])
    def test_from_edges_names_the_first_weight_of_another_shape(self, W, message):
        with pytest.raises(DimensionMismatchError) as exc:
            MatrixWeightedGraph.from_edges(3, 2, np.array([[0, 1], [2, 1]]), W)
        assert str(exc.value) == message

    def test_empty_graph_is_valid(self):
        g = MatrixWeightedGraph(3, 2, {})
        assert g.keys.shape == (0, 2) and g.weights.shape == (0, 2, 2)
        assert not is_connected(g)


class TestLaplacian:
    def test_block_structure(self, cluster_cfg):
        g = cluster_cfg.graphs["G1"]
        L = laplacian(g)
        assert L.shape == (21, 21)

        def block(i, j):
            return L[3 * i : 3 * (i + 1), 3 * j : 3 * (j + 1)]

        for (i, j), W in zip(g.keys.tolist(), g.weights):
            assert np.array_equal(block(i, j), -W)
        # diagonal of node 0 aggregates |A_01| + |A_02|
        expected = matrix_abs(weight_of(g, 0, 1)) + matrix_abs(weight_of(g, 0, 2))
        assert np.allclose(block(0, 0), expected)
        # non-adjacent pair gives a zero block
        assert np.array_equal(block(0, 3), np.zeros((3, 3)))

    def test_symmetric_psd(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            g = rand_graph(rng, n, d)
            L = laplacian(g)
            assert np.abs(L - L.T).max() < 1e-12
            lam = np.linalg.eigvalsh(L)
            assert lam.min() >= -1e-9 * max(1.0, lam.max())

    def test_matches_eigvalsh_classified_oracle(self, rng, cluster_cfg, bipartite_cfg):
        # reading the cached edge class must give bit-for-bit the Laplacian of
        # re-classifying every weight with eigvalsh
        graphs = [*cluster_cfg.graphs.values(), *bipartite_cfg.graphs.values()]
        for _ in range(25):
            graphs.append(rand_graph(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4))))
        for g in graphs:
            assert np.array_equal(laplacian(g), laplacian_oracle(g))

    def test_quadratic_form_matches_edge_sum(self, rng):
        # x^T L x must equal sum over edges of (x_i - sgn(A) x_j)^T |A| (x_i - sgn(A) x_j)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            g = rand_graph(rng, n, d)
            L = laplacian(g)
            x = rng.normal(size=n * d)
            blocks = x.reshape(n, d)
            expected = 0.0
            for (i, j), sign, W in zip(g.keys.tolist(), g.signs, g.weights):
                aW = matrix_abs(W)
                diff = blocks[i] - sign * blocks[j]
                expected += float(diff @ aW @ diff)
            assert quadratic_form(L, x) == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_quadratic_form_dimension_check(self):
        L = laplacian(toy_graph())
        with pytest.raises(DimensionMismatchError):
            quadratic_form(L, np.ones(5))


class TestConnectivity:
    def test_connected_and_not(self):
        path = MatrixWeightedGraph(3, 1, {(0, 1): np.eye(1), (1, 2): np.eye(1)})
        assert is_connected(path)
        split = MatrixWeightedGraph(4, 1, {(0, 1): np.eye(1), (2, 3): np.eye(1)})
        assert not is_connected(split)


class TestPNSpanningTree:
    def test_semidefinite_only_edge_fails(self):
        g = MatrixWeightedGraph(2, 2, {(0, 1): np.array([[1.0, 1.0], [1.0, 1.0]])})
        assert has_positive_negative_spanning_tree(g) is False

    def test_definite_edge_spans(self):
        g = MatrixWeightedGraph(2, 2, {(0, 1): np.diag([1.0, 2.0])})
        assert has_positive_negative_spanning_tree(g) is True

    def test_matches_connectivity_of_definite_edges(self, rng):
        definite = (Definiteness.POSITIVE_DEFINITE, Definiteness.NEGATIVE_DEFINITE)
        seen = set()
        for _ in range(20):
            n = int(rng.integers(3, 7))
            g = rand_graph(rng, n, 2, edge_prob=0.7)
            sub = {key: weight_of(g, *key) for key, c in edge_classes(g).items() if c in definite}
            expected = is_connected(MatrixWeightedGraph(n, 2, sub))
            assert has_positive_negative_spanning_tree(g) is expected
            seen.add(expected)
        assert seen == {True, False}

    def test_mixed_signs_count_equally(self):
        g = MatrixWeightedGraph(
            3, 1, {(0, 1): np.array([[2.0]]), (1, 2): np.array([[-3.0]])}
        )
        assert has_positive_negative_spanning_tree(g) is True


class TestEdgeStructure:
    def test_equal_for_the_same_edges_and_classes_whatever_the_weights(self):
        a = MatrixWeightedGraph(3, 2, {(0, 1): np.diag([1.0, 2.0]), (1, 2): -np.diag([1.0, 0.0])})
        b = MatrixWeightedGraph(3, 2, {(1, 2): -np.diag([5.0, 0.0]), (0, 1): 3 * np.eye(2)})
        assert _edge_structure(a) == _edge_structure(b)

    @pytest.mark.parametrize("change", ["class", "sign", "key"])
    def test_differs_when_an_edge_or_its_class_does(self, change):
        weights = {(0, 1): np.diag([1.0, 2.0]), (1, 2): np.diag([1.0, 0.0])}
        other = dict(weights)
        if change == "class":  # definite to semidefinite, same sign
            other[(0, 1)] = np.diag([1.0, 0.0])
        elif change == "sign":  # positive to negative semidefinite
            other[(1, 2)] = -weights[(1, 2)]
        else:
            other[(0, 2)] = other.pop((1, 2))
        a, b = (MatrixWeightedGraph(3, 2, w) for w in (weights, other))
        assert _edge_structure(a) != _edge_structure(b)


def balance(g):
    return simultaneous_structural_balance([g])


class TestBalance:
    def test_all_positive_graph_is_trivially_balanced(self):
        b = balance(toy_graph(sign=(1, 1, 1)))
        assert b is not None and b.sigma == (1, 1, 1)

    def test_unbalanced_triangle(self):
        assert balance(toy_graph(sign=(1, 1, -1))) is None

    def test_balanced_split(self):
        b = balance(toy_graph(sign=(1, -1, -1)))
        assert b is not None
        assert b.positive_set == (0, 1) and b.negative_set == (2,)

    def test_coloring_deterministic_per_component(self):
        root, sigma, odd = signed_components(4, np.array([[0, 1], [2, 3]]), np.array([-1, -1]))
        assert root == [0, 0, 2, 2]
        assert sigma == [1, -1, 1, -1] and odd == set()

    def test_unbalanced_cycle_still_gives_every_root(self):
        # an odd cycle 0-1-2 of -1 edges, and node 3 on its own, balanced
        keys = np.array([[0, 1], [1, 2], [0, 2]])
        root, _, odd = signed_components(4, keys, np.array([-1, -1, -1]))
        assert root == [0, 0, 0, 3] and odd == {0}

    def test_matches_two_color_oracle_on_random_signed_graphs(self, rng):
        seen = set()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
            keys = pairs[rng.uniform(size=len(pairs)) < rng.uniform(0.1, 0.7)]
            if rng.uniform() < 0.5:  # signs from a node signature: balanced
                sigma = rng.choice((-1, 1), size=n)
                signs = sigma[keys[:, 0]] * sigma[keys[:, 1]]
            else:
                signs = rng.choice((-1, 1), size=len(keys))
            root, sigma, odd = signed_components(n, keys, signs)
            want = two_color_signs(n, dict(zip(map(tuple, keys.tolist()), signs.tolist())))
            assert (None if odd else Bipartition(sigma=tuple(sigma))) == want
            # each node's root is the smallest node it reaches
            reach = np.eye(n, dtype=bool)
            reach[keys[:, 0], keys[:, 1]] = reach[keys[:, 1], keys[:, 0]] = True
            for _ in range(n):
                reach = (reach.astype(int) @ reach.astype(int)) > 0
            assert root == reach.argmax(axis=1).tolist()
            seen.add(bool(odd))
        assert seen == {True, False}

    def test_signature_matrix_is_involutory(self):
        b = Bipartition(sigma=(1, -1, 1))
        C = signature_matrix(b, 2)
        assert np.array_equal(C, C.T)
        assert np.allclose(C @ C, np.eye(6))

    def test_bad_sigma_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Bipartition(sigma=(1, 0, -1))


class TestGauge:
    def test_gauge_by_balance_makes_weights_nonnegative(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 6))
            d = int(rng.integers(1, 4))
            sigma = rng.choice((-1, 1), size=n)
            weights = {}
            for i in range(n - 1):
                s = int(sigma[i] * sigma[i + 1])
                weights[(i, i + 1)] = rand_sign_definite(rng, d, s)
            g = MatrixWeightedGraph(n, d, weights)
            b = structural_balance(g)
            assert b is not None
            gauged = gauge_transform(g, b)
            assert (gauged.signs == 1).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_laplacian_conjugation_identity(self, seed):
        # L(gauged) = C L C for any bipartition, balanced or not
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        g = rand_graph(rng, n, d)
        sigma = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        b = Bipartition(sigma=sigma)
        C = signature_matrix(b, d)
        L_g = laplacian(gauge_transform(g, b))
        L_c = C @ laplacian(g) @ C
        assert np.abs(L_g - L_c).max() < 1e-9 * max(1.0, np.abs(L_c).max())

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            gauge_transform(toy_graph(), Bipartition(sigma=(1, -1)))


def test_pair_signs_cover_all_pairs(rng):
    signs = rand_pair_signs(rng, 5)
    assert len(signs) == 10
