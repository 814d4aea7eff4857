"""Matrix-weighted graphs, block Laplacians, balance and gauge operations.

A graph on ``n`` nodes (ids 0..n-1 internally) assigns each undirected edge a
symmetric sign-definite ``d x d`` weight matrix.  The sign pattern of the
weights drives structural-balance analysis; the weight magnitudes drive the
block Laplacian ``L = D - A`` with ``D_i = sum_j |A_ij|``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteWeightError,
    SelfLoopError,
    ZeroWeightError,
)
from .matalg import Definiteness, check_symmetric, classify_definiteness

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class EdgeWeight:
    """One undirected edge ``{i, j}`` (i < j) with its weight and cached class."""

    i: int
    j: int
    weight: np.ndarray = field(repr=False)
    definiteness: Definiteness

    @property
    def key(self) -> EdgeKey:
        return (self.i, self.j)

    @property
    def sign(self) -> int:
        return self.definiteness.sign


class MatrixWeightedGraph:
    """Undirected graph whose edges carry symmetric sign-definite matrix weights.

    Construction validates every weight: symmetric within tolerance, the right
    shape, classified as PD/PSD/ND/NSD (indefinite and numerically-zero
    weights are rejected, as are self loops).  Instances are treated as
    immutable after construction.
    """

    def __init__(
        self,
        n: int,
        d: int,
        weights: Mapping[EdgeKey, "np.ndarray"],
        label: str = "",
        eig_tol: float = 1e-9,
    ):
        if n < 2:
            raise DimensionMismatchError(f"need at least 2 nodes, got n={n}")
        if d < 1:
            raise DimensionMismatchError(f"state dimension must be >= 1, got d={d}")
        self.n = int(n)
        self.d = int(d)
        self.label = label
        self.eig_tol = float(eig_tol)
        edges: dict[EdgeKey, EdgeWeight] = {}
        for (a, b), W in weights.items():
            if a == b:
                raise SelfLoopError("is a self loop", a, b)
            i, j = (a, b) if a < b else (b, a)
            if not (0 <= i and j < n):
                raise DimensionMismatchError(f"edge ({a},{b}) outside node range 0..{n - 1}")
            if (i, j) in edges:
                raise DimensionMismatchError(f"duplicate edge ({i},{j})")
            M = check_symmetric(W)
            if M.shape != (d, d):
                raise DimensionMismatchError(
                    f"edge ({i},{j}) weight has shape {M.shape}, expected ({d},{d})"
                )
            cls = classify_definiteness(M, eig_tol)
            if cls is Definiteness.INDEFINITE:
                raise IndefiniteWeightError("weight is indefinite", i, j)
            if cls is Definiteness.ZERO:
                raise ZeroWeightError("weight is numerically zero", i, j)
            M.setflags(write=False)
            edges[(i, j)] = EdgeWeight(i, j, M, cls)
        self._edges = dict(sorted(edges.items()))

    @property
    def edges(self) -> tuple[EdgeWeight, ...]:
        return tuple(self._edges.values())

    @property
    def edge_keys(self) -> tuple[EdgeKey, ...]:
        return tuple(self._edges.keys())

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edges

    def edge(self, i: int, j: int) -> EdgeWeight:
        return self._edges[(min(i, j), max(i, j))]

    def weight(self, i: int, j: int) -> np.ndarray:
        """A_ij, the weight on edge {i, j} (symmetric, so order-free)."""
        return self.edge(i, j).weight

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = [j for (a, b) in self._edges for j in ((b,) if a == i else (a,) if b == i else ())]
        return tuple(sorted(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixWeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and self.edge_keys == other.edge_keys
            and all(np.array_equal(e.weight, other._edges[k].weight) for k, e in self._edges.items())
        )

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"MatrixWeightedGraph(n={self.n}, d={self.d}, edges={len(self._edges)}{tag})"


@dataclass(frozen=True)
class BlockLaplacian:
    """Symmetric PSD block Laplacian of a matrix-weighted graph.

    ``matrix`` is the dense ``(n*d, n*d)`` array; ``block(i, j)`` views the
    ``d x d`` block for the node pair ``(i, j)``.
    """

    n: int
    d: int
    matrix: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return self.n * self.d

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.matrix[i * d : (i + 1) * d, j * d : (j + 1) * d]

    def spectral_norm(self) -> float:
        lam = np.linalg.eigvalsh(self.matrix)
        return float(max(abs(lam[0]), abs(lam[-1])))


def laplacian(g: MatrixWeightedGraph) -> BlockLaplacian:
    """Block Laplacian L = D - A with D_i = sum over neighbors of |A_ij|.

    Off-diagonal block (i, j) is ``-A_ij``; the diagonal aggregates absolute
    weights ``|A_ij| = sign(A_ij) A_ij`` from each edge's cached class, so L is
    symmetric PSD whatever the edge signs.
    """
    n, d = g.n, g.d
    L = np.zeros((n * d, n * d))
    for e in g.edges:
        i, j, W = e.i, e.j, e.weight
        aW = e.sign * W
        L[i * d : (i + 1) * d, i * d : (i + 1) * d] += aW
        L[j * d : (j + 1) * d, j * d : (j + 1) * d] += aW
        L[i * d : (i + 1) * d, j * d : (j + 1) * d] -= W
        L[j * d : (j + 1) * d, i * d : (i + 1) * d] -= W
    return BlockLaplacian(n=n, d=d, matrix=L)


def quadratic_form(L: BlockLaplacian, x: np.ndarray) -> float:
    """x^T L x; nonnegative for every stacked state x."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != L.order:
        raise DimensionMismatchError(f"state length {x.size} != n*d = {L.order}")
    return float(x @ L.matrix @ x)


def _adjacency_sets(n: int, keys: Iterable[EdgeKey]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in keys:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def is_connected(g: MatrixWeightedGraph) -> bool:
    """Connectivity of the underlying (unsigned) skeleton."""
    adj = _adjacency_sets(g.n, g.edge_keys)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def has_positive_negative_spanning_tree(
    g: MatrixWeightedGraph,
) -> tuple[bool, list[EdgeKey] | None]:
    """Does the subgraph of strictly definite (PD/ND) edges span all nodes?

    Semidefinite-but-singular weights are excluded: only edges whose weight is
    positive or negative definite count.  Returns ``(found, witness_edges)``
    where the witness is a BFS tree (n-1 edges) when one exists.
    """
    definite = [e.key for e in g.edges if e.definiteness.is_definite]
    adj = _adjacency_sets(g.n, definite)
    parent: dict[int, int] = {0: -1}
    queue = deque([0])
    tree: list[EdgeKey] = []
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                tree.append((min(u, v), max(u, v)))
                queue.append(v)
    if len(parent) == g.n:
        return True, sorted(tree)
    return False, None


@dataclass(frozen=True)
class Bipartition:
    """Signed 2-coloring of the node set: sigma_i in {+1, -1}.

    ``signature_matrix(d)`` returns the block-diagonal gauge matrix
    ``C = diag(sigma_1 I_d, ..., sigma_n I_d)`` with ``C = C^T = C^{-1}``.
    """

    sigma: tuple[int, ...]

    def __post_init__(self):
        if not self.sigma or any(s not in (-1, 1) for s in self.sigma):
            raise DimensionMismatchError("sigma entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def positive_set(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sigma) if s == 1)

    @property
    def negative_set(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sigma) if s == -1)

    def signature_matrix(self, d: int) -> np.ndarray:
        return np.kron(np.diag(np.asarray(self.sigma, dtype=float)), np.eye(d))


def two_color_signs(n: int, signs: Mapping[EdgeKey, int]) -> Bipartition | None:
    """2-color nodes so every +1 edge joins like colors and every -1 edge unlike.

    BFS per component, roots colored +1 in increasing node order, so the
    result is deterministic.  Returns None when some cycle makes the coloring
    impossible (an odd number of negative edges on it).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), s in signs.items():
        adj[i].append((j, s))
        adj[j].append((i, s))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in sorted(adj[u]):
                want = sigma[u] * s
                if sigma[v] == 0:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    return None
    return Bipartition(sigma=tuple(sigma))


def structural_balance(g: MatrixWeightedGraph) -> Bipartition | None:
    """Bipartition making positive edges intra-cluster and negative ones inter-cluster.

    Returns None when the signed skeleton is unbalanced.
    """
    return two_color_signs(g.n, {e.key: e.sign for e in g.edges})


def gauge_transform(g: MatrixWeightedGraph, b: Bipartition) -> MatrixWeightedGraph:
    """Flip weight signs by the gauge: A_ij -> sigma_i sigma_j A_ij.

    For a balanced graph with its own balance bipartition this makes every
    weight positive semidefinite.  The Laplacian transforms by conjugation:
    L(gauged) = C L(g) C with C the signature matrix.
    """
    if b.n != g.n:
        raise DimensionMismatchError(f"bipartition covers {b.n} nodes, graph has {g.n}")
    weights = {
        e.key: float(b.sigma[e.i] * b.sigma[e.j]) * e.weight for e in g.edges
    }
    label = f"{g.label}~gauged" if g.label else "gauged"
    return MatrixWeightedGraph(g.n, g.d, weights, label=label, eig_tol=g.eig_tol)
