"""Matrix-weighted graphs, block Laplacians and structural balance.

A graph on ``n`` nodes (ids 0..n-1 internally) assigns each undirected edge a
symmetric sign-definite ``d x d`` weight matrix.  The edges are held as
aligned read-only arrays in sorted key order: ``keys`` ``(E, 2)`` with
``i < j``, ``weights`` ``(E, d, d)``, ``classes`` (one :class:`Definiteness`
per edge) and ``signs`` ``(E,)``.  The sign pattern of the weights drives
structural-balance analysis; the weight magnitudes drive the block Laplacian
``L = D - A`` with ``D_i = sum_j |A_ij|``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteWeightError,
    NonSymmetricError,
    SelfLoopError,
    ZeroWeightError,
)
from .matalg import EIG_TOL, Definiteness, _classify_checked, check_symmetric

EdgeKey = tuple[int, int]


class MatrixWeightedGraph:
    """Undirected graph whose edges carry symmetric sign-definite matrix weights.

    Construction validates every weight: the right shape, finite and
    symmetric within tolerance, and classified as PD/PSD/ND/NSD by one stacked
    call (indefinite and numerically-zero weights are rejected, as are self
    loops).  The graph holds the symmetric part of each weight, in its own
    frozen arrays, so a graph does not change after construction and its
    Laplacian is exactly symmetric.
    """

    def __init__(
        self,
        n: int,
        d: int,
        weights: Mapping[EdgeKey, "np.ndarray"],
        label: str = "",
        eig_tol: float = EIG_TOL,
    ):
        if n < 2:
            raise DimensionMismatchError(f"need at least 2 nodes, got n={n}")
        if d < 1:
            raise DimensionMismatchError(f"state dimension must be >= 1, got d={d}")
        given = np.array(list(weights), dtype=np.intp).reshape(-1, 2)
        if (k := _first_false(given[:, 0] != given[:, 1])) is not None:
            raise SelfLoopError("is a self loop", *given[k].tolist())
        if (k := _first_false(((given >= 0) & (given < n)).all(axis=1))) is not None:
            a, b = given[k].tolist()
            raise DimensionMismatchError(f"edge ({a},{b}) outside node range 0..{n - 1}")
        unsorted = np.sort(given, axis=1)
        order = np.lexsort(unsorted.T[::-1])
        keys = unsorted[order]
        if (k := _first_false((keys[1:] != keys[:-1]).any(axis=1))) is not None:
            raise DimensionMismatchError("duplicate edge ({},{})".format(*keys[k].tolist()))
        for (i, j), W in zip(unsorted.tolist(), weights.values()):
            if np.shape(W) != (d, d):
                raise DimensionMismatchError(
                    f"edge ({i},{j}) weight has shape {np.shape(W)}, expected ({d},{d})"
                )
        # a fresh array: the caller's weights are neither aliased nor frozen
        W = np.asarray(list(weights.values()), dtype=float).reshape(-1, d, d)[order]
        try:
            # the symmetric part: a node's Laplacian block would add up its edges' asymmetries
            W = check_symmetric(W)
        except NonSymmetricError as exc:
            raise NonSymmetricError(exc.problem, *keys[exc.index].tolist()) from None
        self._hold(n, d, keys, W, _classify_checked(W, eig_tol), label, eig_tol)

    @classmethod
    def _from_arrays(cls, n, d, keys, weights, classes, label, eig_tol) -> "MatrixWeightedGraph":
        """A graph on sorted unique ``keys`` whose ``weights`` are already classified."""
        g = cls.__new__(cls)
        g._hold(n, d, keys, weights, classes, label, eig_tol)
        return g

    def _hold(self, n, d, keys, weights, classes, label, eig_tol) -> None:
        D = Definiteness
        pos = (classes == D.POSITIVE_DEFINITE) | (classes == D.POSITIVE_SEMIDEFINITE)
        neg = (classes == D.NEGATIVE_DEFINITE) | (classes == D.NEGATIVE_SEMIDEFINITE)
        if (k := _first_false(pos | neg)) is not None:
            if classes[k] is D.INDEFINITE:
                raise IndefiniteWeightError("weight is indefinite", *keys[k].tolist())
            raise ZeroWeightError("weight is numerically zero", *keys[k].tolist())
        self.n = int(n)
        self.d = int(d)
        self.label = label
        self.eig_tol = float(eig_tol)
        self.keys, self.weights, self.classes = keys, weights, classes
        self.signs = pos.astype(np.intp) - neg
        for a in (self.keys, self.weights, self.classes, self.signs):
            a.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixWeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"MatrixWeightedGraph(n={self.n}, d={self.d}, edges={len(self.keys)}{tag})"


def _first_false(ok: np.ndarray) -> int | None:
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """Dense ``(n*d, n*d)`` block Laplacian L = D - A, D_i = sum over neighbors of |A_ij|.

    Off-diagonal block (i, j) is ``-A_ij``; the diagonal aggregates absolute
    weights ``|A_ij| = sign(A_ij) A_ij`` from each edge's class, so L is
    symmetric PSD whatever the edge signs.  Each node's diagonal block sums
    its edges in key order.
    """
    n, d = g.n, g.d
    L = np.zeros((n, d, n, d))
    i, j = g.keys.T
    ends = g.keys.ravel()  # i_0, j_0, i_1, j_1, ...
    absW = g.signs[:, None, None] * g.weights
    np.add.at(L, (ends, slice(None), ends, slice(None)), np.repeat(absW, 2, axis=0))
    L[i, :, j, :] -= g.weights
    L[j, :, i, :] -= g.weights
    return L.reshape(n * d, n * d)


def _adjacency_sets(n: int, keys: Iterable[EdgeKey]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in keys:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def has_positive_negative_spanning_tree(
    g: MatrixWeightedGraph,
) -> tuple[bool, list[EdgeKey] | None]:
    """Does the subgraph of strictly definite (PD/ND) edges span all nodes?

    Semidefinite-but-singular weights are excluded: only edges whose weight is
    positive or negative definite count.  Returns ``(found, witness_edges)``
    where the witness is a BFS tree (n-1 edges) when one exists.
    """
    definite = (g.classes == Definiteness.POSITIVE_DEFINITE) | (
        g.classes == Definiteness.NEGATIVE_DEFINITE
    )
    adj = _adjacency_sets(g.n, g.keys[definite].tolist())
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
    """Signed 2-coloring of the node set: sigma_i in {+1, -1}."""

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
