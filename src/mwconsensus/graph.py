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

import functools
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteWeightError,
    NonSymmetricError,
    SelfLoopError,
    WeightOverflowError,
    ZeroWeightError,
)
from .matalg import EIG_TOL, Definiteness, _classify_checked, check_symmetric

EdgeKey = tuple[int, int]


class MatrixWeightedGraph:
    """Undirected graph whose edges carry symmetric sign-definite matrix weights.

    Construction validates every weight: the right shape, finite and
    symmetric within tolerance, and classified as PD/PSD/ND/NSD by one stacked
    call (indefinite and zero weights are rejected, as are self
    loops).  A weight whose eigenvalues, or a node whose Laplacian block,
    exceed the float range is rejected too, as is a block with an absolute
    row sum above half of it, so every Laplacian entry and eigenvalue is
    finite.  The graph holds the symmetric part of each weight, in its own
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
        keys = np.array(list(weights), dtype=np.intp).reshape(-1, 2)
        self._build(n, d, keys, list(weights.values()), label, eig_tol)

    @classmethod
    def from_edges(
        cls,
        n: int,
        d: int,
        keys: np.ndarray,
        weights,
        label: str = "",
        eig_tol: float = EIG_TOL,
    ) -> "MatrixWeightedGraph":
        """A graph on the edges ``keys[k]`` (0-based, either end first) weighted ``weights[k]``.

        ``keys`` is an ``(E, 2)`` integer array and ``weights`` an ``(E, d, d)``
        array, or ``E`` matrices; both are validated as by the constructor.
        """
        g = cls.__new__(cls)
        g._build(n, d, np.asarray(keys, dtype=np.intp).reshape(-1, 2), weights, label, eig_tol)
        return g

    def _build(self, n, d, given, weights, label, eig_tol) -> None:
        if n < 2:
            raise DimensionMismatchError(f"need at least 2 nodes, got n={n}")
        if d < 1:
            raise DimensionMismatchError(f"state dimension must be >= 1, got d={d}")
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
        # a fresh array: the caller's weights are neither aliased nor frozen
        W = _stacked(weights, unsorted, d)[order]
        try:
            # the symmetric part: a node's Laplacian block would add up its edges' asymmetries
            W = check_symmetric(W)
            classes = _classify_checked(W, eig_tol)
        except (NonSymmetricError, WeightOverflowError) as exc:
            raise type(exc)(exc.problem, *keys[exc.index].tolist()) from None
        self._hold(n, d, keys, W, classes, label, eig_tol)

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
            raise ZeroWeightError("weight is zero", *keys[k].tolist())
        signs = pos.astype(np.intp) - neg
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, with the node named
            blocks = _node_blocks(n, keys, signs, weights)
            row_sum = np.abs(blocks).sum(axis=2).max(axis=1)
        if (k := _first_false(np.isfinite(blocks).all(axis=(1, 2)))) is not None:
            raise WeightOverflowError(
                "Laplacian block overflows: its edge weights sum past the float range", node=k
            )
        # x^T (2D - L) x sums (x_i + s x_j)^T |A_ij| (x_i + s x_j) >= 0 over the edges,
        # so lam_max(L) <= 2 max_i ||D_i||_inf
        if (k := _first_false(row_sum <= np.finfo(float).max / 2)) is not None:
            raise WeightOverflowError(
                "Laplacian block too large: a row's absolute sum exceeds half the float range, "
                "so the Laplacian's eigenvalues could overflow", node=k
            )
        self.n = int(n)
        self.d = int(d)
        self.label = label
        self.eig_tol = float(eig_tol)
        self.keys, self.weights, self.classes, self.signs = keys, weights, classes, signs
        for a in (self.keys, self.weights, self.classes, self.signs):
            a.setflags(write=False)

    @functools.cached_property
    def _skeleton(self) -> tuple[list[int], list[int], set[int]]:
        """:func:`signed_components` of the definite edges, each tying its two ends; found once."""
        definite = _definite(self)
        return signed_components(self.n, self.keys[definite], self.signs[definite])

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"MatrixWeightedGraph(n={self.n}, d={self.d}, edges={len(self.keys)}{tag})"


def _first_false(ok: np.ndarray) -> int | None:
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def _stacked(weights, keys: np.ndarray, d: int) -> np.ndarray:
    """``weights`` as one ``(E, d, d)`` float array, naming the first edge of another shape."""
    try:
        W = np.asarray(weights, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry that is not a float
        W = None
    if W is None or W.shape != (len(keys), d, d):
        if len(weights) != len(keys):
            raise DimensionMismatchError(f"{len(weights)} weights for {len(keys)} edges")
        for (i, j), w in zip(keys.tolist(), weights):
            if np.shape(w) != (d, d):
                raise DimensionMismatchError(
                    f"edge ({i},{j}) weight has shape {np.shape(w)}, expected ({d},{d})"
                )
        W = np.asarray(weights, dtype=float).reshape(-1, d, d)
    return W


def _node_blocks(n: int, keys: np.ndarray, signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``(n, d, d)`` diagonal Laplacian blocks ``D_i``, each summing its edges in key order."""
    blocks = np.zeros((n, *weights.shape[1:]))
    ends = keys.ravel()  # i_0, j_0, i_1, j_1, ...
    np.add.at(blocks, ends, np.repeat(signs[:, None, None] * weights, 2, axis=0))
    return blocks


def laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """Dense ``(n*d, n*d)`` block Laplacian L = D - A, D_i = sum over neighbors of |A_ij|.

    Off-diagonal block (i, j) is ``-A_ij``; the diagonal aggregates absolute
    weights ``|A_ij| = sign(A_ij) A_ij`` from each edge's class, so L is
    symmetric PSD whatever the edge signs.  Each node's diagonal block sums
    its edges in key order.
    """
    n, d = g.n, g.d
    L = np.zeros((n, d, n, d))
    nodes = np.arange(n)
    L[nodes, :, nodes, :] = _node_blocks(n, g.keys, g.signs, g.weights)
    i, j = g.keys.T
    L[i, :, j, :] -= g.weights
    L[j, :, i, :] -= g.weights
    return L.reshape(n * d, n * d)


def has_positive_negative_spanning_tree(g: MatrixWeightedGraph) -> bool:
    """Does the subgraph of strictly definite (PD/ND) edges connect all nodes?

    Semidefinite-but-singular weights are excluded: only edges whose weight is
    positive or negative definite count.
    """
    return max(g._skeleton[0]) == 0


def _definite(g: MatrixWeightedGraph) -> np.ndarray:
    """Which edges of ``g`` are positive or negative definite."""
    return (g.classes == Definiteness.POSITIVE_DEFINITE) | (g.classes == Definiteness.NEGATIVE_DEFINITE)


def _edge_structure(g: MatrixWeightedGraph) -> tuple[bytes, bytes, bytes]:
    """A hashable key of ``g``'s edges and their classes, whatever the weights' sizes.

    A class is a sign and whether it is definite, so graphs with equal keys
    list the same edges with the same classes and share their structural
    balance and definite-edge spanning tree.
    """
    return g.keys.tobytes(), g.signs.tobytes(), _definite(g).tobytes()


@dataclass(frozen=True)
class Bipartition:
    """Signed 2-coloring of the node set: sigma_i in {+1, -1}."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if not self.sigma or any(s not in (-1, 1) for s in self.sigma):
            raise DimensionMismatchError("sigma entries must be +1 or -1")

    @property
    def positive_set(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sigma) if s == 1)

    @property
    def negative_set(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sigma) if s == -1)


def signed_components(
    n: int, keys: np.ndarray, signs: np.ndarray
) -> tuple[list[int], list[int], set[int]]:
    """Each node's component root and sign, and the roots of the unbalanced components.

    A breadth-first search from each component's smallest node, its root,
    signs the root +1, the ends of a +1 edge alike and those of a -1 edge
    unlike.  A component with a cycle of an odd number of -1 edges is
    unbalanced; a balanced one's signs are unique, whatever the visiting order.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), s in zip(keys.tolist(), signs.tolist()):
        adj[i].append((j, s))
        adj[j].append((i, s))
    root, sigma, odd = [-1] * n, [0] * n, set()
    for r in range(n):
        if root[r] >= 0:
            continue
        root[r], sigma[r] = r, 1
        queue = deque([r])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                want = sigma[u] * s
                if root[v] < 0:
                    root[v], sigma[v] = r, want
                    queue.append(v)
                elif sigma[v] != want:
                    odd.add(r)
    return root, sigma, odd
