"""Decision regions of an l2 k-NN classifier as unions of polyhedra.

By Proposition 1, ``{ x : f(x) = 1 }`` is the union, over witness pairs
``(A, B)`` with ``A ⊆ S+`` of size ``(k+1)/2`` and ``B ⊆ S-`` of size at
most ``(k-1)/2``, of the polyhedra

    P(A, B) = { x : d2(x, a) <= d2(x, c)  for all a in A, c in S- \\ B }

and ``{ x : f(x) = 0 }`` is the analogous union with the classes swapped
and *strict* inequalities.  Each distance comparison is a halfspace
(:func:`~repro.geometry.halfspace.bisector_halfspace`), so the union has
at most ``|S|^(2k)`` members — polynomially many for fixed k.  This is
the enumeration driving Proposition 3 and Theorem 2.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .._budget import remaining_budget
from .._validation import check_odd_k
from ..knn.dataset import Dataset
from .polyhedron import Polyhedron


#: Bisector rows shorter than this (a point held, or nearly, by both
#: classes) are left out of the distance lower bounds.  The projection
#: QP drops the exactly degenerate rows itself, and leaving out more
#: rows only weakens a bound.
_DEGENERATE_ROW_NORM = 1e-6

#: Float entries a block of the bound computation may hold, which sets
#: how many winning points it covers between two budget checks.
_BOUND_BLOCK_ENTRIES = 1 << 16


class RegionPieces:
    """The Proposition-1 pieces covering ``{x : f^k(x) = label}``, by index.

    Piece ``i`` is the ``i``-th polyhedron of the enumeration order of
    :func:`decision_region_polyhedra`: witness sets ``A`` of the winning
    class in lexicographic order, and for each of them the excluded sets
    ``B`` of the losing class by size, then lexicographically.  A piece
    has one bisector row per (``a`` in ``A``, ``c`` outside ``B``) pair:
    the normal ``c - a`` is the subtraction
    :func:`~repro.geometry.halfspace.bisector_halfspace` performs, and
    the offset ``1/2 (c - a)^T (c + a)`` is the same float64 dot product,
    taken for all of a witness set's pairs at once, so a piece is
    bit-identical to its halfspace-by-halfspace construction.  Multiplicities are
    expanded first.

    Nothing is built up front: iteration generates the pieces lazily,
    indexing builds one piece, and :meth:`distance_lower_bounds` streams
    over the winning points.
    """

    def __init__(self, dataset: Dataset, k: int, label: int):
        check_odd_k(k)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        expanded = dataset.expanded()
        if label == 1:
            self._winning, self._losing = expanded.positives, expanded.negatives
        else:
            self._winning, self._losing = expanded.negatives, expanded.positives
        # Class-1 pieces are closed; class-0 pieces are open (strict),
        # reflecting the optimistic tie-breaking.
        self._strict = label == 0
        self.dimension = dataset.dimension
        self._need = (k + 1) // 2
        self._max_excluded = min((k - 1) // 2, self._losing.shape[0])

    def __len__(self) -> int:
        return comb(self._winning.shape[0], self._need) * self._n_excluded_sets()

    def __iter__(self) -> Iterator[Polyhedron]:
        for A_idx in combinations(range(self._winning.shape[0]), self._need):
            bisectors = _bisectors(self._winning[list(A_idx)], self._losing)
            for B_idx in self._excluded_sets():
                yield self._piece(bisectors, B_idx)

    def __getitem__(self, index: int) -> Polyhedron:
        if not 0 <= index < len(self):
            raise IndexError(f"piece {index} out of range for {len(self)} pieces")
        winners, rank = divmod(index, self._n_excluded_sets())
        A_idx = _unrank_combination(winners, self._winning.shape[0], self._need)
        n_lose = self._losing.shape[0]
        for size in range(self._max_excluded + 1):
            if rank < comb(n_lose, size):
                B_idx = _unrank_combination(rank, n_lose, size)
                break
            rank -= comb(n_lose, size)
        return self._piece(_bisectors(self._winning[list(A_idx)], self._losing), B_idx)

    def distance_lower_bounds(self, x: np.ndarray, deadline: float | None = None) -> np.ndarray:
        """Per piece, in index order, the largest signed distance from *x* to a hyperplane.

        No point of a piece is closer to *x* than this (clamped at 0):
        each row ``w . y <= b`` alone already keeps ``y`` at distance
        ``(w . x - b) / ||w||`` from *x*.  Degenerate rows are skipped
        (see ``_DEGENERATE_ROW_NORM``); a piece without rows bounds at
        -inf.  The work streams over blocks of winning points, holding
        about ``_BOUND_BLOCK_ENTRIES`` floats at a time, and checks
        *deadline* (with :func:`~repro._budget.remaining_budget`) before
        each block, so a budget or a race cancellation interrupts it;
        the result holds one float per piece.
        """
        what = "decision-region piece bounds"
        x = np.asarray(x, dtype=np.float64).ravel()
        n_win, n_lose = self._winning.shape[0], self._losing.shape[0]
        # Excluded sets as rows of losing indices, padded with -1.
        excluded = np.full((self._n_excluded_sets(), self._max_excluded), -1, dtype=np.intp)
        for row, B_idx in enumerate(self._excluded_sets()):
            excluded[row, : len(B_idx)] = B_idx
        # per_rest[i, r]: the bound of winning point i's rows outside
        # excluded set r, computed a block of winning points at a time.
        per_rest = np.empty((n_win, excluded.shape[0]))
        entries = max(n_lose * self.dimension, excluded.size * (self._max_excluded + 1), 1)
        step = max(1, _BOUND_BLOCK_ENTRIES // entries)
        for lo in range(0, n_win, step):
            remaining_budget(deadline, what)
            normals, offsets = _bisectors(self._winning[lo : lo + step], self._losing)
            norms = np.linalg.norm(normals, axis=2)
            live = norms >= _DEGENERATE_ROW_NORM
            margins = np.full(norms.shape, -np.inf)
            margins[live] = ((normals @ x - offsets) / np.where(live, norms, 1.0))[live]
            per_rest[lo : lo + step] = _max_outside(margins, excluded)
        # A piece bounds at the largest bound of its witnesses; witness
        # sets sharing all but their last member form one block.
        blocks = [np.empty(0)]
        for prefix in combinations(range(n_win), self._need - 1):
            remaining_budget(deadline, what)
            floor = per_rest[list(prefix)].max(axis=0, initial=-np.inf)
            last = prefix[-1] + 1 if prefix else 0
            blocks.append(np.maximum(per_rest[last:], floor).ravel())
        return np.concatenate(blocks)

    def _n_excluded_sets(self) -> int:
        n_lose = self._losing.shape[0]
        return sum(comb(n_lose, size) for size in range(self._max_excluded + 1))

    def _excluded_sets(self) -> Iterator[tuple[int, ...]]:
        for size in range(self._max_excluded + 1):
            yield from combinations(range(self._losing.shape[0]), size)

    def _piece(self, bisectors: tuple[np.ndarray, np.ndarray], B_idx) -> Polyhedron:
        normals, offsets = bisectors
        keep = np.ones(self._losing.shape[0], dtype=bool)
        keep[list(B_idx)] = False
        rows = normals[:, keep].reshape(-1, self.dimension)
        b = offsets[:, keep].ravel()
        if self._strict:
            return Polyhedron.from_systems(A_strict=rows, b_strict=b, dimension=self.dimension)
        return Polyhedron.from_systems(rows, b, dimension=self.dimension)


def _bisectors(winners: np.ndarray, losing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normals ``c - a`` and offsets ``1/2 (c - a)^T (c + a)`` for every (winner, loser) pair.

    Both come out indexed ``[winner, loser]``, by the arithmetic of
    :func:`~repro.geometry.halfspace.bisector_halfspace`.
    """
    normals = losing[None, :, :] - winners[:, None, :]
    sums = losing[None, :, :] + winners[:, None, :]
    # A stack of 1 x n by n x 1 products is one np.dot per pair.
    return normals, 0.5 * np.matmul(normals[..., None, :], sums[..., :, None])[..., 0, 0]


def _max_outside(values: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """``out[i, r]``: the max of ``values[i]`` outside the index set ``excluded[r]``.

    The sets are rows of indices padded with -1.  A set of ``m`` indices
    leaves at least one of the ``m + 1`` largest values of a row, so only
    those are compared; -inf when nothing is left.
    """
    rows, n = values.shape
    top = np.argpartition(-values, np.arange(min(excluded.shape[1] + 1, n)), axis=1)
    top = top[:, : excluded.shape[1] + 1]
    inside = (excluded[None, :, :, None] == top[:, None, None, :]).any(axis=2)
    sentinel = np.ones(inside.shape[:2] + (1,), dtype=bool)
    first = np.concatenate([~inside, sentinel], axis=2).argmax(axis=2)
    candidates = np.hstack([np.take_along_axis(values, top, axis=1), np.full((rows, 1), -np.inf)])
    return np.take_along_axis(candidates, first, axis=1)


def _unrank_combination(rank: int, n: int, size: int) -> tuple[int, ...]:
    """The *rank*-th ``size``-subset of ``range(n)`` in ``itertools.combinations`` order."""
    chosen, start = [], 0
    for slot in range(size):
        for value in range(start, n):
            below = comb(n - value - 1, size - slot - 1)
            if rank < below:
                chosen.append(value)
                start = value + 1
                break
            rank -= below
    return tuple(chosen)


def decision_region_polyhedra(
    dataset: Dataset, k: int, label: int
) -> Iterator[Polyhedron]:
    """Yield the Proposition-1 polyhedra covering ``{x : f^k(x) = label}``.

    For ``label == 1`` the pieces are closed; for ``label == 0`` they are
    open (strict constraints), reflecting the optimistic tie-breaking.
    Multiplicities are expanded first.  See :class:`RegionPieces` for
    indexed access.
    """
    yield from RegionPieces(dataset, k, label)


def count_region_polyhedra(dataset: Dataset, k: int, label: int) -> int:
    """Number of pieces :func:`decision_region_polyhedra` will yield."""
    return len(RegionPieces(dataset, k, label))
