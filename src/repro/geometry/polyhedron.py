"""H-polyhedra with mixed strict/non-strict constraints.

The decision regions of an l2 k-NN classifier decompose into polyhedra
(label 1) and *open* polyhedra, i.e. solution sets of strict systems
(label 0); see Proposition 1 and the discussion opening Section 5.
:class:`Polyhedron` represents both at once:

    { x : A x <= b,  A_strict x < b_strict }

Feasibility checks use the max-epsilon LP reduction from the proof of
Proposition 3 (implemented in :mod:`repro.solvers.lp`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..solvers.lp import feasible_point_strict
from .halfspace import Halfspace


class Polyhedron:
    """An intersection of (possibly strict) halfspaces in R^n."""

    def __init__(self, dimension: int, halfspaces: Iterable[Halfspace] = ()):
        self.dimension = int(dimension)
        weak_w, weak_b, strict_w, strict_b = [], [], [], []
        for h in halfspaces:
            if h.w.shape != (self.dimension,):
                raise ValueError(
                    f"halfspace dimension {h.w.shape} does not match R^{self.dimension}"
                )
            if h.strict:
                strict_w.append(h.w)
                strict_b.append(h.b)
            else:
                weak_w.append(h.w)
                weak_b.append(h.b)
        self.A = np.array(weak_w).reshape(-1, self.dimension)
        self.b = np.array(weak_b, dtype=float)
        self.A_strict = np.array(strict_w).reshape(-1, self.dimension)
        self.b_strict = np.array(strict_b, dtype=float)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_systems(cls, A=None, b=None, A_strict=None, b_strict=None, *, dimension=None):
        """Build from the systems ``A x <= b`` and ``A_strict x < b_strict``.

        The rows are copied into C-ordered float64 arrays, exactly the
        arrays the halfspace constructor would assemble from the same
        rows in the same order, without per-row :class:`Halfspace`
        objects.  The dimension is read from the rows; *dimension* is
        needed when both systems are empty.
        """
        for rows in (A, A_strict):
            if rows is not None and len(rows):
                dimension = np.shape(rows)[1]
        if dimension is None:
            raise ValueError("dimension required for an unconstrained polyhedron")
        poly = cls.__new__(cls)
        poly.dimension = int(dimension)
        poly.A, poly.b = _system(A, b, poly.dimension)
        poly.A_strict, poly.b_strict = _system(A_strict, b_strict, poly.dimension)
        return poly

    # -- structure -------------------------------------------------------

    @property
    def n_constraints(self) -> int:
        """Total number of weak plus strict constraints."""
        return self.A.shape[0] + self.A_strict.shape[0]

    @property
    def has_strict(self) -> bool:
        """Whether any constraint is strict."""
        return self.A_strict.shape[0] > 0

    def closure(self) -> "Polyhedron":
        """The closed polyhedron obtained by weakening strict constraints."""
        return Polyhedron.from_systems(
            np.vstack([self.A, self.A_strict]),
            np.concatenate([self.b, self.b_strict]),
            dimension=self.dimension,
        )

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """The polyhedron satisfying both constraint systems."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return Polyhedron(
            self.dimension,
            list(self.iter_halfspaces()) + list(other.iter_halfspaces()),
        )

    def iter_halfspaces(self):
        """Yield every constraint as a :class:`Halfspace`."""
        for w, b in zip(self.A, self.b):
            yield Halfspace(w, b)
        for w, b in zip(self.A_strict, self.b_strict):
            yield Halfspace(w, b, strict=True)

    # -- predicates --------------------------------------------------------

    def contains(self, x, *, tol: float = 1e-9) -> bool:
        """Whether *x* satisfies every constraint up to *tol*."""
        xv = np.asarray(x, dtype=float)
        if self.A.shape[0] and np.any(self.A @ xv > self.b + tol):
            return False
        if self.A_strict.shape[0] and np.any(self.A_strict @ xv >= self.b_strict - tol):
            return False
        return True

    def find_point(self, A_eq=None, b_eq=None) -> np.ndarray | None:
        """A point of the polyhedron (optionally restricted to ``A_eq x = b_eq``).

        Strict constraints are honored: the returned point satisfies them
        strictly, via the max-epsilon LP.  Returns None when empty.
        """
        return feasible_point_strict(
            self.A,
            self.b,
            self.A_strict,
            self.b_strict,
            A_eq,
            b_eq,
            n=self.dimension,
        )

    def is_empty(self, A_eq=None, b_eq=None) -> bool:
        """LP emptiness test (optionally restricted to ``A_eq x = b_eq``)."""
        return self.find_point(A_eq, b_eq) is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Polyhedron(R^{self.dimension}, {self.A.shape[0]} weak + "
            f"{self.A_strict.shape[0]} strict constraints)"
        )


def _system(A, b, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` as owned C-ordered float64 arrays; empty when *A* has no rows."""
    if A is None or len(A) == 0:
        return np.empty((0, dimension)), np.empty(0)
    A = np.array(A, dtype=np.float64, order="C", ndmin=2)
    b = np.array(b, dtype=np.float64, ndmin=1).ravel()
    if A.ndim != 2 or A.shape[1] != dimension:
        raise ValueError(f"constraint rows of shape {A.shape} do not match R^{dimension}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"{A.shape[0]} constraint rows but {b.shape[0]} right-hand sides")
    return A, b
