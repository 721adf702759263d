"""Closest counterfactuals under the l2 metric (Theorem 2 / Corollary 2).

The target region ``{y : f(y) = 1 - f(x)}`` is a union of polynomially
many Proposition-1 polyhedra.  The closest counterfactual is the best
projection of ``x`` onto one of them (active-set QP per piece), but most
pieces cannot hold it: a single row ``w . y <= b`` already keeps every
point of its piece at distance ``(w . x - b) / ||w||`` from ``x``.  The
sweep is therefore a branch and bound over the pieces (Fukunaga &
Narendra, 1975).  Pieces are projected in ascending order of that lower
bound, and a projected candidate is examined as soon as its squared
distance is strictly below the next unprojected bound — no piece left
can then beat it, nor tie it from an earlier enumeration index.  The
result is exactly the candidate an exhaustive sweep would pick (first in
``(distance, enumeration index)`` order that verifies), usually after
one to three QPs instead of one per piece.

Open pieces (flipping into class 0, whose region is open because ties
favor class 1) need the two-step treatment from the paper: the piece is
non-empty iff its *strict* system is feasible (max-epsilon LP); the
infimum of distances is the projection onto the piece's *closure*; and
an actual counterfactual is obtained by sliding the projection slightly
toward a strict interior point (the segment stays in the open piece by
convexity), as in Corollary 2.

Closed pieces (flipping into class 1) contain their boundary
mathematically, but a projection landing *exactly on* the boundary can
fall on the wrong side in floating point.  Every candidate is therefore
verified against the classifier and nudged toward a strict interior
point when needed; candidates that cannot be certified are discarded in
favor of the next-closest piece.  Open pieces run their emptiness LP
just before their projection; closed pieces run the strict-interior LP
only when a candidate of theirs needs the nudge.  Every QP and LP the
sweep runs is one the exhaustive sweep runs on the same piece, so a
solver error it raises is one the exhaustive sweep raises too.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._budget import remaining_budget, start_deadline
from ..exceptions import InfeasibleError
from ..geometry.regions import RegionPieces
from ..knn import Dataset, QueryEngine
from ..knn.engine import as_engine
from ..solvers.lp import feasible_point_strict
from ..solvers.qp import FEASIBILITY_TOL, project_onto_polyhedron
from . import CounterfactualResult

_NUDGE_STEPS = 60


def closest_counterfactual_l2(
    dataset: Dataset,
    k: int,
    x: np.ndarray,
    *,
    query_engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> CounterfactualResult:
    """Closest l2 counterfactual via bound-ordered per-piece convex QP.

    ``time_limit`` caps the piece sweep in wall-clock seconds (checked
    before every QP and LP and while the piece bounds are computed, so
    it is best-effort).
    """
    knn = as_engine(dataset, "l2", query_engine)
    label = knn.classify(x, k)
    target = 1 - label
    deadline = start_deadline(time_limit)
    pieces = RegionPieces(dataset, k, target)
    xv = np.asarray(x, dtype=np.float64).ravel()
    # The QP's result may violate each unit-normal row by up to
    # FEASIBILITY_TOL (plus rounding on the scale of x), so the bound
    # backs off by that much to stay below the sq it returns.
    slack = FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(xv)))
    bounds = np.maximum(pieces.distance_lower_bounds(xv, deadline) - slack, 0.0) ** 2
    order = np.argsort(bounds, kind="stable")
    candidates: list[tuple] = []  # heap on (sq, index); indices are unique
    for rank in range(order.shape[0] + 1):
        next_bound = bounds[order[rank]] if rank < order.shape[0] else np.inf
        while candidates and candidates[0][0] < next_bound:
            sq, _, y, closure, interior = heapq.heappop(candidates)
            result = _certify(knn, k, target, y, closure, interior, deadline)
            if result is not None:
                return CounterfactualResult(
                    y=result,
                    distance=float(np.linalg.norm(result - x)),
                    infimum=float(np.sqrt(sq)),
                    label_from=label,
                    method="l2-qp",
                )
        if rank == order.shape[0]:
            break
        index = int(order[rank])
        piece = pieces[index]
        closure = piece.closure()
        # A strictly interior point doubles as the non-emptiness witness
        # for open pieces and as the nudge anchor for all pieces.
        interior = None
        if piece.has_strict:
            interior = _strict_interior(closure, deadline)
            if interior is None:
                continue  # the open piece is empty even if its closure is not
        remaining_budget(deadline, "l2 counterfactual piece sweep")
        try:
            y, sq = project_onto_polyhedron(x, closure.A, closure.b)
        except InfeasibleError:
            continue
        heapq.heappush(candidates, (float(sq), index, y, closure, interior))
    return CounterfactualResult(
        y=None, distance=np.inf, infimum=np.inf, label_from=label, method="l2-qp"
    )


def _certify(knn, k, target, y, closure, interior, deadline) -> np.ndarray | None:
    """The counterfactual certified from projection *y* onto *closure*, or None.

    Closed pieces compute their nudge anchor only here, when the
    classifier disputes the projection itself.
    """
    if knn.classify(y, k) == target:
        return y
    if interior is None:
        interior = _strict_interior(closure, deadline)
        if interior is None:
            return None  # boundary-only piece that float arithmetic rejects
    return _nudge_toward_interior(knn, k, target, y, interior)


def _strict_interior(closure, deadline) -> np.ndarray | None:
    """A point satisfying every constraint of *closure* strictly."""
    remaining_budget(deadline, "l2 counterfactual piece sweep")
    return feasible_point_strict(
        A_strict=closure.A, b_strict=closure.b, n=closure.dimension
    )


def _nudge_toward_interior(
    knn: QueryEngine, k: int, target: int, boundary: np.ndarray, interior: np.ndarray
) -> np.ndarray | None:
    """Slide from the boundary projection toward a strict interior point.

    Every point ``(1 - t) * boundary + t * interior`` with ``t > 0`` lies
    in the piece's relative interior (a segment from a closure point to
    a strict point is strict except possibly at its start), so the
    smallest ``t`` the classifier confirms gives a genuine counterfactual
    at distance as close to the infimum as float arithmetic allows.
    ``t = 1`` is the interior point itself, which always verifies.
    """
    t = 1e-9
    for _ in range(_NUDGE_STEPS):
        candidate = (1.0 - t) * boundary + t * interior
        if knn.classify(candidate, k) == target:
            return candidate
        if t >= 1.0:
            break
        t = min(1.0, t * 4.0)
    return None  # pragma: no cover - t=1 verifies whenever interior does
