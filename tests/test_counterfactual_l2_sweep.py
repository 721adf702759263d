"""Differential oracle for the bound-ordered l2 counterfactual sweep.

``closest_counterfactual_l2`` projects ``x`` only onto the Proposition-1
pieces whose halfspace lower bound can still beat the best candidate.
The reference below is the exhaustive sweep it replaced, kept verbatim
here as the oracle: build every piece halfspace by halfspace, run the
strict-interior LP and the projection QP on each, sort the candidates by
squared distance (stable, so ties go to the earlier piece), and take the
first one the classifier certifies, directly or after nudging.  The new
sweep must return the bit-identical answer — ``y``, ``distance``,
``infimum``, ``label_from`` and ``method`` — while solving a handful of
QPs instead of one per piece.

The piece-construction tests pin the bisector table of
:class:`~repro.geometry.regions.RegionPieces` against the same
halfspace-by-halfspace construction, row for row and bit for bit; the
Check-SR pipeline (``abductive/check.py``) walks the same pieces.

``FUZZ_ROUNDS`` (default 50; the nightly job sets 200) scales the number
of seeded datasets, like the streaming fuzz harness.
"""

from __future__ import annotations

import os
import threading
from itertools import combinations

import numpy as np
import pytest

import repro._budget as budget_module
import repro.counterfactual.l2 as l2_module
import repro.geometry.regions as regions_module
from repro._budget import install_cancel_event
from repro.counterfactual import CounterfactualResult
from repro.counterfactual.l2 import _nudge_toward_interior, closest_counterfactual_l2
from repro.exceptions import InfeasibleError, ResourceLimitError, SolverError
from repro.geometry import Halfspace, Polyhedron, bisector_halfspace
from repro.geometry.regions import (
    RegionPieces,
    count_region_polyhedra,
    decision_region_polyhedra,
)
from repro.knn import Dataset
from repro.knn.engine import as_engine
from repro.solvers.lp import feasible_point_strict
from repro.solvers.qp import project_onto_polyhedron

FUZZ_ROUNDS = int(os.environ.get("FUZZ_ROUNDS", "50"))

#: seeded datasets per scenario: 2 by default, 8 in the nightly sweep.
SEEDS = range(max(2, FUZZ_ROUNDS // 25))


# ---------------------------------------------------------------------------
# The exhaustive reference
# ---------------------------------------------------------------------------


def reference_pieces(dataset: Dataset, k: int, label: int) -> list[Polyhedron]:
    """Proposition-1 pieces built one bisector halfspace at a time."""
    expanded = dataset.expanded()
    if label == 1:
        winning, losing, strict = expanded.positives, expanded.negatives, False
    else:
        winning, losing, strict = expanded.negatives, expanded.positives, True
    need, slack = (k + 1) // 2, (k - 1) // 2
    n_lose = losing.shape[0]
    pieces = []
    if winning.shape[0] < need:
        return pieces
    for A_idx in combinations(range(winning.shape[0]), need):
        A_pts = winning[list(A_idx)]
        for b_size in range(min(slack, n_lose) + 1):
            for B_idx in combinations(range(n_lose), b_size):
                keep = np.ones(n_lose, dtype=bool)
                keep[list(B_idx)] = False
                rest = losing[keep]
                halfspaces = [
                    bisector_halfspace(a, c, strict=strict) for a in A_pts for c in rest
                ]
                pieces.append(Polyhedron(dataset.dimension, halfspaces))
    return pieces


def reference_closest(dataset: Dataset, k: int, x: np.ndarray) -> CounterfactualResult:
    """The exhaustive per-piece sweep: one LP and one QP on every piece."""
    knn = as_engine(dataset, "l2", None)
    label = knn.classify(x, k)
    target = 1 - label
    candidates = []
    for piece in reference_pieces(dataset, k, target):
        closure = piece.closure()
        interior = feasible_point_strict(
            A_strict=closure.A, b_strict=closure.b, n=piece.dimension
        )
        if piece.has_strict and interior is None:
            continue
        try:
            y, sq = project_onto_polyhedron(x, closure.A, closure.b)
        except InfeasibleError:
            continue
        candidates.append((float(sq), y, interior))
    candidates.sort(key=lambda item: item[0])
    for sq, y, interior in candidates:
        infimum = float(np.sqrt(sq))
        if knn.classify(y, k) == target:
            return CounterfactualResult(
                y=y,
                distance=float(np.linalg.norm(y - x)),
                infimum=infimum,
                label_from=label,
                method="l2-qp",
            )
        if interior is None:
            continue
        nudged = _nudge_toward_interior(knn, k, target, y, interior)
        if nudged is not None:
            return CounterfactualResult(
                y=nudged,
                distance=float(np.linalg.norm(nudged - x)),
                infimum=infimum,
                label_from=label,
                method="l2-qp",
            )
    return CounterfactualResult(
        y=None, distance=np.inf, infimum=np.inf, label_from=label, method="l2-qp"
    )


def assert_identical(got: CounterfactualResult, want: CounterfactualResult):
    assert got.label_from == want.label_from
    assert got.method == want.method
    assert got.distance == want.distance
    assert got.infimum == want.infimum
    if want.y is None:
        assert got.y is None
    else:
        assert got.y.dtype == want.y.dtype and got.y.shape == want.y.shape
        assert got.y.tobytes() == want.y.tobytes()


def assert_same_polyhedron(got: Polyhedron, want: Polyhedron):
    assert got.dimension == want.dimension
    for name in ("A", "b", "A_strict", "b_strict"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.flags.c_contiguous, name
        assert g.tobytes() == w.tobytes(), name


def logged(events: list, name: str, fn):
    """*fn* (or a stub returning None) that appends *name* to *events* per call."""

    def wrapper(*args, **kwargs):
        events.append(name)
        return None if fn is None else fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def gaussian_lineage(seed: int, per_class: int = 40, dim: int = 8) -> Dataset:
    """The shape of the served l2 lineage: two shifted Gaussian clouds."""
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(per_class, dim)) + 0.5, rng.normal(size=(per_class, dim)) - 0.5
    )


def small_with_repeats(seed: int) -> Dataset:
    """Small 3-d data with multiplicities and duplicated points.

    One positive repeats inside its class (a multiplicity and an explicit
    copy), and one negative coincides with a positive, which makes a
    zero bisector row: ``0 <= 0`` in closed pieces, the infeasible
    ``0 < 0`` in open ones.
    """
    rng = np.random.default_rng(1000 + seed)
    pos = rng.normal(size=(5, 3)) + 0.4
    neg = rng.normal(size=(5, 3)) - 0.4
    pos[4] = pos[0]
    neg[4] = pos[1]
    return Dataset(
        pos,
        neg,
        positive_multiplicities=[2, 1, 1, 1, 1],
        negative_multiplicities=[1, 1, 2, 1, 1],
    )


def queries(dataset: Dataset, k: int, rng: np.random.Generator, count: int):
    """Query points from both sides of the boundary, so both flip directions run."""
    knn = as_engine(dataset, "l2", None)
    anchors = [dataset.positives, dataset.negatives]
    picks = [anchors[i % 2][rng.integers(anchors[i % 2].shape[0])] for i in range(count)]
    xs = np.array(picks) + 0.5 * rng.normal(size=(count, dataset.dimension))
    labels = {knn.classify(x, k) for x in xs}
    assert labels == {0, 1}, "queries must flip in both directions"
    return xs


# ---------------------------------------------------------------------------
# Sweep == exhaustive reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_workload_shaped_k1_matches_exhaustive_sweep(seed):
    data = gaussian_lineage(seed)
    for x in queries(data, 1, np.random.default_rng(seed), 6):
        assert_identical(closest_counterfactual_l2(data, 1, x), reference_closest(data, 1, x))


@pytest.mark.parametrize("seed", SEEDS)
def test_k3_matches_exhaustive_sweep(seed):
    data = gaussian_lineage(seed, per_class=6, dim=4)
    for x in queries(data, 3, np.random.default_rng(seed), 3):
        assert_identical(closest_counterfactual_l2(data, 3, x), reference_closest(data, 3, x))


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_multiplicities_and_duplicates_match_exhaustive_sweep(seed, k):
    data = small_with_repeats(seed)
    rng = np.random.default_rng(seed)
    xs = list(queries(data, k, rng, 2 if k == 3 else 4))
    xs.append(data.positives[0].copy())  # on a repeated training point
    xs.append(data.positives[1].copy())  # on the point both classes hold
    for x in xs:
        assert_identical(closest_counterfactual_l2(data, k, x), reference_closest(data, k, x))


def _mirror_dataset() -> Dataset:
    """Pieces mirrored in the x-axis, so pairs of them tie exactly.

    Negation is exact in floating point, so a piece and its mirror image
    have bit-equal lower bounds and squared distances; only enumeration
    order can separate them.
    """
    pos = np.array([[1.0, 0.0], [-1.0, 0.0], [4.0, 2.5], [4.0, -2.5]])
    neg = np.array([[0.0, 3.0], [0.0, -3.0], [-3.0, 4.0], [-3.0, -4.0], [7.0, 0.0]])
    return Dataset(pos, neg)


@pytest.mark.parametrize(
    "x, k",
    [((0.0, 0.0), 1), ((2.0, 0.0), 1), ((0.0, 0.0), 3), ((7.5, 0.0), 1)],
    ids=["open-k1", "open-k1-off-centre", "open-k3", "closed-k1"],
)
def test_equidistant_pieces_resolve_by_enumeration_order(x, k):
    data = _mirror_dataset()
    x = np.array(x)
    target = 1 - as_engine(data, "l2", None).classify(x, k)
    pieces = RegionPieces(data, k, target)
    sqs = []
    for piece in pieces:
        closure = piece.closure()
        try:
            sqs.append(project_onto_polyhedron(x, closure.A, closure.b)[1])
        except InfeasibleError:
            pass
    # The tie is real: the closest squared distance is attained twice.
    assert sqs.count(min(sqs)) >= 2
    got = closest_counterfactual_l2(data, k, x)
    assert_identical(got, reference_closest(data, k, x))
    assert got.found


# ---------------------------------------------------------------------------
# The sweep solves few QPs and LPs
# ---------------------------------------------------------------------------


def test_sweep_projects_only_pieces_that_can_win(monkeypatch):
    events = []
    monkeypatch.setattr(
        l2_module, "project_onto_polyhedron", logged(events, "qp", project_onto_polyhedron)
    )
    monkeypatch.setattr(
        l2_module, "feasible_point_strict", logged(events, "lp", feasible_point_strict)
    )
    n_queries = 0
    for seed in range(3):
        data = gaussian_lineage(seed)
        for x in queries(data, 1, np.random.default_rng(seed), 10):
            target = 1 - as_engine(data, "l2", None).classify(x, 1)
            # The exhaustive sweep ran one QP and one LP per piece.
            assert count_region_polyhedra(data, 1, target) == 40
            assert closest_counterfactual_l2(data, 1, x).found
            n_queries += 1
    assert events.count("qp") / n_queries <= 4
    assert events.count("lp") / n_queries <= 4


# ---------------------------------------------------------------------------
# Budgets and cancellation
# ---------------------------------------------------------------------------


def test_expired_budget_raises():
    data = gaussian_lineage(0)
    with pytest.raises(ResourceLimitError):
        closest_counterfactual_l2(data, 1, np.zeros(8), time_limit=0.0)


def test_cancelled_race_attempt_raises():
    event = threading.Event()
    event.set()
    install_cancel_event(event)
    try:
        with pytest.raises(ResourceLimitError, match="cancelled"):
            closest_counterfactual_l2(gaussian_lineage(0), 1, np.zeros(8))
    finally:
        install_cancel_event(None)


def test_every_qp_and_lp_is_preceded_by_a_budget_check(monkeypatch):
    events = []
    monkeypatch.setattr(
        l2_module, "remaining_budget", logged(events, "budget", l2_module.remaining_budget)
    )
    monkeypatch.setattr(
        l2_module, "project_onto_polyhedron", logged(events, "qp", project_onto_polyhedron)
    )
    monkeypatch.setattr(
        l2_module, "feasible_point_strict", logged(events, "lp", feasible_point_strict)
    )
    data = small_with_repeats(0)
    for k in (1, 3):
        for x in queries(data, k, np.random.default_rng(0), 4):
            closest_counterfactual_l2(data, k, x, time_limit=60.0)
    solves = [i for i, name in enumerate(events) if name in ("qp", "lp")]
    assert {"qp", "lp"} <= set(events)
    assert all(events[i - 1] == "budget" for i in solves)


class TickingClock:
    """A ``time`` stand-in whose clock advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


def test_budget_expiring_while_bounds_are_built_raises_before_any_solve(monkeypatch):
    events = []
    monkeypatch.setattr(budget_module, "time", TickingClock())
    # One winning point per block, so each of the 40 gets its own check.
    monkeypatch.setattr(regions_module, "_BOUND_BLOCK_ENTRIES", 1)
    check = logged(events, "check", regions_module.remaining_budget)
    monkeypatch.setattr(regions_module, "remaining_budget", check)
    monkeypatch.setattr(l2_module, "project_onto_polyhedron", logged(events, "qp", None))
    monkeypatch.setattr(l2_module, "feasible_point_strict", logged(events, "lp", None))
    with pytest.raises(ResourceLimitError, match="exceeded its time budget"):
        closest_counterfactual_l2(gaussian_lineage(0), 1, np.zeros(8), time_limit=5.5)
    # The deadline passes after a few of the 40 winning points, before any solve.
    assert 0 < len(events) < 10
    assert set(events) == {"check"}


def test_empty_open_pieces_are_never_projected(monkeypatch):
    """An open piece whose emptiness LP fails is skipped before its QP.

    The fake QP raises on such a piece's closure, as the KKT check may
    on a lower-dimensional closure, so the answer only survives if the
    sweep never projects it, as the exhaustive sweep never did.
    """
    data = small_with_repeats(0)
    empty = set()
    for piece in decision_region_polyhedra(data, 1, 0):
        closure = piece.closure()
        if feasible_point_strict(A_strict=closure.A, b_strict=closure.b, n=3) is None:
            empty.add(closure.A.tobytes())
    # The point both classes hold makes the 0 < 0 row.
    assert empty
    skipped = []

    def recording_lp(*args, **kwargs):
        point = feasible_point_strict(*args, **kwargs)
        if point is None:
            skipped.append(kwargs["A_strict"].tobytes())
        return point

    def strict_qp(x, A, b):
        if A.tobytes() in empty:
            raise SolverError("projection onto an empty open piece")
        return project_onto_polyhedron(x, A, b)

    xs = [data.positives[1].copy(), *queries(data, 1, np.random.default_rng(0), 4)]
    want = [reference_closest(data, 1, x) for x in xs]
    monkeypatch.setattr(l2_module, "feasible_point_strict", recording_lp)
    monkeypatch.setattr(l2_module, "project_onto_polyhedron", strict_qp)
    for x, reference in zip(xs, want):
        assert_identical(closest_counterfactual_l2(data, 1, x), reference)
    # The sweep met an empty open piece on the way and left it out.
    assert set(skipped) & empty


def test_pieces_are_generated_lazily(monkeypatch):
    built = []
    monkeypatch.setattr(
        regions_module, "_bisectors", logged(built, "bisectors", regions_module._bisectors)
    )
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(30, 4)), rng.normal(size=(300, 4)))
    assert count_region_polyhedra(data, 5, 1) > 10**8
    first = next(iter(decision_region_polyhedra(data, 5, 1)))
    assert first.A.shape == (3 * 300, 4)
    # Only the first witness set's bisectors were computed.
    assert built == ["bisectors"]
    pieces = RegionPieces(data, 5, 1)
    assert pieces[len(pieces) - 1].A.shape == (3 * 298, 4)


# ---------------------------------------------------------------------------
# Table-built pieces == halfspace-built pieces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("make", [small_with_repeats, lambda s: gaussian_lineage(s, 6, 5)])
@pytest.mark.parametrize("seed", SEEDS)
def test_table_pieces_equal_halfspace_pieces(seed, make, k, label):
    data = make(seed)
    want = reference_pieces(data, k, label)
    got = list(decision_region_polyhedra(data, k, label))
    pieces = RegionPieces(data, k, label)
    assert len(got) == len(want) == len(pieces) == count_region_polyhedra(data, k, label)
    for index, (piece, reference) in enumerate(zip(got, want)):
        assert_same_polyhedron(piece, reference)
        assert_same_polyhedron(pieces[index], reference)
        assert_same_polyhedron(piece.closure(), reference.closure())
        # The Check-SR interior system, array-built vs halfspace-built.
        assert_same_polyhedron(
            Polyhedron.from_systems(A_strict=piece.A, b_strict=piece.b, dimension=piece.dimension),
            Polyhedron(
                reference.dimension,
                [Halfspace(w, b, strict=True) for w, b in zip(reference.A, reference.b)],
            ),
        )


def test_region_with_too_few_winners_is_empty():
    data = Dataset(np.ones((1, 2)), np.zeros((3, 2)))
    pieces = RegionPieces(data, 3, 1)
    assert len(pieces) == 0 and list(pieces) == []
    assert pieces.distance_lower_bounds(np.zeros(2)).shape == (0,)
    with pytest.raises(IndexError):
        pieces[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_lower_bounds_never_exceed_projection_distance(seed):
    data = small_with_repeats(seed)
    rng = np.random.default_rng(seed)
    for k, label in ((1, 0), (1, 1), (3, 0), (3, 1), (5, 0), (5, 1)):
        pieces = RegionPieces(data, k, label)
        for x in rng.normal(size=(2, data.dimension)) * 2:
            bounds = pieces.distance_lower_bounds(x)
            for piece, bound in zip(pieces, bounds):
                closure = piece.closure()
                try:
                    _, sq = project_onto_polyhedron(x, closure.A, closure.b)
                except InfeasibleError:
                    continue
                assert max(bound, 0.0) <= np.sqrt(sq) + 1e-9


def test_from_systems_matches_halfspace_constructor():
    rng = np.random.default_rng(7)
    A, b = rng.normal(size=(4, 3)), rng.normal(size=4)
    S, s = rng.normal(size=(2, 3)), rng.normal(size=2)
    weak = [Halfspace(w, v) for w, v in zip(A, b)]
    strict = [Halfspace(w, v, strict=True) for w, v in zip(S, s)]
    mixed = Polyhedron(3, weak + strict)
    assert_same_polyhedron(Polyhedron.from_systems(A, b, S, s), mixed)
    assert_same_polyhedron(Polyhedron.from_systems(A, b, S, s, dimension=3), mixed)
    assert_same_polyhedron(Polyhedron.from_systems(dimension=3), Polyhedron(3))
    closed = [Halfspace(w, v) for w, v in zip(S, s)]
    assert_same_polyhedron(mixed.closure(), Polyhedron(3, weak + closed))
    with pytest.raises(ValueError):
        Polyhedron.from_systems(A, b[:3])
    with pytest.raises(ValueError):
        Polyhedron.from_systems(A, b, np.ones((1, 2)), [0.0])
    with pytest.raises(ValueError):
        Polyhedron.from_systems()
