"""The four workloads: seeded inputs, request streams and reference answers.

Every input is a function of the ``--seed`` argument.  The server only
ever receives the generated datasets and requests; the reference answers
are computed in the benchmark process with the library's public API
(``QueryEngine``, ``MultiClassEngine``, ``minimal_sufficient_reason``,
``portfolio_*``, ``closest_counterfactual``, ``Dataset.with_added`` /
``with_removed``, ``DurableStore``) after the timed window closes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

#: closed-loop request mix of ``interactive`` (method, weight).
INTERACTIVE_MIX = (("classify", 0.7), ("margin", 0.15), ("radii", 0.15))
#: share of ``interactive`` requests that resend an earlier request.
REPEAT_SHARE = 0.2
BULK_ENVELOPE = 256
MUTATION_BATCH = 8
MUTATION_QUERY_ENVELOPE = 16
SOLVER_DIM = 13


def wire(obj):
    """*obj* as it reads after the server's strict-JSON encoding.

    Non-finite floats travel as ``"Infinity"`` / ``"-Infinity"`` /
    ``"NaN"`` strings; numpy scalars and tuples become plain JSON values.
    """
    if isinstance(obj, dict):
        return {str(key): wire(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [wire(value) for value in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    return obj


@dataclass
class Lineage:
    """One dataset the workload registers, plus its in-process twin."""

    name: str
    dataset: object
    metric: str
    fingerprint: str = ""
    engine: object = None

    @property
    def multiclass(self) -> bool:
        """Whether the dataset is a ``MultiClassDataset``."""
        from repro.knn import MultiClassDataset

        return isinstance(self.dataset, MultiClassDataset)

    def registration(self) -> bytes:
        """The ``POST /v2/datasets`` body for this dataset."""
        data = self.dataset
        if self.multiclass:
            body = {"points": data.points.tolist(),
                    "labels": data.row_labels.tolist(), "discrete": data.discrete}
        else:
            body = {"positives": data.positives.tolist(),
                    "negatives": data.negatives.tolist(), "discrete": data.discrete}
        return json.dumps(body).encode("utf-8")

    def reference_engine(self):
        """A fresh in-process engine over the dataset (built once)."""
        if self.engine is None:
            from repro import QueryEngine
            from repro.knn import MultiClassEngine

            cls = MultiClassEngine if self.multiclass else QueryEngine
            self.engine = cls(self.dataset, self.metric)
        return self.engine


@dataclass
class Query:
    """One ``POST /v2/explain`` envelope."""

    lineage: Lineage
    method: str
    params: dict
    instances: np.ndarray
    repeat: bool = False
    version: int = 0

    def body(self) -> bytes:
        """The request envelope (the bare fingerprint: current version)."""
        return json.dumps({
            "fingerprint": self.lineage.fingerprint, "method": self.method,
            "params": self.params, "instances": self.instances.tolist(),
        }).encode("utf-8")


@dataclass
class Mutation:
    """One streaming ``POST`` (add) / ``DELETE`` (remove) points batch."""

    lineage: Lineage
    add: bool
    points: np.ndarray
    labels: np.ndarray
    version: int = 0

    def body(self) -> bytes:
        """The mutation body."""
        return json.dumps({"points": self.points.tolist(),
                           "labels": self.labels.tolist()}).encode("utf-8")


@dataclass
class Record:
    """One completed operation of the timed window."""

    op: object
    status: int
    reply: object
    start: float
    end: float
    request_id: str
    failures: list = field(default_factory=list)


def _binary_points(rng, n, dim):
    return rng.integers(0, 2, size=(n, dim)).astype(float)


def _binary_dataset(rng, n, dim):
    from repro import Dataset

    points = _binary_points(rng, n, dim)
    return Dataset(points[: n // 2], points[n // 2:], discrete=True)


def _multiclass_dataset(rng, n, dim, classes):
    from repro.knn import MultiClassDataset

    return MultiClassDataset(
        _binary_points(rng, n, dim), rng.integers(0, classes, size=n), discrete=True
    )


def _distinct_binary_rows(rng, n, dim):
    """*n* distinct binary rows of dimension *dim* (a random permutation)."""
    codes = rng.permutation(1 << dim)[:n]
    return ((codes[:, None] >> np.arange(dim)) & 1).astype(float)


class Workload:
    """Base: lineages, warm-up requests and closed-loop request streams."""

    name = ""
    why = ""
    connections = 1
    needs_state_dir = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.lineages = self.build_lineages(np.random.default_rng([seed, 0]))

    def size(self, n: int) -> int:
        """A dataset size scaled for smoke runs (never below 16)."""
        return max(16, int(n * self.scale))

    def build_lineages(self, rng) -> list[Lineage]:
        raise NotImplementedError

    def warm_queries(self) -> list[Query]:
        """One query per (lineage, method) the stream uses."""
        raise NotImplementedError

    def stream(self, connection: int):
        """Yield this connection's operations, forever."""
        raise NotImplementedError

    def expected(self, queries: list[Query], mutations: list[Mutation]) -> list[list]:
        """Reference payloads (wire form) for *queries*, aligned.

        *mutations* is the mutation script sent alongside, in order.
        """
        return batched_reference(queries)


def batched_reference(queries: list[Query]) -> list[list]:
    """Answer batch-method queries with one engine call per group."""
    groups: dict[tuple, list[int]] = {}
    for i, query in enumerate(queries):
        key = (id(query.lineage), query.method, json.dumps(query.params, sort_keys=True))
        groups.setdefault(key, []).append(i)
    out: list[list] = [None] * len(queries)
    for indices in groups.values():
        first = queries[indices[0]]
        block = np.vstack([queries[i].instances for i in indices])
        payloads = batch_payloads(first.lineage, first.method, first.params, block)
        pos = 0
        for i in indices:
            n = queries[i].instances.shape[0]
            out[i] = payloads[pos: pos + n]
            pos += n
    return out


def batch_payloads(lineage: Lineage, method: str, params: dict, block) -> list:
    """Wire payloads of one batch method over *block*, from the library."""
    engine = lineage.reference_engine()
    k = params.get("k", 1)
    if method == "classify":
        return [{"label": int(v)} for v in engine.classify_batch(block, k)]
    if lineage.multiclass:
        classes = [str(c) for c in engine.classes]
        if method == "margin":
            rows = engine.class_margins_batch(block, k)
            return [wire({"margins": dict(zip(classes, row))}) for row in rows]
        radii, rest = engine.class_radii_batch(block, k)
        return [
            wire({"r_pos": dict(zip(classes, radii[i])),
                  "r_neg": dict(zip(classes, rest[i]))})
            for i in range(block.shape[0])
        ]
    if method == "margin":
        return [wire({"margin": v}) for v in engine.margins_batch(block, k)]
    r_pos, r_neg = engine.radii_batch(block, k)
    return [wire({"r_pos": p, "r_neg": n}) for p, n in zip(r_pos, r_neg)]


class Interactive(Workload):
    name = "interactive"
    why = ("two callers send single-instance requests; fixed per-request cost "
           "(socket, Nagle/delayed ACK, JSON, batching window) dominates")
    connections = 2

    def build_lineages(self, rng):
        n = self.size(5000)
        return [
            Lineage("binary-hamming", _binary_dataset(rng, n, 64), "hamming"),
            Lineage("multiclass-hamming", _multiclass_dataset(rng, n, 64, 4), "hamming"),
        ]

    def warm_queries(self):
        rng = np.random.default_rng([self.seed, 99])
        return [
            Query(lineage, method, {"k": 3}, _binary_points(rng, 1, 64))
            for lineage in self.lineages for method, _ in INTERACTIVE_MIX
        ]

    def stream(self, connection):
        rng = np.random.default_rng([self.seed, 1, connection])
        methods = [m for m, _ in INTERACTIVE_MIX]
        weights = [w for _, w in INTERACTIVE_MIX]
        sent: list[Query] = []
        while True:
            if sent and rng.random() < REPEAT_SHARE:
                old = sent[int(rng.integers(len(sent)))]
                yield Query(old.lineage, old.method, old.params, old.instances, repeat=True)
                continue
            lineage = self.lineages[int(rng.integers(len(self.lineages)))]
            method = methods[int(rng.choice(len(methods), p=weights))]
            query = Query(lineage, method, {"k": 3}, _binary_points(rng, 1, 64))
            sent.append(query)
            yield query


class Bulk(Workload):
    name = "bulk"
    why = ("256-instance envelopes, no repeats; per-instance serve work "
           "(Hamming) and the dense l2 kernel dominate")

    def build_lineages(self, rng):
        n = self.size(5000)
        from repro import Dataset

        n_l2 = self.size(20000)
        l2_points = rng.integers(0, 10, size=(n_l2, 64)).astype(float)
        return [
            Lineage("binary-hamming", _binary_dataset(rng, n, 64), "hamming"),
            Lineage("binary-l2", Dataset(l2_points[: n_l2 // 2], l2_points[n_l2 // 2:]), "l2"),
            Lineage("multiclass-hamming", _multiclass_dataset(rng, n, 64, 4), "hamming"),
        ]

    def _instances(self, rng, lineage, n):
        if lineage.metric == "l2":
            return rng.integers(0, 10, size=(n, 64)).astype(float)
        return _binary_points(rng, n, 64)

    def warm_queries(self):
        rng = np.random.default_rng([self.seed, 99])
        return [
            Query(lineage, method, {"k": 3}, self._instances(rng, lineage, 1))
            for lineage in self.lineages for method in ("classify", "margin", "radii")
        ]

    def stream(self, connection):
        rng = np.random.default_rng([self.seed, 1, connection])
        envelope = max(8, int(BULK_ENVELOPE * min(1.0, self.scale * 4)))
        for lineage, method in itertools.cycle(
            itertools.product(self.lineages, ("classify", "margin", "radii"))
        ):
            yield Query(lineage, method, {"k": 3}, self._instances(rng, lineage, envelope))


class Solvers(Workload):
    name = "solvers"
    why = ("exact minimal/minimum sufficient reasons and counterfactuals on small "
           "lineages; portfolio, SAT, MILP and QP time dominates")

    #: (method, lineage index, params) in rotation order.
    ROTATION = (
        ("minimal_sr", 0, {"k": 3}),
        ("minimum_sr", 2, {"k": 1, "metric": "hamming", "solver": "portfolio"}),
        ("counterfactual", 0, {"k": 1, "metric": "hamming", "solver": "portfolio"}),
        ("counterfactual", 1, {"k": 1, "metric": "l2"}),
    )

    def build_lineages(self, rng):
        from repro import Dataset

        rows = _distinct_binary_rows(rng, 24, SOLVER_DIM)
        small = _distinct_binary_rows(rng, 12, SOLVER_DIM)
        positives = rng.normal(0.5, 1.0, size=(40, 8))
        negatives = rng.normal(-0.5, 1.0, size=(40, 8))
        return [
            Lineage("hamming-13d", Dataset(rows[:12], rows[12:], discrete=True), "hamming"),
            Lineage("l2-8d", Dataset(positives, negatives), "l2"),
            # Minimum-SR gets its own 6+6-point lineage: on 12+12 points one
            # portfolio MILP ranges from 60 ms to over 6 s across instances,
            # so no 10-second window of them is steady.
            Lineage("hamming-13d-small", Dataset(small[:6], small[6:], discrete=True),
                    "hamming"),
        ]

    def _queries(self, rng, hamming_rows):
        for method, index, params in itertools.cycle(self.ROTATION):
            lineage = self.lineages[index]
            if lineage.metric == "hamming":
                x = next(hamming_rows)[None, :]
            else:
                x = rng.normal(0.0, 1.0, size=(1, 8))
            yield Query(lineage, method, params, x)

    def warm_queries(self):
        rng = np.random.default_rng([self.seed, 99])
        rows = iter(_distinct_binary_rows(rng, len(self.ROTATION), SOLVER_DIM))
        return list(itertools.islice(self._queries(rng, rows), len(self.ROTATION)))

    def stream(self, connection):
        rng = np.random.default_rng([self.seed, 1, connection])
        # Distinct Hamming instances, so no request is a result-cache hit.
        rows = iter(_distinct_binary_rows(rng, 1 << SOLVER_DIM, SOLVER_DIM))
        yield from self._queries(rng, rows)

    def expected(self, queries, mutations):
        return [[solver_payload(q.lineage, q.method, q.params, q.instances[0])]
                for q in queries]


def solver_payload(lineage: Lineage, method: str, params: dict, x) -> dict:
    """The wire payload of one solver request, minus ``provenance``."""
    from repro import (
        closest_counterfactual,
        minimal_sufficient_reason,
        portfolio_closest_counterfactual,
        portfolio_minimum_sufficient_reason,
    )

    data, engine, k = lineage.dataset, lineage.reference_engine(), params["k"]
    metric = lineage.metric
    if method == "minimal_sr":
        X = minimal_sufficient_reason(data, k, metric, x, engine=engine)
        return {"X": sorted(int(i) for i in X), "size": len(X)}
    if method == "minimum_sr":
        race = portfolio_minimum_sufficient_reason(data, k, metric, x, engine=engine)
        return {"X": sorted(int(i) for i in race.answer.X), "size": int(race.answer.size),
                "method": race.method, "exact": race.exact}
    if params.get("solver") == "portfolio":
        race = portfolio_closest_counterfactual(data, k, metric, x, query_engine=engine)
        result, exact = race.answer, race.exact
    else:
        result, exact = closest_counterfactual(data, k, metric, x, query_engine=engine), True
    return wire({
        "found": result.found,
        "y": None if result.y is None else [float(v) for v in result.y],
        "distance": float(result.distance),
        "infimum": float(result.infimum),
        "label_from": int(result.label_from),
        "method": result.method,
        "exact": exact,
    })


class Mutations(Workload):
    name = "mutations"
    why = ("durable 8-point add/remove batches between 16-instance classify "
           "envelopes; WAL fsync, snapshots, engine mutation, cache invalidation")
    needs_state_dir = True

    def build_lineages(self, rng):
        return [Lineage("binary-hamming", _binary_dataset(rng, self.size(5000), 64),
                        "hamming")]

    def warm_queries(self):
        rng = np.random.default_rng([self.seed, 99])
        return [Query(self.lineages[0], "classify", {"k": 3}, _binary_points(rng, 1, 64))]

    def stream(self, connection):
        rng = np.random.default_rng([self.seed, 1, connection])
        lineage = self.lineages[0]
        # The generator tracks the rows it believes are present, so every
        # removal names points that exist (no operation fails).
        present = [(row, 1.0) for row in lineage.dataset.positives] + [
            (row, 0.0) for row in lineage.dataset.negatives
        ]
        version = 0
        for step in itertools.count():
            add = step % 2 == 0
            if add:
                points = _binary_points(rng, MUTATION_BATCH, 64)
                labels = rng.integers(0, 2, size=MUTATION_BATCH).astype(float)
                present.extend(zip(points, labels))
            else:
                picks = sorted(rng.choice(len(present), MUTATION_BATCH, replace=False),
                               reverse=True)
                chosen = [present.pop(int(i)) for i in picks]
                points = np.array([row for row, _ in chosen])
                labels = np.array([label for _, label in chosen])
            version += 1
            yield Mutation(lineage, add, points, labels, version=version)
            yield Query(lineage, "classify", {"k": 3},
                        _binary_points(rng, MUTATION_QUERY_ENVELOPE, 64), version=version)

    def expected(self, queries, mutations):
        """Replay the mutation script on a ``Dataset``; rebuild per version.

        Every query is answered by an engine freshly built over the
        dataset version it saw.  The replayed versions are kept for
        :meth:`final_checks`.
        """
        from repro import QueryEngine

        data = self.lineages[0].dataset
        self._versions = {0: data}
        for mutation in mutations:
            op = data.with_added if mutation.add else data.with_removed
            data = op(mutation.points, mutation.labels)
            self._versions[mutation.version] = data
        out = []
        for query in queries:
            engine = QueryEngine(self._versions[query.version], "hamming")
            out.append([{"label": int(v)}
                        for v in engine.classify_batch(query.instances, query.params["k"])])
        return out

    def final_checks(self, server_state):
        """Final fingerprint, counts, probe answers and durable contents.

        Runs after :meth:`expected` has replayed the run's mutation script.
        """
        from repro import QueryEngine, dataset_fingerprint
        from repro.serve import DurableStore

        failures = []
        lineage = self.lineages[0]
        version = max(self._versions)
        rebuilt = self._versions[version]
        want_fp = f"{dataset_fingerprint(lineage.dataset)}@v{version}"
        info = server_state["describe"]
        if info["fingerprint"] != want_fp:
            failures.append(f"final fingerprint {info['fingerprint']} != {want_fp}")
        if (info["n_positive"], info["n_negative"]) != (rebuilt.n_positive, rebuilt.n_negative):
            failures.append("final class counts differ from the rebuilt dataset")
        probe = server_state["probe"]
        want = QueryEngine(rebuilt, "hamming").classify_batch(probe["instances"], 3)
        got = [item["result"].get("label") for item in probe["results"]]
        if got != [int(v) for v in want]:
            failures.append("final probe answers differ from the rebuilt dataset")
        base = dataset_fingerprint(lineage.dataset)
        store = DurableStore(server_state["state_dir"])
        try:
            restored = store.restore(base)
        finally:
            store.close()
        if restored.dataset is None or restored.version != version:
            failures.append("durable state did not restore the final version")
        elif dataset_fingerprint(restored.dataset) != dataset_fingerprint(rebuilt):
            failures.append("durable dataset differs from the rebuilt dataset")
        return failures


WORKLOADS = {cls.name: cls for cls in (Interactive, Bulk, Solvers, Mutations)}
