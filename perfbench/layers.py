"""Per-layer metrics of a traced pass, computed from the recorded spans.

The layer -> metric -> workload map (which end-to-end metric each
per-layer metric should move, and where it should stay flat) is in
``README.md`` beside this file.  :func:`per_layer` turns
the spans of the timed window into those metrics, the per-request
self-time breakdown, the tracing overhead (traced minus untraced, for
every end-to-end metric) and the cross-checks of span counts against the
server's own ``/v2/stats`` and ``/metrics`` counters.

Self-time accounting: for each HTTP explain request, the covered part of
its ``http.explain`` span is the union of its ``asubmit`` spans up to the
end of their own cache lookup, the batching wait of each of its
instances, and the ``submit_requests`` batches that answered them; the
uncovered rest is the HTTP layer's own time (loop hand-off, gather,
response dicts).  Each covered span contributes its self time (duration
minus the union of its children) to its layer.  The layers' self times
must add up to the ``http.explain`` time within ``ACCOUNTING_TOLERANCE``.
"""

from __future__ import annotations

import statistics

#: largest accepted |sum of layer self times - explain time| / explain time.
ACCOUNTING_TOLERANCE = 0.05

#: span-name prefix -> layer of the self-time breakdown.
BREAKDOWN = {
    "http": "http", "service": "service", "cache": "cache", "engine": "engine",
    "kernels": "kernels", "portfolio": "portfolio", "sat": "solvers",
    "solver_pool": "solvers", "milp": "solvers", "qp": "solvers",
    "abductive": "abductive", "counterfactual": "counterfactual", "wal": "wal",
}
BREAKDOWN_LAYERS = ("http", "service", "service.wait", "cache", "engine", "kernels",
                    "portfolio", "solvers", "abductive", "counterfactual")

#: metric -> unit, in output order (the per_layer list of BENCHMARK.json).
UNITS = {
    "http.wire_ms_p50": "ms", "http.explain_ms_p50": "ms", "http.explain_self_ms_p50": "ms",
    "service.wait_ms_p50": "ms", "service.batch_occupancy_mean": "req/batch",
    "service.make_request_us": "us", "service.submit_self_us_per_instance": "us",
    "service.asubmit_calls_per_envelope": "count",
    "cache.hit_ratio": "ratio", "cache.get_us": "us", "cache.put_us": "us",
    "cache.invalidate_ms": "ms",
    "engine.batch_us_per_instance": "us", "engine.single_calls_per_request": "count/req",
    "engine.single_ms": "ms/req", "engine.cache_hit_ratio": "ratio",
    "engine.mutation_ms_p50": "ms",
    "kernels.calls": "count/req", "kernels.ms": "ms/req", "kernels.share": "ratio",
    "kernels.ops": "op/req", "kernels.bytes": "B/req",
    "portfolio.race_ms_p50": "ms", "portfolio.attempts_per_race": "count",
    "portfolio.useful_attempt_share": "ratio",
    "sat.solve_calls": "count/req", "sat.solve_ms": "ms", "sat.conflicts": "count",
    "solver_pool.hit_ratio": "ratio", "milp.solve_ms": "ms", "qp.solve_ms": "ms",
    "abductive.ms_p50": "ms", "counterfactual.ms_p50": "ms",
    "wal.append_ms_p50": "ms", "wal.snapshot_ms": "ms", "wal.snapshots": "count",
    **{f"breakdown.{layer}_ms": "ms/req" for layer in BREAKDOWN_LAYERS},
    "trace.accounting_error": "ratio",
    "trace.crosscheck_mismatches": "count",
    "client.repeat_share": "ratio",
    "client.mutation_p50_ms": "ms",
    "client.mutation_p99_ms": "ms",
    **{f"overhead.{name}": unit for name, unit in (
        ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
        ("throughput_rps", "1/s"), ("instances_per_s", "1/s"), ("rss_peak_mb", "MiB"))},
}

#: per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {
    "service.batch_occupancy_mean", "cache.hit_ratio", "engine.cache_hit_ratio",
    "portfolio.useful_attempt_share", "solver_pool.hit_ratio", "client.repeat_share",
    "overhead.throughput_rps", "overhead.instances_per_s",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _measure(intervals) -> float:
    return sum(b - a for a, b in _union(intervals))


def _clip(intervals, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]


def _layer(name: str) -> str:
    return BREAKDOWN[name.split(".", 1)[0]]


class Trace:
    """Spans of one timed window, indexed by id, parent and name."""

    def __init__(self, spans: list[dict], window: tuple[float, float], request_ids: set):
        start, end = window

        def timed(span):
            if span["name"] == "http.explain":
                return span["rid"] in request_ids
            return span["t0"] >= start and span["t1"] <= end

        self.spans = [s for s in spans if timed(s)]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, *prefixes: str) -> list[dict]:
        return [s for s in self.spans if s["name"].startswith(prefixes)]

    def top(self, prefix: str) -> list[dict]:
        """Spans of *prefix* not nested inside another span of the same prefix."""
        out = []
        for s in self.named(prefix):
            parent = self.by_id.get(s["parent"])
            while parent is not None and not parent["name"].startswith(prefix):
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    def self_time(self, span: dict, end: float | None = None) -> float:
        """Duration (up to *end*) minus the union of its children."""
        t1 = span["t1"] if end is None else end
        kids = [(c["t0"], c["t1"]) for c in self.children.get(span["id"], [])]
        return (t1 - span["t0"]) - _measure(_clip(kids, span["t0"], t1))

    def subtree_self(self, span: dict, out: dict, end: float | None = None) -> None:
        """Add the self time of *span* and its descendants to *out* by layer."""
        layer = _layer(span["name"])
        out[layer] = out.get(layer, 0.0) + self.self_time(span, end)
        for child in self.children.get(span["id"], []):
            if end is None or child["t1"] <= end:
                self.subtree_self(child, out)


def explain_accounting(trace: Trace) -> tuple[dict, list, list, list]:
    """Per-request self-time breakdown of every ``http.explain`` span.

    Returns ``(layer totals, per-request http self times, per-instance
    waits, [(explain total, layer-sum total)])``.
    """
    batches_by_key: dict[bytes, list[dict]] = {}
    for batch in trace.named("service.submit_requests"):
        for key in batch["keys"]:
            batches_by_key.setdefault(key, []).append(batch)
    for batches in batches_by_key.values():
        batches.sort(key=lambda s: s["t0"])
    totals: dict[str, float] = {}
    http_self, waits, sums = [], [], []
    for explain in trace.named("http.explain"):
        lo, hi = explain["t0"], explain["t1"]
        layers: dict[str, float] = {}
        active, waiting, batches = [], [], {}
        for sub in trace.children.get(explain["id"], []):
            if sub["name"] != "service.asubmit":
                continue
            ready = sub["active_end"] if sub["active_end"] is not None else sub["t1"]
            active.append((sub["t0"], ready))
            trace.subtree_self(sub, layers, end=ready)
            if sub["hit"]:
                continue
            batch = next((b for b in batches_by_key.get(sub["key"], [])
                          if b["t0"] >= ready), None)
            if batch is None:
                continue
            waits.append(batch["t0"] - sub["t0"])
            waiting.append((ready, batch["t0"]))
            batches[batch["id"]] = batch
        for batch in batches.values():
            trace.subtree_self(batch, layers)
        worked = _clip(active + [(b["t0"], b["t1"]) for b in batches.values()], lo, hi)
        covered = _measure(_clip(worked + waiting, lo, hi))
        layers["service.wait"] = covered - _measure(worked)
        own = (hi - lo) - covered
        layers["http"] = layers.get("http", 0.0) + own
        http_self.append(own)
        sums.append((hi - lo, sum(layers.values())))
        for layer, value in layers.items():
            totals[layer] = totals.get(layer, 0.0) + value
    return totals, http_self, waits, sums


def _delta(stats: tuple, *path) -> float:
    before, after = stats
    for key in path:
        before = before.get(key, {}) if isinstance(before, dict) else 0
        after = after.get(key, {}) if isinstance(after, dict) else 0
    return (after or 0) - (before or 0)


def cold_groups(trace: Trace) -> list[dict]:
    """Per batch: ``{missed cache key: group id}`` — what the service solves."""
    out = []
    for batch in trace.named("service.submit_requests"):
        out.append({c["key"]: batch["groups"][c["key"]]
                    for c in trace.children.get(batch["id"], [])
                    if c["name"] == "cache.get" and not c["hit"]})
    return out


def crosscheck(trace: Trace, result) -> list[str]:
    """Compare span counts with the server's counters; returns mismatches."""
    stats, prom = result.stats, result.metrics
    gets = trace.named("cache.get")
    leases = trace.named("solver_pool.lease")
    groups = sum(len(set(cold.values())) for cold in cold_groups(trace))
    checks = {
        "requests": (len(trace.named("service.asubmit")), _delta(stats, "requests")),
        "requests (/metrics)": (len(trace.named("service.asubmit")),
                                prom[1].get("repro_requests_total", 0)
                                - prom[0].get("repro_requests_total", 0)),
        "batches": (groups, _delta(stats, "batches")),
        "cache hits": (sum(1 for s in gets if s["hit"]), _delta(stats, "cache", "hits")),
        "cache misses": (sum(1 for s in gets if not s["hit"]),
                         _delta(stats, "cache", "misses")),
        "solver-pool leases": (len(leases), _delta(stats, "solver_pool", "leases")),
        "solver-pool hits": (sum(1 for s in leases if not s["built"]),
                             _delta(stats, "solver_pool", "hits")),
        "WAL appends": (len(trace.named("wal.append")),
                        _delta(stats, "durability", "appends")),
    }
    return [f"{name}: spans {spans} != server {server}"
            for name, (spans, server) in checks.items() if spans != server]


def per_layer(workload, result, base: dict, traced: dict, notes: dict) -> dict:
    """Every per-layer metric of one traced pass, as ``{name: {value, unit}}``."""
    from workloads import Query

    records = [r for r in result.records if isinstance(r.op, Query)]
    by_rid = {r.request_id: r for r in records}
    trace = Trace(result.spans, result.window, set(by_rid))
    explains = trace.named("http.explain")
    n_req = max(1, len(explains))
    totals, http_self, waits, sums = explain_accounting(trace)
    explain_total = sum(d for d, _ in sums)
    layer_total = sum(s for _, s in sums)

    batches = trace.named("service.submit_requests")
    instances = sum(b["instances"] for b in batches)
    gets, puts = trace.named("cache.get"), trace.named("cache.put")
    engine_batch = trace.top("engine.batch")
    singles = trace.top("engine.single")
    kernels = trace.named("kernels.")
    roots = trace.named("http.explain", "service.mutate")
    busy = _measure((s["t0"], s["t1"]) for s in roots)
    races = trace.named("portfolio.race")
    sat = trace.named("sat.solve")
    provenance = [item["result"]["provenance"] for r in records
                  for item in r.reply.get("results", [])
                  if isinstance(item.get("result"), dict) and "provenance" in item["result"]]
    attempts = [a for p in provenance for a in p["attempts"]]
    pool_hits = _delta(result.stats, "solver_pool", "hits")
    pool_misses = _delta(result.stats, "solver_pool", "misses")

    def per_batch(prefix: str) -> list[float]:
        out = []
        for batch in batches:
            spent = 0.0
            stack = list(trace.children.get(batch["id"], []))
            while stack:
                span = stack.pop()
                if span["name"].startswith(prefix):
                    spent += span["t1"] - span["t0"]
                else:
                    stack.extend(trace.children.get(span["id"], []))
            if spent:
                out.append(1000.0 * spent)
        return out

    def ms(spans):
        return [1000.0 * (s["t1"] - s["t0"]) for s in spans]

    values = {
        "http.wire_ms_p50": _median(
            1000.0 * ((by_rid[s["rid"]].end - by_rid[s["rid"]].start) - (s["t1"] - s["t0"]))
            for s in explains),
        "http.explain_ms_p50": _median(ms(explains)),
        "http.explain_self_ms_p50": _median(1000.0 * v for v in http_self),
        "service.wait_ms_p50": _median(1000.0 * w for w in waits),
        "service.batch_occupancy_mean": _ratio(
            sum(len(cold) for cold in cold_groups(trace)),
            sum(len(set(cold.values())) for cold in cold_groups(trace))),
        "service.make_request_us": 1000.0 * _mean(ms(trace.named("service.make_request"))),
        "service.submit_self_us_per_instance": 1e6 * _ratio(
            sum(trace.self_time(b) for b in batches), instances),
        "service.asubmit_calls_per_envelope": _ratio(
            len(trace.named("service.asubmit")), len(explains)),
        "cache.hit_ratio": _ratio(sum(1 for s in gets if s["hit"]), len(gets)),
        "cache.get_us": 1000.0 * _mean(ms(gets)),
        "cache.put_us": 1000.0 * _mean(ms(puts)),
        "cache.invalidate_ms": _mean(ms(trace.named("cache.invalidate"))),
        "engine.batch_us_per_instance": 1e6 * _ratio(
            sum(s["t1"] - s["t0"] for s in engine_batch),
            sum(s["instances"] for s in engine_batch)),
        "engine.single_calls_per_request": len(singles) / n_req,
        "engine.single_ms": sum(ms(singles)) / n_req,
        "engine.cache_hit_ratio": _ratio(
            sum(s["cache_hits"] for s in singles),
            sum(s["cache_hits"] + s["cache_misses"] for s in singles)),
        "engine.mutation_ms_p50": _median(ms(trace.named("engine.mutation"))),
        "kernels.calls": len(kernels) / n_req,
        "kernels.ms": sum(ms(kernels)) / n_req,
        "kernels.share": _ratio(sum(s["t1"] - s["t0"] for s in kernels), busy),
        "kernels.ops": sum(s["ops"] for s in kernels) / n_req,
        "kernels.bytes": sum(s["bytes"] for s in kernels) / n_req,
        "portfolio.race_ms_p50": _median(ms(races)),
        "portfolio.attempts_per_race": _mean(s["attempts"] for s in races),
        "portfolio.useful_attempt_share": _ratio(
            sum(1 for a in attempts if a["status"] == "exact"), len(attempts)),
        "sat.solve_calls": len(sat) / n_req,
        "sat.solve_ms": _mean(ms(sat)),
        "sat.conflicts": _mean(s["conflicts"] for s in sat),
        "solver_pool.hit_ratio": _ratio(pool_hits, pool_hits + pool_misses),
        "milp.solve_ms": _mean(ms(trace.named("milp.solve"))),
        "qp.solve_ms": _mean(ms(trace.named("qp.solve"))),
        "abductive.ms_p50": _median(per_batch("abductive.")),
        "counterfactual.ms_p50": _median(per_batch("counterfactual.")),
        "wal.append_ms_p50": _median(ms(trace.named("wal.append"))),
        "wal.snapshot_ms": _mean(ms(trace.named("wal.snapshot"))),
        "wal.snapshots": float(len(trace.named("wal.snapshot"))),
        **{f"breakdown.{layer}_ms": 1000.0 * totals.get(layer, 0.0) / n_req
           for layer in BREAKDOWN_LAYERS},
        "trace.accounting_error": _ratio(abs(layer_total - explain_total), explain_total),
    }
    mismatches = crosscheck(trace, result)
    for message in mismatches:
        print(f"CROSSCHECK {workload.name}: {message}")
    if values["trace.accounting_error"] > ACCOUNTING_TOLERANCE:
        print(f"ACCOUNTING {workload.name}: layer self times differ from explain time by "
              f"{values['trace.accounting_error']:.3%} (tolerance {ACCOUNTING_TOLERANCE:.0%})")
    values["trace.crosscheck_mismatches"] = float(len(mismatches))
    values["client.repeat_share"] = _ratio(sum(1 for r in records if r.op.repeat), len(records))
    values["client.mutation_p50_ms"] = notes.get("mutation_p50_ms", 0.0)
    values["client.mutation_p99_ms"] = notes.get("mutation_p99_ms", 0.0)
    for name in base:
        values[f"overhead.{name}"] = traced[name] - base[name]
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}
