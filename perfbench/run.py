"""Socket-level serving benchmark of ``repro serve``.

Usage::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout.  Each run starts the real server
(``python -m repro serve --port 0``, default flags, single process) from
the checkout's ``src/`` and drives it from this process over keep-alive
HTTP connections in a closed loop.  ``--trace 0`` reports the end-to-end
metrics of an untraced pass; ``--trace 1`` runs an untraced and a traced
pass of ``--seconds`` each and reports the per-layer metrics of the
traced one plus the tracing overhead.  Every answer is checked against
the library's in-process answer after the timed window; the last line of
standard output is one JSON object, and a wrong answer makes the exit
code 1.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Client, Server  # noqa: E402

#: server set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: ``--trace 0`` metrics, in BENCHMARK.json order, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("instances_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
)


@dataclass
class PassResult:
    """One server's timed window: records, stats snapshots and spans."""

    setup_s: list
    records: list
    window_s: float
    window: tuple
    stats: tuple
    metrics: tuple
    rss_peak_mb: float
    warm_records: list
    final_state: dict = field(default_factory=dict)
    spans: list | None = None


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: p99, or the highest percentile with 10 samples beyond it.

    With too few samples for that percentile to sit above the median, the
    maximum is reported (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    if index < n // 2:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n


def start_and_setup(workload, workdir: Path, index: int, *, traced: bool) -> tuple:
    """Spawn a server, register the lineages and warm every engine."""
    from workloads import Record

    state_dir = workdir / f"state-{index}" if workload.needs_state_dir else None
    spans_path = workdir / f"spans-{index}.pkl"
    server = Server(workdir, state_dir=state_dir, traced=traced, spans_path=spans_path)
    client = Client(server)
    try:
        for lineage in workload.lineages:
            status, reply = client.call("POST", "/v2/datasets", lineage.registration())
            if status != 200:
                raise RuntimeError(f"registering {lineage.name} answered {status}: {reply}")
            lineage.fingerprint = reply["fingerprint"]
        warm = []
        for query in workload.warm_queries():
            t0 = time.perf_counter()
            status, reply = client.call("POST", "/v2/explain", query.body(), f"warm-{len(warm)}")
            warm.append(Record(query, status, reply, t0, time.perf_counter(), ""))
        setup_s = time.perf_counter() - server.started
    except BaseException:
        client.close()
        server.stop()
        raise
    client.close()
    return server, setup_s, state_dir, spans_path, warm


def closed_loop(workload, server: Server, seconds: float) -> tuple[list, float, tuple]:
    """Drive *server* from ``workload.connections`` closed-loop callers."""
    from workloads import Mutation, Record

    records: list[list] = [[] for _ in range(workload.connections)]
    barrier = threading.Barrier(workload.connections + 1)
    window = {}

    def caller(index: int) -> None:
        client = Client(server)
        stream = workload.stream(index)
        out = records[index]
        barrier.wait()
        deadline = window["start"] + seconds
        count = 0
        try:
            while time.perf_counter() < deadline:
                op = next(stream)
                body = op.body()
                if isinstance(op, Mutation):
                    verb = "POST" if op.add else "DELETE"
                    path = f"/v2/datasets/{op.lineage.fingerprint}/points"
                else:
                    verb, path = "POST", "/v2/explain"
                request_id = f"c{index}-{count}"
                count += 1
                t0 = time.perf_counter()
                try:
                    status, reply = client.call(verb, path, body, request_id)
                except (OSError, ValueError) as exc:
                    status, reply = 0, f"transport error: {exc}"
                    client.close()
                    client = Client(server)
                out.append(Record(op, status, reply, t0, time.perf_counter(), request_id))
        finally:
            client.close()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(workload.connections)]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    flat = [record for per in records for record in per]
    end = max((r.end for r in flat), default=window["start"])
    return flat, end - window["start"], (window["start"], end)


def snapshot(server: Server) -> tuple[dict, dict]:
    """``(/v2/stats, parsed /metrics)`` of a running server."""
    client = Client(server)
    try:
        stats = client.json("GET", "/v2/stats")
        status, text = client.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return stats, harness.prometheus_values(text)
    finally:
        client.close()


def final_state(workload, server: Server, state_dir: Path | None) -> dict:
    """The mutation workload's end state: description and a probe batch."""
    if workload.name != "mutations":
        return {}
    import numpy as np

    lineage = workload.lineages[0]
    client = Client(server)
    try:
        describe = client.json("GET", f"/v2/datasets/{lineage.fingerprint}")
        probe = np.random.default_rng([workload.seed, 7]).integers(0, 2, size=(64, 64))
        reply = client.json("POST", "/v2/explain", {
            "fingerprint": lineage.fingerprint, "method": "classify",
            "params": {"k": 3}, "instances": probe.tolist()})
    finally:
        client.close()
    return {"describe": describe, "state_dir": state_dir,
            "probe": {"instances": probe.astype(float), "results": reply["results"]}}


def run_pass(workload, seconds: float, workdir: Path, *, traced: bool, setups: int) -> PassResult:
    """Set up *setups* servers (keeping the last), then run the timed window."""
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    setup_times = []
    for index in range(setups):
        server, setup_s, state_dir, spans_path, warm = start_and_setup(
            workload, workdir, index, traced=traced)
        setup_times.append(setup_s)
        if index < setups - 1:
            server.stop()
    try:
        before = snapshot(server)
        records, window_s, window = closed_loop(workload, server, seconds)
        after = snapshot(server)
        rss = server.rss_peak_mb()
        state = final_state(workload, server, state_dir)
    finally:
        server.stop()
    spans = None
    if traced:
        with open(spans_path, "rb") as handle:
            spans = pickle.load(handle)
    return PassResult(setup_times, records, window_s, window, (before[0], after[0]),
                      (before[1], after[1]), rss, warm, state, spans)


# -- correctness ------------------------------------------------------------


def strip_provenance(payload):
    """A payload without its timing-dependent ``provenance`` record."""
    if isinstance(payload, dict):
        return {k: v for k, v in payload.items() if k != "provenance"}
    return payload


def corrupt(payload: dict) -> dict:
    """A deliberately wrong copy of a reference payload (smoke test)."""
    key = sorted(payload)[0]
    return {**payload, key: ["corrupted", payload[key]]}


def verify(workload, records: list, *, corrupt_reference: bool = False) -> None:
    """Check every record; appends failure messages to ``record.failures``."""
    from workloads import Mutation, Query

    for record in records:
        if record.status != 200:
            record.failures.append(f"HTTP {record.status}: {str(record.reply)[:200]}")
        elif isinstance(record.op, Mutation) and record.reply.get("version") != record.op.version:
            record.failures.append(
                f"mutation answered version {record.reply.get('version')}, "
                f"expected {record.op.version}")
    checked = [r for r in records if isinstance(r.op, Query) and r.status == 200]
    expected = workload.expected([r.op for r in checked],
                                 [r.op for r in records if isinstance(r.op, Mutation)])
    if corrupt_reference and expected:
        expected[0] = [corrupt(expected[0][0])] + expected[0][1:]
    for record, want in zip(checked, expected):
        results = record.reply.get("results", [])
        if len(results) != len(want):
            record.failures.append(f"{len(results)} results for {len(want)} instances")
            continue
        for i, (item, payload) in enumerate(zip(results, want)):
            got = strip_provenance(item.get("result"))
            if isinstance(got, dict) and "error" in got:
                record.failures.append(f"instance {i}: error payload {got['error']}")
            elif got != payload:
                record.failures.append(
                    f"instance {i}: {record.op.method} answered {str(got)[:160]}, "
                    f"reference {str(payload)[:160]}")
                break


# -- metrics ----------------------------------------------------------------


def end_to_end(workload, result: PassResult) -> tuple[dict, dict]:
    """``({metric: value}, {note: ...})`` of one untraced pass."""
    from workloads import Mutation

    queries = [r for r in result.records if not isinstance(r.op, Mutation)]
    latencies = [1000.0 * (r.end - r.start) for r in queries]
    tail, tail_pct = percentile_tail(latencies)
    instances = sum(r.op.instances.shape[0] for r in queries)
    values = {
        "setup_s": statistics.median(result.setup_s),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": tail,
        "throughput_rps": len(result.records) / result.window_s,
        "instances_per_s": instances / result.window_s,
        "rss_peak_mb": result.rss_peak_mb,
    }
    notes = {"latency_samples": len(latencies), "latency_tail_percentile": tail_pct}
    for lineage in workload.lineages:
        mine = [r for r in queries if r.op.lineage is lineage]
        if mine:
            notes[f"client_us_per_instance.{lineage.name}"] = 1e6 * sum(
                r.end - r.start for r in mine) / sum(r.op.instances.shape[0] for r in mine)
    mutations = [r for r in result.records if isinstance(r.op, Mutation)]
    if mutations:
        mut = [1000.0 * (r.end - r.start) for r in mutations]
        mut_tail, mut_pct = percentile_tail(mut)
        notes.update({"mutation_p50_ms": statistics.median(mut), "mutation_p99_ms": mut_tail,
                      "mutation_samples": len(mut), "mutation_tail_percentile": mut_pct})
    return values, notes


def phase_line(workload, phase: str, records: list) -> dict:
    """Sent / succeeded / failed counts and the measured repeat share."""
    from workloads import Query

    failed = sum(1 for r in records if r.failures)
    queries = [r for r in records if isinstance(r.op, Query)]
    repeats = sum(1 for r in queries if r.op.repeat)
    return {"workload": workload.name, "phase": phase, "sent": len(records),
            "succeeded": len(records) - failed, "failed": failed,
            "repeat_share": repeats / len(queries) if queries else 0.0}


def print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")


# -- driver -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 *, scale: float = 1.0, setups: int = SETUPS,
                 corrupt_reference: bool = False) -> dict:
    """One workload run; returns ``{"correct", "attempted", "failed", "metrics", ...}``."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    units = dict(END_TO_END)
    if not trace:
        result = run_pass(workload, seconds, workdir, traced=False, setups=setups)
        passes = [("measure", result)]
        values, notes = end_to_end(workload, result)
        metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END}
    else:
        import layers

        plain = run_pass(workload, seconds, workdir, traced=False, setups=1)
        traced = run_pass(workload, seconds, workdir, traced=True, setups=1)
        passes = [("untraced", plain), ("traced", traced)]
        base, notes = end_to_end(workload, plain)
        over, _ = end_to_end(workload, traced)
        metrics = layers.per_layer(workload, traced, base, over, notes)
    failures = []
    for phase, result in passes:
        verify(workload, result.warm_records)
        verify(workload, result.records, corrupt_reference=corrupt_reference)
        if result.final_state:
            failures += workload.final_checks(result.final_state)
        for part, records in (("setup", result.warm_records), (phase, result.records)):
            print(json.dumps(phase_line(workload, part, records)))
    attempted = sum(len(r.records) for _, r in passes)
    failed = sum(1 for _, r in passes for rec in r.records if rec.failures)
    failed += sum(1 for _, r in passes for rec in r.warm_records if rec.failures)
    for _, r in passes:
        for rec in r.records + r.warm_records:
            for message in rec.failures[:1]:
                print(f"WRONG {workload.name} {rec.request_id}: {message}")
    for message in failures:
        print(f"WRONG {workload.name} final state: {message}")
    failed += len(failures)
    print(f"  error_rate {failed / max(1, attempted):.6g} (failures/attempts)")
    for key, value in notes.items():
        print(f"  {key} {value:.6g}")
    print_table(f"{workload.name} {'per-layer (traced)' if trace else 'end-to-end'}",
                {k: v["value"] for k, v in metrics.items()},
                {k: v["unit"] for k, v in metrics.items()})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {harness.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with harness.workspace() as workdir:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
                   for name in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
