"""In-process span recorder wrapped around each layer's public functions.

:func:`install` replaces the public entry points of every serving layer
(HTTP front, service, result cache, engines, kernels, portfolio,
solvers, abductive/counterfactual pipelines, durability) with thin
wrappers that record one span per call: name, start, end, thread, parent
span and request id, plus a few layer-specific counts.  Nothing under
``src/`` is edited; the wrappers are installed in the server process
before it serves (see ``traced_server.py``) and the spans stay in memory
until :func:`dump` writes them out at shutdown.

Parents follow a :mod:`contextvars` variable, so a span's parent is the
innermost open span of the same thread, or of the same asyncio task for
coroutines.  The request id set by ``ExplanationHTTPServer.explain``
travels with the context into the batching loop's tasks, which is how
``asubmit`` spans learn the HTTP request they serve.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import pickle
import threading
from time import perf_counter

SPANS: list[dict] = []
_ids = itertools.count(1)
_parent: contextvars.ContextVar = contextvars.ContextVar("span_parent", default=None)
_request_id: contextvars.ContextVar = contextvars.ContextVar("request_id", default=None)
_asubmit: contextvars.ContextVar = contextvars.ContextVar("asubmit", default=None)


def _record(name, sid, parent, t0, t1, extra) -> None:
    span = {"name": name, "id": sid, "parent": parent, "t0": t0, "t1": t1,
            "tid": threading.get_ident(), "rid": _request_id.get()}
    if extra:
        span.update(extra)
    SPANS.append(span)


def wrap(owner, attr: str, name: str, *, before=None, after=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``before(args, kwargs)`` runs ahead of the call and returns a state
    object; ``after(args, kwargs, result, state)`` returns a dict of
    extra span fields (``result`` is None when the call raised).
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        sid = next(_ids)
        parent = _parent.get()
        token = _parent.set(sid)
        state = before(args, kwargs) if before is not None else None
        result = None
        t0 = perf_counter()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            _parent.reset(token)
            extra = after(args, kwargs, result, state) if after is not None else None
            _record(name, sid, parent, t0, t1, extra)

    setattr(owner, attr, wrapper)


def _wrap_explain(cls) -> None:
    """``ExplanationHTTPServer.explain``: the root span of an HTTP explain."""
    original = cls.explain

    @functools.wraps(original)
    def explain(self, fingerprint, method, instances, params, request_id=None):
        sid = next(_ids)
        parent = _parent.get()
        token = _parent.set(sid)
        rid_token = _request_id.set(request_id)
        t0 = perf_counter()
        try:
            return original(self, fingerprint, method, instances, params, request_id)
        finally:
            t1 = perf_counter()
            _record("http.explain", sid, parent, t0, t1,
                    {"instances": len(instances), "method": method})
            _parent.reset(token)
            _request_id.reset(rid_token)

    cls.explain = explain


def _wrap_asubmit(cls) -> None:
    """``ExplanationService.asubmit``: one span per instance on the loop.

    Besides start and end, the span records the request's cache key (set
    by the ``make_request`` wrapper) and ``active_end``, the end of its
    own cache lookup — after that the instance waits for a batch.
    """
    original = cls.asubmit

    @functools.wraps(original)
    async def asubmit(self, fingerprint, method, instance, **params):
        sid = next(_ids)
        parent = _parent.get()
        token = _parent.set(sid)
        state = {"key": None, "active_end": None, "hit": None}
        state_token = _asubmit.set(state)
        t0 = perf_counter()
        try:
            return await original(self, fingerprint, method, instance, **params)
        finally:
            t1 = perf_counter()
            _asubmit.reset(state_token)
            _parent.reset(token)
            _record("service.asubmit", sid, parent, t0, t1, state)

    cls.asubmit = asubmit


def _make_request_after(args, kwargs, result, state):
    pending = _asubmit.get()
    if result is not None and pending is not None and pending["key"] is None:
        pending["key"] = result.key
    return None


def _cache_get_after(args, kwargs, result, state):
    found = bool(result[0]) if result is not None else False
    pending = _asubmit.get()
    if pending is not None and pending["active_end"] is None and pending["key"] == args[1]:
        pending["active_end"] = perf_counter()
        pending["hit"] = found
    return {"hit": found, "key": args[1]}


def _submit_requests_after(args, kwargs, result, state):
    requests = args[1]
    return {"keys": [r.key for r in requests],
            "groups": {r.key: (r.fingerprint, r.method, tuple(sorted(r.params.items())))
                       for r in requests},
            "instances": len(requests)}


def _rows(args, kwargs, result, state):
    points = args[1] if len(args) > 1 else kwargs.get("points")
    shape = getattr(points, "shape", None)
    return {"instances": int(shape[0]) if shape is not None and len(shape) == 2 else 1}


def _engine_cache_before(args, kwargs):
    info = args[0].cache_info()
    return info["hits"], info["misses"]


def _engine_cache_after(args, kwargs, result, state):
    info = args[0].cache_info()
    return {"cache_hits": info["hits"] - state[0],
            "cache_misses": info["misses"] - state[1]}


def _gram_cost(args, kwargs, result, state):
    block, points = args[0], args[1]
    m, d = block.shape
    n = points.shape[0]
    out = 0 if result is None else result.nbytes
    return {"ops": 2 * m * n * d, "bytes": block.nbytes + points.nbytes + out}


def _popcount_cost(args, kwargs, result, state):
    queries, points = args[0], args[1]
    out = 0 if result is None else result.nbytes
    # one xor and one popcount-accumulate per (query, point, word)
    return {"ops": 2 * queries.size * points.shape[-1],
            "bytes": queries.nbytes + points.nbytes + out}


def _conflicts_before(args, kwargs):
    return args[0].conflicts


def _conflicts_after(args, kwargs, result, state):
    return {"conflicts": args[0].conflicts - state}


def _wrap_pool_lease(cls) -> None:
    """``SATSolverPool.lease``: one span per lease, covering its entry.

    Entering the pool's context manager takes the entry lock and, on a
    miss, builds the solver; the span covers exactly that, so the solves
    run inside the ``with`` block stay its siblings, not overlaps.
    """
    original = cls.lease

    @functools.wraps(original)
    def lease(self, key, build):
        built = []

        def counted_build():
            built.append(1)
            return build()

        manager = original(self, key, counted_build)

        class _Traced:
            def __enter__(self_inner):
                sid = next(_ids)
                parent = _parent.get()
                token = _parent.set(sid)
                t0 = perf_counter()
                try:
                    return manager.__enter__()
                finally:
                    t1 = perf_counter()
                    _parent.reset(token)
                    _record("solver_pool.lease", sid, parent, t0, t1,
                            {"built": bool(built)})

            def __exit__(self_inner, *exc):
                return manager.__exit__(*exc)

        return _Traced()

    cls.lease = lease


def _portfolio_after(args, kwargs, result, state):
    if result is None:
        return None
    return {"attempts": len(result.attempts),
            "useful": sum(1 for a in result.attempts if a.status == "exact")}


def install() -> None:
    """Wrap every traced layer's public functions; call once per process."""
    import repro.abductive as abductive
    import repro.abductive.minimum as abductive_minimum
    import repro.counterfactual as counterfactual
    import repro.counterfactual.brute as cf_brute
    import repro.counterfactual.hamming_sat as cf_sat
    import repro.counterfactual.l2 as cf_l2
    import repro.neighbors.kernels as kernels
    import repro.portfolio as portfolio
    import repro.solvers.qp as qp
    from repro.knn import MultiClassEngine, QueryEngine
    from repro.serve.cache import ResultCache
    from repro.serve.durability import DurableStore
    from repro.serve.http import ExplanationHTTPServer
    from repro.serve.service import ExplanationService
    from repro.solvers.milp import MILPModel
    from repro.solvers.sat.pool import SATSolverPool
    from repro.solvers.sat.solver import SATSolver

    _wrap_explain(ExplanationHTTPServer)
    _wrap_asubmit(ExplanationService)
    wrap(ExplanationService, "make_request", "service.make_request",
         after=_make_request_after)
    wrap(ExplanationService, "submit_requests", "service.submit_requests",
         after=_submit_requests_after)
    wrap(ExplanationService, "add_points", "service.mutate")
    wrap(ExplanationService, "remove_points", "service.mutate")

    wrap(ResultCache, "get", "cache.get", after=_cache_get_after)
    wrap(ResultCache, "put", "cache.put")
    wrap(ResultCache, "invalidate", "cache.invalidate")

    for cls, batch, single in (
        (QueryEngine, ("classify_batch", "margins_batch", "radii_batch"),
         ("classify", "margin", "radii", "powers", "neighbors")),
        (MultiClassEngine,
         ("classify_batch", "margins_batch", "radii_batch",
          "class_margins_batch", "class_radii_batch"),
         ("classify", "margin", "radii", "class_radii", "neighbors")),
    ):
        for attr in batch:
            wrap(cls, attr, "engine.batch", after=_rows)
        for attr in single:
            wrap(cls, attr, "engine.single",
                 before=_engine_cache_before, after=_engine_cache_after)
        wrap(cls, "add_points", "engine.mutation")
        wrap(cls, "remove_points", "engine.mutation")

    wrap(kernels, "gram_l2_powers", "kernels.gram_l2", after=_gram_cost)
    wrap(kernels, "gram_hamming_counts", "kernels.gram_hamming", after=_gram_cost)
    wrap(kernels, "xor_popcount_counts", "kernels.xor_popcount", after=_popcount_cost)

    wrap(portfolio, "portfolio_minimum_sufficient_reason", "portfolio.race",
         after=_portfolio_after)
    wrap(portfolio, "portfolio_closest_counterfactual", "portfolio.race",
         after=_portfolio_after)

    wrap(SATSolver, "solve", "sat.solve", before=_conflicts_before, after=_conflicts_after)
    _wrap_pool_lease(SATSolverPool)
    wrap(MILPModel, "solve", "milp.solve")
    wrap(qp, "project_onto_polyhedron", "qp.solve")
    wrap(cf_l2, "project_onto_polyhedron", "qp.solve")

    wrap(abductive, "minimal_sufficient_reason", "abductive.minimal")
    wrap(abductive, "minimum_sufficient_reason", "abductive.minimum")
    for attr in ("minimum_sufficient_reason", "minimum_sat_hamming_k1_pooled",
                 "minimum_sr_canonical_witness"):
        wrap(abductive_minimum, attr, "abductive.minimum")
    wrap(counterfactual, "closest_counterfactual", "counterfactual.closest")
    for module, attr in ((cf_sat, "closest_counterfactual_hamming_sat_pooled"),
                         (cf_sat, "counterfactual_canonical_witness"),
                         (cf_brute, "closest_counterfactual_hamming_brute")):
        wrap(module, attr, "counterfactual.closest")

    wrap(DurableStore, "append_mutation", "wal.append")
    wrap(DurableStore, "snapshot", "wal.snapshot")


def dump(path) -> None:
    """Write every recorded span to *path* (pickle)."""
    with open(path, "wb") as handle:
        pickle.dump(list(SPANS), handle, protocol=pickle.HIGHEST_PROTOCOL)
