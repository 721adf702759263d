"""Durable streaming datasets: mutation WAL, snapshots, replay-on-boot.

Everything the serving layer holds — dataset lineages, their ``@vN``
version history, warm engines — is process-lifetime state; this module
is what survives a crash.  A :class:`DurableStore` owns one **state
directory** with one subdirectory per dataset lineage (named by the
lineage's base content fingerprint)::

    state-dir/
      <base fingerprint, 64 hex>/
        wal.jsonl           append-only mutation log (one record/line)
        snapshot-v<N>.pkl   periodic dataset(+engine) snapshot

**The WAL** is an append-only JSON-lines file.  The first record of a
lineage is its ``register`` record (the full registered contents, so a
WAL with no snapshot still restores); every applied add/remove batch
appends one ``add``/``remove`` record carrying the batch, the version
it creates, and the SHA-256 content hash of the *folded* dataset after
the batch.  Each line embeds a checksum over its own canonical JSON, is
flushed and ``fsync``'d before the in-memory version bump — a mutation
is acknowledged only after it is durable — and the fsync latency feeds
the ``repro_wal_fsync_seconds`` metric.  When the register record
creates the WAL file, the lineage and state directories are fsync'd as
well, so the new entries survive power loss and not only a crash.

**Snapshots** are atomic (unique temp file + ``os.replace``) pickles of
the dataset at one version, written every ``snapshot_every`` mutations,
optionally with the lineage's warm engines riding along (pickled per
metric) so a restart boots warm.  After a snapshot lands, the WAL is
**compacted**: records the snapshot covers are dropped (atomically, by
rewrite) and snapshots older than ``keep_snapshots`` are deleted.  Each
``os.replace`` is followed by an fsync of the lineage directory, so the
renamed entry is durable before the next step relies on it.

**Restore** (:meth:`DurableStore.restore` / ``restore_all``) replays the
newest loadable snapshot plus the WAL tail.  The recovery contract:

* every record's checksum and version continuity is verified; a
  truncated or corrupt tail **degrades to the last good record** with a
  structured warning — it never crashes the boot;
* the restored dataset's content hash must equal the hash the last
  applied record committed to — the same snapshot == functional-fold
  fingerprint invariant the streaming fuzz harness pins
  (``tests/test_fuzz_parity.py``), checked bit-for-bit here;
* an empty state directory restores to an empty registry, and a
  lineage with neither a loadable snapshot nor a register record is
  reported (structured error) and skipped.

`docs/operations.md` is the operator-facing companion: state-dir
layout, retention knobs, and the kill-and-restore walkthrough.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ..exceptions import DurabilityError
from ..knn.dataset import Dataset
from ..knn.multiclass_data import MultiClassDataset
from .cache import dataset_fingerprint, versioned_fingerprint
from .metrics import MetricsRegistry, StructuredLogger

#: WAL filename inside each lineage directory.
WAL_NAME = "wal.jsonl"

#: snapshot filename pattern (``N`` is the dataset version it captures).
SNAPSHOT_PATTERN = "snapshot-v{version}.pkl"

#: record kinds a WAL may legally contain.
RECORD_OPS = ("register", "add", "remove")


def _fsync_directory(path: Path) -> None:
    """fsync a directory, making the entries created or renamed in it durable.

    A file's own fsync does not persist its directory entry: after power
    loss a freshly created file, or an ``os.replace`` onto an old name,
    can vanish unless the parent directory is synced too (Pillai et al.,
    OSDI'14).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _record_checksum(record: dict) -> str:
    """SHA-256 over the canonical JSON of *record* (checksum field excluded)."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _dataset_payload(dataset) -> dict:
    """JSON-able full contents of *dataset* (the ``register`` record body).

    Multiclass lineages carry a ``"kind": "multiclass"`` tag plus their
    canonical row stack (points, per-row integer labels and
    multiplicities in class-ascending, insertion order); binary ones
    keep the original untagged positives/negatives shape, so WALs
    written before multiclass serving existed replay unchanged.
    """
    if isinstance(dataset, MultiClassDataset):
        return {
            "kind": "multiclass",
            "points": dataset.points.tolist(),
            "labels": dataset.row_labels.tolist(),
            "multiplicities": dataset.multiplicities.tolist(),
            "discrete": bool(dataset.discrete),
        }
    return {
        "positives": dataset.positives.tolist(),
        "negatives": dataset.negatives.tolist(),
        "positive_multiplicities": dataset.positive_multiplicities.tolist(),
        "negative_multiplicities": dataset.negative_multiplicities.tolist(),
        "discrete": bool(dataset.discrete),
    }


def _dataset_from_payload(payload: dict) -> Dataset | MultiClassDataset:
    """Rebuild either dataset kind from a ``register`` record body."""
    if payload.get("kind") == "multiclass":
        return MultiClassDataset(
            np.asarray(payload["points"], dtype=float),
            np.asarray(payload["labels"], dtype=np.int64),
            multiplicities=payload["multiplicities"],
            discrete=bool(payload["discrete"]),
        )
    return Dataset(
        np.asarray(payload["positives"], dtype=float),
        np.asarray(payload["negatives"], dtype=float),
        positive_multiplicities=payload["positive_multiplicities"],
        negative_multiplicities=payload["negative_multiplicities"],
        discrete=bool(payload["discrete"]),
    )


@dataclass
class RestoredLineage:
    """One lineage as reconstructed from disk by :meth:`DurableStore.restore`.

    ``dataset``/``version`` are the recovered state (``None`` dataset
    means the lineage was unrecoverable); ``engines`` maps metric names
    to unpickled warm :class:`~repro.knn.QueryEngine` objects when the
    loaded snapshot was current and carried them; ``replayed`` counts
    WAL records applied on top of the snapshot; ``truncated`` is True
    when a damaged tail was dropped, with ``warning`` holding the
    structured reason.
    """

    base: str
    dataset: Dataset | None
    version: int = 0
    engines: dict = field(default_factory=dict)
    replayed: int = 0
    truncated: bool = False
    warning: str | None = None

    @property
    def fingerprint(self) -> str:
        """The restored ``<fp>@vN`` versioned fingerprint."""
        return versioned_fingerprint(self.base, self.version)


class _Lineage:
    """Store-internal per-lineage handle: paths plus the open WAL file."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.wal_path = directory / WAL_NAME
        self.handle = None  # lazily opened append handle

    def open(self):
        """The append-mode WAL handle, opened on first use."""
        if self.handle is None:
            self.handle = open(self.wal_path, "ab")
        return self.handle

    def close(self) -> None:
        """Close the WAL handle (reopened automatically when appended to)."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None


class DurableStore:
    """The write side and boot side of the durability layer.

    Parameters
    ----------
    root:
        the state directory (created if missing).  One subdirectory per
        lineage, named by the base content fingerprint.
    snapshot_every:
        mutations between snapshots (and WAL compactions).  ``0``
        disables periodic snapshots — the WAL alone still restores.
    keep_snapshots:
        snapshot files retained per lineage after a new one lands.
    fsync:
        whether WAL appends and snapshot writes are ``fsync``'d.
        Leave True in production; tests may disable it for speed.
    metrics:
        optional :class:`~repro.serve.metrics.MetricsRegistry` receiving
        the WAL/snapshot series (a private registry is created
        otherwise, so the counters always exist).
    logger:
        optional :class:`~repro.serve.metrics.StructuredLogger` for the
        recovery warnings; silent when omitted.
    """

    def __init__(
        self,
        root,
        *,
        snapshot_every: int = 64,
        keep_snapshots: int = 2,
        fsync: bool = True,
        metrics: MetricsRegistry | None = None,
        logger: StructuredLogger | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = max(0, int(snapshot_every))
        self.keep_snapshots = max(1, int(keep_snapshots))
        self.fsync = bool(fsync)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = logger if logger is not None else StructuredLogger(None, component="durability")
        self._lineages: dict[str, _Lineage] = {}
        self._lock = threading.Lock()
        self._appends = 0
        self._snapshots = 0
        self._compactions = 0
        self._restores = 0
        self._truncated_tails = 0
        self._fsync_s = 0.0
        self._fsync_hist = self.metrics.histogram(
            "repro_wal_fsync_seconds",
            "Latency of one fsync'd WAL append (write + flush + fsync).",
        )
        self._append_counter = self.metrics.counter(
            "repro_wal_appends_total", "WAL records appended.", ("op",)
        )
        self._snapshot_counter = self.metrics.counter(
            "repro_snapshots_total", "Lineage snapshots written."
        )

    # -- write path ------------------------------------------------------

    def _lineage(self, base: str) -> _Lineage:
        """The (created-on-demand) handle of one lineage directory."""
        with self._lock:
            lineage = self._lineages.get(base)
            if lineage is None:
                directory = self.root / base
                directory.mkdir(parents=True, exist_ok=True)
                lineage = self._lineages[base] = _Lineage(directory)
            return lineage

    def has_lineage(self, base: str) -> bool:
        """Whether *base* already has durable state on disk."""
        return (self.root / base / WAL_NAME).exists()

    def register(self, base: str, dataset: Dataset) -> None:
        """Make a fresh registration durable (idempotent).

        Appends the lineage's ``register`` record — the full dataset
        contents at version 0 — unless the lineage already has a WAL,
        in which case re-registering bit-identical data is a no-op
        (matching :meth:`ExplanationService.add_dataset
        <repro.serve.service.ExplanationService.add_dataset>`).
        """
        if self.has_lineage(base):
            return
        record = {
            "op": "register",
            "version": 0,
            "content": base,
            "dataset": _dataset_payload(dataset),
        }
        self._append(base, record)

    def append_mutation(
        self, base: str, version: int, op: str, folded: Dataset,
        points, labels, multiplicities,
    ) -> None:
        """Durably log one applied mutation batch *before* the version bump.

        ``version`` is the version the batch **creates** (old + 1);
        ``folded`` is the post-batch dataset, whose content hash the
        record commits to — restore verifies replay reproduces exactly
        this hash.  Raises :class:`~repro.exceptions.DurabilityError`
        on any I/O failure, in which case the caller must leave the
        in-memory state untouched (the mutation never happened).
        """
        if op not in ("add", "remove"):
            raise DurabilityError(f"unknown WAL op {op!r}")
        mult = None if multiplicities is None else np.asarray(multiplicities).tolist()
        record = {
            "op": op,
            "version": int(version),
            "content": dataset_fingerprint(folded),
            "points": np.asarray(points, dtype=float).tolist(),
            "labels": np.asarray(labels).astype(int).tolist(),
            "multiplicities": mult,
        }
        self._append(base, record)

    def _append(self, base: str, record: dict) -> None:
        """Checksum, write, flush and fsync one WAL record."""
        record["checksum"] = _record_checksum(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        lineage = self._lineage(base)
        start = perf_counter()
        try:
            # Only the first append of a process can create the WAL file.
            created = lineage.handle is None and not lineage.wal_path.exists()
            handle = lineage.open()
            handle.write(line.encode("utf-8"))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
                if created:
                    # The new file's entry, and the lineage directory's own
                    # entry in the state directory.
                    _fsync_directory(lineage.directory)
                    _fsync_directory(self.root)
        except OSError as exc:
            raise DurabilityError(
                f"WAL append failed for lineage {base[:16]}...: {exc}"
            ) from exc
        elapsed = perf_counter() - start
        self._fsync_hist.observe(elapsed)
        self._append_counter.labels(op=record["op"]).inc()
        with self._lock:
            self._appends += 1
            self._fsync_s += elapsed

    def snapshot(
        self, base: str, dataset: Dataset, version: int, engine_blobs: dict | None = None
    ) -> Path:
        """Write one atomic snapshot of (*dataset*, *version*) and compact.

        ``engine_blobs`` optionally maps metric names to pickled warm
        engines (serialized by the caller under its engine locks).  The
        snapshot is written to a unique temp file and ``os.replace``'d
        into place, so a crash mid-write never damages an older
        snapshot; afterwards the WAL is compacted to the records the
        snapshot does not cover and old snapshots beyond
        ``keep_snapshots`` are removed.
        """
        lineage = self._lineage(base)
        payload = {
            "version": int(version),
            "content": dataset_fingerprint(dataset),
            "dataset": dataset,
            "engines": dict(engine_blobs or {}),
        }
        path = lineage.directory / SNAPSHOT_PATTERN.format(version=int(version))
        tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self.fsync:
                _fsync_directory(lineage.directory)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise DurabilityError(
                f"snapshot write failed for lineage {base[:16]}...: {exc}"
            ) from exc
        self._snapshot_counter.inc()
        with self._lock:
            self._snapshots += 1
        self._compact(base, covered_version=int(version))
        return path

    def snapshot_due(self, version: int) -> bool:
        """Whether *version* hits the ``snapshot_every`` cadence.

        A pure check so callers can decide before paying the snapshot's
        serialization cost (the service pickles its warm engines only
        when a snapshot is actually due).
        """
        if self.snapshot_every <= 0 or version <= 0:
            return False
        return version % self.snapshot_every == 0

    def _compact(self, base: str, covered_version: int) -> None:
        """Drop WAL records (and old snapshots) a new snapshot covers.

        The WAL is rewritten atomically to only the records with
        ``version > covered_version``; damaged lines are dropped with
        the same tolerance as restore (they are unreplayable anyway).
        """
        lineage = self._lineage(base)
        records, _ = self._read_records(base)
        tail = [r for r in records if r["version"] > covered_version]
        lineage.close()
        tmp = lineage.wal_path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        with open(tmp, "wb") as handle:
            for record in tail:
                line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                handle.write(line.encode("utf-8"))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, lineage.wal_path)
        if self.fsync:
            _fsync_directory(lineage.directory)
        for path in sorted(
            lineage.directory.glob("snapshot-v*.pkl"),
            key=self._snapshot_version,
        )[: -self.keep_snapshots]:
            path.unlink(missing_ok=True)
        with self._lock:
            self._compactions += 1

    def retire(self, base: str) -> None:
        """Remove a lineage's durable state (dataset removal is forever)."""
        with self._lock:
            lineage = self._lineages.pop(base, None)
        if lineage is not None:
            lineage.close()
        directory = self.root / base
        if directory.exists():
            for path in directory.iterdir():
                path.unlink(missing_ok=True)
            directory.rmdir()

    # -- boot path -------------------------------------------------------

    @staticmethod
    def _snapshot_version(path: Path) -> int:
        """The version captured by a ``snapshot-v<N>.pkl`` file."""
        stem = path.name[len("snapshot-v") : -len(".pkl")]
        try:
            return int(stem)
        except ValueError:
            return -1

    def lineages(self) -> list[str]:
        """Base fingerprints with durable state under the root (sorted)."""
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir()
            and ((child / WAL_NAME).exists() or any(child.glob("snapshot-v*.pkl")))
        )

    def _read_records(self, base: str) -> tuple[list[dict], str | None]:
        """``(verified records, tail warning)`` of one lineage's WAL.

        Reads until the first damaged line — truncated JSON, checksum
        mismatch, unknown op, or non-contiguous version — and reports it
        as the warning; everything before it is returned verified.
        """
        wal_path = self.root / base / WAL_NAME
        if not wal_path.exists():
            return [], None
        records: list[dict] = []
        try:
            raw = wal_path.read_bytes()
        except OSError as exc:
            return [], f"WAL unreadable: {exc}"
        for index, line in enumerate(raw.splitlines()):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return records, f"record {index}: truncated or non-JSON line"
            if not isinstance(record, dict) or record.get("op") not in RECORD_OPS:
                return records, f"record {index}: unknown record shape"
            if record.get("checksum") != _record_checksum(record):
                return records, f"record {index}: checksum mismatch"
            if records and record["version"] != records[-1]["version"] + 1:
                return records, (
                    f"record {index}: version gap "
                    f"(v{records[-1]['version']} -> v{record['version']})"
                )
            records.append(record)
        return records, None

    def _load_snapshot(self, base: str) -> tuple[dict | None, list[str]]:
        """Newest loadable snapshot payload of *base* (or None) + warnings."""
        directory = self.root / base
        warnings: list[str] = []
        for path in sorted(
            directory.glob("snapshot-v*.pkl"), key=self._snapshot_version, reverse=True
        ):
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                dataset = payload["dataset"]
                if dataset_fingerprint(dataset) != payload["content"]:
                    raise DurabilityError("snapshot content hash mismatch")
            except Exception as exc:
                warnings.append(f"snapshot {path.name} unloadable ({exc}); trying older")
                continue
            return payload, warnings
        return None, warnings

    def restore(self, base: str) -> RestoredLineage:
        """Reconstruct one lineage: newest snapshot + verified WAL tail.

        Never raises for damaged state — the result carries
        ``truncated``/``warning`` instead, and a totally unrecoverable
        lineage comes back with ``dataset=None``.
        """
        with self._lock:
            self._restores += 1
        records, tail_warning = self._read_records(base)
        snapshot, snap_warnings = self._load_snapshot(base)
        warnings = list(snap_warnings)
        dataset: Dataset | None = None
        version = 0
        engines: dict = {}
        replayed = 0
        if snapshot is not None:
            dataset = snapshot["dataset"]
            version = int(snapshot["version"])
            tail = [r for r in records if r["version"] > version]
        else:
            # No snapshot: the whole WAL is the tail, and its first
            # record must be the lineage's register record (version 0,
            # which a ``> version`` filter would wrongly drop).
            tail = list(records)
        if dataset is None:
            if tail and tail[0]["op"] == "register":
                register, tail = tail[0], tail[1:]
                dataset = _dataset_from_payload(register["dataset"])
                if dataset_fingerprint(dataset) != register["content"]:
                    return self._report(RestoredLineage(
                        base, None,
                        warning="register record content hash mismatch",
                        truncated=True,
                    ))
                version = 0
            else:
                reason = tail_warning or "no snapshot and no register record"
                return self._report(RestoredLineage(
                    base, None, warning=f"lineage unrecoverable: {reason}",
                    truncated=True,
                ))
        for record in tail:
            if record["op"] == "register":
                warnings.append(f"unexpected register record at v{record['version']}")
                break
            if record["version"] != version + 1:
                warnings.append(
                    f"WAL tail starts at v{record['version']} but the newest "
                    f"loadable snapshot is v{version} (gap)"
                )
                break
            folder = "with_added" if record["op"] == "add" else "with_removed"
            try:
                folded = getattr(dataset, folder)(
                    record["points"], record["labels"], record["multiplicities"]
                )
            except Exception as exc:
                warnings.append(f"replay of v{record['version']} failed ({exc})")
                break
            if dataset_fingerprint(folded) != record["content"]:
                warnings.append(
                    f"replay of v{record['version']} diverged from the "
                    "committed content hash"
                )
                break
            dataset = folded
            version = record["version"]
            replayed += 1
        if snapshot is not None and replayed == 0 and not warnings:
            # The snapshot IS the current state: its warm engines are valid.
            for metric, blob in (snapshot.get("engines") or {}).items():
                try:
                    engines[metric] = pickle.loads(blob)
                except Exception as exc:  # engines are an optimization only
                    warnings.append(f"warm engine {metric!r} unloadable ({exc})")
        if tail_warning is not None:
            warnings.append(tail_warning)
        result = RestoredLineage(
            base, dataset, version, engines, replayed,
            truncated=bool(warnings),
            warning="; ".join(warnings) or None,
        )
        return self._report(result)

    def _report(self, result: RestoredLineage) -> RestoredLineage:
        """Log the structured restore outcome (warning level if degraded)."""
        if result.truncated:
            with self._lock:
                self._truncated_tails += 1
        self.log.log(
            "lineage_restored" if result.dataset is not None else "lineage_unrecoverable",
            level="warning" if result.truncated else "info",
            base=result.base[:16],
            version=result.version,
            replayed=result.replayed,
            truncated=result.truncated,
            warning=result.warning,
        )
        return result

    def restore_all(self) -> dict[str, RestoredLineage]:
        """Restore every lineage under the root (empty dir → empty dict).

        Unrecoverable lineages are included with ``dataset=None`` so the
        caller can surface them; recoverable ones carry their datasets,
        versions, and (when current) warm engines.
        """
        return {base: self.restore(base) for base in self.lineages()}

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Write/boot counters: appends, fsync seconds, snapshots, restores."""
        with self._lock:
            return {
                "appends": self._appends,
                "fsync_s": self._fsync_s,
                "snapshots": self._snapshots,
                "compactions": self._compactions,
                "restores": self._restores,
                "truncated_tails": self._truncated_tails,
                "snapshot_every": self.snapshot_every,
                "keep_snapshots": self.keep_snapshots,
            }

    def close(self) -> None:
        """Close every open WAL handle (the store stays usable)."""
        with self._lock:
            lineages = list(self._lineages.values())
        for lineage in lineages:
            lineage.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DurableStore(root={str(self.root)!r}, lineages={len(self.lineages())})"
