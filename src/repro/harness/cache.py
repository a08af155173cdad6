"""On-disk content-addressed result cache for simulation runs.

Every seeded run is deterministic, so its full measurement record is a
pure function of (its :class:`~repro.harness.runner.RunSpec`, simulator
source).  The cache exploits that: a run's
:class:`~repro.sim.trace.FlowStats` records are stored under
``.repro-cache/`` keyed by

    payload_key(spec.to_dict())  # after schema, source-tree digest

where the source-tree digest hashes every ``.py`` file under the
installed ``repro`` package.  Re-running an unchanged benchmark is a
cache hit; *any* source edit changes the digest and invalidates every
entry cleanly (stale entries are simply never addressed again).

An entry is one line of JSON (the schema, each flow's scalars and
series lengths, the optional metrics snapshot) followed by the raw
little-endian bytes of every flow's per-sample series.  Both are exact
— ``json`` writes a float as the shortest repr that reads back to the
same double — so a cache round-trip is byte-identical to recomputation
and the determinism digest gate (``repro.devtools.trace_digest``)
cannot tell them apart; key payloads are plain JSON the same way.  A
corrupt or truncated entry is a miss and is recomputed, never an error;
on first detection the torn file is **quarantined** (moved aside to
``<key>.corrupt``) so every later run under the same key is a clean
miss, not a re-read/re-parse/re-fail cycle.  Quarantines are counted in
:meth:`ResultCache.stats`.

The cache is opt-in: set ``REPRO_CACHE=1`` (and optionally
``REPRO_CACHE_DIR``), or call :func:`enable_cache` programmatically.
``repro attack`` enables it by default.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
from array import array
from pathlib import Path
from typing import Any, Iterable

from ..sim.trace import FlowStats

SCHEMA_VERSION = 7
_TMP_SEQ = itertools.count()  # per-process suffix of store_run()'s temp names

# ----------------------------------------------------------------------
# Source-tree digest
# ----------------------------------------------------------------------
_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """sha256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process (hashing ~150 files per ``run_flows`` call
    would dwarf small runs); tests poke :func:`reset_source_digest_cache`
    after editing files.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(path.relative_to(package_root).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _SOURCE_DIGEST = hasher.hexdigest()
    return _SOURCE_DIGEST


def reset_source_digest_cache() -> None:
    """Forget the memoised source digest (test hook)."""
    global _SOURCE_DIGEST
    _SOURCE_DIGEST = None


# ----------------------------------------------------------------------
# Entry (de)serialisation — exact: JSON scalars, raw series bytes
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _key_prefix(schema: int, source: str) -> Any:
    """A ``sha256`` that has hashed the schema version and source digest."""
    return hashlib.sha256(f"{schema}\0{source}\0".encode())


def payload_key(payload: dict) -> str:
    """Content address of a canonicalised payload (incl. source digest).

    The single key derivation shared by the result cache and the sweep
    manifests of :mod:`repro.harness.supervise`: ``sha256`` over the
    schema version and the source-tree digest, then the canonical JSON
    of ``payload``.  The prefix is hashed once per (schema, source) and
    each key copies that state, so a key encodes only its payload.
    ``json`` writes every float as its shortest exact repr, so two
    payloads that differ by one ULP get different keys.
    """
    hasher = _key_prefix(SCHEMA_VERSION, source_digest()).copy()
    hasher.update(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr).encode()
    )
    return hasher.hexdigest()


# Every flow's series, in body order, with the header field holding its length.
_SERIES = (
    ("ack_times", "d", "n_acks"),
    ("acked_total", "q", "n_acks"),
    ("rtts", "d", "n_acks"),
    ("loss_times", "d", "n_losses"),
)


def _pack(series: array) -> bytes:
    """The series' little-endian bytes (raw doubles / int64)."""
    if sys.byteorder == "big":
        series = array(series.typecode, series)
        series.byteswap()
    return series.tobytes()


def _flow_header(stats: FlowStats) -> dict:
    return {
        "flow_id": stats.flow_id,
        "start_time": float(stats.start_time),
        "end_time": stats.end_time,
        "total_acked_bytes": stats.total_acked_bytes,
        "delivered_bytes": stats.delivered_bytes,
        "first_delivery": stats.first_delivery,
        "last_delivery": stats.last_delivery,
        "packets_sent": stats.packets_sent,
        "n_acks": len(stats.ack_times),
        "n_losses": len(stats.loss_times),
    }


def encode_entry(stats: Iterable[FlowStats], metrics: dict | None = None) -> bytes:
    """A cache entry: one JSON header line, then every flow's series bytes.

    ``json.dumps`` escapes newlines, so the first ``\\n`` ends the header.
    """
    flows = []
    body = []
    for flow in stats:
        flows.append(_flow_header(flow))
        body.extend(_pack(getattr(flow, name)) for name, _, _ in _SERIES)
    header: dict = {"schema": SCHEMA_VERSION, "stats": flows}
    if metrics is not None:
        header["metrics"] = metrics
    return b"".join([json.dumps(header).encode(), b"\n", *body])


def decode_entry(data: bytes) -> tuple[list[FlowStats], dict | None]:
    """Inverse of :func:`encode_entry`: ``(stats, metrics snapshot or None)``.

    Raises ValueError, KeyError, TypeError or OverflowError unless
    ``data`` is an entry of the current :data:`SCHEMA_VERSION` whose body
    holds exactly the bytes its header's ``n_acks`` / ``n_losses``
    announce, and whose every ``acked_total`` series ends at its flow's
    ``total_acked_bytes``.
    """
    end = data.index(b"\n")  # ValueError when there is no header line
    header = json.loads(data[:end])
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"not a schema-{SCHEMA_VERSION} entry")
    snapshot = header.get("metrics")
    if snapshot is not None and not isinstance(snapshot, dict):
        raise TypeError("metrics snapshot must be a dict")
    body = memoryview(data)[end + 1:]
    offset = 0
    stats = []
    for flow in header["stats"]:
        rebuilt = FlowStats(flow_id=flow["flow_id"])
        rebuilt.start_time = flow["start_time"]
        rebuilt.end_time = flow["end_time"]
        rebuilt.total_acked_bytes = flow["total_acked_bytes"]
        rebuilt.delivered_bytes = flow["delivered_bytes"]
        rebuilt.first_delivery = flow["first_delivery"]
        rebuilt.last_delivery = flow["last_delivery"]
        rebuilt.packets_sent = flow["packets_sent"]
        for name, typecode, length_field in _SERIES:
            count = flow[length_field]
            series = array(typecode)
            series.frombytes(body[offset:offset + 8 * count])
            if len(series) != count:
                raise ValueError("entry body is shorter than its header says")
            if sys.byteorder == "big":
                series.byteswap()
            setattr(rebuilt, name, series)
            offset += 8 * count
        totals = rebuilt.acked_total
        if (totals[-1] if totals else 0) != rebuilt.total_acked_bytes:
            raise ValueError("acked_total does not end at total_acked_bytes")
        stats.append(rebuilt)
    if offset != len(body):
        raise ValueError("entry body is longer than its header says")
    return stats, snapshot


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class NotCached(BaseException):
    """A replay-only run reached the point where it would simulate live.

    :func:`repro.harness.runner.run_flows` raises it while the active
    cache's :attr:`ResultCache.replay_only` flag is set, on a miss or an
    observed run, before it builds anything.  It derives from
    ``BaseException`` so that no ``except Exception`` between the run
    and the replaying caller mistakes it for the workload's own failure.
    """


class ResultCache:
    """Content-addressed store of run results under ``root``.

    Entries are one file per key at ``root/<k[:2]>/<k>.json`` in the
    layout of :func:`encode_entry` (the two-char fan-out keeps
    directories small on big sweeps).  Writes are atomic (a temp file
    per write + rename) so neither a crash nor a racing store of the
    same key leaves a torn entry.  One that is corrupt anyway (full
    disk, hand edit, ...) is quarantined to ``<key>.corrupt`` on first
    read so it is detected once, not on every subsequent run.

    While ``replay_only`` is set, a run the cache cannot answer raises
    :class:`NotCached` instead of simulating (see
    :mod:`repro.harness.parallel`, which sets it around a batch's cached
    prefix).
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
        self.root = Path(root)
        self._dir = os.fspath(self.root) + os.sep
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.replay_only = False

    def stats(self) -> dict:
        """Counter snapshot: hits, misses, stores, quarantined.

        The counters are per process: lookups made in pool workers count
        in the workers' copies, not here.  A replay-only lookup that
        fails counts as a miss, even though a worker then runs and
        stores the same key.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    # -- keys ----------------------------------------------------------
    def key_for(self, payload: dict) -> str:
        """Content address of a canonicalised scenario payload."""
        return payload_key(payload)

    def _path(self, key: str) -> str:
        """``root/<k[:2]>/<k>.json`` as a string (a hit joins no Path)."""
        return f"{self._dir}{key[:2]}{os.sep}{key}.json"

    def _quarantine(self, path: str) -> None:
        """Move the corrupt entry at ``path`` aside to ``<key>.corrupt``.

        The original path then reads as a clean miss (and a recompute
        heals it with a fresh store); the quarantined file is kept for
        post-mortems rather than deleted.
        """
        try:
            os.replace(path, path[: -len(".json")] + ".corrupt")
        except OSError:
            return  # already gone (e.g. a racing run quarantined it)
        self.quarantined += 1

    # -- runs ----------------------------------------------------------
    def load_run(self, key: str) -> tuple[list[FlowStats], dict | None] | None:
        """Rebuilt stats plus the stored metrics snapshot for ``key``.

        ``(stats, snapshot)`` on a hit (``snapshot`` None when none was
        stored); None on a miss or a corrupt entry, which is quarantined.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.misses += 1
            return None  # missing or unreadable: a plain miss
        try:
            run = decode_entry(data)
        except (KeyError, TypeError, ValueError, OverflowError):
            self._quarantine(path)
            self.misses += 1
            return None  # corrupt entry: quarantined, fall back to recompute
        self.hits += 1
        return run

    def store_run(
        self,
        key: str,
        stats: Iterable[FlowStats],
        metrics: dict | None = None,
    ) -> None:
        """Store a run's stats and (optionally) its metrics snapshot."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path[: -len('.json')]}.{os.getpid()}-{next(_TMP_SEQ)}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(encode_entry(stats, metrics))
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)  # still there only if the write failed
        self.stores += 1


# ----------------------------------------------------------------------
# Active-cache plumbing (consulted by repro.harness.runner.run_flows)
# ----------------------------------------------------------------------
_UNSET: Any = object()
_ACTIVE: ResultCache | None = _UNSET
_ENV_CACHE: ResultCache | None = None


def active_cache() -> ResultCache | None:
    """The cache ``run_flows`` should consult, or None.

    Priority: an explicit :func:`enable_cache`/:func:`disable_cache`
    call, then the ``REPRO_CACHE`` environment variable.
    """
    global _ENV_CACHE
    if _ACTIVE is not _UNSET:
        return _ACTIVE
    if os.environ.get("REPRO_CACHE", "") in ("", "0"):
        return None
    if _ENV_CACHE is None:
        _ENV_CACHE = ResultCache()
    return _ENV_CACHE


def enable_cache(root: str | Path | None = None) -> ResultCache:
    """Activate result caching for this process; returns the cache."""
    global _ACTIVE
    _ACTIVE = ResultCache(root)
    return _ACTIVE


def disable_cache() -> None:
    """Deactivate result caching (overrides ``REPRO_CACHE``)."""
    global _ACTIVE
    _ACTIVE = None


def reset_cache_state() -> None:
    """Back to env-driven defaults (test hook)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = _UNSET
    _ENV_CACHE = None
