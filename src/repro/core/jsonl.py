"""Append-only JSONL files: one dialect, and one policy for keyed files.

Every JSONL file the repo writes speaks the same dialect: one JSON object
per line written with ``sort_keys`` (so identical records are
byte-identical), appends made durable call by call (a crashed writer loses
at most its unfinished batch), and a loader that tolerates missing files,
blank lines, corrupt lines and unrecognised records by *skipping* them,
never by failing.

The keyed files — the exploration layer's
:class:`repro.explore.store.ResultStore` and the verification layer's
:class:`repro.verify.corpus.Corpus` — also share one keying policy,
implemented once by :class:`KeyedStore`: a record is kept when the
subclass's schema check accepts it and its key parses; the last record
written under a key wins; compaction and the nightly fan-in
(:meth:`KeyedStore.merge`, behind ``repro verify merge``) write sorted
canonical lines, so a compacted file merges back to itself byte for byte.
A subclass declares only its schema check, its key and its record-specific
methods.

Concurrency discipline (the serve layer's worker pool is the
multi-writer client):

* every **append** takes an exclusive advisory lock on a stable sidecar
  file (``<path>.lock`` — the data file itself is the wrong lock object,
  because compaction replaces its inode), opens the data file, writes the
  batch in one ``os.write`` (looping only on a short write), ``fsync``\\ s
  and closes it before releasing the lock, all on raw descriptors.  Two
  workers can therefore never interleave partial lines, and a crash after
  the append returns cannot lose the line;
* every **rewrite** (compaction) holds the same lock while writing a
  temporary file in the target directory and atomically ``os.replace``\\ ing
  it over the store — a reader never observes a half-written store, and an
  appender blocked on the lock reopens the *new* inode once the rewrite
  finishes (open-after-lock, see :func:`locked`);
* **reads** take no lock: appends are single whole-line writes and
  rewrites are atomic replaces, so a concurrent reader sees a clean
  prefix of complete lines at worst.  The tolerant loader plus the
  ``jsonl.skipped_lines`` telemetry below covers the residual risk.

On platforms without ``fcntl`` (Windows) the advisory lock degrades to a
no-op; appends are still written and ``fsync``\\ ed call by call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import shutil
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.obs.metrics import counter as _obs_counter

#: Process-wide count of lines every loader tolerated and dropped (corrupt
#: JSON, non-dict payloads, schema rejections) — the silent-skip telemetry.
_SKIPPED_LINES = _obs_counter("jsonl.skipped_lines")

#: Process-wide append telemetry: records written through the locked path.
_APPENDED_RECORDS = _obs_counter("jsonl.appended_records")

#: Suffix of the sidecar lock file next to every JSONL store.
LOCK_SUFFIX = ".lock"

#: Append-only, created with what ``open(path, "a")`` gives (0o666 & ~umask).
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def lock_path(path: str) -> str:
    """The sidecar advisory-lock file guarding writes to ``path``."""
    return path + LOCK_SUFFIX


@contextlib.contextmanager
def locked(path: str) -> Iterator[None]:
    """Hold the exclusive advisory lock of the JSONL store at ``path``.

    The lock lives on the ``<path>.lock`` sidecar, whose inode is stable
    across compactions (``os.replace`` swaps the data file's inode, so a
    lock on the data file would silently stop excluding writers that
    opened it before a rewrite).  Writers must *open the data file after
    acquiring the lock*, which both :func:`append_records` and
    :func:`rewrite_records` do; see the module docstring for the full
    discipline.  Reentrant use in one process deadlocks — the stores never
    nest writes.  The parent directories are made only when the sidecar
    cannot be opened for want of them, on a store's first write.
    """
    if fcntl is None:  # pragma: no cover - Windows fallback
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        yield
        return
    try:
        sidecar = os.open(lock_path(path), _APPEND_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        sidecar = os.open(lock_path(path), _APPEND_FLAGS, 0o666)
    try:
        fcntl.flock(sidecar, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(sidecar, fcntl.LOCK_UN)
        os.close(sidecar)


def dump_record(record: Dict[str, object]) -> str:
    """The canonical one-line serialisation (sorted keys, byte-stable)."""
    return json.dumps(record, sort_keys=True)


def load_records(
    path: str,
    accept: Callable[[Dict[str, object]], bool],
) -> Tuple[List[Dict[str, object]], int]:
    """Parse a JSONL file into ``(accepted_records, skipped_line_count)``.

    A missing file is an empty store.  Blank lines are ignored outright;
    lines that fail to parse, parse to a non-dict, or are rejected by
    ``accept`` (schema/shape validation) count as skipped.  ``accept`` may
    also raise ``KeyError``/``TypeError``/``ValueError`` for malformed
    records — treated as a rejection, not an error.
    """
    records: List[Dict[str, object]] = []
    skipped = 0
    if not os.path.exists(path):
        return records, skipped
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            try:
                ok = accept(record)
            except (KeyError, TypeError, ValueError):
                ok = False
            if ok:
                records.append(record)
            else:
                skipped += 1
    if skipped:
        # Tolerated-but-dropped lines are a health signal, not just a local
        # return value: a truncated shard artifact must not masquerade as a
        # clean store.  The process-wide tally surfaces through
        # repro.obs.metrics.cache_stats() and repro verify merge.
        _SKIPPED_LINES.inc(skipped)
    return records, skipped


def append_records(path: str,
                   records: Sequence[Dict[str, object]]) -> int:
    """Append a batch of records under the store lock; returns the count.

    The batch is encoded once and, under the advisory lock, written to a
    raw descriptor of the data file in **one** ``os.write`` call (looping
    only if the kernel writes short), ``fsync``\\ ed and closed before the
    lock is released — so concurrent writers can never interleave partial
    lines and a line that this call reported written survives a crash of
    the process (and, on journalling filesystems, of the machine).
    """
    if not records:
        return 0
    payload = "".join(dump_record(record) + "\n" for record in records).encode()
    with locked(path):
        handle = os.open(path, _APPEND_FLAGS, 0o666)
        try:
            written = os.write(handle, payload)
            while written < len(payload):
                written += os.write(handle, payload[written:])
            os.fsync(handle)
        finally:
            os.close(handle)
    _APPENDED_RECORDS.inc(len(records))
    return len(records)


def append_record(path: str, record: Dict[str, object]) -> None:
    """Append one record (parent directories created, locked, fsynced)."""
    append_records(path, [record])


def rewrite_records(path: str,
                    records: Iterable[Dict[str, object]]) -> int:
    """Write every record once, in order; returns the count.

    The canonical serialisation makes compaction reproducible: rewriting
    the same records twice produces byte-identical files.  The write is
    crash-safe and atomic: records land in a temporary file in the target
    directory (flushed and fsynced) which then ``os.replace``\\ s the store,
    all under the store lock — a reader never sees a partially rewritten
    file and a concurrent appender blocks until the new inode is in place.
    A rewritten file keeps its mode; a new one gets what ``open()`` gives.
    """
    count = 0
    with locked(path):
        tmp_path = f"{path}.{secrets.token_hex(8)}.tmp"
        try:
            with open(tmp_path, "x", encoding="utf-8") as handle:
                for record in records:
                    handle.write(dump_record(record) + "\n")
                    count += 1
                handle.flush()
                os.fsync(handle.fileno())
            if os.path.exists(path):
                shutil.copymode(path, tmp_path)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    return count


@dataclass
class MergeStats:
    """What one JSONL union read, kept, dropped and produced."""

    #: Per-input summaries, sorted by path: {path, records, skipped_lines}.
    inputs: List[Dict[str, object]] = field(default_factory=list)
    records_in: int = 0
    unique: int = 0
    #: Records dropped because an identical line already holds their key.
    exact_duplicates: int = 0
    #: Keys that appeared with more than one distinct payload (each counted
    #: once); resolved to the lexicographically smallest canonical line.
    conflicts: int = 0
    skipped_lines: int = 0
    #: sha256 of the merged file's bytes (byte-stability fingerprint).
    sha256: str = ""

    @property
    def clean(self) -> bool:
        """True iff nothing was silently tolerated: no skips, no conflicts."""
        return self.skipped_lines == 0 and self.conflicts == 0


class KeyedStore:
    """A keyed JSONL file with last-record-wins semantics.

    Subclasses declare :meth:`accept` (the schema/shape check) and
    :meth:`key` (the dedup identity of a record); this class owns loading,
    the index, locked appends, compaction and the order-invariant merge.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with parent directories) on the first
        append; a missing file loads as an empty store.  ``None`` gives a
        purely in-memory store with identical semantics.  A directory
        raises :class:`~repro.errors.ReproError`.
    """

    def __init__(self, path: Optional[str] = None):
        if path is not None and os.path.isdir(path):
            raise ReproError(f"{type(self).__name__} path {path!r} is a "
                             f"directory")
        self.path = path
        self._records: Dict[Hashable, Dict[str, object]] = {}
        #: Lines the load tolerated and dropped (see :func:`load_records`).
        self.skipped_lines = 0
        #: Accepted lines currently on disk, superseded ones included —
        #: the append-only file keeps every re-write of a key, so this can
        #: exceed ``len(self)``; the difference is :attr:`stale_lines`.
        self._disk_lines = 0
        if path is not None:
            records, self.skipped_lines = load_records(path, self.accept)
            for record in records:
                try:
                    self._records[self.key(record)] = record
                except (KeyError, TypeError, ValueError):
                    self.skipped_lines += 1
                    continue
                self._disk_lines += 1

    # -- the subclass's schema -----------------------------------------------------

    @staticmethod
    def accept(record: Dict[str, object]) -> bool:
        """Whether ``record`` has this store's schema and shape."""
        raise NotImplementedError

    @staticmethod
    def key(record: Dict[str, object]) -> Hashable:
        """The dedup identity of ``record``; may raise ``KeyError``,
        ``TypeError`` or ``ValueError`` on a malformed record."""
        raise NotImplementedError

    @classmethod
    def _valid(cls, record: Dict[str, object]) -> bool:
        """The merge filter, the rule a load applies: :meth:`accept` passes
        and :meth:`key` parses (:func:`load_records` counts a raising key
        as skipped)."""
        if not cls.accept(record):
            return False
        cls.key(record)
        return True

    # -- the index ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records

    def get(self, key: Hashable) -> Optional[Dict[str, object]]:
        """The live record stored under ``key``, or ``None``."""
        return self._records.get(key)

    def records(self) -> List[Dict[str, object]]:
        """The live records in first-insertion order."""
        return list(self._records.values())

    # -- writes ------------------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        """Append ``record`` (locked, fsynced) and index it under its key."""
        if self.path is not None:
            append_record(self.path, record)
            self._disk_lines += 1
        self._records[self.key(record)] = record

    @property
    def stale_lines(self) -> int:
        """Disk lines whose record a later append has superseded.

        The in-memory index is last-record-wins while the file is
        append-only, so repeat traffic grows the file while ``len(store)``
        stays flat; :meth:`compact` drops the backlog.
        """
        return self._disk_lines - len(self._records)

    def compact(self, path: Optional[str] = None) -> int:
        """Rewrite the store as its live records only; returns the count.

        Every record becomes its canonical sorted-keys line, lines in
        lexicographic order — the output order of :meth:`merge` — so
        compacting twice is byte-identical and a compacted file merges back
        to itself byte for byte.  The rewrite is atomic and advisory-locked
        (:func:`rewrite_records`), so concurrent appenders block rather
        than interleave.

        ``path`` defaults to the store's own file; an in-memory store
        needs an explicit target.
        """
        target = path if path is not None else self.path
        if target is None:
            raise ReproError("an in-memory store needs an explicit path")
        lines = sorted(dump_record(record) for record in self._records.values())
        count = rewrite_records(target, (json.loads(line) for line in lines))
        if target == self.path:
            self._disk_lines = count
        return count

    # -- fan-in --------------------------------------------------------------------

    @classmethod
    def merge(cls, paths: Sequence[str], out_path: str) -> MergeStats:
        """Union files of this store's kind into ``out_path``; returns the
        merge statistics.

        Records pass the same filter as a load.  The construction that makes
        the union order-invariant: for each key the candidate *canonical
        lines* are collected as a set and the smallest line wins; the output
        is all winners in sorted line order.  Both steps see sets, never
        sequences, so no trace of the input enumeration order survives.
        A missing input file merges as an empty one, as it loads.
        """
        stats = MergeStats()
        candidates: Dict[Hashable, set] = {}
        for path in sorted(paths):
            records, skipped = load_records(path, cls._valid)
            stats.inputs.append({
                "path": path,
                "records": len(records),
                "skipped_lines": skipped,
            })
            stats.skipped_lines += skipped
            stats.records_in += len(records)
            for record in records:
                candidates.setdefault(cls.key(record), set()).add(
                    dump_record(record))

        winners: List[str] = []
        for lines in candidates.values():
            if len(lines) > 1:
                stats.conflicts += 1
            winners.append(min(lines))
        winners.sort()
        stats.unique = len(winners)
        # Conflicting payloads are not "exact" duplicates; count each dropped
        # distinct line under conflicts, the rest under exact duplication.
        dropped_conflict_lines = sum(
            len(lines) - 1 for lines in candidates.values() if len(lines) > 1)
        stats.exact_duplicates = (stats.records_in - stats.unique
                                  - dropped_conflict_lines)

        payload = "".join(line + "\n" for line in winners).encode("utf-8")
        stats.sha256 = hashlib.sha256(payload).hexdigest()
        rewrite_records(out_path, (json.loads(line) for line in winners))
        return stats
