"""Persistent, append-only result store for exploration campaigns.

Campaigns over the interpretive predictor are cheap but not free, and their
whole value is *comparison* — across directives, machines, problem sizes, and
(because the store file lives in the repository) across revisions of the
framework itself.  The :class:`ResultStore` is a JSONL file:

* **schema-versioned** — the first line is a header record naming the format
  and schema version; opening a file with an incompatible schema raises
  :class:`StoreSchemaError` instead of silently misreading it,
* **append-only** — every evaluated point is appended as one self-contained
  JSON record; an interrupted campaign leaves at most one torn trailing line,
  which loading tolerates, so campaigns resume where they stopped,
* **content-addressed** — records are keyed by a SHA-256 hash of the
  canonical scenario (plus evaluation mode and, for ad-hoc programs, the
  source text), so the same scenario always maps to the same key, across
  processes and across PRs, and a re-run hits the store instead of
  re-evaluating,
* **self-repairing** — a torn *tail* (death mid-append) is truncated away
  on load; an unparseable *mid-file* record is quarantined to a
  ``<store>.quarantine.jsonl`` sidecar and compacted out of the main file,
  so one bad line never poisons every later load.

Appends carry the ``store.append`` :mod:`repro.faults` injection site
(fired under the advisory lock, so crash-between-lock-and-append is
testable) and retry transient I/O failures through
:func:`repro.faults.retry_call`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Mapping

try:                                    # POSIX advisory file locking
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

from .. import faults, obs
from ..frontend.errors import ReproError
from .space import ScenarioPoint

#: Bump when the record layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

STORE_FORMAT = "repro-result-store"


class StoreError(ReproError):
    """Raised for unreadable or inconsistent result-store files."""


class StoreSchemaError(StoreError):
    """Raised when a store file's schema version is not supported."""


def quarantine_path_for(store_path: str) -> str:
    """Where a store's quarantined (unparseable mid-file) records land."""
    root, _ext = os.path.splitext(os.fspath(store_path))
    return root + ".quarantine.jsonl"


def program_sha(source: str) -> str:
    """Short content hash of an ad-hoc program's HPF source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def scenario_key(scenario: Mapping, mode: str, program_source: str | None = None,
                 *, source_sha: str | None = None) -> str:
    """Stable content hash of one (scenario, evaluation mode) pair.

    ``program_source`` is the HPF text of an ad-hoc (non-suite) program
    (``source_sha`` passes its precomputed hash instead, e.g. when reloading
    a store record); suite applications are identified by their registry key
    alone so results persist across framework revisions.
    """
    payload: dict = {"mode": mode, "scenario": dict(scenario)}
    if program_source is not None:
        source_sha = program_sha(program_source)
    if source_sha is not None:
        payload["program_sha"] = source_sha
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def prediction_error_pct(estimated: float | None, measured: float | None) -> float:
    """The paper's prediction error, ``|estimated - measured| / measured`` in
    percent; NaN when either time is missing or *measured* is not positive."""
    if measured is None or estimated is None or measured <= 0:
        return float("nan")
    return abs(estimated - measured) / measured * 100.0


@dataclass(frozen=True)
class ScenarioResult:
    """The evaluation of one scenario point.

    ``estimated_us`` comes from the interpretation parse (Phase 2),
    ``measured_us`` from the execution simulator; either may be absent
    depending on the campaign mode.  The computation/communication/overhead
    split of the estimate is kept so reports can explain *why* a
    configuration wins, not only that it does.
    """

    point: ScenarioPoint
    mode: str
    estimated_us: float | None = None
    measured_us: float | None = None
    comp_us: float = 0.0
    comm_us: float = 0.0
    ovhd_us: float = 0.0
    grid_shape: tuple[int, ...] = ()
    program_source: str | None = None     # ad-hoc programs only
    source_sha: str | None = None         # persisted stand-in for the source

    @property
    def key(self) -> str:
        sha = self.source_sha
        if sha is None and self.program_source is not None:
            sha = program_sha(self.program_source)
        return scenario_key(self.point.scenario_dict(), self.mode,
                            source_sha=sha)

    @property
    def objective_us(self) -> float:
        """The quantity campaigns minimise: measured when present, else estimated."""
        if self.measured_us is not None:
            return self.measured_us
        if self.estimated_us is not None:
            return self.estimated_us
        return float("nan")

    @property
    def abs_error_pct(self) -> float:
        return prediction_error_pct(self.estimated_us, self.measured_us)

    def to_record(self) -> dict:
        sha = self.source_sha
        if sha is None and self.program_source is not None:
            sha = program_sha(self.program_source)
        return {
            "key": self.key,
            "mode": self.mode,
            "scenario": self.point.scenario_dict(),
            "program_sha": sha,
            "result": {
                "estimated_us": self.estimated_us,
                "measured_us": self.measured_us,
                "comp_us": self.comp_us,
                "comm_us": self.comm_us,
                "ovhd_us": self.ovhd_us,
                "grid_shape": list(self.grid_shape),
            },
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "ScenarioResult":
        result = record.get("result", {})
        return cls(
            point=ScenarioPoint.from_scenario_dict(record["scenario"]),
            mode=str(record.get("mode", "predict")),
            estimated_us=result.get("estimated_us"),
            measured_us=result.get("measured_us"),
            comp_us=float(result.get("comp_us", 0.0)),
            comm_us=float(result.get("comm_us", 0.0)),
            ovhd_us=float(result.get("ovhd_us", 0.0)),
            grid_shape=tuple(result.get("grid_shape", ())),
            source_sha=record.get("program_sha"),
        )


class ResultStore:
    """JSONL-backed store of :class:`ScenarioResult` records, keyed by content.

    Opening a path creates the file (with its schema header) if missing and
    otherwise loads and indexes every record; :meth:`add` appends one record
    and indexes it; :meth:`get_point` answers "has this (scenario, mode)
    been evaluated before?" across processes, campaigns and PRs.

    Example:
        >>> import os, tempfile
        >>> from repro.explore import ResultStore, ScenarioPoint, ScenarioResult
        >>> path = os.path.join(tempfile.mkdtemp(), "results.jsonl")
        >>> store = ResultStore(path)
        >>> point = ScenarioPoint(app="laplace_block_star", size=16, nprocs=2)
        >>> store.add(ScenarioResult(point=point, mode="predict",
        ...                          estimated_us=1234.0))
        True
        >>> reloaded = ResultStore(path)         # fresh process, same file
        >>> reloaded.get_point(point, "predict").estimated_us
        1234.0
        >>> reloaded.get_point(point, "measure") is None
        True

    Raises:
        StoreError: the path exists but is not a result-store file.
            (Unreadable *record* lines no longer raise: a torn tail is
            truncated, and corrupt mid-file lines are quarantined to
            ``<store>.quarantine.jsonl`` and compacted out.)
        StoreSchemaError: the file's schema version is unsupported.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._index: dict[str, ScenarioResult] = {}
        # serialises appends from this process's threads (e.g. the serve
        # worker pool); cross-process writers are covered by the advisory
        # file lock taken inside add()
        self._append_lock = threading.Lock()
        self._load_or_create()

    # -- loading ------------------------------------------------------------

    def _load_or_create(self) -> None:
        if not os.path.exists(self.path):
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # append-mode create, never "w": losing a creation race to a
            # concurrent writer must not truncate the winner's records
            with open(self.path, "a+b") as fh:
                with self._advisory_lock(fh):
                    fh.seek(0, os.SEEK_END)
                    if fh.tell() == 0:
                        fh.write((json.dumps(
                            {"format": STORE_FORMAT,
                             "schema": STORE_SCHEMA_VERSION}) + "\n")
                            .encode("utf-8"))
                        fh.flush()
                        return
            # the race's winner wrote the header (and possibly records):
            # fall through and load them
        with open(self.path, "r+b") as fh:
            # the lock covers read + torn-tail repair: without it, loading
            # concurrently with a writer can misread a half-written final
            # line as a torn tail and truncate away a committed record
            with self._advisory_lock(fh):
                content = fh.read().decode("utf-8")
                self._index_content(content, fh)

    def _index_content(self, content: str, fh) -> None:
        lines = content.splitlines()
        if not lines:
            raise StoreError(f"{self.path}: empty file is not a result store")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise StoreError(f"{self.path}: unreadable store header: {exc}") from exc
        if header.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{self.path}: not a {STORE_FORMAT} file (format "
                f"{header.get('format')!r})")
        if header.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{self.path}: store schema {header.get('schema')!r} is not "
                f"supported (this build reads schema {STORE_SCHEMA_VERSION}); "
                f"move the file aside or migrate it")
        kept: List[str] = []            # verbatim good record lines
        quarantined: List[str] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                result = ScenarioResult.from_record(record)
            except json.JSONDecodeError:
                if lineno == len(lines):      # torn final line: interrupted run
                    if not quarantined:       # cheap repair: cut the tail only
                        self._truncate_torn_tail(fh, content, line)
                    break
                quarantined.append(line)
                continue
            except Exception:
                # valid JSON but not a result record (wrong/missing fields):
                # just as poisonous as a torn line, so it goes the same way
                quarantined.append(line)
                continue
            kept.append(line)
            self._index[str(record.get("key", result.key))] = result
        if quarantined:
            self._quarantine(fh, lines[0], kept, quarantined)
        obs.counter("repro_store_resume_records_total",
                    store=os.path.basename(self.path)).inc(len(self._index))

    def _truncate_torn_tail(self, fh, content: str, torn_line: str) -> None:
        """Cut an interrupted append off the file so later appends stay clean.

        Without the repair, the next ``add`` would concatenate its record onto
        the torn fragment, producing a corrupt *mid-file* line that poisons
        every later load.  Runs on the loader's already-locked handle.
        """
        fragment = torn_line + ("\n" if content.endswith("\n") else "")
        keep = len(content.encode("utf-8")) - len(fragment.encode("utf-8"))
        fh.truncate(max(keep, 0))

    def _quarantine(self, fh, header_line: str, kept: List[str],
                    quarantined: List[str]) -> None:
        """Move unparseable mid-file records to the sidecar and compact.

        The bad lines are appended verbatim to ``<store>.quarantine.jsonl``
        (nothing is ever silently destroyed) and the main file is rewritten
        in place — header plus the kept records, byte-for-byte — on the
        loader's already-locked handle, so concurrent writers on the same
        advisory lock never observe the compaction mid-flight.
        """
        with open(quarantine_path_for(self.path), "a", encoding="utf-8") as q:
            for line in quarantined:
                q.write(line + "\n")
        data = "".join(line + "\n" for line in [header_line] + kept)
        fh.seek(0)
        fh.write(data.encode("utf-8"))
        fh.truncate()
        fh.flush()
        obs.counter("repro_store_quarantined_total",
                    store=os.path.basename(self.path)).inc(len(quarantined))

    # -- writing ------------------------------------------------------------

    @staticmethod
    @contextmanager
    def _advisory_lock(fh):
        """Exclusive advisory lock on *fh* for the duration of one append.

        Without it, two *processes* appending concurrently can interleave
        the seek-to-end / newline-repair / write sequence and tear each
        other's records (O_APPEND only makes the ``write`` atomic, not the
        read-modify-write repair around it).  No-op where ``fcntl`` is
        unavailable.
        """
        if fcntl is None:
            yield
            return
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def add(self, result: ScenarioResult, replace: bool = False) -> bool:
        """Append *result*; returns True when a record was written.

        Existing keys are skipped (the store is a memo table) unless
        ``replace`` is set, in which case a superseding record is appended —
        load order makes the last record win.  Appends are safe under
        concurrent writers: a ``threading.Lock`` serialises this process's
        threads and an exclusive ``flock`` serialises other processes
        appending to the same file.
        """
        key = result.key
        with self._append_lock:
            if key in self._index and not replace:
                obs.counter("repro_store_dedup_skips_total",
                            store=os.path.basename(self.path)).inc()
                return False
            line = json.dumps(result.to_record(), sort_keys=True) + "\n"
            # transient I/O failures (and injected transient faults) get a
            # bounded, jittered retry before the append is declared dead
            faults.retry_call(lambda: self._locked_append(line),
                              site="store.append")
            self._index[key] = result
            obs.counter("repro_store_appends_total",
                        store=os.path.basename(self.path)).inc()
        return True

    def _locked_append(self, line: str) -> None:
        """One locked append attempt; the ``store.append`` injection site."""
        with open(self.path, "a+b") as fh:
            with self._advisory_lock(fh):
                # the site fires *inside* the lock, so a planned crash here
                # is exactly "died between taking the lock and appending"
                action = faults.fire("store.append",
                                     store=os.path.basename(self.path))
                # never land on a line that lost its newline (e.g. a final
                # record whose terminator was cut): two records on one line
                # would read as a torn tail on the next load and both would
                # be dropped
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
                if action is not None and action.action == "torn_write":
                    faults.torn_write_and_die(fh, action)
                fh.write(line.encode("utf-8"))
                fh.flush()

    # -- lookup -------------------------------------------------------------

    def get(self, key: str) -> ScenarioResult | None:
        return self._index.get(key)

    def get_point(self, point: ScenarioPoint, mode: str,
                  program_source: str | None = None) -> ScenarioResult | None:
        return self._index.get(
            scenario_key(point.scenario_dict(), mode, program_source))

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self._index.values())

    def keys(self) -> list[str]:
        return list(self._index)

    def results(self) -> list[ScenarioResult]:
        return list(self._index.values())
