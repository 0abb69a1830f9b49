"""Persistent job queue: a worker pool that outlives one CLI invocation.

:class:`JobQueue` is the service half of simulation-as-a-service — a
FIFO of grid submissions drained by daemon worker threads, each running
a whole grid through :func:`repro.orchestrator.run_jobs` (so every job
inherits the pool's crash isolation, timeouts, retries, the
content-addressed :class:`~repro.orchestrator.ResultCache`, and a
resumable per-job JSONL :class:`~repro.orchestrator.RunStore`).

Dedupe happens at two levels:

* **In-flight coalescing** — a job is identified by
  :func:`repro.orchestrator.grid_key` over its expanded specs, so N
  concurrent submissions of the identical grid share one
  :class:`Job` (and therefore one simulation); later submissions of a
  finished grid are answered from the completed job without re-running.
* **Cell-level caching** — distinct grids that overlap share cells
  through the content-addressed cache, so only genuinely new cells
  execute.  Cache replays are byte-identical to live runs
  (:meth:`repro.orchestrator.RunRecord.fingerprint`).

Finished jobs leave RAM.  When a job reaches ``done`` the drainer
writes its exact result body and its final snapshot next to the job's
run store (``<hash>.result.json`` / ``<hash>.snapshot.json``, each via a
temp file and ``os.replace``) and drops the records, specs, grid,
registry and progress reporter, so daemon memory stays flat however
many jobs it has served.  ``failed`` jobs stay in memory: resubmitting
one requeues it.

The queue is deliberately transport-agnostic: nothing in this module
knows about HTTP.  The stdlib server in :mod:`repro.service.server` is
one front door; a future multi-machine shard router is another.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import MetricsRegistry
from repro.orchestrator import (
    BatchReport,
    JobSpec,
    ProgressReporter,
    ResultCache,
    RunRecord,
    grid_from_payload,
    grid_key,
    run_jobs,
)
from repro.telemetry import (
    DEFAULT_MAX_EVENTS,
    FlightRecorder,
    current_trace_id,
    flight_path_for,
    load_flight_events,
    new_trace_id,
    trace_context,
)

logger = logging.getLogger("repro.service.queue")

#: Job lifecycle states.  ``done`` means the grid ran to completion —
#: individual cell failures live in the batch summary, not the job
#: status; ``failed`` is reserved for infrastructure errors (the batch
#: itself raised), and a failed job is re-enqueued on resubmission.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)

#: States in which ``GET /jobs/<hash>/result`` has something to return.
FINISHED_STATES = (JOB_DONE, JOB_FAILED)


#: The ``done_event`` every retired job shares once its own has fired
#: (a done job never clears it), so finished jobs hold no lock of their own.
_FINISHED = threading.Event()
_FINISHED.set()


def result_path_for(store_path: Union[str, Path]) -> Path:
    """Where a finished job's ``/result`` body lives, next to its store."""
    store = Path(store_path)
    return store.with_name(f"{store.stem}.result.json")


def snapshot_path_for(store_path: Union[str, Path]) -> Path:
    """Where a finished job's final poll snapshot lives, next to its store."""
    store = Path(store_path)
    return store.with_name(f"{store.stem}.snapshot.json")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` so readers see either no file or the whole of it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    partial.write_text(text, encoding="utf-8")
    os.replace(partial, path)


def _report_from_result(payload: Mapping[str, Any]) -> BatchReport:
    """Rebuild a :class:`BatchReport` from a ``/result`` payload."""
    summary = payload.get("summary") or {}
    return BatchReport(
        records=[RunRecord.from_dict(record) for record in payload["records"]],
        executed=summary.get("executed", 0),
        cached=summary.get("cached", 0),
        resumed=summary.get("resumed", 0),
        failed=summary.get("failed", 0),
        elapsed_s=summary.get("elapsed_s", 0.0),
        cache_stats=summary.get("cache"),
        progress=summary.get("progress"),
        metrics=summary.get("metrics"),
        store_skipped_lines=summary.get("store_skipped_lines", 0),
    )


def _registry_dump(registry: MetricsRegistry) -> Dict[str, Any]:
    """Dump a registry that another thread may be writing to.

    ``MetricsRegistry.dump`` iterates plain dicts; a concurrent insert
    from the drainer thread can raise ``RuntimeError``.  Polling is
    best-effort telemetry, so retry briefly and degrade to ``{}``.
    """
    for _ in range(3):
        try:
            return registry.dump()
        except RuntimeError:
            continue
    return {}


@dataclass
class Job:
    """One submitted grid: specs, lifecycle state, progress, outcome.

    A ``done`` job is *retired* by :meth:`retire`: its result body and
    final snapshot move to disk, and ``specs``, ``grid``, ``progress``
    and ``registry`` become ``None``.  :attr:`report`,
    :meth:`snapshot` and :meth:`result` read the files back, so callers
    see the same values either way.
    """

    job_id: str
    specs: Optional[List[JobSpec]]
    grid: Optional[Dict[str, Any]]
    store_path: Path
    status: str = JOB_QUEUED
    #: Total submissions that resolved to this job (1 = never coalesced).
    submissions: int = 1
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Trace ID minted for the submission that created this job; every
    #: flight event, access log line, and worker record shares it.
    trace_id: Optional[str] = None
    #: Bounded NDJSON lifecycle log next to the job's run store.
    recorder: Optional[FlightRecorder] = field(
        default=None, repr=False, compare=False
    )
    #: Number of cells in the grid (kept after ``specs`` is dropped).
    cells: int = field(init=False)
    progress: Optional[ProgressReporter] = field(init=False)
    registry: Optional[MetricsRegistry] = field(default_factory=MetricsRegistry)
    done_event: threading.Event = field(default_factory=threading.Event)
    #: True once :meth:`retire` moved the outcome to disk.
    retired: bool = field(default=False, init=False)
    _report: Optional[BatchReport] = field(default=None, repr=False)
    _final_progress: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False
    )
    #: Guards the switch from in-memory state to the files on disk.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.cells = len(self.specs or ())
        self.progress = ProgressReporter(total=self.cells)

    @property
    def report(self) -> Optional[BatchReport]:
        """The batch report; a retired job reloads it from its result file."""
        with self._lock:
            if not self.retired:
                return self._report
        return _report_from_result(self.result())

    @report.setter
    def report(self, value: Optional[BatchReport]) -> None:
        self._report = value

    def record_event(self, event: str, force: bool = False, **fields: Any) -> None:
        """Best-effort flight-recorder append (no-op without a recorder)."""
        if self.recorder is not None:
            self.recorder.record(event, force=force, **fields)

    @property
    def finished(self) -> bool:
        return self.status in FINISHED_STATES

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe job-state snapshot — the poll payload.

        Safe to call from any thread mid-run: progress goes through the
        reporter's thread-safe :meth:`ProgressReporter.snapshot` and the
        metrics dump degrades gracefully under concurrent writes.  A
        retired job answers from its final snapshot file, with the live
        ``submissions`` count patched in.
        """
        with self._lock:
            if not self.retired:
                return self._live_snapshot()
        payload = json.loads(
            snapshot_path_for(self.store_path).read_text(encoding="utf-8")
        )
        payload["submissions"] = self.submissions
        return payload

    def _live_snapshot(self) -> Dict[str, Any]:
        assert self.progress is not None and self.registry is not None
        payload: Dict[str, Any] = {
            "job": self.job_id,
            "status": self.status,
            "trace_id": self.trace_id,
            "cells": self.cells,
            "submissions": self.submissions,
            "submitted_at": round(self.submitted_at, 3),
            "started_at": (
                round(self.started_at, 3) if self.started_at else None
            ),
            "finished_at": (
                round(self.finished_at, 3) if self.finished_at else None
            ),
            "store": str(self.store_path),
            "progress": self.progress.snapshot(),
            "metrics": _registry_dump(self.registry),
            "error": self.error,
        }
        if self._report is not None:
            payload["summary"] = self._report.summary()
        return payload

    def progress_snapshot(self) -> Dict[str, Any]:
        """The progress block of :meth:`snapshot`, without the file read."""
        with self._lock:
            if self.retired:
                assert self._final_progress is not None
                return dict(self._final_progress)
            assert self.progress is not None
            return self.progress.snapshot()

    def result(self) -> Dict[str, Any]:
        """Full result payload: summary plus every run record."""
        return json.loads(self.result_bytes())

    def result_bytes(self) -> bytes:
        """The ``/result`` body: :meth:`result` as sorted-key JSON bytes.

        A retired job serves the bytes written when it finished, without
        re-serializing them.
        """
        with self._lock:
            if not self.retired:
                return self._render_result().encode("utf-8")
        return result_path_for(self.store_path).read_bytes()

    def _render_result(self) -> str:
        payload: Dict[str, Any] = {
            "job": self.job_id,
            "status": self.status,
            "error": self.error,
        }
        if self._report is not None:
            payload["summary"] = self._report.summary()
            payload["records"] = [
                record.to_dict() for record in self._report.records
            ]
        else:
            payload["summary"] = None
            payload["records"] = []
        return json.dumps(payload, sort_keys=True)

    def retire(self) -> None:
        """Move a finished job's outcome to disk and drop it from memory.

        Writes the exact ``/result`` body and the final snapshot next to
        the run store (each atomically), then releases the records,
        specs, grid, registry and progress reporter.  Raises ``OSError``
        if a file cannot be written; the job then stays in memory.
        """
        with self._lock:
            body = self._render_result()
            final = self._live_snapshot()
        _write_atomic(result_path_for(self.store_path), body)
        _write_atomic(
            snapshot_path_for(self.store_path),
            json.dumps(final, sort_keys=True),
        )
        with self._lock:
            self.retired = True
            self._final_progress = final["progress"]
            self._report = None
            self.specs = None
            self.grid = None
            self.progress = None
            self.registry = None


class JobQueue:
    """FIFO of grid jobs drained by persistent daemon worker threads.

    ``root`` holds everything the daemon persists: one JSONL run store
    per job under ``root/jobs/`` (each job resumes from its own store,
    so a daemon killed mid-append picks up exactly where it died) and,
    unless an explicit ``cache`` is passed, the shared result cache
    under ``root/cache``.

    ``workers`` is the number of drainer threads (concurrent jobs);
    ``job_workers`` is forwarded to :func:`run_jobs` as the per-job
    process-pool width.  With ``job_workers=1`` cells run serially on
    the drainer thread itself (note: ``SIGALRM`` timeouts need a main
    thread, so per-cell timeouts are only enforced for
    ``job_workers > 1``, where cells run on worker processes).
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 1,
        job_workers: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        registry: Optional[MetricsRegistry] = None,
        flight_max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.root = Path(root)
        self.workers = max(1, int(workers))
        self.job_workers = max(1, int(job_workers))
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.registry = registry if registry is not None else MetricsRegistry()
        self.flight_max_events = flight_max_events
        self._jobs: Dict[str, Job] = {}
        self._fifo: Deque[str] = deque()
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._stopping = False
        #: Set by :meth:`release_holds`: long-polls return at once.
        self._holds_released = False
        self._started_at = time.monotonic()
        #: Torn store lines seen across every resumed job (healthz gauge).
        self._store_skipped_lines = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "JobQueue":
        """Spawn the drainer threads (idempotent); returns ``self``."""
        with self._cond:
            missing = self.workers - len(self._threads)
            for index in range(max(0, missing)):
                thread = threading.Thread(
                    target=self._drain,
                    name=f"repro-service-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work and join the drainers.

        Queued-but-unstarted jobs stay in their stores' hands: nothing
        is lost, a restarted daemon re-running the same grid resumes
        from the per-job store and the shared cache.
        """
        with self._cond:
            self._stopping = True
            self._holds_released = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    # -- submission and inspection -------------------------------------

    def submit(
        self, grid: Mapping[str, Any], trace_id: Optional[str] = None
    ) -> Tuple[Job, bool]:
        """Enqueue a grid payload; returns ``(job, coalesced)``.

        Never blocks on execution.  Raises ``ValueError`` on a malformed
        grid (unknown keys, empty axes, bad fault/monitor specs).
        Identical grids — same expanded specs, hence same
        :func:`grid_key` — coalesce onto one job whatever their state:
        in-flight submissions share the running job, and resubmitting a
        finished grid returns the completed job without re-running.  A
        job that previously *failed* (infrastructure error, not cell
        failures) is re-enqueued instead.

        ``trace_id`` names the submission (default: the ambient context
        ID, else a freshly minted one).  The job keeps the ID of the
        submission that *created* it; coalesced submissions are recorded
        in the flight log with their own ``submission_trace_id``.
        """
        submission_trace = trace_id or current_trace_id() or new_trace_id()
        specs = grid_from_payload(grid)
        job_id = grid_key(specs)
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                job.submissions += 1
                if job.status == JOB_FAILED:
                    # Infrastructure failures are retryable.
                    job.status = JOB_QUEUED
                    job.error = None
                    job.done_event = threading.Event()
                    job.progress = ProgressReporter(total=job.cells)
                    self._fifo.append(job_id)
                    self._cond.notify()
                    self.registry.counter("service.submissions").inc(
                        kind="retry"
                    )
                    job.record_event(
                        "requeued",
                        submission_trace_id=submission_trace,
                        submissions=job.submissions,
                    )
                else:
                    self.registry.counter("service.submissions").inc(
                        kind="coalesced"
                    )
                    job.record_event(
                        "coalesced",
                        submission_trace_id=submission_trace,
                        submissions=job.submissions,
                        status=job.status,
                    )
                self._set_depth_gauge()
                logger.info(
                    "submission coalesced onto job %s (%d submissions)",
                    job_id[:12],
                    job.submissions,
                    extra={
                        "job": job_id,
                        "trace_id": submission_trace,
                        "coalesced": True,
                    },
                )
                return job, True
            job = Job(
                job_id=job_id,
                specs=specs,
                grid={key: value for key, value in grid.items()},
                store_path=self.root / "jobs" / f"{job_id}.jsonl",
                trace_id=submission_trace,
            )
            job.recorder = FlightRecorder(
                flight_path_for(job.store_path),
                trace_id=submission_trace,
                max_events=self.flight_max_events,
            )
            job.record_event("submitted", job=job_id, cells=job.cells)
            self._jobs[job_id] = job
            self._fifo.append(job_id)
            self._cond.notify()
            self.registry.counter("service.submissions").inc(kind="new")
            self._set_depth_gauge()
            logger.info(
                "job %s submitted (%d cells)",
                job_id[:12],
                job.cells,
                extra={
                    "job": job_id,
                    "trace_id": submission_trace,
                    "cells": job.cells,
                    "coalesced": False,
                },
            )
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Poll payload for one job, or ``None`` for an unknown hash."""
        job = self.get(job_id)
        return job.snapshot() if job is not None else None

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Result payload once finished; ``None`` if unknown or running."""
        job = self.get(job_id)
        if job is None or not job.finished:
            return None
        return job.result()

    def result_bytes(self, job_id: str) -> Optional[bytes]:
        """:meth:`result` as the exact JSON bytes ``/result`` serves."""
        job = self.get(job_id)
        if job is None or not job.finished:
            return None
        return job.result_bytes()

    def events(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's flight-recorder payload, or ``None`` for unknown jobs.

        Served at ``GET /jobs/<hash>/events``: the recorded lifecycle
        chain (submitted → … → finalized), the job's trace ID, and how
        many events the bound dropped.
        """
        job = self.get(job_id)
        if job is None:
            return None
        path = (
            job.recorder.path
            if job.recorder is not None
            else flight_path_for(job.store_path)
        )
        return {
            "job": job.job_id,
            "trace_id": job.trace_id,
            "status": job.status,
            "events": load_flight_events(path),
            "dropped": job.recorder.dropped if job.recorder else 0,
            "path": str(path),
        }

    def hold(self, job_id: str, timeout_s: float) -> Optional[Job]:
        """Long-poll: block until the job finishes or ``timeout_s`` passes.

        Returns the job (``None`` at once for an unknown hash).  "Finished"
        means ``done_event`` is set, so a retired job's files are already
        on disk.  :meth:`release_holds` and :meth:`shutdown` wake every
        hold early.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                self._cond.wait_for(
                    lambda: job.done_event.is_set() or self._holds_released,
                    timeout_s,
                )
        return job

    def release_holds(self) -> None:
        """Wake every held long-poll; later holds return at once.

        The server calls this before joining its handler threads, so a
        held request never delays shutdown.
        """
        with self._cond:
            self._holds_released = True
            self._cond.notify_all()

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> bool:
        """Block until the job finishes; ``True`` iff it did in time."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job.done_event.wait(timeout_s)

    def stats(self) -> Dict[str, Any]:
        """Service-level stats: queue depth, liveness, dedupe, cache."""
        with self._cond:
            jobs = list(self._jobs.values())
            depth = len(self._fifo)
        by_status = {state: 0 for state in JOB_STATES}
        for job in jobs:
            by_status[job.status] += 1
        submissions = sum(job.submissions for job in jobs)
        per_job = {
            job.job_id: {
                "status": job.status,
                "submissions": job.submissions,
                "cells": job.cells,
                "progress": job.progress_snapshot(),
            }
            for job in jobs
        }
        payload: Dict[str, Any] = {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": depth,
            "workers": {
                "configured": self.workers,
                "alive": sum(
                    1 for thread in self._threads if thread.is_alive()
                ),
            },
            "job_workers": self.job_workers,
            "jobs": {"total": len(jobs), **by_status},
            "submissions": {
                "total": submissions,
                "coalesced": submissions - len(jobs),
            },
            "cache": self.cache.stats() if self.cache is not None else None,
            "per_job": per_job,
            "store_skipped_lines": self._store_skipped_lines,
            "metrics": _registry_dump(self.registry),
        }
        return payload

    def healthz(self) -> Dict[str, Any]:
        """Small liveness payload: is the pool actually able to work?

        ``store_skipped_lines`` counts torn JSONL lines skipped while
        resuming job stores — nonzero means some store was corrupted by
        a crashed writer, visible here without reading any logs.
        """
        alive = sum(1 for thread in self._threads if thread.is_alive())
        with self._cond:
            depth = len(self._fifo)
        return {
            "ok": alive > 0 and not self._stopping,
            "workers_alive": alive,
            "queue_depth": depth,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "store_skipped_lines": self._store_skipped_lines,
        }

    # -- drainer -------------------------------------------------------

    def _set_depth_gauge(self) -> None:
        self.registry.gauge("service.queue_depth").set(len(self._fifo))

    def _next_job(self) -> Optional[Job]:
        with self._cond:
            while not self._fifo and not self._stopping:
                self._cond.wait(0.1)
            if not self._fifo:
                return None
            job = self._jobs[self._fifo.popleft()]
            job.status = JOB_RUNNING
            job.started_at = time.time()
            self._set_depth_gauge()
        queue_wait = max(0.0, job.started_at - job.submitted_at)
        self.registry.histogram("service.queue_wait_seconds").observe(
            queue_wait
        )
        job.record_event("dequeued", queue_wait_s=round(queue_wait, 4))
        return job

    def _heartbeat(self) -> None:
        """Stamp this drainer thread's liveness gauge (wall-clock time)."""
        self.registry.gauge("service.worker_heartbeat").set(
            round(time.time(), 3), worker=threading.current_thread().name
        )

    def _finalize(self, job: Job, report: Optional[BatchReport]) -> None:
        """Post-run bookkeeping: metrics, flight record, structured log."""
        assert job.finished_at is not None
        elapsed = (
            job.finished_at - job.started_at
            if job.started_at is not None
            else 0.0
        )
        self.registry.counter("service.jobs").inc(status=job.status)
        if job.started_at is not None:
            self.registry.histogram("service.job_seconds").observe(
                elapsed, status=job.status
            )
        final_fields: Dict[str, Any] = {
            "status": job.status,
            "elapsed_s": round(elapsed, 4),
        }
        if report is not None:
            for source, count in (
                ("executed", report.executed),
                ("cache", report.cached),
                ("resume", report.resumed),
            ):
                if count:
                    self.registry.counter("service.cells").inc(
                        count, source=source
                    )
            if report.failed:
                self.registry.counter("service.cells_failed").inc(
                    report.failed
                )
            if report.store_skipped_lines:
                self._store_skipped_lines += report.store_skipped_lines
            self.registry.gauge("service.store_skipped_lines").set(
                self._store_skipped_lines
            )
            final_fields.update(
                executed=report.executed,
                cached=report.cached,
                resumed=report.resumed,
                failed=report.failed,
            )
        if self.cache is not None:
            self.registry.gauge("service.cache_hit_rate").set(
                self.cache.stats()["hit_rate"]
            )
        if job.error is not None:
            final_fields["error"] = job.error
        if job.recorder is not None:
            final_fields["events_dropped"] = job.recorder.dropped
        job.record_event("finalized", force=True, **final_fields)
        logger.info(
            "job %s %s in %.2fs",
            job.job_id[:12],
            job.status,
            elapsed,
            extra={"job": job.job_id, "status": job.status, **final_fields},
        )

    @staticmethod
    def _retire(job: Job) -> None:
        """Move a done job's outcome to disk; keep it in memory on error."""
        try:
            job.retire()
        except OSError as error:
            logger.warning(
                "job %s kept in memory: %s",
                job.job_id[:12],
                error,
                extra={"job": job.job_id},
            )

    def _drain(self) -> None:
        self._heartbeat()
        while True:
            job = self._next_job()
            if job is None:
                return
            # The whole batch runs under the job's trace ID, so queue
            # logs, run_jobs stamping, and worker-process logs all
            # correlate with the submission that created the job.
            with trace_context(job.trace_id):
                try:
                    report = run_jobs(
                        job.specs,
                        workers=self.job_workers,
                        cache=self.cache,
                        store=job.store_path,
                        # Resuming from its own store is what lets a daemon
                        # that died mid-append finish its grid on restart.
                        resume=job.store_path,
                        timeout=self.timeout,
                        retries=self.retries,
                        progress=job.progress,
                        registry=job.registry,
                        trace_id=job.trace_id,
                        on_event=job.record_event,
                    )
                except Exception as exc:  # infrastructure error, not a cell
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.status = JOB_FAILED
                    report = None
                else:
                    job.report = report
                    job.status = JOB_DONE
                job.finished_at = time.time()
                self._finalize(job, report)
            self._heartbeat()
            if job.status == JOB_DONE:
                self._retire(job)
            with self._cond:
                job.done_event.set()
                if job.retired:
                    job.done_event = _FINISHED
                self._cond.notify_all()
