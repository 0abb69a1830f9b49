"""JobQueue lifecycle, dedupe (coalescing + cache), and daemon resume."""

from __future__ import annotations

import gc
import itertools
import json
import sys
import threading
import tracemalloc

import pytest

from repro.orchestrator import ResultCache, RunStore
from repro.service import JOB_DONE, JOB_FAILED, JOB_QUEUED, Job, JobQueue

RING_GRID = {
    "algorithms": ["randomized"],
    "families": ["ring"],
    "sizes": [8],
    "seeds": 2,
}


@pytest.fixture
def queue(tmp_path):
    instance = JobQueue(
        tmp_path / "service", cache=ResultCache(tmp_path / "cache")
    ).start()
    yield instance
    instance.shutdown()


def _run(queue, grid):
    job, coalesced = queue.submit(grid)
    assert queue.wait(job.job_id, timeout_s=120)
    return job, coalesced


class TestLifecycle:
    def test_submit_run_fetch(self, queue):
        job, coalesced = _run(queue, RING_GRID)
        assert not coalesced
        assert job.status == JOB_DONE
        snapshot = queue.status(job.job_id)
        assert snapshot["status"] == JOB_DONE
        assert snapshot["progress"]["done"] == snapshot["progress"]["total"] == 2
        assert snapshot["summary"]["failed"] == 0
        result = queue.result(job.job_id)
        assert len(result["records"]) == 2
        assert all(r["status"] == "ok" for r in result["records"])
        # The job journals to its own per-job store.
        assert len(RunStore(job.store_path).load()) == 2

    def test_submit_is_non_blocking(self, tmp_path):
        # Queue never started: submission must return immediately with a
        # queued job rather than executing inline.
        queue = JobQueue(tmp_path / "svc")
        job, coalesced = queue.submit(RING_GRID)
        assert not coalesced
        assert job.status == JOB_QUEUED
        snapshot = queue.status(job.job_id)
        assert snapshot["progress"]["done"] == 0
        assert queue.result(job.job_id) is None

    def test_unknown_job(self, queue):
        assert queue.status("deadbeef") is None
        assert queue.result("deadbeef") is None
        with pytest.raises(KeyError):
            queue.wait("deadbeef", timeout_s=0.1)

    def test_bad_grid_raises(self, queue):
        with pytest.raises(ValueError):
            queue.submit({"algorithms": ["randomized"], "bogus_axis": [1]})
        with pytest.raises(ValueError):
            queue.submit({"algorithms": [], "families": [], "sizes": []})

    def test_cell_failures_still_complete_the_job(self, queue):
        job, _ = _run(
            queue,
            {
                "algorithms": ["crashing"],
                "families": ["ring"],
                "sizes": [8],
                "seeds": 1,
            },
        )
        assert job.status == JOB_DONE  # job finished; the cell failed
        assert queue.result(job.job_id)["summary"]["failed"] == 1


class TestDedupe:
    def test_concurrent_identical_submissions_coalesce(self, queue):
        """Two threads, one grid: one execution, byte-identical records."""
        barrier = threading.Barrier(2)
        outcomes = []

        def submit():
            barrier.wait()
            outcomes.append(queue.submit(RING_GRID))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        (job_a, _), (job_b, _) = outcomes
        assert job_a is job_b  # literally one Job object
        assert job_a.submissions == 2
        assert sum(coalesced for _, coalesced in outcomes) == 1
        assert queue.wait(job_a.job_id, timeout_s=120)
        stats = queue.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["submissions"] == {"total": 2, "coalesced": 1}
        # One execution: every record was executed exactly once.
        assert queue.result(job_a.job_id)["summary"]["executed"] == 2

    def test_sequential_resubmission_returns_completed_job(self, queue):
        job, _ = _run(queue, RING_GRID)
        executed = job.report.executed
        again, coalesced = queue.submit(RING_GRID)
        assert coalesced
        assert again is job
        assert again.status == JOB_DONE
        assert again.report.executed == executed  # nothing re-ran

    def test_overlapping_grids_share_cells_byte_identically(self, queue):
        """Distinct grids overlap through the cache, records byte-equal."""
        first, _ = _run(queue, RING_GRID)
        wider = dict(RING_GRID, sizes=[8, 12])
        second, coalesced = _run(queue, wider)
        assert not coalesced
        assert second.job_id != first.job_id
        summary = queue.result(second.job_id)["summary"]
        assert summary["cached"] == 2  # the n=8 cells replayed from cache
        assert summary["executed"] == 2  # only the n=12 cells ran
        assert summary["cache_hit_rate"] > 0
        by_key = {
            record.key: record.fingerprint()
            for record in second.report.records
        }
        for record in first.report.records:
            assert by_key[record.key] == record.fingerprint()


class TestFailureAndResume:
    def test_infrastructure_failure_marks_job_failed_and_retries(
        self, tmp_path, monkeypatch
    ):
        import repro.service.queue as queue_module

        queue = JobQueue(tmp_path / "svc").start()
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("pool exploded")

            monkeypatch.setattr(queue_module, "run_jobs", boom)
            job, _ = queue.submit(RING_GRID)
            assert queue.wait(job.job_id, timeout_s=30)
            assert job.status == JOB_FAILED
            assert "pool exploded" in job.error
            assert queue.result(job.job_id)["records"] == []

            # Resubmitting a failed job re-enqueues it (infrastructure
            # errors are retryable); with run_jobs restored it completes.
            monkeypatch.undo()
            retried, coalesced = queue.submit(RING_GRID)
            assert coalesced and retried is job
            assert queue.wait(job.job_id, timeout_s=120)
            assert job.status == JOB_DONE
        finally:
            queue.shutdown()

    def test_restarted_daemon_resumes_own_store(self, tmp_path):
        """A new queue over the same root resumes per-job stores, even
        after a crashed writer left a torn trailing line."""
        root = tmp_path / "svc"
        cache = ResultCache(tmp_path / "cache")
        first = JobQueue(root, cache=cache).start()
        job, _ = _run(first, RING_GRID)
        first.shutdown()

        # Simulate the daemon dying mid-append.
        with open(job.store_path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "spe')

        second = JobQueue(root, cache=cache).start()
        try:
            rerun, coalesced = _run(second, RING_GRID)
            assert not coalesced  # fresh process: no in-memory job state
            assert rerun.job_id == job.job_id
            summary = second.result(rerun.job_id)["summary"]
            assert summary["executed"] == 0
            assert summary["resumed"] == 2  # served from its own store
        finally:
            second.shutdown()


class TestStatsAndHealth:
    def test_stats_shape(self, queue):
        job, _ = _run(queue, RING_GRID)
        stats = queue.stats()
        assert stats["workers"] == {"configured": 1, "alive": 1}
        assert stats["queue_depth"] == 0
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["hit_rate"] == 0.0
        assert stats["per_job"][job.job_id]["status"] == JOB_DONE
        assert stats["per_job"][job.job_id]["progress"]["done"] == 2
        assert stats["metrics"]["service.submissions{kind=new}"] == 1
        assert stats["metrics"]["service.jobs{status=done}"] == 1

    def test_healthz_reflects_worker_liveness(self, tmp_path):
        queue = JobQueue(tmp_path / "svc")
        assert queue.healthz()["ok"] is False  # not started yet
        queue.start()
        try:
            health = queue.healthz()
            assert health["ok"] is True
            assert health["workers_alive"] == 1
        finally:
            queue.shutdown()
        assert queue.healthz()["ok"] is False  # stopped


class TestFinishedJobsLeaveMemory:
    def test_memory_per_finished_job_stays_flat(self, tmp_path, monkeypatch):
        """All-cache-hit jobs cost at most 4 KB of traced memory each once
        finished, and their results survive the move to disk."""
        queue = JobQueue(
            tmp_path / "svc", cache=ResultCache(tmp_path / "cache")
        ).start()
        try:
            seeds = list(range(21))
            _run(queue, dict(RING_GRID, seeds=seeds))  # warm the cache
            grids = [
                dict(RING_GRID, seeds=list(pair))
                for pair in itertools.combinations(seeds, 2)
            ]
            for grid in grids[:5]:  # one-time allocations (labels, logs)
                _run(queue, grid)
            jobs = 200
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for grid in grids[5:5 + jobs]:
                    job, _ = _run(queue, grid)
                    assert job.retired
                    assert queue.result(job.job_id)["summary"]["cached"] == 2
                gc.collect()
                growth = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert growth / jobs <= 4096, f"{growth / jobs:.0f} B per job"

            rendered = {}
            retire = Job.retire

            def capture(job):
                rendered[job.job_id] = job.result_bytes()
                retire(job)

            monkeypatch.setattr(Job, "retire", capture)
            job, _ = _run(queue, grids[5 + jobs])
            assert job.retired and job.specs is None
            assert queue.result_bytes(job.job_id) == rendered[job.job_id]
            payload = json.loads(rendered[job.job_id])
            reloaded = job.report
            assert reloaded.summary() == payload["summary"]
            assert [r.to_dict() for r in reloaded.records] == payload["records"]
        finally:
            queue.shutdown()

    def test_readers_racing_retirement_see_whole_jobs(self, tmp_path):
        """Pollers never see a half-retired job: a done snapshot always
        carries its summary and every done result all of its records."""
        queue = JobQueue(
            tmp_path / "svc", cache=ResultCache(tmp_path / "cache"), workers=3
        ).start()
        grids = [dict(RING_GRID, seeds=[seed, seed + 1]) for seed in range(12)]
        jobs = [queue.submit(grid)[0] for grid in grids]
        errors = []
        finished = threading.Event()

        def read():
            try:
                while not finished.is_set():
                    for job in jobs:
                        snapshot = job.snapshot()
                        if snapshot["status"] == JOB_DONE:
                            assert snapshot["summary"]["total"] == 2
                        result = queue.result(job.job_id)
                        if result is not None:
                            assert len(result["records"]) == 2
                        assert job.progress_snapshot()["total"] == 2
                    queue.stats()
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for job in jobs:
                assert queue.wait(job.job_id, timeout_s=120)
        finally:
            finished.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
            queue.shutdown()
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert all(job.retired for job in jobs)
