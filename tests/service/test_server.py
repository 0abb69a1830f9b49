"""End-to-end HTTP API: submit → poll → fetch over a real ephemeral port."""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.orchestrator import ResultCache
from repro.service import JobQueue, ServiceClient, ServiceError, build_server
from repro.service.server import MAX_HOLD_S

RING_GRID = {
    "algorithms": ["randomized"],
    "families": ["ring"],
    "sizes": [8],
    "seeds": 2,
}


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port backed by a started queue."""
    queue = JobQueue(
        tmp_path / "service", cache=ResultCache(tmp_path / "cache")
    ).start()
    server = build_server(queue, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        queue.shutdown()
        thread.join(timeout=5)


@pytest.fixture
def idle_service(tmp_path):
    """A server whose queue has no workers: jobs stay queued forever."""
    queue = JobQueue(tmp_path / "idle")  # never started
    server = build_server(queue, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestEndToEnd:
    def test_submit_poll_wait_fetch(self, service):
        client = ServiceClient(service.url)
        assert client.wait_until_up()["ok"] is True

        submission = client.submit(RING_GRID)
        assert submission["coalesced"] is False
        assert submission["cells"] == 2
        job = submission["job"]

        snapshots = []
        final = client.wait(job, timeout_s=120, on_progress=snapshots.append)
        assert final["status"] == "done"
        assert final["progress"]["done"] == 2
        assert snapshots  # on_progress saw at least one snapshot

        result = client.fetch(job)
        assert result["summary"]["failed"] == 0
        assert len(result["records"]) == 2
        for record in result["records"]:
            assert record["status"] == "ok"
            assert record["metrics"]["correct"] is True

    def test_duplicate_submission_coalesces_over_http(self, service):
        client = ServiceClient(service.url)
        first = client.submit(RING_GRID)
        client.wait(first["job"], timeout_s=120)
        second = client.submit(RING_GRID)
        assert second["coalesced"] is True
        assert second["job"] == first["job"]
        stats = client.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["submissions"] == {"total": 2, "coalesced": 1}

    def test_stats_and_healthz(self, service):
        client = ServiceClient(service.url)
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers_alive"] == 1
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["workers"]["alive"] == 1
        assert stats["cache"]["hit_rate"] == 0.0


class TestErrors:
    def test_unknown_job_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.poll("deadbeef")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.fetch("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client._checked("GET", "/nope")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(RING_GRID)["job"]
        with pytest.raises(ServiceError) as excinfo:
            client.fetch(job)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["status"] == "queued"
        # ...but polling the queued job works fine.
        assert client.poll(job)["status"] == "queued"

    def test_bad_grid_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"algorithms": ["randomized"], "bogus": [1]})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_malformed_json_400(self, service):
        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST", "/jobs", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_non_object_grid_400(self, service):
        client = ServiceClient(service.url)
        status, payload = client._request("POST", "/jobs", ["not", "a", "dict"])
        assert status == 400
        assert "object" in payload["error"]

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=1.0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


def _get(server, target, timeout=10):
    """Raw GET (no client-side clamping); returns ``(status, payload)``."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestLongPoll:
    def test_wait_returns_as_soon_as_the_job_finishes(self, service):
        client = ServiceClient(service.url)
        job = client.submit(dict(RING_GRID, seeds=[5, 6]))["job"]
        started = time.monotonic()
        final = client.wait(job, timeout_s=120, interval_s=5)
        returned = time.time()
        assert final["status"] == "done"
        assert returned - final["finished_at"] < 1.0
        assert time.monotonic() - started < 5.0  # no interval slept out

    def test_hold_times_out_with_the_job_still_queued(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(RING_GRID)["job"]
        started = time.monotonic()
        status, payload = _get(idle_service, f"/jobs/{job}?wait=0.3")
        held = time.monotonic() - started
        assert status == 200
        assert payload["status"] == "queued"
        assert 0.3 <= held < 0.3 + 0.7

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", ""])
    def test_malformed_or_negative_wait_400(self, idle_service, value):
        job = ServiceClient(idle_service.url).submit(RING_GRID)["job"]
        status, payload = _get(idle_service, f"/jobs/{job}?wait={value}")
        assert status == 400
        assert "wait" in payload["error"]

    def test_unknown_hash_404_is_never_held(self, idle_service):
        started = time.monotonic()
        status, _ = _get(idle_service, "/jobs/deadbeef?wait=10")
        assert status == 404
        assert time.monotonic() - started < 1.0

    def test_hold_is_clamped_below_the_client_socket_timeout(self):
        assert 0 < MAX_HOLD_S < ServiceClient("http://x").timeout_s

    def test_on_progress_sees_a_snapshot_every_interval(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(RING_GRID)["job"]
        snapshots = []
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait(
                job, timeout_s=0.9, interval_s=0.3,
                on_progress=snapshots.append,
            )
        # Holds are clipped to the deadline: the call never outlives it
        # by more than one round trip.
        assert time.monotonic() - started < 0.9 + 0.5
        assert 3 <= len(snapshots) <= 4
        assert all(s["status"] == "queued" for s in snapshots)

    def test_daemon_ignoring_wait_is_not_polled_in_a_tight_loop(self):
        """Early unfinished replies are followed by sleeping out the rest
        of the interval: at most ceil(T/interval) + 1 requests in T."""
        requests = []

        class IgnoresWait(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server naming)
                requests.append(self.path)
                body = json.dumps({"status": "running"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        stub = ThreadingHTTPServer(("127.0.0.1", 0), IgnoresWait)
        thread = threading.Thread(
            target=stub.serve_forever, args=(0.05,), daemon=True
        )
        thread.start()
        try:
            host, port = stub.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            total_s, interval_s = 1.0, 0.3
            with pytest.raises(TimeoutError):
                client.wait("j", timeout_s=total_s, interval_s=interval_s)
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5)
        assert 1 < len(requests) <= math.ceil(total_s / interval_s) + 1
        assert all("wait=" in path for path in requests)


class TestShutdownReleasesHolds:
    def test_server_teardown_with_a_held_request_is_prompt(self, tmp_path):
        queue = JobQueue(tmp_path / "idle")  # never started
        server = build_server(queue, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        job = ServiceClient(server.url).submit(RING_GRID)["job"]
        replies = []
        held = threading.Thread(
            target=lambda: replies.append(
                _get(server, f"/jobs/{job}?wait=30", timeout=60)
            )
        )
        held.start()
        time.sleep(0.2)  # let the request reach its hold
        started = time.monotonic()
        server.shutdown()
        server.server_close()
        queue.shutdown()
        thread.join(timeout=5)
        assert time.monotonic() - started < 1.0
        held.join(timeout=5)
        assert replies and replies[0][0] == 200
        assert replies[0][1]["status"] == "queued"

    def test_queue_shutdown_wakes_a_hold(self, tmp_path):
        queue = JobQueue(tmp_path / "idle")
        job, _ = queue.submit(RING_GRID)
        outcome = []
        holder = threading.Thread(
            target=lambda: outcome.append(queue.hold(job.job_id, 30))
        )
        holder.start()
        time.sleep(0.2)
        started = time.monotonic()
        queue.shutdown()
        holder.join(timeout=5)
        assert time.monotonic() - started < 1.0
        assert outcome == [job]
