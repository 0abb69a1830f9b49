"""The `repro top` dashboard: quantiles, sample fusion, rendering."""

from __future__ import annotations

import math

from repro.obs import MetricsRegistry
from repro.telemetry import render_prometheus
from repro.telemetry.dashboard import (
    collect_top_sample,
    quantile_from_buckets,
    render_top,
)


def canned_stats(running=True):
    return {
        "uptime_s": 100.0,
        "queue_depth": 1,
        "workers": {"configured": 2, "alive": 2},
        "jobs": {"total": 3, "queued": 1, "running": 1, "done": 1, "failed": 0},
        "submissions": {"total": 5, "coalesced": 2},
        "cache": {"hit_rate": 0.5},
        "store_skipped_lines": 0,
        "per_job": {
            "deadbeef": {
                "status": "running" if running else "done",
                "submissions": 1,
                "cells": 10,
                "progress": {
                    "done": 4,
                    "total": 10,
                    "failed": 1,
                    "eta_s": 12.0,
                    "throughput_jobs_per_s": 0.5,
                },
            }
        },
    }


def canned_metrics():
    registry = MetricsRegistry()
    for _ in range(50):
        registry.counter("service.http_requests").inc(
            method="GET", endpoint="/stats", status="200"
        )
        registry.histogram("service.http_request_seconds").observe(
            0.002, method="GET", endpoint="/stats"
        )
    registry.histogram("service.queue_wait_seconds").observe(0.05)
    return render_prometheus(registry)


class TestQuantileFromBuckets:
    def test_empty_is_none(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(0.1, 0)], 0.5) is None

    def test_bound_estimate(self):
        buckets = [(0.1, 10), (1.0, 90), (10.0, 100), (math.inf, 100)]
        assert quantile_from_buckets(buckets, 0.50) == 1.0
        assert quantile_from_buckets(buckets, 0.05) == 0.1
        assert quantile_from_buckets(buckets, 0.99) == 10.0

    def test_inf_bucket_reports_largest_finite_bound(self):
        buckets = [(0.1, 0), (math.inf, 10)]
        assert quantile_from_buckets(buckets, 0.5) == 0.1


class TestCollectTopSample:
    def test_fuses_stats_and_metrics(self):
        sample = collect_top_sample(canned_stats(), canned_metrics(), now=123.0)
        assert sample["time"] == 123.0
        assert sample["queue_depth"] == 1
        assert sample["coalesced"] == 2
        assert sample["cache_hit_rate"] == 0.5
        assert sample["requests_total"] == 50
        assert sample["requests_per_s"] == 0.5  # lifetime: 50 req / 100 s
        assert sample["latency_p50_s"] == 0.0025
        assert sample["queue_wait_p95_s"] == 0.05

    def test_long_polls_stay_out_of_latency_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("service.http_request_seconds").observe(
            0.002, method="GET", endpoint="/jobs/{id}"
        )
        for _ in range(10):
            registry.histogram("service.http_request_seconds").observe(
                5.0, method="GET", endpoint="/jobs/{id}?wait"
            )
        text = render_prometheus(registry)
        sample = collect_top_sample(canned_stats(), text, now=0.0)
        assert sample["latency_p95_s"] == 0.0025

    def test_in_flight_lists_running_jobs_only(self):
        sample = collect_top_sample(canned_stats(), canned_metrics(), now=0.0)
        assert [job["job"] for job in sample["in_flight"]] == ["deadbeef"]
        assert sample["in_flight"][0]["done"] == 4
        idle = collect_top_sample(
            canned_stats(running=False), canned_metrics(), now=0.0
        )
        assert idle["in_flight"] == []

    def test_tolerates_empty_payloads(self):
        sample = collect_top_sample({}, "", now=0.0)
        assert sample["requests_total"] == 0
        assert sample["latency_p50_s"] is None
        assert sample["in_flight"] == []

    def test_json_sample_is_serialisable(self):
        import json

        json.dumps(collect_top_sample(canned_stats(), canned_metrics(), now=0.0))


class TestRenderTop:
    def test_screen_mentions_key_numbers(self):
        sample = collect_top_sample(canned_stats(), canned_metrics(), now=0.0)
        screen = render_top(sample, url="http://x:1")
        assert "queue depth 1" in screen
        assert "workers 2/2" in screen
        assert "coalesced 2" in screen
        assert "cache hit rate 50.0%" in screen
        assert "deadbeef" in screen

    def test_rate_uses_previous_sample_when_available(self):
        base = collect_top_sample(canned_stats(), canned_metrics(), now=0.0)
        later = dict(base, time=10.0, requests_total=base["requests_total"] + 20)
        screen = render_top(later, previous=base, url="u")
        assert "req/s 2.00" in screen

    def test_no_in_flight_renders_placeholder(self):
        sample = collect_top_sample(
            canned_stats(running=False), canned_metrics(), now=0.0
        )
        assert "in-flight jobs: none" in render_top(sample, url="u")
