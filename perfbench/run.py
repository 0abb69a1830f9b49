"""End-to-end benchmark of the sleeping-model MST reproduction.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload table1-sweep --seed 0 --seconds 20 --trace 0

Workloads (each a closed loop from one process, one worker):

* ``table1-sweep``       -- ``run_jobs`` over Randomized- and
  Deterministic-MST x gnp x n in {32, 64, 128, 256} x 3 seeds;
* ``checked-sweep``      -- the same algorithms x n in {32, 64, 128} x 6
  seeds with every invariant monitor and ``dup:0.1`` faults;
* ``crossover-campaign`` -- the committed crossover campaign spec,
  fresh root, no cache;
* ``service-jobs``       -- a ``repro serve`` daemon and one
  ``ServiceClient`` doing ``submit -> wait -> fetch`` on small ring grids.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
untraced, one span-traced and one profiled unit and reports the
per-layer metrics.  Every output is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A human summary and the environment stamp go to standard
error, and everything measured is kept under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import spans as tracing
from host import peak_rss_mb

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench-work"
OUT = CHECKOUT / ".perfbench-out"

WORKLOADS = (
    "table1-sweep",
    "checked-sweep",
    "crossover-campaign",
    "service-jobs",
)
#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0
#: Extra set-up-only host spawns per run (each unit host adds one more).
SETUP_PROBES = 6
#: Submissions per service pass; p90 then has ten samples beyond it.
SERVICE_MIN_JOBS = 100
#: Seconds ``host.speed_probe`` takes at the speed cell times are scaled to.
REFERENCE_PROBE_S = 0.0005
#: Import-time samples for ``imports.repro_cli_s``.
IMPORT_SAMPLES = 5
HOST_TIMEOUT_S = 170

E2E_METRICS = {
    "cells_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

ENGINE_KINDS = ("randomized", "deterministic", "pipelined", "mis", "array")
SPAN_LAYERS = (
    "cli",
    "campaigns",
    "orchestrator",
    "graphs",
    "engine",
    "invariants",
    "service",
    "other",
)
#: per-layer metric name -> unit; every traced run reports all of them
#: (0 where a layer takes no part in the workload).
LAYER_METRICS: Dict[str, str] = {
    "imports.repro_cli_s": "s",
    "graphs.build_s": "s",
    "graphs.validate_s": "s",
    **{f"engine.run_s.{kind}": "s" for kind in ENGINE_KINDS},
    "sim.ns_per_awake_round": "ns",
    **{
        f"{module}.self_share": "ratio"
        for module in (*tracing.PROFILE_MODULES, "other")
    },
    "sim.awake_node_rounds": "count",
    "sim.messages": "count",
    "sim.bits": "count",
    "sim.rounds": "count",
    "sim.cells": "count",
    "invariants.checks_run": "count",
    "invariants.violations": "count",
    "campaigns.probes": "count",
    "orchestrator.cache_hits": "count",
    "service.coalesced": "count",
    "counts.drift": "count",
    "orchestrator.overhead_s": "s",
    "orchestrator.cache_get_ms": "ms",
    "orchestrator.cache_put_ms": "ms",
    "orchestrator.store_append_ms": "ms",
    "orchestrator.cache_hit_ratio": "ratio",
    "campaigns.overhead_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.result_lag_ms": "ms",
    "service.fetch_ms": "ms",
    "service.polls_per_job": "count",
    "service.coalesced_ratio": "ratio",
    "service.daemon_ready_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.profile_overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
}
#: Count name -> per-layer metric name.
COUNT_METRICS = {
    "cells": "sim.cells",
    "awake_node_rounds": "sim.awake_node_rounds",
    "messages": "sim.messages",
    "bits": "sim.bits",
    "rounds": "sim.rounds",
    "checks_run": "invariants.checks_run",
    "violations": "invariants.violations",
    "probes": "campaigns.probes",
    "cache_hits": "orchestrator.cache_hits",
    "coalesced": "service.coalesced",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not an output mismatch)."""


class Checks:
    """Output checks of one run.

    Every failed check is described in ``failures``; ``failed`` counts
    the distinct things that failed (a cell, a job, a digest), so one
    bad cell failing two checks counts once.
    """

    def __init__(self) -> None:
        self.failures: List[str] = []
        self._subjects: set = set()

    def expect(self, ok: bool, message: str, subject: Any = None) -> None:
        if not ok:
            self.failures.append(message)
            self._subjects.add(message if subject is None else subject)

    @property
    def failed(self) -> int:
        return len(self._subjects)


# -- inputs -----------------------------------------------------------------


def sweep_payload(workload: str, seed: int) -> Dict[str, Any]:
    # checked-sweep's fault draws make its work vary more with the seeds,
    # so it averages over more of them.
    count = 3 if workload == "table1-sweep" else 6
    payload: Dict[str, Any] = {
        "algorithms": ["randomized", "deterministic"],
        "families": ["gnp"],
        "seeds": [count * seed + offset for offset in range(count)],
    }
    if workload == "table1-sweep":
        payload["sizes"] = [32, 64, 128, 256]
    else:
        payload["sizes"] = [32, 64, 128]
        payload["monitors"] = "all"
        payload["faults"] = ["dup:0.1"]
    return payload


def campaign_spec(seed: int, work: Path) -> Path:
    """The pinned crossover spec; other seeds shift every seed list."""
    pinned = BENCH_DIR / "crossover.toml"
    if seed == DEFAULT_SEED:
        return pinned
    with pinned.open("rb") as handle:
        spec = tomllib.load(handle)
    for grid in spec["grids"]:
        count = int(grid["seeds"])
        grid["seeds"] = [count * seed + offset for offset in range(count)]
    for driver in spec["drivers"]:
        count = len(driver["seeds"])
        driver["seeds"] = [count * seed + offset for offset in range(count)]
    path = work / "crossover.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return path


def service_submissions(seed: int, count: int) -> List[Dict[str, Any]]:
    """Grid payloads in submission order.

    Submission ``k`` (1-based) is a new grid over seeds ``{i-1, i}`` of
    the next index ``i``, so half its cells were computed by the
    previous job; every tenth submission repeats an earlier grid
    verbatim, so it coalesces.
    """
    rng = random.Random(f"service-jobs/{seed}")
    base = 1000 * seed
    grids: List[Dict[str, Any]] = []
    fresh: List[Dict[str, Any]] = []
    for k in range(1, count + 1):
        if k % 10 == 0:
            grids.append(rng.choice(fresh))
            continue
        index = len(fresh) + 1
        grid = {
            "algorithms": ["randomized"],
            "families": ["ring"],
            "sizes": [16, 24],
            "seeds": [base + index - 1, base + index],
        }
        fresh.append(grid)
        grids.append(grid)
    return grids


# -- processes ----------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


class Run:
    """Scratch space of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        WORK.mkdir(exist_ok=True)
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._count = 0

    def fresh(self, stem: str) -> Path:
        self._count += 1
        path = self.dir / f"{stem}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def spawn_host(run: Run, config: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``host.py`` on ``config``; returns its result plus ``setup_s``."""
    where = run.fresh("host")
    config = dict(config, root=str(where / "root"), out=str(where / "out.json"))
    config.setdefault("report", str(where / "report.json"))
    config_path = where / "config.json"
    config_path.write_text(json.dumps(config))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "host.py"), str(config_path)],
        cwd=where,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=HOST_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"host ({config['mode']}) exited {proc.returncode}:\n"
            f"{proc.stderr[-3000:]}"
        )
    result = json.loads((where / "out.json").read_text())
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = result["end"] - result["host_start"]
    result["dir"] = where
    return result


class Daemon:
    """One ``repro serve --port 0 --quiet`` process with a fresh root."""

    def __init__(self, run: Run, trace: str = "off"):
        from repro.service import ServiceClient

        where = run.fresh("daemon")
        argv = ["--port", "0", "--quiet", "--root", str(where / "root")]
        self.out = where / "out.json"
        if trace == "off":
            command = [sys.executable, "-m", "repro.cli", "serve", *argv]
        else:
            config = {"mode": "serve", "trace": trace, "argv": argv,
                      "out": str(self.out)}
            config_path = where / "config.json"
            config_path.write_text(json.dumps(config))
            command = [sys.executable, str(BENCH_DIR / "host.py"),
                       str(config_path)]
        self.stderr = (where / "stderr.log").open("w")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=where,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
            if not banner.startswith("serving on "):
                raise BenchError(f"daemon did not start: {banner!r}")
            self.client = ServiceClient(banner.split()[2])
            self.client.healthz()
            self.setup_s = time.monotonic() - spawned
        except BaseException:
            self.stop(graceful=False)
            raise
        finally:
            watchdog.cancel()

    def stop(self, graceful: bool = True) -> Optional[Dict[str, Any]]:
        """Stop the daemon and wait for it; returns a traced host's result."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT if graceful else signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self.out.exists():
            return json.loads(self.out.read_text())
        return None


# -- checks and counts ----------------------------------------------------------


def digest(records: List[Dict[str, Any]]) -> str:
    from repro.orchestrator import RunRecord

    hasher = hashlib.sha256()
    for record in records:
        hasher.update(RunRecord.from_dict(record).fingerprint())
        hasher.update(b"\n")
    return hasher.hexdigest()


def record_counts(records: List[Dict[str, Any]]) -> Dict[str, int]:
    counts = {key: 0 for key in COUNT_METRICS}
    counts["cells"] = len(records)
    for record in records:
        metrics = record.get("metrics") or {}
        if metrics.get("mean_awake") is not None:
            counts["awake_node_rounds"] += round(
                metrics["n"] * metrics["mean_awake"]
            )
        for key, field in (("messages", "messages"), ("bits", "bits"),
                           ("rounds", "rounds"),
                           ("checks_run", "monitor_checks"),
                           ("violations", "violations")):
            counts[key] += int(metrics.get(field) or 0)
    return counts


def check_records(
    checks: Checks, workload: str, records: List[Dict[str, Any]]
) -> None:
    """Every cell ran and its output matches the reference solution.

    ``correct`` is the program's comparison against the reference MST
    (``is_correct``); fault cells of the campaign's threshold scan may be
    classified incorrect by design, so only their status is required.
    """
    for record in records:
        label = record.get("key", "?")[:12]
        metrics = record.get("metrics") or {}
        subject = (workload, record.get("key"))
        checks.expect(record.get("status") == "ok",
                      f"{workload}: cell {label} {record.get('status')}: "
                      f"{record.get('error')}", subject)
        if workload == "crossover-campaign" and metrics.get("faults"):
            continue
        checks.expect(metrics.get("correct") is True,
                      f"{workload}: cell {label} output is not correct", subject)
        if workload == "checked-sweep":
            checks.expect(metrics.get("outcome") == "correct",
                          f"{workload}: cell {label} outcome "
                          f"{metrics.get('outcome')}", subject)
            checks.expect(metrics.get("violations") == 0,
                          f"{workload}: cell {label} has "
                          f"{metrics.get('violations')} violations", subject)


def load_pins() -> Dict[str, Any]:
    return json.loads((BENCH_DIR / "pins.json").read_text())


def check_pins(
    checks: Checks,
    workload: str,
    seed: int,
    observed_digest: str,
    counts: Dict[str, int],
) -> int:
    """Compare the default seed's outputs with the pinned ones.

    Returns how many exact counts drifted.
    """
    if seed != DEFAULT_SEED:
        return 0
    pins = load_pins().get(workload)
    if pins is None:
        checks.expect(False, f"{workload}: no pinned outputs in pins.json")
        return 0
    checks.expect(observed_digest == pins["digest"],
                  f"{workload}: output digest {observed_digest[:16]} != "
                  f"pinned {pins['digest'][:16]}")
    drift = [key for key, value in pins["counts"].items()
             if counts.get(key) != value]
    checks.expect(not drift, f"{workload}: exact counts drifted: " + ", ".join(
        f"{key} {counts.get(key)} != {pins['counts'][key]}" for key in drift))
    return len(drift)


# -- grid and campaign units ----------------------------------------------------


def unit_config(workload: str, seed: int, run: Run) -> Dict[str, Any]:
    if workload == "crossover-campaign":
        return {"mode": "campaign", "spec": str(campaign_spec(seed, run.dir))}
    return {"mode": "grid", "payload": sweep_payload(workload, seed)}


def unit_outputs(
    workload: str, result: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], Optional[bytes], int]:
    """(records, report bytes, driver probes) of one finished unit."""
    if workload != "crossover-campaign":
        return result["records"], None, 0
    from repro.orchestrator import load_records

    records = [record.to_dict() for record in load_records(result["ledger"])]
    report = (result["dir"] / "report.json").read_bytes()
    probes = sum(driver["probe_count"] for driver in json.loads(report)["drivers"])
    return records, report, probes


def check_unit(
    checks: Checks, workload: str, seed: int, result: Dict[str, Any]
) -> Tuple[str, Dict[str, int]]:
    """Check one unit's outputs; returns (output digest, exact counts)."""
    records, report, probes = result.get("outputs") or unit_outputs(
        workload, result)
    check_records(checks, workload, records)
    counts = record_counts(records)
    counts["probes"] = probes
    counts["cache_hits"] = int(result.get("cached", 0))
    if report is None:
        return digest(records), counts
    from repro.campaigns import validate_campaign_report

    payload = json.loads(report)
    try:
        validate_campaign_report(payload)
    except ValueError as error:
        checks.expect(False, f"{workload}: invalid report: {error}")
    checks.expect(payload["summary"]["failed"] == 0,
                  f"{workload}: {payload['summary']['failed']} failed cells")
    if seed == DEFAULT_SEED:
        pinned = (BENCH_DIR / "CAMPAIGN_crossover.json").read_bytes()
        checks.expect(report == pinned,
                      f"{workload}: report differs from the pinned "
                      "CAMPAIGN_crossover.json")
    return hashlib.sha256(report).hexdigest(), counts


def cell_group(record: Dict[str, Any]) -> str:
    """Cells of one group differ only in their seed, so do similar work."""
    spec = record["spec"]
    return json.dumps([spec["algorithm"], spec["family"], spec["n"],
                       spec.get("id_range"), spec.get("options") or {}],
                      sort_keys=True)


def scaled_cells(unit: Dict[str, Any]) -> Tuple[List[float], float]:
    """(each cell's scaled seconds, scaled seconds outside cells) of a unit.

    The host's speed wanders by up to 2x over seconds to minutes, so raw
    wall times of identical units differ by tens of percent.  The host
    therefore runs ``host.speed_probe`` every few tens of milliseconds
    of CPU time (``host.CellClock``).  A cell's time, less the probes
    that ran inside it, is scaled by ``REFERENCE_PROBE_S`` over the mean
    probe time while it ran (its nearest probes if fewer than two ran
    inside it), so it reads as at one fixed reference speed.
    """
    probes = sorted(unit["probes"])
    starts = [start for start, _seconds in probes]
    inside_total, cell_total, scaled = 0.0, 0.0, []
    for _key, begin, end in unit["cells"]:
        low = bisect.bisect_left(starts, begin)
        high = bisect.bisect_left(starts, end)
        inside = [seconds for _start, seconds in probes[low:high]]
        nearby = inside if len(inside) >= 2 else [
            seconds for _start, seconds in probes[max(low - 1, 0):high + 1]]
        busy = end - begin - sum(inside)
        scaled.append(busy * REFERENCE_PROBE_S / statistics.mean(nearby))
        inside_total += sum(inside)
        cell_total += end - begin
    # The first and last probes run before and after the timed unit.
    outside_probes = sum(seconds for _start, seconds in probes[1:-1]) - inside_total
    rest = unit["unit_s"] - cell_total - outside_probes
    typical_probe = statistics.median(seconds for _start, seconds in probes)
    return scaled, rest * REFERENCE_PROBE_S / typical_probe


def typical_unit(units: List[Dict[str, Any]]) -> float:
    """Typical seconds of one unit, at the reference speed.

    Cell times are scaled to a reference host speed (``unit["scaled"]``,
    from :func:`scaled_cells`).  Each cell is then charged the median scaled time of its group (the
    same algorithm, family, size and options) over every seed and unit of
    the run, and a unit the sum of those medians plus its median scaled
    time outside cells (``run_jobs``, campaign drivers, fits, report).
    """
    samples: Dict[str, List[float]] = {}
    outside = []
    for unit in units:
        records = unit["outputs"][0]
        if len(unit["cells"]) != len(records):
            raise BenchError(f"timed {len(unit['cells'])} cells of {len(records)}")
        groups = {record["key"]: cell_group(record) for record in records}
        scaled, rest = unit["scaled"]
        for (key, _begin, _end), seconds in zip(unit["cells"], scaled):
            samples.setdefault(groups[key], []).append(seconds)
        outside.append(rest)
    typical = {group: statistics.median(times)
               for group, times in samples.items()}
    return sum(typical[cell_group(record)] for record in units[0]["outputs"][0]
               ) + statistics.median(outside)


def grid_e2e(
    workload: str, seed: int, seconds: float, run: Run, checks: Checks
) -> Tuple[Dict[str, float], int, Dict[str, Any]]:
    config = unit_config(workload, seed, run)
    setups = [
        spawn_host(run, dict(config, setup_only=True))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    units: List[Dict[str, Any]] = []
    begin = time.monotonic()
    while True:
        units.append(spawn_host(run, dict(config, cell_clock=True)))
        elapsed = time.monotonic() - begin
        # At least two units, so every cell group has repeats.
        if len(units) >= 2 and elapsed + 0.25 * elapsed / len(units) >= seconds:
            break
    setups.extend(unit["setup_s"] for unit in units)
    digests, cells = set(), 0
    for unit in units:
        unit["outputs"] = unit_outputs(workload, unit)
        unit_digest, counts = check_unit(checks, workload, seed, unit)
        digests.add(unit_digest)
        cells += counts["cells"]
    checks.expect(len(digests) == 1,
                  f"{workload}: repeated units disagree ({len(digests)} digests)")
    unit_digest = digests.pop()
    drift = check_pins(checks, workload, seed, unit_digest, counts)
    for unit in units:
        unit["scaled"] = scaled_cells(unit)
    unit_s = typical_unit(units)
    scaled_s = [sum(cells) + rest for cells, rest in
                (unit["scaled"] for unit in units)]
    metrics = {
        "cells_per_s": counts["cells"] / unit_s,
        "latency_p50_ms": 1000 * statistics.median(scaled_s),
        "latency_p90_ms": 1000 * percentile(scaled_s, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(unit["peak_rss_mb"] for unit in units),
    }
    detail = {"units": len(units), "unit_s": [unit["unit_s"] for unit in units],
              "typical_unit_s": unit_s, "scaled_unit_s": scaled_s,
              "setups_s": setups,
              "digest": unit_digest, "counts": counts, "count_drift": drift}
    return metrics, cells, detail


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- service jobs ------------------------------------------------------------------


def service_loop(
    daemon: Daemon,
    grids: List[Dict[str, Any]],
    until: Callable[[int], bool],
    recorder: Optional[tracing.SpanRecorder] = None,
) -> Dict[str, Any]:
    """Closed loop of ``submit -> wait -> fetch`` until ``until(done)``."""
    client = daemon.client
    polls = [0]
    poll = client.poll

    def counted_poll(job: str) -> Dict[str, Any]:
        polls[0] += 1
        return poll(job)

    client.poll = counted_poll
    if recorder is not None:
        client.poll = recorder.wrap("service.poll", counted_poll)
    span = recorder.span if recorder is not None else (
        lambda name: nullcontext())
    jobs: List[Dict[str, Any]] = []
    begin = time.monotonic()
    with span("unit"):
        while not until(len(jobs)):
            grid = grids[len(jobs)]
            polls[0] = 0
            t0 = time.monotonic()
            with span("service.submit"):
                submission = client.submit(grid)
            t1 = time.monotonic()
            with span("service.wait"):
                snapshot = client.wait(submission["job"])
            waited_wall = time.time()
            t2 = time.monotonic()
            with span("service.fetch"):
                result = client.fetch(submission["job"])
            t3 = time.monotonic()
            jobs.append({
                "latency_s": t3 - t0,
                "submit_s": t1 - t0,
                "fetch_s": t3 - t2,
                "lag_s": waited_wall - snapshot["finished_at"],
                "queue_wait_s": snapshot["started_at"] - snapshot["submitted_at"],
                "run_s": snapshot["finished_at"] - snapshot["started_at"],
                "polls": polls[0],
                "coalesced": bool(submission.get("coalesced")),
                "status": result["status"],
                "summary": result.get("summary") or {},
                "records": result["records"],
            })
    return {"jobs": jobs, "wall_s": time.monotonic() - begin}


def check_jobs(
    checks: Checks, seed: int, jobs: List[Dict[str, Any]]
) -> Tuple[Dict[str, int], int, str]:
    """Check every job; pin the first ``SERVICE_MIN_JOBS``' outputs."""
    for number, job in enumerate(jobs, 1):
        checks.expect(job["status"] == "done",
                      f"service-jobs: job {number} {job['status']}", number)
        checks.expect(len(job["records"]) == 4,
                      f"service-jobs: job {number} has "
                      f"{len(job['records'])} records", number)
        check_records(checks, "service-jobs", job["records"])
    head = jobs[:SERVICE_MIN_JOBS]
    records = [record for job in head for record in job["records"]]
    counts = record_counts(records)
    counts["cache_hits"] = sum(int(job["summary"].get("cached", 0))
                               for job in head if not job["coalesced"])
    counts["coalesced"] = sum(job["coalesced"] for job in head)
    head_digest = digest(records)
    drift = check_pins(checks, "service-jobs", seed, head_digest, counts)
    return counts, drift, head_digest


def service_e2e(
    seed: int, seconds: float, run: Run, checks: Checks
) -> Tuple[Dict[str, float], int, Dict[str, Any]]:
    setups = []
    for _ in range(SETUP_PROBES - 1):
        probe = Daemon(run)
        setups.append(probe.setup_s)
        probe.stop(graceful=False)
    daemon = Daemon(run)
    setups.append(daemon.setup_s)
    grids = service_submissions(seed, 10 * SERVICE_MIN_JOBS)
    try:
        begin = time.monotonic()
        loop = service_loop(
            daemon, grids,
            lambda done: done == len(grids) or (
                done >= SERVICE_MIN_JOBS
                and time.monotonic() - begin >= seconds),
        )
        rss = peak_rss_mb(str(daemon.proc.pid))
    finally:
        daemon.stop()
    jobs = loop["jobs"]
    counts, drift, head_digest = check_jobs(checks, seed, jobs)
    latencies = [job["latency_s"] for job in jobs]
    cells = sum(len(job["records"]) for job in jobs)
    metrics = {
        "cells_per_s": cells / loop["wall_s"],
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    detail = {"jobs": len(jobs), "setups_s": setups, "digest": head_digest,
              "counts": counts, "count_drift": drift}
    return metrics, len(jobs), detail


# -- traced runs -----------------------------------------------------------------------


def import_seconds() -> float:
    """Median fresh ``import repro.cli`` minus a bare interpreter start."""

    def timed(code: str) -> float:
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       check=True, cwd=CHECKOUT)
        return time.monotonic() - start

    cli = [timed("import repro.cli") for _ in range(IMPORT_SAMPLES)]
    bare = [timed("pass") for _ in range(IMPORT_SAMPLES)]
    return statistics.median(cli) - statistics.median(bare)


def empty_layer_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_METRICS}


def span_metrics(
    layer: Dict[str, float], spans: List[Dict[str, Any]],
    executed: List[Dict[str, Any]],
) -> None:
    """Fill the span-derived per-layer metrics from one traced unit."""
    inclusive = tracing.per_name(spans)
    own = tracing.per_name(spans, self_only=True)

    def seconds(name: str, table=inclusive) -> float:
        return table.get(name, {}).get("seconds", 0.0)

    def mean_ms(name: str) -> float:
        entry = inclusive.get(name)
        return 1000 * entry["seconds"] / entry["count"] if entry else 0.0

    layer["graphs.build_s"] = seconds("graphs.build")
    layer["graphs.validate_s"] = seconds("graphs.validate", own)
    engine_total = 0.0
    for kind in ENGINE_KINDS:
        layer[f"engine.run_s.{kind}"] = seconds(f"engine.{kind}")
        engine_total += layer[f"engine.run_s.{kind}"]
    awake = record_counts(executed)["awake_node_rounds"]
    layer["sim.ns_per_awake_round"] = 1e9 * engine_total / awake if awake else 0.0
    layer["orchestrator.overhead_s"] = (
        seconds("orchestrator.run_jobs") - seconds("orchestrator.cell"))
    layer["orchestrator.cache_get_ms"] = mean_ms("orchestrator.cache_get")
    layer["orchestrator.cache_put_ms"] = mean_ms("orchestrator.cache_put")
    layer["orchestrator.store_append_ms"] = mean_ms("orchestrator.store_append")
    lookups = [span for span in spans if span["name"] == "orchestrator.cache_get"]
    hits = sum(1 for span in lookups if span.get("args", {}).get("hit"))
    layer["orchestrator.cache_hit_ratio"] = hits / len(lookups) if lookups else 0.0
    if "campaigns.run" in inclusive:
        layer["campaigns.overhead_s"] = (
            seconds("campaigns.run") + seconds("campaigns.write_report")
            - seconds("orchestrator.run_jobs"))


def identity(
    checks: Checks, workload: str, layer: Dict[str, float],
    spans: List[Dict[str, Any]],
) -> None:
    """Per-layer self seconds + ``other`` must sum to the traced wall."""
    root = next(span for span in spans if span["name"] == "unit")
    wall = root["end"] - root["start"]
    selfs = tracing.layer_self_seconds(spans, root["id"])
    unknown = set(selfs) - set(SPAN_LAYERS)
    checks.expect(not unknown, f"{workload}: spans outside known layers {unknown}")
    for name in SPAN_LAYERS:
        layer[f"{name}.self_s"] = selfs.get(name, 0.0)
    layer["trace.wall_s"] = wall
    total = sum(selfs.values())
    checks.expect(abs(total - wall) <= 1e-6 * max(1.0, wall),
                  f"{workload}: layer self times sum to {total} != wall {wall}")


def profile_metrics(layer: Dict[str, float], rows: List[Any]) -> None:
    shares = tracing.profile_shares(rows)
    for module in (*tracing.PROFILE_MODULES, "other"):
        layer[f"{module}.self_share"] = shares.get(module, 0.0)


def executed_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [record for record in records
            if (record.get("telemetry") or {}).get("source") == "executed"]


def grid_traced(
    workload: str, seed: int, run: Run, checks: Checks
) -> Tuple[Dict[str, float], int, Dict[str, Any]]:
    layer = empty_layer_metrics()
    layer["imports.repro_cli_s"] = import_seconds()
    config = unit_config(workload, seed, run)
    passes = {trace: spawn_host(run, dict(config, trace=trace))
              for trace in ("off", "spans", "profile")}
    digests = set()
    for trace, result in passes.items():
        unit_digest, counts = check_unit(checks, workload, seed, result)
        digests.add(unit_digest)
        if trace == "off":
            base_counts = counts
    checks.expect(len(digests) == 1,
                  f"{workload}: tracing changed the outputs")
    layer["counts.drift"] = check_pins(
        checks, workload, seed, digests.pop(), base_counts)
    for key, name in COUNT_METRICS.items():
        layer[name] = base_counts[key]
    traced = passes["spans"]
    records, _, _ = unit_outputs(workload, traced)
    span_metrics(layer, traced["spans"], executed_records(records))
    identity(checks, workload, layer, traced["spans"])
    profile_metrics(layer, passes["profile"]["profile"])
    untraced_wall = passes["off"]["wall_s"]
    layer["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    layer["trace.profile_overhead_ratio"] = (
        passes["profile"]["wall_s"] / untraced_wall)
    trace_path = export_trace(checks, workload, seed, [
        {"pid": traced["pid"], "process": f"host ({workload})",
         "spans": traced["spans"]}])
    cells = 3 * base_counts["cells"]
    return layer, cells, {"trace": str(trace_path),
                          "walls_s": {k: v["wall_s"] for k, v in passes.items()}}


def service_traced(
    seed: int, run: Run, checks: Checks
) -> Tuple[Dict[str, float], int, Dict[str, Any]]:
    layer = empty_layer_metrics()
    layer["imports.repro_cli_s"] = import_seconds()
    grids = service_submissions(seed, SERVICE_MIN_JOBS)
    setups, loops, hosts = [], {}, {}
    recorder = tracing.SpanRecorder()
    for trace in ("off", "spans", "profile"):
        daemon = Daemon(run, trace=trace)
        setups.append(daemon.setup_s)
        try:
            loops[trace] = service_loop(
                daemon, grids, lambda done: done >= SERVICE_MIN_JOBS,
                recorder if trace == "spans" else None)
        finally:
            hosts[trace] = daemon.stop()
    digests = set()
    for trace, loop in loops.items():
        counts, drift, head_digest = check_jobs(checks, seed, loop["jobs"])
        digests.add(head_digest)
        if trace == "off":
            base_counts, layer["counts.drift"] = counts, drift
    checks.expect(len(digests) == 1, "service-jobs: tracing changed the outputs")
    for key, name in COUNT_METRICS.items():
        layer[name] = base_counts[key]
    jobs = loops["off"]["jobs"]
    fresh = [job for job in jobs if not job["coalesced"]]

    def median_ms(key: str, subset: List[Dict[str, Any]]) -> float:
        return 1000 * statistics.median(job[key] for job in subset)

    layer["service.submit_ms"] = median_ms("submit_s", jobs)
    layer["service.fetch_ms"] = median_ms("fetch_s", jobs)
    layer["service.queue_wait_ms"] = median_ms("queue_wait_s", fresh)
    layer["service.run_ms"] = median_ms("run_s", fresh)
    layer["service.result_lag_ms"] = median_ms("lag_s", fresh)
    layer["service.polls_per_job"] = statistics.mean(job["polls"] for job in jobs)
    layer["service.coalesced_ratio"] = (
        sum(job["coalesced"] for job in jobs) / len(jobs))
    layer["service.daemon_ready_s"] = statistics.median(setups)
    daemon_spans = hosts["spans"]["spans"]
    executed = executed_records(
        [record for job in loops["spans"]["jobs"] for record in job["records"]])
    span_metrics(layer, daemon_spans, executed)
    identity(checks, "service-jobs", layer, recorder.spans)
    profile_metrics(layer, hosts["profile"]["profile"])
    untraced_wall = loops["off"]["wall_s"]
    layer["trace.overhead_ratio"] = loops["spans"]["wall_s"] / untraced_wall
    layer["trace.profile_overhead_ratio"] = (
        loops["profile"]["wall_s"] / untraced_wall)
    trace_path = export_trace(checks, "service-jobs", seed, [
        {"pid": os.getpid(), "process": "benchmark client",
         "spans": recorder.spans},
        {"pid": hosts["spans"]["pid"], "process": "repro serve",
         "spans": [span for span in daemon_spans if span["name"] != "unit"]},
    ])
    return layer, 3 * SERVICE_MIN_JOBS, {
        "trace": str(trace_path),
        "walls_s": {k: v["wall_s"] for k, v in loops.items()},
    }


def export_trace(
    checks: Checks, workload: str, seed: int, groups: List[Dict[str, Any]]
) -> Path:
    from repro.obs import validate_chrome_trace

    payload = tracing.chrome_trace(groups)
    try:
        validate_chrome_trace(payload)
    except ValueError as error:
        checks.expect(False, f"{workload}: invalid Chrome trace: {error}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json"
    tracing.write_json(path, payload)
    return path


# -- driver ---------------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    run = Run(workload, seed)
    checks = Checks()
    env = environment()
    try:
        if workload == "service-jobs" and trace:
            values, attempted, detail = service_traced(seed, run, checks)
        elif workload == "service-jobs":
            values, attempted, detail = service_e2e(seed, seconds, run, checks)
        elif trace:
            values, attempted, detail = grid_traced(workload, seed, run, checks)
        else:
            values, attempted, detail = grid_e2e(
                workload, seed, seconds, run, checks)
    finally:
        run.close()
    units = LAYER_METRICS if trace else E2E_METRICS
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "attempted": attempted,
        "failed": checks.failed,
        "check_failures": checks.failures,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": detail,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program sources at {SRC}; run from the checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for workload, trace in plan:
        try:
            results.append(run_workload(workload, args.seed, args.seconds, trace))
        except (BenchError, subprocess.SubprocessError, OSError) as error:
            print(f"{workload}: benchmark error: {error}", file=sys.stderr)
            return 3
    OUT.mkdir(exist_ok=True)
    for result in results:
        name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
        tracing.write_json(OUT / f"{name}.json", result)
        print(f"== {name}  {json.dumps(result['environment'], sort_keys=True)}",
              file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}",
                  file=sys.stderr)
        for failure in result["check_failures"]:
            print(f"  CHECK FAILED: {failure}", file=sys.stderr)
    failures = sum(result["failed"] for result in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{result['workload']}/{metric}": entry
                   for result in results
                   for metric, entry in result["metrics"].items()}
    print(json.dumps({
        "correct": failures == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failures,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
