"""Child process that hosts one unit of a benchmark workload.

``run.py`` spawns ``python3 perfbench/host.py CONFIG.json`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The host imports the
program the way its CLI does, notes the moment it is ready for its
first cell, runs one unit (a ``run_jobs`` grid, a campaign, or a
``repro serve`` daemon) and writes what it measured to the JSON file the
config names.  Modes:

* ``grid``      -- one :func:`repro.orchestrator.run_jobs` call with a
  fresh result cache and run store (the ``batch`` defaults);
* ``campaign``  -- :func:`repro.campaigns.run_campaign` with a fresh root
  and no cache, then the report write (``campaign run --no-cache``);
* ``serve``     -- ``repro.cli.main(["serve", ...])`` until SIGINT.

``setup_only`` stops right after the ready mark.  ``trace`` is ``off``,
``spans`` (wall-clock spans around the program's public calls) or
``profile`` (a deterministic cProfile of the cells, grouped by module).
"""

from __future__ import annotations

import time

HOST_START = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from spans import SpanRecorder  # noqa: E402

#: Canonical algorithm name -> label of its ``engine.run_s.*`` metric.
ENGINE_LABELS = {
    "Randomized-MST": "randomized",
    "Deterministic-MST": "deterministic",
    "Pipelined-GHS": "pipelined",
    "Sleeping-MIS": "mis",
}


def peak_rss_mb(pid: str = "self") -> float:
    """The process's ``VmHWM`` (peak resident set) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def speed_probe(rounds: int = 1500) -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The loop mixes what the simulator does most (dict and list updates,
    attribute reads, small calls) and touches nothing of the program.
    The collector is off while it runs, so the program's heap does not
    bill its collections to the probe.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        state = _ProbeState()
        for step in range(rounds):
            state.visit(step % 97, step)
        state.queue.sort()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class _ProbeState:
    def __init__(self) -> None:
        self.seen = {}
        self.queue = []

    def visit(self, key: int, value: int) -> None:
        self.seen[key] = self.seen.get(key, 0) + (value & 7)
        if value % 3 == 0:
            self.queue.append((value % 251, key))


class CellClock:
    """Cell wall times plus the host's speed sampled while they run.

    Every ``interval`` seconds of CPU time a ``SIGPROF`` handler runs
    :func:`speed_probe` between two bytecodes of whatever the program is
    doing, so the probes sample the host's speed evenly over the unit.
    ``cells`` gets ``[key, start, end]`` per executed cell and ``probes``
    ``[start, seconds]`` per probe, all on ``time.perf_counter``.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.cells = []
        self.probes = []

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.probes.append([start, speed_probe()])

    def install(self) -> None:
        import signal

        import repro.orchestrator.pool as pool

        execute = pool.execute_with_policy

        @functools.wraps(execute)
        def timed(spec, *args, **kwargs):
            start = time.perf_counter()
            record = execute(spec, *args, **kwargs)
            self.cells.append([record.key, start, time.perf_counter()])
            return record

        pool.execute_with_policy = timed
        self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._tick(None, None)


def _engine_wrapper(recorder, name, runner):
    label = ENGINE_LABELS.get(name, name.lower())

    @functools.wraps(runner)
    def wrapped(graph, seed, **options):
        kind = "array" if options.get("engine") == "array" else label
        with recorder.span("engine." + kind):
            return runner(graph, seed, **options)

    return wrapped


def install_span_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the program's layer entry points in spans (this process only)."""
    import repro.graphs
    import repro.orchestrator.pool as pool
    from repro.core.runner import MSTRunResult
    from repro.invariants import MonitorSet
    from repro.orchestrator import GRAPH_FAMILIES, ResultCache, RunStore
    from repro.problems import problem_bundle
    from repro.problems.mis.runner import MISRunResult

    for family, factory in list(GRAPH_FAMILIES.items()):
        GRAPH_FAMILIES[family] = recorder.wrap("graphs.build", factory)
    for problem in ("mst", "mis"):
        algorithms = problem_bundle(problem).algorithms
        for name, runner in list(algorithms.items()):
            algorithms[name] = _engine_wrapper(recorder, name, runner)
    for cls in (MSTRunResult, MISRunResult):
        cls.is_correct = recorder.wrap("graphs.validate", cls.is_correct)
    repro.graphs.verify_or_diagnose = recorder.wrap(
        "graphs.validate", repro.graphs.verify_or_diagnose
    )
    MonitorSet.finalize = recorder.wrap(
        "invariants.finalize", MonitorSet.finalize
    )
    ResultCache.get = recorder.wrap(
        "orchestrator.cache_get",
        ResultCache.get,
        on_result=lambda notes, hit: notes.update(hit=hit is not None),
    )
    ResultCache.put = recorder.wrap("orchestrator.cache_put", ResultCache.put)
    RunStore.append = recorder.wrap(
        "orchestrator.store_append", RunStore.append
    )
    pool.execute_with_policy = recorder.wrap(
        "orchestrator.cell", pool.execute_with_policy
    )


def profiled(fn, profiles):
    """Run ``fn`` under a per-call cProfile (works off the main thread)."""
    import cProfile

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.disable()
            profiles.append(profiler)

    return wrapped


def merged_stats(profiles):
    import pstats

    if not profiles:
        return {}
    stats = pstats.Stats(profiles[0])
    for profiler in profiles[1:]:
        stats.add(profiler)
    return stats.stats


def stats_to_json(stats):
    """``pstats`` mapping -> JSON list (keys become ``[file, line, name]``)."""
    return [
        [list(func), tottime, [[list(caller), cs[2]] for caller, cs in callers.items()]]
        for func, (_cc, _nc, tottime, _ct, callers) in stats.items()
    ]


def run_unit(config, recorder, profiles, result):
    mode = config["mode"]
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    with span("cli.import"):
        import repro.cli  # noqa: F401  (the CLI's import cost is set-up)
    if mode == "grid":
        from repro.orchestrator import ResultCache, grid_from_payload, run_jobs

        specs = grid_from_payload(config["payload"])
        cache = ResultCache(config["root"] + "/cache")
        store = config["root"] + "/runs.jsonl"
    else:
        from repro.campaigns import (
            CampaignSpec,
            LocalGridExecutor,
            ledger_path,
            run_campaign,
            write_report,
        )

        spec = CampaignSpec.load(config["spec"])
        executor = LocalGridExecutor(
            store=ledger_path(config["root"], spec.name), cache=None, workers=1
        )
    result["ready"] = time.monotonic()
    if config.get("setup_only"):
        return
    if recorder is not None:
        install_span_wrappers(recorder)
        if mode == "grid":
            run_jobs = recorder.wrap("orchestrator.run_jobs", run_jobs)
        else:
            import repro.campaigns.runner as campaign_runner

            campaign_runner.run_jobs = recorder.wrap(
                "orchestrator.run_jobs", campaign_runner.run_jobs
            )
            run_campaign = recorder.wrap("campaigns.run", run_campaign)
            write_report = recorder.wrap("campaigns.write_report", write_report)
    if profiles is not None:
        if mode == "grid":
            run_jobs = profiled(run_jobs, profiles)
        else:
            run_campaign = profiled(run_campaign, profiles)
    clock = CellClock() if config.get("cell_clock") else None
    if clock is not None:
        clock.install()
    started = time.monotonic()
    if mode == "grid":
        report = run_jobs(specs, workers=1, cache=cache, store=store)
        result["records"] = [record.to_dict() for record in report.records]
        result["cached"] = report.cached
    else:
        payload = run_campaign(spec, executor)
        write_report(payload, config["report"])
        result["ledger"] = str(ledger_path(config["root"], spec.name))
    result["unit_s"] = time.monotonic() - started
    if clock is not None:
        clock.stop()
        result["cells"], result["probes"] = clock.cells, clock.probes


def serve(config, recorder, profiles, result):
    """Host ``repro serve``; wrappers see every job the daemon drains."""
    import repro.cli
    import repro.service.queue as service_queue

    if recorder is not None:
        install_span_wrappers(recorder)
        service_queue.run_jobs = recorder.wrap(
            "orchestrator.run_jobs", service_queue.run_jobs
        )
    if profiles is not None:
        service_queue.run_jobs = profiled(service_queue.run_jobs, profiles)
    result["ready"] = time.monotonic()
    repro.cli.main(["serve", *config["argv"]])


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    trace = config.get("trace", "off")
    recorder = SpanRecorder() if trace == "spans" else None
    profiles = [] if trace == "profile" else None
    result = {"host_start": HOST_START, "pid": os.getpid()}
    root = recorder.span("unit") if recorder is not None else nullcontext()
    with root:
        if config["mode"] == "serve":
            serve(config, recorder, profiles, result)
        else:
            run_unit(config, recorder, profiles, result)
    result["end"] = time.monotonic()
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        result["spans"] = recorder.spans
    if profiles is not None:
        result["profile"] = stats_to_json(merged_stats(profiles))
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
