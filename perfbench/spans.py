"""Wall-clock spans, per-module profile shares and Chrome trace export.

Spans are recorded in memory by wrappers the benchmark installs around
the program's public calls; nothing here is imported by the program.
A span's layer is the part of its name before the first dot, so
``graphs.build`` belongs to layer ``graphs``.  Timestamps come from
``time.monotonic()``, which on Linux is one clock for every process of a
boot, so spans from the benchmark and from a daemon it spawned line up
in one trace.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional


class SpanRecorder:
    """Thread-aware in-memory span recorder (name, start, end, parent)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **args: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield args
        finally:
            end = time.monotonic()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "tid": threading.get_ident(),
            }
            if args:
                record["args"] = args
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Dict[str, Any], Any], None]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span; ``on_result`` may annotate it."""

        @functools.wraps(fn)
        def wrapped(*call_args: Any, **call_kwargs: Any) -> Any:
            with self.span(name) as annotations:
                result = fn(*call_args, **call_kwargs)
                if on_result is not None:
                    on_result(annotations, result)
                return result

        return wrapped


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_self_seconds(
    spans: Iterable[Dict[str, Any]], root_id: int
) -> Dict[str, float]:
    """Per-layer self seconds of the tree under ``root_id``.

    The root's own self time is the uncovered remainder, reported as
    ``other``; the values therefore sum to the root's duration.
    """
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    todo = [root_id]
    while todo:
        span_id = todo.pop()
        layer = "other" if span_id == root_id else layer_of(by_id[span_id]["name"])
        totals[layer] += own[span_id]
        todo.extend(child["id"] for child in children[span_id])
    return dict(totals)


def per_name(
    spans: Iterable[Dict[str, Any]], self_only: bool = False
) -> Dict[str, Dict[str, float]]:
    """Name -> {"count", "seconds"} (inclusive, or self with ``self_only``)."""
    spans = list(spans)
    own = self_times(spans) if self_only else None
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "seconds": 0.0}
    )
    for span in spans:
        entry = totals[span["name"]]
        entry["count"] += 1
        entry["seconds"] += (
            own[span["id"]] if own is not None else span["end"] - span["start"]
        )
    return dict(totals)


def chrome_trace(groups: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Trace-event JSON (``ph: X`` complete events) that Perfetto loads.

    ``groups`` are ``{"pid", "process", "spans"}`` dicts, one per process.
    Timestamps are microseconds since the earliest span.
    """
    groups = list(groups)
    starts = [span["start"] for group in groups for span in group["spans"]]
    origin = min(starts) if starts else 0.0
    metadata: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for group in groups:
        pid = group["pid"]
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": group["process"]},
            }
        )
        tids = {}
        for span in group["spans"]:
            tid = tids.setdefault(span["tid"], len(tids) + 1)
            args = {"span_id": span["id"], "parent": span["parent"]}
            args.update(span.get("args", {}))
            events.append(
                {
                    "name": span["name"],
                    "cat": layer_of(span["name"]),
                    "ph": "X",
                    "ts": round((span["start"] - origin) * 1e6, 3),
                    "dur": round((span["end"] - span["start"]) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    events.sort(key=lambda event: (event["ts"], -event["dur"]))
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_json(path: Any, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)


# -- deterministic profile grouped by module --------------------------------

#: Modules whose self time is reported on its own; the rest is ``other``.
PROFILE_MODULES = (
    "sim.engine",
    "sim.congest",
    "sim.node",
    "sim.transport",
    "sim.array_engine",
    "core",
    "baselines",
    "problems",
    "obs",
    "invariants",
    "graphs",
    "orchestrator",
    "campaigns",
    "service",
    "analysis",
)


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/sim/engine.py`` -> ``sim.engine``; None outside."""
    path = filename.replace("\\", "/")
    anchor = path.rfind("/src/repro/")
    if anchor < 0 or not path.endswith(".py"):
        return None
    parts = path[anchor + len("/src/repro/"):-3].split("/")
    if parts[0] == "sim" and len(parts) > 1:
        name = "sim." + parts[1]
    else:
        name = parts[0]
    return name if name in PROFILE_MODULES else "other"


def profile_shares(entries: Iterable[Any]) -> Dict[str, float]:
    """Self-time share per module from ``[func, tottime, callers]`` rows.

    ``func`` is ``[file, line, name]`` and ``callers`` lists
    ``[caller_func, tottime_when_called_from_it]`` (the ``pstats`` layout,
    flattened to JSON by ``host.py``).  A function of the program charges
    its own time to its module.  Time in builtins, the standard library
    or numpy is charged to the module of the program function that
    called it, split by caller, so a layer's share includes the C calls
    it makes directly.
    """
    totals: Dict[str, float] = defaultdict(float)
    for func, tottime, callers in entries:
        module = module_of(func[0])
        if module is not None:
            totals[module] += tottime
            continue
        charged = 0.0
        for caller, caller_tottime in callers:
            totals[module_of(caller[0]) or "other"] += caller_tottime
            charged += caller_tottime
        totals["other"] += max(0.0, tottime - charged)
    grand = sum(totals.values())
    if grand <= 0:
        return {}
    return {module: seconds / grand for module, seconds in totals.items()}
