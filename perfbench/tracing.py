"""Per-layer spans around satiot's public functions, installed from outside.

A traced run wraps each target in :data:`TARGETS`.  A target is named by
the dotted path where its caller looks it up (a class attribute, or the
module global a caller imported with ``from ... import``), so the wrapper
is what the caller actually calls.  A target that does not exist at the
checked-out commit is reported as ``absent`` instead of failing the run,
which keeps the traced run usable across refactors.

Spans are kept in memory (one tuple each) and written out once, when the
traced process ends.  Self time is computed afterwards, per thread, as a
span's duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _sgp4_instants(args: tuple) -> int:
    return int(np.size(args[1]))


def _batch_instants(args: tuple) -> int:
    tsince = args[1]
    rows = len(args[0]) if np.ndim(tsince) <= 1 else 1
    return int(np.size(tsince)) * rows


#: (span name, dotted lookup path, units counter or None).  One span
#: name may cover several targets; the report sums them.
TARGETS: Tuple[Tuple[str, str, Optional[Callable[[tuple], int]]], ...] = (
    ("orbits.refine", "satiot.orbits.passes.PassPredictor.elevation_at",
     None),
    ("orbits.sgp4_scalar", "satiot.orbits.sgp4.SGP4.propagate",
     _sgp4_instants),
    ("orbits.sgp4_batch", "satiot.orbits.sgp4_batch.SGP4Batch.propagate",
     _batch_instants),
    ("orbits.pass_search",
     "satiot.groundstation.scheduler.Scheduler.predict_windows", None),
    ("orbits.pass_search",
     "satiot.runtime.ephemeris_cache.EphemerisCache.find_passes", None),
    ("orbits.pass_search",
     "satiot.runtime.ephemeris_cache.EphemerisCache.find_passes_multi",
     None),
    ("orbits.pass_search",
     "satiot.runtime.ephemeris_cache.EphemerisCache.find_passes_fleet",
     None),
    ("orbits.pass_search", "satiot.orbits.passes.PassPredictor.find_passes",
     None),
    ("groundstation.schedule",
     "satiot.groundstation.scheduler.Scheduler.build_schedule", None),
    ("groundstation.receive",
     "satiot.groundstation.receiver.BeaconReceiver.receive_pass", None),
    ("phy.channel", "satiot.phy.channel.DtSChannel.simulate_packets", None),
    ("network.ground_segment",
     "satiot.network.store_forward.GroundSegment.__init__", None),
    ("network.mac", "satiot.network.mac.DtSMac.run", None),
    ("network.delivery", "satiot.core.active.finalize_deliveries", None),
    ("network.terrestrial",
     "satiot.network.terrestrial.TerrestrialLoRaWAN.run", None),
    ("core.campaign", "satiot.core.campaign.PassiveCampaign.run", None),
    ("core.campaign", "satiot.core.active.ActiveCampaign.run", None),
    ("runtime.constellation_grid",
     "satiot.runtime.ephemeris_cache.EphemerisCache.constellation_grid",
     None),
    ("runtime.extend_grid",
     "satiot.runtime.ephemeris_cache.EphemerisCache._extend_from_prefix",
     None),
    ("serving.parse", "satiot.serving.service.PassesRequest.from_params",
     None),
    ("serving.parse", "satiot.serving.service.PresenceRequest.from_params",
     None),
    ("serving.parse",
     "satiot.serving.service.LinkBudgetRequest.from_params", None),
    ("serving.handler",
     "satiot.serving.service.ConstellationService.passes_batch", None),
    ("serving.handler",
     "satiot.serving.service.ConstellationService.presence_batch", None),
    ("serving.handler",
     "satiot.serving.service.ConstellationService.link_budget_batch",
     None),
    ("serving.encode", "satiot.serving.server.json_response", None),
    ("serving.submit", "satiot.serving.batcher.MicroBatcher.submit", None),
)

#: Queue wait runs from ``MicroBatcher.submit`` to the start of the
#: handler call that receives the request.
_SUBMIT_SPAN = "serving.submit"
_HANDLER_SPAN = "serving.handler"


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans.

    A span is ``(id, name, thread, parent, start, end, units)``; the
    parent is the innermost span open in the same thread.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[tuple] = []
        self.queue_waits_s: List[float] = []
        self._submitted: Dict[int, float] = {}

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.queue_waits_s = []
            self._submitted = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable[[tuple], int]]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            if name == _SUBMIT_SPAN and len(args) > 1:
                with self._lock:
                    self._submitted[id(args[1])] = time.perf_counter()
            elif name == _HANDLER_SPAN and len(args) > 1:
                now = time.perf_counter()
                with self._lock:
                    for request in args[1]:
                        t_submit = self._submitted.pop(id(request), None)
                        if t_submit is not None:
                            self.queue_waits_s.append(now - t_submit)
            count = units(args) if units is not None else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, name,
                                       threading.get_ident(), parent,
                                       start, end, count))
        return traced

    def dump(self, path: str, status: Dict[str, str]) -> None:
        """Write spans, queue waits and target status as one JSON file."""
        with self._lock:
            data = {"spans": self.spans,
                    "queue_waits_s": self.queue_waits_s,
                    "status": status}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _resolve(dotted: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` for a dotted path, or None if absent."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def install(recorder: SpanRecorder,
            targets: Sequence[tuple] = TARGETS) -> Dict[str, str]:
    """Wrap every target in place; returns ``{dotted: status}``."""
    status: Dict[str, str] = {}
    for name, dotted, units in targets:
        found = _resolve(dotted)
        if found is None:
            status[dotted] = "absent"
            continue
        owner, attr = found
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__, units))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(recorder.wrap(name, raw.__func__, units))
        else:
            wrapped = recorder.wrap(name, raw, units)
        setattr(owner, attr, wrapped)
        status[dotted] = "wrapped"
    return status


def _covered(interval: Tuple[float, float],
             children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Self time of every span: duration minus its children's coverage.

    Children are the spans whose parent is this span; they ran in the
    same thread, so their union never exceeds the parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, _name, _tid, parent, start, end, _units in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered((start, end),
                                          children.get(sid, ()))
            for sid, _name, _tid, _parent, start, end, _units in spans}


def summarize(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, units."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, _tid, _parent, start, end, units in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "units": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
        row["units"] += units
    return out


def load(path: str) -> Tuple[List[tuple], List[float], Dict[str, str]]:
    """Spans, queue waits and target status written by :meth:`dump`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return ([tuple(s) for s in data["spans"]], data["queue_waits_s"],
            data["status"])
