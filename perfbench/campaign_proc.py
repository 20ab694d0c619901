"""Program process of the campaign workloads.

Runs whole ``PassiveCampaign``/``ActiveCampaign`` operations on behalf
of ``perfbench/run.py`` and reports on stdout, one JSON object a line:

* ``{"event": "ready"}`` once imports and inputs are done (set-up ends);
* ``{"event": "warm"}`` after the untimed warm-up op, if there is one;
* ``{"event": "op", ...}`` per timed op: wall time, output digest,
  oracle check results and the campaign cache's ``CacheStats``;
* ``{"event": "done"}`` at the end.

Usage, from the checkout root with ``src`` on ``PYTHONPATH``::

    python perfbench/campaign_proc.py '<job json>'

The job names the workload, the campaign length, the seed and length of
an untimed warm-up op (none when absent), and (for a traced run) where
to write spans.  Timed ops are read from stdin, one line each: the
campaign seed and the seed that picks the windows to oracle-check.  The
process ends at end of input.  Every op gets a fresh, cold ephemeris
cache, as a ``satiot passive`` run does.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import random
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from satiot.core.active import ActiveCampaign, ActiveCampaignConfig  # noqa: E402
from satiot.core.campaign import (PassiveCampaign,  # noqa: E402
                                  PassiveCampaignConfig)
from satiot.groundstation.traces import (NUMERIC_FIELDS,  # noqa: E402
                                         STRING_FIELDS)
from satiot.network.store_forward import TIANQI_GROUND_STATIONS  # noqa: E402
from satiot.runtime import EphemerisCache  # noqa: E402

from oracle import LookAngleOracle, window_errors  # noqa: E402
import tracing  # noqa: E402

#: Refinement tolerance of the campaigns' bisection (their default).
REFINE_TOL_S = 0.5
#: A campaign's culmination is one parabolic step from its coarse grid,
#: reported with the elevation computed at that instant: the oracle must
#: agree there to this, and put the true peak within one coarse step.
PEAK_TOL_DEG = 0.01
#: Pass windows checked against the oracle per op.
ORACLE_SAMPLES = 6


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _canonical(value):
    """JSON-ready, order-stable form of campaign output objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(_canonical(k)): _canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, np.generic):
        return value.item()
    return value


def passive_digest(result) -> str:
    """SHA-256 of the canonical trace dataset, column by column."""
    block = result.dataset.columns.canonicalized()
    digest = hashlib.sha256()
    for name in NUMERIC_FIELDS:
        column = np.ascontiguousarray(block.column(name))
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(column.tobytes())
    for name in STRING_FIELDS:
        values = block.string_column(name).values()
        digest.update(f"{name}:".encode())
        digest.update("\x1f".join(str(v) for v in values).encode())
    return digest.hexdigest()


def active_digest(result) -> str:
    """SHA-256 of every delivery record and energy breakdown."""
    payload = _canonical({
        "satellite": result.satellite_records,
        "terrestrial": result.terrestrial_records,
        "tianqi_energy": result.tianqi_energy,
        "terrestrial_energy": result.terrestrial_energy,
        "monitoring_rx_s": result.monitoring_rx_s,
    })
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_passive(result, rng: random.Random) -> tuple:
    """Oracle-check sampled scheduled windows; ``(checked, errors)``."""
    cfg = result.config
    candidates = [sp for site in result.site_results.values()
                  for sp in site.schedule.assigned]
    errors = []
    picks = rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates)))
    for sp in picks:
        w = sp.window
        oracle = LookAngleOracle(sp.satellite.tle, sp.station.location,
                                 result.epoch)
        errors += [f"{sp.satellite.norad_id}@{sp.station.site}: {e}"
                   for e in window_errors(
                       oracle, rise_s=w.rise_s, set_s=w.set_s,
                       culmination_s=w.culmination_s,
                       max_elevation_deg=w.max_elevation_deg,
                       mask_deg=cfg.min_elevation_deg,
                       time_tol_s=REFINE_TOL_S, peak_tol_deg=PEAK_TOL_DEG,
                       culmination_tol_s=cfg.coarse_step_s,
                       check_rise=not w.clipped_start,
                       check_set=not w.clipped_end)]
    return len(picks), errors


def check_active(result, rng: random.Random) -> tuple:
    """Oracle-check sampled operator offload windows.

    A window's station is not recorded, so it passes when some Tianqi
    ground station sees both its rise and its set cross that station's
    mask within the refinement tolerance.
    """
    duration = result.config.duration_s
    candidates = [(sat, span) for sat in result.constellation
                  for span in result.ground_segment.offload_windows(
                      sat.norad_id)
                  if 0.0 < span[0] and span[1] < duration]
    errors = []
    picks = rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates)))
    for sat, (rise, set_) in picks:
        matched = False
        for station in TIANQI_GROUND_STATIONS:
            oracle = LookAngleOracle(sat.tle, station.location,
                                     result.epoch)
            if not window_errors(oracle, rise_s=rise, set_s=set_,
                                 mask_deg=station.min_elevation_deg,
                                 time_tol_s=REFINE_TOL_S):
                matched = True
                break
        if not matched:
            errors.append(f"{sat.norad_id}: offload window "
                          f"[{rise:.3f}, {set_:.3f}]s matches no ground "
                          f"station's mask crossings")
    return len(picks), errors


def run_op(workload: str, days: float, seed: int, check_seed: int) -> dict:
    """One timed campaign op plus its (untimed) digest and checks."""
    cache = None
    if workload == "passive":
        cache = EphemerisCache()
        campaign = PassiveCampaign(
            PassiveCampaignConfig(days=days, seed=seed), workers=1,
            ephemeris_cache=cache)
    else:
        campaign = ActiveCampaign(ActiveCampaignConfig(days=days, seed=seed))
    start = time.perf_counter()
    result = campaign.run()
    wall_s = time.perf_counter() - start
    rng = random.Random(check_seed)
    if workload == "passive":
        digest = passive_digest(result)
        checked, errors = check_passive(result, rng)
    else:
        digest = active_digest(result)
        checked, errors = check_active(result, rng)
    op = {"event": "op", "seed": seed, "wall_s": wall_s, "digest": digest,
          "checked": checked, "errors": errors}
    if cache is not None:
        op["cache"] = dataclasses.asdict(cache.stats)
        op["cache"]["grid_resident_bytes"] = cache.grid_resident_bytes()
    return op


def main(argv) -> int:
    job = json.loads(argv[1])
    workload = job["workload"]
    recorder = None
    if job.get("spans_out"):
        recorder = tracing.SpanRecorder()
        status = tracing.install(recorder)
    _emit({"event": "ready"})
    if job.get("warmup_seed") is not None:
        run_op(workload, job["warmup_days"], job["warmup_seed"], 0)
        if recorder is not None:
            recorder.reset()
        _emit({"event": "warm"})
    for line in sys.stdin:
        seed, check_seed = (int(v) for v in line.split())
        _emit(run_op(workload, job["days"], seed, check_seed))
    if recorder is not None:
        recorder.dump(job["spans_out"], status)
    _emit({"event": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
