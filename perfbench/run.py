"""End-to-end and per-layer benchmark of satiot's campaigns and serving API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {passive,active,serve,twin} \\
        --seed N --seconds S --trace {0,1}

The program always runs in its own process: ``campaign_proc.py`` for the
campaign workloads, ``python -m satiot serve`` (or ``traced_serve.py``)
for the serving ones, pinned to one core while this process, the load
generator, keeps the other.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same inputs twice, untraced and traced,
and prints the per-layer metrics.  The last line of stdout is the result
object; the line before it, also written to ``.perfbench_out/``, holds
the details: machine fingerprint, seed, output digest, tail percentile
and sample count, and any trace target absent at this commit.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import http.client
import json
import math
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("passive", "active", "serve", "twin")

#: Campaign length of one op (days) and the op time it was sized by:
#: ``--seconds`` / NOMINAL_OP_S ops run, so a run lasts about
#: ``--seconds`` at the commit that defined the benchmark.
CAMPAIGN_DAYS = {"passive": 0.1, "active": 0.25}
NOMINAL_OP_S = {"passive": 0.8, "active": 3.2}
#: Seed of the fixed sequence the timed ops' campaign seeds come from.
OP_SEED_POOL = 2025
#: The untimed warm-up op is a short campaign of the same kind.
WARMUP_DAYS = 0.02
#: Program processes started per run to measure set-up time.
SETUP_SPAWNS = 7

#: Fixed open-loop request rate (1/s) and the latency limit on tail_ms.
OPEN_RATE = {"serve": 12.0, "twin": 6.0}
TAIL_LIMIT_MS = {"serve": 150.0, "twin": 400.0}
#: Closed-loop request count per second of run, sized by the capacity
#: measured when the benchmark was defined.
CLOSED_NOMINAL_RPS = {"serve": 45.0, "twin": 20.0}
OPEN_SHARE = 0.5
CLOSED_SHARE = 0.4
CLOSED_CONNECTIONS = 2
#: Open- and closed-loop segments alternate this many times (at least;
#: a traced run alternates every second of open loop).
ROUNDS = 3
#: A run whose generator sent its 99th-percentile request later than
#: this is invalid: the generator, not the server, set the latency.
LATE_LIMIT_MS = 50.0
#: tail_ms is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: Serving query shape: 24 h from the constellation epoch, 10 deg mask.
HORIZON_S = 86400.0
SERVE_WARMUP = 6
#: Per 20 requests: unique passes, unique presence, hot-set repeats and
#: unique link budgets.  The hot set is the paper's eight measurement
#: sites (``satiot.core.sites.SITES``).  No usage data exists, so the
#: proportions are assumptions fixed with the benchmark: the two
#: availability queries weigh the same; a hot fifth makes result-cache
#: hits run beside misses while the median stays a miss; link budgets,
#: a point query ten times cheaper, are a tenth.
SERVE_BLOCK = ("passes",) * 7 + ("presence",) * 7 + ("hot",) * 4 + \
    ("link_budget",) * 2
#: The twin's device population, also an assumption: 16 devices take
#: turns, so no device repeats a query before ``start`` has moved on and
#: the result cache never answers; two consecutive requests share each
#: ``start``, which lets the batcher group them.
TWIN_DEVICES = 16
TWIN_PER_TICK = 2
TWIN_WARMUP = 4
TWIN_SPAN_S = 6 * 86400.0
TWIN_QUANTUM_S = 60.0

#: Output checks of served pass windows.  Serving refines crossings and
#: culminations by interpolating its 30 s grid, so a true crossing, and
#: the true peak, lie within one grid step of the reported time.  Its
#: parabolic maximum differs from the elevation at the reported
#: culmination by up to ~6 deg on near-zenith passes (measured), so that
#: bound only catches gross errors.
SERVE_STEP_S = 30.0
SERVE_PEAK_TOL_DEG = 10.0
SERVE_MASK_DEG = 10.0
#: Served values are rounded to 3 decimals.
LINK_ELEVATION_TOL_DEG = 1.0e-3
ORACLE_EVERY = 8

E2E_UNITS = {"p50_ms": "ms", "tail_ms": "ms", "rps": "1/s",
             "peak_rss_mib": "MiB", "setup_s": "s"}

LAYER_UNITS = {
    "orbits.refine_evals": "count", "orbits.refine_s": "s",
    "orbits.sgp4_scalar_calls": "count",
    "orbits.sgp4_scalar_instants": "count", "orbits.sgp4_scalar_s": "s",
    "orbits.sgp4_batch_calls": "count",
    "orbits.sgp4_batch_instants": "count", "orbits.sgp4_batch_s": "s",
    "orbits.pass_search_s": "s",
    "groundstation.schedule_s": "s", "groundstation.receive_s": "s",
    "groundstation.receive_calls": "count",
    "phy.channel_s": "s",
    "network.ground_segment_s": "s", "network.mac_s": "s",
    "network.delivery_s": "s", "network.terrestrial_s": "s",
    "core.campaign_self_s": "s",
    "runtime.grid_hit_ratio": "ratio", "runtime.grid_lookups": "count",
    "runtime.pass_hit_ratio": "ratio", "runtime.pass_lookups": "count",
    "runtime.grid_extensions": "count",
    "runtime.constellation_grid_s": "s", "runtime.extend_grid_s": "s",
    "runtime.grid_resident_mib": "MiB",
    "serving.parse_s": "s", "serving.handler_s": "s",
    "serving.encode_s": "s",
    "serving.result_cache_hit_ratio": "ratio",
    "serving.result_cache_lookups": "count",
    "serving.queue_wait_p50_ms": "ms", "serving.queue_wait_tail_ms": "ms",
    "serving.batch_size_mean": "count", "serving.batch_size_max": "count",
    "serving.passes_p50_ms": "ms", "serving.presence_p50_ms": "ms",
    "serving.link_budget_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Span metrics: (metric, span name, field).  ``self_s`` is the span's
#: duration minus its children's; the others are inclusive.
SPAN_METRICS = (
    ("orbits.refine_evals", "orbits.refine", "calls"),
    ("orbits.refine_s", "orbits.refine", "total_s"),
    ("orbits.sgp4_scalar_calls", "orbits.sgp4_scalar", "calls"),
    ("orbits.sgp4_scalar_instants", "orbits.sgp4_scalar", "units"),
    ("orbits.sgp4_scalar_s", "orbits.sgp4_scalar", "total_s"),
    ("orbits.sgp4_batch_calls", "orbits.sgp4_batch", "calls"),
    ("orbits.sgp4_batch_instants", "orbits.sgp4_batch", "units"),
    ("orbits.sgp4_batch_s", "orbits.sgp4_batch", "total_s"),
    ("orbits.pass_search_s", "orbits.pass_search", "self_s"),
    ("groundstation.schedule_s", "groundstation.schedule", "self_s"),
    ("groundstation.receive_s", "groundstation.receive", "total_s"),
    ("groundstation.receive_calls", "groundstation.receive", "calls"),
    ("phy.channel_s", "phy.channel", "total_s"),
    ("network.ground_segment_s", "network.ground_segment", "total_s"),
    ("network.mac_s", "network.mac", "total_s"),
    ("network.delivery_s", "network.delivery", "total_s"),
    ("network.terrestrial_s", "network.terrestrial", "total_s"),
    ("core.campaign_self_s", "core.campaign", "self_s"),
    ("runtime.constellation_grid_s", "runtime.constellation_grid",
     "total_s"),
    ("runtime.extend_grid_s", "runtime.extend_grid", "total_s"),
    ("serving.parse_s", "serving.parse", "total_s"),
    ("serving.handler_s", "serving.handler", "self_s"),
    ("serving.encode_s", "serving.encode", "total_s"),
)


class BenchError(RuntimeError):
    """The program failed in a way that leaves no result to report."""


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it.  With too few samples for
    that percentile to reach the median (campaign runs), the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def fingerprint() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = sorted(k for k, v in __cpu_features__.items()
                      if v and k.startswith(("AVX", "SSE4", "ASIMD",
                                             "NEON", "SVE")))
    except ImportError:
        simd = []
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "simd": simd}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


class Cores:
    """The generator keeps the first allowed core, the program the last."""

    def __init__(self) -> None:
        allowed = sorted(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else []
        self.split = len(allowed) >= 2
        if self.split:
            self.generator, self.program = allowed[0], allowed[-1]
            os.sched_setaffinity(0, {self.generator})

    def pin_program(self, pid: int) -> None:
        if self.split:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(pid, {self.program})


class Program:
    """One program process; reaped with ``wait4`` for its peak RSS.

    It adds itself to ``programs`` as soon as it runs, so the
    :func:`reaping` block around it stops it whatever happens next.
    Signals go through :meth:`signal`, never through ``Popen``, whose
    own status polling would reap the process and lose its peak RSS.
    """

    def __init__(self, argv: List[str], cores: Cores, log_name: str,
                 programs: List["Program"], stdin=subprocess.DEVNULL,
                 stdout=subprocess.DEVNULL) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(OUT_DIR, log_name)
        self._log = open(self.log_path, "wb")
        self.peak_rss_kib = 0
        self.returncode: Optional[int] = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                                     stdin=stdin, stdout=stdout,
                                     stderr=self._log, text=True)
        programs.append(self)
        cores.pin_program(self.proc.pid)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def signal(self, signum: int) -> None:
        """Send ``signum`` unless the process has been reaped."""
        if self.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.proc.pid, signum)

    def poll(self) -> Optional[int]:
        """The exit code, reaping the process, or None while it runs."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.returncode
                self.peak_rss_kib = usage.ru_maxrss
        return self.returncode

    def reap(self, timeout_s: float) -> int:
        """Wait for exit (killing after ``timeout_s``); returns the code."""
        deadline = time.monotonic() + timeout_s
        while self.poll() is None:
            if time.monotonic() > deadline:
                self.signal(signal.SIGKILL)
                deadline = time.monotonic() + 10.0
            time.sleep(0.005)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                with contextlib.suppress(OSError):
                    pipe.close()
        self._log.close()
        return self.returncode

    def stop(self) -> int:
        self.signal(signal.SIGINT)
        return self.reap(20.0)


@contextlib.contextmanager
def reaping(programs: List[Program]):
    """Kill and reap every program still running when the block ends."""
    try:
        yield programs
    finally:
        for program in programs:
            if program.returncode is None:
                program.signal(signal.SIGKILL)
                program.reap(10.0)


def _ms(seconds: Sequence[float]) -> List[float]:
    return [1000.0 * s for s in seconds]


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
class CampaignProcess:
    """A campaign program process that runs one timed op per request.

    Construction returns once the process is ready (imports and inputs
    done) and has run its untimed warm-up op, if ``warmup_seed`` is
    given.  It then runs one op per :meth:`op` call, until :meth:`finish`
    closes its input.
    """

    def __init__(self, workload: str, cores: Cores, tag: str,
                 programs: List[Program], warmup_seed: Optional[int] = None,
                 traced: bool = False) -> None:
        self.spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json") \
            if traced else None
        job = {"workload": workload, "days": CAMPAIGN_DAYS[workload],
               "warmup_days": WARMUP_DAYS, "warmup_seed": warmup_seed,
               "spans_out": self.spans_path}
        self.program = Program([sys.executable,
                                os.path.join(HERE, "campaign_proc.py"),
                                json.dumps(job)], cores, f"{tag}.log",
                               programs, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE)
        self._watchdog = threading.Timer(
            150.0, self.program.signal, (signal.SIGKILL,))
        self._watchdog.daemon = True
        self._watchdog.start()
        self._expect("ready")
        self.setup_s = time.perf_counter() - self.program.started
        if warmup_seed is not None:
            self._expect("warm")
        self.ops: List[dict] = []

    def _expect(self, kind: str) -> dict:
        line = self.program.proc.stdout.readline()
        event = json.loads(line) if line else {}
        if event.get("event") != kind:
            self._watchdog.cancel()
            self.program.reap(10.0)
            raise BenchError(f"campaign process sent {line.strip()!r} "
                             f"instead of {kind!r} (exit "
                             f"{self.program.returncode}):\n"
                             f"{self.program.log_tail()}")
        return event

    def op(self, seed: int, check_seed: int) -> dict:
        self.program.proc.stdin.write(f"{seed} {check_seed}\n")
        self.program.proc.stdin.flush()
        event = self._expect("op")
        self.ops.append(event)
        return event

    def finish(self) -> None:
        self.program.proc.stdin.close()
        self._expect("done")
        self._watchdog.cancel()
        code = self.program.reap(30.0)
        if code != 0:
            raise BenchError(f"campaign process failed (exit {code}):\n"
                             f"{self.program.log_tail()}")

    @property
    def peak_rss_mib(self) -> float:
        return self.program.peak_rss_kib / 1024.0


def campaign_ops(seed: int, n_ops: int) -> List[Tuple[int, int]]:
    """``(campaign seed, check seed)`` of each timed op, in run order.

    A campaign seed also jitters every satellite's orbit, which changes
    how many passes and traces an op produces.  So the campaign seeds
    are the first ``n_ops`` of one fixed sequence in every run, and every
    run does the same work; ``seed`` sets their order and the windows
    each op has oracle-checked.
    """
    pool = random.Random(OP_SEED_POOL)
    op_seeds = [pool.randrange(1, 2**31) for _ in range(n_ops)]
    rng = random.Random(seed)
    rng.shuffle(op_seeds)
    return [(op_seed, rng.randrange(1, 2**31)) for op_seed in op_seeds]


def campaign_e2e(run: CampaignProcess, setups: Sequence[float]) -> dict:
    times_ms = [1000.0 * op["wall_s"] for op in run.ops]
    tail_ms, pct, n = tail(times_ms)
    return {
        "p50_ms": statistics.median(times_ms),
        "tail_ms": tail_ms,
        "rps": len(times_ms) / (sum(times_ms) / 1000.0),
        "peak_rss_mib": run.peak_rss_mib,
        "setup_s": statistics.median(setups),
    }, {"tail_percentile": pct, "tail_samples": n}


def campaign_failures(ops: Sequence[dict]) -> Tuple[int, List[str]]:
    errors = [e for op in ops for e in op["errors"]]
    return sum(1 for op in ops if op["errors"]), errors[:10]


def ops_digest(ops: Sequence[dict]) -> str:
    return hashlib.sha256(
        "".join(op["digest"] for op in ops).encode()).hexdigest()


def cache_layers(ops: Sequence[dict]) -> dict:
    """Ephemeris-cache ratios from the ops' ``CacheStats``."""
    caches = [op["cache"] for op in ops if "cache" in op]
    if not caches:
        return {}
    total = {k: sum(c[k] for c in caches) for k in caches[0]}
    grid = total["grid_hits"] + total["grid_misses"]
    passes = total["pass_hits"] + total["pass_misses"]
    n = len(caches)
    return {
        "runtime.grid_hit_ratio": total["grid_hits"] / grid if grid else 0.0,
        "runtime.grid_lookups": grid / n,
        "runtime.pass_hit_ratio":
            total["pass_hits"] / passes if passes else 0.0,
        "runtime.pass_lookups": passes / n,
        "runtime.grid_extensions": total["grid_extensions"] / n,
        "runtime.grid_resident_mib":
            total["grid_resident_bytes"] / n / 2**20,
    }


def bench_campaign(workload: str, seed: int, seconds: int, trace: bool,
                   cores: Cores) -> dict:
    n_ops = max(2, round(seconds / NOMINAL_OP_S[workload]))
    ops = campaign_ops(seed, n_ops if not trace else max(1, n_ops // 2))
    warmup_seed = ops[0][0]
    programs: List[Program] = []
    with reaping(programs):
        if not trace:
            setups = []
            for i in range(SETUP_SPAWNS - 1):
                spawn = CampaignProcess(workload, cores,
                                        f"{workload}-setup{i}", programs)
                spawn.finish()
                setups.append(spawn.setup_s)
            run = CampaignProcess(workload, cores, workload, programs,
                                  warmup_seed)
            for op in ops:
                run.op(*op)
            run.finish()
            setups.append(run.setup_s)
            metrics, detail = campaign_e2e(run, setups)
            failed, errors = campaign_failures(run.ops)
            detail.update(digest=ops_digest(run.ops), errors=errors,
                          layers=cache_layers(run.ops))
            return {"attempted": len(run.ops), "failed": failed,
                    "correct": failed == 0, "metrics": metrics,
                    "detail": detail}
        # Untraced and traced processes take turns op by op, each going
        # first on every other op, so a slow spell of the machine lands
        # on both alike.
        plain = CampaignProcess(workload, cores, workload, programs,
                                warmup_seed)
        traced = CampaignProcess(workload, cores, f"{workload}-traced",
                                 programs, warmup_seed, traced=True)
        for i, op in enumerate(ops):
            for process in ((plain, traced) if i % 2 == 0
                            else (traced, plain)):
                process.op(*op)
        plain.finish()
        traced.finish()
    layers = span_layers(traced.spans_path, len(traced.ops))
    layers.update(cache_layers(traced.ops))
    # Each op ran traced right next to its untraced run: compare pairs.
    layers["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in zip(plain.ops, traced.ops))
    failed, errors = campaign_failures(plain.ops + traced.ops)
    digests = {"untraced": ops_digest(plain.ops),
               "traced": ops_digest(traced.ops)}
    return finish_trace(layers, len(plain.ops) + len(traced.ops), failed,
                        errors, digests)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Pre-built requests of one serving run, in the order they are sent.

    ``segments`` is the warm-up followed by alternating open- and
    closed-loop segments, so both loops sample the whole run.
    """

    segments: List[Tuple[str, List[bytes]]]
    endpoints: List[str]

    @property
    def all(self) -> List[bytes]:
        return [raw for _kind, part in self.segments for raw in part]

    def open_endpoints(self) -> List[str]:
        """Endpoint of every open-loop request, in order."""
        out, at = [], 0
        for kind, part in self.segments:
            if kind == "open":
                out += self.endpoints[at:at + len(part)]
            at += len(part)
        return out


def segmented(requests: List[Tuple[str, str]], n_warm: int, n_open: int,
              n_closed: int, rounds: int) -> Plan:
    """Split ``(endpoint, path)`` pairs, in send order, into segments."""
    from loadgen import get
    sizes = [("warmup", n_warm)]
    for r in range(rounds):
        sizes += [("open", n_open * (r + 1) // rounds
                   - n_open * r // rounds),
                  ("closed", n_closed * (r + 1) // rounds
                   - n_closed * r // rounds)]
    segments, at = [], 0
    for kind, n in sizes:
        segments.append((kind, [get(path)
                                for _, path in requests[at:at + n]]))
        at += n
    return Plan(segments, [endpoint for endpoint, _ in requests])


def _site(rng: random.Random) -> Tuple[float, float]:
    return round(rng.uniform(-60.0, 60.0), 4), \
        round(rng.uniform(-180.0, 180.0), 4)


def _query(endpoint: str, site: Tuple[float, float], **extra) -> str:
    params = f"lat={site[0]:.4f}&lon={site[1]:.4f}"
    for key, value in extra.items():
        params += f"&{key}={value:g}"
    return f"/v1/{endpoint}?{params}"


def serve_plan(seed: int, n_open: int, n_closed: int, rounds: int) -> Plan:
    """Unique passes/presence queries, a hot set, some link budgets."""
    from satiot.core.sites import SITES
    rng = random.Random(seed)
    hot = [(site.location.latitude_deg, site.location.longitude_deg)
           for site in SITES.values()]

    def make(kind: str) -> Tuple[str, str]:
        if kind == "hot":
            endpoint = rng.choice(("passes", "presence"))
            return endpoint, _query(endpoint, rng.choice(hot),
                                    horizon_s=HORIZON_S, start=0)
        if kind == "link_budget":
            return kind, _query(kind, _site(rng),
                                t_offset_s=rng.randrange(0, 86400))
        return kind, _query(kind, _site(rng), horizon_s=HORIZON_S, start=0)

    requests = [make(("passes", "presence", "link_budget")[i % 3])
                for i in range(SERVE_WARMUP)]
    while len(requests) < SERVE_WARMUP + n_open + n_closed:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        requests += [make(kind) for kind in block]
    return segmented(requests, SERVE_WARMUP, n_open, n_closed, rounds)


def twin_plan(seed: int, n_open: int, n_closed: int, rounds: int) -> Plan:
    """A fixed device population querying as the sim clock advances.

    Every :data:`TWIN_PER_TICK` consecutive requests share one ``start``;
    starts step evenly (on the sim-clock quantum) from 0 to
    :data:`TWIN_SPAN_S` over the run, in send order.  Devices take turns,
    and each device alternates between passes and presence on successive
    turns, so no query reuses the pass list of the one before it.
    """
    rng = random.Random(seed)
    devices = [_site(rng) for _ in range(TWIN_DEVICES)]
    total = TWIN_WARMUP + n_open + n_closed
    ticks = max(2, math.ceil(total / TWIN_PER_TICK))
    requests = []
    for i in range(total):
        tick = i // TWIN_PER_TICK
        start = round(tick * TWIN_SPAN_S / (ticks - 1) / TWIN_QUANTUM_S) \
            * TWIN_QUANTUM_S
        endpoint = ("passes", "presence")[(i // TWIN_DEVICES) % 2]
        requests.append((endpoint, _query(
            endpoint, devices[i % TWIN_DEVICES], horizon_s=HORIZON_S,
            start=start)))
    return segmented(requests, TWIN_WARMUP, n_open, n_closed, rounds)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(workload: str, cores: Cores, tag: str,
                 programs: List[Program], spans_path: Optional[str] = None,
                 ) -> Tuple[Program, int, float]:
    """Start a server; returns it, its port and its set-up time."""
    port = free_port()
    serve = ["serve", "--port", str(port), "--workers", "1"]
    if workload == "twin":
        serve.append("--realtime")
    if spans_path:
        argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                spans_path] + serve
    else:
        argv = [sys.executable, "-m", "satiot"] + serve
    program = Program(argv, cores, f"{tag}.log", programs)
    deadline = time.monotonic() + 60.0
    while True:
        if program.poll() is not None:
            program.reap(1.0)
            raise BenchError(f"server exited during start-up:\n"
                             f"{program.log_tail()}")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return program, port, time.perf_counter() - program.started
        except OSError:
            pass
        finally:
            conn.close()
        if time.monotonic() > deadline:
            raise BenchError(f"server not ready after 60 s:\n"
                             f"{program.log_tail()}")
        time.sleep(0.002)


@dataclass
class ServingRun:
    replies: list = field(default_factory=list)
    open_latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    closed_n: int = 0
    closed_s: float = 0.0
    metrics: dict = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    setup_s: float = 0.0

    @property
    def closed_rps(self) -> float:
        return self.closed_n / self.closed_s


async def _drive(ports: Sequence[int], plan: Plan, rate: float,
                 runs: Sequence[ServingRun]) -> list:
    """Send the whole plan to every server, segment by segment, the
    servers taking turns and each going first on every other segment, so
    a slow spell of the machine lands on all of them alike.  Returns each
    server's ``/metrics`` reply."""
    import loadgen
    host = "127.0.0.1"
    for index, (kind, part) in enumerate(plan.segments):
        turns = list(zip(ports, runs))
        for port, run in (turns if index % 2 == 0 else turns[::-1]):
            if kind == "open":
                phase = await loadgen.open_loop(host, port, part, rate)
                run.open_latency_ms += _ms(r.latency_s
                                           for r in phase.replies)
                run.late_ms += _ms(phase.late_s)
            elif kind == "closed":
                phase = await loadgen.closed_loop(host, port, part,
                                                  CLOSED_CONNECTIONS)
                run.closed_n += len(part)
                run.closed_s += phase.elapsed_s
            else:
                phase = await loadgen.closed_loop(host, port, part, 1)
            run.replies += phase.replies
    scrapes = []
    for port in ports:
        scrape = await loadgen.closed_loop(host, port,
                                           [loadgen.get("/metrics")], 1)
        scrapes.append(scrape.replies[0])
    return scrapes


def run_servers(workload: str, plan: Plan, cores: Cores,
                tags: Sequence[str],
                spans_paths: Sequence[Optional[str]]) -> List[ServingRun]:
    """Start one server per tag, all on the program core, and send each
    of them the whole plan (see :func:`_drive`)."""
    programs: List[Program] = []
    runs = [ServingRun() for _ in tags]
    with reaping(programs):
        ports = []
        for tag, spans_path, run in zip(tags, spans_paths, runs):
            _program, port, run.setup_s = start_server(
                workload, cores, tag, programs, spans_path)
            ports.append(port)
        scrapes = asyncio.run(_drive(ports, plan, OPEN_RATE[workload],
                                     runs))
        for program in programs:
            program.stop()
    for program, scrape, run in zip(programs, scrapes, runs):
        if program.returncode != 0:
            raise BenchError(f"server exited with {program.returncode}:\n"
                             f"{program.log_tail()}")
        if scrape.status != 200:
            raise BenchError(f"/metrics answered {scrape.status}")
        run.metrics = json.loads(scrape.body)
        run.peak_rss_mib = program.peak_rss_kib / 1024.0
    return runs


def replies_digest(replies) -> str:
    digest = hashlib.sha256()
    for reply in replies:
        digest.update(len(reply.body).to_bytes(8, "little"))
        digest.update(reply.body)
    return digest.hexdigest()


def check_replies(plan: Plan, replies) -> Tuple[int, List[str]]:
    """Failed requests (status, transport, oracle); a few descriptions."""
    from oracle import LookAngleOracle, window_errors
    from satiot.orbits.frames import GeodeticPoint
    from satiot.serving.service import ConstellationService
    service = ConstellationService(constellations=("tianqi",))
    epoch = service.epoch("tianqi")
    tles = {sat.tle.norad_id: sat.tle
            for sat in service.constellation("tianqi")}
    failed: set = set()
    errors: List[str] = []

    def fail(index: int, message: str) -> None:
        failed.add(index)
        if len(errors) < 10:
            errors.append(f"request {index}: {message}")

    for index, (endpoint, reply) in enumerate(zip(plan.endpoints, replies)):
        if reply.status != 200:
            fail(index, f"status {reply.status} {reply.error}".strip())
            continue
        if index % ORACLE_EVERY or endpoint == "presence":
            continue
        payload = json.loads(reply.body)
        if payload.get("epoch", epoch.isoformat()) != epoch.isoformat():
            fail(index, f"epoch {payload['epoch']} != {epoch.isoformat()}")
            continue
        site = payload["site"]
        observer = GeodeticPoint(site["latitude_deg"],
                                 site["longitude_deg"], site["altitude_km"])
        if endpoint == "link_budget":
            for sat in payload["satellites"]:
                oracle = LookAngleOracle(tles[sat["norad_id"]], observer,
                                         epoch)
                elevation = float(oracle.elevation_deg(
                    [payload["t_offset_s"]])[0])
                if abs(elevation - sat["elevation_deg"]) > \
                        LINK_ELEVATION_TOL_DEG:
                    fail(index, f"{sat['norad_id']} elevation "
                                f"{sat['elevation_deg']} vs oracle "
                                f"{elevation:.4f}")
            continue
        span_end = payload.get("start_s", 0.0) + payload["horizon_s"]
        for window in payload["passes"][:4]:
            oracle = LookAngleOracle(tles[window["norad_id"]], observer,
                                     epoch)
            for message in window_errors(
                    oracle, rise_s=window["rise_s"], set_s=window["set_s"],
                    culmination_s=window["culmination_s"],
                    max_elevation_deg=window["max_elevation_deg"],
                    mask_deg=SERVE_MASK_DEG, time_tol_s=SERVE_STEP_S,
                    peak_tol_deg=SERVE_PEAK_TOL_DEG,
                    culmination_tol_s=SERVE_STEP_S,
                    check_rise=window["rise_s"] > 0.0,
                    check_set=window["set_s"] < span_end):
                fail(index, f"{window['norad_id']}: {message}")
    return len(failed), errors


def metrics_layers(metrics: dict, requests: int) -> dict:
    """Per-layer values read from a server's ``/metrics``."""
    endpoints = [v for k, v in metrics.items() if not k.startswith("_")]
    batches = sum(e["batches"] for e in endpoints)
    submitted = sum(e["cache_misses"] for e in endpoints)
    largest = 0
    for e in endpoints:
        for bucket, count in e["batch_size_histogram"].items():
            if count and bucket.startswith("<="):
                largest = max(largest, int(bucket[2:]))
    cache = metrics["_cache"]
    eph = metrics["_ephemeris"]
    lookups = cache["hits"] + cache["misses"]
    grid = eph["grid_hits"] + eph["grid_misses"]
    passes = eph["pass_hits"] + eph["pass_misses"]
    return {
        "serving.result_cache_hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "serving.result_cache_lookups": lookups / requests,
        "serving.batch_size_mean": submitted / batches if batches else 0.0,
        "serving.batch_size_max": largest,
        "runtime.grid_hit_ratio": eph["grid_hits"] / grid if grid else 0.0,
        "runtime.grid_lookups": grid / requests,
        "runtime.pass_hit_ratio":
            eph["pass_hits"] / passes if passes else 0.0,
        "runtime.pass_lookups": passes / requests,
        "runtime.grid_extensions": eph["grid_extensions"] / requests,
        "runtime.grid_resident_mib": eph["grid_bytes"] / 2**20,
    }


def endpoint_p50s(plan: Plan, run: ServingRun) -> dict:
    kinds = plan.open_endpoints()
    out = {}
    for endpoint in ("passes", "presence", "link_budget"):
        values = [ms for kind, ms in zip(kinds, run.open_latency_ms)
                  if kind == endpoint]
        out[f"serving.{endpoint}_p50_ms"] = \
            statistics.median(values) if values else 0.0
    return out


def serving_sizes(seconds: float, workload: str) -> Tuple[int, int]:
    n_open = max(2, round(OPEN_RATE[workload] * OPEN_SHARE * seconds))
    n_closed = max(2, round(CLOSED_NOMINAL_RPS[workload] * CLOSED_SHARE
                            * seconds))
    return n_open, n_closed


def bench_serving(workload: str, seed: int, seconds: int, trace: bool,
                  cores: Cores) -> dict:
    make_plan = serve_plan if workload == "serve" else twin_plan
    if not trace:
        plan = make_plan(seed, *serving_sizes(seconds, workload), ROUNDS)
        setups = []
        for i in range(SETUP_SPAWNS - 1):
            programs: List[Program] = []
            with reaping(programs):
                program, _port, setup_s = start_server(
                    workload, cores, f"{workload}-setup{i}", programs)
                program.stop()
            setups.append(setup_s)
        run, = run_servers(workload, plan, cores, [workload], [None])
        setups.append(run.setup_s)
        tail_ms, pct, n = tail(run.open_latency_ms)
        late_p99 = late_percentile(run.late_ms)
        failed, errors = check_replies(plan, run.replies)
        valid = late_p99 <= LATE_LIMIT_MS
        if not valid:
            errors.append(f"generator ran {late_p99:.1f} ms late at p99 "
                          f"(limit {LATE_LIMIT_MS} ms): run invalid")
        metrics = {"p50_ms": statistics.median(run.open_latency_ms),
                   "tail_ms": tail_ms, "rps": run.closed_rps,
                   "peak_rss_mib": run.peak_rss_mib,
                   "setup_s": statistics.median(setups)}
        detail = {"tail_percentile": pct, "tail_samples": n,
                  "tail_limit_ms": TAIL_LIMIT_MS[workload],
                  "tail_within_limit": tail_ms <= TAIL_LIMIT_MS[workload],
                  "open_rate": OPEN_RATE[workload],
                  "loadgen.late_p99_ms": late_p99,
                  "digest": replies_digest(run.replies), "errors": errors,
                  "layers": metrics_layers(run.metrics, len(plan.all))}
        return {"attempted": len(plan.all), "failed": failed,
                "correct": failed == 0 and valid, "metrics": metrics,
                "detail": detail}
    # Short segments, so the two servers take turns about every second.
    n_open, n_closed = serving_sizes(seconds / 2.0, workload)
    plan = make_plan(seed, n_open, n_closed,
                     max(ROUNDS, round(n_open / OPEN_RATE[workload])))
    spans_path = os.path.join(OUT_DIR, f"{workload}-traced-spans.json")
    plain, traced = run_servers(workload, plan, cores,
                                [workload, f"{workload}-traced"],
                                [None, spans_path])
    requests = len(plan.all)
    layers = span_layers(spans_path, requests)
    layers.update(metrics_layers(traced.metrics, requests))
    layers.update(endpoint_p50s(plan, traced))
    layers["loadgen.late_p99_ms"] = late_percentile(traced.late_ms)
    layers["trace.overhead_ratio"] = (
        statistics.median(traced.open_latency_ms)
        / statistics.median(plain.open_latency_ms))
    failed_plain, errors = check_replies(plan, plain.replies)
    failed_traced, errors_traced = check_replies(plan, traced.replies)
    digests = {"untraced": replies_digest(plain.replies),
               "traced": replies_digest(traced.replies)}
    return finish_trace(layers, 2 * requests, failed_plain + failed_traced,
                        errors + errors_traced, digests)


def late_percentile(late_ms: Sequence[float]) -> float:
    ordered = sorted(late_ms)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def span_layers(spans_path: str, ops: int) -> dict:
    """Per-op span metrics, queue waits, and the absent targets."""
    import tracing
    spans, waits, status = tracing.load(spans_path)
    summary = tracing.summarize(spans)
    layers = {}
    for metric, span, column in SPAN_METRICS:
        layers[metric] = summary.get(span, {}).get(column, 0) / ops
    waits_ms = _ms(waits)
    if waits_ms:
        layers["serving.queue_wait_p50_ms"] = statistics.median(waits_ms)
        layers["serving.queue_wait_tail_ms"] = tail(waits_ms)[0]
    layers["_absent"] = sorted(k for k, v in status.items()
                               if v == "absent")
    return layers


def finish_trace(layers: dict, attempted: int, failed: int,
                 errors: List[str], digests: Dict[str, str]) -> dict:
    absent = layers.pop("_absent")
    same = digests["untraced"] == digests["traced"]
    if not same:
        errors = errors + ["traced and untraced outputs differ"]
    metrics = {name: float(layers.get(name, 0.0)) for name in LAYER_UNITS}
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and same, "metrics": metrics,
            "detail": {"absent_targets": absent, "digests": digests,
                       "errors": errors[:10]}}


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "satiot", "__init__.py")):
        print(f"error: no satiot sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    # Terminated runs unwind through ``reaping``, which stops the program.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers stop cleanly only on SIGINT.  A shell that started this
    # process in the background leaves SIGINT ignored, and children would
    # inherit that; a handled signal reverts to the default in them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    cores = Cores()
    trace = bool(args.trace)
    try:
        if args.workload in ("passive", "active"):
            result = bench_campaign(args.workload, args.seed, args.seconds,
                                    trace, cores)
        else:
            result = bench_serving(args.workload, args.seed, args.seconds,
                                   trace, cores)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    units = LAYER_UNITS if trace else E2E_UNITS
    detail = dict(result["detail"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fingerprint=fingerprint())
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(result["metrics"][name]),
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
