"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

The tiny runs start real program processes (a few seconds each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _span(sid, parent, start, end, name="x", tid=1, units=0):
    return (sid, name, tid, parent, start, end, units)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),     # overlaps its sibling: counted once
        _span(3, 0, 8.0, 12.0),    # clipped to the parent's end
        _span(4, 1, 1.5, 2.5),     # grandchild: only its parent's child
        _span(5, -1, 0.0, 1.0, tid=2),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_summarize_sums_calls_times_and_units():
    spans = [_span(0, -1, 0.0, 4.0, name="a", units=3),
             _span(1, 0, 1.0, 2.0, name="b", units=5),
             _span(2, -1, 5.0, 6.0, name="a", units=1)]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 2, "total_s": pytest.approx(5.0),
                            "self_s": pytest.approx(4.0), "units": 4}
    assert summary["b"]["self_s"] == pytest.approx(1.0)


def test_install_wraps_methods_and_reports_absent_targets(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Layer:
        def work(self, n):
            return self.build(n) + 1

        @classmethod
        def build(cls, n):
            return n * 2

    module.Layer = Layer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = tracing.SpanRecorder()
    status = tracing.install(recorder, [
        ("fake.work", "perfbench_fake_layer.Layer.work", None),
        ("fake.build", "perfbench_fake_layer.Layer.build",
         lambda args: args[1]),
        ("fake.gone", "perfbench_fake_layer.Layer.removed", None),
        ("fake.nomodule", "perfbench_no_such_module.f", None),
    ])
    assert status == {
        "perfbench_fake_layer.Layer.work": "wrapped",
        "perfbench_fake_layer.Layer.build": "wrapped",
        "perfbench_fake_layer.Layer.removed": "absent",
        "perfbench_no_such_module.f": "absent",
    }
    assert Layer().work(3) == 7
    summary = tracing.summarize(recorder.spans)
    assert summary["fake.work"]["calls"] == 1
    assert summary["fake.build"]["units"] == 3
    assert summary["fake.work"]["self_s"] <= summary["fake.work"]["total_s"]


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 121))
    value, percentile, n = run.tail(values)
    assert (value, n) == (110, 120)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 110 / 120)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


class _ParabolicPass:
    """Oracle stand-in: elevation 50 - (t - 300)^2 / 900 deg, so the pass
    rises over a 5 deg mask at 98.75 s, peaks at 300 s and sets at
    501.25 s."""

    def elevation_deg(self, offsets_s):
        t = np.atleast_1d(np.asarray(offsets_s, dtype=float))
        return 50.0 - (t - 300.0) ** 2 / 900.0


def _window_errors(**window):
    fields = dict(rise_s=98.75, set_s=501.25, culmination_s=300.0,
                  max_elevation_deg=50.0)
    fields.update(window)
    return oracle.window_errors(_ParabolicPass(), mask_deg=5.0,
                                time_tol_s=0.5, peak_tol_deg=0.01,
                                culmination_tol_s=30.0, **fields)


def test_oracle_accepts_a_true_window():
    assert _window_errors() == []
    assert _window_errors(culmination_s=320.0,
                          max_elevation_deg=50.0 - 400.0 / 900.0) == []


def test_oracle_rejects_misplaced_crossings_and_culminations():
    assert len(_window_errors(rise_s=97.0)) == 1
    assert len(_window_errors(set_s=503.0)) == 1
    # Reported peak does not match the elevation at its culmination.
    assert len(_window_errors(max_elevation_deg=49.0)) == 1
    # Culmination put at the rise, with the elevation there: consistent
    # with itself, but the true peak is 200 s away.
    errors = _window_errors(culmination_s=98.75, max_elevation_deg=5.0)
    assert not any("vs reported" in e for e in errors)
    assert any("oracle's peak" in e for e in errors)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer():
    proc = _bench("--workload", "serve", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert result["correct"]
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert result["metrics"]["orbits.refine_evals"]["value"] == 0
    assert detail["digests"]["traced"] == detail["digests"]["untraced"]
    assert detail["absent_targets"] == []


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "passive", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
