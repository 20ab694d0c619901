"""Disk-tier edge cases: corruption, vanishing and unwritable stores.

The contract under test (docstring of
:mod:`satiot.runtime.ephemeris_cache`): the disk tier may degrade —
quarantine corrupt entries, swallow I/O errors, fall back to
compute-through — but it must never crash a run and never change a
result.  Every scenario here asserts both halves: the degradation is
*observable* (``*.bad`` files, ``disk_corrupt``/``disk_errors``
counters, a ``RuntimeWarning``) and the returned arrays/windows are
identical to a fresh computation.
"""

import contextlib
import shutil
import warnings

import numpy as np
import pytest

from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from tests.conftest import make_test_tle

HK = GeodeticPoint(22.30, 114.17)
DAY_S = 86400.0
OFFSETS = np.arange(0.0, 1800.0, 30.0)


@pytest.fixture
def sat():
    return SGP4(make_test_tle())


def fresh_grid(sat):
    tle = sat.tle
    tsince = float(tle.epoch - tle.epoch) + OFFSETS
    r, v = sat.propagate(tsince)
    return np.asarray(r, dtype=float), np.asarray(v, dtype=float)


def passes(cache, sat):
    """One satellite over HK through the cache's fleet front."""
    [[windows]] = cache.find_passes_fleet([sat], [HK], sat.tle.epoch,
                                          DAY_S)
    return windows


def warm_entry(sat, disk_dir):
    """Populate one grid entry on disk and return its path."""
    writer = EphemerisCache(disk_dir=disk_dir)
    writer.propagation_grid(sat, sat.tle.epoch, OFFSETS)
    paths = sorted(disk_dir.glob("grid-*.npz"))
    assert len(paths) == 1
    return paths[0]


class TestCorruptEntries:
    def test_zero_byte_entry_quarantined_and_recomputed(self, sat,
                                                        tmp_path):
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            r, v = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r, r_ref) and np.array_equal(v, v_ref)
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.grid_misses == 1
        # The corrupt bytes moved aside; a clean entry was written back.
        assert path.with_name(path.name + ".bad").exists()
        assert path.exists() and path.stat().st_size > 0

    def test_garbage_bytes_quarantined(self, sat, tmp_path):
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"\x00\xffdefinitely not a zip archive")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert cache.stats.disk_corrupt == 1
        assert list(tmp_path.glob("*.bad"))

    def test_checksum_mismatch_detected(self, sat, tmp_path):
        """A readable archive whose arrays were silently altered."""
        path = warm_entry(sat, tmp_path)
        with np.load(path) as data:
            arrays = {name: np.array(data[name])
                      for name in data.files}
        arrays["r"] = arrays["r"] + 1.0e-9  # one bit of rot
        np.savez(path, **arrays)  # stale checksum rides along
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            r, _ = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert np.array_equal(r, fresh_grid(sat)[0])
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.disk_hits == 0

    def test_legacy_entry_without_checksum_quarantined(self, sat,
                                                       tmp_path):
        path = warm_entry(sat, tmp_path)
        with np.load(path) as data:
            arrays = {name: np.array(data[name])
                      for name in data.files
                      if name != EphemerisCache.CHECKSUM_KEY}
        np.savez(path, **arrays)
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="missing checksum"):
            cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert cache.stats.disk_corrupt == 1

    def test_quarantined_entry_is_rewritten_clean(self, sat, tmp_path):
        """After quarantine + recompute, the next reader hits disk."""
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            EphemerisCache(disk_dir=tmp_path).propagation_grid(
                sat, sat.tle.epoch, OFFSETS)
        reader = EphemerisCache(disk_dir=tmp_path)
        reader.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert reader.stats.disk_hits == 1
        assert reader.stats.disk_corrupt == 0

    def test_corrupt_pass_entry_recomputed_identically(self, sat,
                                                       tmp_path):
        writer = EphemerisCache(disk_dir=tmp_path)
        reference = passes(writer, sat)
        assert reference == PassPredictor(sat, HK).find_passes(
            sat.tle.epoch, DAY_S)
        for path in tmp_path.glob("passes-*.npz"):
            path.write_bytes(b"rot")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning):
            again = passes(cache, sat)
        assert again == reference
        assert cache.stats.disk_corrupt >= 1


class TestVanishingStore:
    def test_cache_dir_deleted_mid_run(self, sat, tmp_path):
        disk_dir = tmp_path / "tier"
        cache = EphemerisCache(disk_dir=disk_dir)
        cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert any(disk_dir.glob("*.npz"))

        shutil.rmtree(disk_dir)
        cache.clear_memory()
        # Reads: plain miss (no quarantine, no error); the store is
        # transparently re-created by the write-back.
        r, v = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r, r_ref) and np.array_equal(v, v_ref)
        assert cache.stats.disk_corrupt == 0
        assert cache.stats.disk_errors == 0
        assert any(disk_dir.glob("*.npz"))

    def test_unwritable_store_degrades_with_one_warning(self, sat,
                                                        tmp_path):
        # Tests run as root, so permission bits don't bite; an
        # unwritable store is simulated by colliding the directory
        # path with an existing *file* (mkdir raises OSError).
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"i am a file, not a directory")
        cache = EphemerisCache(disk_dir=blocker / "cache")

        with pytest.warns(RuntimeWarning, match="compute-through"):
            r1, v1 = cache.propagation_grid(sat, sat.tle.epoch,
                                            OFFSETS)
        assert cache.stats.disk_errors == 1
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r1, r_ref) and np.array_equal(v1, v_ref)

        # Subsequent failures are counted but not re-warned.
        cache.clear_memory()
        with _no_warning():
            r2, _ = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert np.array_equal(r2, r_ref)
        assert cache.stats.disk_errors == 2

    def test_passes_survive_unwritable_store(self, sat, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"file")
        cache = EphemerisCache(disk_dir=blocker / "cache")
        with pytest.warns(RuntimeWarning):
            windows = passes(cache, sat)
        assert windows == PassPredictor(sat, HK).find_passes(
            sat.tle.epoch, DAY_S)
        assert cache.stats.disk_errors >= 1


@contextlib.contextmanager
def _no_warning():
    """Assert the block emits no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    runtime = [w for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, f"unexpected warnings: {runtime}"
