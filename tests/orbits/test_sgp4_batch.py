"""Bit-identity of the constellation-batched SGP4 kernel.

Every downstream consumer (fleet pass search, the ephemeris cache's
constellation-grid product, the serving fleet flush, the passive fleet
sweep) shares cache keys and traces with the scalar per-satellite path,
which is sound ONLY if ``SGP4Batch.propagate`` row ``n`` is
bit-identical (``==``, not ``allclose``) to
``SGP4(tles[n]).propagate``.  These tests pin that contract
property-style over random Table-3-style element sets, mixed epochs
and ragged per-satellite time grids, plus the fleet pass search against
nested serial prediction and the coarse-grid float-drift regression.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.constellations.catalog import build_constellation
from satiot.orbits import (SGP4, GeodeticPoint, SGP4Batch, find_passes_fleet,
                           passes)
from satiot.orbits.groundtrack import ground_track
from satiot.orbits.passes import PassPredictor
from satiot.orbits.sgp4 import DecayedError
from satiot.orbits.tle import TLE

from ..conftest import make_test_tle

SEED = 7


def _tle(index: int, altitude_km: float, inclination_deg: float,
         eccentricity: float, bstar: float, raan_deg: float,
         mean_anomaly_deg: float, epochdays: float) -> TLE:
    base = make_test_tle(
        altitude_km=altitude_km, inclination_deg=inclination_deg,
        eccentricity=eccentricity, norad_id=44001 + index,
        bstar=bstar, raan_deg=raan_deg,
        mean_anomaly_deg=mean_anomaly_deg)
    return dataclasses.replace(base, epochdays=epochdays)


#: Table-3-style LEO element sets: the study's constellations span
#: ~500-1200 km altitudes and 45-98 deg inclinations.
element_strategy = st.builds(
    lambda *a: a,
    st.floats(min_value=350.0, max_value=1400.0),    # altitude_km
    st.floats(min_value=10.0, max_value=120.0),      # inclination_deg
    st.floats(min_value=0.0, max_value=0.02),        # eccentricity
    st.floats(min_value=-1.0e-4, max_value=1.0e-4),  # bstar
    st.floats(min_value=0.0, max_value=359.9),       # raan_deg
    st.floats(min_value=0.0, max_value=359.9),       # mean_anomaly_deg
    st.floats(min_value=200.0, max_value=300.0),     # epochdays (mixed)
)


def _build_fleet(elements) -> list:
    return [SGP4(_tle(i, *params)) for i, params in enumerate(elements)]


@pytest.fixture(scope="module")
def study_fleet():
    """All four study constellations stacked (the paper's 39 birds)."""
    sats = []
    for name in ("tianqi", "cstp", "fossa", "pico"):
        sats.extend(build_constellation(name, seed=SEED))
    return [s.propagator for s in sats]


class TestPropagateBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=400),
           st.floats(min_value=1.0, max_value=600.0))
    def test_rows_equal_scalar(self, elements, t_len, step_s):
        """Shared grid: each batched row == the scalar propagation."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        tsince = np.arange(t_len, dtype=float) * step_s
        r, v = batch.propagate(tsince)
        assert r.shape == (len(props), t_len, 3)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(element_strategy, min_size=2, max_size=5),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_ragged_rows_equal_scalar(self, elements, rng_seed):
        """Per-satellite (N, T) offsets: rows stay bit-identical."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        rng = np.random.default_rng(rng_seed)
        tsince = rng.uniform(-600.0, 6 * 3600.0,
                             size=(len(props), 50))
        r, v = batch.propagate(tsince)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince[i])
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=4))
    def test_propagate_offsets_mixed_epochs(self, elements):
        """A shared absolute grid maps onto each satellite's epoch."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        epoch = props[0].tle.epoch + 3600.0
        offsets = np.arange(40, dtype=float) * 90.0
        r, v = batch.propagate_offsets(epoch, offsets)
        for i, prop in enumerate(props):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_study_fleet_bit_identical(self, study_fleet):
        """The paper's full 39-satellite fleet over a 1-day 30 s grid."""
        batch = SGP4Batch.from_propagators(study_fleet)
        epoch = study_fleet[0].tle.epoch
        offsets = PassPredictor.coarse_offsets(86400.0, 30.0)
        r, v = batch.propagate_offsets(epoch, offsets)
        for i, prop in enumerate(study_fleet):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_mixed_isimp_fleet(self):
        """Low-perigee (isimp) satellites ride with normal ones.

        Simple-drag satellites skip the higher-order drag block
        entirely; applying it with zeroed coefficients would NOT be
        equivalent (omgcof is generally non-zero for them).
        """
        props = [SGP4(make_test_tle(altitude_km=850.0, norad_id=1)),
                 SGP4(make_test_tle(altitude_km=200.0, norad_id=2)),
                 SGP4(make_test_tle(altitude_km=600.0, norad_id=3)),
                 SGP4(make_test_tle(altitude_km=210.0, norad_id=4))]
        isimps = {p.isimp for p in props}
        assert isimps == {0, 1}, "fixture must mix isimp branches"
        batch = SGP4Batch.from_propagators(props)
        tsince = np.arange(120, dtype=float) * 60.0
        r, v = batch.propagate(tsince)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_row_blocking_is_value_invariant(self, study_fleet,
                                             monkeypatch):
        """Any block size must produce the same bits (pure row split)."""
        batch = SGP4Batch.from_propagators(study_fleet[:8])
        tsince = np.arange(700, dtype=float) * 30.0
        monkeypatch.setattr(SGP4Batch, "_BLOCK_TARGET_ELEMENTS",
                            10 ** 9)
        r_full, v_full = batch.propagate(tsince)
        for target in (1, 700, 1400, 3000):
            monkeypatch.setattr(SGP4Batch, "_BLOCK_TARGET_ELEMENTS",
                                target)
            r_b, v_b = batch.propagate(tsince)
            assert np.array_equal(r_b, r_full)
            assert np.array_equal(v_b, v_full)

    def test_init_from_tles_matches_from_propagators(self):
        tles = [make_test_tle(norad_id=1), make_test_tle(
            altitude_km=600.0, norad_id=2)]
        a = SGP4Batch(tles)
        b = SGP4Batch.from_propagators([SGP4(t) for t in tles])
        tsince = np.arange(30, dtype=float) * 120.0
        ra, va = a.propagate(tsince)
        rb, vb = b.propagate(tsince)
        assert np.array_equal(ra, rb) and np.array_equal(va, vb)

    def test_decay_raises_lowest_index_satellite(self):
        """The batch mirrors a satellite-by-satellite loop's error."""
        healthy = make_test_tle(altitude_km=850.0, norad_id=101)
        doomed = dataclasses.replace(
            make_test_tle(altitude_km=170.0, norad_id=102),
            bstar=5.0e-3)
        props = [SGP4(healthy), SGP4(doomed)]
        tsince = np.arange(400, dtype=float) * 3600.0
        with pytest.raises(DecayedError) as batch_err:
            SGP4Batch.from_propagators(props).propagate(tsince)
        serial_err = None
        for prop in props:
            try:
                prop.propagate(tsince)
            except DecayedError as exc:
                serial_err = exc
                break
        assert serial_err is not None
        assert str(batch_err.value) == str(serial_err)
        # check_decay=False matches the scalar opt-out.
        r, v = SGP4Batch.from_propagators(props).propagate(
            tsince, check_decay=False)
        r_s, v_s = props[1].propagate(tsince, check_decay=False)
        assert np.array_equal(r[1], r_s) and np.array_equal(v[1], v_s)

    def test_shape_and_constructor_validation(self):
        batch = SGP4Batch([make_test_tle()])
        with pytest.raises(ValueError):
            batch.propagate(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            batch.propagate(np.zeros((2, 4)))  # wrong N
        with pytest.raises(ValueError):
            SGP4Batch([])
        with pytest.raises(ValueError):
            SGP4Batch.from_propagators([])
        with pytest.raises(ValueError):
            batch.tsince_from_epoch(make_test_tle().epoch,
                                    np.zeros((2, 2)))

    def test_subset_rows(self, study_fleet):
        batch = SGP4Batch.from_propagators(study_fleet[:5])
        sub = batch.subset([4, 1])
        tsince = np.arange(25, dtype=float) * 60.0
        r, v = batch.propagate(tsince)
        r_s, v_s = sub.propagate(tsince)
        assert np.array_equal(r_s[0], r[4])
        assert np.array_equal(v_s[1], v[1])

    def test_subset_repeated_rows_with_own_instants(self, study_fleet):
        """Lockstep refinement's shape: rows repeat, one instant each."""
        batch = SGP4Batch.from_propagators(study_fleet[:5])
        rows = [3, 0, 3, 4]
        tsince = np.array([[120.5], [-30.25], [7200.0], [61.0]])
        r, v = batch.subset(rows).propagate(tsince)
        for k, row in enumerate(rows):
            r_s, v_s = study_fleet[row].propagate(tsince[k, 0])
            assert np.array_equal(r[k, 0], r_s)
            assert np.array_equal(v[k, 0], v_s)


class TestFleetPassSearch:
    OBSERVERS = [
        GeodeticPoint(22.3, 114.2, 0.0),
        GeodeticPoint(-33.9, 151.2, 0.05),
        GeodeticPoint(89.9, 0.0, 0.0),      # near-pole edge
        GeodeticPoint(0.0, -180.0, 0.0),    # antimeridian edge
    ]

    @pytest.mark.parametrize("refine", ["bisect", "interp"])
    @pytest.mark.parametrize("mask_deg", [0.0, 10.0])
    def test_fleet_equals_nested_serial(self, study_fleet, refine,
                                        mask_deg):
        props = study_fleet[:6]
        epoch = props[0].tle.epoch
        duration = 12 * 3600.0
        kwargs = dict(coarse_step_s=60.0, min_elevation_deg=mask_deg,
                      refine=refine)
        fleet = find_passes_fleet(props, self.OBSERVERS, epoch,
                                  duration, **kwargs)
        for i, prop in enumerate(props):
            for m, observer in enumerate(self.OBSERVERS):
                predictor = PassPredictor(prop, observer, mask_deg)
                assert fleet[i][m] == predictor.find_passes(
                    epoch, duration, coarse_step_s=60.0, refine=refine)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.builds(
        GeodeticPoint,
        st.floats(min_value=-89.99, max_value=89.99),
        st.floats(min_value=-180.0, max_value=180.0),
        st.floats(min_value=0.0, max_value=8.0)),
        min_size=1, max_size=3))
    def test_fleet_random_observers(self, study_fleet, observers):
        props = study_fleet[:3]
        epoch = props[0].tle.epoch
        kwargs = dict(coarse_step_s=60.0, min_elevation_deg=5.0,
                      refine="interp")
        fleet = find_passes_fleet(props, observers, epoch, 6 * 3600.0,
                                  **kwargs)
        for i, prop in enumerate(props):
            for m, observer in enumerate(observers):
                predictor = PassPredictor(prop, observer, 5.0)
                assert fleet[i][m] == predictor.find_passes(
                    epoch, 6 * 3600.0, coarse_step_s=60.0,
                    refine="interp")

    def test_positions_hook_equals_propagation(self, study_fleet):
        props = study_fleet[:3]
        epoch = props[0].tle.epoch
        offsets = PassPredictor.coarse_offsets(6 * 3600.0, 60.0)
        r, _ = SGP4Batch.from_propagators(props).propagate_offsets(
            epoch, offsets)
        direct = find_passes_fleet(props, self.OBSERVERS, epoch,
                                   6 * 3600.0, coarse_step_s=60.0)
        assert find_passes_fleet(props, self.OBSERVERS, epoch, 6 * 3600.0,
                                 coarse_step_s=60.0, positions=r) == direct
        with pytest.raises(ValueError, match="shape"):
            find_passes_fleet(props, self.OBSERVERS, epoch, 6 * 3600.0,
                              coarse_step_s=60.0, positions=r[:, :-1])

    def test_satellite_blocks_are_value_invariant(self, study_fleet,
                                                  monkeypatch):
        props = study_fleet[:6]
        epoch = props[0].tle.epoch
        offsets = PassPredictor.coarse_offsets(6 * 3600.0, 60.0)
        r, _ = SGP4Batch.from_propagators(props).propagate_offsets(
            epoch, offsets)
        whole = find_passes_fleet(props, self.OBSERVERS, epoch,
                                  6 * 3600.0, coarse_step_s=60.0)
        # Two satellites per block: three blocks, cached or not.
        monkeypatch.setattr(passes, "_FLEET_BLOCK_ELEMENTS",
                            2 * offsets.size)
        for positions in (None, r):
            assert find_passes_fleet(
                props, self.OBSERVERS, epoch, 6 * 3600.0,
                coarse_step_s=60.0, positions=positions) == whole

    def test_empty_inputs(self, study_fleet):
        epoch = study_fleet[0].tle.epoch
        assert find_passes_fleet([], self.OBSERVERS, epoch,
                                 3600.0) == []
        assert find_passes_fleet(study_fleet[:2], [], epoch,
                                 3600.0) == [[], []]

    def test_rejects_unknown_mode_and_bad_mask(self, study_fleet):
        epoch = study_fleet[0].tle.epoch
        with pytest.raises(ValueError, match="refine mode"):
            find_passes_fleet(study_fleet[:2], self.OBSERVERS, epoch,
                              3600.0, refine="newton")
        with pytest.raises(ValueError, match="elevation mask"):
            find_passes_fleet(study_fleet[:2], self.OBSERVERS, epoch,
                              3600.0, min_elevation_deg=90.0)


class TestLockstepRefinement:
    """Lockstep bisection of every crossing of a fleet call equals the
    scalar reference's one-instant-at-a-time bisection, in the awkward
    cases too, and runs in a bounded number of batched SGP4 calls."""

    STEP_S = 60.0

    @settings(max_examples=12, deadline=None)
    @given(shells=st.lists(st.builds(
        lambda *a: a,
        st.floats(min_value=450.0, max_value=1400.0),   # altitude_km
        st.floats(min_value=10.0, max_value=120.0),     # inclination_deg
        st.floats(min_value=0.0, max_value=0.02),       # eccentricity
        st.floats(min_value=-1.0e-4, max_value=1.0e-4),  # bstar
        st.floats(min_value=0.0, max_value=359.9),      # raan_deg
        st.floats(min_value=0.0, max_value=359.9),      # mean_anomaly_deg
        st.floats(min_value=249.5, max_value=251.5)),   # epochdays
        min_size=1, max_size=3),
        observers=st.lists(st.builds(
            GeodeticPoint,
            st.floats(min_value=-89.99, max_value=89.99),
            st.floats(min_value=-180.0, max_value=180.0),
            st.floats(min_value=0.0, max_value=3.0)),
            min_size=0, max_size=2),
        mask_deg=st.floats(min_value=-5.0, max_value=30.0),
        # The last two leave every bracket at or under the tolerance:
        # zero bisection iterations.
        tol_s=st.sampled_from([1.0e-3, 0.5, 7.0, 60.0, 90.0]),
        whole_steps=st.integers(min_value=60, max_value=240),
        # A fractional last step: the terminal bracket is short.
        tail=st.floats(min_value=0.05, max_value=0.95))
    def test_bisect_equals_scalar(self, shells, observers, mask_deg,
                                  tol_s, whole_steps, tail):
        props = _build_fleet(shells)
        epoch = props[0].tle.epoch
        duration = (whole_steps + tail) * self.STEP_S
        # Two observers under the first satellite, at the start and at
        # the end of the span: a window clipped at each end.
        lat, lon, _ = ground_track(props[0], epoch,
                                   np.array([0.0, duration]))
        observers = observers + [
            GeodeticPoint(float(lat[0]), float(lon[0])),
            GeodeticPoint(float(lat[1]), float(lon[1]))]
        kwargs = dict(coarse_step_s=self.STEP_S, refine_tol_s=tol_s,
                      refine="bisect")
        fleet = find_passes_fleet(props, observers, epoch, duration,
                                  min_elevation_deg=mask_deg, **kwargs)
        for n, prop in enumerate(props):
            for m, observer in enumerate(observers):
                predictor = PassPredictor(prop, observer, mask_deg)
                assert fleet[n][m] == predictor.find_passes(
                    epoch, duration, **kwargs)
        assert fleet[0][-2][0].clipped_start
        assert fleet[0][-1][-1].clipped_end

    def test_bisect_refines_in_batched_lockstep(self, study_fleet,
                                                monkeypatch):
        """No scalar propagation; exactly the scalar reference's
        refinement instants; at most one call per bisection iteration
        plus one for the culminations, per block."""
        observers = TestFleetPassSearch.OBSERVERS
        epoch = study_fleet[0].tle.epoch
        # End the span 1 s after a set that lies early in its grid step:
        # that crossing's terminal bracket is under half a step, so it
        # converges iterations before the full-step brackets and must
        # not be evaluated again while they finish.
        first = PassPredictor(study_fleet[0], observers[0]).find_passes(
            epoch, 12 * 3600.0, coarse_step_s=60.0)
        duration = next(w.set_s for w in first
                        if not w.clipped_end and w.set_s % 60.0 < 25.0) + 1.0
        counts: Counter = Counter()
        scalar_propagate = SGP4.propagate
        batch_propagate = SGP4Batch.propagate
        elevation_at = PassPredictor.elevation_at

        def count_scalar(self, tsince_s, check_decay=True):
            counts["scalar_calls"] += 1
            return scalar_propagate(self, tsince_s, check_decay)

        def count_batch(self, tsince_s, check_decay=True):
            if np.ndim(tsince_s) == 2 and np.shape(tsince_s)[1] == 1:
                # One instant per row: a refinement call (coarse grids
                # have at least two samples).
                counts["refine_calls"] += 1
                counts["refine_instants"] += np.shape(tsince_s)[0]
            return batch_propagate(self, tsince_s, check_decay)

        def count_elevation(self, epoch, offset_s):
            counts["elevation_at"] += 1
            return elevation_at(self, epoch, offset_s)

        monkeypatch.setattr(SGP4, "propagate", count_scalar)
        monkeypatch.setattr(SGP4Batch, "propagate", count_batch)
        monkeypatch.setattr(PassPredictor, "elevation_at", count_elevation)
        offsets = PassPredictor.coarse_offsets(duration, 60.0)
        # 13 satellites per block: three blocks.
        monkeypatch.setattr(passes, "_FLEET_BLOCK_ELEMENTS",
                            13 * offsets.size)
        blocks = 3

        fleet = find_passes_fleet(study_fleet, observers, epoch, duration,
                                  coarse_step_s=60.0, refine="bisect")
        engine = dict(counts)
        counts.clear()
        reference = [[PassPredictor(prop, observer).find_passes(
            epoch, duration, coarse_step_s=60.0, refine="bisect")
            for observer in observers] for prop in study_fleet]

        assert fleet == reference
        assert fleet[0][0][-1].set_s > offsets[-2]
        assert engine.get("scalar_calls", 0) == 0
        assert engine.get("elevation_at", 0) == 0
        assert engine["refine_instants"] == counts["elevation_at"]
        crossings = sum(2 - w.clipped_start - w.clipped_end
                        for rows in fleet for windows in rows
                        for w in windows)
        bound = (passes._BISECT_MAX_ITER + 1) * blocks
        assert crossings > bound
        assert engine["refine_calls"] <= bound


class TestCoarseOffsetsRegression:
    def test_step_divisible_duration_has_no_duplicate_tail(self):
        """86400/30 divides exactly: the grid must end in one clean
        terminal sample, not a zero-length refinement bracket."""
        offsets = PassPredictor.coarse_offsets(86400.0, 30.0)
        assert offsets.size == 2881
        assert offsets[-1] == 86400.0
        assert np.all(np.diff(offsets) > 0.0)

    def test_one_ulp_drift_is_snapped_not_appended(self):
        """A duration one ULP above the last arange sample must not
        produce a near-duplicate terminal sample."""
        duration = np.nextafter(86400.0, np.inf)
        offsets = PassPredictor.coarse_offsets(float(duration), 30.0)
        assert offsets[-1] == duration
        assert offsets.size == 2881
        diffs = np.diff(offsets)
        assert np.all(diffs > 1.0e-6)

    def test_non_divisible_duration_still_appends_endpoint(self):
        offsets = PassPredictor.coarse_offsets(100.0, 30.0)
        assert offsets.tolist() == [0.0, 30.0, 60.0, 90.0, 100.0]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.0, max_value=7 * 86400.0),
           st.floats(min_value=0.5, max_value=3600.0))
    def test_grid_invariants(self, duration, step):
        offsets = PassPredictor.coarse_offsets(duration, step)
        assert offsets[0] == 0.0
        assert offsets[-1] == duration or (
            duration - offsets[-1] <= 1.0e-9 * step)
        assert np.all(np.diff(offsets) > 0.0)
