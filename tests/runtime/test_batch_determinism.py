"""Fleet pass-engine determinism + constellation-grid key compatibility.

Every consumer of :func:`satiot.orbits.passes.find_passes_fleet` —
campaign scheduler, serving flush — must produce **byte-identical**
output whether satellites and observers are batched together or
alone, cached or not, and must equal the scalar
:meth:`~satiot.orbits.passes.PassPredictor.find_passes` reference.
These tests pin that contract, plus the cache-key compatibility that
lets fleet fills satisfy single-satellite lookups.
"""

from __future__ import annotations

import numpy as np
import pytest

from satiot.constellations.catalog import build_constellation
from satiot.core.campaign import (PassiveCampaign, PassiveCampaignConfig,
                                  _campaign_inputs)
from satiot.core.sites import SITES
from satiot.orbits.passes import PassPredictor
from satiot.runtime.ephemeris_cache import EphemerisCache
from satiot.serving.service import (ConstellationService, PassesRequest,
                                    PresenceRequest)

from .test_columnar_determinism import assert_columns_bit_identical

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


CFG = dict(sites=("HK",), constellations=("tianqi",), days=0.5, seed=7)


def _run_campaign(cache):
    # A fresh memory cache per run: a shared cache would serve run B
    # the pass lists computed by run A and mask the code path under test.
    return PassiveCampaign(PassiveCampaignConfig(**CFG), workers=1,
                           ephemeris_cache=cache).run()


class TestCampaignBatchingDeterminism:
    """The scheduler's fleet pass search, through the cache or not."""

    def test_campaign_columns_identical_on_off(self):
        cached = _run_campaign("memory")
        uncached = _run_campaign(None)
        assert cached.total_traces == uncached.total_traces > 0
        assert_columns_bit_identical(cached.dataset, uncached.dataset)

    def test_schedules_identical_on_off(self):
        cached = _run_campaign("memory")
        uncached = _run_campaign(None)
        cfg = PassiveCampaignConfig(**CFG)
        _, satellites, epoch = _campaign_inputs(cfg)
        for code in CFG["sites"]:
            sched_a = cached.site_results[code].schedule
            sched_b = uncached.site_results[code].schedule
            assert len(sched_a.assigned) == len(sched_b.assigned) > 0
            assert sched_a.assigned == sched_b.assigned
            assert sched_a.dropped == sched_b.dropped
            # Every predicted window, assigned or dropped, equals the
            # nested scalar reference for its (satellite, site).
            got = sorted(
                [(p.satellite.norad_id, p.window)
                 for p in sched_a.assigned]
                + [(sat.norad_id, w) for sat, w in sched_a.dropped],
                key=lambda pair: (pair[0], pair[1].rise_s))
            ref = [(sat.norad_id, w) for sat in satellites
                   for w in PassPredictor(
                       sat.propagator, SITES[code].location,
                       cfg.min_elevation_deg).find_passes(
                           epoch, cfg.duration_s,
                           coarse_step_s=cfg.coarse_step_s)]
            assert got == ref


def _observer_params():
    return [{"lat": 22.3, "lon": 114.2},
            {"lat": -33.9, "lon": 151.2},
            {"lat": 51.5, "lon": -0.1},
            {"lat": 64.1, "lon": -21.9}]


class TestServingBatchingDeterminism:
    """A micro-batch of one answers exactly as inside a batch of four.

    Each call gets a fresh service, so both payloads are computed (no
    pass-cache hit can stand in for either side).
    """

    def test_passes_payloads_identical_on_off(self):
        requests = [PassesRequest.from_params(
            {**p, "horizon_s": 6 * 3600.0}) for p in _observer_params()]
        grouped = ConstellationService(coarse_step_s=60.0).passes_batch(
            requests)
        for request, payload in zip(requests, grouped):
            alone = ConstellationService(
                coarse_step_s=60.0).passes_batch([request])
            assert alone == [payload]
        assert any(p["count"] > 0 for p in grouped)

    def test_presence_payloads_identical_on_off(self):
        requests = [PresenceRequest.from_params(
            {**p, "horizon_s": 6 * 3600.0}) for p in _observer_params()]
        grouped = ConstellationService(
            coarse_step_s=60.0).presence_batch(requests)
        for request, payload in zip(requests, grouped):
            alone = ConstellationService(
                coarse_step_s=60.0).presence_batch([request])
            assert alone == [payload]


class TestConstellationGridKeyCompat:
    """Fleet fills and single-satellite lookups share one key space."""

    @pytest.fixture()
    def fleet(self):
        constellation = build_constellation("tianqi", seed=3)
        props = [sat.propagator for sat in constellation]
        epoch = props[0].tle.epoch
        offsets = np.arange(0.0, 3600.0 + 1e-9, 60.0)
        return props, epoch, offsets

    def test_fleet_fill_satisfies_single_sat_lookup(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        assert r.shape == (len(props), offsets.size, 3)
        misses = cache.stats.grid_misses
        for i, prop in enumerate(props):
            ri, vi = cache.propagation_grid(prop, epoch, offsets)
            assert np.array_equal(ri, r[i])
            assert np.array_equal(vi, v[i])
            # Row entries are views of the fleet stack, not copies.
            assert ri.base is not None
        assert cache.stats.grid_misses == misses  # all hits

    def test_single_sat_fills_adopted_into_stack(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        pre = [cache.propagation_grid(p, epoch, offsets)
               for p in props[:3]]
        misses = cache.stats.grid_misses
        r, v = cache.constellation_grid(props, epoch, offsets)
        # Only the satellites not already cached were propagated.
        assert cache.stats.grid_misses == misses + len(props) - 3
        for i, (ri, vi) in enumerate(pre):
            assert np.array_equal(r[i], ri)
            assert np.array_equal(v[i], vi)

    def test_grid_resident_bytes_dedupes_views(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        resident = cache.grid_resident_bytes()
        # One (N, T, 3) stack pair, counted once despite N row views
        # plus the stack entry itself living in the LRU.
        assert resident == r.nbytes + v.nbytes
        assert cache.stats.grid_bytes == resident

    def test_fleet_grid_bit_identical_to_scalar(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        for i, prop in enumerate(props):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_ref, v_ref = prop.propagate(tsince)
            assert np.array_equal(r[i], r_ref)
            assert np.array_equal(v[i], v_ref)

    def test_fleet_passes_match_scalar_cache_path(self, fleet):
        """A 6x2 fleet fill equals one-pair-at-a-time cache calls and
        the scalar reference."""
        from satiot.orbits.frames import GeodeticPoint
        props, epoch, offsets = fleet
        observers = [GeodeticPoint(22.3, 114.2, 0.0),
                     GeodeticPoint(-33.9, 151.2, 0.0)]
        fleet_cache = EphemerisCache()
        per = fleet_cache.find_passes_fleet(
            props[:6], observers, epoch, 6 * 3600.0,
            coarse_step_s=60.0, min_elevation_deg=10.0)
        pair_cache = EphemerisCache()
        for n, prop in enumerate(props[:6]):
            for m, obs in enumerate(observers):
                [[pair]] = pair_cache.find_passes_fleet(
                    [prop], [obs], epoch, 6 * 3600.0, coarse_step_s=60.0,
                    min_elevation_deg=10.0)
                ref = PassPredictor(prop, obs, 10.0).find_passes(
                    epoch, 6 * 3600.0, coarse_step_s=60.0)
                assert per[n][m] == pair == ref
