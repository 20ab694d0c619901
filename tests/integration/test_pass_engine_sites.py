"""Every production pass search equals the scalar reference.

The five consumers below call :func:`satiot.orbits.passes.find_passes_fleet`
directly (uncached).  Each case rebuilds the consumer's output from
nested per-(satellite, observer) :meth:`PassPredictor.find_passes`
calls — the scalar reference — and requires exact equality, so any
drift in the engine or in how a consumer flattens its rows shows up
here, byte for byte.
"""

from __future__ import annotations

import pytest

from satiot.cli import main
from satiot.constellations.catalog import build_constellation
from satiot.core.active import ActiveCampaign, ActiveCampaignConfig
from satiot.core.availability import daily_presence_hours
from satiot.core.report import format_table
from satiot.core.sites import SITES
from satiot.core.stats import interval_gaps, merge_intervals, total_length
from satiot.network.store_forward import (TIANQI_GROUND_STATIONS,
                                          GroundSegment,
                                          OperatorGroundStation)
from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.scenarios import SCENARIO_FORMAT, parse_scenario
from satiot.scenarios.compiler import (build_cell_constellations,
                                       compile_cells)
from satiot.scenarios.orchestrator import _run_presence_cell

SEED = 7
SPAN_S = 0.25 * 86400.0


def _scalar(satellite, observer, mask, epoch, duration_s, **kwargs):
    return PassPredictor(satellite.propagator, observer, mask).find_passes(
        epoch, duration_s, **kwargs)


def _tianqi():
    constellation = build_constellation("tianqi", seed=SEED)
    return constellation, constellation.satellites[0].tle.epoch


def ground_segment_case(capsys):
    constellation, epoch = _tianqi()
    # Two distinct masks: the segment makes one engine call per mask.
    stations = TIANQI_GROUND_STATIONS[:4] + (
        OperatorGroundStation("Low mask", GeodeticPoint(22.3, 114.2),
                              min_elevation_deg=5.0),
        OperatorGroundStation("Low mask 2", GeodeticPoint(1.3, 103.8),
                              min_elevation_deg=5.0))
    segment = GroundSegment(constellation, epoch, SPAN_S,
                            stations=stations)
    got = [segment.offload_windows(sat.norad_id) for sat in constellation]
    ref = [sorted((w.rise_s, w.set_s) for station in stations
                  for w in _scalar(sat, station.location,
                                   station.min_elevation_deg, epoch,
                                   SPAN_S, coarse_step_s=60.0))
           for sat in constellation]
    return got, ref


def active_case(capsys):
    constellation, epoch = _tianqi()
    campaign = ActiveCampaign(ActiveCampaignConfig(days=0.25))
    cfg = campaign.config
    got = [(sat.norad_id, w)
           for sat, w in campaign._predict_windows(constellation, epoch)]
    ref = [(sat.norad_id, w) for sat in constellation
           for w in _scalar(sat, cfg.site, 0.0, epoch, cfg.duration_s)]
    ref.sort(key=lambda pair: pair[1].rise_s)
    return got, ref


def presence_case(capsys):
    constellation, epoch = _tianqi()
    location = SITES["SYD"].location
    got = daily_presence_hours(constellation, location, epoch, days=0.25,
                               min_elevation_deg=5.0)
    merged = merge_intervals(
        (w.rise_s, w.set_s) for sat in constellation
        for w in _scalar(sat, location, 5.0, epoch, SPAN_S))
    return got, total_length(merged) / SPAN_S * 24.0


def orchestrator_presence_case(capsys):
    doc = {"format": SCENARIO_FORMAT, "name": "engine-sites",
           "kind": "presence", "seed": 42,
           "constellation": {"walker": {"count": 6}},
           "sites": ["HK", "SYD", "LDN"], "duration": {"days": 0.25}}
    [cell] = compile_cells(parse_scenario(doc))
    rows, _ = _run_presence_cell(cell)
    got = [(row.kpi, row.subject, row.value) for row in rows]
    ref = []
    for constellation in build_cell_constellations(cell).values():
        epoch = constellation.satellites[0].tle.epoch
        ref.append(("satellites", constellation.name, len(constellation)))
        for code in doc["sites"]:
            merged = merge_intervals(
                (w.rise_s, w.set_s) for sat in constellation
                for w in _scalar(sat, SITES[code].location, 0.0, epoch,
                                 SPAN_S))
            gaps = interval_gaps(merged, 0.0, SPAN_S)
            subject = f"{constellation.name}@{code}"
            ref += [("presence_h_day", subject,
                     total_length(merged) / SPAN_S * 24.0),
                    ("max_contact_gap_min", subject,
                     max(gaps) / 60.0 if gaps else 0.0),
                    ("contacts", subject, len(merged))]
    return got, ref


def cli_passes_case(capsys):
    assert main(["--seed", str(SEED), "passes", "tianqi", "--site", "HK",
                 "--days", "0.25", "--min-elevation", "10"]) == 0
    got = capsys.readouterr().out
    constellation, epoch = _tianqi()
    rows = [[sat.name, w.rise_s / 3600.0, w.duration_s / 60.0,
             w.max_elevation_deg] for sat in constellation
            for w in _scalar(sat, SITES["HK"].location, 10.0, epoch,
                             SPAN_S)]
    rows.sort(key=lambda r: r[1])
    ref = format_table(
        ["Satellite", "rise (h)", "duration (min)", "max el (deg)"],
        rows, precision=1,
        title=f"{constellation.name} passes, 0.25 day(s)")
    return got, f"{ref}\n{len(rows)} passes\n"


@pytest.mark.parametrize("case", [
    ground_segment_case, active_case, presence_case,
    orchestrator_presence_case, cli_passes_case,
], ids=lambda case: case.__name__[:-len("_case")])
def test_call_site_equals_scalar_reference(case, capsys):
    got, ref = case(capsys)
    assert ref  # a vacuous reference would prove nothing
    assert got == ref
