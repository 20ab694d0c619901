"""The paper's customized pass scheduler (Section 2.2).

Vanilla TinyGS decides internally which station listens to which
satellite; the authors replaced it with a scheduler that tracks satellite
positions from TLEs and assigns stations to target satellites *in
advance*, retuning each station to the target's DtS frequency before the
pass.  This module reproduces that component: given a site's stations and
the satellites of interest, it predicts every contact window and computes
a non-overlapping station↔pass assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..constellations.catalog import Satellite
from ..orbits.passes import ContactWindow, find_passes_fleet
from ..orbits.timebase import Epoch
from .station import GroundStation

__all__ = ["ScheduledPass", "PassSchedule", "Scheduler"]


@dataclass(frozen=True)
class ScheduledPass:
    """One station↔satellite assignment over a contact window."""

    station: GroundStation
    satellite: Satellite
    window: ContactWindow

    @property
    def frequency_hz(self) -> float:
        return self.satellite.radio.frequency_hz


@dataclass
class PassSchedule:
    """The full schedule for one site over a campaign span."""

    assigned: List[ScheduledPass]
    dropped: List[Tuple[Satellite, ContactWindow]]

    @property
    def coverage(self) -> float:
        """Fraction of predicted windows that got a station."""
        total = len(self.assigned) + len(self.dropped)
        if total == 0:
            return 1.0
        return len(self.assigned) / total

    def for_station(self, station_id: str) -> List[ScheduledPass]:
        return [p for p in self.assigned
                if p.station.station_id == station_id]


class Scheduler:
    """Greedy interval scheduler assigning stations to predicted passes.

    Passes are sorted by rise time; each is given to any station that is
    idle for the pass's entire span and whose hardware covers the
    satellite's frequency.  With a handful of stations per site and a few
    dozen passes per day this greedy policy assigns essentially all
    windows, mirroring the paper's "schedule ground stations in advance"
    design.
    """

    def __init__(self, stations: Sequence[GroundStation],
                 min_elevation_deg: float = 0.0,
                 guard_time_s: float = 30.0) -> None:
        if not stations:
            raise ValueError("scheduler needs at least one station")
        if guard_time_s < 0:
            raise ValueError("guard time cannot be negative")
        self.stations = list(stations)
        self.min_elevation_deg = min_elevation_deg
        self.guard_time_s = guard_time_s

    # ------------------------------------------------------------------
    def predict_windows(self, satellites: Sequence[Satellite],
                        epoch: Epoch, duration_s: float,
                        coarse_step_s: float = 30.0,
                        ephemeris_cache=None,
                        ) -> List[Tuple[Satellite, ContactWindow]]:
        """All contact windows of the target satellites over the site.

        ``ephemeris_cache`` is an optional
        :class:`satiot.runtime.EphemerisCache`; when given, the pass
        search goes through its memoized ``find_passes_fleet`` (which
        yields windows bit-identical to the direct computation).
        """
        satellites = list(satellites)
        search = (find_passes_fleet if ephemeris_cache is None
                  else ephemeris_cache.find_passes_fleet)
        per_sat = search([sat.propagator for sat in satellites],
                         [self.stations[0].location], epoch, duration_s,
                         coarse_step_s=coarse_step_s,
                         min_elevation_deg=self.min_elevation_deg)
        out = [(sat, window) for sat, rows in zip(satellites, per_sat)
               for window in rows[0]]
        out.sort(key=lambda pair: pair[1].rise_s)
        return out

    def build_schedule(self, satellites: Sequence[Satellite],
                       epoch: Epoch, duration_s: float,
                       coarse_step_s: float = 30.0,
                       ephemeris_cache=None) -> PassSchedule:
        """Predict windows and greedily assign them to stations."""
        windows = self.predict_windows(satellites, epoch, duration_s,
                                       coarse_step_s=coarse_step_s,
                                       ephemeris_cache=ephemeris_cache)
        busy_until: Dict[str, float] = {
            st.station_id: float("-inf") for st in self.stations}
        assigned: List[ScheduledPass] = []
        dropped: List[Tuple[Satellite, ContactWindow]] = []

        for sat, window in windows:
            chosen: Optional[GroundStation] = None
            for station in self.stations:
                if not station.hardware.supports_frequency(
                        sat.radio.frequency_hz):
                    continue
                if busy_until[station.station_id] + self.guard_time_s \
                        <= window.rise_s:
                    chosen = station
                    break
            if chosen is None:
                dropped.append((sat, window))
                continue
            busy_until[chosen.station_id] = window.set_s
            assigned.append(ScheduledPass(station=chosen, satellite=sat,
                                          window=window))
        return PassSchedule(assigned=assigned, dropped=dropped)
