"""Store-and-forward segment: satellite buffers and the operator's
ground-station network.

A Tianqi satellite stores uplinked packets in an on-board buffer and
offloads them when it next passes one of the operator's ground stations
(all twelve are in China — paper Section 2.3).  The delivery delay of a
packet is therefore dominated by orbital geometry: how long until the
carrying satellite reaches a ground station.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from typing import Dict, List, Optional, Sequence, Tuple

from ..constellations.catalog import Constellation

from ..orbits.frames import GeodeticPoint
from ..orbits.passes import find_passes_fleet
from ..orbits.timebase import Epoch

__all__ = ["OperatorGroundStation", "TIANQI_GROUND_STATIONS",
           "GroundSegment", "SatelliteBuffer", "BufferedPacket"]


@dataclass(frozen=True)
class OperatorGroundStation:
    """One of the operator's large downlink ground stations."""

    name: str
    location: GeodeticPoint
    min_elevation_deg: float = 10.0


#: Twelve Tianqi ground stations, all in China (paper Section 2.3).
#: Locations are representative major facilities spread across the
#: country; the paper does not publish exact coordinates.
TIANQI_GROUND_STATIONS: Tuple[OperatorGroundStation, ...] = (
    OperatorGroundStation("Beijing", GeodeticPoint(40.07, 116.59, 0.05)),
    OperatorGroundStation("Urumqi", GeodeticPoint(43.82, 87.61, 0.9)),
    OperatorGroundStation("Kashgar", GeodeticPoint(39.47, 75.99, 1.3)),
    OperatorGroundStation("Sanya", GeodeticPoint(18.30, 109.30, 0.02)),
    OperatorGroundStation("Harbin", GeodeticPoint(45.75, 126.65, 0.15)),
    OperatorGroundStation("Lhasa", GeodeticPoint(29.65, 91.14, 3.65)),
    OperatorGroundStation("Xi'an", GeodeticPoint(34.34, 108.94, 0.4)),
    OperatorGroundStation("Chengdu", GeodeticPoint(30.57, 104.06, 0.5)),
    OperatorGroundStation("Guangzhou", GeodeticPoint(23.13, 113.26, 0.02)),
    OperatorGroundStation("Shanghai", GeodeticPoint(31.23, 121.47, 0.01)),
    OperatorGroundStation("Kunming", GeodeticPoint(25.04, 102.71, 1.9)),
    OperatorGroundStation("Hohhot", GeodeticPoint(40.84, 111.75, 1.05)),
)


@dataclass(frozen=True)
class BufferedPacket:
    """A packet sitting in a satellite's on-board buffer."""

    node_id: str
    seq: int
    stored_s: float
    payload_bytes: int


class SatelliteBuffer:
    """On-board packet store of one satellite.

    Duplicates (same node, seq — e.g. after a lost ACK triggered a
    retransmission) are absorbed: the packet is stored once, keeping the
    earliest storage time, which mirrors the dedup the operator's data
    centre performs.
    """

    def __init__(self, norad_id: int, capacity_packets: int = 10_000) -> None:
        if capacity_packets <= 0:
            raise ValueError("buffer capacity must be positive")
        self.norad_id = norad_id
        self.capacity_packets = capacity_packets
        self._packets: Dict[Tuple[str, int], BufferedPacket] = {}
        self.dropped_overflow = 0
        self.duplicates_absorbed = 0

    def __len__(self) -> int:
        return len(self._packets)

    def store(self, packet: BufferedPacket) -> bool:
        """Store a packet; returns False on overflow drop."""
        key = (packet.node_id, packet.seq)
        if key in self._packets:
            self.duplicates_absorbed += 1
            return True
        if len(self._packets) >= self.capacity_packets:
            self.dropped_overflow += 1
            return False
        self._packets[key] = packet
        return True

    def packets(self) -> List[BufferedPacket]:
        """Current contents, oldest first, without draining."""
        return sorted(self._packets.values(), key=lambda p: p.stored_s)

    def drain(self) -> List[BufferedPacket]:
        """Remove and return everything (a completed downlink)."""
        out = sorted(self._packets.values(), key=lambda p: p.stored_s)
        self._packets.clear()
        return out


class GroundSegment:
    """The operator's downlink network: per-satellite offload windows.

    Pre-computes every satellite's contact windows with every operator
    ground station over the campaign span, and answers "when will a
    packet stored on satellite X at time T reach the data centre?".
    """

    def __init__(self, constellation: Constellation, epoch: Epoch,
                 duration_s: float,
                 stations: Sequence[OperatorGroundStation]
                 = TIANQI_GROUND_STATIONS,
                 downlink_setup_s: float = 30.0,
                 backhaul_delay_s: float = 120.0,
                 processing_batch_s: float = 5400.0,
                 coarse_step_s: float = 60.0) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not stations:
            raise ValueError("ground segment needs at least one station")
        self.constellation = constellation
        self.epoch = epoch
        self.duration_s = duration_s
        self.downlink_setup_s = downlink_setup_s
        self.backhaul_delay_s = backhaul_delay_s
        #: The operator's data centre releases data to subscribers in
        #: periodic processing batches; 0 disables batching.  This is
        #: what keeps the "Tianqi delivery" latency segment large even
        #: when a ground station is in view at uplink time.
        self.processing_batch_s = processing_batch_s

        # One engine call per distinct station mask.
        by_mask: Dict[float, List[GeodeticPoint]] = {}
        for station in stations:
            by_mask.setdefault(station.min_elevation_deg,
                               []).append(station.location)
        satellites = list(constellation)
        spans: List[List[Tuple[float, float]]] = [[] for _ in satellites]
        for mask, locations in by_mask.items():
            per_sat = find_passes_fleet(
                [sat.propagator for sat in satellites], locations, epoch,
                duration_s, coarse_step_s=coarse_step_s,
                min_elevation_deg=mask)
            for sat_spans, rows in zip(spans, per_sat):
                sat_spans.extend((w.rise_s, w.set_s)
                                 for windows in rows for w in windows)
        # Per satellite: sorted list of (offload_start, offload_end).
        self._windows: Dict[int, List[Tuple[float, float]]] = {}
        for satellite, sat_spans in zip(satellites, spans):
            sat_spans.sort()
            self._windows[satellite.norad_id] = sat_spans

    # ------------------------------------------------------------------
    def offload_windows(self, norad_id: int) -> List[Tuple[float, float]]:
        return list(self._windows[norad_id])

    def next_offload_s(self, norad_id: int,
                       stored_s: float) -> Optional[float]:
        """Instant the satellite can next start downlinking the packet."""
        spans = self._windows.get(norad_id)
        if spans is None:
            raise KeyError(f"satellite {norad_id} not in ground segment")
        starts = [s for s, _ in spans]
        i = bisect.bisect_left(starts, stored_s)
        # A window already in progress also works if enough of it remains.
        if i > 0:
            start, end = spans[i - 1]
            if stored_s < end - self.downlink_setup_s:
                return stored_s
        if i < len(spans):
            return spans[i][0]
        return None

    def delivery_time_s(self, norad_id: int,
                        stored_s: float) -> Optional[float]:
        """Server arrival time of a packet stored on-board at ``stored_s``.

        ``None`` when no further ground-station contact occurs within the
        simulated span (the packet would arrive after the campaign ends).
        """
        offload = self.next_offload_s(norad_id, stored_s)
        if offload is None:
            return None
        arrival = offload + self.downlink_setup_s + self.backhaul_delay_s
        if self.processing_batch_s > 0:
            import math
            arrival = math.ceil(arrival / self.processing_batch_s) \
                * self.processing_batch_s
        return arrival

    def mean_gap_hours(self, norad_id: int) -> float:
        """Mean gap between successive offload opportunities (diagnostic)."""
        spans = self._windows[norad_id]
        if len(spans) < 2:
            return float("inf")
        gaps = [spans[i + 1][0] - spans[i][1] for i in range(len(spans) - 1)]
        return sum(gaps) / len(gaps) / 3600.0
