"""Fleet-scale congestion study.

Paper Section 3.1: "since a satellite's footprint covers thousands of
km² with many IoT devices deployed, bursty concurrent communications
from numerous devices can be expected when a satellite flies over.
This imposes pressure on the processing capacity and capabilities of
the satellite."

This module scales the active campaign's three measured nodes to a
whole regional fleet.  The fleet is not simulated node-by-node; instead
it appears to the measured nodes as (a) elevated contention on every
beacon (collision probability grows with the expected number of
simultaneous transmitters in the footprint) and (b) load on the
satellite buffers that must be drained through capacity-limited
downlink sessions, delaying the measured nodes' deliveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Optional


import numpy as np

from ..constellations.catalog import Constellation
from ..constellations.footprint import footprint_area_km2
from ..network.downlink import DownlinkConfig

from ..network.mac import MacConfig
from ..network.store_forward import GroundSegment
from ..runtime.executor import Shard, ShardExecutor
from .campaign import (PassiveCampaign, PassiveCampaignConfig,
                       PassiveCampaignResult)

__all__ = ["FleetModel", "congested_mac_config",
           "delivery_delay_under_load_s", "passive_fleet_sweep",
           "fleet_pressure_by_constellation"]


@dataclass(frozen=True)
class FleetModel:
    """A regional background fleet sharing the constellation."""

    #: Devices per million km² of satellite footprint.
    device_density_per_mkm2: float = 50.0
    #: Each background device's packet rate (packets/hour).
    packets_per_hour: float = 2.0
    #: Fraction of footprint devices awake and contending at any beacon.
    duty_factor: float = 0.02
    payload_bytes: int = 20

    def __post_init__(self) -> None:
        if self.device_density_per_mkm2 < 0 or self.packets_per_hour < 0:
            raise ValueError("fleet parameters must be non-negative")
        if not 0.0 <= self.duty_factor <= 1.0:
            raise ValueError("duty factor must be a fraction")

    # ------------------------------------------------------------------
    def devices_in_footprint(self, altitude_km: float) -> float:
        area_mkm2 = footprint_area_km2(altitude_km) / 1e6
        return self.device_density_per_mkm2 * area_mkm2

    def expected_contenders(self, altitude_km: float) -> float:
        """Mean number of fleet devices transmitting on one beacon."""
        return self.devices_in_footprint(altitude_km) * self.duty_factor

    def uplink_packets_per_hour(self, altitude_km: float) -> float:
        """Fleet packets a satellite absorbs per hour over the region."""
        return (self.devices_in_footprint(altitude_km)
                * self.packets_per_hour)


def congested_mac_config(fleet: FleetModel, altitude_km: float,
                         base: Optional[MacConfig] = None) -> MacConfig:
    """A MAC configuration with fleet contention folded in.

    The measured nodes' transmissions survive fleet contention with a
    capture probability ``1 / (1 + k_bg)`` where ``k_bg`` is the
    expected number of simultaneous background transmitters — the
    standard unslotted-contention capture approximation.  Co-located
    measured-node collisions stay on top of that.
    """
    base = base or MacConfig()
    k_bg = fleet.expected_contenders(altitude_km)
    survive_bg = 1.0 / (1.0 + k_bg)
    capture = {k: p * survive_bg
               for k, p in base.capture_probability.items()}
    # Satellite-side processing pressure grows with fleet load.
    load = fleet.uplink_packets_per_hour(altitude_km)
    satellite_loss = min(0.5, base.satellite_loss_probability
                         + load / 2.0e6)
    return MacConfig(
        max_retransmissions=base.max_retransmissions,
        capture_probability=capture,
        satellite_loss_probability=satellite_loss,
        turnaround_s=base.turnaround_s,
        retry_backoff_s=base.retry_backoff_s,
        transmit_policy=base.transmit_policy,
    )


def delivery_delay_under_load_s(
        ground_segment: GroundSegment,
        fleet: FleetModel,
        constellation: Constellation,
        stored_s: float,
        norad_id: int,
        downlink: Optional[DownlinkConfig] = None) -> Optional[float]:
    """Delivery time of a measured packet queued behind fleet traffic.

    The satellite reaches a ground station as usual, but the measured
    packet shares the downlink with the backlog the fleet accumulated
    since the previous offload; its completion slips by the queueing
    time of the packets ahead of it.
    """
    downlink = downlink or DownlinkConfig()
    offload = ground_segment.next_offload_s(norad_id, stored_s)
    if offload is None:
        return None

    satellite = constellation.satellite_by_norad(norad_id)
    gap_h = ground_segment.mean_gap_hours(norad_id)
    if math.isinf(gap_h):
        gap_h = 12.0
    backlog = fleet.uplink_packets_per_hour(
        satellite.mean_altitude_km) * gap_h
    # FIFO: on average half the backlog sits ahead of the packet.
    queue_ahead = 0.5 * backlog
    queueing_s = queue_ahead * downlink.packet_airtime_s(
        fleet.payload_bytes)

    base_arrival = (offload + ground_segment.downlink_setup_s
                    + queueing_s + ground_segment.backhaul_delay_s)
    batch = ground_segment.processing_batch_s
    if batch > 0:
        base_arrival = math.ceil(base_arrival / batch) * batch
    return base_arrival


# ----------------------------------------------------------------------
# Fleet-sweep execution (per-constellation shards on the runtime)
# ----------------------------------------------------------------------
def _fleet_campaign_worker(shard: Shard) -> PassiveCampaignResult:
    """Run one single-constellation passive campaign in a worker."""
    config = shard.payload
    # workers=1: the constellation is the unit of parallelism here.
    return PassiveCampaign(config, workers=1).run()


def passive_fleet_sweep(base_config: Optional[PassiveCampaignConfig]
                        = None,
                        workers: Optional[int] = None,
                        ) -> Dict[str, PassiveCampaignResult]:
    """One passive campaign per constellation, sharded per constellation.

    Fleet studies compare constellations in isolation (each operator's
    fleet pressures only its own satellites), so the sweep decomposes
    into one independent single-constellation campaign per operator.
    With ``workers > 1`` the campaigns run on the runtime's process pool
    and, per the runtime determinism contract, each campaign's traces
    are bit-identical to a serial single-constellation run with the
    same seed.

    Each shard's pass prediction runs on the fleet pass engine (one
    :class:`~satiot.orbits.sgp4_batch.SGP4Batch` propagation per fleet
    per site grid, GMST/ECEF once per grid).

    Returns results keyed by constellation, in configured order.
    """
    base_config = base_config or PassiveCampaignConfig()
    shards = []
    for i, name in enumerate(base_config.constellations):
        cfg = dc_replace(base_config, constellations=(name,))
        shards.append(Shard(index=i, kind="constellation", key=name,
                            payload=cfg))
    executor = ShardExecutor(workers)
    outcomes = executor.map(_fleet_campaign_worker, shards)
    return {name: outcome.result
            for name, outcome in zip(base_config.constellations,
                                     outcomes)}


def fleet_pressure_by_constellation(
        results: Dict[str, PassiveCampaignResult],
        fleet: Optional[FleetModel] = None,
        ) -> Dict[str, Dict[str, float]]:
    """Fleet-load summary per swept constellation.

    For each constellation of a :func:`passive_fleet_sweep`, reports the
    expected number of contending background devices per beacon and the
    uplink packet load a satellite absorbs per hour, evaluated at the
    constellation's mean altitude, alongside the sweep's observed trace
    count.
    """
    fleet = fleet or FleetModel()
    out: Dict[str, Dict[str, float]] = {}
    for name, result in results.items():
        constellation = next(iter(result.constellations.values()))
        altitudes = [sat.mean_altitude_km for sat in constellation]
        altitude_km = float(np.mean(altitudes))
        out[name] = {
            "mean_altitude_km": altitude_km,
            "expected_contenders": fleet.expected_contenders(
                altitude_km),
            "uplink_packets_per_hour": fleet.uplink_packets_per_hour(
                altitude_km),
            "traces": float(result.total_traces),
        }
    return out
