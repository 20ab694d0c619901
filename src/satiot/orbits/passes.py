"""Contact-window (pass) prediction for a satellite over a ground site.

This implements the paper's notion of a *theoretical contact window*: the
span during which a satellite is above the observer's elevation mask,
computed from TLEs via SGP4 — the quantity Figure 3a/4a compare effective
measurements against.

The finder samples elevation on a coarse grid (vectorized SGP4), then
refines each horizon crossing.  Two refinement modes exist:

``bisect`` (default)
    Bisection on fresh SGP4 evaluations to sub-second accuracy, plus
    one SGP4 evaluation at each parabolic culmination vertex — the
    campaign-grade mode used throughout the reproduction.
``interp``
    Closed-form linear interpolation of the coarse elevation samples
    (parabolic for the culmination).  No extra SGP4 calls, fully
    deterministic, accurate to a few seconds at 30 s grids — the
    serving-grade mode used by :mod:`satiot.serving` for high-QPS
    queries.

:func:`find_passes_fleet` is the **pass engine** every production
caller goes through, with one satellite or one observer as the
degenerate cases.  N satellites are propagated in one
:class:`~satiot.orbits.sgp4_batch.SGP4Batch` call over a shared coarse
grid, converted to ECEF once, and elevation-tested against M observers
with a conservative visibility-cone prefilter that skips the exact
elevation kernel for the ~90 % of samples where a satellite is
geometrically below an observer's horizon.  Refinement then runs in
**lockstep** over a whole block of satellites: every crossing bracket
of every (satellite, observer) row is bisected at once, one batched
SGP4 call (rows with their own instants) plus one per-row elevation
evaluation per bisection iteration, and every culmination vertex is
evaluated in one more batched call.
:meth:`satiot.runtime.EphemerisCache.find_passes_fleet` is its only
memoising front.  Results are **bit-identical** to nested per-pair
:meth:`PassPredictor.find_passes` calls: the engine evaluates exactly
the instants the scalar bisection would, with the same element-wise
kernels.  That scalar method, one SGP4 call per bisection step, is
kept as the reference the tests and benchmarks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import DEG2RAD
from .frames import GeodeticPoint, teme_to_ecef
from .sgp4 import SGP4
from .sgp4_batch import SGP4Batch
from .timebase import Epoch
from .topocentric import (LookAngles, elevation_from_ecef, look_angles,
                          sez_rotation)

__all__ = ["ContactWindow", "PassPredictor", "REFINE_MODES",
           "find_passes_fleet", "observer_geometry"]

#: Supported horizon-crossing refinement modes.
REFINE_MODES = ("bisect", "interp")

#: Conservative geocentric radius (km) below any ground observer, used
#: by the visibility-cone prefilter (WGS-84 polar radius is 6356.75 km).
_PREFILTER_RADIUS_KM = 6300.0

#: Angular slack (deg) added to the visibility cone so geodetic-vs-
#: geocentric zenith deviation (< 0.2 deg), observer altitude and
#: floating-point noise can never exclude a truly-visible sample.
_PREFILTER_SLACK_DEG = 3.0

#: Satellites are propagated and rotated to ECEF in blocks of at most
#: this many grid samples, so a catalog-scale call holds O(block) state
#: instead of O(N x T): 5 000 satellites over one day at 30 s peak at
#: 135 MiB RSS blocked, 1.6 GiB unblocked.  Rows are independent, so
#: blocking leaves every window bit-identical.
_FLEET_BLOCK_ELEMENTS = 1 << 19

#: Iteration cap of lockstep bisection, the scalar reference's cap.
_BISECT_MAX_ITER = 64


def _check_elevation_mask(min_elevation_deg: float) -> None:
    if min_elevation_deg < -5.0 or min_elevation_deg >= 90.0:
        raise ValueError("unreasonable elevation mask")


def _above_segments(above: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal above-mask runs ``[i, j)`` of a coarse boolean row."""
    if not bool(above.any()):
        return []
    edges = np.diff(above.astype(np.int8))
    starts = (np.flatnonzero(edges == 1) + 1).tolist()
    ends = (np.flatnonzero(edges == -1) + 1).tolist()
    if above[0]:
        starts.insert(0, 0)
    if above[-1]:
        ends.append(len(above))
    return list(zip(starts, ends))


@dataclass(frozen=True)
class ContactWindow:
    """One theoretical pass of a satellite over an observer.

    Times are seconds relative to the prediction epoch.
    """

    rise_s: float
    set_s: float
    culmination_s: float
    max_elevation_deg: float
    norad_id: int = 0
    clipped_start: bool = False
    clipped_end: bool = False

    def __post_init__(self) -> None:
        if self.set_s < self.rise_s:
            raise ValueError("contact window ends before it begins")

    @property
    def duration_s(self) -> float:
        return self.set_s - self.rise_s

    @property
    def midpoint_s(self) -> float:
        return 0.5 * (self.rise_s + self.set_s)

    def contains(self, t_s: float) -> bool:
        return self.rise_s <= t_s <= self.set_s

    def normalized_position(self, t_s: float) -> float:
        """Position of an instant within the window, 0 at rise, 1 at set."""
        if self.duration_s <= 0.0:
            return 0.0
        return (t_s - self.rise_s) / self.duration_s


class PassPredictor:
    """Predicts contact windows of one satellite over one observer.

    Parameters
    ----------
    propagator:
        Bound SGP4 instance for the satellite.
    observer:
        Ground-site geodetic location.
    min_elevation_deg:
        Elevation mask defining the theoretical window (paper uses the
        visibility horizon; TinyGS antennas see essentially to 0 deg).
    """

    def __init__(self, propagator: SGP4, observer: GeodeticPoint,
                 min_elevation_deg: float = 0.0) -> None:
        _check_elevation_mask(min_elevation_deg)
        self.propagator = propagator
        self.observer = observer
        self.min_elevation_deg = min_elevation_deg

    # ------------------------------------------------------------------
    def look_angles_at(self, epoch: Epoch, offsets_s) -> LookAngles:
        """Vectorized look angles at ``epoch + offsets_s`` seconds."""
        offsets = np.asarray(offsets_s, dtype=float)
        tsince = float(epoch - self.propagator.tle.epoch) + offsets
        r, v = self.propagator.propagate(tsince)
        jd = epoch.offset_jd(offsets)
        return look_angles(self.observer, r, v, jd)

    def elevation_at(self, epoch: Epoch, offset_s: float) -> float:
        return float(self.look_angles_at(epoch, float(offset_s)).elevation_deg)

    @staticmethod
    def coarse_offsets(duration_s: float,
                       coarse_step_s: float) -> np.ndarray:
        """The canonical coarse sampling grid for a prediction span."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if coarse_step_s <= 0.0:
            raise ValueError("coarse step must be positive")
        offsets = np.arange(0.0, duration_s + coarse_step_s, coarse_step_s)
        offsets = offsets[offsets <= duration_s]
        if offsets[-1] < duration_s:
            # Float-accumulation guard: ``np.arange`` can land the
            # terminal sample within one ULP below a step-divisible
            # duration (e.g. 86400/30); appending the exact duration
            # then yields a near-duplicate terminal sample whose
            # refinement bracket has zero length.  Snap instead of
            # appending when the gap is negligible versus the step.
            if duration_s - offsets[-1] <= 1.0e-9 * coarse_step_s:
                offsets[-1] = duration_s
            else:
                offsets = np.append(offsets, duration_s)
        return offsets

    # ------------------------------------------------------------------
    def find_passes(self, epoch: Epoch, duration_s: float,
                    coarse_step_s: float = 30.0,
                    refine_tol_s: float = 0.5,
                    refine: str = "bisect") -> List[ContactWindow]:
        """All contact windows within ``[epoch, epoch + duration_s]``.

        The scalar reference for :func:`find_passes_fleet`, which must
        reproduce it bit for bit.  Windows in progress at the span
        boundaries are clipped and flagged via ``clipped_start`` /
        ``clipped_end``.  ``refine`` selects the crossing refinement
        mode (see module docstring).
        """
        offsets = self.coarse_offsets(duration_s, coarse_step_s)
        elev = np.asarray(self.look_angles_at(epoch, offsets).elevation_deg)
        return self.windows_from_coarse(epoch, offsets, elev,
                                        refine_tol_s=refine_tol_s,
                                        refine=refine)

    # ------------------------------------------------------------------
    def windows_from_coarse(self, epoch: Epoch, offsets: np.ndarray,
                            elev: np.ndarray, refine_tol_s: float = 0.5,
                            refine: str = "bisect",
                            ) -> List[ContactWindow]:
        """Extract refined windows from a precomputed elevation row.

        ``elev`` must equal the observer's coarse-grid elevation at all
        above-mask samples *and their immediate neighbours*; samples
        known to be below the mask may carry any value <= the mask
        (the fleet engine's prefilter exploits this).
        """
        if refine not in REFINE_MODES:
            raise ValueError(f"unknown refine mode {refine!r}; "
                             f"choose from {REFINE_MODES}")
        windows: List[ContactWindow] = []
        n = len(offsets)
        for i, j in _above_segments(elev > self.min_elevation_deg):
            clipped_start = i == 0
            clipped_end = j == n
            if clipped_start:
                rise = offsets[i]
            elif refine == "bisect":
                rise = self._bisect_crossing(
                    epoch, offsets[i - 1], offsets[i], rising=True,
                    tol=refine_tol_s)
            else:
                rise = self._interp_crossing(
                    offsets[i - 1], offsets[i], elev[i - 1], elev[i])
            if clipped_end:
                set_ = offsets[j - 1]
            elif refine == "bisect":
                set_ = self._bisect_crossing(
                    epoch, offsets[j - 1], offsets[j], rising=False,
                    tol=refine_tol_s)
            else:
                set_ = self._interp_crossing(
                    offsets[j - 1], offsets[j], elev[j - 1], elev[j])

            if refine == "bisect":
                culm_s, max_el = self._refine_culmination(
                    epoch, offsets[i:j], elev[i:j], rise, set_)
            else:
                culm_s, max_el = self._interp_culmination(
                    offsets[i:j], elev[i:j], rise, set_)
            windows.append(ContactWindow(
                rise_s=float(rise), set_s=float(set_),
                culmination_s=float(culm_s),
                max_elevation_deg=float(max_el),
                norad_id=self.propagator.tle.norad_id,
                clipped_start=clipped_start, clipped_end=clipped_end))
        return windows

    # ------------------------------------------------------------------
    def _bisect_crossing(self, epoch: Epoch, t_lo: float, t_hi: float,
                         rising: bool, tol: float) -> float:
        """Bisect the instant where elevation crosses the mask."""
        lo, hi = float(t_lo), float(t_hi)
        for _ in range(64):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            above = self.elevation_at(epoch, mid) > self.min_elevation_deg
            if above == rising:
                # rising: above at mid means crossing is earlier.
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def _interp_crossing(self, t_out: float, t_in: float,
                         e_out: float, e_in: float) -> float:
        """Linear interpolation of the mask crossing (no SGP4 calls).

        ``(t_out, e_out)`` is the below-mask grid sample, ``(t_in,
        e_in)`` the above-mask one; by construction ``e_in > mask >=
        e_out`` so the denominator cannot vanish.
        """
        t_out, t_in = float(t_out), float(t_in)
        e_out, e_in = float(e_out), float(e_in)
        frac = (self.min_elevation_deg - e_out) / (e_in - e_out)
        return t_out + frac * (t_in - t_out)

    def _refine_culmination(self, epoch: Epoch, seg_offsets: np.ndarray,
                            seg_elev: np.ndarray, rise: float,
                            set_: float) -> tuple:
        """Parabolic refinement of the elevation maximum inside a segment."""
        k = int(np.argmax(seg_elev))
        t_best = float(seg_offsets[k])
        el_best = float(seg_elev[k])
        if 0 < k < len(seg_offsets) - 1:
            t0, t1, t2 = seg_offsets[k - 1:k + 2]
            e0, e1, e2 = seg_elev[k - 1:k + 2]
            denom = (e0 - 2.0 * e1 + e2)
            if abs(denom) > 1e-12:
                t_para = float(t1 + 0.5 * (t1 - t0) * (e0 - e2) / denom)
                t_para = min(max(t_para, float(seg_offsets[0])),
                             float(seg_offsets[-1]))
                el_para = self.elevation_at(epoch, t_para)
                if el_para > el_best:
                    t_best, el_best = t_para, el_para
        t_best = min(max(t_best, rise), set_)
        return t_best, el_best

    def _interp_culmination(self, seg_offsets: np.ndarray,
                            seg_elev: np.ndarray, rise: float,
                            set_: float) -> tuple:
        """Closed-form parabolic culmination from the grid samples only."""
        k = int(np.argmax(seg_elev))
        t_best = float(seg_offsets[k])
        el_best = float(seg_elev[k])
        if 0 < k < len(seg_offsets) - 1:
            t0, t1, t2 = seg_offsets[k - 1:k + 2]
            e0, e1, e2 = seg_elev[k - 1:k + 2]
            denom = (e0 - 2.0 * e1 + e2)
            if abs(denom) > 1e-12:
                t_para = float(t1 + 0.5 * (t1 - t0) * (e0 - e2) / denom)
                t_para = min(max(t_para, float(t0)), float(t2))
                el_para = float(e1 - 0.125 * (e0 - e2) ** 2 / denom)
                if el_para > el_best:
                    t_best, el_best = t_para, el_para
        t_best = min(max(t_best, rise), set_)
        return t_best, el_best


# ----------------------------------------------------------------------
# Fleet pass engine
# ----------------------------------------------------------------------
def _visibility_prefilter(sites: np.ndarray,
                          r_ecef: np.ndarray,
                          min_elevation_deg: float) -> np.ndarray:
    """Conservative per-(observer, sample) candidate mask ``(M, N)``.

    ``True`` wherever the satellite *might* be above the observer's
    elevation mask.  Uses the spherical central-angle bound ``lambda =
    arccos((R/r) cos m) - m`` with a deliberately small Earth radius and
    a 3-degree slack, so a truly above-mask sample can never be
    excluded (soundness is load-bearing: the pass finder skips the
    exact elevation kernel outside the mask).
    """
    r_norm = np.sqrt(np.sum(r_ecef * r_ecef, axis=-1))       # (N,)
    u_sat = r_ecef / r_norm[..., None]                        # (N, 3)
    m_rad = min_elevation_deg * DEG2RAD
    ratio = np.clip(_PREFILTER_RADIUS_KM / r_norm, -1.0, 1.0)
    lam = (np.arccos(np.clip(ratio * np.cos(m_rad), -1.0, 1.0))
           - m_rad + _PREFILTER_SLACK_DEG * DEG2RAD)          # (N,)
    cos_lam = np.cos(np.clip(lam, 0.0, np.pi))

    u_obs = sites / np.sqrt(np.sum(sites * sites,
                                   axis=-1, keepdims=True))
    cos_psi = u_obs @ u_sat.T                                 # (M, N)
    cand = cos_psi >= cos_lam[None, :]
    # Dilate by one grid step each way so crossing interpolation always
    # sees exact below-mask neighbours (copy first: in-place |= on
    # overlapping views would cascade).
    dilated = cand.copy()
    dilated[:, :-1] |= cand[:, 1:]
    dilated[:, 1:] |= cand[:, :-1]
    return dilated


def observer_geometry(observers: Sequence[GeodeticPoint],
                      ) -> List[tuple]:
    """Precompute ``(site_ecef, sez_rotation)`` per observer.

    :func:`find_passes_fleet` computes this once per call and reuses it
    across every satellite of the fleet.
    """
    return [(obs.ecef(),
             sez_rotation(obs.latitude_rad, obs.longitude_rad))
            for obs in observers]


def find_passes_fleet(propagators: Sequence[SGP4],
                      observers: Sequence[GeodeticPoint],
                      epoch: Epoch, duration_s: float,
                      coarse_step_s: float = 30.0,
                      min_elevation_deg: float = 0.0,
                      refine_tol_s: float = 0.5,
                      refine: str = "bisect",
                      positions: Optional[np.ndarray] = None,
                      ) -> List[List[List[ContactWindow]]]:
    """Contact windows of N satellites over M observers at once.

    The fleet is propagated by :class:`SGP4Batch` over one shared
    coarse grid, in blocks of satellites (any constellation of the
    study fits in one), GMST and the TEME→ECEF rotation are evaluated
    **once per block** instead of once per satellite, and observer
    geometry (:func:`observer_geometry`) is computed once and reused by
    every satellite.  Every crossing of a block is then refined in
    lockstep (see :func:`_block_windows`).

    ``positions`` is the hook through which
    :meth:`satiot.runtime.EphemerisCache.find_passes_fleet` supplies a
    cached ``(N, T, 3)`` TEME position stack on the
    :meth:`PassPredictor.coarse_offsets` grid instead of propagating;
    row ``n`` must equal what ``propagators[n].propagate`` would give.

    Returns ``results[n][m]``: the window list of satellite ``n`` over
    observer ``m``, **bit-identical** to the nested serial
    ``PassPredictor(propagators[n], observers[m], ...).find_passes(...)``
    with the same parameters.
    """
    propagators = list(propagators)
    observers = list(observers)
    if not propagators:
        return []
    if not observers:
        return [[] for _ in propagators]
    if refine not in REFINE_MODES:
        raise ValueError(f"unknown refine mode {refine!r}; "
                         f"choose from {REFINE_MODES}")
    _check_elevation_mask(min_elevation_deg)
    offsets = PassPredictor.coarse_offsets(duration_s, coarse_step_s)
    if positions is not None and \
            np.shape(positions) != (len(propagators), offsets.size, 3):
        raise ValueError(f"fleet grid must have shape (N, T, 3), "
                         f"got {np.shape(positions)}")
    jd = epoch.offset_jd(offsets)
    geometry = observer_geometry(observers)
    sites = np.stack([site for site, _ in geometry])
    rots = np.stack([rot for _, rot in geometry])
    block = max(1, _FLEET_BLOCK_ELEMENTS // offsets.size)
    results: List[List[List[ContactWindow]]] = []
    for lo in range(0, len(propagators), block):
        batch = SGP4Batch.from_propagators(propagators[lo:lo + block])
        if positions is None:
            r, _ = batch.propagate_offsets(epoch, offsets)
        else:
            r = positions[lo:lo + block]
        # One GMST + one rotation for the whole block: the jd row
        # broadcasts across satellites, so the trigonometry runs once.
        # It runs on a private copy freed straight after: glibc then
        # serves later grid-sized buffers from reused heap, where
        # converting the caller's stack in place measured 4-9 % more
        # peak RSS on a long-lived twin.
        r_ecef_block = teme_to_ecef(np.array(r, dtype=float), jd)
        del r
        results += _block_windows(batch, r_ecef_block, sites, rots, epoch,
                                  offsets, min_elevation_deg,
                                  refine_tol_s, refine)
    return results


def _block_windows(batch: SGP4Batch, r_ecef_block: np.ndarray,
                   sites: np.ndarray, rots: np.ndarray, epoch: Epoch,
                   offsets: np.ndarray, mask: float, tol: float,
                   refine: str) -> List[List[List[ContactWindow]]]:
    """Windows of one satellite block over every observer.

    1. *Collect*: the above-mask segments of every (satellite,
       observer) coarse row, in the scalar reference's order
       (satellite-major, then observer, then segment).  Each unclipped
       segment end is a crossing bracket; each segment's grid maximum
       yields a parabolic culmination vertex.
    2. *Refine*: ``bisect`` bisects every crossing of the block in
       lockstep (:func:`_bisect_lockstep`) and evaluates every vertex in
       one batched call; ``interp`` uses the closed forms on the grid
       samples.
    3. *Assemble* the windows in collection order.

    Every step repeats the scalar :meth:`PassPredictor.windows_from_coarse`
    arithmetic element for element, so the windows are bit-identical.
    """
    n_sats, n_obs, n_t = len(r_ecef_block), len(sites), offsets.size
    # (sat, obs, clipped_start, clipped_end) of each segment.
    segments: List[Tuple[int, int, bool, bool]] = []
    culms: List[tuple] = []              # see _culmination_vertex
    ends: List[float] = []               # rise and set of each segment
    # Crossing brackets [offsets[k], offsets[k + 1]], in segment order.
    cross_pos: List[int] = []            # index into ``ends``
    cross_row: List[Tuple[int, int, int, bool]] = []  # sat, obs, k, rising
    cross_elev: List[Tuple[float, float]] = []        # elev[k], elev[k+1]
    for sat, r_ecef in enumerate(r_ecef_block):
        cand = _visibility_prefilter(sites, r_ecef, mask)
        for obs in range(n_obs):
            elev = _coarse_elevation(r_ecef, cand[obs], sites[obs],
                                     rots[obs])
            for i, j in _above_segments(elev > mask):
                for k, rising, clipped, edge in (
                        (i - 1, True, i == 0, i),
                        (j - 1, False, j == n_t, j - 1)):
                    if clipped:
                        ends.append(offsets[edge])
                    else:
                        cross_pos.append(len(ends))
                        cross_row.append((sat, obs, k, rising))
                        cross_elev.append((elev[k], elev[k + 1]))
                        ends.append(0.0)
                segments.append((sat, obs, i == 0, j == n_t))
                culms.append(_culmination_vertex(offsets[i:j], elev[i:j],
                                                 refine))
    deltas = np.array([float(epoch - tle.epoch) for tle in batch.tles])
    times = np.array(ends, dtype=float)
    if cross_pos:
        sat, obs, k, rising = (np.array(col) for col in zip(*cross_row))
        lo, hi = offsets[k], offsets[k + 1]
        if refine == "bisect":
            times[cross_pos] = _bisect_lockstep(
                batch.subset(sat), deltas[sat], sites[obs], rots[obs],
                epoch, lo, hi, rising, mask, tol)
        else:
            e_lo, e_hi = np.array(cross_elev).T
            times[cross_pos] = _interp_crossings(lo, hi, e_lo, e_hi, mask)

    vertex = [s for s, culm in enumerate(culms) if culm[3] is None
              and culm[2] is not None]
    if vertex:
        # bisect: the scalar path's one SGP4 evaluation per vertex, all
        # vertices of the block in one call.
        sat, obs = np.array([segments[s][:2] for s in vertex]).T
        el = _elevations_at(batch.subset(sat), deltas[sat],
                            np.array([culms[s][2] for s in vertex]),
                            sites[obs], rots[obs], epoch)
        for s, el_para in zip(vertex, el.tolist()):
            culms[s] = culms[s][:3] + (el_para,)

    results: List[List[List[ContactWindow]]] = [
        [[] for _ in range(n_obs)] for _ in range(n_sats)]
    for s, ((sat, obs, clipped_start, clipped_end),
            (t_best, el_best, t_para, el_para)) in enumerate(
                zip(segments, culms)):
        rise, set_ = times[2 * s], times[2 * s + 1]
        if t_para is not None and el_para > el_best:
            t_best, el_best = t_para, el_para
        t_best = min(max(t_best, rise), set_)
        results[sat][obs].append(ContactWindow(
            rise_s=float(rise), set_s=float(set_),
            culmination_s=float(t_best), max_elevation_deg=float(el_best),
            norad_id=int(batch.norad_ids[sat]),
            clipped_start=clipped_start, clipped_end=clipped_end))
    return results


def _coarse_elevation(r_ecef: np.ndarray, cand: np.ndarray,
                      site: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """One observer's coarse elevation row of one satellite track."""
    idx = np.nonzero(cand)[0]
    if idx.size == cand.size:
        return np.asarray(elevation_from_ecef(None, r_ecef, site, rot))
    # Samples outside the candidate set are provably below the mask;
    # any below-mask filler keeps the window extraction bit-identical
    # (crossing neighbours are inside the dilated candidate set, hence
    # exact).
    elev = np.full(cand.size, -90.0)
    if idx.size:
        elev[idx] = elevation_from_ecef(None, r_ecef[idx], site, rot)
    return elev


def _culmination_vertex(seg_offsets: np.ndarray, seg_elev: np.ndarray,
                        refine: str) -> tuple:
    """``(t_best, el_best, t_para, el_para)`` of one above-mask segment.

    The grid maximum and the parabolic vertex through it and its
    neighbours (``t_para`` is ``None`` without one), exactly as the
    scalar reference's culmination refinement computes them
    (``bisect``: ``el_para`` is ``None``, left to the batched SGP4
    evaluation; ``interp``: closed form).
    """
    k = int(np.argmax(seg_elev))
    t_best, el_best = float(seg_offsets[k]), float(seg_elev[k])
    if not 0 < k < len(seg_offsets) - 1:
        return t_best, el_best, None, None
    t0, t1, t2 = seg_offsets[k - 1:k + 2]
    e0, e1, e2 = seg_elev[k - 1:k + 2]
    denom = (e0 - 2.0 * e1 + e2)
    if not abs(denom) > 1e-12:
        return t_best, el_best, None, None
    t_para = float(t1 + 0.5 * (t1 - t0) * (e0 - e2) / denom)
    if refine == "bisect":
        return (t_best, el_best, min(max(t_para, float(seg_offsets[0])),
                                     float(seg_offsets[-1])), None)
    return (t_best, el_best, min(max(t_para, float(t0)), float(t2)),
            float(e1 - 0.125 * (e0 - e2) ** 2 / denom))


def _interp_crossings(lo: np.ndarray, hi: np.ndarray, e_lo: np.ndarray,
                      e_hi: np.ndarray, mask: float) -> np.ndarray:
    """Linear-interpolation crossings of brackets ``[lo, hi]``: the
    :meth:`PassPredictor._interp_crossing` expression, vectorized, with
    the bracket in grid order as the scalar path passes it."""
    return lo + (mask - e_lo) / (e_hi - e_lo) * (hi - lo)


def _bisect_lockstep(batch: SGP4Batch, deltas: np.ndarray,
                     sites: np.ndarray, rots: np.ndarray, epoch: Epoch,
                     lo: np.ndarray, hi: np.ndarray, rising: np.ndarray,
                     mask: float, tol: float) -> np.ndarray:
    """Bisect K crossing brackets at once, one SGP4 call per iteration.

    Row ``k`` follows the scalar reference's bisection step for step:
    it stays active while ``not hi - lo <= tol`` (at most
    :data:`_BISECT_MAX_ITER` iterations), is evaluated only at the
    midpoints the scalar loop would evaluate, and converged rows are
    never propagated again.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    for _ in range(_BISECT_MAX_ITER):
        active = np.flatnonzero(~(hi - lo <= tol))
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        above = _elevations_at(batch.subset(active), deltas[active], mid,
                               sites[active], rots[active], epoch) > mask
        # rising: above at mid means the crossing is earlier.
        earlier = above == rising[active]
        hi[active[earlier]] = mid[earlier]
        lo[active[~earlier]] = mid[~earlier]
    return 0.5 * (lo + hi)


def _elevations_at(batch: SGP4Batch, deltas: np.ndarray, t: np.ndarray,
                   sites: np.ndarray, rots: np.ndarray,
                   epoch: Epoch) -> np.ndarray:
    """Elevation of row ``k`` at ``epoch + t[k]`` from observer ``k``.

    The scalar reference's single-instant chain — propagate at
    ``deltas[k] + t[k]`` seconds since the element epoch, rotate at
    ``epoch.offset_jd(t[k])``, project — one row per instant.
    """
    r, _ = batch.propagate((deltas + t)[:, None])
    r_ecef = teme_to_ecef(r[:, 0], epoch.offset_jd(t))
    return elevation_from_ecef(None, r_ecef, sites, rots)
