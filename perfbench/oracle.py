"""Independent check of pass windows against a scalar-SGP4 look-angle oracle.

The oracle propagates a fresh scalar ``SGP4`` for the window's element
set and evaluates look angles at chosen instants.  A window passes when
the true mask crossing lies within ``time_tol_s`` of its reported rise
and set, the elevation at its reported culmination is within
``peak_tol_deg`` of its reported maximum, and the true elevation peak
inside the window lies within ``culmination_tol_s`` of its reported
culmination.  The check reads only the window's public fields, so it
holds for any pass-search implementation that meets those tolerances.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from satiot.orbits.sgp4 import SGP4
from satiot.orbits.topocentric import look_angles

#: Step of the oracle's scan of a window for its true elevation peak.
PEAK_SCAN_STEP_S = 1.0


class LookAngleOracle:
    """Elevation of one satellite over one observer, scalar SGP4."""

    def __init__(self, tle, observer, epoch) -> None:
        self._sgp4 = SGP4(tle)
        self._dt_s = float(epoch - tle.epoch)
        self._observer = observer
        self._epoch = epoch

    def elevation_deg(self, offsets_s) -> np.ndarray:
        offsets = np.atleast_1d(np.asarray(offsets_s, dtype=float))
        r, v = self._sgp4.propagate(self._dt_s + offsets)
        angles = look_angles(self._observer, r, v,
                             self._epoch.offset_jd(offsets))
        return np.atleast_1d(np.asarray(angles.elevation_deg, dtype=float))


def window_errors(oracle: LookAngleOracle, *, rise_s: float, set_s: float,
                  mask_deg: float, time_tol_s: float,
                  culmination_s: Optional[float] = None,
                  max_elevation_deg: Optional[float] = None,
                  peak_tol_deg: float = 0.0,
                  culmination_tol_s: Optional[float] = None,
                  check_rise: bool = True, check_set: bool = True,
                  ) -> List[str]:
    """Descriptions of every way the window disagrees with the oracle.

    A crossing is bracketed by the instant ``time_tol_s`` outside the
    window and the instant ``time_tol_s`` inside it, or the culmination
    (the window's midpoint when none is given) if that comes first.  The
    peak is checked only when the culmination is given: the oracle's
    elevation there against ``max_elevation_deg``, and the instant of the
    oracle's highest elevation on a :data:`PEAK_SCAN_STEP_S` scan of
    ``[rise_s, set_s]`` against ``culmination_s``.
    """
    inner = 0.5 * (rise_s + set_s) if culmination_s is None \
        else culmination_s
    errors: List[str] = []
    if check_rise:
        before, after = oracle.elevation_deg(
            [rise_s - time_tol_s, min(rise_s + time_tol_s, inner)])
        if not before <= mask_deg <= after:
            errors.append(f"rise {rise_s:.3f}s: elevation {before:.4f}.."
                          f"{after:.4f} deg does not cross the "
                          f"{mask_deg} deg mask within {time_tol_s}s")
    if check_set:
        before, after = oracle.elevation_deg(
            [max(set_s - time_tol_s, inner), set_s + time_tol_s])
        if not before >= mask_deg >= after:
            errors.append(f"set {set_s:.3f}s: elevation {before:.4f}.."
                          f"{after:.4f} deg does not cross the "
                          f"{mask_deg} deg mask within {time_tol_s}s")
    if culmination_s is None:
        return errors
    peak = float(oracle.elevation_deg([culmination_s])[0])
    if abs(peak - max_elevation_deg) > peak_tol_deg:
        errors.append(f"culmination {culmination_s:.3f}s: oracle "
                      f"elevation {peak:.4f} deg vs reported "
                      f"{max_elevation_deg:.4f} deg")
    scan = np.append(np.arange(rise_s, set_s, PEAK_SCAN_STEP_S), set_s)
    elevation = oracle.elevation_deg(scan)
    top = int(np.argmax(elevation))
    if abs(scan[top] - culmination_s) > culmination_tol_s:
        errors.append(f"culmination {culmination_s:.3f}s: the oracle's "
                      f"peak, {elevation[top]:.4f} deg, is at "
                      f"{scan[top]:.3f}s, more than {culmination_tol_s}s "
                      f"away")
    return errors
