"""Astrodynamics substrate: TLEs, SGP4 propagation, frames and passes."""

from .constants import (DEG2RAD, EARTH_RADIUS_KM, MU_EARTH_KM3_S2, RAD2DEG,
                        SECONDS_PER_DAY, TWO_PI, WGS72, WGS84, GravityModel)
from .doppler import doppler_rate_hz_s, doppler_shift_hz, max_doppler_shift_hz
from .frames import (GeodeticPoint, ecef_to_geodetic, ecef_velocity_from_teme,
                     geodetic_to_ecef, teme_to_ecef)
from .groundtrack import CoverageGrid, ground_track
from .j2 import J2Propagator
from .kepler import (KeplerianElements, circular_velocity_km_s,
                     mean_motion_rev_day_from_altitude, orbital_period_s,
                     semi_major_axis_km, solve_kepler)
from .passes import (ContactWindow, PassPredictor, find_passes_fleet,
                     observer_geometry)
from .sgp4 import SGP4, DecayedError, DeepSpaceError, SGP4Error
from .sgp4_batch import SGP4Batch
from .timebase import Epoch, gmst, jday, invjday
from .tle import TLE, TLEError, checksum, format_tle, parse_tle, parse_tle_file

__all__ = [
    "DEG2RAD", "RAD2DEG", "TWO_PI", "SECONDS_PER_DAY",
    "EARTH_RADIUS_KM", "MU_EARTH_KM3_S2", "GravityModel", "WGS72", "WGS84",
    "doppler_shift_hz", "doppler_rate_hz_s", "max_doppler_shift_hz",
    "GeodeticPoint", "teme_to_ecef", "ecef_to_geodetic", "geodetic_to_ecef",
    "ecef_velocity_from_teme",
    "J2Propagator",
    "CoverageGrid", "ground_track",
    "KeplerianElements", "solve_kepler", "semi_major_axis_km",
    "mean_motion_rev_day_from_altitude", "orbital_period_s",
    "circular_velocity_km_s",
    "ContactWindow", "PassPredictor", "find_passes_fleet",
    "observer_geometry",
    "SGP4", "SGP4Error", "DeepSpaceError", "DecayedError",
    "SGP4Batch",
    "Epoch", "gmst", "jday", "invjday",
    "TLE", "TLEError", "checksum", "parse_tle", "parse_tle_file", "format_tle",
]
