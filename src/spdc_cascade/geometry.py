"""Emission geometry of the two-crystal type-II down-conversion cascade.

The pump propagates along +z; the optic axes of the two crystals lie in the
y-z plane at angles +psi and -psi to the pump.  Degenerate phase matching
(energy conservation plus vector momentum conservation, with the e-wave
index taken at its actual angle to the optic axis) is solved exactly by 1-D
root finding:

  * per azimuth phi, for the internal emission direction of the o- or
    e-polarized photon of a given crystal (`cone_direction`), and
  * in the plane of the optic axes, for the extreme opening angles that
    summarize each cone as axis direction + half-opening angle
    (`phase_match_cones`).

Azimuth phi is measured from the x-axis to the projection of the photon
k-vector onto the x-y plane, so the cone tilts sit at phi = 90/270 deg.

Propagation times come from one group-delay model: a wave crossing a slab
of thickness L at internal polar angle u takes t = L sec(u) n_g(lambda,
theta) / c, and the pump travels along z at the cut angle to the optic axis.
It gives the on-axis times of one crystal (`propagation_times`, behind the
interference model) and the per-direction times of the four photon classes
(`class_emission_times`, behind the emission-time map).  Those classes (born
in crystal 1 or 2, o- or e-polarized) are averaged over the birth position,
i.e. pair creation at the generating crystal's centre: half the pump transit
to get there, then the photon's own group delay over the remaining
material.  Times are referenced to the pump pulse entering the first
crystal and reported at the exit face of the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import C_NM_PER_FS
from .errors import DegenerateGeometryError, NotPhaseMatchableError
from .materials import (
    CrystalSpec,
    PumpSpec,
    group_index,
    index_extraordinary,
    index_ordinary,
)

_U_MAX = 0.35  # rad; generous internal polar-angle bound for the root search
_XTOL, _RTOL = 1e-13, 8.9e-16  # brentq tolerances of the cone solves

CLASS_NAMES = ("1e", "1o", "2e", "2o")


def optic_axis(crystal: CrystalSpec) -> np.ndarray:
    """Unit vector of the crystal's optic axis (y-z plane)."""
    return np.array(
        [0.0, crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)]
    )


def _angle_to_axis(kx, ky, kz, ax):
    dot = (ky * ax[1] + kz * ax[2]) / math.sqrt(kx * kx + ky * ky + kz * kz)
    return math.acos(max(-1.0, min(1.0, dot)))


def _pump_index(crystal: CrystalSpec, pump: PumpSpec) -> float:
    # pump is e-polarized and travels along z, at the cut angle to the axis
    return index_extraordinary(crystal.model, pump.center_nm, crystal.cut_angle)


def _wave_index(crystal, lam, pol, kx, ky, kz, ax):
    """Phase index of the pol-wave along (kx, ky, kz); ax is the optic axis."""
    if pol == "o":
        return index_ordinary(crystal.model, lam)
    return index_extraordinary(crystal.model, lam, _angle_to_axis(kx, ky, kz, ax))


def _cone_residual(crystal, pump, pol, u, phi):
    """Momentum-conservation residual for emission at polar angle u, azimuth phi.

    Wavevectors are expressed in units of the degenerate photon's vacuum
    wavenumber; the pump then has magnitude 2*n_pump along z.  The residual
    is |k_pump - k_photon| minus the index required for the conjugate
    photon to be phase matched in that direction; a root means the pair
    (photon at (u, phi), conjugate at the recoil direction) conserves both
    energy and momentum.
    """
    lam = pump.degenerate_nm
    ax = optic_axis(crystal)
    su, cu = math.sin(u), math.cos(u)
    dx, dy, dz = su * math.cos(phi), su * math.sin(phi), cu
    n = _wave_index(crystal, lam, pol, dx, dy, dz, ax)
    rx, ry, rz = -n * dx, -n * dy, 2.0 * _pump_index(crystal, pump) - n * dz
    m = math.sqrt(rx * rx + ry * ry + rz * rz)
    return m - _wave_index(crystal, lam, "e" if pol == "o" else "o", rx, ry, rz, ax)


def _grid_roots(f, grid, failure: str, xtol: float, rtol: float, first_only: bool = False) -> list:
    """Roots of f at the sign changes of its samples on grid, refined by brentq.

    Raises NotPhaseMatchableError, carrying the smallest sampled |f|, when
    no pair of neighbouring samples brackets a root.
    """
    vals = np.array([f(x) for x in grid])
    brackets = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    if brackets.size == 0:
        residual = float(np.abs(vals).min())
        raise NotPhaseMatchableError(
            f"{failure} (smallest residual {residual:.3e})", residual=residual
        )
    if first_only:
        brackets = brackets[:1]
    return [brentq(f, grid[i], grid[i + 1], xtol=xtol, rtol=rtol) for i in brackets]


def cone_direction(crystal: CrystalSpec, pump: PumpSpec, pol: str, phi: float) -> np.ndarray:
    """Internal unit emission direction of the pol-cone at azimuth phi.

    Solves the exact phase-matching condition along the ray of azimuth phi.
    Raises NotPhaseMatchableError when the cone does not reach this azimuth.
    """
    if pol not in ("o", "e"):
        raise ValueError("polarization must be 'o' or 'e'")
    f = lambda u: _cone_residual(crystal, pump, pol, u, phi)
    lo, hi = 1e-12, _U_MAX
    if f(lo) < 0.0:
        u = brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL)
    else:
        # cone does not enclose the pump axis; look for a bracket further out
        (u,) = _grid_roots(
            f, np.linspace(lo, hi, 256),
            f"no phase-matched {pol}-emission at azimuth {phi:.4f} rad",
            _XTOL, _RTOL, first_only=True,
        )
    su = math.sin(u)
    return np.array([su * math.cos(phi), su * math.sin(phi), math.cos(u)])


def _inplane_extremes(crystal, pump, pol):
    """Signed polar angles (toward +y) where the cone crosses the y-z plane.

    A single crossing (tangency) degenerates the cone to one ray there.
    """
    def f(a):
        return _cone_residual(crystal, pump, pol, abs(a), math.pi / 2 if a >= 0 else 3 * math.pi / 2)

    roots = _grid_roots(
        f, np.linspace(-_U_MAX, _U_MAX, 701),
        f"{pol}-cone not phase matchable at cut angle {math.degrees(crystal.cut_angle):.3f} deg",
        _XTOL, _RTOL,
    )
    return min(roots), max(roots)


@dataclass(frozen=True)
class Cone:
    """Circular-cone summary: axis direction and half-opening angle (rad)."""

    axis: np.ndarray
    half_angle: float

    @property
    def tilt(self) -> float:
        """Signed tilt of the cone axis toward +y, rad."""
        return math.atan2(self.axis[1], self.axis[2])

    @property
    def encloses_pump_axis(self) -> bool:
        return self.half_angle > abs(self.tilt)


@dataclass(frozen=True)
class ConePair:
    """o- and e-emission cones of one crystal, inside and outside the exit face."""

    o_cone: Cone
    e_cone: Cone
    external_o: Cone
    external_e: Cone


@dataclass(frozen=True)
class BeamSelection:
    """The two distinct output azimuths used as beams A and B.

    The experiment selects the non-overlap regions: the tops of the two
    cones at phi = 90 and 270 deg, where each direction belongs to a single
    cone of each crystal.
    """

    phi_a: float
    phi_b: float

    def __post_init__(self):
        two_pi = 2.0 * math.pi
        if math.isclose(self.phi_a % two_pi, self.phi_b % two_pi, abs_tol=1e-9):
            raise ValueError("beams A and B must be distinct directions")


def _cone_from_extremes(a_minus, a_plus):
    tilt = 0.5 * (a_plus + a_minus)
    half = 0.5 * (a_plus - a_minus)
    return Cone(axis=np.array([0.0, math.sin(tilt), math.cos(tilt)]), half_angle=half)


def phase_match_cones(crystal: CrystalSpec, pump: PumpSpec) -> ConePair:
    """Solve the degenerate type-II phase matching for both emission cones.

    The cones are summarized by their in-plane extremes (exact solutions of
    the vector phase-matching condition); external cones apply Snell
    refraction at the exit face with the ordinary index for the o-cone and
    the direction-dependent index for the e-cone.
    """
    lam = pump.degenerate_nm
    ax = optic_axis(crystal)
    cones = {}
    ext = {}
    for pol in ("o", "e"):
        a_minus, a_plus = _inplane_extremes(crystal, pump, pol)
        cones[pol] = _cone_from_extremes(a_minus, a_plus)
        refracted = []
        for a in (a_minus, a_plus):
            n = _wave_index(crystal, lam, pol, 0.0, math.sin(a), math.cos(a), ax)
            refracted.append(math.copysign(math.asin(min(1.0, n * math.sin(abs(a)))), a))
        ext[pol] = _cone_from_extremes(min(refracted), max(refracted))
    return ConePair(o_cone=cones["o"], e_cone=cones["e"], external_o=ext["o"], external_e=ext["e"])


def collinear_cut_angle(model, pump: PumpSpec, lo=math.radians(5.0), hi=math.radians(85.0)) -> float:
    """Cut angle at which degenerate collinear phase matching is exact.

    Root of 2*n_e(psi, lam_p) = n_o(lam_dc) + n_e(psi, lam_dc); at this psi
    the emission cones pass through the pump axis.
    """
    lam_p, lam_dc = pump.center_nm, pump.degenerate_nm

    def f(psi):
        return (
            2.0 * index_extraordinary(model, lam_p, psi)
            - index_ordinary(model, lam_dc)
            - index_extraordinary(model, lam_dc, psi)
        )

    (psi,) = _grid_roots(
        f, np.linspace(lo, hi, 1601),
        "no collinear degenerate phase matching for any cut angle in range",
        xtol=1e-12, rtol=4 * np.finfo(float).eps, first_only=True,  # brentq's default rtol
    )
    return psi


# ---------------------------------------------------------------------------
# propagation and emission times


def _transit_time(crystal: CrystalSpec, lam_nm: float, theta=None, sec_u=1.0) -> float:
    """Group delay L*sec(u)*n_g(lam, theta)/c (fs) of a wave crossing one slab.

    theta=None is the o-wave, otherwise the e-wave at angle theta to the
    optic axis; sec_u = 1/cos(u) lengthens the path of a ray at internal
    polar angle u.  An absent (zero-thickness) crystal takes no time.
    """
    if crystal.thickness_mm == 0.0:
        return 0.0
    ng = group_index(crystal.model, lam_nm, theta)
    return crystal.thickness_mm * 1e6 / C_NM_PER_FS * sec_u * ng


def _pump_time(crystal: CrystalSpec, pump: PumpSpec) -> float:
    # the e-polarized pump travels along z, at the cut angle to the optic axis
    return _transit_time(crystal, pump.center_nm, crystal.cut_angle)


@dataclass(frozen=True)
class PropagationTimes:
    """Propagation times through one crystal of the cascade, all in fs.

    t_p  : pump pulse (e-polarized, at the cut angle to the optic axis)
    t_o  : o-polarized down-converted photon
    t_e  : e-polarized down-converted photon in its generating crystal
    t_e2 : the same e photon crossing the other crystal of the cascade,
           whose optic axis it sees under a different angle
    """

    t_p: float
    t_o: float
    t_e: float
    t_e2: float

    def as_tuple(self):
        return (self.t_p, self.t_o, self.t_e, self.t_e2)


def propagation_times(
    crystal: CrystalSpec,
    pump: PumpSpec,
    e_angle_dc: float | None = None,
    e_angle_dc_prime: float | None = None,
) -> PropagationTimes:
    """Group-delay propagation times t = L*n_g/c through one crystal, on axis.

    e_angle_dc is the angle between the e photon's internal wavevector and
    the generating crystal's optic axis; e_angle_dc_prime the angle to the
    other crystal's axis.  Both default to the cut angle, i.e. evaluation
    on the pump axis, where the two coincide by mirror symmetry.
    """
    if e_angle_dc is None:
        e_angle_dc = crystal.cut_angle
    if e_angle_dc_prime is None:
        e_angle_dc_prime = crystal.cut_angle
    lam_dc = pump.degenerate_nm
    return PropagationTimes(
        t_p=_pump_time(crystal, pump),
        t_o=_transit_time(crystal, lam_dc),
        t_e=_transit_time(crystal, lam_dc, e_angle_dc),
        t_e2=_transit_time(crystal, lam_dc, e_angle_dc_prime),
    )


def class_emission_times(
    crystal1: CrystalSpec, crystal2: CrystalSpec, pump: PumpSpec, direction
) -> dict:
    """Average emission times (fs) of the four photon classes along one
    internal direction, referenced to the pump entering crystal 1.

    Classes: '1e'/'1o' born at the centre of crystal 1, '2e'/'2o' at the
    centre of crystal 2.  Photons from crystal 1 also traverse the full
    second crystal; e-polarized ones see the second axis under a different
    angle and therefore a different group index.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if d[2] <= 0:
        raise DegenerateGeometryError("emission direction must point forward")
    sec_u = 1.0 / d[2]
    lam_dc = pump.degenerate_nm
    th1 = _angle_to_axis(d[0], d[1], d[2], optic_axis(crystal1))
    th2 = _angle_to_axis(d[0], d[1], d[2], optic_axis(crystal2))

    tp1, tp2 = _pump_time(crystal1, pump), _pump_time(crystal2, pump)
    to1 = _transit_time(crystal1, lam_dc, None, sec_u)
    to2 = _transit_time(crystal2, lam_dc, None, sec_u)
    te1 = _transit_time(crystal1, lam_dc, th1, sec_u)
    te2 = _transit_time(crystal2, lam_dc, th2, sec_u)
    return {
        "1e": 0.5 * tp1 + 0.5 * te1 + te2,
        "1o": 0.5 * tp1 + 0.5 * to1 + to2,
        "2e": tp1 + 0.5 * tp2 + 0.5 * te2,
        "2o": tp1 + 0.5 * tp2 + 0.5 * to2,
    }


@dataclass(frozen=True)
class EmissionTimeMap:
    """Per-azimuth average emission times for the four photon classes.

    Each class is evaluated on its own phase-matched cone; `times` holds the
    values in fs with the fixed per-class delays already added.
    """

    phi_grid: np.ndarray
    times: dict

    def __post_init__(self):
        if np.any(np.diff(self.phi_grid) <= 0):
            raise ValueError("phi grid must be strictly increasing")
        for name in CLASS_NAMES:
            if name not in self.times:
                raise ValueError(f"missing class {name!r} in times")

    def with_delays(self, delays: dict) -> "EmissionTimeMap":
        """Return a copy with additional fixed per-class delays added."""
        new_times = {c: self.times[c] + delays.get(c, 0.0) for c in CLASS_NAMES}
        return EmissionTimeMap(self.phi_grid, new_times)

    def to_csv(self) -> str:
        lines = ["phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"]
        for i, phi in enumerate(self.phi_grid):
            row = [math.degrees(phi)] + [self.times[c][i] for c in CLASS_NAMES]
            lines.append(",".join(f"{v:.6g}" for v in row))
        return "\n".join(lines) + "\n"


def default_phi_grid(n: int = 256) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def emission_time_map(
    crystal1: CrystalSpec,
    crystal2: CrystalSpec,
    pump: PumpSpec,
    delays: dict | None = None,
    phi_grid=None,
) -> EmissionTimeMap:
    """Angle-resolved emission-time map of the cascade.

    For every azimuth the four classes are evaluated at the exact
    phase-matched direction of their own cone (e-cone or o-cone of the
    generating crystal), with per-direction path lengths and e-indices.
    """
    if crystal1.axis_sign == crystal2.axis_sign:
        raise ValueError("cascade crystals must have opposite axis signs")
    if not math.isclose(crystal1.cut_angle, crystal2.cut_angle, abs_tol=1e-12):
        raise ValueError("cascade crystals must have mirror-symmetric cut angles")
    delays = dict(delays or {})
    unknown = set(delays) - set(CLASS_NAMES)
    if unknown:
        raise ValueError(f"unknown photon classes in delays: {sorted(unknown)}")
    if any(v < 0 for v in delays.values()):
        raise ValueError("per-class delays must be nonnegative")
    if phi_grid is None:
        phi_grid = default_phi_grid()
    phi_grid = np.asarray(phi_grid, dtype=float)

    sources = {"1e": (crystal1, "e"), "1o": (crystal1, "o"), "2e": (crystal2, "e"), "2o": (crystal2, "o")}
    times = {c: np.empty(phi_grid.size) for c in CLASS_NAMES}
    for i, phi in enumerate(phi_grid):
        for cname, (crystal, pol) in sources.items():
            d = cone_direction(crystal, pump, pol, phi)
            times[cname][i] = class_emission_times(crystal1, crystal2, pump, d)[cname]
    return EmissionTimeMap(phi_grid, times).with_delays(delays)


def pairing_mismatch(emission_map: EmissionTimeMap) -> float:
    """Worst residual arrival-time difference of the interfering pairs.

    max over phi of max(|t_1e - t_2o|, |t_1o - t_2e|), delays included.
    The photons of a pair exit along (nearly) the same cone, so equal times
    mean which-crystal information is erased for every output direction.
    """
    if emission_map.phi_grid.size < 64:
        raise ValueError("emission map must cover at least 64 azimuth points")
    t = emission_map.times
    d_b = np.abs(t["1e"] - t["2o"])
    d_a = np.abs(t["1o"] - t["2e"])
    return float(max(d_b.max(), d_a.max()))


def mismatch_at_azimuth(emission_map: EmissionTimeMap, phi: float) -> dict:
    """Residual pair mismatches at the grid azimuth nearest to phi (fs)."""
    grid = emission_map.phi_grid
    i = int(np.argmin(np.abs((grid - phi + math.pi) % (2.0 * math.pi) - math.pi)))
    t = emission_map.times
    return {
        "phi_rad": float(grid[i]),
        "1e_2o": float(abs(t["1e"][i] - t["2o"][i])),
        "1o_2e": float(abs(t["1o"][i] - t["2e"][i])),
    }


def map_flattening_delays(undelayed: EmissionTimeMap) -> dict:
    """Constant per-class delays that best flatten the pair mismatches.

    The midrange of (t_2o - t_1e) over the grid is the minimax-optimal
    constant delay for the 1e photons, likewise (t_1o - t_2e) for 2e.
    Expects a map built with zero applied delays.
    """
    t = undelayed.times
    d_b = t["2o"] - t["1e"]
    d_a = t["1o"] - t["2e"]
    return {
        "1e": float(0.5 * (d_b.max() + d_b.min())),
        "2e": float(0.5 * (d_a.max() + d_a.min())),
    }
