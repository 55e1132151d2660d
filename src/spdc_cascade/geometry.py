"""Emission geometry of the two-crystal type-II down-conversion cascade.

The pump propagates along +z; the optic axes of the two crystals lie in the
y-z plane at angles +psi and -psi to the pump.  Degenerate phase matching
(energy conservation plus vector momentum conservation, with the e-wave
index taken at its actual angle to the optic axis) is solved exactly by
one batched bracket-and-refine root solver that works on whole arrays of
problems at once:

  * along every azimuth phi of a grid together, for the internal emission
    direction of the o- or e-polarized photon of a given crystal (the
    emission-time map), and
  * in the plane of the optic axes, for the extreme opening angles that
    summarize each cone as axis direction + half-opening angle
    (`phase_match_cones`), and for the collinear cut angle.

Brackets come from the residual's sign at the pump axis and at the search
bound, or else from its first sign change on a fixed grid; all brackets are
then refined together by vectorized bisection.

Azimuth phi is measured from the x-axis to the projection of the photon
k-vector onto the x-y plane, so the cone tilts sit at phi = 90/270 deg.

Propagation times come from one group-delay model: a wave crossing a slab
of thickness L at internal polar angle u takes t = L sec(u) n_g(lambda,
theta) / c, and the pump travels along z at the cut angle to the optic axis.
It gives the on-axis times of one crystal (`propagation_times`, behind the
interference model) and the per-direction times of the four photon classes
(`emission_time_map`).  Those classes (born in crystal 1 or 2, o- or
e-polarized) are averaged over the birth position, i.e. pair creation at
the generating crystal's centre: half the pump transit to get there, then
the photon's own group delay over the remaining material.  Times are
referenced to the pump pulse entering the first crystal and reported at the
exit face of the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_NM_PER_FS
from .errors import NotPhaseMatchableError
from .materials import (
    CrystalSpec,
    PumpSpec,
    group_index,
    index_extraordinary,
    index_ordinary,
)

_U_MIN, _U_MAX = 1e-12, 0.35  # rad; internal polar-angle range of the cone search
_XTOL, _RTOL = 1e-13, 8.9e-16  # bracket width at which the cone solves stop
_CONE_GRID = np.linspace(_U_MIN, _U_MAX, 256)  # for cones that miss the pump axis
_INPLANE_GRID = np.linspace(-_U_MAX, _U_MAX, 701)  # signed polar angle toward +y
_SAMPLES_PER_CALL = 1 << 16  # bounds the memory of one grid evaluation

CLASS_NAMES = ("1e", "1o", "2e", "2o")


def optic_axis(crystal: CrystalSpec) -> np.ndarray:
    """Unit vector of the crystal's optic axis (y-z plane)."""
    return np.array(
        [0.0, crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)]
    )


def _angle_to_axis(kx, ky, kz, ax):
    dot = (ky * ax[1] + kz * ax[2]) / np.sqrt(kx * kx + ky * ky + kz * kz)
    return np.arccos(np.clip(dot, -1.0, 1.0))


def _pump_index(crystal: CrystalSpec, pump: PumpSpec) -> float:
    # pump is e-polarized and travels along z, at the cut angle to the axis
    return index_extraordinary(crystal.model, pump.center_nm, crystal.cut_angle)


def _wave_index(crystal, lam, pol, kx, ky, kz, ax):
    """Phase index of the pol-wave along (kx, ky, kz); ax is the optic axis."""
    if pol == "o":
        return index_ordinary(crystal.model, lam)
    return index_extraordinary(crystal.model, lam, _angle_to_axis(kx, ky, kz, ax))


def _unit_direction(u, phi):
    """Unit vector(s) (..., 3) at internal polar angle u and azimuth phi."""
    su = np.sin(u)
    return np.stack([su * np.cos(phi), su * np.sin(phi), np.cos(u)], axis=-1)


def _cone_residual(crystal, pump, pol, u, phi):
    """Momentum-conservation residual for emission at polar angle u, azimuth phi.

    Wavevectors are expressed in units of the degenerate photon's vacuum
    wavenumber; the pump then has magnitude 2*n_pump along z.  The residual
    is |k_pump - k_photon| minus the index required for the conjugate
    photon to be phase matched in that direction; a root means the pair
    (photon at (u, phi), conjugate at the recoil direction) conserves both
    energy and momentum.  u and phi may be arrays; they broadcast together.
    """
    lam = pump.degenerate_nm
    ax = optic_axis(crystal)
    su = np.sin(u)
    dx, dy, dz = su * np.cos(phi), su * np.sin(phi), np.cos(u)
    n = _wave_index(crystal, lam, pol, dx, dy, dz, ax)
    rx, ry, rz = -n * dx, -n * dy, 2.0 * _pump_index(crystal, pump) - n * dz
    m = np.sqrt(rx * rx + ry * ry + rz * rz)
    return m - _wave_index(crystal, lam, "e" if pol == "o" else "o", rx, ry, rz, ax)


# ---------------------------------------------------------------------------
# the batched root solver
#
# A residual f(x, rows) evaluates the problems with indices `rows` at the
# abscissae x (broadcast together); single-problem residuals ignore rows.


def _grid_brackets(f, grid, rows, failure, first_only=True):
    """Brackets at the sign changes of f(x, row) sampled on grid, for each row.

    Rows are sampled a block at a time, so memory stays bounded by
    _SAMPLES_PER_CALL.  Returns (rows, lo, hi, f_lo, f_hi) arrays with one
    entry per bracket, ordered by row, then by x; first_only keeps the
    first bracket of each row.  Raises NotPhaseMatchableError for the first
    row without a sign change, carrying that row's smallest sampled |f|;
    failure(row) names the problem in the message.
    """
    block = max(1, _SAMPLES_PER_CALL // grid.size)
    found = []
    for start in range(0, rows.size, block):
        r = rows[start:start + block, None]
        vals = np.broadcast_to(f(grid, r), (r.shape[0], grid.size))
        change = np.sign(vals[:, :-1]) != np.sign(vals[:, 1:])
        missing = ~change.any(axis=1)
        if missing.any():
            i = int(np.argmax(missing))
            residual = float(np.abs(vals[i]).min())
            raise NotPhaseMatchableError(
                f"{failure(r[i, 0])} (smallest residual {residual:.3e})", residual=residual
            )
        if first_only:
            change &= np.cumsum(change, axis=1) == 1
        i, j = np.nonzero(change)
        found.append((r[i, 0], grid[j], grid[j + 1], vals[i, j], vals[i, j + 1]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _bisect(f, rows, lo, hi, f_lo, f_hi, xtol, rtol):
    """Roots of f(x, rows) in the sign-change brackets [lo, hi], all refined
    together by bisection until each bracket is narrower than xtol + rtol*|x|.
    """
    # an exact zero at a bracket end is the root, the lower end first
    hi = np.where(f_lo == 0.0, lo, hi)
    lo = np.where(f_hi == 0.0, hi, lo)
    sign_lo = np.sign(f_lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any(hi - lo >= xtol + rtol * np.abs(mid)):
            return mid
        f_mid = f(mid, rows)
        root_above = np.sign(f_mid) == sign_lo
        lo = np.where(root_above | (f_mid == 0.0), mid, lo)
        hi = np.where(root_above, hi, mid)


def _cone_polar_angles(crystal: CrystalSpec, pump: PumpSpec, pol: str, phi) -> np.ndarray:
    """Internal polar angles of the pol-cone along each azimuth of phi (1-D).

    Raises NotPhaseMatchableError for the first azimuth the cone does not
    reach.
    """
    if pol not in ("o", "e"):
        raise ValueError("polarization must be 'o' or 'e'")

    def f(u, rows):
        return _cone_residual(crystal, pump, pol, u, phi[rows])

    rows = np.arange(phi.size)
    lo, hi = np.full(phi.size, _U_MIN), np.full(phi.size, _U_MAX)
    f_lo, f_hi = f(lo, rows), f(hi, rows)
    # where the cone encloses the pump axis one root lies in (lo, hi]; the
    # other azimuths look for the first sign change further out
    outside = np.nonzero(~((f_lo < 0.0) & (f_hi >= 0.0)))[0]
    if outside.size:
        _, lo[outside], hi[outside], f_lo[outside], f_hi[outside] = _grid_brackets(
            f, _CONE_GRID, outside,
            lambda i: f"no phase-matched {pol}-emission at azimuth {phi[i]:.4f} rad",
        )
    return _bisect(f, rows, lo, hi, f_lo, f_hi, _XTOL, _RTOL)


def _inplane_extremes(crystal, pump, pol):
    """Signed polar angles (toward +y) where the cone crosses the y-z plane.

    A single crossing (tangency) degenerates the cone to one ray there.
    """
    def f(a, _rows):
        phi = np.where(a >= 0, math.pi / 2, 3 * math.pi / 2)
        return _cone_residual(crystal, pump, pol, np.abs(a), phi)

    cut_deg = math.degrees(crystal.cut_angle)
    brackets = _grid_brackets(
        f, _INPLANE_GRID, np.zeros(1, dtype=int),
        lambda _: f"{pol}-cone not phase matchable at cut angle {cut_deg:.3f} deg",
        first_only=False,
    )
    roots = _bisect(f, *brackets, _XTOL, _RTOL)
    return float(roots.min()), float(roots.max())


@dataclass(frozen=True)
class Cone:
    """Circular-cone summary: axis direction and half-opening angle (rad)."""

    axis: np.ndarray
    half_angle: float

    @property
    def tilt(self) -> float:
        """Signed tilt of the cone axis toward +y, rad."""
        return math.atan2(self.axis[1], self.axis[2])


@dataclass(frozen=True)
class ConePair:
    """o- and e-emission cones of one crystal, inside and outside the exit face."""

    o_cone: Cone
    e_cone: Cone
    external_o: Cone
    external_e: Cone


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

    def f(psi, _rows):
        return (
            2.0 * index_extraordinary(model, lam_p, psi)
            - index_ordinary(model, lam_dc)
            - index_extraordinary(model, lam_dc, psi)
        )

    brackets = _grid_brackets(
        f, np.linspace(lo, hi, 1601), np.zeros(1, dtype=int),
        lambda _: "no collinear degenerate phase matching for any cut angle in range",
    )
    (psi,) = _bisect(f, *brackets, xtol=1e-12, rtol=4 * np.finfo(float).eps)
    return float(psi)


# ---------------------------------------------------------------------------
# propagation and emission times


def _transit_time(crystal: CrystalSpec, lam_nm: float, theta=None, sec_u=1.0):
    """Group delay L*sec(u)*n_g(lam, theta)/c (fs) of a wave crossing one slab.

    theta=None is the o-wave, otherwise the e-wave at angle theta to the
    optic axis; sec_u = 1/cos(u) lengthens the path of a ray at internal
    polar angle u.  theta and sec_u may be arrays of one shape.  An absent
    (zero-thickness) crystal takes no time.
    """
    if crystal.thickness_mm == 0.0:
        return 0.0 * sec_u  # zero, shaped like sec_u
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


def _class_time(name: str, crystal1: CrystalSpec, crystal2: CrystalSpec, pump: PumpSpec, d):
    """Average emission time (fs) of photon class `name` along the forward
    unit internal direction(s) d (..., 3), referenced to the pump entering
    crystal 1; the result has the shape d.shape[:-1].

    Classes: '1e'/'1o' born at the centre of crystal 1, '2e'/'2o' at the
    centre of crystal 2.  Photons from crystal 1 also traverse the full
    second crystal; e-polarized ones see the second axis under a different
    angle and therefore a different group index.
    """
    lam_dc = pump.degenerate_nm
    sec_u = 1.0 / d[..., 2]

    def photon(crystal):
        theta = None
        if name[1] == "e":
            theta = _angle_to_axis(d[..., 0], d[..., 1], d[..., 2], optic_axis(crystal))
        return _transit_time(crystal, lam_dc, theta, sec_u)

    tp1 = _pump_time(crystal1, pump)
    if name[0] == "1":
        return 0.5 * tp1 + 0.5 * photon(crystal1) + photon(crystal2)
    return tp1 + 0.5 * _pump_time(crystal2, pump) + 0.5 * photon(crystal2)


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

    Each class is evaluated once, at the exact phase-matched directions of
    its own cone (e-cone or o-cone of the generating crystal) along all
    azimuths together, with per-direction path lengths and e-indices.
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
    times = {}
    for name, (crystal, pol) in sources.items():
        u = _cone_polar_angles(crystal, pump, pol, phi_grid)
        times[name] = _class_time(name, crystal1, crystal2, pump, _unit_direction(u, phi_grid))
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
