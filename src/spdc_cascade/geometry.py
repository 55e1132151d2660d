"""Emission geometry of the two-crystal type-II down-conversion cascade.

The pump propagates along +z; the optic axes of the two crystals lie in the
y-z plane at angles +psi and -psi to the pump.  Degenerate phase matching
(energy conservation plus vector momentum conservation, with the e-wave
index taken at its actual angle to the optic axis) is solved exactly, for
the e-cone once per design, by one root solver: batched over whole arrays
of problems along every azimuth phi of a grid (the emission-time map,
`_secant_roots`), and in Python floats (`_secant_root`, the same steps)
for the extremes that summarize a cone as axis tilt + half-opening angle
in the plane of the optic axes (`phase_match_cones`) and for the
collinear cut angle.  Each e photon's o partner leaves along the recoil
r = k_p z - n d (`_cone_residual`) at azimuth phi + pi, so the o-cone at
sine v is read off the e root at -v: u_o = atan2(n sin u_e,
k_p - n cos u_e), n the e photon's index.  No search bound applies to this
unsearched angle, and in a negative-uniaxial crystal none is needed:
n <= n_o gives sin u_o = (n/n_o) sin u_e <= sin u_e, and k_p > n keeps u_o
below pi/2.  So a positive-uniaxial material whose o-cone alone opens
beyond the bound is mapped, not refused.

Every solve runs seed -> secant -> verify -> bisect.  Each problem has a
sign-change bracket and a start pair.  Along every azimuth a cone's root
is bracketed by the pump axis and the search bound, so the cone must
enclose the pump axis (cut angle above the collinear one), and it starts
from the circle through the cone's in-plane extremes; the in-plane
extremes and the collinear cut angle take the sign changes of their
residual on a fixed grid and start from those brackets' ends.  Each
problem takes a few secant steps, a batch's all together, and a root is
accepted only where the residual changes sign within half the tolerance
of it, inside its bracket.  The rest, a float solve's too, are bisected
in their brackets by `_refine_brackets`; on the reference pump only cut
angles less than 0.1 deg above the collinear one send any there.  The
crystals are mirror images, so crystal 2's cone at azimuth phi is
crystal 1's at -phi: the map solves along the azimuths on crystal 1,
and the in-plane extremes are solved for the +psi crystal and mirrored
for crystal 2, (a-, a+) -> (-a+, -a-).  `_inplane_solve` caches the last
design's solve only, so the cone summaries of both crystals and the
map's seeds share it.
The residual of a solve is built once (`_cone_residual`) from scalar
products of the emission direction with the pump and the optic axis; the
optic axis lies in the y-z plane, so an azimuth enters only through
sin(phi), and a solver step costs sin u, cos u and square roots.  The map
therefore solves and times each distinct sin(phi) once: on an n-point
uniform grid, phi and pi - phi share a sine and the mirror row -sin(phi)
repeats the grid's sines, so 4 | n leaves n/2 + 1 of them, the distinct
|sin(phi)| mirrored to +-: the o angle at v reads the lane at -v.  Sines
within _SIN_TOL of each other count as one.

A numpy call costs a fixed overhead about that of a few hundred lanes of
arithmetic, so a design's solves are arranged to follow their work, not
their number of calls.  The in-plane extremes and the collinear cut angle
have one or two grid brackets by construction: they are solved in Python
floats, each residual written once and evaluated with numpy on its grid
and with `_FLOATS` in the steps.  What does not change with the design is
computed at import, the trig of _INPLANE_GRID and _CUT_GRID; what does not
change with the lanes once per solve, the Sellmeier reads.  The map
evaluates its bracket ends, its start pair and its verification points
each as one (2, lanes) array, and its roots' cos u and sin u serve both the
recoil and `_cone_times`.  Each value is computed by the same operations
in the same order as by one call per array, so it keeps its bits; the
float solves do so too where numpy's float64 sin and cos round as math's
do, and elsewhere stay within the solve's tolerance of the array path.

Azimuth phi is measured from the x-axis to the projection of the photon
k-vector onto the x-y plane, so the cone tilts sit at phi = 90/270 deg.

Propagation times come from one group-delay model: a wave crossing a slab
of thickness L at internal polar angle u takes t = L sec(u) n_g(lambda,
theta) / c, and the pump travels along z at the cut angle to the optic axis.
Its `PropagationTimes` (t_p, t_o, t_e, t_e2) hold one crystal's times, all
built by `_cone_times`: arrays along the cones (behind `emission_time_map`)
and floats on the pump axis (`propagation_times`, behind the interference
model).  One composition (`_class_times`) turns either into the times of the
four photon classes (born in crystal 1 or 2, o- or e-polarized), averaged
over the birth position, i.e. pair creation at the generating crystal's
centre: half the pump transit to get there, then the photon's own group
delay over the remaining material.  It holds for a mirror pair of equal
crystals, the only cascade the map accepts.  Times are referenced to the
pump pulse entering the first crystal and reported at the exit face of the
second.  As in the solve, a direction enters through u and sin(phi) alone:
its path takes sec(u), and an e photon's angle to an optic axis is the
arccos of the residual's d.a, on the pump axis (u = 0) arccos(cos psi).
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from .constants import C_NM_PER_FS
from .errors import NotPhaseMatchableError
from .materials import (
    CrystalSpec,
    PumpSpec,
    _ellipse_index,
    group_index,
    index_extraordinary,
    index_ordinary,
    index_principal_e,
    squared_principal_indices,
)
from .numeric import _csv, _fixed

_U_MIN, _U_MAX = 1e-12, 0.35  # rad; internal polar-angle range of the cone search
_XTOL, _RTOL = 1e-13, 8.9e-16  # bracket width at which the cone solves stop
_SECANT_STEPS = 4  # from a start pair, before the verification of _secant_roots
# the map solves and times azimuths whose sines lie this close as one
# (`_sine_lanes`): the sines of phi and pi - phi on a uniform grid differ by
# a few ulp, and its distinct sines by at least 4.6e-9 up to 65 536
# azimuths.  A cone's |du/d sin(phi)| is about its tilt, below 0.08 on
# 0.5-3 mm BBO cut at 42.93-50 deg, so a merged sine moves a root by less
# than 1.4e-16 rad, a thousandth of _XTOL
_SIN_TOL = 8 * np.finfo(float).eps  # 1.8e-15
_INPLANE_GRID = np.linspace(-_U_MAX, _U_MAX, 701)  # signed polar angle toward +y
_INPLANE_TRIG = np.cos(_INPLANE_GRID), np.sin(_INPLANE_GRID)
_CUT_GRID = np.linspace(math.radians(5.0), math.radians(85.0), 1601)  # collinear search
_CUT_SQUARES = tuple(v * v for v in (np.cos(_CUT_GRID), np.sin(_CUT_GRID)))  # cos^2, sin^2


def _float_sqrt(x):
    """math.sqrt, but nan below zero (and for nan) as numpy's square root gives."""
    return math.sqrt(x) if x >= 0.0 else math.nan


# the math of the scalar solves (`_secant_root`), one problem in Python
# floats: math's cos and sin, the square root of `_float_sqrt`, and
# numpy's arctan2, whose last bit can differ from math.atan2's
_FLOATS = types.SimpleNamespace(cos=math.cos, sin=math.sin, sqrt=_float_sqrt, arctan2=np.arctan2)

CLASS_NAMES = ("1e", "1o", "2e", "2o")
# the interfering (e class, o class) pairs: one crystal's e-cone overlaps the
# other's o-cone
PAIRS = (("1e", "2o"), ("2e", "1o"))
MIN_PHI_POINTS = 64  # azimuths a map needs for its worst pair mismatch


def optic_axis(crystal: CrystalSpec) -> tuple[float, float]:
    """Components (a_y, a_z) of the crystal's unit optic axis, in the y-z plane."""
    return crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)


def _cone_residual(crystal: CrystalSpec, pump: PumpSpec):
    """The e-cone's residual(u, sin_phi) and its o partner's polar angle recoil(u, sin_phi).

    Wavevectors are in units of the degenerate photon's vacuum wavenumber,
    so the pump is k_p = 2*n_pump along z.  The e photon leaves at polar
    angle u, azimuth phi, along the unit vector d = (sin u cos phi,
    sin u sin phi, cos u) with phase index n; its o partner takes the
    recoil r = k_p z - n d, at polar angle atan2(n sin u, k_p - n cos u).
    The residual is |r| - n_o; a root means the pair conserves both energy
    and momentum.

    Only scalar products of d enter: the optic axis a = (0, a_y, a_z) lies
    in the y-z plane, so d.a = a_y sin(phi) sin(u) + a_z cos(u) and phi
    enters through sin(phi) alone; |r|^2 = k_p^2 - 2 k_p n cos(u) + n^2.
    The e-index follows from d's squared cosine to the axis,
    1/n^2 = 1/n_e^2 + (1/n_o^2 - 1/n_e^2) cos^2(theta), so a step costs
    sin u, cos u and square roots.  Everything that does not depend on
    (u, phi) is computed here, once per solve.  u and sin_phi may be
    arrays; they broadcast together.  Both functions evaluate with xp,
    numpy or `_FLOATS` for one problem in Python floats, and take
    trig=(cos u, sin u) where the caller has it: a fixed grid's, or the
    map's roots', which `_cone_times` reads again.
    """
    lam = pump.degenerate_nm
    n_o = index_ordinary(crystal.model, lam)
    n_e = index_principal_e(crystal.model, lam)
    inv_ne2 = 1.0 / (n_e * n_e)
    excess = 1.0 / (n_o * n_o) - inv_ne2  # 1/n_o^2 - 1/n_e^2
    a_y, a_z = optic_axis(crystal)
    # the e-polarized pump travels along z, at the cut angle to the optic axis
    k_p = 2.0 * float(index_extraordinary(crystal.model, pump.center_nm, crystal.cut_angle))
    k_p2, two_k_p = k_p * k_p, 2.0 * k_p

    def e_index(u, sin_phi, xp, trig):  # the e photon's index along (u, phi), cos u and sin u
        cu, su = (xp.cos(u), xp.sin(u)) if trig is None else trig
        cos_d = a_y * sin_phi * su + a_z * cu
        return 1.0 / xp.sqrt(inv_ne2 + excess * (cos_d * cos_d)), cu, su

    def residual(u, sin_phi, xp=np, trig=None):
        n, cu, _ = e_index(u, sin_phi, xp, trig)
        return xp.sqrt(k_p2 - two_k_p * n * cu + n * n) - n_o

    def recoil(u, sin_phi, xp=np, trig=None):
        n, cu, su = e_index(u, sin_phi, xp, trig)
        return xp.arctan2(n * su, k_p - n * cu)

    return residual, recoil


# ---------------------------------------------------------------------------
# the root solver: batched, and its steps for one problem in Python floats


def _grid_brackets(vals, grid, failure):
    """Brackets at every sign change of vals, a function sampled on grid, in
    order of x.

    Returns (lo, hi, f_lo, f_hi) arrays with one entry per bracket.  Raises
    NotPhaseMatchableError, carrying the smallest sampled |f|, when f does
    not change sign on the grid; failure names the problem in the message.
    """
    sign = np.sign(vals)
    (j,) = np.nonzero(sign[:-1] != sign[1:])
    if j.size == 0:
        residual = float(np.abs(vals).min())
        raise NotPhaseMatchableError(f"{failure} (smallest residual {residual:.3e})", residual=residual)
    return grid[j], grid[j + 1], vals[j], vals[j + 1]


def _refine_brackets(f, lo, hi, f_lo, f_hi, xtol, rtol, args=()):
    """Roots of f(x, *args) in the sign-change brackets [lo, hi], all bisected
    together until each bracket is narrower than xtol + rtol*|x|; a root is
    the midpoint of its last bracket, within (xtol + rtol*|x|)/2 of a root.

    The fallback of `_secant_roots` (and, on one bracket of floats, of
    `_secant_root`), for the lanes whose secant steps it cannot verify: a
    few thousand at most, so every step evaluates every lane and a closed
    bracket stays where it is.  A zero at a bracket end
    is the root, the lower end first, and a midpoint where f is exactly
    zero closes the bracket on it.  args are per-bracket arrays handed to
    f with x.
    """
    b = np.where(f_lo == 0.0, lo, hi)  # a zero end closes the bracket on it
    a = np.where(f_hi == 0.0, b, lo)
    sign_a = np.sign(f_lo)
    while True:
        x = 0.5 * (a + b)
        wide = np.abs(b - a) >= xtol + rtol * np.abs(x)
        if not wide.any():
            return x
        fx = f(x, *args)
        same = np.sign(fx) == sign_a  # the root lies in [x, b]
        a = np.where(wide & (same | (fx == 0.0)), x, a)
        b = np.where(wide & ~same, x, b)


_PLUS_MINUS = np.array([[-1.0], [1.0]])  # stacks x - delta over x + delta


def _secant_roots(f, lo, hi, f_lo, f_hi, xtol, rtol, args=(), start=None):
    """Roots of f(x, *args) in the sign-change brackets [lo, hi], each within
    (xtol + rtol*|x|)/2 of a root, the bound `_refine_brackets` meets.

    Every lane takes _SECANT_STEPS secant steps from its start pair (x0, x1),
    the bracket ends by default, each step clipped into the lane's bracket.
    A lane is accepted when f changes sign (or is exactly zero) across
    x -+ delta, delta = (xtol + rtol*|x|)/2, with both points inside the
    bracket: a root then lies within delta of x.  Every other lane, and one
    with an exact zero at a bracket end (the root), is bisected in its
    bracket by `_refine_brackets`.  The steps converge superlinearly from a
    close start: on the reference design the cones' in-plane circle (up to
    1.1 mrad off) leaves no lane to the bisection.  f takes the start pair
    and the two verification points each stacked as one (2, lanes) array,
    with args broadcast against them.  `_secant_root` takes the same steps
    for one problem in Python floats and falls back to the same bisection.
    """
    if start is None:
        x0, x1, f0, f1 = lo, hi, f_lo, f_hi
    else:
        x0, x1 = start
        f0, f1 = f(np.array(start), *args)
    # f1 == f0 (a stalled lane) leaves no step; it stays where it is.  The
    # steps evaluate f only inside the brackets, whose ends the caller
    # evaluated, and the verification below runs outside this errstate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(_SECANT_STEPS):
            if step:
                x0, f0, x1, f1 = x1, f1, x, f(x, *args)
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
            x = np.minimum(np.maximum(np.where(np.isfinite(x), x, x1), lo), hi)
    sides = x + _PLUS_MINUS * (0.5 * (xtol + rtol * np.abs(x)))  # x - delta, x + delta
    sign = np.sign(f(sides, *args))
    verified = (
        (sign[0] * sign[1] <= 0.0) & (sides[0] >= lo) & (sides[1] <= hi) & (f_lo != 0.0) & (f_hi != 0.0)
    )
    if not verified.all():
        (j,) = np.nonzero(~verified)
        x[j] = _refine_brackets(f, lo[j], hi[j], f_lo[j], f_hi[j], xtol, rtol,
                                args=tuple(v[j] for v in args))
    return x


def _secant_root(f, lo, hi, f_lo, f_hi, xtol, rtol):
    """`_secant_roots` for one bracket in Python floats, from its ends.

    The same steps, clipping and verification, with the same tolerances:
    for the collinear cut angle and the in-plane extremes, whose grids
    leave one or two brackets, where numpy's per-call cost would exceed
    the work.  f(x) takes and returns a float; a stalled or non-finite step
    stays where it is, as numpy's inf or nan step does.  A root left
    unverified is bisected by `_refine_brackets` on the float bracket, in
    0-d arithmetic at numpy's per-call cost; over BBO pumps of 300-520 nm
    only in-plane solves within about 1e-12 deg of the collinear cut reach
    it, where a root meets the grid's node at u = 0.
    """
    x0, x1, f0, f1 = lo, hi, f_lo, f_hi
    for step in range(_SECANT_STEPS):
        if step:
            x0, f0, x1, f1 = x1, f1, x, f(x)
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else x1
        x = min(max(x if math.isfinite(x) else x1, lo), hi)
    delta = 0.5 * (xtol + rtol * abs(x))
    below, above = x - delta, x + delta
    if below >= lo and above <= hi and f_lo != 0.0 and f_hi != 0.0:
        f_below, f_above = f(below), f(above)
        if f_below <= 0.0 <= f_above or f_above <= 0.0 <= f_below:
            return x
    return float(_refine_brackets(f, lo, hi, f_lo, f_hi, xtol, rtol))


def _sine_lanes(sin_phi):
    """The lanes of the map's rows sin(phi) and -sin(phi): their sines,
    ascending, and each row's positions among them, shape (2, sin_phi.size).

    The lanes are the distinct |sin(phi)| mirrored to +-, zero once, so
    lane -1 - i holds minus lane i exactly and an azimuth's two positions
    are such partners.  Sorted magnitudes at most _SIN_TOL above the
    previous one share its lane, whose magnitude is the lane's smallest.
    Should such a chain span more than _SIN_TOL, only equal magnitudes
    share a lane, so every sine lies within _SIN_TOL of its lane's value.
    """
    magnitude = np.abs(sin_phi)
    order = np.argsort(magnitude, kind="stable")
    s = magnitude[order]
    gaps = s[1:] - s[:-1]
    new = np.empty(s.size, dtype=bool)  # where a lane starts
    new[:1] = True
    np.greater(gaps, _SIN_TOL, out=new[1:])
    lane = new.cumsum() - 1
    w = s[new]
    if (s - w[lane]).max(initial=0.0) > _SIN_TOL:
        np.greater(gaps, 0.0, out=new[1:])
        lane = new.cumsum() - 1
        w = s[new]
    k = np.empty(s.size, dtype=np.intp)
    k[order] = lane
    # -w[-1], ..., -w[0], then w; a zero magnitude is one lane, not two
    below = w.size - int(w.size > 0 and w[0] == 0.0)
    sines = np.concatenate([-w[::-1][:below], w])
    row = np.where(sin_phi < 0.0, w.size - 1 - k, below + k)
    return sines, np.array([row, sines.size - 1 - row])


def _cone_polar_angles(crystal: CrystalSpec, pump: PumpSpec, phi, lanes):
    """Internal polar angles (u_e, u_o) of the e- and o-cones, one per lane.

    Each e root is bracketed by the pump axis (residual < 0 inside the
    cone) and _U_MAX (residual >= 0).  Raises NotPhaseMatchableError for
    the first azimuth where an end fails, naming that end; at the pump axis
    it also names the collinear cut angle, or says that no cut angle phase
    matches.  `_secant_roots` then starts every azimuth from the circle
    through the cone's in-plane extremes, with tilt t and half-angle h: the
    direction at polar angle u on it has sin u sin(phi) sin t + cos u cos t
    = cos h.  u_o at a lane is the recoil of u_e at its partner.
    lanes=(sines, index) comes from `_sine_lanes`: index, shape (rows,
    phi.size), gives each row's azimuths of phi their sines' positions,
    and a failure names the first failing azimuth of phi, row by row.
    Returns (u_e, u_o, (cos u_e, sin u_e)): the recoil took the roots' trig,
    and `_cone_times` takes it again.
    """
    f, recoil = _cone_residual(crystal, pump)
    sin_phi, index = lanes
    f_lo, f_hi = f(np.array([[_U_MIN], [_U_MAX]]), sin_phi)  # both ends of every bracket at once
    bracketed = (f_lo < 0.0) & (f_hi >= 0.0)
    if not bracketed.all():
        failed = ~bracketed
        lanes_in_order = index.ravel()  # row by row
        k = int(np.argmax(failed[lanes_in_order]))  # the first failing (row, azimuth)
        i = lanes_in_order[k]
        if f_lo[i] < 0.0:
            end, reason = f_hi[i], f"the cone opens beyond the {_U_MAX:g} rad search bound"
        else:
            end = f_lo[i]
            try:
                collinear = math.degrees(collinear_cut_angle(crystal.model, pump))
            except NotPhaseMatchableError:
                hint = "no cut angle in 5-85 deg phase matches"
            else:
                hint = f"cut angle at or below the collinear cut angle, {collinear:.3f} deg"
            reason = f"the cone does not enclose the pump axis ({hint})"
        raise NotPhaseMatchableError(f"no phase-matched e-emission at azimuth "
                                     f"{phi[k % phi.size]:.4f} rad: {reason} (residual {abs(end):.3e})",
                                     residual=float(abs(end)))
    cone = _cone_from_extremes(*_inplane_extremes(crystal, pump)[0])
    # the circle's polar angle, u = atan2(y, cos t) + arccos(cos h / hypot(cos t, y));
    # a cone with one in-plane crossing has h = 0 and no such circle: the
    # minimum keeps its starts finite, and the verification judges them
    y, cos_t = sin_phi * math.sin(cone.tilt), math.cos(cone.tilt)
    u0 = np.arctan2(y, cos_t) + np.arccos(np.minimum(math.cos(cone.half_angle) / np.hypot(cos_t, y), 1.0))
    lo, hi = np.full(sin_phi.size, _U_MIN), np.full(sin_phi.size, _U_MAX)
    u_e = _secant_roots(f, lo, hi, f_lo, f_hi, _XTOL, _RTOL, args=(sin_phi,), start=(u0, u0 * (1.0 + 1e-6)))
    trig = np.cos(u_e), np.sin(u_e)
    return u_e, recoil(u_e, sin_phi, trig=trig)[::-1], trig


def _inplane_extremes(crystal, pump):
    """Signed polar angles a- <= a+ (toward +y) where the e-cone and the
    o-cone cross the y-z plane, e first, from the +psi crystal's solve
    (`_inplane_solve`): a -psi crystal's residual at signed angle a is the
    +psi one's at -a to the bit, so its extremes are (-a+, -a-).  A single
    crossing (tangency) degenerates the cone to one ray there.
    """
    e, o = _inplane_solve(crystal.model, crystal.cut_angle, pump.center_nm)
    if crystal.axis_sign < 0:
        return tuple((-a_plus, -a_minus) for a_minus, a_plus in (e, o))
    return e, o


# one entry, the last design's: `phase_match_cones` of crystal 1 solves it,
# and crystal 2's summary and the map's seeds reuse it
@functools.lru_cache(maxsize=1)
def _inplane_solve(model, cut_angle, center_nm):
    """The +psi crystal's in-plane extremes: the e-cone's solved on
    _INPLANE_GRID's sign changes, the o-cone's the recoils of those roots.

    Keyed by the inputs of `_cone_residual` but the axis sign, which
    `_inplane_extremes` applies; the thickness and the pump bandwidth do
    not enter the residual, so the specs built here hold placeholders.
    A NotPhaseMatchableError is raised, never cached.  The grid's one or
    two brackets are solved in Python floats (`_secant_root`).
    """
    residual, recoil = _cone_residual(CrystalSpec(model, 1.0, cut_angle), PumpSpec(center_nm, 1.0))
    # polar angle |a| at sin phi = sign(a): sin u is odd, cos u even
    vals = residual(_INPLANE_GRID, 1.0, trig=_INPLANE_TRIG)
    cut_deg = math.degrees(cut_angle)
    brackets = _grid_brackets(vals, _INPLANE_GRID, f"e-cone not phase matchable at cut angle {cut_deg:.3f} deg")
    roots = [_secant_root(lambda u: residual(u, 1.0, _FLOATS), *bracket, _XTOL, _RTOL)
             for bracket in zip(*(v.tolist() for v in brackets))]
    # each e photon's o partner, across the pump axis
    partners = [-float(recoil(u, 1.0, _FLOATS)) for u in roots]
    return (min(roots), max(roots)), (min(partners), max(partners))


@dataclass(frozen=True)
class Cone:
    """Circular-cone summary (rad): signed tilt t of the axis toward +y and
    half-opening angle h; at sin(phi) its polar angle u has
    sin u sin(phi) sin t + cos u cos t = cos h."""

    tilt: float
    half_angle: float


@dataclass(frozen=True)
class ConePair:
    """o- and e-emission cones of one crystal, inside and outside the exit face."""

    o_cone: Cone
    e_cone: Cone
    external_o: Cone
    external_e: Cone


def _cone_from_extremes(a_minus, a_plus) -> Cone:
    """The cone through the signed in-plane polar angles a_minus <= a_plus."""
    return Cone(tilt=0.5 * (a_plus + a_minus), half_angle=0.5 * (a_plus - a_minus))


def phase_match_cones(crystal: CrystalSpec, pump: PumpSpec) -> ConePair:
    """Solve the degenerate type-II phase matching for both emission cones.

    The cones are summarized by their in-plane extremes (exact solutions of
    the vector phase-matching condition); external cones apply Snell
    refraction at the exit face with the ordinary index for the o-cone and
    the direction-dependent index for the e-cone.  The extremes come from
    one e-cone solve per design and its recoils, made for the +psi crystal
    and mirrored for the -psi one, so the two crystals' cones are exact
    mirror images; the solve is cached for the last design only.
    """
    lam = pump.degenerate_nm
    axis_tilt = crystal.axis_sign * crystal.cut_angle  # signed, toward +y
    e, o = _inplane_extremes(crystal, pump)
    n_o, axes = index_ordinary(crystal.model, lam), squared_principal_indices(crystal.model, lam)

    def e_index(a):  # the in-plane ray at signed angle a meets the optic axis at a - axis_tilt
        c, s = math.cos(a - axis_tilt), math.sin(a - axis_tilt)
        return _ellipse_index(c * c, s * s, axes, _FLOATS)

    def refracted(extremes, index):
        angles = [math.copysign(math.asin(min(1.0, index(a) * math.sin(abs(a)))), a) for a in extremes]
        return _cone_from_extremes(min(angles), max(angles))

    return ConePair(o_cone=_cone_from_extremes(*o), e_cone=_cone_from_extremes(*e),
                    external_o=refracted(o, lambda a: n_o), external_e=refracted(e, e_index))


def _collinear_residual(model, pump: PumpSpec):
    """The collinear residual 2 n_e(psi, lam_p) - n_o(lam_dc) - n_e(psi, lam_dc)
    as f(cos2, sin2, xp) of psi's squared cosine and sine, each index as
    `index_extraordinary` gives it; the index ellipses are read here, once."""
    pump_axes = squared_principal_indices(model, pump.center_nm)
    n_o = index_ordinary(model, pump.degenerate_nm)
    axes = squared_principal_indices(model, pump.degenerate_nm)

    def f(cos2, sin2, xp):
        return 2.0 * _ellipse_index(cos2, sin2, pump_axes, xp) - n_o - _ellipse_index(cos2, sin2, axes, xp)

    return f


def collinear_cut_angle(model, pump: PumpSpec) -> float:
    """Cut angle at which degenerate collinear phase matching is exact.

    Root of 2*n_e(psi, lam_p) = n_o(lam_dc) + n_e(psi, lam_dc) (the first
    in 5-85 deg); at this psi the emission cones pass through the pump axis.
    _CUT_GRID's trig is taken at import, and the first bracket is solved in
    Python floats (`_secant_root`).
    """
    f = _collinear_residual(model, pump)

    def f_float(psi):
        c, s = math.cos(psi), math.sin(psi)
        return f(c * c, s * s, _FLOATS)

    failure = "no collinear degenerate phase matching for any cut angle in range"
    brackets = _grid_brackets(f(*_CUT_SQUARES, np), _CUT_GRID, failure)
    return _secant_root(f_float, *(float(v[0]) for v in brackets), 1e-12, 4 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# propagation and emission times


def _transit_time(crystal: CrystalSpec, lam_nm: float, theta=None, sec_u=1.0):
    """Group delay L*sec(u)*n_g(lam, theta)/c (fs) of a wave crossing one slab.

    theta=None is the o-wave, otherwise the e-wave at angle theta to the
    optic axis; sec_u = 1/cos(u) lengthens the path of a ray at internal
    polar angle u.  theta and sec_u may be arrays; they broadcast together.
    """
    ng = group_index(crystal.model, lam_nm, theta)
    return crystal.thickness_mm * 1e6 / C_NM_PER_FS * sec_u * ng


@dataclass(frozen=True)
class PropagationTimes:
    """Propagation times through one crystal of the cascade, all in fs.

    t_p  : pump pulse (e-polarized, at the cut angle to the optic axis)
    t_o  : o-polarized down-converted photon
    t_e  : e-polarized down-converted photon in its generating crystal
    t_e2 : the same e photon crossing the other crystal of the cascade,
           whose optic axis it sees under a different angle in general

    Built by `_cone_times`: arrays along the cones (t_p still on axis), and
    Python floats on the pump axis (`propagation_times`, where t_e2 = t_e).
    """

    t_p: float
    t_o: float
    t_e: float
    t_e2: float

    def as_tuple(self):
        return (self.t_p, self.t_o, self.t_e, self.t_e2)


def _cone_times(crystal: CrystalSpec, pump: PumpSpec, u_o, u_e, sin_phi, trig_e=None) -> PropagationTimes:
    """crystal's times along its o- and e-cones, at polar angles u_o, u_e and
    sin(phi) (arrays; t_p on axis): paths take sec(u), and t_e, t_e2 the e
    angle arccos(d.a) of `_cone_residual` to crystal's axis and its mirror's,
    both in one group-index evaluation.  trig_e = (cos u_e, sin u_e) where
    the caller has them.
    """
    lam_dc = pump.degenerate_nm
    a_y, a_z = optic_axis(crystal)
    cos_e, sin_e = (np.cos(u_e), np.sin(u_e)) if trig_e is None else trig_e
    y, z = a_y * sin_phi * sin_e, a_z * cos_e  # d.a = y + z, and z - y for the mirror
    theta = np.arccos(np.minimum(np.maximum(np.array([y + z, z - y]), -1.0), 1.0))
    t_p = _transit_time(crystal, pump.center_nm, crystal.cut_angle)
    t_o = _transit_time(crystal, lam_dc, sec_u=1.0 / np.cos(u_o))
    t_e, t_e2 = _transit_time(crystal, lam_dc, theta, 1.0 / cos_e)
    return PropagationTimes(t_p=t_p, t_o=t_o, t_e=t_e, t_e2=t_e2)


def propagation_times(crystal: CrystalSpec, pump: PumpSpec) -> PropagationTimes:
    """Group-delay propagation times t = L*n_g/c through one crystal, on axis.

    `_cone_times` at u = 0: the e photon meets both crystals' optic axes at
    the cut angle (mirror symmetry), so t_e2 = t_e; off-axis directions are
    the job of `emission_time_map`.  Each time is a Python float.
    """
    return PropagationTimes(*map(float, _cone_times(crystal, pump, 0.0, 0.0, 0.0).as_tuple()))


def _class_times(times: PropagationTimes) -> dict:
    """Average emission times (fs) of the four photon classes, composed from
    the generating crystal's times as the module docstring describes.
    """
    t_p, t_o, t_e, t_e2 = times.as_tuple()
    half_p, half_o, half_e = 0.5 * t_p, 0.5 * t_o, 0.5 * t_e
    return {
        "1e": half_p + half_e + t_e2,
        "1o": half_p + half_o + t_o,
        "2e": t_p + half_p + half_e,
        "2o": t_p + half_p + half_o,
    }


@dataclass(frozen=True, eq=False)
class EmissionTimeMap:
    """Per-azimuth average emission times for the four photon classes.

    Each class is evaluated on its own phase-matched cone; `times` holds one
    array per class, shaped like `phi_grid`, of the values in fs with the
    fixed per-class delays already added.  Maps compare and hash by
    identity: their arrays allow no other equality.
    """

    phi_grid: np.ndarray
    times: dict

    def __post_init__(self):
        _check_phi_grid(self.phi_grid)
        for name in CLASS_NAMES:
            if name not in self.times:
                raise ValueError(f"missing class {name!r} in times")
            if np.shape(self.times[name]) != np.shape(self.phi_grid):
                raise ValueError(f"times of class {name!r} do not have the shape of the phi grid")

    @classmethod
    def _checked(cls, phi_grid, times) -> "EmissionTimeMap":
        """A map of a grid and class times that the caller has checked as
        __post_init__ would, without a second pass over the grid."""
        emission_map = object.__new__(cls)
        object.__setattr__(emission_map, "phi_grid", phi_grid)
        object.__setattr__(emission_map, "times", times)
        return emission_map

    def with_delays(self, delays: dict) -> "EmissionTimeMap":
        """Return a copy with additional fixed (finite) per-class delays added."""
        _check_delays(delays)
        return EmissionTimeMap._checked(self.phi_grid, {c: self.times[c] + delays.get(c, 0.0) for c in CLASS_NAMES})

    def to_csv(self) -> str:
        """The map as CSV: azimuth in degrees and the four class times at 1e-4 fs, one row per azimuth."""
        degrees = np.degrees(self.phi_grid)
        columns = [degrees.tolist()] + [self.times[c].tolist() for c in CLASS_NAMES]
        return _csv("phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs", zip(*columns), _fixed(degrees) + ",%.4f" * 4)


def _check_delays(delays: dict):
    """Raise ValueError unless delays maps photon classes to finite numbers."""
    unknown = set(delays) - set(CLASS_NAMES)
    if unknown:
        raise ValueError(f"unknown photon classes in delays: {sorted(unknown)}")
    for name, value in delays.items():
        if not math.isfinite(value):
            raise ValueError(f"delay of class {name!r} is not finite ({value})")


def _check_phi_grid(phi):
    """Raise ValueError unless the azimuths of phi are finite and strictly increasing."""
    phi = np.asarray(phi)
    # strictly increasing between finite ends is finite throughout (nan
    # compares false), so only a failing grid takes the second pass
    if (phi[1:] > phi[:-1]).all() and (phi.size == 0 or math.isfinite(phi[0]) and math.isfinite(phi[-1])):
        return
    finite = np.isfinite(phi)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"azimuth {i} of the phi grid is not finite ({phi[i]})")
    raise ValueError("phi grid must be strictly increasing")


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
    azimuths together, with per-direction path lengths and e-indices.  The
    crystals are mirror images, so crystal 2's cone at azimuth phi is
    crystal 1's at -phi: the e-cone is solved once, on crystal 1 at the
    distinct values of sin(phi) and -sin(phi) (`_sine_lanes`), and its
    recoils and crystal 1's times there compose all four classes.  Raises
    ValueError, before any solve, for crystals that are no mirror pair, for
    a phi grid that is not finite and strictly increasing, and for unknown,
    non-finite or negative delays.
    """
    if crystal1.axis_sign == crystal2.axis_sign:
        raise ValueError("cascade crystals must have opposite axis signs")
    if not math.isclose(crystal1.cut_angle, crystal2.cut_angle, abs_tol=1e-12):
        raise ValueError("cascade crystals must have mirror-symmetric cut angles")
    if crystal1.model != crystal2.model:
        raise ValueError("cascade crystals must share one dispersion model")
    if crystal1.thickness_mm != crystal2.thickness_mm:
        raise ValueError(f"cascade crystals must have equal thicknesses "
                         f"({crystal1.thickness_mm} and {crystal2.thickness_mm} mm)")
    delays = dict(delays or {})
    _check_delays(delays)
    if any(v < 0 for v in delays.values()):
        raise ValueError("per-class delays must be nonnegative")
    if phi_grid is None:
        phi_grid = default_phi_grid()
    phi_grid = np.asarray(phi_grid, dtype=float)
    _check_phi_grid(phi_grid)

    # row 0 is crystal 1 at phi, row 1 crystal 2 at phi, i.e. crystal 1 at -phi
    sines, index = _sine_lanes(np.sin(phi_grid))
    u_e, u_o, trig_e = _cone_polar_angles(crystal1, pump, phi_grid, (sines, index))
    # crystal 1's times at sine v are crystal 2's at -v: class 2 reads row 1
    classes = _class_times(_cone_times(crystal1, pump, u_o, u_e, sines, trig_e))
    emission_map = EmissionTimeMap._checked(phi_grid, {c: t[index[int(c[0]) - 1]] for c, t in classes.items()})
    return emission_map.with_delays(delays) if delays else emission_map


def _pair_gaps(emission_map: EmissionTimeMap) -> dict:
    """Per azimuth, each pair's o-class time minus its e-class time (fs),
    keyed by the e class.  Raises ValueError for a map without azimuths.
    """
    if emission_map.phi_grid.size == 0:
        raise ValueError("the emission map has no azimuths")
    t = emission_map.times
    return {e: t[o] - t[e] for e, o in PAIRS}


def pairing_mismatch(emission_map: EmissionTimeMap) -> float:
    """Worst residual arrival-time difference of the interfering pairs.

    max over phi and `PAIRS` of |t_o-class - t_e-class|, delays included.
    The photons of a pair exit along (nearly) the same cone, so equal times
    mean which-crystal information is erased for every output direction.
    """
    if emission_map.phi_grid.size < MIN_PHI_POINTS:
        raise ValueError(f"emission map must cover at least {MIN_PHI_POINTS} azimuth points")
    return float(max(np.abs(gap).max() for gap in _pair_gaps(emission_map).values()))


def mismatch_at_azimuth(emission_map: EmissionTimeMap, phi: float) -> float:
    """Worst residual pair mismatch (fs) at the grid azimuth nearest to phi."""
    if not math.isfinite(phi):
        raise ValueError(f"azimuth {phi} is not finite")
    gaps = _pair_gaps(emission_map)
    grid = emission_map.phi_grid
    i = int(np.argmin(np.abs((grid - phi + math.pi) % (2.0 * math.pi) - math.pi)))
    return float(max(abs(gap[i]) for gap in gaps.values()))


def map_flattening_delays(undelayed: EmissionTimeMap) -> dict:
    """Constant per-class delays that best flatten the pair mismatches.

    For each pair of `PAIRS`, keyed by its e class, the midrange over the
    grid of (t_o-class - t_e-class): the minimax-optimal constant delay of
    the e class.  Expects a map built with zero applied delays.  A negative
    value means the pair's o class is the one to delay, by its magnitude;
    applied delays (`emission_time_map`, the config) must be nonnegative.
    """
    return {e: float(0.5 * (gap.max() + gap.min())) for e, gap in _pair_gaps(undelayed).items()}
