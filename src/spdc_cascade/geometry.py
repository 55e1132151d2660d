"""Emission geometry of the two-crystal type-II down-conversion cascade.

The pump propagates along +z; the optic axes of the two crystals lie in the
y-z plane at angles +psi and -psi to the pump.  Degenerate phase matching
(energy conservation plus vector momentum conservation, with the e-wave
index taken at its actual angle to the optic axis) is solved exactly, once
per design, for the pair's transverse momentum (`_cone_residual`): the o
photon at polar angle v puts its e partner at transverse momentum q = n_o
sin v and k_z = k_p - n_o cos v, and phase matching is g(v) = 0, g the
e-wave surface at that k, quadratic in (sin v, cos v).  Each root starts
from the larger root of g's second-order expansion, within 3.5e-3 relative
on 0.5-3 mm BBO cut at 42.9245-50 deg and pumped at 390-400 nm, and takes 3
Newton steps, after which it lies within 1e-15 rad of g's root.  The e
photon leaves at u_e = atan2(q, k_z), the o photon at v across the pump
axis, and outside the crystal both at asin(q).  Nothing bounds the o angle,
and in a negative-uniaxial crystal nothing needs to: it opens no wider than
its e partner's, so a positive-uniaxial material whose o-cone alone opens
beyond the search bound is mapped, not refused.

One function, g, decides, solves, checks and bisects every cone root:
batched over the azimuths of the emission-time map (`_cone_polar_angles`),
and in Python floats at sin(phi) = -+1 for the in-plane extremes that
summarize a cone as axis tilt + half-opening angle (`phase_match_cones`).
The map reads enclosure off g(0), the collinear mismatch, one number for
every azimuth (the cones enclose the pump axis where the cut angle is above
the collinear one), and the search bound off one row of g at v_max, the o
angle whose partner leaves at _U_MAX.  Every root v is then kept only where
g changes sign across v -+ (_XTOL + _RTOL*v)/2 inside its bracket
(`_root_check`); the others are bisected in g by `_refine_brackets`, the one
fallback.  g does not cancel near the pump axis, so over BBO pumped at
390-405.5 nm no lane falls back, even 1e-9 deg above the collinear cut.
The float solves check their roots alike and bisect on a grid only when a
check fails, where the refusal of a design without roots comes from.  The
collinear cut angle takes Newton steps in cos^2 psi, checked the same way.
Every cone refusal reports |g| where it failed.  The crystals are mirror
images: crystal 2's g at sin(phi) is crystal 1's at -sin(phi) to the bit,
so the map solves along the azimuths on crystal 1, and each crystal's
in-plane extremes are the other's mirrored, (a-, a+) -> (-a+, -a-).
Outside, a crystal's o-cone is its external e-cone mirrored, one
refraction per pair (`phase_match_cones`).

The optic axis lies in the y-z plane, so an azimuth enters only through
sin(phi).  The map therefore solves and times each distinct sin(phi) once:
on an n-point uniform grid, phi and pi - phi share a sine and the mirror
row -sin(phi) repeats the grid's sines, so 4 | n leaves n/2 + 1 of them,
the distinct |sin(phi)| mirrored to +-: the o angle at a lane is the v of
the lane at its negated sine.  Sines within _SIN_TOL of each other count as
one.  A numpy call costs a fixed overhead about that of a few hundred lanes
of arithmetic, so the map evaluates its search bound as one row and its
roots' check points as one (2, lanes) array, and the in-plane extremes and
the collinear cut angle, a root or two each, are solved in Python floats.

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
arccos of d.a = a_y sin(phi) sin(u) + a_z cos(u), on the pump axis (u = 0)
arccos(cos psi).
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
    _ellipse_index,
    group_index,
    index_extraordinary,
    squared_principal_indices,
)
from .numeric import _csv, _fixed

_U_MAX = 0.35  # rad; the e-cone search bound, an internal polar angle
_XTOL, _RTOL = 1e-13, 8.9e-16  # bracket width at which the cone solves stop
_NEWTON_STEPS = 3  # from the closed-form start of each cone root (`_cone_residual`)
_COLLINEAR_STEPS = 4  # from cos^2 psi = 0.5 (`collinear_cut_angle`)
# the map solves and times azimuths whose sines lie this close as one
# (`_sine_lanes`): the sines of phi and pi - phi on a uniform grid differ by
# a few ulp, and its distinct sines by at least 4.6e-9 up to 65 536
# azimuths.  A cone's |du/d sin(phi)| is about its tilt, below 0.08 on
# 0.5-3 mm BBO cut at 42.93-50 deg, so a merged sine moves a root by less
# than 1.4e-16 rad, a thousandth of _XTOL
_SIN_TOL = 8 * np.finfo(float).eps  # 1.8e-15
_CUT_GRID = np.linspace(math.radians(5.0), math.radians(85.0), 1601)  # collinear search, on failure


CLASS_NAMES = ("1e", "1o", "2e", "2o")
# the interfering (e class, o class) pairs: one crystal's e-cone overlaps the
# other's o-cone
PAIRS = (("1e", "2o"), ("2e", "1o"))
MIN_PHI_POINTS = 64  # azimuths a map needs for its worst pair mismatch


def optic_axis(crystal: CrystalSpec) -> tuple[float, float]:
    """Components (a_y, a_z) of the crystal's unit optic axis, in the y-z plane."""
    return crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)


def _cone_residual(crystal: CrystalSpec, pump: PumpSpec):
    """The cone solved for the pair's transverse momentum: g(v, p, xp),
    momentum(p, xp) and partner(v, xp), and the design's a_n = a_y n_o and
    search bound v_max.

    Wavevectors are in units of the degenerate photon's vacuum wavenumber,
    so the pump is k_p = 2*n_pump along z, and the optic axis a = (0, a_y,
    a_z) lies in the y-z plane.  The o photon at polar angle v, azimuth phi
    + pi, puts its e partner at transverse momentum q = n_o sin v and k_z =
    k_p - n_o cos v (partner gives (q, k_z); the e photon leaves at u =
    atan2(q, k_z)), so phase matching is g(v) = 0, g the e-wave surface
    A (k.a)^2 + |k|^2 / n_e^2 - 1 (A = 1/n_o^2 - 1/n_e^2) at that k.  g is
    quadratic in (sin v, cos v): it needs no square root and no index.  It
    is written about g(0), the collinear mismatch (g(0, 0)), with c = 1 -
    cos v = 2 sin^2(v/2) and p = a_y n_o sin(phi), formed once per lane
    array by the caller: k.a = a_z D + e, e = p sin v + a_z n_o c, D = k_p
    - n_o, and |k|^2 = D^2 + 2 k_p n_o c, so g = g(0) + A e (2 a_z D + e)
    + 2 k_p n_o c / n_e^2, free of cancellation.  momentum starts from the
    larger root of g's second-order expansion in v and takes _NEWTON_STEPS
    Newton steps, their slopes read off the terms of the same evaluation.
    v and p may be arrays, broadcasting together, or floats with xp=math.
    v_max is the o angle whose partner leaves at _U_MAX, asin(k_p sin
    _U_MAX / n_o) - _U_MAX, so the o angles (0, v_max) are the e angles
    (0, _U_MAX).
    """
    axes = squared_principal_indices(crystal.model, pump.degenerate_nm)
    n_o = math.sqrt(axes[0])
    a_y, a_z = optic_axis(crystal)
    # the e-polarized pump travels along z, at the cut angle to the optic axis
    k_p = 2.0 * float(index_extraordinary(crystal.model, pump.center_nm, crystal.cut_angle))
    inv_e = 1.0 / axes[1]
    a, d = 1.0 / axes[0] - inv_e, k_p - n_o
    az_d, az_n, b = a_z * d, a_z * n_o, 2.0 * k_p * n_o * inv_e
    g0 = a * az_d * az_d + inv_e * d * d - 1.0
    # g ~ g(0) + beta v + alpha v^2, beta = two_a_az_d p, alpha = a p^2 + alpha_0
    two_a, two_a_az_d, alpha_0, four_g0 = 2.0 * a, 2.0 * a * az_d, a * az_d * az_n + 0.5 * b, 4.0 * g0
    # clamped: a material with k_p > n_o / sin(_U_MAX) reaches _U_MAX at no v
    v_max = math.asin(min(1.0, k_p * math.sin(_U_MAX) / n_o)) - _U_MAX

    def surface(v, p, xp):  # g, and sin v, c and k.a for its slope
        s, h = xp.sin(v), xp.sin(0.5 * v)
        c = 2.0 * h * h
        e = p * s + az_n * c
        w = az_d + e  # k.a
        return g0 + (a * e * (w + az_d) + b * c), s, c, w

    def g(v, p, xp=np):
        return surface(v, p, xp)[0]

    def momentum(p, xp=np):
        alpha, beta = a * p * p + alpha_0, two_a_az_d * p
        v = (xp.sqrt(beta * beta - four_g0 * alpha) - beta) / (2.0 * alpha)
        for _ in range(_NEWTON_STEPS):
            g_v, s, c, w = surface(v, p, xp)
            v = v - g_v / (two_a * w * (p - p * c + az_n * s) + b * s)
        return v

    def partner(v, xp=np):
        h = xp.sin(0.5 * v)
        return n_o * xp.sin(v), d + 2.0 * n_o * h * h

    return g, momentum, partner, a_y * n_o, v_max


# ---------------------------------------------------------------------------
# brackets, their bisection and the root check


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

    The one fallback of the Newton solves, for the roots that fail their
    sign-change check: a few at most, so every step evaluates every lane
    and a closed bracket stays where it is.  A zero at a bracket end is the
    root, the lower end first, and a midpoint where f is exactly zero
    closes the bracket on it.  args are per-bracket arrays handed to f with
    x.
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


def _root_check(f, x, lo, hi, xtol=_XTOL, rtol=_RTOL):
    """(ok, f(x - delta)): ok where f changes sign, or vanishes, across
    x -+ delta, delta = (xtol + rtol*|x|)/2, both inside [lo, hi], so that
    a root of f in [lo, hi] lies within delta of x.

    x is a float, with f of a float called on each side, or an array, with
    f called once on both sides stacked, shape (2, x.size); nan fails.
    """
    delta = 0.5 * (xtol + rtol * abs(x))
    below, above = x - delta, x + delta
    f_below, f_above = (f(below), f(above)) if isinstance(x, float) else f(np.array([below, above]))
    changes = (f_below <= 0.0) & (0.0 <= f_above) | (f_above <= 0.0) & (0.0 <= f_below)
    return (lo <= below) & (above <= hi) & changes, f_below


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

    Each lane's o root v is bracketed by the pump axis, where g is g(0),
    the collinear mismatch, one number for every lane (< 0: the cones
    enclose the axis), and v_max, the o angle of the e search bound _U_MAX
    (g >= 0).  Raises NotPhaseMatchableError for the first azimuth where an
    end fails, naming that end, with |g| there as its residual: at the pump
    axis |g(0)|, the same for every azimuth, along with the collinear cut
    angle or that no cut angle phase matches; at the search bound |g(v_max)|
    of the first failing lane.  Then every lane is solved for the pair's
    transverse momentum (`_cone_residual`'s momentum), and its root v is
    kept where g passes `_root_check` inside (0, v_max).  The other lanes
    are bisected in g over (0, v_max) by `_refine_brackets`.  The e photon
    leaves at u_e = atan2(q, k_z) of v's partner, and u_o at a lane is its
    partner lane's v.  lanes=(sines, index) comes from `_sine_lanes`:
    index, shape (rows, phi.size), gives each row's azimuths of phi their
    sines' positions, and a failure names the first failing azimuth of phi,
    row by row.  Returns (u_e, u_o, (cos u_e, sin u_e)), the trig for
    `_cone_times`.
    """
    g, momentum, partner, a_n, v_max = _cone_residual(crystal, pump)
    sin_phi, index = lanes
    p = a_n * sin_phi
    g0, g_hi = g(0.0, 0.0, math), g(v_max, p)
    failed = np.full(p.shape, g0 >= 0.0) | ~(g_hi >= 0.0)
    if failed.any():
        lanes_in_order = index.ravel()  # row by row
        k = int(np.argmax(failed[lanes_in_order]))  # the first failing (row, azimuth)
        if g0 < 0.0:
            residual = abs(float(g_hi[lanes_in_order[k]]))
            reason = f"the cone opens beyond the {_U_MAX:g} rad search bound"
        else:
            try:
                collinear = math.degrees(collinear_cut_angle(crystal.model, pump))
            except NotPhaseMatchableError:
                hint = "no cut angle in 5-85 deg phase matches"
            else:
                hint = f"cut angle at or below the collinear cut angle, {collinear:.3f} deg"
            residual, reason = abs(g0), f"the cone does not enclose the pump axis ({hint})"
        raise NotPhaseMatchableError(f"no phase-matched e-emission at azimuth "
                                     f"{phi[k % phi.size]:.4f} rad: {reason} (residual {residual:.3e})",
                                     residual=residual)
    # a lane without a real start or with a diverging step is left nan or
    # inf here, fails its check and is bisected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = momentum(p)
        checked = _root_check(lambda x: g(x, p), v, 0.0, v_max)[0]
    if not checked.all():
        (j,) = np.nonzero(~checked)
        v[j] = _refine_brackets(g, np.zeros(j.size), np.full(j.size, v_max), g0, g_hi[j], _XTOL, _RTOL, args=(p[j],))
    u_e = np.arctan2(*partner(v))
    return u_e, v[::-1], (np.cos(u_e), np.sin(u_e))


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

    The cones are summarized by their in-plane extremes, the signed polar
    angles (toward +y) where they cross the y-z plane: exact solutions of
    the vector phase-matching condition, the roots r- < r+ of g at sin(phi)
    = +1 (`_cone_residual`), in Python floats.  g(v) at sin(phi) = -1 is
    g(-v) at +1, so r+ is the momentum solve's lane +1 and r- minus its
    lane -1, the cone's two crossings whether or not it encloses the pump
    axis.  Each passes `_root_check` inside +-v_max, and they must lie more
    than a check window apart.  Otherwise g's sign changes on a 701-point
    grid over +-v_max, symmetric to the bit, are bisected
    (`_refine_brackets`), the outermost two taken; a grid without a sign
    change raises NotPhaseMatchableError with the smallest |g| on it, and a
    single crossing (tangency) degenerates the cones to one ray.  The o
    photon at signed angle r leaves its e partner at atan2(q, k_z), q = n_o
    sin r, and itself lies at -r.  A -psi crystal's g at sin(phi) is the
    +psi crystal's at -sin(phi) to the bit, so the two crystals' cones are
    exact mirror images.  Outside, both photons of a pair leave at asin(q)
    of their transverse momentum q, on opposite sides of the pump: the
    external o-cone is the external e-cone mirrored, so each crystal's is
    the other's external e-cone, the overlap the cascade interferes on.
    """
    g, momentum, partner, a_n, v_max = _cone_residual(crystal, pump)
    try:
        r = (-momentum(-a_n, math), momentum(a_n, math))
        solved = (r[1] - r[0] > _XTOL + _RTOL * max(-r[0], r[1])
                  and all(_root_check(lambda x: g(x, a_n, math), x, -v_max, v_max)[0] for x in r))
    except (ArithmeticError, ValueError):  # no real start, or a step diverged
        solved = False
    if not solved:
        half = np.linspace(0.0, v_max, 351)
        grid = np.concatenate([-half[:0:-1], half])
        brackets = _grid_brackets(g(grid, a_n), grid,
                                  f"e-cone not phase matchable at cut angle {math.degrees(crystal.cut_angle):.3f} deg")
        roots = _refine_brackets(g, *brackets, _XTOL, _RTOL, args=(a_n,))
        r = (float(roots[0]), float(roots[-1]))
    (q_lo, k_lo), (q_hi, k_hi) = (partner(x, math) for x in r)
    # Snell at the exit face keeps the transverse momentum q
    external_e = _cone_from_extremes(*(math.copysign(math.asin(min(1.0, abs(q))), q) for q in (q_lo, q_hi)))
    return ConePair(o_cone=_cone_from_extremes(-r[1], -r[0]),
                    e_cone=_cone_from_extremes(math.atan2(q_lo, k_lo), math.atan2(q_hi, k_hi)),
                    external_o=Cone(-external_e.tilt, external_e.half_angle), external_e=external_e)


def _collinear_residual(model, pump: PumpSpec):
    """The collinear residual 2 n_e(psi, lam_p) - n_o(lam_dc) - n_e(psi, lam_dc)
    as f(x, xp) of psi's squared cosine x, each index as
    `index_extraordinary` gives it, and newton(x), one Newton step on f in
    Python floats, from the ellipse's dn/dx = -(1/n_o^2 - 1/n_e^2) n^3 / 2.
    The index ellipses are read here, once."""
    pump_axes = squared_principal_indices(model, pump.center_nm)
    axes = squared_principal_indices(model, pump.degenerate_nm)
    n_o = math.sqrt(axes[0])
    # f's slope is half_b n^3 - b_p n_p^3
    b_p, half_b = 1.0 / pump_axes[0] - 1.0 / pump_axes[1], 0.5 * (1.0 / axes[0] - 1.0 / axes[1])

    def f(x, xp=math):
        return 2.0 * _ellipse_index(x, pump_axes, xp) - n_o - _ellipse_index(x, axes, xp)

    def newton(x):
        n_p, n = _ellipse_index(x, pump_axes, math), _ellipse_index(x, axes, math)
        return x - (2.0 * n_p - n_o - n) / (half_b * n * n * n - b_p * n_p * n_p * n_p)

    return f, newton


def collinear_cut_angle(model, pump: PumpSpec) -> float:
    """Cut angle at which degenerate collinear phase matching is exact.

    Root of 2*n_e(psi, lam_p) = n_o(lam_dc) + n_e(psi, lam_dc), the first
    in 5-85 deg; at this psi the emission cones pass through the pump axis.
    Solved by _COLLINEAR_STEPS Newton steps in x = cos^2 psi from 0.5 (45
    deg), in Python floats.  The root psi is kept where it passes
    `_root_check` inside 5-85 deg, delta = (1e-12 + 4 eps psi)/2, and f
    does not change sign between 5 deg and psi - delta.  Otherwise the first sign change
    of f on _CUT_GRID is bisected (`_refine_brackets`); a grid without one
    raises NotPhaseMatchableError.
    """
    f, newton = _collinear_residual(model, pump)
    xtol, rtol = 1e-12, 4 * np.finfo(float).eps
    lo, hi = float(_CUT_GRID[0]), float(_CUT_GRID[-1])
    try:
        x = 0.5
        for _ in range(_COLLINEAR_STEPS):
            x = newton(x)
        psi = math.acos(math.sqrt(x))
        checked, f_below = _root_check(lambda a: f(math.cos(a) ** 2), psi, lo, hi, xtol, rtol)
        if checked and f(math.cos(lo) ** 2) * f_below > 0.0:
            return psi
    except (ArithmeticError, ValueError):  # a step left [0, 1] or diverged
        pass

    def on_grid(psi):
        return f(np.cos(psi) ** 2, np)

    failure = "no collinear degenerate phase matching for any cut angle in range"
    brackets = _grid_brackets(on_grid(_CUT_GRID), _CUT_GRID, failure)
    return float(_refine_brackets(on_grid, *(v[:1] for v in brackets), xtol, rtol)[0])


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


@dataclass(frozen=True, eq=False)
class PropagationTimes:
    """Propagation times through one crystal of the cascade, all in fs.

    t_p  : pump pulse (e-polarized, at the cut angle to the optic axis)
    t_o  : o-polarized down-converted photon
    t_e  : e-polarized down-converted photon in its generating crystal
    t_e2 : the same e photon crossing the other crystal of the cascade,
           whose optic axis it sees under a different angle in general

    Built by `_cone_times`: arrays along the cones (t_p still on axis), and
    Python floats on the pump axis (`propagation_times`, where t_e2 = t_e).
    Instances compare and hash by identity, as array times allow no other
    equality, float times too; `as_tuple` gives the values to compare.
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
    angle arccos(d.a) to crystal's axis and its mirror's,
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
    """Raise ValueError unless phi is one-dimensional and its azimuths are
    finite and strictly increasing."""
    phi = np.asarray(phi)
    if phi.ndim != 1:
        raise ValueError(f"phi grid must be one-dimensional (shape {phi.shape})")
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
    o roots and crystal 1's times there compose all four classes.  Raises
    ValueError, before any solve, for crystals that are no mirror pair, for
    a phi grid that is not one-dimensional, finite and strictly increasing,
    and for unknown, non-finite or negative delays.
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
