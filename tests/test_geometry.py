import math
import os
from fractions import Fraction
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import spdc_cascade as sc
from spdc_cascade.constants import C_NM_PER_FS
from spdc_cascade.geometry import (
    _CUT_GRID,
    _U_MAX,
    CLASS_NAMES,
    _class_times,
    _collinear_residual,
    _cone_polar_angles,
    _cone_residual,
    _cone_times,
    _grid_brackets,
    _inplane_extremes,
    _SIN_TOL,
    _refine_brackets,
    _sine_lanes,
)

PSI = math.radians(43.65)


def _vector_residual(crystal, pump, pol, u, phi):
    """Oracle: the cone residual from 3-vectors.

    The photon leaves along d(u, phi) with its phase index, the conjugate
    takes the recoil r = k_pump - n d, and each e-index comes from the
    angle arccos(k.a/|k|) to the optic axis a; the residual is |r| minus
    the conjugate's index along r.  u and phi broadcast together.
    """
    lam, model = pump.degenerate_nm, crystal.model
    a_y, a_z = crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)

    def index(p, kx, ky, kz):
        if p == "o":
            return sc.index_ordinary(model, lam)
        cos_theta = (ky * a_y + kz * a_z) / np.sqrt(kx * kx + ky * ky + kz * kz)
        return sc.index_extraordinary(model, lam, np.arccos(np.clip(cos_theta, -1.0, 1.0)))

    su = np.sin(u)
    dx, dy, dz = su * np.cos(phi), su * np.sin(phi), np.cos(u)
    n = index(pol, dx, dy, dz)
    k_pump = 2.0 * sc.index_extraordinary(model, pump.center_nm, crystal.cut_angle)
    rx, ry, rz = -n * dx, -n * dy, k_pump - n * dz
    return np.sqrt(rx * rx + ry * ry + rz * rz) - index("e" if pol == "o" else "o", rx, ry, rz)


def _vector_recoil(crystal, pump, u, phi):
    """Oracle: the polar angle of the recoil r = k_pump - n d of the e
    photon along d(u, phi), from 3-vectors."""
    a_y, a_z = crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)
    su = np.sin(u)
    dx, dy, dz = su * np.cos(phi), su * np.sin(phi), np.cos(u)
    theta = np.arccos(np.clip(dy * a_y + dz * a_z, -1.0, 1.0))
    n = sc.index_extraordinary(crystal.model, pump.degenerate_nm, theta)
    k_pump = 2.0 * sc.index_extraordinary(crystal.model, pump.center_nm, crystal.cut_angle)
    return np.arctan2(np.hypot(n * dx, n * dy), k_pump - n * dz)


def _polar_angles(crystal, pump, phi):
    """The e- and o-cones' polar angles (u_e, u_o) at each azimuth of phi,
    as the map finds them: the e-cone solved once per lane of `_sine_lanes`,
    each o angle the recoil of its e partner at the negated lane."""
    sines, index = _sine_lanes(np.sin(phi))
    u_e, u_o, _ = _cone_polar_angles(crystal, pump, phi, (sines, index))
    return u_e[index[0]], u_o[index[0]]


def _vector_class_time(name, crystal1, crystal2, pump, u, phi):
    """Oracle: the class time from 3-vectors.

    The photon travels along d(u, phi); an e photon's group index comes from
    the angle arccos(d.a/|d|) to each crystal's optic axis a, and its path
    through a slab of thickness L is L/d_z.  Born at the centre of crystal
    1 or 2 (name[0]), after half that crystal's pump transit, it crosses the
    rest of its own crystal and, from crystal 1, all of crystal 2.  u and
    phi broadcast.
    """
    lam = pump.degenerate_nm
    su = np.sin(u)
    d = np.stack(np.broadcast_arrays(su * np.cos(phi), su * np.sin(phi), np.cos(u)), axis=-1)

    def slab(crystal, lam_nm, theta, path):
        return crystal.thickness_mm * 1e6 / C_NM_PER_FS * path * sc.group_index(crystal.model, lam_nm, theta)

    def photon(crystal):
        theta = None
        if name[1] == "e":
            a = np.array([0.0, crystal.axis_sign * math.sin(crystal.cut_angle), math.cos(crystal.cut_angle)])
            theta = np.arccos(np.clip(d @ a / np.linalg.norm(d, axis=-1), -1.0, 1.0))
        return slab(crystal, lam, theta, 1.0 / d[..., 2])

    tp1, tp2 = (slab(c, pump.center_nm, c.cut_angle, 1.0) for c in (crystal1, crystal2))
    if name[0] == "1":
        return 0.5 * tp1 + 0.5 * photon(crystal1) + photon(crystal2)
    return tp1 + 0.5 * tp2 + 0.5 * photon(crystal2)


# --- phase-matched cones -----------------------------------------------------

def test_cones_enclose_axis_and_external_circles_intersect(crystal1, pump):
    pair = sc.phase_match_cones(crystal1, pump)
    assert pair.o_cone.half_angle > abs(pair.o_cone.tilt)
    assert pair.e_cone.half_angle > abs(pair.e_cone.tilt)
    # type-II signature: cone axes on opposite sides of the pump beam
    assert pair.o_cone.tilt * pair.e_cone.tilt < 0
    # two circles on the sphere cross iff |r1 - r2| < separation < r1 + r2
    o, e = pair.external_o, pair.external_e
    separation = abs(o.tilt - e.tilt)
    assert abs(o.half_angle - e.half_angle) < separation < o.half_angle + e.half_angle


def test_external_cones_are_refraction_widened(crystal1, pump):
    pair = sc.phase_match_cones(crystal1, pump)
    n = sc.index_ordinary(sc.BBO, pump.degenerate_nm)
    assert pair.external_o.half_angle == pytest.approx(n * pair.o_cone.half_angle, rel=5e-3)


def test_cone_direction_solves_phase_matching(crystal1, pump):
    phi = np.random.default_rng(7).uniform(0, 2 * math.pi, 8)
    for pol, u in zip("eo", _polar_angles(crystal1, pump, phi)):
        assert np.abs(_vector_residual(crystal1, pump, pol, u, phi)).max() < 1e-12


def test_cone_direction_matches_circular_fit_in_plane(crystal1, pump):
    cone = sc.phase_match_cones(crystal1, pump).o_cone
    # in the y-z plane the cone's polar angles are tilt +- half-opening
    top, bottom = _polar_angles(crystal1, pump, np.array([math.pi / 2, 3 * math.pi / 2]))[1]
    assert top == pytest.approx(cone.tilt + cone.half_angle, abs=1e-10)
    assert bottom == pytest.approx(cone.half_angle - cone.tilt, abs=1e-10)


def test_collinear_cut_angle_by_residual_scan_oracle(pump):
    # oracle: dense scan of the collinear phase-matching residual over psi
    lam_p, lam_dc = pump.center_nm, pump.degenerate_nm

    def residual(psi):
        return (
            2 * sc.index_extraordinary(sc.BBO, lam_p, psi)
            - sc.index_ordinary(sc.BBO, lam_dc)
            - sc.index_extraordinary(sc.BBO, lam_dc, psi)
        )

    grid = np.linspace(math.radians(35), math.radians(55), 4001)
    vals = np.array([residual(p) for p in grid])
    crossings = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert crossings.size == 1
    i = crossings[0]
    psi_scan = brentq(residual, grid[i], grid[i + 1], xtol=1e-12)

    psi_c = sc.collinear_cut_angle(sc.BBO, pump)
    assert psi_c == pytest.approx(psi_scan, abs=1e-9)

    # at the collinear cut angle the cones are tangent to the pump axis
    crystal = sc.CrystalSpec(sc.BBO, 1.07, psi_c)
    pair = sc.phase_match_cones(crystal, pump)
    for cone in (pair.o_cone, pair.e_cone):
        assert cone.half_angle - abs(cone.tilt) == pytest.approx(0.0, abs=1e-6)
        assert cone.half_angle > math.radians(1.0)


def test_below_threshold_not_phase_matchable(pump):
    crystal = sc.CrystalSpec(sc.BBO, 1.07, math.radians(40.0))
    with pytest.raises(sc.NotPhaseMatchableError) as err:
        sc.phase_match_cones(crystal, pump)
    assert err.value.residual is not None
    assert err.value.residual > 0


def test_cone_below_collinear_angle_does_not_enclose_pump_axis(pump):
    # between the solvability limit and the collinear angle the cones do not
    # enclose the pump axis: no azimuth of the map is bracketed, the tilt
    # side included
    crystal = sc.CrystalSpec(sc.BBO, 1.07, math.radians(42.5))
    phi = np.array([math.pi / 2, 3 * math.pi / 2])
    for first in (0, 1):
        with pytest.raises(sc.NotPhaseMatchableError, match="does not enclose the pump axis") as err:
            _polar_angles(crystal, pump, phi[first:])
        assert f"azimuth {phi[first]:.4f} rad" in str(err.value)
        at_axis = _vector_residual(crystal, pump, "e", 1e-12, phi[first])
        assert err.value.residual == pytest.approx(abs(at_axis), rel=1e-9)
    with pytest.raises(sc.NotPhaseMatchableError, match="does not enclose the pump axis"):
        sc.emission_time_map(crystal, sc.CrystalSpec(sc.BBO, 1.07, math.radians(42.5), -1), pump)


def test_cone_beyond_search_bound_names_the_bound(crystal1, pump, monkeypatch):
    # the reference cones lie 0.012-0.086 rad from the pump axis (internal);
    # a 0.01 rad bound is below every azimuth's root
    monkeypatch.setattr(sc.geometry, "_U_MAX", 0.01)
    phi = sc.geometry.default_phi_grid(64)
    with pytest.raises(sc.NotPhaseMatchableError, match="beyond the 0.01 rad search bound") as err:
        _polar_angles(crystal1, pump, phi)
    assert f"azimuth {phi[0]:.4f} rad" in str(err.value)
    at_bound = _vector_residual(crystal1, pump, "e", 0.01, phi[0])
    assert err.value.residual == pytest.approx(abs(at_bound), rel=1e-9)


def test_mirrored_cone_failure_names_the_callers_azimuth(crystal1, crystal2, pump, monkeypatch):
    # the map solves crystal 2's e-cone as crystal 1's at -phi, and on the
    # 64-point grid phi and pi - phi share one solve; at a 0.05 rad bound the
    # e-cones (up to 0.0858 rad) fail, and the error names the caller's
    # first failing azimuth, not its mirror or its lane partner
    monkeypatch.setattr(sc.geometry, "_U_MAX", 0.05)
    for phi in (np.array([3 * math.pi / 2]), sc.geometry.default_phi_grid(64)):
        beyond = [_vector_residual(crystal, pump, "e", 0.05, phi) < 0.0 for crystal in (crystal1, crystal2)]
        k = np.flatnonzero(beyond[0] | beyond[1])[0]
        crystal = crystal1 if beyond[0][k] else crystal2
        with pytest.raises(sc.NotPhaseMatchableError, match="beyond the 0.05 rad search bound") as err:
            sc.emission_time_map(crystal1, crystal2, pump, {}, phi)
        assert f"e-emission at azimuth {phi[k]:.4f} rad" in str(err.value)
        at_bound = _vector_residual(crystal, pump, "e", 0.05, phi[k])
        assert err.value.residual == pytest.approx(abs(at_bound), rel=1e-9)


# --- batched root solver vs a scalar brentq oracle ----------------------------

XTOL, RTOL = 1e-13, 8.9e-16  # the cone solves' tolerances


def _scan_roots(f, grid):
    """Oracle: brentq at every sign change of scalar f sampled on grid."""
    vals = np.array([f(x) for x in grid])
    changes = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    return [brentq(f, grid[i], grid[i + 1], xtol=XTOL, rtol=RTOL) for i in changes]


def _oracle_polar_angle(crystal, pump, pol, phi):
    """Per-azimuth scalar solve: brentq between the pump axis and 0.35 rad."""
    f = lambda u: float(_vector_residual(crystal, pump, pol, u, phi))
    return brentq(f, 1e-12, 0.35, xtol=XTOL, rtol=RTOL)


# benchmark-box designs: (thickness mm, cut deg, pump nm)
BOX_DESIGNS = [(0.5, 43.6, 390.0), (1.07, 43.65, 395.0), (2.2, 44.1, 397.5), (3.0, 44.5, 400.0)]


@pytest.mark.parametrize("thickness, cut_deg, pump_nm", BOX_DESIGNS)
def test_batched_cone_roots_match_scalar_oracle(thickness, cut_deg, pump_nm):
    pump = sc.PumpSpec(pump_nm, 1.0)
    phi = sc.geometry.default_phi_grid(64)
    for sign in (+1, -1):
        crystal = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=sign)
        extremes = dict(zip("eo", _inplane_extremes(crystal, pump)))
        for pol, batched in zip("eo", _polar_angles(crystal, pump, phi)):
            oracle = [_oracle_polar_angle(crystal, pump, pol, p) for p in phi]
            assert np.abs(batched - np.array(oracle)).max() <= 1e-12, (sign, pol)
            # in-plane extremes: every sign change of a 701-point signed-angle scan
            roots = _scan_roots(
                lambda a: float(_vector_residual(
                    crystal, pump, pol, abs(a), math.pi / 2 if a >= 0 else 3 * math.pi / 2)),
                np.linspace(-0.35, 0.35, 701),
            )
            lo, hi = extremes[pol]
            assert abs(lo - min(roots)) <= 1e-12 and abs(hi - max(roots)) <= 1e-12


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(cut_deg=st.floats(42.93, 50.0), pump_nm=st.floats(390.0, 400.0), n=st.integers(1, 256))
def test_map_roots_satisfy_the_residual_to_the_solvers_tolerance(cut_deg, pump_nm, n):
    # both cones' angles on the map's lanes, the o angles read off the e
    # roots' recoils, against the 3-vector residual: it changes sign within
    # the solve's tolerance xtol + rtol*u of every root.  At cut angles below
    # the collinear one (43.52 deg at 390 nm) the map refuses the design
    pump = sc.PumpSpec(pump_nm, 1.0)
    crystal = sc.CrystalSpec(sc.BBO, 1.0, math.radians(cut_deg))
    collinear = sc.collinear_cut_angle(sc.BBO, pump)
    assume(abs(crystal.cut_angle - collinear) > 1e-9)
    phi = sc.geometry.default_phi_grid(n)
    sines, index = _sine_lanes(np.sin(phi))
    if crystal.cut_angle < collinear:
        with pytest.raises(sc.NotPhaseMatchableError, match="does not enclose the pump axis"):
            _cone_polar_angles(crystal, pump, phi, (sines, index))
        return
    for pol, u in zip("eo", _cone_polar_angles(crystal, pump, phi, (sines, index))):
        tol = XTOL + RTOL * u
        below, above = (_vector_residual(crystal, pump, pol, u + side * tol, np.arcsin(sines)) for side in (-1, 1))
        assert np.all(np.sign(below) * np.sign(above) <= 0), pol


@pytest.mark.parametrize("cut_deg", [42.9245, 43.65, 50.0])
def test_map_roots_match_a_brentq_oracle_of_the_residual(pump, cut_deg):
    # the 41 lanes of an 80-azimuth grid against brentq at its tightest
    # tolerance on the residual the map checks its roots with, evaluated in
    # numpy's long double (80-bit on x86; where it is float64 the oracle
    # itself carries ~3e-14 rad of the residual's rounding).  The o angle
    # at a lane is the recoil of the oracle's e root at the partner lane.
    # The bound is XTOL, the root check's own tolerance; the momentum solve
    # errs by at most 1.4e-15 rad here
    crystal = sc.CrystalSpec(sc.BBO, 1.07, math.radians(cut_deg))
    phi = sc.geometry.default_phi_grid(80)
    sines, index = _sine_lanes(np.sin(phi))
    assert sines.size == 41
    u_e, u_o, _ = _cone_polar_angles(crystal, pump, phi, (sines, index))
    residual, recoil, _ = _cone_residual(crystal, pump)
    wide = np.longdouble
    oracle = np.array([brentq(lambda u: float(residual(wide(u), wide(s))), 1e-12, 0.35, xtol=1e-300,
                              rtol=4 * np.finfo(float).eps, maxiter=500) for s in sines])
    partners = recoil(oracle.astype(wide), sines.astype(wide))[0][::-1]
    assert np.abs(u_e - oracle).max() <= XTOL
    assert np.abs(u_o - partners.astype(float)).max() <= XTOL


@pytest.mark.parametrize("thickness, cut_deg, pump_nm", BOX_DESIGNS)
def test_scalar_product_residual_matches_vector_form(thickness, cut_deg, pump_nm):
    # random directions plus the tilt azimuths and both bracket ends
    rng = np.random.default_rng(11)
    u = np.concatenate([rng.uniform(1e-12, 0.35, 5000), [1e-12, 0.35, 1e-12, 0.35]])
    phi = np.concatenate([rng.uniform(0.0, 2 * math.pi, 5000), [math.pi / 2] * 2, [3 * math.pi / 2] * 2])
    pump = sc.PumpSpec(pump_nm, 1.0)
    for sign in (+1, -1):
        crystal = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=sign)
        residual, recoil, _ = _cone_residual(crystal, pump)
        vector = _vector_residual(crystal, pump, "e", u, phi)
        assert np.abs(residual(u, np.sin(phi)) - vector).max() <= 1e-14, sign
        # the recoil's polar angle, from r = k_pump - n d as 3-vectors
        assert np.abs(recoil(u, np.sin(phi))[0] - _vector_recoil(crystal, pump, u, phi)).max() <= 1e-14, sign


def test_refine_brackets_takes_an_exact_zero_as_the_root():
    # at a bracket end (the lower one when both are zeros), and where a step
    # lands on one (the first step bisects [0, 1])
    ends = lambda x: x * (x - 1.0)
    lo, hi = np.array([0.0, 0.5, 0.0]), np.array([0.5, 1.0, 1.0])
    roots = _refine_brackets(ends, lo, hi, ends(lo), ends(hi), XTOL, RTOL)
    assert roots.tolist() == [0.0, 1.0, 0.0]
    step = lambda x: x - 0.5
    lo, hi = np.array([0.0]), np.array([1.0])
    assert _refine_brackets(step, lo, hi, step(lo), step(hi), XTOL, RTOL).tolist() == [0.5]


def test_refine_brackets_meets_the_tolerance_on_a_flat_then_steep_function():
    f = lambda x: x**9 - 1e-20
    lo, hi = np.array([0.0]), np.array([1.0])
    (root,) = _refine_brackets(f, lo, hi, f(lo), f(hi), XTOL, RTOL)
    assert abs(root - 1e-20 ** (1 / 9)) <= XTOL + RTOL * root


def test_refine_brackets_meets_half_the_tolerance_in_every_lane():
    # per-lane roots from 1e-3 to 1e3 in magnitude, in brackets 1e-12 to 1
    # wide, so the lanes close at different steps; the sign of expm1(x - r)
    # is exactly that of x - r, so r is the root to the last bit
    rng = np.random.default_rng(5)
    n = 60
    r = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    width = np.logspace(-12.0, 0.0, n)
    lo = r - rng.uniform(0.0, 1.0, n) * width
    hi = lo + width
    f = lambda x, root: np.expm1(x - root)
    x = _refine_brackets(f, lo, hi, f(lo, r), f(hi, r), XTOL, RTOL, args=(r,))
    assert np.all(np.abs(x - r) <= 0.5 * (XTOL + RTOL * np.abs(r)))
    # a closed bracket stays where it is, so no lane depends on the others
    alone = [_refine_brackets(f, lo[i:i + 1], hi[i:i + 1], f(lo[i:i + 1], r[i]), f(hi[i:i + 1], r[i]),
                              XTOL, RTOL, args=(r[i:i + 1],))[0] for i in range(n)]
    assert x.tolist() == alone


def _count_fallback_lanes(monkeypatch):
    """Record the number of lanes of every _refine_brackets call."""
    lanes = []
    refine = sc.geometry._refine_brackets

    def counted(f, lo, *rest, **kwargs):
        lanes.append(lo.size)
        return refine(f, lo, *rest, **kwargs)

    monkeypatch.setattr(sc.geometry, "_refine_brackets", counted)
    return lanes


def _scalar_problems(crystal, pump):
    """The in-plane and collinear residuals of a design, each as (f of an
    array, f of a float, grid), as the solves' checks and grid fallbacks
    evaluate them."""
    residual, _, _ = _cone_residual(crystal, pump)
    collinear, _ = _collinear_residual(crystal.model, pump)
    grid = np.linspace(-_U_MAX, _U_MAX, 701)
    return [(lambda u: residual(u, 1.0), lambda u: residual(u, 1.0, math), grid),
            (lambda psi: collinear(np.cos(psi) ** 2, np), lambda psi: collinear(math.cos(psi) ** 2), _CUT_GRID)]


def test_float_solves_agree_with_the_batched_solve(benchmark_designs):
    # the in-plane extremes, solved in Python floats, are the map's lanes
    # sin(phi) = -+1, solved as arrays: both are checked roots, within
    # (xtol + rtol*|u|)/2 of a sign change of one residual.  The collinear
    # cut angle's Newton root lies within its own tolerance of the
    # bisection of its grid bracket
    for design in benchmark_designs:
        crystal, _, pump = _mirror_pair(design)
        e, o, _ = _inplane_extremes(crystal, pump)
        u_e, u_o, _ = _cone_polar_angles(crystal, pump, np.array([-math.pi / 2, math.pi / 2]),
                                         (np.array([-1.0, 1.0]), np.array([[0, 1], [1, 0]])))
        for got, batched in ((e, (-u_e[0], u_e[1])), (o, (-u_o[0], u_o[1]))):
            for a, b in zip(got, batched):
                assert abs(a - b) <= XTOL + RTOL * abs(b), design
        f, _ = _scalar_problems(crystal, pump)[1][:2]
        lo, hi, f_lo, f_hi = _grid_brackets(f(_CUT_GRID), _CUT_GRID, "no bracket")
        (bisected,) = _refine_brackets(f, lo[:1], hi[:1], f_lo[:1], f_hi[:1], 1e-12, 4 * np.finfo(float).eps)
        psi = sc.collinear_cut_angle(crystal.model, pump)
        assert isinstance(psi, float)
        assert abs(psi - bisected) <= 1e-12 + 4 * np.finfo(float).eps * psi, design


def test_float_solves_fall_back_to_the_grid_bisection(benchmark_designs, monkeypatch):
    # with no Newton step, the closed-form starts (up to 3.5e-3 relative
    # off) fail their checks: the in-plane extremes and the collinear cut
    # angle then bisect the sign changes of their grids, and agree with
    # their Newton roots to the solves' tolerance
    designs = benchmark_designs[:3]
    solved = [(sc.phase_match_cones(c, p), sc.collinear_cut_angle(c.model, p))
              for c, _, p in map(_mirror_pair, designs)]
    lanes = _count_fallback_lanes(monkeypatch)
    monkeypatch.setattr(sc.geometry, "_NEWTON_STEPS", 0)
    monkeypatch.setattr(sc.geometry, "_COLLINEAR_STEPS", 0)
    for design, (cones, psi) in zip(designs, solved):
        crystal, _, pump = _mirror_pair(design)
        bisected = sc.phase_match_cones(crystal, pump)
        for field in ("o_cone", "e_cone", "external_o", "external_e"):
            a, b = getattr(cones, field), getattr(bisected, field)
            assert abs(a.tilt - b.tilt) <= 2 * XTOL and abs(a.half_angle - b.half_angle) <= 2 * XTOL, field
        assert abs(sc.collinear_cut_angle(crystal.model, pump) - psi) <= 2e-12
    assert lanes == [2, 1] * len(designs)  # two in-plane crossings, one collinear bracket


def test_float_residuals_raise_nothing_the_array_residuals_do_not(benchmark_designs):
    # the in-plane and collinear residuals in floats (math), at every point
    # of their grids, give what numpy gives there: on the benchmark designs
    # and on designs the map refuses (below any in-plane crossing, below the
    # collinear cut angle, and quartz, which has no collinear cut angle);
    # math's square root would raise where numpy's returns nan, and none does
    refused = [sc.CrystalSpec(model, 1.07, math.radians(cut)) for model, cut in
               ((sc.BBO, 40.0), (sc.BBO, 42.5), (sc.QUARTZ, 43.65))]
    cases = [_mirror_pair(d)[::2] for d in benchmark_designs] + [(c, sc.PumpSpec(395.0, 1.0)) for c in refused]
    for crystal, pump in cases:
        for f, f_float, grid in _scalar_problems(crystal, pump):
            floats = [f_float(x) for x in grid.tolist()]
            assert all(type(v) is float for v in floats)
            np.testing.assert_allclose(floats, f(grid), rtol=1e-13, atol=1e-15)


def test_cone_roots_near_the_collinear_angle_fall_back_and_match_the_oracle(pump, monkeypatch):
    # 0.001 deg above the collinear cut angle the cones pass 0.02 mrad from
    # the pump axis, with roots of 1-5 mrad near sin(phi) = 0.  The Newton
    # roots match the oracle there; with no Newton step, the lanes whose
    # start fails its check (80 of 129) are bisected in their brackets, their
    # o partners read off the recoils, to the same roots
    psi = sc.collinear_cut_angle(sc.BBO, pump) + math.radians(0.001)
    crystal = sc.CrystalSpec(sc.BBO, 1.07, psi)
    phi = sc.geometry.default_phi_grid(256)
    oracle = {pol: np.array([_oracle_polar_angle(crystal, pump, pol, p) for p in phi]) for pol in "eo"}
    for pol, batched in zip("eo", _polar_angles(crystal, pump, phi)):
        assert np.abs(batched - oracle[pol]).max() <= 1e-12, pol
    lanes = _count_fallback_lanes(monkeypatch)
    monkeypatch.setattr(sc.geometry, "_NEWTON_STEPS", 0)
    for pol, bisected in zip("eo", _polar_angles(crystal, pump, phi)):
        assert np.abs(bisected - oracle[pol]).max() <= 1e-12, pol
    assert len(lanes) == 1 and 0 < lanes[0] <= 129  # of 256 / 2 + 1 lanes


def test_map_takes_one_cone_solve_of_few_evaluations(crystal1, crystal2, pump, monkeypatch):
    # one e-cone solve (crystal 2's cones are crystal 1's at -phi, and the
    # o-cone is read off the same roots): the residual that _cone_residual
    # builds is evaluated twice, at the bracket ends and at the roots'
    # check points, and the momentum solve once, with _NEWTON_STEPS steps.
    # No in-plane solve and no collinear cut angle.  The azimuths' 2 x 1024
    # sines (sin phi and -sin phi) take 513 distinct values, one lane each
    lanes = _count_fallback_lanes(monkeypatch)
    solves, calls, momenta = [], [], []
    build = sc.geometry._cone_residual

    def counted_build(*args):
        solves.append(args)
        residual, recoil, momentum = build(*args)

        def counted(*step):
            calls.append(step)
            return residual(*step)

        return counted, recoil, lambda sin_phi: momenta.append(sin_phi) or momentum(sin_phi)

    monkeypatch.setattr(sc.geometry, "_cone_residual", counted_build)
    monkeypatch.setattr(sc.geometry, "collinear_cut_angle", None)
    sc.emission_time_map(crystal1, crystal2, pump, {}, sc.geometry.default_phi_grid(1024))
    assert len(solves) == 1
    assert len(calls) == 2 and [np.shape(u) for u, _ in calls] == [(2, 1), (2, 513)]
    assert [np.size(sin_phi) for sin_phi in momenta] == [513]
    assert lanes == []  # every lane's root passes its check


def _mirror_pair(design):
    """The +psi and -psi crystals and the pump of a benchmark design."""
    cut = math.radians(design["cut_angle_deg"])
    crystals = (sc.CrystalSpec(sc.BBO, design["thickness_mm"], cut, axis_sign=s) for s in (+1, -1))
    return (*crystals, sc.PumpSpec(design["center_nm"], design["bandwidth_nm"]))


def test_crystal_2_cones_are_crystal_1_cones_mirrored_to_the_bit(benchmark_designs):
    # crystal 2's residual at signed in-plane angle a is crystal 1's at -a
    # to the bit, and its extremes are crystal 1's solve mirrored: two
    # separate solves on a grid not symmetric to the bit differed by up to
    # 5.8e-15 rad on these designs
    for design in benchmark_designs:
        crystal1, crystal2, pump = _mirror_pair(design)
        one, two = sc.phase_match_cones(crystal1, pump), sc.phase_match_cones(crystal2, pump)
        for field in ("o_cone", "e_cone", "external_o", "external_e"):
            a, b = getattr(one, field), getattr(two, field)
            assert (b.tilt, b.half_angle) == (-a.tilt, a.half_angle), (design, field)
        # the overlap the cascade interferes on: outside the crystals each
        # one's o-cone is the other's e-cone to the bit (the internal cones
        # differ by about a milliradian)
        for o_side, e_side in ((two, one), (one, two)):
            o, e = o_side.external_o, e_side.external_e
            assert (o.tilt, o.half_angle) == (e.tilt, e.half_angle), design


def _folded_turn(turn):
    """The angle of sine sin(2 pi turn) in [-1/4, 1/4] turns, where sin is one-to-one."""
    turn %= 1
    if turn <= Fraction(1, 4):
        return turn
    if turn <= Fraction(3, 4):
        return Fraction(1, 2) - turn  # sin(pi - x) = sin(x)
    return turn - 1


def _paired_lanes(sin_phi):
    """`_sine_lanes` of sin_phi, checked: ascending lanes, each lane's
    partner holding exactly its negated value, the rows' positions of each
    azimuth partners, and every sine within _SIN_TOL of its lane."""
    sines, index = _sine_lanes(sin_phi)
    rows = np.stack([sin_phi, -sin_phi])
    assert index.shape == rows.shape
    assert np.all(sines[1:] > sines[:-1])
    assert np.array_equal(sines[::-1], -sines)
    assert np.array_equal(index[1], sines.size - 1 - index[0])
    assert np.abs(sines[index] - rows).max() <= _SIN_TOL
    return sines, index


@pytest.mark.parametrize("n", [64, 100, 1000, 1001, 1024, 65536])
def test_sine_lanes_hold_each_distinct_sine_of_a_uniform_grid_once(n):
    # oracle: the grid's distinct sines in exact arithmetic, over the map's
    # two rows sin(phi_k) and -sin(phi_k) = sin(-phi_k); n/2 + 1 when 4 | n
    distinct = {_folded_turn(Fraction(sign * k, n)) for k in range(n) for sign in (1, -1)}
    sines, _ = _paired_lanes(np.sin(sc.geometry.default_phi_grid(n)))
    assert sines.size == len(distinct)
    if n % 4 == 0:
        assert sines.size == n // 2 + 1


def test_sine_lanes_pair_by_construction_on_any_grid():
    # a random grid shares no sines; a one-point grid has its sine and its
    # negation as lanes, or one lane at zero
    phi = np.sort(np.random.default_rng(23).uniform(0.0, 2 * math.pi, 999))
    assert np.all(np.diff(phi) > 0)
    sines, _ = _paired_lanes(np.sin(phi))
    assert sines.size == 2 * phi.size
    sines, index = _paired_lanes(np.sin([1.0]))
    assert sines.tolist() == [-math.sin(1.0), math.sin(1.0)] and index.tolist() == [[1], [0]]
    sines, index = _paired_lanes(np.sin([0.0]))
    assert sines.tolist() == [0.0] and index.tolist() == [[0], [0]]


def test_sine_lanes_do_not_chain_close_sines_beyond_the_tolerance():
    # magnitudes 1e-16 apart chain over 6.3e-15 > _SIN_TOL: only equal ones
    # merge, and zero is one lane
    rows = np.arange(64) * 1e-16
    sines, index = _paired_lanes(np.concatenate([rows, -rows]))
    assert sines.tolist() == (-rows[:0:-1]).tolist() + rows.tolist()
    assert index[0].tolist() == list(range(63, 127)) + list(range(63, -1, -1))


@pytest.mark.parametrize("thickness, cut_deg, pump_nm", BOX_DESIGNS)
def test_map_crystal_2_times_match_its_own_cone_solve(thickness, cut_deg, pump_nm):
    pump = sc.PumpSpec(pump_nm, 1.0)
    c1 = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=+1)
    c2 = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=-1)
    phi = sc.geometry.default_phi_grid(256)
    emission_map = sc.emission_time_map(c1, c2, pump, {}, phi)
    u_e, u_o = _polar_angles(c2, pump, phi)
    # the 2x classes read the generating crystal's own times
    direct = _class_times(_cone_times(c2, pump, u_o, u_e, np.sin(phi)))
    for name in ("2e", "2o"):
        assert np.abs(emission_map.times[name] - direct[name]).max() <= 1e-9, name


def test_solves_raise_no_floating_point_warnings(crystal1, crystal2, pump):
    # the CLI prints every recorded warning to stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (64, 1024, 65536):
            sc.emission_time_map(crystal1, crystal2, pump, {}, sc.geometry.default_phi_grid(n))
        for crystal in (crystal1, crystal2):
            sc.phase_match_cones(crystal, pump)
        sc.collinear_cut_angle(crystal1.model, pump)


def test_propagation_times_bit_identical_to_scalar_recording(crystal1, pump):
    # recorded from the math-module (scalar-only) dispersion functions; the
    # reference design's on-axis times, which `_cone_times` at u = 0 gives
    # to the bit, are what the golden fixtures of tests/golden/ rest on
    recorded = (6096.85998672402, 6014.596797057221, 5796.830166706795, 5796.830166706795)
    assert sc.propagation_times(crystal1, pump).as_tuple() == recorded


def test_import_leaves_root_finding_scipy_unloaded(tmp_path):
    # the package solves its roots and computes erf itself: no subcommand
    # loads any scipy module, which stays a test oracle
    from test_golden import COMMANDS, REFERENCE_INI

    config = tmp_path / "reference.ini"
    config.write_text(REFERENCE_INI)
    runs = [[name, "--config", str(config), "--out", str(tmp_path / name), *args]
            for name, args in COMMANDS.items()]
    code = (
        "import sys\n"
        "from spdc_cascade.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len(COMMANDS) == 6 and all((tmp_path / name).exists() for name in COMMANDS)


# --- emission times ----------------------------------------------------------

def test_map_matches_per_azimuth_class_times(crystal1, crystal2, pump):
    # reference: the per-azimuth loop, one scalar brentq cone solve and one
    # class-time evaluation per (azimuth, class), on the default grid and on
    # a non-uniform one, whose sines the map cannot share
    non_uniform = np.sort(np.random.default_rng(17).uniform(0.0, 2 * math.pi, 64))
    assert np.all(np.diff(non_uniform) > 0)
    for phi in (sc.geometry.default_phi_grid(64), non_uniform):
        emission_map = sc.emission_time_map(crystal1, crystal2, pump, phi_grid=phi)
        # class 1 is crystal 1 at sin(phi); class 2, crystal 2 at sin(phi),
        # is crystal 1 at -sin(phi)
        for row, crystal, sin_phi in (("1", crystal1, np.sin(phi)), ("2", crystal2, -np.sin(phi))):
            u_o, u_e = (np.array([_oracle_polar_angle(crystal, pump, pol, p) for p in phi])
                        for pol in ("o", "e"))
            loop = [_class_times(_cone_times(crystal1, pump, *args)) for args in zip(u_o, u_e, sin_phi)]
            batched = _class_times(_cone_times(crystal1, pump, u_o, u_e, sin_phi))
            for name in (row + "e", row + "o"):
                assert batched[name].shape == phi.shape
                expected = [t[name] for t in loop]
                np.testing.assert_allclose(batched[name], expected, rtol=1e-14, atol=0)
                np.testing.assert_allclose(emission_map.times[name], expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("thickness, cut_deg, pump_nm", BOX_DESIGNS)
def test_scalar_product_class_times_match_vector_form(thickness, cut_deg, pump_nm):
    # random directions plus the tilt azimuths, the pump axis and the search bound
    rng = np.random.default_rng(13)
    u = np.concatenate([rng.uniform(0.0, 0.35, 5000), [0.0, 0.35, 0.0, 0.35]])
    phi = np.concatenate([rng.uniform(0.0, 2 * math.pi, 5000), [math.pi / 2] * 2, [3 * math.pi / 2] * 2])
    pump = sc.PumpSpec(pump_nm, 1.0)
    for sign in (+1, -1):
        c1 = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=sign)
        c2 = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=-sign)
        along = _class_times(_cone_times(c1, pump, u, u, np.sin(phi)))
        # crystal 2 at phi is crystal 1 at -phi
        mirrored = _class_times(_cone_times(c1, pump, u, u, -np.sin(phi)))
        for name in CLASS_NAMES:
            scalar = (along if name[0] == "1" else mirrored)[name]
            vector = _vector_class_time(name, c1, c2, pump, u, phi)
            np.testing.assert_allclose(scalar, vector, rtol=1e-14, atol=0, err_msg=f"{sign} {name}")


def test_map_composes_its_classes_from_four_transit_times(crystal1, crystal2, pump, monkeypatch):
    # one set of cone times for the whole map: the pump, the o photon, and
    # the e photon through each crystal's axis, both in one call
    calls = []
    transit = sc.geometry._transit_time
    monkeypatch.setattr(sc.geometry, "_transit_time",
                        lambda *args, **kw: calls.append(args) or transit(*args, **kw))
    sc.emission_time_map(crystal1, crystal2, pump, {}, sc.geometry.default_phi_grid(1024))
    assert len(calls) == 3


def test_on_axis_pair_gaps_are_the_closed_form_delays(benchmark_designs):
    # born at the crystal centres, the pairs' on-axis gaps 2o - 1e and
    # 1o - 2e are tau_B and tau_A: everything that separates the map's
    # flattening delays from the closed form comes from off-axis directions
    for d in benchmark_designs:
        crystal = sc.CrystalSpec(sc.BBO, d["thickness_mm"], math.radians(d["cut_angle_deg"]))
        times = sc.propagation_times(crystal, sc.PumpSpec(d["center_nm"], d["bandwidth_nm"]))
        tau_a, tau_b = sc.optimal_delays(times)
        t = _class_times(times)
        assert t["2o"] - t["1e"] == pytest.approx(tau_b, rel=1e-12), d
        assert t["1o"] - t["2e"] == pytest.approx(tau_a, rel=1e-12), d


# emission-map's flattening delays (1e, 2e) minus optimize's closed-form
# (tau_B, tau_A), and their sum, in fs, at 256 azimuths: the reference
# design, then draw_designs(1), (2) and (3) of perfbench/inputs.py
FLATTENING_OFFSETS = [
    (-2.824, 2.6088, -0.2152),
    (-3.6538, 3.4035, -0.2503),
    (-9.2735, 8.8876, -0.3859),
    (-1.6447, 1.4944, -0.1503),
    (-8.2609, 7.8307, -0.4302),
    (-3.9402, 3.5969, -0.3433),
    (-2.1668, 2.0224, -0.1444),
    (-2.7937, 2.5302, -0.2635),
    (-11.3906, 10.4692, -0.9214),
    (-10.904, 10.1714, -0.7326),
    (-6.1509, 5.5965, -0.5544),
    (-9.5012, 9.1817, -0.3195),
    (-9.5876, 8.8326, -0.755),
    (-1.0116, 0.8855, -0.1261),
    (-8.5873, 8.1607, -0.4266),
    (-5.3201, 5.0525, -0.2676),
    (-8.6047, 8.2425, -0.3622),
    (-3.6118, 3.3605, -0.2513),
    (-6.5992, 5.9193, -0.6799),
    (-13.8582, 13.2659, -0.5923),
    (-6.7042, 6.2802, -0.424),
    (-3.0435, 2.7911, -0.2524),
]


def test_flattening_delays_sit_off_the_closed_form_by_the_recorded_offsets(benchmark_designs):
    # the closed form times the pair on the pump axis, which no pair takes
    # above the collinear cut angle (the cones enclose it); the map's
    # delays are the midrange of the gaps over the directions pairs do
    # take.  The two offsets nearly cancel: their sum moves the sum of the
    # delays by a fraction of a fs, against a few fs each (the
    # `interference` module docstring)
    phi = sc.geometry.default_phi_grid(256)
    for d, (off_1e, off_2e, total) in zip(benchmark_designs, FLATTENING_OFFSETS, strict=True):
        crystal1, crystal2, pump = _mirror_pair(d)
        delays = sc.map_flattening_delays(sc.emission_time_map(crystal1, crystal2, pump, {}, phi))
        tau_a, tau_b = sc.optimal_delays(sc.propagation_times(crystal1, pump))
        got = (delays["1e"] - tau_b, delays["2e"] - tau_a)
        assert got == pytest.approx((off_1e, off_2e), abs=1e-3), d
        assert sum(got) == pytest.approx(total, abs=1e-3), d


def test_map_of_an_empty_grid_is_empty(crystal1, crystal2, pump):
    emission_map = sc.emission_time_map(crystal1, crystal2, pump, {}, np.array([]))
    assert all(emission_map.times[name].shape == (0,) for name in CLASS_NAMES)
    # the pair measures say so, where numpy would raise "zero-size array to
    # reduction operation" or "attempt to get argmin of an empty sequence"
    with pytest.raises(ValueError, match="no azimuths"):
        sc.map_flattening_delays(emission_map)
    with pytest.raises(ValueError, match="no azimuths"):
        sc.mismatch_at_azimuth(emission_map, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maps_reject_a_non_finite_azimuth_before_any_solve(crystal1, crystal2, pump, monkeypatch, bad):
    # sin(nan) would warn and then blame the cut angle; with the grid
    # validated first, no cone residual is built and nothing warns
    phi = np.array([0.0, bad, 1.0, np.nan])
    monkeypatch.setattr(sc.geometry, "_cone_residual", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"azimuth 1 of the phi grid is not finite \((-?inf|nan)\)"):
            sc.emission_time_map(crystal1, crystal2, pump, {}, phi)
        with pytest.raises(ValueError, match="azimuth 1 of the phi grid is not finite"):
            sc.EmissionTimeMap(phi, {name: np.zeros(phi.size) for name in CLASS_NAMES})
        # the nearest grid azimuth would wrap nan to azimuth 0
        with pytest.raises(ValueError, match=rf"azimuth {bad} is not finite"):
            sc.mismatch_at_azimuth(_gap_map()[0], bad)


def test_emission_map_validation(crystal1, crystal2, pump):
    with pytest.raises(ValueError, match="opposite axis signs"):
        sc.emission_time_map(crystal1, crystal1, pump)
    with pytest.raises(ValueError, match="nonnegative"):
        sc.emission_time_map(crystal1, crystal2, pump, delays={"1e": -1.0})
    with pytest.raises(ValueError, match="unknown photon classes"):
        sc.emission_time_map(crystal1, crystal2, pump, delays={"3e": 1.0})
    mismatch_cut = sc.CrystalSpec(sc.BBO, 1.07, PSI + 0.01, -1)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        sc.emission_time_map(crystal1, mismatch_cut, pump)
    # crystal 2's cones are crystal 1's mirrored, which needs one material
    quartz = sc.CrystalSpec(sc.QUARTZ, 1.07, PSI, -1)
    with pytest.raises(ValueError, match="share one dispersion model"):
        sc.emission_time_map(crystal1, quartz, pump)
    # the classes are composed from one crystal's times
    thick = sc.CrystalSpec(sc.BBO, 2.14, PSI, -1)
    with pytest.raises(ValueError, match=r"equal thicknesses \(1\.07 and 2\.14 mm\)"):
        sc.emission_time_map(crystal1, thick, pump)
    # a repeated azimuth, and a map without one of its classes
    with pytest.raises(ValueError, match="^phi grid must be strictly increasing$"):
        sc.emission_time_map(crystal1, crystal2, pump, phi_grid=[0.0, 1.0, 1.0])
    phi = sc.geometry.default_phi_grid(64)
    with pytest.raises(ValueError, match="^missing class '2o' in times$"):
        sc.EmissionTimeMap(phi, {name: np.zeros(phi.size) for name in ("1e", "1o", "2e")})


def test_with_delays_rejects_unknown_class(base_map):
    # class names are case-sensitive: "2E" is not the 2e class
    with pytest.raises(ValueError, match="unknown photon classes"):
        base_map.with_delays({"2E": 31.0})


def test_reference_delays_flatten_pairings(base_map):
    delayed = base_map.with_delays({"1e": 410.0, "2e": 31.0})
    assert sc.pairing_mismatch(delayed) < 5.0


def test_flattening_delays_near_closed_form(base_map, crystal1, pump):
    auto = sc.map_flattening_delays(base_map)
    tau_a, tau_b = sc.optimal_delays(sc.propagation_times(crystal1, pump))
    # on-cone constant delays sit a few fs from the on-axis closed form
    assert auto["1e"] == pytest.approx(tau_b, abs=10.0)
    assert auto["2e"] == pytest.approx(tau_a, abs=10.0)
    assert sc.pairing_mismatch(base_map.with_delays(auto)) < 1.0


def test_flatness_survives_thickness_doubling(base_map, doubled_map):
    m1 = sc.pairing_mismatch(base_map.with_delays(sc.map_flattening_delays(base_map)))
    m2 = sc.pairing_mismatch(doubled_map.with_delays(sc.map_flattening_delays(doubled_map)))
    assert m1 < 5.0
    assert m2 < 5.0
    # times, and with them the residual mismatch, scale linearly in thickness
    assert m2 == pytest.approx(2 * m1, rel=1e-3)


def test_wrong_delay_shows_up_as_mismatch(base_map):
    delayed = base_map.with_delays({"2e": 31.0})  # 1e left uncompensated
    assert sc.pairing_mismatch(delayed) == pytest.approx(410.0, abs=15.0)


def test_pairing_mismatch_zero_for_identical_curves():
    phi = sc.geometry.default_phi_grid(64)
    curve = np.linspace(100.0, 120.0, phi.size)
    emission_map = sc.EmissionTimeMap(
        phi, {"1e": curve, "2o": curve.copy(), "1o": curve + 3, "2e": curve + 3}
    )
    assert sc.pairing_mismatch(emission_map) == 0.0


def test_pairing_mismatch_requires_dense_grid():
    phi = sc.geometry.default_phi_grid(32)
    curve = np.zeros(phi.size)
    emission_map = sc.EmissionTimeMap(
        phi, {"1e": curve, "2o": curve, "1o": curve, "2e": curve}
    )
    with pytest.raises(ValueError, match="64"):
        sc.pairing_mismatch(emission_map)


@pytest.mark.parametrize("size", [1, 3, 65])
def test_map_rejects_times_not_shaped_like_the_grid(size):
    # unchecked, a 1-element class would broadcast to a zero mismatch and a
    # 3-element one would break to_csv with an IndexError
    phi = sc.geometry.default_phi_grid(64)
    times = {name: np.zeros(phi.size) for name in CLASS_NAMES}
    times["1e"] = np.zeros(size)
    with pytest.raises(ValueError, match="'1e'.*shape"):
        sc.EmissionTimeMap(phi, times)


def test_map_mirror_symmetry_about_the_axis_plane(base_map):
    # reflection x -> -x maps phi -> pi - phi and leaves the device unchanged
    phi = base_map.phi_grid
    n = phi.size
    for name in ("1e", "1o", "2e", "2o"):
        t = base_map.times[name]
        # phi_k -> pi - phi_k lands back on the grid (uniform, endpoint-free);
        # the map solves and times the two azimuths' shared sine once
        mirrored = np.array([(math.pi - p) % (2 * math.pi) for p in phi])
        idx = np.rint(mirrored / (2 * math.pi / n)).astype(int) % n
        assert np.array_equal(t[idx], t)


def test_mismatch_at_beam_azimuths(base_map):
    delayed = base_map.with_delays(sc.map_flattening_delays(base_map))
    total = sc.pairing_mismatch(delayed)
    for phi in (math.pi / 2, 3 * math.pi / 2):
        assert 0.0 <= sc.mismatch_at_azimuth(delayed, phi) <= total


def _gap_map():
    """A synthetic map whose pair gaps (o class minus e class) are known
    exactly: 1e-2o spans -20..43 fs, 2e-1o spans -4.875..3 fs."""
    phi = sc.geometry.default_phi_grid(64)
    k = np.arange(64.0)
    gap_1e, gap_2e = (7.0 * k) % 64.0 - 20.0, 3.0 - ((5.0 * k) % 64.0) / 8.0
    times = {"1e": 1000.0 + k, "2e": np.full(64, 500.0)}
    times["2o"], times["1o"] = times["1e"] + gap_1e, times["2e"] + gap_2e
    return sc.EmissionTimeMap(phi, times), gap_1e, gap_2e


def test_pair_owners_read_the_gaps_of_a_synthetic_map():
    assert sc.geometry.PAIRS == (("1e", "2o"), ("2e", "1o"))
    emission_map, gap_1e, gap_2e = _gap_map()
    # the midrange of each pair's gap delays its e class
    assert sc.map_flattening_delays(emission_map) == {"1e": 11.5, "2e": -0.9375}
    assert sc.pairing_mismatch(emission_map) == 43.0
    step = 2 * math.pi / 64
    # the worst pair at the nearest grid azimuth, also across phi = 0; at
    # azimuth 3 the 2e-1o pair is the worse one (1.125 fs against 1 fs)
    for phi, i in [(3 * step + 0.4 * step, 3), (10 * step - 0.4 * step, 10), (-0.3 * step, 0),
                   (2 * math.pi - 0.3 * step, 0), (63 * step + 0.6 * step, 0), (63 * step, 63)]:
        expected = max(abs(gap_1e[i]), abs(gap_2e[i]))
        assert sc.mismatch_at_azimuth(emission_map, phi) == expected, phi
    assert sc.mismatch_at_azimuth(emission_map, 3 * step) == 1.125


@pytest.mark.parametrize("delays, name", [({"1e": np.nan}, "1e"), ({"2e": np.inf}, "2e"),
                                          ({"1o": 0.0, "2o": -np.inf}, "2o")])
def test_non_finite_delays_are_rejected_naming_the_class(crystal1, crystal2, pump, monkeypatch, delays, name):
    emission_map, _, _ = _gap_map()
    with pytest.raises(ValueError, match=f"delay of class '{name}' is not finite"):
        emission_map.with_delays(delays)
    # before any solve: no cone residual is built
    monkeypatch.setattr(sc.geometry, "_cone_residual", None)
    with pytest.raises(ValueError, match=f"delay of class '{name}' is not finite"):
        sc.emission_time_map(crystal1, crystal2, pump, delays, sc.geometry.default_phi_grid(64))


def test_undelayed_map_is_built_once(crystal1, crystal2, pump, monkeypatch):
    # the grid is checked once, on entry, before any solve: the map built
    # from it is not checked again; an undelayed map adds no copy through
    # with_delays
    calls = []
    check = sc.geometry._check_phi_grid
    monkeypatch.setattr(sc.geometry, "_check_phi_grid", lambda phi: calls.append(phi) or check(phi))
    phi = sc.geometry.default_phi_grid(64)
    sc.emission_time_map(crystal1, crystal2, pump, {}, phi)
    assert len(calls) == 1
    delayed = sc.emission_time_map(crystal1, crystal2, pump, {"1e": 410.0}, phi)
    base = sc.emission_time_map(crystal1, crystal2, pump, None, phi)
    assert np.array_equal(delayed.times["1e"], base.times["1e"] + 410.0)


def test_map_csv_format(base_map):
    csv = base_map.with_delays({"1e": 410.0, "2e": 31.0}).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"
    assert len(lines) == 1 + base_map.phi_grid.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    for tok in first[1:]:
        # times at 1e-4 fs, so the file resolves the map's sub-fs pair mismatch
        integral, decimals = tok.split(".")
        assert integral.isdigit() and len(decimals) == 4
        assert float(tok) > 0
