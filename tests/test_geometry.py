import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import spdc_cascade as sc
from spdc_cascade.geometry import (
    CLASS_NAMES,
    _class_time,
    _cone_polar_angles,
    _cone_residual,
    _inplane_extremes,
    _unit_direction,
)

PSI = math.radians(43.65)
PUMP_AXIS = np.array([0.0, 0.0, 1.0])


def _on_axis_times(crystal1, crystal2, pump):
    return {name: _class_time(name, crystal1, crystal2, pump, PUMP_AXIS) for name in CLASS_NAMES}


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
    for pol in ("o", "e"):
        d = _unit_direction(_cone_polar_angles(crystal1, pump, pol, phi), phi)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.arctan2(d[:, 1], d[:, 0]) % (2 * math.pi), phi % (2 * math.pi), rtol=0, atol=1e-9
        )
        u = np.arccos(d[:, 2])
        assert np.abs(_cone_residual(crystal1, pump, pol, u, phi)).max() < 1e-12


def test_cone_direction_matches_circular_fit_in_plane(crystal1, pump):
    cone = sc.phase_match_cones(crystal1, pump).o_cone
    # in the y-z plane the cone's polar angles are tilt +- half-opening
    top, bottom = _cone_polar_angles(crystal1, pump, "o", np.array([math.pi / 2, 3 * math.pi / 2]))
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


def test_detached_cone_misses_far_azimuth(pump):
    # between the solvability limit and the collinear angle the cones do not
    # enclose the pump axis: the tilt side solves, the opposite side does not
    crystal = sc.CrystalSpec(sc.BBO, 1.07, math.radians(42.5))
    (u,) = _cone_polar_angles(crystal, pump, "o", np.array([3 * math.pi / 2]))
    assert _unit_direction(u, 3 * math.pi / 2)[1] < 0
    with pytest.raises(sc.NotPhaseMatchableError):
        _cone_polar_angles(crystal, pump, "o", np.array([math.pi / 2]))


# --- batched root solver vs a scalar brentq oracle ----------------------------

XTOL, RTOL = 1e-13, 8.9e-16  # the cone solves' tolerances


def _scan_roots(f, grid):
    """Oracle: brentq at every sign change of scalar f sampled on grid.
    Returns (roots, smallest sampled |f|)."""
    vals = np.array([f(x) for x in grid])
    changes = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    roots = [brentq(f, grid[i], grid[i + 1], xtol=XTOL, rtol=RTOL) for i in changes]
    return roots, float(np.abs(vals).min())


def _oracle_polar_angle(crystal, pump, pol, phi):
    """Per-azimuth scalar solve: brentq on [1e-12, 0.35] when the residual is
    negative on the pump axis, else the first sign change of a 256-point scan.
    Returns (u, None) or (None, smallest sampled |residual|)."""
    f = lambda u: float(_cone_residual(crystal, pump, pol, u, phi))
    if f(1e-12) < 0.0:
        return brentq(f, 1e-12, 0.35, xtol=XTOL, rtol=RTOL), None
    roots, residual = _scan_roots(f, np.linspace(1e-12, 0.35, 256))
    return (roots[0], None) if roots else (None, residual)


# benchmark-box designs: (thickness mm, cut deg, pump nm)
BOX_DESIGNS = [(0.5, 43.6, 390.0), (1.07, 43.65, 395.0), (2.2, 44.1, 397.5), (3.0, 44.5, 400.0)]


@pytest.mark.parametrize("thickness, cut_deg, pump_nm", BOX_DESIGNS)
def test_batched_cone_roots_match_scalar_oracle(thickness, cut_deg, pump_nm):
    pump = sc.PumpSpec(pump_nm, 1.0)
    phi = sc.geometry.default_phi_grid(64)
    for sign in (+1, -1):
        crystal = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg), axis_sign=sign)
        for pol in ("o", "e"):
            batched = _cone_polar_angles(crystal, pump, pol, phi)
            oracle = [_oracle_polar_angle(crystal, pump, pol, p)[0] for p in phi]
            assert np.abs(batched - np.array(oracle)).max() <= 1e-12, (sign, pol)
            # in-plane extremes: every sign change of a 701-point signed-angle scan
            roots, _ = _scan_roots(
                lambda a: float(_cone_residual(
                    crystal, pump, pol, abs(a), math.pi / 2 if a >= 0 else 3 * math.pi / 2)),
                np.linspace(-0.35, 0.35, 701),
            )
            lo, hi = _inplane_extremes(crystal, pump, pol)
            assert abs(lo - min(roots)) <= 1e-12 and abs(hi - max(roots)) <= 1e-12


@pytest.mark.parametrize("rows_per_block", [None, 5])
def test_batched_solver_grid_fallback_and_failure_match_oracle(pump, monkeypatch, rows_per_block):
    # at 42.5 deg the o-cone misses the pump axis: the azimuths near its tilt
    # solve on the 256-point grid, the far side has no solution
    if rows_per_block:  # sample the grid in several blocks of azimuths
        monkeypatch.setattr(sc.geometry, "_SAMPLES_PER_CALL", 256 * rows_per_block)
    crystal = sc.CrystalSpec(sc.BBO, 1.07, math.radians(42.5))
    phi = sc.geometry.default_phi_grid(64)
    oracle = [_oracle_polar_angle(crystal, pump, "o", p) for p in phi]
    solved = np.array([u is not None for u, _ in oracle])
    assert 0 < solved.sum() < phi.size
    batched = _cone_polar_angles(crystal, pump, "o", phi[solved])
    assert np.abs(batched - np.array([u for u, _ in oracle if u is not None])).max() <= 1e-12

    # the error names the first failing azimuth, here one after solved ones
    start = int(np.argmax(solved))
    first_failure = start + int(np.argmin(solved[start:]))
    with pytest.raises(sc.NotPhaseMatchableError, match=f"{phi[first_failure]:.4f} rad") as err:
        _cone_polar_angles(crystal, pump, "o", phi[start:])
    assert err.value.residual == pytest.approx(oracle[first_failure][1], rel=1e-9)
    with pytest.raises(sc.NotPhaseMatchableError):
        sc.emission_time_map(
            crystal, sc.CrystalSpec(sc.BBO, 1.07, math.radians(42.5), -1), pump, phi_grid=phi
        )


def test_propagation_times_bit_identical_to_scalar_recording(crystal1, pump):
    # recorded from the math-module (scalar-only) dispersion functions; the
    # numerical delay optimizer is sensitive to the last bit of these times
    recorded = (6096.85998672402, 6014.596797057221, 5796.830166706795, 5796.830166706795)
    assert sc.propagation_times(crystal1, pump).as_tuple() == recorded


def test_import_leaves_root_finding_scipy_unloaded():
    # the package solves its roots itself; scipy.optimize stays a test oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    code = "import sys, spdc_cascade; assert 'scipy.optimize' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- emission times ----------------------------------------------------------

def test_single_crystal_mode_reproduces_two_photon_state_times(crystal1, pump):
    absent = sc.CrystalSpec(sc.BBO, 0.0, PSI, axis_sign=-1)
    times = sc.propagation_times(crystal1, pump)
    on_axis = _on_axis_times(crystal1, absent, pump)
    # H (ordinary) photon at (t_p + t_o)/2, V (extraordinary) at (t_p + t_e)/2
    assert on_axis["1o"] == pytest.approx(0.5 * (times.t_p + times.t_o), rel=1e-12)
    assert on_axis["1e"] == pytest.approx(0.5 * (times.t_p + times.t_e), rel=1e-12)
    # mean lead of the faster photon
    lead = on_axis["1o"] - on_axis["1e"]
    assert lead == pytest.approx(0.5 * abs(times.t_o - times.t_e), rel=1e-12)


def test_unequal_crystals_on_axis_combine_propagation_times(pump):
    c1 = sc.CrystalSpec(sc.BBO, 0.8, PSI, axis_sign=+1)
    c2 = sc.CrystalSpec(sc.BBO, 1.9, PSI, axis_sign=-1)
    t1, t2 = sc.propagation_times(c1, pump), sc.propagation_times(c2, pump)
    on_axis = _on_axis_times(c1, c2, pump)
    # born mid-crystal: half the generating crystal, then all of the next one
    expected = {
        "1e": 0.5 * (t1.t_p + t1.t_e) + t2.t_e2,
        "1o": 0.5 * (t1.t_p + t1.t_o) + t2.t_o,
        "2e": t1.t_p + 0.5 * (t2.t_p + t2.t_e),
        "2o": t1.t_p + 0.5 * (t2.t_p + t2.t_o),
    }
    for name, value in expected.items():
        assert on_axis[name] == pytest.approx(value, rel=1e-12), name


def test_map_matches_per_azimuth_class_times(crystal1, crystal2, pump):
    # reference: the per-azimuth loop, one scalar brentq cone solve and one
    # class-time evaluation per (azimuth, class)
    phi = sc.geometry.default_phi_grid(64)
    emission_map = sc.emission_time_map(crystal1, crystal2, pump, phi_grid=phi)
    sources = {"1e": (crystal1, "e"), "1o": (crystal1, "o"),
               "2e": (crystal2, "e"), "2o": (crystal2, "o")}
    for name, (crystal, pol) in sources.items():
        directions = np.array(
            [_unit_direction(_oracle_polar_angle(crystal, pump, pol, p)[0], p) for p in phi]
        )
        loop = [_class_time(name, crystal1, crystal2, pump, d) for d in directions]
        batched = _class_time(name, crystal1, crystal2, pump, directions)
        assert batched.shape == phi.shape
        np.testing.assert_allclose(batched, loop, rtol=1e-14, atol=0)
        np.testing.assert_allclose(emission_map.times[name], loop, rtol=1e-14, atol=0)


def test_zero_thickness_cascade_gives_zero_times(pump):
    c1 = sc.CrystalSpec(sc.BBO, 0.0, PSI, +1)
    c2 = sc.CrystalSpec(sc.BBO, 0.0, PSI, -1)
    emission_map = sc.emission_time_map(c1, c2, pump, phi_grid=sc.geometry.default_phi_grid(64))
    for name in ("1e", "1o", "2e", "2o"):
        assert np.all(emission_map.times[name] == 0.0)


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


def test_map_mirror_symmetry_about_the_axis_plane(base_map):
    # reflection x -> -x maps phi -> pi - phi and leaves the device unchanged
    phi = base_map.phi_grid
    n = phi.size
    for name in ("1e", "1o", "2e", "2o"):
        t = base_map.times[name]
        # phi_k -> pi - phi_k lands back on the grid (uniform, endpoint-free)
        mirrored = np.array([(math.pi - p) % (2 * math.pi) for p in phi])
        idx = np.rint(mirrored / (2 * math.pi / n)).astype(int) % n
        assert np.allclose(t[idx], t, atol=1e-9)


def test_mismatch_at_beam_azimuths(base_map):
    delayed = base_map.with_delays(sc.map_flattening_delays(base_map))
    total = sc.pairing_mismatch(delayed)
    for phi in (math.pi / 2, 3 * math.pi / 2):
        at = sc.mismatch_at_azimuth(delayed, phi)
        assert at["phi_rad"] == pytest.approx(phi, abs=0.02)
        assert 0.0 <= at["1e_2o"] <= total
        assert 0.0 <= at["1o_2e"] <= total


def test_map_csv_format(base_map):
    csv = base_map.with_delays({"1e": 410.0, "2e": 31.0}).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"
    assert len(lines) == 1 + base_map.phi_grid.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    for tok in first[1:]:
        assert len(tok.replace(".", "").replace("-", "").lstrip("0")) <= 6
        assert float(tok) > 0
