import math
import warnings

import numpy as np
import pytest

import spdc_cascade as sc
from spdc_cascade.analysis import ScanSeries, _refined_extrema

QUARTER = math.pi / 4


def cfg_quarter(tau_a):
    return sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, 0.0)


# --- closed-form and numerical delay optimization ------------------------------

def test_optimal_delays_equal_times_need_no_compensation():
    times = sc.PropagationTimes(250.0, 250.0, 250.0, 250.0)
    assert sc.optimal_delays(times) == (0.0, 0.0)


def test_optimal_delays_reference_values(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert abs(tau_b - 410.0) < 30.0
    assert abs(tau_a - 31.0) < 15.0


def test_numeric_optimizer_agrees_with_closed_form(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    box = ((tau_a - 50.0, tau_a + 50.0), (tau_b - 50.0, tau_b + 50.0))
    result = sc.optimize_delays_numeric(params, box)
    assert abs(result.tau_a - tau_a) <= 0.5
    assert abs(result.tau_b - tau_b) <= 0.5
    assert not result.on_boundary
    assert result.envelope_value == pytest.approx(
        sc.envelope(params, tau_a, tau_b), rel=1e-6
    )


@pytest.mark.parametrize("thickness", [0.5, 1.07, 2.0])
@pytest.mark.parametrize("sigma_factor", [0.5, 1.0, 2.0])
def test_numeric_optimizer_across_geometries(thickness, sigma_factor, pump):
    crystal = sc.CrystalSpec(sc.BBO, thickness, math.radians(43.65))
    params = sc.params_from_crystal(crystal, pump)
    params = params.with_sigma(sigma_factor * params.sigma)
    tau_a, tau_b = sc.optimal_delays(params.times)
    result = sc.optimize_delays_numeric(
        params, ((tau_a - 30.0, tau_a + 30.0), (tau_b - 30.0, tau_b + 30.0))
    )
    assert abs(result.tau_a - tau_a) <= 0.5
    assert abs(result.tau_b - tau_b) <= 0.5


def test_envelope_peak_location_independent_of_sigma(params):
    # dense-grid check at two spectral widths: the closed-form delays attain
    # the grid maximum both times (at 10x sigma the peak saturates into a
    # double-precision plateau, so "attains the maximum" is the meaningful
    # sigma-independent statement)
    tau_a, tau_b = sc.optimal_delays(params.times)
    offsets = np.arange(-40.0, 40.001, 0.05)
    for factor in (1.0, 10.0):
        scaled = params.with_sigma(factor * params.sigma)
        along_b = sc.envelope(scaled, tau_a, tau_b + offsets)
        along_a = sc.envelope(scaled, tau_a + offsets, tau_b)
        peak = sc.envelope(scaled, tau_a, tau_b)
        assert along_b.max() <= peak + 1e-12
        assert along_a.max() <= peak + 1e-12
        if factor == 1.0:
            # resolvable curvature: the grid maximizer also sits on the spot
            assert abs(offsets[np.argmax(along_b)]) <= 0.5
            assert abs(offsets[np.argmax(along_a)]) <= 0.5


def test_optimizer_flags_boundary_when_box_excludes_optimum(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    result = sc.optimize_delays_numeric(
        params, ((tau_a + 20.0, tau_a + 60.0), (tau_b - 50.0, tau_b + 50.0))
    )
    assert result.on_boundary
    assert result.tau_a == pytest.approx(tau_a + 20.0, abs=0.1)


def test_optimizer_rejects_inverted_box(params):
    with pytest.raises(ValueError, match=r"ends of tau_A, 10\.0 and -10\.0 fs, are not increasing"):
        sc.optimize_delays_numeric(params, ((10.0, -10.0), (0.0, 100.0)))
    # 1e21 +- 50 fs rounds to one point (the spacing of floats there is 131072)
    with pytest.raises(ValueError, match=r"ends of tau_B, 1e\+21 and 1e\+21 fs, coincide in floating point"):
        sc.optimize_delays_numeric(params, ((0.0, 100.0), (1e21 - 50.0, 1e21 + 50.0)))


# --- delay scans ---------------------------------------------------------------

def test_delay_scan_rejects_coarse_step(params):
    period = sc.fringe_period(params)
    with pytest.raises(ValueError, match=f"{period / 8.0:g}"):
        sc.delay_scan(params, cfg_quarter(0.0), 0.0, 50.0, period)


def test_delay_scan_orthogonal_analyzers_machine_flat(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    cfg = sc.AnalyzerDelayConfig(0.0, math.pi / 2, tau_a, 0.0)
    series = sc.delay_scan(params, cfg, tau_b - 50.0, tau_b + 50.0, 0.25)
    assert np.ptp(series.rates) < 1e-9
    assert sc.extract_visibility(series) == 0.0


def test_delay_scan_in_rect_zero_region_is_constant(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b + 4000.0, tau_b + 4020.0, 0.25)
    assert np.ptp(series.rates) == 0.0


def test_delay_scan_envelope_maximal_at_center(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 50.0, tau_b + 50.0, 0.25)
    # oscillating series whose extreme rates occur near the window centre
    assert series.rates.max() > 0.45
    i_max = int(np.argmax(series.rates))
    assert abs(series.xs[i_max] - tau_b) < 10.0


# --- visibility extraction -------------------------------------------------------

def synthetic_series(xs, rates, period=2 * math.pi):
    return ScanSeries(
        "delay_fs", np.asarray(xs, float), np.asarray(rates, float),
        {"fringe_period_fs": period},
    )


def test_extract_visibility_full_contrast_cosine():
    # quadratic extremum fit leaves an O(step^4) bias, ~1e-7 at this sampling
    xs = np.linspace(0.0, 6 * math.pi, 400)
    series = synthetic_series(xs, 1.0 + np.cos(xs))
    assert sc.extract_visibility(series) == pytest.approx(1.0, abs=1e-6)


def test_extract_visibility_constant_series():
    xs = np.linspace(0.0, 20.0, 50)
    series = synthetic_series(xs, np.full(50, 0.7), period=3.0)
    assert sc.extract_visibility(series) == 0.0


def test_extract_visibility_scale_invariant():
    xs = np.linspace(0.0, 8 * math.pi, 500)
    rates = 1.3 + np.cos(xs + 0.4)
    v1 = sc.extract_visibility(synthetic_series(xs, rates))
    v2 = sc.extract_visibility(synthetic_series(xs, 7.3 * rates))
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_extract_visibility_reduces_grid_bias():
    # 8 samples per period is Nyquist-legal but badly quantizes the extrema;
    # parabolic refinement must still recover the contrast to ~1e-3
    xs = np.linspace(0.0, 8 * math.pi, 33)
    series = synthetic_series(xs, 1.0 + 0.5 * np.cos(xs + 0.37))
    raw = (series.rates.max() - series.rates.min()) / (series.rates.max() + series.rates.min())
    fitted = sc.extract_visibility(series)
    expected = 0.5 / 1.0
    assert abs(fitted - expected) < 5e-3
    assert abs(fitted - expected) < abs(raw - expected)


def test_extract_visibility_requires_two_periods():
    xs = np.linspace(0.0, 2.0, 64)
    with pytest.raises(ValueError, match="two fringe periods"):
        sc.extract_visibility(synthetic_series(xs, 1.0 + np.cos(xs), period=2 * math.pi))


def test_extract_visibility_undefined_for_all_zero():
    xs = np.linspace(0.0, 20.0, 64)
    with pytest.raises(sc.UndefinedVisibilityError):
        sc.extract_visibility(synthetic_series(xs, np.zeros(64), period=3.0))


def test_scan_visibility_matches_max_visibility(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 50.0, tau_b + 50.0, 0.25)
    assert sc.extract_visibility(series) == pytest.approx(sc.max_visibility(params), abs=0.01)


def test_measure_fringe_spacing(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 20.0, tau_b + 20.0, 0.2)
    assert sc.measure_fringe_spacing(series) == pytest.approx(
        sc.fringe_period(params), rel=1e-3
    )


def test_fringe_extrema_ignore_flat_stretches(params):
    # a +-400 fs scan runs past the overlap window into flat 0.25 tails, whose
    # step edges must count neither as fringe maxima nor as minima
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 400.0, tau_b + 400.0, 0.25)
    assert series.rates[0] == series.rates[1] == 0.25
    assert sc.measure_fringe_spacing(series) == pytest.approx(
        sc.fringe_period(params), rel=1e-3
    )
    # a crest sampled twice is one maximum, a zero-clamped trough one minimum
    xs = np.arange(12.0)
    rates = np.array([0.5, 0.2, 1.0, 1.0, 0.2, 0.0, 0.0, 0.0, 0.3, 0.9, 0.3, 0.5])
    maxima, minima = (list(zip(x, v)) for _, x, v in _refined_extrema(xs[None], rates[None]))
    assert [x for x, _ in maxima] == [2.5, 9.0]
    assert len(minima) == 3 and minima[1][0] == 5.5


# --- polarization scans ----------------------------------------------------------

def test_polarization_scan_rejects_coarse_step(params):
    tau_a, tau_b = sc.fringe_locked_delays(params)
    with pytest.raises(ValueError, match="step"):
        sc.polarization_scan(params, tau_a, tau_b, QUARTER, 0.0, 2 * math.pi, math.pi / 16)


def test_polarization_visibility_equals_spacetime_at_quarter(params):
    tau_a, tau_b = sc.fringe_locked_delays(params)
    series = sc.polarization_scan(params, tau_a, tau_b, QUARTER, 0.0, 2 * math.pi, math.pi / 64)
    assert sc.extract_visibility(series) == pytest.approx(sc.max_visibility(params), abs=0.01)


def test_polarization_visibility_unity_with_analyzer_at_zero(params):
    tau_a, tau_b = sc.fringe_locked_delays(params)
    series = sc.polarization_scan(params, tau_a, tau_b, 0.0, 0.0, 2 * math.pi, math.pi / 64)
    assert sc.extract_visibility(series) == pytest.approx(1.0, abs=1e-12)


def test_polarization_scan_flat_when_interference_absent(params):
    # with the envelope forced to zero (Rect = 0 region) the pi/4 baseline
    # is theta_B independent
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.polarization_scan(
        params, tau_a, tau_b + 5000.0, QUARTER, 0.0, 2 * math.pi, math.pi / 64
    )
    assert np.ptp(series.rates) < 1e-15
    assert sc.extract_visibility(series) < 1e-12


# --- visibility curve ------------------------------------------------------------

def test_visibility_curve_shape_and_peak(pump):
    # slightly thicker crystal; the curve must stay single peaked with the
    # peak at the compensating delay and zero tails outside the window
    crystal = sc.CrystalSpec(sc.BBO, 1.1, math.radians(43.65))
    params = sc.params_from_crystal(crystal, pump)
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert 410.0 <= tau_b <= 440.0
    grid = np.arange(tau_b - 320.0, tau_b + 320.0, 8.0)
    curve = sc.visibility_curve(params, tau_a, grid)
    assert curve.meta["ordinate"] == "visibility"
    i_peak = int(np.argmax(curve.rates))
    assert abs(curve.xs[i_peak] - tau_b) <= 30.0
    assert curve.rates[i_peak] == pytest.approx(sc.max_visibility(params), abs=0.01)
    # single peak: nondecreasing up to the peak, nonincreasing after (loose)
    tol = 5e-3
    assert np.all(np.diff(curve.rates[: i_peak + 1]) >= -tol)
    assert np.all(np.diff(curve.rates[i_peak:]) <= tol)
    # zero tails outside the overlap window
    span = params.times.t_o - params.times.t_e
    outside = np.abs(curve.xs - tau_b) > span + 12.0
    assert np.all(curve.rates[outside] == 0.0)


def test_visibility_curve_monochromatic_peak(params):
    tiny = params.with_sigma(params.sigma / 1000.0)
    tau_a, tau_b = sc.optimal_delays(tiny.times)
    grid = np.arange(tau_b - 20.0, tau_b + 20.0, 2.0)
    curve = sc.visibility_curve(tiny, tau_a, grid)
    assert curve.rates.max() == pytest.approx(1.0, abs=2e-3)


def scan_visibility_at(params, tau_a, tau_b):
    """Scan-method visibility of the single point tau_b (a curve needs two)."""
    return sc.visibility_curve(params, tau_a, [tau_b, tau_b + 1.0], method="scan").rates[0]


def test_local_fringe_visibility_far_outside_window(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert scan_visibility_at(params, tau_a, tau_b + 5000.0) == 0.0


@pytest.mark.parametrize(
    "thickness_mm, cut_deg, center_nm, bandwidth_nm",
    [(1.07, 43.65, 395.0, 1.0), (0.62, 44.45, 391.0, 2.6), (2.75, 43.7, 398.5, 0.45),
     (0.01, 43.65, 395.0, 1.0)],
    ids=["reference", "thin-broadband", "thick-narrowband", "window-inside-a-row"],
)
def test_scan_visibility_curve_equals_per_point_scans(thickness_mm, cut_deg, center_nm,
                                                     bandwidth_nm):
    # the batched curve gives each point exactly what its own fringe scan
    # gives, out into the flat 0.25 tails beyond the overlap window and at
    # centres so far out that rounding tau_B +- 2 periods moves the scan's
    # width in its last bits: every scan still has 4 * 32 + 1 samples.  At
    # 0.01 mm the window (t_o - t_e ~ 2 fs) is narrower than one scan, so
    # some scans touch it only between their end samples
    crystal = sc.CrystalSpec(sc.BBO, thickness_mm, math.radians(cut_deg))
    params = sc.params_from_crystal(crystal, sc.PumpSpec(center_nm, bandwidth_nm))
    tau_a, tau_b = sc.optimal_delays(params.times)
    far = np.sort(10.0 ** np.random.default_rng(6).uniform(math.log10(2e7), 10.0, 12))
    grid = np.concatenate([-far[::-1], np.arange(tau_b - 600.0, tau_b + 600.5, 10.0), far])
    period = sc.fringe_period(params)
    if thickness_mm < 0.1:
        grid = np.sort(np.concatenate([grid, tau_b + np.arange(-6.0, 6.0, 0.25) * period]))
    curve = sc.visibility_curve(params, tau_a, grid, method="scan")
    loop = [scan_visibility_at(params, tau_a, tb) for tb in grid]
    np.testing.assert_array_equal(curve.rates, loop)
    for tb, vis in zip(grid, curve.rates):
        scan = sc.delay_scan(params, cfg_quarter(tau_a), tb - 2 * period, tb + 2 * period,
                             period / 32)
        assert scan.xs.size == 129
        assert vis == sc.extract_visibility(scan)
    assert np.any(curve.rates == 0.0) and curve.rates.max() > 0.2


def test_scan_visibility_of_non_finite_delays_is_nan(params):
    # outside the window a finite row reads 0 without evaluating the rate;
    # a non-finite tau_A - tau_B (cos(inf), NaN * 0) keeps the rate's NaN
    tau_a, tau_b = sc.optimal_delays(params.times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, grid in ((math.nan, [tau_b, tau_b + 1.0]), (math.inf, [tau_b, tau_b + 1.0]),
                        (-1e308, [1e308 - 1e300, 1e308])):
            assert np.all(np.isnan(sc.visibility_curve(params, a, grid, method="scan").rates))
        rates = sc.visibility_curve(params, tau_a, [tau_b, math.inf], method="scan").rates
    assert rates[0] > 0.8 and math.isnan(rates[1])


# --- quartz delay lines ----------------------------------------------------------

def test_quartz_anchor_one_millimetre():
    assert sc.quartz_calibration(sc.QUARTZ, 790.0, 1.0) == pytest.approx(31.0, abs=3.0)


def test_quartz_anchor_440fs():
    assert sc.delay_to_quartz_thickness(sc.QUARTZ, 790.0, 440.0) == pytest.approx(14.2, abs=0.7)


def test_quartz_zero_thickness():
    assert sc.quartz_calibration(sc.QUARTZ, 790.0, 0.0) == 0.0


def test_quartz_round_trip():
    for mm in (0.3, 1.0, 7.7, 14.2):
        delay = sc.quartz_calibration(sc.QUARTZ, 790.0, mm)
        back = sc.delay_to_quartz_thickness(sc.QUARTZ, 790.0, delay)
        assert back == pytest.approx(mm, abs=1e-9)


def test_prescribe_delays(params):
    prescription = sc.prescribe_delays(params.times, sc.QUARTZ, 790.0)
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert prescription.tau_a_fs == tau_a
    assert prescription.tau_b_fs == tau_b
    per_mm = sc.quartz_calibration(sc.QUARTZ, 790.0, 1.0)
    assert prescription.quartz_a_mm == pytest.approx(tau_a / per_mm, rel=1e-12)
    assert prescription.quartz_b_mm == pytest.approx(tau_b / per_mm, rel=1e-12)


# --- series container --------------------------------------------------------------

def test_scan_series_validation():
    xs = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        ScanSeries("delay_fs", xs[::-1].copy(), np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        ScanSeries("delay_fs", xs, np.array([0.1, -0.2, 0.3]))
    with pytest.raises(ValueError, match="abscissa_kind"):
        ScanSeries("volts", xs, np.ones(3))
    with pytest.raises(ValueError, match="two points"):
        ScanSeries("delay_fs", xs[:1], np.ones(1))


def test_scan_series_csv(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 5.0, tau_b + 5.0, 0.25)
    lines = series.to_csv().strip().split("\n")
    assert lines[0] == "delay_fs,rate"
    assert len(lines) == 1 + series.xs.size
    x0, r0 = lines[1].split(",")
    assert float(x0) == pytest.approx(series.xs[0], rel=1e-5)
    assert float(r0) == pytest.approx(series.rates[0], rel=1e-5)
