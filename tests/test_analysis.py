import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spdc_cascade as sc
from spdc_cascade.analysis import ScanSeries, _grid, _parabola_vertex, _refined_extrema
from spdc_cascade.numeric import _check_range

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


def test_numeric_optimizer_lands_within_its_step_on_the_benchmark_designs(benchmark_params):
    # the finest window samples at 5e-3 fs, and the envelope peaks at the
    # closed form
    for params in benchmark_params:
        tau_a, tau_b = sc.optimal_delays(params.times)
        result = sc.optimize_delays_numeric(params, ((tau_a - 50.0, tau_a + 50.0), (tau_b - 50.0, tau_b + 50.0)))
        assert abs(result.tau_a - tau_a) <= 5e-3, params
        assert abs(result.tau_b - tau_b) <= 5e-3, params
        assert not result.on_boundary


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


@pytest.mark.parametrize("side", ["below", "above"])
def test_optimizer_pins_tau_b_to_the_edge_of_a_box_that_excludes_the_optimum(benchmark_params, side):
    # the box ends 5 fs short of the optimum's tau_B: the maximizer sits on
    # that edge, and tau_A on the envelope's ridge along it, to within the
    # 5e-3 fs of the finest window of a 1e-3 fs scan along the edge
    for params in benchmark_params:
        tau_a, tau_b = sc.optimal_delays(params.times)
        b_box = (tau_b - 40.0, tau_b - 5.0) if side == "below" else (tau_b + 5.0, tau_b + 40.0)
        edge = b_box[1] if side == "below" else b_box[0]
        result = sc.optimize_delays_numeric(params, ((tau_a - 50.0, tau_a + 50.0), b_box))
        assert result.on_boundary and result.tau_b == edge, params
        xs = _grid(tau_a - 50.0, tau_a + 50.0, 1e-3, "edge scan")
        ridge = xs[np.argmax(sc.envelope(params, xs, edge))]
        assert abs(result.tau_a - ridge) <= 5e-3, params


def test_optimizer_pins_both_delays_to_the_corner_of_a_box_that_excludes_the_optimum(benchmark_params):
    for params in benchmark_params:
        tau_a, tau_b = sc.optimal_delays(params.times)
        result = sc.optimize_delays_numeric(params, ((tau_a + 20.0, tau_a + 60.0), (tau_b + 5.0, tau_b + 40.0)))
        assert result.on_boundary and (result.tau_a, result.tau_b) == (tau_a + 20.0, tau_b + 5.0), params


def test_optimizer_takes_three_envelope_calls(params, monkeypatch):
    # the 1 fs grid over a +-50 fs box (101 x 101), then the +-1 fs window at
    # 0.1 fs (21 x 21) and the +-0.1 fs window at 5e-3 fs (41 x 41); the
    # value of the last window's highest sample is the one returned
    sizes = []
    envelope = sc.analysis.envelope

    def counted(params, tau_a, tau_b):
        sizes.append(np.size(tau_a))
        return envelope(params, tau_a, tau_b)

    monkeypatch.setattr(sc.analysis, "envelope", counted)
    tau_a, tau_b = sc.optimal_delays(params.times)
    sc.optimize_delays_numeric(params, ((tau_a - 50.0, tau_a + 50.0), (tau_b - 50.0, tau_b + 50.0)))
    assert sizes == [10201, 441, 1681]


def test_optimizer_rejects_inverted_box(params):
    with pytest.raises(ValueError, match=r"ends of tau_A, 10\.0 and -10\.0 fs, are not increasing"):
        sc.optimize_delays_numeric(params, ((10.0, -10.0), (0.0, 100.0)))
    # 1e21 +- 50 fs rounds to one point (the spacing of floats there is 131072)
    with pytest.raises(ValueError, match=r"ends of tau_B, 1e\+21 and 1e\+21 fs, coincide in floating point"):
        sc.optimize_delays_numeric(params, ((0.0, 100.0), (1e21 - 50.0, 1e21 + 50.0)))
    # around 2.5e16 fs doubles lie 4 fs apart, coarser than the 1 fs grid
    with pytest.raises(ValueError, match=r"search box ends of tau_A, \S+ and \S+ fs, are too far from 0 for a "
                                         r"step of 1\.0 fs: doubles there lie 4\.0 fs apart"):
        sc.optimize_delays_numeric(params, ((2.5e16 - 50.0, 2.5e16 + 50.0), (0.0, 100.0)))
    # around 3.8e14 fs doubles lie 0.0625 fs apart: the 1 fs grid resolves,
    # the 5e-3 fs window does not
    with pytest.raises(ValueError, match=r"^refinement window ends of tau_B, \S+ and \S+ fs, are too far from 0 "
                                         r"for a step of 0\.005 fs: doubles there lie 0\.0625 fs apart"):
        sc.optimize_delays_numeric(params, ((0.0, 100.0), (3.8e14 - 50.0, 3.8e14 + 50.0)))


def test_range_check_on_both_sides_of_the_resolution_of_doubles():
    # doubles in [2**50, 2**51) lie 0.25 fs apart; the step must exceed that
    # plus the spacing at the width, which bounds the rounding of its multiples
    lo, hi = 2.0**50 + 1.0, 2.0**50 + 101.0
    bound = 0.25 + math.ulp(100.0)
    below = math.nextafter(bound, 0.0)
    with pytest.raises(ValueError, match=rf"^r, {lo!r} and {hi!r} fs, are too far from 0 for a step of "
                                         rf"{re.escape(repr(below))} fs: doubles there lie 0\.25 fs apart, so "
                                         r"neighbouring samples could round equal$"):
        _check_range("r", lo, hi, below)
    step = math.nextafter(bound, math.inf)
    _check_range("r", lo, hi, step)
    assert np.all(np.diff(_grid(lo, hi, step, "r")) > 0)
    # a range's ends, in every unit, named in one format
    with pytest.raises(ValueError, match=r"^scan range ends of theta_B, 1\.0 and 1\.0 rad, coincide in floating "
                                         r"point; the range needs positive extent$"):
        _grid(1.0, 1.0, 0.01, "scan range ends of theta_B", unit="rad")


# --- delay scans ---------------------------------------------------------------

def test_delay_scan_rejects_coarse_step(params):
    period = sc.fringe_period(params)
    with pytest.raises(ValueError, match=f"{period / 8.0:g}"):
        sc.delay_scan(params, cfg_quarter(0.0), 0.0, 50.0, period)
    for step in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="^step must be positive$"):
            sc.delay_scan(params, cfg_quarter(0.0), 0.0, 50.0, step)


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
    with pytest.raises(ValueError, match="two fringe periods"):
        sc.extract_visibility(synthetic_series(np.arange(10.0), np.ones(10), period=math.nan))
    with pytest.raises(ValueError, match="^delay series lacks fringe_period_fs metadata for the span check$"):
        sc.extract_visibility(ScanSeries("delay_fs", xs, 1.0 + np.cos(xs)))


@pytest.mark.parametrize("at", [0, 10, 49])
def test_extract_visibility_passes_a_nan_rate_through_wherever_it_sits(at):
    # one rule for the first sample, an interior one and the last: the
    # contrast is NaN, and nothing warns
    xs = np.linspace(0.0, 6 * math.pi, 50)
    rates = 1.0 + np.cos(xs)
    rates[at] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(sc.extract_visibility(synthetic_series(xs, rates)))


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


def _reference_extrema(xs, rates):
    """`_refined_extrema` in 2-D, the reference it is checked against: the
    next run's start from a reversed running minimum, every candidate
    sample gathered."""
    n = rates.shape[1]
    is_start = np.ones(rates.shape, dtype=bool)
    is_start[:, 1:] = rates[:, 1:] != rates[:, :-1]
    next_start = np.full(rates.shape, n)
    next_start[:, :-1] = np.minimum.accumulate(
        np.where(is_start, np.arange(n), n)[:, :0:-1], axis=1
    )[:, ::-1]
    row, i = np.nonzero(is_start[:, 1:-1])
    i += 1
    j = next_start[row, i]
    inner = j < n
    row, i, j = row[inner], i[inner], j[inner]
    here, before, after = rates[row, i], rates[row, i - 1], rates[row, j]
    is_max = (here > before) & (here > after)
    keep = is_max | ((here < before) & (here < after))
    row, i, is_max = row[keep], i[keep], is_max[keep]
    x, value = _parabola_vertex(
        xs[row, i - 1], rates[row, i - 1], xs[row, i], rates[row, i], xs[row, i + 1], rates[row, i + 1]
    )
    is_min = ~is_max
    return (row[is_max], x[is_max], value[is_max]), (row[is_min], x[is_min], value[is_min])


@st.composite
def _fringe_rows(draw):
    """0-5 rows of 2-40 samples in runs of 1-6 equal values, zeros of both
    signs, NaN and a flat 0.25 among them; some rows are one flat run."""
    shape = (draw(st.integers(0, 5)), draw(st.integers(2, 40)))
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, math.nan]), st.floats(-2.0, 2.0))
    values = draw(arrays(float, shape, elements=value))
    runs = draw(arrays(np.int64, shape, elements=st.integers(1, 6), fill=st.just(1)))
    flat = draw(arrays(bool, shape[0]))
    rates = np.array([np.full(shape[1], v[0]) if f else np.repeat(v, k)[:shape[1]]
                      for v, k, f in zip(values, runs, flat)]).reshape(shape)
    start = draw(arrays(float, (shape[0], 1), elements=st.floats(-1e3, 1e3)))
    return start + draw(st.floats(1e-3, 10.0)) * np.arange(shape[1]), rates


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_fringe_rows())
def test_refined_extrema_equal_the_reference_bit_for_bit(rows):
    for got, want in zip(_refined_extrema(*rows), _reference_extrema(*rows)):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- polarization scans ----------------------------------------------------------

def test_polarization_scan_rejects_coarse_step(params):
    tau_a, tau_b = sc.fringe_locked_delays(params)
    with pytest.raises(ValueError, match="step"):
        sc.polarization_scan(params, tau_a, tau_b, QUARTER, 0.0, 2 * math.pi, math.pi / 16)


def test_polarization_visibility_equals_spacetime_at_quarter(crest_params):
    # at the locked delays the pi/4 scan reads the aligned contrast there
    for params in crest_params:
        tau_a, tau_b = sc.fringe_locked_delays(params)
        series = sc.polarization_scan(params, tau_a, tau_b, QUARTER, 0.0, 2 * math.pi, math.pi / 64)
        visibility = sc.extract_visibility(series)
        assert visibility == pytest.approx(sc.max_visibility(params), abs=0.01)
        assert abs(visibility - sc.aligned_contrast(params, tau_a, tau_b)) <= 1e-12, params


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
    with pytest.raises(ValueError, match="^method must be 'aligned' or 'scan'$"):
        sc.visibility_curve(params, tau_a, grid, method="fit")


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


def test_nan_abscissa_is_refused(params):
    # NaN compares false both ways, so the check asks that every step be
    # positive rather than that none be nonpositive
    tau_a, tau_b = sc.optimal_delays(params.times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("aligned", "scan"):
            with pytest.raises(ValueError, match="scan abscissa must be strictly increasing"):
                sc.visibility_curve(params, tau_a, [tau_b, math.nan, tau_b + 1.0], method=method)
    for xs in ([0.0, math.nan, 1.0], [math.nan, 0.0], [0.0, math.nan]):
        with pytest.raises(ValueError, match="scan abscissa must be strictly increasing"):
            ScanSeries("delay_fs", np.array(xs), np.ones(len(xs)))
    # so is a grid of any other dimension than one, before either method runs
    for method in ("aligned", "scan"):
        for grid, shape in (([[tau_b, tau_b + 1.0]] * 2, r"\(2, 2\)"), (tau_b, r"\(\)")):
            with pytest.raises(ValueError, match=rf"^tau_B grid must be one-dimensional \(shape {shape}\)$"):
                sc.visibility_curve(params, tau_a, grid, method=method)


# --- quartz delay lines ----------------------------------------------------------

def test_quartz_anchor_one_millimetre():
    assert sc.quartz_calibration(sc.QUARTZ, 790.0, 1.0) == pytest.approx(31.0, abs=3.0)


def test_quartz_anchor_440fs():
    assert sc.delay_to_quartz_thickness(sc.QUARTZ, 790.0, 440.0) == pytest.approx(14.2, abs=0.7)


def test_quartz_zero_thickness():
    assert sc.quartz_calibration(sc.QUARTZ, 790.0, 0.0) == 0.0
    assert sc.delay_to_quartz_thickness(sc.QUARTZ, 790.0, 0.0) == 0.0
    # a plate only adds delay, and a finite one: each refusal names the value
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^plate thickness must be finite and nonnegative \({bad}\)$"):
            sc.quartz_calibration(sc.QUARTZ, 790.0, bad)
        with pytest.raises(ValueError, match=rf"^delay must be finite and nonnegative \({bad}\)$"):
            sc.delay_to_quartz_thickness(sc.QUARTZ, 790.0, bad)


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
    # a NaN time gives a NaN delay, which no plate realizes either
    with pytest.raises(ValueError, match="^compensating delay tau_B = nan fs is negative; no quartz plate"):
        sc.prescribe_delays(sc.PropagationTimes(250.0, 250.0, 250.0, math.nan), sc.QUARTZ, 790.0)


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
    with pytest.raises(ValueError, match="^abscissa and rate arrays must have equal length$"):
        ScanSeries("delay_fs", xs, np.ones(2))
    # abscissa and rates of any other dimension than one, named by their shapes
    for x, rates, shapes in ((np.ones((2, 2)), np.ones((2, 2)), r"\(2, 2\), \(2, 2\)"),
                             (np.array(1.0), np.array(1.0), r"\(\), \(\)"), (xs, np.ones((3, 1)), r"\(3,\), \(3, 1\)")):
        with pytest.raises(ValueError, match=rf"^scan abscissa and rates must be one-dimensional \({shapes}\)$"):
            ScanSeries("delay_fs", x, rates)


def test_scan_series_csv(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    series = sc.delay_scan(params, cfg_quarter(tau_a), tau_b - 5.0, tau_b + 5.0, 0.25)
    lines = series.to_csv().strip().split("\n")
    assert lines[0] == "delay_fs,rate"
    assert len(lines) == 1 + series.xs.size
    x0, r0 = lines[1].split(",")
    assert float(x0) == pytest.approx(series.xs[0], rel=1e-5)
    assert float(r0) == pytest.approx(series.rates[0], rel=1e-5)
