import math

import numpy as np
import pytest

import spdc_cascade as sc

C = 299.792458
QUARTER = math.pi / 4


def synthetic_params(t_p=600.0, t_o=500.0, t_e=420.0, t_e2=None, sigma=0.01,
                     omega=2.4, phi0=0.0, rect="zero_aligned"):
    t_e2 = t_e if t_e2 is None else t_e2
    return sc.InterferenceParams(
        times=sc.PropagationTimes(t_p, t_o, t_e, t_e2),
        sigma=sigma,
        omega=omega,
        phi0=phi0,
        rect_convention=rect,
    )


# --- rect window ---------------------------------------------------------------

def test_rect_window_interior_and_boundaries():
    params = synthetic_params()
    t = params.times
    lo = t.t_o - t.t_e                      # same under both conventions (t_e2 == t_e)
    hi = 3 * t.t_o - 2 * t.t_e - t.t_e2     # zero-aligned upper edge
    mid = 0.5 * (lo + hi)
    assert sc.rect_window(params, 0.0, mid) == 1.0
    assert sc.rect_window(params, 0.0, lo - 10.0) == 0.0
    assert sc.rect_window(params, 0.0, lo) == 0.0          # boundary is outside
    assert sc.rect_window(params, 0.0, hi) == 0.0
    assert sc.rect_window(params, 0.0, hi + 10.0) == 0.0
    assert sc.rect_window(params, mid, 0.0) == sc.rect_window(params, 0.0, mid)


def test_rect_window_as_printed_upper_edge():
    params = synthetic_params(rect="as_printed")
    t = params.times
    lo = t.t_o - t.t_e
    hi = 3 * t.t_o - t.t_e - t.t_e2
    assert sc.rect_window(params, 0.0, lo - 1.0) == 0.0
    assert sc.rect_window(params, 0.0, lo) == 0.0
    assert sc.rect_window(params, 0.0, 0.5 * (lo + hi)) == 1.0
    assert sc.rect_window(params, 0.0, hi - 1.0) == 1.0
    assert sc.rect_window(params, 0.0, hi) == 0.0


def test_envelope_vanishes_at_window_edges(params):
    # the default window is aligned with the envelope's zero crossings, so
    # the interference term switches off continuously at the boundary
    tau_a, tau_b = sc.optimal_delays(params.times)
    span = params.times.t_o - params.times.t_e
    for edge in (tau_b - span, tau_b + span):
        assert abs(sc.envelope(params, tau_a, edge)) < 5e-3


# --- envelope ------------------------------------------------------------------

def test_envelope_peaks_exactly_at_closed_form_delays(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    peak = sc.envelope(params, tau_a, tau_b)
    rng = np.random.default_rng(3)
    offsets = rng.uniform(-200, 200, size=(400, 2))
    values = sc.envelope(params, tau_a + offsets[:, 0], tau_b + offsets[:, 1])
    assert np.all(values <= peak + 1e-12)
    # grid maximizer lands on the closed form within the grid pitch
    grid = np.arange(-200.0, 200.5, 1.0)
    ta, tb = np.meshgrid(tau_a + grid, tau_b + grid, indexing="ij")
    vals = sc.envelope(params, ta, tb)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert abs(grid[i]) <= 0.5 and abs(grid[j]) <= 0.5


def test_envelope_peak_value_is_two_erf(params):
    from scipy.special import erf
    tau_a, tau_b = sc.optimal_delays(params.times)
    t = params.times
    d = 2 * t.t_p - t.t_o - t.t_e
    s = params.sigma / (4 * math.sqrt(2))
    assert sc.envelope(params, tau_a, tau_b) == pytest.approx(2 * erf(s * d), rel=1e-12)


def test_envelope_windowed_tails_vanish(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    for off in (600.0, 2000.0, -600.0, -2000.0):
        prod = sc.envelope(params, tau_a, tau_b + off) * sc.rect_window(
            params, tau_a, tau_b + off
        )
        assert prod == 0.0


def test_envelope_continuity_on_fine_grid(params):
    # no steps: adjacent 0.01 fs samples never differ by more than the
    # analytic slope bound allows (a genuine jump would be O(1)); the only
    # discontinuity of the interference term is the Rect boundary, which is
    # applied outside the envelope
    t = params.times
    d = 2 * t.t_p - t.t_o - t.t_e
    r = d / (t.t_o - t.t_e)
    s = params.sigma / (4 * math.sqrt(2))
    step = 0.01
    slope_bound = s * 2 * r * (2 / math.sqrt(math.pi))
    tau_a, tau_b = sc.optimal_delays(params.times)
    taus = tau_b + np.arange(-250.0, 250.0, step)
    values = sc.envelope(params, tau_a, taus)
    assert np.max(np.abs(np.diff(values))) < 1.5 * slope_bound * step
    windowed = values * sc.rect_window(params, tau_a, taus)
    jumps = np.abs(np.diff(windowed))
    assert np.sum(jumps > 1.5 * slope_bound * step) <= 2  # the two Rect edges


def test_degenerate_parameter_guard():
    params = synthetic_params(t_p=460.0, t_o=500.0, t_e=420.0)  # 2tp = to + te
    with pytest.raises(sc.DegenerateParametersError):
        sc.envelope(params, 0.0, 0.0)
    cfg = sc.AnalyzerDelayConfig(QUARTER, QUARTER, 0.0, 0.0)
    with pytest.raises(sc.DegenerateParametersError):
        sc.coincidence_rate(params, cfg)


# --- coincidence rate ------------------------------------------------------------

def test_orthogonal_analyzers_give_constant_half(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    for off in (0.0, 0.31, 5.0, 50.0):
        rate = sc.coincidence_rate(
            params, sc.AnalyzerDelayConfig(0.0, math.pi / 2, tau_a, tau_b + off)
        )
        assert rate == 0.5


def test_parallel_zero_analyzers_give_zero(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert sc.coincidence_rate(params, sc.AnalyzerDelayConfig(0.0, 0.0, tau_a, tau_b)) == 0.0


def test_rate_oscillates_at_the_fringe_period(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    period = sc.fringe_period(params)
    xs = tau_b + np.arange(-15 * period, 15 * period, period / 32)
    rates = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, xs))
    peaks = [
        i for i in range(1, len(xs) - 1) if rates[i] > rates[i - 1] and rates[i] > rates[i + 1]
    ]
    spacings = np.diff(xs[peaks])
    assert len(spacings) >= 10
    assert np.mean(spacings) == pytest.approx(period, rel=0.01)


def test_rate_invariant_under_analyzer_half_turn(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    rng = np.random.default_rng(5)
    for _ in range(20):
        th_a, th_b = rng.uniform(0, math.pi, 2)
        off = rng.uniform(-30, 30)
        base = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(th_a, th_b, tau_a, tau_b + off))
        flip_a = sc.coincidence_rate(
            params, sc.AnalyzerDelayConfig(th_a + math.pi, th_b, tau_a, tau_b + off)
        )
        flip_b = sc.coincidence_rate(
            params, sc.AnalyzerDelayConfig(th_a, th_b + math.pi, tau_a, tau_b + off)
        )
        assert flip_a == pytest.approx(base, abs=1e-12)
        assert flip_b == pytest.approx(base, abs=1e-12)


def test_rate_outside_window_is_classical_baseline(params):
    # with the interference term forced off (Rect = 0) only the projection
    # terms remain
    tau_a, tau_b = sc.optimal_delays(params.times)
    far = tau_b + 5000.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        th_a, th_b = rng.uniform(0, math.pi, 2)
        rate = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(th_a, th_b, tau_a, far))
        baseline = 0.5 * (
            (math.cos(th_a) * math.sin(th_b)) ** 2 + (math.cos(th_b) * math.sin(th_a)) ** 2
        )
        assert rate == pytest.approx(baseline, abs=1e-15)


def test_as_printed_window_can_clamp_negative_rates(params):
    # far beyond the envelope zero the printed window still admits the
    # interference term, whose magnitude exceeds the baseline there
    printed = sc.InterferenceParams(
        params.times, params.sigma, params.omega, 0.0, rect_convention="as_printed"
    )
    tau_a, _ = sc.optimal_delays(params.times)
    period = sc.fringe_period(printed)
    xs = 3000.0 + np.arange(0.0, 2 * period, period / 64)
    with pytest.warns(RuntimeWarning, match="clamped"):
        rates = sc.coincidence_rate(printed, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, xs))
    assert np.min(rates) == 0.0
    assert np.all(rates >= 0.0)


def test_phi0_shifts_fringe_phase_not_contrast(params):
    shifted = sc.InterferenceParams(params.times, params.sigma, params.omega, phi0=1.1)
    assert sc.max_visibility(shifted) == pytest.approx(sc.max_visibility(params), abs=1e-4)
    tau_a, tau_b = sc.optimal_delays(params.times)
    r0 = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, tau_b))
    r1 = sc.coincidence_rate(shifted, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, tau_b))
    assert abs(r0 - r1) > 1e-3


# --- fringe period -----------------------------------------------------------------

def test_fringe_period_values(params):
    assert sc.fringe_period(params) == pytest.approx(2.635, abs=0.005)
    doubled = sc.InterferenceParams(params.times, params.sigma, 2 * params.omega)
    assert sc.fringe_period(doubled) == pytest.approx(0.5 * sc.fringe_period(params), rel=1e-12)
    params_800 = sc.InterferenceParams(params.times, params.sigma, 2 * math.pi * C / 800.0)
    assert sc.fringe_period(params_800) == pytest.approx(800.0 / C, rel=1e-12)


# --- visibility ------------------------------------------------------------------

def test_max_visibility_reference_parameters(params):
    assert sc.max_visibility(params) == pytest.approx(0.86, abs=0.03)


def test_max_visibility_monochromatic_limit(params):
    tiny = params.with_sigma(1e-9)
    assert sc.max_visibility(tiny) == pytest.approx(1.0, abs=1e-3)


def test_max_visibility_in_rect_zero_region(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert sc.max_visibility(params, tau_a=tau_a, tau_b=tau_b + 5000.0) == 0.0


def test_max_visibility_nonincreasing_in_sigma(params):
    factors = (0.1, 0.5, 1.0, 3.0, 10.0)
    values = [sc.max_visibility(params.with_sigma(f * params.sigma)) for f in factors]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_fringe_locked_delays_sit_on_a_crest(params):
    tau_a, tau_b = sc.fringe_locked_delays(params)
    # locked phase: the oscillatory factor is at +1 to high accuracy
    phase = params.omega * (tau_a - tau_b) + params.phi0
    assert math.cos(phase) == pytest.approx(1.0, abs=1e-6)
    # the crest is picked from one array call; it equals the per-sample calls
    _, tau_b0 = sc.optimal_delays(params.times)
    grid = tau_b0 + sc.fringe_period(params) * np.linspace(-0.5, 0.5, 33)
    loop = [sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, tb))
            for tb in grid]
    array = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, grid))
    np.testing.assert_array_equal(array, loop)
