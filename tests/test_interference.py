import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdc_cascade as sc
from spdc_cascade.interference import _BLOCK_POINTS, _erf, aligned_contrast

C = 299.792458
QUARTER = math.pi / 4
EPS = np.finfo(float).eps


def synthetic_params(t_p=600.0, t_o=500.0, t_e=420.0, t_e2=None, sigma=0.01,
                     omega=2.4, phi0=0.0):
    t_e2 = t_e if t_e2 is None else t_e2
    return sc.InterferenceParams(
        times=sc.PropagationTimes(t_p, t_o, t_e, t_e2),
        sigma=sigma,
        omega=omega,
        phi0=phi0,
    )


# --- rect window ---------------------------------------------------------------

def test_rect_window_interior_and_boundaries():
    params = synthetic_params()
    t = params.times
    lo = t.t_o - t.t_e2                     # lower edge
    hi = 3 * t.t_o - 2 * t.t_e - t.t_e2     # upper edge
    mid = 0.5 * (lo + hi)
    assert sc.rect_window(params, 0.0, mid) == 1.0
    assert sc.rect_window(params, 0.0, lo - 10.0) == 0.0
    assert sc.rect_window(params, 0.0, lo) == 0.0          # boundary is outside
    assert sc.rect_window(params, 0.0, hi) == 0.0
    assert sc.rect_window(params, 0.0, hi + 10.0) == 0.0
    assert sc.rect_window(params, mid, 0.0) == sc.rect_window(params, 0.0, mid)


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


def test_erf_matches_scipy_oracle():
    from scipy.special import erf
    one_ulp = math.ulp(1.0)
    special = np.array([0.0, -0.0, 1.0, -1.0, 1.0 + one_ulp, 1.0 - one_ulp / 2, 6.0, -6.0,
                        30.0, -30.0, np.inf, -np.inf, 5e-324])
    x = np.concatenate([special, np.random.default_rng(11).uniform(-8.0, 8.0, 10**6)])
    n_single = special.size + 20000  # one-element calls cost microseconds each
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warnings
        got = _erf(x)
        single = [_erf(x[i:i + 1]) for i in range(n_single)]
        nan_single = _erf(np.array([math.nan]))
    want = erf(x)
    err = np.abs(got - want)
    assert err.max() <= 4.5e-16
    nonzero = want != 0.0
    assert np.max(err[nonzero] / np.abs(want[nonzero])) <= 4.5e-16
    np.testing.assert_array_equal(np.signbit(got[:2]), [False, True])
    np.testing.assert_array_equal(got[6:12], [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    # a point alone and the same point inside a long array agree to the last bit
    np.testing.assert_array_equal(np.concatenate(single), got[:n_single])
    assert nan_single.shape == (1,) and np.isnan(nan_single).all()


@pytest.mark.parametrize("x", [
    np.linspace(-1.0, 1.0, 2001),                                   # x T/U ratio only
    np.concatenate([np.linspace(1.0 + 1e-12, 5.999, 1000),
                    np.linspace(-5.999, -1.0 - 1e-12, 1000)]),       # exp P/Q tail only
    np.array([6.0, -6.0, 7.5, -30.0, 1e300, -1e300, np.inf, -np.inf]),  # saturated only
    np.array([]),
    np.array(0.4),
    np.array(-2.5),
    np.array([0.0, -0.0]),
    np.array([math.nan, -0.5, -math.nan, 3.0, 8.0]),
], ids=["small", "tail", "saturated", "empty", "0-d small", "0-d tail", "signed zeros", "nan"])
def test_erf_branches_equal_scalar_calls(x):
    # each element equals the call on the one-element array holding it alone,
    # whichever branches the whole array takes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _erf(x)
        single = [_erf(np.array([v]))[0] for v in x.ravel()]
    assert np.shape(got) == x.shape
    flat = np.ravel(got)
    np.testing.assert_array_equal(flat, single)  # nan == nan here
    np.testing.assert_array_equal(np.signbit(flat), np.signbit(single))
    np.testing.assert_array_equal(np.signbit(flat), np.signbit(x.ravel()))


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


def test_degenerate_parameter_guard(pump):
    # the model's domain is D = 2 t_p - t_o - t_e > 0 and t_o - t_e > 0:
    # InterferenceParams refuses times outside it, D first
    for times, message in [
        (dict(t_p=460.0, t_o=500.0, t_e=420.0), r"2\*t_p - t_o - t_e = 0 fs"),
        (dict(t_p=400.0, t_o=500.0, t_e=420.0), r"2\*t_p - t_o - t_e = -120 fs"),
        (dict(t_p=600.0, t_o=420.0, t_e=500.0), r"t_o - t_e = -80 fs"),
        (dict(t_p=400.0, t_o=420.0, t_e=500.0), r"2\*t_p - t_o - t_e = -120 fs"),
    ]:
        with pytest.raises(sc.DegenerateParametersError, match=message + " is not positive"):
            synthetic_params(**times)
    # a quartz source: its e photon is the slower one
    quartz = sc.CrystalSpec(sc.QUARTZ, 1.07, math.radians(43.65))
    with pytest.raises(sc.DegenerateParametersError, match=r"^t_o - t_e = -16\.13\d* fs is not positive"):
        sc.params_from_crystal(quartz, pump)
    # sigma and omega must be positive
    params = synthetic_params()
    for name in ("sigma", "omega"):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                dataclasses.replace(params, **{name: bad})
    # sigma, omega and phi0 must be finite: NaN passed the sign checks, and
    # an infinite sigma read a visibility of 0 beside an envelope of 2
    for name in ("sigma", "omega", "phi0"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
                dataclasses.replace(params, **{name: bad})
    with pytest.raises(ValueError, match="sigma must be finite"):
        params.with_sigma(math.nan)


def test_rect_window_switches_where_the_envelopes_w_crosses_the_span(params):
    # the window and the envelope read one rounding of W, ((C - tau_A) -
    # tau_B) with C = 2 t_o - t_e - t_e', so they switch together: stepping
    # tau_B by single ulps across either zero-aligned edge, the window is 1
    # exactly where that |W| is below t_o - t_e.  C - (tau_A + tau_B)
    # rounds differently within a few ulps of the edge for many tau_A
    t = params.times
    c, span = 2.0 * t.t_o - t.t_e - t.t_e2, t.t_o - t.t_e
    tau_a_opt, _ = sc.optimal_delays(t)
    for tau_a in np.random.default_rng(5).uniform(tau_a_opt - 100.0, tau_a_opt + 100.0, 200):
        for edge in ((c - tau_a) - span, (c - tau_a) + span):
            steps = [edge]
            for _ in range(8):
                steps = [np.nextafter(steps[0], -np.inf), *steps, np.nextafter(steps[-1], np.inf)]
            tau_b = np.array(steps)
            inside = 1.0 * (np.abs((c - tau_a) - tau_b) < span)
            assert 0.0 < inside.sum() < tau_b.size  # the steps straddle the edge
            np.testing.assert_array_equal(sc.rect_window(params, tau_a, tau_b), inside)
            assert [sc.rect_window(params, float(tau_a), float(b)) for b in tau_b] == inside.tolist()


# --- blocked evaluation --------------------------------------------------------

def test_blocked_evaluation_equals_per_row_calls(params):
    # arrays are evaluated in blocks of about _BLOCK_POINTS samples along
    # axis 0; each row below is a call of fewer samples, so one block, the
    # reference for the many blocks of the whole array
    tau_a, tau_b = sc.optimal_delays(params.times)

    def rate(th_a, th_b, tau_a, tau_b):
        return sc.coincidence_rate(params, sc.AnalyzerDelayConfig(th_a, th_b, tau_a, tau_b))

    grid_a, grid_b = np.meshgrid(np.linspace(tau_a - 30, tau_a + 30, 317),
                                 np.linspace(tau_b - 30, tau_b + 30, 317), indexing="ij")
    line = tau_b + np.linspace(-3000.0, 3000.0, 200_000)
    rows = line.reshape(200, 1000)
    theta = np.linspace(0.0, math.pi, 400)[:, None]
    taus = tau_b + np.linspace(-40.0, 40.0, 300)
    assert min(grid_a.size, line.size, theta.size * taus.size) > 2 * _BLOCK_POINTS
    assert max(grid_a.shape[1], rows.shape[1], taus.size) < _BLOCK_POINTS
    grid = rate(QUARTER, QUARTER, grid_a, grid_b)
    np.testing.assert_array_equal(
        grid, [rate(QUARTER, QUARTER, a, b) for a, b in zip(grid_a, grid_b)])
    np.testing.assert_array_equal(
        rate(QUARTER, 0.3, tau_a, line),
        np.concatenate([rate(QUARTER, 0.3, tau_a, row) for row in rows]))
    broadcast = rate(theta, QUARTER, tau_a, taus)
    assert broadcast.shape == (400, 300)
    np.testing.assert_array_equal(
        broadcast, [rate(th, QUARTER, tau_a, taus) for th in theta[:, 0]])
    scalar = rate(QUARTER, QUARTER, float(grid_a[7, 5]), float(grid_b[7, 5]))
    # scalars give a Python float with the bits of the same point in an array
    assert type(scalar) is float and scalar == grid[7, 5]
    for func in (sc.envelope, sc.rect_window, aligned_contrast):
        values = func(params, grid_a, grid_b)
        np.testing.assert_array_equal(values, [func(params, a, b) for a, b in zip(grid_a, grid_b)])
        np.testing.assert_array_equal(
            func(params, tau_a, line), np.concatenate([func(params, tau_a, row) for row in rows]))
        a, b = grid_a[7, 5], grid_b[7, 5]  # numpy scalars; float and 0-d below
        for scalar in (func(params, float(a), float(b)), func(params, a, np.array(b))):
            assert type(scalar) is float and scalar == values[7, 5]
    # delays as broadcast views, a column of tau_A and a row of tau_B, give
    # the meshgrid's bits
    col, row = grid_a[:, :1], grid_b[:1, :]
    np.testing.assert_array_equal(rate(QUARTER, QUARTER, col, row), grid)
    for func in (sc.envelope, sc.rect_window, aligned_contrast):
        np.testing.assert_array_equal(func(params, col, row), func(params, grid_a, grid_b))
    # one block exactly (64 rows), and one sample more (3 rows, two blocks)
    for n, n_rows in ((_BLOCK_POINTS, 64), (_BLOCK_POINTS + 1, 3)):
        assert n % n_rows == 0
        taus_b = tau_b + np.linspace(-300.0, 300.0, n).reshape(n_rows, -1)
        np.testing.assert_array_equal(rate(QUARTER, 0.3, tau_a, taus_b),
                                      [rate(QUARTER, 0.3, tau_a, row) for row in taus_b])
        for func in (sc.envelope, sc.rect_window, aligned_contrast):
            np.testing.assert_array_equal(func(params, tau_a, taus_b), [func(params, tau_a, row) for row in taus_b])
    # no sample at all: an empty array of the broadcast shape
    empty = rate(QUARTER, QUARTER, tau_a, np.empty((0, 129)))
    assert empty.shape == (0, 129) and empty.dtype == float


def test_per_direction_times_equal_per_direction_calls(crystal1, pump, params):
    # the times along the cones of a 4096-azimuth reference map, one lane
    # per distinct sin(phi), as a column against a row of tau_B: the blocks
    # slice the times with the delays, and each lane's row has the bits of
    # a call with that lane's scalar times
    phi = sc.geometry.default_phi_grid(4096)
    lanes = sc.geometry._sine_lanes(np.sin(phi))
    u_e, u_o, _ = sc.geometry._cone_polar_angles(crystal1, pump, phi, lanes)
    cone = sc.geometry._cone_times(crystal1, pump, u_o, u_e, lanes[0])
    t_p, t_o, t_e, t_e2 = (np.broadcast_to(x, lanes[0].shape) for x in cone.as_tuple())
    assert t_o.shape == (2049,)
    column = sc.InterferenceParams(sc.PropagationTimes(*(x[:, None] for x in (t_p, t_o, t_e, t_e2))),
                                   params.sigma, params.omega)
    tau_a, tau_b = sc.optimal_delays(params.times)
    span = params.times.t_o - params.times.t_e
    row = tau_b + span * np.array([-1.2, -0.6, 0.0, 0.6, 1.0])  # the last one near the window's edge
    assert t_o.size * row.size > _BLOCK_POINTS
    funcs = {
        "rate": lambda p: sc.coincidence_rate(p, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, row)),
        "envelope": lambda p: sc.envelope(p, tau_a, row),
        "rect": lambda p: sc.rect_window(p, tau_a, row),
        "contrast": lambda p: sc.aligned_contrast(p, tau_a, row),
    }
    blocked = {name: func(column) for name, func in funcs.items()}
    lane_params = [sc.InterferenceParams(sc.PropagationTimes(*map(float, times)), params.sigma, params.omega)
                   for times in zip(t_p, t_o, t_e, t_e2)]
    for name, func in funcs.items():
        assert blocked[name].shape == (2049, 5), name
        assert blocked[name].tobytes() == np.array([func(p) for p in lane_params]).tobytes(), name
    assert 0.0 < blocked["rect"][:, -1].sum() < 2049  # the edge falls between the lanes
    # the domain check reads every direction and names the first that fails
    for k, field, value, message in [(1000, "t_o", t_e[1000] - 1.0, r"t_o - t_e = -1 fs .* \(as in BBO\)"),
                                     (7, "t_e", 2.0 * t_p[7] - t_o[7] + 2.0, r"2\*t_p - t_o - t_e = -2 fs .*domain")]:
        bad = dict(zip(("t_p", "t_o", "t_e", "t_e2"), (x[:, None].copy() for x in (t_p, t_o, t_e, t_e2))))
        bad[field][k] = value
        with pytest.raises(sc.DegenerateParametersError, match=f"^{message} at direction {k}$"):
            sc.InterferenceParams(sc.PropagationTimes(**bad), params.sigma, params.omega)


ONE_DESIGN_CALLS = {
    "fringe_locked_delays": lambda p: sc.fringe_locked_delays(p),
    "fringe_locked_pair": lambda p: sc.interference.fringe_locked_pair(p, 1.0, 2.0),
    "delay_scan": lambda p: sc.delay_scan(p, sc.AnalyzerDelayConfig(QUARTER, QUARTER, 0.0, 0.0), 0.0, 10.0, 0.1),
    "polarization_scan": lambda p: sc.polarization_scan(p, 0.0, 0.0, QUARTER, 0.0, math.pi, 0.01),
    "visibility_curve": lambda p: sc.visibility_curve(p, 0.0, [0.0, 1.0]),
    "optimize_delays_numeric": lambda p: sc.optimize_delays_numeric(p, ((0.0, 10.0), (0.0, 10.0))),
    "prescribe_delays": lambda p: sc.prescribe_delays(p.times, sc.QUARTZ, 790.0),
}


@pytest.mark.parametrize("name", ONE_DESIGN_CALLS)
def test_one_design_functions_refuse_array_times(params, name):
    # one ValueError line, not numpy's TypeError, broadcast or truth-value
    # error from deep inside; the elementwise functions take the same times
    t = params.times
    two = sc.InterferenceParams(sc.PropagationTimes(t.t_p, np.array([t.t_o, t.t_o + 1.0]), t.t_e, t.t_e2),
                                params.sigma, params.omega)
    ONE_DESIGN_CALLS[name](params)
    with pytest.raises(ValueError, match=rf"^{name} takes one design \(float times\), not times of shape \(2,\)$"):
        ONE_DESIGN_CALLS[name](two)
    assert sc.max_visibility(two).shape == (2,)


ARRAY_HOLDERS = {
    "InterferenceParams": lambda p, m: sc.InterferenceParams(
        sc.PropagationTimes(p.times.t_p, np.array([p.times.t_o, p.times.t_o + 1.0]), p.times.t_e, p.times.t_e2),
        p.sigma, p.omega),
    "EmissionTimeMap": lambda p, m: sc.EmissionTimeMap(m.phi_grid.copy(), {k: v.copy() for k, v in m.times.items()}),
    "ScanSeries": lambda p, m: sc.ScanSeries("delay_fs", np.array([0.0, 1.0]), np.array([0.5, 0.25])),
    "PropagationTimes": lambda p, m: sc.PropagationTimes(*(np.array([t, t + 1.0]) for t in p.times.as_tuple())),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(params, base_map, name):
    # two instances of equal but distinct arrays: value equality has no one
    # truth value there, so they compare and hash by identity, and neither
    # == nor hash raises numpy's ambiguity ValueError or a TypeError
    a, b = (ARRAY_HOLDERS[name](params, base_map) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


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


def _before_guards(params, theta_a, theta_b, tau_a, tau_b):
    """(contrast, rate) before the contrast's cap and the rate's clamp, as
    `_aligned_contrast` and `_rate` form them from one block of
    `_elementwise` at float delays and each angle of the array theta_b."""
    target_sum, *design = params._terms
    u, w = np.array([tau_a - tau_b]), np.array([abs(target_sum - tau_a - tau_b)])
    contrast = abs(sc.interference._interference(params, 0.5 * math.sqrt(8.0 * math.pi), u, w, *design))
    projection = (np.cos(theta_a) * np.sin(theta_b)) ** 2 + (np.cos(theta_b) * np.sin(theta_a)) ** 2
    factor = (math.sqrt(8.0 * math.pi) * np.cos(theta_b) * np.sin(theta_b) * np.cos(theta_a) * np.sin(theta_a)
              * np.cos(params.omega * u + params.phi0))
    return contrast[0], 0.5 * (projection + sc.interference._interference(params, factor, u, w, *design))


def test_negative_rate_rounding_is_clamped_silently():
    # at theta_A + theta_B = pi on a fringe crest the two terms of the rate
    # cancel; with sigma D this small the contrast rounds to 1 and, at
    # these angles, the sum a few 1e-18 below zero.  The rate reads 0, a
    # float, with no warning
    crystal = sc.CrystalSpec(sc.BBO, 0.1, math.radians(43.65))
    params = sc.params_from_crystal(crystal, sc.PumpSpec(395.0, 1e-8))
    tau_a, tau_b = 1.9059270636192973, 38.79811599253491  # its `fringe_locked_delays`
    theta_a, theta_b = math.radians(11.0), np.radians([169.0, 349.0])
    _, unclamped = _before_guards(params, theta_a, theta_b, tau_a, tau_b)
    assert np.all(unclamped < 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(theta_a, theta_b, tau_a, tau_b))
        scalar = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(theta_a, theta_b[0], tau_a, tau_b))
    assert rates.tolist() == [0.0, 0.0]
    assert type(scalar) is float and scalar == 0.0
    # nan passes through the clamp
    assert math.isnan(sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, 0.3, tau_a, math.nan)))


def test_infinite_delays_give_what_a_nan_delay_gives_silently(params):
    # rect 0, the others nan, with no floating-point warning, whichever
    # delay is non-finite and wherever it sits in an array
    tau_a, tau_b = sc.optimal_delays(params.times)
    delays = [(tau_a, x) for x in (math.inf, -math.inf, math.nan)]
    delays += [(x, tau_b) for x in (math.inf, -math.inf, math.nan)] + [(math.inf, math.inf), (math.inf, -math.inf)]
    functions = {
        "rect_window": sc.rect_window,
        "envelope": sc.envelope,
        "aligned_contrast": aligned_contrast,
        "coincidence_rate": lambda p, a, b: sc.coincidence_rate(p, sc.AnalyzerDelayConfig(QUARTER, QUARTER, a, b)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, f in functions.items():
            for a, b in delays:
                value = f(params, a, b)
                array = f(params, np.array([tau_a, a]), np.array([tau_b, b]))
                assert (value == 0.0) if name == "rect_window" else math.isnan(value), (name, a, b, value)
                assert array[0] == f(params, tau_a, tau_b)
                assert array[1:].tobytes() == np.array([value]).tobytes(), (name, a, b, array)
        for method in ("aligned", "scan"):
            curve = sc.visibility_curve(params, tau_a, [tau_b - 1.0, tau_b, math.inf], method=method)
            assert np.isfinite(curve.rates[:2]).all() and math.isnan(curve.rates[2]), method


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(thickness=st.floats(0.01, 5.0), cut_deg=st.floats(43.6, 50.0), center=st.floats(390.0, 400.0),
       bandwidth=st.floats(1e-8, 5.0))
@example(thickness=0.1, cut_deg=43.65, center=395.0, bandwidth=1e-8)  # contrast 1 - eps/2
@example(thickness=0.01, cut_deg=43.0, center=395.0, bandwidth=1e-8)  # rate 0.125 eps
@example(thickness=1.6625, cut_deg=48.628, center=397.54, bandwidth=1.9e-8)  # rate 0.375 eps
@example(thickness=1.2719375880091597, cut_deg=50.0, center=390.0, bandwidth=1e-8)  # contrast 1, rate -0.125 eps
def test_rate_and_contrast_before_their_guards_are_off_by_rounding_only(thickness, cut_deg, center, bandwidth):
    # the sums that the rate's clamp and the contrast's cap guard
    # (`_before_guards`), at the envelope peak and at the crest nearest it
    # (tau_A and tau_B moved by +-delta/2, so W stays).  There, at theta_A +
    # theta_B = pi, the rate is (1 - contrast)/4: with the contrast at most
    # 1, only the rounding of its two terms near 1/2 takes it below zero.
    # The designs here reach -eps/8; the bound leaves a factor of two
    crystal = sc.CrystalSpec(sc.BBO, thickness, math.radians(cut_deg))
    params = sc.params_from_crystal(crystal, sc.PumpSpec(center, bandwidth))
    tau_a0, tau_b0 = sc.optimal_delays(params.times)
    period = sc.fringe_period(params)
    half = 0.5 * (period * round((tau_a0 - tau_b0) / period) - (tau_a0 - tau_b0))
    for tau_a, tau_b in ((tau_a0, tau_b0), (tau_a0 + half, tau_b0 - half)):
        contrast, unclamped = _before_guards(params, QUARTER, np.radians([135.0, 315.0]), tau_a, tau_b)
        assert contrast <= 1.0, (tau_a, tau_b, (contrast - 1.0) / EPS)
        assert unclamped.min() >= -EPS / 4, (tau_a, tau_b, unclamped.min() / EPS)


def test_max_visibility_is_capped_at_one():
    # as sigma D -> 0 the contrast tends to 1 from below; here the formula
    # rounds to 1 - 1.1e-16, and the cap would hold it at 1 against rounding
    crystal = sc.CrystalSpec(sc.BBO, 0.1, math.radians(43.65))
    params = sc.params_from_crystal(crystal, sc.PumpSpec(395.0, 1e-8))
    assert sc.max_visibility(params) <= 1.0
    assert sc.max_visibility(params) == pytest.approx(1.0, abs=1e-14)


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


def test_max_visibility_is_contrast_at_closed_form_delays(params):
    # the visibility-curve peak of the reference design (its grid passes
    # through the compensating tau_B); the formula in 50 digits at these
    # float times and delays reads 0.860590323965631125
    visibility = sc.max_visibility(params)
    assert visibility == 0.8605903239656311
    assert visibility == aligned_contrast(params, *sc.optimal_delays(params.times))


def test_max_visibility_in_rect_zero_region(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert aligned_contrast(params, tau_a, tau_b + 5000.0) == 0.0


def test_max_visibility_nonincreasing_in_sigma(params):
    factors = (0.1, 0.5, 1.0, 3.0, 10.0)
    values = [sc.max_visibility(params.with_sigma(f * params.sigma)) for f in factors]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(thickness=st.floats(0.05, 5.0), cut_deg=st.floats(43.6, 50.0), center=st.floats(390.0, 400.0),
       bandwidth=st.floats(0.01, 5.0), factor=st.floats(1.01, 10.0))
def test_max_visibility_does_not_increase_with_bandwidth_or_thickness(thickness, cut_deg, center, bandwidth,
                                                                       factor):
    # V = sqrt(8 pi) erf(sigma D / 4 sqrt 2) / (sigma D), capped at 1,
    # decreases in sigma D; sigma grows with the bandwidth, D with the thickness
    def visibility(thickness_mm, bandwidth_nm):
        crystal = sc.CrystalSpec(sc.BBO, thickness_mm, math.radians(cut_deg))
        return sc.max_visibility(sc.params_from_crystal(crystal, sc.PumpSpec(center, bandwidth_nm)))

    base = visibility(thickness, bandwidth)
    assert visibility(factor * thickness, bandwidth) <= base
    assert visibility(thickness, factor * bandwidth) <= base


def test_fringe_locked_delays_sit_on_a_crest(params, crest_params):
    for k, design in enumerate(crest_params):
        tau_a, tau_b = sc.fringe_locked_delays(design)
        tau_a0, tau_b0 = sc.optimal_delays(design.times)
        # locked phase: the oscillatory factor is at +1 to high accuracy
        phase = design.omega * (tau_a - tau_b) + design.phi0
        assert math.cos(phase) == pytest.approx(1.0, abs=1e-6)
        # tau_A and tau_B move by +-delta/2, so W stays on the envelope's kink
        assert abs((tau_a + tau_b) - (tau_a0 + tau_b0)) <= 2 * math.ulp(tau_a0 + tau_b0)
        # the crest lies within half a period of the peak in tau_A - tau_B,
        # over which the envelope, W kept, falls at most by the ratio `fall`;
        # on the first three designs the contrast is the peak's within 1e-6
        peak = sc.max_visibility(design)
        contrast = aligned_contrast(design, tau_a, tau_b)
        quarter = sc.fringe_period(design) / 4
        fall = sc.envelope(design, tau_a0 + quarter, tau_b0 - quarter) / sc.envelope(design, tau_a0, tau_b0)
        assert peak * fall - 4 * EPS <= contrast <= peak, (k, peak, contrast)
        assert k >= 3 or peak - contrast <= 1e-6, (k, peak, contrast)
    # a rate scan in tau_B at the locked tau_A is one array call; it equals
    # the per-sample calls
    tau_a, _ = sc.fringe_locked_delays(params)
    _, tau_b0 = sc.optimal_delays(params.times)
    grid = tau_b0 + sc.fringe_period(params) * np.linspace(-0.5, 0.5, 33)
    loop = [sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, tb))
            for tb in grid]
    array = sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, grid))
    np.testing.assert_array_equal(array, loop)


def test_fringe_locked_pair_keeps_the_given_delay_and_locks_the_other(crest_params):
    # a delay given alone is kept; the other keeps the locked sum tau_A +
    # tau_B within half a period and sits on a crest, whose contrast is
    # within 1e-3 of the best of 31 crests about it (the given delay fixed)
    for k, design in enumerate(crest_params):
        locked = sc.fringe_locked_delays(design)
        closed = sc.optimal_delays(design.times)
        period = sc.fringe_period(design)
        assert sc.interference.fringe_locked_pair(design) == locked
        assert sc.interference.fringe_locked_pair(design, *closed) == closed
        crests = period * np.arange(-15, 16)
        for side in (0, 1):
            for offset in (0.0, 5.0, -20.0):
                given = closed[side] + offset
                pair = sc.interference.fringe_locked_pair(design, **{("tau_a", "tau_b")[side]: given})
                assert pair[side] == given
                phase = design.omega * (pair[0] - pair[1]) + design.phi0
                assert abs(math.remainder(phase, 2 * math.pi)) <= 1e-6, (k, side, offset)
                assert abs(sum(pair) - sum(locked)) <= 0.5 * period * (1 + 1e-9), (k, side, offset)
                free = pair[1 - side] + crests
                best = aligned_contrast(design, *((given, free) if side == 0 else (free, given))).max()
                assert aligned_contrast(design, *pair) >= best - 1e-3, (k, side, offset)
    # a given delay that is not finite is named, not the free one's crest
    # grid; both given are still returned as they are
    for keyword, name in (("tau_a", "tau_A"), ("tau_b", "tau_B")):
        for given in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} = {given} fs is not finite$"):
                sc.interference.fringe_locked_pair(crest_params[0], **{keyword: given})
    assert sc.interference.fringe_locked_pair(crest_params[0], math.inf, 0.0) == (math.inf, 0.0)


def test_fringe_locked_tau_b_is_the_maximum_of_the_rate(benchmark_params):
    # a bounded scalar search for the pi/4-pi/4 rate's maximum at the locked
    # tau_A, within a quarter period, agrees with the locked tau_B to 1e-4 fs
    from scipy.optimize import minimize_scalar

    for params in benchmark_params:
        tau_a, tau_b = sc.fringe_locked_delays(params)
        quarter = sc.fringe_period(params) / 4

        def negative_rate(tb):
            return -sc.coincidence_rate(params, sc.AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, tb))

        best = minimize_scalar(negative_rate, bounds=(tau_b - quarter, tau_b + quarter), method="bounded",
                               options={"xatol": 1e-9})
        assert best.success
        assert abs(best.x - tau_b) <= 1e-4, (params, best.x, tau_b)
