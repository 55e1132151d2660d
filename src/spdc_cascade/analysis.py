"""Experiment-level routines: delay and polarization scans, fringe
visibility extraction, numerical delay optimization and quartz delay-line
calibration.

Scans evaluate the analytic coincidence-rate model on regular grids and
return ScanSeries objects; visibility is always extracted from fitted
fringe extrema (local parabola through the three samples bracketing each
sampled extremum) so grid discretization does not bias the contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_NM_PER_FS
from .errors import UndefinedVisibilityError
from .interference import (
    _BLOCK_POINTS,
    AnalyzerDelayConfig,
    InterferenceParams,
    _check_one_design,
    aligned_contrast,
    coincidence_rate,
    envelope,
    fringe_period,
    optimal_delays,
    rect_window,
)
from .materials import DispersionModel, group_index
from .numeric import _check_range, _csv, _fixed

ABSCISSA_KINDS = ("delay_fs", "analyzer_rad")

# local fringe scans for visibility extraction: +-2 periods, 32 samples/period
FRINGE_WINDOW_PERIODS = 2.0
FRINGE_SAMPLES_PER_PERIOD = 32


@dataclass(frozen=True, eq=False)
class ScanSeries:
    """Ordered (abscissa, rate) samples.

    The abscissa strictly increases, so it holds no NaN; the rates are not
    negative, but a NaN rate (a non-finite delay gives one) passes through:
    `extract_visibility` of a series with one is NaN.
    meta holds what reading them takes: the fringe period of a delay series
    (`fringe_period_fs`, for the span check of `extract_visibility`) and the
    name of a CSV ordinate other than "rate" (`ordinate`).  Series compare
    and hash by identity: their arrays allow no other equality.
    """

    abscissa_kind: str
    xs: np.ndarray
    rates: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.abscissa_kind not in ABSCISSA_KINDS:
            raise ValueError(f"abscissa_kind must be one of {ABSCISSA_KINDS}")
        if self.xs.ndim != 1 or self.rates.ndim != 1:
            raise ValueError(f"scan abscissa and rates must be one-dimensional ({self.xs.shape}, {self.rates.shape})")
        if self.xs.size < 2:
            raise ValueError("a scan needs at least two points")
        if not np.all(np.diff(self.xs) > 0):  # a NaN abscissa fails this too
            raise ValueError("scan abscissa must be strictly increasing")
        if np.any(self.rates < 0):
            raise ValueError("scan rates must be nonnegative")
        if self.xs.shape != self.rates.shape:
            raise ValueError("abscissa and rate arrays must have equal length")

    def to_csv(self) -> str:
        """The samples as CSV: an (abscissa, ordinate) header, then one row each."""
        header = f"{self.abscissa_kind},{self.meta.get('ordinate', 'rate')}"
        return _csv(header, zip(self.xs.tolist(), self.rates.tolist()), _fixed(self.xs) + ",%.6g")


MAX_GRID_POINTS = 10**6  # per scan grid; checked before anything is allocated


def _grid_points(start: float, stop: float, step: float, name: str, **words) -> int:
    """Number of points of `_grid(start, stop, step, name, **words)`.

    `numeric._check_range(name, start, stop, step, **words)` checks the
    range.  The 1e-9-of-a-step slack is widened by the endpoints' rounding,
    so the count depends on the width and step alone.  Checks the point
    budget, so nothing is allocated for a grid over it.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    _check_range(name, start, stop, step, **words)
    rounding = 4 * np.finfo(float).eps * max(abs(start), abs(stop))
    intervals = (stop - start) / step + (1e-9 + rounding / step)
    if not intervals < MAX_GRID_POINTS:
        raise ValueError(
            f"scan grid of {intervals + 1:.4g} points exceeds the budget of "
            f"{MAX_GRID_POINTS} points"
        )
    return math.floor(intervals) + 1


def _grid(start: float, stop: float, step: float, name: str, **words) -> np.ndarray:
    """start, start + step, ... up to stop (within the slack of `_grid_points`)."""
    return start + step * np.arange(_grid_points(start, stop, step, name, **words))


def delay_scan(
    params: InterferenceParams,
    cfg: AnalyzerDelayConfig,
    tau_b_start: float,
    tau_b_stop: float,
    step: float,
) -> ScanSeries:
    """Coincidence rate versus tau_B with everything else frozen.

    cfg.tau_b is ignored; the step must resolve the fringes (at most an
    eighth of the fringe period).
    """
    _check_one_design(params.times, "delay_scan")
    period = fringe_period(params)
    if step > period / 8.0:
        raise ValueError(
            f"step {step:g} fs too coarse; fringe sampling requires step <= "
            f"{period / 8.0:g} fs"
        )
    xs = _grid(tau_b_start, tau_b_stop, step, "scan range ends of tau_B")
    rates = coincidence_rate(params, AnalyzerDelayConfig(cfg.theta_a, cfg.theta_b, cfg.tau_a, xs))
    return ScanSeries("delay_fs", xs, rates, {"fringe_period_fs": period})


def polarization_scan(
    params: InterferenceParams,
    tau_a: float,
    tau_b: float,
    theta_a: float,
    theta_b_start: float,
    theta_b_stop: float,
    step: float,
) -> ScanSeries:
    """Coincidence rate versus the angle of analyzer B, analyzer A fixed."""
    _check_one_design(params.times, "polarization_scan")
    if step > math.pi / 64.0:
        raise ValueError(
            f"step {step:g} rad too coarse; polarization scans require step <= "
            f"{math.pi / 64.0:g} rad"
        )
    xs = _grid(theta_b_start, theta_b_stop, step, "scan range ends of theta_B", unit="rad")
    rates = coincidence_rate(params, AnalyzerDelayConfig(theta_a, xs, tau_a, tau_b))
    return ScanSeries("analyzer_rad", xs, rates)


def _parabola_vertex(x0, y0, x1, y1, x2, y2) -> tuple:
    """Vertex (x, y) of the parabola through three points, elementwise.

    Refines the sampled extrema of `_refined_extrema`, each bracketed by its
    neighbours; falls back to the middle point where the three are collinear.
    """
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    collinear = curv == 0.0
    curv = np.where(collinear, 1.0, curv)  # any nonzero value; its vertex is discarded
    xv = 0.5 * (x0 + x1 - d1 / curv)
    # evaluate the interpolating parabola at its vertex
    yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return np.where(collinear, x1, xv), np.where(collinear, y1, yv)


def _refined_extrema(xs, rates):
    """Parabola-refined interior local maxima and minima of each row.

    xs and rates are (rows, samples) arrays, one sampled series per row.
    Returns (maxima, minima), each a triple (row, x, value) of flat arrays
    ordered by row, then x.  A run of equal samples counts as one point, at
    its first sample, compared with the runs on either side: a crest sampled
    twice is one maximum, a trough clamped to zero one minimum, and a flat
    stretch at either end or a step is none.
    """
    n = rates.shape[1]
    xs, rates = xs.ravel(), rates.ravel()
    is_start = np.ones(rates.shape, dtype=bool)
    is_start[1:] = rates[1:] != rates[:-1]
    is_start[::n] = True
    # each run start against the run starts before and after it, in its row
    start = np.flatnonzero(is_start)
    row = start // n
    before, here, after = rates[start[:-2]], rates[start[1:-1]], rates[start[2:]]
    is_max = (here > before) & (here > after)
    keep = (is_max | ((here < before) & (here < after))) & (row[:-2] == row[2:])
    i, is_max = start[1:-1][keep], is_max[keep]
    x, value = _parabola_vertex(xs[i - 1], rates[i - 1], xs[i], rates[i], xs[i + 1], rates[i + 1])
    row, is_min = i // n, ~is_max
    return (row[is_max], x[is_max], value[is_max]), (row[is_min], x[is_min], value[is_min])


def _fringe_contrast(xs, rates) -> np.ndarray:
    """Contrast (max - min)/(max + min) of each row from its fitted extrema.

    The endpoint samples count as extrema too, unrefined, so flat or
    monotone rows still yield a contrast; the minimum is clamped at zero.
    """
    (hi_row, _, hi), (lo_row, _, lo) = _refined_extrema(xs, rates)
    r_max = np.maximum(rates[:, 0], rates[:, -1])
    np.maximum.at(r_max, hi_row, hi)
    r_min = np.minimum(rates[:, 0], rates[:, -1])
    np.minimum.at(r_min, lo_row, lo)
    r_min = np.maximum(r_min, 0.0)
    total = r_max + r_min
    if np.any(total == 0.0):
        raise UndefinedVisibilityError("all rates vanish; visibility undefined")
    return (r_max - r_min) / total


def _check_span(series: ScanSeries):
    span = series.xs[-1] - series.xs[0]
    if series.abscissa_kind == "analyzer_rad":
        if span < math.pi - 1e-12:
            raise ValueError("polarization series must span at least pi radians")
        return
    period = series.meta.get("fringe_period_fs")
    if period is None:
        raise ValueError("delay series lacks fringe_period_fs metadata for the span check")
    if not span >= 2.0 * period - 1e-9:
        raise ValueError("delay series must span at least two fringe periods")


def extract_visibility(series: ScanSeries) -> float:
    """Fringe contrast (max - min)/(max + min) from fitted extrema.

    The endpoint samples count as extrema too, unrefined, so flat or
    monotone series still yield a contrast.  A NaN rate passes through
    wherever it sits: the contrast is NaN, with no warning.
    """
    _check_span(series)
    if np.isnan(series.rates).any():
        return math.nan
    return float(_fringe_contrast(series.xs[None], series.rates[None])[0])


def measure_fringe_spacing(series: ScanSeries) -> float:
    """Mean spacing between successive refined fringe maxima."""
    (_, positions, _), _ = _refined_extrema(series.xs[None], series.rates[None])
    if positions.size < 2:
        raise ValueError("need at least two fringe maxima to measure a spacing")
    return float(np.mean(np.diff(positions)))


def _fringe_scan_visibility(params: InterferenceParams, tau_a: float, tau_b) -> np.ndarray:
    """Visibility of a simulated short fringe scan centred on each tau_B.

    Pi/4-pi/4 analyzers, +-2 fringe periods at 32 samples per period,
    contrast from fitted extrema.  Each row holds exactly the samples of
    that tau_B's own `delay_scan`.  Whole rows are batched into blocks of at
    most the rate model's _BLOCK_POINTS samples, each with one
    coincidence_rate call and one contrast extraction, except that a row
    wholly outside the Rect window (tau_A - tau_B finite) has the flat rate
    0.5 * projection and reads (r - r)/(r + r) = 0 without them.  The
    finite rows a block samples must resolve their step: `_check_range`
    refuses their tau_B range where doubles lie a step or more apart.
    """
    period = fringe_period(params)
    step = period / FRINGE_SAMPLES_PER_PERIOD
    starts = tau_b - FRINGE_WINDOW_PERIODS * period
    # _grid_points of every row's scan: it depends on the width alone
    n = int(2 * FRINGE_WINDOW_PERIODS * FRINGE_SAMPLES_PER_PERIOD) + 1
    rows = _BLOCK_POINTS // n
    vis = np.zeros(tau_b.shape)
    for lo in range(0, tau_b.size, rows):
        xs = starts[lo:lo + rows, None] + step * np.arange(n)
        finite = np.isfinite(tau_a - xs).all(axis=1)
        live = rect_window(params, tau_a, xs).any(axis=1) | ~finite
        sampled = live & finite
        if sampled.any():
            _check_range("fringe-scan range ends of tau_B", xs[sampled, 0].min(), xs[sampled, -1].max(), step)
        xs = xs[live]
        rates = coincidence_rate(params, AnalyzerDelayConfig(math.pi / 4, math.pi / 4, tau_a, xs))
        vis[lo:lo + rows][live] = _fringe_contrast(xs, rates)
    return vis


def visibility_curve(
    params: InterferenceParams, tau_a: float, tau_b_grid, method: str = "aligned"
) -> ScanSeries:
    """Space-time visibility versus tau_B at fixed tau_A.

    method "aligned" (default) evaluates the fringe contrast of the rate
    model at each tau_B, i.e. the interference amplitude over the pi/4
    baseline with the oscillation phase on crest; this is the theoretical
    curve, reaches 1 in the monochromatic limit and equals max_visibility
    at the compensating tau_B.  method "scan" instead simulates a short
    fringe scan per point (`_fringe_scan_visibility`), which reads a few
    1e-3 lower: its crest and trough sit half a period apart in the delay
    sum.  Both peak at the compensating tau_B and vanish outside the
    amplitude-overlap window.
    """
    _check_one_design(params.times, "visibility_curve")
    tau_b_grid = np.asarray(tau_b_grid, dtype=float)
    if tau_b_grid.ndim != 1:  # before a scan broadcasts it
        raise ValueError(f"tau_B grid must be one-dimensional (shape {tau_b_grid.shape})")
    if method == "aligned":
        vis = aligned_contrast(params, tau_a, tau_b_grid)
    elif method == "scan":
        vis = _fringe_scan_visibility(params, tau_a, tau_b_grid)
    else:
        raise ValueError("method must be 'aligned' or 'scan'")
    meta = {"ordinate": "visibility", "fringe_period_fs": fringe_period(params)}
    return ScanSeries("delay_fs", tau_b_grid, vis, meta)


@dataclass(frozen=True)
class DelayOptimum:
    """Result of the numerical envelope maximization."""

    tau_a: float
    tau_b: float
    envelope_value: float
    on_boundary: bool


def optimize_delays_numeric(params: InterferenceParams, search_box) -> DelayOptimum:
    """Maximize the fringe envelope over a rectangular (tau_A, tau_B) box.

    The highest sample of a 1 fs grid over the box, then of two nested 2-D
    windows around the current point: +-1 fs at 0.1 fs steps, then +-0.1 fs
    at 5e-3 fs steps.  A window samples the envelope's ridge along the delay
    sum (the kink left by its |...| term) directly, and clipped to the box it
    pins a constrained maximizer to the box edge, where it is flagged
    on_boundary.  Raises ValueError, naming the ends, for an axis whose ends
    do not increase or lie too far from 0 for doubles to resolve the 1 fs
    grid, and for a window that they cannot resolve at its step.
    """
    _check_one_design(params.times, "optimize_delays_numeric")
    (a_lo, a_hi), (b_lo, b_hi) = search_box
    extent = "the box needs positive extent on both axes"
    ta = _grid(a_lo, a_hi, 1.0, "search box ends of tau_A", extent=extent)
    tb = _grid(b_lo, b_hi, 1.0, "search box ends of tau_B", extent=extent)
    for half, step in ((1.0, 0.1), (0.1, 5e-3)):
        vals = envelope(params, *np.meshgrid(ta, tb, indexing="ij"))
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        a_cur, b_cur = float(ta[i]), float(tb[j])
        tb = _grid(max(b_lo, b_cur - half), min(b_hi, b_cur + half), step, "refinement window ends of tau_B")
        ta = _grid(max(a_lo, a_cur - half), min(a_hi, a_cur + half), step, "refinement window ends of tau_A")
    vals = envelope(params, *np.meshgrid(ta, tb, indexing="ij"))
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    a_cur, b_cur = float(ta[i]), float(tb[j])
    edge = 0.05
    on_boundary = (
        a_cur - a_lo < edge or a_hi - a_cur < edge or b_cur - b_lo < edge or b_hi - b_cur < edge
    )
    return DelayOptimum(
        tau_a=a_cur,
        tau_b=b_cur,
        envelope_value=float(vals[i, j]),
        on_boundary=on_boundary,
    )


# ---------------------------------------------------------------------------
# birefringent delay-line calibration


def _plate_delay_per_mm(model: DispersionModel, lam_nm: float) -> float:
    """Birefringent group delay per mm of a standard delay plate (fs/mm).

    Uses the group-index difference between the ordinary wave and the
    extraordinary wave propagating perpendicular to the optic axis.
    """
    dng = abs(group_index(model, lam_nm) - group_index(model, lam_nm, math.pi / 2.0))
    return 1e6 * dng / C_NM_PER_FS


def quartz_calibration(model: DispersionModel, lam_nm: float, thickness_mm: float) -> float:
    """Birefringent group delay (fs) of a plate of the given thickness."""
    if not 0 <= thickness_mm < math.inf:
        raise ValueError(f"plate thickness must be finite and nonnegative ({thickness_mm})")
    return thickness_mm * _plate_delay_per_mm(model, lam_nm)


def delay_to_quartz_thickness(model: DispersionModel, lam_nm: float, delay_fs: float) -> float:
    """Plate thickness (mm) realizing a requested birefringent group delay."""
    if not 0 <= delay_fs < math.inf:
        raise ValueError(f"delay must be finite and nonnegative ({delay_fs})")
    return delay_fs / _plate_delay_per_mm(model, lam_nm)


@dataclass(frozen=True)
class DelayPrescription:
    """Compensating delays and their quartz-plate equivalents."""

    tau_a_fs: float
    tau_b_fs: float
    quartz_a_mm: float
    quartz_b_mm: float


def prescribe_delays(times, quartz_model: DispersionModel, lam_nm: float) -> DelayPrescription:
    """Closed-form compensating delays plus quartz thickness equivalents.

    Raises ValueError, naming the delay and its value, when a compensating
    delay is negative: a quartz plate only adds delay.
    """
    _check_one_design(times, "prescribe_delays")
    tau_a, tau_b = optimal_delays(times)
    for name, tau in (("tau_A", tau_a), ("tau_B", tau_b)):
        if not tau >= 0:
            raise ValueError(f"compensating delay {name} = {tau:.2f} fs is negative; "
                             f"no {quartz_model.name} plate realizes it")
    return DelayPrescription(
        tau_a_fs=tau_a,
        tau_b_fs=tau_b,
        quartz_a_mm=delay_to_quartz_thickness(quartz_model, lam_nm, tau_a),
        quartz_b_mm=delay_to_quartz_thickness(quartz_model, lam_nm, tau_b),
    )
