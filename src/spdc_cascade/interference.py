"""Normalized two-photon coincidence rate of the cascaded source.

With polarization analyzers at theta_A, theta_B and birefringent delays
tau_A, tau_B, the normalized coincidence rate is

    R = 1/2 { (cos th_A sin th_B)^2 + (cos th_B sin th_A)^2
              + sqrt(8 pi) cos th_B sin th_B cos th_A sin th_A
                * cos[w (tau_A - tau_B) + phi0]
                * V(tau_A, tau_B) * Rect(tau_A, tau_B) / (sigma (2t_p - t_o - t_e)) }

where w is the degenerate photon frequency and sigma the Gaussian spectral
width of the pulsed pump.  The slowly varying envelope is a difference of
error functions,

    V = erf{ s [ u + D - r|W| ] } - erf{ s [ u - D + r|W| ] },

    s = sigma / (4 sqrt 2),       D = 2 t_p - t_o - t_e,
    r = D / (t_o - t_e),          W = 2 t_o - t_e - t_e' - tau_A - tau_B,
    u = tau_A - tau_B - (t_o + t_e' - 2 t_p),

maximized (V = 2 erf(sD)) exactly at the compensating delays

    tau_A = (3 t_o - t_e - 2 t_p) / 2,
    tau_B = (t_o - t_e - 2 t_e' + 2 t_p) / 2.

Rect is the window of delay sums within which the two biphoton amplitudes
can overlap at all.  Two conventions are provided:

  * "zero_aligned" (default): |W| < t_o - t_e, i.e. the window edges
    coincide with the zero crossings of V, so the interference term
    vanishes continuously at the boundary and the rate never goes
    negative.  Equivalent interval: t_o - t_e' < tau_A + tau_B
    < 3 t_o - 2 t_e - t_e'.
  * "as_printed": t_o - t_e < tau_A + tau_B < 3 t_o - t_e - t_e'.  The
    upper edge extends far beyond the envelope's zero crossing, where |V|
    grows toward 2 again and the rate formula can turn negative (clamped
    to zero with a warning).  Kept for comparison; both conventions agree
    on the lower edge whenever t_e = t_e' and everywhere near the
    compensation point.

Both conventions treat the boundary itself as outside (open interval).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .constants import TWO_PI
from .errors import DegenerateParametersError
from .geometry import PropagationTimes, propagation_times
from .materials import CrystalSpec, PumpSpec
from .numeric import golden_section_max

RECT_CONVENTIONS = ("zero_aligned", "as_printed")


@dataclass(frozen=True)
class InterferenceParams:
    """Inputs of the coincidence-rate model.

    times  : propagation times through one cascade crystal (fs)
    sigma  : pump spectral width (rad/fs)
    omega  : degenerate photon centre angular frequency (rad/fs)
    phi0   : constant phase offset of the fringe pattern (rad)
    """

    times: PropagationTimes
    sigma: float
    omega: float
    phi0: float = 0.0
    rect_convention: str = "zero_aligned"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.rect_convention not in RECT_CONVENTIONS:
            raise ValueError(f"rect_convention must be one of {RECT_CONVENTIONS}")

    def with_sigma(self, sigma: float) -> "InterferenceParams":
        return replace(self, sigma=sigma)


@dataclass(frozen=True)
class AnalyzerDelayConfig:
    """Analyzer angles (rad) and birefringent delays (fs) of the two arms."""

    theta_a: float
    theta_b: float
    tau_a: float
    tau_b: float


def params_from_crystal(
    crystal: CrystalSpec,
    pump: PumpSpec,
    phi0: float = 0.0,
    e_angle_dc: float | None = None,
    e_angle_dc_prime: float | None = None,
    rect_convention: str = "zero_aligned",
) -> InterferenceParams:
    """Build InterferenceParams from crystal and pump specifications.

    The degenerate photon frequency is half the pump centre frequency; the
    e-photon angles default to the cut angle (evaluation on the pump axis).
    """
    times = propagation_times(crystal, pump, e_angle_dc, e_angle_dc_prime)
    return InterferenceParams(
        times=times,
        sigma=pump.sigma,
        omega=0.5 * pump.omega_bar,
        phi0=phi0,
        rect_convention=rect_convention,
    )


def _walkoff_scales(times: PropagationTimes):
    d = 2.0 * times.t_p - times.t_o - times.t_e
    if d == 0.0:
        raise DegenerateParametersError("2*t_p - t_o - t_e vanishes; rate model is singular")
    span = times.t_o - times.t_e
    if span == 0.0:
        raise DegenerateParametersError("t_o equals t_e; envelope ratio is singular")
    return d, span


def rect_window(params: InterferenceParams, tau_a, tau_b):
    """Amplitude-overlap window: 1 inside, 0 outside or on the boundary."""
    t = params.times
    total = np.asarray(tau_a, dtype=float) + np.asarray(tau_b, dtype=float)
    if params.rect_convention == "as_printed":
        lo = t.t_o - t.t_e
        hi = 3.0 * t.t_o - t.t_e - t.t_e2
        inside = (total > lo) & (total < hi)
    else:
        _, span = _walkoff_scales(t)
        w = 2.0 * t.t_o - t.t_e - t.t_e2 - total
        inside = np.abs(w) < abs(span)
    out = inside.astype(float)
    return float(out) if out.ndim == 0 else out


def envelope(params: InterferenceParams, tau_a, tau_b):
    """Slowly varying fringe envelope V(tau_A, tau_B) (no Rect applied)."""
    t = params.times
    d, span = _walkoff_scales(t)
    s = params.sigma / (4.0 * math.sqrt(2.0))
    r = d / span
    tau_a = np.asarray(tau_a, dtype=float)
    tau_b = np.asarray(tau_b, dtype=float)
    w = 2.0 * t.t_o - t.t_e - t.t_e2 - tau_a - tau_b
    diff = tau_a - tau_b
    a1 = diff + 4.0 * t.t_p - 2.0 * t.t_o - t.t_e - t.t_e2 - r * np.abs(w)
    a2 = diff + t.t_e - t.t_e2 + r * np.abs(w)
    out = erf(s * a1) - erf(s * a2)
    return float(out) if np.ndim(out) == 0 else out


def coincidence_rate(params: InterferenceParams, cfg: AnalyzerDelayConfig):
    """Normalized coincidence rate for analyzer settings and delays.

    Supports array-valued tau/theta fields for vectorized scans.  The rate
    is clamped at zero; clamping can only occur under the "as_printed"
    Rect convention and triggers a RuntimeWarning.
    """
    t = params.times
    d, _ = _walkoff_scales(t)
    th_a = np.asarray(cfg.theta_a, dtype=float)
    th_b = np.asarray(cfg.theta_b, dtype=float)
    tau_a = np.asarray(cfg.tau_a, dtype=float)
    tau_b = np.asarray(cfg.tau_b, dtype=float)
    projection = (np.cos(th_a) * np.sin(th_b)) ** 2 + (np.cos(th_b) * np.sin(th_a)) ** 2
    fringe = np.cos(params.omega * (tau_a - tau_b) + params.phi0)
    interference = (
        math.sqrt(8.0 * math.pi)
        * np.cos(th_b) * np.sin(th_b) * np.cos(th_a) * np.sin(th_a)
        * fringe
        * envelope(params, tau_a, tau_b)
        * rect_window(params, tau_a, tau_b)
        / (params.sigma * d)
    )
    rate = 0.5 * (projection + interference)
    clipped = rate < 0.0
    if np.any(clipped):
        warnings.warn(
            "coincidence rate clamped to zero (unphysical region of the "
            "as-printed Rect window)",
            RuntimeWarning,
            stacklevel=2,
        )
        rate = np.where(clipped, 0.0, rate)
    return float(rate) if np.ndim(rate) == 0 else rate


def fringe_period(params: InterferenceParams) -> float:
    """Fast-oscillation period 2*pi/omega of the space-time fringes, fs."""
    return TWO_PI / params.omega


def optimal_delays(times: PropagationTimes) -> tuple:
    """Closed-form delays (tau_A, tau_B) that maximize the envelope.

    They equalize the average arrival times of the two photons in each
    beam, erasing the which-crystal timing information.
    """
    tau_a = 0.5 * (3.0 * times.t_o - times.t_e - 2.0 * times.t_p)
    tau_b = 0.5 * (times.t_o - times.t_e - 2.0 * times.t_e2 + 2.0 * times.t_p)
    return tau_a, tau_b


def aligned_contrast(params: InterferenceParams, tau_a, tau_b):
    """Fringe contrast of the rate model with the oscillation phase on crest.

    At pi/4-pi/4 analyzers the projection term is 1/2 and the interference
    term reaches sqrt(8 pi) |V| Rect / (4 sigma |D|), so the contrast is
    sqrt(8 pi) |V| Rect / (2 sigma |D|).  It is capped at 1: values above
    occur only in the unphysical far lobe of the as-printed window, where
    the clamped rate yields full apparent contrast.
    """
    d, _ = _walkoff_scales(params.times)
    contrast = (
        math.sqrt(8.0 * math.pi)
        * np.abs(envelope(params, tau_a, tau_b))
        * rect_window(params, tau_a, tau_b)
        / (2.0 * params.sigma * abs(d))
    )
    out = np.minimum(contrast, 1.0)
    return float(out) if out.ndim == 0 else out


def max_visibility(
    params: InterferenceParams, tau_a: float | None = None, tau_b: float | None = None
) -> float:
    """Highest fringe visibility of the space-time interference.

    The aligned contrast at pi/4-pi/4 analyzers, tau_A at its compensating
    value, maximized by golden-section refinement to 1e-3 fs over tau_B
    within one fringe period of the working point.  With two delay lines
    the fringe crest can always be placed on the envelope peak: shifting
    tau_A and tau_B by +-delta/2 moves the phase without moving the
    envelope.  A plain tau_B scan samples crest and trough half a period
    apart in the delay sum and reads a few 1e-3 lower, see
    `analysis.extract_visibility`.
    """
    opt_a, opt_b = optimal_delays(params.times)
    if tau_a is None:
        tau_a = opt_a
    if tau_b is None:
        tau_b = opt_b
    period = fringe_period(params)
    _, contrast = golden_section_max(
        lambda tb: aligned_contrast(params, tau_a, tb),
        tau_b - 0.5 * period, tau_b + 0.5 * period, 1e-3,
    )
    return contrast


def fringe_locked_delays(params: InterferenceParams) -> tuple:
    """Compensating delays with tau_B snapped onto the nearest fringe crest.

    The envelope peak fixes delays only up to the fast fringe phase; for
    polarization-interference measurements the delays must also sit on a
    fringe maximum, which is how delay lines are tuned in practice.  The
    crest is the highest of 33 samples of the pi/4-pi/4 rate over one
    period centred on the compensating tau_B, refined by golden section
    to 1e-4 fs.
    """
    tau_a, tau_b = optimal_delays(params.times)
    period = fringe_period(params)

    def rate(tb):
        return coincidence_rate(
            params, AnalyzerDelayConfig(math.pi / 4, math.pi / 4, tau_a, tb)
        )

    grid = np.linspace(tau_b - 0.5 * period, tau_b + 0.5 * period, 33)
    crest = grid[np.argmax(rate(grid))]
    half = 0.75 * period / 32.0
    tau_b_crest, _ = golden_section_max(rate, crest - half, crest + half, 1e-4)
    return tau_a, tau_b_crest
