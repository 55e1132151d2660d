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

The maximum visibility is the fringe contrast of the rate at these
closed-form delays (`max_visibility`); nothing searches for it.

These delays are the on-axis pair gaps of the emission-time map's classes
(`geometry._class_times` of `propagation_times`): 2o - 1e = tau_B and
1o - 2e = tau_A, to rounding, so averaging over the birth position adds
nothing on axis.  What separates the map's flattening delays from them
comes from off-axis directions.  Near the collinear cut angle that
residual stays at about 0.4 fs, not because t_e and t_e' are mislabelled:
at 42.9245 deg the cones still reach u ~ 0.07 rad, and the map delays sit
+0.23 fs (1e - tau_B) and -0.41 fs (2e - tau_A) from the closed form, what
remains of a path term (sec u) and an e-angle term of about +-8 fs each,
which nearly cancel.

The model holds only for D > 0 and t_o - t_e > 0 (the e photon outruns
the o photon, as in BBO); rate, envelope and contrast raise
DegenerateParametersError outside it (quartz), naming the failing value.
Window and envelope read one rounding of |W|.

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

erf is computed in this module from the rational approximations of the
Cephes library (ndtr.c), so numpy is the only run-time dependency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

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
    rect_convention: str = "zero_aligned",
) -> InterferenceParams:
    """Build InterferenceParams from crystal and pump specifications.

    The degenerate photon frequency is half the pump centre frequency; the
    propagation times are those on the pump axis.
    """
    times = propagation_times(crystal, pump)
    return InterferenceParams(
        times=times,
        sigma=pump.sigma,
        omega=0.5 * pump.omega_bar,
        phi0=phi0,
        rect_convention=rect_convention,
    )


# Cephes ndtr.c coefficients, highest power first: erf(x) = x T(x^2)/U(x^2)
# for |x| <= 1, erfc(x) = exp(-x^2) P(x)/Q(x) for 1 < x < 8
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_SATURATION = 6.0  # erf rounds to +-1 from this |x| on

# samples per block of the array rate model: a block's temporaries stay in
# cache, where one pass over the whole broadcast shape streams them through
# memory
_BLOCK_POINTS = 2**13


def _horner(x, coefs):
    """Polynomial with the given coefficients (highest power first) at x."""
    acc = x * coefs[0] + coefs[1]
    for c in coefs[2:]:  # in place on arrays, rebinding on floats
        acc *= x
        acc += c
    return acc


def _is_scalar(x) -> bool:
    """True for a float or 0-d input; np.ndim alone costs a microsecond."""
    return isinstance(x, float) or np.ndim(x) == 0


def _erf_small(ax):
    """erf on 0 <= ax <= 1: ax T(ax^2)/U(ax^2)."""
    z = ax * ax
    y = ax * _horner(z, _ERF_T)
    y /= _horner(z, _ERF_U)
    return y


def _erf_tail(ax):
    """erf on 1 < ax < 6, nan on nan: 1 - exp(-ax^2) P(ax)/Q(ax)."""
    y = np.exp(-(ax * ax))
    y *= _horner(ax, _ERF_P)
    y /= _horner(ax, _ERF_Q)
    return 1.0 - y


def _erf(x):
    """Error function from the Cephes ndtr.c rational approximations.

    Each element takes one branch of |x|: the x T/U ratio up to 1, the
    exp P/Q tail below 6, and 1 from 6 on, which is what the tail rounds
    to there (so +-inf gives +-1 without overflow); nan gives nan.  An
    array evaluates each branch only on its own elements, and skips the
    masking when all of them share one branch.  Scalars take the same
    operations in Python floats, so they agree with array elements to the
    last bit.
    """
    if _is_scalar(x):
        x = float(x)
        ax = abs(x)
        if ax <= 1.0:
            y = _erf_small(ax)
        elif ax >= _ERF_SATURATION:
            y = 1.0
        else:  # nan too
            y = float(_erf_tail(ax))
        return math.copysign(y, x)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax <= 1.0
    n_small = np.count_nonzero(small)
    if n_small == ax.size:
        y = _erf_small(ax)
    else:
        flat = ax >= _ERF_SATURATION
        if n_small == 0 and not flat.any():
            y = _erf_tail(ax)
        else:
            y = np.ones(ax.shape)
            y[small] = _erf_small(ax[small])
            tail = ~(small | flat)
            y[tail] = _erf_tail(ax[tail])
    return np.copysign(y, x, out=y)


def _elementwise(kernel, params: InterferenceParams, *args):
    """kernel(params, *args): the one evaluator of the rate model's kernels.

    Scalar (float or 0-d) arguments give a float, computed in Python floats:
    numpy's per-call overhead would dominate the golden-section searches.
    Arrays run the kernel in blocks of about _BLOCK_POINTS samples along
    axis 0 of their broadcast shape, slicing only the arguments that vary
    along it; the result equals one unblocked call to the last bit.
    """
    if all(map(_is_scalar, args)):
        return float(kernel(params, *map(float, args)))
    args = [np.asarray(a, dtype=float) for a in args]
    full = np.broadcast(*args)
    if full.size <= _BLOCK_POINTS:
        return kernel(params, *args)
    rows = max(1, _BLOCK_POINTS * full.shape[0] // full.size)
    sliced = [a.ndim == full.ndim and a.shape[0] != 1 for a in args]
    out = np.empty(full.shape)
    for lo in range(0, full.shape[0], rows):
        out[lo:lo + rows] = kernel(params, *(a[lo:lo + rows] if cut else a for a, cut in zip(args, sliced)))
    return out


def _walkoff_scales(times: PropagationTimes):
    """(D, t_o - t_e) in fs, both positive inside the rate model's domain."""
    d = 2.0 * times.t_p - times.t_o - times.t_e
    if not d > 0.0:
        raise DegenerateParametersError(f"2*t_p - t_o - t_e = {d:.6g} fs is not positive; outside the rate "
                                        "model's domain")
    span = times.t_o - times.t_e
    if not span > 0.0:
        raise DegenerateParametersError(f"t_o - t_e = {span:.6g} fs is not positive; the rate model "
                                        "needs an e photon faster than the o photon (as in BBO)")
    return d, span


def _overlap_excess(t: PropagationTimes, tau_a, tau_b):
    """|W| = |2 t_o - t_e - t_e' - tau_A - tau_B|, rounded one way for all."""
    return abs(2.0 * t.t_o - t.t_e - t.t_e2 - tau_a - tau_b)


def _rect(params: InterferenceParams, tau_a, tau_b):
    """`rect_window` of float arrays in one pass, or of Python floats."""
    t = params.times
    if params.rect_convention == "as_printed":
        total = tau_a + tau_b
        lo = t.t_o - t.t_e
        hi = 3.0 * t.t_o - t.t_e - t.t_e2
        inside = (total > lo) & (total < hi)
    else:
        _, span = _walkoff_scales(t)
        inside = _overlap_excess(t, tau_a, tau_b) < span
    return 1.0 * inside


def rect_window(params: InterferenceParams, tau_a, tau_b):
    """Amplitude-overlap window: 1 inside, 0 outside or on the boundary."""
    return _elementwise(_rect, params, tau_a, tau_b)


def _envelope(params: InterferenceParams, tau_a, tau_b):
    """`envelope` of float arrays in one pass, or of Python floats."""
    t = params.times
    d, span = _walkoff_scales(t)
    s = params.sigma / (4.0 * math.sqrt(2.0))
    r = d / span
    rw = r * _overlap_excess(t, tau_a, tau_b)
    diff = tau_a - tau_b
    a1 = diff + 4.0 * t.t_p - 2.0 * t.t_o - t.t_e - t.t_e2 - rw
    a2 = diff + t.t_e - t.t_e2 + rw
    return _erf(s * a1) - _erf(s * a2)


def envelope(params: InterferenceParams, tau_a, tau_b):
    """Slowly varying fringe envelope V(tau_A, tau_B) (no Rect applied)."""
    return _elementwise(_envelope, params, tau_a, tau_b)


def _rate(params: InterferenceParams, th_a, th_b, tau_a, tau_b):
    """Unclamped `coincidence_rate` of float arrays in one pass, or of Python floats."""
    d, _ = _walkoff_scales(params.times)
    projection = (np.cos(th_a) * np.sin(th_b)) ** 2 + (np.cos(th_b) * np.sin(th_a)) ** 2
    fringe = np.cos(params.omega * (tau_a - tau_b) + params.phi0)
    interference = (
        math.sqrt(8.0 * math.pi)
        * np.cos(th_b) * np.sin(th_b) * np.cos(th_a) * np.sin(th_a)
        * fringe
        * _envelope(params, tau_a, tau_b)
        * _rect(params, tau_a, tau_b)
        / (params.sigma * d)
    )
    return 0.5 * (projection + interference)


def coincidence_rate(params: InterferenceParams, cfg: AnalyzerDelayConfig):
    """Normalized coincidence rate for analyzer settings and delays.

    Supports array-valued tau/theta fields for vectorized scans.  The rate
    is clamped at zero; clamping can only occur under the "as_printed" Rect
    convention and triggers one RuntimeWarning per call.
    """
    rate = _elementwise(_rate, params, cfg.theta_a, cfg.theta_b, cfg.tau_a, cfg.tau_b)
    clipped = rate < 0.0
    if np.any(clipped):
        warnings.warn(
            "coincidence rate clamped to zero (unphysical region of the "
            "as-printed Rect window)",
            RuntimeWarning,
            stacklevel=2,
        )
        rate = 0.0 if clipped is True else np.where(clipped, 0.0, rate)
    return rate


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


def _aligned_contrast(params: InterferenceParams, tau_a, tau_b):
    """`aligned_contrast` of float arrays in one pass, or of Python floats."""
    d, _ = _walkoff_scales(params.times)
    contrast = (
        math.sqrt(8.0 * math.pi)
        * abs(_envelope(params, tau_a, tau_b))
        * _rect(params, tau_a, tau_b)
        / (2.0 * params.sigma * d)
    )
    return np.minimum(contrast, 1.0)


def aligned_contrast(params: InterferenceParams, tau_a, tau_b):
    """Fringe contrast of the rate model with the oscillation phase on crest.

    At pi/4-pi/4 analyzers the projection term is 1/2 and the interference
    term reaches sqrt(8 pi) |V| Rect / (4 sigma D), so the contrast is
    sqrt(8 pi) |V| Rect / (2 sigma D).  It is capped at 1: values above
    occur only in the unphysical far lobe of the as-printed window, where
    the clamped rate yields full apparent contrast.
    """
    return _elementwise(_aligned_contrast, params, tau_a, tau_b)


def max_visibility(params: InterferenceParams) -> float:
    """Highest fringe visibility of the space-time interference.

    The aligned contrast (pi/4-pi/4 analyzers, oscillation phase on crest)
    at the envelope peak V = 2 erf(sD), which sits at the closed-form
    compensating delays of `optimal_delays`.  With two delay lines the
    fringe crest can always be placed on the envelope peak: shifting tau_A
    and tau_B by +-delta/2 moves the phase without moving the envelope.  A
    plain tau_B scan samples crest and trough half a period apart in the
    delay sum and reads a few 1e-3 lower, see `analysis.extract_visibility`.
    """
    return aligned_contrast(params, *optimal_delays(params.times))


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
