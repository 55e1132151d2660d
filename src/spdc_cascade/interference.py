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
    r = D / (t_o - t_e),          W = S* - tau_A - tau_B,   S* = 2 t_o - t_e - t_e',
    u = tau_A - tau_B - Delta*,   Delta* = t_o + t_e' - 2 t_p,

maximized (V = 2 erf(sD)) exactly at the compensating delays

    tau_A = (3 t_o - t_e - 2 t_p) / 2,
    tau_B = (t_o - t_e - 2 t_e' + 2 t_p) / 2.

The maximum visibility is the fringe contrast of the rate at these
closed-form delays (`max_visibility`); nothing searches for it.

These delays are the on-axis pair gaps of the emission-time map's classes
(`geometry._class_times` of `propagation_times`): 2o - 1e = tau_B and
1o - 2e = tau_A, to rounding, so averaging over the birth position adds
nothing on axis.  But above the collinear cut angle the cones enclose the
pump axis, so u = 0 is no emission direction: the closed form times a pair
that no pair takes, while the map's flattening delays are the midrange of
the gaps of the directions pairs do take.  On 1.07 mm BBO pumped at 395 nm
(256 azimuths) they sit from the closed form by

    cut angle (deg)   1e - tau_B   2e - tau_A   sum   smallest e angle
    42.9245           +0.23 fs     -0.41 fs     -0.18    0 (collinear)
    43.65             -2.82        +2.61        -0.22    0.0126 rad
    44.5              -6.47        +6.13        -0.33    0.0241
    50.0              -31.22       +28.43       -2.79    0.0736

against the map's own worst pair mismatch of 0.41, 0.61, 0.99 and 3.95 fs.
The offsets grow with the cones' distance from the axis and nearly cancel:
they move mainly tau_A - tau_B, along which the envelope is broad, and
their sum, the delay sum W, by a fraction of a fs up to 44.5 deg.

The model holds only for D > 0 and t_o - t_e > 0 (the e photon outruns
the o photon, as in BBO); `InterferenceParams` refuses a design outside
it (quartz) with a DegenerateParametersError that names the failing
value, so every kernel may divide by both.  The kernels read a design as
(S*, Delta*, D, t_o - t_e), formed once by `InterferenceParams`, and the
delays only through tau_A - tau_B and |W|: `_elementwise` rounds each once
per block, and window, envelope and fringe all read those two values.

The times are floats on the pump axis (`params_from_crystal`) or arrays,
one element per direction, that broadcast with the delays: `_elementwise`
slices their four numbers into its blocks with the delays, so one call
evaluates every direction, equal to the bit to a call per direction.

Rect is the window of delay sums within which the two pair amplitudes
overlap at all: |W| < t_o - t_e, open, with edges at the zero crossings of
V, so the interference term vanishes continuously there (equivalently
t_o - t_e' < tau_A + tau_B < 3 t_o - 2 t_e - t_e').  Derivation: arm A
carries {1o, 2e + tau_A}, arm B {1e + tau_B, 2o}.  A pair born at fraction
x of crystal 1 has t_B - t_A = d = C + x (t_o - t_e), C = t_e + t_e' -
2 t_o + tau_B; one born at fraction y of crystal 2 has d = (1 - y)(t_o -
t_e) - tau_A.  The two amplitudes overlap on the d both reach, an interval
that is empty exactly outside Rect.  There their arm-A times differ by
a1 - a2 = x t_p + (2 - x) t_o - (1 + y) t_p - (1 - y) t_e - tau_A, linear
in d at slope r.  A pump amplitude exp(-sigma^2 t^2/4) weighs the overlap
by exp(-sigma^2 (a1 - a2)^2/8); its integral over d, divided by t_o - t_e,
is the aligned contrast sqrt(8 pi) |V| Rect / (2 sigma D).

erf is computed in this module from the rational approximations of the
Cephes library (ndtr.c), so numpy is the only run-time dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import TWO_PI
from .errors import DegenerateParametersError
from .geometry import PropagationTimes, propagation_times
from .materials import CrystalSpec, PumpSpec
from .numeric import _check_range


@dataclass(frozen=True, eq=False)
class InterferenceParams:
    """Inputs of the coincidence-rate model.

    times  : propagation times through one cascade crystal (fs): floats on
             the pump axis, or arrays, one element per direction, that
             broadcast with the delays
    sigma  : pump spectral width (rad/fs)
    omega  : degenerate photon centre angular frequency (rad/fs)
    phi0   : constant phase offset of the fringe pattern (rad)

    The times must lie in the model's domain (else DegenerateParametersError,
    which names the first failing direction of array times, in C order).
    The scans, the fringe locks, `analysis.optimize_delays_numeric` and
    `analysis.visibility_curve` take one design: float times (else ValueError).
    Instances compare and hash by identity, as array times allow no other
    equality, float times too.
    """

    times: PropagationTimes
    sigma: float
    omega: float
    phi0: float = 0.0
    _terms: tuple = field(init=False, repr=False)  # (S*, Delta*, D, t_o - t_e), for the kernels

    def __post_init__(self):
        for name in ("sigma", "omega", "phi0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        t = self.times
        d, span = 2.0 * t.t_p - t.t_o - t.t_e, t.t_o - t.t_e
        for value, name, reason in ((d, "2*t_p - t_o - t_e", "outside the rate model's domain"),
                                    (span, "t_o - t_e", "the rate model needs an e photon faster than the o "
                                                        "photon (as in BBO)")):
            bad = ~(np.ravel(value) > 0.0)  # C order; nan fails too
            if bad.any():
                k = int(np.argmax(bad))
                where = f" at direction {k}" if np.ndim(value) else ""
                raise DegenerateParametersError(f"{name} = {np.ravel(value)[k]:.6g} fs is not positive; "
                                                f"{reason}{where}")
        object.__setattr__(self, "_terms", (2.0 * t.t_o - t.t_e - t.t_e2, t.t_o + t.t_e2 - 2.0 * t.t_p, d, span))

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
) -> InterferenceParams:
    """Build InterferenceParams from crystal and pump specifications.

    The degenerate photon frequency is half the pump centre frequency; the
    propagation times are those on the pump axis.
    """
    return InterferenceParams(propagation_times(crystal, pump), pump.sigma, 0.5 * pump.omega_bar, phi0)


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
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


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
    """Error function of a float array, from the Cephes ndtr.c rational
    approximations.

    Each element takes one branch of |x|: the x T/U ratio up to 1, the
    exp P/Q tail below 6, and 1 from 6 on, which is what the tail rounds
    to there (so +-inf gives +-1 without overflow); nan gives nan.  Each
    branch is evaluated only on its own elements, and the masking is
    skipped when all of them share one branch.
    """
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
    return np.copysign(y, x)


def _elementwise(kernel, params: InterferenceParams, *args):
    """kernel(params, *others, u, w, delta, d, span): the one evaluator of
    the rate model's kernels; args are the others, then tau_A, tau_B.

    The arguments and the four numbers of params become float arrays of at
    least one dimension.  The broadcast shape runs in blocks of about
    _BLOCK_POINTS samples along axis 0, slicing only the arrays that vary
    along it, and the result does not depend on the blocking, to the last
    bit.  Each block meets its delays with its design once, here: its
    kernel takes the others, then u = tau_A - tau_B (not the shifted u of
    V), w = |W| = |S* - tau_A - tau_B| and the block's Delta*, D and span.
    Scalar (float or 0-d) arguments and times give a Python float, the one
    element of that array.  An infinite delay gives what a nan delay gives,
    with no floating-point warning.
    """
    args = (*args, *params._terms)
    scalar = all(np.ndim(a) == 0 for a in args)
    args = [np.atleast_1d(np.asarray(a, dtype=float)) for a in args]
    full = np.broadcast(*args)
    rows = max(1, _BLOCK_POINTS * full.shape[0] // max(full.size, 1))
    sliced = [a.ndim == full.ndim and a.shape[0] != 1 for a in args]
    out = np.empty(full.shape)
    with np.errstate(invalid="ignore"):  # inf - inf and cos(inf) give nan, as a nan delay does
        for lo in range(0, full.shape[0], rows):
            *others, tau_a, tau_b, target_sum, delta, d, span = (a[lo:lo + rows] if cut else a
                                                                 for a, cut in zip(args, sliced))
            out[lo:lo + rows] = kernel(params, *others, tau_a - tau_b, abs(target_sum - tau_a - tau_b), delta, d, span)
    return float(out[0]) if scalar else out


def _rect(params: InterferenceParams, u, w, delta, d, span):
    """`rect_window` at (u, w, delta, d, span) of `_elementwise`."""
    return 1.0 * (w < span)


def rect_window(params: InterferenceParams, tau_a, tau_b):
    """Amplitude-overlap window: 1 inside, 0 outside or on the boundary."""
    return _elementwise(_rect, params, tau_a, tau_b)


def _envelope(params: InterferenceParams, u, w, delta, d, span):
    """`envelope` at (u, w, delta, d, span) of `_elementwise`."""
    s = params.sigma / (4.0 * math.sqrt(2.0))
    x, rw = u - delta, d / span * w  # x is the shifted u of V
    return _erf(s * (x + d - rw)) - _erf(s * (x - d + rw))


def envelope(params: InterferenceParams, tau_a, tau_b):
    """Slowly varying fringe envelope V(tau_A, tau_B) (no Rect applied)."""
    return _elementwise(_envelope, params, tau_a, tau_b)


def _interference(params: InterferenceParams, factor, u, w, delta, d, span):
    """factor V Rect / (sigma D), the interference term of rate and contrast alike."""
    return factor * _envelope(params, u, w, delta, d, span) * _rect(params, u, w, delta, d, span) / (params.sigma * d)


def _rate(params: InterferenceParams, th_a, th_b, u, w, delta, d, span):
    """`coincidence_rate` at (u, w, delta, d, span) of `_elementwise`."""
    projection = (np.cos(th_a) * np.sin(th_b)) ** 2 + (np.cos(th_b) * np.sin(th_a)) ** 2
    fringe = np.cos(params.omega * u + params.phi0)
    factor = math.sqrt(8.0 * math.pi) * np.cos(th_b) * np.sin(th_b) * np.cos(th_a) * np.sin(th_a) * fringe
    rate = 0.5 * (projection + _interference(params, factor, u, w, delta, d, span))
    rate[rate < 0.0] = 0.0
    return rate


def coincidence_rate(params: InterferenceParams, cfg: AnalyzerDelayConfig):
    """Normalized coincidence rate for analyzer settings and delays.

    Half the sum of the projection term and the interference term
    (`_interference`, shared with `aligned_contrast`) whose factor is
    sqrt(8 pi) cos th_B sin th_B cos th_A sin th_A times the fringe.
    Supports array-valued tau/theta fields for vectorized scans.  A
    negative rate is set to zero, silently: it is rounding, not physics.
    With theta_A + theta_B = pi and the fringe on its crest the two terms
    cancel, and on designs of small sigma D the sum can round below zero
    (-6.9e-18 at 0.1 mm, 43.65 deg, 1e-8 nm, 11 and 169 deg, on crest).  nan
    and -0.0 pass through: a non-finite delay (nan or +-inf) gives nan, with
    no warning.
    """
    return _elementwise(_rate, params, cfg.theta_a, cfg.theta_b, cfg.tau_a, cfg.tau_b)


def _check_one_design(times: PropagationTimes, name: str):
    """Refuse array times: `name` takes one design."""
    if shape := np.broadcast(*times.as_tuple()).shape:
        raise ValueError(f"{name} takes one design (float times), not times of shape {shape}")


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


def _aligned_contrast(params: InterferenceParams, u, w, delta, d, span):
    """`aligned_contrast` at (u, w, delta, d, span) of `_elementwise`."""
    return np.minimum(abs(_interference(params, 0.5 * math.sqrt(8.0 * math.pi), u, w, delta, d, span)), 1.0)


def aligned_contrast(params: InterferenceParams, tau_a, tau_b):
    """Fringe contrast of the rate model with the oscillation phase on crest.

    At pi/4-pi/4 analyzers the projection term is 1/2 and the interference
    term reaches sqrt(8 pi) |V| Rect / (4 sigma D), so the contrast is
    sqrt(8 pi) |V| Rect / (2 sigma D): the rate's interference term
    (`_interference`) with the factor sqrt(8 pi)/2, in magnitude.  Halving
    the factor rather than doubling sigma D rescales by a power of two,
    which rounds nothing.  It is capped at 1 against rounding: as sigma D
    -> 0 the contrast tends to 1 from below, and at 0.1 mm, 43.65 deg and a
    1e-8 nm pump the formula reads 1 - 1.1e-16.
    """
    return _elementwise(_aligned_contrast, params, tau_a, tau_b)


def max_visibility(params: InterferenceParams) -> float:
    """Highest fringe visibility of the space-time interference.

    The aligned contrast (pi/4-pi/4 analyzers, oscillation phase on crest)
    at the envelope peak V = 2 erf(sD), which sits at the closed-form
    compensating delays of `optimal_delays`.  With two delay lines a
    fringe crest can always be placed next to the envelope peak: moving
    tau_A and tau_B by -+shift/2 moves the phase and keeps W
    (`fringe_locked_pair`, which `fringe_locked_delays` calls with neither
    delay given).  A plain tau_B scan samples crest and trough
    half a period apart in the delay sum and reads a few 1e-3 lower, see
    `analysis.extract_visibility`.
    """
    return aligned_contrast(params, *optimal_delays(params.times))


def fringe_locked_delays(params: InterferenceParams) -> tuple:
    """Compensating delays moved by -+shift/2 onto the nearest fringe crest:
    `fringe_locked_pair` with neither delay given."""
    _check_one_design(params.times, "fringe_locked_delays")
    return fringe_locked_pair(params)


def fringe_locked_pair(params: InterferenceParams, tau_a=None, tau_b=None) -> tuple:
    """(tau_A, tau_B): the delays given, the missing ones fringe-locked.

    The envelope peak fixes delays only up to the fast fringe phase; for
    polarization-interference measurements the delays must also sit on a
    fringe maximum, which is how delay lines are tuned in practice.  A
    delay not given starts from `optimal_delays`, keeping its tau_A + tau_B
    (hence W); the phase's offset from its nearest crest, shift =
    remainder(w (tau_A - tau_B) + phi0, 2 pi)/w, at most half a period, is
    then taken out of tau_A - tau_B.  With neither given, tau_A loses
    shift/2 and tau_B gains it, so the sum stays: only the envelope's fall
    in tau_A - tau_B over |shift| then separates the contrast from
    `max_visibility`, 7.8e-8 on the reference design, 1.3e-5 at 0.56 mm and
    2.8 nm.  With one given, the free delay takes the whole shift, so the sum
    stays within half a period of the locked one.  One given must be finite;
    both are returned as they are.  No rate is evaluated.  `_check_range`
    refuses a free delay whose doubles cannot resolve period/512, where
    rounding would move the phase off the crest; tau_B is checked first, the
    larger of the closed-form pair, whose ends a far design's message names.
    """
    _check_one_design(params.times, "fringe_locked_pair")
    if tau_a is not None and tau_b is not None:
        return tau_a, tau_b
    for name, given in (("tau_A", tau_a), ("tau_B", tau_b)):
        if given is not None and not math.isfinite(given):
            raise ValueError(f"{name} = {given} fs is not finite")
    a, b = optimal_delays(params.times)
    if tau_a is not None:
        a, b = tau_a, a + b - tau_a
    elif tau_b is not None:
        a, b = a + b - tau_b, tau_b
    period = fringe_period(params)
    for name, free, given in (("tau_B", b, tau_b), ("tau_A", a, tau_a)):
        if given is None:
            _check_range(f"fringe-crest grid ends of {name}", free - 0.5 * period, free + 0.5 * period, period / 512)
    shift = math.remainder(params.omega * (a - b) + params.phi0, TWO_PI) / params.omega
    if tau_a is None and tau_b is None:
        return a - 0.5 * shift, b + 0.5 * shift
    return (a - shift, b) if tau_a is None else (a, b + shift)
