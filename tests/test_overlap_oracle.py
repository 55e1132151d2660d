"""First-principles oracle of the rate model's overlap window and contrast.

Arm A carries {1o, 2e + tau_A}, arm B {1e + tau_B, 2o}.  A pair born at
fraction x of crystal 1 leaves with d = t_B - t_A = C + x span, where
span = t_o - t_e and C = t_e + t_e' - 2 t_o + tau_B; one born at fraction y
of crystal 2 leaves with d = (1 - y) span - tau_A.  Two amplitudes of one
d interfere; their arm-A times differ by

    a1 - a2 = x t_p + (2 - x) t_o - (1 + y) t_p - (1 - y) t_e - tau_A,

and the pump amplitude exp(-sigma^2 t^2 / 4) weighs their overlap by
exp(-sigma^2 (a1 - a2)^2 / 8).  Integrated by quadrature over the d that
both births reach and divided by span (the self-overlaps), this is the
fringe contrast at pi/4 analyzers; where no d is shared it is 0.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import spdc_cascade as sc
from spdc_cascade.interference import aligned_contrast

REFERENCE_CONTRAST = 0.8605903239656307  # the oracle at the closed-form delays


def overlap_contrast(params, tau_a, tau_b):
    t = params.times
    span = t.t_o - t.t_e
    c = t.t_e + t.t_e2 - 2.0 * t.t_o + tau_b
    lo, hi = max(c, -tau_a), min(c + span, span - tau_a)
    if not lo < hi:
        return 0.0

    def weight(d):
        x = (d - c) / span
        y = 1.0 - (d + tau_a) / span
        gap = x * t.t_p + (2.0 - x) * t.t_o - (1.0 + y) * t.t_p - (1.0 - y) * t.t_e - tau_a
        return math.exp(-params.sigma**2 * gap * gap / 8.0)

    value, _ = quad(weight, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    return value / span


def draw_params(seed, thickness_mm, cut_deg, bandwidth_nm, n=12):
    """n designs from a box, each with t_e' shifted by up to +-8 fs."""
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(n):
        crystal = sc.CrystalSpec(sc.BBO, rng.uniform(*thickness_mm), math.radians(rng.uniform(*cut_deg)))
        pump = sc.PumpSpec(rng.uniform(390.0, 400.0), 10.0 ** rng.uniform(*np.log10(bandwidth_nm)))
        params = sc.params_from_crystal(crystal, pump)
        t = params.times
        shifted = sc.PropagationTimes(t.t_p, t.t_o, t.t_e, t.t_e2 + rng.uniform(-8.0, 8.0))
        designs += [params, sc.InterferenceParams(shifted, params.sigma, params.omega)]
    return designs, rng


BOXES = {
    # the benchmark's design box, and a wider one
    "benchmark-box": ((0.5, 3.0), (43.6, 44.5), (0.3, 3.0)),
    "wide-box": ((0.01, 5.0), (43.0, 50.0), (1e-4, 10.0)),
}


def test_oracle_gives_the_reference_maximum_visibility(params):
    tau_a, tau_b = sc.optimal_delays(params.times)
    assert overlap_contrast(params, tau_a, tau_b) == pytest.approx(REFERENCE_CONTRAST, rel=1e-13)
    assert sc.max_visibility(params) == pytest.approx(REFERENCE_CONTRAST, rel=1e-12)


@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES.keys())
def test_aligned_contrast_is_the_overlap_integral(box):
    # 1e-12 relative, down to the rounding of the erf arguments: those are
    # sums of times up to 4 t_p, and the contrast changes by 1/(2D) per fs
    # of their difference, so near the window's edges, where the contrast
    # is small, 4 ulps of 4 t_p give an absolute floor of 8 eps t_p / D
    # (up to 8.6e-15; 2.5 eps t_p / D was the worst of 38 400 samples)
    designs, rng = draw_params(21, *box)
    relative = 0
    for params in designs:
        t = params.times
        tau_a, tau_b = sc.optimal_delays(t)
        span = t.t_o - t.t_e
        floor = 8.0 * np.finfo(float).eps * t.t_p / (2.0 * t.t_p - t.t_o - t.t_e)
        for off_a, off_b in rng.uniform(-0.8, 0.8, (20, 2)) * span:
            a, b = tau_a + off_a, tau_b + off_b
            expected = overlap_contrast(params, a, b)
            assert aligned_contrast(params, a, b) == pytest.approx(expected, rel=1e-12, abs=floor)
            relative += 1e-12 * expected > floor
    assert relative > 300  # most samples are held to 1e-12 relative


@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES.keys())
def test_window_closes_where_the_amplitudes_stop_overlapping(box):
    # the paper prints a wider window, t_o - t_e < tau_A + tau_B < 3 t_o -
    # t_e - t_e'; where it is open and |W| < t_o - t_e is not, the births
    # share no d, and the model reads an exact 0
    designs, _ = draw_params(22, *box, n=6)
    below = 0
    for params in designs:
        t = params.times
        span = t.t_o - t.t_e
        upper = 3.0 * t.t_o - 2.0 * t.t_e - t.t_e2  # |W| < span ends here
        sums = [upper + f * span for f in (1e-6, 0.5, 1.0 - 1e-6)]
        if t.t_e2 < t.t_e:  # then the printed window also opens below
            sums += [t.t_o - t.t_e + f * (t.t_e - t.t_e2) for f in (1e-6, 0.5, 1.0 - 1e-6)]
            below += 1
        tau_a, _ = sc.optimal_delays(t)
        for total in sums:
            assert overlap_contrast(params, tau_a, total - tau_a) == 0.0
            assert aligned_contrast(params, tau_a, total - tau_a) == 0.0
            assert sc.rect_window(params, tau_a, total - tau_a) == 0.0
    assert below > 0
