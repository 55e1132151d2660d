"""Dispersion engine for uniaxial crystals (beta-BBO, crystalline quartz).

Phase and group refractive indices versus wavelength and propagation angle,
plus the crystal and pump specifications (propagation times through a slab
live in `geometry`).  All dispersion relations are closed-form
Sellmeier-type expressions evaluated with the wavelength in micrometres;
group indices use the analytic derivative

    n_g = n - lambda * dn/dlambda,

never finite differences (finite differences are kept as a test oracle).

Embedded coefficient sources:
    beta-BBO : Kato-form Sellmeier set as tabulated by United Crystals /
               Newlight Photonics (https://www.newlightphotonics.com),
               the same set used by SPDCalc.org.
    quartz   : power-series set for crystalline quartz from Newlight
               Photonics (https://www.newlightphotonics.com/v1/quartz-properties.html).

Additional materials are read at run time from key-value text files by
`config.load_dispersion_model`; this module opens no file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_NM_PER_FS, TWO_PI
from .errors import WavelengthRangeError


@dataclass(frozen=True)
class SellmeierForm:
    """One closed-form n^2(lambda) expression, lambda in um.

    kind "resonant":     n^2 = c0 + c1/(lam^2 - c2) + c3*lam^2
    kind "power_series": n^2 = c0 + c1*lam^2 + c2/lam^2 + c3/lam^4
                                + c4/lam^6 + c5/lam^8
    """

    kind: str
    coefficients: tuple

    def __post_init__(self):
        if self.kind not in ("resonant", "power_series"):
            raise ValueError(f"unknown Sellmeier form {self.kind!r}")
        n = len(self.coefficients)
        if self.kind == "resonant" and n != 4:
            raise ValueError("resonant form takes 4 coefficients")
        if self.kind == "power_series" and not 1 <= n <= 6:
            raise ValueError("power_series form takes 1..6 coefficients")

    def n_squared(self, lam_um: float) -> float:
        c = self.coefficients
        l2 = lam_um * lam_um
        if self.kind == "resonant":
            return c[0] + c[1] / (l2 - c[2]) + c[3] * l2
        acc = c[0]
        if len(c) > 1:
            acc += c[1] * l2
        p = 1.0
        for ck in c[2:]:
            p *= l2
            acc += ck / p
        return acc

    def dn2_dlam(self, lam_um: float) -> float:
        """d(n^2)/dlambda, per um."""
        c = self.coefficients
        l2 = lam_um * lam_um
        if self.kind == "resonant":
            return -2.0 * lam_um * c[1] / (l2 - c[2]) ** 2 + 2.0 * lam_um * c[3]
        acc = 0.0
        if len(c) > 1:
            acc += 2.0 * lam_um * c[1]
        for k, ck in enumerate(c[2:], start=1):
            acc += -2.0 * k * ck / lam_um ** (2 * k + 1)
        return acc


@dataclass(frozen=True)
class DispersionModel:
    """A uniaxial crystal: ordinary and principal extraordinary dispersion."""

    name: str
    sellmeier_o: SellmeierForm
    sellmeier_e: SellmeierForm
    valid_range_nm: tuple


def _n_squared(model: DispersionModel, pol: str, lam_nm: float, interior: bool = False) -> float:
    """n^2 of the model's pol-form ("o" or "e") at lam_nm: the one read of a
    Sellmeier form behind every index, checked before any square root.

    Raises WavelengthRangeError outside the model's interval (its strict
    interior if interior), and ValueError, naming the material, the
    polarization, the wavelength and n^2, unless n^2 > 0.
    """
    lo, hi = model.valid_range_nm
    if not (lo < lam_nm < hi if interior else lo <= lam_nm <= hi):
        kind = "strict interior of" if interior else "interval"
        raise WavelengthRangeError(f"{lam_nm} nm outside the {kind} [{lo}, {hi}] nm valid for {model.name}")
    n2 = (model.sellmeier_o if pol == "o" else model.sellmeier_e).n_squared(lam_nm / 1000.0)
    if not n2 > 0.0:
        raise ValueError(f"material {model.name}: the {pol}-wave Sellmeier form gives n^2 = {n2:.6g} "
                         f"at {lam_nm:g} nm, which is not positive")
    return n2


def index_ordinary(model: DispersionModel, lam_nm: float) -> float:
    """Ordinary phase index n_o(lambda)."""
    return math.sqrt(_n_squared(model, "o", lam_nm))


def index_principal_e(model: DispersionModel, lam_nm: float) -> float:
    """Principal extraordinary index n_e(lambda) (propagation at 90 deg)."""
    return math.sqrt(_n_squared(model, "e", lam_nm))


def squared_principal_indices(model: DispersionModel, lam_nm: float) -> tuple:
    """(n_o^2, n_e^2) at lam_nm, the axes of the index ellipse that
    `index_extraordinary` evaluates: its two Sellmeier reads, for a caller
    that evaluates the ellipse at many angles (`_ellipse_index`)."""
    return _n_squared(model, "o", lam_nm), _n_squared(model, "e", lam_nm)


def _ellipse_index(cos2, sin2, axes, xp=np):
    """The index on the ellipse of axes = (n_o^2, n_e^2) at the angle whose
    squared cosine and sine are cos2 and sin2, with xp's square root: numpy's,
    or one of Python floats."""
    no2, ne2 = axes
    return 1.0 / xp.sqrt(cos2 / no2 + sin2 / ne2)


def index_extraordinary(model: DispersionModel, lam_nm: float, theta):
    """Extraordinary index at angle theta between wavevector and optic axis.

    Standard uniaxial index ellipse:
        1/n(theta)^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2

    theta may be a number or an array of angles (elementwise result).
    """
    axes = squared_principal_indices(model, lam_nm)
    c, s = np.cos(theta), np.sin(theta)
    return _ellipse_index(c * c, s * s, axes)


def group_index(model: DispersionModel, lam_nm: float, theta=None):
    """Group index n_g = n - lambda*dn/dlambda, from the analytic derivative.

    theta=None gives the ordinary wave; otherwise the extraordinary wave at
    angle theta (a number or an array of angles) to the optic axis.  The
    wavelength must lie strictly inside the model's validity interval so
    the derivative is trustworthy.
    """
    lam_um = lam_nm / 1000.0
    no2 = _n_squared(model, "o", lam_nm, interior=True)
    if theta is None:
        dn2 = model.sellmeier_o.dn2_dlam(lam_um)
        n = math.sqrt(no2)
        # dn/dlam = (dn2/dlam) / (2n); lambda*dn/dlambda is unit-invariant
        return n - lam_um * dn2 / (2.0 * n)
    ne2 = _n_squared(model, "e", lam_nm, interior=True)
    dno2 = model.sellmeier_o.dn2_dlam(lam_um)
    dne2 = model.sellmeier_e.dn2_dlam(lam_um)
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    n = _ellipse_index(c2, s2, (no2, ne2))
    # d(1/n^2)/dlam = -c2*dno2/no2^2 - s2*dne2/ne2^2  ->  dn/dlam = -n^3/2 * d(1/n^2)/dlam
    dinv = -c2 * dno2 / no2**2 - s2 * dne2 / ne2**2
    dn = -0.5 * n**3 * dinv
    return n - lam_um * dn


@dataclass(frozen=True)
class CrystalSpec:
    """One uniaxial crystal of the source.

    cut_angle is the angle psi between the optic axis and the pump
    direction; axis_sign distinguishes the +psi and -psi crystals of a
    cascade.
    """

    model: DispersionModel
    thickness_mm: float
    cut_angle: float
    axis_sign: int = +1

    def __post_init__(self):
        if not (math.isfinite(self.thickness_mm) and self.thickness_mm > 0):
            raise ValueError("crystal thickness must be a finite number > 0 mm")
        if not 0.0 < self.cut_angle < math.pi / 2:
            raise ValueError("cut angle must lie in (0, pi/2) rad")
        if self.axis_sign not in (+1, -1):
            raise ValueError("axis_sign must be +1 or -1")


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump: centre wavelength and intensity-FWHM bandwidth (both nm).

    The spectral intensity is modelled as exp[-2 (w - w_bar)^2 / sigma^2];
    sigma is derived from the FWHM bandwidth via
        dw_fwhm = 2 pi c dlambda / lambda^2,   sigma = dw_fwhm / sqrt(2 ln 2).
    """

    center_nm: float
    bandwidth_fwhm_nm: float

    def __post_init__(self):
        for value in (self.center_nm, self.bandwidth_fwhm_nm):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("pump wavelength and bandwidth must be finite and positive")

    @property
    def omega_bar(self) -> float:
        """Centre angular frequency, rad/fs."""
        return TWO_PI * C_NM_PER_FS / self.center_nm

    @property
    def sigma(self) -> float:
        """Gaussian spectral width sigma, rad/fs."""
        dw_fwhm = TWO_PI * C_NM_PER_FS * self.bandwidth_fwhm_nm / self.center_nm**2
        return dw_fwhm / math.sqrt(2.0 * math.log(2.0))

    @property
    def degenerate_nm(self) -> float:
        """Wavelength of degenerate down-converted photons."""
        return 2.0 * self.center_nm


# ---------------------------------------------------------------------------
# built-in materials

BBO = DispersionModel(
    name="bbo",
    # n_o^2 = 2.7359 + 0.01878/(l^2 - 0.01822) - 0.01354 l^2   (l in um)
    sellmeier_o=SellmeierForm("resonant", (2.7359, 0.01878, 0.01822, -0.01354)),
    # n_e^2 = 2.3753 + 0.01224/(l^2 - 0.01667) - 0.01516 l^2
    sellmeier_e=SellmeierForm("resonant", (2.3753, 0.01224, 0.01667, -0.01516)),
    valid_range_nm=(220.0, 1060.0),
)

QUARTZ = DispersionModel(
    name="quartz",
    sellmeier_o=SellmeierForm(
        "power_series",
        (2.3573, -0.01170, 0.01054, 1.3414e-4, -4.4537e-7, 5.9236e-8),
    ),
    sellmeier_e=SellmeierForm(
        "power_series",
        (2.3849, -0.01259, 0.01079, 1.6518e-4, -1.9474e-6, 9.3648e-8),
    ),
    valid_range_nm=(185.0, 1500.0),
)
