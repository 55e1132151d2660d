"""Exception types shared across the package."""


class WavelengthRangeError(ValueError):
    """Wavelength outside a dispersion model's validity interval."""


class NotPhaseMatchableError(ValueError):
    """No phase-matching solution exists for the requested geometry.

    `.residual` (dimensionless) says how far from matchable the setup is.
    For a cone it is |g|, g the e-wave surface at the partner's wavevector:
    at the bracket end that failed along one azimuth (pump axis or search
    bound), or the smallest sampled on a grid scan (in-plane cone
    extremes).  For the collinear cut angle it is the smallest sampled |f|,
    f = 2 n_e(psi, lam_p) - n_o - n_e(psi, lam_dc).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateParametersError(ValueError):
    """Propagation times outside the rate model's domain, D = 2 t_p - t_o
    - t_e > 0 and t_o - t_e > 0; the message names the failing value."""


class UndefinedVisibilityError(ValueError):
    """Visibility is undefined for the given scan (all rates zero)."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""
