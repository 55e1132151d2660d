"""Exception types shared across the package."""


class WavelengthRangeError(ValueError):
    """Wavelength outside a dispersion model's validity interval."""


class NotPhaseMatchableError(ValueError):
    """No phase-matching solution exists for the requested geometry.

    `.residual` (dimensionless, in units of the down-converted photon's
    vacuum wavenumber for the cones) says how far from matchable the setup
    is: for a cone along one azimuth, |residual| at the bracket end that
    failed (pump axis or search bound); for a grid scan (in-plane cone
    extremes, collinear cut angle), the smallest sampled |residual|.
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
