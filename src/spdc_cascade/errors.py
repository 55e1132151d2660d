"""Exception types shared across the package."""


class WavelengthRangeError(ValueError):
    """Wavelength outside a dispersion model's validity interval."""


class NotPhaseMatchableError(ValueError):
    """No phase-matching solution exists for the requested geometry.

    Carries the smallest residual momentum mismatch found during the scan
    (dimensionless, in units of the down-converted photon's vacuum
    wavenumber) so callers can see how far from matchable the setup is.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateParametersError(ValueError):
    """Interference parameters make the model singular (zero denominators)."""


class UndefinedVisibilityError(ValueError):
    """Visibility is undefined for the given scan (all rates zero)."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""
