"""Simulation and optimization toolkit for cascaded type-II down-conversion
entangled-photon sources: crystal dispersion and propagation times,
angle-resolved emission-time maps, coincidence-rate interference patterns,
fringe visibility analysis and birefringent delay-line prescriptions."""

from .analysis import (
    DelayOptimum,
    DelayPrescription,
    ScanSeries,
    delay_scan,
    delay_to_quartz_thickness,
    extract_visibility,
    measure_fringe_spacing,
    optimize_delays_numeric,
    polarization_scan,
    prescribe_delays,
    quartz_calibration,
    visibility_curve,
)
from .errors import (
    ConfigError,
    DegenerateParametersError,
    NotPhaseMatchableError,
    UndefinedVisibilityError,
    WavelengthRangeError,
)
from .geometry import (
    Cone,
    ConePair,
    EmissionTimeMap,
    PropagationTimes,
    collinear_cut_angle,
    emission_time_map,
    map_flattening_delays,
    mismatch_at_azimuth,
    pairing_mismatch,
    phase_match_cones,
    propagation_times,
)
from .interference import (
    AnalyzerDelayConfig,
    InterferenceParams,
    coincidence_rate,
    envelope,
    fringe_locked_delays,
    fringe_period,
    max_visibility,
    optimal_delays,
    params_from_crystal,
    rect_window,
)
from .materials import (
    BBO,
    QUARTZ,
    CrystalSpec,
    DispersionModel,
    PumpSpec,
    SellmeierForm,
    get_model,
    group_index,
    index_extraordinary,
    index_ordinary,
    index_principal_e,
    load_dispersion_model,
)

__version__ = "0.1.0"
