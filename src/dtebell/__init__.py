"""Dissociation-time-entanglement Bell test toolkit.

A two-particle matter-wave interferometry simulator: momentum
distributions from pulsed Feshbach dissociation, joint detection
probabilities through switched unbalanced interferometers, CHSH
analysis, and Monte Carlo event generation, with a CLI front end.

Importing it loads no numpy, and nothing in it imports scipy.  numpy is
imported inside the functions that build arrays (quadrature, source
model, Monte Carlo), so the closed-form routes run on the standard
library alone.  The quadrature's Gauss-Legendre rules are a bundled
table, data/gauss_legendre.npy.
"""

from .scenario import (
    BelowThresholdError,
    ConfigDocument,
    ConfigError,
    Constants,
    CONSTANTS,
    PulseSequence,
    Resonance,
    Scenario,
    Species,
    TimescaleSummary,
    TrapGuide,
    ValidationError,
    derive_scales,
    load_config,
    reference_scenario,
    scales_from_scenario,
)
from .dissociation import (
    FeshbachDistribution,
    StabilityReport,
    dissociation_probability,
    distribution_from_scenario,
    gaussian_approximation,
    phase_stability,
    phi_tau,
)
from .correlation import (
    CorrelationResult,
    DtePair,
    InterferometerSetting,
    QuadratureError,
    correlate_closed_form,
    correlate_quadrature,
    fringe_phase,
)
from .bell import (
    BellOutcome,
    ChshSettings,
    FeasibilityReport,
    OptimizationResult,
    TSIRELSON_BOUND,
    chsh_value,
    closed_form_correlator,
    crossing_tau,
    feasible,
    optimize_settings,
    periods_above_threshold,
    seed_settings,
    visibility,
)
# montecarlo.run stays on the submodule; a bare `run` is too generic here
from .montecarlo import (
    ChshEstimate,
    CountTable,
    InsufficientDataError,
    RunConfig,
    estimate_chsh,
    multi_dissociation_rate,
    pair_rng,
)

__version__ = "0.1.0"

__all__ = [
    "BellOutcome",
    "BelowThresholdError",
    "CONSTANTS",
    "ChshEstimate",
    "ChshSettings",
    "ConfigDocument",
    "ConfigError",
    "Constants",
    "CorrelationResult",
    "CountTable",
    "DtePair",
    "FeasibilityReport",
    "FeshbachDistribution",
    "InsufficientDataError",
    "InterferometerSetting",
    "OptimizationResult",
    "PulseSequence",
    "QuadratureError",
    "Resonance",
    "RunConfig",
    "Scenario",
    "Species",
    "StabilityReport",
    "TSIRELSON_BOUND",
    "TimescaleSummary",
    "TrapGuide",
    "ValidationError",
    "chsh_value",
    "closed_form_correlator",
    "crossing_tau",
    "correlate_closed_form",
    "correlate_quadrature",
    "derive_scales",
    "dissociation_probability",
    "distribution_from_scenario",
    "estimate_chsh",
    "feasible",
    "fringe_phase",
    "gaussian_approximation",
    "load_config",
    "multi_dissociation_rate",
    "optimize_settings",
    "pair_rng",
    "periods_above_threshold",
    "phase_stability",
    "phi_tau",
    "reference_scenario",
    "scales_from_scenario",
    "seed_settings",
    "visibility",
]
