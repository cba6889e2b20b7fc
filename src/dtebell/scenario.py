"""Experimental scenario description and derived dispersion scales.

Everything crossing the public API is SI, except the lab-unit config
documents at the end of this module.  Internally the oscillatory
integrals are evaluated in scenario-adapted units (momenta in units of
the relative-motion momentum, times in units of the interrogation time,
lengths in units of the reduced fringe wavelength); :class:`ScaledUnits`
performs the conversions and keeps hbar exactly 1 on the inside.

Config documents (:func:`load_config`) reach SI only through
:meth:`ConfigDocument.to_scenario`.  The bundled data/paper-li6.cfg is the
one copy of the lithium-6 reference numbers; :func:`reference_scenario`
is that file in SI.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Optional

__all__ = [
    "ValidationError",
    "BelowThresholdError",
    "Constants",
    "CONSTANTS",
    "Species",
    "TrapGuide",
    "Resonance",
    "PulseSequence",
    "InterferometerBlock",
    "Scenario",
    "TimescaleSummary",
    "ScaledUnits",
    "SINC_WIDTH_FACTOR",
    "derive_scales",
    "scales_from_scenario",
    "CONFIG_SCHEMA",
    "ConfigError",
    "ConfigDocument",
    "load_config",
    "reference_scenario",
]


class ValidationError(ValueError):
    """Raised when a scenario or configuration value is out of contract."""


class BelowThresholdError(ValidationError):
    """Raised when the pulse fields do not reach the dissociation threshold."""


# Gaussian width factor for the main lobe of a squared-sinc momentum
# profile, amplitude-pinned least squares over the central lobe.
SINC_WIDTH_FACTOR = 1.196


@dataclass(frozen=True)
class Constants:
    """CODATA 2018 values, SI.  Frozen so results are bit-reproducible."""

    hbar: float = 1.0545718176461565e-34       # J s
    k_boltzmann: float = 1.380649e-23          # J/K (exact)
    bohr_magneton: float = 9.2740100783e-24    # J/T
    bohr_radius: float = 5.29177210903e-11     # m
    atomic_mass_unit: float = 1.66053906660e-27  # kg


CONSTANTS = Constants()


@dataclass(frozen=True)
class Species:
    """Atomic species forming the diatomic molecule.

    ``molecule_mass`` is exactly twice ``atom_mass``; binding-energy
    corrections are far below every tolerance used here.
    """

    name: str
    atom_mass: float  # kg

    def __post_init__(self) -> None:
        if not (self.atom_mass > 0.0 and math.isfinite(self.atom_mass)):
            raise ValidationError(f"atom_mass must be positive and finite, got {self.atom_mass}")

    @property
    def molecule_mass(self) -> float:
        return 2.0 * self.atom_mass


@dataclass(frozen=True)
class TrapGuide:
    """Harmonic trap holding the molecule plus the waveguide the atoms fly in.

    omega_trap: angular frequency of the molecule trap along the guide, rad/s.
    omega_guide: transverse angular frequency of the waveguide, rad/s.
    trap_depth: potential offset released per atom at dissociation, J.
    """

    omega_trap: float
    omega_guide: float
    trap_depth: float

    def __post_init__(self) -> None:
        for name in ("omega_trap", "omega_guide", "trap_depth"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        # The quasi-1D treatment assumes the trap is soft compared with the
        # transverse guide confinement.  Not fatal, but worth flagging.
        if self.omega_trap * 10.0 > self.omega_guide:
            warnings.warn(
                "omega_trap is not small compared with omega_guide; "
                "the longitudinal reduction is marginal",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Resonance:
    """Magnetic Feshbach resonance parameters.

    width: resonance width, T.
    moment_difference: magnetic-moment difference between the bound and
        open channels, J/T.
    background_scattering_length: m.
    position: resonance field, T.
    """

    width: float
    moment_difference: float
    background_scattering_length: float
    position: float

    def __post_init__(self) -> None:
        for name in ("width", "moment_difference", "position"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        # scattering lengths are signed; only zero is meaningless
        a_bg = self.background_scattering_length
        if not (a_bg != 0.0 and math.isfinite(a_bg)):
            raise ValidationError(
                f"background_scattering_length must be nonzero and finite, got {a_bg}"
            )


@dataclass(frozen=True)
class PulseSequence:
    """Two identical square magnetic-field pulses.

    base_field: field between pulses, T.
    pulse_height: field increment during a pulse, T.
    pulse_duration: length of each pulse, s.
    pulse_separation: time between pulse centers (interrogation time), s.
    """

    base_field: float
    pulse_height: float
    pulse_duration: float
    pulse_separation: float

    def __post_init__(self) -> None:
        for name in ("base_field", "pulse_height", "pulse_duration", "pulse_separation"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.pulse_separation <= self.pulse_duration:
            raise ValidationError(
                "pulse_separation must exceed pulse_duration, got "
                f"{self.pulse_separation} <= {self.pulse_duration}"
            )


@dataclass(frozen=True)
class InterferometerBlock:
    """Optional default interferometer geometry carried by a scenario."""

    ell1: float  # m
    ell2: float  # m
    theta1: float  # rad
    theta2: float  # rad
    mode: str = "Switched"

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            if not (0.0 <= value <= math.pi / 2.0):
                raise ValidationError(f"{name} must lie in [0, pi/2], got {value}")
        for name in ("ell1", "ell2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.mode not in ("Switched", "BeamSplitter"):
            raise ValidationError(f"mode must be 'Switched' or 'BeamSplitter', got {self.mode!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete physical input set for one experimental configuration."""

    species: Species
    trap_guide: TrapGuide
    resonance: Resonance
    pulses: PulseSequence
    interferometer: InterferometerBlock | None = None


@dataclass(frozen=True)
class TimescaleSummary:
    """Kinematic and dispersion scales derived from a scenario.

    t_cm, t_rel: dispersion times of the centre-of-mass and relative
        wave packets, s.
    lambda_bar_rel: reduced fringe wavelength hbar/p0_rel, m.
    v_rel: relative velocity between the two atoms, m/s.
    sigma_p_cm, sigma_p_rel: momentum spreads, kg m/s.
    p0_rel: mean relative momentum, kg m/s.
    """

    t_cm: float
    t_rel: float
    lambda_bar_rel: float
    v_rel: float
    sigma_p_cm: float
    sigma_p_rel: float
    p0_rel: float


def _energy_bracket(scenario: Scenario) -> float:
    """Kinetic energy released into the relative motion, p0^2/m per atom pair."""
    mu = scenario.resonance.moment_difference
    detuning = (
        scenario.pulses.base_field
        + scenario.pulses.pulse_height
        - scenario.resonance.position
    )
    return (
        mu * detuning
        - 2.0 * scenario.trap_guide.trap_depth
        - CONSTANTS.hbar * scenario.trap_guide.omega_guide
    )


def _p0_from_fields(scenario: Scenario) -> float:
    bracket = _energy_bracket(scenario)
    if bracket <= 0.0:
        raise BelowThresholdError(
            "below-threshold pulse: field detuning does not overcome trap depth "
            f"and guide zero-point energy (energy bracket {bracket:.6e} J)"
        )
    return math.sqrt(scenario.species.atom_mass * bracket)


def _delta_p(scenario: Scenario) -> float:
    # spectral width of one pulse, delta_p^2 = 2 m hbar / pulse_duration
    m = scenario.species.atom_mass
    return math.sqrt(2.0 * m * CONSTANTS.hbar / scenario.pulses.pulse_duration)


def _sigma_p_rel(p0: float, delta_p: float) -> float:
    # Width of the Gaussian fitted to the squared-sinc main lobe of the
    # two-pulse spectrum: the mass-free form of factor * m hbar / (p0 T).
    return SINC_WIDTH_FACTOR * delta_p**2 / (2.0 * p0)


def _sigma_p_cm_ground_state(scenario: Scenario) -> float:
    # Momentum spread of the molecular (mass 2m) trap ground state.
    big_m = scenario.species.molecule_mass
    return math.sqrt(CONSTANTS.hbar * scenario.trap_guide.omega_trap * big_m / 2.0)


def derive_scales(
    species: Species,
    sigma_p_cm: float,
    sigma_p_rel: float,
    p0_rel: float,
) -> TimescaleSummary:
    """Dispersion times and fringe scales from momentum-space widths.

    t_cm = 2 m hbar / sigma_p_cm^2 and t_rel = m hbar / (2 sigma_p_rel^2):
    the time for the respective coordinate-space width to grow by sqrt(2),
    written with the atom mass m (the centre of mass carries mass 2m, the
    relative coordinate the reduced mass m/2).
    """
    for name, value in (
        ("sigma_p_cm", sigma_p_cm),
        ("sigma_p_rel", sigma_p_rel),
        ("p0_rel", p0_rel),
    ):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be positive and finite, got {value}")
    m = species.atom_mass
    hbar = CONSTANTS.hbar
    return TimescaleSummary(
        t_cm=2.0 * m * hbar / sigma_p_cm**2,
        t_rel=m * hbar / (2.0 * sigma_p_rel**2),
        lambda_bar_rel=hbar / p0_rel,
        v_rel=2.0 * p0_rel / m,
        sigma_p_cm=sigma_p_cm,
        sigma_p_rel=sigma_p_rel,
        p0_rel=p0_rel,
    )


def scales_from_scenario(scenario: Scenario) -> TimescaleSummary:
    """Scales for a scenario: threshold kinematics plus Gaussian-equivalent widths.

    The widths are those of gaussian_approximation(distribution_from_scenario(
    scenario)), computed by the same helpers, so these scales equal the
    ones the correlators derive, bit for bit.
    """
    p0 = _p0_from_fields(scenario)
    return derive_scales(
        scenario.species,
        sigma_p_cm=_sigma_p_cm_ground_state(scenario),
        sigma_p_rel=_sigma_p_rel(p0, _delta_p(scenario)),
        p0_rel=p0,
    )


def _dispersion_product(scales: TimescaleSummary, tau: float) -> float:
    """(1 + tau^2/t_cm^2)(1 + tau^2/t_rel^2): the visibility is its -1/4
    power, and a violation needs it below 4."""
    return (1.0 + (tau / scales.t_cm) ** 2) * (1.0 + (tau / scales.t_rel) ** 2)


# Unit kinds the quadrature converts, as exponents of (momentum, time, length).
_UNIT_EXPONENTS = {
    "momentum": (1, 0, 0),
    "length": (0, 0, 1),
    "mass": (1, 1, -1),
}


@dataclass(frozen=True)
class ScaledUnits:
    """Conversion from SI to the quadrature's scenario-adapted units.

    The base units are a momentum scale and a time scale; the length unit
    is tied to them as hbar/momentum so that hbar is exactly 1 internally.
    The mass unit is then momentum*time/length, and internal masses come
    out small for heavy slow particles, which is what keeps the phase
    factors O(1) on the grid.  Momentum, length and mass are the kinds the
    quadrature converts.
    """

    momentum: float
    time: float

    def __post_init__(self) -> None:
        for name in ("momentum", "time"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} unit must be positive and finite, got {value}")

    @property
    def length(self) -> float:
        return CONSTANTS.hbar / self.momentum

    def unit_for(self, kind: str) -> float:
        """SI size of one internal unit of ``kind``."""
        try:
            a, b, c = _UNIT_EXPONENTS[kind]
        except KeyError:
            raise ValidationError(f"unknown unit kind {kind!r}") from None
        return self.momentum**a * self.time**b * self.length**c

    def to_internal(self, value, kind: str):
        return value / self.unit_for(kind)


# ------------------------------------------------ lab-unit config documents


class ConfigError(ValidationError):
    """Config document or command usage problem (exit code 2)."""


# section -> key -> type tag ("float", "int", "str")
CONFIG_SCHEMA: Mapping[str, Mapping[str, str]] = {
    "scenario": {
        "mass_amu": "float",
        "omega_guide_hz": "float",
        "omega_trap_hz": "float",
        "trap_depth_nK": "float",
    },
    "resonance": {
        "width_mG": "float",
        "moment_diff_muB": "float",
        "a_bg_a0": "float",
        "position_mG": "float",
    },
    "pulses": {
        "base_field_mG": "float",
        "height_mG": "float",
        "duration_ms": "float",
        "separation_s": "float",
    },
    "interferometer": {
        "ell1_um": "float",
        "ell2_um": "float",
        "theta1_deg": "float",
        "theta2_deg": "float",
        "mode": "str",
    },
    "run": {
        "events": "int",
        "seed": "int",
    },
}


@dataclass(frozen=True)
class ConfigDocument:
    """Validated lab-unit parameter document."""

    values: Mapping[str, Mapping[str, object]]

    def get(self, section: str, key: str):
        return self.values[section][key]

    def replace(self, section: str, key: str, value) -> "ConfigDocument":
        # documents are never changed in place, so untouched sections are shared
        merged = {**self.values, section: {**self.values[section], key: value}}
        return ConfigDocument(values=merged)

    def to_scenario(self) -> Scenario:
        """Convert to SI once; physical validation happens downstream.

        mG, nK, ms and um are exact powers of ten of SI units; dividing
        by the power keeps each value correctly rounded: 400 mG becomes
        4e-05 T, where multiplying by the inexact 1e-7 gives
        3.9999999999999996e-05.
        """
        scenario, resonance, pulses, inter = (
            self.values[name] for name in ("scenario", "resonance", "pulses", "interferometer")
        )
        c = CONSTANTS
        return Scenario(
            species=Species(
                name="config", atom_mass=scenario["mass_amu"] * c.atomic_mass_unit
            ),
            trap_guide=TrapGuide(
                omega_trap=2.0 * math.pi * scenario["omega_trap_hz"],
                omega_guide=2.0 * math.pi * scenario["omega_guide_hz"],
                trap_depth=c.k_boltzmann * (scenario["trap_depth_nK"] / 1e9),
            ),
            resonance=Resonance(
                width=resonance["width_mG"] / 1e7,
                moment_difference=resonance["moment_diff_muB"] * c.bohr_magneton,
                background_scattering_length=resonance["a_bg_a0"] * c.bohr_radius,
                position=resonance["position_mG"] / 1e7,
            ),
            pulses=PulseSequence(
                base_field=pulses["base_field_mG"] / 1e7,
                pulse_height=pulses["height_mG"] / 1e7,
                pulse_duration=pulses["duration_ms"] / 1e3,
                pulse_separation=pulses["separation_s"],
            ),
            interferometer=InterferometerBlock(
                ell1=inter["ell1_um"] / 1e6,
                ell2=inter["ell2_um"] / 1e6,
                theta1=math.radians(inter["theta1_deg"]),
                theta2=math.radians(inter["theta2_deg"]),
                mode=inter["mode"],
            ),
        )

    @property
    def events(self) -> int:
        return self.values["run"]["events"]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]


def _convert(section: str, key: str, raw: str):
    kind = CONFIG_SCHEMA[section][key]
    try:
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        if kind == "int":
            return int(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({exc})") from exc


def _parse(text: str, source: str) -> dict:
    """Sections and typed values of one INI document, names checked."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys carry unit suffixes like _nK; keep case
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            values.setdefault(section, {})[key] = _convert(section, key, raw)
    return values


# The bundled lithium-6 scenario, data/paper-li6.cfg: the one copy of the
# reference numbers.  Every document is this one with a file laid over it.
BUNDLED_DEFAULTS: Mapping[str, Mapping[str, object]] = _parse(
    resources.files("dtebell").joinpath("data/paper-li6.cfg").read_text("utf-8"),
    "paper-li6.cfg",
)


def load_config(path: Optional[str] = None) -> ConfigDocument:
    """Parse and validate a config file; None loads the bundled scenario.

    Missing sections and keys take the bundled values, so a document can
    override a single parameter.
    """
    values = {name: dict(body) for name, body in BUNDLED_DEFAULTS.items()}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for section, body in _parse(text, path).items():
            values[section].update(body)
    document = ConfigDocument(values=values)
    mode = document.get("interferometer", "mode")
    if mode not in ("Switched", "BeamSplitter"):
        raise ConfigError(
            f"invalid value for interferometer.mode: {mode!r} "
            "(expected Switched or BeamSplitter)"
        )
    if document.events < 1:
        raise ConfigError(f"run.events must be >= 1, got {document.events}")
    if not 0 <= document.seed < 2**64:
        raise ConfigError(f"run.seed must fit in 64 bits, got {document.seed}")
    return document


def reference_scenario() -> Scenario:
    """The bundled lithium-6 scenario: data/paper-li6.cfg in SI.

    Feshbach molecules of 6Li in a shallow 0.5 Hz, 100 nK trap inside a
    300 Hz waveguide, dissociated at a narrow resonance (1 mG width,
    0.01 Bohr magneton moment difference) by two 60 ms pulses of 400 mG
    height reaching 350 mG of effective detuning, separated by 1 s.
    Defaults to a symmetric switched interferometer with arms at half
    the separation the atoms acquire during that second.
    """
    return load_config(None).to_scenario()
