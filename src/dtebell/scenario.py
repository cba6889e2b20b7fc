"""Experimental scenario description and derived dispersion scales.

Everything crossing the public API is SI, except the lab-unit config
documents at the end of this module.  The one validity domain of the
two-pulse source model (narrow spectrum, resonance pole outside the
momentum domain) is checked here, by _check_source_domain, for the
source itself and for the scales derived without building it.

Config documents (:func:`load_config`) reach SI only through
:meth:`ConfigDocument.to_scenario`.  The bundled data/paper-li6.cfg is the
one copy of the lithium-6 reference numbers; :func:`reference_scenario`
is that file in SI.
"""

from __future__ import annotations

import configparser
import math
import operator
import warnings
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
    "Scenario",
    "TimescaleSummary",
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

_MODES = ("Switched", "BeamSplitter")  # interferometer switch modes
_MAX_SEED = 2**64  # a seed keys a 64-bit Philox stream
_MAX_EVENTS = 2**63  # a pair's tally is drawn as int64 counts


def _require_positive(name: str, value: float) -> None:
    """The one positive-and-finite check; NaN fails it too."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be positive and finite, got {value}")


def _require_integer(name: str, value) -> int:
    """The one integer check: ints, bools and numpy integer scalars pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer") from None


def _theta_in_range(theta: float) -> bool:  # an analyzer angle, rad
    return 0.0 <= theta <= math.pi / 2.0


# ------------------------------------------------ frozen value records


def _record_values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _record_values(self) == _record_values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_repr(self) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({fields})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """Make ``cls`` a frozen record of its annotated fields.

    The same class as ``dataclasses.dataclass(frozen=True)`` makes of it,
    for classes without a base record or ClassVar: an ``__init__`` taking
    the fields in order (a class attribute is the field's default) and
    calling ``__post_init__`` when the class has one; field-tuple equality
    and hash; the dataclass repr; ``__match_args__``; and AttributeError on
    assignment and deletion.  Only the ``__init__`` is compiled, once per
    class; the other methods are shared.  Importing dataclasses would load
    inspect and ast and compile six methods per class, about 20 ms of
    every command's start-up.  Fields are written straight into the
    instance ``__dict__``, where functools.cached_property writes too.
    """
    names = tuple(cls.__annotations__)
    defaults = {f"_default_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    params = "".join(
        f", {name}=_default_{name}" if name in cls.__dict__ else f", {name}" for name in names
    )
    body = "".join(f"    _dict[{name!r}] = {name}\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace: dict = {}
    exec(f"def __init__(self{params}):\n    _dict = self.__dict__\n{body}", defaults, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    cls.__match_args__ = names
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


@_record
class Constants:
    """CODATA 2018 values, SI.  Frozen so results are bit-reproducible."""

    hbar: float = 1.0545718176461565e-34       # J s
    k_boltzmann: float = 1.380649e-23          # J/K (exact)
    bohr_magneton: float = 9.2740100783e-24    # J/T
    bohr_radius: float = 5.29177210903e-11     # m
    atomic_mass_unit: float = 1.66053906660e-27  # kg


CONSTANTS = Constants()


@_record
class Species:
    """Atomic species forming the diatomic molecule.

    ``molecule_mass`` is exactly twice ``atom_mass``; binding-energy
    corrections are far below every tolerance used here.
    """

    name: str
    atom_mass: float  # kg

    def __post_init__(self) -> None:
        _require_positive("atom_mass", self.atom_mass)

    @property
    def molecule_mass(self) -> float:
        return 2.0 * self.atom_mass


@_record
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
            _require_positive(name, getattr(self, name))
        # The quasi-1D treatment assumes the trap is soft compared with the
        # transverse guide confinement.  Not fatal, but worth flagging.
        if self.omega_trap * 10.0 > self.omega_guide:
            warnings.warn(
                "omega_trap is not small compared with omega_guide; "
                "the longitudinal reduction is marginal",
                stacklevel=3,  # past the record's __init__, to the caller
            )


@_record
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
            _require_positive(name, getattr(self, name))
        # scattering lengths are signed; only zero is meaningless
        a_bg = self.background_scattering_length
        if not (a_bg != 0.0 and math.isfinite(a_bg)):
            raise ValidationError(
                f"background_scattering_length must be nonzero and finite, got {a_bg}"
            )


@_record
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
            _require_positive(name, getattr(self, name))
        if self.pulse_separation <= self.pulse_duration:
            raise ValidationError(
                "pulse_separation must exceed pulse_duration, got "
                f"{self.pulse_separation} <= {self.pulse_duration}"
            )


@_record
class Scenario:
    """Complete physical input set for one experimental configuration."""

    species: Species
    trap_guide: TrapGuide
    resonance: Resonance
    pulses: PulseSequence


@_record
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


def _source_momenta(scenario: Scenario) -> tuple[float, float, float, float]:
    """(p0, p_bar, delta_p, sigma_p_cm) of the two-pulse source, checked
    against its validity domain.

    p0^2 = m * (mu detuning - 2 U_T - hbar omega_G), the kinetic energy
    released into the relative motion; p_bar^2 = m * mu * pulse_height,
    the resonance passage depth; delta_p^2 = 2 m hbar / pulse_duration,
    the spectral width of one pulse; sigma_p_cm is the momentum spread of
    the molecular (mass 2m) trap ground state.
    """
    m = scenario.species.atom_mass
    mu = scenario.resonance.moment_difference
    pulses = scenario.pulses
    guide = scenario.trap_guide
    bracket = (
        mu * (pulses.base_field + pulses.pulse_height - scenario.resonance.position)
        - 2.0 * guide.trap_depth
        - CONSTANTS.hbar * guide.omega_guide
    )
    if bracket <= 0.0:
        raise BelowThresholdError(
            "below-threshold pulse: field detuning does not overcome trap depth "
            f"and guide zero-point energy (energy bracket {bracket:.6e} J)"
        )
    p0 = math.sqrt(m * bracket)
    p_bar = math.sqrt(m * mu * pulses.pulse_height)
    delta_p = math.sqrt(2.0 * m * CONSTANTS.hbar / pulses.pulse_duration)
    sigma_p_cm = math.sqrt(
        CONSTANTS.hbar * guide.omega_trap * scenario.species.molecule_mass / 2.0
    )
    _check_source_domain(p0, p_bar, delta_p, sigma_p_cm)
    return p0, p_bar, delta_p, sigma_p_cm


def _check_source_domain(p0: float, p_bar: float, delta_p: float, sigma_p_cm: float) -> None:
    """The validity domain of the two-pulse source model: momenta positive
    and finite, both spectra narrow (delta_p/p0, sigma_p_cm/p0 <= 0.2) and
    the resonance pole outside the momentum domain (p_bar > p0)."""
    for name, value in dict(p0=p0, p_bar=p_bar, delta_p=delta_p, sigma_p_cm=sigma_p_cm).items():
        _require_positive(name, value)
    if delta_p / p0 > 0.2:
        raise ValidationError(
            "narrow-spectrum precondition violated: delta_p/p0 = "
            f"{delta_p / p0:.4f} > 0.2"
        )
    if sigma_p_cm / p0 > 0.2:
        raise ValidationError(
            "narrow-spectrum precondition violated: sigma_p_cm/p0 = "
            f"{sigma_p_cm / p0:.4f} > 0.2"
        )
    if p_bar <= p0:
        # (x/kappa + b) vanishes on a momentum shell when b < 1: the
        # resonance pole enters the kinematically allowed domain
        raise ValidationError(
            "resonance pole inside the momentum domain: requires p_bar > p0, "
            f"got p_bar/p0 = {p_bar / p0:.4f}"
        )


def _sigma_p_rel(p0: float, delta_p: float) -> float:
    # Width of the Gaussian fitted to the squared-sinc main lobe of the
    # two-pulse spectrum: the mass-free form of factor * m hbar / (p0 T).
    return SINC_WIDTH_FACTOR * delta_p**2 / (2.0 * p0)


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
    relative coordinate the reduced mass m/2).  A width whose square
    underflows, or a scale past the float range, is refused.
    """
    for name, value in dict(sigma_p_cm=sigma_p_cm, sigma_p_rel=sigma_p_rel, p0_rel=p0_rel).items():
        _require_positive(name, value)
    m = species.atom_mass
    hbar = CONSTANTS.hbar
    cm_sq, rel_sq = sigma_p_cm * sigma_p_cm, sigma_p_rel * sigma_p_rel
    _require_positive("sigma_p_cm^2", cm_sq)
    _require_positive("sigma_p_rel^2", rel_sq)
    scales = TimescaleSummary(
        t_cm=2.0 * m * hbar / cm_sq,
        t_rel=m * hbar / (2.0 * rel_sq),
        lambda_bar_rel=hbar / p0_rel,
        v_rel=2.0 * p0_rel / m,
        sigma_p_cm=sigma_p_cm,
        sigma_p_rel=sigma_p_rel,
        p0_rel=p0_rel,
    )
    for name in ("t_cm", "t_rel", "lambda_bar_rel", "v_rel"):
        _require_positive(name, getattr(scales, name))
    return scales


def scales_from_scenario(scenario: Scenario) -> TimescaleSummary:
    """Scales for a scenario: threshold kinematics plus Gaussian-equivalent widths.

    These are the Gaussian pair that both correlation routes read.  They
    equal gaussian_approximation(distribution_from_scenario(scenario),
    scenario.species) bit for bit, since both read _source_momenta and
    _sigma_p_rel.  A scenario outside the source's validity domain is
    refused with the source's own message, without building the source.
    """
    p0, _, delta_p, sigma_p_cm = _source_momenta(scenario)
    return derive_scales(
        scenario.species,
        sigma_p_cm=sigma_p_cm,
        sigma_p_rel=_sigma_p_rel(p0, delta_p),
        p0_rel=p0,
    )


def _dispersion_factors(scales: TimescaleSummary, tau: float) -> tuple[float, float]:
    """(1 + tau^2/t_cm^2, 1 + tau^2/t_rel^2): the growth of the c.m. and
    relative position variances over tau; a tau below 0, not finite, or
    whose square overflows is refused."""
    if tau < 0.0 or not math.isfinite(tau):
        raise ValidationError(f"tau must be >= 0, got {tau}")
    try:
        return 1.0 + (tau / scales.t_cm) ** 2, 1.0 + (tau / scales.t_rel) ** 2
    except OverflowError:
        raise ValidationError(f"tau = {tau:g} s is out of range: tau^2/t^2 overflows") from None


def _dispersion_product(scales: TimescaleSummary, tau: float) -> float:
    """(1 + tau^2/t_cm^2)(1 + tau^2/t_rel^2): the visibility is its -1/4
    power, and a violation needs it below 4."""
    grow_cm, grow_rel = _dispersion_factors(scales, tau)
    return grow_cm * grow_rel


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


@_record
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
        """Convert the physical sections to SI once; physical validation
        happens downstream.  The interferometer section stays in lab
        units: its lengths and angles are read per command.

        mG, nK, ms and um are exact powers of ten of SI units; dividing
        by the power keeps each value correctly rounded: 400 mG becomes
        4e-05 T, where multiplying by the inexact 1e-7 gives
        3.9999999999999996e-05.
        """
        scenario, resonance, pulses = (
            self.values[name] for name in ("scenario", "resonance", "pulses")
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
    if mode not in _MODES:
        raise ConfigError(
            f"invalid value for interferometer.mode: {mode!r} (expected {' or '.join(_MODES)})"
        )
    for key in ("theta1_deg", "theta2_deg"):
        theta = document.get("interferometer", key)
        if not _theta_in_range(math.radians(theta)):
            raise ConfigError(
                f"invalid value for interferometer.{key}: {theta} (expected 0 to 90 degrees)"
            )
    if not 1 <= document.events < _MAX_EVENTS:
        raise ConfigError(f"run.events must be from 1 to 2**63 - 1, got {document.events}")
    if not 0 <= document.seed < _MAX_SEED:
        raise ConfigError(f"run.seed must fit in 64 bits, got {document.seed}")
    return document


def reference_scenario() -> Scenario:
    """The bundled lithium-6 scenario: data/paper-li6.cfg in SI.

    Feshbach molecules of 6Li in a shallow 0.5 Hz, 100 nK trap inside a
    300 Hz waveguide, dissociated at a narrow resonance (1 mG width,
    0.01 Bohr magneton moment difference) by two 60 ms pulses of 400 mG
    height reaching 350 mG of effective detuning, separated by 1 s.  The
    file's [interferometer] and [run] sections (a symmetric switched
    interferometer with arms at half the separation the atoms acquire
    during that second) are not part of the scenario; load_config(None)
    carries them.
    """
    return load_config(None).to_scenario()
