"""The package's frozen value records behave as dataclasses.dataclass(frozen=True)
classes do.  Each record is checked against a dataclass twin built here from
the same annotations and defaults."""

import dataclasses
import inspect
import math

import pytest

import dtebell.bell as bell
import dtebell.correlation as correlation
import dtebell.dissociation as dissociation
import dtebell.montecarlo as montecarlo
import dtebell.scenario as scenario
from dtebell.bell import feasible, optimize_settings, seed_settings
from dtebell.correlation import DtePair, correlate_closed_form
from dtebell.dissociation import distribution_from_scenario, phase_stability, phi_tau
from dtebell.montecarlo import RunConfig, estimate_chsh, run
from dtebell.scenario import load_config, scales_from_scenario

MODULES = (scenario, dissociation, correlation, bell, montecarlo)


def _samples():
    """One valid instance of every record class, keyed by class."""
    document = load_config(None)
    scn = document.to_scenario()
    scales = scales_from_scenario(scn)
    tau = scn.pulses.pulse_separation
    pair = DtePair(distribution=scales, tau=tau, phi_tau=phi_tau(scn), species=scn.species)
    settings = seed_settings(pair)

    def correlator(s1, s2):
        return correlate_closed_form(pair, s1, s2)

    optimized = optimize_settings(correlator, settings)
    config = RunConfig(events_per_setting=50, seed=3, mode="Switched", settings=settings)
    counts = run(correlator, config)
    instances = [
        scenario.CONSTANTS, scn.species, scn.trap_guide, scn.resonance, scn.pulses, scn,
        scales, document, distribution_from_scenario(scn), phase_stability(scn),
        settings.a, pair, correlator(settings.a, settings.b), settings, optimized.outcome,
        feasible(scales, tau), optimized, config, counts, estimate_chsh(counts),
    ]
    return {type(instance): instance for instance in instances}


SAMPLES = _samples()
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _twin(cls):
    """A dataclass(frozen=True) of the record's annotations and defaults,
    under the record's name, without its methods."""
    body = {
        "__annotations__": dict(cls.__annotations__),
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    body.update({name: cls.__dict__[name] for name in cls.__annotations__ if name in cls.__dict__})
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def _unchecked(cls, values):
    """An instance of ``cls`` holding ``values``, without running __init__."""
    instance = object.__new__(cls)
    instance.__dict__.update(zip(cls.__match_args__, values))
    return instance


def _outcome(call, *args, **kwargs):
    """The result of a call, or its exception's type and message."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def test_every_record_has_a_sample():
    records = {
        cls for module in MODULES for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and "__match_args__" in vars(cls)
    }
    assert records == set(SAMPLES)
    assert len(records) == 20


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordMatchesDataclass:

    def test_fields_and_defaults(self, cls):
        twin = _twin(cls)
        assert cls.__match_args__ == twin.__match_args__
        ours = inspect.signature(cls).parameters.values()
        theirs = inspect.signature(twin).parameters.values()
        assert [(p.name, p.kind, p.default) for p in ours] == [
            (p.name, p.kind, p.default) for p in theirs
        ]

    def test_repr_and_construction(self, cls):
        twin = _twin(cls)
        sample = SAMPLES[cls]
        values = [getattr(sample, name) for name in cls.__match_args__]
        keywords = dict(zip(cls.__match_args__, values))
        assert repr(sample) == repr(twin(*values)) == repr(twin(**keywords))
        assert cls(*values) == sample
        assert cls(**keywords) == sample
        assert repr(cls(**keywords)) == repr(sample)

    def test_equality_and_hash(self, cls):
        twin = _twin(cls)
        values = [float(i) for i in range(len(cls.__match_args__))]
        other = values[:-1] + [math.nan]
        ours = [_unchecked(cls, v) for v in (values, values, other)]
        theirs = [_unchecked(twin, v) for v in (values, values, other)]
        for a, b in ((0, 1), (0, 2), (2, 2)):
            assert (ours[a] == ours[b]) == (theirs[a] == theirs[b])
            assert (ours[a] != ours[b]) == (theirs[a] != theirs[b])
        assert ours[0].__eq__(theirs[0]) is NotImplemented
        assert theirs[0].__eq__(ours[0]) is NotImplemented
        assert ours[0] != theirs[0] and not ours[0] == theirs[0]
        assert ours[0] != values and ours[0].__eq__(tuple(values)) is NotImplemented
        subclassed = [_unchecked(type("Sub", (c,), {}), values) for c in (cls, twin)]
        for mine, sub in zip((ours[0], theirs[0]), subclassed):
            assert mine.__eq__(sub) is NotImplemented and sub.__eq__(mine) is NotImplemented
            assert mine != sub and not sub == mine
        assert hash(ours[0]) == hash(theirs[0])
        sample, values = SAMPLES[cls], [getattr(SAMPLES[cls], n) for n in cls.__match_args__]
        assert _outcome(hash, sample) == _outcome(hash, _unchecked(twin, values))

    def test_frozen(self, cls):
        twin = _twin(cls)
        sample = SAMPLES[cls]
        values = [getattr(sample, name) for name in cls.__match_args__]
        mirror = _unchecked(twin, values)
        for name in (*cls.__match_args__, "not_a_field"):
            for record in (sample, mirror):
                with pytest.raises(AttributeError) as assigned:
                    setattr(record, name, 0.0)
                with pytest.raises(AttributeError) as deleted:
                    delattr(record, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"
        assert [getattr(sample, name) for name in cls.__match_args__] == values

    def test_argument_errors(self, cls):
        twin = _twin(cls)
        sample = SAMPLES[cls]
        values = [getattr(sample, name) for name in cls.__match_args__]
        first = cls.__match_args__[0]
        calls = [
            ((), {}),  # missing, unless every field has a default
            ((), {first: values[0]}),
            ((*values, 0.0), {}),  # extra positional
            ((), {**dict(zip(cls.__match_args__, values)), "extra": 0.0}),
            ((values[0],), {first: values[0]}),  # duplicated
        ]
        for args, kwargs in calls:
            expected = _outcome(twin, *args, **kwargs)
            got = _outcome(cls, *args, **kwargs)
            if isinstance(expected, tuple) and expected[:1] == (TypeError,):
                assert got == expected
            else:  # the twin was built, so the record's arguments bind too
                assert not (isinstance(got, tuple) and got[:1] == (TypeError,))


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if hasattr(cls, "__post_init__")], ids=lambda cls: cls.__name__
)
def test_patched_post_init_is_the_one_called(monkeypatch, cls):
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self))
    sample = SAMPLES[cls]
    built = cls(*[getattr(sample, name) for name in cls.__match_args__])
    assert len(seen) == 1 and seen[0] is built


def test_records_without_post_init_never_call_one(monkeypatch):
    cls = dissociation.StabilityReport
    assert not hasattr(cls, "__post_init__")
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self), raising=False)
    sample = SAMPLES[cls]
    cls(*[getattr(sample, name) for name in cls.__match_args__])
    assert seen == []  # dataclasses decide this when the class is made


def test_normalization_is_computed_once(monkeypatch):
    calls = []

    def raw_mass(dist, target):
        calls.append(dist)
        return 2.0, 1e-9

    monkeypatch.setattr(dissociation, "_raw_mass", raw_mass)
    source = distribution_from_scenario(load_config(None).to_scenario())
    assert calls == []
    expected = (0.5, (1e-9 + source.tail_bound() * 2.0) / 2.0)
    assert (source.normalization, source.norm_error_estimate) == expected
    assert (source.normalization, source.norm_error_estimate) == expected
    assert calls == [source]
    assert "_normalized" in vars(source)
    assert source == distribution_from_scenario(load_config(None).to_scenario())
