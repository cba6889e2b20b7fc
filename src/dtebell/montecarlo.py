"""Finite-statistics simulation of CHSH runs.

Each setting pair's tally is drawn whole, as one multinomial draw over
its outcome cells, from a counter-based RNG (numpy Philox) keyed as
key = [seed, pair_index]: every setting pair owns an independent,
reproducible stream and runs parallelize without coordination.  For
independent events the tally is exactly Multinomial(n, P) in Switched
mode, and Multinomial(n, (P/2, 1/2)) in BeamSplitter mode, whose fifth
cell is the discarded events.  numpy draws it as a chain of binomials,
so time and memory do not depend on the event count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .bell import _TSIRELSON_TOL, TSIRELSON_BOUND, ChshSettings
from .correlation import SIGN_PAIRS, CorrelationResult, _check_probabilities
from .scenario import _MAX_EVENTS, _MAX_SEED, _MODES as MODES, ValidationError, _require_integer

__all__ = [
    "MODES",
    "OUTCOMES",
    "ChshEstimate",
    "CountTable",
    "InsufficientDataError",
    "RunConfig",
    "estimate_chsh",
    "multi_dissociation_rate",
    "run",
]

OUTCOMES: Tuple[Tuple[int, int], ...] = SIGN_PAIRS


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")


class InsufficientDataError(ValidationError):
    """A setting pair has no kept events to estimate a correlation from."""


@dataclass(frozen=True)
class RunConfig:
    """One finite-statistics CHSH acquisition."""

    events_per_setting: int
    seed: int
    mode: str
    settings: ChshSettings

    def __post_init__(self) -> None:
        _require_integer("events_per_setting", self.events_per_setting)
        if not 1 <= self.events_per_setting < _MAX_EVENTS:
            raise ValidationError(
                f"events_per_setting must be from 1 to 2**63 - 1, got {self.events_per_setting}"
            )
        _require_integer("seed", self.seed)
        if not 0 <= self.seed < _MAX_SEED:
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")
        _require_mode(self.mode)
        if not isinstance(self.settings, ChshSettings):
            raise ValidationError("settings must be a ChshSettings")


@dataclass(frozen=True)
class CountTable:
    """Tallies per setting pair, in CHSH order (a,b), (a,b'), (a',b), (a',b').

    counts[i] holds the four port tallies in OUTCOMES order; discarded[i]
    the post-selected-out events of that pair.
    """

    counts: Tuple[Tuple[int, int, int, int], ...]
    discarded: Tuple[int, int, int, int]
    events_per_setting: int
    mode: str
    settings: ChshSettings

    def __post_init__(self) -> None:
        if len(self.counts) != 4 or len(self.discarded) != 4:
            raise ValidationError("CountTable needs tallies for all four setting pairs")
        _require_mode(self.mode)
        for i, (row, dropped) in enumerate(zip(self.counts, self.discarded)):
            if len(row) != 4 or any(n < 0 for n in row) or dropped < 0:
                raise ValidationError(f"negative or malformed tally in pair {i}")
            if sum(row) + dropped != self.events_per_setting:
                raise ValidationError(
                    f"pair {i}: kept {sum(row)} + discarded {dropped} "
                    f"!= events_per_setting {self.events_per_setting}"
                )
            if self.mode == "Switched" and dropped != 0:
                raise ValidationError("Switched mode cannot discard events")

    def kept(self, pair_index: int) -> int:
        return sum(self.counts[pair_index])

    def count(self, pair_index: int, outcome: Tuple[int, int]) -> int:
        return self.counts[pair_index][OUTCOMES.index(outcome)]


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH point estimate with multinomial standard errors (Wilson-score
    at a pair whose E_hat is +-1; see estimate_chsh), and its verdict.

    Unlike BellOutcome, which guards model correlators, it accepts S_hat
    up to the algebraic maximum 4: a finite sample can fluctuate past the
    quantum bound, and exceeds_tsirelson says that it did.
    """

    s_value: float
    stderr: float
    e_values: Tuple[float, float, float, float]
    e_stderr: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.s_value <= 4.0:
            raise ValidationError(f"CHSH estimate {self.s_value} outside [0, 4]")

    @property
    def violated(self) -> bool:
        return self.s_value > 2.0

    @property
    def exceeds_tsirelson(self) -> bool:
        return self.s_value > TSIRELSON_BOUND + _TSIRELSON_TOL

    @property
    def visibility(self) -> float:
        """The lower bound S_hat/(2*sqrt(2)) on the fringe amplitude, at
        most 1: tallies alone cannot resolve the amplitude itself."""
        return min(1.0, self.s_value / TSIRELSON_BOUND)


def run(
    correlator: Callable[[object, object], CorrelationResult], config: RunConfig
) -> CountTable:
    """Simulate all four setting pairs; deterministic given config.

    Each pair makes one multinomial draw from its own stream.  Its
    probability table passes CorrelationResult's own check first (a
    table altered after construction is refused); the round-off
    negatives that check admits are clipped to 0 and the cells
    renormalized, so the draw never refuses them, and a cell of
    probability 0 never tallies an event.  Correlator errors (validation,
    quadrature failures) propagate.
    """
    import numpy as np

    counts = []
    discarded = []
    n = config.events_per_setting
    for index, (x, y, _sign) in enumerate(config.settings.pairs()):
        p = correlator(x, y).p
        _check_probabilities(p)
        cells = np.clip(np.array([p[outcome] for outcome in OUTCOMES], dtype=float), 0.0, None)
        cells /= cells.sum()
        if config.mode == "BeamSplitter":
            cells = np.append(0.5 * cells, 0.5)  # the fifth cell is discarded
        # a cell of probability 0 sits out the draw: numpy's chain of
        # binomials hands its round-off remainder to the last cell
        drawn = cells > 0.0
        tally = np.zeros(len(cells), dtype=np.int64)
        stream = np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64))
        tally[drawn] = np.random.Generator(stream).multinomial(n, cells[drawn])
        counts.append(tuple(tally[:4].tolist()))
        discarded.append(int(tally[4:].sum()))  # Switched draws no fifth cell
    return CountTable(
        counts=tuple(counts),
        discarded=tuple(discarded),
        events_per_setting=n,
        mode=config.mode,
        settings=config.settings,
    )


def estimate_chsh(counts: CountTable) -> ChshEstimate:
    """Point estimates from tallies.

    E_hat = (n_pp + n_mm - n_pm - n_mp) / n_kept per pair, combined with
    the CHSH signs of counts.settings.pairs(); var(E_hat) = (1 -
    E_hat^2)/n_kept (multinomial), and the pair errors add in quadrature
    since the streams are independent.  That variance vanishes at
    E_hat = +-1 (always so for one kept event), so there the standard
    error is the distance 2/(n_kept + 1) from E_hat to the far end of the
    z = 1 Wilson (1927) score interval for p = (1 + E)/2; only a pair with
    no kept event is refused.  A finite sample can fluctuate past the
    quantum bound; the estimate then flags exceeds_tsirelson instead of raising.
    """
    e_values = []
    variances = []
    s_signed = variance = 0.0  # plain sums: sum() rounds differently from Python 3.12 on
    for i, (_x, _y, sign) in enumerate(counts.settings.pairs()):
        n_pp, n_pm, n_mp, n_mm = counts.counts[i]
        kept = n_pp + n_pm + n_mp + n_mm
        if kept == 0:
            raise InsufficientDataError(f"setting pair {i} has no kept events")
        e_hat = (n_pp + n_mm - n_pm - n_mp) / kept
        e_values.append(e_hat)
        if abs(e_hat) == 1.0:
            variances.append((2.0 / (kept + 1)) ** 2)
        else:
            variances.append((1.0 - e_hat * e_hat) / kept)
        s_signed += sign * e_hat
        variance += variances[-1]
    return ChshEstimate(
        s_value=abs(s_signed),
        stderr=math.sqrt(variance),
        e_values=tuple(e_values),
        e_stderr=tuple(math.sqrt(v) for v in variances),
    )


def multi_dissociation_rate(p_single: float, n_molecules: int) -> float:
    """Probability that more than one molecule dissociates in a shot.

    Binomial tail P(k >= 2) for n_molecules trials at p_single each:
    the fraction of shots the post-selection on single-pair events
    throws away.  Below n p = 1, where 1 - q^n - n p q^(n-1) cancels,
    the terms from k = 2 are summed by their ratio (below 2/3); above,
    that closed form keeps its digits since the tail is at least 1/4.
    Powers of q = 1 - p go through log1p.
    """
    if not 0.0 <= p_single <= 1.0:
        raise ValidationError(f"p_single must be in [0, 1], got {p_single}")
    n = _require_integer("n_molecules", n_molecules)
    if n < 1:
        raise ValidationError("n_molecules must be a positive integer")
    if n == 1:
        return 0.0
    if p_single == 1.0:
        return 1.0
    log_q = math.log1p(-p_single)
    if n * p_single >= 1.0:
        return 1.0 - math.exp(n * log_q) - n * p_single * math.exp((n - 1) * log_q)
    ratio = p_single / (1.0 - p_single)
    term = n * (n - 1) / 2 * p_single * p_single * math.exp((n - 2) * log_q)
    total, k = 0.0, 2
    while term > 1e-17 * total:  # the rest is below 2 * term
        total += term
        term *= (n - k) / (k + 1) * ratio
        k += 1
    return total
