"""Finite-statistics simulation of CHSH runs.

Each setting pair's tally is drawn whole, as one multinomial draw over
its outcome cells, from a counter-based RNG (Philox4x64-10) keyed as
key = [seed, pair_index]: every setting pair owns an independent,
reproducible stream and runs parallelize without coordination.  For
independent events the tally is exactly Multinomial(n, P) in Switched
mode, and Multinomial(n, (P/2, 1/2)) in BeamSplitter mode, whose fifth
cell is the discarded events.  The draw is a chain of binomials, so time
and memory do not depend on the event count.  It is an in-package port
of numpy 2.4's ``Generator(Philox(key=...)).multinomial`` and gives its
tallies bit for bit on the standard library alone, so the tallies no
longer move with a numpy release.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from .bell import _TSIRELSON_TOL, TSIRELSON_BOUND, ChshSettings
from .correlation import SIGN_PAIRS, CorrelationResult, _check_probabilities
from .scenario import (
    _MAX_EVENTS,
    _MAX_SEED,
    _MODES as MODES,
    ValidationError,
    _record,
    _require_integer,
)

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


@_record
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


@_record
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


@_record
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


# Philox4x64-10 (Salmon et al. 2011, "Parallel random numbers: as easy as
# 1, 2, 3"): the round multipliers and the Weyl key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_WORD = (1 << 64) - 1
_INT64_MIN = -(1 << 63)


def _philox_words(key0: int, key1: int):
    """The 64-bit words of numpy's ``Philox(key=[key0, key1])`` stream:
    the 256-bit counter starts at 0 and is incremented before each block,
    and each block serves its four words in order.  The counter's low
    word never carries: 2**64 blocks are out of reach."""
    counter = 0
    while True:
        counter += 1
        c0, c1, c2, c3 = counter, 0, 0, 0
        k0, k1 = key0, key1
        for _ in range(_PHILOX_ROUNDS):
            wide0 = _PHILOX_M0 * c0  # 128-bit products: hi word >> 64, lo word & _WORD
            wide1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = (
                (wide1 >> 64) ^ c1 ^ k0, wide1 & _WORD, (wide0 >> 64) ^ c3 ^ k1, wide0 & _WORD,
            )
            k0 = (k0 + _PHILOX_W0) & _WORD
            k1 = (k1 + _PHILOX_W1) & _WORD
        yield from (c0, c1, c2, c3)


def _philox_uniforms(key0: int, key1: int):
    """numpy's ``next_double`` on that stream: (word >> 11) * 2**-53."""
    return ((word >> 11) * 2.0**-53 for word in _philox_words(key0, key1))


# C's semantics where the binomial draws reach the edges of double and
# int64: exp overflows to inf, sqrt and log of a negative give NaN, log(0)
# gives -inf, (int64_t) of NaN gives x86's integer indefinite, and int64
# arithmetic wraps.
def _c_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _c_sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _c_log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _c_int64(x: float) -> int:
    return int(x) if -9.223372036854775808e18 <= x < 9.223372036854775808e18 else _INT64_MIN


def _wrap_int64(k: int) -> int:
    return (k - _INT64_MIN) % (1 << 64) + _INT64_MIN


def _binomial_inversion(uniform, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion``, for n p <= 30: walk the CDF
    from 0, restarting on a fresh uniform past a 10-sigma bound.  A p below
    0 (the complement of a round-off p above 1) makes q**n >= 1, so it
    draws 0 after one uniform."""
    q = 1.0 - p
    qn = _c_exp(n * math.log1p(-p))
    mean = n * p
    bound = mean + 10.0 * _c_sqrt(mean * q + 1)
    bound = _c_int64(n if n < bound else bound)
    x = 0
    px = qn
    u = next(uniform)
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next(uniform)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _stirling_tail(x: float) -> float:
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def _binomial_btpe(uniform, n: int, p: float) -> int:
    """numpy's ``random_binomial_btpe``, for n p > 30 with p <= 1/2: the
    triangle, parallelogram and exponential-tail acceptance-rejection
    of Kachitvichyanukul & Schmeiser (1988, CACM 31, 216), step for step
    and in numpy's operation order and types.  numpy's callers never pass
    p > 1/2, so its final flip y -> n - y is left out."""
    q = 1.0 - p
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    while True:
        u = next(uniform) * p4
        v = next(uniform)
        if u <= p1:  # triangle: accept at once
            y = math.floor(xm - p1 * v + u)
            break
        if u <= p2:  # parallelogram
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # left exponential tail; numpy rejects v == 0
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # right exponential tail
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):  # explicit f(y)/f(m)
            s = p / q
            a = s * _wrap_int64(n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            break
        # squeeze, then the Stirling bound on log f(y)/f(m)
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _wrap_int64(-k * k) / (2 * nrq)
        log_v = _c_log(v)
        if log_v < t - rho:
            break
        if log_v > t + rho:
            continue
        x1 = y + 1.0
        f1 = m + 1.0
        z = float(n) + 1 - m
        w = float(n) - y + 1
        if log_v > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                    + (y - m) * math.log(w * p / (x1 * q))
                    + _stirling_tail(f1) + _stirling_tail(z)
                    + _stirling_tail(x1) + _stirling_tail(w)):
            continue
        break
    return y


def _binomial(uniform, n: int, p: float) -> int:
    """numpy's ``random_binomial``: inversion when the smaller of p and
    1 - p times n is at most 30, BTPE above."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return (_binomial_inversion if p * n <= 30.0 else _binomial_btpe)(uniform, n, p)
    q = 1.0 - p
    return n - (_binomial_inversion if q * n <= 30.0 else _binomial_btpe)(uniform, n, q)


def _multinomial(uniform, n: int, cells) -> list:
    """numpy's ``random_multinomial``: cell j draws Binomial(what is left,
    p_j / the probability left), and the last cell takes the rest."""
    tally = [0] * len(cells)
    remaining = 1.0
    left = n
    for j, p in enumerate(cells[:-1]):
        tally[j] = _binomial(uniform, left, p / remaining)
        left -= tally[j]
        if left <= 0:
            break
        remaining -= p
    if left > 0:
        tally[-1] = left
    return tally


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
    counts = []
    discarded = []
    # a numpy integer scalar would wrap in the draw's arithmetic (uint8 n + 1)
    n, seed = int(config.events_per_setting), int(config.seed)
    for index, (x, y, _sign) in enumerate(config.settings.pairs()):
        p = correlator(x, y).p
        _check_probabilities(p)
        cells = [max(float(p[outcome]), 0.0) for outcome in OUTCOMES]
        total = 0.0
        for cell in cells:  # numpy's order: sum() rounds differently from Python 3.12 on
            total += cell
        cells = [cell / total for cell in cells]
        if config.mode == "BeamSplitter":
            cells = [0.5 * cell for cell in cells] + [0.5]  # the fifth cell is discarded
        # a cell of probability 0 sits out the draw: the chain of binomials
        # hands its round-off remainder to the last cell
        drawn = iter(_multinomial(
            _philox_uniforms(seed, index), n, [cell for cell in cells if cell > 0.0]
        ))
        tally = [next(drawn) if cell > 0.0 else 0 for cell in cells]
        counts.append(tuple(tally[:4]))
        discarded.append(sum(tally[4:]))  # Switched draws no fifth cell
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
