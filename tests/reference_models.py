"""Test-only reference model: a spin-1/2 singlet-style correlator.

Its CHSH value at the textbook angles is exactly 2*sqrt(2), which makes
it the oracle for the CHSH and Monte Carlo machinery.  A spin setting is
an InterferometerSetting whose ``ell`` is read as the analyzer angle in
radians; ``theta`` is ignored.
"""

import math

from dtebell.bell import ChshSettings
from dtebell.correlation import CorrelationResult, InterferometerSetting


def spin_correlation(x: InterferometerSetting, y: InterferometerSetting) -> CorrelationResult:
    """P(s1, s2) = {1 + s1 s2 cos(phi1 - phi2)}/4 with phi1 = x.ell, phi2 = y.ell."""
    e = math.cos(x.ell - y.ell)
    p = {(s1, s2): 0.25 * (1.0 + s1 * s2 * e) for s1 in (1, -1) for s2 in (1, -1)}
    e_value = p[(1, 1)] - p[(1, -1)] - p[(-1, 1)] + p[(-1, -1)]
    return CorrelationResult(
        p=p, e_value=e_value, quadrature_error_estimate=0.0,
        visibility=1.0,
    )


def angle_settings(a: float, a_prime: float, b: float, b_prime: float) -> ChshSettings:
    """CHSH settings for spin_correlation, angles in radians."""
    return ChshSettings(*(InterferometerSetting(ell=phi) for phi in (a, a_prime, b, b_prime)))


TEXTBOOK = angle_settings(0.0, 0.5 * math.pi, 0.25 * math.pi, 0.75 * math.pi)
