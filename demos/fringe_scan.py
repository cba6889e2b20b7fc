"""
Nonlocal fringes in the arm-length difference
=============================================

Scans one interferometer arm across the wave-packet envelope and prints
the joint correlator E.  The fringe lives in the DIFFERENCE of the two
arm-length asymmetries: neither particle alone shows it.  A second pass
cross-checks the closed form against the oscillatory-integral route.
"""

import math

import numpy as np

from dtebell import (
    DtePair,
    InterferometerSetting,
    correlate_closed_form,
    correlate_quadrature,
    distribution_from_scenario,
    gaussian_approximation,
    load_config,
    phi_tau,
    scales_from_scenario,
)

scenario = load_config(None).to_scenario()
scales = scales_from_scenario(scenario)
tau = scenario.pulses.pulse_separation
pulse_phase = phi_tau(scenario)

center1 = tau * scales.v_rel / 2        # early/late overlap point, arm 1
center2 = -center1                      # and arm 2 (opposite momentum)
period = 2 * math.pi * scales.lambda_bar_rel

print(f"envelope center: ell1 = {center1 * 1e6:.2f} um, ell2 = {center2 * 1e6:.2f} um")
print(f"fringe period:   {period * 1e6:.3f} um in ell1 - ell2")
print()

print("ell1 offset (periods)    E         bar")
for d in np.linspace(-1.0, 1.0, 21):
    result = correlate_closed_form(
        scales, tau, pulse_phase, center1 + d * period, center2
    )
    e = result.e_value
    width = int(round(20 * (e + 1) / 2))
    print(f"  {d:+5.2f}               {e:+7.4f}   {'#' * width}")

# same physics through the 4D oscillatory integral, no closed form
# involved: it reads the Gaussian pair, not the scales
pair = DtePair(
    distribution=gaussian_approximation(distribution_from_scenario(scenario)),
    tau=tau,
    phi_tau=pulse_phase,
    species=scenario.species,
)
print()
print("closed form vs direct quadrature at three offsets:")
for d in (-0.5, 0.0, 0.5):
    ell1 = center1 + d * period
    closed = correlate_closed_form(scales, tau, pulse_phase, ell1, center2)
    quad = correlate_quadrature(
        pair, InterferometerSetting(ell=ell1), InterferometerSetting(ell=center2)
    )
    print(
        f"  offset {d:+4.1f}: E_closed = {closed.e_value:+.9f}  "
        f"E_quad = {quad.e_value:+.9f}  |diff| = {abs(closed.e_value - quad.e_value):.2e}"
    )
