"""
Dispersion timescales and fringe visibility
===========================================

Walks the bundled lithium-6 scenario from trap parameters to the two
dispersion times, then shows how the fringe-center visibility decays as
the pulse separation grows and where it crosses the 1/sqrt(2) threshold.
"""

import math

from dtebell import crossing_tau, feasible, load_config, scales_from_scenario, visibility

scenario = load_config(None).to_scenario()
scales = scales_from_scenario(scenario)

print("bundled scenario (lithium-6, guided dissociation)")
print(f"  atom mass            {scenario.species.atom_mass:.6e} kg")
print(f"  relative velocity    {scales.v_rel * 100:.3f} cm/s")
print(f"  reduced wavelength   {scales.lambda_bar_rel * 1e6:.4f} um")
print(f"  fringe period        {2 * math.pi * scales.lambda_bar_rel * 1e6:.3f} um")
print(f"  T_cm  (c.m. spread)  {scales.t_cm:.4f} s")
print(f"  T_rel (rel. spread)  {scales.t_rel:.4f} s")
print()

# visibility = [(1 + tau^2/T_cm^2)(1 + tau^2/T_rel^2)]^(-1/4): both packets
# disperse while the interferometer waits out the pulse separation
threshold = 1 / math.sqrt(2)
print(f"tau (s)   visibility   product   verdict (threshold {threshold:.4f})")
for tau in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
    v = visibility(scales, tau)
    report = feasible(scales, tau)
    verdict = "violation possible" if report.feasible else "no violation"
    print(f"  {tau:4.2f}    {v:8.4f}    {report.product:7.3f}   {verdict}")

# the crossing in closed form: the tau where the dispersion product reaches 4
print()
print(f"visibility crosses 1/sqrt(2) at tau = {crossing_tau(scales):.4f} s")
print("the shipped separation of 1.0 s sits inside the violation window")
