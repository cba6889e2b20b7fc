"""
Optimizing the CHSH combination
===============================

Seeds four arm-length settings from the fringe phase, polishes them with
bounded line searches along each length and along all four together, and
reports S against the local-realism bound 2 and the dispersion-limited
ceiling 2*sqrt(2)*V.  Then repeats at a doubled pulse separation where
dispersion has washed the violation out.
"""

import math

from dtebell import (
    DtePair,
    chsh_value,
    closed_form_correlator,
    load_config,
    optimize_settings,
    phi_tau,
    scales_from_scenario,
    seed_settings,
    visibility,
)


def analyze(document, label):
    scenario = document.to_scenario()
    scales = scales_from_scenario(scenario)
    tau = scenario.pulses.pulse_separation
    pair = DtePair(
        distribution=scales, tau=tau, phi_tau=phi_tau(scenario), species=scenario.species
    )

    correlator = closed_form_correlator(pair)
    seeded = seed_settings(pair)
    best = optimize_settings(correlator, seeded)
    outcome = chsh_value(correlator, best.settings)

    v = visibility(scales, tau)
    ceiling = 2 * math.sqrt(2) * v
    print(f"{label} (tau = {tau:g} s)")
    print(f"  visibility           {v:.6f}")
    print(f"  ceiling 2*sqrt(2)*V  {ceiling:.6f}")
    print(f"  optimized S          {best.s_value:.6f}")
    print(f"  gap to ceiling       {ceiling - best.s_value:.2e}")
    print(f"  violates S <= 2      {'yes' if outcome.violated else 'no'}")
    for name, setting in zip(("a", "a'", "b", "b'"), best.settings.as_tuple()):
        print(f"    {name:2s} ell = {setting.ell * 1e6:+12.6f} um")
    print()


document = load_config(None)
analyze(document, "shipped scenario")

# double the wait: the product of dispersion factors passes 4 and the
# fringe amplitude drops below 1/sqrt(2)
analyze(document.replace("pulses", "separation_s", 2.0), "doubled separation")

print("the four optimized lengths straddle the envelope center about")
print("half a fringe apart, the matter-wave analogue of analyzer angles")
print("(0, pi/2) x (pi/4, 3pi/4)")
