"""
Phase stability and source purity
=================================

The early/late phase difference must stay put from shot to shot or the
fringes smear.  This script propagates per-parameter reproducibility
into phase drift and grades each knob against a 50 mrad budget, then
estimates how rare multi-molecule dissociations must be kept.
"""

from dtebell import (
    dissociation_probability,
    load_config,
    multi_dissociation_rate,
    phase_stability,
    phi_tau,
)
from dtebell.dissociation import PHASE_BUDGET, required_c_tilde_norm_sq

scenario = load_config(None).to_scenario()
print(f"pulse-sequence phase phi_tau = {phi_tau(scenario):.3f} rad")
print()

report = phase_stability(scenario, relative_errors=1e-5)
print(f"drift per parameter at 1e-5 relative reproducibility "
      f"(budget {PHASE_BUDGET * 1e3:.0f} mrad):")
for name in sorted(report.drifts):
    drift = report.drifts[name]
    flag = "ok  " if report.passes[name] else "FAIL"
    print(f"  {flag}  {name:20s} {drift:.3e} rad")
print(f"  quadrature total: {report.total:.3e} rad")
print()

# the two field knobs only enter through their difference, so a common
# drift of magnet and resonance cancels exactly
print(f"common-mode field drift: {report.common_mode_field_drift:.1e} rad")
print("absolute field stability is NOT the requirement; the detuning is.")
print()

# what per-knob stability would meet the budget?
for name in sorted(report.drifts):
    if report.drifts[name] > 0:
        needed = 1e-5 * PHASE_BUDGET / report.drifts[name]
        print(f"  {name:20s} needs relative error < {needed:.1e}")
print()

# source purity: one molecule at a time, or the coincidences lie
mean_pairs = 1.0
norm_sq = required_c_tilde_norm_sq(scenario, 100, target_mean=mean_pairs)
p_single = dissociation_probability(scenario, norm_sq)
print(f"100 trapped molecules, mean {mean_pairs:g} dissociation per shot:")
print(f"  per-molecule probability      {p_single:.4f}")
print(f"  multi-dissociation rate       {multi_dissociation_rate(p_single, 100):.4f}")
print(f"  (those shots are vetoed by coincidence gating)")
