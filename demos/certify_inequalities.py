"""Exhaustively certify the prevalence inequalities on small alphabets.

Builds the exact law of three symbols' count classes {0, 1, 2, 3, 4, >= 5},
runs one example of each inequality check with its exact expectations, then
fires the full randomized campaign, summarizes the certificates and replays
the tightest one from the case it carries.
"""

import time

from supportsize.oracle import (
    MAX_PREVALENCE,
    LinearFunctional,
    build_instance,
    certification_campaign,
    check_decoupling_lower,
    check_moment_bound,
    f_inv,
    moment_coefficients,
    phi_squared,
    run_case,
    summarize_certificates,
)

inst = build_instance([1.0, 1.0, 1.0])
top = MAX_PREVALENCE + 1
print(f"instance: means={inst.means} classes=0..{MAX_PREVALENCE},>={top} "
      f"cells={len(inst.probs)} (= {top + 1}^{inst.num_symbols})\n")

cert = check_decoupling_lower(
    inst, phi_squared(1), LinearFunctional(coeffs=(0.0, 0.0, 1.0)), f_inv
)
print(f"decoupling lower:  lhs={cert.lhs:.6f} rhs={cert.rhs:.6f} "
      f"margin={cert.margin:.2e} -> {cert.status}")

cert = check_moment_bound(inst, 1, 4)
print(f"moment bound h=4:  lhs={cert.lhs:.4f} rhs={cert.rhs:.4f} "
      f"coeffs={moment_coefficients(4)} -> {cert.status}\n")

start = time.perf_counter()
certs = certification_campaign(seed=2024)
elapsed = time.perf_counter() - start
print(f"campaign: {len(certs)} certificates in {elapsed:.1f}s")
for name, entry in sorted(summarize_certificates(certs).items()):
    print(f"  {name:26s} passed={entry['passed']:4d} "
          f"falsified={entry['falsified']} skipped={entry['skipped']}")

# the passed instance case with the smallest positive margin, rebuilt and
# re-checked from its case alone
tight = min((c for c in certs if c.passed and c.case.means and c.margin > 0),
            key=lambda c: c.margin)
args = ", ".join(getattr(a, "__name__", repr(a)) for a in tight.case.args)
again = run_case(tight.case)
print(f"\ntightest: {tight.name} {tight.detail} margin={tight.margin:.3e}")
print(f"  case: means={tight.case.means} args=({args})")
print(f"  replayed: margin={again.margin:.3e} "
      f"{'identical' if repr(again) == repr(tight) else 'DIFFERENT'}")
