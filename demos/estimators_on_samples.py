"""Draw Poisson samples and compare the four support estimators.

Each trial samples per-symbol multiplicities, extracts the fingerprint with
the latent unseen count phi_0, and runs every estimator against the true
support size.
"""

import numpy as np

from supportsize import (
    UndefinedEstimateError,
    fingerprint,
    make_distribution,
    sample,
    support_estimate,
)

k, n = 1000, 1500.0
P = make_distribution("geometric", k)
true_support = len(P)
print(f"geometric, k={k}, n={n:g}, true support {true_support}\n")

rows = []
for trial in range(8):
    fp = fingerprint(sample(P, n, seed=[42, trial]), P)
    plugin = support_estimate(fp, "plugin").value
    try:
        chao = support_estimate(fp, "chao").value
    except UndefinedEstimateError:
        chao = float("nan")
    mc = support_estimate(fp, "modified_chao").value
    cheb = support_estimate(fp, "chebyshev", k=k, n=n).value
    rows.append((plugin, chao, mc, cheb))
    print(
        f"trial {trial}: phi0={fp.phi0:3d} plugin={plugin:5.0f} "
        f"chao={chao:7.1f} modified={mc:7.1f} chebyshev={cheb:7.1f}"
    )

arr = np.array(rows)
print("\nmean estimate per estimator (plugin, chao, modified, chebyshev):")
print("  " + "  ".join(f"{v:7.1f}" for v in np.nanmean(arr, axis=0)))
print(f"  target {true_support}")
