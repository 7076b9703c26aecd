"""Small Monte Carlo MSE sweep over the zoo, written to CSV.

A scaled-down version of the default sweep. The sweep draws each
(family, n) cell once, in blocks of bench.BLOCK trials seeded by
(master_seed, block index), and scores every estimator on the same samples;
trial t's sample depends only on (master_seed, t), and the output CSV is
byte-identical run to run.
"""

import tempfile
from pathlib import Path

from supportsize import SweepConfig, run_sweep

out = Path(tempfile.gettempdir()) / "supportsize_demo_sweep.csv"
cfg = SweepConfig(
    k=500,
    n_grid=(250.0, 500.0, 1000.0, 2000.0),
    trials=400,
    output_path=str(out),
)
rows = run_sweep(cfg)
print(f"wrote {len(rows)} rows to {out}\n")

print(f"{'family':12} {'n':>6} {'estimator':>14} {'mse':>12} {'stderr':>10}")
for r in rows:
    if r.estimator_id != "chebyshev" or r.n in (500.0, 1000.0):
        print(f"{r.family:12} {r.n:6.0f} {r.estimator_id:>14} "
              f"{r.mse:12.3f} {r.stderr:10.3f}")
