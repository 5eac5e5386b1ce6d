"""The rescaling decomposition and the width statistic.

Any isometry V applied to a phase state factors as V |psi_h> = D_h |wt_V>:
a fixed unit "weight vector" built from the row norms of V, rescaled by a
diagonal matrix depending on h.  The diagonal entries have unit mean square,
and the width of a family is the worst per-row average of their squared
magnitudes -- a measure of how far the family's rescalings stray from
typical.  Width near 1 is what the truncation-based analysis needs.
"""

import numpy as np

import phaselab as pl
from phaselab.numerics import RngStream

rng = RngStream(11)
N, M, K = 16, 48, 32

V = pl.random_isometry(N, M, rng.child(0))
R = pl.random_family(K, N, rng.child(1))
h = R[0]

# The factorization, verified to machine precision: D_h is diagonal, so
# D_h |wt_V> is the entrywise product of its diagonal with sqrt(weights).
D, mask = pl.rescaling_diagonals(V, h[None])
d = D[0]
wt = np.sqrt(pl.isometry_weights(V))
residual = np.max(np.abs(d * wt - V @ pl.phase_state(h)))
print(f"reconstruction residual |D wt - V psi|_max = {residual:.2e}")

mags = np.abs(d[~mask])
print(f"diagonal magnitudes: mean^2 {np.mean(mags**2):.3f}, max {mags.max():.3f}")

w = pl.width(V, R)
print(f"width of the family under V: {w:.4f}")
print(f"width of the same family under the identity: "
      f"{pl.width(np.eye(N), R):.4f}  (always exactly 1)")

# Truncation clips outlier diagonal entries while preserving phases.
B = 2.0
print(f"after truncation at B={B}: max magnitude "
      f"{np.max(np.abs(pl.truncate_values(d, B))):.3f}, "
      f"B-bounded family: {pl.is_b_bounded(V, R, B)}")

# Width concentrates as K grows; a stack of families gives one width each.
print("\nmean width over 50 fresh families:")
for K in (8, 32, 128):
    stack = np.stack([pl.random_family(K, N, rng.child(2).child(K * 100 + i))
                      for i in range(50)])
    print(f"  K={K:4d}: {np.mean(pl.width(V, stack)):.4f}")
