"""Workspace compression for one-query measurements.

If a one-query circuit queries an oracle on [L] but carries a much larger
workspace, only the L block-measurement operators of its isometry matter.
Stacking their operator square roots compresses the isometry to L * D rows
(D = input dimension) while preserving every pairwise inner product of
post-query states -- hence every one-query measurement statistic.  The
script verifies this exactly, and demonstrates the isometry-extension
primitive used to realize the compressed circuit.
"""

import numpy as np

import phaselab as pl
from phaselab.numerics import RngStream

rng = RngStream(31)
D, L, S = 4, 8, 16  # input dim, oracle points, workspace dim per point

adv = pl.AdversarySpec(
    V=pl.random_isometry(D, L * S, rng.child(0)),
    Pi=pl.random_projector(L * S, 64, rng.child(1)),
)

ops = pl.measurement_operators(adv, L, S)
print(f"{L} measurement operators on dimension {D}; "
      f"sum-to-identity residual {np.max(np.abs(sum(ops) - np.eye(D))):.2e}")

W = pl.compress_isometry(adv, L, S)
print(f"original isometry: {adv.V.shape[0]} x {adv.V.shape[1]} "
      f"-> compressed: {W.shape[0]} x {W.shape[1]}")
print(f"isometry residual of W: "
      f"{np.max(np.abs(W.conj().T @ W - np.eye(D))):.2e}")

dev = pl.verify_one_query_simulation(adv, L, trials=100, rng=rng.child(2))
print(f"max inner-product deviation over 100 random oracle/input pairs: {dev:.2e}")

# extend_to_isometry: realize any inner-product-preserving correspondence.
T0 = pl.random_isometry(6, 9, rng.child(3))
g = rng.child(4).generator()
xs = []
for _ in range(3):
    x = g.standard_normal(6) + 1j * g.standard_normal(6)
    xs.append(x / np.linalg.norm(x))
ys = [T0 @ x for x in xs]
T = pl.extend_to_isometry(xs, ys)
worst = max(np.max(np.abs(T @ x - y)) for x, y in zip(xs, ys))
print(f"\nextension recovers the planted action to {worst:.2e}; "
      f"isometry residual {np.max(np.abs(T.conj().T @ T - np.eye(6))):.2e}")
