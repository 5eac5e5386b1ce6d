"""Spectral relaxations: operator-norm upper bounds on the advantage.

Replacing the oracle-rotated weight vector by an arbitrary unit vector turns
the maximum over oracle functions into an operator norm -- an efficiently
computable upper bound.  This script sandwiches the exact brute-force
advantage between a fixed-f evaluation and three relaxations: the plain one
(all-h term in closed form), a truncated one (closed-form all-h term plus a
Monte Carlo correction for the clipped entries, with an error that bounds its
distance from the exact truncated norm), and the decoupled one over two
independent families.
"""

import numpy as np

import phaselab as pl
from phaselab.numerics import RngStream

rng = RngStream(23)
N, M, K = 8, 12, 4

adv = pl.AdversarySpec(
    V=pl.random_isometry(N, M, rng.child(0)),
    Pi=pl.random_projector(M, 6, rng.child(1)),
)
R = pl.random_family(K, N, rng.child(2))

fixed = pl.advantage_given_f(adv, R, np.ones(M))
best, _ = pl.max_advantage_bruteforce(adv, R)
plain = pl.spectral_relaxation(adv, R)
print(f"advantage at f = ones:      {fixed:.6f}")
print(f"exact max over f:           {best:.6f}")
print(f"plain spectral relaxation:  {plain:.6f}   (always >= the max)")

for B in (1.0, 2.0, 4.0):
    val, err = pl.truncated_spectral_relaxation(adv, R, B, samples=20_000, rng=rng.child(3))
    print(f"truncated relaxation, B={B}: {val:.6f} +- {err:.6f}")

Rp = pl.random_family(K, N, rng.child(4))
dec = pl.decoupled_spectral_relaxation(adv, R, Rp)
dbest, _ = pl.max_decoupled_bruteforce(adv, R, Rp)
print(f"\ndecoupled relaxation over independent copies: {dec:.6f}")
print(f"exact decoupled max over f:                   {dbest:.6f}")

# Subset-norm exploration over a random projective resolution of identity on
# a product space: how large can the deviation of a partial sum get?
dim, L = 16, 8
U = pl.random_isometry(dim, dim, rng.child(5))
blk = dim // L
projectors = [U[:, i*blk:(i+1)*blk] @ U[:, i*blk:(i+1)*blk].conj().T for i in range(L)]
g = rng.child(6).generator()
states = []
for _ in range(K):
    s = g.standard_normal(N) + 1j * g.standard_normal(N)
    states.append(s / np.linalg.norm(s))
val, witness = pl.subset_norm_conjecture(projectors, states, mode="brute")
vg, wg = pl.subset_norm_conjecture(projectors, states, mode="greedy", rng=rng.child(7))
print(f"\nsubset-norm explorer: brute {val:.6f} at subset {witness}")
print(f"                      greedy {vg:.6f} at subset {wg}")
