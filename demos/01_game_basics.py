"""A first walk through the distinguishing game.

A challenger holds a family of K sign functions on [N].  It either sends the
phase state of a random family member or a fresh uniformly random phase
state; a one-query adversary (isometry V, projector Pi, oracle sign pattern
f) must say which.  This script builds a small random instance, evaluates the
advantage at a fixed f, finds the best f exactly and by local search, and
plays the game, whose win count is drawn from its law around 1/2 + gap/2.
"""

import numpy as np

import phaselab as pl
from phaselab.numerics import RngStream

rng = RngStream(2026)
N, M, K = 8, 12, 4

adv = pl.AdversarySpec(
    V=pl.random_isometry(N, M, rng.child(0)),
    Pi=pl.random_projector(M, 6, rng.child(1)),
)
R = pl.random_family(K, N, rng.child(2))

print(f"instance: N={N}, M={M}, K={K}")

f0 = np.ones(M)
print(f"advantage at f = all-ones: {pl.advantage_given_f(adv, R, f0):.6f}")

best, f_best = pl.max_advantage_bruteforce(adv, R)
print(f"exact maximum over all 2^{M} oracle functions: {best:.6f}")

local, _ = pl.max_advantage_localsearch(adv, R, rng=rng.child(3))
print(f"hill-climbing estimate (20 restarts):          {local:.6f}")

# The advantage is a quadratic form of a Hermitian M x M kernel in f, which
# is what makes both maximizers cheap.
B = pl.advantage_kernel(adv, R)
gap = pl.kernel_quadratic_form(B, f_best)
print(f"signed kernel gap at the maximizer: {gap:+.6f}")

trials = 200_000
win = pl.simulate_game(adv, R, f_best, trials, rng.child(4))
print(f"simulated win rate over {trials} trials: {win:.4f}"
      f"  (predicted {0.5 + gap / 2:.4f})")
