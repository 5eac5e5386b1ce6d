"""The Hadamard measure-and-classify attack.

Apply the Hadamard transform to the unknown phase state and measure in the
computational basis.  Family states produce a biased outcome distribution;
uniform phase states do not.  The total-variation distance between the two
outcome distributions is exactly the best achievable advantage of this
attack, and it decays like 1/sqrt(K) as the family grows.  The attack also
embeds into the game formalism via a phase-kickback encoding, which this
script cross-checks against the closed form and plays once (a draw around
the encoding's exact gap).
"""

import numpy as np

import phaselab as pl
from phaselab.numerics import RngStream

rng = RngStream(7)
n = 8
N = 1 << n

print(f"phase states on {N} points; advantage of the Hadamard attack vs K:")
for K in (4, 16, 64, 256):
    vals = [
        pl.hadamard_attack_exact_advantage(pl.random_family(K, N, rng.child(K).child(d)))
        for d in range(20)
    ]
    m = np.mean(vals)
    print(f"  K={K:4d}: mean advantage {m:.4f}   (advantage * sqrt(K) = {m*np.sqrt(K):.3f})")

# Cross-check one instance three ways: closed form, game encoding, simulation.
R = pl.random_family(16, N, rng.child(1))
exact = pl.hadamard_attack_exact_advantage(R)
adv, f = pl.hadamard_game_encoding(R)
encoded = pl.advantage_given_f(adv, R, f)
win = pl.simulate_game(adv, R, f, 100_000, rng.child(2))
print(f"\nclosed-form TV advantage:    {exact:.6f}")
print(f"game-encoding advantage:     {encoded:.6f}")
print(f"simulated (2*win - 1):       {2 * win - 1:.6f}")

# The squared-row-sum statistic X has mean 1 and variance ~ 2/K, which is
# what drives the 1/sqrt(K) scaling above.
rep = pl.hadamard_attack_report(n, 16, draws=300, trials=0, rng=rng.child(3))
print(f"\nX statistic over 300 families: mean {rep.x_statistic_mean:.4f}, "
      f"variance {rep.x_statistic_variance:.4f} (2/K = {2 / 16:.4f})")
