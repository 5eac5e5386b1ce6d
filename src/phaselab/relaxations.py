"""Operator-norm upper bounds on the distinguishing advantage.

The gap at f is f^T B f = <wt_V| O_f A O_f |wt_V> for the game's kernel B and
A = B in the weight basis, A_ij = B_ij / sqrt(wt_i wt_j) with zero-weight rows
and columns 0.  Replacing the unit vector O_f |wt_V> by any unit vector bounds
the advantage by ||A||_op: the spectral relaxation.  The plain relaxation takes
B from `advantage_kernel`, the decoupled one (two independent families) from
`decoupled_kernel`; the truncated one clips the rescaling diagonals at B and
corrects the clipped all-h entries by Monte Carlo.  A subset-norm explorer for
product-space measurements rounds out the module.
"""

from __future__ import annotations

import functools

import numpy as np

from .decomposition import rescaling_diagonals, truncate_values
from .game import (
    AdversarySpec,
    advantage_kernel,
    check_bruteforce_size,
    check_signs,
    family_images,
    max_abs_quadratic,
)
from .numerics import (
    CapacityError,
    RngStream,
    check_unit_vector,
    operator_norm,
    parallel_blocks,
    random_sign_array,
)

__all__ = [
    "spectral_relaxation",
    "truncated_spectral_relaxation",
    "decoupled_spectral_relaxation",
    "decoupled_kernel",
    "decoupled_advantage_given_f",
    "max_decoupled_bruteforce",
    "subset_norm_conjecture",
    "SUBSET_CUTOFF",
]

TRUNCATED_BATCHES = 10  # Monte Carlo batches of the truncated relaxation's all-h correction
SUBSET_BLOCK = 1 << 16  # matrix entries per block of subset sums: 1 MiB of complex128
SUBSET_CUTOFF = 20  # most projectors whose 2^L subsets the brute-force mode enumerates


def _weight_basis(adv: AdversarySpec, kernel: np.ndarray) -> np.ndarray:
    """kernel_ij / sqrt(wt_i wt_j), with zero-weight rows and columns set to 0."""
    scale = np.sqrt(np.where(adv.mask, 1.0, adv.weights))
    out = kernel / np.outer(scale, scale)  # an exactly Hermitian kernel stays so
    out[adv.mask, :] = 0.0
    out[:, adv.mask] = 0.0
    return out


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, equal to its conjugate transpose bit for bit."""
    return (m + m.conj().T) / 2


def _clip_gain(D: np.ndarray, B: float) -> np.ndarray:
    """(trunc(D) - D)^H (trunc(D) + D): its Hermitian part is trunc(D)^H trunc(D) - D^H D."""
    DB = truncate_values(D, B)
    return (DB - D).conj().T @ (DB + D)


def spectral_relaxation(adv: AdversarySpec, R) -> float:
    """||advantage_kernel(adv, R) in the weight basis|| = ||E_k D_k^H Pi D_k - E_h D_h^H Pi D_h||"""
    return operator_norm(_weight_basis(adv, advantage_kernel(adv, R)))


def truncated_spectral_relaxation(
    adv: AdversarySpec,
    R,
    B: float,
    samples: int = 10_000,
    rng: RngStream | None = None,
) -> tuple[float, float]:
    """Spectral relaxation with rescaling diagonals clipped at magnitude B.

    The matrix is the plain relaxation's plus Pi o H(G_R)/K minus Pi o H(G_h)/n:
    H is the Hermitian part, G the clip gain (trunc(D) - D)^H (trunc(D) + D), and
    G_h sums it over `samples` random sign functions in TRUNCATED_BATCHES batches,
    a Monte Carlo estimate for the all-h term.  With no entry clipped both gains
    are 0 and the value is exactly `spectral_relaxation`.  Returns (value, error).
    The error is ||Pi o (mean over the first half of the batches - mean over
    the second half)|| / 2, an estimate of the norm of the Monte Carlo error
    matrix; by Weyl's inequality that norm bounds |value - exact|, where exact
    is the norm with the all-h term averaged over all 2^N sign functions.
    """
    if samples < TRUNCATED_BATCHES:
        raise ValueError(f"need at least {TRUNCATED_BATCHES} samples, one per batch; got {samples}")
    rng = RngStream(0) if rng is None else rng
    plain = _weight_basis(adv, advantage_kernel(adv, R))
    D, _ = rescaling_diagonals(adv, R)
    family_gain = _clip_gain(D, B) / len(D)

    per_batch = samples // TRUNCATED_BATCHES
    n = per_batch * TRUNCATED_BATCHES

    def run_batch(b, size):
        g = rng.child(b).generator()
        Dh, _ = rescaling_diagonals(adv, random_sign_array(g, (size, adv.N)))
        return _clip_gain(Dh, B)

    sums = parallel_blocks(run_batch, n, per_batch)
    half = TRUNCATED_BATCHES // 2
    first, second = sum(sums[:half]), sum(sums[half:])
    value = operator_norm(plain + adv.Pi * _hermitian_part(family_gain - (first + second) / n))
    error = operator_norm(adv.Pi * _hermitian_part(first - second) / n)
    return value, error


def decoupled_spectral_relaxation(adv: AdversarySpec, R, Rp) -> float:
    """||decoupled_kernel(adv, R, Rp) in the weight basis|| = ||E_k D_k^H Pi D'_k||."""
    return operator_norm(_weight_basis(adv, decoupled_kernel(adv, R, Rp)))


def decoupled_kernel(adv: AdversarySpec, R, Rp) -> np.ndarray:
    """M x M kernel C with  f^T C f = E_k <psi_k| V^H O_f Pi O_f V |psi'_k>."""
    U, Up = family_images(adv.V, R), family_images(adv.V, Rp)
    if U.shape != Up.shape:
        raise ValueError(f"family shapes differ: {U.shape[0]} vs {Up.shape[0]} rows")
    return adv.Pi * (U.conj().T @ Up) / U.shape[0]


def decoupled_advantage_given_f(adv: AdversarySpec, R, Rp, f) -> float:
    """|E_k <psi_k| V^H O_f Pi O_f V |psi'_k>| at a fixed oracle function."""
    fv = check_signs(f)
    C = decoupled_kernel(adv, R, Rp)
    return float(np.abs(fv @ (C @ fv)))


def max_decoupled_bruteforce(adv: AdversarySpec, R, Rp):
    """Exact max over oracle functions of the decoupled advantage.

    The kernel is generally non-Hermitian, so the quadratic form is complex;
    the maximized quantity is its modulus.  Sign symmetry halves the search;
    `max_abs_quadratic` runs it meet-in-the-middle in O(2^(M/2)) memory, ties
    breaking to the lexicographically first maximizer.  An M above
    BRUTEFORCE_CUTOFF is refused before the kernel is built.
    """
    check_bruteforce_size(adv.M)
    return max_abs_quadratic(decoupled_kernel(adv, R, Rp))


def _subset_value_terms(projectors, states) -> list[np.ndarray]:
    """Per-projector deviation terms on the co-factor space.

    For states |psi_k> in dimension N and projectors on dimension N * P, each
    term is E_k (<psi_k| x Id) Pi_i (|psi_k> x Id) minus its Haar average
    tr_over_first_factor(Pi_i)/N; the subset value is the operator norm of the
    sum over the chosen subset.
    """
    states = [check_unit_vector(s) for s in states]
    if not states or len(projectors) == 0:
        raise ValueError("need at least one state and one projector")
    N = states[0].size
    if any(s.size != N for s in states):
        raise ValueError("states must share one dimension")
    dim = np.asarray(projectors[0]).shape[0]
    if dim % N != 0:
        raise ValueError(f"projector dimension {dim} not divisible by N = {N}")
    P = dim // N
    total = np.zeros((dim, dim), dtype=np.complex128)
    terms = []
    for Pi in projectors:
        Pm = np.asarray(Pi, dtype=np.complex128)
        if Pm.shape != (dim, dim):
            raise ValueError("projectors must share one dimension")
        total += Pm
        T = Pm.reshape(N, P, N, P)
        pinched = np.zeros((P, P), dtype=np.complex128)
        for s in states:
            pinched += np.einsum("k,kplq,l->pq", np.conj(s), T, s)
        pinched /= len(states)
        haar = np.einsum("kpkq->pq", T) / N
        terms.append(pinched - haar)
    if float(np.max(np.abs(total - np.eye(dim)))) > 1e-8:
        raise ValueError("projectors must sum to the identity")
    return terms


def subset_norm_conjecture(
    projectors,
    states,
    mode: str = "brute",
    restarts: int = 32,
    rng: RngStream | None = None,
):
    """Maximize || sum_{i in S} deviation-term_i ||_op over subsets S.

    'brute' enumerates all 2^L subsets (L <= SUBSET_CUTOFF), ties to the first in bit
    order; 'greedy' grows S by single-index additions, accepting the first
    improving move, with random restart orders.  Returns (value, sorted witness).
    """
    L = len(projectors)
    if mode == "brute" and L > SUBSET_CUTOFF:
        raise CapacityError(f"2^{L} subsets exceed the brute-force cutoff {SUBSET_CUTOFF}")
    if mode not in ("brute", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    terms = np.stack(_subset_value_terms(projectors, states))
    if mode == "brute":
        # Block b: a doubling table over the low k terms, plus b's high terms in order, so
        # each sum is sum(terms[i] for i in members) bit for bit (a Gray-code walk drifts).
        k = min(L, max(0, (SUBSET_BLOCK // terms[0].size).bit_length() - 1))
        low = np.zeros((1 << k, *terms.shape[1:]), dtype=np.complex128)
        for j in range(k):
            low[1 << j : 2 << j] = low[: 1 << j] + terms[j]

        def run_block(b, size):
            high = [terms[j] for j in range(k, L) if (b >> (j - k)) & 1]
            return operator_norm(functools.reduce(np.add, high, low))

        best_val, best_bits = 0.0, 0
        for b, vals in enumerate(parallel_blocks(run_block, 1 << L, 1 << k)):
            for bits, val in enumerate(vals.tolist(), start=b << k):
                if val > best_val + 1e-15:
                    best_val, best_bits = val, bits
        return best_val, tuple(i for i in range(L) if (best_bits >> i) & 1)
    rng = RngStream(0) if rng is None else rng
    best_val, best_set = 0.0, ()
    for r in range(restarts):
        order = rng.child(r).generator().permutation(L)
        chosen, acc, val = [], np.zeros_like(terms[0]), 0.0
        while len(chosen) < L:
            rest = [int(i) for i in order if int(i) not in chosen]
            cands = operator_norm(acc + terms[rest])
            better = np.flatnonzero(cands > val + 1e-12)
            if better.size == 0:
                break
            i, val = rest[better[0]], float(cands[better[0]])
            chosen, acc = chosen + [i], acc + terms[i]
        if val > best_val:
            best_val, best_set = val, tuple(sorted(chosen))
    return best_val, best_set
