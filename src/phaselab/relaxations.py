"""Operator-norm upper bounds on the distinguishing advantage.

The gap at f is f^T B f = <wt_V| O_f A O_f |wt_V> for the game's kernel B and
A = B in the weight basis, A_ij = B_ij / sqrt(wt_i wt_j) with zero-weight rows
and columns 0.  Replacing the unit vector O_f |wt_V> by any unit vector bounds
the advantage by ||A||_op: the spectral relaxation.  The plain relaxation takes
B from `advantage_kernel`, the decoupled one (two independent families) from
`decoupled_kernel`; the truncated one clips the rescaling diagonals at B and
corrects the clipped all-h entries by Monte Carlo.  All but it and the fixed-f
advantage take stacks of families.  A subset-norm explorer rounds out the module.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .decomposition import rescaling_diagonals, truncate_values
from .game import (
    AdversarySpec,
    advantage_kernel,
    check_bruteforce_size,
    check_family,
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
    """kernel_ij / sqrt(wt_i wt_j), zero-weight rows and columns 0, in place; or of a stack."""
    scale = np.sqrt(np.where(adv.mask, 1.0, adv.weights))
    kernel /= np.outer(scale, scale)  # an exactly Hermitian kernel stays so
    kernel[..., adv.mask, :] = 0.0
    kernel[..., adv.mask] = 0.0
    return kernel


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2 of a matrix or a stack, equal to its conjugate transpose bit for bit."""
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def _clip_gain(D: np.ndarray, B: float) -> np.ndarray:
    """(trunc(D) - D)^H (trunc(D) + D): its Hermitian part is trunc(D)^H trunc(D) - D^H D."""
    DB = truncate_values(D, B)
    return (DB - D).conj().T @ (DB + D)


def spectral_relaxation(adv: AdversarySpec, R):
    """||advantage_kernel(adv, R) in the weight basis|| = ||E_k D_k^H Pi D_k - E_h D_h^H Pi D_h||"""
    return operator_norm(_weight_basis(adv, advantage_kernel(adv, R)))


def truncated_spectral_relaxation(
    adv: AdversarySpec,
    R,
    B: float,
    samples: int = 10_000,
    *,
    rng: RngStream,
) -> tuple[float, float]:
    """Spectral relaxation with rescaling diagonals clipped at magnitude B.

    The matrix is the plain relaxation's plus Pi o H(G_R)/K minus Pi o H(G_h)/n:
    H is the Hermitian part, G the clip gain (trunc(D) - D)^H (trunc(D) + D), and
    G_h sums it over n = `samples` random sign functions, a multiple of
    TRUNCATED_BATCHES, batch b drawing n / TRUNCATED_BATCHES from rng.child(b):
    a Monte Carlo estimate for the all-h term.  With no entry clipped both gains
    are 0 and the value is exactly `spectral_relaxation`.  Returns (value, error).
    The error is ||Pi o (mean over the first half of the batches - mean over
    the second half)|| / 2, an estimate of the norm of the Monte Carlo error
    matrix; by Weyl's inequality that norm bounds |value - exact|, where exact
    is the norm with the all-h term averaged over all 2^N sign functions.
    """
    if samples < 1 or samples % TRUNCATED_BATCHES:
        raise ValueError(f"samples must be a positive multiple of {TRUNCATED_BATCHES}: {samples}")
    D, _ = rescaling_diagonals(adv, check_family(R))
    truncate_values(D, B)  # refuses a bad B before any draw

    def run_batch(b, size):
        g = rng.child(b).generator()
        Dh, _ = rescaling_diagonals(adv, random_sign_array(g, (size, adv.N)))
        return _clip_gain(Dh, B)

    # One worker holds at most four M x M matrices: each is dropped after its last use.
    gains = parallel_blocks(run_batch, samples, samples // TRUNCATED_BATCHES)
    first, second = sum(islice(gains, TRUNCATED_BATCHES // 2)), sum(gains)
    gain = (first + second) / samples  # the all-h gain
    first -= second
    del second
    error = operator_norm(adv.Pi * _hermitian_part(first) / samples)
    del first
    gain = _clip_gain(D, B) / len(D) - gain  # the family's gain less the all-h gain
    plain = _weight_basis(adv, advantage_kernel(adv, R))
    return operator_norm(plain + adv.Pi * _hermitian_part(gain)), error


def decoupled_spectral_relaxation(adv: AdversarySpec, R, Rp):
    """||decoupled_kernel(adv, R, Rp) in the weight basis|| = ||E_k D_k^H Pi D'_k||."""
    return operator_norm(_weight_basis(adv, decoupled_kernel(adv, R, Rp)))


def decoupled_kernel(adv: AdversarySpec, R, Rp) -> np.ndarray:
    """M x M kernel C with  f^T C f = E_k <psi_k| V^H O_f Pi O_f V |psi'_k>."""
    U, Up = family_images(adv.V, R), family_images(adv.V, Rp)
    if U.shape != Up.shape:
        raise ValueError(f"family shapes differ: {U.shape[:-1]} vs {Up.shape[:-1]}")
    return adv.Pi * (np.swapaxes(U.conj(), -1, -2) @ Up) / U.shape[-2]


def decoupled_advantage_given_f(adv: AdversarySpec, R, Rp, f) -> float:
    """|E_k <psi_k| V^H O_f Pi O_f V |psi'_k>| at a fixed oracle function, for one family each."""
    fv = check_signs(f)
    C = decoupled_kernel(adv, check_family(R), check_family(Rp))
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


def _subset_value_terms(projectors, states) -> np.ndarray:
    """Per-projector deviation terms on the co-factor space, stacked (L, P, P).

    For states |psi_k> in dimension N and projectors on dimension N * P, term i
    is E_k (<psi_k| x Id) Pi_i (|psi_k> x Id) = tr_1((rho x Id) Pi_i), with
    rho = E_k |psi_k><psi_k|, minus its Haar average tr_1(Pi_i)/N; the subset
    value is the operator norm of the sum over the chosen subset.  Each term is
    kept as its Hermitian part, so every subset sum is Hermitian bit for bit.
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
    Pis = [np.asarray(Pi, dtype=np.complex128) for Pi in projectors]
    if any(Pm.shape != (dim, dim) for Pm in Pis):
        raise ValueError("projectors must share one dimension")
    T = np.stack(Pis)
    if float(np.max(np.abs(T.sum(axis=0) - np.eye(dim)))) > 1e-8:
        raise ValueError("projectors must sum to the identity")
    psi = np.stack(states)
    rho = psi.T @ psi.conj() / len(psi)  # rho[l, k] = E_k psi_l conj(psi_k)
    T = T.reshape(len(T), N, P, N, P)
    pinched = np.einsum("ikplq,lk->ipq", T, rho)
    return _hermitian_part(pinched - np.einsum("ikpkq->ipq", T) / N)


def _norm_bounds(S: np.ndarray) -> np.ndarray:
    """Norm bounds of a contiguous stack of Hermitian P x P matrices; S is overwritten.

    Wolkowicz-Styan (1980): with m = tr(S)/P and s^2 = ||S - m Id||_F^2 / P, every
    eigenvalue lies within s sqrt(P - 1) of m, so ||S|| <= |m| + s sqrt(P - 1).
    s^2 comes from the traceless part itself, not from ||S||_F^2 / P - m^2,
    which cancels when S is near a multiple of the identity.
    """
    P = S.shape[-1]
    diag = S.reshape(len(S), -1)[:, :: P + 1]
    m = diag.real.sum(axis=1) / P  # the diagonal's imaginary parts are exactly 0
    diag -= m[:, None]
    flat = S.reshape(len(S), -1).view(np.float64)  # real and imaginary parts: P s^2 = flat . flat
    return np.abs(m) + np.sqrt((P - 1) / P * np.einsum("ij,ij->i", flat, flat))


def _brute_subset_max(terms: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest norm of a subset sum of Hermitian terms, and the first such subset in bit order.

    Equal to taking `operator_norm` of every subset's sum, added in index order, and
    scanning in bit order for a value above the best + 1e-15; only sums whose trace
    bound can reach the largest norm have theirs taken.
    """
    L = len(terms)
    # Block b: a doubling table over the low k terms, plus b's high terms in order, so
    # each sum is sum(terms[i] for i in members) bit for bit (a Gray-code walk drifts).
    k = min(L, max(0, (SUBSET_BLOCK // terms[0].size).bit_length() - 1))
    low = np.zeros((1 << k, *terms.shape[1:]), dtype=np.complex128)
    for j in range(k):
        low[1 << j : 2 << j] = low[: 1 << j] + terms[j]

    def high(b):
        return [j for j in range(k, L) if (b >> (j - k)) & 1]

    def block_sums(b, rows=slice(None)):
        js = high(b)
        sums = low[rows] + terms[js[0]] if js else low[rows].copy()
        for j in js[1:]:
            sums += terms[j]
        return sums

    # Pass 1: a norm bound of every sum, the one pass 2 norms, and the exact norm of each
    # block's top-bound sum.
    def bound_block(b, size):
        bounds = _norm_bounds(block_sums(b))
        return bounds, float(operator_norm(block_sums(b, [int(np.argmax(bounds))]))[0])

    bounds, tops = zip(*parallel_blocks(bound_block, 1 << L, 1 << k))
    cut = max(tops) - 1e-12

    # Pass 2: exact norms of the sums whose bound reaches cut, the whole block if that is
    # more than half of it.  The 1e-9 relative margin covers the rounding of bound and
    # eigensolve (at worst about P^2 * 1.1e-16, below 1e-9 for P < 3000), so every
    # skipped sum's norm lies below cut; with cut < 0 nothing is skipped.
    def evaluate(cut):
        def norm_block(b, size):
            rows = np.flatnonzero(bounds[b] * (1 + 1e-9) >= cut)
            if 2 * rows.size > size:
                return np.arange(size), operator_norm(block_sums(b))
            return rows, operator_norm(block_sums(b, rows)) if rows.size else np.empty(0)

        return list(parallel_blocks(norm_block, 1 << L, 1 << k))

    # Why the scan below returns the per-subset loop's (value, witness): every skipped
    # norm lies below cut, and cut + 1e-12 is a norm of some sum, so cut is below the
    # maximum.  If no evaluated norm lies in (cut, cut + 1e-15], then at the first sum
    # above cut + 1e-15 in bit order the best of both scans is at most cut, so both
    # accept it; after it neither can accept a norm below cut, and both see the same
    # norms.  A norm in that window could let a chain of near-ties carry a skipped
    # sum's effect up to the maximum, so then every sum is evaluated.  Every returned
    # value is an eigvalsh value of its sum.
    found = evaluate(cut)
    vals = np.concatenate([v for _, v in found])
    if vals.size < 1 << L and np.any((vals > cut) & (vals <= cut + 1e-15)):
        found = evaluate(-np.inf)
    best_val, best_bits = 0.0, 0
    for b, (rows, vals) in enumerate(found):
        for bits, val in zip((rows + (b << k)).tolist(), vals.tolist()):
            if val > best_val + 1e-15:
                best_val, best_bits = val, bits
    return best_val, tuple(i for i in range(L) if (best_bits >> i) & 1)


def subset_norm_conjecture(
    projectors,
    states,
    mode: str = "brute",
    restarts: int = 32,
    rng: RngStream | None = None,
):
    """Maximize || sum_{i in S} deviation-term_i ||_op over subsets S.

    'brute' enumerates all 2^L subsets (L <= SUBSET_CUTOFF), ties to the first in
    bit order.  It bounds every subset sum's norm by a Wolkowicz-Styan trace
    bound, takes the exact norm of each block's top-bound sum, and then takes
    exact norms only of the sums whose bound reaches the largest of those, less
    1e-12; value and witness are those that a norm of every sum would give.
    'greedy' grows S by single-index additions, accepting the first improving
    move, with restart orders drawn in turn from rng.generator() (greedy needs
    rng; brute draws nothing).  Restarts are compared on the norm of their set's
    sum in index order, as brute mode adds it, so a witness both modes find has
    one value in both.  Returns (value, sorted witness).
    """
    L = len(projectors)
    if mode == "brute" and L > SUBSET_CUTOFF:
        raise CapacityError(f"2^{L} subsets exceed the brute-force cutoff {SUBSET_CUTOFF}")
    if mode not in ("brute", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "greedy" and restarts < 1:
        raise ValueError("restarts must be >= 1")
    if mode == "greedy" and rng is None:
        raise ValueError("greedy mode draws its restart orders from rng; pass an RngStream")
    terms = _subset_value_terms(projectors, states)
    if mode == "brute":
        return _brute_subset_max(terms)
    g = rng.generator()
    best_val, best_set = 0.0, ()
    for _ in range(restarts):
        order = g.permutation(L)
        chosen, acc, val = [], np.zeros_like(terms[0]), 0.0
        while len(chosen) < L:
            rest = [int(i) for i in order if int(i) not in chosen]
            cands = operator_norm(acc + terms[rest])
            better = np.flatnonzero(cands > val + 1e-12)
            if better.size == 0:
                break
            i, val = rest[better[0]], float(cands[better[0]])
            chosen, acc = chosen + [i], acc + terms[i]
        members = tuple(sorted(chosen))
        val = operator_norm(sum((terms[i] for i in members), np.zeros_like(terms[0])))
        if val > best_val:
            best_val, best_set = val, members
    return best_val, best_set
