"""Reference quantities built from the paper's definitions in plain numpy.

Nothing here calls phaselab: each quantity is derived again from the game's
definitions, so a check that compares a phaselab output against it compares
two independent routes to the same number.

Notation: V is the M x N isometry, Pi the M x M accepting projector, a family
R is a K x N table of +-1 signs and psi_k = R_k / sqrt(N) its phase states.
The rescaling diagonal of a sign function h has entries
(V psi_h)_i / sqrt(wt_i) with row weights wt_i = |v_i|^2 / N.
"""

from __future__ import annotations

import numpy as np


def phase_amplitudes(V, R):
    """Row k holds V psi_k, the isometry applied to the k-th phase state."""
    return (np.asarray(R, dtype=np.float64) @ V.T) / np.sqrt(V.shape[1])


def rescaling(V, R):
    """Row k holds the diagonal of D_k, so that V psi_k = D_k |wt>."""
    wt = np.sum(np.abs(V) ** 2, axis=1) / V.shape[1]
    return phase_amplitudes(V, R) / np.sqrt(wt)


def clip(D, B):
    """Entries clipped to magnitude B with their phase kept."""
    mag = np.abs(D)
    return np.where(mag > B, D * (B / np.maximum(mag, 1e-300)), D)


def haar_term(V, Pi):
    """E_h D_h^H Pi D_h over all sign functions h.

    E_h[h h^T] = Id, so E_h conj((V psi_h)_i) (V psi_h)_j = (conj(V) V^T)_ij / N.
    """
    N = V.shape[1]
    wt = np.sum(np.abs(V) ** 2, axis=1) / N
    return Pi * (V.conj() @ V.T) / (N * np.sqrt(np.outer(wt, wt)))


def relaxation_matrix(V, Pi, R):
    """E_k D_k^H Pi D_k - E_h D_h^H Pi D_h, whose norm is the plain relaxation."""
    D = rescaling(V, R)
    return Pi * (D.conj().T @ D) / D.shape[0] - haar_term(V, Pi)


def decoupled_matrix(V, Pi, R, Rp):
    """E_k D_k^H Pi D'_k over two families of one shape."""
    D, Dp = rescaling(V, R), rescaling(V, Rp)
    return Pi * (D.conj().T @ Dp) / D.shape[0]


def truncated_matrix(V, Pi, R, B, H):
    """Truncated relaxation matrix with the all-h term averaged over the rows of H."""
    D, Dh = clip(rescaling(V, R), B), clip(rescaling(V, H), B)
    return Pi * (D.conj().T @ D) / D.shape[0] - Pi * (Dh.conj().T @ Dh) / Dh.shape[0]


def signed_gap(V, Pi, R, f):
    """E_k ||Pi O_f V psi_k||^2 - tr(V^H O_f Pi O_f V) / N at the oracle f."""
    W = f * phase_amplitudes(V, R)  # row k = O_f V psi_k
    family = np.mean(np.real(np.sum(W.conj() * (W @ Pi.T), axis=1)))
    A = f[:, None] * V
    haar = np.real(np.trace(A.conj().T @ Pi @ A)) / V.shape[1]
    return float(family - haar)


def decoupled_value(V, Pi, R, Rp, f):
    """|E_k <psi_k| V^H O_f Pi O_f V |psi'_k>| at the oracle f."""
    W = f * phase_amplitudes(V, R)
    Wp = f * phase_amplitudes(V, Rp)
    return float(abs(np.mean(np.sum(W.conj() * (Wp @ Pi.T), axis=1))))


def gap_kernel(V, Pi, R):
    """Hermitian B with signed_gap(f) = f^T B f, from expanding the definition."""
    U = phase_amplitudes(V, R)
    return Pi * ((U.conj().T @ U) / U.shape[0] - (V @ V.conj().T).conj() / V.shape[1])


def herm_norm(A):
    """Operator norm of a Hermitian matrix as its largest |eigenvalue|."""
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def op_norm(A):
    """Operator norm of any matrix as its largest singular value."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


def hadamard_matrix(n):
    """The 2^n x 2^n Walsh-Hadamard matrix as an explicit Kronecker power."""
    H = np.ones((1, 1))
    for _ in range(n):
        H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
    return H


def hadamard_tv(R):
    """TV distance between the Hadamard-basis outcome law of a family and uniform."""
    N = R.shape[1]
    H = hadamard_matrix(N.bit_length() - 1)
    law = np.mean((R @ H / N) ** 2, axis=0)
    return float(0.5 * np.sum(np.abs(law - 1.0 / N)))


def subset_terms(projectors, states):
    """Deviation terms E_k (<psi_k| x Id) Pi_i (|psi_k> x Id) - tr_1(Pi_i) / N."""
    S = np.asarray(states)
    N = S.shape[1]
    P = projectors[0].shape[0] // N
    # |s> x Id as an explicit (N P) x P Kronecker matrix, for each state and basis vector.
    lift = [np.kron(s[:, None], np.eye(P)) for s in S]
    basis = [np.kron(e[:, None], np.eye(P)) for e in np.eye(N)]
    terms = []
    for Pi in projectors:
        pinched = np.mean([K.conj().T @ Pi @ K for K in lift], axis=0)
        partial_trace = np.sum([K.T @ Pi @ K for K in basis], axis=0)
        terms.append(pinched - partial_trace / N)
    return np.asarray(terms)


def all_subset_norms(terms):
    """Operator norm of the sum over every nonempty subset, indexed by bitmask."""
    L = terms.shape[0]
    masks = np.arange(1, 1 << L)
    member = ((masks[:, None] >> np.arange(L)) & 1).astype(np.float64)
    sums = np.einsum("sl,lpq->spq", member, terms)
    return masks, np.max(np.abs(np.linalg.eigvalsh(sums)), axis=1)


def decoupled_kernel(V, Pi, R, Rp):
    """C with decoupled_value(f) = |f^T C f|, from expanding the definition."""
    U, Up = phase_amplitudes(V, R), phase_amplitudes(V, Rp)
    return Pi * (U.conj().T @ Up) / U.shape[0]


def flip_values(Q, f):
    """|g^T Q g| for every g that differs from f in exactly one sign."""
    F = np.tile(f, (f.size, 1))
    F[np.diag_indices(f.size)] *= -1.0
    return np.abs(np.einsum("ci,ci->c", F @ Q, F))


def hill_climb(Q, f):
    """Local maximum of |f^T Q f| by best single flips from f (a plain reference climb)."""
    f = np.array(f, dtype=np.float64)
    value = abs(f @ Q @ f)
    while True:
        flips = flip_values(Q, f)
        i = int(np.argmax(flips))
        if flips[i] <= value * (1.0 + 1e-12):
            return float(value), f
        f[i] = -f[i]
        value = flips[i]


def psd_sqrt(A):
    vals, vecs = np.linalg.eigh((A + A.conj().T) / 2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def compressed_isometry(V, L):
    """sum_z |z> x sqrt(M_z) with M_z = V^H (|z><z| x Id_S) V, block z in rows z*D..(z+1)*D."""
    blocks = V.reshape(L, -1, V.shape[1])
    return np.concatenate([psd_sqrt(b.conj().T @ b) for b in blocks])


def binomial_slack(p, samples):
    """Three binomial standard deviations of an empirical frequency with mean p."""
    p = min(max(p, 0.0), 1.0)
    return 3.0 * np.sqrt(p * (1.0 - p) / samples)


def width_tail_bounds(M, K, thresholds, c_test=0.05):
    """Pr[width >= 1 + t] <= 2 M exp(-c min(t^2, t) K), capped at 1."""
    return [min(1.0, 2.0 * M * np.exp(-c_test * min(t * t, t) * K)) for t in thresholds]


def x_statistic_variance(N, K):
    """Var X_R for a uniform K x N family: (S^2/N) has variance 2 - 2/N for a row sum S."""
    return (2.0 - 2.0 / N) / K
