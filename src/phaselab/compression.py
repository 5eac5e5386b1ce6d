"""Space reduction for one-query circuits.

An isometry V from dimension D into a product space [L] x [S] induces the
measurement operators M_z = V^H (|z><z| tensor Id_S) V, a positive resolution
of the identity on D.  Stacking their square roots gives the compression

    compress(V) = sum_z |z> tensor sqrt(M_z)  :  C^D -> C^(L*D),

an isometry that preserves every oracle-conjugation statistic:
compress(V)^H (O_f tensor Id) compress(V) = V^H (O_f tensor Id) V for every
sign function f on [L].  A matching-inner-products construction extends any
consistent vector correspondence to a full isometry via the pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from .game import AdversarySpec
from .numerics import (
    DERIVED_TOL,
    RngStream,
    check_isometry,
    check_norm_budget,
    parallel_blocks,
    random_sign_array,
    span_basis,
)

__all__ = [
    "measurement_operators",
    "compress_isometry",
    "extend_to_isometry",
    "verify_one_query_simulation",
]


def measurement_operators(V, L: int, S: int | None = None) -> np.ndarray:
    """M_z = V^H (|z><z| tensor Id_S) V for z in [L], stacked (L, D, D); PSD, summing to Id_D.

    V may be a spec, and S = None takes S = M / L.  All L products are one batched matrix
    product; an (L*D) x D compression over `check_norm_budget` is refused before it.
    """
    Vm = V.V if isinstance(V, AdversarySpec) else check_isometry(V)
    M, D = Vm.shape
    if L < 1 or M % L or S not in (None, M // L):
        raise ValueError(f"isometry output {M} != L*S for L = {L}, S = {S}")
    check_norm_budget((L * D, D))
    blocks = Vm.reshape(L, M // L, D)
    return np.swapaxes(blocks.conj(), -1, -2) @ blocks


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square roots of a stack of PSD matrices, from one batched eigh."""
    vals, vecs = np.linalg.eigh((m + np.swapaxes(m.conj(), -1, -2)) / 2)
    if np.min(vals) < -1e-12:
        raise ArithmeticError(f"matrix not PSD: eigenvalue {np.min(vals):.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def compress_isometry(V, L: int, S: int | None = None) -> np.ndarray:
    """compress(V): the square roots sqrt(M_z) stacked into an (L*D) x D isometry (S as above)."""
    roots = _psd_sqrt(measurement_operators(V, L, S))
    return roots.reshape(L * roots.shape[-1], roots.shape[-1])


def extend_to_isometry(xs, ys) -> np.ndarray:
    """Isometry T with T x_i = y_i, given matching pairwise inner products.

    With X and Y the column stacks, T = (Y^H)^+ X^H maps span(xs) onto
    span(ys) isometrically because X^H X = Y^H Y; the orthogonal complements
    are then paired up by any isometry to complete T.  The Gram matrices
    must agree entrywise to DERIVED_TOL.
    """
    X = np.stack([np.asarray(x, dtype=np.complex128).ravel() for x in xs], axis=1)
    Y = np.stack([np.asarray(y, dtype=np.complex128).ravel() for y in ys], axis=1)
    d1, d2 = X.shape[0], Y.shape[0]
    if d1 > d2:
        raise ValueError(f"cannot isometrically embed dimension {d1} into {d2}")
    dev = np.abs(X.conj().T @ X - Y.conj().T @ Y)
    if dev.size and float(dev.max()) > DERIVED_TOL:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise ValueError(
            f"inner products do not match: worst pair ({i}, {j}) deviates by "
            f"{dev[i, j]:.3e}"
        )
    T = np.linalg.pinv(Y.conj().T, rcond=1e-12) @ X.conj().T
    # Complete T with an isometry between the orthogonal complements of the spans.
    _, qx_perp = span_basis(X)
    _, qy_perp = span_basis(Y)
    k = qx_perp.shape[1]
    if k > 0:
        T = T + qy_perp[:, :k] @ qx_perp.conj().T
    return T


def verify_one_query_simulation(V, L: int, trials: int, rng: RngStream) -> float:
    """Max inner-product deviation between original and compressed executions.

    For random oracle pairs (f, g) on [L] and random input states (x, y), the
    vectors Phi_{f,x} = (O_f tensor Id) V |x> and their compressed analogues
    must have identical pairwise inner products; the returned maximum
    deviation certifies that every one-query measurement statistic survives
    compression.  V may be a spec; only its isometry is read, and a bare V is
    checked once, by compress_isometry.  Trials run in blocks of up to SAMPLE_BLOCK
    (see parallel_blocks); a block maps its input states through V and through
    compress(V) with one matrix product each and applies the signs by broadcasting.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    W = compress_isometry(V, L)
    Vm = V.V if isinstance(V, AdversarySpec) else np.asarray(V, dtype=np.complex128)
    M, D = Vm.shape

    def run_block(b, size):
        g = rng.child(b).generator()
        F = random_sign_array(g, (size, 2, L))  # per trial, rows f1 and f2
        xy = g.standard_normal((size, 2, D)) + 1j * g.standard_normal((size, 2, D))
        xy /= np.linalg.norm(xy, axis=2, keepdims=True)  # per trial, rows x and y
        xy = xy.reshape(2 * size, D)  # one product for the block, not one per trial
        phi = (F[..., None] * (xy @ Vm.T).reshape(size, 2, L, M // L)).reshape(size, 2, M)
        chat = (F[..., None] * (xy @ W.T).reshape(size, 2, L, D)).reshape(size, 2, L * D)
        dev = np.abs(
            np.sum(phi[:, 0].conj() * phi[:, 1], axis=1)
            - np.sum(chat[:, 0].conj() * chat[:, 1], axis=1)
        )
        return float(dev.max())

    return max(parallel_blocks(run_block, trials))
