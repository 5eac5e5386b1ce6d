"""Weight-vector decomposition of an isometry applied to phase states.

For an isometry V with rows <v_i|, the weights wt_i = <v_i|v_i>/N form a
probability distribution, and V |psi_h> factors as D_{V,h} |wt_V>, where
|wt_V> collects the square-rooted weights and D_{V,h} is the diagonal
rescaling matrix with entries <v_i|psi_h> / sqrt(wt_i).  The width of a
family measures how far its K rescaling diagonals deviate, on average, from
the typical unit magnitude; truncation clips diagonal entries to a bound B.

Zero-weight rows of V (weight at most ZERO_WEIGHT_TOL = 1e-14) contribute
nothing to any state: their diagonal entries are set to 0, and they are
excluded from the width maximum and the boundedness check.  Every function
here takes V or an AdversarySpec, whose weights and mask are not checked again.
"""

from __future__ import annotations

import numpy as np

from .game import AdversarySpec, family_images
from .numerics import ZERO_WEIGHT_TOL, isometry_weights, rounding_allowance

__all__ = [
    "rescaling_diagonals",
    "truncate_values",
    "width",
    "is_b_bounded",
]


def rescaling_diagonals(V, R) -> tuple[np.ndarray, np.ndarray]:
    """Rescaling diagonals for every row of a family at once.

    Returns (D, mask): D is K x M, (..., K, M) for a stack, with D[k, i] =
    <v_i|psi_{R_k}>/sqrt(wt_i) (0 at masked indices), and mask marks zero-weight rows
    of V.  V may be an AdversarySpec, whose stored weights and mask are used as they are.
    """
    if isinstance(V, AdversarySpec):
        Vm, w, mask = V.V, V.weights, V.mask
    else:
        w = isometry_weights(V)  # also checks that V is an isometry
        Vm = np.asarray(V, dtype=np.complex128)
        mask = w <= ZERO_WEIGHT_TOL
    D = family_images(Vm, R)  # (..., K, M), <v_i|psi_k>, rescaled in place
    D /= np.sqrt(np.where(mask, 1.0, w))
    D[..., mask] = 0.0
    return D, mask


def truncate_values(values: np.ndarray, B: float) -> np.ndarray:
    """Clip complex values to magnitude B, preserving phase."""
    if B <= 0:
        raise ValueError("truncation bound B must be positive")
    if not np.isfinite(B):
        raise ValueError(f"truncation bound B must be finite, got {B}")
    v = np.asarray(values, dtype=np.complex128)
    mag = np.abs(v)
    with np.errstate(all="ignore"):  # B / mag may overflow where mag <= B, which keeps v
        clipped = np.where(mag > B, v * (B / np.where(mag > 0, mag, 1.0)), v)
    return clipped


def width(V, R):
    """max over unmasked i of (1/K) sum_k |<v_i|psi_{R_k}>|^2 / wt_i.

    A stack of families gives an array of shape (...), one width per family,
    through one `rescaling_diagonals` call, so V is checked once for the whole stack.
    """
    D, mask = rescaling_diagonals(V, R)  # weights sum to 1, so some row is unmasked
    widths = np.max(np.mean(np.abs(D) ** 2, axis=-2)[..., ~mask], axis=-1)
    return float(widths) if D.ndim == 2 else widths


def is_b_bounded(V, R, B: float):
    """True iff every rescaling diagonal entry of every row has magnitude <= B; per family.

    Each computed magnitude is compared with B plus its row's rounding allowance (derived
    in `rounding_allowance`), so an entry of exactly B counts as bounded.
    """
    if not 0 < B < np.inf:  # also refuses nan
        raise ValueError(f"bound B must be positive and finite, got {B}")
    D, mask = rescaling_diagonals(V, R)
    rows = np.abs(V.V if isinstance(V, AdversarySpec) else np.asarray(V))[~mask]
    scale = rows.sum(axis=1) / np.sqrt(np.sum(rows**2, axis=1))  # ||v_i||_1 / ||v_i||_2 >= |D_ki|
    allowance = rounding_allowance(3 * rows.shape[1] + 10, scale)
    bounded = np.all(np.abs(D[..., ~mask]) <= B + allowance, axis=(-2, -1))
    return bool(bounded) if D.ndim == 2 else bounded
