"""Concrete adversaries that realize the game's upper bounds.

The Hadamard attack transforms the input state, measures in the standard
basis, and classifies the outcome with one oracle query; its advantage equals
the total variation distance between the family-induced outcome distribution
and uniform.  The omniscient distinguisher projects onto the span of the
family's states and is the information-theoretic endpoint of a full-learning
attack whose honest query dimension 2^(K*N) is exposed by a calculator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import AdversarySpec, check_families, check_family, phase_state, random_family
from .game import simulate_game
from .numerics import NORM_MAX_DIM, CapacityError, RngStream, check_norm_budget, check_unit_vector
from .numerics import span_basis

__all__ = [
    "HadamardAttackReport",
    "fwht",
    "hadamard_outcome_distribution",
    "hadamard_attack_exact_advantage",
    "hadamard_game_encoding",
    "hadamard_attack_report",
    "x_statistic",
    "omniscient_distinguisher",
    "omniscient_advantage",
    "advice_state_adversary",
    "bv_query_dimension",
    "BV_DIMENSION_CAP",
]

BV_DIMENSION_CAP = 1 << 16
FWHT_CHUNK = 1 << 16  # entries per transposed chunk: 2^12 ran 1.9x, 2^14 and 2^18 1.3x slower


@dataclass(frozen=True)
class HadamardAttackReport:
    exact_advantage: float
    monte_carlo_advantage: float | None  # None with no trials
    trials: int
    x_statistic_mean: float
    x_statistic_variance: float | None  # None with one draw


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis, as a float64 copy.

    Stage h = 1, 2, 4, ... maps each pair (a_j, a_{j+h}), bit h of j clear, to
    (a_j + a_{j+h}, a_j - a_{j+h}).  Rows run in chunks of at most FWHT_CHUNK entries
    (one row if longer), each copied as an (N, rows) array so that a stage adds whole
    contiguous rows; each entry sees the same operations in the same order as on the
    full array.  Peak memory: the output, one chunk, its half-size temporary and
    numpy's buffers for the overlapping stage views (7.3 MiB for a 6.25 MiB output).
    """
    if np.ndim(a) == 0:
        raise ValueError("fwht needs at least one axis, got a 0-d input")
    if np.iscomplexobj(a):
        raise ValueError("fwht takes real input; a complex input would lose its imaginary part")
    a = np.array(a, dtype=np.float64, copy=True)
    N = a.shape[-1]
    if N < 1 or N & (N - 1):
        raise ValueError(f"dimension {N} is not a power of two")
    rows = a.reshape(-1, N)
    step = max(1, FWHT_CHUNK // N)
    for r in range(0, rows.shape[0], step):
        t = rows[r : r + step].T.copy()  # (N, c): entry j of every row is one contiguous run
        h = 1
        while h < N:
            b = t.reshape(N // (2 * h), 2, -1)
            top = b[:, 0] + b[:, 1]
            np.subtract(b[:, 0], b[:, 1], out=b[:, 1])
            b[:, 0] = top
            del top  # one half-size temporary at a time
            h *= 2
        rows[r : r + step] = t.T
        del t  # freed before the next chunk is copied
    return a


def hadamard_outcome_distribution(R) -> np.ndarray:
    """Distribution of the standard-basis outcome after transforming a family state.

    M_R(y) = E_k |<y| H |psi_{R_k}>|^2, computed via the Walsh spectrum.  A stack
    of families (..., K, N) gives (..., N), each its family's own distribution.
    """
    Rv = check_families(R)
    spec = fwht(Rv)  # a copy, scaled and squared in place: row k becomes |H |psi_{R_k}>|^2
    spec /= Rv.shape[-1]
    spec **= 2
    return np.mean(spec, axis=-2)


def hadamard_attack_exact_advantage(R):
    """TV distance between the family outcome distribution and uniform; a stack gives (...)."""
    m = hadamard_outcome_distribution(R)
    tv = 0.5 * np.abs(m - 1.0 / m.shape[-1]).sum(axis=-1)
    return float(tv) if m.ndim == 1 else tv


def hadamard_game_encoding(R) -> tuple[AdversarySpec, np.ndarray]:
    """The measure-then-classify attack as a one-query (V, Pi, f) adversary.

    One ancilla dimension carries the classifier's answer by phase kickback:
    V sends |psi> to (H |psi>) tensor |minus>, the oracle flips the ancilla
    phase exactly on outcomes y classified as "random side", and Pi projects
    the ancilla back onto |minus>.  Acceptance probability then equals the
    probability the measured y falls in the "family side" set, matching the
    classify-and-output-0 behavior; the optimal classifier keeps y with
    outcome probability at least uniform.  Pi = W W^H is held by its factor
    W = Id_N tensor |minus> (`AdversarySpec.from_factor`).  A 2N above `check_norm_budget`
    is refused first.
    """
    N = check_family(R).shape[1]
    check_norm_budget((2 * N, 2 * N))
    m = hadamard_outcome_distribution(R)
    H = fwht(np.eye(N)) / np.sqrt(N)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    V = np.kron(H, minus[:, None]).astype(np.complex128)  # index (y, a) -> 2y + a
    W = np.kron(np.eye(N), minus[:, None]).astype(np.complex128)
    keep = m >= 1.0 / N  # classifier: output 0 (family side) on these y
    f = np.ones(2 * N)
    f[1::2] = np.where(keep, 1.0, -1.0)
    return AdversarySpec.from_factor(V, W), f


def hadamard_attack_report(
    n: int, K: int, draws: int, trials: int, rng: RngStream
) -> HadamardAttackReport:
    """Aggregate Hadamard-attack statistics over fresh random families.

    Reports the mean exact (TV) advantage over `draws` families of shape
    K x 2^n; `monte_carlo_advantage`, 2 win - 1 of `simulate_game` on the first
    family's encoding, a draw around that encoding's exact gap (None with no
    trials); and the sample mean/variance of the X statistic across the draws
    (the variance None with one draw).  The families are one draw from
    rng.child(0), the game's trials read rng.child(1).  Their draws * K * 2^n signs
    are refused above NORM_MAX_DIM^2 entries, the largest matrix operator_norm takes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if K < 1:
        raise ValueError("K must be >= 1")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    budget = NORM_MAX_DIM**2
    if n >= budget.bit_length() or draws * K << n > budget:  # 2^n is not built past the budget
        raise CapacityError(
            f"{draws} draws of K = {K} signs over 2^{n} points exceed the budget of "
            f"{budget} entries"
        )
    if trials > 0:
        check_norm_budget((2 << n, 2 << n))  # the game encoding's dimension 2N
    R = random_family(draws * K, 1 << n, rng.child(0)).reshape(draws, K, 1 << n)
    # Rebinding R frees the stack, so it is not alive while the game runs.
    exacts, xs, R = hadamard_attack_exact_advantage(R), x_statistic(R), R[0].copy()
    mc = None
    if trials > 0:
        adv, f = hadamard_game_encoding(R)
        mc = 2.0 * simulate_game(adv, R, f, trials, rng.child(1)) - 1.0
    return HadamardAttackReport(
        exact_advantage=float(exacts.mean()),
        monte_carlo_advantage=mc,
        trials=trials,
        x_statistic_mean=float(xs.mean()),
        x_statistic_variance=float(xs.var(ddof=1)) if draws > 1 else None,
    )


def x_statistic(R):
    """X_R = (1/N) E_k (sum_x R_k(x))^2 -- the squared-row-sum statistic; a stack gives (...)."""
    Rv = check_families(R)
    x = np.mean(Rv.sum(axis=-1) ** 2, axis=-1) / Rv.shape[-1]
    return float(x) if Rv.ndim == 2 else x


def _family_span(R) -> np.ndarray:
    """Orthonormal basis of the span of the family's phase states, from a thin SVD."""
    Rv = check_family(R)
    return span_basis(np.stack([phase_state(row) for row in Rv], axis=1), complement=False)[0]


def omniscient_distinguisher(R) -> AdversarySpec:
    """Projector onto the span of the family's states (V = Id), held by its basis q.

    Accepts with probability 1 on every family state and with probability
    rank/N on the random side, so with the trivial oracle its advantage is
    exactly 1 - rank/N -- the information-theoretic optimum for this family.
    """
    q = _family_span(R)
    return AdversarySpec.from_factor(np.eye(q.shape[0], dtype=np.complex128), q)


def omniscient_advantage(R) -> float:
    """1 - rank/N, the advantage of `omniscient_distinguisher` with the trivial oracle."""
    q = _family_span(R)
    return 1.0 - q.shape[1] / q.shape[0]


def advice_state_adversary(Pi, advice) -> AdversarySpec:
    """Adversary that appends a fixed advice state before measuring.

    V maps |psi> to |psi> tensor |advice>; the supplied measurement Pi acts
    on the composite space of dimension N * D, so the acceptance probability
    at the trivial oracle is <psi, advice| Pi |psi, advice>.
    """
    a = check_unit_vector(advice)
    Pm = np.asarray(Pi, dtype=np.complex128)
    if Pm.ndim != 2 or Pm.shape[0] != Pm.shape[1]:
        raise ValueError("measurement must be a square matrix")
    D = a.size
    if Pm.shape[0] % D != 0:
        raise ValueError(
            f"composite dimension {Pm.shape[0]} not divisible by advice dimension {D}"
        )
    N = Pm.shape[0] // D
    V = np.kron(np.eye(N), a[:, None]).astype(np.complex128)
    return AdversarySpec(V=V, Pi=Pm)


def bv_query_dimension(K: int, N: int) -> int:
    """Query dimension 2^(K*N) a full-truth-table-learning attack would need.

    Only toy sizes are instantiable; beyond the cap this raises with the
    required dimension spelled out, which is the attack's whole point.
    """
    if K < 1 or N < 1:
        raise ValueError("K and N must be positive")
    exponent, cap = K * N, BV_DIMENSION_CAP.bit_length() - 1  # the cap is 2^cap
    if exponent > cap:  # compared as exponents: 2^(K N) is never built
        raise CapacityError(
            f"full-learning attack needs query dimension 2^{exponent}, beyond "
            f"the instantiable cap 2^{cap}"
        )
    return 1 << exponent
