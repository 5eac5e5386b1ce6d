"""Dense complex linear algebra substrate.

Matrices and states are plain numpy arrays (complex128, row-major).  This
module supplies the few primitives everything else is built on: operator
norms, random isometries/projectors, total-variation distance, a
counter-based RNG stream abstraction that makes every experiment
reproducible independently of thread scheduling, and the one sign sampler.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "random_sign_array",
    "operator_norm",
    "random_isometry",
    "random_projector",
    "tv_distance",
    "check_unit_vector",
    "check_isometry",
    "check_projector",
    "thread_count",
    "parallel_blocks",
    "CapacityError",
]

# Tolerance hierarchy: structural invariants at 1e-10, derived equalities at 1e-8.
STRUCTURAL_TOL = 1e-10
DERIVED_TOL = 1e-8

# Above this dimension operator_norm switches from a dense eigensolve to
# power iteration on A^H A.
_DENSE_CUTOFF = 512

THREADS_ENV = "PHASELAB_THREADS"


class CapacityError(ValueError):
    """A requested computation exceeds a configured size budget."""


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    (seed, path) identifies the stream completely: the same pair reproduces
    the same draws on any machine and under any thread schedule.  ``child(i)``
    derives an independent sub-stream deterministically, so parallel trial
    loops hand stream i to trial i no matter which worker runs it.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def fingerprint(self) -> str:
        return f"philox:{self.seed}:" + ".".join(str(p) for p in self.path)


def random_sign_array(g: np.random.Generator, shape) -> np.ndarray:
    """Float64 array of independent uniform +-1 signs, one random bit each.

    Bits come from raw 64-bit words of g's bit generator (Philox in every
    RngStream; not a 32-bit one such as MT19937), read as little-endian bytes
    so a generator state gives the same signs on any machine; bit 1 is -1.
    """
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    words = g.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    out = np.unpackbits(words.view(np.uint8), count=n).astype(np.float64)
    out *= -2.0
    out += 1.0
    return out.reshape(shape)


def thread_count() -> int:
    """Worker count for trial-level parallelism (env-configurable, default 1)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


def parallel_blocks(fn, n_blocks: int) -> list:
    """Run fn(block_index) for each block, in parallel if configured.

    Results come back ordered by block index, so any reduction over them is
    deterministic regardless of the worker count.
    """
    if n_blocks <= 0:
        return []
    workers = min(thread_count(), n_blocks)
    if workers == 1:
        return [fn(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    return a


def operator_norm(m) -> float:
    """Largest singular value of a dense complex matrix.

    Small matrices go through a dense solve; larger ones use power iteration
    on A^H A with a deterministic start vector, relative tolerance 1e-10, and
    one random restart if the iteration stagnates.  For Hermitian input this
    equals the largest absolute eigenvalue.
    """
    a = _as_matrix(m)
    if min(a.shape) == 0:
        return 0.0
    if max(a.shape) <= _DENSE_CUTOFF:
        return float(np.linalg.norm(a, ord=2))
    return _power_iteration_norm(a)


def _power_iteration_norm(a: np.ndarray, max_iters: int = 5000) -> float:
    n = a.shape[1]
    # Deterministic start: uniform vector plus a mild linear ramp so that
    # vectors orthogonal to the all-ones direction are still picked up.
    v = np.ones(n, dtype=np.complex128) + np.linspace(0.0, 1.0, n)
    best = 0.0
    for attempt in range(2):
        v = v / np.linalg.norm(v)
        prev = 0.0
        for _ in range(max_iters):
            w = a.conj().T @ (a @ v)
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return 0.0
            est = float(np.sqrt(norm_w))
            v = w / norm_w
            if abs(est - prev) <= 1e-10 * max(est, 1e-300):
                return max(best, est)
            prev = est
        # Stagnated short of tolerance: keep the estimate and restart once
        # from a random vector (fixed seed, so the restart is deterministic).
        best = max(best, prev)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0x9E3779B9)))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return best


def random_isometry(n_in: int, n_out: int, rng: RngStream) -> np.ndarray:
    """Sample an n_out x n_in complex isometry (orthonormalized Gaussian columns)."""
    if n_out < n_in:
        raise ValueError(f"isometry needs n_out >= n_in, got {n_out} < {n_in}")
    if n_in < 1:
        raise ValueError("n_in must be positive")
    g = rng.generator()
    z = g.standard_normal((n_out, n_in)) + 1j * g.standard_normal((n_out, n_in))
    q, r = np.linalg.qr(z)
    # Fix the phase convention so the draw is a function of z alone.
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases.conj()


def random_projector(dim: int, rank: int, rng: RngStream) -> np.ndarray:
    """Sample a dim x dim orthogonal projector onto a random rank-r subspace."""
    if rank < 0 or rank > dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    w = random_isometry(rank, dim, rng)
    return w @ w.conj().T


def tv_distance(p, q) -> float:
    """Total variation distance (1/2) sum |p_i - q_i| between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12):
            raise ValueError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} does not sum to 1 (sum={v.sum()!r})")
    return float(0.5 * np.abs(p - q).sum())


def check_unit_vector(v, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128).ravel()
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > tol * 10:
        raise ValueError(f"not a unit vector: norm {nrm}")
    return a


def check_isometry(v, tol: float = DERIVED_TOL) -> np.ndarray:
    a = _as_matrix(v)
    resid = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))
    if resid > tol:
        raise ValueError(f"not an isometry: max |V^H V - Id| = {resid:.3e}")
    return a


def check_projector(p, tol: float = DERIVED_TOL) -> np.ndarray:
    a = _as_matrix(p)
    if a.shape[0] != a.shape[1]:
        raise ValueError("projector must be square")
    herm = float(np.max(np.abs(a - a.conj().T)))
    idem = float(np.max(np.abs(a @ a - a)))
    if herm > tol or idem > tol:
        raise ValueError(
            f"not a projector: hermiticity residual {herm:.3e}, "
            f"idempotence residual {idem:.3e}"
        )
    return a
