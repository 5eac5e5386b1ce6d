"""Dense complex linear algebra substrate.

Matrices and states are plain numpy arrays (complex128, row-major).  This
module supplies the few primitives everything else is built on: operator
norms, random isometries/projectors, total-variation distance, a
counter-based RNG stream abstraction that makes every experiment
reproducible independently of thread scheduling, and the one sign sampler.

Every operator norm is one dense LAPACK eigensolve, at any size up to
NORM_MAX_DIM: an exactly Hermitian matrix goes to eigvalsh directly, any other
matrix through the smaller of its two Gram matrices.  A stack of matrices,
shape (..., r, c), takes one batched eigensolve per route for the whole stack.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "random_sign_array",
    "operator_norm",
    "check_norm_budget",
    "random_isometry",
    "random_projector",
    "tv_distance",
    "check_unit_vector",
    "check_isometry",
    "check_projector",
    "isometry_weights",
    "span_basis",
    "thread_count",
    "parallel_blocks",
    "CapacityError",
]

# Tolerance hierarchy: structural invariants at 1e-10, derived equalities at 1e-8.
STRUCTURAL_TOL = 1e-10
DERIVED_TOL = 1e-8
ZERO_WEIGHT_TOL = 1e-14  # an isometry row whose weight <v_i|v_i>/N is at most this is zero

# Largest matrix dimension operator_norm accepts.  Its eigensolve grows as
# dim^3 (0.4-0.7 s at 1024 on one core, so about half a minute at 4096): a
# larger matrix is refused with CapacityError rather than run for minutes.
NORM_MAX_DIM = 4096

# Default parallel_blocks size: the samples or trials of the bench and
# trial loops that share one generator.  Larger blocks cost memory and no time:
# 3000 compression trials at D = L = S = 16 (one BLAS thread, 2-CPU machine)
# took 0.07 s and 0.6 MiB of extra peak RSS at 64, 0.10 s and 4.6 MiB at 256.
SAMPLE_BLOCK = 64

THREADS_ENV = "PHASELAB_THREADS"


class CapacityError(ValueError):
    """A requested computation exceeds a configured size budget."""


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    (seed, path) identifies the stream completely, on any machine and under any
    thread schedule.  A routine given a stream rng draws once from rng.generator(),
    or loops through `parallel_blocks`, block b drawing from rng.child(b); one that
    calls other drawing routines hands each a fixed child.
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
    dims = shape if isinstance(shape, tuple) else (shape,)
    if any(d < 0 for d in dims):
        raise ValueError(f"sign array dimensions must be nonnegative, got {shape}")
    n = math.prod(dims)
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


def parallel_blocks(fn, total: int, block: int = SAMPLE_BLOCK) -> Iterator:
    """Iterate fn(b, size) over blocks of `block` items covering `total`, the last shorter.

    Blocks run in parallel if configured; a block that draws takes rng.child(b) of its
    routine's stream rng (see RngStream).  Results come lazily and in block order, so any
    reduction over them is the same for every worker count: one worker runs block b when
    it is read, w hold at most w blocks, running or unread.  A caller needing a sequence lists them.
    """
    n_blocks = max(0, -(-total // block))

    def run(b):
        return fn(b, min(block, total - b * block))

    def window():  # block b is submitted once block b - workers has been read
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque(pool.submit(run, b) for b in range(workers))
            for b in range(workers, n_blocks):
                yield pending.popleft().result()
                pending.append(pool.submit(run, b))
            while pending:
                yield pending.popleft().result()

    workers = min(thread_count(), n_blocks)
    return map(run, range(n_blocks)) if workers <= 1 else window()


def _as_matrix(m, stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def check_norm_budget(shape) -> None:
    """Raise CapacityError if a matrix (or stack) of this shape is too large for operator_norm."""
    if max(tuple(shape)[-2:], default=0) > NORM_MAX_DIM:
        raise CapacityError(
            f"operator norm of a {tuple(shape)} matrix exceeds the dimension budget {NORM_MAX_DIM}"
        )


def _route_norms(a: np.ndarray, hermitian: bool) -> np.ndarray:
    """Norms of a stack on one route: eigvalsh of a, or of its smaller Gram matrix."""
    if hermitian:
        w = np.linalg.eigvalsh(a)
        return np.maximum(w[..., -1], -w[..., 0]) + 0.0  # a zero matrix gives max(0, -0) = -0.0
    ah = np.swapaxes(a.conj(), -1, -2)
    gram = ah @ a if a.shape[-2] >= a.shape[-1] else a @ ah
    del ah  # not alive through the eigensolve
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def operator_norm(m):
    """Largest singular value of a dense complex matrix, by a dense eigensolve.

    An exactly Hermitian matrix (square and equal to its conjugate transpose
    bit for bit) gives the largest |eigenvalue| of eigvalsh.  Any other matrix
    gives the square root of the largest eigenvalue of its smaller Gram
    matrix, A^H A or A A^H.  A stack of shape (..., r, c) gives an array of
    shape (...), each value the float its matrix gives alone, bit for bit.
    Raises CapacityError, before converting m, when r or c exceeds NORM_MAX_DIM.
    """
    check_norm_budget(np.shape(m))
    a = _as_matrix(m, stack=True)
    herm = np.zeros(a.shape[:-2], dtype=bool)
    if a.shape[-1] == a.shape[-2]:
        t = np.swapaxes(a, -1, -2)  # a == a^H by parts, with no conjugated copy of a
        herm = ((a.real == t.real) & (a.imag == -t.imag)).all(axis=(-2, -1))
    count = np.count_nonzero(herm)
    if 0 < count < herm.size:  # a mixed stack: each route on its own copy
        out = np.empty(herm.shape)
        out[herm], out[~herm] = _route_norms(a[herm], True), _route_norms(a[~herm], False)
    else:
        out = _route_norms(a, count > 0)
    return float(out) if a.ndim == 2 else out


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


def span_basis(A) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of A's column span and of its complement, from one full SVD."""
    u, s, _ = np.linalg.svd(np.asarray(A, dtype=np.complex128))
    rank = int(np.sum(s > 1e-12 * max(1.0, float(s.max(initial=0.0)))))
    return u[:, :rank], u[:, rank:]


def check_unit_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128).ravel()
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > STRUCTURAL_TOL * 10:
        raise ValueError(f"not a unit vector: norm {nrm}")
    return a


def check_isometry(v) -> np.ndarray:
    a = _as_matrix(v)
    resid = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))
    if resid > DERIVED_TOL:
        raise ValueError(f"not an isometry: max |V^H V - Id| = {resid:.3e}")
    return a


def isometry_weights(V) -> np.ndarray:
    """Row weights wt_i = <v_i|v_i>/N of V, after check_isometry; they sum to 1 to its tolerance."""
    Vm = check_isometry(V)
    return np.sum(np.abs(Vm) ** 2, axis=1) / Vm.shape[1]


def check_projector(p) -> np.ndarray:
    a = _as_matrix(p)
    if a.shape[0] != a.shape[1]:
        raise ValueError("projector must be square")
    herm = float(np.max(np.abs(a - a.conj().T)))
    idem = float(np.max(np.abs(a @ a - a)))
    if herm > DERIVED_TOL or idem > DERIVED_TOL:
        raise ValueError(
            f"not a projector: hermiticity residual {herm:.3e}, "
            f"idempotence residual {idem:.3e}"
        )
    return a
