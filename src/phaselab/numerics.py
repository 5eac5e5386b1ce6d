"""Dense complex linear algebra substrate.

Matrices and states are plain numpy arrays (complex128, row-major).  This
module supplies the few primitives everything else is built on: operator
norms, random isometries/projectors, total-variation distance, a
counter-based RNG stream abstraction that makes every experiment
reproducible independently of thread scheduling, the one sign sampler, and
the one rounding allowance behind every certified comparison.

Every operator norm is one dense LAPACK eigensolve, at any size up to
NORM_MAX_DIM: an exactly Hermitian matrix goes to eigvalsh directly, any other
matrix through the smaller of its two Gram matrices.  A stack of matrices,
shape (..., r, c), takes one batched eigensolve per route for the whole stack.
That Gram matrix, and the P P and V^H V of the projector and isometry checks,
are Hermitian: each is formed only on its lower block triangle, which is all
eigvalsh reads, at about half the work of the whole product.  The route test
and the Gram matrix work on blocks of rows and columns, so an operator norm
makes no M x M temporary besides the Gram matrix and eigvalsh's own copy.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
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
    "real_if_exact",
    "span_basis",
    "thread_count",
    "parallel_blocks",
    "rounding_allowance",
    "CapacityError",
]

# Tolerance hierarchy: normalizations at 1e-9, derived equalities at 1e-8.
STRUCTURAL_TOL = 1e-9
DERIVED_TOL = 1e-8
ZERO_WEIGHT_TOL = 1e-14  # an isometry row whose weight <v_i|v_i>/N is at most this is zero

# u: a float64 operation returns its exact result times (1 + d), |d| <= u.
UNIT_ROUNDOFF = 2.0**-53

# c of the Hermitian eigensolve's allowance c n u ||A||_F.  Against 40-digit eigenvalues
# (mpmath), eigvalsh (numpy 2.4.6, OpenBLAS's LAPACK) erred by at most 4.7 n u ||A||_F on
# 9000 random, graded and shifted matrices at n = 2-4, and by at most 1.6 on 360 from
# n = 6 to 32: 32 keeps a factor of 6.
EIGENSOLVE_C = 32

# Largest matrix dimension operator_norm accepts.  Its eigensolve grows as
# dim^3 (0.4-0.7 s at 1024 on one core, so about half a minute at 4096): a
# larger matrix is refused with CapacityError rather than run for minutes.
NORM_MAX_DIM = 4096

# Default parallel_blocks size: the samples or trials of the bench and
# trial loops that share one generator.  Larger blocks cost memory and no time:
# 3000 compression trials at D = L = S = 16 (one BLAS thread, 2-CPU machine)
# took 0.07 s and 0.6 MiB of extra peak RSS at 64, 0.10 s and 4.6 MiB at 256.
SAMPLE_BLOCK = 64

# Row block of a Hermitian product formed on its lower block triangle.  At M = 1024
# (one BLAS thread, 2-CPU machine, best of 9) P @ P took 74.2 ms whole, and 46.5, 45.2
# and 48.4 ms in blocks of 64, 128 and 256.  At most this many rows are one block.
HERMITIAN_BLOCK = 128

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
    """Worker count for trial-level parallelism: PHASELAB_THREADS, a positive integer, default 1."""
    raw = os.environ.get(THREADS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def parallel_blocks(fn, total: int, block: int = SAMPLE_BLOCK) -> Iterator:
    """Iterate fn(b, size) over blocks of `block` items covering `total`, the last shorter.

    Blocks run on thread_count() workers, at most one per CPU and one per block; a block
    that draws takes rng.child(b) of its routine's stream rng (see RngStream).  Results
    come lazily and in block order, so any reduction over them is the same for every
    worker count: one worker runs block b when it is read, w hold at most w blocks,
    running or unread.  A caller needing a sequence lists them.
    """
    n_blocks = max(0, -(-total // block))

    def run(b):
        return fn(b, min(block, total - b * block))

    def window():  # block b is submitted once block b - workers has been read
        from concurrent.futures import ThreadPoolExecutor  # imported only when threads run

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque(pool.submit(run, b) for b in range(workers))
            for b in range(workers, n_blocks):
                yield pending.popleft().result()
                pending.append(pool.submit(run, b))
            while pending:
                yield pending.popleft().result()

    workers = min(thread_count(), n_blocks)
    if workers > 1:  # os.cpu_count() is a system call: made only when threads are asked for
        workers = min(workers, os.cpu_count() or 1)
    return map(run, range(n_blocks)) if workers <= 1 else window()


def rounding_allowance(n: int, scale, eigensolve: bool = False):
    """A-priori bound on the rounding error of a float64 value, for scale >= 0 (or an array).

    With u = UNIT_ROUNDOFF and gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, ch. 3), it returns gamma_n * scale: a sum or
    inner product of n terms whose magnitudes add up to scale, computed in any order, is
    within it of the exact one, and so is any value reached through n roundings, each
    relative to a magnitude of at most scale.  With eigensolve it returns
    EIGENSOLVE_C n u scale, scale >= ||A||_F: eigvalsh is backward stable, its eigenvalues
    of a Hermitian n x n A are those of A + E with ||E||_2 <= c n u ||A||_F (Golub and
    Van Loan, Matrix Computations, 4th ed., 2013, ch. 8), and by Weyl's inequality no
    eigenvalue moves by more than ||E||_2.

    Counting: products with +-1 are exact; (1 + theta_j)(1 + theta_k) = 1 + theta_(j+k);
    a complex value's error is within the sum of its parts' errors, so it counts twice
    (sqrt(2) gamma_n <= gamma_2n); terms of order u^2 are dropped, each count is rounded
    up to cover them and the rounding of the allowance itself.  The certified comparisons:

    - Sign search (game._row_bounds), first half a of m signs, ka of them in a, with
      scale S_a = |q_a| + sum |C| + max |q_b|.  The GEMM value sums m - ka terms (C b)
      and then ka + 2 (with q_a and q_b): each part within gamma_(m+2) S_a, a complex value
      within gamma_(2m+4) S_a; its squared modulus and the square roots add gamma_4 S_a.
      The bound's rotated entries (gamma_4), its sums over ka and m - ka terms (gamma_m),
      three-term maximum (gamma_2), cos(pi/2J) and division (gamma_3) give
      gamma_(m+9) S_a / cos(pi/2J) <= gamma_(2m+18) S_a, as the cosine exceeds 1/2;
      adding the allowance gamma_2 S_a: n = 4m + 28.  Every computed value of row a is
      at most U_a + allowance.
    - Subset search (relaxations._norm_bounds), a P x P Hermitian sum S with computed
      Wolkowicz-Styan bound b.  The mean sums P diagonal entries, each at most ||S||, and
      a shifted mean moves the exact bound by no more than the shift (gamma_P b); the
      traceless part's 2P^2 squared parts, the diagonal shift, the factor (P-1)/P, the
      product, the square root (halving the count) and the final sum give
      gamma_(P^2+4) b; adding the allowance one more: n = P^2 + P + 6.  The eigensolve
      adds the second form with ||S||_F <= sqrt(P) ||S|| <= sqrt(P) b, so no computed
      norm of S exceeds b + allowance.
    - is_b_bounded, row i of an M x N isometry with rescaled entries
      D_ki = <v_i|psi_k> / sqrt(wt_i) and scale s_i = ||v_i||_1 / ||v_i||_2 >= |D_ki|.
      The image sums N products with +-1/sqrt(N) (two roundings), each part within
      gamma_(N+2) s_i, the complex value within gamma_(2N+4) s_i; the weight (|V_ix|, its
      square, N - 1 additions, /N), its square root, the complex division and |D| add
      gamma_(N+6) s_i: n = 3N + 10.  An entry of exactly B is within B + allowance.
    """
    if eigensolve:
        return EIGENSOLVE_C * n * UNIT_ROUNDOFF * scale
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu) * scale


def _as_matrix(m, stack: bool = False, rank_zero: bool = False) -> np.ndarray:
    """m as a finite nonempty complex matrix (or stack); rank_zero admits an M x 0 one."""
    a = np.asarray(m, dtype=np.complex128)
    bad_ndim = a.ndim < 2 if stack else a.ndim != 2
    if bad_ndim or (a.size == 0 and not (rank_zero and a.shape[-2] > 0)):
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


def _lower_blocks(n: int) -> list[tuple[int, int]]:
    """Row blocks [lo, hi) of an n x n product x @ y: the blocks x[lo:hi] @ y[:, :hi] cover
    its lower triangle.  Slices clip hi to n; at most HERMITIAN_BLOCK rows are one block."""
    return [(lo, lo + HERMITIAN_BLOCK) for lo in range(0, n, HERMITIAN_BLOCK)]


def _lower_residual(x, y, c, hermitian: bool = True) -> float:
    """max |x @ y - c| by row blocks: on the lower block triangle if it is Hermitian, else all."""
    resid = 0.0
    for lo, hi in _lower_blocks(len(c)):
        cols = hi if hermitian else None
        resid = max(resid, float(np.max(np.abs(x[lo:hi] @ y[:, :cols] - c[lo:hi, :cols]))))
    return resid


def _route_norms(a: np.ndarray, hermitian: bool) -> np.ndarray:
    """Norms of a stack on one route: eigvalsh of a, or of its smaller Gram matrix.

    The Gram matrix, A^H A or A A^H, is formed on its lower block triangle with zeros
    above: eigvalsh reads only the lower triangle, so its eigenvalues are the same.
    Each block conjugates one column slab of A (of A^T for A A^H), so besides the
    Gram matrix and eigvalsh's own copy no M x M temporary is made.
    """
    if hermitian:
        w = np.linalg.eigvalsh(a)
        return np.maximum(w[..., -1], -w[..., 0]) + 0.0  # a zero matrix gives max(0, -0) = -0.0
    b = a if a.shape[-2] >= a.shape[-1] else np.swapaxes(a, -1, -2)  # B^H B = A^H A or conj(A A^H)
    n = b.shape[-1]
    gram = np.zeros(b.shape[:-2] + (n, n), dtype=np.complex128)
    for lo, hi in _lower_blocks(n):  # B[:, lo:hi]^H B[:, :hi], one conjugated column slab at a time
        np.matmul(np.swapaxes(b[..., lo:hi].conj(), -1, -2), b[..., :hi], out=gram[..., lo:hi, :hi])
    if b is not a:  # conj(X) conj(Y) = conj(X Y), as negation rounds exactly (a zero's sign aside)
        np.conjugate(gram, out=gram)
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
    herm = np.full(a.shape[:-2], a.shape[-1] == a.shape[-2])
    for lo, hi in _lower_blocks(a.shape[-1]):  # a == a^H by parts on the lower block triangle
        if not herm.any():
            break
        x, t = a[..., :hi, lo:hi], np.swapaxes(a[..., lo:hi, :hi], -1, -2)
        herm &= ((x.real == t.real) & (x.imag == -t.imag)).all(axis=(-2, -1))
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
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError(f"distributions must be 1-D, got shapes {p.shape} and {q.shape}")
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12):
            raise ValueError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"{name} does not sum to 1 (sum={v.sum()!r})")
    return float(0.5 * np.abs(p - q).sum())


def span_basis(A, complement: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Orthonormal bases of A's column span and of its complement, from one SVD.

    Only the complement needs the full n x n left factor: with complement=False the SVD is
    thin, its left factor n x min(n, k), and the complement comes back as None.
    """
    u, s, _ = np.linalg.svd(np.asarray(A, dtype=np.complex128), full_matrices=complement)
    rank = int(np.sum(s > 1e-12 * max(1.0, float(s.max(initial=0.0)))))
    return u[:, :rank], u[:, rank:] if complement else None


def check_unit_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128).ravel()
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"not a unit vector: norm {nrm}")
    return a


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """a's real part as a contiguous float64 array if a's imaginary part is all zero, else a.

    A real product costs a quarter of the complex one, and its entries are the complex
    product's real parts up to the order BLAS sums in.
    """
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def check_isometry(v, rank_zero: bool = False) -> np.ndarray:
    """V as a complex matrix, checked: max |V^H V - Id| <= DERIVED_TOL on V^H V's lower triangle.

    The product is real when V's entries are.  rank_zero admits an M x 0 V, the factor of the
    zero projector, which has nothing to check.
    """
    a = _as_matrix(v, rank_zero=rank_zero)
    x = real_if_exact(a)
    resid = _lower_residual(x.conj().T, x, np.eye(a.shape[1]))
    if resid > DERIVED_TOL:
        raise ValueError(f"not an isometry: max |V^H V - Id| = {resid:.3e}")
    return a


def isometry_weights(V) -> np.ndarray:
    """Row weights wt_i = <v_i|v_i>/N of V, after check_isometry; they sum to 1 to its tolerance."""
    Vm = check_isometry(V)
    return np.sum(np.abs(Vm) ** 2, axis=1) / Vm.shape[1]


def check_projector(p) -> np.ndarray:
    """P as a complex matrix after checking max |P - P^H| and max |P P - P| <= DERIVED_TOL.

    Both are taken by row blocks with no M x M temporary, on the lower block triangle where
    that covers them: |P - P^H| always, |P P - P| when P equals P^H bit for bit (so P P is
    Hermitian).  Any other P takes |P P - P| on every column of each row block.
    """
    a = _as_matrix(p)
    if a.shape[0] != a.shape[1]:
        raise ValueError("projector must be square")
    blocks = _lower_blocks(len(a))
    herm = max(float(np.max(np.abs(a[lo:hi, :hi] - a[:hi, lo:hi].T.conj()))) for lo, hi in blocks)
    idem = _lower_residual(a, a, a, hermitian=herm == 0.0)
    if herm > DERIVED_TOL or idem > DERIVED_TOL:
        raise ValueError(
            f"not a projector: hermiticity residual {herm:.3e}, "
            f"idempotence residual {idem:.3e}"
        )
    return a
