"""The phase-state distinguishing game.

A function family is a K x N table of +-1 signs; row k defines the binary
phase state |psi_k> with amplitudes R[k, x] / sqrt(N).  A one-query adversary
is a triple (M, V, Pi): an isometry V from dimension N into dimension M, one
query to a diagonal +-1 phase oracle O_f on the larger space, and a final
projective measurement Pi.  Its acceptance probability on a phase state is

    p(h | f) = <psi_h| V^H O_f Pi O_f V |psi_h> = h^T Q_f h / N,

with the real N x N form Q_f = Re((O_f V)^H Pi (O_f V)) (phase states have
real amplitudes, so the imaginary part cancels).  Its distinguishing advantage
on a family R is the gap between the average acceptance over the family's
states and the acceptance averaged over all phase states, tr(Q_f) / N, since a
uniformly random phase state averages to the maximally mixed state.  Every
acceptance probability in this module comes from Q_f.

Everything that maximizes over oracle functions goes through a single M x M
Hermitian kernel B with  gap(f) = f^T B f, so each candidate f costs one
quadratic form and single-sign flips cost O(M).  The exact maximum is a
meet-in-the-middle search over half-vectors in O(2^(M/2)) memory, with ties
broken to the lexicographically first maximizer (`max_abs_quadratic`); from
M = 17 it skips each first half whose certified bound cannot reach the maximum.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .numerics import (
    DERIVED_TOL,
    NORM_MAX_DIM,
    ZERO_WEIGHT_TOL,
    CapacityError,
    RngStream,
    check_isometry,
    check_norm_budget,
    check_projector,
    isometry_weights,
    random_sign_array,
    real_if_exact,
    rounding_allowance,
)

__all__ = [
    "AdversarySpec",
    "check_bruteforce_size",
    "check_family",
    "check_families",
    "check_signs",
    "family_images",
    "random_family",
    "phase_state",
    "acceptance_probability",
    "haar_average_acceptance",
    "advantage_given_f",
    "advantage_kernel",
    "kernel_quadratic_form",
    "sign_rows",
    "max_abs_quadratic",
    "max_advantage_bruteforce",
    "max_advantage_localsearch",
    "simulate_game",
    "BRUTEFORCE_CUTOFF",
]

BRUTEFORCE_CUTOFF = 28
_BLOCK = 1 << 16  # values per search block: stays in cache; 2^18 and 2^20 ran slower
_DIRECTIONS = 8  # complex bound, 1/cos(pi/16) - 1 = 2 % loose: 4 and 16 ran slower at M = 22
_SEED_ROWS = 32  # top-bound rows scored for the cut: 128 ran slower at M = 18-22
_PI_LOCK = threading.Lock()


def _check_sign_array(values, ndim: int, what: str) -> np.ndarray:
    """A nonempty float64 +-1 array with ndim axes, validated; float64 input comes back uncopied."""
    a = np.asarray(values)
    if a.ndim != ndim or a.size < 1:
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    r = np.asarray(a, dtype=np.float64)
    if not np.all((r == 1.0) | (r == -1.0)):
        raise ValueError(f"{what} entries must all be +1 or -1")
    return r


def check_signs(values) -> np.ndarray:
    """Validate and return a +-1 vector (a Boolean function in sign form)."""
    return _check_sign_array(values, 1, "1-d sign vector")


def check_family(values) -> np.ndarray:
    """Validate and return a K x N +-1 array (a function family)."""
    return _check_sign_array(values, 2, "K x N sign table")


def check_bruteforce_size(m: int) -> None:
    """Raise CapacityError if 2^m oracle functions exceed the exact search's BRUTEFORCE_CUTOFF."""
    if m > BRUTEFORCE_CUTOFF:
        raise CapacityError(
            f"brute force over 2^{m} oracle functions exceeds the cutoff M = {BRUTEFORCE_CUTOFF}"
        )


def random_family(K: int, N: int, rng: RngStream) -> np.ndarray:
    """A uniform K x N +-1 family from the stream, drawn by `random_sign_array`; K * N above
    NORM_MAX_DIM^2 entries, the largest matrix operator_norm takes, is refused before drawing."""
    if K * N > NORM_MAX_DIM**2:
        raise CapacityError(
            f"a K x N family of {K} x {N} signs exceeds the budget of {NORM_MAX_DIM**2} entries"
        )
    return random_sign_array(rng.generator(), (K, N))


class AdversarySpec:
    """One-query adversary in normal form: isometry V (M x N), projector Pi (M x M).

    `AdversarySpec(V, Pi)` checks a dense Pi with `check_projector`, whose product Pi Pi
    costs M^3.  `AdversarySpec.from_factor(V, W)` holds Pi = W W^H by an M x r isometry W
    (r = 0 allowed), checked with `check_isometry` in M r^2, and keeps `W`; neither the
    checks nor Q_f read its `Pi`, which is formed from W on first read, once and unchecked.
    V is checked once; its row weights and zero-weight mask are kept as `weights` and `mask`.
    All arrays are read-only views, and no attribute can be set after construction.
    """

    V: np.ndarray
    W: np.ndarray | None  # None for a dense Pi

    def __init__(self, V, Pi):
        self._store(V=V, _Pi=Pi, W=None)
        self.__post_init__()

    @classmethod
    def from_factor(cls, V, W) -> AdversarySpec:
        """The adversary (V, W W^H), its Pi held by the M x r isometry W."""
        spec = cls.__new__(cls)
        spec._store(V=V, _Pi=None, W=W)
        spec.__post_init__()
        return spec

    def _store(self, **arrays):
        for name, a in arrays.items():
            if isinstance(a, np.ndarray):
                a = a.view()
                a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __post_init__(self):  # the dataclass name, which perfbench's tracer wraps
        """The checks, run once: an M or N above NORM_MAX_DIM (`check_norm_budget`) is
        refused before any product, then V is checked, then Pi or W."""
        factor = self.W is not None
        check_norm_budget(np.shape(self.V))
        check_norm_budget(np.shape(self.W if factor else self._Pi))
        weights = isometry_weights(self.V)  # the one check of V
        V = np.asarray(self.V, dtype=np.complex128)
        held = check_isometry(self.W, rank_zero=True) if factor else check_projector(self._Pi)
        if held.shape[0] != V.shape[0]:
            raise ValueError(
                f"projector dimension {held.shape[0]} != isometry output {V.shape[0]}"
            )
        mask = weights <= ZERO_WEIGHT_TOL
        self._store(V=V, weights=weights, mask=mask, **{"W" if factor else "_Pi": held})

    def __setattr__(self, name, value):
        raise AttributeError(f"AdversarySpec is read-only: cannot set {name!r}")

    @property
    def Pi(self) -> np.ndarray:
        """The M x M projector; a factor-held one is formed as W @ W^H on first read."""
        if self._Pi is None:
            with _PI_LOCK:  # threads reading at once form it once
                if self._Pi is None:
                    self._store(_Pi=self.W @ self.W.conj().T)
        return self._Pi

    @property
    def N(self) -> int:
        return self.V.shape[1]

    @property
    def M(self) -> int:
        return self.V.shape[0]

    def pi_entrywise(self, C: np.ndarray) -> np.ndarray:
        """C * Pi entrywise for an M x M kernel C or a stack of them, written into C.

        C comes first at every size, as the factor order sets a complex product's rounding.
        """
        return np.multiply(C, self.Pi, out=C)


def check_families(R) -> np.ndarray:
    """Validate and return one K x N family or a stack of them, shape (..., K, N).

    The family rule: a routine that takes either indexes only the last axes and gives
    one result per family, each its single call's bit for bit; others take `check_family`.
    """
    return _check_sign_array(R, max(np.ndim(R), 2), "K x N sign table or a stack of them")


def family_images(V, R) -> np.ndarray:
    """K x M matrix whose row k is V |psi_{R_k}>, for an M x N matrix V and a K x N family R.

    A stack of families (..., K, N) gives (..., K, M), each family's own product; more
    than NORM_MAX_DIM^2 entries are refused before the product.
    """
    Rv = check_families(R)
    M, N = V.shape
    if Rv.shape[-1] != N:
        raise ValueError(f"family width {Rv.shape[-1]} != N = {N}")
    if Rv.size // N * M > NORM_MAX_DIM**2:
        raise CapacityError(f"{Rv.size // N} x {M} family-image entries exceed {NORM_MAX_DIM**2}")
    return np.swapaxes(V @ (np.swapaxes(Rv, -1, -2) / np.sqrt(N)), -1, -2)


def phase_state(h) -> np.ndarray:
    """Binary phase state: amplitude h(x)/sqrt(L) at position x."""
    f = check_signs(h)
    return (f / np.sqrt(f.size)).astype(np.complex128)


def _acceptance_form(adv: AdversarySpec, f) -> np.ndarray:
    """Real N x N matrix Q_f = Re((O_f V)^H Pi (O_f V)), so that p(h | f) = h^T Q_f h / N.

    A factor-held Pi = W W^H gives Q_f = Re(X^H X) with the r x N matrix X = W^H (O_f V),
    never forming Pi: Re(X^H X) = Y^T Y with Y = X if X is real, else Re(X) stacked on Im(X).
    W and O_f V each enter the product as real matrices when their entries are.
    """
    fv = check_signs(f)
    if fv.size != adv.M:
        raise ValueError(f"oracle length {fv.size} != M = {adv.M}")
    if adv.W is None:
        A = fv[:, None] * adv.V
        # Contiguous, so BLAS sees a real matrix rather than a strided view into complex storage.
        return np.ascontiguousarray(np.real(A.conj().T @ (adv.Pi @ A)))
    X = real_if_exact(adv.W).conj().T @ (fv[:, None] * real_if_exact(adv.V))
    Y = X if X.dtype == np.float64 else np.concatenate([X.real, X.imag])
    return Y.T @ Y


def _acceptance(adv: AdversarySpec, Q: np.ndarray, H=None) -> np.ndarray:
    """Acceptance probabilities h^T Q h / N of the rows h of the sign table H, checked and clamped.

    A stack of tables, shape (..., K, N), gives shape (..., K).  H = None gives
    their average over all 2^N sign rows, tr(Q) / N, as a length-1 array.
    AdversarySpec bounds every entry of V^H V - Id and of Pi Pi - Pi by
    DERIVED_TOL, so by Gershgorin on these two matrices ||V||^2 <= 1 + N DERIVED_TOL
    and every eigenvalue of Pi lies in [-M DERIVED_TOL, 1 + M DERIVED_TOL].  A
    factor-held Pi = W W^H has its M x r factor's W^H W - Id so bounded instead: Pi is
    positive semidefinite with ||Pi|| = ||W||^2 <= 1 + r DERIVED_TOL <= 1 + M DERIVED_TOL,
    as r <= M.  A probability p = <w|Pi|w> with ||w||^2 <= ||V||^2 then lies in
    [-tol, 1 + tol], tol = (1 + N DERIVED_TOL)(1 + M DERIVED_TOL) - 1, either way: one
    outside is an error, one inside is clamped to [0, 1].
    """
    N, M = adv.N, adv.M
    if H is not None and H.shape[-1] != N:
        raise ValueError(f"challenge length {H.shape[-1]} != N = {N}")
    q = np.trace(Q)[None] if H is None else np.einsum("...ij,...ij->...i", H @ Q, H)
    p = q / N
    tol = (1.0 + N * DERIVED_TOL) * (1.0 + M * DERIVED_TOL) - 1.0
    bad = (p < -tol) | (p > 1.0 + tol)
    if np.any(bad):
        raise ValueError(f"acceptance probability {p[bad][0]} outside [0, 1] tolerance {tol:.1e}")
    return np.clip(p, 0.0, 1.0)


def acceptance_probability(adv: AdversarySpec, h, f) -> float:
    """p(h | f) = <psi_h| V^H O_f Pi O_f V |psi_h> = h^T Q_f h / N, clamped to [0, 1]."""
    Q = _acceptance_form(adv, f)
    return float(_acceptance(adv, Q, check_signs(h)[None])[0])


def haar_average_acceptance(adv: AdversarySpec, f) -> float:
    """Average acceptance over all phase states: tr(Q_f) / N.

    A uniformly random phase state averages to the maximally mixed state, so
    the average is exact -- no Monte Carlo over the 2^N challenge functions.
    """
    return float(_acceptance(adv, _acceptance_form(adv, f))[0])


def advantage_given_f(adv: AdversarySpec, R, f):
    """|E_k p(R_k | f) - E_h p(h | f)| for a fixed oracle function f.

    Both terms come from one form Q_f: the family's rows R_k^T Q_f R_k / N and
    the all-h average tr(Q_f) / N.  A stack of families (..., K, N) gives (...).
    """
    Q = _acceptance_form(adv, f)
    Rv = check_families(R)
    fam = np.mean(_acceptance(adv, Q, Rv), axis=-1)
    gap = np.abs(fam - _acceptance(adv, Q)[0])
    return float(gap) if Rv.ndim == 2 else gap


def advantage_kernel(adv: AdversarySpec, R) -> np.ndarray:
    """Hermitian M x M kernel B with  f^T B f = E_k p(R_k|f) - E_h p(h|f).

    Writing u_k = V |psi_k>, the acceptance probability expands entrywise as
    p = sum_ij f_i f_j Pi_ij conj(u_i) u_j, and the all-h average replaces the
    outer product by conj(V V^H)/N.  The signed gap is the quadratic form of
    the difference; its absolute value is the advantage at f.  A stack of
    families (..., K, N) gives a stack of kernels (..., M, M).
    """
    U = family_images(adv.V, R)  # K x M, row k = V|psi_k>
    outer = np.swapaxes(U.conj(), -1, -2) @ U
    outer /= U.shape[-2]  # E_k conj(u_i) u_j at (i, j)
    gram = adv.V @ adv.V.conj().T
    np.conjugate(gram, out=gram)
    gram /= adv.N
    outer -= gram
    del gram
    return adv.pi_entrywise(outer)


def kernel_quadratic_form(B: np.ndarray, f) -> float:
    """Signed gap f^T B f (real for Hermitian B and +-1 vectors f) of one M x M kernel."""
    fv = check_signs(f)
    if np.shape(B) != (fv.size, fv.size):
        raise ValueError(f"expected one {fv.size} x {fv.size} kernel, got shape {np.shape(B)}")
    return float(np.real(fv @ (B @ fv)))


@functools.lru_cache(maxsize=16)  # one read-only table per n
def sign_rows(n: int) -> np.ndarray:
    """All 2^n sign vectors of length n, lexicographic: row i is -1 at i's set bits, MSB first."""
    idx = np.arange(1 << n)[:, None]
    rows = 1.0 - 2.0 * ((idx >> np.arange(n - 1, -1, -1)) & 1)
    rows.flags.writeable = False
    return rows


def _row_bounds(Fa, qa, C, qb):
    """U_a >= |q_a + w_a . b + q_b| over all b, w_a = a^T C, for each a-row; and its allowance.

    |w_a . b| <= ||w_a||_1.  A complex value takes that bound of Re(e^(-i t) v) in
    _DIRECTIONS directions t = pi j / J, and |v| is at most their largest over
    cos(pi / 2J).  The allowance covers the rounding of U_a and of the GEMM value, as
    derived in `rounding_allowance`: every computed value of row a is at most U_a + it.
    """
    square = np.iscomplexobj(C)
    turns = np.exp(-1j * np.pi * np.arange(_DIRECTIONS) / _DIRECTIONS) if square else np.ones(1)
    ra, rb = (turns[:, None] * qa).real, (turns[:, None] * qb).real
    rw = (turns[:, None, None] * C.T).real.reshape(-1, len(C)) @ Fa.T  # Re(e^(-i t) w_a), stacked
    l1 = np.abs(rw, out=rw).reshape(len(turns), -1, len(Fa)).sum(1)
    U = np.maximum(ra + l1 + rb.max(1, keepdims=True), l1 - ra - rb.min(1, keepdims=True)).max(0)
    U = U / np.cos(np.pi / (2 * _DIRECTIONS)) if square else U
    scale = np.abs(qa) + np.abs(C).sum() + np.abs(qb).max()
    return U, rounding_allowance(4 * sum(C.shape) + 28, scale)  # C is ka x (m - ka)


def max_abs_quadratic(K: np.ndarray):
    """Exact max of |f^T K f| over sign vectors f with f_1 = +1, and a maximizer.

    Meet in the middle (Horowitz-Sahni): f = (a, b) splits after ceil(M/2)
    coordinates and f^T K f = q_a + a^T (K_ab + K_ba^T) b + q_b, so with q_a
    and q_b appended to the two factors a block of a-rows against all b-rows
    is one real GEMM.  A complex K (generally non-Hermitian) takes two, for
    the real and the imaginary part; the block's squared moduli are compared
    and one square root is taken at the end.  Blocks hold at most
    max(2^16, 2^floor(M/2)) values: memory is O(2^(M/2)).  Row-major (a, b)
    order is lexicographic in f with +1 first and a later block wins only on a
    strictly larger value, so ties break to the lexicographically first maximizer.

    A search of one block or more (M >= 17) bounds each a-row (`_row_bounds`),
    scores the _SEED_ROWS top-bound rows, and scans only the rows whose bound
    reaches their largest value: 7-16 % of the rows on average on adversary kernels,
    with the full scan's value and witness bit for bit.

    A stack of kernels (..., M, M) gives values (...) and maximizers (..., M),
    each its kernel's own bit for bit: kernels whose searches fit in one block
    share a batched GEMM, larger ones are searched one by one.
    """
    if not np.isfinite(K).all():
        raise ValueError("kernel entries must be finite")
    m = K.shape[-1]
    ka = (m + 1) // 2
    Fa = sign_rows(ka)[: 1 << (ka - 1)]  # the first half has f_1 = +1
    Fb = sign_rows(m - ka)
    Ks, nb = K.reshape(-1, m, m), len(Fb)
    rows, per = max(1, _BLOCK // nb), max(1, _BLOCK // (len(Fa) * nb))  # a-rows, kernels per block
    best_val, best_idx = np.full(len(Ks), -1.0), np.zeros(len(Ks), dtype=np.int64)

    def factors(q_a, c, q_b):  # [a, q_a, 1] @ [c; 1; q_b] = q_a + a^T c_b + q_b
        a = np.broadcast_to(Fa, (len(c), *Fa.shape))
        A = np.concatenate([a, q_a[..., None], np.ones((len(c), len(Fa), 1))], -1)
        return A, np.concatenate([c, np.ones((len(c), 1, nb)), q_b[:, None]], -2)

    square = np.iscomplexobj(K)
    for k in range(0, len(Ks), per):
        Kc = Ks[k : k + per]
        qa = np.einsum("...ij,ij->...i", Fa @ Kc[:, :ka, :ka], Fa)
        qb = np.einsum("...ij,ij->...i", Fb @ Kc[:, ka:, ka:], Fb)
        C = Kc[:, :ka, ka:] + np.swapaxes(Kc[:, ka:, :ka], -1, -2)
        cross = C @ Fb.T
        if square:
            A, G = factors(qa.real, cross.real, qb.real)
            Ai, Gi = factors(qa.imag, cross.imag, qb.imag)
        else:
            A, G = factors(qa, cross, qb)

        def score(idx, vals, im):  # |v| (squared for a complex K) of the a-rows idx, into vals
            np.matmul(A[:, idx], G, out=vals)
            if square:
                np.matmul(Ai[:, idx], Gi, out=im)
                vals *= vals
                vals += np.multiply(im, im, out=im)
            else:
                np.abs(vals, out=vals)
            return vals.reshape(len(Kc), -1)

        kept = np.arange(len(Fa))
        if per == 1:
            # Why scanning `kept` gives the full scan's (value, witness): a GEMM over two or
            # more of a block's rows gives each entry the full block's bits (numpy runs one
            # row as gemv, with other bits, so a lone last row is doubled).  U_a + allowance
            # bounds each computed value of row a, so the cut's row is kept and every value
            # of a skipped row lies below one the scan computes: no skipped row holds the
            # first maximizer, and the kept rows in index order meet the same strict > and
            # argmax.
            U, allowance = _row_bounds(Fa, qa[0], C[0], qb[0])
            seed = np.sort(np.argpartition(U, -_SEED_ROWS)[-_SEED_ROWS:])
            top = score(seed, *np.empty((2, 1, _SEED_ROWS, nb))).max()
            kept = np.flatnonzero(~(U + allowance < (np.sqrt(top) if square else top)))
            if len(kept) % rows == 1:
                kept = np.append(kept, kept[-1])
        buf = np.empty((2, len(Kc), min(rows, len(kept)), nb))
        for start in range(0, len(kept), rows):
            idx = kept[start : start + rows]
            vals = score(idx, buf[0, :, : len(idx)], buf[1, :, : len(idx)])
            j = np.argmax(vals, axis=1)
            v = vals[np.arange(len(Kc)), j]
            won = v > best_val[k : k + per]
            best_val[k : k + per] = np.where(won, v, best_val[k : k + per])
            best_idx[k : k + per] = np.where(won, idx[j // nb] * nb + j % nb, best_idx[k : k + per])
    i, j = np.divmod(best_idx, nb)
    best, fs = np.sqrt(best_val) if square else best_val, np.concatenate([Fa[i], Fb[j]], axis=-1)
    if K.ndim == 2:
        return float(best[0]), fs[0]
    return best.reshape(K.shape[:-2]), fs.reshape(*K.shape[:-2], m)


def max_advantage_bruteforce(adv: AdversarySpec, R):
    """Exact maximum advantage over all 2^M oracle functions.

    The sign symmetry gap(f) = gap(-f) halves the search by pinning f_1 = +1;
    the rest is the meet-in-the-middle search of `max_abs_quadratic` on
    Re(B), which is exact because f^T B f = f^T Re(B) f for real f.  Returns
    (advantage, maximizing f); ties break to the lexicographically first
    maximizer; a stack of families (..., K, N) gives arrays (...) and (..., M).
    An M above BRUTEFORCE_CUTOFF is refused before B is built.
    """
    check_bruteforce_size(adv.M)
    return max_abs_quadratic(np.real(advantage_kernel(adv, R)))


def max_advantage_localsearch(adv: AdversarySpec, R, restarts: int = 20, *, rng: RngStream):
    """Heuristic lower bound on the maximum advantage via sign-flip hill climbing.

    Restart r starts from row r of one restarts x M sign draw from rng.generator()
    and repeatedly takes the best single-coordinate flip that increases |f^T B f|,
    using O(M) updates of the gradient.  Its first gradient is its own B @ f; the
    climb reads only Re(B f), so it carries that alone, updated from the real
    columns of B.  The restarts still climbing take each step together over
    compact arrays, compacted only at a step where one stops; the first with the
    largest value wins.  The result is locally maximal, hence always <= the true
    maximum.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    B = advantage_kernel(adv, check_family(R))
    m = B.shape[0]
    diag = np.real(np.diagonal(B))
    cols = np.ascontiguousarray(B.real.T)  # cols[i] = Re B[:, i]
    F = random_sign_array(rng.generator(), (restarts, m))
    G = np.array([B @ f for f in F])
    q = np.array([np.real(f @ g) for f, g in zip(F, G)])
    live, f, g, q_live = np.arange(restarts), F.copy(), G.real.copy(), q.copy()
    while live.size:
        # Flipping coordinate i changes q by -2 f_i s_i.
        s = 2.0 * g - 2.0 * diag * f
        cand = np.abs(q_live[:, None] - 2.0 * f * s)
        i = np.argmax(cand, axis=1)
        rows = np.arange(live.size)
        fi, si = f[rows, i], s[rows, i]
        up = cand[rows, i] > np.abs(q_live) + 1e-12  # a lower bound: stops on rounding noise
        if not up.all():  # keep the stopped restarts' results, then compact the climbing ones
            F[live[~up]], q[live[~up]] = f[~up], q_live[~up]
            live, f, g, q_live, i, fi, si = (a[up] for a in (live, f, g, q_live, i, fi, si))
            rows = rows[: live.size]
        g -= 2.0 * fi[:, None] * cols[i]
        q_live -= 2.0 * fi * si
        f[rows, i] = -fi
    best = int(np.argmax(np.abs(q)))
    return float(abs(q[best])), F[best]


def simulate_game(adv: AdversarySpec, R, f, trials: int, rng: RngStream) -> float:
    """Play the distinguishing game `trials` times; returns the win frequency.

    Each trial: the challenger flips b; on b = 0 it sends |psi_{R_k}> for a
    random row k, on b = 1 a fresh random phase state (the adversary's view is
    identical to the random-basis-state challenger).  The adversary measures
    Pi on O_f V |psi> and answers 0 on acceptance, with probability
    h^T Q_f h / N.  A random phase state averages to the maximally mixed state,
    so a trial is won with probability w = (1 + E_k p(R_k | f) - tr(Q_f) / N) / 2
    independently of the others, and the win count is Binomial(trials, w): one
    draw from rng.generator().  Both terms are checked and clamped by
    `_acceptance`.  A game scored trial by trial would clamp each p(h) instead of
    their mean tr(Q_f) / N; a clamped mean differs from the mean of clamped values by
    at most that routine's tol = (1 + N DERIVED_TOL)(1 + M DERIVED_TOL) - 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    Rv = check_family(R)
    Q = _acceptance_form(adv, f)
    w = 0.5 * (1.0 + np.mean(_acceptance(adv, Q, Rv)) - _acceptance(adv, Q)[0])
    return rng.generator().binomial(trials, w) / trials
