"""Monte Carlo validators for the concentration inequalities the analysis leans on.

Each bench samples a random object, measures a norm or deviation, and compares
empirical tail frequencies against the corresponding closed-form bound, with a
3-sigma binomial allowance for finite samples.  The reference bounds are
theorems, so a FAIL flags an implementation bug rather than new mathematics.
Thresholds are fixed module constants (relative to the bench's scale where it
has one), and the existential constants in the width and advantage tails are
the named module constants WIDTH_C_TEST and ADVANTAGE_C_TEST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import rescaling_diagonals, truncate_values, width
from .game import (
    AdversarySpec,
    advantage_given_f,
    check_bruteforce_size,
    max_advantage_bruteforce,
    random_family,
    sign_rows,
)
from .numerics import (
    DERIVED_TOL,
    STRUCTURAL_TOL,
    RngStream,
    check_isometry,
    operator_norm,
    parallel_blocks,
    random_isometry,
    random_projector,
    random_sign_array,
)

__all__ = [
    "TailReport",
    "rademacher_series_bench",
    "matrix_hoeffding_bench",
    "truncated_conjugation_sampler",
    "complex_hoeffding_bench",
    "width_tail_bench",
    "advantage_tail_bench",
    "default_suite",
    "BENCHES",
]

RADEMACHER_THRESHOLDS = (0.5, 1.0, 1.5)  # multiples of the mean bound (absolute when it is 0)
HOEFFDING_THRESHOLDS = (0.5, 1.0, 2.0)  # multiples of sigma = sqrt(K) * norm_bound
COMPLEX_THRESHOLDS = (1.0, 2.0, 3.0)
WIDTH_THRESHOLDS = (0.5, 1.0, 2.0)  # excesses t, events {width >= 1 + t}
WIDTH_C_TEST = 0.05  # stand-in for the width tail's existential constant; conservative
ADVANTAGE_EPSILONS = (0.05, 0.1, 0.2)
ADVANTAGE_C_TEST = 0.01  # stand-in for the advantage tail's existential constant


@dataclass(frozen=True)
class TailReport:
    """Empirical tail frequencies against a reference bound at fixed thresholds."""

    bound_name: str
    thresholds: tuple[float, ...]
    empirical: tuple[float, ...]
    bounds: tuple[float, ...]
    samples: int
    passed: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.thresholds) == len(self.empirical) == len(self.bounds)):
            raise ValueError("threshold/frequency/bound lists must align")
        if any(not (0.0 <= p <= 1.0) for p in self.empirical):
            raise ValueError("frequencies must lie in [0, 1]")


def _tail_report(name, values, thresholds, bounds, extras=None) -> TailReport:
    """The one verdict rule: each tail frequency at most b + 3 sqrt(b (1 - b) / n), for its
    bound b clipped at 1 and the n = len(values) samples, and any extras "mean_ok" true."""
    n = len(values)
    bounds = [min(1.0, b) for b in bounds]
    freqs = [float(np.mean(values >= t)) for t in thresholds]
    ok = all(f <= b + 3.0 * np.sqrt(b * (1.0 - b) / n) + 1e-12 for f, b in zip(freqs, bounds))
    if extras:
        ok = ok and bool(extras.get("mean_ok", True))
    return TailReport(
        bound_name=name,
        thresholds=tuple(float(t) for t in thresholds),
        empirical=tuple(freqs),
        bounds=tuple(float(b) for b in bounds),
        samples=n,
        passed=bool(ok),
        extras=dict(extras or {}),
    )


def _sampled(run_block, samples: int) -> np.ndarray:
    """run_block(b, size) over the parallel blocks of `samples`, concatenated in block order."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return np.concatenate(list(parallel_blocks(run_block, samples)))


def rademacher_series_bench(coefficients, samples: int, rng: RngStream) -> TailReport:
    """Random sign combinations Z = sum_k x_k C_k of fixed matrices.

    The matrix variance v(Z) = max(||sum C_k C_k^H||, ||sum C_k^H C_k||)
    controls both the expected operator norm, E||Z|| <= sqrt(2 ln(d1+d2) v),
    and the tail Pr[||Z|| >= t] <= (d1+d2) exp(-t^2 / 2v).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    C = [np.asarray(c, dtype=np.complex128) for c in coefficients]
    if not C:
        raise ValueError("need at least one coefficient matrix")
    if any(c.shape != C[0].shape for c in C):
        raise ValueError("coefficient matrices must share one shape")
    d1, d2 = C[0].shape
    v = max(
        operator_norm(sum(c @ c.conj().T for c in C)),
        operator_norm(sum(c.conj().T @ c for c in C)),
    )
    mean_bound = float(np.sqrt(2.0 * np.log(d1 + d2) * v))
    thresholds = [t * (mean_bound or 1.0) for t in RADEMACHER_THRESHOLDS]

    stacked = np.stack(C)

    def run_block(b, size):
        signs = random_sign_array(rng.child(b).generator(), (size, len(C)))
        return operator_norm(np.stack([np.tensordot(s, stacked, axes=1) for s in signs]))

    norms = _sampled(run_block, samples)
    bounds = [(d1 + d2) * np.exp(-(t**2) / (2.0 * v)) for t in thresholds]
    mean = float(norms.mean())
    se = float(norms.std(ddof=1) / np.sqrt(len(norms)))
    extras = {
        "variance_statistic": float(v),
        "mean_norm": mean,
        "mean_bound": mean_bound,
        "mean_ok": mean <= mean_bound + 3.0 * se + 1e-12,
    }
    return _tail_report("matrix-rademacher", norms, thresholds, bounds, extras)


def truncated_conjugation_sampler(V, Pi, B: float):
    """Sampler of centered truncated conjugated rescaling matrices.

    Draws a random sign function h, looks trunc_B(D_h) up among the enumerated
    diagonals, forms trunc_B(D_h)^H Pi trunc_B(D_h), and subtracts the exact
    all-h average (enumerated, so N must stay small).  Entries of the truncated
    diagonal are bounded by B, so each sample is Hermitian with norm at most
    2 B^2; returns (sampler, uniform bound 2B^2).

    sampler(g, count) gives a (count, D, D) stack of samples, each drawn from one
    64-bit word of g, so a stack equals the concatenated stacks of successive calls.
    """
    adv = AdversarySpec(V, Pi)
    if adv.N > 12:
        raise ValueError("exact centering enumerates 2^N sign functions; N <= 12")
    DallB = truncate_values(rescaling_diagonals(adv, sign_rows(adv.N))[0], B)
    mean = np.einsum("ki,ij,kj->ij", DallB.conj(), adv.Pi, DallB) / len(DallB)
    place = 1 << np.arange(adv.N - 1, -1, -1)  # sign h is row sum_j [h_j < 0] 2^(N-1-j)

    def sampler(g: np.random.Generator, count: int) -> np.ndarray:
        signs = random_sign_array(g, (count, 64))[:, : adv.N]
        DB = DallB[(signs < 0) @ place]
        Z = np.conj(DB)[:, :, None] * adv.Pi
        Z *= DB[:, None, :]
        Z -= mean
        return Z

    return sampler, 2.0 * B * B


def matrix_hoeffding_bench(
    sampler, norm_bound: float, K: int, samples: int, rng: RngStream
) -> TailReport:
    """Sums of K iid mean-zero Hermitian matrices with ||Z_k|| <= norm_bound.

    With C_k = norm_bound * Id, the variance proxy is sigma^2 = K norm_bound^2
    and Pr[||sum Z_k|| >= t] <= 2 D exp(-t^2 / (8 sigma^2)).  Block b takes its size * K
    draws as one sampler stack from rng.child(b), each matrix checked Hermitian.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sigma2 = K * norm_bound**2
    thresholds = [t * np.sqrt(sigma2) for t in HOEFFDING_THRESHOLDS]

    def run_block(b, size):
        Z = sampler(rng.child(b).generator(), size * K)
        if float(np.max(np.abs(Z - np.swapaxes(Z.conj(), -1, -2)))) > DERIVED_TOL:
            raise ValueError("sampler must produce Hermitian matrices")
        D = Z.shape[-1]
        return operator_norm(Z.reshape(size, K, D, D).sum(axis=1)), D

    blocks, dims = zip(*parallel_blocks(run_block, samples))
    norms, D = np.concatenate(blocks), dims[0]
    bounds = [2.0 * D * np.exp(-(t**2) / (8.0 * sigma2)) for t in thresholds]
    extras = {"sigma2": float(sigma2), "mean_norm": float(norms.mean())}
    return _tail_report("matrix-hoeffding", norms, thresholds, bounds, extras)


def complex_hoeffding_bench(weights, samples: int, rng: RngStream) -> TailReport:
    """|S| for S = sum a_i b_i with random signs b_i and unit total weight.

    Tail reference: Pr[|S| >= t] <= 2 exp(-t^2 / 2); also validates the
    second-moment identity E|S|^2 = sum |a_i|^2 = 1 within sampling error.
    """
    a = np.asarray(weights, dtype=np.complex128).ravel()
    total = float(np.sum(np.abs(a) ** 2))
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"squared magnitudes sum to {total}, expected 1")

    def run_block(b, size):
        return np.abs(random_sign_array(rng.child(b).generator(), (size, a.size)) @ a)

    mags = _sampled(run_block, samples)
    bounds = [2.0 * np.exp(-(t**2) / 2.0) for t in COMPLEX_THRESHOLDS]
    sq = mags**2
    se = float(sq.std(ddof=1) / np.sqrt(len(sq))) if len(sq) > 1 else 0.0
    extras = {
        "second_moment": float(sq.mean()),
        "second_moment_se": se,
        "mean_ok": abs(float(sq.mean()) - 1.0) <= 3.0 * se + 1e-12,
    }
    return _tail_report("complex-hoeffding", mags, COMPLEX_THRESHOLDS, bounds, extras)


def _over_families(values, K: int, N: int, samples: int, rng: RngStream) -> np.ndarray:
    """values(stack) over `samples` fresh K x N families, one generator and one stack per block."""
    if K < 1:
        raise ValueError("K must be >= 1")

    def run_block(b, size):
        return values(random_family(size * K, N, rng.child(b)).reshape(size, K, N))

    return _sampled(run_block, samples)


def width_tail_bench(V, K: int, samples: int, rng: RngStream) -> TailReport:
    """Width of fresh random families against 2 M exp(-c min(t^2, t) K).

    The constant in the theorem is existential; WIDTH_C_TEST stands in for it.
    Thresholds are the excesses t of WIDTH_THRESHOLDS, events {width >= 1 + t}.
    V is checked at entry, before any draw, and once more per block by its stacked `width` call.
    """
    M, N = check_isometry(V).shape
    widths = _over_families(lambda stack: width(V, stack), K, N, samples, rng)
    bounds = [2.0 * M * np.exp(-WIDTH_C_TEST * min(t * t, t) * K) for t in WIDTH_THRESHOLDS]
    extras = {"mean_width": float(widths.mean()), "c_test": WIDTH_C_TEST}
    return _tail_report("width-tail", widths - 1.0, WIDTH_THRESHOLDS, bounds, extras)


def advantage_tail_bench(
    adv: AdversarySpec, K: int, samples: int, rng: RngStream, mode: str = "fixed-f"
) -> TailReport:
    """Tail of the advantage over fresh random families, at ADVANTAGE_EPSILONS.

    fixed-f mode measures Pr[gap(R | f) >= eps] against 2 exp(-c eps^2 K N)
    at the all-ones oracle f (no-query regime: f is pinned in advance).  max-f
    mode brute-forces the maximum over oracle functions (M up to BRUTEFORCE_CUTOFF) and
    measures the tail of the excess over the sample mean against
    4 exp(-c eps^2 K N).  ADVANTAGE_C_TEST replaces the existential constant c.
    Each block of families is one stacked call in either mode.
    """
    N = adv.N
    if mode == "fixed-f":
        fv = np.ones(adv.M)
        value, scale = (lambda stack: advantage_given_f(adv, stack, fv)), 2.0
    elif mode == "max-f":
        check_bruteforce_size(adv.M)
        value, scale = (lambda stack: max_advantage_bruteforce(adv, stack)[0]), 4.0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    values = _over_families(value, K, N, samples, rng)
    tail = values if mode == "fixed-f" else values - values.mean()
    bounds = [scale * np.exp(-ADVANTAGE_C_TEST * e * e * K * N) for e in ADVANTAGE_EPSILONS]
    extras = {"mode": mode, "c_test": ADVANTAGE_C_TEST, "mean_advantage": float(values.mean())}
    return _tail_report(f"advantage-tail-{mode}", tail, ADVANTAGE_EPSILONS, bounds, extras)


def _rademacher(rng: RngStream, samples: int) -> list[TailReport]:
    g = rng.child(1000).generator()
    coeffs = [g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6)) for _ in range(8)]
    return [rademacher_series_bench(coeffs, samples, rng.child(0))]


def _hoeffding(rng: RngStream, samples: int) -> list[TailReport]:
    V = random_isometry(8, 16, rng.child(1001))
    Pi = random_projector(16, 8, rng.child(1002))
    sampler, bound = truncated_conjugation_sampler(V, Pi, B=2.0)
    return [matrix_hoeffding_bench(sampler, bound, K=8, samples=samples, rng=rng.child(1))]


def _complex(rng: RngStream, samples: int) -> list[TailReport]:
    weights = np.full(64, 1.0 / 8.0)
    return [complex_hoeffding_bench(weights, max(samples, 2000), rng.child(2))]


def _width(rng: RngStream, samples: int) -> list[TailReport]:
    V = random_isometry(16, 48, rng.child(1003))
    return [width_tail_bench(V, K=16, samples=samples, rng=rng.child(3))]


def _advantage(rng: RngStream, samples: int) -> list[TailReport]:
    adv = AdversarySpec(
        V=random_isometry(8, 10, rng.child(1004)),
        Pi=random_projector(10, 5, rng.child(1005)),
    )
    return [
        advantage_tail_bench(adv, K=16, samples=samples, rng=rng.child(4), mode="fixed-f"),
        advantage_tail_bench(adv, K=16, samples=samples, rng=rng.child(5), mode="max-f"),
    ]


# Bench name -> (root stream, samples) -> reports.  Each entry reads its own
# fixed children of the root stream, so a named bench run on its own gives the
# same reports as inside default_suite at the same seed and sample count.
BENCHES = {
    "rademacher": _rademacher,
    "hoeffding": _hoeffding,
    "complex": _complex,
    "width": _width,
    "advantage": _advantage,
}


def default_suite(seed: int = 2026, samples: int = 500) -> list[TailReport]:
    """The standard bench battery: every entry of BENCHES on one root stream."""
    rng = RngStream(seed)
    return [rep for bench in BENCHES.values() for rep in bench(rng, samples)]
