"""The three workloads: inputs generated from a seed, and their fixed operation lists.

Each operation is one experiment made of the public phaselab calls that
``phaselab.cli.run`` makes for the matching subcommand.  The benchmark draws
every isometry, projector, sign family and state itself, from
``numpy.random.default_rng([seed, tag, ...])``, so phaselab's own random
streams can change without changing the inputs.  Where a phaselab call needs
an ``RngStream`` (local-search restarts, game trials, bench samples), its seed
is drawn from the same generator.

Run ``python3 perfbench/run.py --help`` for the command; README.md explains
the make-up of each list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

import refs

WORKLOADS = ("exact-search", "monte-carlo", "spectral")
_TAG = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    x: dict


def isometry(g, n_in, n_out):
    z = g.standard_normal((n_out, n_in)) + 1j * g.standard_normal((n_out, n_in))
    return np.linalg.qr(z)[0]


def projector(g, dim, rank):
    w = isometry(g, rank, dim)
    return w @ w.conj().T


def family(g, K, N):
    return 1.0 - 2.0 * g.integers(0, 2, size=(K, N))


def unit_states(g, K, N):
    s = g.standard_normal((K, N)) + 1j * g.standard_normal((K, N))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def _stream(g):
    return int(g.integers(1 << 31))


def _adversary(g, N, M, K):
    return {
        "V": isometry(g, N, M),
        "Pi": projector(g, M, M // 2),
        "R": family(g, K, N),
        "stream": _stream(g),
    }


# --- operations --------------------------------------------------------------


def op_game(pl, x):
    """phaselab game: exact search up to the cutoff, local search above it."""
    adv = pl.AdversarySpec(V=x["V"], Pi=x["Pi"])
    rng = pl.RngStream(x["stream"])
    if adv.M <= pl.BRUTEFORCE_CUTOFF:
        best, f = pl.max_advantage_bruteforce(adv, x["R"])
    else:
        best, f = pl.max_advantage_localsearch(
            adv, x["R"], restarts=x["restarts"], rng=rng.child(2)
        )
    win = pl.simulate_game(adv, x["R"], f, x["trials"], rng.child(3))
    return {"value": best, "f": f, "win": win}


def op_decoupled(pl, x):
    """Exact decoupled search over oracle functions, as demos/04 runs it."""
    adv = pl.AdversarySpec(V=x["V"], Pi=x["Pi"])
    best, f = pl.max_decoupled_bruteforce(adv, x["R"], x["Rp"])
    return {"value": best, "f": f}


def op_conjecture(pl, x):
    """phaselab conjecture --mode brute."""
    value, witness = pl.subset_norm_conjecture(x["projectors"], list(x["states"]), mode="brute")
    return {"value": value, "witness": witness}


def op_attack(pl, x):
    """phaselab attack."""
    rep = pl.hadamard_attack_report(
        x["n"], x["K"], x["draws"], x["trials"], pl.RngStream(x["stream"])
    )
    return {"report": rep}


def op_suite(pl, x):
    """phaselab bench --name all."""
    return {"reports": pl.default_suite(seed=x["stream"], samples=x["samples"])}


def op_width(pl, x):
    """phaselab width."""
    rep = pl.width_tail_bench(x["V"], x["K"], x["samples"], pl.RngStream(x["stream"]))
    return {"report": rep}


def op_compress(pl, x):
    """phaselab compress."""
    adv = pl.AdversarySpec(V=x["V"], Pi=x["Pi"])
    dev = pl.verify_one_query_simulation(adv, x["L"], x["trials"], pl.RngStream(x["stream"]))
    return {"deviation": dev}


def op_relax(pl, x):
    """phaselab relax, with the truncated relaxation when B is given."""
    adv = pl.AdversarySpec(V=x["V"], Pi=x["Pi"])
    out = {
        "spectral": pl.spectral_relaxation(adv, x["R"]),
        "decoupled": pl.decoupled_spectral_relaxation(adv, x["R"], x["Rp"]),
    }
    if x["B"] is not None:
        out["truncated"] = pl.truncated_spectral_relaxation(
            adv, x["R"], x["B"], samples=x["samples"], rng=pl.RngStream(x["stream"]).child(3)
        )
    return out


RUN = {
    "game": op_game,
    "decoupled": op_decoupled,
    "conjecture": op_conjecture,
    "attack": op_attack,
    "suite": op_suite,
    "width": op_width,
    "compress": op_compress,
    "relax": op_relax,
}


# --- inputs ------------------------------------------------------------------


def _game(g, N, M, K, trials, restarts=None):
    x = _adversary(g, N, M, K)
    x.update(trials=trials, restarts=restarts)
    return x


def _decoupled(g, N, M, K):
    x = _adversary(g, N, M, K)
    x["Rp"] = family(g, K, N)
    return x


def _conjecture(g, N, P, L, K):
    U = isometry(g, N * P, N * P)
    b = N * P // L
    return {
        "projectors": [U[:, i * b : (i + 1) * b] @ U[:, i * b : (i + 1) * b].conj().T for i in range(L)],
        "states": unit_states(g, K, N),
    }


def _compress(g, D, L, S, trials):
    return {
        "V": isometry(g, D, L * S),
        "Pi": projector(g, L * S, L * S // 2),
        "L": L,
        "trials": trials,
        "stream": _stream(g),
    }


# Relative gaps 1 - s2/s1 between the two largest singular values of the
# plain (A) and decoupled (C) relaxation matrices at N=256, M=1024, K=64.
# phaselab's operator_norm runs power iteration above dimension 512, whose
# cost grows like 1/gap: across random families one norm took 0.1 s or 2.5 s.
# Drawing families until both gaps fall inside a band (or taking the closest
# of _MAX_DRAWS) puts the same mix of fast and slow instances on every seed.
FAST = {"A": (0.095, 0.115), "C": (0.037, 0.043)}
SLOW = {"A": (0.013, 0.015), "C": (0.008, 0.010)}
_MAX_DRAWS = 80
_LANCZOS_STEPS = 64


def top_gap(A, hermitian):
    """Relative gap between the two largest singular values, by Lanczos.

    _LANCZOS_STEPS steps with full reorthogonalisation on A (Hermitian) or on
    A^H A, from a fixed start vector, then Rayleigh-Ritz.  At dimension 1024
    the gap agrees with a dense solve to about 1e-10, for a tenth of its cost.
    """
    op = (lambda v: A @ v) if hermitian else (lambda v: A.conj().T @ (A @ v))
    n = A.shape[0]
    Q = np.zeros((n, _LANCZOS_STEPS), dtype=np.complex128)
    AQ = np.zeros_like(Q)
    q = np.full(n, n**-0.5, dtype=np.complex128)
    for j in range(_LANCZOS_STEPS):
        Q[:, j] = q
        AQ[:, j] = w = op(q)
        for _ in range(2):
            w = w - Q[:, : j + 1] @ (Q[:, : j + 1].conj().T @ w)
        q = w / np.linalg.norm(w)
    s = np.sort(np.abs(np.linalg.eigvalsh(Q.conj().T @ AQ)))[::-1]
    if not hermitian:
        s = np.sqrt(s)
    return float(1.0 - s[1] / s[0])


def _draw_in_band(g, K, N, band, gap_of, what):
    """The first family whose gap falls in band, or the closest of _MAX_DRAWS."""
    lo, hi = band
    best = None
    for _ in range(_MAX_DRAWS):
        R = family(g, K, N)
        gap = gap_of(R)
        miss = max(lo - gap, gap - hi, 0.0)
        if best is None or miss < best[0]:
            best = (miss, R, gap)
        if miss == 0.0:
            break
    if best[0] > 0.0:
        print(f"{what}: no draw of {_MAX_DRAWS} has a gap in {band}; taking gap {best[2]:.4f}", file=sys.stderr)
    return best[1], best[2]


def _relax(g, N, M, K, bands=None, B=None, samples=None):
    """A relax instance; with bands, R and then Rp are redrawn until their gaps fall inside."""
    x = _adversary(g, N, M, K)
    x["Rp"] = family(g, K, N)
    if bands:
        V, Pi = x["V"], x["Pi"]
        haar = refs.haar_term(V, Pi)

        def plain_gap(R):
            D = refs.rescaling(V, R)
            return top_gap(Pi * (D.conj().T @ D) / K - haar, True)

        x["R"], x["gap"] = _draw_in_band(g, K, N, bands["A"], plain_gap, "plain relaxation matrix")
        D = refs.rescaling(V, x["R"])
        x["Rp"], x["decoupled_gap"] = _draw_in_band(
            g,
            K,
            N,
            bands["C"],
            lambda Rp: top_gap(Pi * (D.conj().T @ refs.rescaling(V, Rp)) / K, False),
            "decoupled relaxation matrix",
        )
    x.update(B=B, samples=samples)
    return x


def build(workload: str, seed: int, warmup: bool) -> list[Op]:
    """The workload's fixed operation list, or its warm-up list on small inputs.

    The warm-up list holds one operation of each kind on a small input; it
    pays BLAS start-up and first-call allocation before timing starts.
    """
    g = np.random.default_rng([seed, _TAG[workload], int(warmup)])
    if workload == "exact-search":
        if warmup:
            return [
                Op("game", "game M=10", _game(g, 8, 10, 4, trials=200)),
                Op("decoupled", "decoupled M=10", _decoupled(g, 8, 10, 4)),
                Op("conjecture", "conjecture L=4", _conjecture(g, 4, 2, 4, 4)),
            ]
        return [
            Op("game", "game N=16 M=18", _game(g, 16, 18, 8, trials=2000)),
            Op("game", "game N=16 M=20", _game(g, 16, 20, 8, trials=2000)),
            Op("game", "game N=16 M=22", _game(g, 16, 22, 8, trials=2000)),
            Op("decoupled", "decoupled N=16 M=18", _decoupled(g, 16, 18, 8)),
            Op("decoupled", "decoupled N=16 M=20", _decoupled(g, 16, 20, 8)),
            Op("conjecture", "conjecture N=6 P=2 L=12", _conjecture(g, 6, 2, 12, 4)),
            Op("conjecture", "conjecture N=4 P=3 L=12", _conjecture(g, 4, 3, 12, 4)),
        ]
    if workload == "monte-carlo":
        if warmup:
            return [
                Op("game", "game local search M=32", _game(g, 16, 32, 8, trials=1000, restarts=2)),
                Op("attack", "attack n=4", {"n": 4, "K": 4, "draws": 4, "trials": 1000, "stream": _stream(g)}),
                Op("suite", "bench all", {"samples": 100, "stream": _stream(g)}),
                Op("width", "width M=16", {"V": isometry(g, 8, 16), "K": 8, "samples": 16, "stream": _stream(g)}),
                Op("compress", "compress D=4", _compress(g, 4, 4, 4, trials=20)),
            ]
        return [
            Op("game", "game local search N=256 M=512", _game(g, 256, 512, 64, trials=100_000, restarts=20)),
            Op("attack", "attack n=8", {"n": 8, "K": 16, "draws": 200, "trials": 100_000, "stream": _stream(g)}),
            Op("suite", "bench all", {"samples": 500, "stream": _stream(g)}),
            Op("width", "width N=32 M=128", {"V": isometry(g, 32, 128), "K": 64, "samples": 200, "stream": _stream(g)}),
            Op("compress", "compress D=16 L=16 S=16", _compress(g, 16, 16, 16, trials=3000)),
        ]
    if workload == "spectral":
        if warmup:
            return [
                Op("relax", "relax M=64", _relax(g, 16, 64, 8)),
                Op("relax", "relax M=64 B=2", _relax(g, 16, 64, 8, B=2.0, samples=200)),
            ]
        return [
            Op("relax", "relax N=128 M=512", _relax(g, 128, 512, 64)),
            Op("relax", "relax N=128 M=512 B=2", _relax(g, 128, 512, 64, B=2.0, samples=2000)),
            Op("relax", "relax N=256 M=1024 fast", _relax(g, 256, 1024, 64, bands=FAST)),
            Op("relax", "relax N=256 M=1024 slow", _relax(g, 256, 1024, 64, bands=SLOW)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
