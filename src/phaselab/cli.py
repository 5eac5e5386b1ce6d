"""Experiment runner and serialization.

Instances (adversaries, function families) round-trip through a JSON format
with parallel real/imaginary flat arrays in row-major order; families are
flat +-1 integer arrays.  Every run emits one self-describing JSON record per
line: config echo, measured values, wall time, version, RNG fingerprint.
Identical configs byte-reproduce all measured values regardless of the
thread count in PHASELAB_THREADS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .attacks import hadamard_attack_report
from .bench import BENCHES, default_suite, width_tail_bench
from .compression import verify_one_query_simulation
from .game import (
    AdversarySpec,
    BRUTEFORCE_CUTOFF,
    max_advantage_bruteforce,
    max_advantage_localsearch,
    random_family,
    simulate_game,
)
from .numerics import CapacityError, RngStream, check_norm_budget, random_isometry, random_projector
from .relaxations import (
    decoupled_spectral_relaxation,
    spectral_relaxation,
    subset_norm_conjecture,
    truncated_spectral_relaxation,
)

__all__ = [
    "ExperimentConfig",
    "run",
    "save_instance",
    "load_instance",
    "main",
]

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    instance: str | None = None


def _flatten_complex(a: np.ndarray) -> tuple[list, list]:
    flat = np.asarray(a, dtype=np.complex128).ravel()
    return flat.real.tolist(), flat.imag.tolist()


def save_instance(obj, path: str) -> None:
    if isinstance(obj, AdversarySpec):
        v_re, v_im = _flatten_complex(obj.V)
        p_re, p_im = _flatten_complex(obj.Pi)
        doc = {
            "kind": "adversary",
            "N": obj.N,
            "M": obj.M,
            "V_re": v_re,
            "V_im": v_im,
            "Pi_re": p_re,
            "Pi_im": p_im,
        }
    else:
        arr = np.asarray(obj)
        if arr.ndim != 2:
            raise ValueError("can only save adversaries or K x N families")
        doc = {
            "kind": "family",
            "K": int(arr.shape[0]),
            "N": int(arr.shape[1]),
            "values": [int(v) for v in arr.ravel()],
        }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"instance file missing field {name!r}")
    return doc[name]


def load_instance(path: str):
    """Load an adversary or family; validates invariants with measured residuals."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = _field(doc, "kind")
    if kind == "adversary":
        N, M = int(_field(doc, "N")), int(_field(doc, "M"))
        V = (
            np.asarray(_field(doc, "V_re"), dtype=np.float64)
            + 1j * np.asarray(_field(doc, "V_im"), dtype=np.float64)
        ).reshape(M, N)
        Pi = (
            np.asarray(_field(doc, "Pi_re"), dtype=np.float64)
            + 1j * np.asarray(_field(doc, "Pi_im"), dtype=np.float64)
        ).reshape(M, M)
        return AdversarySpec(V=V, Pi=Pi)  # validation reports residuals
    if kind == "family":
        K, N = int(_field(doc, "K")), int(_field(doc, "N"))
        values = np.asarray(_field(doc, "values"), dtype=np.int64)
        if values.size != K * N:
            raise ValueError(f"field 'values' has {values.size} entries, wanted {K * N}")
        if not np.all(np.abs(values) == 1):
            raise ValueError("field 'values' must contain only +1 and -1")
        return values.reshape(K, N).astype(np.float64)
    raise ValueError(f"unknown instance kind {kind!r}")


def _random_adversary(N: int, M: int, rank: int, rng: RngStream) -> AdversarySpec:
    return AdversarySpec(
        V=random_isometry(N, M, rng.child(0)),
        Pi=random_projector(M, rank, rng.child(1)),
    )


def _report_dict(rep) -> dict:
    return {
        "bound": rep.bound_name,
        "thresholds": list(rep.thresholds),
        "empirical": list(rep.empirical),
        "reference": list(rep.bounds),
        "samples": rep.samples,
        "passed": rep.passed,
        "extras": {k: v for k, v in rep.extras.items()},
    }


def run(config: ExperimentConfig) -> dict:
    """Dispatch a config to the right module and return the result record."""
    rng = RngStream(config.seed)
    p = config.params
    start = time.perf_counter()
    values: dict

    if config.kind == "game":
        if config.instance:
            adv = load_instance(config.instance)
            if not isinstance(adv, AdversarySpec):
                raise ValueError("game --instance must be an adversary file")
            check_norm_budget((adv.M, adv.M))
        else:
            check_norm_budget((p["M"], p["M"]))  # every route builds M x M matrices
            adv = _random_adversary(p["N"], p["M"], p["rank"], rng.child(0))
        R = random_family(p["K"], adv.N, rng.child(1))
        if adv.M <= BRUTEFORCE_CUTOFF and not p.get("localsearch"):
            best, f = max_advantage_bruteforce(adv, R)
            method, bound = "bruteforce", "exact"
        else:
            best, f = max_advantage_localsearch(
                adv, R, restarts=p.get("restarts", 20), rng=rng.child(2)
            )
            method, bound = "localsearch", "lower"
        win = simulate_game(adv, R, f, p["trials"], rng.child(3))
        values = {"max_advantage": best, "method": method, "bound": bound, "win_rate": win}
    elif config.kind == "attack-hadamard":
        rep = hadamard_attack_report(
            p["n"], p["K"], p.get("draws", 200), p["trials"], rng
        )
        values = {
            "exact_advantage_mean": rep.exact_advantage,
            "monte_carlo_advantage": rep.monte_carlo_advantage,
            "x_statistic_mean": rep.x_statistic_mean,
            "x_statistic_variance": rep.x_statistic_variance,
        }
    elif config.kind == "relaxation":
        check_norm_budget((p["M"], p["M"]))  # every relaxation is the norm of an M x M matrix
        adv = _random_adversary(p["N"], p["M"], p["rank"], rng.child(0))
        R = random_family(p["K"], adv.N, rng.child(1))
        Rp = random_family(p["K"], adv.N, rng.child(2))
        values = {
            "spectral": spectral_relaxation(adv, R),
            "decoupled_spectral": decoupled_spectral_relaxation(adv, R, Rp),
        }
        if p.get("B") is not None:
            val, err = truncated_spectral_relaxation(
                adv, R, p["B"], samples=p.get("samples", 10_000), rng=rng.child(3)
            )
            values["truncated_spectral"] = val
            values["truncated_spectral_error"] = err
    elif config.kind == "width":
        V = random_isometry(p["N"], p["M"], rng.child(0))
        rep = width_tail_bench(V, p["K"], p.get("samples", 200), rng.child(1))
        values = _report_dict(rep)
    elif config.kind.startswith("bench"):
        name = p.get("name", "all")
        samples = p.get("samples", 500)
        if name == "all":
            reports = default_suite(seed=config.seed, samples=samples)
        elif name in BENCHES:
            reports = BENCHES[name](rng, samples)
        else:
            raise ValueError(f"unknown bench name {name!r}")
        values = {
            "reports": [_report_dict(r) for r in reports],
            "all_passed": all(r.passed for r in reports),
        }
    elif config.kind == "conjecture":
        N, P, L, K = p["N"], p.get("P", 2), p["L"], p["K"]
        dim = N * P
        if L < 1 or dim % L != 0:
            raise ValueError(f"projector count {L} must be a positive divisor of dimension {dim}")
        U = random_isometry(dim, dim, rng.child(0))
        block = dim // L
        projectors = [
            U[:, i * block : (i + 1) * block] @ U[:, i * block : (i + 1) * block].conj().T
            for i in range(L)
        ]
        g = rng.child(1).generator()
        states = []
        for _ in range(K):
            s = g.standard_normal(N) + 1j * g.standard_normal(N)
            states.append(s / np.linalg.norm(s))
        val, witness = subset_norm_conjecture(
            projectors,
            states,
            mode=p.get("mode", "brute"),
            restarts=p.get("restarts", 32),
            rng=rng.child(2),
        )
        values = {"value": val, "witness": list(witness)}
    elif config.kind == "compression-verify":
        D, L, S = p["D"], p["L"], p["S"]
        adv = _random_adversary(D, L * S, p.get("rank", (L * S) // 2), rng)
        dev = verify_one_query_simulation(adv, L, p.get("trials", 50), rng.child(2))
        values = {"max_deviation": dev, "passed": dev <= 1e-8}
    else:
        raise ValueError(f"unknown experiment kind {config.kind!r}")

    record = {
        "kind": config.kind,
        "config": {"params": p, "seed": config.seed, "instance": config.instance},
        "values": values,
        "wall_time_s": time.perf_counter() - start,
        "version": __version__,
        "rng_fingerprint": rng.fingerprint(),
    }
    if config.out:
        with open(config.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return record


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-state distinguishing game laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("game", help="play/maximize the distinguishing game")
    _add_common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--M", type=int, default=10)
    sp.add_argument("--K", type=int, default=4)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--restarts", type=int, default=20)
    sp.add_argument("--localsearch", action="store_true")
    sp.add_argument("--instance", type=str, default=None)

    sp = sub.add_parser("attack", help="Hadamard measure-and-classify attack")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--K", type=int, default=16)
    sp.add_argument("--draws", type=int, default=200)
    sp.add_argument("--trials", type=int, default=10_000)

    sp = sub.add_parser("relax", help="spectral relaxations of the advantage")
    _add_common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--M", type=int, default=16)
    sp.add_argument("--K", type=int, default=8)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--B", type=float, default=None)
    sp.add_argument("--samples", type=int, default=10_000)

    sp = sub.add_parser("width", help="width statistics of random families")
    _add_common(sp)
    sp.add_argument("--N", type=int, default=32)
    sp.add_argument("--M", type=int, default=128)
    sp.add_argument("--K", type=int, default=64)
    sp.add_argument("--samples", type=int, default=200)

    sp = sub.add_parser("bench", help="concentration-inequality validators")
    _add_common(sp)
    sp.add_argument(
        "--name",
        choices=["all", *BENCHES],
        default="all",
    )
    sp.add_argument("--samples", type=int, default=500)

    sp = sub.add_parser("conjecture", help="subset-norm conjecture explorer")
    _add_common(sp)
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--P", type=int, default=2)
    sp.add_argument("--L", type=int, default=8)
    sp.add_argument("--K", type=int, default=4)
    sp.add_argument("--mode", choices=["brute", "greedy"], default="brute")
    sp.add_argument("--restarts", type=int, default=32)

    sp = sub.add_parser("compress", help="verify one-query space reduction")
    _add_common(sp)
    sp.add_argument("--D", type=int, default=4)
    sp.add_argument("--L", type=int, default=8)
    sp.add_argument("--S", type=int, default=4)
    sp.add_argument("--trials", type=int, default=50)
    return ap


_KIND_BY_COMMAND = {
    "game": "game",
    "attack": "attack-hadamard",
    "relax": "relaxation",
    "width": "width",
    "bench": "bench",
    "conjecture": "conjecture",
    "compress": "compression-verify",
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "seed", "out", "instance") and v is not None
    }
    if args.command in ("game", "relax") and params.get("rank") is None:
        params["rank"] = max(1, params["M"] // 2)
    config = ExperimentConfig(
        kind=_KIND_BY_COMMAND[args.command],
        params=params,
        seed=args.seed,
        out=args.out,
        instance=getattr(args, "instance", None),
    )
    try:
        record = run(config)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
