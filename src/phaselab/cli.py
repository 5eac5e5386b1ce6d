"""Experiment runner and serialization.

Instances (adversaries, function families) round-trip through a JSON format
with parallel real/imaginary flat arrays in row-major order; families are
flat +-1 integer arrays.  Every run emits one self-describing JSON record per
line: config echo, measured values, wall time, version, RNG fingerprint and
environment (Python, numpy and its BLAS, PHASELAB_THREADS and the BLAS thread
variables, CPU count).
Identical configs byte-reproduce all measured values regardless of the
thread count in PHASELAB_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .attacks import hadamard_attack_report
from .bench import BENCHES, width_tail_bench
from .compression import verify_one_query_simulation
from .game import (
    AdversarySpec,
    BRUTEFORCE_CUTOFF,
    max_advantage_bruteforce,
    max_advantage_localsearch,
    random_family,
    simulate_game,
)
from .numerics import DERIVED_TOL, THREADS_ENV, CapacityError, RngStream, check_norm_budget
from .numerics import random_isometry
from .relaxations import (
    decoupled_spectral_relaxation,
    spectral_relaxation,
    subset_norm_conjecture,
    truncated_spectral_relaxation,
)

__all__ = [
    "COMMANDS",
    "Command",
    "ExperimentConfig",
    "run",
    "save_instance",
    "load_instance",
    "main",
]

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

_SIZE_PARAMS = ("N", "M", "K", "n", "D", "L", "S", "P", "samples", "draws")  # each must be >= 1


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    instance: str | None = None


def _flatten_complex(name: str, a: np.ndarray) -> dict:
    flat = np.asarray(a, dtype=np.complex128).ravel()
    return {f"{name}_re": flat.real.tolist(), f"{name}_im": flat.imag.tolist()}


def save_instance(obj, path: str) -> None:
    if isinstance(obj, AdversarySpec):
        doc = {
            "kind": "adversary",
            "N": obj.N,
            "M": obj.M,
            **_flatten_complex("V", obj.V),
            **_flatten_complex("Pi", obj.Pi),
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


def _complex_field(doc: dict, name: str, shape: tuple) -> np.ndarray:
    re, im = (np.asarray(_field(doc, name + part), dtype=np.float64) for part in ("_re", "_im"))
    return (re + 1j * im).reshape(shape)


def _read_json(path: str) -> dict:
    """The JSON object in a file; ValueError for an unreadable file or any other document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read instance file {path!r}: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"instance file {path!r} does not hold a JSON object")
    return doc


def load_instance(path: str):
    """Load an adversary or family; validates invariants with measured residuals."""
    return _instance(_read_json(path))


def _instance(doc: dict):
    kind = _field(doc, "kind")
    if kind == "adversary":
        N, M = int(_field(doc, "N")), int(_field(doc, "M"))
        V, Pi = _complex_field(doc, "V", (M, N)), _complex_field(doc, "Pi", (M, M))
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
    """V and Pi drawn as random_isometry and random_projector draw them, Pi held by its factor."""
    V = random_isometry(N, M, rng.child(0))
    if not 0 <= rank <= M:
        raise ValueError(f"rank must lie in [0, {M}], got {rank}")
    W = random_isometry(rank, M, rng.child(1)) if rank else np.zeros((M, 0), dtype=np.complex128)
    return AdversarySpec.from_factor(V, W)


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


def _game(p: dict, rng: RngStream, instance: dict | None) -> dict:
    if instance:
        adv = _instance(instance)
    else:
        adv = _random_adversary(p["N"], p["M"], p["rank"], rng.child(0))
    R = random_family(p["K"], adv.N, rng.child(1))
    if adv.M <= BRUTEFORCE_CUTOFF and not p["localsearch"]:
        best, f = max_advantage_bruteforce(adv, R)
        method, bound = "bruteforce", "exact"
    else:
        best, f = max_advantage_localsearch(adv, R, restarts=p["restarts"], rng=rng.child(2))
        method, bound = "localsearch", "lower"
    win = simulate_game(adv, R, f, p["trials"], rng.child(3))
    return {"max_advantage": best, "method": method, "bound": bound, "win_rate": win}


def _attack(p: dict, rng: RngStream, instance: dict | None) -> dict:
    rep = hadamard_attack_report(p["n"], p["K"], p["draws"], p["trials"], rng)
    return {
        "exact_advantage_mean": rep.exact_advantage,
        "monte_carlo_advantage": rep.monte_carlo_advantage,
        "x_statistic_mean": rep.x_statistic_mean,
        "x_statistic_variance": rep.x_statistic_variance,
    }


def _relax(p: dict, rng: RngStream, instance: dict | None) -> dict:
    adv = _random_adversary(p["N"], p["M"], p["rank"], rng.child(0))
    R = random_family(p["K"], adv.N, rng.child(1))
    Rp = random_family(p["K"], adv.N, rng.child(2))
    values = {
        "spectral": spectral_relaxation(adv, R),
        "decoupled_spectral": decoupled_spectral_relaxation(adv, R, Rp),
    }
    if p.get("B") is not None:
        val, err = truncated_spectral_relaxation(
            adv, R, p["B"], samples=p["samples"], rng=rng.child(3)
        )
        values["truncated_spectral"] = val
        values["truncated_spectral_error"] = err
    return values


def _width(p: dict, rng: RngStream, instance: dict | None) -> dict:
    V = random_isometry(p["N"], p["M"], rng.child(0))
    return _report_dict(width_tail_bench(V, p["K"], p["samples"], rng.child(1)))


def _bench(p: dict, rng: RngStream, instance: dict | None) -> dict:
    if p["name"] not in ("all", *BENCHES):
        raise ValueError(f"unknown bench name {p['name']!r}")
    names = BENCHES if p["name"] == "all" else [p["name"]]  # "all" runs default_suite
    reports = [rep for name in names for rep in BENCHES[name](rng, p["samples"])]
    return {
        "reports": [_report_dict(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def _conjecture(p: dict, rng: RngStream, instance: dict | None) -> dict:
    N, L, K = p["N"], p["L"], p["K"]
    dim = N * p["P"]
    if L < 1 or dim % L != 0:
        raise ValueError(f"projector count {L} must be a positive divisor of dimension {dim}")
    U = random_isometry(dim, dim, rng.child(0))
    projectors = [u @ u.conj().T for u in np.split(U, L, axis=1)]
    g = rng.child(1).generator()
    states = [g.standard_normal(N) + 1j * g.standard_normal(N) for _ in range(K)]
    states = [s / np.linalg.norm(s) for s in states]
    val, witness = subset_norm_conjecture(
        projectors, states, mode=p["mode"], restarts=p["restarts"], rng=rng.child(2)
    )
    return {"value": val, "witness": list(witness)}


def _compress(p: dict, rng: RngStream, instance: dict | None) -> dict:
    V = random_isometry(p["D"], p["L"] * p["S"], rng.child(0))
    dev = verify_one_query_simulation(V, p["L"], p["trials"], rng.child(2))
    return {"max_deviation": dev, "passed": dev <= DERIVED_TOL}


@dataclass(frozen=True)
class Command:
    """One subcommand: record kind, help, flags, size budget and runner.

    A flag is stated by its default: an int, float or str default sets the type,
    False makes a switch, a tuple lists the choices (default first), and a bare
    type makes an optional flag.  ``budget`` maps the params to the shape of the
    largest dense matrix the run builds, refused over the operator-norm budget
    before any draw; ``runner`` maps (params, root stream, instance document) to values.
    """

    kind: str
    help: str
    flags: dict
    budget: Callable[[dict], tuple] | None
    runner: Callable[[dict, RngStream, dict | None], dict]


COMMANDS = {
    "game": Command(
        "game", "play/maximize the distinguishing game",
        {"N": 8, "M": 10, "K": 4, "rank": int, "trials": 10_000, "restarts": 20,
         "localsearch": False, "instance": str},
        lambda p: (p["M"], p["M"]), _game,
    ),
    "attack": Command(
        "attack-hadamard", "Hadamard measure-and-classify attack",
        {"n": 8, "K": 16, "draws": 200, "trials": 10_000},
        None, _attack,  # hadamard_attack_report checks its draws * K * 2^n signs and game encoding
    ),
    "relax": Command(
        "relaxation", "spectral relaxations of the advantage",
        {"N": 8, "M": 16, "K": 8, "rank": int, "B": float, "samples": 10_000},
        lambda p: (p["M"], p["M"]), _relax,
    ),
    "width": Command(
        "width", "width statistics of random families",
        {"N": 32, "M": 128, "K": 64, "samples": 200},
        lambda p: (p["M"], p["N"]), _width,
    ),
    "bench": Command(
        "bench", "concentration-inequality validators",
        {"name": ("all", *BENCHES), "samples": 500},
        None, _bench,  # the benches' sizes are fixed in phaselab.bench
    ),
    "conjecture": Command(
        "conjecture", "subset-norm conjecture explorer",
        {"N": 4, "P": 2, "L": 8, "K": 4, "mode": ("brute", "greedy"), "restarts": 32},
        lambda p: (p["N"] * p["P"],) * 2, _conjecture,
    ),
    "compress": Command(
        "compression-verify", "verify one-query space reduction",
        {"D": 4, "L": 8, "S": 4, "trials": 50},
        lambda p: (p["L"] * max(p["S"], p["D"]), p["D"]), _compress,
    ),
}


def _argument(spec) -> dict:
    """argparse keywords for a flag stated by its default (see Command)."""
    if isinstance(spec, bool):
        return {"action": "store_true", "default": spec}
    if isinstance(spec, type):
        return {"type": spec, "default": None}
    if isinstance(spec, tuple):
        return {"choices": list(spec), "default": spec[0]}
    return {"type": type(spec), "default": spec}


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        **{v: os.environ.get(v) for v in (THREADS_ENV, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def run(config: ExperimentConfig) -> dict:
    """Run a config through its COMMANDS entry and return the result record.

    Params the config leaves out take the entry's defaults, and a missing rank
    is max(1, M // 2).  An instance file sets N and M to the sizes it declares,
    and rank goes unused.  Before anything is drawn or the file's matrices are
    validated, a run over the budget is refused, then a size param below 1.  The
    record echoes the params the run used.
    """
    cmd = next((c for c in COMMANDS.values() if c.kind == config.kind), None)
    if cmd is None:
        raise ValueError(f"unknown experiment kind {config.kind!r}")
    defaults = {name: _argument(spec)["default"] for name, spec in cmd.flags.items()}
    p = {k: v for k, v in defaults.items() if v is not None} | config.params
    rng = RngStream(config.seed)
    start = time.perf_counter()
    instance = None
    if config.instance:
        if "instance" not in cmd.flags:
            raise ValueError(f"{config.kind} takes no instance")
        instance = _read_json(config.instance)
        if _field(instance, "kind") != "adversary":
            raise ValueError("--instance must be an adversary file")
        sizes = {name: int(_field(instance, name)) for name in ("N", "M")}
        p = {k: v for k, v in p.items() if k != "rank"} | sizes
    elif "rank" in cmd.flags and p.get("rank") is None:
        p["rank"] = max(1, p["M"] // 2)
    if cmd.budget:
        check_norm_budget(cmd.budget(p))
    small = [name for name in _SIZE_PARAMS if name in p and p[name] < 1]
    if small:
        raise ValueError(f"--{small[0]} must be >= 1")
    record = {
        "kind": config.kind,
        "config": {"params": p, "seed": config.seed, "instance": config.instance},
        "values": cmd.runner(p, rng, instance),
        "wall_time_s": time.perf_counter() - start,
        "version": __version__,
        "rng_fingerprint": rng.fingerprint(),
        "env": _environment(),
    }
    if config.out:
        with open(config.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return record


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-state distinguishing game laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for flag, spec in {"seed": 0, "out": str, **cmd.flags}.items():
            sp.add_argument(f"--{flag}", **_argument(spec))
    return ap


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, seed, out = args.pop("command"), args.pop("seed"), args.pop("out")
    instance = args.pop("instance", None)
    config = ExperimentConfig(
        kind=COMMANDS[command].kind,
        params={k: v for k, v in args.items() if v is not None},
        seed=seed,
        out=out,
        instance=instance,
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
