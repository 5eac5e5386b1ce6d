"""Each check accepts phaselab's output and rejects a deliberately perturbed one.

    python3 -m pytest -q perfbench

The inputs are the workloads' own generators at small sizes.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import phaselab as pl  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402


def _g():
    return np.random.default_rng(12345)


CASES = {
    "game exact": ("game", lambda: w._game(_g(), 8, 10, 4, trials=4000)),
    "game local search": ("game", lambda: w._game(_g(), 8, 32, 4, trials=4000, restarts=3)),
    "decoupled": ("decoupled", lambda: w._decoupled(_g(), 8, 10, 4)),
    "conjecture": ("conjecture", lambda: w._conjecture(_g(), 4, 2, 4, 4)),
    "relax": ("relax", lambda: w._relax(_g(), 16, 64, 8, B=2.0, samples=2000)),
    "attack": ("attack", lambda: {"n": 4, "K": 4, "draws": 50, "trials": 4000, "stream": 5}),
    "suite": ("suite", lambda: {"samples": 100, "stream": 5}),
    "width": ("width", lambda: {"V": w.isometry(_g(), 8, 16), "K": 8, "samples": 32, "stream": 5}),
    "compress": ("compress", lambda: w._compress(_g(), 4, 4, 4, trials=20)),
}


def _flip(f, i=0):
    f = np.array(f, dtype=np.float64)
    f[i] = -f[i]
    return f


def _report(rep, **changes):
    return dataclasses.replace(rep, **changes)


# Perturbations of one output; each must make its check fail.
PERTURB = {
    "game": [
        lambda o: dict(o, value=o["value"] + 1e-6),
        lambda o: dict(o, f=_flip(o["f"], 1)),
        lambda o: dict(o, win=o["win"] + 0.1),
    ],
    "decoupled": [
        lambda o: dict(o, value=o["value"] * (1 - 1e-6)),
        lambda o: dict(o, f=_flip(o["f"], 2)),
    ],
    "conjecture": [
        lambda o: dict(o, value=o["value"] * (1 + 1e-6)),
        lambda o: dict(o, witness=(0,) if tuple(o["witness"]) != (0,) else (1,)),
    ],
    "relax": [
        lambda o: dict(o, spectral=o["spectral"] * (1 - 1e-6)),
        lambda o: dict(o, decoupled=o["decoupled"] * (1 + 1e-6)),
        lambda o: dict(o, truncated=(o["truncated"][0] * 1.5, o["truncated"][1])),
        lambda o: dict(o, truncated=(o["truncated"][0], 0.0)),
    ],
    "attack": [
        lambda o: {"report": _report(o["report"], exact_advantage=o["report"].exact_advantage * 1.5)},
        lambda o: {"report": _report(o["report"], monte_carlo_advantage=o["report"].monte_carlo_advantage + 0.5)},
        lambda o: {"report": _report(o["report"], x_statistic_mean=3.0)},
        lambda o: {"report": _report(o["report"], x_statistic_variance=o["report"].x_statistic_variance * 4)},
    ],
    "suite": [
        lambda o: {"reports": [_report(o["reports"][0], passed=False)] + o["reports"][1:]},
        lambda o: {"reports": o["reports"][:-1]},
        lambda o: {
            "reports": [_report(o["reports"][2], empirical=(1.0,) * len(o["reports"][2].empirical))]
            + o["reports"][:2]
            + o["reports"][3:]
        },
    ],
    "width": [
        lambda o: {"report": _report(o["report"], passed=False)},
        lambda o: {"report": _report(o["report"], bounds=tuple(b / 2 for b in o["report"].bounds))},
    ],
    "compress": [
        lambda o: dict(o, deviation=1e-6),
    ],
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    kind, make = CASES[request.param]
    x = make()
    return kind, x, w.RUN[kind](pl, x)


def test_check_accepts_phaselab_output(case):
    kind, x, out = case
    assert checks.CHECKS[kind](pl, x, out) == []


def test_check_rejects_each_perturbation(case):
    kind, x, out = case
    for i, perturb in enumerate(PERTURB[kind]):
        assert checks.CHECKS[kind](pl, x, perturb(out)), f"{kind}: perturbation {i} passed"


def test_tracer_wraps_every_binding_and_restores_them():
    import phaselab.bench
    import phaselab.relaxations

    originals = (phaselab.relaxations.operator_norm, phaselab.bench.operator_norm, pl.AdversarySpec.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        x = w._relax(_g(), 16, 64, 8)
        w.RUN["relax"](pl, x)
        pl.default_suite(seed=1, samples=100)
    finally:
        tracer.uninstall()
    assert (phaselab.relaxations.operator_norm, phaselab.bench.operator_norm, pl.AdversarySpec.__post_init__) == originals
    assert tracer.missing(["numerics.operator_norm", "game.AdversarySpec", "bench.width_tail_bench"]) == []
    assert tracer.missing(["attacks.fwht"]) == ["attacks.fwht"]
    # Self times never exceed the spans' own lengths, and every parent is an earlier span.
    for i, (name_id, start, end, parent) in enumerate(tracer.spans):
        assert start <= end and parent < i
    assert sum(tracer.self_s.values()) <= sum(e - s for _, s, e, p in tracer.spans if p == -1) + 1e-9
