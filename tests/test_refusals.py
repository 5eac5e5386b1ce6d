"""Every input refusal of the public routines, run once: exception type and message."""

import json

import numpy as np
import pytest

from phaselab import attacks, bench
from phaselab.attacks import advice_state_adversary, bv_query_dimension, hadamard_attack_report
from phaselab.bench import (
    advantage_tail_bench,
    complex_hoeffding_bench,
    matrix_hoeffding_bench,
    rademacher_series_bench,
    truncated_conjugation_sampler,
    width_tail_bench,
)
from phaselab.cli import ExperimentConfig, load_instance, run, save_instance
from phaselab.compression import extend_to_isometry
from phaselab.game import (
    AdversarySpec,
    acceptance_probability,
    max_advantage_localsearch,
    random_family,
)
from phaselab.numerics import (
    CapacityError,
    RngStream,
    check_projector,
    random_isometry,
    random_projector,
    tv_distance,
)
from phaselab.relaxations import subset_norm_conjecture

RNG = RngStream(1)


def _adv(N=2, M=4):
    return AdversarySpec(
        V=random_isometry(N, M, RNG.child(0)), Pi=random_projector(M, M // 2, RNG.child(1))
    )


def _e0(n):
    return np.eye(n)[0]


def _family_file(tmp_path, values):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "family", "K": 2, "N": 2, "values": values}))
    return str(path)


def _not_hermitian(g, count):
    return np.tile(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128), (count, 1, 1))


def _case(name, call, fragment, exception=ValueError):
    """call takes a scratch directory; the refusal's message must contain fragment."""
    return pytest.param(call, exception, fragment, id=name)


CASES = [
    # attacks
    _case("attack-n", lambda d: hadamard_attack_report(-1, 2, 3, 10, RNG), "n must be >= 0"),
    _case("attack-K", lambda d: hadamard_attack_report(2, 0, 3, 10, RNG), "K must be >= 1"),
    _case("attack-draws", lambda d: hadamard_attack_report(2, 2, 0, 10, RNG), "draws must be >= 1"),
    _case(
        "advice-square",
        lambda d: advice_state_adversary(np.eye(4)[:3], _e0(2)),
        "must be a square matrix",
    ),
    _case(
        "advice-divisible",
        lambda d: advice_state_adversary(np.eye(5), _e0(2)),
        "not divisible by advice dimension 2",
    ),
    _case("bv-K", lambda d: bv_query_dimension(0, 3), "K and N must be positive"),
    _case("bv-N", lambda d: bv_query_dimension(3, 0), "K and N must be positive"),
    _case(
        "bv-cap",
        lambda d: bv_query_dimension(10**5, 10**5),  # 2^(10^10) is compared, never built
        "query dimension 2^10000000000",
        CapacityError,
    ),
    # bench
    _case(
        "rademacher-empty",
        lambda d: rademacher_series_bench([], 100, RNG),
        "need at least one coefficient matrix",
    ),
    _case(
        "rademacher-shapes",
        lambda d: rademacher_series_bench([np.eye(2), np.eye(3)], 100, RNG),
        "must share one shape",
    ),
    _case(
        "sampler-N",
        lambda d: truncated_conjugation_sampler(
            random_isometry(13, 14, RNG), random_projector(14, 7, RNG), 1.0
        ),
        "N <= 12",
    ),
    _case(
        "hoeffding-hermitian",
        lambda d: matrix_hoeffding_bench(_not_hermitian, 1.0, 2, 10, RNG),
        "must produce Hermitian matrices",
    ),
    _case(
        "hoeffding-K",
        lambda d: matrix_hoeffding_bench(_not_hermitian, 1.0, 0, 10, RNG),
        "K must be >= 1",
    ),
    _case(
        "width-K",
        lambda d: width_tail_bench(random_isometry(2, 4, RNG), 0, 10, RNG),
        "K must be >= 1",
    ),
    _case("advantage-K", lambda d: advantage_tail_bench(_adv(), 0, 10, RNG), "K must be >= 1"),
    _case(
        "complex-weights",
        lambda d: complex_hoeffding_bench([1.0, 1.0], 10, RNG),
        "squared magnitudes sum to 2.0, expected 1",
    ),
    _case(
        "advantage-mode",
        lambda d: advantage_tail_bench(_adv(), 2, 10, RNG, mode="any-f"),
        "unknown mode 'any-f'",
    ),
    _case(
        "width-V",
        lambda d: width_tail_bench(np.ones(5), 2, 10, RNG),
        "expected a nonempty matrix, got shape (5,)",
    ),
    # cli
    _case(
        "save-ndim",
        lambda d: save_instance(np.ones(3), str(d / "x.json")),
        "can only save adversaries or K x N families",
    ),
    _case(
        "load-values",
        lambda d: load_instance(_family_file(d, [1, -1, 1])),
        "field 'values' has 3 entries, wanted 4",
    ),
    _case(
        "bench-name",
        lambda d: run(ExperimentConfig("bench", {"name": "nope"})),
        "unknown bench name 'nope'",
    ),
    # compression
    _case(
        "embed-smaller",
        lambda d: extend_to_isometry([np.ones(3) / np.sqrt(3)], [_e0(2)]),
        "cannot isometrically embed dimension 3 into 2",
    ),
    # game
    _case(
        "adversary-dims",
        lambda d: AdversarySpec(V=random_isometry(2, 4, RNG), Pi=random_projector(5, 2, RNG)),
        "projector dimension 5 != isometry output 4",
    ),
    _case(
        "challenge-length",
        lambda d: acceptance_probability(_adv(), np.ones(3), np.ones(4)),
        "challenge length 3 != N = 2",
    ),
    _case(
        "localsearch-restarts",
        lambda d: max_advantage_localsearch(_adv(), random_family(2, 2, RNG), restarts=0, rng=RNG),
        "restarts must be >= 1",
    ),
    # numerics
    _case("isometry-n_in", lambda d: random_isometry(0, 3, RNG), "n_in must be positive"),
    _case("tv-length", lambda d: tv_distance([1.0], [0.5, 0.5]), "length mismatch"),
    _case("tv-ndim", lambda d: tv_distance([[1.0]], [[1.0]]), "must be 1-D, got shapes (1, 1)"),
    _case("tv-negative", lambda d: tv_distance([1.5, -0.5], [0.5, 0.5]), "p has negative entries"),
    _case("projector-square", lambda d: check_projector(np.ones((2, 3))), "must be square"),
    # relaxations
    _case(
        "subset-empty",
        lambda d: subset_norm_conjecture([], [_e0(2)]),
        "need at least one state and one projector",
    ),
    _case(
        "subset-states",
        lambda d: subset_norm_conjecture([np.eye(4)], [_e0(2), _e0(4)]),
        "states must share one dimension",
    ),
    _case(
        "subset-divisible",
        lambda d: subset_norm_conjecture([np.eye(3)], [_e0(2)]),
        "projector dimension 3 not divisible by N = 2",
    ),
    _case(
        "subset-projector-dims",
        lambda d: subset_norm_conjecture([np.eye(4), np.eye(2)], [_e0(2)]),
        "projectors must share one dimension",
    ),
    _case(
        "subset-identity",
        lambda d: subset_norm_conjecture([np.eye(4), np.eye(4)], [_e0(2)]),
        "projectors must sum to the identity",
    ),
    _case(
        "subset-mode",
        lambda d: subset_norm_conjecture([np.eye(4)], [_e0(2)], mode="all"),
        "unknown mode 'all'",
    ),
]


@pytest.mark.parametrize("call, exception, fragment", CASES)
def test_refusal(call, exception, fragment, tmp_path):
    with pytest.raises(exception) as info:
        call(tmp_path)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "module, call",
    [
        pytest.param(
            bench, lambda: width_tail_bench(np.ones((4, 2)), 2, 10, RNG), id="width-isometry"
        ),
        pytest.param(bench, lambda: width_tail_bench(np.eye(4)[:, :2], 0, 10, RNG), id="width-K"),
        pytest.param(bench, lambda: advantage_tail_bench(_adv(), 0, 10, RNG), id="advantage-K"),
        pytest.param(attacks, lambda: hadamard_attack_report(-1, 2, 3, 10, RNG), id="attack-n"),
        pytest.param(attacks, lambda: hadamard_attack_report(2, 0, 3, 10, RNG), id="attack-K"),
    ],
)
def test_refused_before_drawing(module, call, monkeypatch):
    drawn = []
    monkeypatch.setattr(module, "random_family", lambda *a: drawn.append(a))
    with pytest.raises(ValueError):
        call()
    assert drawn == []
