"""The family rule (`game.check_families`): one K x N family or a stack (..., K, N).

Every routine built on `family_images` gives one result per family of a stack,
each equal to its single call bit for bit; a routine that plays, encodes or
evaluates one family at a fixed f refuses a stack with a message naming its shape.
"""

import math
import re

import numpy as np
import pytest

from phaselab.attacks import hadamard_game_encoding, omniscient_advantage, omniscient_distinguisher
from phaselab.decomposition import is_b_bounded, rescaling_diagonals, width
from phaselab.game import (
    AdversarySpec,
    advantage_given_f,
    advantage_kernel,
    family_images,
    kernel_quadratic_form,
    max_advantage_bruteforce,
    max_advantage_localsearch,
    random_family,
    simulate_game,
)
from phaselab.numerics import RngStream, random_isometry, random_projector, random_sign_array
from phaselab.relaxations import (
    decoupled_advantage_given_f,
    decoupled_kernel,
    decoupled_spectral_relaxation,
    max_decoupled_bruteforce,
    spectral_relaxation,
    truncated_spectral_relaxation,
)

N, M = 4, 6
# Row 2 of V is zero: its rescaling entries and weight-basis rows and columns are 0.
ADV = AdversarySpec(
    V=np.insert(random_isometry(N, M - 1, RngStream(1)), 2, 0.0, axis=0),
    Pi=random_projector(M, 3, RngStream(2)),
)
F = random_sign_array(RngStream(3).generator(), M)

# Each routine of (R, Rp) returns a tuple of per-family results.
STACKED = {
    "family_images": lambda R, Rp: (family_images(ADV.V, R),),
    "advantage_kernel": lambda R, Rp: (advantage_kernel(ADV, R),),
    "advantage_given_f": lambda R, Rp: (advantage_given_f(ADV, R, F),),
    "max_advantage_bruteforce": lambda R, Rp: max_advantage_bruteforce(ADV, R),
    "rescaling_diagonals": lambda R, Rp: rescaling_diagonals(ADV, R)[:1],
    "rescaling_diagonals of a bare V": lambda R, Rp: rescaling_diagonals(ADV.V, R)[:1],
    "width": lambda R, Rp: (width(ADV, R),),
    "is_b_bounded": lambda R, Rp: (is_b_bounded(ADV, R, 1.55),),  # true for some families
    "spectral_relaxation": lambda R, Rp: (spectral_relaxation(ADV, R),),
    "decoupled_kernel": lambda R, Rp: (decoupled_kernel(ADV, R, Rp),),
    "decoupled_spectral_relaxation": lambda R, Rp: (decoupled_spectral_relaxation(ADV, R, Rp),),
    "max_decoupled_bruteforce": lambda R, Rp: max_decoupled_bruteforce(ADV, R, Rp),
}


def _stack(lead, K, seed):
    return random_family(math.prod(lead) * K, N, RngStream(seed)).reshape(*lead, K, N)


# A stack as deep as M, of families with M rows, lines up every axis: a routine
# indexing the wrong one raises nothing.
@pytest.mark.parametrize("lead, K", [((M,), M), ((2, 3), 4)], ids=["depth M, K = M", "two-level"])
@pytest.mark.parametrize("name", STACKED)
def test_each_family_of_a_stack_gives_its_single_call_bit_for_bit(name, lead, K):
    R, Rp = _stack(lead, K, 4), _stack(lead, K, 5)
    got = STACKED[name](R, Rp)
    for idx in np.ndindex(lead):
        want = STACKED[name](R[idx], Rp[idx])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if np.ndim(w) == 0:
                assert type(w) in (float, bool)
            assert np.shape(g) == lead + np.shape(w)
            assert np.asarray(g)[idx].dtype == np.asarray(w).dtype
            assert np.asarray(g)[idx].tobytes() == np.asarray(w).tobytes()


def test_is_b_bounded_differs_between_families():
    assert len(set(is_b_bounded(ADV, _stack((2, 3), 4, 4), 1.55).ravel())) == 2


def test_decoupled_families_must_share_a_shape():
    with pytest.raises(ValueError, match=re.escape("family shapes differ: (2, 4) vs (3, 4)")):
        decoupled_kernel(ADV, _stack((2,), 4, 4), _stack((3,), 4, 5))


TABLE = "expected a K x N sign table, got shape (2, 3, 4, 4)"
REFUSED = {
    "truncated_spectral_relaxation": (
        lambda R: truncated_spectral_relaxation(ADV, R, 1.0, 10, rng=RngStream(6)), TABLE
    ),
    "max_advantage_localsearch": (
        lambda R: max_advantage_localsearch(ADV, R, rng=RngStream(6)), TABLE
    ),
    "simulate_game": (lambda R: simulate_game(ADV, R, F, 10, RngStream(6)), TABLE),
    "decoupled_advantage_given_f": (lambda R: decoupled_advantage_given_f(ADV, R, R, F), TABLE),
    "hadamard_game_encoding": (hadamard_game_encoding, TABLE),
    "omniscient_distinguisher": (omniscient_distinguisher, TABLE),
    "omniscient_advantage": (omniscient_advantage, TABLE),
    "kernel_quadratic_form": (
        lambda R: kernel_quadratic_form(advantage_kernel(ADV, R), F),
        "expected one 6 x 6 kernel, got shape (2, 3, 6, 6)",
    ),
}


@pytest.mark.parametrize("name", REFUSED)
def test_one_family_routines_refuse_a_stack_naming_its_shape(name):
    fn, message = REFUSED[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(_stack((2, 3), 4, 4))
