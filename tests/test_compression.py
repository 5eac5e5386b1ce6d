import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import numerics
from phaselab.compression import (
    compress_isometry,
    extend_to_isometry,
    measurement_operators,
    verify_one_query_simulation,
)
from phaselab.game import AdversarySpec
from phaselab.numerics import (
    CapacityError,
    RngStream,
    check_isometry,
    parallel_blocks,
    random_isometry,
    random_projector,
    random_sign_array,
)


def _stacked_simulation(V, L, trials, rng):
    """The 0.21.0 verify_one_query_simulation: per-trial stacked products, signs by np.repeat."""
    Vm = check_isometry(V)
    M, D = Vm.shape
    S = M // L
    W = compress_isometry(V, L, S)

    def run_block(b, size):
        g = rng.child(b).generator()
        F = random_sign_array(g, (size, 2, L))
        xy = g.standard_normal((size, 2, D)) + 1j * g.standard_normal((size, 2, D))
        xy /= np.linalg.norm(xy, axis=2, keepdims=True)
        phi = np.repeat(F, S, axis=2) * (xy @ Vm.T)
        chat = np.repeat(F, D, axis=2) * (xy @ W.T)
        dev = np.abs(
            np.sum(phi[:, 0].conj() * phi[:, 1], axis=1)
            - np.sum(chat[:, 0].conj() * chat[:, 1], axis=1)
        )
        return float(dev.max())

    return max(parallel_blocks(run_block, trials))


class TestMeasurementOperators:
    def test_sum_is_identity(self):
        V = random_isometry(4, 24, RngStream(1))
        ops = measurement_operators(V, L=6, S=4)
        np.testing.assert_allclose(sum(ops), np.eye(4), atol=1e-12)

    def test_positive_semidefinite(self):
        V = random_isometry(3, 12, RngStream(2))
        for op in measurement_operators(V, L=4, S=3):
            evals = np.linalg.eigvalsh(op)
            assert np.all(evals >= -1e-12)

    def test_rejects_bad_factorization(self):
        V = random_isometry(4, 24, RngStream(3))
        with pytest.raises(ValueError):
            measurement_operators(V, L=5, S=4)
        with pytest.raises(ValueError, match="isometry output 24 != L\\*S for L = 5, S = None"):
            measurement_operators(V, L=5)

    def test_oversize_compression_refused_before_the_product(self, monkeypatch):
        # L*S = 8 rows fit a budget of 16, but the (L*D) x D compression of 32 rows does not.
        V = random_isometry(8, 8, RngStream(5))
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 16)
        products = []
        monkeypatch.setattr(np, "swapaxes", lambda *a: products.append(a))
        with pytest.raises(CapacityError, match=r"\(32, 8\) matrix exceeds the dimension budget 16"):
            measurement_operators(V, 4, 2)
        with pytest.raises(CapacityError, match="budget 16"):
            verify_one_query_simulation(V, 4, 10, RngStream(6))
        assert products == []


class TestCompressIsometry:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_output_is_isometry(self, seed):
        V = random_isometry(4, 24, RngStream(seed))
        W = compress_isometry(V, L=6, S=4)
        assert W.shape == (24, 4)
        np.testing.assert_allclose(W.conj().T @ W, np.eye(4), atol=1e-10)

    def test_blocks_are_operator_square_roots(self):
        V = random_isometry(3, 8, RngStream(4))
        W = compress_isometry(V, L=4, S=2)
        ops = measurement_operators(V, L=4, S=2)
        for z in range(4):
            blk = W[z * 3 : (z + 1) * 3]
            np.testing.assert_allclose(blk.conj().T @ blk, ops[z], atol=1e-10)

    @pytest.mark.parametrize("D, L, S", [(16, 16, 16), (3, 4, 2)])
    def test_stacked_steps_equal_the_per_z_loops_bit_for_bit(self, D, L, S):
        V = random_isometry(D, L * S, RngStream(30 + D))
        ops = [b.conj().T @ b for b in V.reshape(L, S, D)]
        assert np.array_equal(measurement_operators(V, L, S), np.stack(ops))
        roots = []
        for m in ops:
            vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
            roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
        assert np.array_equal(compress_isometry(V, L, S), np.concatenate(roots))
        assert np.array_equal(compress_isometry(V, L), compress_isometry(V, L, S))  # S = M / L


class TestExtendToIsometry:
    def test_recovers_planted_isometry_action(self):
        rng = RngStream(5)
        T0 = random_isometry(6, 10, rng.child(0))
        g = rng.child(1).generator()
        xs = [g.standard_normal(6) + 1j * g.standard_normal(6) for _ in range(4)]
        xs = [x / np.linalg.norm(x) for x in xs]
        ys = [T0 @ x for x in xs]
        T = extend_to_isometry(xs, ys)
        np.testing.assert_allclose(T.conj().T @ T, np.eye(6), atol=1e-7)
        for x, y in zip(xs, ys):
            np.testing.assert_allclose(T @ x, y, atol=1e-7)

    def test_rejects_gram_mismatch(self):
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        ys = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])]
        with pytest.raises(ValueError):
            extend_to_isometry(xs, ys)

    def test_handles_linearly_dependent_inputs(self):
        rng = RngStream(6)
        T0 = random_isometry(4, 7, rng.child(0))
        g = rng.child(1).generator()
        x = g.standard_normal(4) + 1j * g.standard_normal(4)
        x = x / np.linalg.norm(x)
        xs = [x, 1j * x]
        ys = [T0 @ v for v in xs]
        T = extend_to_isometry(xs, ys)
        np.testing.assert_allclose(T @ xs[1], ys[1], atol=1e-7)


class TestOneQuerySimulation:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_inner_products_preserved(self, seed):
        rng = RngStream(seed)
        adv = AdversarySpec(
            V=random_isometry(4, 32, rng.child(0)),
            Pi=random_projector(32, 16, rng.child(1)),
        )
        assert verify_one_query_simulation(adv, 8, 10, rng.child(2)) < 1e-10

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "D, L, S, trials",
        [(1, 1, 1, 1), (1, 4, 2, 70), (3, 1, 8, 64), (4, 8, 4, 130), (16, 4, 16, 7), (64, 4, 16, 65)],
    )
    def test_matches_the_stacked_loop(self, monkeypatch, threads, D, L, S, trials):
        # Trial counts above 64 end in a shorter block; 65 ends in a block of one.
        V = random_isometry(D, L * S, RngStream(D + L + S))
        monkeypatch.setenv(numerics.THREADS_ENV, "1")
        want = _stacked_simulation(V, L, trials, RngStream(trials))
        monkeypatch.setenv(numerics.THREADS_ENV, threads)
        assert verify_one_query_simulation(V, L, trials, RngStream(trials)) == want

    def test_identity_like_isometry(self):
        # S = 1: compression is only a basis change, deviation stays tiny.
        rng = RngStream(7)
        adv = AdversarySpec(
            V=random_isometry(8, 8, rng.child(0)),
            Pi=random_projector(8, 4, rng.child(1)),
        )
        assert verify_one_query_simulation(adv, 8, 10, rng.child(2)) < 1e-10

    def test_rejects_bad_block_count(self):
        rng = RngStream(8)
        adv = AdversarySpec(
            V=random_isometry(4, 12, rng.child(0)),
            Pi=random_projector(12, 6, rng.child(1)),
        )
        with pytest.raises(ValueError):
            verify_one_query_simulation(adv, 5, 5, rng.child(2))

    def test_one_isometry_check_per_verification(self, monkeypatch):
        calls = []
        original = numerics.check_isometry

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("phaselab") and getattr(module, "check_isometry", None) is original:
                monkeypatch.setattr(module, "check_isometry", spy)
        rng = RngStream(9)
        V = random_isometry(4, 32, rng.child(0))
        adv = AdversarySpec(V=V, Pi=random_projector(32, 16, rng.child(1)))
        assert verify_one_query_simulation(adv, 8, 10, rng.child(2)) < 1e-10
        assert len(calls) == 1
        # The spec and its bare isometry give the same compression.
        np.testing.assert_array_equal(compress_isometry(adv, 8, 4), compress_isometry(V, 8, 4))
        assert len(calls) == 2
        # A bare V is checked once too, and gives the spec's deviation.
        calls.clear()
        assert verify_one_query_simulation(V, 8, 10, rng.child(2)) == verify_one_query_simulation(
            adv, 8, 10, rng.child(2)
        )
        assert len(calls) == 1
