import concurrent.futures
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import numerics
from phaselab.bench import complex_hoeffding_bench
from phaselab.numerics import (
    HERMITIAN_BLOCK,
    NORM_MAX_DIM,
    CapacityError,
    RngStream,
    check_entries,
    check_isometry,
    check_projector,
    check_unit_vector,
    operator_norm,
    parallel_blocks,
    random_isometry,
    random_projector,
    random_sign_array,
    rounding_allowance,
    span_basis,
    thread_count,
    tv_distance,
)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(5).generator().random(10)
        b = RngStream(5).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_children_differ_from_parent_and_each_other(self):
        root = RngStream(5)
        draws = [s.generator().random(4) for s in (root, root.child(0), root.child(1))]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(draws[i], draws[j])

    def test_child_path_is_hierarchical(self):
        a = RngStream(5).child(0).child(1)
        b = RngStream(5).child(0).child(1)
        np.testing.assert_array_equal(a.generator().random(4), b.generator().random(4))
        assert a.path == (0, 1)

    def test_fingerprint_mentions_seed(self):
        assert "7" in RngStream(7).fingerprint()


class TestRandomSignArray:
    @pytest.mark.parametrize("shape", [8, 13, (3, 5), (0, 4)])
    def test_float64_signs_of_the_requested_shape(self, shape):
        a = random_sign_array(RngStream(1).generator(), shape)
        assert a.dtype == np.float64
        assert a.shape == (shape if isinstance(shape, tuple) else (shape,))
        assert np.all(np.abs(a) == 1.0)

    def test_same_generator_state_same_signs(self):
        a = random_sign_array(RngStream(2).generator(), (3, 5))
        b = random_sign_array(RngStream(2).generator(), (3, 5))
        np.testing.assert_array_equal(a, b)
        # A shorter draw from the same state is a prefix of a longer one.
        c = random_sign_array(RngStream(2).generator(), 64)
        np.testing.assert_array_equal(a.ravel(), c[:15])

    @pytest.mark.parametrize("shape", [-1, (-1, 4), (4, -2)])
    def test_negative_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="nonnegative"):
            random_sign_array(RngStream(4).generator(), shape)

    def test_mean_and_lag_one_correlation_vanish(self):
        n = 100_000
        a = random_sign_array(RngStream(3).generator(), n)
        assert abs(a.mean()) <= 5.0 / np.sqrt(n)
        assert abs(np.mean(a[1:] * a[:-1])) <= 5.0 / np.sqrt(n - 1)


class TestParallelBlocks:
    # parallel_blocks returns an iterator; list() reads all of it.
    def test_results_are_ordered(self):
        assert list(parallel_blocks(lambda b, size: b * b, 17, 1)) == [b * b for b in range(17)]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_last_block_is_shorter(self, threads, monkeypatch):
        monkeypatch.setenv("PHASELAB_THREADS", threads)
        got = list(parallel_blocks(lambda b, size: (b, size), 10, 4))
        assert got == [(0, 4), (1, 4), (2, 2)]
        assert list(parallel_blocks(lambda b, size: size, 12, 4)) == [4, 4, 4]

    def test_no_items_no_blocks(self):
        assert list(parallel_blocks(lambda b, size: size, 0)) == []

    def test_one_worker_runs_each_block_when_read(self, monkeypatch):
        monkeypatch.setenv("PHASELAB_THREADS", "1")
        ran = []
        blocks = parallel_blocks(lambda b, size: ran.append(b) or b, 3, 1)
        assert ran == []
        assert next(blocks) == 0 and ran == [0]
        assert list(blocks) == [1, 2] and ran == [0, 1, 2]

    def test_workers_hold_a_bounded_window_of_blocks(self, monkeypatch):
        # Each block returns 1 MiB.  Two workers hold at most two blocks, running or done
        # and unread, besides the one the loop holds: 3 MiB, where all ten were 10 MiB.
        import tracemalloc

        monkeypatch.setenv("PHASELAB_THREADS", "2")
        tracemalloc.start()
        try:
            for block in parallel_blocks(lambda b, size: np.full(1 << 17, float(b)), 10, 1):
                assert block[0] >= 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (1 << 20) + (1 << 18)

    def test_thread_count_positive(self):
        assert thread_count() >= 1

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
    def test_thread_count_refuses_a_non_positive_integer(self, raw, monkeypatch):
        monkeypatch.setenv("PHASELAB_THREADS", raw)
        with pytest.raises(ValueError, match="PHASELAB_THREADS must be a positive integer"):
            thread_count()

    def test_workers_capped_at_the_cpu_count(self, monkeypatch):
        # The pool is built on the first read; the stand-in records its size and starts nothing.
        sizes = []

        class NoPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)
                raise RuntimeError("no threads in this test")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("PHASELAB_THREADS", "5000")
        with pytest.raises(RuntimeError, match="no threads"):
            next(parallel_blocks(lambda b, size: size, 100, 1))
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: None)
        assert list(parallel_blocks(lambda b, size: size, 3, 1)) == [1, 1, 1]  # one worker, no pool
        assert sizes == [3]


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)

    def test_matches_singular_value(self):
        g = RngStream(1).generator()
        a = g.standard_normal((20, 20)) + 1j * g.standard_normal((20, 20))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_near_degenerate_top_pair_is_exact(self):
        # Top eigenvalues 1 and 1 - 1e-4: power iteration, which this
        # function once used above dimension 512, read 1.1e-5 low here.
        g = RngStream(2).generator()
        z = g.standard_normal((600, 600)) + 1j * g.standard_normal((600, 600))
        q, _ = np.linalg.qr(z)
        lam = np.concatenate([[1.0, 1.0 - 1e-4], g.uniform(-0.9, 0.9, 598)])
        a = (q * lam) @ q.conj().T
        a = (a + a.conj().T) / 2
        assert operator_norm(a) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "shape, hermitian",
        [((600, 600), True), ((600, 600), False), ((700, 300), False), ((300, 700), False)],
    )
    def test_matches_dense_two_norm(self, shape, hermitian):
        g = RngStream(4).generator()
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        if hermitian:
            a = a + a.conj().T
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_zero_matrices_give_positive_zero(self):
        assert math.copysign(1.0, operator_norm(np.zeros((4, 4)))) == 1.0
        norms = operator_norm(np.zeros((3, 4, 4)))
        assert np.all(np.copysign(1.0, norms) == 1.0)

    def test_zero_and_one_by_one(self):
        assert operator_norm(np.zeros((5, 5))) == 0.0
        assert operator_norm(np.zeros((3, 7))) == 0.0
        assert operator_norm([[-3.0]]) == 3.0
        assert operator_norm([[3.0 + 4.0j]]) == pytest.approx(5.0, rel=1e-12)

    @staticmethod
    def _eigvalsh_inputs(monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(x, *args, **kwargs):
            seen.append(x)
            return eigvalsh(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return seen

    def test_hermitian_input_is_solved_directly(self, monkeypatch):
        g = RngStream(5).generator()
        a = g.standard_normal((40, 40)) + 1j * g.standard_normal((40, 40))
        a = a + a.conj().T
        seen = self._eigvalsh_inputs(monkeypatch)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert len(seen) == 1 and seen[0] is a

    def test_perturbed_hermitian_takes_gram_route(self, monkeypatch):
        g = RngStream(5).generator()
        a = g.standard_normal((600, 600)) + 1j * g.standard_normal((600, 600))
        a = a + a.conj().T
        a[3, 5] += 1e-14
        seen = self._eigvalsh_inputs(monkeypatch)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert len(seen) == 1 and seen[0] is not a and seen[0].shape == a.shape

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
    def test_gram_route_uses_the_smaller_gram_matrix(self, shape, monkeypatch):
        a = RngStream(6).generator().standard_normal(shape) + 0j
        seen = self._eigvalsh_inputs(monkeypatch)
        operator_norm(a)
        assert seen[0].shape == (4, 4)

    def test_dimension_budget(self):
        # A read-only broadcast view: the check must come before any copy.
        huge = np.broadcast_to(np.float64(1.0), (NORM_MAX_DIM + 1, NORM_MAX_DIM + 1))
        with pytest.raises(CapacityError, match="4096"):
            operator_norm(huge)
        assert operator_norm(np.ones((NORM_MAX_DIM, 1))) == pytest.approx(64.0, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_between_bilinear_forms_and_frobenius(self, rows, cols, hermitian, seed):
        # Independent of any eigensolve: |u^H A v| <= ||A||_op for unit u, v
        # (and the largest column norm is such a form), ||A||_op <= ||A||_F.
        g = RngStream(seed).generator()
        if hermitian:
            cols = rows
        a = g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))
        if hermitian:
            a = a + a.conj().T
        norm = operator_norm(a)
        tol = 1e-12 * max(1.0, norm)
        assert norm <= np.linalg.norm(a, "fro") + tol
        assert np.max(np.linalg.norm(a, axis=0)) <= norm + tol
        for _ in range(8):
            u = g.standard_normal(rows) + 1j * g.standard_normal(rows)
            v = g.standard_normal(cols) + 1j * g.standard_normal(cols)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            assert abs(u.conj() @ a @ v) <= norm + tol

    def test_rectangular(self):
        g = RngStream(3).generator()
        a = g.standard_normal((7, 13))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_submultiplicative_under_scaling(self, seed):
        g = RngStream(seed).generator()
        a = g.standard_normal((6, 6))
        assert operator_norm(2.0 * a) == pytest.approx(2.0 * operator_norm(a))


class TestStackedOperatorNorm:
    @staticmethod
    def _stack(kind, count=40, seed=7):
        g = RngStream(seed).generator()
        shape = {"hermitian": (3, 3), "square": (3, 3), "tall": (5, 2), "wide": (2, 5), "mixed": (4, 4)}[kind]
        a = g.standard_normal((count, *shape)) + 1j * g.standard_normal((count, *shape))
        if kind in ("hermitian", "mixed"):
            h = a + np.swapaxes(a.conj(), -1, -2)
            a = h if kind == "hermitian" else np.where((np.arange(count) % 3 == 0)[:, None, None], h, a)
        return a

    @pytest.mark.parametrize("kind", ["hermitian", "square", "tall", "wide", "mixed"])
    def test_equals_a_loop_of_single_calls_bit_for_bit(self, kind):
        a = self._stack(kind)
        loop = np.array([operator_norm(m) for m in a])
        got = operator_norm(a)
        assert isinstance(got, np.ndarray) and got.shape == (len(a),)
        np.testing.assert_array_equal(got, loop)
        np.testing.assert_array_equal(operator_norm(a.reshape(4, 10, *a.shape[1:])), loop.reshape(4, 10))
        assert isinstance(operator_norm(a[0]), float)

    def test_only_a_mixed_stack_is_copied(self, monkeypatch):
        seen = TestOperatorNorm._eigvalsh_inputs(monkeypatch)
        herm = self._stack("hermitian")
        operator_norm(herm)
        assert len(seen) == 1 and seen[0] is herm
        seen.clear()
        operator_norm(self._stack("mixed"))
        assert [x.shape for x in seen] == [(14, 4, 4), (26, 4, 4)]

    def test_budget_reads_the_last_two_dimensions(self):
        assert operator_norm(np.ones((5000, 2, 2))).shape == (5000,)
        with pytest.raises(CapacityError, match="4096"):
            operator_norm(np.broadcast_to(np.float64(1.0), (1, NORM_MAX_DIM + 1, 2)))

    def test_nan_anywhere_and_empty_stacks_are_rejected(self):
        a = self._stack("square")
        a[17, 2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(a)
        for bad in (np.zeros((0, 2, 2)), np.zeros((3, 0)), np.ones(3)):
            with pytest.raises(ValueError):
                operator_norm(bad)


class TestLowerBlockGram:
    """The Gram route forms A^H A or A A^H on its lower block triangle: eigvalsh reads no more."""

    @pytest.mark.parametrize("shape", [(300, 300), (600, 200), (200, 600), (3, 300, 300)])
    def test_matches_dense_two_norm_and_single_calls(self, shape, monkeypatch):
        g = RngStream(14).generator()
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        seen = TestOperatorNorm._eigvalsh_inputs(monkeypatch)
        got = np.atleast_1d(operator_norm(a))
        gram = seen[0]
        assert gram.shape[-1] == min(shape[-2:]) > HERMITIAN_BLOCK
        assert not gram[..., :HERMITIAN_BLOCK, HERMITIAN_BLOCK:].any()  # zeros above the first block
        for m, value in zip(a.reshape(-1, *shape[-2:]), got):
            assert value == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
            assert value == operator_norm(m)

    def test_gram_route_holds_no_conjugate_copy(self):
        a = RngStream(19).generator().standard_normal((512, 512)) * (1 + 1j)
        tracemalloc.start()
        try:
            operator_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes  # the Gram matrix and one column slab; A^H too made 2x


class TestBlockwiseHermitianTest:
    """operator_norm tests a == a^H block by block on the lower block triangle."""

    @staticmethod
    def _hermitian(shape, seed=20):
        g = RngStream(seed).generator()
        a = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        return a + np.swapaxes(a.conj(), -1, -2)

    def test_defect_in_the_last_row_block_takes_the_gram_route(self, monkeypatch):
        a = self._hermitian((300, 300))
        a[299, 10] += 1e-14
        seen = TestOperatorNorm._eigvalsh_inputs(monkeypatch)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert len(seen) == 1 and seen[0] is not a

    def test_mixed_stack_gives_each_matrix_its_single_call(self, monkeypatch):
        herm = self._hermitian((3, 300, 300))
        mixed = herm.copy()
        mixed[1, 299, 10] += 1e-14  # Hermitian in every block but the last
        mixed[2, 5, 0] += 1e-14
        seen = TestOperatorNorm._eigvalsh_inputs(monkeypatch)
        operator_norm(herm)
        assert len(seen) == 1 and seen[0] is herm  # no copy of an all-Hermitian stack
        seen.clear()
        got = operator_norm(mixed)
        assert [x.shape for x in seen] == [(1, 300, 300), (2, 300, 300)]
        np.testing.assert_array_equal(got, [operator_norm(m) for m in mixed])

    def test_negative_zero_imaginary_diagonal_is_hermitian(self, monkeypatch):
        a = self._hermitian((200, 200))
        a.imag[np.diag_indices(200)] = -0.0  # a^H has +0.0 there
        assert np.signbit(a.diagonal().imag).all()
        seen = TestOperatorNorm._eigvalsh_inputs(monkeypatch)
        operator_norm(a)
        assert len(seen) == 1 and seen[0] is a

    def test_hermitian_route_holds_no_square_temporary(self):
        a = self._hermitian((512, 512))
        tracemalloc.start()
        try:
            operator_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a quarter of one 512 x 512 complex matrix


class TestRoundingAllowance:
    def test_both_forms(self):
        u = 2.0**-53
        assert rounding_allowance(10, 3.0) == 10 * u / (1 - 10 * u) * 3.0
        assert rounding_allowance(5, 2.0, eigensolve=True) == numerics.EIGENSOLVE_C * 5 * u * 2.0
        got = rounding_allowance(4, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(got, [0.0, 4 * u / (1 - 4 * u), 8 * u / (1 - 4 * u)])

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_covers_an_inner_product(self, n, seed):
        # Second route: the exact inner product in rational arithmetic.
        g = np.random.default_rng(seed)
        x = g.standard_normal(n) * 10.0 ** g.uniform(-6, 6, n)
        y = g.standard_normal(n)
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), y.tolist()))
        error = abs(Fraction(float(x @ y)) - exact)
        assert error <= Fraction(rounding_allowance(n, float(np.abs(x) @ np.abs(y))))

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_covers_a_two_by_two_eigensolve(self, seed, log_scale):
        # Second route: the closed-form eigenvalues of [[a, b], [conj(b), d]] to 50 digits.
        g = np.random.default_rng(seed)
        a, d, br, bi = g.standard_normal(4) * 10.0 ** (log_scale + g.uniform(-8, 0, 4))
        A = np.array([[a, br + 1j * bi], [br - 1j * bi, d]])
        with localcontext() as ctx:
            ctx.prec = 50
            mid = (Decimal(a) + Decimal(d)) / 2
            half_gap = (Decimal(a) - Decimal(d)) / 2
            rad = (half_gap**2 + Decimal(br) ** 2 + Decimal(bi) ** 2).sqrt()
            exact = [mid - rad, mid + rad]
            allowance = Decimal(rounding_allowance(2, np.linalg.norm(A), eigensolve=True))
            for w, e in zip(np.linalg.eigvalsh(A).tolist(), exact):
                assert abs(Decimal(w) - e) <= allowance


class TestRandomOperators:
    def test_isometry_columns_orthonormal(self):
        V = random_isometry(6, 10, RngStream(4))
        np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-12)

    def test_isometry_deterministic(self):
        np.testing.assert_array_equal(
            random_isometry(4, 8, RngStream(9)), random_isometry(4, 8, RngStream(9))
        )

    def test_square_case_is_unitary(self):
        U = random_isometry(5, 5, RngStream(6))
        np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)

    def test_isometry_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            random_isometry(10, 6, RngStream(0))

    def test_projector_properties(self):
        P = random_projector(9, 4, RngStream(5))
        np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        assert np.trace(P).real == pytest.approx(4.0)

    def test_projector_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_projector(4, 5, RngStream(0))

    @pytest.mark.parametrize(
        "sample",
        [
            lambda rng: random_isometry(2, 9, rng),
            lambda rng: random_isometry(9, 9, rng),
            lambda rng: random_isometry(9, 2, rng),  # n_out < n_in too: the size comes first
            lambda rng: random_projector(9, 2, rng),
            lambda rng: random_projector(9, 0, rng),  # the rank-0 branch, which draws nothing
        ],
    )
    def test_oversize_draw_refused_before_drawing(self, sample, monkeypatch):
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        with pytest.raises(CapacityError, match="matrix exceeds the dimension budget 8"):
            sample(RngStream(3))
        assert drawn == []

    def test_draws_at_the_budget_run(self, monkeypatch):
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        assert random_isometry(8, 8, RngStream(3)).shape == (8, 8)
        assert random_projector(8, 3, RngStream(3)).shape == (8, 8)


class TestCheckEntries:
    def test_refuses_only_past_the_square_of_the_dimension_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        check_entries(64, "64 signs")
        with pytest.raises(CapacityError) as err:
            check_entries(65, "5 x 13 signs")
        assert str(err.value) == "5 x 13 signs exceed the budget of 64 entries (8^2)"


class TestSpanBasis:
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bases_split_the_space_at_the_rank(self, n, k, rank, seed):
        g = RngStream(seed).generator()
        rank = min(rank, n, k)
        A = g.standard_normal((n, rank)) @ g.standard_normal((rank, k))
        basis, complement = span_basis(A)
        assert basis.shape == (n, np.linalg.matrix_rank(A))
        assert complement.shape == (n, n - basis.shape[1])
        Q = np.hstack([basis, complement])
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(n), atol=1e-12)
        # The basis spans A's columns: projecting onto it leaves them unchanged.
        np.testing.assert_allclose(basis @ (basis.conj().T @ A), A, atol=1e-10)

    def test_repeated_column_before_a_new_one(self):
        A = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1]], dtype=np.float64).T
        basis, complement = span_basis(A)
        assert (basis.shape, complement.shape) == ((4, 2), (4, 2))


class TestTvDistance:
    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.1], [0.5, 0.5])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_bounded(self, seed):
        g = RngStream(seed).generator()
        p = g.random(8)
        q = g.random(8)
        p, q = p / p.sum(), q / q.sum()
        d = tv_distance(p, q)
        assert d == pytest.approx(tv_distance(q, p))
        assert 0.0 <= d <= 1.0


class TestValidators:
    def test_unit_vector_accepts_and_rejects(self):
        check_unit_vector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            check_unit_vector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "check",
        [
            lambda x: check_unit_vector([x, 0.0]),  # norm x
            lambda x: tv_distance([x, 0.0], [1.0, 0.0]),  # sum x
            lambda x: complex_hoeffding_bench([np.sqrt(x), 0.0], 10, RngStream(1)),  # weight x
        ],
        ids=["unit-vector", "distribution", "weights"],
    )
    def test_every_normalization_is_checked_at_structural_tol(self, check):
        check(1.0 + 0.9 * numerics.STRUCTURAL_TOL)
        with pytest.raises(ValueError):
            check(1.0 + 1.1 * numerics.STRUCTURAL_TOL)

    def test_isometry_rejects_nonisometry(self):
        with pytest.raises(ValueError):
            check_isometry(np.ones((3, 2)))

    def test_strided_complex_views_are_accepted(self):
        # A complex view whose last axis is not contiguous cannot be viewed as float64.
        V = random_isometry(3, 8, RngStream(12))
        wide = np.zeros((8, 6), dtype=np.complex128)
        wide[:, ::2] = V
        np.testing.assert_array_equal(check_isometry(wide[:, ::2]), V)
        assert operator_norm(V.T) == pytest.approx(1.0, rel=1e-12)
        P = random_projector(6, 2, RngStream(13))
        check_projector(P.T.conj().T)

    def test_projector_rejects_nonidempotent(self):
        with pytest.raises(ValueError):
            check_projector(np.array([[0.5, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("dim", [127, 128, 129, 300])
    def test_random_projectors_and_isometries_are_accepted(self, dim):
        P = random_projector(dim, dim // 2, RngStream(dim))
        np.testing.assert_array_equal(check_projector(P), P)
        check_isometry(random_isometry(dim, dim + 3, RngStream(dim)))

    @staticmethod
    def _residual_blocks(monkeypatch):
        """Shape of each c that _lower_residual takes, then of each block of c it compares."""
        seen, residual = [], numerics._lower_residual

        class Sliced(np.ndarray):
            def __getitem__(self, key):
                block = super().__getitem__(key)
                seen.append(block.shape)
                return block.view(np.ndarray)

        def spy(x, y, c, hermitian=True):
            seen.append(c.shape)
            return residual(x, y, np.asarray(c).view(Sliced), hermitian)

        monkeypatch.setattr(numerics, "_lower_residual", spy)
        return seen

    def test_hermitian_defect_in_the_last_row_block_is_rejected(self, monkeypatch):
        P = random_projector(300, 150, RngStream(15))
        P[299, 10] += 1e-6
        P[10, 299] += 1e-6  # still equal to its conjugate transpose bit for bit
        seen = self._residual_blocks(monkeypatch)
        with pytest.raises(ValueError, match="hermiticity residual 0.000e[+]00, idempotence residual [1-9]"):
            check_projector(P)
        assert seen == [(300, 300), (128, 128), (128, 256), (44, 300)]  # the lower block triangle

    def test_nearly_hermitian_matrix_takes_the_full_product(self, monkeypatch):
        P = random_projector(300, 150, RngStream(16))
        P[200, 3] += 1e-12
        seen = self._residual_blocks(monkeypatch)
        check_projector(P)
        assert seen == [(300, 300), (128, 300), (128, 300), (44, 300)]  # every column, by row blocks

    @staticmethod
    def _check_peak(P):
        tracemalloc.start()
        try:
            check_projector(P)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_projector_check_holds_no_square_temporary(self):
        P = random_projector(512, 256, RngStream(17))
        assert self._check_peak(P) < P.nbytes  # one 512 x 512 complex matrix, 4 MiB

    def test_nearly_hermitian_projector_check_holds_no_square_temporary(self):
        P = random_projector(512, 256, RngStream(17))
        P[200, 3] += 1e-12  # not P^H bit for bit: every column of each row block
        assert self._check_peak(P) < P.nbytes

    def test_isometry_defect_below_the_first_block_is_rejected(self):
        V = random_isometry(300, 400, RngStream(18))
        V[:, 250] += 1e-6 * V[:, 10]
        with pytest.raises(ValueError, match="not an isometry"):
            check_isometry(V)

    def test_capacity_error_is_value_error(self):
        assert issubclass(CapacityError, ValueError)
