import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import attacks, numerics
from phaselab.attacks import (
    BV_DIMENSION_CAP,
    FWHT_CHUNK,
    advice_state_adversary,
    bv_query_dimension,
    fwht,
    hadamard_attack_exact_advantage,
    hadamard_attack_report,
    hadamard_game_encoding,
    hadamard_outcome_distribution,
    omniscient_advantage,
    omniscient_distinguisher,
    x_statistic,
)
from phaselab.game import acceptance_probability, advantage_given_f, random_family, simulate_game
from phaselab.game import phase_state
from phaselab.numerics import CapacityError, RngStream, random_projector, span_basis


def _parity_row(n, alpha):
    # chi_alpha(x) = (-1)^<alpha, x> over n bits.
    x = np.arange(1 << n)
    return np.where(np.bitwise_count(np.bitwise_and(x, alpha)) % 2 == 0, 1.0, -1.0)


def _butterfly_fwht(a):
    """The 0.21.0 fwht: each stage on the (..., N // 2h, 2, h) view of the whole array."""
    a = np.array(a, dtype=np.float64, copy=True)
    N = a.shape[-1]
    h = 1
    while h < N:
        b = a.reshape(a.shape[:-1] + (N // (2 * h), 2, h))
        top = b[..., 0, :] + b[..., 1, :]
        np.subtract(b[..., 0, :], b[..., 1, :], out=b[..., 1, :])
        b[..., 0, :] = top
        h *= 2
    return a


class TestFwht:
    @pytest.mark.parametrize(
        "shape",
        [(1,), (2,), (64,), (3, 1), (5, 2), (200, 16, 256)]
        + [(3, FWHT_CHUNK // 16 + 1, 16), (1, 1 << 17), (0, 8)],
    )
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_matches_the_butterfly_loop(self, shape, kind):
        # (3, 4097, 16) is 12291 rows of 16: rows per chunk do not divide it.
        g = np.random.default_rng(len(shape) + shape[-1])
        a = g.integers(-5, 6, size=shape) if kind == "int" else g.standard_normal(shape)
        out = fwht(a)
        assert out.dtype == np.float64 and out.shape == a.shape
        np.testing.assert_array_equal(out, _butterfly_fwht(a))

    def test_peak_memory_is_the_output_and_one_chunk(self):
        # The attack's stack: the output copy is 6.25 MiB.  The stages hold one chunk,
        # its half-size sum and numpy's buffers for overlapping views; the 0.21.0 loop
        # held a half-size temporary of the whole stack (9.6 MiB in all).
        R = random_family(200 * 16, 256, RngStream(4)).reshape(200, 16, 256)
        tracemalloc.start()
        try:
            fwht(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.nbytes + 3 * FWHT_CHUNK * 8

    @pytest.mark.parametrize("bad", [np.float64(3.0), 3, [1 + 1j, 2], np.ones(4, dtype=complex)])
    def test_rejects_0d_and_complex_input(self, bad):
        with pytest.raises(ValueError, match="0-d|complex"):
            fwht(bad)

    def test_matches_dense_hadamard(self):
        n = 3
        N = 1 << n
        H = np.array(
            [[_parity_row(n, a)[x] for x in range(N)] for a in range(N)], dtype=float
        )
        g = RngStream(1).generator()
        v = g.standard_normal(N)
        np.testing.assert_allclose(fwht(v.copy()), H @ v, atol=1e-12)

    def test_batched_rows(self):
        g = RngStream(2).generator()
        A = g.standard_normal((5, 8))
        out = fwht(A.copy())
        for k in range(5):
            np.testing.assert_allclose(out[k], fwht(A[k].copy()))

    def test_involution_up_to_dimension(self):
        g = RngStream(3).generator()
        v = g.standard_normal(16)
        np.testing.assert_allclose(fwht(fwht(v.copy())) / 16, v, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.ones(6))


class TestOutcomeDistribution:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_normalized(self, seed):
        R = random_family(4, 16, RngStream(seed))
        p = hadamard_outcome_distribution(R)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(p >= 0)

    def test_parity_row_is_point_mass(self):
        R = _parity_row(4, 5)[None, :]
        p = hadamard_outcome_distribution(R)
        expected = np.zeros(16)
        expected[5] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-12)


class TestExactAdvantage:
    def test_single_parity_family(self):
        # One parity function: point-mass outcome, advantage 1 - 1/N.
        R = _parity_row(4, 3)[None, :]
        assert hadamard_attack_exact_advantage(R) == pytest.approx(1.0 - 1.0 / 16)

    def test_all_parities_family_is_undetectable(self):
        n = 3
        R = np.array([_parity_row(n, a) for a in range(1 << n)])
        assert hadamard_attack_exact_advantage(R) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_game_encoding_reproduces_exact_advantage(self, seed):
        R = random_family(4, 8, RngStream(seed))
        adv, f = hadamard_game_encoding(R)
        assert advantage_given_f(adv, R, f) == pytest.approx(
            hadamard_attack_exact_advantage(R), abs=1e-10
        )

    def test_encoding_shapes(self):
        R = random_family(4, 8, RngStream(1))
        adv, f = hadamard_game_encoding(R)
        assert adv.N == 8
        assert adv.M == 16
        assert set(np.unique(f)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("N", [1, 8, 256])
    def test_encoding_holds_the_kron_projector_by_its_factor(self, N):
        adv, _ = hadamard_game_encoding(random_family(4, N, RngStream(2)))
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert adv.W.shape == (2 * N, N)
        np.testing.assert_array_equal(adv.W, np.kron(np.eye(N), minus[:, None]))
        np.testing.assert_array_equal(adv.Pi, np.kron(np.eye(N), np.outer(minus, minus)))


class TestStacks:
    @pytest.mark.parametrize("shape", [(30,), (2, 3)])
    def test_each_stacked_statistic_is_the_per_family_call_bit_for_bit(self, shape):
        R = random_family(math.prod(shape) * 8, 32, RngStream(14)).reshape(*shape, 8, 32)
        families = R.reshape(-1, 8, 32)
        for fn, tail in (
            (hadamard_outcome_distribution, (32,)),
            (hadamard_attack_exact_advantage, ()),
            (x_statistic, ()),
        ):
            got = fn(R)
            assert got.shape == shape + tail
            want = np.array([fn(F) for F in families]).reshape(got.shape)
            assert np.array_equal(got, want), fn.__name__

    def test_one_family_gives_floats(self):
        R = random_family(4, 8, RngStream(15))
        assert type(hadamard_attack_exact_advantage(R)) is float
        assert type(x_statistic(R)) is float

    @pytest.mark.parametrize(
        "R, match",
        [
            (np.ones(8), "K x N sign table"),
            (np.ones((0, 2, 8)), "K x N sign table"),
            (np.full((2, 2, 8), 2.0), r"\+1 or -1"),
            (np.ones((2, 2, 6)), "not a power of two"),
        ],
    )
    def test_stacks_are_validated(self, R, match):
        for fn in (hadamard_outcome_distribution, hadamard_attack_exact_advantage):
            with pytest.raises(ValueError, match=match):
                fn(R)
        if match != "not a power of two":
            with pytest.raises(ValueError, match=match):
                x_statistic(R)


class TestXStatistic:
    def test_hand_computed(self):
        R = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
        # Row sums 4 and 0: mean of squares 8, over N=4 gives 2.
        assert x_statistic(R) == pytest.approx(2.0)

    def test_mean_one_for_random_families(self):
        vals = [x_statistic(random_family(8, 64, RngStream(s))) for s in range(500)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


class TestAttackReport:
    def test_report_fields_consistent(self):
        rep = hadamard_attack_report(5, 8, draws=40, trials=4000, rng=RngStream(6))
        assert rep.trials == 4000
        assert 0.0 <= rep.exact_advantage <= 1.0
        assert abs(rep.monte_carlo_advantage - rep.exact_advantage) < 0.2
        assert rep.x_statistic_mean == pytest.approx(1.0, abs=0.3)
        assert rep.x_statistic_variance > 0.0

    def test_deterministic(self):
        a = hadamard_attack_report(4, 4, draws=10, trials=1000, rng=RngStream(7))
        b = hadamard_attack_report(4, 4, draws=10, trials=1000, rng=RngStream(7))
        assert a == b

    def test_families_are_one_draw_and_the_game_reads_child_one(self, monkeypatch):
        n, K, draws, trials, rng = 4, 4, 12, 500, RngStream(10)
        calls = []
        monkeypatch.setattr(attacks, "random_family", lambda *a: calls.append(a) or random_family(*a))
        rep = hadamard_attack_report(n, K, draws=draws, trials=trials, rng=rng)
        assert calls == [(draws * K, 16, rng.child(0))]
        families = random_family(draws * K, 16, rng.child(0)).reshape(draws, K, 16)
        exacts = [hadamard_attack_exact_advantage(R) for R in families]
        xs = [x_statistic(R) for R in families]
        adv, f = hadamard_game_encoding(families[0])
        win = simulate_game(adv, families[0], f, trials, rng.child(1))
        assert rep.exact_advantage == float(np.mean(exacts))
        assert rep.x_statistic_mean == float(np.mean(xs))
        assert rep.x_statistic_variance == float(np.var(xs, ddof=1))
        assert rep.monte_carlo_advantage == 2.0 * win - 1.0

    def test_oversize_encoding_refused_before_drawing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(attacks, "random_family", lambda *a: calls.append(a))
        monkeypatch.setattr(attacks, "hadamard_game_encoding", lambda *a: calls.append(a))
        with pytest.raises(CapacityError, match="dimension budget 4096"):
            hadamard_attack_report(12, 4, draws=2, trials=1, rng=RngStream(8))
        assert calls == []

    @pytest.mark.parametrize("trials", [0, 5])
    def test_oversize_sign_table_refused_before_drawing(self, monkeypatch, trials):
        # draws * K * 2^n signs above NORM_MAX_DIM^2 entries, here 8^2 = 64, whatever trials is.
        calls = []
        monkeypatch.setattr(attacks, "random_family", lambda *a: calls.append(a))
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        with pytest.raises(CapacityError, match="3 draws of K = 3 signs over 2\\^3 points exceed"):
            hadamard_attack_report(3, 3, draws=3, trials=trials, rng=RngStream(8))  # 72 signs
        with pytest.raises(CapacityError, match="budget of 64 entries"):
            hadamard_attack_report(40, 1, draws=1, trials=trials, rng=RngStream(8))
        assert calls == []

    def test_sign_table_at_the_budget_runs(self, monkeypatch):
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        rep = hadamard_attack_report(3, 2, draws=4, trials=0, rng=RngStream(8))  # 64 signs
        assert rep.monte_carlo_advantage is None

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            hadamard_attack_report(2, 2, draws=3, trials=-1, rng=RngStream(9))

    def test_budget_applies_only_with_trials(self, monkeypatch):
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        with pytest.raises(CapacityError):
            hadamard_attack_report(3, 4, draws=2, trials=10, rng=RngStream(9))
        rep = hadamard_attack_report(3, 4, draws=2, trials=0, rng=RngStream(9))
        assert rep.monte_carlo_advantage is None

    def test_oversize_encoding_refused_before_building(self, monkeypatch):
        # A K x 8 family's encoding is 16 x 16: refused under a budget of 15, built at 16.
        R = random_family(4, 8, RngStream(11))
        built = []
        monkeypatch.setattr(attacks, "fwht", lambda *a: built.append(a))
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 15)
        with pytest.raises(CapacityError, match="budget 15"):
            hadamard_game_encoding(R)
        assert built == []
        monkeypatch.undo()
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 16)
        assert hadamard_game_encoding(R)[0].Pi.shape == (16, 16)

    def test_one_draw_has_no_variance(self):
        rep = hadamard_attack_report(3, 4, draws=1, trials=10, rng=RngStream(9))
        assert rep.x_statistic_variance is None and isinstance(rep.monte_carlo_advantage, float)


class TestOmniscient:
    def test_advantage_for_distinct_rows(self):
        R = random_family(2, 16, RngStream(8))
        assert not np.array_equal(R[0], R[1])
        assert omniscient_advantage(R) == pytest.approx(1.0 - 2.0 / 16)

    def test_single_function_family(self):
        R = random_family(1, 8, RngStream(9))
        assert omniscient_advantage(R) == pytest.approx(1.0 - 1.0 / 8)

    def test_duplicate_rows_collapse_rank(self):
        row = random_family(1, 8, RngStream(10))[0]
        R = np.stack([row, row])
        assert omniscient_advantage(R) == pytest.approx(1.0 - 1.0 / 8)

    def test_distinguisher_accepts_family_states_perfectly(self):
        R = random_family(3, 8, RngStream(11))
        adv = omniscient_distinguisher(R)
        f = np.ones(adv.M)
        for k in range(3):
            assert acceptance_probability(adv, R[k], f) == pytest.approx(1.0)

    def test_repeated_row_before_a_new_one(self):
        # Rank 2: the new row comes after a repeat, where a rank read off the
        # diagonal of an unpivoted QR drops it (acceptance 0.556, advantage 0.352).
        R = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1]], dtype=np.float64)
        adv = omniscient_distinguisher(R)
        f = np.ones(adv.M)
        for row in R:
            assert acceptance_probability(adv, row, f) == pytest.approx(1.0, abs=1e-12)
        assert advantage_given_f(adv, R, f) == pytest.approx(0.5, abs=1e-12)
        assert omniscient_advantage(R) == 0.5

    def test_thin_span_equals_the_full_one(self):
        # The 50 families below, and the 4 x 2048 family whose full SVD builds a 2048 x 2048
        # left factor: the thin SVD gives the same rank and basis bit for bit.
        families = [random_family(16, 4, RngStream(200 + seed)) for seed in range(50)]
        for R in families + [random_family(4, 2048, RngStream(1))]:
            A = np.stack([phase_state(row) for row in R], axis=1)
            full, thin = span_basis(A)[0], span_basis(A, complement=False)
            assert thin[1] is None
            assert thin[0].shape == full.shape
            assert thin[0].tobytes() == full.tobytes()

    def test_distinguisher_holds_its_projector_by_the_span(self):
        R = random_family(3, 8, RngStream(12))
        adv = omniscient_distinguisher(R)
        assert adv.W.shape == (8, 3)
        np.testing.assert_allclose(adv.W.conj().T @ adv.W, np.eye(3), atol=1e-12)
        np.testing.assert_array_equal(adv.Pi, adv.W @ adv.W.conj().T)

    def test_advantage_is_one_minus_rank_over_n(self):
        for seed in range(50):
            R = random_family(16, 4, RngStream(200 + seed))
            want = 1.0 - np.linalg.matrix_rank(R) / 4
            assert omniscient_advantage(R) == want
            adv = omniscient_distinguisher(R)
            assert advantage_given_f(adv, R, np.ones(4)) == pytest.approx(want, abs=1e-12)


class TestAdviceStateAdversary:
    def test_projector_and_isometry_valid(self):
        advice = np.array([1.0, 1.0j]) / np.sqrt(2)
        Pi = random_projector(8, 4, RngStream(12))
        adv = advice_state_adversary(Pi, advice)
        assert adv.N == 4
        assert adv.M == 8

    def test_full_projector_accepts_always(self):
        advice = np.array([1.0, 0.0])
        adv = advice_state_adversary(np.eye(8), advice)
        R = random_family(2, 4, RngStream(13))
        assert acceptance_probability(adv, R[0], np.ones(8)) == pytest.approx(1.0)


class TestBvQueryDimension:
    def test_small_values(self):
        assert bv_query_dimension(1, 4) == 16
        assert bv_query_dimension(2, 4) == 256

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            bv_query_dimension(8, 64)

    def test_cap_constant(self):
        assert BV_DIMENSION_CAP == 1 << 16
