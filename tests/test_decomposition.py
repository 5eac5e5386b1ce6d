import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab.decomposition import is_b_bounded, rescaling_diagonals, truncate_values, width
import phaselab
from phaselab.game import AdversarySpec, phase_state, random_family
from phaselab.numerics import (
    ZERO_WEIGHT_TOL,
    RngStream,
    isometry_weights,
    random_isometry,
    random_projector,
    random_sign_array,
    rounding_allowance,
)


def _isometry_with_zero_row(N):
    # N+1 rows: the standard basis rows plus one exactly-zero row.
    V = np.zeros((N + 1, N), dtype=np.complex128)
    V[:N] = np.eye(N)
    return V


class TestWeights:
    def test_weights_sum_to_one(self):
        w = isometry_weights(random_isometry(6, 11, RngStream(1)))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_sqrt_weights_are_a_unit_vector(self):
        w = isometry_weights(random_isometry(5, 9, RngStream(2)))
        assert np.linalg.norm(np.sqrt(w)) == pytest.approx(1.0)


class TestReconstructionIdentity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_reconstructs_rotated_state(self, seed):
        rng = RngStream(seed)
        V = random_isometry(8, 14, rng.child(0))
        h = random_sign_array(rng.child(1).generator(), 8)
        D, _ = rescaling_diagonals(V, h[None])
        np.testing.assert_allclose(
            D[0] * np.sqrt(isometry_weights(V)), V @ phase_state(h), atol=1e-12
        )

    def test_zero_weight_rows_masked(self):
        V = _isometry_with_zero_row(4)
        D, mask = rescaling_diagonals(V, np.ones((1, 4)))
        assert mask[-1]
        assert D[0, -1] == 0.0
        # The identity holds on the masked row too (both sides are zero).
        np.testing.assert_allclose(
            D[0] * np.sqrt(isometry_weights(V)), V @ phase_state(np.ones(4)), atol=1e-12
        )

    def test_batched_matches_single(self):
        V = random_isometry(6, 10, RngStream(5))
        R = random_family(4, 6, RngStream(6))
        D, mask = rescaling_diagonals(V, R)
        for k in range(4):
            np.testing.assert_allclose(D[k], rescaling_diagonals(V, R[k : k + 1])[0][0])


class TestDiagonalStatistics:
    def test_mean_squared_magnitude_is_one_per_row(self):
        # E over random sign functions of |D_ii|^2 equals 1 exactly in
        # expectation; check the Monte Carlo mean lands within 0.1.
        V = random_isometry(16, 24, RngStream(7))
        R = random_family(4000, 16, RngStream(8))
        D, mask = rescaling_diagonals(V, R)
        means = np.mean(np.abs(D) ** 2, axis=0)
        assert np.all(np.abs(means[~mask] - 1.0) < 0.1)

    def test_magnitude_tails_are_subexponential(self):
        # Empirical Pr[|D_ii| >= t] against 2 exp(-t/4) with binomial slack.
        V = random_isometry(16, 24, RngStream(9))
        R = random_family(3000, 16, RngStream(10))
        D, mask = rescaling_diagonals(V, R)
        mags = np.abs(D[:, ~mask]).ravel()
        for t in (2.0, 4.0, 8.0):
            bound = min(1.0, 2.0 * np.exp(-t / 4.0))
            slack = 3.0 * np.sqrt(bound * (1 - bound) / mags.size)
            assert np.mean(mags >= t) <= bound + slack


class TestTruncation:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_clips_magnitude_and_preserves_phase(self, seed):
        g = RngStream(seed).generator()
        v = g.standard_normal(20) + 1j * g.standard_normal(20)
        c = truncate_values(v, 1.0)
        assert np.all(np.abs(c) <= 1.0 + 1e-12)
        big = np.abs(v) > 1.0
        np.testing.assert_allclose(c[~big], v[~big])
        if np.any(big):
            np.testing.assert_allclose(
                c[big] / np.abs(c[big]), v[big] / np.abs(v[big]), atol=1e-12
            )

    def test_idempotent(self):
        g = RngStream(1).generator()
        v = 3.0 * (g.standard_normal(10) + 1j * g.standard_normal(10))
        np.testing.assert_allclose(
            truncate_values(truncate_values(v, 2.0), 2.0), truncate_values(v, 2.0)
        )

    def test_large_bound_is_identity(self):
        v = np.array([1.0 + 1.0j, -0.5])
        np.testing.assert_allclose(truncate_values(v, 100.0), v)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            truncate_values(np.ones(3), 0.0)

    @pytest.mark.parametrize("B", [np.nan, np.inf])
    def test_rejects_non_finite_bound(self, B):
        with pytest.raises(ValueError, match="B must be finite"):
            truncate_values(np.ones(3), B)

    def test_huge_bound_is_identity_without_warnings(self):
        v = np.array([1e-3 + 0j, 2.0j, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(truncate_values(v, 1e308), v)

    def test_truncated_diagonal_is_bounded(self):
        V = random_isometry(8, 12, RngStream(11))
        D, _ = rescaling_diagonals(V, random_sign_array(RngStream(12).generator(), (1, 8)))
        assert np.all(np.abs(truncate_values(D[0], 1.5)) <= 1.5 + 1e-12)


class TestWidth:
    def test_stack_matches_per_family_loop(self):
        adv = AdversarySpec(V=random_isometry(6, 9, RngStream(30)), Pi=np.eye(9))
        stack = random_family(2 * 3 * 5, 6, RngStream(31)).reshape(2, 3, 5, 6)
        for V in (adv, adv.V):
            got = width(V, stack)
            assert got.shape == (2, 3)
            want = [[width(V, R) for R in row] for row in stack]
            np.testing.assert_array_equal(got, want)

    def test_rejects_a_single_sign_vector(self):
        with pytest.raises(ValueError, match="sign table"):
            width(np.eye(4), np.ones(4))

    def test_identity_isometry_has_width_one(self):
        R = random_family(6, 8, RngStream(13))
        assert width(np.eye(8), R) == pytest.approx(1.0, abs=1e-12)

    def test_width_at_least_one(self):
        # Weights average the per-row means to exactly 1, so the max is >= 1.
        V = random_isometry(8, 20, RngStream(14))
        R = random_family(10, 8, RngStream(15))
        assert width(V, R) >= 1.0 - 1e-12

    def test_matches_direct_formula(self):
        V = random_isometry(6, 9, RngStream(16))
        R = random_family(5, 6, RngStream(17))
        D, mask = rescaling_diagonals(V, R)
        direct = np.max(np.mean(np.abs(D[:, ~mask]) ** 2, axis=0))
        assert width(V, R) == pytest.approx(direct)


class TestBoundedness:
    def test_consistent_with_max_magnitude(self):
        V = random_isometry(6, 9, RngStream(18))
        R = random_family(5, 6, RngStream(19))
        D, mask = rescaling_diagonals(V, R)
        top = np.max(np.abs(D[:, ~mask]))
        assert is_b_bounded(V, R, top + 0.01)
        assert not is_b_bounded(V, R, top - 0.01)

    @pytest.mark.parametrize("N", [3, 5, 7, 512])
    def test_entries_of_exactly_B_and_just_above_its_allowance(self, N):
        # V = Id: every entry is +-1 exactly, each row's scale ||v_i||_1 / ||v_i||_2 is 1, and
        # the computed entries lie within their allowance of 1.
        R = random_family(2, N, RngStream(25))
        assert is_b_bounded(np.eye(N), R, 1.0)
        assert not is_b_bounded(np.eye(N), R, 1.0 - 2 * rounding_allowance(3 * N + 10, 1.0))

    def test_a_generic_entry_just_above_B_plus_its_rows_allowance(self):
        V = random_isometry(6, 9, RngStream(18))
        R = random_family(5, 6, RngStream(19))
        D, _ = rescaling_diagonals(V, R)
        k, i = np.unravel_index(np.argmax(np.abs(D)), D.shape)
        row = np.abs(V[i])
        allowance = rounding_allowance(3 * 6 + 10, row.sum() / np.linalg.norm(row))
        assert is_b_bounded(V, R, np.abs(D[k, i]))
        assert not is_b_bounded(V, R, np.abs(D[k, i]) - 2 * allowance)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            is_b_bounded(np.eye(4), random_family(2, 4, RngStream(0)), -1.0)

    @pytest.mark.parametrize("B", [np.nan, np.inf])
    def test_rejects_non_finite_bound(self, B):
        # Like truncate_values: nan used to give False and inf True.
        with pytest.raises(ValueError, match="B must be positive and finite"):
            is_b_bounded(np.eye(4), random_family(2, 4, RngStream(0)), B)

    def test_zero_weight_tolerance_exported(self):
        assert 0 < ZERO_WEIGHT_TOL < 1e-10
        assert phaselab.ZERO_WEIGHT_TOL is ZERO_WEIGHT_TOL
        assert phaselab.isometry_weights is isometry_weights


class TestAdversaryInPlaceOfV:
    def _adversary(self):
        V = np.vstack([random_isometry(6, 9, RngStream(20)), np.zeros((1, 6))])
        return AdversarySpec(V=V, Pi=random_projector(10, 5, RngStream(21)))

    def test_rescaling_diagonals_bit_identical(self):
        adv = self._adversary()
        R = random_family(5, 6, RngStream(22))
        D, mask = rescaling_diagonals(adv, R)
        Dv, maskv = rescaling_diagonals(adv.V, R)
        np.testing.assert_array_equal(D, Dv)
        np.testing.assert_array_equal(mask, maskv)
        assert mask[-1]

    def test_width_boundedness_and_matrix(self):
        adv = self._adversary()
        R = random_family(5, 6, RngStream(23))
        assert width(adv, R) == width(adv.V, R)
        assert is_b_bounded(adv, R, 1.5) == is_b_bounded(adv.V, R, 1.5)

    def test_family_width_checked(self):
        with pytest.raises(ValueError, match="family width 5 != N = 6"):
            rescaling_diagonals(self._adversary(), random_family(2, 5, RngStream(24)))
