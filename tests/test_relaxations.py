import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselab import numerics, relaxations
from phaselab.attacks import advice_state_adversary
from phaselab.cli import ExperimentConfig, run
from phaselab.decomposition import rescaling_diagonals, truncate_values
from phaselab.game import (
    BRUTEFORCE_CUTOFF,
    AdversarySpec,
    advantage_given_f,
    advantage_kernel,
    max_advantage_bruteforce,
    random_family,
)
from phaselab.numerics import (
    ZERO_WEIGHT_TOL,
    CapacityError,
    RngStream,
    operator_norm,
    random_isometry,
    random_projector,
    random_sign_array,
)
from phaselab.relaxations import (
    decoupled_advantage_given_f,
    decoupled_kernel,
    decoupled_spectral_relaxation,
    max_decoupled_bruteforce,
    spectral_relaxation,
    subset_norm_conjecture,
    truncated_spectral_relaxation,
)


def _random_adversary(N, M, rank, seed):
    rng = RngStream(seed)
    return AdversarySpec(
        V=random_isometry(N, M, rng.child(0)),
        Pi=random_projector(M, rank, rng.child(1)),
    )


def _lexfirst_max(C):
    """Maximum of |f^T C f| over f with f_1 = +1 and its lexicographically first maximizer."""
    fs = np.array([(1.0,) + t for t in itertools.product((1.0, -1.0), repeat=C.shape[0] - 1)])
    vals = np.abs(np.sum((fs @ C) * fs, axis=1))
    i = int(np.argmax(vals))
    return vals[i], fs[i]


def _all_sign_rows(n):
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def _enumerated_all_h_term(adv):
    """E_h D_h^H Pi D_h, averaged over all 2^N sign functions."""
    H = _all_sign_rows(adv.N)
    D, _ = rescaling_diagonals(adv.V, H)
    return np.einsum("ki,ij,kj->ij", D.conj(), adv.Pi, D) / H.shape[0]


def _weight_basis_all_h_term(adv, R):
    """The all-h term inside advantage_kernel, in the weight basis: family term minus kernel."""
    D, _ = rescaling_diagonals(adv.V, R)
    family = adv.Pi * (D.conj().T @ D) / R.shape[0]
    return family - relaxations._weight_basis(adv, advantage_kernel(adv, R))


class TestHaarTerm:
    # The closed-form all-h term lives in advantage_kernel; the independent
    # route enumerates all 2^N sign functions.
    def test_all_sign_rows_give_zero(self):
        adv = _random_adversary(8, 12, 6, 1)
        assert spectral_relaxation(adv, _all_sign_rows(8)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_sign_average(self):
        adv = _random_adversary(8, 12, 6, 1)
        R = random_family(5, 8, RngStream(2))
        all_h = _enumerated_all_h_term(adv)
        np.testing.assert_allclose(_weight_basis_all_h_term(adv, R), all_h, atol=1e-10)
        D, _ = rescaling_diagonals(adv.V, R)
        want = operator_norm(adv.Pi * (D.conj().T @ D) / R.shape[0] - all_h)
        assert spectral_relaxation(adv, R) == pytest.approx(want, abs=1e-12)

    def test_hermitian(self):
        adv = _random_adversary(6, 10, 5, 2)
        T = _weight_basis_all_h_term(adv, random_family(3, 6, RngStream(3)))
        np.testing.assert_allclose(T, T.conj().T, atol=1e-12)


@pytest.mark.parametrize("row", [0.0, 1e-8])
class TestZeroWeightRow:
    """A zero-weight row of V, exactly 0 or of weight 1e-16: each relaxation
    against the direct masked formula."""

    N, M, B = 6, 10, 1.2

    def _adversary(self, row):
        rng = RngStream(50)
        V = np.insert(random_isometry(self.N, self.M - 1, rng.child(0)), 3, row, axis=0)
        adv = AdversarySpec(V=V, Pi=random_projector(self.M, 5, rng.child(1)))
        assert adv.mask.tolist() == [i == 3 for i in range(self.M)]
        return adv

    def _diagonals(self, adv, R):
        # <v_i|psi_k> / sqrt(wt_i), and 0 on the zero-weight row.
        w = np.sum(np.abs(adv.V) ** 2, axis=1) / adv.N
        amps = R @ adv.V.T / np.sqrt(adv.N)
        active = w > ZERO_WEIGHT_TOL
        return np.where(active, amps / np.sqrt(np.where(active, w, 1.0)), 0.0)

    def _term(self, adv, D, Dp=None):
        Dp = D if Dp is None else Dp
        return adv.Pi * (D.conj().T @ Dp) / D.shape[0]

    def test_weight_basis(self, row):
        adv = self._adversary(row)
        B = advantage_kernel(adv, random_family(4, self.N, RngStream(56)))
        A = relaxations._weight_basis(adv, B.copy())  # it overwrites its kernel
        w = np.sum(np.abs(adv.V) ** 2, axis=1) / adv.N
        keep = np.arange(self.M) != 3
        np.testing.assert_array_equal(A[3], 0.0)
        np.testing.assert_array_equal(A[:, 3], 0.0)
        want = B[np.ix_(keep, keep)] / np.sqrt(np.outer(w[keep], w[keep]))
        np.testing.assert_allclose(A[np.ix_(keep, keep)], want, rtol=1e-12)

    def test_spectral(self, row):
        adv = self._adversary(row)
        R = random_family(4, self.N, RngStream(51))
        all_h = self._term(adv, self._diagonals(adv, _all_sign_rows(self.N)))
        want = operator_norm(self._term(adv, self._diagonals(adv, R)) - all_h)
        assert spectral_relaxation(adv, R) == pytest.approx(want, abs=1e-12)

    def test_decoupled(self, row):
        adv = self._adversary(row)
        R = random_family(4, self.N, RngStream(52))
        Rp = random_family(4, self.N, RngStream(53))
        want = operator_norm(self._term(adv, self._diagonals(adv, R), self._diagonals(adv, Rp)))
        assert decoupled_spectral_relaxation(adv, R, Rp) == pytest.approx(want, abs=1e-12)

    def test_truncated(self, row):
        adv = self._adversary(row)
        R = random_family(4, self.N, RngStream(54))
        rng = RngStream(55)
        DB = truncate_values(self._diagonals(adv, R), self.B)
        all_h = self._term(adv, self._diagonals(adv, _all_sign_rows(self.N)))
        # The same draws as the relaxation: blocks of 256, 256 and 88 sign functions.
        correction = np.zeros((self.M, self.M), dtype=np.complex128)
        for b, size in enumerate((256, 256, 88)):
            Dh = self._diagonals(adv, random_sign_array(rng.child(b).generator(), (size, self.N)))
            DhB = truncate_values(Dh, self.B)
            correction += (self._term(adv, DhB) - self._term(adv, Dh)) * size
        want = operator_norm(self._term(adv, DB) - all_h - correction / 600)
        val, _ = truncated_spectral_relaxation(adv, R, self.B, samples=600, rng=rng)
        assert val == pytest.approx(want, abs=1e-12)
        assert val != pytest.approx(spectral_relaxation(adv, R), abs=1e-6)


def test_one_isometry_check_per_adversary(monkeypatch):
    calls = []
    original = numerics.check_isometry

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("phaselab") and getattr(module, "check_isometry", None) is original:
            monkeypatch.setattr(module, "check_isometry", spy)
    adv = _random_adversary(8, 16, 8, 60)
    R = random_family(4, 8, RngStream(61))
    Rp = random_family(4, 8, RngStream(62))
    spectral_relaxation(adv, R)
    decoupled_spectral_relaxation(adv, R, Rp)
    truncated_spectral_relaxation(adv, R, B=1.5, samples=200, rng=RngStream(63))
    assert len(calls) == 1


class TestSpectralRelaxation:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_upper_bounds_fixed_f_advantage(self, seed):
        adv = _random_adversary(6, 9, 4, seed)
        R = random_family(3, 6, RngStream(seed).child(5))
        f = random_sign_array(RngStream(seed).child(6).generator(), 9)
        assert advantage_given_f(adv, R, f) <= spectral_relaxation(adv, R) + 1e-10

    def test_upper_bounds_maximized_advantage(self):
        adv = _random_adversary(6, 10, 5, 3)
        R = random_family(4, 6, RngStream(4))
        best, _ = max_advantage_bruteforce(adv, R)
        assert best <= spectral_relaxation(adv, R) + 1e-10

    def test_nonnegative(self):
        adv = _random_adversary(5, 8, 4, 5)
        assert spectral_relaxation(adv, random_family(2, 5, RngStream(6))) >= 0.0


class TestTruncatedRelaxation:
    def test_loose_bound_recovers_plain_relaxation(self):
        adv = _random_adversary(6, 9, 4, 7)
        R = random_family(3, 6, RngStream(8))
        exact = spectral_relaxation(adv, R)
        # B far above any diagonal magnitude: only Monte Carlo error remains.
        val, stderr = truncated_spectral_relaxation(
            adv, R, B=50.0, samples=20_000, rng=RngStream(9)
        )
        assert abs(val - exact) < max(6 * stderr, 0.02)

    def test_stderr_positive_and_small(self):
        adv = _random_adversary(5, 8, 4, 10)
        R = random_family(3, 5, RngStream(11))
        val, stderr = truncated_spectral_relaxation(
            adv, R, B=2.0, samples=5000, rng=RngStream(12)
        )
        assert val >= 0.0
        assert 0.0 <= stderr < 0.1

    def test_deterministic(self):
        adv = _random_adversary(5, 8, 4, 13)
        R = random_family(3, 5, RngStream(14))
        a = truncated_spectral_relaxation(adv, R, B=1.5, samples=2000, rng=RngStream(15))
        b = truncated_spectral_relaxation(adv, R, B=1.5, samples=2000, rng=RngStream(15))
        assert a == b

    @pytest.mark.parametrize("B", [1.5, 2.0])
    def test_error_covers_exact_value(self, B):
        # Independent oracle: the all-h term averaged over all 2^13 sign rows.
        N, M = 13, 32
        H = np.array(list(itertools.product((1.0, -1.0), repeat=N)))
        covered = 0
        for seed in range(50):
            rng = RngStream(seed)
            adv = AdversarySpec(
                V=random_isometry(N, M, rng.child(0)), Pi=random_projector(M, 16, rng.child(1))
            )
            R = random_family(6, N, rng.child(2))
            DB = truncate_values(rescaling_diagonals(adv.V, R)[0], B)
            DhB = truncate_values(rescaling_diagonals(adv.V, H)[0], B)
            exact = operator_norm(
                adv.Pi * (DB.conj().T @ DB) / R.shape[0] - adv.Pi * (DhB.conj().T @ DhB) / H.shape[0]
            )
            val, err = truncated_spectral_relaxation(adv, R, B, samples=2000, rng=rng.child(3))
            covered += abs(val - exact) <= err + 1e-12
        assert covered >= 48

    def test_no_clipping_gives_plain_relaxation_and_zero_error(self):
        adv = _random_adversary(6, 9, 4, 7)
        R = random_family(3, 6, RngStream(8))
        val, err = truncated_spectral_relaxation(adv, R, B=50.0, samples=200, rng=RngStream(9))
        assert val == spectral_relaxation(adv, R)
        assert err == 0.0

    def test_two_operator_norms(self, monkeypatch):
        calls = []

        def spy(m):
            calls.append(np.shape(m))
            return operator_norm(m)

        monkeypatch.setattr(relaxations, "operator_norm", spy)
        adv = _random_adversary(6, 16, 8, 16)
        R = random_family(4, 6, RngStream(17))
        truncated_spectral_relaxation(adv, R, B=1.5, samples=500, rng=RngStream(18))
        assert calls == [(16, 16), (16, 16)]

    @pytest.mark.parametrize("M", [12, 160])  # below and above numpy's 256 KiB temporary reuse
    def test_streamed_batches_sum_as_a_list(self, M):
        # Reference: every block gain held in a list, summed by halves, combined as one
        # expression; the streamed blocks give the same value and error bit for bit.  700
        # samples are blocks of 256, 256 and 188: halves of n1 = 256 and n2 = 444.
        adv = _random_adversary(M // 2, M, M // 2, 22)
        R, B, samples, rng = random_family(5, M // 2, RngStream(23)), 1.2, 700, RngStream(24)

        def block_gain(b, size):
            H = random_sign_array(rng.child(b).generator(), (size, adv.N))
            return relaxations._clip_gain(rescaling_diagonals(adv, H)[0], B)

        gains = [block_gain(b, size) for b, size in enumerate((256, 256, 188))]
        first, second = sum(gains[:1]), sum(gains[1:])
        plain = relaxations._weight_basis(adv, advantage_kernel(adv, R))
        D = rescaling_diagonals(adv, R)[0]
        gain = relaxations._clip_gain(D, B) / len(D) - (first + second) / samples
        value = operator_norm(plain + relaxations._hermitian_part(gain) * adv.Pi)
        diff = first * (444 / 256) - second
        error = operator_norm(relaxations._hermitian_part(diff) * adv.Pi / (2 * 444))
        assert error > 0.0
        assert truncated_spectral_relaxation(adv, R, B, samples, rng=rng) == (value, error)

    @pytest.mark.parametrize(
        "samples, sizes",
        [(2, (1, 1)), (5, (3, 2)), (400, (200, 200)), (2005, (256,) * 7 + (213,))],
        ids=str,
    )
    def test_error_is_half_the_half_means_gap(self, samples, sizes):
        # Any count of at least 2 is accepted, in blocks of min(256, ceil(samples / 2)); the error
        # is ||Pi o H(mean over the first floor(blocks / 2) blocks - mean over the rest)|| / 2.
        adv = _random_adversary(4, 8, 4, 28)
        R, B, rng = random_family(3, 4, RngStream(29)), 1.0, RngStream(30)
        draws = [
            random_sign_array(rng.child(b).generator(), (size, 4)) for b, size in enumerate(sizes)
        ]
        sums = [relaxations._clip_gain(rescaling_diagonals(adv, H)[0], B) for H in draws]
        half = len(sizes) // 2
        n1, n2 = sum(sizes[:half]), sum(sizes[half:])
        gap = sum(sums[:half]) / n1 - sum(sums[half:]) / n2
        want = operator_norm(adv.Pi * relaxations._hermitian_part(gap)) / 2
        _, error = truncated_spectral_relaxation(adv, R, B, samples, rng=rng)
        assert error == pytest.approx(want, rel=1e-12)

    def test_at_most_four_kernels_alive(self):
        # M = 256: each M x M complex matrix is 1 MiB; the two block gains are never held
        # at once.  The allowance of 1/4 MiB covers numpy's iteration buffers and the
        # K x M and N x M arrays.
        import tracemalloc

        M = 256
        adv = _random_adversary(8, M, M // 2, 25)
        R = random_family(8, 8, RngStream(26))
        tracemalloc.start()
        try:
            truncated_spectral_relaxation(adv, R, 1.0, 10, rng=RngStream(27))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * M * M + (1 << 18)

    def test_memory_flat_in_the_sample_count(self):
        # 20,000 samples at M = 256 run as 79 blocks of at most 256 sign functions, so the
        # peak is that of a few blocks, whatever the sample count.
        import tracemalloc

        M = 256
        adv = _random_adversary(64, M, M // 2, 31)
        R = random_family(16, 64, RngStream(32))
        tracemalloc.start()
        try:
            truncated_spectral_relaxation(adv, R, 1.0, 20_000, rng=RngStream(33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * M * M

    @pytest.mark.parametrize("samples", [1, 0, -10])
    def test_fewer_than_two_samples_refused(self, samples):
        adv = _random_adversary(4, 8, 4, 19)
        R = random_family(3, 4, RngStream(20))
        with pytest.raises(ValueError, match="samples must be >= 2"):
            truncated_spectral_relaxation(adv, R, 1.5, samples, rng=RngStream(21))


class TestDecoupled:
    def test_kernel_quadratic_form_matches_fixed_f(self):
        adv = _random_adversary(6, 8, 4, 16)
        R = random_family(3, 6, RngStream(17))
        Rp = random_family(3, 6, RngStream(18))
        f = random_sign_array(RngStream(19).generator(), 8)
        C = decoupled_kernel(adv, R, Rp)
        assert abs(f @ (C @ f)) == pytest.approx(
            decoupled_advantage_given_f(adv, R, Rp, f), abs=1e-12
        )

    def test_bruteforce_dominates_fixed_f(self):
        adv = _random_adversary(6, 8, 4, 20)
        R = random_family(3, 6, RngStream(21))
        Rp = random_family(3, 6, RngStream(22))
        best, fbest = max_decoupled_bruteforce(adv, R, Rp)
        assert decoupled_advantage_given_f(adv, R, Rp, fbest) == pytest.approx(best)
        for seed in range(5):
            f = random_sign_array(RngStream(40 + seed).generator(), 8)
            assert decoupled_advantage_given_f(adv, R, Rp, f) <= best + 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 18])  # 18: two search blocks
    def test_bruteforce_matches_lexicographic_enumeration(self, m):
        n = max(1, m // 2)
        adv = _random_adversary(n, m, n, 80 + m)
        R = random_family(3, n, RngStream(90 + m))
        Rp = random_family(3, n, RngStream(100 + m))
        ref_val, ref_f = _lexfirst_max(decoupled_kernel(adv, R, Rp))
        best, f = max_decoupled_bruteforce(adv, R, Rp)
        assert best == pytest.approx(ref_val, abs=1e-12)
        np.testing.assert_array_equal(f, ref_f)

    def test_bruteforce_cutoff_refused_before_building_the_kernel(self, monkeypatch):
        adv = _random_adversary(4, BRUTEFORCE_CUTOFF + 1, 4, 113)
        R, Rp = random_family(2, 4, RngStream(114)), random_family(2, 4, RngStream(115))
        built = []
        monkeypatch.setattr(relaxations, "decoupled_kernel", lambda *a: built.append(a))
        with pytest.raises(CapacityError, match=f"cutoff M = {BRUTEFORCE_CUTOFF}"):
            max_decoupled_bruteforce(adv, R, Rp)
        assert built == []

    def test_bruteforce_zero_kernel_breaks_ties_to_all_ones(self):
        adv = AdversarySpec(V=random_isometry(3, 5, RngStream(110)), Pi=np.zeros((5, 5)))
        best, f = max_decoupled_bruteforce(
            adv, random_family(2, 3, RngStream(111)), random_family(2, 3, RngStream(112))
        )
        assert best == 0.0
        np.testing.assert_array_equal(f, np.ones(5))

    def test_relaxation_bounds_bruteforce(self):
        adv = _random_adversary(6, 8, 4, 23)
        R = random_family(3, 6, RngStream(24))
        Rp = random_family(3, 6, RngStream(25))
        best, _ = max_decoupled_bruteforce(adv, R, Rp)
        assert best <= decoupled_spectral_relaxation(adv, R, Rp) + 1e-9

    @pytest.mark.parametrize(
        "entry",
        [
            decoupled_kernel,
            decoupled_spectral_relaxation,
            max_decoupled_bruteforce,
            lambda adv, R, Rp: decoupled_advantage_given_f(adv, R, Rp, np.ones(adv.M)),
        ],
    )
    def test_family_width_checked(self, entry):
        adv = _random_adversary(6, 8, 4, 27)
        R = random_family(3, 5, RngStream(0))
        Rp = random_family(3, 5, RngStream(1))
        with pytest.raises(ValueError, match="family width 5 != N = 6"):
            entry(adv, R, Rp)

    def test_shape_mismatch_rejected(self):
        adv = _random_adversary(6, 8, 4, 26)
        with pytest.raises(ValueError):
            decoupled_spectral_relaxation(
                adv, random_family(3, 6, RngStream(0)), random_family(4, 6, RngStream(1))
            )


def _projector_resolution(dim, L, seed):
    U = random_isometry(dim, dim, RngStream(seed))
    block = dim // L
    return [
        U[:, i * block : (i + 1) * block] @ U[:, i * block : (i + 1) * block].conj().T
        for i in range(L)
    ]


def _unit_states(N, K, seed):
    g = RngStream(seed).generator()
    out = []
    for _ in range(K):
        s = g.standard_normal(N) + 1j * g.standard_normal(N)
        out.append(s / np.linalg.norm(s))
    return out


def _members(bits, L):
    return [i for i in range(L) if (bits >> i) & 1]


def _reference_sums(terms):
    """sum(terms[i] for i in members) for every nonempty subset, in bit order."""
    return [sum(terms[i] for i in _members(bits, len(terms))) for bits in range(1, 1 << len(terms))]


def _reference_brute(terms):
    """The per-subset loop: one 2-d norm of each subset's sum, the first best in bit order."""
    best_val, best_set = 0.0, ()
    for bits, total in enumerate(_reference_sums(terms), start=1):
        val = operator_norm(total)
        if val > best_val + 1e-15:
            best_val, best_set = val, tuple(_members(bits, len(terms)))
    return best_val, best_set


def _reference_greedy(terms, restarts, rng):
    """Greedy growth with one 2-d norm per candidate, the first improving one accepted;
    each restart's value is the norm of its set's sum in index order."""
    best_val, best_set, g = 0.0, (), rng.generator()
    for _ in range(restarts):
        order = g.permutation(len(terms))
        chosen, acc, val, improved = set(), np.zeros_like(terms[0]), 0.0, True
        while improved:
            improved = False
            for i in (int(i) for i in order if int(i) not in chosen):
                cand = operator_norm(acc + terms[i])
                if cand > val + 1e-12:
                    chosen.add(i)
                    acc, val, improved = acc + terms[i], cand, True
                    break
        val = operator_norm(sum(terms[i] for i in sorted(chosen))) if chosen else 0.0
        if val > best_val:
            best_val, best_set = val, tuple(sorted(chosen))
    return best_val, best_set


class TestSubsetNormConjecture:
    def test_trivial_resolution_gives_zero(self):
        # A single projector equal to the identity has zero deviation.
        val, subset = subset_norm_conjecture([np.eye(8)], _unit_states(4, 3, 1))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_greedy_never_exceeds_brute(self):
        projs = _projector_resolution(8, 4, 2)
        states = _unit_states(4, 3, 3)
        vb, _ = subset_norm_conjecture(projs, states, mode="brute")
        vg, _ = subset_norm_conjecture(projs, states, mode="greedy", rng=RngStream(4))
        assert vg <= vb + 1e-15

    @pytest.mark.parametrize(
        "N, P, L, seed", [(6, 2, 12, 5), (6, 2, 12, 11), (4, 3, 12, 2), (4, 2, 8, 12)]
    )
    def test_a_witness_both_modes_find_has_one_value(self, N, P, L, seed):
        values = {}
        for mode in ("brute", "greedy"):
            params = {"N": N, "P": P, "L": L, "mode": mode, "restarts": 8}
            values[mode] = run(ExperimentConfig("conjecture", params, seed=seed))["values"]
        assert values["greedy"]["witness"] == values["brute"]["witness"]
        assert values["greedy"]["value"] == values["brute"]["value"]

    def test_brute_witness_attains_value(self):
        projs = _projector_resolution(8, 4, 5)
        states = _unit_states(4, 2, 6)
        from phaselab.relaxations import _subset_value_terms

        terms = _subset_value_terms(projs, states)
        val, subset = subset_norm_conjecture(projs, states, mode="brute")
        assert operator_norm(sum(terms[i] for i in subset)) == pytest.approx(val)

    def test_rejects_incomplete_resolution(self):
        projs = _projector_resolution(8, 4, 7)[:-1]
        with pytest.raises(ValueError):
            subset_norm_conjecture(projs, _unit_states(4, 2, 8))

    def test_rejects_nonunit_states(self):
        projs = _projector_resolution(8, 4, 9)
        with pytest.raises(ValueError):
            subset_norm_conjecture(projs, [np.ones(4)])
        # The one unit-vector check: a norm of 1 + 5e-9 is refused here as by an advice adversary.
        state = np.full(4, 0.5) * (1 + 5e-9)
        with pytest.raises(ValueError, match="not a unit vector"):
            subset_norm_conjecture(projs, [state])
        with pytest.raises(ValueError, match="not a unit vector"):
            advice_state_adversary(np.eye(8), state)

    def test_brute_cutoff(self, monkeypatch):
        projs = _projector_resolution(8, 8, 10)
        monkeypatch.setattr(relaxations, "SUBSET_CUTOFF", 4)
        with pytest.raises(CapacityError, match="cutoff 4"):
            subset_norm_conjecture(projs, _unit_states(4, 2, 11))

    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from(["random", "rank-1", "near-identity", "identity", "zero"]),
        st.floats(min_value=-6.0, max_value=3.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_norm_bound_dominates_the_norm(self, P, kind, log_scale, seed):
        g = np.random.default_rng(seed)
        Z = g.standard_normal((6, P, P)) + 1j * g.standard_normal((6, P, P))
        c = g.standard_normal(6)[:, None, None]
        v = Z[..., 0]
        S = {
            "random": Z,
            "rank-1": c * v[:, :, None] * v.conj()[:, None, :],
            "near-identity": c * np.eye(P) + 1e-9 * Z,
            "identity": c * np.eye(P),
            "zero": 0 * Z,
        }[kind]
        S = relaxations._hermitian_part(10.0**log_scale * S)
        # Rank-1 matrices and multiples of the identity attain the bound, so rounding may put
        # it an ulp under the eigensolve: the allowance covers that.
        bounds, allowance = relaxations._norm_bounds(S.copy())
        assert np.all(bounds + allowance >= operator_norm(S))

    @pytest.mark.parametrize("N, P, L", [(4, 2, 1), (5, 2, 5), (6, 2, 12), (7, 4, 14)])
    def test_brute_matches_the_per_subset_loop(self, N, P, L, monkeypatch):
        projs = _projector_resolution(N * P, L, 20 + L)
        states = _unit_states(N, 3, 40 + L)
        stacks = []

        def spy(m):
            stacks.append(np.array(m).reshape(-1, P, P))
            return operator_norm(m)

        monkeypatch.setattr(relaxations, "operator_norm", spy)
        got = subset_norm_conjecture(projs, states, mode="brute")
        terms = relaxations._subset_value_terms(projs, states)
        assert got == _reference_brute(terms)
        # Every matrix whose norm is taken is its subset's sequential sum bit for bit
        # (adding 0j reads -0.0 as 0.0); the sums are distinct, so each names one subset.
        sums = [np.zeros_like(terms[0])] + _reference_sums(terms)
        subset_of = {(s + 0j).tobytes(): bits for bits, s in enumerate(sums)}
        assert len(subset_of) == 1 << L
        evaluated = [subset_of[(m + 0j).tobytes()] for m in np.concatenate(stacks)]
        # A subset whose norm is never taken cannot win.
        skipped = sorted(set(range(1 << L)) - set(evaluated))
        if skipped:
            assert np.all(operator_norm(np.stack([sums[bits] for bits in skipped])) < got[0])
        if (N, P, L) == (6, 2, 12):
            assert len(evaluated) < (1 << L) - 1

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @example(N=6, P=1, pick=3, K=2, seed=1)  # P = 1, L = 6
    @example(N=3, P=2, pick=0, K=1, seed=2)  # the trivial resolution: L = 1
    @example(N=7, P=4, pick=4, K=3, seed=3)  # L = 14 in four blocks
    @settings(max_examples=25, deadline=None)
    def test_brute_equals_the_per_subset_loop_on_random_sizes(self, N, P, pick, K, seed):
        dim = N * P
        divisors = [L for L in range(1, dim + 1) if dim % L == 0]
        projs = _projector_resolution(dim, divisors[pick % len(divisors)], seed)
        states = _unit_states(N, K, seed + 1)
        terms = relaxations._subset_value_terms(projs, states)
        assert subset_norm_conjecture(projs, states, mode="brute") == _reference_brute(terms)

    def test_pass_two_norms_only_the_sums_whose_bound_reaches_the_cut(self, monkeypatch):
        # P = 8, L = 8: one block of 256 sums, of which 250 reach the cut, so more than half
        # the block and not all of it is normed.
        projs = _projector_resolution(32, 8, 3)
        terms = relaxations._subset_value_terms(projs, _unit_states(4, 3, 4))
        bounds, norms = [], []
        norm_bounds = relaxations._norm_bounds

        def bound_spy(S):
            b, allowance = norm_bounds(S)
            bounds.append(b + allowance)
            return b, allowance

        def norm_spy(m):
            norms.append(operator_norm(m))
            return norms[-1]

        monkeypatch.setattr(relaxations, "_norm_bounds", bound_spy)
        monkeypatch.setattr(relaxations, "operator_norm", norm_spy)
        assert relaxations._brute_subset_max(terms) == _reference_brute(terms)
        # Pass 1 norms the block's top-bound sum alone, pass 2 every sum reaching the cut.
        assert len(bounds) == 1 and [len(v) for v in norms[:1]] == [1]
        kept = int(np.count_nonzero(bounds[0] >= norms[0][0] - 1e-12))
        assert [len(v) for v in norms[1:]] == [kept]
        assert 128 < kept < 256

    def test_near_tie_chain_takes_every_norm(self):
        # 1 x 1 terms: one large value and steps 0.9e-15 * 2^i, so the subset norms form a
        # chain of near-ties (closer than the scan's 1e-15) running across the pruning cut.
        # Skipping the sums below the cut would move where the scan's chain of acceptances
        # starts, and with it the witness.
        terms = np.zeros((12, 1, 1), dtype=np.complex128)
        terms[0] = 1e-4
        terms[1:, 0, 0] = 0.9e-15 * 2.0 ** np.arange(11)
        assert relaxations._brute_subset_max(terms) == _reference_brute(terms)

    def test_terms_are_hermitian_so_norms_take_the_eigvalsh_route(self, monkeypatch):
        projs = _projector_resolution(12, 6, 70)
        states = _unit_states(4, 3, 71)
        terms = relaxations._subset_value_terms(projs, states)
        assert np.array_equal(terms, np.swapaxes(terms.conj(), -1, -2))
        routes = []
        route_norms = numerics._route_norms
        monkeypatch.setattr(
            numerics, "_route_norms", lambda a, herm: routes.append(herm) or route_norms(a, herm)
        )
        subset_norm_conjecture(projs, states, mode="brute")
        subset_norm_conjecture(projs, states, mode="greedy", restarts=4, rng=RngStream(72))
        assert routes and all(routes)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_greedy_rejects_no_restarts(self, restarts):
        projs = _projector_resolution(8, 4, 53)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            subset_norm_conjecture(projs, _unit_states(4, 2, 54), mode="greedy", restarts=restarts)

    def test_greedy_without_a_stream_is_refused(self):
        projs = _projector_resolution(8, 4, 53)
        with pytest.raises(ValueError, match="pass an RngStream"):
            subset_norm_conjecture(projs, _unit_states(4, 2, 54), mode="greedy")

    def test_greedy_matches_the_per_candidate_loop(self):
        projs = _projector_resolution(12, 6, 50)
        states = _unit_states(4, 3, 51)
        terms = relaxations._subset_value_terms(projs, states)
        got = subset_norm_conjecture(projs, states, mode="greedy", restarts=8, rng=RngStream(52))
        assert got == _reference_greedy(terms, 8, RngStream(52))

    def test_brute_is_the_same_on_one_and_two_threads(self, monkeypatch):
        projs = _projector_resolution(28, 14, 60)
        states = _unit_states(7, 2, 61)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PHASELAB_THREADS", threads)
            results.append(subset_norm_conjecture(projs, states, mode="brute"))
        assert results[0] == results[1]

    def test_oversize_brute_refused_before_building_terms(self, monkeypatch):
        built = []
        monkeypatch.setattr(relaxations, "_subset_value_terms", lambda *a: built.append(a))
        monkeypatch.setattr(relaxations, "SUBSET_CUTOFF", 4)
        with pytest.raises(CapacityError):
            subset_norm_conjecture(_projector_resolution(8, 8, 62), _unit_states(4, 2, 63))
        assert built == []
