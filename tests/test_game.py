import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab
from phaselab import game
from phaselab.game import (
    BRUTEFORCE_CUTOFF,
    AdversarySpec,
    acceptance_probability,
    advantage_given_f,
    advantage_kernel,
    check_family,
    check_signs,
    haar_average_acceptance,
    kernel_quadratic_form,
    max_abs_quadratic,
    max_advantage_bruteforce,
    max_advantage_localsearch,
    phase_state,
    random_family,
    sign_rows,
    simulate_game,
)
from phaselab.numerics import (
    CapacityError,
    RngStream,
    random_isometry,
    random_projector,
    random_sign_array,
)


def _random_adversary(N, M, rank, seed):
    rng = RngStream(seed)
    return AdversarySpec(
        V=random_isometry(N, M, rng.child(0)),
        Pi=random_projector(M, rank, rng.child(1)),
    )


def _direct_acceptance(adv, h, f):
    """Independent route to p(h | f): the state w = f o V psi_h and Re(w^H Pi w)."""
    w = f * (adv.V @ phase_state(h))
    return float(np.real(np.vdot(w, adv.Pi @ w)))


def _lexfirst_max(B):
    """Maximum of |f^T B f| over f with f_1 = +1 and its lexicographically first maximizer."""
    fs = [np.array((1.0,) + t) for t in itertools.product((1.0, -1.0), repeat=B.shape[0] - 1)]
    vals = [abs(float(np.real(f @ B @ f))) for f in fs]
    i = int(np.argmax(vals))
    return vals[i], fs[i]


def _reference_localsearch(B, restarts, rng):
    """The per-restart hill climb: restart r climbs alone from row r of one draw of signs."""
    m = B.shape[0]
    diag = np.real(np.diagonal(B))
    best_val, best_f = -1.0, np.ones(m)
    starts = random_sign_array(rng.generator(), (restarts, m))
    for r in range(restarts):
        f = starts[r].copy()
        grad = B @ f
        q = float(np.real(f @ grad))
        improved = True
        while improved:
            improved = False
            s = 2.0 * np.real(grad) - 2.0 * diag * f
            cand = np.abs(q - 2.0 * f * s)
            i = int(np.argmax(cand))
            if cand[i] > abs(q) + 1e-12:
                grad = grad - 2.0 * f[i] * B[:, i]
                q = float(q - 2.0 * f[i] * s[i])
                f[i] = -f[i]
                improved = True
        if abs(q) > best_val:
            best_val, best_f = abs(q), f.copy()
    return best_val, best_f


def _random_kernels(shape, m, seed, complex_=False):
    g = np.random.default_rng(seed)
    K = g.standard_normal((*shape, m, m))
    if complex_:
        K = K + 1j * g.standard_normal((*shape, m, m))
    return K


class TestValidatorsAndStates:
    def test_check_signs_rejects_nonsign(self):
        with pytest.raises(ValueError):
            check_signs([1.0, 0.5])

    def test_check_family_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_family(np.ones(4))

    def test_random_family_entries(self):
        R = random_family(5, 8, RngStream(0))
        assert R.shape == (5, 8)
        assert set(np.unique(R)) <= {-1.0, 1.0}

    def test_phase_state_is_unit(self):
        h = random_sign_array(RngStream(1).generator(), 16)
        psi = phase_state(h)
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(psi), 1.0 / 4.0)

    def test_adversary_spec_validates(self):
        with pytest.raises(ValueError):
            AdversarySpec(V=np.ones((4, 2)), Pi=np.eye(4))

    def test_adversary_spec_keeps_weights_and_mask(self):
        V = np.vstack([random_isometry(3, 5, RngStream(4)), np.zeros((1, 3))])
        adv = AdversarySpec(V=V, Pi=np.eye(6))
        np.testing.assert_array_equal(adv.weights, np.sum(np.abs(V) ** 2, axis=1) / 3)
        assert adv.mask.tolist() == [False] * 5 + [True]

    @pytest.mark.parametrize("name", ["V", "Pi", "weights", "mask"])
    def test_adversary_spec_arrays_read_only(self, name):
        adv = _random_adversary(3, 5, 2, 5)
        with pytest.raises(ValueError):
            getattr(adv, name)[0] = 0

    def test_adversary_spec_accepts_isometry_within_tolerance(self):
        # V^H V = (1 + 6e-9) Id passes the 1e-8 isometry check, though the
        # weights then sum to 1 + 6e-9.
        V = (1 + 3e-9) * random_isometry(4, 7, RngStream(6))
        adv = AdversarySpec(V=V, Pi=random_projector(7, 3, RngStream(7)))
        assert adv.weights.sum() == pytest.approx(1 + 6e-9, abs=1e-12)

    def test_sign_rows_lexicographic(self):
        np.testing.assert_array_equal(
            sign_rows(3), np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        )


class TestAcceptanceProbability:
    def test_matches_direct_formula(self):
        adv = _random_adversary(4, 6, 3, 10)
        h = random_sign_array(RngStream(11).generator(), 4)
        f = random_sign_array(RngStream(12).generator(), 6)
        assert acceptance_probability(adv, h, f) == pytest.approx(_direct_acceptance(adv, h, f))

    def test_identity_projector_accepts_always(self):
        adv = AdversarySpec(V=random_isometry(4, 6, RngStream(1)), Pi=np.eye(6))
        h = random_sign_array(RngStream(2).generator(), 4)
        assert acceptance_probability(adv, h, np.ones(6)) == pytest.approx(1.0)

    def test_haar_average_equals_exhaustive_mean(self):
        # Independent oracle: the state-vector formula over all 2^N sign functions at N=8.
        adv = _random_adversary(8, 12, 5, 20)
        f = random_sign_array(RngStream(21).generator(), 12)
        total = sum(_direct_acceptance(adv, h, f) for h in sign_rows(8))
        assert haar_average_acceptance(adv, f) == pytest.approx(total / 256, abs=1e-12)

    @pytest.mark.parametrize("which", ["ones", "random"])
    def test_advantage_given_f_is_mean_of_per_row_acceptance(self, which):
        # Independent oracle: the state-vector formula per family row and over all 2^N rows.
        adv = _random_adversary(8, 10, 5, 22)
        R = random_family(16, 8, RngStream(23))
        f = np.ones(10) if which == "ones" else random_sign_array(RngStream(24).generator(), 10)
        rows = np.mean([_direct_acceptance(adv, r, f) for r in R])
        haar = np.mean([_direct_acceptance(adv, h, f) for h in sign_rows(8)])
        assert advantage_given_f(adv, R, f) == pytest.approx(abs(rows - haar), abs=1e-12)

    def test_advantage_given_f_rejects_wrong_oracle_length(self):
        adv = _random_adversary(4, 6, 3, 25)
        with pytest.raises(ValueError, match="oracle length"):
            advantage_given_f(adv, random_family(2, 4, RngStream(26)), np.ones(5))


class TestAcceptanceTolerance:
    # V^H V = (1 + 8e-9) Id passes AdversarySpec's 1e-8 isometry check, and with
    # Pi = Id every acceptance probability is 1 + 8e-9 before the clamp.
    def _adversary(self):
        return AdversarySpec(V=random_isometry(4, 6, RngStream(1)) * (1 + 4e-9), Pi=np.eye(6))

    def test_every_route_returns_one(self, monkeypatch):
        adv = self._adversary()
        h = random_sign_array(RngStream(2).generator(), 4)
        R = random_family(3, 4, RngStream(3))
        f = random_sign_array(RngStream(4).generator(), 6)
        assert _direct_acceptance(adv, h, f) > 1 + 5e-9
        assert acceptance_probability(adv, h, f) == 1.0
        assert haar_average_acceptance(adv, f) == 1.0
        assert advantage_given_f(adv, R, f) == 0.0
        seen = []
        acceptance = game._acceptance
        monkeypatch.setattr(game, "_acceptance", lambda *a: seen.append(acceptance(*a)) or seen[-1])
        simulate_game(adv, R, f, 100, RngStream(5))
        assert len(seen) == 2 and all(np.all(p == 1.0) for p in seen)

    def test_rejects_a_probability_beyond_the_tolerance(self):
        adv = self._adversary()
        Q = game._acceptance_form(adv, np.ones(6))
        with pytest.raises(ValueError, match="outside \\[0, 1\\] tolerance"):
            game._acceptance(adv, 1.01 * Q, np.ones((1, 4)))


class TestAdvantageKernel:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_kernel_quadratic_form_matches_direct_advantage(self, seed):
        adv = _random_adversary(6, 9, 4, seed)
        R = random_family(3, 6, RngStream(seed).child(5))
        f = random_sign_array(RngStream(seed).child(6).generator(), 9)
        B = advantage_kernel(adv, R)
        assert abs(kernel_quadratic_form(B, f)) == pytest.approx(
            advantage_given_f(adv, R, f), abs=1e-12
        )

    def test_kernel_is_hermitian(self):
        adv = _random_adversary(6, 9, 4, 3)
        B = advantage_kernel(adv, random_family(3, 6, RngStream(4)))
        np.testing.assert_allclose(B, B.conj().T, atol=1e-12)

    def test_global_sign_flip_invariance(self):
        adv = _random_adversary(5, 7, 3, 8)
        R = random_family(2, 5, RngStream(9))
        f = random_sign_array(RngStream(10).generator(), 7)
        assert advantage_given_f(adv, R, f) == pytest.approx(
            advantage_given_f(adv, R, -f)
        )


class TestBruteForce:
    def test_m2_hand_enumeration(self):
        # With M = 2 only f = (+1, +1) and (+1, -1) matter (global flip).  The
        # family repeats one state up to sign: a family holding both N = 2 phase
        # states averages to Id/2, so both candidates would give 0 up to rounding.
        adv = _random_adversary(2, 2, 1, 30)
        R = random_family(2, 2, RngStream(32))
        candidates = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
        vals = [advantage_given_f(adv, R, f) for f in candidates]
        assert abs(vals[0] - vals[1]) > 1e-9
        best, f = max_advantage_bruteforce(adv, R)
        assert best == pytest.approx(max(vals), abs=1e-14)
        np.testing.assert_array_equal(f, candidates[int(np.argmax(vals))])

    def test_matches_exhaustive_loop_at_m8(self):
        adv = _random_adversary(6, 8, 4, 40)
        R = random_family(4, 6, RngStream(41))
        exhaustive = max(
            advantage_given_f(adv, R, np.array(bits))
            for bits in itertools.product((1.0, -1.0), repeat=8)
        )
        best, f = max_advantage_bruteforce(adv, R)
        assert best == pytest.approx(exhaustive, abs=1e-12)
        assert advantage_given_f(adv, R, f) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10])
    def test_matches_lexicographic_enumeration(self, m):
        n = max(1, m // 2)
        adv = _random_adversary(n, m, n, 60 + m)
        R = random_family(3, n, RngStream(70 + m))
        ref_val, ref_f = _lexfirst_max(advantage_kernel(adv, R))
        best, f = max_advantage_bruteforce(adv, R)
        assert best == pytest.approx(ref_val, abs=1e-12)
        np.testing.assert_array_equal(f, ref_f)

    @pytest.mark.parametrize("B", [np.zeros((5, 5)), np.diag([0.3, -0.1, 0.25, 0.0, -0.05])])
    def test_ties_break_to_all_ones(self, B):
        best, f = max_abs_quadratic(B)
        assert best == pytest.approx(abs(np.trace(B)), abs=1e-15)
        np.testing.assert_array_equal(f, np.ones(5))

    def test_dominates_localsearch_at_cutoff(self):
        adv = _random_adversary(8, BRUTEFORCE_CUTOFF, BRUTEFORCE_CUTOFF // 2, 46)
        R = random_family(4, 8, RngStream(47))
        B = advantage_kernel(adv, R)
        best, f = max_advantage_bruteforce(adv, R)
        local, _ = max_advantage_localsearch(adv, R, rng=RngStream(48))
        assert abs(kernel_quadratic_form(B, f)) == pytest.approx(best, abs=1e-12)
        assert best >= local - 1e-12

    def test_witness_first_coordinate_positive(self):
        adv = _random_adversary(4, 6, 3, 42)
        _, f = max_advantage_bruteforce(adv, random_family(3, 4, RngStream(43)))
        assert f[0] == 1.0

    def test_cutoff_raises_capacity_error(self, monkeypatch):
        adv = _random_adversary(4, BRUTEFORCE_CUTOFF + 1, 4, 44)
        built = []
        monkeypatch.setattr(game, "advantage_kernel", lambda *a: built.append(a))
        with pytest.raises(CapacityError, match=f"cutoff M = {BRUTEFORCE_CUTOFF}"):
            max_advantage_bruteforce(adv, random_family(2, 4, RngStream(45)))
        assert built == []


class TestLocalSearch:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_never_exceeds_bruteforce(self, seed):
        adv = _random_adversary(5, 8, 4, seed)
        R = random_family(3, 5, RngStream(seed).child(7))
        best, _ = max_advantage_bruteforce(adv, R)
        local, f = max_advantage_localsearch(adv, R, rng=RngStream(seed).child(8))
        assert local <= best + 1e-10
        assert advantage_given_f(adv, R, f) == pytest.approx(local, abs=1e-10)

    def test_usually_finds_optimum_at_small_m(self):
        hits = 0
        for seed in range(20):
            adv = _random_adversary(5, 8, 4, 100 + seed)
            R = random_family(3, 5, RngStream(200 + seed))
            best, _ = max_advantage_bruteforce(adv, R)
            local, _ = max_advantage_localsearch(adv, R, rng=RngStream(300 + seed))
            hits += local >= best - 1e-9
        assert hits >= 15

    def test_deterministic_given_stream(self):
        adv = _random_adversary(6, 10, 5, 50)
        R = random_family(4, 6, RngStream(51))
        a = max_advantage_localsearch(adv, R, rng=RngStream(52))
        b = max_advantage_localsearch(adv, R, rng=RngStream(52))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])


class TestLockstepLocalSearch:
    """The lockstep climb equals the per-restart loop bit for bit, value and witness."""

    @staticmethod
    def _run(monkeypatch, B, restarts, seed):
        monkeypatch.setattr(game, "advantage_kernel", lambda adv, R: B)
        # R is checked as one family before the (patched) kernel is built.
        R = np.ones((1, 1))
        return max_advantage_localsearch(None, R, restarts=restarts, rng=RngStream(seed))

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_restart_loop(self, m, restarts, seed):
        K = _random_kernels((), m, seed, complex_=True)
        B = K + K.conj().T
        with pytest.MonkeyPatch.context() as mp:
            val, f = self._run(mp, B, restarts, seed)
        ref_val, ref_f = _reference_localsearch(B, restarts, RngStream(seed))
        assert val == ref_val
        np.testing.assert_array_equal(f, ref_f)

    @pytest.mark.parametrize(
        "B",
        [np.zeros((7, 7)), np.ones((9, 9)), np.diag([1.0, -1.0] * 5)],
        ids=["zero", "tied", "diag"],
    )
    def test_zero_and_tied_kernels(self, monkeypatch, B):
        val, f = self._run(monkeypatch, B, 6, 3)
        ref_val, ref_f = _reference_localsearch(B, 6, RngStream(3))
        assert val == ref_val
        np.testing.assert_array_equal(f, ref_f)

    def test_on_an_adversary_kernel(self):
        adv = _random_adversary(16, 48, 24, 90)
        R = random_family(8, 16, RngStream(91))
        val, f = max_advantage_localsearch(adv, R, restarts=5, rng=RngStream(92))
        ref_val, ref_f = _reference_localsearch(advantage_kernel(adv, R), 5, RngStream(92))
        assert val == ref_val
        np.testing.assert_array_equal(f, ref_f)


def _lex_signs(m, idx):
    """The sign vectors f with f_1 = +1 at lexicographic indices idx."""
    idx = np.asarray(idx)[..., None]
    tail = 1.0 - 2.0 * ((idx >> np.arange(m - 2, -1, -1)) & 1)
    return np.concatenate([np.ones_like(tail[..., :1]), tail], axis=-1)


def _lex_values(K):
    """|f^T K f| for every f with f_1 = +1, in lexicographic order, by chunked enumeration."""
    m, out = K.shape[0], []
    for start in range(0, 1 << (m - 1), 1 << 14):
        F = _lex_signs(m, np.arange(start, min(start + (1 << 14), 1 << (m - 1))))
        out.append(np.abs(np.sum((F @ K) * F, axis=1)))
    return np.concatenate(out)


def _structured_kernel(kind, m, seed, complex_):
    K = _random_kernels((), m, seed, complex_)
    ka = (m + 1) // 2
    if kind == "rank1":
        K = np.outer(K[0], K[1])
    elif kind == "blockdiag":  # K_ab = K_ba = 0: v = q_a + q_b
        K[:ka, ka:] = K[ka:, :ka] = 0.0
    elif kind == "tied":  # q_a = (sum a)^2 ties across many rows, no cross term
        K[:ka, :ka], K[:ka, ka:], K[ka:, :ka] = 1.0, 0.0, 0.0
    return K


class TestPrunedSearch:
    """The search that skips bounded-out a-rows equals the full scan bit for bit."""

    @staticmethod
    def _full_scan(K):
        """The search with nothing skipped: every row bound is infinite."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(game, "_row_bounds", lambda Fa, *a: (np.full(len(Fa), np.inf), 0.0))
            return max_abs_quadratic(K)

    def _assert_matches_full_scan(self, K):
        val, f = max_abs_quadratic(K)
        ref_val, ref_f = self._full_scan(K)
        assert val == ref_val
        np.testing.assert_array_equal(f, ref_f)
        return val, f

    @given(
        st.integers(min_value=2, max_value=12),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(["random", "rank1", "blockdiag", "tied"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_bound_covers_every_value(self, m, complex_, seed, exponent, kind):
        K = _structured_kernel(kind, m, seed, complex_) * 10.0**exponent
        ka = (m + 1) // 2
        Fa, Fb = sign_rows(ka)[: 1 << (ka - 1)], sign_rows(m - ka)
        qa = np.sum((Fa @ K[:ka, :ka]) * Fa, axis=1)
        qb = np.sum((Fb @ K[ka:, ka:]) * Fb, axis=1)
        U, slack = game._row_bounds(Fa, qa, K[:ka, ka:] + K[ka:, :ka].T, qb)
        vals = _lex_values(K)
        assert np.all(vals.reshape(len(Fa), len(Fb)) <= (U + slack)[:, None])
        assert np.all(slack <= 1e-8 * (np.abs(qa) + np.abs(K).sum() * 2 + np.abs(qb).max()))

    @pytest.mark.parametrize("m", range(13, 21))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_lexicographic_enumeration(self, m, complex_):
        K = _random_kernels((), m, 200 + m, complex_)
        val, f = self._assert_matches_full_scan(K)
        vals = _lex_values(K)
        assert val == pytest.approx(vals.max(), rel=1e-13)
        np.testing.assert_array_equal(f, _lex_signs(m, np.argmax(vals >= vals.max() * (1 - 1e-13))))

    @given(
        st.integers(min_value=17, max_value=20),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["random", "rank1", "blockdiag", "tied"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_structured_kernels_match_the_full_scan(self, m, complex_, seed, kind):
        self._assert_matches_full_scan(_structured_kernel(kind, m, seed, complex_))

    @pytest.mark.parametrize("kind", ["blockdiag", "tied"])
    def test_planted_ties_give_the_first_maximizer(self, kind):
        K = _structured_kernel(kind, 18, 5, False)
        val, f = self._assert_matches_full_scan(K)
        vals = _lex_values(K)
        assert np.sum(vals >= val * (1 - 1e-13)) > 1
        np.testing.assert_array_equal(f, _lex_signs(18, np.argmax(vals >= val * (1 - 1e-13))))

    @pytest.mark.parametrize(
        "K",
        [
            np.zeros((18, 18)),
            np.diag(np.linspace(-1.0, 2.0, 18)),
            np.outer(np.arange(18.0), np.ones(18)),
        ],
        ids=["zero", "diagonal", "rank1"],
    )
    def test_degenerate_kernels(self, K):
        val, f = self._assert_matches_full_scan(K)
        vals = _lex_values(K)
        assert val == pytest.approx(vals.max(), abs=1e-12)
        np.testing.assert_array_equal(f, _lex_signs(18, np.argmax(vals >= vals.max() - 1e-12)))

    def test_a_lone_kept_row_gets_the_full_scan_bits(self):
        # A generic rank-1 kernel's row bound is its row maximum, so one row is kept; numpy
        # would run a one-row GEMM as gemv, with other bits.
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(20)
            self._assert_matches_full_scan(np.outer(x, x))

    def test_fewer_rows_scored_on_an_adversary_kernel(self, monkeypatch):
        adv = _random_adversary(8, 20, 10, 120)
        K = np.real(advantage_kernel(adv, random_family(4, 8, RngStream(121))))
        scored = []
        matmul = np.matmul

        def spy(a, b, **kw):
            scored.append(a.shape[-2])
            return matmul(a, b, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "matmul", spy)
            val, f = max_abs_quadratic(K)
        assert 0 < sum(scored) < 1 << 9  # the seed's rows and the kept rows, of 2^(ka - 1)
        ref_val, ref_f = self._full_scan(K)
        assert val == ref_val
        np.testing.assert_array_equal(f, ref_f)

    def test_sign_table_is_read_only_and_unchanged_by_a_search(self):
        before = sign_rows(9).copy()
        max_abs_quadratic(_random_kernels((), 18, 9))
        adv = _random_adversary(4, 18, 9, 10)
        max_advantage_bruteforce(adv, random_family(2, 4, RngStream(11)))
        assert sign_rows(9) is sign_rows(9)
        assert not sign_rows(9).flags.writeable
        np.testing.assert_array_equal(sign_rows(9), before)
        with pytest.raises(ValueError):
            sign_rows(9)[0, 0] = 1.0

    @pytest.mark.parametrize("m", [4, 18])  # one batched block; the pruned scan
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, m, complex_, bad):
        K = _random_kernels((3,), m, 40 + m, complex_)
        K[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            max_abs_quadratic(K)
        with pytest.raises(ValueError, match="finite"):
            max_abs_quadratic(K[1])


class TestStackedSearch:
    """Stacked kernels, families and searches equal a loop of single calls bit for bit."""

    @staticmethod
    def _assert_stack_matches_loop(K):
        vals, fs = max_abs_quadratic(K)
        assert vals.shape == K.shape[:-2] and fs.shape == K.shape[:-1]
        for idx in np.ndindex(K.shape[:-2]):
            v, f = max_abs_quadratic(K[idx])
            assert vals[idx] == v
            np.testing.assert_array_equal(fs[idx], f)

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_max_abs_quadratic(self, m, complex_):
        K = _random_kernels((5,), m, 100 + m, complex_)
        K[2] = 0.0  # ties: all-ones wins
        self._assert_stack_matches_loop(K)
        np.testing.assert_array_equal(max_abs_quadratic(K)[1][2], np.ones(m))

    def test_stack_of_stacks_and_more_kernels_than_one_block(self):
        # 40 kernels at M = 12 take two blocks of kernels.
        self._assert_stack_matches_loop(_random_kernels((4, 10), 12, 7))

    def test_two_kernels_each_larger_than_one_block(self):
        # At M = 18 one search holds 2^17 values, so each kernel takes two row blocks.
        self._assert_stack_matches_loop(_random_kernels((2,), 18, 8))

    def test_bruteforce_kernel_and_advantage_over_families(self):
        adv = _random_adversary(6, 10, 5, 110)
        stack = random_family(7 * 4, 6, RngStream(111)).reshape(7, 4, 6)
        stack[3] = stack[3, :1]  # one family repeats one row
        kernels = advantage_kernel(adv, stack)
        vals, fs = max_advantage_bruteforce(adv, stack)
        f = random_sign_array(RngStream(112).generator(), 10)
        gaps = advantage_given_f(adv, stack, f)
        assert kernels.shape == (7, 10, 10) and gaps.shape == (7,)
        for k, R in enumerate(stack):
            np.testing.assert_array_equal(kernels[k], advantage_kernel(adv, R))
            v, w = max_advantage_bruteforce(adv, R)
            assert vals[k] == v
            np.testing.assert_array_equal(fs[k], w)
            assert gaps[k] == advantage_given_f(adv, R, f)


class TestSimulateGame:
    def test_win_rate_tracks_half_plus_half_gap(self):
        adv = _random_adversary(8, 12, 6, 60)
        R = random_family(4, 8, RngStream(61))
        f = random_sign_array(RngStream(62).generator(), 12)
        B = advantage_kernel(adv, R)
        signed_gap = kernel_quadratic_form(B, f)
        trials = 40_000
        win = simulate_game(adv, R, f, trials, RngStream(63))
        sigma = 0.5 / np.sqrt(trials)
        assert abs(win - (0.5 + signed_gap / 2)) < 5 * sigma

    def test_deterministic(self):
        adv = _random_adversary(4, 6, 3, 70)
        R = random_family(2, 4, RngStream(71))
        f = np.ones(6)
        assert simulate_game(adv, R, f, 5000, RngStream(72)) == simulate_game(
            adv, R, f, 5000, RngStream(72)
        )

    def test_accept_always_and_never_split_the_challenge_bits(self):
        # Pi = I accepts every state, so it wins exactly the b = 0 trials;
        # Pi = 0 never accepts and wins exactly the b = 1 trials of the same stream.
        V = random_isometry(8, 8, RngStream(74))
        R = random_family(4, 8, RngStream(75))
        f = random_sign_array(RngStream(76).generator(), 8)
        trials = 40_000
        wins = [
            simulate_game(AdversarySpec(V=V, Pi=Pi), R, f, trials, RngStream(77)) * trials
            for Pi in (np.eye(8), np.zeros((8, 8)))
        ]
        assert wins[0] + wins[1] == pytest.approx(trials, abs=1e-6)
        for w in wins:
            assert abs(w / trials - 0.5) <= 5 * 0.5 / np.sqrt(trials)

    def test_rejects_bad_trials(self):
        adv = _random_adversary(4, 6, 3, 73)
        with pytest.raises(ValueError):
            simulate_game(adv, random_family(2, 4, RngStream(0)), np.ones(6), 0, RngStream(1))


class TestChunkedScoring:
    """simulate_game scores each block's b = 1 rows in chunks; the reference draws and
    scores all of a block's rows at once, from the same streams."""

    @staticmethod
    def _ones(rng, b, size):  # b = 1 trials of block b, the stream's first draw
        return int(np.sum(rng.child(b).generator().integers(0, 2, size=size) == 1))

    @staticmethod
    def _one_shot(adv, R, f, trials, rng, accept):
        Q = game._acceptance_form(adv, f)
        p_rows, wins = accept(adv, Q, R), 0
        for b, start in enumerate(range(0, trials, game._TRIAL_BLOCK)):
            size = min(game._TRIAL_BLOCK, trials - start)
            g = rng.child(b).generator()
            ones = g.integers(0, 2, size=size) == 1
            ks = g.integers(0, len(R), size=size)
            u = g.random(size)
            p = p_rows[ks]
            p[ones] = accept(adv, Q, random_sign_array(g, (int(ones.sum()), adv.N)))
            wins += int(np.sum((u >= p) == ones))
        return wins / trials

    @pytest.mark.parametrize("N", [12, 256])  # 12 * 1024 bits is whole words, 12 is not
    @pytest.mark.parametrize("last", [None, 1025, 0, 1])  # b = 1 rows of a short last block
    def test_equals_one_shot_scoring_bit_for_bit(self, N, last, monkeypatch):
        adv = _random_adversary(N, N, N // 2, 901)
        R = random_family(8, N, RngStream(902))
        f = random_sign_array(RngStream(903).generator(), N)
        rng, size = RngStream(900), game._TRIAL_BLOCK
        if last is not None:  # the first stream and size whose last block has `last` such rows
            rng, size = next(
                (RngStream(seed), s)
                for seed in range(900, 999)
                for s in range(1, 2 * last + 64)
                if self._ones(RngStream(seed), 1, s) == last
            )
        trials = game._TRIAL_BLOCK + size
        accept, got, want = game._acceptance, [], []

        def spy(into):
            def call(*args):
                into.append(accept(*args))
                return into[-1]

            return call

        monkeypatch.setattr(game, "_acceptance", spy(got))
        win = simulate_game(adv, R, f, trials, rng)
        monkeypatch.undo()
        assert win == self._one_shot(adv, R, f, trials, rng, spy(want))
        np.testing.assert_array_equal(np.concatenate(got), np.concatenate(want))
        rows = [len(p) for p in got[1:]]  # got[0] scores the family's rows
        assert max(rows) <= game._SCORE_ROWS + 1
        if last is None:
            assert max(rows) == game._SCORE_ROWS  # blocks of about 4096 rows, in chunks
        else:
            assert rows[-1] == last  # the short last block, as one chunk

    def test_block_memory_is_bounded(self):
        # N = 256, 10^5 trials: one chunk of 1024 b = 1 rows, 2 MiB of signs, at a time,
        # not a block's 4096 (the 8192-trial blocks held about 17 MiB at once).
        import tracemalloc

        adv = _random_adversary(256, 256, 128, 910)
        R = random_family(16, 256, RngStream(911))
        f = random_sign_array(RngStream(912).generator(), 256)
        tracemalloc.start()
        try:
            simulate_game(adv, R, f, 100_000, RngStream(913))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


def _read_only(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class TestSignTablesAreNotCopied:
    """A float64 sign table is validated in place, so no caller may write into it."""

    def test_float64_input_returned_as_is(self):
        R, row = random_family(4, 8, RngStream(920)), random_family(1, 8, RngStream(921))[0]
        assert check_family(R) is R
        assert check_signs(row) is row

    def test_check_uses_no_copy_of_the_table(self):
        import tracemalloc

        R = random_family(64, 1024, RngStream(922))  # 512 KiB
        tracemalloc.start()
        try:
            check_family(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.nbytes / 2  # three Boolean masks, not a float64 copy and its |.|

    @pytest.mark.parametrize(
        "call",
        [
            lambda adv, R, f: check_family(R),
            lambda adv, R, f: check_signs(f),
            lambda adv, R, f: game.family_images(adv.V, R),
            lambda adv, R, f: phase_state(R[0]),
            lambda adv, R, f: acceptance_probability(adv, R[0], f),
            lambda adv, R, f: haar_average_acceptance(adv, f),
            lambda adv, R, f: advantage_given_f(adv, R, f),
            lambda adv, R, f: advantage_given_f(adv, np.stack([R, R]), f),
            lambda adv, R, f: advantage_kernel(adv, R),
            lambda adv, R, f: kernel_quadratic_form(advantage_kernel(adv, R), f),
            lambda adv, R, f: max_advantage_bruteforce(adv, R),
            lambda adv, R, f: max_advantage_localsearch(adv, R, 2, rng=RngStream(1)),
            lambda adv, R, f: simulate_game(adv, R, f, 100, RngStream(1)),
            lambda adv, R, f: phaselab.rescaling_diagonals(adv, R),
            lambda adv, R, f: phaselab.width(adv, R),
            lambda adv, R, f: phaselab.is_b_bounded(adv, R, 2.0),
            lambda adv, R, f: phaselab.spectral_relaxation(adv, R),
            lambda adv, R, f: phaselab.truncated_spectral_relaxation(
                adv, R, 1.0, 10, rng=RngStream(1)
            ),
            lambda adv, R, f: phaselab.decoupled_spectral_relaxation(adv, R, R),
            lambda adv, R, f: phaselab.decoupled_advantage_given_f(adv, R, R, f),
            lambda adv, R, f: phaselab.max_decoupled_bruteforce(adv, R, R),
            lambda adv, R, f: phaselab.hadamard_outcome_distribution(R),
            lambda adv, R, f: phaselab.hadamard_attack_exact_advantage(np.stack([R, R])),
            lambda adv, R, f: phaselab.hadamard_game_encoding(R),
            lambda adv, R, f: phaselab.x_statistic(R),
            lambda adv, R, f: phaselab.omniscient_distinguisher(R),
            lambda adv, R, f: phaselab.omniscient_advantage(R),
        ],
    )
    def test_read_only_tables_pass_through(self, call):
        adv = _random_adversary(8, 10, 5, 930)
        R = _read_only(random_family(4, 8, RngStream(931)))
        f = _read_only(random_sign_array(RngStream(932).generator(), 10))
        before = R.copy(), f.copy()
        call(adv, R, f)
        np.testing.assert_array_equal(R, before[0])
        np.testing.assert_array_equal(f, before[1])

    def test_integer_input_converted(self):
        out = check_family(np.array([[1, -1], [-1, 1]]))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("bad", [0.0, 2.0, np.nan, -np.inf])
    def test_non_signs_rejected(self, bad):
        with pytest.raises(ValueError, match="must all be"):
            check_family([[1.0, bad]])
