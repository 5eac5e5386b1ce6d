import itertools
import sys

import numpy as np
import pytest

from phaselab import bench, numerics
from phaselab.bench import (
    TailReport,
    advantage_tail_bench,
    complex_hoeffding_bench,
    default_suite,
    matrix_hoeffding_bench,
    rademacher_series_bench,
    truncated_conjugation_sampler,
    width_tail_bench,
)
from phaselab.decomposition import rescaling_diagonals, truncate_values, width
from phaselab.game import BRUTEFORCE_CUTOFF, AdversarySpec, random_family
from phaselab.numerics import (
    SAMPLE_BLOCK,
    CapacityError,
    RngStream,
    operator_norm,
    random_isometry,
    random_projector,
    random_sign_array,
)


class TestTailReport:
    def test_field_lengths_must_match(self):
        with pytest.raises(ValueError):
            TailReport(
                bound_name="x",
                thresholds=(1.0, 2.0),
                empirical=(0.1,),
                bounds=(0.5, 0.5),
                samples=10,
                passed=True,
                extras={},
            )


class TestTailReportVerdict:
    @pytest.mark.parametrize(
        "mean_ok, passed", [(True, True), (False, False), (np.True_, True), (np.False_, False)]
    )
    def test_mean_ok_is_read_as_a_truth_value(self, mean_ok, passed):
        rep = bench._tail_report("x", np.zeros(10), [1.0], [1.0], {"mean_ok": mean_ok})
        assert rep.passed is passed

    def test_tail_breach_fails_without_extras(self):
        assert not bench._tail_report("x", np.ones(100), [0.5], [0.01]).passed

    def test_bounds_are_clipped_at_one_and_samples_counted(self):
        rep = bench._tail_report("x", np.ones(7), [0.5, 2.0], [3.0, 0.25])
        assert rep.bounds == (1.0, 0.25)
        assert rep.samples == 7
        assert rep.passed

    @pytest.mark.parametrize("hits, passed", [(37, True), (38, False)])
    def test_three_sigma_slack_on_the_reports_own_sample_count(self, hits, passed):
        values = (np.arange(100) < hits).astype(float)  # tail frequency hits / 100 at 0.5
        # bound 0.25 plus 3 sqrt(0.25 * 0.75 / 100) = 0.3799
        assert bench._tail_report("x", values, [0.5], [0.25]).passed is passed


class TestRademacherSeries:
    def _coeffs(self, seed, count=6, dim=5):
        g = RngStream(seed).generator()
        return [
            g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
            for _ in range(count)
        ]

    def test_passes_on_random_coefficients(self):
        rep = rademacher_series_bench(self._coeffs(1), 300, RngStream(2))
        assert rep.passed
        assert rep.samples == 300

    def test_single_coefficient_exact(self):
        # One term: ||eps A|| = ||A|| always; the mean bound must cover it.
        A = self._coeffs(3, count=1)[0]
        rep = rademacher_series_bench([A], 100, RngStream(4))
        assert rep.passed
        assert rep.extras["mean_norm"] == pytest.approx(operator_norm(A))

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            rademacher_series_bench(self._coeffs(5), 10, RngStream(6))


@pytest.mark.parametrize("samples", [0, -1])
def test_every_sampled_bench_needs_one_sample(samples):
    V = random_isometry(4, 8, RngStream(40))
    adv = AdversarySpec(V=V, Pi=random_projector(8, 4, RngStream(41)))
    sampler, bound = truncated_conjugation_sampler(V, adv.Pi, B=2.0)
    runs = [
        lambda rng: matrix_hoeffding_bench(sampler, bound, K=2, samples=samples, rng=rng),
        lambda rng: complex_hoeffding_bench(np.full(4, 0.5), samples, rng),
        lambda rng: width_tail_bench(V, 2, samples, rng),
        lambda rng: advantage_tail_bench(adv, 2, samples, rng, mode="fixed-f"),
        lambda rng: advantage_tail_bench(adv, 2, samples, rng, mode="max-f"),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="samples must be >= 1"):
            run(RngStream(42))


class TestTruncatedConjugationSampler:
    def test_centered_over_full_enumeration(self):
        V = random_isometry(4, 8, RngStream(7))
        Pi = random_projector(8, 4, RngStream(8))
        sampler, bound = truncated_conjugation_sampler(V, Pi, B=2.0)
        total = np.zeros((8, 8), dtype=np.complex128)
        for bits in itertools.product((1.0, -1.0), repeat=4):
            g = _FixedSignGenerator(np.array(bits))
            total += sampler(g, 1)[0]
        np.testing.assert_allclose(total / 16, 0.0, atol=1e-10)

    def test_draws_match_the_direct_formula(self):
        # Each draw looks its diagonal up in a table; compare with computing it.
        V = random_isometry(4, 8, RngStream(17))
        Pi = random_projector(8, 4, RngStream(18))
        sampler, _ = truncated_conjugation_sampler(V, Pi, B=1.0)

        def direct(h):
            D, _ = rescaling_diagonals(V, h[None, :])
            DB = truncate_values(D[0], 1.0)
            return np.conj(DB)[:, None] * Pi * DB[None, :]

        ones = np.ones(4)
        for bits in itertools.product((1.0, -1.0), repeat=4):
            h = np.array(bits)
            got = sampler(_FixedSignGenerator(h), 1) - sampler(_FixedSignGenerator(ones), 1)
            np.testing.assert_allclose(got[0], direct(h) - direct(ones), atol=1e-12)

    def test_norm_bound_respected(self):
        V = random_isometry(4, 8, RngStream(9))
        Pi = random_projector(8, 4, RngStream(10))
        B = 1.5
        sampler, bound = truncated_conjugation_sampler(V, Pi, B)
        assert bound == pytest.approx(2 * B * B)
        g = RngStream(11).generator()
        for _ in range(50):
            assert operator_norm(sampler(g, 1)[0]) <= bound + 1e-9

    @pytest.mark.parametrize("count", [1, 5, 70])
    def test_a_stack_equals_successive_draws(self, count):
        V = random_isometry(5, 10, RngStream(26))
        Pi = random_projector(10, 5, RngStream(27))
        sampler, _ = truncated_conjugation_sampler(V, Pi, B=1.5)
        g, h = RngStream(28).generator(), RngStream(28).generator()
        stack = sampler(g, count)
        assert stack.shape == (count, 10, 10)
        np.testing.assert_array_equal(stack, np.concatenate([sampler(h, 1) for _ in range(count)]))
        np.testing.assert_array_equal(sampler(g, 1), sampler(h, 1))  # both streams end in step


class _FixedSignGenerator:
    """Stands in for a Generator, emitting one prescribed sign pattern."""

    def __init__(self, signs):
        self._signs = signs
        self.bit_generator = self

    def random_raw(self, size):
        # Packed sign bits (1 means -1), read as little-endian 64-bit words.
        bits = np.zeros(64 * size, dtype=np.uint8)
        bits[: self._signs.size] = self._signs < 0
        return np.packbits(bits).view("<u8")


class TestMatrixHoeffding:
    def test_passes_for_truncated_conjugations(self):
        V = random_isometry(6, 12, RngStream(12))
        Pi = random_projector(12, 6, RngStream(13))
        sampler, bound = truncated_conjugation_sampler(V, Pi, B=2.0)
        rep = matrix_hoeffding_bench(sampler, bound, K=8, samples=200, rng=RngStream(14))
        assert rep.passed


class TestStackedSampleNorms:
    """Each bench block takes one stacked norm; the samples equal the per-sample loop's."""

    @staticmethod
    def _stacked_results(monkeypatch):
        results = []

        def spy(m):
            out = operator_norm(m)
            results.append(out)
            return out

        monkeypatch.setattr(bench, "operator_norm", spy)
        return results

    def test_rademacher_matches_the_per_sample_loop(self, monkeypatch):
        C = TestRademacherSeries()._coeffs(30)
        results = self._stacked_results(monkeypatch)
        rademacher_series_bench(C, 150, RngStream(31))
        stacks = [r for r in results if np.ndim(r) == 1]
        assert [len(r) for r in stacks] == [64, 64, 22]
        for b, got in enumerate(stacks):
            signs = random_sign_array(RngStream(31).child(b).generator(), (len(got), len(C)))
            want = [operator_norm(np.tensordot(s, np.stack(C), axes=1)) for s in signs]
            np.testing.assert_array_equal(got, want)

    def test_matrix_hoeffding_matches_the_per_sample_loop(self, monkeypatch):
        sampler, bound = truncated_conjugation_sampler(
            random_isometry(4, 8, RngStream(32)), random_projector(8, 4, RngStream(33)), B=1.5
        )
        results = self._stacked_results(monkeypatch)
        matrix_hoeffding_bench(sampler, bound, K=3, samples=70, rng=RngStream(34))
        assert [len(r) for r in results] == [64, 6]
        for b, got in enumerate(results):
            g = RngStream(34).child(b).generator()
            want = []
            for _ in got:
                acc = np.zeros((8, 8), dtype=np.complex128)
                for _ in range(3):
                    acc += sampler(g, 1)[0]
                want.append(operator_norm(acc))
            np.testing.assert_array_equal(got, want)


class TestComplexHoeffding:
    def test_passes_and_normalizes_second_moment(self):
        rep = complex_hoeffding_bench(np.full(32, 1.0 / np.sqrt(32)) ** 1, 400, RngStream(15))
        assert rep.passed
        assert rep.extras["second_moment"] == pytest.approx(1.0, abs=0.2)

    def test_thresholds_and_bounds(self):
        w = np.full(16, 0.25)
        rep = complex_hoeffding_bench(w, 200, RngStream(16))
        var = float(np.sum(w**2))
        for t, b in zip(rep.thresholds, rep.bounds):
            assert b == pytest.approx(min(1.0, 2.0 * np.exp(-t * t / (2 * var))))


class TestWidthTail:
    def test_passes_and_reports_mean(self):
        V = random_isometry(8, 24, RngStream(17))
        rep = width_tail_bench(V, K=8, samples=96, rng=RngStream(18))
        assert rep.passed
        assert rep.extras["mean_width"] >= 1.0

    def test_one_isometry_check_per_block(self, monkeypatch):
        calls = []
        original = numerics.check_isometry

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("phaselab") and getattr(module, "check_isometry", None) is original:
                monkeypatch.setattr(module, "check_isometry", spy)
        V = random_isometry(8, 24, RngStream(24))
        rep = width_tail_bench(V, K=8, samples=200, rng=RngStream(25))
        blocks = -(-200 // SAMPLE_BLOCK)
        assert len(calls) == 1 + blocks  # at entry, before any draw, then by each block's width
        # The stacked widths equal the per-family widths bit for bit.
        families = [
            random_family(min(SAMPLE_BLOCK, 200 - b * SAMPLE_BLOCK) * 8, 8, RngStream(25).child(b))
            for b in range(blocks)
        ]
        per_family = [width(V, R) for F in families for R in F.reshape(-1, 8, 8)]
        assert rep.extras["mean_width"] == float(np.mean(per_family))


class TestAdvantageTail:
    def _adv(self, seed):
        rng = RngStream(seed)
        return AdversarySpec(
            V=random_isometry(6, 10, rng.child(0)),
            Pi=random_projector(10, 5, rng.child(1)),
        )

    def test_fixed_f_passes(self):
        rep = advantage_tail_bench(self._adv(19), K=8, samples=96, rng=RngStream(20))
        assert rep.passed
        assert rep.extras["mode"] == "fixed-f"

    def test_max_f_passes(self):
        rep = advantage_tail_bench(
            self._adv(21), K=8, samples=64, rng=RngStream(22), mode="max-f"
        )
        assert rep.passed

    def _wide_adv(self, M, seed):
        rng = RngStream(seed)
        return AdversarySpec(
            V=random_isometry(6, M, rng.child(0)), Pi=random_projector(M, M // 2, rng.child(1))
        )

    def test_max_f_runs_up_to_the_exact_search_cutoff(self):
        adv = self._wide_adv(14, 23)
        rep = advantage_tail_bench(adv, K=8, samples=32, rng=RngStream(24), mode="max-f")
        assert rep.samples == 32
        assert rep.extras["mode"] == "max-f"

    def test_max_f_refuses_past_the_cutoff_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(bench, "random_family", lambda *a: drawn.append(a))
        adv = self._wide_adv(BRUTEFORCE_CUTOFF + 1, 25)
        with pytest.raises(CapacityError, match=f"cutoff M = {BRUTEFORCE_CUTOFF}"):
            advantage_tail_bench(adv, K=8, samples=32, rng=RngStream(26), mode="max-f")
        assert drawn == []


class TestDefaultSuite:
    def test_same_reports_for_any_thread_count(self, monkeypatch):
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv(numerics.THREADS_ENV, threads)
            reports.append(default_suite(seed=6, samples=150))
        assert reports[0] == reports[1]

    def test_six_reports_deterministic(self):
        a = default_suite(seed=5, samples=160)
        b = default_suite(seed=5, samples=160)
        assert len(a) == 6
        names = [r.bound_name for r in a]
        assert len(set(names)) == 6
        for ra, rb in zip(a, b):
            assert ra == rb
