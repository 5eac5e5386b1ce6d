import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab
from phaselab import attacks, cli, game, numerics, relaxations
from phaselab.bench import BENCHES
from phaselab.cli import ExperimentConfig, _build_parser, load_instance, main, run, save_instance
from phaselab.game import BRUTEFORCE_CUTOFF, AdversarySpec, random_family
from phaselab.numerics import RngStream, random_isometry, random_projector


def _reject_constant(name):
    raise ValueError(f"record holds {name}")


def _main_io(argv):
    """(exit code, record or None) of one CLI run, checking the exit contract on the way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        return code, None
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue(), parse_constant=_reject_constant)


def _adversary(seed=1):
    rng = RngStream(seed)
    return AdversarySpec(
        V=random_isometry(4, 6, rng.child(0)),
        Pi=random_projector(6, 3, rng.child(1)),
    )


class TestInstanceRoundTrip:
    def test_adversary(self, tmp_path):
        adv = _adversary()
        path = tmp_path / "adv.json"
        save_instance(adv, str(path))
        loaded = load_instance(str(path))
        np.testing.assert_allclose(loaded.V, adv.V, atol=1e-14)
        np.testing.assert_allclose(loaded.Pi, adv.Pi, atol=1e-14)

    def test_family(self, tmp_path):
        R = random_family(3, 8, RngStream(2))
        path = tmp_path / "fam.json"
        save_instance(R, str(path))
        np.testing.assert_array_equal(load_instance(str(path)), R)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ValueError, match="kind"):
            load_instance(str(path))

    @pytest.mark.parametrize("text, match", [(None, "cannot read"), ("5", "not hold a JSON object")])
    def test_unreadable_file_is_a_value_error(self, text, match, tmp_path):
        path = tmp_path / "instance.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_instance(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "family", "K": 2}))
        with pytest.raises(ValueError, match="N"):
            load_instance(str(path))

    def test_non_sign_values_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "family", "K": 1, "N": 2, "values": [1, 2]})
        )
        with pytest.raises(ValueError, match="values"):
            load_instance(str(path))

    def test_non_isometry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        flat = [1.0] * 8
        path.write_text(
            json.dumps(
                {
                    "kind": "adversary",
                    "N": 2,
                    "M": 4,
                    "V_re": flat,
                    "V_im": [0.0] * 8,
                    "Pi_re": [0.0] * 16,
                    "Pi_im": [0.0] * 16,
                }
            )
        )
        with pytest.raises(ValueError):
            load_instance(str(path))


class TestRun:
    def test_game_record_structure(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = ExperimentConfig(
            kind="game",
            params={"N": 4, "M": 6, "K": 2, "rank": 3, "trials": 500},
            seed=3,
            out=str(out),
        )
        record = run(cfg)
        assert set(record) == {
            "kind",
            "config",
            "values",
            "wall_time_s",
            "version",
            "rng_fingerprint",
            "env",
        }
        assert set(record["env"]) == {
            "python",
            "numpy",
            "blas",
            "PHASELAB_THREADS",
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "cpu_count",
        }
        assert set(record["env"]["blas"]) == {"name", "version", "openblas configuration"}
        assert record["env"]["numpy"] == np.__version__
        assert record["values"]["method"] == "bruteforce"
        assert 0.0 <= record["values"]["max_advantage"] <= 1.0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "game"

    def test_env_records_blas_threads_as_set(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        env = cli._environment()
        assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"]["openblas configuration"] == blas.get("openblas configuration")

    def test_game_exact_up_to_cutoff(self):
        cfg = ExperimentConfig(
            kind="game", params={"N": 4, "M": 26, "K": 2, "rank": 13, "trials": 200}, seed=5
        )
        assert run(cfg)["values"]["method"] == "bruteforce"

    @pytest.mark.parametrize(
        "M, method, bound", [(26, "bruteforce", "exact"), (29, "localsearch", "lower")]
    )
    def test_game_bound_exact_or_lower(self, M, method, bound):
        cfg = ExperimentConfig(
            kind="game", params={"N": 4, "M": M, "K": 2, "rank": M // 2, "trials": 200}, seed=5
        )
        values = run(cfg)["values"]
        assert (values["method"], values["bound"]) == (method, bound)

    def test_relax_record_names_truncated_error(self):
        cfg = ExperimentConfig(
            kind="relaxation", params={"N": 8, "M": 16, "K": 4, "rank": 8, "B": 2.0, "samples": 200}, seed=3
        )
        values = run(cfg)["values"]
        assert values["truncated_spectral_error"] >= 0.0
        assert "truncated_spectral_stderr" not in values

    def test_relax_record_without_clipping_has_positive_zero_error(self):
        cfg = ExperimentConfig(
            kind="relaxation", params={"N": 8, "M": 16, "K": 4, "rank": 8, "B": 100.0, "samples": 200}, seed=3
        )
        values = run(cfg)["values"]
        assert values["truncated_spectral"] == values["spectral"]
        assert math.copysign(1.0, values["truncated_spectral_error"]) == 1.0
        assert values["truncated_spectral_error"] == 0.0

    def test_records_append(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = ExperimentConfig(
            kind="width", params={"N": 8, "M": 16, "K": 4, "samples": 32}, out=str(out)
        )
        run(cfg)
        run(cfg)
        assert len(out.read_text().strip().splitlines()) == 2

    def test_deterministic_values(self):
        cfg = ExperimentConfig(
            kind="game", params={"N": 4, "M": 6, "K": 2, "rank": 3, "trials": 500}, seed=9
        )
        assert run(cfg)["values"] == run(cfg)["values"]

    def test_game_from_saved_instance(self, tmp_path):
        adv = _adversary(4)
        path = tmp_path / "adv.json"
        save_instance(adv, str(path))
        cfg = ExperimentConfig(
            kind="game", params={"K": 2, "trials": 200}, seed=1, instance=str(path)
        )
        record = run(cfg)
        assert record["values"]["max_advantage"] >= 0.0

    @pytest.mark.parametrize("flags", [[], ["--N", "9", "--M", "5000", "--rank", "7"]])
    def test_game_instance_record_echoes_the_file_sizes(self, flags, tmp_path):
        path = tmp_path / "adv.json"
        save_instance(_adversary(), str(path))  # N = 4, M = 6
        code, record = _main_io(["game", "--instance", str(path), "--trials", "50", *flags])
        assert code == 0
        params = record["config"]["params"]
        assert (params["N"], params["M"]) == (4, 6)
        assert "rank" not in params

    def test_instance_is_refused_by_a_command_without_the_flag(self, tmp_path):
        path = tmp_path / "adv.json"
        save_instance(_adversary(), str(path))
        with pytest.raises(ValueError, match="relaxation takes no instance"):
            run(ExperimentConfig(kind="relaxation", instance=str(path)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run(ExperimentConfig(kind="nope"))

    @pytest.mark.parametrize("M, rank", [(9, 4), (1, 1)])
    def test_missing_rank_is_half_of_M(self, M, rank):
        cfg = ExperimentConfig(kind="relaxation", params={"N": 1, "M": M, "K": 2})
        assert run(cfg)["config"]["params"]["rank"] == rank

    @pytest.mark.parametrize("command", ["relax", "compress", "conjecture"])
    def test_missing_params_take_the_table_defaults(self, command, capsys):
        assert main([command, "--seed", "4"]) == 0
        printed = json.loads(capsys.readouterr().out)
        record = run(ExperimentConfig(kind=cli.COMMANDS[command].kind, seed=4))
        assert record["config"] == printed["config"]
        assert record["values"] == printed["values"]

    @pytest.mark.parametrize(
        "argv, values",
        [
            (
                ["game", "--N", "4", "--M", "6", "--K", "2", "--rank", "0", "--trials", "100"],
                {"max_advantage": 0.0, "method": "bruteforce", "bound": "exact", "win_rate": 0.52},
            ),
            (["relax", "--N", "4", "--M", "6", "--K", "2", "--rank", "0"], {"spectral": 0.0, "decoupled_spectral": 0.0}),
            (
                ["relax", "--N", "4", "--M", "6", "--K", "2", "--rank", "0", "--B", "1", "--samples", "50"],
                {"spectral": 0.0, "decoupled_spectral": 0.0, "truncated_spectral": 0.0, "truncated_spectral_error": 0.0},
            ),
        ],
    )
    def test_zero_rank_runs(self, argv, values):
        # Pi = 0, held by a 6 x 0 factor: every acceptance is 0, so a trial is won w.p. 1/2.
        code, record = _main_io([*argv, "--seed", "0"])
        assert code == 0
        assert record["values"] == values

    def test_every_command_has_its_own_kind(self):
        kinds = [c.kind for c in cli.COMMANDS.values()]
        assert len(set(kinds)) == len(kinds)


class TestMain:
    def test_game_exit_zero(self, capsys):
        code = main(
            ["game", "--N", "4", "--M", "6", "--K", "2", "--trials", "200", "--seed", "1"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "game"

    def test_bench_single(self, capsys):
        code = main(["bench", "--name", "complex", "--samples", "150", "--seed", "2"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["values"]["all_passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--draws", "0"],
            ["compress", "--trials", "0"],
            ["conjecture", "--K", "0"],
            ["conjecture", "--L", "0"],
            ["relax", "--B", "1", "--samples", "0"],
            ["bench", "--name", "complex", "--samples", "0"],
        ],
    )
    def test_empty_runs_are_invalid_input(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid input:")
        assert captured.out == ""

    def test_conjecture_and_compress(self, capsys):
        assert main(["conjecture", "--seed", "3"]) == 0
        assert main(["compress", "--seed", "4"]) == 0
        capsys.readouterr()

    def test_invalid_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        code = main(
            ["game", "--instance", str(path), "--trials", "10", "--K", "2"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", [None, "5", "[1, 2]"])
    def test_unreadable_instance_is_invalid_input(self, text, tmp_path, capsys):
        path = tmp_path / "instance.json"
        if text is not None:
            path.write_text(text)
        code = main(["game", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid input:")
        assert str(path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("B", ["0", "-1"])
    def test_nonpositive_truncation_bound_exit_code(self, B, capsys):
        code = main(["relax", "--N", "4", "--M", "8", "--K", "2", "--B", B, "--seed", "1"])
        assert code == 2
        assert "truncation bound B must be positive" in capsys.readouterr().err

    def test_capacity_exit_code(self, capsys):
        # 32 projectors exceed the subset enumeration cutoff.
        code = main(["conjecture", "--N", "16", "--P", "2", "--L", "32", "--seed", "5"])
        assert code == 3
        capsys.readouterr()

    def test_oversize_conjecture_refused_before_building_terms(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(relaxations, "_subset_value_terms", lambda *a: built.append(a))
        code = main(["conjecture", "--N", "21", "--P", "2", "--L", "21"])
        captured = capsys.readouterr()
        assert code == 3
        assert "cutoff 20" in captured.err
        assert captured.out == ""
        assert built == []

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=9) | st.just(21),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["brute", "greedy"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjecture_argument_vectors(self, N, P, L, K, mode):
        values = {}
        for m in (mode, {"brute": "greedy", "greedy": "brute"}[mode]):
            out, err = io.StringIO(), io.StringIO()
            argv = ["conjecture", "--N", str(N), "--P", str(P), "--L", str(L), "--K", str(K)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--mode", m, "--restarts", "4", "--seed", "1"])
            assert code in (0, 2, 3)
            if code == 0:
                record = json.loads(out.getvalue(), parse_constant=_reject_constant)
                values[m] = record["values"]["value"]
                assert err.getvalue() == ""
        if len(values) == 2:
            # Both norm index-order sums; brute's scan keeps a first best within 1e-15.
            assert values["brute"] >= values["greedy"] - 1e-15

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12) | st.just(29),
        st.integers(min_value=-2, max_value=4),
        st.none() | st.integers(min_value=-1, max_value=13),
        st.integers(min_value=-1, max_value=200),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_game_argument_vectors(self, N, M, K, rank, trials, localsearch):
        argv = ["game", "--N", str(N), "--M", str(M), "--K", str(K), "--trials", str(trials)]
        argv += ["--seed", "1"] + ([] if rank is None else ["--rank", str(rank)])
        argv += ["--localsearch"] if localsearch else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            record = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert err.getvalue() == ""
            exact = M <= BRUTEFORCE_CUTOFF and not localsearch
            assert (record["values"]["bound"] == "exact") == exact

    @given(
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=-3, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_attack_argument_vectors(self, n, K, draws, trials):
        argv = ["attack", "--n", str(n), "--K", str(K), "--draws", str(draws)]
        code, record = _main_io([*argv, "--trials", str(trials), "--seed", "1"])
        if trials < 0:
            assert code == 2
        if code == 0 and trials == 0:
            assert record["values"]["monte_carlo_advantage"] is None
        if code == 0 and draws == 1:
            assert record["values"]["x_statistic_variance"] is None

    def test_unmeasured_attack_values_print_null(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["attack", "--n", "2", "--K", "2", "--draws", "1", "--trials", "0"]) == 0
        assert '"monte_carlo_advantage": null' in out.getvalue()
        assert '"x_statistic_variance": null' in out.getvalue()

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-1, max_value=4),
        st.none() | st.integers(min_value=-1, max_value=13),
        st.none()
        | st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308"])
        | st.floats(min_value=1e-3, max_value=10.0).map(repr),
        st.integers(min_value=-1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_relax_argument_vectors(self, N, M, K, rank, B, samples):
        argv = ["relax", "--N", str(N), "--M", str(M), "--K", str(K), "--samples", str(samples)]
        argv += ["--seed", "1"] + ([] if rank is None else ["--rank", str(rank)])
        code, record = _main_io(argv + ([] if B is None else [f"--B={B}"]))
        if samples < 1 or (B is not None and not 0.0 < float(B) < math.inf):
            assert code == 2
        if code == 0:
            assert ("truncated_spectral" in record["values"]) == (B is not None)

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=16) | st.just(4097),
        st.integers(min_value=-1, max_value=6),
        st.integers(min_value=-1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_argument_vectors(self, N, M, K, samples):
        argv = ["width", "--N", str(N), "--M", str(M), "--K", str(K), "--samples", str(samples)]
        code, _ = _main_io([*argv, "--seed", "1"])
        if min(N, M, K, samples) < 1:
            assert code == 2
        elif M > 4096:
            assert code == 3

    @given(
        st.sampled_from(["all", *BENCHES]),
        st.integers(min_value=-1, max_value=2) | st.integers(min_value=99, max_value=160),
    )
    @settings(max_examples=20, deadline=None)
    def test_bench_argument_vectors(self, name, samples):
        code, record = _main_io(["bench", "--name", name, "--samples", str(samples), "--seed", "1"])
        if samples < 1:
            assert code == 2
        if code == 0:
            assert record["values"]["reports"]

    @given(
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=-1, max_value=4) | st.just(65),
        st.integers(min_value=-1, max_value=4) | st.just(64),
        st.integers(min_value=-1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_compress_argument_vectors(self, D, L, S, trials):
        argv = ["compress", "--D", str(D), "--L", str(L), "--S", str(S), "--trials", str(trials)]
        code, record = _main_io([*argv, "--seed", "1"])
        if min(D, L, S) < 1:
            assert code == 2
        elif L * S > 4096:
            assert code == 3
        if code == 0:
            assert record["values"]["passed"] is True

    def test_negative_family_size_is_invalid_input(self, capsys):
        code = main(["game", "--K", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--K must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["game", "--M", "10", "--rank", "11"], "rank must lie in [0, 10], got 11"),
            (["game", "--M", "5000", "--K", "0"], "--K must be >= 1"),  # oversized M as well
        ],
    )
    def test_invalid_input_refused_before_drawing(self, argv, message, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""
        assert drawn == []

    def test_oversize_relaxation_refused_before_drawing(self, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        code = main(["relax", "--M", "4097"])
        captured = capsys.readouterr()
        assert code == 3
        assert "4096" in captured.err
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["conjecture", "--N", "2049", "--P", "2"],
            ["conjecture", "--N", "4096", "--P", "1", "--L", "16"],  # 16 projectors of 4096^2
            ["compress", "--L", "65", "--S", "64"],
            ["width", "--M", "4097"],
        ],
    )
    def test_oversize_run_refused_before_drawing(self, argv, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert "4096" in captured.err
        assert captured.out == ""
        assert drawn == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["relax", "--N", "4", "--M", "8", "--K", "2", "--B", "nan"], "B must be finite"),
            (["relax", "--N", "4", "--M", "8", "--K", "2", "--B", "inf"], "B must be finite"),
            (["attack", "--n", "2", "--K", "2", "--draws", "3", "--trials", "-1"], "trials must be >= 0"),
            (["relax", "--B", "1", "--samples", "1"], "samples must be >= 2"),
        ],
    )
    def test_non_finite_bound_and_negative_trials_are_invalid_input(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid input:") and message in captured.err
        assert captured.out == ""

    def test_truncated_relaxation_takes_any_sample_count(self):
        argv = ["relax", "--N", "4", "--M", "8", "--K", "2", "--B", "1", "--samples", "2005"]
        code, record = _main_io(argv)
        assert code == 0
        assert record["values"]["truncated_spectral_error"] >= 0.0

    def test_compress_budget_bounds_the_measurement_operators(self, monkeypatch, capsys):
        # L*S = 8 fits a budget of 16, but compress_isometry builds L operators of
        # D x D and an (L*D) x D isometry: the run refuses (L * D, D) before drawing V.
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 16)
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        code = main(["compress", "--D", "8", "--L", "4", "--S", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "budget 16" in captured.err
        assert captured.out == ""
        assert drawn == []

    def test_numerical_failure_exits_four(self, monkeypatch, capsys):
        def fail(p, rng, instance):
            raise ArithmeticError("eigensolver did not converge")

        failing = dataclasses.replace(cli.COMMANDS["game"], runner=fail)
        monkeypatch.setitem(cli.COMMANDS, "game", failing)
        code = main(["game"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("numerical failure:")
        assert "did not converge" in captured.err
        assert captured.out == ""

    def test_greedy_conjecture_without_restarts_is_invalid_input(self, capsys):
        argv = ["conjecture", "--N", "4", "--L", "4", "--K", "2", "--mode", "greedy"]
        code = main([*argv, "--restarts", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "restarts must be >= 1" in captured.err
        assert captured.out == ""

    def test_oversize_attack_refused_before_drawing(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(attacks, "random_family", lambda *a: calls.append(a))
        monkeypatch.setattr(attacks, "hadamard_game_encoding", lambda *a: calls.append(a))
        code = main(["attack", "--n", "12", "--K", "4", "--draws", "2", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert "4096" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_oversize_attack_without_trials_refused_before_drawing(self, monkeypatch, capsys):
        # 2^30 signs exceed the 4096^2 entries of the budget: refused, not an 8 GiB draw.
        calls = []
        monkeypatch.setattr(attacks, "random_family", lambda *a: calls.append(a))
        code = main(["attack", "--n", "30", "--K", "1", "--draws", "1", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert "budget of 16777216 entries" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_oversize_game_refused_before_drawing(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(RngStream, "generator", lambda self: calls.append(self))
        code = main(["game", "--M", "4097", "--localsearch"])
        captured = capsys.readouterr()
        assert code == 3
        assert "4096" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_oversize_family_refused_before_drawing(self, monkeypatch, capsys):
        # K x N signs above NORM_MAX_DIM^2 entries, here 8^2 = 64: exit 3, not a MemoryError.
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        # 64 signs, and 64 family images at M = 8 (see test_oversize_family_images_refused)
        assert _main_io(["game", "--K", "8", "--N", "8", "--M", "8", "--trials", "10"])[0] == 0
        calls = []
        monkeypatch.setattr(game, "random_sign_array", lambda *a: calls.append(a))
        code = main(["game", "--K", "9", "--N", "8", "--M", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert "9 x 8 signs exceed the budget of 64 entries" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_oversize_family_images_refused(self, monkeypatch, capsys):
        # K x M images above NORM_MAX_DIM^2 entries, here 8^2 = 64, though K x N = 9 x 1 passes.
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 8)
        assert _main_io(["game", "--N", "1", "--M", "8", "--K", "8", "--trials", "10"])[0] == 0
        code = main(["game", "--N", "1", "--M", "8", "--K", "9"])
        captured = capsys.readouterr()
        assert code == 3
        assert "9 x 8 family images exceed the budget of 64 entries" in captured.err
        assert captured.out == ""

    def test_oversize_game_instance_refused_before_drawing(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "adv.json"
        save_instance(_adversary(), str(path))
        monkeypatch.setattr(numerics, "NORM_MAX_DIM", 5)
        calls = []
        monkeypatch.setattr(cli, "random_family", lambda *a: calls.append(a))
        monkeypatch.setattr(game, "check_projector", lambda *a: calls.append(a))
        code = main(["game", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "budget 5" in captured.err
        assert calls == []

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, cmd in cli.COMMANDS.items() for f in cli._SIZE_PARAMS if f in cmd.flags],
    )
    def test_size_below_one_names_the_flag(self, command, flag, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append(self))
        code = main([command, f"--{flag}", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"invalid input: --{flag} must be >= 1\n"
        assert captured.out == ""
        assert drawn == []

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(phaselab.__file__).resolve().parents[1]))
        argv = ["game", "--N", "4", "--M", "6", "--K", "2", "--trials", "100"]
        cmd = [sys.executable, "-m", "phaselab", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kind"] == "game"

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert (
            main(["width", "--N", "8", "--M", "16", "--K", "4", "--samples", "32",
                  "--out", str(out)])
            == 0
        )
        assert out.exists()


def _bench_reports(name, seed=4, samples=120):
    cfg = ExperimentConfig(kind="bench", params={"name": name, "samples": samples}, seed=seed)
    return run(cfg)["values"]["reports"]


class TestBenchRegistry:
    @pytest.fixture(scope="class")
    def suite(self):
        return _bench_reports("all")

    @pytest.mark.parametrize("name", list(BENCHES))
    def test_named_bench_reproduces_its_suite_entries(self, name, suite):
        reports = _bench_reports(name)
        assert reports
        names = {r["bound"] for r in reports}
        assert reports == [r for r in suite if r["bound"] in names]

    def test_advantage_prints_both_tails(self):
        names = [r["bound"] for r in _bench_reports("advantage")]
        assert names == ["advantage-tail-fixed-f", "advantage-tail-max-f"]

    def test_name_choices_come_from_the_registry(self):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        name = next(a for a in sub.choices["bench"]._actions if a.dest == "name")
        assert name.choices == ["all", *BENCHES]


def test_readme_cli_block_parses_and_shows_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert all(words[0] == "phaselab" for words in lines)
    for words in lines:
        _build_parser().parse_args(words[1:])
    assert {words[1] for words in lines} == set(cli.COMMANDS)
