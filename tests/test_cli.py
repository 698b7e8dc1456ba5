"""Tests for config parsing, the subcommands, and output determinism."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from airfl import checks
from airfl.aircomp import analytic_mse
from airfl.channel import sample_channels, substream
from airfl.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    main,
    parse_config,
    resolved_config,
)


def _tiny_config(**overrides):
    base = {
        "radio": {
            "n_antennas": 2,
            "n_users": 2,
            "pathloss_db": 0.0,
            "noise_power_server": 0.01,
            "noise_power_user": 0.01,
        },
        "pam": {"n_outer": 2, "m_inner": 5},
        "task": {"dim": 4, "samples_per_user": 6},
        "rounds": 3,
        "seeds": [0],
    }
    base.update(overrides)
    return base


class TestParseConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config(None)
        assert cfg.radio.n_antennas == 8
        assert cfg.radio.n_users == 3
        assert cfg.rounds == 15
        assert cfg.radio.power_budget == 1.0
        assert cfg.radio.power_scaling == 1.0
        np.testing.assert_allclose(cfg.radio.pathloss_linear, 1e-4)
        assert cfg.radio.noise_power_server == 1e-11
        np.testing.assert_allclose(cfg.radio.noise_power_user, 1e-11)
        assert cfg.pam.rho == 1.0 and cfg.pam.n_outer == 20 and cfg.pam.m_inner == 50
        assert cfg.train.local_updates == 1 and cfg.train.step_size is None
        assert cfg.task.kind == "quadratic" and cfg.task.dim == 10
        assert cfg.seeds == (0,) and cfg.mode == "both"

    def test_round_trip_fixed_point(self):
        cfg = parse_config(_tiny_config(mode="pam", replays=2, seeds=[4, 5]))
        resolved = resolved_config(cfg)
        again = resolved_config(parse_config(resolved))
        assert resolved == again

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="radio.frequency: unknown key"):
            parse_config({"radio": {"frequency": 2.4}})
        with pytest.raises(ConfigError, match="config.extra: unknown key"):
            parse_config({"extra": 1})
        with pytest.raises(ConfigError, match="pam.alpha: unknown key"):
            parse_config({"pam": {"alpha": 0.5}})

    def test_errors_name_the_field(self):
        cases = [
            ({"radio": {"noise_power_server": -1.0}}, "radio: noise_power_server must be nonnegative"),
            ({"radio": {"n_antennas": "eight"}}, "radio.n_antennas: expected int, got 'eight'"),
            ({"radio": {"pathloss_db": []}}, "radio.pathloss_db: expected a number or nonempty list of numbers"),
            ({"rounds": 0}, "rounds: must be at least 1"),
            ({"task": {"kind": "svm"}}, "task.kind: unknown task kind 'svm'"),
            ({"mode": "fastest"}, "mode: expected 'pam', 'baseline' or 'both', got 'fastest'"),
            ({"seeds": []}, "seeds: expected an integer or nonempty list of integers"),
            ({"seeds": [1, "a"]}, "seeds[1]: expected int, got 'a'"),
            ({"pam": {"rho": "one"}}, "pam.rho: expected float, got 'one'"),
            ({"pam": {"rho": -1.0}}, "pam: rho must be strictly positive"),
            ({"train": {"step_size": 0.0}}, "train: step_size must be strictly positive when given"),
            ({"train": {"local_updates": "a"}}, "train.local_updates: expected int, got 'a'"),
        ]
        for config, message in cases:
            with pytest.raises(ConfigError) as info:
                parse_config(config)
            assert str(info.value) == message

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        documented = json.loads(re.sub(r"//[^\n]*", "", block))
        defaults = resolved_config(parse_config(None))
        assert resolved_config(parse_config(documented)) == defaults

        def key_tree(config):
            return {key: key_tree(v) if isinstance(v, dict) else None for key, v in config.items()}

        assert key_tree(documented) == key_tree(defaults)

    def test_scalar_seed_promoted(self):
        assert parse_config({"seeds": 7}).seeds == (7,)

    def test_per_user_lists(self):
        cfg = parse_config(
            {
                "radio": {
                    "n_users": 2,
                    "pathloss_db": [-30.0, -40.0],
                    "noise_power_user": [1e-10, 1e-11],
                }
            }
        )
        np.testing.assert_allclose(cfg.radio.pathloss_linear, [1e-3, 1e-4])
        np.testing.assert_allclose(cfg.radio.noise_power_user, [1e-10, 1e-11])

    def test_file_sources(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config()))
        cfg = parse_config(str(path))
        assert cfg.radio.n_antennas == 2
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(str(bad))

    def test_task_build(self):
        cfg = parse_config(_tiny_config())
        task = cfg.task.build(2)
        assert task.n_users == 2 and task.dim == 4
        logit = parse_config(_tiny_config(task={"kind": "logistic", "dim": 4}))
        assert logit.task.build(2).curvature().strong_convexity == logit.task.l2


class TestExitCodes:
    def test_distinct(self):
        codes = {EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_NUMERIC}
        assert len(codes) == 4 and EXIT_OK == 0

    def test_config_error_exit(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json"), "validate"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_validation_failure_exit(self, tmp_path, capsys):
        # With a forward gain other than 1 the closed form is the stated
        # bracket, not the simulated chain's second moment; the cross-check
        # must flag the mismatch and exit with the validation code.
        cfg = _tiny_config()
        cfg["radio"]["power_scaling"] = 4.0
        cfg["task"] = {"dim": 6}
        path = tmp_path / "gamma4.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["--config", str(path), "mse-check", "--draws", "3000",
             "--instances", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_VALIDATION
        assert "disagree" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "overrides, argv, message",
        [
            ({}, ["mse-check", "--draws", "1"], "--draws: must be at least 2"),
            ({}, ["mse-check", "--instances", "0"], "--instances: must be at least 1"),
            ({}, ["simulate", "--rounds", "-3"], "--rounds: must be at least 1"),
            ({}, ["simulate", "--rounds", "0"], "--rounds: must be at least 1"),
            ({}, ["simulate", "--replays", "0"], "--replays: must be at least 1"),
            ({"task": {"dim": 0}}, ["optimize"], "task.dim: must be at least 1"),
            ({"task": {"samples_per_user": 0}}, ["optimize"], "task.samples_per_user"),
            ({"task": {"rows_per_sample": 0}}, ["simulate"], "task.rows_per_sample"),
            ({"pam": {"u_block": "exact"}}, ["optimize"], "pam.u_block: unknown key"),
            ({"pam": {"u_ridge": "full"}}, ["optimize"], "pam.u_ridge: unknown key"),
            (
                {"task": {"dim": 5, "samples_per_user": 6}},
                ["simulate"],
                "train.step_size: null needs a strongly convex task, but task.dim 5 is odd",
            ),
            ({"radio": {"noise_power_server": float("nan")}}, ["optimize"], "radio.noise_power_server: must be finite"),
            ({"radio": {"power_budget": float("inf")}}, ["optimize"], "radio.power_budget: must be finite"),
            (
                {"radio": {"n_users": 2, "noise_power_user": [0.01, float("nan")]}},
                ["optimize"],
                "radio.noise_power_user[1]: must be finite",
            ),
            ({"rounds": float("inf")}, ["simulate"], "rounds: expected int, got inf"),
            (
                {"task": {"kind": "logistic", "l2": 0}},
                ["simulate"],
                "task.l2: must be strictly positive for a logistic task",
            ),
            ({"pam": {"t_solver_iters": 2000}}, ["optimize"], "pam.t_solver_iters: unknown key"),
            ({"pam": {"t_solver_tol": 1e-12}}, ["optimize"], "pam.t_solver_tol: unknown key"),
            ({"seeds": [7, 7]}, ["simulate"], "seeds: must not repeat"),
            # Appended, not grouped by key, so the earlier rows keep their ids.
            ({"pam": {"rho_growth": 1.3}}, ["optimize"], "pam.rho_growth: unknown key"),
            ({"pam": {"init_strategy": "all-ones"}}, ["optimize"], "pam.init_strategy: unknown key"),
            (
                {"task": {"dim": 4, "samples_per_user": 1, "rows_per_sample": 1}},
                ["simulate"],
                "task: degenerate sample draw",
            ),
        ],
    )
    def test_bad_inputs_are_config_errors(self, tmp_path, capsys, overrides, argv, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(**overrides)))
        out = tmp_path / "out"
        code = main(["--config", str(path)] + argv + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSubcommands:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_optimize_writes_solution(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, _tiny_config())
        out = tmp_path / "run"
        code = main(["--config", cfg_path, "optimize", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "solution_seed0.json").read_text())
        assert set(payload["results"]) == {"pam", "baseline"}
        for mode in ("pam", "baseline"):
            res = payload["results"][mode]
            assert res["objective"] <= res["objective_initial"] + 1e-12
            relay = res["relay_matrix"]
            assert set(relay) == {"re", "im"}
            assert np.shape(relay["re"]) == (2, 2)  # keeps matrix shape, not raveled
        assert payload["config"]["radio"]["n_antennas"] == 2
        assert "objective" in capsys.readouterr().out

    def test_optimize_deterministic_bytes(self, tmp_path):
        cfg_path = self._write(tmp_path, _tiny_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg_path, "optimize", "--out", str(out)]) == EXIT_OK
            outs.append((out / "solution_seed0.json").read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_odd_dim_with_explicit_step(self, tmp_path):
        cfg = _tiny_config(task={"dim": 5, "samples_per_user": 6}, train={"step_size": 0.05})
        out = tmp_path / "sim"
        assert main(["--config", self._write(tmp_path, cfg), "simulate", "--out", str(out)]) == EXIT_OK
        # The padded task has no curvature constants, so no bound is computed.
        rows = (out / "trajectories_seed0.csv").read_text().splitlines()[2:]
        assert len(rows) == 3 * 2 and all(row.split(",")[5] == "nan" for row in rows)
        summary = json.loads((out / "summary.json").read_text())["summary"]["0"]
        assert all(summary[mode]["bound_ok_final_third"] is None for mode in ("pam", "baseline"))

    def test_simulate_all_zero_parameters_is_numeric_error(self, tmp_path, capsys):
        # Zero targets keep every local update at zero, so no replay has a
        # power normalization to encode with: a typed numeric failure.
        cfg = _tiny_config(task={"dim": 4, "samples_per_user": 6, "target_scale": 0, "heterogeneity": 0})
        argv = ["--config", self._write(tmp_path, cfg), "simulate", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure: round 0: every user's locally updated parameters are zero" in (
            capsys.readouterr().err
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "overrides, message",
        [
            # A huge step overflows the first local update's power
            # normalization (and makes the next update NaN, not zero).
            ({"train": {"step_size": 1e300}}, "round 0: the local gradient steps diverged"),
            # A huge forward gain overflows the closed-form MSE once the
            # decoded parameters grow; it must not reach the outputs as Infinity.
            (
                {"radio": dict(_tiny_config()["radio"], power_scaling=1e300)},
                "round 1: the closed-form MSE of the round's link is not finite",
            ),
        ],
    )
    def test_simulate_non_finite_round_is_numeric_error(self, tmp_path, capsys, overrides, message):
        cfg = _tiny_config(rounds=2, **overrides)
        out = tmp_path / "sim"
        assert main(["--config", self._write(tmp_path, cfg), "simulate", "--out", str(out)]) == EXIT_NUMERIC
        assert f"numeric failure: {message}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mse_check_non_finite_is_numeric_error(self, tmp_path, capsys):
        # The Monte Carlo chain overflows at a forward gain of 1e300, so its
        # standard error is inf and every z reads 0: that is no agreement.
        radio = dict(_tiny_config()["radio"], power_scaling=1e300)
        argv = ["--config", self._write(tmp_path, _tiny_config(radio=radio)), "mse-check",
                "--draws", "300", "--instances", "1", "--out", str(tmp_path / "mse")]
        assert main(argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "numeric failure: mse-check instance 0 user 0: non-finite result" in captured.err
        assert "mse-check: OK" not in captured.out

    def test_optimize_ill_conditioned_is_numeric_error(self, tmp_path, capsys):
        # One antenna serving two users through a noiseless relay: the
        # uplinks are collinear, and at a tiny rho every user's capacitance
        # I + beta_k A^H A has a condition number far above CONDITION_LIMIT.
        radio = dict(_tiny_config()["radio"], n_antennas=1, noise_power_server=0.0)
        cfg = _tiny_config(radio=radio, pam={"n_outer": 2, "m_inner": 5, "rho": 1e-14}, mode="pam")
        argv = ["--config", self._write(tmp_path, cfg), "optimize", "--out", str(tmp_path / "opt")]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure: Woodbury capacitance matrix condition estimate" in capsys.readouterr().err

    def test_simulate_golden_numbers(self, tmp_path):
        # Criterion 10's tiny config against recorded outputs: any drift in
        # simulate's arithmetic, not only nondeterminism, fails here.
        cfg = _tiny_config(seeds=[7], replays=2)
        out = tmp_path / "sim"
        argv = ["--config", self._write(tmp_path, cfg), "simulate", "--seed", "7", "--out", str(out)]
        assert main(argv) == EXIT_OK
        lines = (out / "trajectories_seed7.csv").read_text().splitlines()
        assert json.loads(lines[0][2:]) == {
            "config": resolved_config(parse_config(cfg)), "seed": 7, "rounds": 3, "replays": 2
        }
        assert lines[1] == "round,mode,loss,loss_gap,max_mse,bound"
        rows = [line.split(",") for line in lines[2:]]
        assert [row[:2] for row in rows] == [[str(i), m] for m in ("pam", "baseline") for i in range(3)]
        np.testing.assert_allclose(
            [[float(v) for v in row[2:]] for row in rows],
            [
                [0.10149718108077355, 0.057494295988922084, 0.0068991352922916612, 0.021333772266749516],
                [0.054719774550800793, 0.01071688945894933, 0.018407082959297251, 0.064454593613522432],
                [0.047634162400486069, 0.0036312773086346062, 0.07505222900117603, 0.25484600865764773],
                [0.10149718108077355, 0.057494295988922084, 0.018138746444955878, 0.056089331411337394],
                [0.053323617256744449, 0.0093207321648929864, 0.045567031101549443, 0.16071596972153196],
                [0.049687411570670997, 0.0056845264788195349, 0.10759597744447275, 0.38948042587908965],
            ],
            rtol=1e-9,
        )
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["config", "lambda_star", "replays", "rounds", "seeds", "summary"]
        assert summary["config"] == resolved_config(parse_config(cfg))
        assert (summary["rounds"], summary["replays"], summary["seeds"]) == (3, 2, [7])
        np.testing.assert_allclose(summary["lambda_star"], 0.04400288509185146, rtol=1e-9)
        expected = {
            "pam": [0.04763416240048607, 0.003631277308634606, 0.07505222900117603, 0.09449751745004316],
            "baseline": [0.049687411570671, 0.005684526478819535, 0.10759597744447275, 0.14183851837721584],
        }
        keys = ["final_loss", "final_loss_gap", "final_max_mse", "final_objective"]
        assert list(summary["summary"]) == ["7"]
        for mode, values in expected.items():
            final = summary["summary"]["7"][mode]
            assert sorted(final) == sorted(keys + ["bound_ok_final_third"])
            assert final["bound_ok_final_third"] is True
            np.testing.assert_allclose([final[key] for key in keys], values, rtol=1e-9)

    def test_simulate_outputs(self, tmp_path):
        cfg_path = self._write(tmp_path, _tiny_config())
        out = tmp_path / "sim"
        code = main(
            ["--config", cfg_path, "simulate", "--out", str(out), "--replays", "2"]
        )
        assert code == EXIT_OK
        csv_path = out / "trajectories_seed0.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "round,mode,loss,loss_gap,max_mse,bound"
        assert len(lines) == 2 + 3 * 2  # header block + rounds x modes
        stamp = json.loads(lines[0][2:])
        assert stamp["seed"] == 0 and stamp["config"]["rounds"] == 3
        summary = json.loads((out / "summary.json").read_text())
        assert "0" in summary["summary"]
        for mode in ("pam", "baseline"):
            assert "final_loss" in summary["summary"]["0"][mode]
        assert csv_path.read_text().endswith("\n")
        assert "\r" not in csv_path.read_text()

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg_path = self._write(tmp_path, _tiny_config())
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert (
                main(["--config", cfg_path, "simulate", "--out", str(out)]) == EXIT_OK
            )
            blobs.append(
                (out / "trajectories_seed0.csv").read_bytes()
                + (out / "summary.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_simulate_mode_and_seed_overrides(self, tmp_path):
        cfg_path = self._write(tmp_path, _tiny_config())
        out = tmp_path / "ovr"
        code = main(
            ["--config", cfg_path, "simulate", "--out", str(out), "--mode",
             "baseline", "--seed", "9", "--rounds", "2"]
        )
        assert code == EXIT_OK
        lines = (out / "trajectories_seed9.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        assert all(line.split(",")[1] == "baseline" for line in lines[2:])

    def test_mse_check_passes_at_unit_gain(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, _tiny_config())
        out = tmp_path / "mse"
        code = main(
            ["--config", cfg_path, "mse-check", "--draws", "4000",
             "--instances", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "mse_check.csv").read_text().splitlines()
        assert lines[1] == "instance,user,analytic,mc_mean,mc_se,z_score"
        assert len(lines) == 2 + 2 * 2  # instances x users
        z_scores = [abs(float(line.split(",")[-1])) for line in lines[2:]]
        assert max(z_scores) <= 3.0
        assert "OK" in capsys.readouterr().out

    def test_mse_check_golden_numbers(self, tmp_path):
        # Recorded simulated columns: any change to the Monte Carlo draw
        # order or its arithmetic, not only nondeterminism, fails here.
        cfg_path = self._write(tmp_path, _tiny_config())
        out = tmp_path / "mse"
        code = main(["--config", cfg_path, "mse-check", "--seed", "0", "--draws", "3000",
                     "--instances", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in (out / "mse_check.csv").read_text().splitlines()[2:]]
        assert [row[:2] for row in rows] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        assert [[float(v) for v in row[3:]] for row in rows] == [
            [4.805261526178486, 0.06257387776853499, -0.9257028247634941],
            [4.795803502375033, 0.06249258398086629, -0.9390030921862865],
            [0.8485282124623609, 0.011105495560676623, 0.2730477493945438],
            [0.43463017566987217, 0.005633361699492578, 0.24605219463133324],
        ]

    def test_mse_check_odd_dim_counts_the_padded_symbol(self, tmp_path):
        # dim 5 is padded to 6 coordinates, so training sends 3 symbols and
        # the closed form the check reports must be the 3-symbol one.
        cfg = _tiny_config(task={"dim": 5, "samples_per_user": 6})
        out = tmp_path / "mse"
        code = main(["--config", self._write(tmp_path, cfg), "mse-check", "--draws", "200",
                     "--instances", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in (out / "mse_check.csv").read_text().splitlines()[2:]]
        radio = parse_config(cfg).radio
        for idx in range(2):
            chan = sample_channels(radio, 0, round_index=idx)
            f, r, t, w, eta = checks.random_link(substream(0, "mse-check", idx), chan, radio)
            closed = analytic_mse(f, r, t, chan, w, radio, eta, n_symbols=3)
            assert [float(row[2]) for row in rows if row[0] == str(idx)] == list(closed)

    def test_mse_check_exact_single_user_link(self, tmp_path, capsys):
        # One user, no noise: the relayed aggregate is exact up to rounding,
        # so the standard error floor, not a rounding-sized se, sets |z|.
        radio = {"n_antennas": 2, "n_users": 1, "pathloss_db": 0.0,
                 "noise_power_server": 0.0, "noise_power_user": 0.0}
        cfg_path = self._write(tmp_path, {"radio": radio})
        code = main(["--config", cfg_path, "mse-check", "--draws", "1000",
                     "--instances", "2", "--out", str(tmp_path / "mse")])
        assert code == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        assert main(["validate", "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[ok]") == 6

    @pytest.mark.parametrize("value", [5.0, float("nan")])
    def test_validate_reports_failed_check(self, monkeypatch, capsys, value):
        monkeypatch.setattr(checks, "mse_agreement", lambda seed, count, draws: value)
        assert main(["validate", "--seed", "3"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            f"[FAIL] closed-form MSE matches simulation: worst |z| {value:.2e} (bound 4)"
        ]
        assert sum(line.startswith("[ok]") for line in lines) == 5
        assert "1 validation check(s) failed: closed-form MSE matches simulation" in captured.err

    def test_phase_projection_off_circle_is_infinite(self, monkeypatch):
        # A modulus off 1 by 1e-9 is far below any relative tolerance but
        # far above rounding; the check must reject it.
        project = checks.phase_project
        monkeypatch.setattr(checks, "phase_project", lambda v: project(v) * (1 + 1e-9))
        assert checks.phase_projection_excess(0, 64) == np.inf
