"""Tests for config parsing, the subcommands, and output determinism."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from airfl import checks, flsim
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


# (config overrides, argv, expected message) of inputs that must exit with
# the configuration-error code.  A case's id is its message, except that the
# first POSITIONAL_ID_CASES cases keep the position-based ids pytest gave them
# before the ids were explicit, so test ids recorded elsewhere stay valid.
CONFIG_ERROR_CASES = [
    ({}, ["mse-check", "--draws", "1"], "--draws: must be at least 2"),
    ({}, ["mse-check", "--instances", "0"], "--instances: must be at least 1"),
    ({}, ["simulate", "--rounds", "-3"], "--rounds: must be at least 1"),
    ({}, ["simulate", "--rounds", "0"], "--rounds: must be at least 1"),
    ({}, ["simulate", "--replays", "0"], "--replays: must be at least 1"),
    ({"task": {"dim": 0}}, ["optimize"], "task: dim must be at least 1"),
    ({"task": {"samples_per_user": 0}}, ["optimize"], "task: samples_per_user must be at least 1"),
    ({"task": {"rows_per_sample": 0}}, ["simulate"], "task: rows_per_sample must be at least 1"),
    ({"pam": {"u_block": "exact"}}, ["optimize"], "pam.u_block: unknown key"),
    ({"pam": {"u_ridge": "full"}}, ["optimize"], "pam.u_ridge: unknown key"),
    ({}, ["optimize", "--round-index", "-1"], "--round-index: must be at least 0"),
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
        "task: l2 must be strictly positive for a logistic task",
    ),
    ({"pam": {"t_solver_iters": 2000}}, ["optimize"], "pam.t_solver_iters: unknown key"),
    ({"pam": {"t_solver_tol": 1e-12}}, ["optimize"], "pam.t_solver_tol: unknown key"),
    ({"seeds": [7, 7]}, ["simulate"], "seeds: must not repeat"),
    ({"pam": {"rho_growth": 1.3}}, ["optimize"], "pam.rho_growth: unknown key"),
    ({"pam": {"init_strategy": "all-ones"}}, ["optimize"], "pam.init_strategy: unknown key"),
    (
        {"task": {"dim": 4, "samples_per_user": 1, "rows_per_sample": 1}},
        ["simulate"],
        "task: degenerate sample draw",
    ),
    ({"radio": {"power_scaling": 1.0}}, ["optimize"], "radio.power_scaling: unknown key"),
    (
        {"radio": dict(_tiny_config()["radio"], pathloss_db=4000)},
        ["optimize"],
        "radio: pathloss_db 4000 dB has no finite linear gain",
    ),
    (
        {"radio": dict(_tiny_config()["radio"], downlink_pathloss_db=4000)},
        ["optimize"],
        "radio: downlink_pathloss_db 4000 dB has no finite linear gain",
    ),
    ({"pam": {"seed": 3}}, ["optimize"], "pam.seed: unknown key"),
    ({"seeds": [1, -1]}, ["simulate"], "seeds[1]: must be at least 0"),
    ({"seeds": [1, 2**64 + 1]}, ["simulate"], "seeds[1]: must be below 2**63"),
    ({"seeds": 2**63}, ["optimize"], "seeds[0]: must be below 2**63"),
    ({}, ["simulate", "--seed", "-1"], "--seed: must be at least 0"),
    ({}, ["simulate", "--seed", str(2**64 - 1)], "--seed: must be below 2**63"),
    ({"task": {"seed": -1}}, ["simulate"], "task.seed: must be at least 0"),
    ({"task": {"seed": 2**64 - 1}}, ["simulate"], "task.seed: must be below 2**63"),
    ({}, ["optimize", "--round-index", str(2**63)], "--round-index: must be below 2**63"),
]
POSITIONAL_ID_CASES = 22
# The messages of positional cases whose ids were recorded before the
# message changed; the ids keep the recorded text.
RECORDED_ID_MESSAGES = {
    5: "task.dim: must be at least 1",
    6: "task.samples_per_user",
    7: "task.rows_per_sample",
    15: "task.l2: must be strictly positive for a logistic task",
}
CONFIG_ERROR_IDS = [
    f"overrides{i}-argv{i}-{RECORDED_ID_MESSAGES.get(i, message)}" if i < POSITIONAL_ID_CASES else message
    for i, (_, _, message) in enumerate(CONFIG_ERROR_CASES)
]


class TestParseConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config(None)
        assert cfg.radio.n_antennas == 8
        assert cfg.radio.n_users == 3
        assert cfg.rounds == 15
        assert cfg.radio.power_budget == 1.0
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
            ({"task": {"kind": "svm"}}, "task: unknown task kind 'svm'"),
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

    def test_validation_failure_exit(self, tmp_path, capsys, monkeypatch):
        # A closed form that doubles the chain's second moment must be
        # flagged by the cross-check and exit with the validation code.
        monkeypatch.setattr(checks, "analytic_mse", lambda *args: 2.0 * analytic_mse(*args))
        cfg = _tiny_config()
        cfg["task"] = {"dim": 6}
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["--config", str(path), "mse-check", "--draws", "3000",
             "--instances", "2", "--out", str(tmp_path)]
        )
        assert code == EXIT_VALIDATION
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, argv, message", CONFIG_ERROR_CASES, ids=CONFIG_ERROR_IDS)
    def test_bad_inputs_are_config_errors(self, tmp_path, capsys, overrides, argv, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_tiny_config(**overrides)))
        out = tmp_path / "out"
        code = main(["--config", str(path)] + argv + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "simulate", "mse-check", "validate"])
    def test_every_command_bounds_its_seed(self, tmp_path, capsys, monkeypatch, command):
        # Seeds are read modulo 2**64, so 2**64 + 1 would rerun seed 1.
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", str(2**64 + 1)]) == EXIT_CONFIG
        assert "--seed: must be below 2**63" in capsys.readouterr().err


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
        # The padded task is not strongly convex, so no bound is computed.
        rows = (out / "trajectories_seed0.csv").read_text().splitlines()[2:]
        assert len(rows) == 3 * 2 and all(row.split(",")[5] == "nan" for row in rows)
        summary = json.loads((out / "summary.json").read_text())["summary"]["0"]
        assert all(summary[mode]["bound_ok_final_third"] is None for mode in ("pam", "baseline"))

    @pytest.mark.parametrize(
        "task",
        [{"dim": 5}, {"whiten": False, "samples_per_user": 1, "rows_per_sample": 1}],
        ids=["padded", "rank-deficient"],
    )
    def test_simulate_default_step_needs_only_smoothness(self, tmp_path, task):
        # The default step total_samples / (K * smoothness) uses no strong
        # convexity, so a task without it trains; only its bound is undefined.
        out = tmp_path / "sim"
        cfg_path = self._write(tmp_path, _tiny_config(task=task))
        assert main(["--config", cfg_path, "simulate", "--out", str(out)]) == EXIT_OK
        rows = [row.split(",") for row in (out / "trajectories_seed0.csv").read_text().splitlines()[2:]]
        assert len(rows) == 3 * 2 and all(row[5] == "nan" for row in rows)
        assert np.all(np.isfinite([float(v) for row in rows for v in row[2:5]]))

    def test_simulate_all_zero_parameters_is_numeric_error(self, tmp_path, capsys):
        # Zero targets keep every local update at zero, so no replay has a
        # power normalization to encode with: a typed numeric failure.
        cfg = _tiny_config(task={"dim": 4, "samples_per_user": 6, "target_scale": 0, "heterogeneity": 0})
        argv = ["--config", self._write(tmp_path, cfg), "simulate", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure: round 0: every user's locally updated parameters are zero" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # A huge step overflows the first local update's power
            # normalization (and makes the next update NaN, not zero).
            ({"train": {"step_size": 1e300}}, "round 0: the local gradient steps diverged"),
        ],
    )
    def test_simulate_non_finite_round_is_numeric_error(self, tmp_path, capsys, overrides, message):
        cfg = _tiny_config(rounds=2, **overrides)
        out = tmp_path / "sim"
        assert main(["--config", self._write(tmp_path, cfg), "simulate", "--out", str(out)]) == EXIT_NUMERIC
        assert f"numeric failure: {message}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_simulate_non_finite_mse_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # An overflowing closed-form MSE must not reach the outputs as Infinity.
        monkeypatch.setattr(flsim, "analytic_mse", lambda *args: np.full_like(analytic_mse(*args), np.inf))
        out = tmp_path / "sim"
        argv = ["--config", self._write(tmp_path, _tiny_config(rounds=2)), "simulate", "--out", str(out)]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure: round 0: the closed-form MSE of the round's link is not finite" in (
            capsys.readouterr().err
        )
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("scale, loss", [(1e154, "inf"), (1e160, "nan"), (1e200, "nan"), (1e307, "nan")])
    def test_simulate_overflowing_task_is_numeric_error(self, tmp_path, capsys, scale, loss):
        # Targets this large overflow the task's optimal loss, so every loss
        # gap would be written as NaN and every loss as Infinity.  At 1e307
        # the task's summed linear term overflows before any solve.  The
        # overflow itself prints no warning lines.
        cfg = _tiny_config(rounds=2, task={"dim": 4, "samples_per_user": 6, "target_scale": scale})
        out = tmp_path / "sim"
        assert main(["--config", self._write(tmp_path, cfg), "simulate", "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numeric failure: the task's optimal loss is {loss}" in err
        assert "Warning" not in err
        assert not (out / "summary.json").exists()

    def test_simulate_overflowing_heterogeneity_names_both_keys(self, tmp_path, capsys):
        # Per-user shifts this large overflow the optimal loss just as large
        # targets do, and the hint names both keys that scale the targets.
        cfg = _tiny_config(rounds=2, task={"dim": 4, "samples_per_user": 6, "heterogeneity": 1e200})
        argv = ["--config", self._write(tmp_path, cfg), "simulate", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_NUMERIC
        assert "(try a smaller task.target_scale or task.heterogeneity)" in capsys.readouterr().err

    def test_mse_check_non_finite_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # An overflowing closed form makes every z infinite or NaN: that is
        # a numeric failure, not a verdict on agreement.
        monkeypatch.setattr(checks, "analytic_mse", lambda *args: np.full_like(analytic_mse(*args), np.inf))
        argv = ["--config", self._write(tmp_path, _tiny_config()), "mse-check",
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

    def test_optimize_underflowing_noiseless_link_is_numeric_error(self, tmp_path, capsys):
        # A -2000 dB pathloss underflows every gain to 0, and with both noise
        # powers 0 the closed-form equalizer's denominator is 0.
        radio = dict(_tiny_config()["radio"], pathloss_db=-2000, noise_power_server=0, noise_power_user=0)
        argv = ["--config", self._write(tmp_path, {"radio": radio}), "optimize", "--out", str(tmp_path / "opt")]
        assert main(argv) == EXIT_NUMERIC
        assert "numeric failure: equalizer denominator of user 0 is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["pam", "baseline"])
    def test_optimize_overflowing_link_is_numeric_error(self, tmp_path, capsys, mode):
        # A 3000 dB pathloss is accepted, but squaring its effective gains
        # overflows: the equalizer would be 0 and the link would receive
        # nothing, so the run fails with a numeric error and no warning lines.
        radio = dict(_tiny_config()["radio"], pathloss_db=3000)
        cfg = _tiny_config(radio=radio, pam={"n_outer": 2, "m_inner": 5})
        argv = ["--config", self._write(tmp_path, cfg), "optimize", "--mode", mode, "--out", str(tmp_path / "opt")]
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: equalizer denominator of user 0 overflows" in err
        assert "overflow encountered" not in err
        assert not (tmp_path / "opt" / "solution_seed0.json").exists()

    def test_optimize_golden_numbers(self, tmp_path):
        # The default radio and optimizer, and pam alone at N=32, K=16 (the
        # relay_large benchmark's reference job), against recorded outputs:
        # any drift in the alternating loop's arithmetic, its inner merit
        # included, fails here.
        large = self._write(tmp_path, {"radio": {"n_antennas": 32, "n_users": 16}})
        runs = [
            (
                ["optimize", "--seed", "0", "--mode", "both"],
                {
                    "pam": (
                        2.6510822967824786e-05,
                        2.6510822967824786e-05,
                        [
                            0.2833695941904172, 0.1384800625541697, 0.12116059065783814,
                            0.11418839973705387, 0.11160900785956915, 0.09457564772488905,
                            0.030899751521767778, 0.012855837558808748, 0.007362873828459319,
                            0.0041419194714484, 0.0024094250363912444, 0.001430394629363156,
                            0.0008665790607448387, 0.0005245233795459787, 0.0003182170436160946,
                            0.00019404637126458252, 0.00011920525484296232, 7.389622931191948e-05,
                            4.627788816553651e-05, 2.9297154517751527e-05,
                        ],
                    ),
                    "baseline": (0.1662967693463748, 0.1662967693463748, []),
                },
            ),
            (
                ["--config", large, "optimize", "--seed", "0", "--mode", "pam"],
                {
                    "pam": (
                        0.025549526989446653,
                        0.025549526989446653,
                        [
                            0.06485808948551819, 0.06138357285685419, 0.0601413689473134,
                            0.05967885341151036, 0.05922213530554403, 0.05868812264912436,
                            0.05795474560798695, 0.057010974410905954, 0.05583512811417356,
                            0.05449561161361451, 0.053193520242626684, 0.05196169378007461,
                            0.05053388575292153, 0.04919967770574113, 0.0471438255388547,
                            0.045120015381499644, 0.04294793272755897, 0.040837514708524626,
                            0.038772349143962374, 0.03673383053071133,
                        ],
                    ),
                },
            ),
        ]
        for i, (argv, expected) in enumerate(runs):
            out = tmp_path / f"opt{i}"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            results = json.loads((out / "solution_seed0.json").read_text())["results"]
            assert sorted(results) == sorted(expected)
            for mode, (objective, last_outer, merits) in expected.items():
                result = results[mode]
                np.testing.assert_allclose(result["objective"], objective, rtol=1e-12)
                np.testing.assert_allclose(result["outer_objectives"][-1], last_outer, rtol=1e-12)
                assert len(result["inner_final_merit"]) == len(merits)
                np.testing.assert_allclose(result["inner_final_merit"], merits, rtol=1e-12)

    @pytest.mark.parametrize("seed, round_index", [(0, 0), (0, 2), (4, 0), (4, 2)])
    def test_optimize_solves_simulates_block(self, tmp_path, seed, round_index):
        # optimize --seed S --round-index I solves the fading block that
        # simulate --seed S solves in round I, bit for bit in both modes,
        # pam's random initial relay phases included.
        out = tmp_path / "opt"
        argv = ["optimize", "--seed", str(seed), "--round-index", str(round_index), "--mode", "both"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        results = json.loads((out / f"solution_seed{seed}.json").read_text())["results"]
        cfg = parse_config(None)
        report = flsim.run_experiment(
            cfg.task.build(cfg.radio.n_users), cfg.radio, cfg.pam, cfg.train, rounds=round_index + 1,
            seeds=(seed,), modes=("pam", "baseline"), replays=1,
        )
        for mode in ("pam", "baseline"):
            sol = report.get(seed, mode).solutions[round_index]
            result = results[mode]
            assert result["objective"] == sol.objective
            assert result["outer_objectives"] == sol.outer_objectives.tolist()
            assert result["inner_final_merit"] == sol.inner_merits
            for key, value in (
                ("relay_matrix", sol.f_matrix),
                ("receive_coefficients", sol.r_all),
                ("transmit_coefficients", sol.t_all),
            ):
                assert result[key] == {"re": value.real.tolist(), "im": value.imag.tolist()}

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
                [0.10149718108077355, 0.057494295988922084, 0.006899135292291648, 0.021333772266749474],
                [0.05471977455080079, 0.01071688945894933, 0.0184070829592973, 0.06445459361352257],
                [0.04763416240048607, 0.003631277308634606, 0.07505222900117602, 0.2548460086576477],
                [0.10149718108077355, 0.057494295988922084, 0.016085078342196905, 0.049738899689162189],
                [0.053144796969145203, 0.0091419118772937402, 0.043617126112623764, 0.15244330278568291],
                [0.049614624877726388, 0.0056117397858749252, 0.10450287632492614, 0.3769937530540365],
            ],
            rtol=1e-9,
        )
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["config", "lambda_star", "replays", "rounds", "seeds", "summary"]
        assert summary["config"] == resolved_config(parse_config(cfg))
        assert (summary["rounds"], summary["replays"], summary["seeds"]) == (3, 2, [7])
        np.testing.assert_allclose(summary["lambda_star"], 0.04400288509185146, rtol=1e-9)
        expected = {
            "pam": [0.04763416240048607, 0.003631277308634606, 0.07505222900117602, 0.09449751745004316],
            "baseline": [0.04961462487772639, 0.005611739785874925, 0.10450287632492614, 0.1375540682025522],
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
            [4.805919841630838, 0.06258898945798856, -0.9359973913369041],
            [4.795805434591229, 0.06251510903721452, -0.9386956644034239],
            [0.8451110188914557, 0.010965619254514112, 0.5881586794110175],
            [0.4339041714557353, 0.00561579392224035, 0.376100913369436],
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
