"""Command-line front end: optimize / simulate / mse-check / validate.

Configuration is a single JSON file; unknown keys are rejected and every
error message names the offending key path.  All output files embed the
fully-resolved configuration and seed, floats are written with 17
significant digits, and line endings are LF, so a rerun with the same seed
reproduces every byte (noise substreams are keyed, never shared, so this
holds regardless of evaluation order).

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import aircomp, flsim, linalg, pam
from .channel import RadioConfig, sample_channels, substream
from .flsim import LocalTrainConfig, make_logistic_task, make_quadratic_task, run_experiment
from .linalg import NumericError
from .pam import PamConfig, baseline_optimize, run_pam

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ValidationFailure",
    "main",
    "parse_config",
    "resolved_config",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad configuration file or option; message names the key path."""


class ValidationFailure(RuntimeError):
    """A self-check (validate / mse-check) did not pass."""


@dataclass
class TaskSpec:
    """Declarative description of the synthetic training task."""

    kind: str = "quadratic"
    dim: int = 10
    samples_per_user: int = 20
    rows_per_sample: int = 2
    heterogeneity: float = 0.5
    target_scale: float = 1.0
    whiten: bool = True
    l2: float = 0.1
    seed: int = 0

    def build(self, n_users):
        if self.kind == "quadratic":
            return make_quadratic_task(
                n_users=n_users,
                dim=self.dim,
                samples_per_user=self.samples_per_user,
                rows_per_sample=self.rows_per_sample,
                heterogeneity=self.heterogeneity,
                target_scale=self.target_scale,
                whiten=self.whiten,
                seed=self.seed,
            )
        if self.kind == "logistic":
            return make_logistic_task(
                n_users=n_users,
                dim=self.dim,
                samples_per_user=self.samples_per_user,
                l2=self.l2,
                seed=self.seed,
            )
        raise ConfigError(f"task.kind: unknown task kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    """Fully-resolved run description (radio + optimizer + task + schedule)."""

    radio: RadioConfig
    pam: PamConfig
    train: LocalTrainConfig
    task: TaskSpec
    rounds: int = 15
    seeds: tuple = (0,)
    replays: int = 1
    mode: str = "both"
    out_dir: str = "out"


def _expect(mapping, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    return mapping


def _take(section, known, path):
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")


def _coerce(value, kind, path, allow_none=False):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}: must not be null")
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            if isinstance(value, bool):
                raise ValueError
            return float(value)
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")


def _at_least(value, minimum, path):
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _scalar_or_list(value, path, allow_none=False):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}: must not be null")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, list) and value and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return [float(v) for v in value]
    raise ConfigError(f"{path}: expected a number or nonempty list of numbers")


def parse_config(source):
    """Parse and strictly validate a config (dict, JSON text path, or None)."""
    if source is None:
        data = {}
    elif isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    data = _expect(data, "config")
    _take(data, ["radio", "pam", "train", "task", "rounds", "seeds", "replays", "mode", "out_dir"], "config")

    radio_raw = _expect(data.get("radio", {}), "radio")
    _take(
        radio_raw,
        [
            "n_antennas",
            "n_users",
            "pathloss_db",
            "downlink_pathloss_db",
            "noise_power_server",
            "noise_power_user",
            "power_budget",
            "power_scaling",
        ],
        "radio",
    )
    try:
        radio = RadioConfig(
            n_antennas=_coerce(radio_raw.get("n_antennas", 8), int, "radio.n_antennas"),
            n_users=_coerce(radio_raw.get("n_users", 3), int, "radio.n_users"),
            pathloss_db=_scalar_or_list(radio_raw.get("pathloss_db", -40.0), "radio.pathloss_db"),
            downlink_pathloss_db=_scalar_or_list(
                radio_raw.get("downlink_pathloss_db"), "radio.downlink_pathloss_db", allow_none=True
            ),
            noise_power_server=_coerce(
                radio_raw.get("noise_power_server", 1e-11), float, "radio.noise_power_server"
            ),
            noise_power_user=_scalar_or_list(
                radio_raw.get("noise_power_user", 1e-11), "radio.noise_power_user"
            ),
            power_budget=_coerce(radio_raw.get("power_budget", 1.0), float, "radio.power_budget"),
            power_scaling=_coerce(radio_raw.get("power_scaling", 1.0), float, "radio.power_scaling"),
        )
    except ValueError as exc:
        raise ConfigError(f"radio: {exc}") from exc

    pam_raw = _expect(data.get("pam", {}), "pam")
    _take(
        pam_raw,
        [
            "rho",
            "n_outer",
            "m_inner",
            "t_solver_iters",
            "t_solver_tol",
            "init_strategy",
            "seed",
            "rho_growth",
        ],
        "pam",
    )
    try:
        pam_cfg = PamConfig(
            rho=_coerce(pam_raw.get("rho", 1.0), float, "pam.rho"),
            n_outer=_coerce(pam_raw.get("n_outer", 20), int, "pam.n_outer"),
            m_inner=_coerce(pam_raw.get("m_inner", 50), int, "pam.m_inner"),
            t_solver_iters=_coerce(pam_raw.get("t_solver_iters", 2000), int, "pam.t_solver_iters"),
            t_solver_tol=_coerce(pam_raw.get("t_solver_tol", 1e-12), float, "pam.t_solver_tol"),
            init_strategy=_coerce(
                pam_raw.get("init_strategy", "random-phase"), str, "pam.init_strategy"
            ),
            seed=_coerce(pam_raw.get("seed", 0), int, "pam.seed"),
            rho_growth=_coerce(pam_raw.get("rho_growth", 1.0), float, "pam.rho_growth"),
        )
    except ValueError as exc:
        raise ConfigError(f"pam: {exc}") from exc

    train_raw = _expect(data.get("train", {}), "train")
    _take(train_raw, ["step_size", "local_updates"], "train")
    step_size = train_raw.get("step_size")
    if step_size is not None:
        step_size = _coerce(step_size, float, "train.step_size")
    try:
        train = LocalTrainConfig(
            step_size=step_size,
            local_updates=_coerce(train_raw.get("local_updates", 1), int, "train.local_updates"),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc

    task_raw = _expect(data.get("task", {}), "task")
    _take(
        task_raw,
        [
            "kind",
            "dim",
            "samples_per_user",
            "rows_per_sample",
            "heterogeneity",
            "target_scale",
            "whiten",
            "l2",
            "seed",
        ],
        "task",
    )
    task = TaskSpec(
        kind=_coerce(task_raw.get("kind", "quadratic"), str, "task.kind"),
        dim=_coerce(task_raw.get("dim", 10), int, "task.dim"),
        samples_per_user=_coerce(task_raw.get("samples_per_user", 20), int, "task.samples_per_user"),
        rows_per_sample=_coerce(task_raw.get("rows_per_sample", 2), int, "task.rows_per_sample"),
        heterogeneity=_coerce(task_raw.get("heterogeneity", 0.5), float, "task.heterogeneity"),
        target_scale=_coerce(task_raw.get("target_scale", 1.0), float, "task.target_scale"),
        whiten=_coerce(task_raw.get("whiten", True), bool, "task.whiten"),
        l2=_coerce(task_raw.get("l2", 0.1), float, "task.l2"),
        seed=_coerce(task_raw.get("seed", 0), int, "task.seed"),
    )
    if task.kind not in ("quadratic", "logistic"):
        raise ConfigError(f"task.kind: unknown task kind {task.kind!r}")
    for key in ("dim", "samples_per_user", "rows_per_sample"):
        _at_least(getattr(task, key), 1, f"task.{key}")

    rounds = _at_least(_coerce(data.get("rounds", 15), int, "rounds"), 1, "rounds")
    seeds_raw = data.get("seeds", [0])
    if isinstance(seeds_raw, int) and not isinstance(seeds_raw, bool):
        seeds_raw = [seeds_raw]
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("seeds: expected an integer or nonempty list of integers")
    seeds = tuple(_coerce(s, int, f"seeds[{i}]") for i, s in enumerate(seeds_raw))
    replays = _at_least(_coerce(data.get("replays", 1), int, "replays"), 1, "replays")
    mode = _coerce(data.get("mode", "both"), str, "mode")
    if mode not in ("pam", "baseline", "both"):
        raise ConfigError(f"mode: expected 'pam', 'baseline' or 'both', got {mode!r}")
    out_dir = _coerce(data.get("out_dir", "out"), str, "out_dir")
    return ExperimentConfig(
        radio=radio,
        pam=pam_cfg,
        train=train,
        task=task,
        rounds=rounds,
        seeds=seeds,
        replays=replays,
        mode=mode,
        out_dir=out_dir,
    )


def resolved_config(cfg):
    """Plain-dict form of a parsed config; parse(resolved) is a fixed point."""
    radio = cfg.radio
    return {
        "radio": {
            "n_antennas": radio.n_antennas,
            "n_users": radio.n_users,
            "pathloss_db": list(radio.pathloss_db),
            "downlink_pathloss_db": None
            if radio.downlink_pathloss_db is None
            else list(radio.downlink_pathloss_db),
            "noise_power_server": radio.noise_power_server,
            "noise_power_user": list(radio.noise_power_user),
            "power_budget": radio.power_budget,
            "power_scaling": radio.power_scaling,
        },
        "pam": {
            "rho": cfg.pam.rho,
            "n_outer": cfg.pam.n_outer,
            "m_inner": cfg.pam.m_inner,
            "t_solver_iters": cfg.pam.t_solver_iters,
            "t_solver_tol": cfg.pam.t_solver_tol,
            "init_strategy": cfg.pam.init_strategy,
            "seed": cfg.pam.seed,
            "rho_growth": cfg.pam.rho_growth,
        },
        "train": {
            "step_size": cfg.train.step_size,
            "local_updates": cfg.train.local_updates,
        },
        "task": {
            "kind": cfg.task.kind,
            "dim": cfg.task.dim,
            "samples_per_user": cfg.task.samples_per_user,
            "rows_per_sample": cfg.task.rows_per_sample,
            "heterogeneity": cfg.task.heterogeneity,
            "target_scale": cfg.task.target_scale,
            "whiten": cfg.task.whiten,
            "l2": cfg.task.l2,
            "seed": cfg.task.seed,
        },
        "rounds": cfg.rounds,
        "seeds": list(cfg.seeds),
        "replays": cfg.replays,
        "mode": cfg.mode,
        "out_dir": cfg.out_dir,
    }


def _fmt(value):
    """17-significant-digit float formatting (exact round trip)."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _stamp(cfg, seed=None, extra=None):
    stamp = {"config": resolved_config(cfg)}
    if seed is not None:
        stamp["seed"] = int(seed)
    if extra:
        stamp.update(extra)
    return stamp


def _complex_list(values):
    # Preserves the array's nesting (vectors stay flat, matrices stay 2-D)
    # so readers never have to guess a flattening order.
    values = np.asarray(values)
    return {"re": values.real.tolist(), "im": values.imag.tolist()}


def _modes(cfg, override=None):
    mode = override or cfg.mode
    return ("pam", "baseline") if mode == "both" else (mode,)


def _cmd_optimize(cfg, args):
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seeds[0] if args.seed is None else args.seed
    weights = aircomp.AggregationWeights(np.full(cfg.radio.n_users, float(cfg.task.samples_per_user)))
    chan = sample_channels(cfg.radio, seed, round_index=args.round_index)
    results = {}
    for mode in _modes(cfg, args.mode):
        if mode == "pam":
            sol = run_pam(chan, weights, cfg.radio, cfg.pam)
        else:
            sol = baseline_optimize(chan, weights, cfg.radio, cfg.pam)
        results[mode] = {
            "objective": sol.objective,
            "objective_initial": float(sol.outer_objectives[0]),
            "outer_objectives": [float(v) for v in sol.outer_objectives],
            "relay_matrix": _complex_list(sol.f_matrix),
            "receive_coefficients": _complex_list(sol.r_all),
            "transmit_coefficients": _complex_list(sol.t_all),
            "inner_final_merit": [float(t[-1]) for t in sol.inner_trajectories],
        }
        print(f"{mode:9s} objective: initial {_fmt(results[mode]['objective_initial'])} "
              f"-> final {_fmt(sol.objective)}")
    payload = _stamp(cfg, seed=seed, extra={"round_index": args.round_index, "results": results})
    path = os.path.join(out_dir, f"solution_seed{seed}.json")
    _write_text(path, _json_text(payload))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(cfg, args):
    rounds = _at_least(cfg.rounds if args.rounds is None else args.rounds, 1, "--rounds")
    replays = _at_least(cfg.replays if args.replays is None else args.replays, 1, "--replays")
    task = cfg.task.build(cfg.radio.n_users)
    try:
        cfg.train.resolve_step(task)
    except ValueError as exc:
        reason = f"task.dim {cfg.task.dim} is odd and its padded coordinate carries no data" if task.padded else exc
        raise ConfigError(
            f"train.step_size: null needs a strongly convex task, but {reason}; set train.step_size"
        ) from exc
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    seeds = cfg.seeds if args.seed is None else (args.seed,)
    modes = _modes(cfg, args.mode)
    report = run_experiment(
        task,
        cfg.radio,
        pam_cfg=cfg.pam,
        train_cfg=cfg.train,
        rounds=rounds,
        seeds=seeds,
        modes=modes,
        replays=replays,
    )
    summary = {}
    for seed in seeds:
        stamp = _stamp(cfg, seed=seed, extra={"rounds": rounds, "replays": replays})
        lines = ["# " + json.dumps(stamp, sort_keys=True)]
        lines.append("round,mode,loss,loss_gap,max_mse,bound")
        for mode in modes:
            traj = report.get(seed, mode)
            for i in range(rounds):
                lines.append(
                    ",".join(
                        [
                            str(i),
                            mode,
                            _fmt(traj.loss[i]),
                            _fmt(traj.loss_gap[i]),
                            _fmt(traj.max_mse[i]),
                            _fmt(traj.bound[i]),
                        ]
                    )
                )
        path = os.path.join(out_dir, f"trajectories_seed{seed}.csv")
        _write_text(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
        summary[str(seed)] = {
            mode: {
                "final_loss": report.get(seed, mode).final_loss,
                "final_loss_gap": float(report.get(seed, mode).loss_gap[-1]),
                "final_max_mse": float(report.get(seed, mode).max_mse[-1]),
                "final_objective": report.get(seed, mode).final_objective,
                "bound_ok_final_third": bool(
                    np.all(report.get(seed, mode).bound_ok[-max(1, rounds // 3) :])
                )
                if not np.isnan(report.get(seed, mode).bound[-1])
                else None,
            }
            for mode in modes
        }
    payload = _stamp(
        cfg,
        extra={
            "rounds": rounds,
            "replays": replays,
            "seeds": list(int(s) for s in seeds),
            "lambda_star": report.lambda_star,
            "summary": summary,
        },
    )
    path = os.path.join(out_dir, "summary.json")
    _write_text(path, _json_text(payload))
    print(f"wrote {path}")
    for seed in seeds:
        for mode in modes:
            traj = report.get(seed, mode)
            print(
                f"seed {seed} {mode:9s} final loss {_fmt(traj.final_loss)} "
                f"final max-MSE {_fmt(traj.max_mse[-1])}"
            )
    return EXIT_OK


def _cmd_mse_check(cfg, args):
    draws = _at_least(args.draws, 2, "--draws")
    n_instances = _at_least(args.instances, 1, "--instances")
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seeds[0] if args.seed is None else args.seed
    radio = cfg.radio
    n_symbols = max(1, cfg.task.dim // 2)
    rows = []
    worst = 0.0
    for idx in range(n_instances):
        chan = sample_channels(radio, seed, round_index=idx)
        rng = substream(seed, "mse-check", idx)
        f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (radio.n_antennas, radio.n_antennas)))
        t_all = np.sqrt(radio.power_budget) * np.exp(1j * rng.uniform(0, 2 * np.pi, radio.n_users))
        weights = aircomp.AggregationWeights(rng.uniform(1.0, 5.0, radio.n_users))
        r_all = pam.update_r(f_matrix, t_all, chan, weights, radio)
        eta = float(rng.uniform(0.5, 2.0))
        closed = aircomp.analytic_mse(f_matrix, r_all, t_all, chan, weights, radio, eta, n_symbols)
        mc_mean, mc_se = aircomp.monte_carlo_mse(
            f_matrix, r_all, t_all, chan, weights, radio, eta, n_symbols, draws, seed + 1000 + idx
        )
        for k in range(radio.n_users):
            z = (closed[k] - mc_mean[k]) / mc_se[k] if mc_se[k] > 0 else 0.0
            worst = max(worst, abs(z))
            rows.append((idx, k, closed[k], mc_mean[k], mc_se[k], z))
    lines = ["# " + json.dumps(_stamp(cfg, seed=seed, extra={"draws": draws}), sort_keys=True)]
    lines.append("instance,user,analytic,mc_mean,mc_se,z_score")
    for row in rows:
        lines.append(",".join([str(row[0]), str(row[1])] + [_fmt(v) for v in row[2:]]))
    path = os.path.join(out_dir, "mse_check.csv")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    print(f"instances: {n_instances}  draws: {draws}  worst |z|: {worst:.3f}")
    if worst > 3.0:
        raise ValidationFailure(
            f"closed-form and simulated MSE disagree: worst |z| = {worst:.3f} > 3"
        )
    print("mse-check: OK (all |z| <= 3)")
    return EXIT_OK


def _check(name, fn, failures):
    try:
        detail = fn()
        print(f"[ok]   {name}{': ' + detail if detail else ''}")
    except AssertionError as exc:
        failures.append(name)
        print(f"[FAIL] {name}: {exc}")


def _cmd_validate(cfg, args):
    seed = cfg.seeds[0] if args.seed is None else args.seed
    failures = []

    def structured_vs_dense():
        worst = 0.0
        rng = substream(seed, "validate-structured")
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(0, 4))
            dim = n * n
            a = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gram = linalg.StructuredGram(
                dim=dim,
                rank_one=a,
                kron_scale=float(rng.uniform(0, 2)),
                kron_vector=g,
                ridge=float(rng.uniform(0.1, 2.0)),
            )
            rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x_fast = linalg.structured_solve(gram, rhs)
            x_dense = linalg.dense_solve(gram.materialize(), rhs)
            worst = max(worst, np.linalg.norm(x_fast - x_dense) / np.linalg.norm(x_dense))
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"
        return f"worst rel err {worst:.2e}"

    def phase_projection():
        rng = substream(seed, "validate-phase")
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        p = linalg.phase_project(v)
        assert np.allclose(np.abs(p), 1.0, atol=1e-15), "modulus deviates from 1"
        grid = np.exp(1j * np.linspace(0, 2 * np.pi, 1000, endpoint=False))
        for vl, pl in zip(v, p):
            best = np.min(np.abs(grid - vl) ** 2)
            assert abs(pl - vl) ** 2 <= best + 1e-9, "projection beaten by grid point"
        return None

    def stationarity():
        rng = substream(seed, "validate-stationarity")
        radio = RadioConfig(n_antennas=3, n_users=2, pathloss_db=0.0,
                            noise_power_server=0.01, noise_power_user=0.02)
        for _ in range(10):
            chan = sample_channels(radio, int(rng.integers(1 << 31)))
            weights = aircomp.AggregationWeights(rng.uniform(1, 4, 2))
            t_all = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
            r_all = pam.update_r(f_matrix, t_all, chan, weights, radio)
            costs = aircomp.mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, radio)
            for k in range(2):
                for delta in (1e-6, 1e-6j):
                    bumped = r_all.copy()
                    bumped[k] += delta
                    up = aircomp.mse_bracket_terms(f_matrix, bumped, t_all, chan, weights, radio)[k]
                    bumped[k] -= 2 * delta
                    down = aircomp.mse_bracket_terms(f_matrix, bumped, t_all, chan, weights, radio)[k]
                    slope = (up - down) / (2e-6)
                    assert abs(slope) <= 1e-6 * max(1.0, costs[k]), f"slope {slope:.3e}"
        return None

    def inner_merit_monotone():
        rng = substream(seed, "validate-inner")
        radio = RadioConfig(n_antennas=4, n_users=3, pathloss_db=0.0,
                            noise_power_server=0.05, noise_power_user=0.05)
        worst_rise = 0.0
        for trial in range(5):
            chan = sample_channels(radio, 100 + trial)
            weights = aircomp.AggregationWeights(rng.uniform(1, 4, 3))
            r_all = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            t_all = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            ws = pam.build_workspace(r_all, t_all, chan, weights, radio)
            f0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
            for rho in (0.1, 1.0, 10.0):
                _, traj, _ = pam.inner_pam(ws, f0, rho, 50)
                rises = np.diff(traj)
                if rises.size:
                    worst_rise = max(worst_rise, float(rises.max()))
        assert worst_rise <= 1e-9, f"merit rose by {worst_rise:.3e}"
        return f"worst cycle-to-cycle rise {worst_rise:.2e}"

    def mse_twin_agreement():
        radio = RadioConfig(n_antennas=4, n_users=3, pathloss_db=0.0,
                            noise_power_server=0.05, noise_power_user=0.02)
        rng = substream(seed, "validate-mse")
        worst = 0.0
        for trial in range(5):
            chan = sample_channels(radio, 200 + trial)
            weights = aircomp.AggregationWeights(rng.uniform(1, 4, 3))
            f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
            t_all = np.sqrt(radio.power_budget) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            r_all = pam.update_r(f_matrix, t_all, chan, weights, radio)
            eta = float(rng.uniform(0.5, 2.0))
            closed = aircomp.analytic_mse(f_matrix, r_all, t_all, chan, weights, radio, eta, 3)
            mc_mean, mc_se = aircomp.monte_carlo_mse(
                f_matrix, r_all, t_all, chan, weights, radio, eta, 3, 20000, 300 + trial
            )
            worst = max(worst, float(np.max(np.abs(closed - mc_mean) / mc_se)))
        assert worst <= 4.0, f"worst |z| {worst:.3f}"
        return f"worst |z| {worst:.2f}"

    def block_updates_never_regress():
        radio = RadioConfig(n_antennas=4, n_users=3, pathloss_db=0.0,
                            noise_power_server=0.01, noise_power_user=0.01)
        chan = sample_channels(radio, seed)
        weights = aircomp.AggregationWeights(np.array([1.0, 2.0, 3.0]))
        sol = pam.run_pam(chan, weights, radio, PamConfig(n_outer=5, m_inner=20, seed=seed))
        for before, after in sol.r_update_pairs:
            assert after <= before + 1e-12, f"equalizer step rose {before} -> {after}"
        for before, after in sol.t_update_pairs:
            assert after <= before + 1e-12, f"transmit step rose {before} -> {after}"
        assert sol.objective <= sol.outer_objectives[0] + 1e-12, "no end-to-end improvement"
        return None

    _check("structured solve matches dense oracle", structured_vs_dense, failures)
    _check("phase projection is the grid-verified minimizer", phase_projection, failures)
    _check("closed-form equalizer is stationary", stationarity, failures)
    _check("inner merit non-increasing", inner_merit_monotone, failures)
    _check("closed-form MSE matches simulation", mse_twin_agreement, failures)
    _check("block updates never regress", block_updates_never_regress, failures)
    if failures:
        raise ValidationFailure(f"{len(failures)} validation check(s) failed: {', '.join(failures)}")
    print("validate: all checks passed")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="airfl",
        description="Over-the-air federated learning with a unit-modulus phase-shift relay.",
    )
    parser.add_argument("--config", help="JSON configuration file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize the relay for one fading block")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--mode", choices=["pam", "baseline", "both"], default=None)
    p_opt.add_argument("--round-index", type=int, default=0)
    p_opt.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run federated training over the analog link")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--mode", choices=["pam", "baseline", "both"], default=None)
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--replays", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_mse = sub.add_parser("mse-check", help="closed-form vs simulated MSE cross-check")
    p_mse.add_argument("--seed", type=int, default=None)
    p_mse.add_argument("--draws", type=int, default=100000)
    p_mse.add_argument("--instances", type=int, default=5)
    p_mse.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="run the deterministic self-check suite")
    p_val.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "optimize":
            return _cmd_optimize(cfg, args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args)
        if args.command == "mse-check":
            return _cmd_mse_check(cfg, args)
        if args.command == "validate":
            return _cmd_validate(cfg, args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK
