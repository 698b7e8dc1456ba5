"""Command-line front end: optimize / simulate / mse-check / validate.

Configuration is a single JSON file whose schema is the dataclass fields of
:class:`ExperimentConfig` and its sections: each field gives its key's name,
kind and default, and the dataclass validates the value.  Unknown keys are
rejected and every error message names the offending key path.  All output
files embed the fully-resolved configuration and seed, floats are written
with 17 significant digits, and line endings are LF, so a rerun with the same
seed reproduces every byte (noise substreams are keyed, never shared, so this
holds regardless of evaluation order).

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass

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

# "both" runs the first two in turn.
RUN_MODES = ("pam", "baseline", "both")


class ConfigError(ValueError):
    """Bad configuration file or option; message names the key path."""


class ValidationFailure(RuntimeError):
    """A self-check (validate / mse-check) did not pass."""


def _at_least(value, minimum, path):
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


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

    def __post_init__(self):
        if self.kind not in ("quadratic", "logistic"):
            raise ConfigError(f"task.kind: unknown task kind {self.kind!r}")
        for key in ("dim", "samples_per_user", "rows_per_sample"):
            _at_least(getattr(self, key), 1, f"task.{key}")
        if self.kind == "logistic" and not self.l2 > 0:
            raise ConfigError("task.l2: must be strictly positive for a logistic task")

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
        return make_logistic_task(
            n_users=n_users,
            dim=self.dim,
            samples_per_user=self.samples_per_user,
            l2=self.l2,
            seed=self.seed,
        )


@dataclass
class ExperimentConfig:
    """Fully-resolved run description (radio + optimizer + task + schedule)."""

    radio: RadioConfig = field(default_factory=RadioConfig)
    pam: PamConfig = field(default_factory=PamConfig)
    train: LocalTrainConfig = field(default_factory=LocalTrainConfig)
    task: TaskSpec = field(default_factory=TaskSpec)
    rounds: int = 15
    seeds: tuple = (0,)
    replays: int = 1
    mode: str = "both"
    out_dir: str = "out"

    def __post_init__(self):
        _at_least(self.rounds, 1, "rounds")
        _at_least(self.replays, 1, "replays")
        if self.mode not in RUN_MODES:
            choices = ", ".join(map(repr, RUN_MODES[:-1])) + f" or {RUN_MODES[-1]!r}"
            raise ConfigError(f"mode: expected {choices}, got {self.mode!r}")


_SCALAR_KINDS = {"int": int, "float": float, "bool": bool, "str": str}


def _coerce(value, kind, path):
    if value is None:
        raise ConfigError(f"{path}: must not be null")
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        coerced = kind(value) if kind in (int, float) else value
        if not isinstance(coerced, kind) or (kind is int and coerced != value):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(coerced):
        raise ConfigError(f"{path}: must be finite")
    return coerced


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_value(kind, value, path):
    """Coerce one JSON value to ``kind``, a field's annotation string."""
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind.removesuffix(" | None")
    if kind == "tuple":  # seeds: one int or a nonempty list of ints
        if isinstance(value, int) and not isinstance(value, bool):
            value = [value]
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected an integer or nonempty list of integers")
        return tuple(_coerce(v, int, f"{path}[{i}]") for i, v in enumerate(value))
    if kind == "float | list":  # per-user: one number shared by all users, or one each
        if value is None:
            raise ConfigError(f"{path}: must not be null")
        if _is_number(value):
            return _coerce(value, float, path)
        if isinstance(value, list) and value and all(map(_is_number, value)):
            return [_coerce(v, float, f"{path}[{i}]") for i, v in enumerate(value)]
        raise ConfigError(f"{path}: expected a number or nonempty list of numbers")
    return _coerce(value, _SCALAR_KINDS[kind], path)


def _parse_section(cls, raw, name=None):
    """Build dataclass ``cls`` from the JSON object ``raw`` found under key ``name``.

    The fields of ``cls`` are the schema.  A field whose default factory is a
    dataclass is a nested section; any other field is coerced by its
    annotation, which ``Field.type`` holds as a string (postponed evaluation),
    so no annotation is evaluated.  Keys absent from ``raw`` keep the field's
    default, and the dataclass itself validates the values.
    """
    label = name or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: expected an object")
    schema = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in schema})
    if unknown:
        raise ConfigError(f"{label}.{unknown[0]}: unknown key")
    values = {}
    for f in schema:
        if f.name not in raw:
            continue
        if is_dataclass(f.default_factory):
            values[f.name] = _parse_section(f.default_factory, raw[f.name], f.name)
        else:
            path = f"{name}.{f.name}" if name else f.name
            values[f.name] = _parse_value(f.type, raw[f.name], path)
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


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
    return _parse_section(ExperimentConfig, data)


def resolved_config(cfg):
    """Plain-dict form of a parsed config; parse(resolved) is a fixed point."""
    resolved = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = resolved_config(value)
        elif isinstance(value, (np.ndarray, tuple)):
            value = list(value)
        resolved[f.name] = value
    return resolved


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
    return RUN_MODES[:2] if mode == "both" else (mode,)


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
    p_opt.add_argument("--mode", choices=RUN_MODES, default=None)
    p_opt.add_argument("--round-index", type=int, default=0)
    p_opt.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run federated training over the analog link")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--mode", choices=RUN_MODES, default=None)
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
