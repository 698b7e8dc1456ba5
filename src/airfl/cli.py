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

from . import aircomp, checks
from .channel import RadioConfig, sample_channels, substream
from .flsim import LocalTrainConfig, TaskSpec, run_experiment, solve_round
from .linalg import NumericError
from .pam import PamConfig

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


def _seed_value(value, path):
    # substream reads integers modulo 2**64: outside [0, 2**63) one aliases another.
    if _at_least(value, 0, path) >= 1 << 63:
        raise ConfigError(f"{path}: must be below 2**63")
    return value


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
        for i, seed in enumerate(self.seeds):
            _seed_value(seed, f"seeds[{i}]")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: must not repeat")
        _seed_value(self.task.seed, "task.seed")
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


def _write_csv(path, stamp, header, rows):
    """A ``# <stamp JSON>`` line, the header, then one line per row."""
    lines = ["# " + json.dumps(stamp, sort_keys=True), header]
    lines += [",".join(map(_fmt, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


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
    _seed_value(args.round_index, "--round-index")
    seed = cfg.seeds[0] if args.seed is None else _seed_value(args.seed, "--seed")
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    weights = aircomp.AggregationWeights(np.full(cfg.radio.n_users, float(cfg.task.samples_per_user)))
    chan = sample_channels(cfg.radio, seed, round_index=args.round_index)
    results = {}
    for mode in _modes(cfg, args.mode):
        sol = solve_round(mode, chan, weights, cfg.radio, cfg.pam, seed, args.round_index)
        results[mode] = {
            "objective": sol.objective,
            "objective_initial": float(sol.outer_objectives[0]),
            "outer_objectives": [float(v) for v in sol.outer_objectives],
            "relay_matrix": _complex_list(sol.f_matrix),
            "receive_coefficients": _complex_list(sol.r_all),
            "transmit_coefficients": _complex_list(sol.t_all),
            "inner_final_merit": sol.inner_merits,
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
    try:
        task = cfg.task.build(cfg.radio.n_users)
    except ValueError as exc:  # a sample draw too small to whiten
        raise ConfigError(f"task: {exc}") from exc
    seeds = cfg.seeds if args.seed is None else (_seed_value(args.seed, "--seed"),)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
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
        trajectories = {mode: report.get(seed, mode) for mode in modes}
        _write_csv(
            os.path.join(out_dir, f"trajectories_seed{seed}.csv"),
            _stamp(cfg, seed=seed, extra={"rounds": rounds, "replays": replays}),
            "round,mode,loss,loss_gap,max_mse,bound",
            [
                (i, mode, traj.loss[i], traj.loss_gap[i], traj.max_mse[i], traj.bound[i])
                for mode, traj in trajectories.items()
                for i in range(rounds)
            ],
        )
        summary[str(seed)] = {
            mode: {
                "final_loss": float(traj.loss[-1]),
                "final_loss_gap": float(traj.loss_gap[-1]),
                "final_max_mse": float(traj.max_mse[-1]),
                "final_objective": float(traj.objective[-1]),
                "bound_ok_final_third": None
                if np.isnan(traj.bound[-1])
                else bool(np.all(traj.bound_ok[-max(1, rounds // 3) :])),
            }
            for mode, traj in trajectories.items()
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
        for mode, final in summary[str(seed)].items():
            print(
                f"seed {seed} {mode:9s} final loss {_fmt(final['final_loss'])} "
                f"final max-MSE {_fmt(final['final_max_mse'])}"
            )
    return EXIT_OK


def _cmd_mse_check(cfg, args):
    draws = _at_least(args.draws, 2, "--draws")
    n_instances = _at_least(args.instances, 1, "--instances")
    seed = cfg.seeds[0] if args.seed is None else _seed_value(args.seed, "--seed")
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    radio = cfg.radio
    # An odd dimension is padded with one zero coordinate, as in simulate.
    n_symbols = (cfg.task.dim + 1) // 2
    rows = []
    worst = 0.0
    for idx in range(n_instances):
        chan = sample_channels(radio, seed, round_index=idx)
        link = checks.random_link(substream(seed, "mse-check", idx), chan, radio)
        closed, mc_mean, mc_se, z = checks.mse_z_scores(
            link, chan, radio, n_symbols, draws, seed + 1000 + idx
        )
        for k in range(radio.n_users):
            row = (closed[k], mc_mean[k], mc_se[k], z[k])
            if not np.all(np.isfinite(row)):
                raise NumericError(
                    f"mse-check instance {idx} user {k}: non-finite result (analytic, mc_mean, "
                    f"mc_se, z) = ({', '.join(map(_fmt, row))})"
                )
            worst = max(worst, abs(z[k]))
            rows.append((idx, k, *row))
    _write_csv(
        os.path.join(out_dir, "mse_check.csv"),
        _stamp(cfg, seed=seed, extra={"draws": draws}),
        "instance,user,analytic,mc_mean,mc_se,z_score",
        rows,
    )
    print(f"instances: {n_instances}  draws: {draws}  worst |z|: {worst:.3f}")
    if worst > 3.0:
        raise ValidationFailure(
            f"closed-form and simulated MSE disagree: worst |z| = {worst:.3f} > 3"
        )
    print("mse-check: OK (all |z| <= 3)")
    return EXIT_OK


def _cmd_validate(cfg, args):
    seed = cfg.seeds[0] if args.seed is None else _seed_value(args.seed, "--seed")
    # (check, statistic, measurement, bound): the acceptance criteria's
    # checks at the user's seed with small instance counts.
    table = [
        ("relay u-step matches dense oracle", "worst rel err",
         lambda: checks.u_step_error(seed, 50), 1e-10),
        ("phase projection is the grid-verified minimizer", "worst excess over grid",
         lambda: checks.phase_projection_excess(seed, 64), 1e-9),
        ("closed-form equalizer is stationary", "worst scaled slope",
         lambda: max(checks.stationarity_slopes(seed, 10)), 1e-6),
        ("inner merit non-increasing", "worst cycle-to-cycle rise",
         lambda: float(np.max(checks.inner_merit_rises(seed, 5))), 1e-9),
        ("closed-form MSE matches simulation", "worst |z|",
         lambda: checks.mse_agreement(seed, 5, 20_000), 4.0),
        ("block updates never regress", "worst rise",
         lambda: checks.paired_block_rise((seed,))[0], 1e-12),
    ]
    failures = []
    for name, statistic, measure, bound in table:
        value = measure()
        passed = value <= bound  # a NaN fails
        if not passed:
            failures.append(name)
        print(f"{'[ok]  ' if passed else '[FAIL]'} {name}: {statistic} {value:.2e} (bound {bound:g})")
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
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="run federated training over the analog link")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--mode", choices=RUN_MODES, default=None)
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--replays", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mse = sub.add_parser("mse-check", help="closed-form vs simulated MSE cross-check")
    p_mse.add_argument("--seed", type=int, default=None)
    p_mse.add_argument("--draws", type=int, default=100000)
    p_mse.add_argument("--instances", type=int, default=5)
    p_mse.add_argument("--out", default=None)
    p_mse.set_defaults(func=_cmd_mse_check)

    p_val = sub.add_parser("validate", help="run the deterministic self-check suite")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(parse_config(args.config), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
