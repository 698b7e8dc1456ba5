"""Robustness sweeps over the radios a config can express, and over configs
run end to end through the CLI.

Every case must end in one of two ways: finite results (with the closed-form
MSE matching the simulated chain within ``airfl validate``'s |z| bound), or a
typed ``NumericError``.  The draws cover K=1, N=1, K > N, zero noise, very
large pathloss, and downlinks up to 20 dB stronger than unit gain (the range
a relay amplification moves the downlink pathloss through).
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from airfl import checks
from airfl.aircomp import AggregationWeights
from airfl.channel import RadioConfig, sample_channels, substream
from airfl.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from airfl.linalg import NumericError
from airfl.pam import PamConfig, baseline_optimize, run_pam

SWEEP = settings(max_examples=60, derandomize=True, database=None, deadline=None)
MAX_Z = 4.0


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


_pathloss = st.one_of(st.sampled_from([0.0, -40.0, -100.0, -150.0]), st.floats(-150.0, 0.0))
_noise = st.one_of(st.just(0.0), _log_uniform(-13, -1))

radios = st.builds(
    RadioConfig,
    n_antennas=st.integers(1, 6),
    n_users=st.integers(1, 8),
    pathloss_db=_pathloss,
    downlink_pathloss_db=st.one_of(st.none(), st.floats(-150.0, 20.0)),
    noise_power_server=_noise,
    noise_power_user=_noise,
    power_budget=_log_uniform(-3, 2),
)


@SWEEP
@given(radio=radios, seed=st.integers(0, 2**31 - 1), n_symbols=st.integers(1, 3))
def test_closed_form_matches_chain(radio, seed, n_symbols):
    try:
        chan = sample_channels(radio, seed)
        link = checks.random_link(substream(seed, "robustness-link"), chan, radio)
        z = checks.mse_z_scores(link, chan, radio, n_symbols, 4000, seed + 1)[3]
    except NumericError:
        return
    assert np.all(np.isfinite(z)) and np.max(np.abs(z)) <= MAX_Z, f"z = {z}"


@SWEEP
@given(radio=radios, seed=st.integers(0, 2**31 - 1))
def test_optimizers_return_finite_links(radio, seed):
    chan = sample_channels(radio, seed)
    weights = AggregationWeights(substream(seed, "robustness-sizes").uniform(1.0, 5.0, radio.n_users))
    pam_cfg = PamConfig(n_outer=3, m_inner=10)
    for optimize, kwargs in ((run_pam, {"seed": seed}), (baseline_optimize, {})):
        try:
            sol = optimize(chan, weights, radio, pam_cfg, **kwargs)
        except NumericError:
            continue
        for value in (sol.f_matrix, sol.r_all, sol.t_all, sol.objective, sol.outer_objectives):
            assert np.all(np.isfinite(value)), f"{optimize.__name__}: {value}"


# The CLI end to end: radios at extreme gains and noise, both task kinds,
# and every subcommand that runs the optimizer or the chain, at 2 outer x 3
# inner cycles.  A run must exit 0 or with a documented code, print no
# warning, and write only finite numbers: the one documented exception is
# the `bound` column of a quadratic task with an odd dim, whose padded
# coordinate makes the bound undefined (`nan`).
CLI_SWEEP = settings(max_examples=60, derandomize=True, database=None, deadline=None)
_cli_pathloss = st.sampled_from([0.0, -20.0, 50.0, -100.0, 300.0, -300.0])
_cli_noise = st.sampled_from([0.0, 1e-13, 1e-3, 10.0])


@st.composite
def cli_cases(draw):
    k = draw(st.integers(1, 5))
    noise_user = draw(st.one_of(_cli_noise, st.lists(_cli_noise, min_size=k, max_size=k)))
    config = {
        "radio": {
            "n_antennas": draw(st.integers(1, 5)),
            "n_users": k,
            "pathloss_db": draw(_cli_pathloss),
            "noise_power_server": draw(_cli_noise),
            "noise_power_user": noise_user,
            "power_budget": draw(_log_uniform(-4, 3)),
        },
        "pam": {"n_outer": 2, "m_inner": 3, "rho": draw(_log_uniform(-3, 2))},
        "task": {
            "kind": draw(st.sampled_from(["quadratic", "logistic"])),
            "dim": draw(st.integers(1, 6)),
            "samples_per_user": 4,
        },
        "train": {"step_size": draw(st.one_of(st.none(), _log_uniform(-3, 0)))},
        "rounds": 2,
        "seeds": [draw(st.integers(0, 2**31 - 1))],
    }
    command = draw(st.sampled_from([["optimize"], ["simulate"], ["mse-check", "--draws", "200", "--instances", "1"]]))
    return config, command, draw(st.integers(0, 3)) == 0


def _run_cli(config, command, work):
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    out = os.path.join(work, "out")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["--config", path, *command, "--out", out])
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
    return code, stderr.getvalue(), files


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


@CLI_SWEEP
@given(case=cli_cases())
def test_cli_runs_end_finite_or_typed(case):
    config, command, rerun = case
    with tempfile.TemporaryDirectory() as work:
        code, stderr, files = _run_cli(config, command, work)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_NUMERIC), stderr
        assert "warning" not in stderr.lower(), stderr
        padded = config["task"]["kind"] == "quadratic" and config["task"]["dim"] % 2 == 1
        for name, data in files.items():
            text = data.decode("utf-8")
            if name.endswith(".json"):
                values = _numbers(json.loads(text))
            else:
                lines = text.splitlines()
                header = lines[1].split(",")
                values = []
                for line in lines[2:]:
                    for column, cell in zip(header, line.split(",")):
                        if column == "bound" and padded and cell == "nan":
                            continue
                        if column not in ("round", "mode", "instance", "user"):
                            values.append(float(cell))
            assert np.all(np.isfinite(values)), f"{name}: {text}"
        if rerun:
            with tempfile.TemporaryDirectory() as again:
                assert _run_cli(config, command, again) == (code, stderr, files)
