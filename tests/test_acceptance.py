"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines of passing criteria).  The reference radio parameters are
N=8 antennas, K=3 users, 1 W power budget, unit forward gain, -40 dB
pathloss, 1e-11 W noise, 15 rounds.
"""

import json
import time

import numpy as np

from airfl import checks
from airfl.aircomp import AggregationWeights, _effective_gains
from airfl.channel import RadioConfig, sample_channels, substream
from airfl.cli import main
from airfl.flsim import (
    LocalTrainConfig,
    make_quadratic_task,
    round_step,
    run_experiment,
    solve_round,
)
from airfl.pam import T_GAP_TOL, PamConfig, transmit_objective, update_t

REFERENCE_RADIO = dict(
    n_antennas=8,
    n_users=3,
    pathloss_db=-40.0,
    noise_power_server=1e-11,
    noise_power_user=1e-11,
    power_budget=1.0,
    power_scaling=1.0,
)
# Relay-optimization depth used for the multi-seed training runs; deep enough
# to plateau at N=8 while keeping the suite's runtime in seconds per run.
RUN_PAM_CFG = PamConfig(n_outer=6, m_inner=20)


def _verdict(number, name, passed, detail):
    line = f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} — {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_structured_solver_matches_dense_oracle():
    t0 = time.time()
    worst = checks.structured_solve_error(601, 200)
    elapsed = time.time() - t0
    _verdict(
        1,
        "relay u-step matches the dense oracle",
        worst <= 1e-10 and elapsed < 10.0,
        f"200 instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_updates_are_stationary():
    worst_r, worst_u = checks.stationarity_slopes(602, 100)
    _verdict(
        2,
        "closed-form equalizer and copy updates are stationary points",
        worst_r <= 1e-6 and worst_u <= 1e-6,
        f"100+100 instances, worst scaled slope r {worst_r:.2e}, u {worst_u:.2e}",
    )


def test_criterion_03_inner_merit_never_increases():
    rises = checks.inner_merit_rises(603, 100)
    violations = int(np.sum(rises > 1e-9))
    _verdict(
        3,
        "inner penalized merit is non-increasing",
        violations == 0,
        f"100 seeds x 3 penalty weights x 50 cycles: {violations}/{rises.size} rises "
        f"beyond 1e-9 slack (worst step {float(rises.max()):+.2e})",
    )


def test_criterion_04_block_updates_never_increase_their_objectives():
    worst, pairs_checked = checks.paired_block_rise(range(10))
    _verdict(
        4,
        "equalizer and transmit blocks never regress",
        worst <= 1e-9,
        f"{pairs_checked} before/after pairs across 10 seeded paired runs",
    )


def test_criterion_05_closed_form_mse_matches_simulation():
    t0 = time.time()
    worst_z = checks.mse_agreement(605, 50, 100_000)
    elapsed = time.time() - t0
    _verdict(
        5,
        "closed-form MSE within 3 standard errors of simulation",
        worst_z <= 3.0 and elapsed < 60.0,
        f"50 configurations x 1e5 draws: worst |z| {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_06_transmit_solver_matches_grid_search():
    mags = np.linspace(1e-3, 1.0, 40)
    phases = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    grid = (mags[:, None] * np.exp(1j * phases[None, :])).ravel()
    rng = substream(606, "transmit-grid")
    worst_gap = -np.inf
    for i in range(50):
        k = 1 + (i % 2)
        radio = RadioConfig(
            n_antennas=3,
            n_users=k,
            pathloss_db=0.0,
            noise_power_server=0.01,
            noise_power_user=0.01,
        )
        chan = sample_channels(radio, int(rng.integers(1 << 31)))
        f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        r_all = np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
        gains, _ = _effective_gains(f_matrix, chan)
        coeff = r_all[:, None] * gains
        t_all, _ = update_t(f_matrix, r_all, chan, weights, radio)
        achieved = transmit_objective(coeff, weights.alpha, t_all)
        if k == 1:
            resid = np.abs(coeff[:, 0][:, None] * grid[None, :] - weights.alpha[0]) ** 2
            best = float(np.min(np.max(resid, axis=0)))
        else:
            res_a = np.abs(coeff[:, 0][:, None] * grid[None, :] - weights.alpha[0]) ** 2
            res_b = np.abs(coeff[:, 1][:, None] * grid[None, :] - weights.alpha[1]) ** 2
            best = float(np.min(np.max(res_a[:, :, None] + res_b[:, None, :], axis=0)))
        worst_gap = max(worst_gap, achieved - best)
    _verdict(
        6,
        "transmit-gain solver matches 40x40 polar grid search",
        worst_gap <= 1e-6,
        f"50 instances (K<=2): worst objective excess over grid {worst_gap:+.2e}",
    )


def test_criterion_07_perfect_link_reproduces_centralized_descent():
    task = make_quadratic_task(n_users=1, dim=10, samples_per_user=20, seed=0)
    radio = RadioConfig(
        n_antennas=2,
        n_users=1,
        pathloss_db=0.0,
        noise_power_server=0.0,
        noise_power_user=0.0,
    )
    chan = sample_channels(radio, 0)
    weights = AggregationWeights(task.dataset_sizes)
    train = LocalTrainConfig()
    step = train.resolve_step(task)
    worst = 0.0
    for mode in ("baseline", "pam"):
        x = np.zeros((1, 1, 10))
        y = np.zeros(10)
        for i in range(15):
            sol = solve_round(mode, chan, weights, radio, RUN_PAM_CFG, 0, i)
            x = round_step(x, task, weights, chan, radio, sol, step, train.local_updates, 0, i)[0]
            y = y - step * task.local_gradient_batch(0, y[None, :])[0]
            worst = max(worst, float(np.max(np.abs(x[0, 0] - y))))
    _verdict(
        7,
        "zero-noise single-user rounds equal centralized gradient descent",
        worst <= 1e-10,
        f"15 rounds, both link modes: worst per-round deviation {worst:.2e}",
    )


def test_criterion_08_loss_gap_bound_holds_in_final_third():
    task = make_quadratic_task(n_users=3, dim=10, samples_per_user=20, seed=0)
    radio = RadioConfig(**REFERENCE_RADIO)
    report = run_experiment(
        task,
        radio,
        pam_cfg=RUN_PAM_CFG,
        train_cfg=LocalTrainConfig(),
        rounds=15,
        seeds=(0,),
        modes=("pam",),
        replays=120,
    )
    trajectory = report.get(0, "pam")
    for sol in trajectory.solutions:
        assert checks.block_rise(sol) <= 1e-9, "criterion 8: a block update rose"
        assert max(sol.t_gaps) <= T_GAP_TOL, "criterion 8: a transmit solve is uncertified"
    final_third = trajectory.bound_ok[10:]
    early_violations = int(np.sum(~trajectory.bound_ok[:10]))
    margin = float(
        np.min(trajectory.bound[10:] - trajectory.decoded_gap[10:].max(axis=1))
    )
    _verdict(
        8,
        "convergence bound dominates the replay-averaged loss gap",
        bool(np.all(final_third)),
        f"rounds 10-14 over 120 replays all bounded (min margin {margin:.2e}); "
        f"{early_violations} early-round violations recorded, not asserted",
    )


def test_criterion_09_relay_optimization_beats_fixed_relay():
    t0 = time.time()
    task = make_quadratic_task(n_users=3, dim=10, samples_per_user=20, seed=0)
    radio = RadioConfig(**REFERENCE_RADIO)
    seeds = tuple(range(20))
    report = run_experiment(
        task,
        radio,
        pam_cfg=RUN_PAM_CFG,
        train_cfg=LocalTrainConfig(),
        rounds=15,
        seeds=seeds,
        modes=("pam", "baseline"),
        replays=1,
    )
    wins = 0
    ratios = []
    for seed in seeds:
        pam_traj = report.get(seed, "pam")
        base_traj = report.get(seed, "baseline")
        for sol in pam_traj.solutions + base_traj.solutions:
            assert checks.block_rise(sol) <= 1e-9, f"criterion 9 seed {seed}: a block update rose"
            assert max(sol.t_gaps) <= T_GAP_TOL, f"criterion 9 seed {seed}: a transmit solve is uncertified"
        wins += pam_traj.objective[-1] < base_traj.objective[-1]
        ratios.append(pam_traj.objective[-1] / base_traj.objective[-1])
    pam_mean_loss = float(np.mean([report.get(s, "pam").final_loss for s in seeds]))
    base_mean_loss = float(np.mean([report.get(s, "baseline").final_loss for s in seeds]))
    elapsed = time.time() - t0
    passed = wins >= 18 and pam_mean_loss <= base_mean_loss and elapsed < 60.0
    _verdict(
        9,
        "optimized relay beats the fixed-relay baseline",
        passed,
        f"final worst-user objective lower on {wins}/20 seeds "
        f"(median ratio {np.median(ratios):.3f}); mean final loss "
        f"{pam_mean_loss:.6f} vs {base_mean_loss:.6f}, {elapsed:.1f}s",
    )


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path):
    cfg = {
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
        "seeds": [7],
        "replays": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    compared = 0
    for command in (
        ["optimize", "--seed", "7"],
        ["simulate", "--mode", "both", "--seed", "7"],
        ["mse-check", "--draws", "2000", "--instances", "2"],
    ):
        blobs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{command[0]}-{attempt}"
            code = main(["--config", str(cfg_path)] + command + ["--out", str(out)])
            assert code == 0, f"{command[0]} exited {code}"
            blobs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert blobs[0].keys() == blobs[1].keys()
        for name in blobs[0]:
            assert blobs[0][name] == blobs[1][name], f"{command[0]}/{name} differs"
            compared += 1
    _verdict(
        10,
        "repeated CLI runs are byte-identical",
        True,
        f"{compared} output files compared across optimize/simulate/mse-check",
    )
