"""Self-checks of the numerical claims, one function per claim.

Each check draws its own instances from labeled substreams of ``seed``,
runs the solver under test against an independent oracle, and returns the
measured statistic; it asserts nothing, so the caller owns the bound.  The
acceptance criteria call these functions with their fixed seeds and full
counts, ``airfl validate`` calls them at the user's seed with small counts.

Channel draws and Monte Carlo seeds use fixed offsets from the instance
index (for example ``10_000 + i``), not the seed, so the seed changes the
random links and solver inputs drawn on a fixed set of channels.
"""

from __future__ import annotations

import numpy as np

from .aircomp import AggregationWeights, analytic_mse, monte_carlo_mse, mse_bracket_terms
from .channel import RadioConfig, sample_channels, substream
from .linalg import dense_solve, mat_of_vector, phase_project, vec_of_matrix
from .pam import (
    PamConfig,
    _factor_u_step,
    baseline_optimize,
    build_workspace,
    cycle_merit,
    inner_cycles,
    run_pam,
    update_r,
)

__all__ = [
    "block_rise",
    "dense_u_step",
    "inner_merit_rises",
    "mse_agreement",
    "mse_z_scores",
    "paired_block_rise",
    "phase_projection_excess",
    "random_link",
    "stationarity_slopes",
    "u_step_error",
    "update_u",
]


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _random_radio(rng, max_antennas, noise_low, noise_high):
    """Unit-pathloss radio with 2..max_antennas antennas, 1..3 users, random noise."""
    n = int(rng.integers(2, max_antennas + 1))
    k = int(rng.integers(1, 4))
    return RadioConfig(
        n_antennas=n,
        n_users=k,
        pathloss_db=0.0,
        noise_power_server=float(rng.uniform(noise_low, noise_high)),
        noise_power_user=float(rng.uniform(noise_low, noise_high)),
    )


def dense_u_step(workspace, user, rho, dtype=complex):
    """One user's u-step system, assembled densely as an oracle.

    Returns ``(matrix, data_rhs, rank_one)``: the N^2 x N^2 matrix
    sum_j a_j a_j^H + kron_scale * I kron (g g^H) + (rho/K) I, the data part
    sum_j alpha_j a_j of the right-hand side (the caller adds (rho/K) f),
    and the rank-one vectors a_j = conj(r t_j) vec(g h_j^H) as rows, with
    g the user's downlink and h_j the uplinks.  Everything is computed in
    ``dtype``, so ``np.clongdouble`` gives an extended-precision system.
    """
    g = workspace.downlink[user].astype(dtype)
    n = g.size
    rank_one = np.conj(workspace.r[user] * workspace.t.astype(dtype))[:, None] * np.stack(
        [np.kron(h.conj(), g) for h in workspace.uplink.astype(dtype)]
    )
    matrix = rank_one.T @ rank_one.conj()
    matrix += workspace.kron_scale[user] * np.kron(np.eye(n, dtype=dtype), np.outer(g, g.conj()))
    matrix += (rho / workspace.n_users) * np.eye(n * n, dtype=dtype)
    return matrix, workspace.alpha.astype(dtype) @ rank_one, rank_one


def _copies(f_matrix, v, downlink):
    """Rows vec(F + g_k v_k^T) of every user's copy (column-major vec)."""
    k_users, n = v.shape
    outer = v[:, :, None] * downlink[:, None, :]
    return vec_of_matrix(f_matrix)[None, :] + outer.reshape(k_users, n * n)


def update_u(workspace, f, rho):
    """Every user's copy after one u-step of the inner loop, as explicit rows.

    Solves, for each user k,
        (sum_j a_{k,j} a_{k,j}^H + G_k + (rho/K) I) u_k
            = sum_j alpha_j a_{k,j} + (rho/K) f
    with the rank-one solve the inner loop runs (``pam._factor_u_step``);
    u_k exactly minimizes user k's data cost plus its share
    (rho/K) ||u_k - f||^2 of the consensus penalty.  The loop never forms
    the copies; this one-shot form does, for comparison with
    :func:`dense_u_step`.
    """
    step = _factor_u_step(workspace, rho)
    n = workspace.downlink.shape[1]
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.size != n * n:
        raise ValueError(f"f must have length {n * n}")
    f_matrix = mat_of_vector(f, n, n)
    v = step.diff(workspace.downlink.conj() @ f_matrix) * step.inv_g_sq
    return _copies(f_matrix, v, workspace.downlink)


def u_step_error(seed, count):
    """Worst relative error of the relay u-step against the dense solve.

    Each instance is one user's copy from ``update_u`` on a random
    workspace, compared with :func:`dense_solve` of that user's explicitly
    assembled system (:func:`dense_u_step`).
    """
    rng = substream(seed, "acceptance-structured")
    worst = 0.0
    for i in range(count):
        radio = _random_radio(rng, 4, 0.001, 0.1)
        n, k = radio.n_antennas, radio.n_users
        chan = sample_channels(radio, 10_000 + i)
        r_all = _complex_normal(rng, k)
        t_all = _complex_normal(rng, k)
        weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
        ws = build_workspace(r_all, t_all, chan, weights, radio)
        rho = float(rng.uniform(0.1, 10.0))
        f = _complex_normal(rng, n * n)
        user = int(rng.integers(k))
        fast = update_u(ws, f, rho)[user]
        matrix, data_rhs, _ = dense_u_step(ws, user, rho)
        slow = dense_solve(matrix, data_rhs + (rho / k) * f)
        worst = max(worst, np.linalg.norm(fast - slow) / np.linalg.norm(slow))
    return worst


def phase_projection_excess(seed, count):
    """Worst excess of the unit-modulus projection's squared distance over a grid's.

    Projects ``count`` random points and compares each with the nearest of
    1000 equally spaced unit-circle points; an output whose modulus is off
    1 by more than 1e-12 makes the excess infinite.
    """
    rng = substream(seed, "validate-phase")
    v = _complex_normal(rng, count)
    p = phase_project(v)
    if not np.max(np.abs(np.abs(p) - 1.0)) <= 1e-12:
        return np.inf
    grid = np.exp(1j * np.linspace(0, 2 * np.pi, 1000, endpoint=False))
    best = np.min(np.abs(grid[None, :] - v[:, None]) ** 2, axis=1)
    return float(np.max(np.abs(p - v) ** 2 - best))


def stationarity_slopes(seed, count):
    """Worst scaled central-difference slopes at the closed-form r and u updates.

    Returns ``(worst_r, worst_u)`` over ``count`` instances each: for r the
    slope of one user's MSE bracket along a real and an imaginary step, for
    u the norm of the gradient of one user's proximal u-step objective, both
    divided by max(1, objective).
    """
    rng = substream(seed, "acceptance-stationarity")
    h = 1e-6  # central-difference step
    worst_r = 0.0
    for i in range(count):
        radio = _random_radio(rng, 4, 0.005, 0.05)
        n, k = radio.n_antennas, radio.n_users
        chan = sample_channels(radio, 20_000 + i)
        f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
        t_all = _complex_normal(rng, k)
        weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
        r_all = update_r(f_matrix, t_all, chan, weights, radio)
        base = mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, radio)
        for user in range(k):
            for delta in (h, 1j * h):
                plus = r_all.copy()
                plus[user] += delta
                minus = r_all.copy()
                minus[user] -= delta
                slope = (
                    mse_bracket_terms(f_matrix, plus, t_all, chan, weights, radio)[user]
                    - mse_bracket_terms(f_matrix, minus, t_all, chan, weights, radio)[user]
                ) / (2 * h)
                worst_r = max(worst_r, abs(slope) / max(1.0, base[user]))

    worst_u = 0.0
    for i in range(count):
        radio = _random_radio(rng, 3, 0.005, 0.05)
        n, k = radio.n_antennas, radio.n_users
        chan = sample_channels(radio, 30_000 + i)
        r_all = _complex_normal(rng, k)
        t_all = _complex_normal(rng, k)
        weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
        ws = build_workspace(r_all, t_all, chan, weights, radio)
        rho = float(rng.uniform(0.1, 10.0))
        f = _complex_normal(rng, n * n)
        u_all = update_u(ws, f, rho)
        prox = rho / k
        user = int(rng.integers(k))
        rank_one = dense_u_step(ws, user, rho)[2]

        def objective(user, u):
            fit = rank_one.conj() @ u - weights.alpha
            u_mat = u.reshape((n, n), order="F")
            quad = ws.kron_scale[user] * np.sum(np.abs(ws.downlink[user].conj() @ u_mat) ** 2)
            return float(np.sum(np.abs(fit) ** 2)) + quad + prox * float(np.sum(np.abs(u - f) ** 2))

        scale = max(1.0, objective(user, u_all[user]))
        grad_sq = 0.0
        for idx in range(n * n):
            for delta in (h, 1j * h):
                plus = u_all[user].copy()
                plus[idx] += delta
                minus = u_all[user].copy()
                minus[idx] -= delta
                grad_sq += ((objective(user, plus) - objective(user, minus)) / (2 * h)) ** 2
        worst_u = max(worst_u, np.sqrt(grad_sq) / scale)
    return worst_r, worst_u


def inner_merit_rises(seed, count):
    """Cycle-to-cycle changes of the inner penalized merit (positive = rise).

    ``count`` random workspaces at N=4, K=3, each run for 50 cycles at
    penalty weights 0.1, 1 and 10; returns all the differences in one array.
    """
    radio = RadioConfig(
        n_antennas=4,
        n_users=3,
        pathloss_db=0.0,
        noise_power_server=0.05,
        noise_power_user=0.05,
    )
    rises = []
    for i in range(count):
        rng = substream(seed, "acceptance-inner", i)
        chan = sample_channels(radio, i)
        weights = AggregationWeights(rng.uniform(1.0, 4.0, 3))
        r_all = _complex_normal(rng, 3)
        t_all = _complex_normal(rng, 3)
        ws = build_workspace(r_all, t_all, chan, weights, radio)
        f0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
        for rho in (0.1, 1.0, 10.0):
            cycles = zip(range(50), inner_cycles(ws, f0, rho))
            rises.append(np.diff([cycle_merit(ws, cycle, rho) for _, cycle in cycles]))
    return np.concatenate(rises)


def block_rise(solution):
    """Worst rise of a block update in ``solution``.

    Covers every equalizer and transmit step (objective before and after; a
    transmit step ends at the next outer objective) and the end-to-end pair
    (initial objective, returned objective).
    """
    after_r = [after for _, after in solution.r_update_pairs]
    pairs = solution.r_update_pairs + list(zip(after_r, solution.outer_objectives[1:]))
    pairs.append((solution.outer_objectives[0], solution.objective))
    return max(after - before for before, after in pairs)


def paired_block_rise(seeds):
    """Worst block rise of PAM and the fixed relay on reference fading blocks.

    One block per seed at the default radio (N=8, K=3) with 20 samples per
    user and 8 outer cycles.  Returns ``(worst_rise, n_pairs)``, where
    ``n_pairs`` counts the equalizer and transmit steps checked.
    """
    radio = RadioConfig()
    weights = AggregationWeights(np.full(radio.n_users, 20.0))
    pam_cfg = PamConfig(n_outer=8, m_inner=15)
    worst = -np.inf
    n_pairs = 0
    for seed in seeds:
        chan = sample_channels(radio, seed)
        for run in (
            run_pam(chan, weights, radio, pam_cfg, seed=seed),
            baseline_optimize(chan, weights, radio, pam_cfg),
        ):
            worst = max(worst, block_rise(run))
            n_pairs += 2 * len(run.r_update_pairs)
    return worst, n_pairs


def random_link(rng, chan, radio):
    """A random link on ``chan``: ``(f_matrix, r_all, t_all, weights, eta)``.

    Unit-modulus relay phases, full-power transmit phases, dataset sizes in
    [1, 5), the closed-form equalizer, and a per-entry signal power eta in
    [0.5, 2), drawn from ``rng`` in that order.
    """
    n, k = radio.n_antennas, radio.n_users
    f_matrix = np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
    t_all = np.sqrt(radio.power_budget) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
    r_all = update_r(f_matrix, t_all, chan, weights, radio)
    eta = float(rng.uniform(0.5, 2.0))
    return f_matrix, r_all, t_all, weights, eta


def mse_z_scores(link, chan, radio, n_symbols, draws, mc_seed):
    """Closed-form against simulated per-user MSE of ``link``.

    Returns ``(closed, mc_mean, mc_se, z)`` with z = (closed - mc_mean) / se.
    The standard error is floored at (1e3 eps)^2 times the target's second
    moment 2 eta S sum(alpha^2): a link that delivers the target exactly
    leaves only the rounding of the target as error, and a standard error of
    that rounding measures no noise.  Every se above the floor is used as is.
    """
    f_matrix, r_all, t_all, weights, eta = link
    closed = analytic_mse(f_matrix, r_all, t_all, chan, weights, radio, eta, n_symbols)
    mc_mean, mc_se = monte_carlo_mse(
        f_matrix, r_all, t_all, chan, weights, radio, eta, n_symbols, draws, mc_seed
    )
    floor = (1e3 * np.finfo(float).eps) ** 2 * 2.0 * eta * n_symbols * float(np.sum(weights.alpha**2))
    return closed, mc_mean, mc_se, (closed - mc_mean) / np.maximum(mc_se, floor)


def mse_agreement(seed, count, draws):
    """Worst |z| between the closed-form and simulated MSE over random links.

    ``count`` random radios (2..4 antennas, 1..3 users, unit pathloss), one
    random link and 1..5 symbols each, ``draws`` Monte Carlo draws each.
    """
    rng = substream(seed, "acceptance-mse")
    worst = 0.0
    for i in range(count):
        radio = _random_radio(rng, 4, 0.005, 0.05)
        chan = sample_channels(radio, 40_000 + i)
        link = random_link(rng, chan, radio)
        n_symbols = int(rng.integers(1, 6))
        z = mse_z_scores(link, chan, radio, n_symbols, draws, 50_000 + i)[3]
        worst = max(worst, float(np.max(np.abs(z))))
    return worst
