"""Min-max MSE optimization of the relay phase-shift matrix and link gains.

The design variables are the relay matrix F (every entry constrained to unit
modulus), per-user transmit coefficients t (power-limited), and per-user
receive equalizers r.  The objective is the worst user's MSE bracket (see
``aircomp.mse_bracket_terms``).  Blocks are updated alternately:

* r: per-user closed form (exact minimizer of the user's bracket),
* t: exact solve of the pointwise-max least-squares objective by dual ascent
  over the simplex, with a duality-gap certificate,
* F: an inner penalized alternating-minimization loop over per-user copies
  u_k, the consensus vector f = vec(F), and its unit-modulus projection z.

The inner loop's u-step solves K structured normal systems, one per user,
and never forms an N^2 x N^2 matrix.  Their matrices depend only on the
fixed (r, t, rho), so :func:`inner_pam` factors them once per call
(``linalg.StructuredFactor``) and each cycle solves all users in one batched
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aircomp import _effective_gains, mse_bracket_terms
from .channel import substream
from .linalg import StructuredFactor, StructuredGram, mat_of_vector, phase_project, vec_of_matrix

__all__ = [
    "PamConfig",
    "PamWorkspace",
    "PhaseShiftState",
    "Solution",
    "baseline_optimize",
    "build_workspace",
    "inner_pam",
    "objective_minmax",
    "penalized_objective",
    "run_pam",
    "transmit_objective",
    "update_f",
    "update_r",
    "update_t",
    "update_u",
]

_INIT_STRATEGIES = ("random-phase", "all-ones")

# Transmit-gain solve (update_t): stop at this relative duality gap, or after
# this many dual ascent steps; an accepted step's length grows by this factor.
T_GAP_TOL = 1e-6
T_MAX_ITERS = 5000
T_STEP_GROWTH = 1.5


@dataclass
class PamConfig:
    """Hyperparameters of the alternating optimizer.

    ``rho`` is the inner consensus penalty; ``rho_growth`` optionally scales
    it geometrically after every outer cycle (1.0 keeps it constant, which is
    the default).

    Inside the inner loop every user's copy takes the regularized
    least-squares step simultaneously (see :func:`update_u`): the exact
    minimizer of the sum of the per-user costs plus their proximal terms.
    On unit-scale instances it also decreases the worst-user merit every
    cycle; in regimes with very uneven per-user scales the merit may rise
    transiently while the outer objective keeps improving.
    """

    rho: float = 1.0
    n_outer: int = 20
    m_inner: int = 50
    init_strategy: str = "random-phase"
    seed: int = 0
    rho_growth: float = 1.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be strictly positive")
        if int(self.n_outer) < 1 or int(self.m_inner) < 1:
            raise ValueError("n_outer and m_inner must be at least 1")
        self.n_outer = int(self.n_outer)
        self.m_inner = int(self.m_inner)
        if self.init_strategy not in _INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {_INIT_STRATEGIES}")
        if not self.rho_growth > 0:
            raise ValueError("rho_growth must be strictly positive")
        self.seed = int(self.seed)


@dataclass
class PhaseShiftState:
    """Inner-loop state: consensus vector f, per-user copies, projection z."""

    f: np.ndarray
    u_all: np.ndarray
    z: np.ndarray


@dataclass
class PamWorkspace:
    """Quantities the inner loop needs, precomputed from (r, t, channels).

    ``rank_one[k, j]`` is the length-N^2 vector a_{k,j} with
    ``a_{k,j}^H vec(F) = r_k g_k^H F h_j t_j``; ``kron_scale[k]`` is the
    relay-noise quadratic coefficient noise_server * |r_k|^2 attached to
    ``I kron (g_k g_k^H)``.
    """

    rank_one: np.ndarray
    kron_scale: np.ndarray
    downlink: np.ndarray
    alpha: np.ndarray

    @property
    def n_users(self):
        return self.rank_one.shape[0]

    @property
    def dim(self):
        return self.rank_one.shape[2]


def objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg):
    """Worst-user MSE bracket — the quantity the alternating loop minimizes."""
    return float(np.max(mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, cfg)))


def update_r(f_matrix, t_all, chan, weights, cfg):
    """Per-user closed-form equalizer given the relay matrix and transmit gains.

    r_k = sum_j alpha_j conj(g_k^H F h_j t_j) /
          (sum_j |g_k^H F h_j t_j|^2 + noise_server ||g_k^H F||^2 + noise_user_k / gamma)
    """
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    gains, row_norm_sq = _effective_gains(f_matrix, chan)
    ct = gains * t_all[None, :]
    numerator = ct.conj() @ weights.alpha
    denominator = (
        np.sum(np.abs(ct) ** 2, axis=1)
        + cfg.noise_power_server * row_norm_sq
        + np.asarray(cfg.noise_power_user, dtype=float) / cfg.power_scaling
    )
    if np.any(denominator <= 0):
        raise ValueError(
            "equalizer denominator is zero for some user (all-zero effective channel "
            "with zero noise); the update is undefined"
        )
    return numerator / denominator


def _transmit_rows(coeff, alpha, t_all):
    """Per-user misfits sum_j |coeff[k, j] t_j - alpha_j|^2."""
    resid = coeff * np.asarray(t_all, dtype=complex)[None, :] - alpha[None, :]
    return np.sum(np.abs(resid) ** 2, axis=1)


def transmit_objective(coeff, alpha, t_all):
    """Pointwise-max least-squares objective of the transmit-gain subproblem.

    ``coeff[k, j] = r_k g_k^H F h_j``; value is
    max_k sum_j |coeff[k, j] t_j - alpha_j|^2.
    """
    return float(np.max(_transmit_rows(coeff, alpha, t_all)))


def _simplex_project(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    support = np.count_nonzero(u * np.arange(1, v.size + 1) > excess)
    return np.maximum(v - excess[support - 1] / support, 0.0)


def update_t(f_matrix, r_all, chan, weights, cfg, t_init=None):
    """Transmit coefficients minimizing the worst user's least-squares misfit.

    Solves min_{|t_j|^2 <= power_budget} max_k sum_j |c_kj t_j - alpha_j|^2,
    c_kj = r_k g_k^H F h_j, through its dual over the simplex: the max over
    users is a max over weights lam >= 0 with sum(lam) = 1, and the minimax
    swap holds (Sion).  For fixed lam the weighted problem separates per
    user j into an isotropic scalar quadratic, minimized by
    t_j = alpha_j sum_k lam_k conj(c_kj) / sum_k lam_k |c_kj|^2 radially
    projected onto the disc.  The per-user objective vector at that t is the
    dual gradient (Danskin), and projected-gradient ascent on lam with
    backtracking runs until the relative duality gap is at most
    ``T_GAP_TOL`` or ``T_MAX_ITERS`` ascent steps have been taken.

    Returns ``(t, gap)``: the best primal point seen, never worse than the
    incoming t, and (objective(t) - best dual value) / objective(t), which
    bounds the relative excess of t over the optimum.
    """
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    gains, _ = _effective_gains(f_matrix, chan)
    coeff = r_all[:, None] * gains
    coeff_sq = np.abs(coeff) ** 2
    alpha = weights.alpha
    cap = np.sqrt(cfg.power_budget)
    k_users = alpha.size
    if t_init is None:
        t_init = np.full(k_users, cap, dtype=complex)
    t_init = np.asarray(t_init, dtype=complex).reshape(-1)
    if float(np.max(coeff_sq)) == 0.0:
        return t_init, 0.0

    def weighted_minimizer(lam):
        scale = lam @ coeff_sq
        t = t_init.copy()  # entries with no weighted curvature do not matter
        live = scale > 0
        t[live] = alpha[live] * (lam @ coeff)[live].conj() / scale[live]
        mag = np.abs(t)
        over = mag > cap
        t[over] *= cap / mag[over]
        return t

    def gap(primal, dual):
        # Rounding can put a tight dual bound a few ulps above the primal.
        return max(primal - dual, 0.0) / primal if primal > 0 else 0.0

    best_t = t_init
    best_val = float(np.max(_transmit_rows(coeff, alpha, t_init)))
    lam = np.full(k_users, 1.0 / k_users)
    t = weighted_minimizer(lam)
    rows = _transmit_rows(coeff, alpha, t)
    dual = float(lam @ rows)
    # Each simplex vertex is a dual point too: user k's own least-squares
    # optimum over the discs, sum_j max(alpha_j - |c_kj| sqrt(P), 0)^2.  It
    # closes the gap at once when one user's value cannot be improved (a
    # zero row of coeff), where ascent only creeps towards the vertex.
    vertices = np.sum(np.maximum(alpha[None, :] - np.abs(coeff) * cap, 0.0) ** 2, axis=1)
    best_dual = max(dual, float(np.max(vertices)))
    step = 1.0 / max(float(np.max(rows)), np.finfo(float).tiny)
    for ascent in range(T_MAX_ITERS + 1):
        val = float(np.max(rows))
        if val < best_val:
            best_t, best_val = t, val
        if gap(best_val, best_dual) <= T_GAP_TOL or ascent == T_MAX_ITERS:
            break
        # Backtrack until the step passes the sufficient-increase test of a
        # gradient step with Lipschitz estimate 1/step; a step too small to
        # move lam passes it trivially.
        while True:
            lam_new = _simplex_project(lam + step * rows)
            t_new = weighted_minimizer(lam_new)
            rows_new = _transmit_rows(coeff, alpha, t_new)
            dual_new = float(lam_new @ rows_new)
            move = lam_new - lam
            if dual_new >= dual + rows @ move - (move @ move) / (2.0 * step):
                break
            step *= 0.5
        lam, t, rows, dual = lam_new, t_new, rows_new, dual_new
        best_dual = max(best_dual, dual)
        step *= T_STEP_GROWTH
    return best_t, gap(best_val, best_dual)


def build_workspace(r_all, t_all, chan, weights, cfg):
    """Precompute the rank-one vectors and noise quadratics for the inner loop."""
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    k_users = chan.n_users
    n = chan.n_antennas
    if r_all.size != k_users or t_all.size != k_users:
        raise ValueError("r_all and t_all must have one entry per user")
    # a_{k,j} = conj(r_k t_j) * (conj(h_j) kron g_k), column-major vec convention.
    outer = np.einsum("jm,kn->kjmn", chan.uplink.conj(), chan.downlink)
    rank_one = (r_all[:, None] * t_all[None, :]).conj()[:, :, None] * outer.reshape(
        k_users, k_users, n * n
    )
    kron_scale = cfg.noise_power_server * np.abs(r_all) ** 2
    return PamWorkspace(
        rank_one=rank_one,
        kron_scale=kron_scale,
        downlink=chan.downlink.copy(),
        alpha=np.asarray(weights.alpha, dtype=float).copy(),
    )


def _factor_u_step(workspace, rho):
    """Factor every user's u-step system once for fixed (r, t, rho).

    Returns the factor, the constant data part ``sum_j alpha_j a_{k,j}`` of
    every user's right-hand side (one row per user), and the proximal weight
    rho/K that multiplies f in it.
    """
    if not rho > 0:
        raise ValueError("rho must be strictly positive")
    k_users = workspace.n_users
    ridge = rho / k_users
    factor = StructuredFactor(
        StructuredGram(
            dim=workspace.dim,
            rank_one=workspace.rank_one[k].T,
            kron_scale=float(workspace.kron_scale[k]),
            kron_vector=workspace.downlink[k],
            ridge=ridge,
        )
        for k in range(k_users)
    )
    data_rhs = np.stack([workspace.alpha @ workspace.rank_one[k] for k in range(k_users)])
    return factor, data_rhs, ridge


def update_u(workspace, f, rho):
    """Per-user regularized least-squares step of the inner loop.

    Solves, for each user k,
        (sum_j a_{k,j} a_{k,j}^H + G_k + (rho/K) I) u_k
            = sum_j alpha_j a_{k,j} + (rho/K) f
    via one batched structured solve over all users; u_k exactly minimizes
    user k's data cost plus its share (rho/K) ||u_k - f||^2 of the consensus
    penalty.  This one-shot form factors the systems and solves once;
    :func:`inner_pam` factors once per call and reuses the factor every cycle.
    """
    factor, data_rhs, ridge = _factor_u_step(workspace, rho)
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.size != workspace.dim:
        raise ValueError(f"f must have length {workspace.dim}")
    return factor.solve(data_rhs + ridge * f)


def update_f(u_all, z):
    """Consensus step: midpoint of the user average and the projected point."""
    u_all = np.asarray(u_all, dtype=complex)
    z = np.asarray(z, dtype=complex).reshape(-1)
    if u_all.ndim != 2 or u_all.shape[1] != z.size:
        raise ValueError("u_all must be (n_users, dim) matching z")
    return 0.5 * (u_all.mean(axis=0) + z)


def _data_terms(workspace, u_all):
    """Per-user data cost: sum_j |a_{k,j}^H u_k - alpha_j|^2 + u_k^H G_k u_k."""
    k_users = workspace.n_users
    n = workspace.downlink.shape[1]
    fit = np.array(
        [
            np.sum(np.abs((workspace.rank_one[k] @ u_all[k].conj()).conj() - workspace.alpha) ** 2)
            for k in range(k_users)
        ]
    )
    # u_mats[k] is u_k as an N x N matrix (column-major vec convention).
    u_mats = u_all.reshape((k_users, n, n), order="F")
    g_u = (workspace.downlink.conj()[:, None, :] @ u_mats)[:, 0, :]
    return fit + workspace.kron_scale * np.sum(np.abs(g_u) ** 2, axis=1)


def penalized_objective(u_all, f, z, workspace, rho):
    """Inner-loop merit: worst-user data cost plus the consensus penalties."""
    u_all = np.asarray(u_all, dtype=complex)
    f = np.asarray(f, dtype=complex).reshape(-1)
    z = np.asarray(z, dtype=complex).reshape(-1)
    data = _data_terms(workspace, u_all)
    spread = np.mean(np.sum(np.abs(u_all - f[None, :]) ** 2, axis=1))
    tether = np.sum(np.abs(z - f) ** 2)
    return float(np.max(data) + rho * (spread + tether))


def inner_pam(workspace, f_matrix_init, rho, m_inner):
    """Penalized alternating minimization for the relay matrix.

    Starts every block variable at vec(F_init) and cycles
    copies (the :func:`update_u` step) -> consensus -> projection, recording
    the merit after each full cycle.  The copies' systems do not depend on f,
    so they are factored once per call and every cycle is one batched solve.
    Returns the unit-modulus matrix recovered from the final projection, the
    merit trajectory, and the final state.
    """
    f_matrix_init = np.asarray(f_matrix_init, dtype=complex)
    n = f_matrix_init.shape[0]
    if f_matrix_init.shape != (n, n) or n * n != workspace.dim:
        raise ValueError("initial matrix shape does not match the workspace")
    f = vec_of_matrix(f_matrix_init).astype(complex)
    z = f.copy()
    u_all = np.tile(f, (workspace.n_users, 1))
    factor, data_rhs, ridge = _factor_u_step(workspace, rho)
    trajectory = np.empty(int(m_inner))
    for cycle in range(int(m_inner)):
        u_all = factor.solve(data_rhs + ridge * f)
        f = update_f(u_all, z)
        z = phase_project(f)
        trajectory[cycle] = penalized_objective(u_all, f, z, workspace, rho)
    state = PhaseShiftState(f=f, u_all=u_all, z=z)
    return mat_of_vector(z, n, n), trajectory, state


@dataclass
class Solution:
    """Result of a full alternating run (or of the fixed-relay baseline).

    ``outer_objectives[0]`` is the objective right after initialization (with
    the closed-form equalizer already applied); subsequent entries follow each
    full outer cycle.  The returned triple is the best recorded one, so
    ``objective <= outer_objectives[0]`` always holds.  ``r_update_pairs`` /
    ``t_update_pairs`` hold the subproblem objective immediately before and
    after each r / t block for diagnostics, and ``t_gaps`` the relative
    duality gap certified by each t block (see :func:`update_t`).
    """

    mode: str
    f_matrix: np.ndarray
    r_all: np.ndarray
    t_all: np.ndarray
    objective: float
    outer_objectives: np.ndarray
    inner_trajectories: list = field(default_factory=list)
    r_update_pairs: list = field(default_factory=list)
    t_update_pairs: list = field(default_factory=list)
    t_gaps: list = field(default_factory=list)


def _initial_matrix(n, pam_cfg):
    if pam_cfg.init_strategy == "all-ones":
        return np.ones((n, n), dtype=complex)
    rng = substream(pam_cfg.seed, "phase-init")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
    return np.exp(1j * phases)


def _alternating_run(mode, f_init, update_relay, chan, weights, cfg, pam_cfg):
    """Shared outer loop: [relay block] -> r -> t, tracking the best triple."""
    k_users = chan.n_users
    f_matrix = f_init
    t_all = np.full(k_users, np.sqrt(cfg.power_budget), dtype=complex)
    r_all = update_r(f_matrix, t_all, chan, weights, cfg)
    obj = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
    outer = [obj]
    best = (obj, f_matrix, r_all, t_all)
    inner_trajectories = []
    r_pairs = []
    t_pairs = []
    t_gaps = []
    rho = pam_cfg.rho
    for _ in range(pam_cfg.n_outer):
        if update_relay is not None:
            workspace = build_workspace(r_all, t_all, chan, weights, cfg)
            f_matrix, trajectory = update_relay(workspace, f_matrix, rho)
            inner_trajectories.append(trajectory)
        before_r = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
        r_all = update_r(f_matrix, t_all, chan, weights, cfg)
        after_r = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
        r_pairs.append((before_r, after_r))
        gains, _ = _effective_gains(f_matrix, chan)
        coeff = r_all[:, None] * gains
        before_t = transmit_objective(coeff, weights.alpha, t_all)
        t_all, t_gap = update_t(f_matrix, r_all, chan, weights, cfg, t_init=t_all)
        t_gaps.append(t_gap)
        after_t = transmit_objective(coeff, weights.alpha, t_all)
        t_pairs.append((before_t, after_t))
        obj = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
        outer.append(obj)
        if obj <= best[0]:
            best = (obj, f_matrix, r_all, t_all)
        rho *= pam_cfg.rho_growth
    return Solution(
        mode=mode,
        f_matrix=best[1],
        r_all=best[2],
        t_all=best[3],
        objective=best[0],
        outer_objectives=np.asarray(outer, dtype=float),
        inner_trajectories=inner_trajectories,
        r_update_pairs=r_pairs,
        t_update_pairs=t_pairs,
        t_gaps=t_gaps,
    )


def run_pam(chan, weights, cfg, pam_cfg=None):
    """Full alternating optimization with the penalized inner loop for F."""
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    f_init = _initial_matrix(chan.n_antennas, pam_cfg)

    def relay_block(workspace, f_matrix, rho):
        f_new, trajectory, _ = inner_pam(workspace, f_matrix, rho, pam_cfg.m_inner)
        return f_new, trajectory

    return _alternating_run("pam", f_init, relay_block, chan, weights, cfg, pam_cfg)


def baseline_optimize(chan, weights, cfg, pam_cfg=None):
    """Fixed-relay baseline: F = I, only r and t are optimized alternately."""
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    f_init = np.eye(chan.n_antennas, dtype=complex)
    return _alternating_run("baseline", f_init, None, chan, weights, cfg, pam_cfg)
