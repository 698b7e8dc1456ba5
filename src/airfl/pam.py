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

The inner loop's u-step has one N^2 x N^2 normal system per user, but
every rank-one term of user k carries its downlink g_k, which is also an
eigenvector of the user's relay-noise block.  So each copy is
U_k = F + g_k v_k^T, and the systems reduce to K x K Woodbury capacitances
I + beta_k P that share one matrix P (see :func:`_factor_u_step`).
:func:`inner_pam` decomposes P once per call; a cycle then costs
O(K N^2 + K^2 N) in a fixed number of matrix products, and never forms the
copies or any K x K x N^2 array.  The merit trajectory is a diagnostic no
iterate reads, so it is evaluated once per call from the recorded rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aircomp import _effective_gains, mse_bracket_terms
from .channel import substream
from .linalg import (
    CONDITION_LIMIT,
    IllConditionedError,
    NumericError,
    mat_of_vector,
    phase_project,
    vec_of_matrix,
)

__all__ = [
    "PamConfig",
    "PamWorkspace",
    "PhaseShiftState",
    "Solution",
    "baseline_optimize",
    "build_workspace",
    "inner_pam",
    "objective_minmax",
    "run_pam",
    "transmit_objective",
    "update_r",
    "update_t",
    "update_u",
]

# Transmit-gain solve (update_t): stop at this relative duality gap, after
# this many dual ascent steps, or after this many steps in a row that improve
# neither the best t nor the dual bound; an accepted step's length grows by
# this factor.
T_GAP_TOL = 1e-6
T_MAX_ITERS = 5000
T_STALL_STEPS = 50
T_STEP_GROWTH = 1.5


@dataclass
class PamConfig:
    """Hyperparameters of the alternating optimizer.

    ``rho`` is the inner consensus penalty; ``seed`` keys the random-phase
    initial relay matrix.

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
    seed: int = 0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be strictly positive")
        if int(self.n_outer) < 1 or int(self.m_inner) < 1:
            raise ValueError("n_outer and m_inner must be at least 1")
        self.n_outer = int(self.n_outer)
        self.m_inner = int(self.m_inner)
        self.seed = int(self.seed)


@dataclass
class PhaseShiftState:
    """Inner-loop state: consensus vector f, per-user copies, projection z."""

    f: np.ndarray
    u_all: np.ndarray
    z: np.ndarray


@dataclass
class PamWorkspace:
    """Quantities the inner loop needs, fixed by (r, t, channels).

    User k's u-step fits ``r_k t_j g_k^H U h_j`` to alpha_j for every j,
    where g_k is ``downlink[k]`` and h_j is ``uplink[j]``: in vec form the
    rank-one vectors a_{k,j} = conj(r_k t_j) vec(g_k h_j^H).  ``kron_scale[k]``
    is the relay-noise quadratic coefficient noise_server * |r_k|^2 attached
    to ``I kron (g_k g_k^H)``, i.e. to ||g_k^H U||^2.
    """

    r: np.ndarray
    t: np.ndarray
    uplink: np.ndarray
    downlink: np.ndarray
    alpha: np.ndarray
    kron_scale: np.ndarray

    @property
    def n_users(self):
        return self.downlink.shape[0]


def objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg):
    """Worst-user MSE bracket — the quantity the alternating loop minimizes."""
    return float(np.max(mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, cfg)))


def update_r(f_matrix, t_all, chan, weights, cfg):
    """Per-user closed-form equalizer given the relay matrix and transmit gains.

    r_k = sum_j alpha_j conj(g_k^H F h_j t_j) /
          (sum_j |g_k^H F h_j t_j|^2 + noise_server ||g_k^H F||^2 + noise_user_k)

    Raises ``NumericError`` when some user's denominator is zero.
    """
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    gains, row_norm_sq = _effective_gains(f_matrix, chan)
    ct = gains * t_all[None, :]
    numerator = ct.conj() @ weights.alpha
    denominator = (
        np.sum(np.abs(ct) ** 2, axis=1)
        + cfg.noise_power_server * row_norm_sq
        + np.asarray(cfg.noise_power_user, dtype=float)
    )
    if np.any(denominator <= 0):
        k = int(np.argmax(denominator <= 0))
        raise NumericError(
            f"equalizer denominator of user {k} is zero: its effective gains g_k^H F h_j t_j "
            "are all zero (a pathloss whose linear gain underflows to 0, or a zero channel) "
            "and no noise reaches it (zero noise powers), so the equalizer is undefined"
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
    ``T_GAP_TOL``, ``T_MAX_ITERS`` ascent steps have been taken, or
    ``T_STALL_STEPS`` steps in a row have improved neither the best t nor
    the dual bound.  Such a run means the ascent has reached the rounding
    of the dual: its sufficient-increase test fails on noise and the step
    shrinks without end, so later steps could change (t, gap) only by noise.

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
    stalled = 0
    for ascent in range(T_MAX_ITERS + 1):
        val = float(np.max(rows))
        if val < best_val:
            best_t, best_val, stalled = t, val, 0
        if gap(best_val, best_dual) <= T_GAP_TOL or ascent == T_MAX_ITERS or stalled == T_STALL_STEPS:
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
        if dual > best_dual:
            best_dual, stalled = dual, 0
        else:
            stalled += 1
        step *= T_STEP_GROWTH
    return best_t, gap(best_val, best_dual)


def build_workspace(r_all, t_all, chan, weights, cfg):
    """Collect (r, t, channels, alpha) and the noise quadratics for the inner loop."""
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    if r_all.size != chan.n_users or t_all.size != chan.n_users:
        raise ValueError("r_all and t_all must have one entry per user")
    return PamWorkspace(
        r=r_all.copy(),
        t=t_all.copy(),
        uplink=chan.uplink.copy(),
        downlink=chan.downlink.copy(),
        alpha=np.asarray(weights.alpha, dtype=float).copy(),
        kron_scale=cfg.noise_power_server * np.abs(r_all) ** 2,
    )


def _factor_u_step(workspace, rho):
    """Decompose every user's u-step system once for fixed (r, t, rho).

    Every a_{k,j} carries g_k, which is also an eigenvector of the
    Kronecker block, so user k's minimizer is U_k = F + g_k v_k^T and only
    the row y_k = g_k^H U_k is unknown.  It solves
        y_k (I + beta_k A A^H) = q_k,   A = [t_1 h_1, ..., t_K h_K],
        q_k = (||g_k||^2 e_k + (rho/K) g_k^H F) / s_k,
    with e_k = conj(r_k) sum_j alpha_j conj(t_j) h_j^H,
    s_k = rho/K + kron_scale_k ||g_k||^2 and beta_k = |r_k|^2 ||g_k||^2 / s_k.
    By Woodbury the K x K capacitances are C_k = I + beta_k P with one
    shared P = A^H A, so a single eigendecomposition P = Q diag(lam) Q^H
    gives every C_k's inverse and its exact condition number
    (1 + beta_k lam_max) / (1 + beta_k lam_min), checked against
    ``CONDITION_LIMIT``.

    Returns ``solve``, which maps the rows g_k^H F (a K x N array) to the
    rows y_k and v_k = (y_k - g_k^H F) / ||g_k||^2 (zero when g_k = 0, where
    U_k = F).
    """
    if not rho > 0:
        raise ValueError("rho must be strictly positive")
    ridge = rho / workspace.n_users
    g_sq = np.sum(np.abs(workspace.downlink) ** 2, axis=1)
    s = ridge + workspace.kron_scale * g_sq
    beta = np.abs(workspace.r) ** 2 * g_sq / s
    a = workspace.uplink.T * workspace.t[None, :]
    lam, q = np.linalg.eigh(a.conj().T @ a)
    top = 1.0 + beta * lam[-1]
    bottom = 1.0 + beta * lam[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(bottom <= 0, np.inf, top / bottom)
    bad = ~np.isfinite(cond) | (cond > CONDITION_LIMIT)
    if np.any(bad):
        worst = float(cond[np.argmax(bad)])
        raise IllConditionedError(
            f"Woodbury capacitance matrix condition estimate {worst:.3e} exceeds "
            f"{CONDITION_LIMIT:.1e}; the system is numerically unreliable",
            worst,
        )
    aq = a @ q
    aq_h = aq.conj().T
    weight = beta[:, None] / (1.0 + beta[:, None] * lam[None, :])
    target = (workspace.alpha * workspace.t) @ workspace.uplink
    data = (g_sq / s)[:, None] * np.conj(np.outer(workspace.r, target))
    prox = (ridge / s)[:, None]
    inv_g_sq = np.divide(1.0, g_sq, out=np.zeros_like(g_sq), where=g_sq > 0)[:, None]

    def solve(g_f):
        rhs = data + prox * g_f
        g_u = rhs - ((rhs @ aq) * weight) @ aq_h
        return g_u, (g_u - g_f) * inv_g_sq

    return solve


def _copies(f_matrix, v, downlink):
    """Rows vec(F + g_k v_k^T) of every user's copy (column-major vec)."""
    k_users, n = v.shape
    outer = v[:, :, None] * downlink[:, None, :]
    return vec_of_matrix(f_matrix)[None, :] + outer.reshape(k_users, n * n)


def update_u(workspace, f, rho):
    """Per-user regularized least-squares step of the inner loop.

    Solves, for each user k,
        (sum_j a_{k,j} a_{k,j}^H + G_k + (rho/K) I) u_k
            = sum_j alpha_j a_{k,j} + (rho/K) f
    in its rank-one form (see :func:`_factor_u_step`); u_k exactly minimizes
    user k's data cost plus its share (rho/K) ||u_k - f||^2 of the consensus
    penalty.  This one-shot form decomposes the systems and solves once;
    :func:`inner_pam` decomposes once per call and reuses it every cycle.
    """
    solve = _factor_u_step(workspace, rho)
    n = workspace.downlink.shape[1]
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.size != n * n:
        raise ValueError(f"f must have length {n * n}")
    f_matrix = mat_of_vector(f, n, n)
    _, v = solve(workspace.downlink.conj() @ f_matrix)
    return _copies(f_matrix, v, workspace.downlink)


def _merit(workspace, g_u, v, row_steps, f_steps, tethers, rho):
    """Inner-loop merit of every cycle, from the rows the loop recorded.

    Cycle c leaves the copies U_k = F + g_k v_k^T of its incoming F (rows
    ``g_u[c]`` = g_k^H U_k and ``v[c]``), then the new consensus F' and its
    projection Z'.  Its merit is the worst user's data cost
    sum_j |r_k t_j g_k^H U_k h_j - alpha_j|^2 + kron_scale_k ||g_k^H U_k||^2
    plus rho times the consensus penalties: the spread mean_k ||U_k - F'||^2
    = ||D||^2 + 2 Re<g_k^H D, v_k> + ||g_k||^2 ||v_k||^2 with D = F - F'
    (``row_steps[c]`` = g_k^H D, ``f_steps[c]`` = ||D||^2), and the tether
    ``tethers[c]`` = ||Z' - F'||^2.  ``row_steps`` is conjugated in place.
    Every reduction runs along the axis a single cycle's does, so each entry
    equals that cycle's merit exactly.
    """
    g_sq = np.sum(np.abs(workspace.downlink) ** 2, axis=1)
    np.conjugate(row_steps, out=row_steps)  # in place: no second (m, K, N) array
    spread = np.mean(
        f_steps[:, None]
        + 2.0 * np.real(np.sum(row_steps * v, axis=2))
        + g_sq * np.sum(np.abs(v) ** 2, axis=2),
        axis=1,
    )
    noise = workspace.kron_scale * np.sum(np.abs(g_u) ** 2, axis=2)
    # r and t as 3-D rows: a (1, 1, 1) product with a 2-D factor would take
    # numpy's other complex-multiply kernel, which rounds differently.
    fit = workspace.r[None, :, None] * (g_u @ workspace.uplink.T) * workspace.t[None, None, :] - workspace.alpha
    data = np.sum(np.abs(fit) ** 2, axis=2) + noise
    return np.max(data, axis=1) + rho * (spread + tethers)


def inner_pam(workspace, f_matrix_init, rho, m_inner):
    """Penalized alternating minimization for the relay matrix.

    Starts every block variable at F_init and cycles copies (the
    :func:`update_u` step) -> consensus -> projection, m_inner times.  The
    copies' systems do not depend on f, so they are decomposed once per
    call.  A cycle never forms the copies U_k = F + g_k v_k^T: it needs the
    rows g_k^H F, two K x N by N x K products for the copies, G^T V for
    their mean, and the projection.  It records three K x N rows and two
    scalars, and :func:`_merit` evaluates every cycle's merit from them
    after the loop, so the loop holds O(m K N) history and no N x N one.
    Returns the unit-modulus matrix recovered from the final projection, the
    merit trajectory, and the final state.
    """
    f_matrix = np.asarray(f_matrix_init, dtype=complex)
    n = workspace.downlink.shape[1]
    if f_matrix.shape != (n, n):
        raise ValueError("initial matrix shape does not match the workspace")
    m_inner = int(m_inner)
    if m_inner < 1:
        raise ValueError("m_inner must be at least 1")
    k_users = workspace.n_users
    downlink = workspace.downlink
    g_conj = downlink.conj()
    solve = _factor_u_step(workspace, rho)
    z_matrix = f_matrix.copy()
    g_f = g_conj @ f_matrix
    g_u = np.empty((m_inner, k_users, n), dtype=complex)
    v = np.empty_like(g_u)
    row_steps = np.empty_like(g_u)
    f_steps = np.empty(m_inner)
    tethers = np.empty(m_inner)
    for cycle in range(m_inner):
        g_u[cycle], v[cycle] = solve(g_f)
        f_prev, g_f_prev = f_matrix, g_f
        f_matrix = 0.5 * (f_prev + (downlink.T @ v[cycle]) / k_users + z_matrix)
        z_matrix = phase_project(f_matrix)
        g_f = g_conj @ f_matrix
        np.subtract(g_f_prev, g_f, out=row_steps[cycle])
        f_steps[cycle] = np.sum(np.abs(f_prev - f_matrix) ** 2)
        tethers[cycle] = np.sum(np.abs(z_matrix - f_matrix) ** 2)
    trajectory = _merit(workspace, g_u, v, row_steps, f_steps, tethers, rho)
    del g_u, row_steps  # only the last cycle's v is left to use
    state = PhaseShiftState(
        f=vec_of_matrix(f_matrix), u_all=_copies(f_prev, v[-1], downlink), z=vec_of_matrix(z_matrix)
    )
    return z_matrix, trajectory, state


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
    rng = substream(pam_cfg.seed, "phase-init")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
    return np.exp(1j * phases)


def _alternating_run(mode, f_init, chan, weights, cfg, pam_cfg):
    """Shared outer loop: [relay block, in "pam" mode] -> r -> t, tracking the best triple."""
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
    for _ in range(pam_cfg.n_outer):
        if mode == "pam":
            workspace = build_workspace(r_all, t_all, chan, weights, cfg)
            f_matrix, trajectory, _ = inner_pam(workspace, f_matrix, pam_cfg.rho, pam_cfg.m_inner)
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
    return _alternating_run("pam", f_init, chan, weights, cfg, pam_cfg)


def baseline_optimize(chan, weights, cfg, pam_cfg=None):
    """Fixed-relay baseline: F = I, only r and t are optimized alternately."""
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    f_init = np.eye(chan.n_antennas, dtype=complex)
    return _alternating_run("baseline", f_init, chan, weights, cfg, pam_cfg)
