"""Min-max MSE optimization of the relay phase-shift matrix and link gains.

The design variables are the relay matrix F (every entry constrained to unit
modulus), per-user transmit coefficients t (power-limited), and per-user
receive equalizers r.  The objective is the worst user's MSE bracket (see
``aircomp.mse_bracket_terms``).  Blocks are updated alternately:

* r: per-user closed form (exact minimizer of the user's bracket),
* t: exact solve of the same worst-user bracket through its dual over the
  simplex of user weights, by active-set Newton ascent with a closed-form
  Hessian, damped where the Newton model fails, with a duality-gap
  certificate; each outer cycle's ascent starts at the previous one's
  final weights,
* F: an inner penalized alternating-minimization loop over per-user copies
  u_k, the consensus vector f = vec(F), and its unit-modulus projection z.

The inner loop's u-step has one N^2 x N^2 normal system per user, but
every rank-one term of user k carries its downlink g_k, which is also an
eigenvector of the user's relay-noise block.  So each copy is
U_k = F + g_k v_k^T, and the systems reduce to K x K Woodbury capacitances
I + beta_k P that share one matrix P (see :func:`_factor_u_step`).
The loop is one generator, :func:`inner_cycles`: it decomposes P and folds
every factor that does not depend on F once per relay block, and each
cycle then costs O(K N^2 + K^2 N) in four matrix products, a few
elementwise steps and the projection, never forms the copies or any
K x K x N^2 array, and is yielded with no history kept.  :func:`inner_pam`
takes m cycles from it and evaluates only the last one's merit
(:func:`cycle_merit`); the self-checks read whole merit trajectories from
the same generator.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aircomp import _bracket_rows, _effective_gains, _noise_terms, mse_bracket_terms
from .channel import substream
from .linalg import CONDITION_LIMIT, IllConditionedError, NumericError, phase_project

__all__ = [
    "InnerCycle",
    "PamConfig",
    "PamWorkspace",
    "Solution",
    "baseline_optimize",
    "build_workspace",
    "cycle_merit",
    "inner_cycles",
    "inner_pam",
    "objective_minmax",
    "run_pam",
    "update_r",
    "update_t",
]

# Transmit-gain solve (update_t): stop at this relative duality gap or after
# this many dual ascent steps.  A Newton step's KKT system carries a ridge of
# T_RIDGE times its scale, and the step is accepted when it raises the dual
# by a T_ARMIJO share of its predicted first-order gain.  On a failure its
# damping grows T_DAMP_GROWTH-fold from T_DAMP_START times that scale, or to
# the curvature the failed trial measured if that is larger, for
# T_DAMP_TRIES tries in all.
T_GAP_TOL = 1e-6
T_MAX_ITERS = 5000
T_RIDGE = 1e-12
T_ARMIJO = 1e-4
T_DAMP_START = 1e-3
T_DAMP_GROWTH = 10.0
T_DAMP_TRIES = 12


@dataclass
class PamConfig:
    """Hyperparameters of the alternating optimizer.

    ``rho`` is the inner consensus penalty.  The random-phase initial relay
    matrix is keyed by the seed :func:`run_pam` takes, not by the config.

    Inside the inner loop every user's copy takes the regularized
    least-squares step simultaneously (see :func:`_factor_u_step`): the
    exact minimizer of the sum of the per-user costs plus their proximal
    terms.  On unit-scale instances it also decreases the worst-user merit
    every cycle; in regimes with very uneven per-user scales the merit may
    rise transiently.  The relay block as a whole is a penalized surrogate
    step, not a minimizer of :func:`objective_minmax`, so it can raise the
    outer objective; the r and t blocks never do.
    """

    rho: float = 1.0
    n_outer: int = 20
    m_inner: int = 50

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be strictly positive")
        if int(self.n_outer) < 1 or int(self.m_inner) < 1:
            raise ValueError("n_outer and m_inner must be at least 1")
        self.n_outer = int(self.n_outer)
        self.m_inner = int(self.m_inner)


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

    Raises ``NumericError`` when some user's denominator is zero or overflows.
    """
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    gains, row_norm_sq = _effective_gains(f_matrix, chan)
    ct = gains * t_all[None, :]
    numerator = ct.conj() @ weights.alpha
    with np.errstate(over="ignore", invalid="ignore"):
        denominator = (
            np.sum(np.abs(ct) ** 2, axis=1)
            + cfg.noise_power_server * row_norm_sq
            + np.asarray(cfg.noise_power_user, dtype=float)
        )
    if not np.all(np.isfinite(denominator)):
        k = int(np.argmax(~np.isfinite(denominator)))
        raise NumericError(
            f"equalizer denominator of user {k} overflows: its effective gains g_k^H F h_j t_j "
            "are too large to square (a pathloss whose linear gain is near the largest float)"
        )
    if np.any(denominator <= 0):
        k = int(np.argmax(denominator <= 0))
        raise NumericError(
            f"equalizer denominator of user {k} is zero: its effective gains g_k^H F h_j t_j "
            "are all zero (a pathloss whose linear gain underflows to 0, or a zero channel) "
            "and no noise reaches it (zero noise powers), so the equalizer is undefined"
        )
    return numerator / denominator


class _DualPoint(NamedTuple):
    """A point lam of the transmit solve's dual: its weighted minimizer t, which
    entries of t the disc clips, the per-user brackets at t (the dual
    gradient) and the dual value lam . rows."""

    lam: np.ndarray
    t: np.ndarray
    clipped: np.ndarray
    rows: np.ndarray
    value: float


def _weighted_minimizer(lam, coeff, coeff_sq, alpha, cap, t_fill):
    """Minimizer of the lam-weighted transmit problem, and which entries the disc clips.

    Per user j the weighted objective is a_j |t_j|^2 - 2 alpha_j Re(t_j conj(b_j))
    + const with a_j = sum_k lam_k |c_kj|^2 and b_j = sum_k lam_k conj(c_kj),
    minimized by alpha_j b_j / a_j radially projected onto the disc.  Entries
    with a_j = 0 do not matter and keep ``t_fill``.
    """
    scale = lam @ coeff_sq
    t = np.divide(alpha * (lam @ coeff).conj(), scale, out=t_fill.copy(), where=scale > 0)
    mag = np.abs(t)
    clipped = mag > cap
    t[clipped] *= cap / mag[clipped]
    return t, clipped


def _dual_hessian(lam, t, clipped, coeff, coeff_sq, alpha, cap):
    """Closed-form Hessian of the simplex dual at lam, t = _weighted_minimizer(lam).

    Each user j adds a term of rank two or less.  Unclipped, its dual term
    is alpha_j^2 sum(lam) - alpha_j^2 |b_j|^2 / a_j, with Hessian
    -(2 / a_j) Re(m_j m_j^H), m_kj = conj(c_kj) (c_kj t_j - alpha_j).  Clipped,
    it is a_j P - 2 alpha_j sqrt(P) |b_j| + alpha_j^2 sum(lam), with Hessian
    -(2 sqrt(P) alpha_j / |b_j|) x x^T, x_k = Im(conj(c_kj) conj(b_j) / |b_j|);
    as b_j / |b_j| = t_j / sqrt(P) there, x_k = -Im(c_kj t_j) / sqrt(P).  The
    dual is homogeneous of degree one, so every term annihilates lam.  Rows
    of users with zero weight may be left out: the result is then the
    Hessian's block on the remaining users.
    """
    scale = lam @ coeff_sq
    live = scale > 0
    ct = coeff * t
    m = coeff.conj() * (ct - alpha)
    free = np.divide(2.0, scale, out=np.zeros_like(scale), where=live & ~clipped)
    edge = np.divide(2.0 * alpha, cap * np.abs(lam @ coeff), out=np.zeros_like(scale), where=live & clipped)
    x = np.imag(ct)
    return -np.real((m * free) @ m.conj().T) - (x * edge) @ x.T


def _kkt_direction(hess, grad, shift):
    """Maximizer d of grad.d + d^T (hess - shift I) d / 2 under sum(d) = 0, or None.

    Solves the KKT system [-hess + shift I, 1; 1^T 0].  The dual is flat
    along lam, so -hess is only semidefinite; a positive ``shift`` keeps the
    system regular.
    """
    n = grad.size
    if n < 2:
        return None
    kkt = np.ones((n + 1, n + 1))
    kkt[n, n] = 0.0
    kkt[:n, :n] = shift * np.eye(n) - hess
    try:
        d = np.linalg.solve(kkt, np.append(grad, 0.0))[:n]
    except np.linalg.LinAlgError:
        return None
    return d if np.all(np.isfinite(d)) else None


def _newton_step(point, coeff, coeff_sq, alpha, cap, evaluate, damping):
    """One damped active-set Newton ascent step from ``point``, or None when it fails.

    The working set is the support of lam plus the zero-weight user whose
    gradient entry exceeds the dual value most (the worst violator of the
    optimality conditions); the step maximizes the quadratic model of the
    dual on that face (see :func:`_dual_hessian`, :func:`_kkt_direction`),
    with -H shifted by (``T_RIDGE`` + mu) s, s its scale.  A violator whose
    step component is not positive would leave the simplex at once, so the
    step is then taken on the support alone.  A ratio test keeps lam >= 0
    (the blocking user leaves the support).  The step is accepted when the
    dual rises by ``T_ARMIJO`` times the predicted first-order gain; by
    concavity the rise is at least the new gradient times the step, a bound
    that stays exact where the rise itself is lost in the rounding of the
    dual values.

    Each failure re-solves with a larger damping (Levenberg-Marquardt; More
    & Sorensen, "Computing a Trust Region Step", 1983), which shortens the
    step and turns it towards the projected gradient: the shift grows
    ``T_DAMP_GROWTH``-fold from ``T_DAMP_START`` s, and at least to the extra
    curvature along the failed step that its measured rise implies, for
    ``T_DAMP_TRIES`` tries in all.  The first try takes mu = ``damping``; the
    step returns the new point and the mu the next step starts from, one
    growth factor below the accepted one, or 0 once that is at most
    ``T_DAMP_START``.
    """
    lam, t, clipped, rows, dual = point
    work = lam > 0
    outside = np.where(work, -np.inf, rows)
    enter = int(np.argmax(outside))
    if outside[enter] > dual:
        work[enter] = True
    face = np.flatnonzero(work)
    hess = _dual_hessian(lam[face], t, clipped, coeff[face], coeff_sq[face], alpha, cap)
    support = lam[face] > 0
    scale = max(-np.trace(hess), float(np.max(rows[face])), np.finfo(float).tiny)
    shift = damping * scale
    for _ in range(T_DAMP_TRIES):
        w, h = face, hess
        d = _kkt_direction(h, rows[w], T_RIDGE * scale + shift)
        if d is not None and np.any(d[~support] <= 0):
            w, h = face[support], hess[support][:, support]
            d = _kkt_direction(h, rows[w], T_RIDGE * scale + shift)
        slope = float(rows[w] @ d) if d is not None else 0.0
        bend = 0.0
        if slope > 0:
            size, block = 1.0, None
            shrink = np.flatnonzero(d < 0)
            if shrink.size:
                ratios = lam[w[shrink]] / -d[shrink]
                first = int(np.argmin(ratios))
                if ratios[first] < 1.0:
                    size, block = float(ratios[first]), w[shrink[first]]
            lam_new = lam.copy()
            lam_new[w] += size * d
            if block is not None:
                lam_new[block] = 0.0
            np.maximum(lam_new, 0.0, out=lam_new)
            new = evaluate(lam_new / np.sum(lam_new))
            rise = new.value - dual
            gain = max(rise, float(new.rows @ (new.lam - lam)))
            if gain > 0 and gain >= T_ARMIJO * size * slope:
                mu = shift / scale
                return new, mu / T_DAMP_GROWTH if mu > T_DAMP_START else 0.0
            bend = (2.0 * (size * slope - rise) / size**2 + float(d @ h @ d)) / float(d @ d)
        shift = max(T_DAMP_GROWTH * shift, bend if bend > shift else T_DAMP_START * scale)
    return None


def update_t(f_matrix, r_all, chan, weights, cfg, t_init=None, lam_init=None):
    """Transmit coefficients minimizing the worst user's MSE bracket.

    Solves min_{|t_j|^2 <= power_budget} max_k sum_j |c_kj t_j - alpha_j|^2 + n_k
    (:func:`objective_minmax` in t), c_kj = r_k g_k^H F h_j, with n_k the
    user's noise terms, through its dual over the simplex: the max over
    users is a max over weights lam >= 0 with sum(lam) = 1, and the minimax
    swap holds (Sion).  For fixed lam the weighted problem separates per
    user j into an isotropic scalar quadratic (see
    :func:`_weighted_minimizer`); n only adds lam . n, linear in lam.  The
    per-user brackets at its minimizer are the dual gradient (Danskin), and
    the dual Hessian is closed form (see :func:`_dual_hessian`).

    The ascent starts at ``lam_init`` restricted to the users whose
    coefficient row is not zero and renormalized there, or at uniform
    weights over those users when ``lam_init`` is None, has a negative or
    non-finite entry, or has no mass on them; a start at uniform weights is
    the same solve bit for bit whichever way it is reached.  It takes damped
    active-set Newton steps on the support of lam (see :func:`_newton_step`,
    after Bertsekas, "Projected Newton Methods for Optimization Problems with
    Simple Constraints", 1982); each step starts from a relaxed form of the
    last one's damping.  It runs until the relative duality gap is at most
    ``T_GAP_TOL``, ``T_MAX_ITERS`` ascent steps have been taken, or no damped
    step raises the dual, which means the ascent has reached the rounding
    of the dual.

    Returns ``(t, gap, value, evals, lam)``: the best primal point seen,
    never worse than the incoming t; (value - best dual value) / value,
    which bounds the relative excess of t over the optimum; value, the
    worst-user bracket at t, equal bit for bit to :func:`objective_minmax`
    there; the number of dual evaluations the solve took; and the ascent's
    final weights, one per user, zero for every user whose coefficient row
    is zero (all zero when every row is), to start the next solve from.
    """
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    gains, row_norm_sq = _effective_gains(f_matrix, chan)
    coeff = r_all[:, None] * gains
    coeff_sq = np.abs(coeff) ** 2
    alpha = weights.alpha
    cap = np.sqrt(cfg.power_budget)
    k_users = alpha.size
    if t_init is None:
        t_init = np.full(k_users, cap, dtype=complex)
    t_init = np.asarray(t_init, dtype=complex).reshape(-1)
    if lam_init is not None:
        lam_init = np.asarray(lam_init, dtype=float).reshape(-1)
        if lam_init.size != k_users:
            raise ValueError("lam_init must have one entry per user")
    noise = np.stack(_noise_terms(r_all, row_norm_sq, cfg))
    best_t = t_init
    best_val = float(np.max(_bracket_rows(coeff, alpha, t_init, noise)))
    lam_out = np.zeros(k_users)
    if float(np.max(coeff_sq)) == 0.0:
        return t_init, 0.0, best_val, 0, lam_out

    def gap(primal, dual):
        # Rounding can put a tight dual bound a few ulps above the primal.
        return max(primal - dual, 0.0) / primal if primal > 0 else 0.0

    # Each simplex vertex is a dual point too: user k's own optimum over the
    # discs, sum_j max(alpha_j - |c_kj| sqrt(P), 0)^2 + n_k.  A user with a
    # zero row of coeff has the bracket sum(alpha^2) + n_k at every t, which
    # its vertex certifies; its weight cannot inform t (at its vertex the
    # weighted problem is empty), so the ascent runs over the others.
    vertices = np.sum(np.maximum(alpha - np.abs(coeff) * cap, 0.0) ** 2, axis=1) + noise[0] + noise[1]
    heard = np.any(coeff_sq > 0, axis=1)
    floor = float(np.max(vertices[~heard], initial=0.0))
    coeff, coeff_sq, noise = coeff[heard], coeff_sq[heard], noise[:, heard]
    count = 0

    def evaluate(lam):
        nonlocal count
        count += 1
        t, clipped = _weighted_minimizer(lam, coeff, coeff_sq, alpha, cap, t_init)
        rows = _bracket_rows(coeff, alpha, t, noise)
        return _DualPoint(lam, t, clipped, rows, float(lam @ rows))

    start = np.full(coeff.shape[0], 1.0 / coeff.shape[0])
    if lam_init is not None:
        warm = lam_init[heard]
        mass = float(np.sum(warm))
        if np.all(warm >= 0.0) and 0.0 < mass < np.inf:
            start = warm / mass
    point = evaluate(start)
    best_dual = max(point.value, float(np.max(vertices)))
    damping = 0.0
    for ascent in range(T_MAX_ITERS + 1):
        val = max(float(np.max(point.rows)), floor)
        if val < best_val:
            best_t, best_val = point.t, val
        if gap(best_val, best_dual) <= T_GAP_TOL or ascent == T_MAX_ITERS:
            break
        step = _newton_step(point, coeff, coeff_sq, alpha, cap, evaluate, damping)
        if step is None:
            break
        point, damping = step
        best_dual = max(best_dual, point.value)
    lam_out[heard] = point.lam
    return best_t, gap(best_val, best_dual), best_val, count, lam_out


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


class _UStep(NamedTuple):
    """The u-step of :func:`_factor_u_step`, folded for fixed (r, t, rho).

    ``diff`` maps the rows g_k^H F (a K x N array) to d = Y - G^* F, the
    rows y_k = g_k^H U_k of the copies less those of F; ``inv_g_sq`` holds
    1 / ||g_k||^2 as a complex K x 1 column (0 where g_k = 0, where
    U_k = F), so V = d inv_g_sq; and ``mean`` is the N x K matrix
    G^T diag(inv_g_sq) / (2K), so ``mean @ d`` is half the copies' mean
    offset G^T V / K.
    """

    diff: Callable[[np.ndarray], np.ndarray]
    inv_g_sq: np.ndarray
    mean: np.ndarray


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

    With rows R = G^* F, the solve is Y = X - ((X AQ) * W) (AQ)^H with
    X = D + p * R, where * multiplies entrywise (broadcasting a column),
    D holds the data rows ||g_k||^2 e_k / s_k, p is the column (rho/K) / s_k
    and W_ki = beta_k / (1 + beta_k lam_i).  Its parts that do not depend
    on F are folded here, once per relay block: the step returns
        d = Y - R = (p - 1) * R + D - ((R AQ) * (p * W) + (D AQ) * W) (AQ)^H,
    one K x K and one K x N product, with every entrywise factor stored
    complex (a real factor would be cast on every call to the same complex
    multiply).  Returns a :class:`_UStep`.
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
    prox_weight = (prox * weight).astype(complex)
    data_weight = (data @ aq) * weight
    prox_less_one = (prox - 1.0).astype(complex)
    inv_g_sq = np.divide(1.0, g_sq, out=np.zeros_like(g_sq), where=g_sq > 0)

    def diff(g_f):
        # In place, in the operand order of
        # d = (p - 1) * R + D - ((R AQ) * (p * W) + (D AQ) * W) (AQ)^H; d is new.
        coeff = g_f @ aq
        np.multiply(coeff, prox_weight, out=coeff)
        np.add(coeff, data_weight, out=coeff)
        d = np.multiply(prox_less_one, g_f)
        np.add(d, data, out=d)
        np.subtract(d, coeff @ aq_h, out=d)
        return d

    mean = workspace.downlink.T * (inv_g_sq / (2.0 * workspace.n_users))
    return _UStep(diff, inv_g_sq.astype(complex)[:, None], mean)


class InnerCycle(NamedTuple):
    """One inner cycle's arrays: the copies U_k = F_prev + g_k v_k^T, held
    as their rows' offsets ``d`` = g_k^H U_k - g_k^H F_prev and the shared
    1 / ||g_k||^2 column ``inv_g_sq`` (see :class:`_UStep`), the new
    consensus F and its projection Z, and the rows g_k^H F of F_prev and F.
    The copies' rows ``g_u`` = d + g_f_prev and ``v`` = d inv_g_sq are
    derived, as new arrays, each time they are read."""

    d: np.ndarray
    inv_g_sq: np.ndarray
    f_prev: np.ndarray
    g_f_prev: np.ndarray
    f: np.ndarray
    z: np.ndarray
    g_f: np.ndarray

    @property
    def g_u(self):
        return self.d + self.g_f_prev

    @property
    def v(self):
        return self.d * self.inv_g_sq


def inner_cycles(workspace, f_matrix_init, rho):
    """Penalized alternating minimization for the relay matrix, one cycle per item.

    Starts every block variable at F_init and cycles copies (the
    :func:`_factor_u_step` solve) -> consensus -> projection without end,
    yielding each cycle as an :class:`InnerCycle`.  The copies' systems do
    not depend on f, so they are decomposed and folded once, before the
    first cycle.  A cycle never forms the copies U_k = F + g_k v_k^T: from
    the rows R = G^* F it takes the copies' row offsets d (two products),
    then the consensus F' = 0.5 (F + G^T V / K + Z) as
    F' = (G^T diag(1/||g_k||^2) / (2K)) d + 0.5 (F + Z), built in place in
    that written-out order, the projection Z' = ``phase_project(F')`` and
    the rows G^* F'.  Every array a cycle yields is new or never written
    again, so callers may keep cycles.  It keeps no history;
    :func:`cycle_merit` evaluates a cycle's merit.
    """
    f_matrix = np.asarray(f_matrix_init, dtype=complex)
    n = workspace.downlink.shape[1]
    if f_matrix.shape != (n, n):
        raise ValueError("initial matrix shape does not match the workspace")
    g_conj = workspace.downlink.conj()
    diff, inv_g_sq, mean = _factor_u_step(workspace, rho)
    z_matrix = f_matrix.copy()
    g_f = g_conj @ f_matrix
    while True:
        d = diff(g_f)
        f_prev, g_f_prev = f_matrix, g_f
        # F = mean d + 0.5 (F_prev + Z), built in place in that order.
        f_matrix = np.add(f_prev, z_matrix)
        np.multiply(f_matrix, 0.5, out=f_matrix)
        np.add(mean @ d, f_matrix, out=f_matrix)
        z_matrix = phase_project(f_matrix)
        g_f = g_conj @ f_matrix
        yield InnerCycle(d, inv_g_sq, f_prev, g_f_prev, f_matrix, z_matrix, g_f)


def cycle_merit(workspace, cycle, rho):
    """Inner-loop merit after one :class:`InnerCycle`.

    The worst user's data cost
    sum_j |r_k t_j g_k^H U_k h_j - alpha_j|^2 + kron_scale_k ||g_k^H U_k||^2
    plus rho times the consensus penalties: the spread mean_k ||U_k - F||^2
    = ||D||^2 + 2 Re<g_k^H D, v_k> + ||g_k||^2 ||v_k||^2 with D = F_prev - F,
    and the tether ||Z - F||^2.
    """
    g_u, v = cycle.g_u, cycle.v
    g_sq = np.sum(np.abs(workspace.downlink) ** 2, axis=1)
    spread = np.mean(
        np.sum(np.abs(cycle.f_prev - cycle.f) ** 2)
        + 2.0 * np.real(np.sum((cycle.g_f_prev - cycle.g_f).conj() * v, axis=1))
        + g_sq * np.sum(np.abs(v) ** 2, axis=1)
    )
    tether = np.sum(np.abs(cycle.z - cycle.f) ** 2)
    fit = workspace.r[:, None] * (g_u @ workspace.uplink.T) * workspace.t[None, :] - workspace.alpha
    data = np.sum(np.abs(fit) ** 2, axis=1) + workspace.kron_scale * np.sum(np.abs(g_u) ** 2, axis=1)
    return float(np.max(data) + rho * (spread + tether))


def inner_pam(workspace, f_matrix_init, rho, m_inner):
    """Run m_inner cycles of :func:`inner_cycles`.

    Returns the unit-modulus matrix recovered from the final projection and
    the merit after the last cycle.
    """
    m_inner = int(m_inner)
    if m_inner < 1:
        raise ValueError("m_inner must be at least 1")
    for _, cycle in zip(range(m_inner), inner_cycles(workspace, f_matrix_init, rho)):
        pass
    return cycle.z, cycle_merit(workspace, cycle, rho)


@dataclass
class Solution:
    """Result of a full alternating run (or of the fixed-relay baseline).

    ``outer_objectives[0]`` is the objective right after initialization (with
    the closed-form equalizer already applied); subsequent entries follow each
    full outer cycle.  The returned triple is the best recorded one, so
    ``objective <= outer_objectives[0]`` always holds.  ``r_update_pairs[c]``
    holds the objective right before and after cycle c's r block; its t
    block then takes it to ``outer_objectives[c + 1]``.  ``t_gaps`` holds the
    duality gap each t block certified (see :func:`update_t`), ``t_evals``
    its dual evaluations, and ``inner_merits`` the inner-loop merit after
    each relay block's last cycle (empty for the baseline, which has none).
    """

    f_matrix: np.ndarray
    r_all: np.ndarray
    t_all: np.ndarray
    objective: float
    outer_objectives: np.ndarray
    inner_merits: list = field(default_factory=list)
    r_update_pairs: list = field(default_factory=list)
    t_gaps: list = field(default_factory=list)
    t_evals: list = field(default_factory=list)


def _alternating_run(mode, f_init, chan, weights, cfg, pam_cfg):
    """Shared outer loop: [relay block, in "pam" mode] -> r -> t, tracking the best triple.

    ``obj`` is always the objective at the current (F, r, t).  The t block
    returns it for its own result, so only a relay block, which changes F,
    and the r block need :func:`objective_minmax` evaluated.  Each t block
    starts its dual ascent at the previous t block's final weights (the
    first one at uniform weights): F and r change little between outer
    cycles, so the previous weights are a close start.
    """
    k_users = chan.n_users
    f_matrix = f_init
    t_all = np.full(k_users, np.sqrt(cfg.power_budget), dtype=complex)
    r_all = update_r(f_matrix, t_all, chan, weights, cfg)
    obj = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
    outer = [obj]
    best = (obj, f_matrix, r_all, t_all)
    inner_merits = []
    r_pairs = []
    t_gaps = []
    t_evals = []
    lam = None
    for _ in range(pam_cfg.n_outer):
        if mode == "pam":
            workspace = build_workspace(r_all, t_all, chan, weights, cfg)
            f_matrix, merit = inner_pam(workspace, f_matrix, pam_cfg.rho, pam_cfg.m_inner)
            inner_merits.append(merit)
            obj = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
        r_all = update_r(f_matrix, t_all, chan, weights, cfg)
        after_r = objective_minmax(f_matrix, r_all, t_all, chan, weights, cfg)
        r_pairs.append((obj, after_r))
        t_all, t_gap, obj, evals, lam = update_t(
            f_matrix, r_all, chan, weights, cfg, t_init=t_all, lam_init=lam
        )
        t_gaps.append(t_gap)
        t_evals.append(evals)
        outer.append(obj)
        if obj <= best[0]:
            best = (obj, f_matrix, r_all, t_all)
    return Solution(
        f_matrix=best[1],
        r_all=best[2],
        t_all=best[3],
        objective=best[0],
        outer_objectives=np.asarray(outer, dtype=float),
        inner_merits=inner_merits,
        r_update_pairs=r_pairs,
        t_gaps=t_gaps,
        t_evals=t_evals,
    )


def run_pam(chan, weights, cfg, pam_cfg=None, seed=0):
    """Full alternating optimization with the penalized inner loop for F.

    The initial relay phases are uniform, from the "phase-init" substream of ``seed``.
    """
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    n = chan.n_antennas
    f_init = np.exp(1j * substream(seed, "phase-init").uniform(0.0, 2.0 * np.pi, size=(n, n)))
    return _alternating_run("pam", f_init, chan, weights, cfg, pam_cfg)


def baseline_optimize(chan, weights, cfg, pam_cfg=None):
    """Fixed-relay baseline: F = I, only r and t are optimized alternately."""
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    f_init = np.eye(chan.n_antennas, dtype=complex)
    return _alternating_run("baseline", f_init, chan, weights, cfg, pam_cfg)
