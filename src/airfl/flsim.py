"""Federated training loop over the analog aggregation link.

One round (:func:`round_step`): every user runs E local gradient steps, the
updated parameters are aggregated over the air (encode -> superimpose ->
relay forward -> receive -> decode), and each user's decoded vector becomes
its next starting point.  The relay matrix and link gains are re-optimized
every round from that round's fading realization (:func:`solve_round`); they
do not depend on the model parameters, so noise replays of the same round
share one optimized solution.  :func:`run_experiment` is the round loop: it
advances all replays of a (seed, mode) run together and records their
averaged per-round series.

Also provides synthetic strongly-convex tasks (least squares, L2-regularized
logistic regression) and the geometric-decay loss-gap bound that links the
per-round worst-user MSE to the expected optimality gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .aircomp import AggregationWeights, analytic_mse, global_target, over_the_air
from .channel import derive_seed, sample_awgn, sample_channels
from .linalg import NumericError, dense_solve
from .pam import PamConfig, baseline_optimize, run_pam

__all__ = [
    "BoundAssumptionWarning",
    "CurvatureConstants",
    "ExperimentReport",
    "LocalTrainConfig",
    "LogisticTask",
    "ModeTrajectory",
    "QuadraticTask",
    "local_gd",
    "make_logistic_task",
    "make_quadratic_task",
    "round_step",
    "run_experiment",
    "solve_round",
    "theorem1_bound",
    "transmit_batch",
]


class BoundAssumptionWarning(UserWarning):
    """Emitted when the bound's geometric decay factor leaves [0, 1)."""


@dataclass
class CurvatureConstants:
    """Strong convexity of the global loss and the per-user smoothness constant.

    ``smoothness`` is the largest eigenvalue of a single user's *summed*
    per-sample Hessian (not the average), matching the convention the bound
    weights expect.
    """

    strong_convexity: float
    smoothness: float


@dataclass
class LocalTrainConfig:
    """Local-update schedule: step size (None = canonical rule) and step count."""

    step_size: float | None = None
    local_updates: int = 1

    def __post_init__(self):
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError("step_size must be strictly positive when given")
        self.local_updates = int(self.local_updates)
        if self.local_updates < 1:
            raise ValueError("local_updates must be at least 1")

    def resolve_step(self, task):
        """Explicit step if set, else total_samples / (K * smoothness)."""
        if self.step_size is not None:
            return float(self.step_size)
        consts = task.curvature()
        sizes = task.dataset_sizes
        return float(sizes.sum()) / (sizes.size * consts.smoothness)


class QuadraticTask:
    """Per-sample losses 0.5 ||A_d x - b_d||^2 distributed over users.

    ``features[k]`` is (n_k, rows, dim) and ``targets[k]`` is (n_k, rows).
    If ``dim`` is odd the task pads one all-zero coordinate so that the
    pairwise symbol packing applies; the padded coordinate carries no data,
    so such tasks are not strongly convex and ``curvature()`` refuses them.
    """

    def __init__(self, features, targets):
        if len(features) != len(targets) or not features:
            raise ValueError("features and targets must be nonempty and aligned")
        dim = np.asarray(features[0]).shape[2]
        self.padded = bool(dim % 2)
        self.features = []
        self.targets = []
        for blk_a, blk_b in zip(features, targets):
            blk_a = np.asarray(blk_a, dtype=float)
            blk_b = np.asarray(blk_b, dtype=float)
            if blk_a.ndim != 3 or blk_b.shape != blk_a.shape[:2] or blk_a.shape[2] != dim:
                raise ValueError("every user needs (n, rows, dim) features and (n, rows) targets")
            if self.padded:
                blk_a = np.concatenate([blk_a, np.zeros(blk_a.shape[:2] + (1,))], axis=2)
            self.features.append(blk_a)
            self.targets.append(blk_b)
        self.dim = dim + (1 if self.padded else 0)
        self.dataset_sizes = np.array([blk.shape[0] for blk in self.features], dtype=float)
        # Per-user summed Hessian and linear term; averages divide by n_k.
        self._hess_sum = [np.einsum("npi,npj->ij", blk, blk) for blk in self.features]
        self._lin_sum = [
            np.einsum("npi,np->i", blk, tgt) for blk, tgt in zip(self.features, self.targets)
        ]
        total = self.dataset_sizes.sum()
        self._global_hess = sum(self._hess_sum) / total
        self._global_lin = sum(self._lin_sum) / total
        self._const = sum(float(np.sum(tgt * tgt)) for tgt in self.targets) / (2.0 * total)

    @property
    def n_users(self):
        return len(self.features)

    def local_gradient_batch(self, k, x_batch):
        n_k = self.dataset_sizes[k]
        return (x_batch @ self._hess_sum[k] - self._lin_sum[k][None, :]) / n_k

    def global_loss(self, x):
        return float(self.global_loss_batch(np.asarray(x, dtype=float)[None, :])[0])

    def global_loss_batch(self, x_batch):
        x_batch = np.asarray(x_batch, dtype=float)
        quad = 0.5 * np.einsum("ri,ij,rj->r", x_batch, self._global_hess, x_batch)
        return quad - x_batch @ self._global_lin + self._const

    def optimum(self):
        """Exact global minimizer and loss (padded coordinate pinned to zero)."""
        if self.padded:
            core = self._global_hess[:-1, :-1]
            x_star = np.zeros(self.dim)
            x_star[:-1] = dense_solve(core, self._global_lin[:-1])
        else:
            x_star = dense_solve(self._global_hess, self._global_lin)
        return x_star, self.global_loss(x_star)

    def curvature(self):
        mu = float(np.linalg.eigvalsh(self._global_hess)[0])
        if mu <= 1e-12:
            raise ValueError(
                "task is not strongly convex (smallest global Hessian eigenvalue "
                f"{mu:.3e}); the convergence-bound tooling requires strong convexity"
            )
        smooth = max(float(np.linalg.eigvalsh(h)[-1]) for h in self._hess_sum)
        return CurvatureConstants(strong_convexity=mu, smoothness=smooth)


class LogisticTask:
    """L2-regularized logistic regression with +/-1 labels, split over users.

    The regularizer lambda/2 ||x||^2 is folded into every per-sample loss, so
    the task is lambda-strongly convex even on a padded coordinate.
    """

    def __init__(self, features, labels, l2):
        if len(features) != len(labels) or not features:
            raise ValueError("features and labels must be nonempty and aligned")
        if not l2 > 0:
            raise ValueError("l2 must be strictly positive")
        self.l2 = float(l2)
        dim = np.asarray(features[0]).shape[1]
        self.padded = bool(dim % 2)
        self.features = []
        self.labels = []
        for blk_a, blk_y in zip(features, labels):
            blk_a = np.asarray(blk_a, dtype=float)
            blk_y = np.asarray(blk_y, dtype=float)
            if blk_a.ndim != 2 or blk_y.shape != (blk_a.shape[0],) or blk_a.shape[1] != dim:
                raise ValueError("every user needs (n, dim) features and (n,) labels")
            if not np.all(np.abs(blk_y) == 1):
                raise ValueError("labels must be +1 or -1")
            if self.padded:
                blk_a = np.concatenate([blk_a, np.zeros((blk_a.shape[0], 1))], axis=1)
            self.features.append(blk_a)
            self.labels.append(blk_y)
        self.dim = dim + (1 if self.padded else 0)
        self.dataset_sizes = np.array([blk.shape[0] for blk in self.features], dtype=float)

    @property
    def n_users(self):
        return len(self.features)

    @staticmethod
    def _sigmoid(v):
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    def local_gradient_batch(self, k, x_batch):
        a = self.features[k]
        y = self.labels[k]
        margins = y[None, :] * (x_batch @ a.T)
        weights_neg = self._sigmoid(-margins)
        grad = -np.einsum("rn,ni->ri", weights_neg * y[None, :], a) / a.shape[0]
        return grad + self.l2 * x_batch

    def global_loss(self, x):
        return float(self.global_loss_batch(np.asarray(x, dtype=float)[None, :])[0])

    def global_loss_batch(self, x_batch):
        x_batch = np.asarray(x_batch, dtype=float)
        total = self.dataset_sizes.sum()
        acc = np.zeros(x_batch.shape[0])
        for a, y in zip(self.features, self.labels):
            margins = y[None, :] * (x_batch @ a.T)
            acc += np.sum(np.logaddexp(0.0, -margins), axis=1)
        return acc / total + 0.5 * self.l2 * np.sum(x_batch * x_batch, axis=1)

    def _global_gradient_hessian(self, x):
        total = self.dataset_sizes.sum()
        grad = np.zeros(self.dim)
        hess = np.zeros((self.dim, self.dim))
        for a, y in zip(self.features, self.labels):
            margins = y * (a @ x)
            s = self._sigmoid(-margins)
            grad -= (s * y) @ a
            hess += a.T @ (a * (s * (1.0 - s))[:, None])
        grad = grad / total + self.l2 * x
        hess = hess / total + self.l2 * np.eye(self.dim)
        return grad, hess

    def optimum(self, grad_tol=1e-12, max_iter=200):
        """Damped-Newton reference solution (deterministic, high accuracy)."""
        x = np.zeros(self.dim)
        value = self.global_loss(x)
        for _ in range(max_iter):
            grad, hess = self._global_gradient_hessian(x)
            if np.linalg.norm(grad) <= grad_tol:
                break
            direction = dense_solve(hess, grad)
            step = 1.0
            while step > 1e-12:
                cand = x - step * direction
                cand_value = self.global_loss(cand)
                if cand_value <= value - 1e-4 * step * float(grad @ direction):
                    break
                step *= 0.5
            x = x - step * direction
            value = self.global_loss(x)
        return x, self.global_loss(x)

    def curvature(self):
        """lambda-strong convexity; smoothness from the standard 1/4 bound."""
        smooth = max(
            0.25 * float(np.linalg.eigvalsh(a.T @ a)[-1]) + a.shape[0] * self.l2
            for a in self.features
        )
        return CurvatureConstants(strong_convexity=self.l2, smoothness=smooth)


def make_quadratic_task(
    n_users=3,
    dim=10,
    samples_per_user=20,
    rows_per_sample=2,
    heterogeneity=0.5,
    target_scale=1.0,
    whiten=True,
    seed=0,
):
    """Random least-squares task with controllable conditioning.

    With ``whiten=True`` the feature blocks are linearly reparameterized so
    the global Hessian is exactly the identity, which keeps the canonical
    step size well inside the stable region.  ``heterogeneity`` shifts each
    user's local optimum away from the shared target, so local and global
    minimizers differ (the interesting federated regime).
    """
    from .channel import substream

    rng = substream(seed, "quadratic-task")
    k = int(n_users)
    raw_dim = int(dim)
    rows = int(rows_per_sample)
    n_k = int(samples_per_user)
    if k < 1 or raw_dim < 1 or rows < 1 or n_k < 1:
        raise ValueError("n_users, dim, rows_per_sample, samples_per_user must be positive")
    feats = [rng.standard_normal((n_k, rows, raw_dim)) / np.sqrt(rows) for _ in range(k)]
    if whiten:
        total = float(k * n_k)
        gram = sum(np.einsum("npi,npj->ij", a, a) for a in feats) / total
        vals, vecs = np.linalg.eigh(gram)
        if vals[0] <= 1e-10:
            raise ValueError("degenerate sample draw; increase samples_per_user or rows_per_sample")
        whitener = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        feats = [a @ whitener for a in feats]
    shared = target_scale * rng.standard_normal(raw_dim) / np.sqrt(raw_dim)
    targets = []
    for a in feats:
        shift = heterogeneity * rng.standard_normal(raw_dim) / np.sqrt(raw_dim)
        targets.append(np.einsum("npi,i->np", a, shared + shift))
    return QuadraticTask(feats, targets)


def make_logistic_task(n_users=3, dim=10, samples_per_user=40, l2=0.1, seed=0):
    """Random separable-ish logistic task with an L2 regularizer."""
    from .channel import substream

    rng = substream(seed, "logistic-task")
    k = int(n_users)
    direction = rng.standard_normal(int(dim))
    direction /= np.linalg.norm(direction)
    feats, labels = [], []
    for _ in range(k):
        a = rng.standard_normal((int(samples_per_user), int(dim)))
        noise = 0.5 * rng.standard_normal(int(samples_per_user))
        labels.append(np.where(a @ direction + noise >= 0, 1.0, -1.0))
        feats.append(a)
    return LogisticTask(feats, labels, l2=l2)


def local_gd(task, k, x_batch, step_size, n_steps):
    """Plain local gradient descent on user k's average loss, for a batch (R, M)."""
    if not step_size > 0:
        raise ValueError("step_size must be strictly positive")
    if int(n_steps) < 1:
        raise ValueError("n_steps must be at least 1")
    x_batch = np.asarray(x_batch, dtype=float).copy()
    for _ in range(int(n_steps)):
        x_batch -= step_size * task.local_gradient_batch(k, x_batch)
    return x_batch


def theorem1_bound(max_mse_history, n_users, smoothness, strong_convexity, total_samples):
    """Loss-gap bound at the latest round from the worst-user MSE history.

    ``max_mse_history`` is (..., rounds) with the latest round i last; the
    MSE of round i' enters the bound with the geometric weight

        K L (3 + 2/K) / (2 D) * (1 - mu D / (K L)) ** (i - i')

    with K users, smoothness L, strong convexity mu and D total samples.
    Returns a float for a 1-D history and one bound per leading index
    otherwise.  A warning is recorded when the decay base falls outside
    [0, 1) (the geometric interpretation then breaks down), but the value is
    returned.
    """
    history = np.asarray(max_mse_history, dtype=float)
    if history.ndim == 0 or history.shape[-1] == 0:
        raise ValueError("max_mse_history must have a nonempty last (rounds) axis")
    k = int(n_users)
    if k < 1 or not smoothness > 0 or not strong_convexity > 0 or not total_samples > 0:
        raise ValueError("n_users, smoothness, strong_convexity, total_samples must be positive")
    base = 1.0 - strong_convexity * total_samples / (k * smoothness)
    if not 0.0 <= base < 1.0:
        warnings.warn(
            f"decay base {base:.6g} outside [0, 1); bound weights are not geometric",
            BoundAssumptionWarning,
            stacklevel=2,
        )
    prefactor = k * smoothness * (3.0 + 2.0 / k) / (2.0 * total_samples)
    # Scalar powers and one dot product per history row keep every bound
    # bit-identical to the per-row 1-D evaluation.
    lags = range(history.shape[-1] - 1, -1, -1)
    weights = np.array([prefactor * base**lag for lag in lags])
    bound = np.matmul(history[..., None, :], weights[:, None])[..., 0, 0]
    return float(bound) if history.ndim == 1 else bound


def transmit_batch(x_batch, f_matrix, r_all, t_all, chan, radio, eta_batch, seed, round_index):
    """One over-the-air aggregation pass per noise replay: (R, K, M) -> decoded (R, K, M).

    Relay noise is drawn under the substream label ("round", i, "relay") and
    user k's under ("round", i, "user", k): noise is keyed by seed and round,
    never by mode, so paired pam/baseline runs see the same draws.
    """
    x_batch = np.asarray(x_batch, dtype=float)
    replays, k_users, model_dim = x_batch.shape
    n_symbols = model_dim // 2
    eta_batch = np.asarray(eta_batch, dtype=float).reshape(replays)
    label = ("round", int(round_index))
    relay_noise = sample_awgn(
        (replays, chan.n_antennas, n_symbols), radio.noise_power_server, seed, label + ("relay",)
    )
    user_noise = np.stack(
        [
            sample_awgn((replays, n_symbols), radio.noise_power_user[k], seed, label + ("user", k))
            for k in range(k_users)
        ],
        axis=1,
    )
    received = over_the_air(
        x_batch, f_matrix, t_all, chan, radio.power_scaling, eta_batch, relay_noise, user_noise
    )
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    equalized = np.sqrt(2.0 * eta_batch)[:, None, None] * (r_all[None, :, None] * received)
    decoded = np.empty_like(x_batch)
    decoded[..., 0::2] = equalized.real
    decoded[..., 1::2] = equalized.imag
    return decoded


def solve_round(mode, chan, weights, radio, pam_cfg, seed, round_index):
    """The round's optimized link for ``mode`` ('pam' or 'baseline')."""
    if mode == "pam":
        cfg_round = replace(pam_cfg, seed=derive_seed(seed, "phase-init", int(round_index)))
        return run_pam(chan, weights, radio, cfg_round)
    if mode == "baseline":
        return baseline_optimize(chan, weights, radio, pam_cfg)
    raise ValueError(f"unknown mode {mode!r} (expected 'pam' or 'baseline')")


def round_step(x_batch, task, weights, chan, radio, solution, step, local_updates, seed, round_index):
    """One round for R noise replays of every user's parameters (R, K, M).

    Runs the local steps, then sends the result over the air with the
    round's optimized link.  Returns the decoded parameters (R, K, M), the
    weighted aggregate of the locally updated parameters (R, M) and the
    closed-form per-user MSE (R, K) at each replay's power normalization.
    Raises ``NumericError`` when the locally updated parameters are not
    finite or overflow their power normalization, when a replay's parameters
    are all zero, or when the closed-form MSE is not finite.
    """
    x_batch = np.stack(
        [local_gd(task, k, x_batch[:, k, :], step, local_updates) for k in range(task.n_users)],
        axis=1,
    )
    eta_batch = np.mean(np.sum(x_batch * x_batch, axis=2), axis=1) / task.dim
    if not np.all(np.isfinite(eta_batch)):
        raise NumericError(
            f"round {round_index}: the local gradient steps diverged: the updated parameters "
            "are not finite, or too large to square (try a smaller train.step_size)"
        )
    if not np.all(eta_batch > 0):
        raise NumericError(
            f"round {round_index}: every user's locally updated parameters are zero in some "
            "replay, so the power normalization eta is 0 and nothing can be encoded"
        )
    link = (solution.f_matrix, solution.r_all, solution.t_all)
    mse = analytic_mse(*link, chan, weights, radio, eta_batch, task.dim // 2)
    if not np.all(np.isfinite(mse)):
        raise NumericError(
            f"round {round_index}: the closed-form MSE of the round's link is not finite "
            f"(eta up to {float(np.max(eta_batch)):.3g}, forward gain {radio.power_scaling:g})"
        )
    decoded = transmit_batch(x_batch, *link, chan, radio, eta_batch, seed, round_index)
    return decoded, global_target(x_batch, weights), mse


@dataclass
class ModeTrajectory:
    """Replay-averaged per-round series for one (seed, mode) run."""

    seed: int
    mode: str
    loss: np.ndarray
    loss_gap: np.ndarray
    max_mse: np.ndarray
    bound: np.ndarray
    objective: np.ndarray
    decoded_gap: np.ndarray
    bound_ok: np.ndarray
    solutions: list = field(default_factory=list)

    @property
    def final_loss(self):
        return float(self.loss[-1])

    @property
    def final_objective(self):
        return float(self.objective[-1])


@dataclass
class ExperimentReport:
    """All trajectories of a run plus the reference optimum."""

    rounds: int
    replays: int
    seeds: list
    modes: list
    lambda_star: float
    trajectories: dict

    def get(self, seed, mode):
        return self.trajectories[(int(seed), mode)]


def run_experiment(
    task,
    radio,
    pam_cfg=None,
    train_cfg=None,
    rounds=15,
    seeds=(0,),
    modes=("pam", "baseline"),
    replays=1,
):
    """Paired federated runs across seeds and link-optimization modes.

    Channel fading and transmission noise are keyed by (seed, round) only, so
    all modes under one seed see identical radio conditions, and every noise
    replay shares the per-round optimized link (which is independent of the
    model parameters).  Per-round series are averaged over replays.
    """
    pam_cfg = pam_cfg if pam_cfg is not None else PamConfig()
    train_cfg = train_cfg if train_cfg is not None else LocalTrainConfig()
    if task.dim % 2:
        raise ValueError("task dimension must be even to pack symbols (pad the task)")
    if task.n_users != radio.n_users:
        raise ValueError("task and radio disagree on the number of users")
    rounds = int(rounds)
    replays = int(replays)
    if rounds < 1 or replays < 1:
        raise ValueError("rounds and replays must be at least 1")
    weights = AggregationWeights(task.dataset_sizes)
    step = train_cfg.resolve_step(task)
    lambda_star = task.optimum()[1]
    try:
        consts = task.curvature()
    except ValueError:
        consts = None
    total = float(task.dataset_sizes.sum())
    trajectories = {}
    for seed in seeds:
        seed = int(seed)
        channels = [sample_channels(radio, seed, round_index=i) for i in range(rounds)]
        for mode in modes:
            solutions = [
                solve_round(mode, channels[i], weights, radio, pam_cfg, seed, i)
                for i in range(rounds)
            ]
            x_batch = np.zeros((replays, task.n_users, task.dim))
            loss = np.empty(rounds)
            max_mse = np.empty(rounds)
            bound = np.full(rounds, np.nan)
            decoded_gap = np.empty((rounds, task.n_users))
            mse_history = np.empty((replays, rounds))
            for i, sol in enumerate(solutions):
                x_batch, target, mse_rk = round_step(
                    x_batch, task, weights, channels[i], radio, sol, step,
                    train_cfg.local_updates, seed, i,
                )
                mse_history[:, i] = np.max(mse_rk, axis=1)
                loss[i] = task.global_loss_batch(target).mean()
                max_mse[i] = mse_history[:, i].mean()
                if consts is not None:
                    bound[i] = theorem1_bound(
                        mse_history[:, : i + 1], task.n_users, consts.smoothness,
                        consts.strong_convexity, total,
                    ).mean()
                for k in range(task.n_users):
                    decoded_gap[i, k] = task.global_loss_batch(x_batch[:, k, :]).mean() - lambda_star
            trajectories[(seed, mode)] = ModeTrajectory(
                seed=seed,
                mode=mode,
                loss=loss,
                loss_gap=loss - lambda_star,
                max_mse=max_mse,
                bound=bound,
                objective=np.array([sol.objective for sol in solutions]),
                decoded_gap=decoded_gap,
                # NaN bounds (no curvature constants) compare False.
                bound_ok=decoded_gap.max(axis=1) <= bound,
                solutions=solutions,
            )
    return ExperimentReport(
        rounds=rounds,
        replays=replays,
        seeds=[int(s) for s in seeds],
        modes=list(modes),
        lambda_star=lambda_star,
        trajectories=trajectories,
    )
