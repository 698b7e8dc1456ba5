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

Also provides the synthetic tasks (least squares, L2-regularized logistic
regression), drawn by :class:`TaskSpec`, and the geometric-decay loss-gap
bound that links the per-round worst-user MSE to the expected optimality gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .aircomp import AggregationWeights, analytic_mse, global_target, over_the_air
from .channel import derive_seed, sample_awgn, sample_channels, substream
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
    "TaskSpec",
    "local_gd",
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
    """Strong convexity of the global loss (0 if none) and the per-user smoothness constant.

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
        sizes = task.dataset_sizes
        return float(sizes.sum()) / (sizes.size * task.curvature().smoothness)


class _Task:
    """Training data split over users, the layout both tasks share.

    ``features[k]`` is user k's (n_k, ..., dim) block and ``targets[k]`` its
    (n_k, ...) block of responses.  If ``dim`` is odd the task pads one
    all-zero coordinate so that the pairwise symbol packing applies; the
    padded coordinate carries no data.
    """

    _layout = None  # (feature ndim, description) of one user's blocks

    def __init__(self, features, targets):
        if len(features) != len(targets) or not features:
            raise ValueError("features and targets must be nonempty and aligned")
        ndim, layout = self._layout
        dim = np.asarray(features[0]).shape[-1]
        self.padded = bool(dim % 2)
        self.features = []
        self.targets = []
        for blk_a, blk_b in zip(features, targets):
            blk_a = np.asarray(blk_a, dtype=float)
            blk_b = np.asarray(blk_b, dtype=float)
            if blk_a.ndim != ndim or blk_b.shape != blk_a.shape[:-1] or blk_a.shape[-1] != dim:
                raise ValueError(f"every user needs {layout}")
            if self.padded:
                blk_a = np.concatenate([blk_a, np.zeros(blk_a.shape[:-1] + (1,))], axis=-1)
            self.features.append(blk_a)
            self.targets.append(blk_b)
        self.dim = dim + (1 if self.padded else 0)
        self.dataset_sizes = np.array([blk.shape[0] for blk in self.features], dtype=float)

    @property
    def n_users(self):
        return len(self.features)

    def global_loss(self, x):
        return float(self.global_loss_batch(np.asarray(x, dtype=float)[None, :])[0])


class QuadraticTask(_Task):
    """Per-sample losses 0.5 ||A_d x - b_d||^2 distributed over users.

    ``features[k]`` is (n_k, rows, dim) and ``targets[k]`` is (n_k, rows).
    A padded task is not strongly convex: ``curvature()`` reports 0.
    """

    _layout = (3, "(n, rows, dim) features and (n, rows) targets")

    def __init__(self, features, targets):
        super().__init__(features, targets)
        # Per-user summed Hessian and linear term; averages divide by n_k.
        # Data near the float range overflow here or in optimum(), which then
        # reports a non-finite optimal loss.
        with np.errstate(over="ignore"):
            self._hess_sum = [np.einsum("npi,npj->ij", blk, blk) for blk in self.features]
            self._lin_sum = [
                np.einsum("npi,np->i", blk, tgt) for blk, tgt in zip(self.features, self.targets)
            ]
            total = self.dataset_sizes.sum()
            self._global_hess = sum(self._hess_sum) / total
            self._global_lin = sum(self._lin_sum) / total
            self._const = sum(float(np.sum(tgt * tgt)) for tgt in self.targets) / (2.0 * total)

    def local_gradient_batch(self, k, x_batch):
        n_k = self.dataset_sizes[k]
        return (x_batch @ self._hess_sum[k] - self._lin_sum[k][None, :]) / n_k

    def global_loss_batch(self, x_batch):
        x_batch = np.asarray(x_batch, dtype=float)
        quad = 0.5 * np.einsum("ri,ij,rj->r", x_batch, self._global_hess, x_batch)
        return quad - x_batch @ self._global_lin + self._const

    def optimum(self):
        """Exact global minimizer and loss (padded coordinate pinned to zero); NaN on overflowed sums."""
        if not (np.all(np.isfinite(self._global_hess)) and np.all(np.isfinite(self._global_lin))):
            return np.full(self.dim, np.nan), np.nan
        if self.padded:
            core = self._global_hess[:-1, :-1]
            x_star = np.zeros(self.dim)
            x_star[:-1] = dense_solve(core, self._global_lin[:-1])
        else:
            x_star = dense_solve(self._global_hess, self._global_lin)
        with np.errstate(over="ignore", invalid="ignore"):
            return x_star, self.global_loss(x_star)

    def curvature(self):
        """Smallest global Hessian eigenvalue (0 at or below 1e-12) and per-user smoothness."""
        mu = float(np.linalg.eigvalsh(self._global_hess)[0])
        smooth = max(float(np.linalg.eigvalsh(h)[-1]) for h in self._hess_sum)
        return CurvatureConstants(strong_convexity=mu if mu > 1e-12 else 0.0, smoothness=smooth)


class LogisticTask(_Task):
    """L2-regularized logistic regression with +/-1 labels, split over users.

    ``features[k]`` is (n_k, dim) and ``targets[k]`` the (n_k,) labels.  The
    regularizer lambda/2 ||x||^2 is folded into every per-sample loss, so the
    task is lambda-strongly convex even on a padded coordinate.
    """

    _layout = (2, "(n, dim) features and (n,) labels")

    def __init__(self, features, labels, l2):
        if not l2 > 0:
            raise ValueError("l2 must be strictly positive")
        super().__init__(features, labels)
        if not all(np.all(np.abs(blk) == 1) for blk in self.targets):
            raise ValueError("labels must be +1 or -1")
        self.l2 = float(l2)

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
        y = self.targets[k]
        margins = y[None, :] * (x_batch @ a.T)
        weights_neg = self._sigmoid(-margins)
        grad = -np.einsum("rn,ni->ri", weights_neg * y[None, :], a) / a.shape[0]
        return grad + self.l2 * x_batch

    def global_loss_batch(self, x_batch):
        x_batch = np.asarray(x_batch, dtype=float)
        total = self.dataset_sizes.sum()
        acc = np.zeros(x_batch.shape[0])
        for a, y in zip(self.features, self.targets):
            margins = y[None, :] * (x_batch @ a.T)
            acc += np.sum(np.logaddexp(0.0, -margins), axis=1)
        return acc / total + 0.5 * self.l2 * np.sum(x_batch * x_batch, axis=1)

    def _global_gradient_hessian(self, x):
        total = self.dataset_sizes.sum()
        grad = np.zeros(self.dim)
        hess = np.zeros((self.dim, self.dim))
        for a, y in zip(self.features, self.targets):
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


@dataclass
class TaskSpec:
    """The synthetic training task, drawn for K users by :meth:`build`.

    A quadratic task gives every user ``samples_per_user`` samples of
    ``rows_per_sample`` rows.  With ``whiten`` the features are linearly
    reparameterized so the global Hessian is exactly the identity, which
    keeps the canonical step size well inside the stable region.  The targets
    fit a shared parameter of scale ``target_scale``, shifted per user by
    ``heterogeneity`` so that local and global minimizers differ (the
    interesting federated regime).  A logistic task labels
    ``samples_per_user`` Gaussian samples per user by a random direction plus
    noise and has the regularizer ``l2``.
    """

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
            raise ValueError(f"unknown task kind {self.kind!r}")
        for key in ("dim", "samples_per_user", "rows_per_sample"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.kind == "logistic" and not self.l2 > 0:
            raise ValueError("l2 must be strictly positive for a logistic task")

    def build(self, n_users):
        """Draw the task from the seed's "<kind>-task" substream.

        Raises ``ValueError`` when a quadratic draw is too degenerate to whiten.
        """
        rng = substream(self.seed, f"{self.kind}-task")
        dim, n_k = self.dim, self.samples_per_user
        if self.kind == "logistic":
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            feats, labels = [], []
            for _ in range(n_users):
                a = rng.standard_normal((n_k, dim))
                noise = 0.5 * rng.standard_normal(n_k)
                labels.append(np.where(a @ direction + noise >= 0, 1.0, -1.0))
                feats.append(a)
            return LogisticTask(feats, labels, self.l2)
        rows = self.rows_per_sample
        feats = [rng.standard_normal((n_k, rows, dim)) / np.sqrt(rows) for _ in range(n_users)]
        if self.whiten:
            gram = sum(np.einsum("npi,npj->ij", a, a) for a in feats) / float(n_users * n_k)
            vals, vecs = np.linalg.eigh(gram)
            if vals[0] <= 1e-10:
                raise ValueError("degenerate sample draw; increase samples_per_user or rows_per_sample")
            whitener = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
            feats = [a @ whitener for a in feats]
        shared = self.target_scale * rng.standard_normal(dim) / np.sqrt(dim)
        targets = []
        for a in feats:
            shift = self.heterogeneity * rng.standard_normal(dim) / np.sqrt(dim)
            targets.append(np.einsum("npi,i->np", a, shared + shift))
        return QuadraticTask(feats, targets)


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
    """Loss-gap bound after every round from the worst-user MSE history.

    ``max_mse_history`` is (..., rounds).  The bound after round i weights
    the MSE m_i' of every round i' <= i by

        c * base ** (i - i'),  c = K L (3 + 2/K) / (2 D),  base = 1 - mu D / (K L)

    with K users, smoothness L, strong convexity mu and D total samples, so
    it is the recursion B_i = base * B_{i-1} + c * m_i from B_{-1} = 0.
    Returns the bounds B_i in an array shaped like the history.  A warning
    is recorded when the decay base falls outside [0, 1) (the geometric
    interpretation then breaks down), but the values are returned.
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
    # An overflowing bound is returned as inf or NaN for the caller to report.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = prefactor * history
        for i in range(1, history.shape[-1]):
            bound[..., i] += base * bound[..., i - 1]
    return bound


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
    received = over_the_air(x_batch, f_matrix, t_all, chan, eta_batch, relay_noise, user_noise)
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    equalized = np.sqrt(2.0 * eta_batch)[:, None, None] * (r_all[None, :, None] * received)
    decoded = np.empty_like(x_batch)
    decoded[..., 0::2] = equalized.real
    decoded[..., 1::2] = equalized.imag
    return decoded


def solve_round(mode, chan, weights, radio, pam_cfg, seed, round_index):
    """The optimized link of fading block (seed, round) for ``mode`` ('pam' or 'baseline').

    Every command solves a block here; pam's initial phases are keyed by (seed, round).
    """
    if mode == "pam":
        init_seed = derive_seed(seed, "phase-init", int(round_index))
        return run_pam(chan, weights, radio, pam_cfg, seed=init_seed)
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
    # Diverged parameters overflow here; the check below reports them.
    with np.errstate(over="ignore", invalid="ignore"):
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
            f"(eta up to {float(np.max(eta_batch)):.3g})"
        )
    decoded = transmit_batch(x_batch, *link, chan, radio, eta_batch, seed, round_index)
    return decoded, global_target(x_batch, weights), mse


@dataclass
class ModeTrajectory:
    """Replay-averaged per-round series for one (seed, mode) run."""

    loss: np.ndarray
    loss_gap: np.ndarray
    max_mse: np.ndarray
    bound: np.ndarray
    objective: np.ndarray
    decoded_gap: np.ndarray
    bound_ok: np.ndarray
    solutions: list = field(default_factory=list)


@dataclass
class ExperimentReport:
    """All trajectories of a run plus the reference optimum."""

    lambda_star: float
    trajectories: dict

    def get(self, seed, mode):
        return self.trajectories[(int(seed), mode)]


def run_experiment(task, radio, pam_cfg=None, train_cfg=None, *, rounds, seeds, modes, replays):
    """Paired federated runs across seeds and link-optimization modes.

    Channel fading and transmission noise are keyed by (seed, round) only, so
    all modes under one seed see identical radio conditions, and every noise
    replay shares the per-round optimized link (which is independent of the
    model parameters).  Per-round series are averaged over replays.  Raises
    ``NumericError`` when the task's optimal loss, a round's loss or loss gap,
    or (for a strongly convex task) a round's bound is not finite.
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
    if not np.isfinite(lambda_star):
        raise NumericError(
            f"the task's optimal loss is {lambda_star:g}: its data are too large for "
            "float64 (try a smaller task.target_scale or task.heterogeneity)"
        )
    consts = task.curvature()
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
            decoded_gap = np.empty((rounds, task.n_users))
            for i, sol in enumerate(solutions):
                x_batch, target, mse_rk = round_step(
                    x_batch, task, weights, channels[i], radio, sol, step,
                    train_cfg.local_updates, seed, i,
                )
                loss[i] = task.global_loss_batch(target).mean()
                max_mse[i] = np.max(mse_rk, axis=1).mean()
                decoded = task.global_loss_batch(x_batch.reshape(-1, task.dim)).reshape(replays, -1)
                decoded_gap[i] = decoded.mean(axis=0) - lambda_star
            loss_gap = loss - lambda_star
            bad = ~np.isfinite(loss_gap)
            bound = np.full(rounds, np.nan)
            if consts.strong_convexity > 0:
                # The bound is linear in the MSEs: that of the replay mean is the mean bound.
                bound = theorem1_bound(
                    max_mse, task.n_users, consts.smoothness, consts.strong_convexity, total
                )
                bad |= ~np.isfinite(bound)
            if bad.any():
                i = int(np.argmax(bad))
                raise NumericError(
                    f"seed {seed} {mode} round {i}: the loss gap ({loss_gap[i]:g}) or its bound "
                    f"({bound[i]:g}) is not finite"
                )
            trajectories[(seed, mode)] = ModeTrajectory(
                loss=loss,
                loss_gap=loss_gap,
                max_mse=max_mse,
                bound=bound,
                objective=np.array([sol.objective for sol in solutions]),
                decoded_gap=decoded_gap,
                # NaN bounds (not strongly convex) compare False.
                bound_ok=decoded_gap.max(axis=1) <= bound,
                solutions=solutions,
            )
    return ExperimentReport(lambda_star=lambda_star, trajectories=trajectories)
