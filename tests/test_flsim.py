"""Tests for the federated training harness, tasks, and the loss-gap bound."""

import hashlib

import numpy as np
import pytest

from airfl.aircomp import AggregationWeights, analytic_mse
from airfl.channel import ChannelRealization, RadioConfig, sample_awgn, sample_channels, substream
from airfl import flsim
from airfl.flsim import (
    BoundAssumptionWarning,
    LocalTrainConfig,
    LogisticTask,
    QuadraticTask,
    TaskSpec,
    local_gd,
    round_step,
    run_experiment,
    solve_round,
    theorem1_bound,
    transmit_batch,
)
from airfl.linalg import NumericError
from airfl.pam import PamConfig, update_r


def _scalar_task():
    """Single user, single sample: loss 0.5 (x0 - 1)^2 (padded to dim 2)."""
    return QuadraticTask([np.ones((1, 1, 1))], [np.ones((1, 1))])


def _perfect_radio():
    return RadioConfig(
        n_antennas=1,
        n_users=1,
        pathloss_db=0.0,
        noise_power_server=0.0,
        noise_power_user=0.0,
    )


class TestLocalTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalTrainConfig(step_size=0.0)
        with pytest.raises(ValueError):
            LocalTrainConfig(local_updates=0)

    def test_canonical_step(self):
        # step = total_samples / (K * smoothness)
        task = TaskSpec(dim=4, samples_per_user=10, seed=0).build(2)
        consts = task.curvature()
        step = LocalTrainConfig().resolve_step(task)
        assert step == pytest.approx(20.0 / (2.0 * consts.smoothness), rel=1e-12)

    def test_explicit_step_wins(self):
        task = _scalar_task()
        assert LocalTrainConfig(step_size=0.3).resolve_step(task) == 0.3


class TestLocalGd:
    def test_unit_curvature_one_step(self):
        task = _scalar_task()
        for x0 in (-5.0, 0.0, 17.0):
            out = local_gd(task, 0, np.array([[x0, 0.0]]), step_size=1.0, n_steps=1)
            np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-14)

    def test_fixed_point_at_local_optimum(self):
        task = TaskSpec(dim=4, samples_per_user=8, seed=1).build(2)
        # local optimum of user 0: solve its own normal equations
        h = task._hess_sum[0]
        x_star = np.linalg.solve(h, task._lin_sum[0])
        out = local_gd(task, 0, np.stack([x_star, x_star]), step_size=0.5, n_steps=3)
        np.testing.assert_allclose(out, [x_star, x_star], atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = substream(70, "gd-fd")
        quad = TaskSpec(dim=4, samples_per_user=6, seed=2).build(2)
        logit = TaskSpec(kind="logistic", dim=4, samples_per_user=10, seed=2).build(2)
        h = 1e-6
        for task in (quad, logit):
            x = rng.standard_normal(task.dim)
            for k in range(task.n_users):
                grad = task.local_gradient_batch(k, x[None, :])[0]
                # A task holding only user k's data: its global loss is
                # user k's average loss.
                if isinstance(task, LogisticTask):
                    own = LogisticTask([task.features[k]], [task.targets[k]], l2=task.l2)
                else:
                    own = QuadraticTask([task.features[k]], [task.targets[k]])
                for idx in range(task.dim):
                    e = np.zeros(task.dim)
                    e[idx] = h
                    fd = (own.global_loss(x + e) - own.global_loss(x - e)) / (2 * h)
                    assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))

    def test_step_validation(self):
        task = _scalar_task()
        with pytest.raises(ValueError):
            local_gd(task, 0, np.zeros((1, 2)), step_size=0.0, n_steps=1)
        with pytest.raises(ValueError):
            local_gd(task, 0, np.zeros((1, 2)), step_size=0.1, n_steps=0)


class TestCurvature:
    def test_identity_hessians(self):
        # each user holds one sample with identity feature rows
        feats = [np.eye(2)[None, :, :] for _ in range(3)]
        tgts = [np.zeros((1, 2)) for _ in range(3)]
        consts = QuadraticTask(feats, tgts).curvature()
        assert consts.strong_convexity == pytest.approx(1.0, rel=1e-12)
        assert consts.smoothness == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_example(self):
        # per-user Hessian diag(1, 4) from a single sample
        feats = [np.diag([1.0, 2.0])[None, :, :] for _ in range(2)]
        tgts = [np.zeros((1, 2)) for _ in range(2)]
        consts = QuadraticTask(feats, tgts).curvature()
        assert consts.strong_convexity == pytest.approx(1.0, rel=1e-12)
        assert consts.smoothness == pytest.approx(4.0, rel=1e-12)

    def test_dense_eigensolver_oracle(self):
        task = TaskSpec(dim=6, samples_per_user=9, whiten=False, seed=5).build(3)
        consts = task.curvature()
        total = task.dataset_sizes.sum()
        global_hess = sum(
            np.einsum("npi,npj->ij", blk, blk) for blk in task.features
        ) / total
        mu = np.linalg.eigvalsh(global_hess)[0]
        smooth = max(
            np.linalg.eigvalsh(np.einsum("npi,npj->ij", blk, blk))[-1]
            for blk in task.features
        )
        assert consts.strong_convexity == pytest.approx(mu, rel=1e-10)
        assert consts.smoothness == pytest.approx(smooth, rel=1e-10)
        assert 0 < consts.strong_convexity <= consts.smoothness

    def test_degenerate_task_rejected(self):
        # padded coordinate has zero curvature
        assert QuadraticTask([np.ones((2, 1, 3))], [np.ones((2, 1))]).curvature().strong_convexity == 0.0


def _bound_weight(round_index, source_index, n_users, smoothness, strong_convexity, total):
    """The weight the bound at ``round_index`` gives round ``source_index``."""
    history = np.zeros(round_index + 1)
    history[source_index] = 1.0
    return theorem1_bound(history, n_users, smoothness, strong_convexity, total)[-1]


class TestBoundWeight:
    def test_frozen_examples(self):
        assert _bound_weight(3, 3, 1, 1.0, 1.0, 1.0) == pytest.approx(2.5)
        assert _bound_weight(4, 3, 1, 1.0, 1.0, 1.0) == 0.0  # zero decay base
        assert _bound_weight(2, 0, 2, 2.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_geometric_decay(self):
        w0 = _bound_weight(5, 5, 3, 2.0, 0.1, 4.0)
        w1 = _bound_weight(5, 4, 3, 2.0, 0.1, 4.0)
        base = 1.0 - 0.1 * 4.0 / (3 * 2.0)
        assert w1 == pytest.approx(w0 * base, rel=1e-12)

    def test_warning_outside_unit_interval(self):
        # mu * D / (K L) > 1 -> negative base
        with pytest.warns(BoundAssumptionWarning):
            out = _bound_weight(1, 0, 1, 1.0, 2.0, 1.0)
        assert out == pytest.approx(2.5 * (-1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            _bound_weight(1, 0, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _bound_weight(1, 0, 1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _bound_weight(1, 0, 1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            _bound_weight(1, 0, 1, 1.0, 1.0, 0.0)


class TestTheorem1Bound:
    def test_all_zero_history(self):
        assert theorem1_bound(np.zeros(5), 2, 2.0, 0.5, 4.0)[-1] == 0.0

    def test_single_round(self):
        assert theorem1_bound([1.0], 1, 1.0, 1.0, 1.0)[-1] == pytest.approx(2.5)

    def test_independent_recompute(self):
        rng = substream(71, "bound-brute")
        history = rng.uniform(0.1, 2.0, 6)
        k, smooth, mu, total = 3, 2.0, 0.2, 5.0
        got = theorem1_bound(history, k, smooth, mu, total)[-1]
        i = history.size - 1
        base = 1.0 - mu * total / (k * smooth)
        pre = k * smooth * (3.0 + 2.0 / k) / (2.0 * total)
        expected = sum(
            pre * base ** (i - ip) * history[ip] for ip in range(history.size)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_every_round_of_every_row(self):
        # The bound after each round i of each history row is the weighted
        # sum over rounds 0..i, for leading axes and a strided slice too.
        rng = substream(77, "bound-batch")
        full = rng.uniform(0.1, 2.0, (2, 5, 9))
        history = full[..., :7]
        got = theorem1_bound(history, 3, 2.0, 0.2, 5.0)
        assert got.shape == history.shape
        base = 1.0 - 0.2 * 5.0 / (3 * 2.0)
        pre = 3 * 2.0 * (3.0 + 2.0 / 3) / (2.0 * 5.0)
        for i in range(7):
            weights = pre * base ** np.arange(i, -1, -1)
            np.testing.assert_allclose(got[..., i], history[..., : i + 1] @ weights, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_bound(1.0, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound([], 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound(np.zeros((2, 0)), 1, 1.0, 1.0, 1.0)


class TestTasks:
    @pytest.mark.parametrize(
        "spec, n_users, digest",
        [
            (TaskSpec(), 3, "754e32d24cc7bccb0354d72a8d30532c79857415a7379660ab8cbf3bfc1b7ca7"),
            (
                TaskSpec(dim=5, samples_per_user=4, rows_per_sample=3, heterogeneity=0.8,
                         target_scale=2.0, whiten=False, seed=6),
                2,
                "83691cdf211cf5e7a07233bbcc648cc261a5bfd1aa2f32ecfcbf776a316b2358",
            ),
            (TaskSpec(kind="logistic", dim=6, seed=5), 3,
             "ea66e9f0e0a59006d47b7543d32e14f06160a25a6e10675c0c0dc2fd6e58856f"),
        ],
        ids=["quadratic", "unwhitened-odd", "logistic"],
    )
    def test_build_reproduces_recorded_draws(self, spec, n_users, digest):
        # SHA-256 of every user's feature and target bytes, recorded from the
        # task factories TaskSpec.build replaced: the draws are unchanged bit
        # for bit (the whitened case also pins this platform's LAPACK eigh).
        task = spec.build(n_users)
        h = hashlib.sha256()
        for a, b in zip(task.features, task.targets):
            h.update(a.tobytes())
            h.update(b.tobytes())
        assert h.hexdigest() == digest

    def test_whitened_global_hessian_is_identity(self):
        task = TaskSpec(dim=8, samples_per_user=20, seed=7).build(3)
        consts = task.curvature()
        assert consts.strong_convexity == pytest.approx(1.0, rel=1e-8)
        np.testing.assert_allclose(task._global_hess, np.eye(8), atol=1e-10)

    def test_quadratic_optimum_is_stationary(self):
        task = TaskSpec(dim=6, samples_per_user=10, seed=8).build(2)
        x_star, value = task.optimum()
        total_grad = sum(
            task.dataset_sizes[k] * task.local_gradient_batch(k, x_star[None, :])[0]
            for k in range(task.n_users)
        ) / task.dataset_sizes.sum()
        np.testing.assert_allclose(total_grad, 0.0, atol=1e-10)
        rng = substream(72, "quad-opt")
        for _ in range(5):
            assert task.global_loss(x_star + 0.1 * rng.standard_normal(6)) >= value

    def test_odd_dimension_padded(self):
        task = TaskSpec(dim=5, samples_per_user=8, whiten=False, seed=9).build(2)
        assert task.dim == 6 and task.padded
        x_star, _ = task.optimum()
        assert x_star[-1] == 0.0
        assert task.curvature().strong_convexity == 0.0

    def test_heterogeneity_separates_local_optima(self):
        task = TaskSpec(dim=4, samples_per_user=12, heterogeneity=1.0, seed=10).build(2)
        opt0 = np.linalg.solve(task._hess_sum[0], task._lin_sum[0])
        opt1 = np.linalg.solve(task._hess_sum[1], task._lin_sum[1])
        assert np.linalg.norm(opt0 - opt1) > 1e-3

    def test_logistic_newton_optimum(self):
        task = TaskSpec(kind="logistic", dim=4, samples_per_user=15, l2=0.2, seed=11).build(2)
        x_star, value = task.optimum()
        grad, _ = task._global_gradient_hessian(x_star)
        assert np.linalg.norm(grad) <= 1e-10
        assert value <= task.global_loss(np.zeros(task.dim))

    def test_logistic_curvature(self):
        task = TaskSpec(kind="logistic", dim=4, samples_per_user=15, l2=0.3, seed=12).build(2)
        assert task.curvature().strong_convexity == 0.3

    def test_logistic_validation(self):
        with pytest.raises(ValueError):
            LogisticTask([np.ones((2, 2))], [np.array([1.0, 0.5])], l2=0.1)
        with pytest.raises(ValueError):
            LogisticTask([np.ones((2, 2))], [np.array([1.0, -1.0])], l2=0.0)

    def test_batch_loss_consistency(self):
        rng = substream(73, "batch-loss")
        for task in (
            TaskSpec(dim=4, samples_per_user=6, seed=13).build(2),
            TaskSpec(kind="logistic", dim=4, samples_per_user=8, seed=13).build(2),
        ):
            xb = rng.standard_normal((3, task.dim))
            batch = task.global_loss_batch(xb)
            singles = [task.global_loss(x) for x in xb]
            np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestTransmit:
    def test_perfect_link_exact(self):
        radio = _perfect_radio()
        chan = ChannelRealization(
            uplink=np.ones((1, 1), dtype=complex), downlink=np.ones((1, 1), dtype=complex)
        )
        rng = substream(74, "tx-perfect")
        x = rng.standard_normal((1, 6))
        eta = float(np.mean(np.sum(x * x, axis=1) / x.shape[1]))
        out = transmit_batch(
            x[None], np.eye(1, dtype=complex), np.ones(1, dtype=complex),
            np.ones(1, dtype=complex), chan, radio, np.array([eta]), seed=0, round_index=0,
        )
        np.testing.assert_allclose(out[0], x, atol=1e-14)

    def test_batch_of_one_matches_single(self):
        # A batch of one equals a per-stage, per-user loop that draws its
        # noise under the documented substream labels.
        radio = RadioConfig(
            n_antennas=3, n_users=2, pathloss_db=0.0,
            noise_power_server=0.01, noise_power_user=0.02,
        )
        chan = sample_channels(radio, 5)
        rng = substream(75, "tx-batch")
        x = rng.standard_normal((2, 8))
        eta = float(np.mean(np.sum(x * x, axis=1) / x.shape[1]))
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        r = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        at_relay = sample_awgn((1, 3, 4), 0.01, 42, ("round", 3, "relay"))[0]
        for k in range(2):
            symbols = t[k] / np.sqrt(2 * eta) * (x[k, 0::2] + 1j * x[k, 1::2])
            at_relay = at_relay + np.outer(chan.uplink[k], symbols)
        forwarded = f @ at_relay
        single = np.empty_like(x)
        for k in range(2):
            noise = sample_awgn((1, 4), 0.02, 42, ("round", 3, "user", k))[0]
            equalized = np.sqrt(2 * eta) * r[k] * (chan.downlink[k].conj() @ forwarded + noise)
            single[k, 0::2] = equalized.real
            single[k, 1::2] = equalized.imag
        batch = transmit_batch(
            x[None], f, r, t, chan, radio, np.array([eta]), seed=42, round_index=3
        )
        np.testing.assert_allclose(batch[0], single, rtol=1e-12)

    def test_replay_mean_matches_closed_form(self):
        # Draw parameters i.i.d. from the eta-matched Gaussian, push them
        # through the transmission path, and compare the realized squared
        # error against the closed-form MSE.
        radio = RadioConfig(
            n_antennas=3, n_users=2, pathloss_db=0.0,
            noise_power_server=0.02, noise_power_user=0.02,
        )
        chan = sample_channels(radio, 6)
        rng = substream(76, "tx-mc")
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        t = np.array([0.7 + 0.2j, -0.4 + 0.8j])
        w = AggregationWeights(np.array([1.0, 2.0]))
        r = update_r(f, t, chan, w, radio)
        eta, dim, replays = 1.3, 8, 1500
        x_batch = np.sqrt(eta) * rng.standard_normal((replays, 2, dim))
        decoded = transmit_batch(
            x_batch, f, r, t, chan, radio, np.full(replays, eta), seed=77, round_index=0
        )
        target = np.einsum("k,rkm->rm", w.alpha, x_batch)
        sq_err = np.sum((decoded - target[:, None, :]) ** 2, axis=2)
        mean = sq_err.mean(axis=0)
        se = sq_err.std(axis=0, ddof=1) / np.sqrt(replays)
        closed = analytic_mse(f, r, t, chan, w, radio, eta, dim // 2)
        z = np.abs(mean - closed) / se
        assert np.all(z <= 4.0), f"worst z = {z.max():.2f}"


class TestRunRound:
    def test_perfect_link_equals_centralized_gd(self):
        task = TaskSpec(dim=6, samples_per_user=12, seed=14).build(1)
        radio = _perfect_radio()
        chan = sample_channels(radio, 0)
        weights = AggregationWeights(task.dataset_sizes)
        train = LocalTrainConfig()
        step = train.resolve_step(task)
        x = np.zeros((1, 1, 6))
        y = np.zeros(6)
        for i in range(8):
            sol = solve_round("baseline", chan, weights, radio, PamConfig(), 0, i)
            x, target, mse = round_step(
                x, task, weights, chan, radio, sol, step, train.local_updates, 0, i
            )
            y = y - step * task.local_gradient_batch(0, y[None, :])[0]
            np.testing.assert_allclose(x[0, 0], y, atol=1e-10)
            assert np.max(mse) <= 1e-18
            assert task.global_loss(target[0]) == pytest.approx(task.global_loss(y), rel=1e-12)

    def test_modes_agree_for_single_antenna(self):
        # a 1x1 unit-modulus relay is a pure phase, absorbed by the
        # equalizer: both modes must land on the same objective value.
        task = TaskSpec(dim=4, samples_per_user=6, seed=15).build(2)
        radio = RadioConfig(
            n_antennas=1, n_users=2, pathloss_db=0.0,
            noise_power_server=0.01, noise_power_user=0.02,
        )
        chan = sample_channels(radio, 2)
        weights = AggregationWeights(task.dataset_sizes)
        pam_cfg = PamConfig(n_outer=6, m_inner=10)
        objective = {
            mode: solve_round(mode, chan, weights, radio, pam_cfg, 0, 0).objective
            for mode in ("pam", "baseline")
        }
        assert objective["pam"] == pytest.approx(objective["baseline"], rel=1e-9)

    def test_round_step_outputs(self):
        # Shapes, the closed-form MSE at each replay's power normalization,
        # and replays that advance independently of each other.
        task = TaskSpec(dim=4, samples_per_user=6, seed=16).build(2)
        radio = RadioConfig(
            n_antennas=2, n_users=2, pathloss_db=0.0,
            noise_power_server=0.01, noise_power_user=0.02,
        )
        chan = sample_channels(radio, 3)
        weights = AggregationWeights(task.dataset_sizes)
        sol = solve_round("baseline", chan, weights, radio, PamConfig(), 0, 0)
        x = substream(78, "round-step").standard_normal((3, 2, 4))
        decoded, target, mse = round_step(x, task, weights, chan, radio, sol, 0.1, 2, 0, 0)
        assert decoded.shape == (3, 2, 4) and target.shape == (3, 4) and mse.shape == (3, 2)
        local = np.stack([local_gd(task, k, x[:, k], 0.1, 2) for k in range(2)], axis=1)
        np.testing.assert_allclose(target, np.einsum("k,rkm->rm", weights.alpha, local))
        link = (sol.f_matrix, sol.r_all, sol.t_all)
        for r in range(3):
            eta = float(np.mean(np.sum(local[r] ** 2, axis=1)) / 4)
            closed = analytic_mse(*link, chan, weights, radio, eta, 2)
            np.testing.assert_allclose(mse[r], closed, rtol=1e-12)
        single = round_step(x[1:2], task, weights, chan, radio, sol, 0.1, 2, 0, 0)
        np.testing.assert_allclose(mse[1:2], single[2], rtol=1e-12)
        with pytest.raises(ValueError):
            solve_round("wat", chan, weights, radio, PamConfig(), 0, 0)


class TestRunExperiment:
    def test_deterministic(self):
        task = TaskSpec(dim=4, samples_per_user=6, seed=17).build(2)
        radio = RadioConfig(
            n_antennas=2, n_users=2, pathloss_db=0.0,
            noise_power_server=0.001, noise_power_user=0.001,
        )
        kwargs = dict(
            pam_cfg=PamConfig(n_outer=2, m_inner=5),
            train_cfg=LocalTrainConfig(),
            rounds=3,
            seeds=(0, 1),
            modes=("pam", "baseline"),
            replays=2,
        )
        a = run_experiment(task, radio, **kwargs)
        b = run_experiment(task, radio, **kwargs)
        for key in a.trajectories:
            np.testing.assert_array_equal(a.trajectories[key].loss, b.trajectories[key].loss)
            np.testing.assert_array_equal(a.trajectories[key].bound, b.trajectories[key].bound)

    def test_structure_and_pairing(self):
        task = TaskSpec(dim=4, samples_per_user=6, seed=18).build(2)
        radio = RadioConfig(
            n_antennas=2, n_users=2, pathloss_db=0.0,
            noise_power_server=0.001, noise_power_user=0.001,
        )
        rep = run_experiment(
            task, radio, PamConfig(n_outer=2, m_inner=5), LocalTrainConfig(),
            rounds=4, seeds=(3,), modes=("pam", "baseline"), replays=1,
        )
        assert rep.lambda_star == pytest.approx(task.optimum()[1])
        for mode in ("pam", "baseline"):
            tr = rep.get(3, mode)
            assert tr.loss.shape == (4,)
            assert np.all(np.isfinite(tr.bound))
            np.testing.assert_allclose(tr.loss_gap, tr.loss - rep.lambda_star, rtol=1e-12)
        # paired: the pre-transmission loss of round 0 is mode-independent
        assert rep.get(3, "pam").loss[0] == pytest.approx(
            rep.get(3, "baseline").loss[0], rel=1e-12
        )

    def test_noiseless_centralized_equivalence_and_monotone_gap(self):
        task = TaskSpec(dim=6, samples_per_user=10, seed=19).build(1)
        radio = _perfect_radio()
        rep = run_experiment(
            task, radio, PamConfig(n_outer=2, m_inner=5), LocalTrainConfig(),
            rounds=10, seeds=(0,), modes=("baseline",), replays=1,
        )
        tr = rep.get(0, "baseline")
        step = LocalTrainConfig().resolve_step(task)
        y = np.zeros(6)
        losses = []
        for _ in range(10):
            y = y - step * task.local_gradient_batch(0, y[None, :])[0]
            losses.append(task.global_loss(y))
        np.testing.assert_allclose(tr.loss, losses, atol=1e-10)
        assert np.all(np.diff(tr.loss_gap) <= 1e-12)
        assert np.all(tr.loss_gap >= -1e-12)

    def test_bound_holds_in_steady_state(self):
        task = TaskSpec(dim=6, samples_per_user=10, seed=4).build(2)
        radio = RadioConfig(
            n_antennas=3, n_users=2, pathloss_db=-20.0,
            noise_power_server=1e-7, noise_power_user=1e-7,
        )
        rep = run_experiment(
            task, radio, PamConfig(n_outer=4, m_inner=10), LocalTrainConfig(),
            rounds=6, seeds=(0,), modes=("pam",), replays=60,
        )
        tr = rep.get(0, "pam")
        final_third = slice(-max(1, 6 // 3), None)
        assert np.all(tr.bound_ok[final_third]), (
            f"bound={tr.bound[final_third]}, gap={tr.decoded_gap[final_third].max(axis=1)}"
        )

    @pytest.mark.parametrize(
        "overflow, message",
        [
            ("optimum", "the task's optimal loss is inf"),
            ("loss", r"seed 0 pam round 0: the loss gap \(inf\) or its bound"),
            ("bound", r"seed 0 pam round 0: the loss gap \(.*\) or its bound \(inf\)"),
        ],
        ids=["optimum", "loss", "bound"],
    )
    def test_non_finite_series_are_numeric_errors(self, monkeypatch, overflow, message):
        task = TaskSpec(dim=4, samples_per_user=6, seed=21).build(2)
        radio = RadioConfig(n_antennas=2, n_users=2, pathloss_db=0.0, noise_power_user=0.01)
        x_star, lambda_star = task.optimum()
        if overflow == "optimum":
            monkeypatch.setattr(task, "optimum", lambda: (x_star, np.inf))
        elif overflow == "loss":
            monkeypatch.setattr(task, "optimum", lambda: (x_star, lambda_star))
            monkeypatch.setattr(task, "global_loss_batch", lambda x: np.full(len(x), np.inf))
        else:
            monkeypatch.setattr(flsim, "theorem1_bound", lambda history, *args: np.full(history.shape, np.inf))
        with pytest.raises(NumericError, match=message):
            run_experiment(
                task, radio, PamConfig(n_outer=1, m_inner=2), rounds=2, seeds=(0,), modes=("pam",), replays=1
            )

    def test_validation(self):
        task = TaskSpec(dim=4, samples_per_user=6, seed=20).build(2)
        radio = RadioConfig(
            n_antennas=2, n_users=3, pathloss_db=0.0, noise_power_user=0.01
        )
        with pytest.raises(ValueError):
            run_experiment(task, radio, rounds=2, seeds=(0,), modes=("pam",), replays=1)
        radio2 = RadioConfig(
            n_antennas=2, n_users=2, pathloss_db=0.0, noise_power_user=0.01
        )
        with pytest.raises(ValueError):
            run_experiment(task, radio2, rounds=0, seeds=(0,), modes=("pam",), replays=1)
