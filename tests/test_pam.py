"""Tests for the alternating min-max optimizer and its inner penalty loop."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from airfl import pam as pam_module
from airfl.aircomp import AggregationWeights
from airfl.channel import ChannelRealization, RadioConfig, sample_channels, substream
from airfl.checks import dense_u_step
from airfl.linalg import IllConditionedError, mat_of_vector, phase_project, vec_of_matrix
from airfl.pam import (
    T_GAP_TOL,
    PamConfig,
    Solution,
    baseline_optimize,
    build_workspace,
    inner_pam,
    objective_minmax,
    run_pam,
    transmit_objective,
    update_r,
    update_t,
    update_u,
)


def _perfect_link():
    cfg = RadioConfig(
        n_antennas=1,
        n_users=1,
        pathloss_db=0.0,
        noise_power_server=0.0,
        noise_power_user=0.0,
    )
    chan = ChannelRealization(
        uplink=np.ones((1, 1), dtype=complex), downlink=np.ones((1, 1), dtype=complex)
    )
    return cfg, chan


def _random_instance(rng, n, k, noise_server=0.01, noise_user=0.02):
    cfg = RadioConfig(
        n_antennas=n,
        n_users=k,
        pathloss_db=0.0,
        noise_power_server=noise_server,
        noise_power_user=noise_user,
    )
    chan = sample_channels(cfg, int(rng.integers(1 << 31)))
    f_matrix = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
    r_all = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    t_all = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
    return cfg, chan, f_matrix, r_all, t_all, weights


class TestPamConfig:
    def test_defaults(self):
        pc = PamConfig()
        assert pc.rho == 1.0
        assert pc.n_outer == 20
        assert pc.m_inner == 50
        assert [f.name for f in fields(PamConfig)] == ["rho", "n_outer", "m_inner", "seed"]

    def test_validation(self):
        with pytest.raises(ValueError):
            PamConfig(rho=0.0)
        with pytest.raises(ValueError):
            PamConfig(n_outer=0)
        with pytest.raises(ValueError):
            PamConfig(m_inner=0)
        with pytest.raises(TypeError):
            PamConfig(init_strategy="all-ones")
        with pytest.raises(TypeError):
            PamConfig(rho_growth=1.3)


class TestObjectiveMinmax:
    def test_perfect_link_zero(self):
        cfg, chan = _perfect_link()
        w = AggregationWeights(np.array([1.0]))
        out = objective_minmax(
            np.eye(1, dtype=complex), np.array([1.0 + 0j]), np.array([1.0 + 0j]), chan, w, cfg
        )
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_zero_equalizer(self):
        rng = substream(40, "obj-zero-r")
        cfg, chan, f, _, t, w = _random_instance(rng, 3, 2)
        out = objective_minmax(f, np.zeros(2, dtype=complex), t, chan, w, cfg)
        assert out == pytest.approx(np.sum(w.alpha**2), rel=1e-12)

    def test_brute_recompute(self):
        rng = substream(41, "obj-brute")
        cfg, chan, f, r, t, w = _random_instance(rng, 3, 2)
        out = objective_minmax(f, r, t, chan, w, cfg)
        per_user = []
        for k in range(2):
            g_row = chan.downlink[k].conj() @ f
            sig = sum(
                abs(r[k] * (g_row @ chan.uplink[j]) * t[j] - w.alpha[j]) ** 2 for j in range(2)
            )
            per_user.append(
                sig
                + cfg.noise_power_server * abs(r[k]) ** 2 * np.sum(np.abs(g_row) ** 2)
                + cfg.noise_power_user[k] * abs(r[k]) ** 2
            )
        assert out == pytest.approx(max(per_user), rel=1e-12)


class TestUpdateR:
    def test_matched_filter(self):
        cfg, chan = _perfect_link()
        w = AggregationWeights(np.array([1.0]))
        r = update_r(np.eye(1, dtype=complex), np.array([1.0 + 0j]), chan, w, cfg)
        np.testing.assert_allclose(r, [1.0 + 0j])

    def test_zero_downlink_row(self):
        cfg = RadioConfig(
            n_antennas=2, n_users=2, pathloss_db=0.0, noise_power_user=0.1
        )
        rng = substream(42, "r-zero-row")
        chan = sample_channels(cfg, 1)
        downlink = chan.downlink.copy()
        downlink[1] = 0.0
        chan = ChannelRealization(uplink=chan.uplink, downlink=downlink)
        r = update_r(
            np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2))),
            np.ones(2, dtype=complex),
            chan,
            AggregationWeights(np.array([1.0, 1.0])),
            cfg,
        )
        assert r[1] == 0.0

    def test_zero_denominator_raises(self):
        cfg = RadioConfig(
            n_antennas=1,
            n_users=1,
            pathloss_db=0.0,
            noise_power_server=0.0,
            noise_power_user=0.0,
        )
        chan = ChannelRealization(
            uplink=np.zeros((1, 1), dtype=complex), downlink=np.zeros((1, 1), dtype=complex)
        )
        with pytest.raises(ValueError):
            update_r(
                np.eye(1, dtype=complex),
                np.ones(1, dtype=complex),
                chan,
                AggregationWeights(np.array([1.0])),
                cfg,
            )

    def test_finite_difference_stationarity(self):
        from airfl.aircomp import mse_bracket_terms

        rng = substream(43, "r-stationary")
        for _ in range(10):
            cfg, chan, f, _, t, w = _random_instance(rng, 3, 2)
            r = update_r(f, t, chan, w, cfg)

            def bracket(r_vec):
                return mse_bracket_terms(f, r_vec, t, chan, w, cfg)

            base = bracket(r)
            h = 1e-6
            for k in range(2):
                for delta in (h, 1j * h):
                    plus = r.copy()
                    plus[k] += delta
                    minus = r.copy()
                    minus[k] -= delta
                    deriv = (bracket(plus)[k] - bracket(minus)[k]) / (2 * h)
                    assert abs(deriv) <= 1e-6 * max(1.0, base[k])

    def test_never_increases_objective(self):
        rng = substream(44, "r-noninc")
        for _ in range(20):
            cfg, chan, f, r0, t, w = _random_instance(rng, 3, 3)
            before = objective_minmax(f, r0, t, chan, w, cfg)
            r1 = update_r(f, t, chan, w, cfg)
            after = objective_minmax(f, r1, t, chan, w, cfg)
            assert after <= before + 1e-9


def _transmit_coeff(f, r, chan):
    from airfl.aircomp import _effective_gains

    return r[:, None] * _effective_gains(f, chan)[0]


def _project_disc(t, cap):
    mag = np.abs(t)
    return np.where(mag > cap, t * cap / np.maximum(mag, cap), t)


def _subgradient_reference(coeff, alpha, cap, t_init, iters=2000):
    """The earlier transmit solve: per-user least-squares seeds, then
    ``iters`` projected-subgradient steps of length 1/(L sqrt(it + 1)),
    returning the best point evaluated."""
    candidates = [t_init]
    for row in coeff:
        candidates.append(_project_disc(alpha * row.conj() / np.abs(row) ** 2, cap))
    values = [transmit_objective(coeff, alpha, t) for t in candidates]
    best_t = x = candidates[int(np.argmin(values))]
    best_val = min(values)
    step0 = 1.0 / float(np.max(np.abs(coeff) ** 2))
    for it in range(iters):
        resid = coeff * x[None, :] - alpha[None, :]
        worst = int(np.argmax(np.sum(np.abs(resid) ** 2, axis=1)))
        x = _project_disc(x - step0 / np.sqrt(it + 1.0) * coeff[worst].conj() * resid[worst], cap)
        val = transmit_objective(coeff, alpha, x)
        if val < best_val:
            best_t, best_val = x, val
    return best_t


class TestUpdateT:
    def _single_user(self, coeff_value):
        cfg = RadioConfig(
            n_antennas=1, n_users=1, pathloss_db=0.0, noise_power_user=0.1
        )
        chan = ChannelRealization(
            uplink=np.array([[1.0 + 0j]]), downlink=np.array([[1.0 + 0j]])
        )
        f = np.eye(1, dtype=complex)
        # r g^H F h = coeff_value when r = coeff_value
        r = np.array([complex(coeff_value)])
        return cfg, chan, f, r

    def test_unconstrained_least_squares(self):
        cfg, chan, f, r = self._single_user(2.0)
        t, gap = update_t(f, r, chan, AggregationWeights(np.array([1.0])), cfg)
        np.testing.assert_allclose(t, [0.5 + 0j], atol=1e-9)
        assert gap == 0.0

    def test_radial_clip(self):
        cfg, chan, f, r = self._single_user(0.5)
        t, gap = update_t(f, r, chan, AggregationWeights(np.array([1.0])), cfg)
        np.testing.assert_allclose(t, [1.0 + 0j], atol=1e-9)
        assert gap == 0.0

    def test_single_user_is_projected_closed_form(self):
        # At K=1 the only dual weight is 1, so the solve is the user's own
        # least-squares point projected onto the power disc, certified exact.
        rng = substream(48, "t-single")
        for _ in range(10):
            cfg, chan, f, r, t0, w = _random_instance(rng, 3, 1)
            coeff = _transmit_coeff(f, r, chan)[0]
            cap = np.sqrt(cfg.power_budget)
            t, gap = update_t(f, r, chan, w, cfg, t_init=_project_disc(t0, cap))
            expected = _project_disc(w.alpha * coeff.conj() / np.abs(coeff) ** 2, cap)
            np.testing.assert_allclose(t, expected, rtol=1e-14, atol=0)
            assert gap == 0.0

    def test_grid_oracle_two_users(self):
        rng = substream(45, "t-grid")
        mags = np.linspace(1e-3, 1.0, 40)
        phases = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        grid_pts = (mags[:, None] * np.exp(1j * phases[None, :])).ravel()
        for trial in range(5):
            cfg, chan, f, r, _, w = _random_instance(rng, 2, 2)
            r = r / np.abs(r)  # keep coefficients O(1) for a fair grid
            coeff = _transmit_coeff(f, r, chan)
            t, _ = update_t(f, r, chan, w, cfg)
            got = transmit_objective(coeff, w.alpha, t)
            best = np.inf
            for ta in grid_pts:
                vals = np.abs(coeff[:, 0] * ta - w.alpha[0]) ** 2
                resid_b = coeff[:, 1][:, None] * grid_pts[None, :] - w.alpha[1]
                total = vals[:, None] + np.abs(resid_b) ** 2
                best = min(best, float(np.max(total, axis=0).min()))
            assert got <= best + 1e-6, f"trial {trial}: {got} vs grid {best}"

    @pytest.mark.parametrize("n, k", [(8, 3), (16, 8), (32, 16)])
    def test_gap_certificate(self, n, k):
        # Every solve certifies a relative gap of at most T_GAP_TOL, and the
        # certificate is sound: no feasible point, the earlier subgradient
        # solve's included, beats (1 - gap) times the returned objective.
        rng = substream(49, f"t-gap-{n}-{k}")
        for _ in range(5):
            cfg, chan, f, r, t0, w = _random_instance(rng, n, k)
            coeff = _transmit_coeff(f, r, chan)
            cap = np.sqrt(cfg.power_budget)
            t, gap = update_t(f, r, chan, w, cfg)
            assert 0.0 <= gap <= T_GAP_TOL
            assert np.all(np.abs(t) <= cap * (1 + 1e-12))
            floor = (1.0 - gap) * transmit_objective(coeff, w.alpha, t)
            others = [_project_disc(t0, cap), _subgradient_reference(coeff, w.alpha, cap, t0, 200)]
            others += list(cap * np.exp(1j * rng.uniform(0, 2 * np.pi, (20, k))))
            for other in others:
                assert transmit_objective(coeff, w.alpha, other) >= floor * (1 - 1e-12)

    def test_zero_equalizer_user_is_certified(self):
        # A user with r_k = 0 has the constant value sum(alpha^2), which the
        # dual reaches only at its simplex vertex; the vertex bound closes
        # the gap whenever the other users can be brought below it.
        rng = substream(51, "t-zero-row")
        for _ in range(5):
            cfg, chan, f, r, _, w = _random_instance(rng, 6, 8)
            r[3] = 0.0
            coeff = _transmit_coeff(f, r, chan)
            t, gap = update_t(f, r, chan, w, cfg)
            assert gap <= T_GAP_TOL
            assert transmit_objective(coeff, w.alpha, t) >= np.sum(w.alpha**2)

    def test_stalled_ascent_stops_with_the_same_result(self, monkeypatch):
        # A transmit solve met in a train_ref simulate job (3 users with
        # nearly equal gains, misfits near 2e-7): the ascent reaches the
        # rounding of the dual at a gap of 1.07e-6, and without the stall
        # stop its backtracking spins through all T_MAX_ITERS steps.  With
        # F = G = I and r = 1 the coefficients c_kj are uplink[j][k] exactly.
        coeff = np.array(
            [
                [0.4450921310727021 - 0.12199459398973611j, -0.32446655485298614 + 0.2604816973378175j,
                 0.1870815565777818 - 0.27604461709661376j],
                [0.445948241818188 - 0.1217870733649168j, -0.32442642679926764 + 0.2602050599063511j,
                 0.18648108773148475 - 0.27597828688459597j],
                [0.4454874532062671 - 0.12154861634373879j, -0.32432688162566564 + 0.2603178801213601j,
                 0.18671420743042202 - 0.2762477047710248j],
            ]
        )
        t_init = np.array(
            [0.6961818784387899 + 0.19033195097484076j, -0.6250212106273104 - 0.5015408090574133j,
             0.5603034711050332 + 0.828287401973283j]
        )
        cfg = RadioConfig(n_antennas=3, n_users=3)
        chan = ChannelRealization(uplink=coeff.T.copy(), downlink=np.eye(3, dtype=complex))
        f, r, w = np.eye(3, dtype=complex), np.ones(3, dtype=complex), AggregationWeights(np.full(3, 1.0 / 3.0))
        np.testing.assert_array_equal(_transmit_coeff(f, r, chan), coeff)
        steps = []
        project = pam_module._simplex_project
        monkeypatch.setattr(pam_module, "_simplex_project", lambda v: steps.append(1) or project(v))

        def solve():
            steps.clear()
            t, gap = update_t(f, r, chan, w, cfg, t_init=t_init)
            return t, gap, len(steps)

        t, gap, stopped = solve()
        monkeypatch.setattr(pam_module, "T_STALL_STEPS", pam_module.T_MAX_ITERS + 1)
        t_full, gap_full, full = solve()
        assert full > pam_module.T_MAX_ITERS and 10 * stopped < full
        assert T_GAP_TOL < gap < 2 * T_GAP_TOL
        np.testing.assert_array_equal(t, t_full)
        assert gap == gap_full

    def test_not_worse_than_subgradient(self):
        rng = substream(50, "t-vs-subgradient")
        cfg, chan, f, r, _, w = _random_instance(rng, 8, 3)
        coeff = _transmit_coeff(f, r, chan)
        t_init = np.full(3, np.sqrt(cfg.power_budget), dtype=complex)
        t, _ = update_t(f, r, chan, w, cfg, t_init=t_init)
        reference = _subgradient_reference(coeff, w.alpha, np.sqrt(cfg.power_budget), t_init)
        assert transmit_objective(coeff, w.alpha, t) <= transmit_objective(coeff, w.alpha, reference)

    def test_feasible_and_never_increases(self):
        rng = substream(46, "t-noninc")
        for _ in range(20):
            cfg, chan, f, r, t0, w = _random_instance(rng, 3, 3)
            t0 = t0 / np.maximum(1.0, np.abs(t0) / np.sqrt(cfg.power_budget))
            coeff = _transmit_coeff(f, r, chan)
            before = transmit_objective(coeff, w.alpha, t0)
            t1, _ = update_t(f, r, chan, w, cfg, t_init=t0)
            after = transmit_objective(coeff, w.alpha, t1)
            assert np.all(np.abs(t1) ** 2 <= cfg.power_budget + 1e-9)
            assert after <= before + 1e-12

    def test_zero_coefficients_returns_input(self):
        cfg = RadioConfig(n_antennas=2, n_users=1, pathloss_db=0.0, noise_power_user=0.1)
        chan = ChannelRealization(
            uplink=np.ones((1, 2), dtype=complex), downlink=np.ones((1, 2), dtype=complex)
        )
        t_init = np.array([0.3 + 0.1j])
        t, gap = update_t(
            np.ones((2, 2), dtype=complex),
            np.zeros(1, dtype=complex),
            chan,
            AggregationWeights(np.array([1.0])),
            cfg,
            t_init=t_init,
        )
        np.testing.assert_array_equal(t, t_init)
        assert gap == 0.0


class TestWorkspace:
    def test_zero_equalizer_zeroes_everything(self):
        rng = substream(47, "ws-zero")
        cfg, chan, _, _, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(np.zeros(2, dtype=complex), t, chan, w, cfg)
        np.testing.assert_array_equal(ws.kron_scale, np.zeros(2))
        for k in range(2):
            rank_one = dense_u_step(ws, k, 1.0)[2]
            np.testing.assert_array_equal(rank_one, np.zeros_like(rank_one))

    def test_scalar_case(self):
        cfg = RadioConfig(n_antennas=1, n_users=1, pathloss_db=0.0, noise_power_user=0.1)
        chan = ChannelRealization(
            uplink=np.array([[2.0 + 1.0j]]), downlink=np.array([[1.0 - 1.0j]])
        )
        r = np.array([0.5 + 0.5j])
        t = np.array([1.0 - 2.0j])
        w = AggregationWeights(np.array([1.0]))
        ws = build_workspace(r, t, chan, w, cfg)
        expected = np.conj(r[0] * t[0] * chan.uplink[0, 0]) * chan.downlink[0, 0]
        np.testing.assert_allclose(dense_u_step(ws, 0, 1.0)[2][0, 0], expected, rtol=1e-12)
        np.testing.assert_array_equal(ws.r, r)
        np.testing.assert_array_equal(ws.t, t)

    def test_rank_one_identity(self):
        # The oracle's a_{k,j}^H vec(F), built from the workspace's (r, t,
        # channels), must reproduce r_k g_k^H F h_j t_j for any F.
        rng = substream(48, "ws-identity")
        cfg, chan, _, r, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        for _ in range(5):
            f_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            f_vec = vec_of_matrix(f_mat)
            for k in range(2):
                rank_one = dense_u_step(ws, k, 1.0)[2]
                for j in range(2):
                    via_vec = rank_one[j].conj() @ f_vec
                    direct = r[k] * (chan.downlink[k].conj() @ f_mat @ chan.uplink[j]) * t[j]
                    np.testing.assert_allclose(via_vec, direct, rtol=1e-12)

    def test_kron_scale(self):
        rng = substream(49, "ws-kron")
        cfg, chan, _, r, t, w = _random_instance(rng, 2, 2, noise_server=0.3)
        ws = build_workspace(r, t, chan, w, cfg)
        np.testing.assert_allclose(ws.kron_scale, 0.3 * np.abs(r) ** 2, rtol=1e-12)


class TestUpdateU:
    def test_pure_proximal(self):
        rng = substream(50, "u-prox")
        cfg, chan, _, _, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(np.zeros(2, dtype=complex), t, chan, w, cfg)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        u = update_u(ws, f, rho=1.0)
        for k in range(2):
            np.testing.assert_allclose(u[k], f, rtol=1e-10)
        with pytest.raises(ValueError):
            update_u(ws, f, 0.0)
        with pytest.raises(ValueError):
            update_u(ws, f[:4], 1.0)

    def test_scalar_half(self):
        # N=1, single a=1, alpha=1, G=0, rho/K=1, f=0 -> (1+1) u = 1.
        cfg = RadioConfig(
            n_antennas=1,
            n_users=1,
            pathloss_db=0.0,
            noise_power_server=0.0,
            noise_power_user=0.1,
        )
        chan = ChannelRealization(
            uplink=np.array([[1.0 + 0j]]), downlink=np.array([[1.0 + 0j]])
        )
        ws = build_workspace(
            np.array([1.0 + 0j]),
            np.array([1.0 + 0j]),
            chan,
            AggregationWeights(np.array([1.0])),
            cfg,
        )
        u = update_u(ws, np.zeros(1, dtype=complex), rho=1.0)
        np.testing.assert_allclose(u, [[0.5 + 0j]], rtol=1e-12)

    def test_finite_difference_stationarity(self):
        rng = substream(51, "u-stationary")
        cfg, chan, _, r, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        rho = 0.7
        u = update_u(ws, f, rho)
        prox = rho / 2

        def objective(k, u_k):
            fit = dense_u_step(ws, k, rho)[2].conj() @ u_k - w.alpha
            u_mat = u_k.reshape((3, 3), order="F")
            quad = ws.kron_scale[k] * np.sum(np.abs(ws.downlink[k].conj() @ u_mat) ** 2)
            return (
                float(np.sum(np.abs(fit) ** 2))
                + quad
                + prox * float(np.sum(np.abs(u_k - f) ** 2))
            )

        h = 1e-6
        for k in range(2):
            scale = max(1.0, objective(k, u[k]))
            for idx in (0, 4, 8):
                for delta in (h, 1j * h):
                    plus = u[k].copy()
                    plus[idx] += delta
                    minus = u[k].copy()
                    minus[idx] -= delta
                    deriv = (objective(k, plus) - objective(k, minus)) / (2 * h)
                    assert abs(deriv) <= 1e-6 * scale

    def test_matches_dense_oracle(self):
        rng = substream(52, "u-dense")
        cfg, chan, _, r, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        rho = 1.3
        u = update_u(ws, f, rho)
        for k in range(2):
            dense, data_rhs, _ = dense_u_step(ws, k, rho)
            expected = np.linalg.solve(dense, data_rhs + (rho / 2) * f)
            np.testing.assert_allclose(u[k], expected, rtol=1e-10)


def update_f(u_all, z):
    """Consensus step over explicit copies: midpoint of the user average and
    the projected point (``inner_pam`` takes it on the factored copies)."""
    return 0.5 * (u_all.mean(axis=0) + z)


def penalized_objective(u_all, f, z, workspace, rho):
    """Inner-loop merit over explicit copies: worst-user data cost plus the
    consensus penalties."""
    n = workspace.downlink.shape[1]
    # u_mats[k] is u_k as an N x N matrix (column-major vec convention).
    u_mats = u_all.reshape((workspace.n_users, n, n), order="F")
    g_u = (workspace.downlink.conj()[:, None, :] @ u_mats)[:, 0, :]
    fit = workspace.r[:, None] * (g_u @ workspace.uplink.T) * workspace.t[None, :] - workspace.alpha
    data = np.sum(np.abs(fit) ** 2, axis=1) + workspace.kron_scale * np.sum(np.abs(g_u) ** 2, axis=1)
    spread = np.mean(np.sum(np.abs(u_all - f[None, :]) ** 2, axis=1))
    return float(np.max(data) + rho * (spread + np.sum(np.abs(z - f) ** 2)))


class TestUpdateFZ:
    def test_midpoint_example(self):
        f = update_f(np.array([[2.0 + 0j]]), np.array([0.0 + 0j]))
        np.testing.assert_allclose(f, [1.0 + 0j])

    def test_fixed_point(self):
        rng = substream(54, "f-fixed")
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = update_f(np.tile(v, (3, 1)), v)
        np.testing.assert_allclose(f, v, rtol=1e-15)

    def test_convex_quadratic_oracle(self):
        from scipy.optimize import minimize

        rng = substream(55, "f-oracle")
        u_all = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = 1.7
        got = update_f(u_all, z)

        def penalty(x):
            f = x[:4] + 1j * x[4:]
            spread = np.mean(np.sum(np.abs(u_all - f[None, :]) ** 2, axis=1))
            return rho * (spread + np.sum(np.abs(z - f) ** 2))

        res = minimize(penalty, np.zeros(8), method="BFGS", tol=1e-14)
        oracle = res.x[:4] + 1j * res.x[4:]
        np.testing.assert_allclose(got, oracle, atol=1e-6)
        # and the closed form is exact where BFGS is approximate
        assert penalty(np.concatenate([got.real, got.imag])) <= res.fun + 1e-12


class TestPenalizedObjective:
    def test_zero_case(self):
        rng = substream(57, "pen-zero")
        cfg, chan, _, _, t, w = _random_instance(rng, 2, 2)
        ws = build_workspace(np.zeros(2, dtype=complex), t, chan, w, cfg)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        out = penalized_objective(np.tile(v, (2, 1)), v, v, ws, rho=1.0)
        # A zero equalizer fits nothing, so each user's data cost is sum(alpha^2).
        np.testing.assert_allclose(out, np.sum(w.alpha**2), rtol=1e-12)

    def test_penalty_only(self):
        # A zero equalizer cannot zero the data term (the alpha residual
        # survives), so engineer a unit chain whose copy fits exactly: the
        # objective then reduces to the penalty alone.
        cfg = RadioConfig(
            n_antennas=1,
            n_users=1,
            pathloss_db=0.0,
            noise_power_server=0.0,
            noise_power_user=0.1,
        )
        chan = ChannelRealization(
            uplink=np.array([[1.0 + 0j]]), downlink=np.array([[1.0 + 0j]])
        )
        ws = build_workspace(
            np.array([1.0 + 0j]),
            np.array([1.0 + 0j]),
            chan,
            AggregationWeights(np.array([1.0])),
            cfg,
        )
        # u = f = (1,): fit = |1*1 - 1|^2 = 0, G = 0 -> data term 0.
        u = np.array([[1.0 + 0j]])
        f = np.array([1.0 + 0j])
        z = np.array([0.0 + 0j])  # ||z - f||^2 = 1
        out = penalized_objective(u, f, z, ws, rho=2.0)
        np.testing.assert_allclose(out, 2.0, rtol=1e-12)

    def test_independent_recompute(self):
        rng = substream(58, "pen-brute")
        cfg, chan, _, r, t, w = _random_instance(rng, 3, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        u_all = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        rho = 0.9
        out = penalized_objective(u_all, f, z, ws, rho)
        data = []
        for k in range(2):
            rank_one = dense_u_step(ws, k, rho)[2]
            fit = sum(abs(np.vdot(rank_one[j], u_all[k]) - w.alpha[j]) ** 2 for j in range(2))
            u_mat = u_all[k].reshape((3, 3), order="F")
            quad = ws.kron_scale[k] * np.sum(
                np.abs(np.conj(ws.downlink[k]) @ u_mat) ** 2
            )
            data.append(fit + quad)
        spread = np.mean([np.sum(np.abs(u_all[k] - f) ** 2) for k in range(2)])
        expected = max(data) + rho * (spread + np.sum(np.abs(z - f) ** 2))
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestInnerPam:
    def test_zero_data_fixed_point(self):
        # With a zero equalizer the data terms reduce to the constant
        # sum(alpha^2); the variable part is purely the penalties, and a
        # unit-modulus start is a fixed point reached in one cycle.
        rng = substream(59, "inner-zero")
        cfg, chan, _, _, t, w = _random_instance(rng, 2, 2)
        ws = build_workspace(np.zeros(2, dtype=complex), t, chan, w, cfg)
        f_init = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
        f_new, trajectory, state = inner_pam(ws, f_init, rho=1.0, m_inner=3)
        np.testing.assert_allclose(f_new, f_init, rtol=1e-12)
        np.testing.assert_allclose(
            trajectory, np.full(3, np.sum(w.alpha**2)), rtol=1e-12
        )
        np.testing.assert_allclose(state.z, vec_of_matrix(f_init), rtol=1e-12)

    def test_monotone_default_mode(self):
        rng = substream(60, "inner-mono")
        for trial in range(20):
            cfg, chan, f0, r, t, w = _random_instance(rng, 4, 3, 0.05, 0.05)
            r = r / np.abs(r)
            t = t / np.abs(t)
            ws = build_workspace(r, t, chan, w, cfg)
            for rho in (0.1, 1.0, 10.0):
                _, trajectory, _ = inner_pam(ws, f0, rho=rho, m_inner=50)
                rises = np.diff(trajectory)
                assert np.all(rises <= 1e-9), (
                    f"trial {trial} rho {rho}: worst rise {rises.max():.3e}"
                )

    def test_output_unit_modulus(self):
        rng = substream(62, "inner-modulus")
        cfg, chan, f0, r, t, w = _random_instance(rng, 3, 2)
        f_new, _, state = inner_pam(ws := build_workspace(r, t, chan, w, cfg), f0, 1.0, 10)
        np.testing.assert_allclose(np.abs(f_new), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(state.z), 1.0, atol=1e-12)
        assert ws.n_users == 2

    def test_mode_validation(self):
        rng = substream(63, "inner-modes")
        cfg, chan, f0, r, t, w = _random_instance(rng, 2, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        with pytest.raises(ValueError):
            inner_pam(ws, np.ones((3, 3), dtype=complex), 1.0, 5)


def _refined_solve(matrix, rhs):
    """Dense solve of an extended-precision system: a double-precision solve
    refined against residuals taken in the system's own precision."""
    low = matrix.astype(complex)
    x = np.linalg.solve(low, rhs.astype(complex)).astype(matrix.dtype)
    for _ in range(3):
        x += np.linalg.solve(low, (rhs - matrix @ x).astype(complex))
    return x.astype(complex)


def _reference_inner_pam(ws, f_matrix_init, rho, m_inner):
    """The inner loop written out densely: every user's N^2 x N^2 u-step
    system assembled in extended precision and solved on its own each cycle,
    then the consensus and merit over the explicit copies.  A plain double
    solve of these systems errs by their condition number (up to ~1e5 here)
    times eps, far more than the rank-one step does."""
    n = f_matrix_init.shape[0]
    ridge = rho / ws.n_users
    systems = [dense_u_step(ws, k, rho, np.clongdouble) for k in range(ws.n_users)]
    f = vec_of_matrix(f_matrix_init).astype(complex)
    z = f.copy()
    trajectory = np.empty(m_inner)
    for cycle in range(m_inner):
        u_all = np.stack([_refined_solve(m, data + ridge * f) for m, data, _ in systems])
        f = update_f(u_all, z)
        z = phase_project(f)
        trajectory[cycle] = penalized_objective(u_all, f, z, ws, rho)
    return mat_of_vector(z, n, n), trajectory, u_all, f, z


def _ill_conditioned_workspace():
    """Two users on two nearly collinear uplinks with a large equalizer and
    no relay noise: with a tiny rho every capacitance I + beta_k A^H A has a
    condition number of about 5e14."""
    cfg = RadioConfig(
        n_antennas=2, n_users=2, pathloss_db=0.0, noise_power_server=0.0, noise_power_user=0.1
    )
    chan = ChannelRealization(
        uplink=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]], dtype=complex),
        downlink=np.array([[1.0, 0.5j], [0.3, 1.0]], dtype=complex),
    )
    r = np.full(2, 1e4, dtype=complex)
    weights = AggregationWeights(np.array([0.5, 0.5]))
    return build_workspace(r, np.ones(2, dtype=complex), chan, weights, cfg)


class TestFactoredUStep:
    @pytest.mark.parametrize(
        "n, k, noise_server, zero_user",
        [
            (1, 1, 0.01, False),
            (3, 2, 0.01, False),
            (8, 3, 0.01, False),
            (16, 8, 0.01, False),
            (4, 3, 0.0, False),
            (4, 3, 0.01, True),
            (3, 8, 0.01, False),
            (8, 13, 0.01, False),
            (1, 1, 0.0, False),
            (8, 3, 1e-11, False),
            (3, 2, 0.01, "all"),
        ],
    )
    def test_matches_per_user_loop(self, n, k, noise_server, zero_user):
        # The rank-one u-step, the factored consensus and the factored merit
        # agree with the dense per-user loop to rounding: over 8 cycles every
        # output stays within 1e-12 of the reference's largest entry (the
        # merit within 1e-12 of its own size).
        rng = substream(66, f"factored-{n}-{k}-{noise_server}-{zero_user}")
        cfg, chan, f0, r, t, w = _random_instance(rng, n, k, noise_server, 0.02)
        if zero_user == "all":
            r[:] = 0.0
        elif zero_user:
            r[1] = 0.0
        ws = build_workspace(r, t, chan, w, cfg)
        rho = float(rng.uniform(0.2, 3.0))
        f_new, trajectory, state = inner_pam(ws, f0, rho, 8)
        expected = _reference_inner_pam(ws, f0, rho, 8)
        for got, want in zip((f_new, trajectory, state.u_all, state.f, state.z), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_factor_built_once_per_call(self, monkeypatch):
        # Structural guard, no timing: the u-step's one eigendecomposition
        # (of the K x K matrix shared by every user's capacitance) runs once
        # per inner_pam call, not once per cycle or per user.
        rng = substream(67, "factored-once")
        cfg, chan, f0, r, t, w = _random_instance(rng, 3, 4)
        ws = build_workspace(r, t, chan, w, cfg)
        decomposed = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            decomposed.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        inner_pam(ws, f0, 1.0, 10)
        assert decomposed == [(4, 4)]

    def test_ill_conditioned_propagates(self):
        ws = _ill_conditioned_workspace()
        rho = 2e-6
        with pytest.raises(IllConditionedError) as from_u:
            update_u(ws, np.ones(4, dtype=complex), rho)
        with pytest.raises(IllConditionedError) as from_inner:
            inner_pam(ws, np.ones((2, 2), dtype=complex), rho, 5)
        assert from_u.value.condition_estimate > 1e12
        assert from_inner.value.condition_estimate == from_u.value.condition_estimate
        assert str(from_inner.value) == str(from_u.value)
        # The same links are well conditioned at a moderate penalty.
        assert np.all(np.isfinite(update_u(ws, np.ones(4, dtype=complex), 1e4)))

    def test_memory_is_linear_in_the_copies(self):
        # Structural guard, no timing: one inner_pam call at N=32, K=16 peaks
        # under 2 MB, the size of a few (K, N^2) complex arrays (256 KiB
        # each); a (K, K, N^2) complex array alone takes 4 MiB.
        rng = substream(68, "factored-memory")
        cfg, chan, f0, r, t, w = _random_instance(rng, 32, 16)
        ws = build_workspace(r, t, chan, w, cfg)
        inner_pam(ws, f0, 1.0, 3)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            inner_pam(ws, f0, 1.0, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, f"inner_pam peaked at {peak} bytes"


class TestRunPam:
    def test_single_link_reaches_zero(self):
        cfg = RadioConfig(
            n_antennas=1,
            n_users=1,
            pathloss_db=0.0,
            noise_power_server=0.0,
            noise_power_user=0.0,
        )
        chan = ChannelRealization(
            uplink=np.array([[0.8 - 0.4j]]), downlink=np.array([[1.2 + 0.5j]])
        )
        w = AggregationWeights(np.array([1.0]))
        sol = run_pam(chan, w, cfg, PamConfig(n_outer=5, m_inner=20, seed=3))
        assert sol.objective <= 1e-10

    def test_output_invariants(self):
        rng = substream(65, "pam-invariants")
        cfg = RadioConfig(
            n_antennas=3,
            n_users=2,
            pathloss_db=0.0,
            noise_power_server=0.01,
            noise_power_user=0.01,
        )
        chan = sample_channels(cfg, 11)
        w = AggregationWeights(rng.uniform(1, 4, 2))
        sol = run_pam(chan, w, cfg, PamConfig(n_outer=4, m_inner=10, seed=1))
        assert isinstance(sol, Solution)
        np.testing.assert_allclose(np.abs(sol.f_matrix), 1.0, atol=1e-12)
        assert np.all(np.abs(sol.t_all) ** 2 <= cfg.power_budget + 1e-9)
        assert sol.objective == pytest.approx(
            objective_minmax(sol.f_matrix, sol.r_all, sol.t_all, chan, w, cfg), rel=1e-12
        )
        assert sol.objective <= sol.outer_objectives[0] + 1e-12
        assert len(sol.inner_trajectories) == 4
        assert len(sol.t_gaps) == 4 and max(sol.t_gaps) <= T_GAP_TOL
        assert sol.mode == "pam"

    def test_block_updates_never_increase(self):
        rng = substream(66, "pam-blocks")
        cfg = RadioConfig(
            n_antennas=3,
            n_users=3,
            pathloss_db=0.0,
            noise_power_server=0.01,
            noise_power_user=0.01,
        )
        for seed in range(3):
            chan = sample_channels(cfg, 100 + seed)
            w = AggregationWeights(rng.uniform(1, 4, 3))
            sol = run_pam(chan, w, cfg, PamConfig(n_outer=5, m_inner=15, seed=seed))
            for before, after in sol.r_update_pairs:
                assert after <= before + 1e-9
            for before, after in sol.t_update_pairs:
                assert after <= before + 1e-9

    def test_deterministic(self):
        cfg = RadioConfig(
            n_antennas=2,
            n_users=2,
            pathloss_db=0.0,
            noise_power_server=0.01,
            noise_power_user=0.01,
        )
        chan = sample_channels(cfg, 4)
        w = AggregationWeights(np.array([1.0, 2.0]))
        pc = PamConfig(n_outer=3, m_inner=8, seed=9)
        a = run_pam(chan, w, cfg, pc)
        b = run_pam(chan, w, cfg, pc)
        np.testing.assert_array_equal(a.f_matrix, b.f_matrix)
        np.testing.assert_array_equal(a.outer_objectives, b.outer_objectives)


class TestBaseline:
    def test_identity_relay_kept(self):
        cfg = RadioConfig(
            n_antennas=3,
            n_users=2,
            pathloss_db=0.0,
            noise_power_server=0.01,
            noise_power_user=0.01,
        )
        chan = sample_channels(cfg, 21)
        w = AggregationWeights(np.array([1.0, 2.0]))
        sol = baseline_optimize(chan, w, cfg, PamConfig(n_outer=5, m_inner=5))
        np.testing.assert_array_equal(sol.f_matrix, np.eye(3, dtype=complex))
        assert sol.mode == "baseline"
        assert np.all(np.abs(sol.t_all) ** 2 <= cfg.power_budget + 1e-9)
        assert sol.objective <= sol.outer_objectives[0] + 1e-12

    def test_pam_beats_baseline_small(self):
        # direction check at desk scale; the full reference-scale comparison
        # lives in the acceptance suite.
        cfg = RadioConfig(
            n_antennas=4,
            n_users=2,
            pathloss_db=-10.0,
            noise_power_server=1e-4,
            noise_power_user=1e-4,
        )
        w = AggregationWeights(np.array([2.0, 3.0]))
        wins = 0
        for seed in range(5):
            chan = sample_channels(cfg, seed)
            pc = PamConfig(n_outer=6, m_inner=15, seed=seed)
            pam = run_pam(chan, w, cfg, pc)
            base = baseline_optimize(chan, w, cfg, pc)
            wins += pam.objective < base.objective
        assert wins >= 4
