"""Tests for the alternating min-max optimizer and its inner penalty loop."""

import hashlib
import tracemalloc
from dataclasses import fields
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from airfl import pam as pam_module
from airfl.aircomp import AggregationWeights, _bracket_rows
from airfl.channel import ChannelRealization, RadioConfig, sample_channels, substream
from airfl import checks
from airfl.checks import dense_u_step, update_u
from airfl.linalg import IllConditionedError, NumericError, mat_of_vector, phase_project, vec_of_matrix
from airfl.pam import (
    T_GAP_TOL,
    PamConfig,
    Solution,
    baseline_optimize,
    build_workspace,
    cycle_merit,
    inner_cycles,
    inner_pam,
    objective_minmax,
    run_pam,
    update_r,
    update_t,
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
        assert [f.name for f in fields(PamConfig)] == ["rho", "n_outer", "m_inner"]

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
        with pytest.raises(NumericError, match="equalizer denominator of user 0 is zero"):
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


def _noise_offsets(f, r, chan, cfg):
    """Each user's noise terms n_k = noise_server |r_k|^2 ||g_k^H F||^2 + noise_user_k |r_k|^2."""
    row_sq = np.sum(np.abs(chan.downlink.conj() @ f) ** 2, axis=1)
    return np.abs(r) ** 2 * (cfg.noise_power_server * row_sq + cfg.noise_power_user)


def _project_disc(t, cap):
    mag = np.abs(t)
    return np.where(mag > cap, t * cap / np.maximum(mag, cap), t)


def _subgradient_reference(f, r, chan, w, cfg, t_init, iters=2000):
    """The earlier transmit solve on the worst-user bracket: per-user
    least-squares seeds, then ``iters`` projected-subgradient steps of
    length 1/(L sqrt(it + 1)) on the user whose misfit plus noise terms is
    largest, returning the best point evaluated."""
    coeff, alpha = _transmit_coeff(f, r, chan), w.alpha
    cap = np.sqrt(cfg.power_budget)
    offsets = _noise_offsets(f, r, chan, cfg)
    candidates = [t_init]
    for row in coeff:
        candidates.append(_project_disc(alpha * row.conj() / np.abs(row) ** 2, cap))
    values = [objective_minmax(f, r, t, chan, w, cfg) for t in candidates]
    best_t = x = candidates[int(np.argmin(values))]
    best_val = min(values)
    step0 = 1.0 / float(np.max(np.abs(coeff) ** 2))
    for it in range(iters):
        resid = coeff * x[None, :] - alpha[None, :]
        worst = int(np.argmax(np.sum(np.abs(resid) ** 2, axis=1) + offsets))
        x = _project_disc(x - step0 / np.sqrt(it + 1.0) * coeff[worst].conj() * resid[worst], cap)
        val = objective_minmax(f, r, x, chan, w, cfg)
        if val < best_val:
            best_t, best_val = x, val
    return best_t


def _sweep_links():
    """The 150 random links of the transmit-solve sweep, as
    ``(cfg, chan, f, r, t0, w)``: N 1-11, K 1-16, pathloss 0/-40/-100 dB,
    power 1e-3/1/100, closed-form equalizers with one set to zero in 20% of
    them, and a random full-power t0."""
    rng = substream(55, "t-sweep")
    links = []
    for _ in range(150):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 17))
        pathloss, budget = float(rng.choice([0.0, -40.0, -100.0])), float(rng.choice([1e-3, 1.0, 100.0]))
        cfg = RadioConfig(n_antennas=n, n_users=k, pathloss_db=pathloss, power_budget=budget)
        chan = sample_channels(cfg, int(rng.integers(1 << 30)))
        f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
        w = AggregationWeights(rng.uniform(1.0, 5.0, k))
        t0 = np.sqrt(budget) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        r = update_r(f, t0, chan, w, cfg)
        if rng.uniform() < 0.2:
            r[int(rng.integers(k))] = 0.0
        links.append((cfg, chan, f, r, t0, w))
    return links


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
        t, gap, _, _, _ = update_t(f, r, chan, AggregationWeights(np.array([1.0])), cfg)
        np.testing.assert_allclose(t, [0.5 + 0j], atol=1e-9)
        assert gap == 0.0

    def test_radial_clip(self):
        cfg, chan, f, r = self._single_user(0.5)
        t, gap, _, _, _ = update_t(f, r, chan, AggregationWeights(np.array([1.0])), cfg)
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
            t, gap, _, _, _ = update_t(f, r, chan, w, cfg, t_init=_project_disc(t0, cap))
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
            offsets = _noise_offsets(f, r, chan, cfg)
            t = update_t(f, r, chan, w, cfg)[0]
            got = objective_minmax(f, r, t, chan, w, cfg)
            best = np.inf
            for ta in grid_pts:
                vals = np.abs(coeff[:, 0] * ta - w.alpha[0]) ** 2 + offsets
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
            cap = np.sqrt(cfg.power_budget)
            t, gap, _, _, _ = update_t(f, r, chan, w, cfg)
            assert 0.0 <= gap <= T_GAP_TOL
            assert np.all(np.abs(t) <= cap * (1 + 1e-12))
            floor = (1.0 - gap) * objective_minmax(f, r, t, chan, w, cfg)
            others = [_project_disc(t0, cap), _subgradient_reference(f, r, chan, w, cfg, t0, 200)]
            others += list(cap * np.exp(1j * rng.uniform(0, 2 * np.pi, (20, k))))
            for other in others:
                assert objective_minmax(f, r, other, chan, w, cfg) >= floor * (1 - 1e-12)

    def test_zero_equalizer_user_is_certified(self):
        # A user with r_k = 0 has the constant bracket sum(alpha^2) (its
        # noise terms vanish with r_k), which the dual reaches only at its
        # simplex vertex; the vertex bound closes the gap whenever the other
        # users can be brought below it.
        rng = substream(51, "t-zero-row")
        for _ in range(5):
            cfg, chan, f, r, _, w = _random_instance(rng, 6, 8)
            r[3] = 0.0
            t, gap, _, _, _ = update_t(f, r, chan, w, cfg)
            assert gap <= T_GAP_TOL
            assert objective_minmax(f, r, t, chan, w, cfg) >= np.sum(w.alpha**2)

    def test_rounding_noise_instance_is_certified(self):
        # A transmit solve met in a train_ref simulate job (3 users with
        # nearly equal gains, misfits near 2e-7), where the dual's rise per
        # step soon falls below the rounding of its values: projected-
        # gradient ascent stalled there at a gap of 1.07e-6, while the damped
        # Newton steps certify it.  With F = G = I and r = 1 the coefficients
        # c_kj are uplink[j][k] exactly.
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
        t, gap, _, evals, _ = update_t(f, r, chan, w, cfg, t_init=t_init)
        assert gap <= T_GAP_TOL and evals <= 10
        floor = (1.0 - gap) * objective_minmax(f, r, t, chan, w, cfg)
        assert objective_minmax(f, r, t_init, chan, w, cfg) >= floor

    def test_dual_gradient_and_hessian_match_finite_differences(self):
        # The dual D(lam) = sum_k lam_k rows_k(t(lam)) is smooth away from
        # the disc's edge, with gradient rows (Danskin) and the closed-form
        # Hessian; central differences over every lam_k agree with both, at
        # points with clipped and unclipped users alike.
        rng = substream(52, "t-dual-fd")
        kinds = set()
        for budget in (0.05, 1.0, 20.0):
            for _ in range(4):
                n, k = int(rng.integers(2, 6)), int(rng.integers(2, 7))
                cfg, chan, f, r, t0, w = _random_instance(rng, n, k)
                coeff = _transmit_coeff(f, r, chan)
                coeff_sq = np.abs(coeff) ** 2
                noise = np.stack([np.zeros(k), _noise_offsets(f, r, chan, cfg)])
                cap = np.sqrt(budget)
                lam = rng.uniform(0.2, 1.0, k)
                lam /= lam.sum()

                def dual_at(weights):
                    t, clipped = pam_module._weighted_minimizer(weights, coeff, coeff_sq, w.alpha, cap, t0)
                    rows = _bracket_rows(coeff, w.alpha, t, noise)
                    return float(weights @ rows), rows, t, clipped

                _, rows, t, clipped = dual_at(lam)
                # Stay inside one piece of the dual: no user within 1e-3 of the edge.
                unclipped = w.alpha * np.conj(lam @ coeff) / (lam @ coeff_sq)
                if np.any(np.abs(np.abs(unclipped) / cap - 1.0) < 1e-3):
                    continue
                kinds.update(clipped.tolist())
                hess = pam_module._dual_hessian(lam, t, clipped, coeff, coeff_sq, w.alpha, cap)
                h = 1e-6
                for j in range(k):
                    e = np.zeros(k)
                    e[j] = h
                    plus, minus = dual_at(lam + e), dual_at(lam - e)
                    scale = np.max(np.abs(rows))
                    assert abs((plus[0] - minus[0]) / (2 * h) - rows[j]) <= 1e-8 * scale
                    column = (plus[1] - minus[1]) / (2 * h)
                    np.testing.assert_allclose(hess[:, j], column, rtol=0, atol=1e-7 * np.max(np.abs(hess)))
                np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-14 * np.max(np.abs(hess)))
                np.testing.assert_allclose(hess @ lam, 0.0, atol=1e-12 * np.max(np.abs(hess)))
                assert np.max(np.linalg.eigvalsh(hess)) <= 1e-12 * np.max(np.abs(hess))
        assert kinds == {False, True}

    @pytest.mark.parametrize("n, k", [(8, 13), (3, 8), (4, 16), (9, 7), (11, 16)])
    def test_more_users_than_antennas_is_certified(self, n, k):
        # Instances with more users than antennas, where plain projected
        # gradient needed up to 1,573 dual evaluations (N=8, K=13): every
        # solve certifies its gap within a few dozen evaluations, also with
        # a user whose equalizer is zero.
        rng = substream(53, f"t-wide-{n}-{k}")
        links = [(0.0, 1.0), (0.0, 100.0), (0.0, 1e-3), (-40.0, 1.0), (-40.0, 100.0), (-100.0, 100.0), (0.0, 1.0)]
        for trial, (pathloss, budget) in enumerate(links):
            cfg = RadioConfig(n_antennas=n, n_users=k, pathloss_db=pathloss, power_budget=budget)
            chan = sample_channels(cfg, int(rng.integers(1 << 30)))
            f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
            w = AggregationWeights(rng.uniform(1.0, 5.0, k))
            t0 = np.sqrt(budget) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
            r = update_r(f, t0, chan, w, cfg)
            if trial == len(links) - 1:
                r[int(rng.integers(k))] = 0.0
            t, gap, _, evals, _ = update_t(f, r, chan, w, cfg, t_init=t0)
            assert gap <= T_GAP_TOL, f"trial {trial}: gap {gap:.3e}"
            assert evals <= 60, f"trial {trial}: {evals} dual evaluations"
            assert objective_minmax(f, r, t, chan, w, cfg) <= objective_minmax(f, r, t0, chan, w, cfg)

    def test_random_sweep_is_certified(self):
        # 150 random links: N 1-11, K 1-16, pathloss 0/-40/-100 dB, power
        # 1e-3/1/100, closed-form equalizers with one set to zero in 20% of
        # them, and a random full-power t.  Every solve is certified within
        # 60 dual evaluations, far short of T_MAX_ITERS, and returns the value
        # objective_minmax gives its t, bit for bit.  The sweep covers the
        # all-clipped corner, where full power reaches every receiver at under
        # 3e-4 of its weight (|c_kj| sqrt(P) <= 3e-4 alpha_j): there the dual's
        # curvature changes over a tiny region, so the undamped Newton model
        # often fails, and damping by a fixed schedule alone took 158
        # evaluations on one of these links.
        corner = 0
        for trial, (cfg, chan, f, r, t0, w) in enumerate(_sweep_links()):
            t, gap, value, evals, _ = update_t(f, r, chan, w, cfg, t_init=t0)
            assert gap <= T_GAP_TOL, f"trial {trial}: gap {gap:.3e}"
            assert evals <= 60, f"trial {trial}: {evals} dual evaluations"
            assert value == objective_minmax(f, r, t, chan, w, cfg), f"trial {trial}: value {value!r}"
            clipped = np.all(np.abs(_transmit_coeff(f, r, chan)) * np.sqrt(cfg.power_budget) <= 3e-4 * w.alpha)
            corner += bool(clipped) and evals > 1
        assert corner >= 5

    def test_cold_solve_is_unchanged_by_the_warm_start(self):
        # Without lam_init the solve starts at uniform weights as it did
        # before it took one: on the sweep's 150 links its t, gap, value and
        # evaluation count hash to the digest recorded before lam_init
        # existed (916 evaluations in all).
        digest = hashlib.sha256()
        total = 0
        for cfg, chan, f, r, t0, w in _sweep_links():
            t, gap, value, evals, _ = update_t(f, r, chan, w, cfg, t_init=t0)
            digest.update(t.tobytes())
            digest.update(np.array([gap, value]).tobytes())
            digest.update(np.int64(evals).tobytes())
            total += evals
        assert total == 916
        assert digest.hexdigest() == "2fcb3618f89b4739785338f3effaba5acae6939a192b06f7160eba7cd1bdabf2"

    def test_restart_from_returned_weights_certifies_at_once(self):
        # The returned weights lie on the simplex over the users whose
        # coefficient row is not zero and are 0 for the others (all 0 when
        # every row is); a solve restarted from them and the returned t on
        # the same link, as the outer loop restarts it, certifies within 2
        # dual evaluations.
        zero_rows = 0
        for trial, (cfg, chan, f, r, t0, w) in enumerate(_sweep_links()):
            t, _, _, _, lam = update_t(f, r, chan, w, cfg, t_init=t0)
            heard = np.any(_transmit_coeff(f, r, chan) != 0, axis=1)
            zero_rows += int(np.sum(~heard))
            assert lam.shape == (cfg.n_users,) and np.all(lam >= 0.0)
            assert np.all(lam[~heard] == 0.0)
            assert abs(np.sum(lam) - np.any(heard)) <= 1e-12, f"trial {trial}: sum {np.sum(lam)!r}"
            again = update_t(f, r, chan, w, cfg, t_init=t, lam_init=lam)
            _, gap, _, evals, lam_again = again
            assert gap <= T_GAP_TOL and evals <= 2, f"trial {trial}: gap {gap:.3e}, {evals} evaluations"
            assert np.all(lam_again[~heard] == 0.0)
            # lam_init is restricted to the heard users and renormalized:
            # doubling it and adding mass on the others starts the same solve.
            scaled = update_t(f, r, chan, w, cfg, t_init=t, lam_init=2.0 * lam + 5.0 * ~heard)
            np.testing.assert_array_equal(scaled[0], again[0])
            assert scaled[1:4] == again[1:4]
            np.testing.assert_array_equal(scaled[4], again[4])
        assert zero_rows >= 20

    def test_weights_without_mass_on_heard_users_start_cold(self):
        # A lam_init that puts no mass on any user with a nonzero coefficient
        # row (all zero, or all on zero-equalizer users), or that has a
        # negative or non-finite entry, is ignored: the solve equals the
        # cold one bit for bit.  On links with a zero equalizer, mass on that
        # user alone is such a start.
        muted = 0
        for cfg, chan, f, r, t0, w in _sweep_links():
            k = cfg.n_users
            cold = update_t(f, r, chan, w, cfg, t_init=t0)
            starts = [np.zeros(k), np.full(k, -1.0), np.full(k, np.nan), np.full(k, np.inf)]
            silent = np.flatnonzero(~np.any(_transmit_coeff(f, r, chan) != 0, axis=1))
            if silent.size:
                muted += 1
                starts.append(np.eye(k)[silent[0]] * 3.0)
            for lam_init in starts:
                warm = update_t(f, r, chan, w, cfg, t_init=t0, lam_init=lam_init)
                np.testing.assert_array_equal(warm[0], cold[0])
                assert warm[1:4] == cold[1:4]
                np.testing.assert_array_equal(warm[4], cold[4])
        assert muted >= 20
        with pytest.raises(ValueError, match="one entry per user"):
            update_t(f, r, chan, w, cfg, t_init=t0, lam_init=np.ones(cfg.n_users + 1))

    def test_not_worse_than_subgradient(self):
        rng = substream(50, "t-vs-subgradient")
        cfg, chan, f, r, _, w = _random_instance(rng, 8, 3)
        t_init = np.full(3, np.sqrt(cfg.power_budget), dtype=complex)
        t = update_t(f, r, chan, w, cfg, t_init=t_init)[0]
        reference = _subgradient_reference(f, r, chan, w, cfg, t_init)
        assert objective_minmax(f, r, t, chan, w, cfg) <= objective_minmax(f, r, reference, chan, w, cfg)

    def test_feasible_and_never_increases(self):
        rng = substream(46, "t-noninc")
        for _ in range(20):
            cfg, chan, f, r, t0, w = _random_instance(rng, 3, 3)
            t0 = t0 / np.maximum(1.0, np.abs(t0) / np.sqrt(cfg.power_budget))
            before = objective_minmax(f, r, t0, chan, w, cfg)
            t1 = update_t(f, r, chan, w, cfg, t_init=t0)[0]
            after = objective_minmax(f, r, t1, chan, w, cfg)
            assert np.all(np.abs(t1) ** 2 <= cfg.power_budget + 1e-9)
            assert after <= before + 1e-12

    def test_unequal_noise_never_raises_the_worst_user_bracket(self):
        # The noise terms n_k do not depend on t but differ from user to
        # user, so they change which user is worst: a t-step that minimized
        # the misfits alone raised objective_minmax on 4 of these 120 steps,
        # by up to 4.8%.  Each link alternates r and t three times, as the
        # outer loop does, with per-user noise lists drawn from
        # {0, 1e-11, 1e-3, 1}.
        levels = [0.0, 1e-11, 1e-3, 1.0]
        rng = substream(56, "t-noise-sweep")
        for trial in range(40):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 9))
            cfg = RadioConfig(
                n_antennas=n,
                n_users=k,
                pathloss_db=0.0,
                noise_power_server=float(rng.choice(levels)),
                noise_power_user=[float(v) for v in rng.choice(levels, k)],
            )
            chan = sample_channels(cfg, int(rng.integers(1 << 30)))
            f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
            w = AggregationWeights(rng.uniform(1.0, 5.0, k))
            t = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
            for step in range(3):
                r = update_r(f, t, chan, w, cfg)
                before = objective_minmax(f, r, t, chan, w, cfg)
                t, gap, _, _, _ = update_t(f, r, chan, w, cfg, t_init=t)
                assert gap <= T_GAP_TOL, f"trial {trial} step {step}: gap {gap:.3e}"
                assert objective_minmax(f, r, t, chan, w, cfg) <= before, f"trial {trial} step {step}"

    def test_zero_coefficients_returns_input(self):
        # Every coefficient is zero through a zero equalizer, and through a
        # zero uplink whose relay and local noise still reach the equalizer:
        # the solve returns t_init at once, with its exact worst-user bracket.
        cfg = RadioConfig(n_antennas=2, n_users=2, pathloss_db=0.0, noise_power_server=0.3, noise_power_user=0.1)
        w = AggregationWeights(np.array([1.0, 3.0]))
        t_init = np.array([0.3 + 0.1j, -0.2j])
        links = [
            (np.ones((2, 2), dtype=complex), np.zeros(2, dtype=complex)),
            (np.zeros((2, 2), dtype=complex), np.array([0.7 - 0.2j, 1.5j])),
        ]
        for uplink, r in links:
            chan = ChannelRealization(uplink=uplink, downlink=np.array([[1.0, 0.5j], [0.3, 1.0]], dtype=complex))
            f = np.array([[1.0, 1j], [-1j, 1.0]])
            t, gap, value, evals, lam = update_t(f, r, chan, w, cfg, t_init=t_init, lam_init=[0.2, 0.8])
            np.testing.assert_array_equal(t, t_init)
            np.testing.assert_array_equal(lam, np.zeros(2))
            assert gap == 0.0 and evals == 0
            assert value == objective_minmax(f, r, t_init, chan, w, cfg)
        assert value > np.sum(w.alpha**2)


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


def _cycles(ws, f_init, rho, m_inner):
    """The first m_inner cycles of the inner loop."""
    return list(islice(inner_cycles(ws, f_init, rho), m_inner))


def _trajectory(ws, cycles, rho):
    """The merit after each of ``cycles``."""
    return np.array([cycle_merit(ws, cycle, rho) for cycle in cycles])


class TestInnerPam:
    def test_zero_data_fixed_point(self):
        # With a zero equalizer the data terms reduce to the constant
        # sum(alpha^2); the variable part is purely the penalties, and a
        # unit-modulus start is a fixed point reached in one cycle.
        rng = substream(59, "inner-zero")
        cfg, chan, _, _, t, w = _random_instance(rng, 2, 2)
        ws = build_workspace(np.zeros(2, dtype=complex), t, chan, w, cfg)
        f_init = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
        f_new, _ = inner_pam(ws, f_init, rho=1.0, m_inner=3)
        cycles = _cycles(ws, f_init, 1.0, 3)
        np.testing.assert_allclose(f_new, f_init, rtol=1e-12)
        np.testing.assert_allclose(
            _trajectory(ws, cycles, 1.0), np.full(3, np.sum(w.alpha**2)), rtol=1e-12
        )
        np.testing.assert_allclose(vec_of_matrix(cycles[-1].z), vec_of_matrix(f_init), rtol=1e-12)

    def test_monotone_default_mode(self):
        rng = substream(60, "inner-mono")
        for trial in range(20):
            cfg, chan, f0, r, t, w = _random_instance(rng, 4, 3, 0.05, 0.05)
            r = r / np.abs(r)
            t = t / np.abs(t)
            ws = build_workspace(r, t, chan, w, cfg)
            for rho in (0.1, 1.0, 10.0):
                rises = np.diff(_trajectory(ws, _cycles(ws, f0, rho, 50), rho))
                assert np.all(rises <= 1e-9), (
                    f"trial {trial} rho {rho}: worst rise {rises.max():.3e}"
                )

    def test_output_unit_modulus(self):
        rng = substream(62, "inner-modulus")
        cfg, chan, f0, r, t, w = _random_instance(rng, 3, 2)
        f_new, _ = inner_pam(ws := build_workspace(r, t, chan, w, cfg), f0, 1.0, 10)
        np.testing.assert_allclose(np.abs(f_new), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(_cycles(ws, f0, 1.0, 10)[-1].z), 1.0, atol=1e-12)
        assert ws.n_users == 2

    def test_mode_validation(self):
        rng = substream(63, "inner-modes")
        cfg, chan, f0, r, t, w = _random_instance(rng, 2, 2)
        ws = build_workspace(r, t, chan, w, cfg)
        for f_init, m_inner in ((np.ones((3, 3), dtype=complex), 5), (f0, 0)):
            with pytest.raises(ValueError):
                inner_pam(ws, f_init, 1.0, m_inner)


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


def _per_cycle_inner_pam(ws, f_matrix_init, rho, m_inner):
    """The factored inner loop written out, with its merit inside every
    cycle: the copies' row offsets d from the folded u-step, the consensus
    mean d + 0.5 (F_prev + Z), then the spread from the next cycle's rows,
    the tether, and the worst-user data cost plus rho times both."""
    downlink = ws.downlink
    g_conj = downlink.conj()
    g_sq = np.sum(np.abs(downlink) ** 2, axis=1)
    step = pam_module._factor_u_step(ws, rho)
    f_matrix, z_matrix = f_matrix_init, f_matrix_init.copy()
    g_f = g_conj @ f_matrix
    trajectory = np.empty(m_inner)
    for cycle in range(m_inner):
        d = step.diff(g_f)
        f_prev, g_f_prev = f_matrix, g_f
        f_matrix = step.mean @ d + 0.5 * (f_prev + z_matrix)
        z_matrix = phase_project(f_matrix)
        g_f = g_conj @ f_matrix
        g_u, v = d + g_f_prev, d * step.inv_g_sq
        spread = np.mean(
            np.sum(np.abs(f_prev - f_matrix) ** 2)
            + 2.0 * np.real(np.sum((g_f_prev - g_f).conj() * v, axis=1))
            + g_sq * np.sum(np.abs(v) ** 2, axis=1)
        )
        tether = np.sum(np.abs(z_matrix - f_matrix) ** 2)
        fit = ws.r[:, None] * (g_u @ ws.uplink.T) * ws.t[None, :] - ws.alpha
        data = np.sum(np.abs(fit) ** 2, axis=1) + ws.kron_scale * np.sum(np.abs(g_u) ** 2, axis=1)
        trajectory[cycle] = float(np.max(data) + rho * (spread + tether))
    return f_matrix, z_matrix, trajectory


def _unfolded_inner_pam(ws, f_matrix_init, rho, m_inner):
    """The factored inner loop before its constants were folded, verbatim:
    per cycle the copies' rows g_u = D + p R - ((D + p R) AQ W) (AQ)^H with
    R = G^* F, their offsets v = (g_u - R) / ||g_k||^2, and the consensus
    0.5 (F_prev + G^T V / K + Z).  Returns the last F, Z and merit."""
    downlink = ws.downlink
    g_conj = downlink.conj()
    ridge = rho / ws.n_users
    g_sq = np.sum(np.abs(downlink) ** 2, axis=1)
    s = ridge + ws.kron_scale * g_sq
    beta = np.abs(ws.r) ** 2 * g_sq / s
    a = ws.uplink.T * ws.t[None, :]
    lam, q = np.linalg.eigh(a.conj().T @ a)
    aq = a @ q
    aq_h = aq.conj().T
    weight = beta[:, None] / (1.0 + beta[:, None] * lam[None, :])
    target = (ws.alpha * ws.t) @ ws.uplink
    data = (g_sq / s)[:, None] * np.conj(np.outer(ws.r, target))
    prox = (ridge / s)[:, None]
    inv_g_sq = np.divide(1.0, g_sq, out=np.zeros_like(g_sq), where=g_sq > 0)[:, None]
    f_matrix, z_matrix = f_matrix_init, f_matrix_init.copy()
    g_f = g_conj @ f_matrix
    for _ in range(m_inner):
        rhs = data + prox * g_f
        g_u = rhs - ((rhs @ aq) * weight) @ aq_h
        v = (g_u - g_f) * inv_g_sq
        f_prev, g_f_prev = f_matrix, g_f
        f_matrix = 0.5 * (f_prev + (downlink.T @ v) / ws.n_users + z_matrix)
        z_matrix = phase_project(f_matrix)
        g_f = g_conj @ f_matrix
    cycle = SimpleNamespace(g_u=g_u, v=v, f_prev=f_prev, g_f_prev=g_f_prev, f=f_matrix, z=z_matrix, g_f=g_f)
    return f_matrix, z_matrix, cycle_merit(ws, cycle, rho)


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
        f_new, _ = inner_pam(ws, f0, rho, 8)
        cycles = _cycles(ws, f0, rho, 8)
        last = cycles[-1]
        expected = _reference_inner_pam(ws, f0, rho, 8)
        u_all = checks._copies(last.f_prev, last.v, ws.downlink)
        got_all = (f_new, _trajectory(ws, cycles, rho), u_all, vec_of_matrix(last.f), vec_of_matrix(last.z))
        for got, want in zip(got_all, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("m_inner", [1, 8, 50])
    @pytest.mark.parametrize(
        "n, k, zero_user", [(1, 1, False), (8, 3, False), (8, 13, False), (32, 16, False), (8, 3, True)]
    )
    def test_batched_merit_matches_per_cycle_merit(self, n, k, zero_user, m_inner):
        # The merit of every yielded cycle, and inner_pam's final merit,
        # equal the merit written out inside every cycle bit for bit, and so
        # do the iterates.
        rng = substream(69, f"batched-merit-{n}-{k}-{zero_user}")
        cfg, chan, f0, r, t, w = _random_instance(rng, n, k)
        if zero_user:
            r[1] = 0.0
        ws = build_workspace(r, t, chan, w, cfg)
        rho = float(rng.uniform(0.2, 3.0))
        f_new, merit = inner_pam(ws, f0, rho, m_inner)
        _, f_want, trajectory_want = _per_cycle_inner_pam(ws, f0, rho, m_inner)
        np.testing.assert_array_equal(_trajectory(ws, _cycles(ws, f0, rho, m_inner), rho), trajectory_want)
        np.testing.assert_array_equal(merit, trajectory_want[-1])
        np.testing.assert_array_equal(f_new, f_want)

    @pytest.mark.parametrize("n, k", [(8, 3), (8, 13), (32, 16)])
    def test_folded_cycle_tracks_the_unfolded_formula(self, n, k):
        # Folding the u-step's constants reorders its roundings only: over
        # 50 cycles F, Z and the merit stay within 1e-12 relative of the
        # unfolded formula (F and Z against their largest entry).
        rng = substream(70, f"folded-{n}-{k}")
        cfg, chan, f0, r, t, w = _random_instance(rng, n, k)
        ws = build_workspace(r, t, chan, w, cfg)
        rho = float(rng.uniform(0.2, 3.0))
        f_want, z_want, merit_want = _unfolded_inner_pam(ws, f0, rho, 50)
        f_got, z_got, trajectory = _per_cycle_inner_pam(ws, f0, rho, 50)
        np.testing.assert_allclose(f_got, f_want, rtol=0, atol=1e-12 * np.max(np.abs(f_want)))
        np.testing.assert_allclose(z_got, z_want, rtol=0, atol=1e-12 * np.max(np.abs(z_want)))
        np.testing.assert_allclose(trajectory[-1], merit_want, rtol=1e-12, atol=0)

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
        # Structural guard, no timing: one inner_pam call at N=32, K=16 and
        # m=50 peaks under 2 MB. That is a few (K, N^2) complex arrays for
        # the copies (256 KiB each) and one cycle's (K, N) rows and N x N
        # matrices; the loop keeps no history. A (K, K, N^2) complex array
        # alone takes 4 MiB.
        rng = substream(68, "factored-memory")
        n, k = 32, 16
        cfg, chan, f0, r, t, w = _random_instance(rng, n, k)
        ws = build_workspace(r, t, chan, w, cfg)
        inner_pam(ws, f0, 1.0, 3)  # warm-up: first-call allocations
        peaks = {}
        for m_inner in (50, 100):
            tracemalloc.start()
            try:
                inner_pam(ws, f0, 1.0, m_inner)
                peaks[m_inner] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50] < 2 * 1024 * 1024, f"inner_pam peaked at {peaks[50]} bytes"
        # The peak does not grow with m: 50 more cycles add less than one
        # (K, N) complex row in all, where any per-cycle history would add
        # at least one row per cycle.
        growth = peaks[100] - peaks[50]
        assert growth < k * n * 16, f"inner_pam's peak grew by {growth} bytes from m=50 to m=100"


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
        sol = run_pam(chan, w, cfg, PamConfig(n_outer=5, m_inner=20), seed=3)
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
        sol = run_pam(chan, w, cfg, PamConfig(n_outer=4, m_inner=10), seed=1)
        assert isinstance(sol, Solution)
        np.testing.assert_allclose(np.abs(sol.f_matrix), 1.0, atol=1e-12)
        assert np.all(np.abs(sol.t_all) ** 2 <= cfg.power_budget + 1e-9)
        assert sol.objective == pytest.approx(
            objective_minmax(sol.f_matrix, sol.r_all, sol.t_all, chan, w, cfg), rel=1e-12
        )
        assert sol.objective <= sol.outer_objectives[0] + 1e-12
        assert len(sol.inner_merits) == 4 and all(np.isfinite(sol.inner_merits))
        assert len(sol.t_gaps) == 4 and max(sol.t_gaps) <= T_GAP_TOL
        assert len(sol.t_evals) == 4 and min(sol.t_evals) >= 1

    @pytest.mark.parametrize("seed", [2001, 2])
    def test_default_config_certifies_every_transmit_solve(self, seed):
        # The default radio and optimizer.  On channel seed 2001 the earlier
        # projected-gradient solve stopped three of its 20 t-blocks on the
        # stall rule, at gaps of 1.10e-6, 1.83e-6 and 4.25e-6.  On seed 2 the
        # 18th t-block reaches the rounding of the dual after one Newton
        # step: a projected-gradient fallback took 141 evaluations there, and
        # stopping on the first failed Newton step left it at a gap of 1.43e-6.
        cfg, pc = RadioConfig(), PamConfig()
        sol = run_pam(sample_channels(cfg, seed), AggregationWeights(np.ones(cfg.n_users)), cfg, pc)
        assert len(sol.t_gaps) == len(sol.t_evals) == pc.n_outer
        assert max(sol.t_gaps) <= T_GAP_TOL
        assert max(sol.t_evals) <= 20

    def test_each_transmit_solve_starts_at_the_last_ones_weights(self, monkeypatch):
        # Structural guard: in both modes the outer loop's first t-solve
        # starts cold, and solve c + 1 receives solve c's returned weights.
        cfg = RadioConfig(n_antennas=3, n_users=3, pathloss_db=0.0, noise_power_server=0.01, noise_power_user=0.01)
        chan = sample_channels(cfg, 12)
        w = AggregationWeights(np.array([1.0, 2.0, 3.0]))
        calls = []
        original = pam_module.update_t

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append((kwargs.get("lam_init"), out[4]))
            return out

        monkeypatch.setattr(pam_module, "update_t", recording)
        pc = PamConfig(n_outer=4, m_inner=5)
        for solve in (lambda: run_pam(chan, w, cfg, pc, seed=1), lambda: baseline_optimize(chan, w, cfg, pc)):
            solution = solve()
            assert len(calls) == pc.n_outer == len(solution.t_evals)
            assert calls[0][0] is None
            for (_, returned), (received, _) in zip(calls, calls[1:]):
                assert received is returned
            calls.clear()

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
            sol = run_pam(chan, w, cfg, PamConfig(n_outer=5, m_inner=15), seed=seed)
            for before, after in sol.r_update_pairs:
                assert after <= before + 1e-9
            # Each t block runs from the r block's result to the next outer objective.
            for (_, before), after in zip(sol.r_update_pairs, sol.outer_objectives[1:]):
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
        pc = PamConfig(n_outer=3, m_inner=8)
        a = run_pam(chan, w, cfg, pc, seed=9)
        b = run_pam(chan, w, cfg, pc, seed=9)
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
            pc = PamConfig(n_outer=6, m_inner=15)
            pam = run_pam(chan, w, cfg, pc, seed=seed)
            base = baseline_optimize(chan, w, cfg, pc)
            wins += pam.objective < base.objective
        assert wins >= 4
