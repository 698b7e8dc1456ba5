"""Tests for the analog aggregation chain and its closed-form MSE."""

import threading
import tracemalloc

import numpy as np
import pytest

from airfl import aircomp
from airfl.aircomp import (
    AggregationWeights,
    analytic_mse,
    chain_buffers,
    global_target,
    monte_carlo_mse,
    mse_bracket_terms,
    over_the_air,
)
from airfl.channel import ChannelRealization, RadioConfig, sample_channels, substream
from airfl.flsim import transmit_batch
from airfl.pam import update_r


def _perfect_link():
    """N=1, K=1 chain with unit channels, no pathloss, no noise."""
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


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _receive(x_batch, chan, f_matrix=None, r_all=None, t_all=None, eta=0.5, relay_noise=None,
             user_noise=None):
    """Run the chain; F, r, t and the noises default to identity, ones, ones and zeros.

    The default eta = 0.5 makes the encoding scale t / sqrt(2 eta) exactly t
    and the receiver's sqrt(2 eta) r exactly 1, so the chain returns the raw
    received symbols.
    """
    x_batch = np.asarray(x_batch, dtype=float)
    replays, k_users, model_dim = x_batch.shape
    n_symbols = model_dim // 2
    if f_matrix is None:
        f_matrix = np.eye(chan.n_antennas, dtype=complex)
    if r_all is None:
        r_all = np.ones(k_users, dtype=complex)
    if t_all is None:
        t_all = np.ones(k_users, dtype=complex)
    if relay_noise is None:
        relay_noise = np.zeros((replays, chan.n_antennas, n_symbols), dtype=complex)
    if user_noise is None:
        user_noise = np.zeros((replays, k_users, n_symbols), dtype=complex)
    return _over_the_air(x_batch, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise)


def _over_the_air(x_batch, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise):
    """``over_the_air`` on buffers sized for the whole batch."""
    _, _, model_dim = np.shape(x_batch)
    buffers = chain_buffers(len(x_batch), chan, model_dim // 2)
    return over_the_air(x_batch, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise, buffers)


def _relay_view(rng, n):
    """K = N users whose downlinks are the unit vectors: user k observes antenna k."""
    return ChannelRealization(uplink=_complex(rng, (n, n)), downlink=np.eye(n, dtype=complex))


def _random_state(rng, n, k, pathloss_db=0.0, noise_server=0.01, noise_user=0.02):
    cfg = RadioConfig(
        n_antennas=n,
        n_users=k,
        pathloss_db=pathloss_db,
        noise_power_server=noise_server,
        noise_power_user=noise_user,
    )
    chan = sample_channels(cfg, int(rng.integers(1 << 31)))
    f_matrix = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
    t_all = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    r_all = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    weights = AggregationWeights(rng.uniform(1.0, 5.0, k))
    return cfg, chan, f_matrix, r_all, t_all, weights


def _over_the_air_einsum(x_batch, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise):
    """The analog chain written as three einsum contractions, one per stage,
    and the receiver: the reference the matrix-product chain of
    ``over_the_air`` must match up to summation order."""
    x_batch = np.asarray(x_batch, dtype=float)
    root = np.sqrt(2.0 * np.asarray(eta, dtype=float)).reshape(-1, 1, 1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    signal = (t_all[None, :, None] / root) * (x_batch[..., 0::2] + 1j * x_batch[..., 1::2])
    signal = np.einsum("rks,kn->rns", signal, chan.uplink) + relay_noise
    signal = np.einsum("nm,rms->rns", np.asarray(f_matrix, dtype=complex), signal)
    received = np.einsum("kn,rns->rks", chan.downlink.conj(), signal) + user_noise
    return root * np.asarray(r_all, dtype=complex)[None, :, None] * received


def _noise_one_shot(seed, label, power, shape):
    """Complex noise of entry power ``power`` drawn all at once, each entry's
    real and imaginary parts back to back: the layout ``_noise_chunks`` keeps."""
    parts = substream(seed, label).standard_normal((*shape, 2))
    return np.sqrt(np.asarray(power, dtype=float) / 2.0) * (parts[..., 0] + 1j * parts[..., 1])


def _unpack(symbols):
    """(..., S) complex symbols -> (..., 2S) real parameters, pairwise."""
    out = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],))
    out[..., 0::2] = symbols.real
    out[..., 1::2] = symbols.imag
    return out


def _squared_errors_one_shot(f_matrix, r_all, t_all, chan, weights, cfg, eta, n_symbols, draws,
                             seed):
    """The (draws, K) squared errors of ``monte_carlo_mse``'s draws, every
    draw in memory at once."""
    k_users = chan.n_users
    rng_x = substream(seed, "mc-parameters")
    x_draws = np.sqrt(eta) * rng_x.standard_normal((draws, k_users, 2 * n_symbols))
    relay_noise = _noise_one_shot(
        seed, "mc-relay-noise", cfg.noise_power_server, (draws, chan.n_antennas, n_symbols)
    )
    user_noise = _noise_one_shot(
        seed, "mc-user-noise", cfg.noise_power_user[:, None], (draws, k_users, n_symbols)
    )
    target = global_target(x_draws[..., 0::2] + 1j * x_draws[..., 1::2], weights)
    estimate = _over_the_air(x_draws, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise)
    err = estimate - target[:, None, :]
    return np.sum(np.abs(err) ** 2, axis=2)


def _monte_carlo_one_shot(*args):
    """``monte_carlo_mse`` with every draw in memory at once: the reference
    the chunked loop must match bit for bit.  One row per draw of the
    squared error e, its offset d from the first draw's and d^2, reduced
    over all draws: numpy sums axis 0 of these rows in draw order."""
    sq = _squared_errors_one_shot(*args)
    draws = len(sq)
    shifted = sq - sq[0]
    moments = np.stack([sq, shifted, shifted * shifted], axis=1)
    mean = moments.mean(axis=0)[0]
    _, shifted_sum, shifted_sq = moments.sum(axis=0)
    variance = np.maximum(shifted_sq - shifted_sum * shifted_sum / draws, 0.0) / (draws - 1)
    return mean, np.sqrt(variance) / np.sqrt(draws)


# The four radios of the chunking and standard-error tests.
_MC_RADIOS = pytest.mark.parametrize(
    "n, k, noise_server, noise_user, pathloss_db, n_symbols",
    [
        (3, 2, 0.0, 0.02, 0.0, 3),
        (4, 3, 0.01, [0.0, 0.02, 0.5], 0.0, 3),
        (2, 1, 0.01, 0.02, 0.0, 3),
        (8, 3, 1e-11, 1e-11, -40.0, 5),
    ],
    ids=["zero-server-noise", "per-user-noise", "one-user", "reference-radio"],
)


class TestAggregationWeights:
    def test_normalization(self):
        w = AggregationWeights(np.array([10.0, 30.0]))
        np.testing.assert_allclose(w.alpha, [0.25, 0.75])
        np.testing.assert_allclose(np.sum(w.alpha), 1.0)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            AggregationWeights(np.array([1.0, 0.0]))


class TestEncodeDecode:
    def test_pack_unpack_round_trip(self):
        # eta = 0.5 and unit gains: decoding must return x bit for bit.
        cfg, chan = _perfect_link()
        rng = substream(22, "pack")
        x = rng.standard_normal((1, 1, 12))
        out = transmit_batch(
            x, np.eye(1, dtype=complex), np.ones(1, dtype=complex), np.ones(1, dtype=complex),
            chan, cfg, np.array([0.5]), seed=0, round_index=0,
        )
        np.testing.assert_array_equal(out, x)

    def test_encode_example(self):
        _, chan = _perfect_link()
        s = _receive(np.array([[[1.0, 0.0]]]), chan)
        np.testing.assert_allclose(s, [[[1.0 + 0.0j]]])

    def test_zero_transmit_coefficient(self):
        _, chan = _perfect_link()
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        s = _receive(x, chan, t_all=np.zeros(1, dtype=complex), eta=1.0)
        np.testing.assert_array_equal(s, np.zeros((1, 1, 2), dtype=complex))

    def test_norm_identity(self):
        # The encoder's 1 / sqrt(2 eta) and the receiver's sqrt(2 eta)
        # cancel: a perfect link's estimate has energy |r t|^2 ||x||^2.
        _, chan = _perfect_link()
        rng = substream(23, "encode-norm")
        for _ in range(10):
            x = rng.standard_normal(8)
            r = complex(rng.standard_normal(), rng.standard_normal())
            t = complex(rng.standard_normal(), rng.standard_normal())
            eta = float(rng.uniform(0.2, 3.0))
            s = _receive(x[None, None], chan, r_all=np.array([r]), t_all=np.array([t]), eta=eta)
            lhs = np.sum(np.abs(s) ** 2)
            rhs = abs(r * t) ** 2 * np.sum(x**2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_odd_length_rejected(self):
        _, chan = _perfect_link()
        with pytest.raises(ValueError):
            _over_the_air(
                np.ones((1, 1, 5)), np.eye(1), np.ones(1), np.ones(1), chan, 1.0,
                np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
            )

    def test_undersized_buffers_rejected(self):
        _, chan = _perfect_link()
        args = (np.ones((3, 1, 4)), np.eye(1), np.ones(1), np.ones(1), chan, 1.0,
                np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))
        with pytest.raises(ValueError):
            over_the_air(*args, chain_buffers(2, chan, 2))
        assert over_the_air(*args, chain_buffers(4, chan, 2)).shape == (3, 1, 2)

    def test_decode_zero_coefficient(self):
        cfg, chan = _perfect_link()
        out = transmit_batch(
            np.ones((1, 1, 6)), np.eye(1, dtype=complex), np.zeros(1, dtype=complex),
            np.ones(1, dtype=complex), chan, cfg, np.array([1.0]), seed=0, round_index=0,
        )
        np.testing.assert_array_equal(out, np.zeros((1, 1, 6)))

    def test_decode_componentwise_oracle(self):
        # Noise-free link: decoding equalizes by r, rescales by sqrt(2 eta)
        # and interleaves real and imaginary parts.
        cfg, chan = _perfect_link()
        rng = substream(24, "decode-oracle")
        x = rng.standard_normal((1, 1, 8))
        r = complex(rng.standard_normal(), rng.standard_normal())
        t = complex(rng.standard_normal(), rng.standard_normal())
        eta = 1.7
        out = transmit_batch(
            x, np.eye(1, dtype=complex), np.array([r]), np.array([t]), chan, cfg,
            np.array([eta]), seed=0, round_index=0,
        )
        sent = t / np.sqrt(2 * eta) * (x[0, 0, 0::2] + 1j * x[0, 0, 1::2])
        symbols = np.sqrt(2 * eta) * r * sent
        expected = np.column_stack([symbols.real, symbols.imag]).ravel()
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-12)

    def test_perfect_round_trip(self):
        cfg, chan = _perfect_link()
        x = np.array([0.3, -1.2, 2.5, 0.0, -0.7, 1.1])
        eta = float(np.mean(x * x))
        out = transmit_batch(
            x[None, None], np.eye(1, dtype=complex), np.ones(1, dtype=complex),
            np.ones(1, dtype=complex), chan, cfg, np.array([eta]), seed=0, round_index=0,
        )
        np.testing.assert_allclose(out[0, 0], x, atol=1e-14)


class TestChainOperations:
    def test_uplink_single_user_identity(self):
        _, chan = _perfect_link()
        out = _receive(np.array([[[1.0, 2.0, 0.0, -1.0]]]), chan)
        np.testing.assert_array_equal(out, [[[1.0 + 2.0j, -1.0j]]])

    def test_uplink_zero_signal_returns_noise(self):
        rng = substream(25, "uplink-noise")
        chan = _relay_view(rng, 3)
        noise = _complex(rng, (2, 3, 4))
        out = _receive(np.zeros((2, 3, 8)), chan, relay_noise=noise)
        np.testing.assert_array_equal(out, noise)

    def test_uplink_loop_oracle(self):
        rng = substream(26, "uplink-oracle")
        chan = _relay_view(rng, 4)
        x = rng.standard_normal((2, 4, 10))
        t = _complex(rng, 4)
        noise = _complex(rng, (2, 4, 5))
        out = _receive(x, chan, t_all=t, relay_noise=noise)
        expected = noise.copy()
        for r in range(2):
            for k in range(4):
                for n in range(4):
                    for m in range(5):
                        symbol = t[k] * complex(x[r, k, 2 * m], x[r, k, 2 * m + 1])
                        expected[r, n, m] += chan.uplink[k, n] * symbol
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_uplink_dimension_mismatch(self):
        chan = ChannelRealization(
            uplink=np.ones((2, 3), dtype=complex), downlink=np.ones((2, 3), dtype=complex)
        )
        with pytest.raises(ValueError):
            _receive(np.zeros((1, 3, 4)), chan)
        with pytest.raises(ValueError):
            _receive(np.zeros((1, 2, 4)), chan, relay_noise=np.zeros((3, 2), dtype=complex))

    def test_forward_identity_and_gain(self):
        rng = substream(27, "forward")
        chan = _relay_view(rng, 3)
        r_mat = _complex(rng, (1, 3, 4))
        x = np.zeros((1, 3, 8))
        np.testing.assert_array_equal(_receive(x, chan, relay_noise=r_mat), r_mat)
        f = _complex(rng, (3, 3))
        np.testing.assert_allclose(
            _receive(x, chan, f_matrix=f, relay_noise=r_mat), f @ r_mat, rtol=1e-12
        )

    def test_downlink_loop_oracle(self):
        rng = substream(28, "downlink-oracle")
        chan = ChannelRealization(uplink=_complex(rng, (3, 4)), downlink=_complex(rng, (3, 4)))
        fwd = _complex(rng, (1, 4, 5))
        noise = _complex(rng, (1, 3, 5))
        out = _receive(np.zeros((1, 3, 10)), chan, relay_noise=fwd, user_noise=noise)
        expected = noise.copy()
        for k in range(3):
            for m in range(5):
                for n in range(4):
                    expected[0, k, m] += np.conj(chan.downlink[k, n]) * fwd[0, n, m]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_downlink_noise_only(self):
        rng = substream(29, "downlink-noise")
        chan = ChannelRealization(uplink=_complex(rng, (2, 3)), downlink=_complex(rng, (2, 3)))
        noise = np.array([[[1.0 + 1.0j, -2.0j], [0.5, 3.0 + 0.0j]]])
        out = _receive(np.zeros((1, 2, 4)), chan, user_noise=noise)
        np.testing.assert_array_equal(out, noise)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (8, 3), (32, 16)])
    @pytest.mark.parametrize("replays", [1, 7, 2051])
    def test_matches_einsum_reference(self, n, k, replays):
        # BLAS sums in its own order, so the chain matches the per-stage
        # einsums to rounding, at every size, eta layout and noise.
        rng = substream(30, "einsum-reference", n, k, replays)
        chan = sample_channels(RadioConfig(n_antennas=n, n_users=k), int(rng.integers(1 << 31)))
        x = rng.standard_normal((replays, k, 10))
        f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))
        r = _complex(rng, k)
        t = _complex(rng, k)
        for eta in (0.7, rng.uniform(0.5, 2.0, replays)):
            for noise in (0.0, 0.1):
                relay = noise * _complex(rng, (replays, n, 5))
                user = noise * _complex(rng, (replays, k, 5))
                args = (x, f, r, t, chan, eta, relay, user)
                ref = _over_the_air_einsum(*args)
                out = _over_the_air(*args)
                assert out.shape == ref.shape
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_global_target(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            global_target(x, AggregationWeights(np.array([1.0, 1.0]))), [2.0, 3.0]
        )
        np.testing.assert_allclose(
            global_target(x[:1], AggregationWeights(np.array([5.0]))), [1.0, 2.0]
        )
        w = AggregationWeights(np.array([1.0, 3.0]))
        np.testing.assert_allclose(global_target(x, w), 0.25 * x[0] + 0.75 * x[1])
        batch = np.stack([x, 2.0 * x, -x])
        np.testing.assert_allclose(global_target(batch, w), [global_target(b, w) for b in batch])


class TestChainNoise:
    @staticmethod
    def _draw(seed, radio, chan, draws, n_symbols):
        # Copy each chunk out: the sampler reuses its two buffers.
        pairs = [
            (relay.copy(), user.copy())
            for relay, user in aircomp._chain_noise(seed, "relay", "user", radio, chan, draws, n_symbols)
        ]
        return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])

    def test_empirical_variance(self):
        # Every entry has its kind's noise power, user by user, across chunks.
        radio = RadioConfig(
            n_antennas=8, n_users=3, noise_power_server=2.5, noise_power_user=[0.5, 1.0, 4.0]
        )
        chan = sample_channels(radio, 31)
        draws = 2 * aircomp._MC_CHUNK + 3
        relay, user = self._draw(31, radio, chan, draws, 5)
        assert relay.shape == (draws, 8, 5) and user.shape == (draws, 3, 5)
        powers = [(relay, radio.noise_power_server)]
        powers += [(user[:, k], radio.noise_power_user[k]) for k in range(3)]
        for noise, power in powers:
            # |z|^2 of a complex Gaussian of power p has mean p and deviation p.
            assert abs(np.mean(np.abs(noise) ** 2) - power) <= 4 * power / np.sqrt(noise.size)

    def test_stream_independence(self):
        # The relay and user streams are independent: with N = K their
        # entries are uncorrelated.
        radio = RadioConfig(n_antennas=3, n_users=3, noise_power_server=1.0, noise_power_user=1.0)
        chan = sample_channels(radio, 31)
        relay, user = self._draw(31, radio, chan, 2051, 16)
        corr = np.abs(np.vdot(relay, user)) / (np.linalg.norm(relay) * np.linalg.norm(user))
        assert corr <= 0.02, f"cross-stream correlation {corr:.4f}"


class TestTransmitBatch:
    """``transmit_batch`` runs the one chain on its replays in chunks."""

    @pytest.mark.parametrize("n, k", [(3, 2), (8, 3)])
    @pytest.mark.parametrize("replays", [1, 7, 1024, 1025, 2051])
    def test_chunked_replays_match_one_shot(self, n, k, replays):
        # The replays run through the chain in chunks; the result equals the
        # chain run once on every replay, with each noise kind drawn one-shot
        # under its round's label, bit for bit.  Another round draws anew.
        radio = RadioConfig(
            n_antennas=n, n_users=k, pathloss_db=0.0,
            noise_power_server=0.01, noise_power_user=np.linspace(0.01, 0.03, k),
        )
        chan = sample_channels(radio, 8)
        rng = substream(78, "tx-chunks", n, k)
        x = rng.standard_normal((replays, k, 6))
        eta = rng.uniform(0.5, 2.0, replays)
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (n, n)))
        r = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        t = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        out = transmit_batch(x, f, r, t, chan, radio, eta, seed=42, round_index=3)
        relay = _noise_one_shot(42, ("round", 3, "relay"), 0.01, (replays, n, 3))
        user_power = radio.noise_power_user[:, None]
        user = _noise_one_shot(42, ("round", 3, "user"), user_power, (replays, k, 3))
        np.testing.assert_array_equal(out, _unpack(_over_the_air(x, f, r, t, chan, eta, relay, user)))
        other = transmit_batch(x, f, r, t, chan, radio, eta, seed=42, round_index=4)
        assert not np.any(other == out)

    def test_zero_noise_radio_gives_noiseless_chain(self):
        # Zero noise powers draw zero noise: the pass equals the chain fed
        # all-zero noise, bit for bit, across chunk boundaries.
        radio = RadioConfig(n_antennas=4, n_users=3, noise_power_server=0.0, noise_power_user=0.0)
        chan = sample_channels(radio, 9)
        rng = substream(79, "tx-zero-noise")
        replays = 1025
        x = rng.standard_normal((replays, 3, 8))
        eta = rng.uniform(0.5, 2.0, replays)
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
        r = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = transmit_batch(x, f, r, t, chan, radio, eta, seed=5, round_index=0)
        zeros = np.zeros((replays, 4, 4), dtype=complex), np.zeros((replays, 3, 4), dtype=complex)
        np.testing.assert_array_equal(out, _unpack(_over_the_air(x, f, r, t, chan, eta, *zeros)))


class TestAnalyticMse:
    def test_perfect_link_is_zero(self):
        cfg, chan = _perfect_link()
        w = AggregationWeights(np.array([4.0]))
        out = analytic_mse(
            np.eye(1, dtype=complex),
            np.array([1.0 + 0.0j]),
            np.array([1.0 + 0.0j]),
            chan,
            w,
            cfg,
            eta=0.5,
            n_symbols=1,
        )
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_zero_equalizer_leaves_bias(self):
        # r = 0: only the alpha-bias term survives; K=1, eta=0.5, S=1 -> 1.0.
        cfg, chan = _perfect_link()
        w = AggregationWeights(np.array([4.0]))
        out = analytic_mse(
            np.eye(1, dtype=complex),
            np.array([0.0j]),
            np.array([1.0 + 0.0j]),
            chan,
            w,
            cfg,
            eta=0.5,
            n_symbols=1,
        )
        np.testing.assert_allclose(out, [1.0])

    def test_nonnegative(self):
        rng = substream(29, "mse-nonneg")
        for _ in range(20):
            cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
            out = analytic_mse(f, r, t, chan, w, cfg, eta=1.0, n_symbols=4)
            assert np.all(out >= 0.0)

    def test_bracket_times_constant(self):
        rng = substream(30, "mse-bracket")
        cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
        eta, n_symbols = 1.3, 7
        full = analytic_mse(f, r, t, chan, w, cfg, eta, n_symbols)
        bracket = mse_bracket_terms(f, r, t, chan, w, cfg)
        np.testing.assert_allclose(full, 2 * eta * n_symbols * bracket, rtol=1e-12)

    def test_one_eta_per_replay(self):
        rng = substream(38, "mse-per-replay")
        cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
        etas = np.array([0.4, 1.3, 2.0])
        batch = analytic_mse(f, r, t, chan, w, cfg, etas, 5)
        assert batch.shape == (3, 2)
        for row, eta in zip(batch, etas):
            np.testing.assert_array_equal(row, analytic_mse(f, r, t, chan, w, cfg, eta, 5))
        with pytest.raises(ValueError):
            analytic_mse(f, r, t, chan, w, cfg, np.array([1.0, 0.0]), 5)

    def test_brute_force_expression(self):
        # Independent elementwise recomputation of the bracket.
        rng = substream(31, "mse-brute")
        cfg, chan, f, r, t, w = _random_state(rng, 4, 3)
        out = mse_bracket_terms(f, r, t, chan, w, cfg)
        for k in range(3):
            g_row = chan.downlink[k].conj() @ f
            signal = 0.0
            for j in range(3):
                signal += (
                    abs(r[k] * (g_row @ chan.uplink[j]) * t[j] - w.alpha[j]) ** 2
                )
            noise_fwd = cfg.noise_power_server * abs(r[k]) ** 2 * np.sum(np.abs(g_row) ** 2)
            noise_user = cfg.noise_power_user[k] * abs(r[k]) ** 2
            expected = signal + noise_fwd + noise_user
            np.testing.assert_allclose(out[k], expected, rtol=1e-12)

    def test_equalizer_transmit_scaling_identity(self):
        # K=1, zero noise: scaling t by c and r by 1/c leaves the signal term
        # unchanged (literal identity of the closed-form expression).
        cfg = RadioConfig(
            n_antennas=2,
            n_users=1,
            pathloss_db=0.0,
            noise_power_server=0.0,
            noise_power_user=0.0,
        )
        rng = substream(32, "scaling-identity")
        chan = sample_channels(cfg, 3)
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
        w = AggregationWeights(np.array([2.0]))
        r = np.array([0.8 - 0.3j])
        t = np.array([1.1 + 0.6j])
        base = mse_bracket_terms(f, r, t, chan, w, cfg)
        for scale in (2.0, 0.5 + 0.5j, -3.0j):
            scaled = mse_bracket_terms(f, r / scale, t * scale, chan, w, cfg)
            np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestMonteCarlo:
    def test_zero_noise_perfect_link(self):
        cfg, chan = _perfect_link()
        w = AggregationWeights(np.array([4.0]))
        mean, se = monte_carlo_mse(
            np.eye(1, dtype=complex),
            np.array([1.0 + 0.0j]),
            np.array([1.0 + 0.0j]),
            chan,
            w,
            cfg,
            eta=0.5,
            n_symbols=1,
            draws=200,
            seed=0,
        )
        np.testing.assert_allclose(mean, [0.0], atol=1e-24)
        np.testing.assert_allclose(se, [0.0], atol=1e-24)

    def test_agreement_with_closed_form(self):
        rng = substream(33, "mc-agree")
        for trial in range(5):
            cfg, chan, f, r, t, w = _random_state(rng, 4, 3)
            # use the stationarity-optimal equalizer to keep scales sane
            r = update_r(f, t, chan, w, cfg)
            eta = float(rng.uniform(0.5, 2.0))
            closed = analytic_mse(f, r, t, chan, w, cfg, eta, 3)
            mean, se = monte_carlo_mse(f, r, t, chan, w, cfg, eta, 3, 20000, 100 + trial)
            z = np.abs(closed - mean) / se
            assert np.all(z <= 4.0), f"trial {trial}: worst z = {z.max():.2f}"

    def test_transmit_scale_adjudication(self):
        # With |t| far from 1 the closed form using t (not sqrt(t)) must match
        # the simulated chain; the sqrt variant must not.
        rng = substream(34, "sqrt-adjudication")
        cfg = RadioConfig(
            n_antennas=3,
            n_users=2,
            pathloss_db=0.0,
            noise_power_server=0.005,
            noise_power_user=0.005,
        )
        chan = sample_channels(cfg, 8)
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        t = np.array([4.0 + 0.0j, 0.1 + 0.2j])  # |t| far from 1 on both sides
        w = AggregationWeights(np.array([1.0, 2.0]))
        r = update_r(f, t, chan, w, cfg)
        eta = 1.0
        closed = analytic_mse(f, r, t, chan, w, cfg, eta, 4)
        mean, se = monte_carlo_mse(f, r, t, chan, w, cfg, eta, 4, 40000, 9)
        assert np.all(np.abs(closed - mean) / se <= 4.0)
        # sqrt-variant of the signal term disagrees by many standard errors
        gains = chan.downlink.conj() @ f @ chan.uplink.T
        sqrt_bracket = np.empty(2)
        for k in range(2):
            signal = np.sum(np.abs(r[k] * gains[k] * np.sqrt(t) - w.alpha) ** 2)
            noise_fwd = cfg.noise_power_server * abs(r[k]) ** 2 * np.sum(
                np.abs(chan.downlink[k].conj() @ f) ** 2
            )
            sqrt_bracket[k] = signal + noise_fwd + cfg.noise_power_user[k] * abs(r[k]) ** 2
        sqrt_mse = 2 * eta * 4 * sqrt_bracket
        assert np.any(np.abs(sqrt_mse - mean) / se > 10.0)

    def test_standard_error_shrinks(self):
        rng = substream(35, "se-shrink")
        cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
        r = update_r(f, t, chan, w, cfg)
        _, se_small = monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 1000, 77)
        _, se_large = monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 100000, 77)
        ratio = se_small / se_large
        # SE scales as 1/sqrt(draws): expect ~10, allow generous slack
        assert np.all(ratio > 5.0) and np.all(ratio < 20.0)

    def test_deterministic(self):
        rng = substream(36, "mc-deterministic")
        cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
        out1 = monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 500, 5)
        out2 = monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 500, 5)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])

    @_MC_RADIOS
    def test_chunked_draws_match_one_shot(self, n, k, noise_server, noise_user, pathloss_db,
                                          n_symbols):
        # Chunk boundaries must not move a single draw or a rounding: every
        # count around one and two chunks gives the one-shot mean and stderr
        # bit for bit, so the chain's matrix products round the same way on
        # a chunk as on all draws at once.
        chunk = aircomp._MC_CHUNK
        rng = substream(38, "mc-chunks", n, k)
        cfg, chan, f, r, t, w = _random_state(
            rng, n, k, pathloss_db, noise_server=noise_server, noise_user=noise_user
        )
        for draws in (2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            args = (f, r, t, chan, w, cfg, 0.7, n_symbols, draws, 11)
            mean, se = monte_carlo_mse(*args)
            ref_mean, ref_se = _monte_carlo_one_shot(*args)
            np.testing.assert_array_equal(mean, ref_mean)
            np.testing.assert_array_equal(se, ref_se)

    @_MC_RADIOS
    def test_streamed_stderr_matches_two_pass(self, n, k, noise_server, noise_user, pathloss_db,
                                              n_symbols):
        # The shifted one-pass variance agrees with numpy's two-pass
        # std(ddof=1) over the same draws to 1e-12 relative, on the radios
        # of the chunking test.
        rng = substream(38, "mc-chunks", n, k)
        cfg, chan, f, r, t, w = _random_state(
            rng, n, k, pathloss_db, noise_server=noise_server, noise_user=noise_user
        )
        draws = 2 * aircomp._MC_CHUNK + 3
        args = (f, r, t, chan, w, cfg, 0.7, n_symbols, draws, 11)
        _, se = monte_carlo_mse(*args)
        sq = _squared_errors_one_shot(*args)
        two_pass = sq.std(axis=0, ddof=1) / np.sqrt(draws)
        np.testing.assert_allclose(se, two_pass, rtol=1e-12, atol=0)

    def test_stderr_of_a_noiseless_single_user_link(self):
        # One user, no noise: every error is rounding-sized, and the
        # standard error of those errors is still finite and non-negative
        # (the shifted variance is clamped at 0 against cancellation).
        rng = substream(41, "mc-exact-link")
        cfg, chan, f, _, t, w = _random_state(rng, 2, 1, noise_server=0.0, noise_user=0.0)
        r = update_r(f, t, chan, w, cfg)
        for eta in (0.5, 0.7):
            mean, se = monte_carlo_mse(f, r, t, chan, w, cfg, eta, 3, aircomp._MC_CHUNK + 5, 12)
            assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
            assert np.all(mean <= 1e-20)

    def test_memory_does_not_grow_with_draws(self):
        # numpy reports its buffers to tracemalloc.  Going from 4 to 32
        # chunks of draws may not grow the peak beyond 64 KiB: no array
        # grows with the draws, not even one error per draw and user.
        chunk = aircomp._MC_CHUNK
        cfg = RadioConfig(n_antennas=8, n_users=3)
        chan = sample_channels(cfg, 1)
        f = np.exp(1j * substream(39, "mc-memory").uniform(0.0, 2.0 * np.pi, (8, 8)))
        r = t = np.ones(3, dtype=complex)
        w = AggregationWeights(np.ones(3))
        # One untraced call first, so that one-time imports count in neither peak.
        monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 5, 2, 3)
        peaks = []
        for n_chunks in (4, 32):
            tracemalloc.start()
            try:
                monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 5, n_chunks * chunk, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * 1024

    def test_no_helper_thread_outlives_the_call(self, monkeypatch):
        # The noise is drawn on a helper thread.  It is joined on every way
        # out of the call, and an error raised in the chain or in the helper
        # reaches the caller as the same type.
        class ChainError(Exception):
            pass

        chunk = aircomp._MC_CHUNK
        rng = substream(40, "mc-threads")
        cfg, chan, f, r, t, w = _random_state(rng, 3, 2)
        before = threading.active_count()
        for draws in (3 * chunk + 1, chunk - 1):
            monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, draws, 5)
            assert threading.active_count() == before

        chain = aircomp.over_the_air
        calls = []

        def chain_failing_on_second_chunk(*args):
            calls.append(len(args[0]))
            if len(calls) == 2:
                raise ChainError("second chunk")
            return chain(*args)

        with monkeypatch.context() as patch:
            patch.setattr(aircomp, "over_the_air", chain_failing_on_second_chunk)
            with pytest.raises(ChainError) as raised:
                monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 3 * chunk, 5)
        assert type(raised.value) is ChainError
        assert calls == [chunk, chunk]
        assert threading.active_count() == before

        def substream_failing_on_user_noise(seed, *labels):
            if labels == ("mc-user-noise",):
                raise ChainError("user noise")
            return substream(seed, *labels)

        with monkeypatch.context() as patch:
            patch.setattr(aircomp, "substream", substream_failing_on_user_noise)
            with pytest.raises(ChainError) as raised:
                monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 3, 3 * chunk, 5)
        assert type(raised.value) is ChainError
        assert threading.active_count() == before

    def test_draws_validation(self):
        rng = substream(37, "mc-draws")
        cfg, chan, f, r, t, w = _random_state(rng, 2, 2)
        with pytest.raises(ValueError):
            monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, 2, 1, 5)
        for n_symbols in (0, -1):
            with pytest.raises(ValueError, match="n_symbols must be at least 1"):
                monte_carlo_mse(f, r, t, chan, w, cfg, 1.0, n_symbols, 100, 5)
