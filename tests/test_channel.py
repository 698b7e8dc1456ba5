"""Tests for seeded channel/noise sampling and the radio configuration."""

import numpy as np
import pytest

from airfl.channel import (
    RadioConfig,
    db_to_linear,
    derive_seed,
    sample_awgn,
    sample_channels,
    substream,
)


class TestUnitConversions:
    def test_minus_40_db(self):
        assert abs(db_to_linear(-40.0) - 1e-4) <= 1e-12 * 1e-4

    def test_zero_db(self):
        assert db_to_linear(0.0) == 1.0


class TestRadioConfig:
    def test_defaults(self):
        cfg = RadioConfig()
        assert cfg.n_antennas == 8
        assert cfg.n_users == 3
        np.testing.assert_allclose(cfg.pathloss_linear, 1e-4)
        np.testing.assert_allclose(cfg.downlink_pathloss_linear, 1e-4)
        np.testing.assert_allclose(cfg.noise_power_user, 1e-11)
        assert cfg.noise_power_server == 1e-11
        assert cfg.power_budget == 1.0

    def test_scalar_broadcast_and_per_user(self):
        cfg = RadioConfig(n_users=3, pathloss_db=[-40.0, -30.0, -20.0], noise_power_user=2e-11)
        np.testing.assert_allclose(cfg.pathloss_linear, [1e-4, 1e-3, 1e-2])
        np.testing.assert_allclose(cfg.noise_power_user, [2e-11, 2e-11, 2e-11])

    def test_downlink_pathloss_override(self):
        cfg = RadioConfig(n_users=2, pathloss_db=-40.0, downlink_pathloss_db=-20.0)
        np.testing.assert_allclose(cfg.pathloss_linear, [1e-4, 1e-4])
        np.testing.assert_allclose(cfg.downlink_pathloss_linear, [1e-2, 1e-2])

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RadioConfig(n_antennas=0)
        with pytest.raises(ValueError):
            RadioConfig(n_users=0)
        with pytest.raises(ValueError):
            RadioConfig(noise_power_server=-1e-12)
        with pytest.raises(ValueError):
            RadioConfig(noise_power_user=[-1e-12, 1e-12, 1e-12])
        with pytest.raises(ValueError):
            RadioConfig(power_budget=0.0)
        with pytest.raises(ValueError):
            RadioConfig(n_users=3, pathloss_db=[-40.0, -40.0])  # wrong length


    @pytest.mark.parametrize("key", ["pathloss_db", "downlink_pathloss_db"])
    def test_overflowing_pathloss_rejected(self, key):
        # 10^(dB/10) leaves float64 above about 3082.5 dB; the check itself
        # must not warn (the suite turns RuntimeWarning into an error).
        assert np.isfinite(RadioConfig(n_users=2, **{key: 3082.0}).downlink_pathloss_linear).all()
        with pytest.raises(ValueError, match=f"^{key} 4000 dB has no finite linear gain$"):
            RadioConfig(n_users=2, **{key: [0.0, 4000.0]})


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "channel-uplink", 3).standard_normal(8)
        b = substream(7, "channel-uplink", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_label_sensitivity(self):
        base = substream(7, "alpha").standard_normal(8)
        for labels in (("beta",), ("alpha", 0), (0, "alpha"), (("alpha",),)):
            other = substream(7, *labels).standard_normal(8)
            assert not np.array_equal(base, other)

    def test_int_vs_string_label_distinct(self):
        a = substream(7, 1).standard_normal(8)
        b = substream(7, "1").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_rejects_unsupported_label(self):
        with pytest.raises(TypeError):
            substream(7, 1.5)

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(3, "round", 5) == derive_seed(3, "round", 5)
        assert derive_seed(3, "round", 5) != derive_seed(3, "round", 6)
        assert derive_seed(3, "round", 5) != derive_seed(4, "round", 5)


class TestSampleChannels:
    def test_shapes_and_determinism(self):
        cfg = RadioConfig()
        chan1 = sample_channels(cfg, 42, round_index=3)
        chan2 = sample_channels(cfg, 42, round_index=3)
        assert chan1.uplink.shape == (3, 8)
        assert chan1.downlink.shape == (3, 8)
        np.testing.assert_array_equal(chan1.uplink, chan2.uplink)
        np.testing.assert_array_equal(chan1.downlink, chan2.downlink)

    def test_round_index_changes_draw(self):
        cfg = RadioConfig()
        chan1 = sample_channels(cfg, 42, round_index=0)
        chan2 = sample_channels(cfg, 42, round_index=1)
        assert not np.array_equal(chan1.uplink, chan2.uplink)

    def test_uplink_downlink_independent_streams(self):
        cfg = RadioConfig(n_antennas=4, n_users=2, pathloss_db=0.0)
        chan = sample_channels(cfg, 11)
        assert not np.array_equal(chan.uplink, chan.downlink)

    def test_per_entry_variance(self):
        # 10^5 entries per user; variance of CN(0, v): SE ~ v * sqrt(2/n).
        cfg = RadioConfig(
            n_antennas=100, n_users=2, pathloss_db=[-40.0, -20.0], noise_power_user=1e-11
        )
        draws = np.stack(
            [sample_channels(cfg, 20, round_index=i).uplink for i in range(1000)]
        )  # (1000, 2, 100)
        for k, target in enumerate([1e-4, 1e-2]):
            samples = draws[:, k, :].ravel()
            n = samples.size
            assert n == 100000
            var = np.mean(np.abs(samples) ** 2)
            se = target * np.sqrt(2.0 / n)
            assert abs(var - target) <= 3 * se, f"user {k}: {var:.3e} vs {target:.3e}"
            # real and imaginary parts carry half the variance each
            for part in (samples.real, samples.imag):
                pvar = np.mean(part**2)
                pse = (target / 2.0) * np.sqrt(2.0 / n)
                assert abs(pvar - target / 2.0) <= 3 * pse

    def test_mean_near_zero(self):
        cfg = RadioConfig(n_antennas=64, n_users=3, pathloss_db=0.0)
        chan = sample_channels(cfg, 5)
        n = chan.uplink.size
        assert abs(np.mean(chan.uplink)) <= 4.0 / np.sqrt(n)


class TestSampleAwgn:
    def test_zero_variance(self):
        out = sample_awgn((4, 5), 0.0, 9, "relay")
        np.testing.assert_array_equal(out, np.zeros((4, 5), dtype=complex))

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError):
            sample_awgn((2,), -1e-12, 9, "relay")

    def test_deterministic_per_label(self):
        a = sample_awgn((8,), 1.0, 9, ("round", 0, "relay"))
        b = sample_awgn((8,), 1.0, 9, ("round", 0, "relay"))
        c = sample_awgn((8,), 1.0, 9, ("round", 1, "relay"))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_variance(self):
        n = 100000
        out = sample_awgn((n,), 2.5, 31, "variance-check")
        var = np.mean(np.abs(out) ** 2)
        se = 2.5 * np.sqrt(2.0 / n)
        assert abs(var - 2.5) <= 3 * se

    def test_stream_independence(self):
        n = 100000
        a = sample_awgn((n,), 1.0, 31, "stream-a")
        b = sample_awgn((n,), 1.0, 31, "stream-b")
        corr = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert corr <= 0.02, f"cross-stream correlation {corr:.4f}"
