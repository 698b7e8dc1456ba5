"""Radio configuration, block-fading channel sampling, and seeded substreams.

Every random draw in the package flows through :func:`substream`, which maps
``(seed, *labels)`` to an independent ``numpy`` Generator.  Labels are hashed
with SHA-256 (never Python's ``hash``, which is salted per process), so the
same seed and labels give bitwise-identical draws across runs and machines,
and differently-labelled streams can be consumed in any order or in parallel
without changing results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelRealization",
    "RadioConfig",
    "db_to_linear",
    "derive_seed",
    "sample_awgn",
    "sample_channels",
    "substream",
]

_U64 = (1 << 64) - 1


def _entropy_words(label):
    """Stable 64-bit words encoding a label (int, str, or nested tuple/list)."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return [0x1, int(label) & _U64]
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return [0x2] + [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
    if isinstance(label, (tuple, list)):
        words = [0x3, len(label)]
        for item in label:
            words.extend(_entropy_words(item))
        return words
    raise TypeError(f"unsupported stream label type: {type(label).__name__}")


def substream(seed, *labels):
    """Independent, reproducible Generator for the given seed and labels."""
    words = [int(seed) & _U64]
    for label in labels:
        words.extend(_entropy_words(label))
    return np.random.default_rng(np.random.SeedSequence(words))


def derive_seed(seed, *labels):
    """Deterministically derive a child integer seed from (seed, labels)."""
    return int(substream(seed, "derive-seed", *labels).integers(0, 1 << 63))


def db_to_linear(value_db):
    """Convert decibels to a linear power ratio."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def _per_user(value, n_users, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_users, float(arr))
    if arr.shape != (n_users,):
        raise ValueError(f"{name} must be a scalar or length-{n_users} sequence, got shape {arr.shape}")
    return arr


@dataclass
class RadioConfig:
    """Static radio parameters of the uplink/relay/downlink chain.

    Defaults are the reference operating point used throughout the tests.

    ``pathloss_db`` / ``noise_power_user`` accept a scalar (shared by all
    users) or one value per user.  ``downlink_pathloss_db=None`` reuses the
    uplink pathloss for the downlink.  Noise powers may be zero so that ideal
    (noise-free) links can be constructed in tests.
    """

    n_antennas: int = 8
    n_users: int = 3
    pathloss_db: float | list = -40.0
    downlink_pathloss_db: float | list | None = None
    noise_power_server: float = 1e-11
    noise_power_user: float | list = 1e-11
    power_budget: float = 1.0
    power_scaling: float = 1.0

    def __post_init__(self):
        self.n_antennas = int(self.n_antennas)
        self.n_users = int(self.n_users)
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be at least 1")
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        self.pathloss_db = _per_user(self.pathloss_db, self.n_users, "pathloss_db")
        if self.downlink_pathloss_db is not None:
            self.downlink_pathloss_db = _per_user(
                self.downlink_pathloss_db, self.n_users, "downlink_pathloss_db"
            )
        self.noise_power_server = float(self.noise_power_server)
        if self.noise_power_server < 0:
            raise ValueError("noise_power_server must be nonnegative")
        self.noise_power_user = _per_user(self.noise_power_user, self.n_users, "noise_power_user")
        if np.any(self.noise_power_user < 0):
            raise ValueError("noise_power_user must be nonnegative")
        self.power_budget = float(self.power_budget)
        if not self.power_budget > 0:
            raise ValueError("power_budget must be strictly positive")
        self.power_scaling = float(self.power_scaling)
        if not self.power_scaling > 0:
            raise ValueError("power_scaling must be strictly positive")

    @property
    def pathloss_linear(self):
        return db_to_linear(self.pathloss_db)

    @property
    def downlink_pathloss_linear(self):
        if self.downlink_pathloss_db is None:
            return self.pathloss_linear
        return db_to_linear(self.downlink_pathloss_db)


@dataclass
class ChannelRealization:
    """One block-fading draw: per-user uplink and downlink channel vectors.

    ``uplink[k]`` and ``downlink[k]`` are the length-N vectors of user k.
    """

    uplink: np.ndarray
    downlink: np.ndarray

    def __post_init__(self):
        self.uplink = np.asarray(self.uplink, dtype=complex)
        self.downlink = np.asarray(self.downlink, dtype=complex)
        if self.uplink.ndim != 2 or self.downlink.shape != self.uplink.shape:
            raise ValueError(
                f"uplink/downlink must be matching (n_users, n_antennas) arrays, "
                f"got {self.uplink.shape} and {self.downlink.shape}"
            )

    @property
    def n_users(self):
        return self.uplink.shape[0]

    @property
    def n_antennas(self):
        return self.uplink.shape[1]


def _circular_gaussian(rng, shape, variance):
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_channels(cfg, seed, round_index=0):
    """Draw one i.i.d. Rayleigh-fading realization for every user.

    Entries of user k's vectors are circularly-symmetric complex Gaussian
    with per-entry variance equal to the user's linear pathloss.  Uplink and
    downlink use independent named substreams; ``round_index`` gives each
    fading block its own draw.
    """
    shape = (cfg.n_users, cfg.n_antennas)
    rng_up = substream(seed, "channel-uplink", int(round_index))
    rng_down = substream(seed, "channel-downlink", int(round_index))
    up = _circular_gaussian(rng_up, shape, cfg.pathloss_linear[:, None])
    down = _circular_gaussian(rng_down, shape, cfg.downlink_pathloss_linear[:, None])
    return ChannelRealization(uplink=up, downlink=down)


def sample_awgn(shape, variance, seed, stream_label):
    """Circularly-symmetric complex Gaussian noise with the given per-entry variance."""
    variance = float(variance)
    if variance < 0:
        raise ValueError("noise variance must be nonnegative")
    if variance == 0:
        return np.zeros(shape, dtype=complex)
    rng = substream(seed, "awgn", stream_label)
    return _circular_gaussian(rng, shape, variance)
