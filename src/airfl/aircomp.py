"""Analog over-the-air aggregation: encode, superimpose, forward, decode, MSE.

Model parameters are real vectors of even length M.  Each user packs
consecutive pairs into S = M/2 complex symbols, scales them by its transmit
coefficient over sqrt(2*eta) (eta is the average per-entry second moment
across users), and all users transmit simultaneously.  The relay applies a
square matrix F (unit-modulus entries when produced by the optimizer) and
rebroadcasts; each user equalizes with a scalar receive coefficient and
unpacks.  Any relay amplification is part of the downlink gains.

``over_the_air`` is the one implementation of that chain, from parameters
to received symbols; the training loop and the Monte Carlo check both run
it.  ``analytic_mse`` is the closed-form per-user MSE of the chain against
the weighted aggregate of the transmitted parameters; ``monte_carlo_mse``
is the simulation twin used to validate it.  It streams the chain in
chunks, and one helper thread draws the next chunk's noise while the
caller runs the current one; the draws are the same as drawn all at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import substream

# Draws per pass of the Monte Carlo chain: bounds its memory, not its draws.
# Two chunks of noise are held at once, the one in use and the one read ahead.
_MC_CHUNK = 1024

__all__ = [
    "AggregationWeights",
    "analytic_mse",
    "global_target",
    "monte_carlo_mse",
    "mse_bracket_terms",
    "over_the_air",
]


@dataclass
class AggregationWeights:
    """Dataset sizes and the induced normalized aggregation weights."""

    dataset_sizes: np.ndarray
    alpha: np.ndarray = None

    def __post_init__(self):
        sizes = np.asarray(self.dataset_sizes, dtype=float)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("dataset_sizes must be a nonempty 1-D sequence")
        if np.any(sizes <= 0):
            raise ValueError("dataset_sizes must be strictly positive")
        self.dataset_sizes = sizes
        self.alpha = sizes / sizes.sum()


def global_target(x_all, weights):
    """Weighted aggregate the protocol is trying to deliver: sum_k alpha_k x_k.

    ``x_all`` is (K, M) or a batch (..., K, M); the sum runs over the user axis.
    """
    x = np.asarray(x_all)
    if x.ndim < 2 or x.shape[-2] != weights.alpha.size:
        raise ValueError("x_all must have one row per weight along its user axis")
    return np.einsum("k,...km->...m", weights.alpha, x)


def over_the_air(x_batch, f_matrix, t_all, chan, eta, relay_noise, user_noise):
    """Symbols every user receives from one pass of the analog chain, batched.

    ``x_batch`` is (R, K, M) real.  Each user packs its parameters pairwise
    into S = M/2 complex symbols and scales them by t_k / sqrt(2 eta); the
    uplinks superimpose at the relay, which adds ``relay_noise`` (R, N, S)
    and forwards F times its observation; user k observes g_k^H of the
    broadcast plus ``user_noise`` (R, K, S).  ``eta`` is a scalar or one
    value per batch entry.  Returns the (R, K, S) received symbols;
    equalization and unpacking are left to the caller.
    """
    x_batch = np.asarray(x_batch, dtype=float)
    if x_batch.ndim != 3 or x_batch.shape[1] != chan.n_users or x_batch.shape[2] % 2:
        raise ValueError(
            f"x_batch must be (replays, {chan.n_users}, even model_dim), got {x_batch.shape}"
        )
    replays, k_users, model_dim = x_batch.shape
    n_symbols = model_dim // 2
    if relay_noise.shape != (replays, chan.n_antennas, n_symbols):
        raise ValueError(f"relay_noise must be {(replays, chan.n_antennas, n_symbols)}")
    if user_noise.shape != (replays, k_users, n_symbols):
        raise ValueError(f"user_noise must be {(replays, k_users, n_symbols)}")
    root = np.sqrt(2.0 * np.asarray(eta, dtype=float)).reshape(-1, 1, 1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    # One matrix product per stage over all R*S symbols: each stage is an
    # (N or K, R*S) array whose column r*S + s is symbol s of replay r.  The
    # relay noise is added in place through an (N, R, S) view, and each
    # stage rebinds ``signal`` so the previous stage's array is freed; the
    # Monte Carlo check passes at most ``_MC_CHUNK`` draws as R.
    signal = (t_all[None, :, None] / root) * (x_batch[..., 0::2] + 1j * x_batch[..., 1::2])
    signal = chan.uplink.T @ signal.transpose(1, 0, 2).reshape(k_users, replays * n_symbols)
    signal.reshape(chan.n_antennas, replays, n_symbols)[...] += relay_noise.transpose(1, 0, 2)
    signal = np.asarray(f_matrix, dtype=complex) @ signal
    signal = (chan.downlink.conj() @ signal).reshape(k_users, replays, n_symbols)
    return signal.transpose(1, 0, 2) + user_noise


def _effective_gains(f_matrix, chan):
    """(K, K) matrix of g_k^H F h_j and (K,) row norms ||g_k^H F||."""
    gf = chan.downlink.conj() @ np.asarray(f_matrix, dtype=complex)
    gains = gf @ chan.uplink.T
    row_norm_sq = np.sum(np.abs(gf) ** 2, axis=1)
    return gains, row_norm_sq


def mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, cfg):
    """Per-user bracket of the closed-form MSE (everything except 2*eta*S).

    For user k:  sum_j |r_k g_k^H F h_j t_j - alpha_j|^2
               + noise_server * |r_k|^2 ||g_k^H F||^2
               + noise_user_k * |r_k|^2

    Times 2 * eta * S this is the exact second moment of the chain's error.
    """
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    alpha = weights.alpha
    if r_all.size != chan.n_users or t_all.size != chan.n_users or alpha.size != chan.n_users:
        raise ValueError("r_all, t_all and weights must all cover every user")
    gains, row_norm_sq = _effective_gains(f_matrix, chan)
    misalign = r_all[:, None] * gains * t_all[None, :] - alpha[None, :]
    signal = np.sum(np.abs(misalign) ** 2, axis=1)
    relay_noise = cfg.noise_power_server * np.abs(r_all) ** 2 * row_norm_sq
    local_noise = cfg.noise_power_user * np.abs(r_all) ** 2
    return signal + relay_noise + local_noise


def analytic_mse(f_matrix, r_all, t_all, chan, weights, cfg, eta, n_symbols):
    """Closed-form per-user MSE: 2 * eta * S * bracket (see mse_bracket_terms).

    ``eta`` is one power normalization, giving (K,), or one per replay (R,),
    giving (R, K).
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(eta > 0):
        raise ValueError("eta must be strictly positive")
    if int(n_symbols) < 1:
        raise ValueError("n_symbols must be at least 1")
    bracket = mse_bracket_terms(f_matrix, r_all, t_all, chan, weights, cfg)
    return 2.0 * eta[..., None] * int(n_symbols) * bracket


def _noise_chunks(seed, label, scale, draws, shape):
    """Complex Gaussian noise ``scale * (re + 1j im)``, (draws, *shape), in chunks.

    Yields the same values as drawing all ``draws`` real parts and then all
    imaginary parts from ``substream(seed, label)`` in one call each: a
    second generator on the same stream is first moved past the real parts
    by drawing and discarding them (the ziggurat sampler uses a variable
    number of words per sample, so the stream cannot be advanced by count).

    Every draw goes into one reused real buffer, and each chunk is
    assembled in place into one of two complex buffers, taken in turn: a
    yielded chunk stays valid until the one after it has been requested.
    """
    rng_re = substream(seed, label)
    rng_im = substream(seed, label)
    sizes = [min(_MC_CHUNK, draws - start) for start in range(0, draws, _MC_CHUNK)]
    parts = np.empty((sizes[0], *shape))
    slots = (np.empty(parts.shape, dtype=complex), np.empty(parts.shape, dtype=complex))
    # Spread to a whole chunk: multiplying by a broadcast operand makes
    # numpy allocate a 64 KiB ufunc buffer for the call, and on a helper
    # thread that would move the peak memory with the threads' timing.
    scale = np.broadcast_to(scale, parts.shape).copy()
    for size in sizes:
        rng_im.standard_normal(out=parts[:size])
    for index, size in enumerate(sizes):
        chunk = slots[index % 2][:size]
        np.multiply(rng_re.standard_normal(out=parts[:size]), scale[:size], out=chunk.real)
        np.multiply(rng_im.standard_normal(out=parts[:size]), scale[:size], out=chunk.imag)
        yield chunk


def monte_carlo_mse(f_matrix, r_all, t_all, chan, weights, cfg, eta, n_symbols, draws, seed):
    """Simulation estimate of the per-user MSE and its standard error.

    Draws synthetic parameter vectors with i.i.d. zero-mean Gaussian entries
    of variance ``eta`` (matching the second-moment model the closed form
    assumes), runs them through :func:`over_the_air` with its own noise
    draws, equalizes, and averages ||decoded_k - target||^2 (pairwise
    packing is an isometry, so the error is taken on the symbols).

    The chain runs on ``_MC_CHUNK`` draws at a time.  One helper thread
    draws the next chunk's noise while the calling thread draws the
    parameters, runs the chain and reduces the errors of the current one;
    each generator stays on one thread and keeps its order.  Memory is
    O(2 * _MC_CHUNK * N * S + draws * K): the chunk in use and the one read
    ahead, and the (draws, K) squared errors, from which the mean and
    standard error are reduced once.  The draws do not depend on the chunk
    size or on the threads: parameters come in order from the
    "mc-parameters" substream, and each noise substream ("mc-relay-noise",
    "mc-user-noise") holds all real parts, then all imaginary parts, read
    by two generators (see :func:`_noise_chunks`).

    Returns
    -------
    (mean, stderr) : pair of (K,) arrays
    """
    # Imported on first use, so that ``import airfl`` does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    if not eta > 0:
        raise ValueError("eta must be strictly positive")
    draws = int(draws)
    if draws < 2:
        raise ValueError("need at least 2 draws for a standard error")
    n_symbols = int(n_symbols)
    if n_symbols < 1:
        raise ValueError("n_symbols must be at least 1")
    model_dim = 2 * n_symbols
    k_users = chan.n_users
    rng_x = substream(seed, "mc-parameters")
    relay_noise = _noise_chunks(
        seed, "mc-relay-noise", np.sqrt(cfg.noise_power_server / 2.0), draws,
        (chan.n_antennas, n_symbols),
    )
    user_scale = np.sqrt(np.asarray(cfg.noise_power_user, dtype=float) / 2.0)[None, :, None]
    user_noise = _noise_chunks(seed, "mc-user-noise", user_scale, draws, (k_users, n_symbols))
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    sq = np.empty((draws, k_users))
    noise = zip(relay_noise, user_noise)
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(next, noise, None)
        for start in range(0, draws, _MC_CHUNK):
            relay, user = pending.result()
            # The helper refills the buffers of the chunk before this one,
            # which is done with; past the last chunk it returns None.
            pending = helper.submit(next, noise, None)
            stop = min(start + _MC_CHUNK, draws)
            x_draws = np.sqrt(eta) * rng_x.standard_normal((stop - start, k_users, model_dim))
            target = global_target(x_draws[..., 0::2] + 1j * x_draws[..., 1::2], weights)
            received = over_the_air(x_draws, f_matrix, t_all, chan, eta, relay, user)
            err = np.sqrt(2.0 * eta) * r_all[None, :, None] * received - target[:, None, :]
            sq[start:stop] = np.sum(np.abs(err) ** 2, axis=2)
    mean = sq.mean(axis=0)
    stderr = sq.std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, stderr
