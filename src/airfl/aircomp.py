"""Analog over-the-air aggregation: encode, superimpose, forward, decode, MSE.

Model parameters are real vectors of even length M.  Each user packs
consecutive pairs into S = M/2 complex symbols, scales them by its transmit
coefficient over sqrt(2*eta) (eta is the average per-entry second moment
across users), and all users transmit simultaneously.  The relay applies a
square matrix F (unit-modulus entries when produced by the optimizer) and
rebroadcasts; each user equalizes with a scalar receive coefficient and
unpacks.  Any relay amplification is part of the downlink gains.

``over_the_air`` is the one implementation of that chain, from parameters
to each user's estimate, ``chain_buffers`` its work space and
``_chain_noise`` its one noise sampler; the training loop and the Monte
Carlo check both run them, chunk by chunk, on buffers allocated once per
call.  ``analytic_mse`` is the closed-form per-user MSE of the chain against
the weighted aggregate of the transmitted parameters; ``monte_carlo_mse`` is
the simulation twin used to validate it, one helper thread drawing the next
chunk's noise while the caller runs the current one, with the moments of
the errors summed as they stream, so its memory does not grow with the
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import substream

# Draws or training replays per pass of the chain: sizes every buffer of a
# chunked pass, not its draws.  Monte Carlo holds two chunks of noise, in use
# and read ahead.
_MC_CHUNK = 1024

__all__ = [
    "AggregationWeights",
    "analytic_mse",
    "chain_buffers",
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


def chain_buffers(replays, chan, n_symbols):
    """Work space for :func:`over_the_air` on up to ``replays`` replays of S symbols.

    Three flat complex buffers: K * replays * S entries for the sent and
    then the received symbols, and N * replays * S each for the relay's
    observation and its forward.
    """
    size = int(replays) * int(n_symbols)
    return (
        np.empty(chan.n_users * size, dtype=complex),
        np.empty(chan.n_antennas * size, dtype=complex),
        np.empty(chan.n_antennas * size, dtype=complex),
    )


def over_the_air(x_batch, f_matrix, r_all, t_all, chan, eta, relay_noise, user_noise, buffers):
    """Every user's estimate of the aggregate from one pass of the analog chain, batched.

    ``x_batch`` is (R, K, M) real.  Each user packs its parameters pairwise
    into S = M/2 complex symbols and scales them by t_k / sqrt(2 eta); the
    uplinks superimpose at the relay, which adds ``relay_noise`` (R, N, S)
    and forwards F times its observation; user k observes g_k^H of the
    broadcast plus ``user_noise`` (R, K, S), and equalizes it by
    sqrt(2 eta) r_k.  ``eta`` is a scalar or one value per batch entry.
    Every stage runs in ``buffers`` (see :func:`chain_buffers`, sized for at
    least R replays).  Returns the (R, K, S) estimated symbols, a view into
    ``buffers`` that the next pass overwrites; unpacking is left to the caller.
    """
    x_batch = np.ascontiguousarray(x_batch, dtype=float)
    if x_batch.ndim != 3 or x_batch.shape[1] != chan.n_users or x_batch.shape[2] % 2:
        raise ValueError(
            f"x_batch must be (replays, {chan.n_users}, even model_dim), got {x_batch.shape}"
        )
    replays, k_users, model_dim = x_batch.shape
    n_antennas = chan.n_antennas
    n_symbols = model_dim // 2
    if relay_noise.shape != (replays, n_antennas, n_symbols):
        raise ValueError(f"relay_noise must be {(replays, n_antennas, n_symbols)}")
    if user_noise.shape != (replays, k_users, n_symbols):
        raise ValueError(f"user_noise must be {(replays, k_users, n_symbols)}")
    # Buffers sized for fewer than R replays fail to reshape (ValueError).
    size = replays * n_symbols
    sent, observed, forwarded = (
        buf[: rows * size].reshape(rows, size)
        for buf, rows in zip(buffers, (k_users, n_antennas, n_antennas))
    )
    root = np.sqrt(2.0 * np.asarray(eta, dtype=float)).reshape(-1, 1, 1)
    r_all = np.asarray(r_all, dtype=complex).reshape(-1)
    t_all = np.asarray(t_all, dtype=complex).reshape(-1)
    # One matrix product per stage over all R*S symbols: each stage is an
    # (N or K, R*S) array whose column r*S + s is symbol s of replay r.  A
    # complex view of the real parameters pairs entries 2s and 2s+1 as
    # symbol s; the sent symbols are written through an (R, K, S) view, the
    # relay noise is added through an (N, R, S) one, and the received
    # symbols overwrite the sent ones.
    np.multiply(
        t_all[None, :, None] / root,
        x_batch.view(complex),
        out=sent.reshape(k_users, replays, n_symbols).transpose(1, 0, 2),
    )
    np.matmul(chan.uplink.T, sent, out=observed)
    observed.reshape(n_antennas, replays, n_symbols)[...] += relay_noise.transpose(1, 0, 2)
    np.matmul(np.asarray(f_matrix, dtype=complex), observed, out=forwarded)
    np.matmul(chan.downlink.conj(), forwarded, out=sent)
    received = sent.reshape(k_users, replays, n_symbols).transpose(1, 0, 2)
    received += user_noise
    return np.multiply(root * r_all[None, :, None], received, out=received)


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
    return _bracket_rows(r_all[:, None] * gains, alpha, t_all, _noise_terms(r_all, row_norm_sq, cfg))


def _bracket_rows(coeff, alpha, t_all, noise):
    """Per-user brackets sum_j |coeff[k, j] t_j - alpha_j|^2 + relay_k + local_k.

    ``coeff[k, j]`` is r_k g_k^H F h_j and ``noise`` the pair (relay, local)
    of per-user noise terms; ``pam.update_t`` evaluates it at many t.
    """
    resid = coeff * t_all[None, :] - alpha[None, :]
    return np.sum(np.abs(resid) ** 2, axis=1) + noise[0] + noise[1]


def _noise_terms(r_all, row_norm_sq, cfg):
    """The bracket's per-user (relay, local) noise terms, which t does not change."""
    relay_noise = cfg.noise_power_server * np.abs(r_all) ** 2 * row_norm_sq
    local_noise = cfg.noise_power_user * np.abs(r_all) ** 2
    return relay_noise, local_noise


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


def _noise_chunks(seed, label, power, draws, shape):
    """Complex Gaussian noise of entry power ``power``, (draws, *shape), in chunks.

    One generator, ``substream(seed, label)``, draws into each chunk's float
    view, so an entry's real and imaginary parts are consecutive draws, in
    C order over (draw, *shape), whatever the chunk size.  Each chunk is
    drawn and scaled in place in one of two complex buffers, taken in turn:
    a yielded chunk stays valid until the one after it has been requested.
    """
    rng = substream(seed, label)
    first = (min(_MC_CHUNK, draws), *shape)
    slots = (np.empty(first, dtype=complex), np.empty(first, dtype=complex))
    scale = np.sqrt(np.asarray(power, dtype=float) / 2.0)
    if scale.ndim:
        # Spread to a chunk's float view, once per part: a broadcast operand
        # makes numpy allocate a 64 KiB ufunc buffer for the multiply, and on
        # a helper thread that would move the peak memory with the threads'
        # timing.  A scalar power needs no buffer.
        scale = np.repeat(np.broadcast_to(scale, first), 2, axis=-1)
    for index, start in enumerate(range(0, draws, _MC_CHUNK)):
        chunk = slots[index % 2][: draws - start]
        parts = rng.standard_normal(out=chunk.view(float))
        np.multiply(parts, scale[: len(parts)] if scale.ndim else scale, out=parts)
        yield chunk


def _chain_noise(seed, relay_label, user_label, cfg, chan, draws, n_symbols):
    """Pairs of relay (draws, N, S) and user (draws, K, S) noise chunks (see _noise_chunks)."""
    return zip(
        _noise_chunks(seed, relay_label, cfg.noise_power_server, draws, (chan.n_antennas, n_symbols)),
        _noise_chunks(seed, user_label, cfg.noise_power_user[:, None], draws, (chan.n_users, n_symbols)),
    )


def monte_carlo_mse(f_matrix, r_all, t_all, chan, weights, cfg, eta, n_symbols, draws, seed):
    """Simulation estimate of the per-user MSE and its standard error.

    Draws synthetic parameter vectors with i.i.d. zero-mean Gaussian entries
    of variance ``eta`` (matching the second-moment model the closed form
    assumes), runs them through :func:`over_the_air` with its own noise
    draws, and averages ||estimate_k - target||^2 (pairwise packing is an
    isometry, so the error is taken on the symbols).

    The chain runs on ``_MC_CHUNK`` draws at a time.  One helper thread
    draws the next chunk's noise while the calling thread draws the
    parameters, runs the chain and reduces the errors of the current one;
    each generator stays on one thread and keeps its order.  No draw's error
    is kept: each chunk's squared errors e, their offsets d = e - e_1 from
    the first draw's and d^2 are summed in draw order onto running sums, and
    the variance is the shifted one-pass (S_dd - S_d^2 / n) / (n - 1)
    (Chan, Golub & LeVeque, 1983), clamped at 0.  So the mean is the plain
    sequential sum of e over n, whatever the chunk size, and memory is
    O(_MC_CHUNK * (N + K) * S), independent of the draws: two chunks of
    noise, in use and read ahead, and one of parameters and of each chain
    stage, all allocated once per call.  The draws do not depend on the
    chunk size or on the threads: parameters come in order from the
    "mc-parameters" substream, and each noise substream ("mc-relay-noise",
    "mc-user-noise") is read by one generator, each entry's real and
    imaginary parts back to back (see :func:`_chain_noise`).

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
    k_users = chan.n_users
    chunk = min(_MC_CHUNK, draws)
    rng_x = substream(seed, "mc-parameters")
    x_chunk = np.empty((chunk, k_users, 2 * n_symbols))
    buffers = chain_buffers(chunk, chan, n_symbols)
    # Row 0 carries the running sums of (e, d, d^2) per user, and rows
    # 1..n hold a chunk's n draws: one sum over the rows adds the chunk's
    # draws, in order, onto the draws before it.
    moments = np.zeros((chunk + 1, 3, k_users))
    sums = np.empty((3, k_users))
    noise = _chain_noise(seed, "mc-relay-noise", "mc-user-noise", cfg, chan, draws, n_symbols)
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(next, noise, None)
        for start in range(0, draws, _MC_CHUNK):
            relay, user = pending.result()
            # The helper refills the buffers of the chunk before this one,
            # which is done with; past the last chunk it returns None.
            pending = helper.submit(next, noise, None)
            rows = len(relay)
            x_draws = rng_x.standard_normal(out=x_chunk[:rows])
            np.multiply(np.sqrt(eta), x_draws, out=x_draws)
            target = global_target(x_draws.view(complex), weights)
            err = over_the_air(x_draws, f_matrix, r_all, t_all, chan, eta, relay, user, buffers)
            err -= target[:, None, :]
            # |err|^2 in the parameters' buffer, laid out as err is.
            sq = x_chunk.reshape(-1)[: err.size].reshape(k_users, rows, n_symbols).transpose(1, 0, 2)
            np.square(np.abs(err, out=sq), out=sq)
            errors = moments[1 : rows + 1]
            np.add.reduce(sq, axis=2, out=errors[:, 0])
            if start == 0:
                shift = errors[0, 0].copy()
            np.subtract(errors[:, 0], shift, out=errors[:, 1])
            np.multiply(errors[:, 1], errors[:, 1], out=errors[:, 2])
            np.add.reduce(moments[: rows + 1], axis=0, out=sums)
            moments[0] = sums
    shifted_sq = sums[2] - sums[1] * sums[1] / draws
    stderr = np.sqrt(np.maximum(shifted_sq, 0.0) / (draws - 1)) / np.sqrt(draws)
    return sums[0] / draws, stderr
