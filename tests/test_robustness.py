"""Robustness sweep over the radios a config can express.

Every case must end in one of two ways: finite results (with the closed-form
MSE matching the simulated chain within ``airfl validate``'s |z| bound), or a
typed ``NumericError``.  The draws cover K=1, N=1, K > N, zero noise, very
large pathloss, and downlinks up to 20 dB stronger than unit gain (the range
a relay amplification moves the downlink pathloss through).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from airfl import checks
from airfl.aircomp import AggregationWeights
from airfl.channel import RadioConfig, sample_channels, substream
from airfl.linalg import NumericError
from airfl.pam import PamConfig, baseline_optimize, run_pam

SWEEP = settings(max_examples=60, derandomize=True, database=None, deadline=None)
MAX_Z = 4.0


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


_pathloss = st.one_of(st.sampled_from([0.0, -40.0, -100.0, -150.0]), st.floats(-150.0, 0.0))
_noise = st.one_of(st.just(0.0), _log_uniform(-13, -1))

radios = st.builds(
    RadioConfig,
    n_antennas=st.integers(1, 6),
    n_users=st.integers(1, 8),
    pathloss_db=_pathloss,
    downlink_pathloss_db=st.one_of(st.none(), st.floats(-150.0, 20.0)),
    noise_power_server=_noise,
    noise_power_user=_noise,
    power_budget=_log_uniform(-3, 2),
)


@SWEEP
@given(radio=radios, seed=st.integers(0, 2**31 - 1), n_symbols=st.integers(1, 3))
def test_closed_form_matches_chain(radio, seed, n_symbols):
    try:
        chan = sample_channels(radio, seed)
        link = checks.random_link(substream(seed, "robustness-link"), chan, radio)
        z = checks.mse_z_scores(link, chan, radio, n_symbols, 4000, seed + 1)[3]
    except NumericError:
        return
    assert np.all(np.isfinite(z)) and np.max(np.abs(z)) <= MAX_Z, f"z = {z}"


@SWEEP
@given(radio=radios, seed=st.integers(0, 2**31 - 1))
def test_optimizers_return_finite_links(radio, seed):
    chan = sample_channels(radio, seed)
    weights = AggregationWeights(substream(seed, "robustness-sizes").uniform(1.0, 5.0, radio.n_users))
    pam_cfg = PamConfig(n_outer=3, m_inner=10, seed=seed)
    for optimize in (run_pam, baseline_optimize):
        try:
            sol = optimize(chan, weights, radio, pam_cfg)
        except NumericError:
            continue
        for value in (sol.f_matrix, sol.r_all, sol.t_all, sol.objective, sol.outer_objectives):
            assert np.all(np.isfinite(value)), f"{optimize.__name__}: {value}"
