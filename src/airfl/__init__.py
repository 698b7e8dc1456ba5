"""Over-the-air federated learning through a phase-shift relay.

The package simulates and optimizes a system in which single-antenna users
upload model updates simultaneously over a fading multiple-access channel;
a multi-antenna relay applies a unit-modulus (phase-only) linear transform
and forwards the superposition; each user decodes the aggregated model from
its downlink observation.  The relay matrix, user transmit coefficients and
user receive coefficients are chosen to minimize the worst per-user mean
squared error of the aggregated update.

Modules
-------
linalg
    Unit-modulus projection, column-major vectorization helpers, the dense
    solve of the self-checks, and the numeric error types.
channel
    Seeded channel sampling, RNG substreams and radio configuration.
aircomp
    The analog aggregation chain (one batched function, from parameters to
    each user's estimate, and one noise sampler) and the closed-form
    per-user MSE with its Monte Carlo twin.
pam
    Penalized alternating optimization of the relay matrix plus the
    closed-form receive update and the min-max transmit update; identity
    relay baseline.
flsim
    Synthetic learning tasks, local gradient steps, the contraction bound
    on the optimality gap, and full multi-round experiments.
checks
    Self-checks of the numerical claims (solver oracles, stationarity,
    monotonicity, closed-form vs simulated MSE), shared by ``airfl
    validate`` and the acceptance criteria.
cli
    ``airfl`` command-line interface (optimize / simulate / mse-check /
    validate).
"""

from . import aircomp, channel, checks, cli, flsim, linalg, pam

__version__ = "0.1.0"

__all__ = ["aircomp", "channel", "checks", "cli", "flsim", "linalg", "pam", "__version__"]
