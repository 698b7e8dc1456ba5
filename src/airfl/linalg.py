"""Complex linear-algebra primitives used throughout the package.

Vectorization is column-major (:func:`vec_of_matrix`), which every
Kronecker identity in the package assumes.  :func:`phase_project` is the
unit-modulus projection of the relay loop, ``v / |v|`` with each part
divided by ``|v|`` as a real; it agrees with ``exp(1j * angle(v))`` to
within two units in the last place of 1 per part, and falls back to that
formula (zeros mapped to 1) for a whole array when any ``|v|`` is zero,
subnormal or not finite.  :func:`dense_solve` is the dense
solve used by the self-checks' oracles, and the numeric errors here are
the ones the CLI maps to its numeric exit code: the relay u-step (see
``pam._factor_u_step``) raises :class:`IllConditionedError` when a
Woodbury capacitance's condition number exceeds ``CONDITION_LIMIT``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IllConditionedError",
    "NumericError",
    "SingularMatrixError",
    "dense_solve",
    "mat_of_vector",
    "phase_project",
    "vec_of_matrix",
]

#: Condition-number estimate above which the Woodbury capacitance solve refuses.
CONDITION_LIMIT = 1e12

# phase_project divides by |v| only when every |v| lies in [_TINY, _HUGE].
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


class NumericError(RuntimeError):
    """Base class for numerical failures (distinct from bad-input ValueError)."""


class SingularMatrixError(NumericError):
    """Raised when a dense solve meets a (numerically) singular matrix."""


class IllConditionedError(NumericError):
    """Raised when the Woodbury capacitance matrix is too ill-conditioned.

    Attributes
    ----------
    condition_estimate : float
        The offending condition-number estimate.
    """

    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = float(condition_estimate)


def vec_of_matrix(m):
    """Column-major (Fortran order) vectorization of a matrix.

    ``vec_of_matrix(m)[i + j*rows] == m[i, j]``; the convention matters
    because every Kronecker identity in this package assumes it.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    return m.ravel(order="F")


def mat_of_vector(v, rows, cols):
    """Inverse of :func:`vec_of_matrix`: reshape a vector into (rows, cols)."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={v.ndim}")
    if rows < 0 or cols < 0 or rows * cols != v.size:
        raise ValueError(f"cannot reshape length-{v.size} vector to ({rows}, {cols})")
    return v.reshape((rows, cols), order="F")


def dense_solve(m, rhs):
    """Solve ``m @ x = rhs`` for square m, with an explicit singularity error."""
    m = np.asarray(m)
    rhs = np.asarray(rhs)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {m.shape[0]}")
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular linear system: {exc}") from exc
    if not np.all(np.isfinite(x.view(float))):
        raise SingularMatrixError("linear solve produced non-finite values")
    return x


def phase_project(v):
    """Project entrywise onto the unit circle: ``v / |v|``.

    ``|v|`` is ``np.abs(v)``, a hypot, which does not overflow while it is
    finite; the real and imaginary parts of every entry are divided by it
    as reals, one rounding each (a complex divide would multiply by a
    rounded reciprocal).  The output's modulus is 1 to within
    1e-15, and each part is within two units in the last place of 1
    (``2 * eps``) of ``exp(1j * angle(v))``'s; the two differ in the last
    bits for most entries.

    When any ``|v|`` is zero, subnormal (below ``np.finfo(float).tiny``) or
    not finite, the whole array is projected as ``exp(1j * angle(v))``
    instead, with zero entries (including ``-0.0``) mapped to ``1+0j`` by
    convention, so the output has unit modulus wherever the input is finite
    and a NaN entry stays NaN.
    """
    v = np.asarray(v, dtype=complex)
    mag = np.abs(v)
    if v.size and mag.min() >= _TINY and mag.max() <= _HUGE:
        parts = np.ascontiguousarray(v).view(float).reshape(v.shape + (2,))
        # |v| written out once per part makes the divide one contiguous
        # loop; broadcasting |v|[..., None] runs it two entries at a time.
        quotient = np.empty_like(parts)
        quotient[..., 0] = mag
        quotient[..., 1] = mag
        np.divide(parts, quotient, out=quotient)
        out = quotient.view(complex).reshape(v.shape)
        return out if out.ndim else out[()]
    out = np.exp(1j * np.angle(v))
    if out.ndim == 0:
        return np.complex128(1.0) if v == 0 else np.complex128(out)
    out[v == 0] = 1.0
    return out
