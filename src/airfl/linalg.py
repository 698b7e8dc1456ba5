"""Complex linear-algebra primitives used throughout the package.

The interesting piece here is :func:`structured_solve`: the relay
subproblem produces Hermitian systems of the form

    (sum_j a_j a_j^H  +  c * I_N kron (g g^H)  +  ridge * I) x = rhs

on vectors of length N^2.  Materializing that matrix costs O(N^4) memory,
so the solver applies the inverse directly: Sherman-Morrison on each of
the N diagonal blocks (the Kronecker-plus-ridge part is block diagonal
with identical N x N blocks), then a rank-K Woodbury correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IllConditionedError",
    "NumericError",
    "SingularMatrixError",
    "StructuredGram",
    "dense_solve",
    "mat_of_vector",
    "phase_project",
    "structured_solve",
    "vec_of_matrix",
]

#: Condition-number estimate above which the Woodbury capacitance solve refuses.
CONDITION_LIMIT = 1e12


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
    """Project entrywise onto the unit circle: ``exp(1j * angle(v))``.

    Zero entries (including ``-0.0``) map to ``1+0j`` by convention, so the
    output always has unit modulus everywhere.
    """
    v = np.asarray(v, dtype=complex)
    out = np.exp(1j * np.angle(v))
    if out.ndim == 0:
        return np.complex128(1.0) if v == 0 else np.complex128(out)
    out[v == 0] = 1.0
    return out


@dataclass
class StructuredGram:
    """Hermitian PD operator ``sum_j a_j a_j^H + c * I kron (g g^H) + ridge * I``.

    Parameters
    ----------
    dim : int
        Ambient dimension.  When ``kron_scale > 0`` this must equal
        ``len(kron_vector) ** 2``.
    rank_one : ndarray, shape (dim, k)
        Columns are the rank-one vectors a_j.  May have zero columns.
    kron_scale : float
        Nonnegative coefficient c of the Kronecker block.
    kron_vector : ndarray or None
        The vector g defining ``I kron (g g^H)``; required iff kron_scale > 0.
    ridge : float
        Strictly positive ridge, which guarantees positive definiteness.
    """

    dim: int
    rank_one: np.ndarray
    kron_scale: float
    kron_vector: np.ndarray | None
    ridge: float

    def __post_init__(self):
        self.dim = int(self.dim)
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        self.rank_one = np.asarray(self.rank_one, dtype=complex)
        if self.rank_one.size == 0:
            self.rank_one = np.zeros((self.dim, 0), dtype=complex)
        if self.rank_one.ndim != 2 or self.rank_one.shape[0] != self.dim:
            raise ValueError(
                f"rank_one must be (dim, k) = ({self.dim}, k), got {self.rank_one.shape}"
            )
        self.kron_scale = float(self.kron_scale)
        if self.kron_scale < 0:
            raise ValueError("kron_scale must be nonnegative")
        if not np.isfinite(self.kron_scale):
            raise ValueError("kron_scale must be finite")
        if self.kron_scale > 0:
            if self.kron_vector is None:
                raise ValueError("kron_vector is required when kron_scale > 0")
            self.kron_vector = np.asarray(self.kron_vector, dtype=complex).reshape(-1)
            if self.kron_vector.size ** 2 != self.dim:
                raise ValueError(
                    f"dim must equal len(kron_vector)^2: {self.dim} != {self.kron_vector.size}^2"
                )
        self.ridge = float(self.ridge)
        if not (self.ridge > 0) or not np.isfinite(self.ridge):
            raise ValueError("ridge must be strictly positive and finite")

    @property
    def n_rank_one(self):
        return self.rank_one.shape[1]

    def apply(self, x):
        """Matrix-vector product without materializing the operator."""
        x = np.asarray(x, dtype=complex)
        out = self.ridge * x
        if self.n_rank_one:
            out = out + self.rank_one @ (self.rank_one.conj().T @ x)
        if self.kron_scale > 0:
            g = self.kron_vector
            n = g.size
            xm = x.reshape((n, n), order="F")
            out = out + self.kron_scale * np.outer(g, g.conj() @ xm).ravel(order="F")
        return out

    def materialize(self):
        """Dense matrix form; only sensible for small dims (tests, validation)."""
        m = self.ridge * np.eye(self.dim, dtype=complex)
        if self.n_rank_one:
            m = m + self.rank_one @ self.rank_one.conj().T
        if self.kron_scale > 0:
            g = self.kron_vector
            m = m + self.kron_scale * np.kron(np.eye(g.size), np.outer(g, g.conj()))
        return m


def _apply_base_inverse(gram, x):
    """Apply the inverse of ``c * I kron (g g^H) + ridge * I`` to x.

    Block-diagonal structure: each of the N diagonal blocks is the same
    ``ridge * I_N + c g g^H``, inverted by Sherman-Morrison in O(N) per block.
    ``x`` may be a vector or a (dim, m) stack of columns.
    """
    if gram.kron_scale == 0:
        return x / gram.ridge
    g = gram.kron_vector
    n = g.size
    single = x.ndim == 1
    cols = x.reshape((gram.dim, -1))
    stacked = cols.reshape((n, n, cols.shape[1]), order="F")
    denom = gram.ridge + gram.kron_scale * np.real(g.conj() @ g)
    proj = np.einsum("i,ijl->jl", g.conj(), stacked)
    corrected = (stacked - (gram.kron_scale / denom) * g[:, None, None] * proj[None, :, :])
    out = corrected.reshape((gram.dim, cols.shape[1]), order="F") / gram.ridge
    return out[:, 0] if single else out


def structured_solve(gram, rhs):
    """Solve ``gram @ x = rhs`` using the block/Woodbury structure.

    Cost is O(k * dim + k^3) plus k extra O(dim) block inversions; no
    dim x dim matrix is ever formed.  The k x k Woodbury capacitance matrix
    is Hermitian positive definite by construction; its eigenvalue-ratio
    condition number is checked and :class:`IllConditionedError` is raised
    above ``CONDITION_LIMIT``.

    Parameters
    ----------
    gram : StructuredGram
    rhs : ndarray, shape (dim,)

    Returns
    -------
    ndarray, shape (dim,)
    """
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (gram.dim,):
        raise ValueError(f"rhs must have shape ({gram.dim},), got {rhs.shape}")
    k = gram.n_rank_one
    if k == 0:
        return _apply_base_inverse(gram, rhs)
    a = gram.rank_one
    applied = _apply_base_inverse(gram, np.column_stack([rhs, a]))
    y = applied[:, 0]
    base_inv_a = applied[:, 1:]
    capacitance = np.eye(k, dtype=complex) + a.conj().T @ base_inv_a
    eigs = np.linalg.eigvalsh(0.5 * (capacitance + capacitance.conj().T))
    cond = np.inf if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"Woodbury capacitance matrix condition estimate {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.1e}; the system is numerically unreliable",
            cond,
        )
    correction = np.linalg.solve(capacitance, a.conj().T @ y)
    return y - base_inv_a @ correction
