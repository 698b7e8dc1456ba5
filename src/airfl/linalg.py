"""Complex linear-algebra primitives used throughout the package.

The interesting piece here is :class:`StructuredFactor`: the relay
subproblem produces Hermitian systems of the form

    (sum_j a_j a_j^H  +  c * I_N kron (g g^H)  +  ridge * I) x = rhs

on vectors of length N^2.  Materializing that matrix costs O(N^4) memory,
so the solver applies the inverse directly: Sherman-Morrison on each of
the N diagonal blocks (the Kronecker-plus-ridge part is block diagonal
with identical N x N blocks), then a rank-K Woodbury correction.  The
factor does the right-hand-side-free part once for a stack of such
systems: the block inverse applied to the rank-one columns, the K x K
capacitance matrices and their condition check.  Each solve then costs one
batched block-inverse pass, one batched K x K solve and one batched
product.  :func:`structured_solve` is the one-system, one-solve case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IllConditionedError",
    "NumericError",
    "SingularMatrixError",
    "StructuredFactor",
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


class StructuredFactor:
    """Factored inverses of a stack of :class:`StructuredGram` operators.

    The grams must share ``dim`` and their number of rank-one columns k.
    Building the factor applies each gram's base inverse B^-1 (the
    Kronecker-plus-ridge part) to its rank-one columns A, forms each k x k
    Woodbury capacitance ``I + A^H B^-1 A`` and checks its condition number,
    raising :class:`IllConditionedError` above ``CONDITION_LIMIT``.  Every
    later :meth:`solve` reuses that work, so many right-hand sides per gram
    cost one base-inverse pass each plus a k x k solve.

    Parameters
    ----------
    grams : sequence of StructuredGram
    """

    def __init__(self, grams):
        self.grams = list(grams)
        if not self.grams:
            raise ValueError("a factor needs at least one gram")
        self.dim = self.grams[0].dim
        k = self.grams[0].n_rank_one
        if any(gram.dim != self.dim or gram.n_rank_one != k for gram in self.grams):
            raise ValueError("grams in one factor must share dim and the number of rank-one columns")
        batch = len(self.grams)
        self.ridge = np.array([gram.ridge for gram in self.grams])
        self.kron = np.array([gram.kron_scale > 0 for gram in self.grams])
        if np.any(self.kron):
            n = round(self.dim**0.5)
            self.kron_vector = np.zeros((batch, n), dtype=complex)
            # Sherman-Morrison weight c / (ridge + c ||g||^2) of each gram's
            # identical N x N diagonal blocks ridge * I + c g g^H.
            self.kron_weight = np.zeros(batch)
            for b, gram in enumerate(self.grams):
                if self.kron[b]:
                    g = gram.kron_vector
                    self.kron_vector[b] = g
                    self.kron_weight[b] = gram.kron_scale / (gram.ridge + gram.kron_scale * np.real(g.conj() @ g))
        self.capacitance = None
        if k == 0:
            return
        # B^-1 A is held transposed, (batch, k, dim), so that each gram's
        # (dim, k) block is column-major like the base inverse's own output;
        # the rounding of the BLAS products below depends on that layout.
        self.base_inv_a = np.empty((batch, k, self.dim), dtype=complex)
        capacitance = np.empty((batch, k, k), dtype=complex)
        for b, gram in enumerate(self.grams):
            applied = self._apply_base_inverse(gram.rank_one[None], slice(b, b + 1))[0]
            self.base_inv_a[b] = applied.T
            capacitance[b] = np.eye(k, dtype=complex) + gram.rank_one.conj().T @ applied
        eigs = np.linalg.eigvalsh(0.5 * (capacitance + np.swapaxes(capacitance.conj(), 1, 2)))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(eigs[:, 0] <= 0, np.inf, eigs[:, -1] / eigs[:, 0])
        bad = ~np.isfinite(cond) | (cond > CONDITION_LIMIT)
        if np.any(bad):
            worst = float(cond[np.argmax(bad)])
            raise IllConditionedError(
                f"Woodbury capacitance matrix condition estimate {worst:.3e} exceeds "
                f"{CONDITION_LIMIT:.1e}; the system is numerically unreliable",
                worst,
            )
        self.capacitance = capacitance

    def _apply_base_inverse(self, x, which):
        """Apply the inverse of ``c * I kron (g g^H) + ridge * I`` of each gram.

        Block-diagonal structure: each of the N diagonal blocks is the same
        ``ridge * I_N + c g g^H``, inverted by Sherman-Morrison in O(N) per
        block.  ``x`` is a (batch, dim, m) stack for the grams selected by
        the slice ``which``.
        """
        ridge = self.ridge[which][:, None, None]
        kron = self.kron[which]
        out = x / ridge
        if np.any(kron):
            g = self.kron_vector[which][kron]
            n = g.shape[1]
            m = x.shape[2]
            stacked = x[kron].reshape((-1, n, n, m), order="F")
            proj = np.einsum("bi,bijl->bjl", g.conj(), stacked)
            weight = self.kron_weight[which][kron][:, None, None, None]
            corrected = stacked - weight * g[:, :, None, None] * proj[:, None, :, :]
            out[kron] = corrected.reshape((-1, self.dim, m), order="F") / ridge[kron]
        return out

    def solve(self, rhs):
        """Solve ``grams[b] @ x[b] = rhs[b]`` for every b; rhs is (batch, dim)."""
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape != (len(self.grams), self.dim):
            raise ValueError(f"rhs must have shape ({len(self.grams)}, {self.dim}), got {rhs.shape}")
        y = self._apply_base_inverse(rhs[:, :, None], slice(None))[:, :, 0]
        if self.capacitance is None:
            return y
        # (A^T conj(y))^* is A^H y without a conjugated copy of A.
        a_h_y = np.stack([(gram.rank_one.T @ y[b].conj()).conj() for b, gram in enumerate(self.grams)])
        correction = np.linalg.solve(self.capacitance, a_h_y[:, :, None])
        return y - (np.swapaxes(self.base_inv_a, 1, 2) @ correction)[:, :, 0]


def structured_solve(gram, rhs):
    """Solve ``gram @ x = rhs`` using the block/Woodbury structure.

    Cost is O(k * dim + k^3) plus k extra O(dim) block inversions; no
    dim x dim matrix is ever formed.  This is the batch-of-one case of
    :class:`StructuredFactor`, whose construction checks the k x k Woodbury
    capacitance's condition number and raises :class:`IllConditionedError`
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
    return StructuredFactor([gram]).solve(rhs[None])[0]
