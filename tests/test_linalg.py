"""Unit tests for the structured linear-algebra core."""

import time

import numpy as np
import pytest

from airfl.channel import substream
from airfl.linalg import (
    IllConditionedError,
    SingularMatrixError,
    StructuredFactor,
    StructuredGram,
    dense_solve,
    mat_of_vector,
    phase_project,
    structured_solve,
    vec_of_matrix,
)


def _random_gram(rng, n, k, kron_scale=None, ridge=None):
    dim = n * n
    a = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StructuredGram(
        dim=dim,
        rank_one=a,
        kron_scale=float(rng.uniform(0.0, 3.0)) if kron_scale is None else kron_scale,
        kron_vector=g,
        ridge=float(rng.uniform(0.05, 2.0)) if ridge is None else ridge,
    )


class TestVecMat:
    def test_column_major_example(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec_of_matrix(m), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip(self):
        rng = substream(11, "vec-roundtrip")
        for _ in range(20):
            rows, cols = rng.integers(1, 6, size=2)
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            np.testing.assert_array_equal(mat_of_vector(vec_of_matrix(m), rows, cols), m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_of_vector(np.zeros(5, dtype=complex), 2, 2)

    def test_kron_vectorization_identity(self):
        # vec(A X B^T) = (B kron A) vec(X)
        rng = substream(12, "kron-identity")
        for _ in range(25):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = vec_of_matrix(a @ x @ b.T)
            rhs = np.kron(b, a) @ vec_of_matrix(x)
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            assert err <= 1e-12


class TestDenseSolve:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
        np.testing.assert_allclose(dense_solve(np.eye(3, dtype=complex), rhs), rhs)

    def test_diagonal(self):
        out = dense_solve(np.diag([2.0, 4.0]).astype(complex), np.array([2.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_residual_random(self):
        rng = substream(14, "dense-residual")
        for _ in range(10):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = m + 8 * np.eye(8)  # keep well-conditioned
            rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            x = dense_solve(m, rhs)
            assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_singular_raises(self):
        m = np.zeros((2, 2), dtype=complex)
        with pytest.raises(SingularMatrixError):
            dense_solve(m, np.ones(2, dtype=complex))


class TestPhaseProject:
    def test_three_four_five(self):
        out = phase_project(np.array([3.0 + 4.0j]))
        np.testing.assert_allclose(out, [0.6 + 0.8j], atol=1e-15)

    def test_zero_convention(self):
        out = phase_project(np.array([0.0 + 0.0j, complex(-0.0, 0.0), complex(-0.0, -0.0)]))
        np.testing.assert_array_equal(out, [1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j])

    def test_unit_modulus_and_idempotent(self):
        rng = substream(15, "phase-idempotent")
        v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        p = phase_project(v)
        np.testing.assert_allclose(np.abs(p), 1.0, atol=1e-15)
        np.testing.assert_allclose(phase_project(p), p, atol=1e-15)
        # angle preserved for nonzero entries
        np.testing.assert_allclose(np.angle(p), np.angle(v), atol=1e-12)

    def test_grid_minimizer(self):
        rng = substream(16, "phase-grid")
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p = phase_project(v)
        grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False))
        for vl, pl in zip(v, p):
            best_grid = np.min(np.abs(grid - vl) ** 2)
            assert abs(pl - vl) ** 2 <= best_grid + 1e-12


class TestStructuredGramValidation:
    def test_negative_kron_scale(self):
        with pytest.raises(ValueError):
            StructuredGram(
                dim=4,
                rank_one=np.zeros((4, 0), dtype=complex),
                kron_scale=-1.0,
                kron_vector=np.ones(2, dtype=complex),
                ridge=1.0,
            )

    def test_nonpositive_ridge(self):
        with pytest.raises(ValueError):
            StructuredGram(
                dim=4,
                rank_one=np.zeros((4, 0), dtype=complex),
                kron_scale=0.0,
                kron_vector=None,
                ridge=0.0,
            )

    def test_kron_needs_square_dim(self):
        with pytest.raises(ValueError):
            StructuredGram(
                dim=5,
                rank_one=np.zeros((5, 0), dtype=complex),
                kron_scale=1.0,
                kron_vector=np.ones(2, dtype=complex),
                ridge=1.0,
            )

    def test_rank_one_dim_mismatch(self):
        with pytest.raises(ValueError):
            StructuredGram(
                dim=4,
                rank_one=np.zeros((3, 2), dtype=complex),
                kron_scale=0.0,
                kron_vector=None,
                ridge=1.0,
            )


class TestStructuredSolve:
    def test_pure_ridge(self):
        gram = StructuredGram(
            dim=2,
            rank_one=np.zeros((2, 0), dtype=complex),
            kron_scale=0.0,
            kron_vector=None,
            ridge=2.0,
        )
        out = structured_solve(gram, np.array([2.0, 4.0], dtype=complex))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_scalar_kron_block(self):
        # (c * g g^H + ridge) x = (1 + 1) x = 2 -> x = 1
        gram = StructuredGram(
            dim=1,
            rank_one=np.zeros((1, 0), dtype=complex),
            kron_scale=1.0,
            kron_vector=np.ones(1, dtype=complex),
            ridge=1.0,
        )
        out = structured_solve(gram, np.array([2.0], dtype=complex))
        np.testing.assert_allclose(out, [1.0])

    def test_single_rank_one_term(self):
        # (a a^H + I) x = rhs with a = e_1 scaled: (1+1) x = 2
        gram = StructuredGram(
            dim=1,
            rank_one=np.ones((1, 1), dtype=complex),
            kron_scale=0.0,
            kron_vector=None,
            ridge=1.0,
        )
        out = structured_solve(gram, np.array([2.0], dtype=complex))
        np.testing.assert_allclose(out, [1.0])

    def test_matches_dense_oracle(self):
        rng = substream(17, "structured-oracle")
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(0, 4))
            gram = _random_gram(rng, n, k)
            rhs = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            fast = structured_solve(gram, rhs)
            dense = dense_solve(gram.materialize(), rhs)
            worst = max(worst, np.linalg.norm(fast - dense) / np.linalg.norm(dense))
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"

    def test_wrong_rhs_shape(self):
        gram = StructuredGram(
            dim=4,
            rank_one=np.zeros((4, 0), dtype=complex),
            kron_scale=0.0,
            kron_vector=None,
            ridge=1.0,
        )
        with pytest.raises(ValueError):
            structured_solve(gram, np.ones(3, dtype=complex))

    def test_ill_conditioned_raises_with_estimate(self):
        # Two nearly parallel, very large rank-one terms drive the Woodbury
        # capacitance matrix condition number beyond the supported limit.
        base = np.ones(4, dtype=complex)
        perturbed = base + 1e-14 * np.array([1.0, -1.0, 1.0, -1.0])
        a = 1e9 * np.column_stack([base, perturbed])
        gram = StructuredGram(
            dim=4,
            rank_one=a,
            kron_scale=0.0,
            kron_vector=None,
            ridge=1e-6,
        )
        with pytest.raises(IllConditionedError) as excinfo:
            structured_solve(gram, np.ones(4, dtype=complex))
        assert excinfo.value.condition_estimate > 1e12

    def test_materialize_matches_definition(self):
        rng = substream(18, "materialize")
        gram = _random_gram(rng, 3, 2)
        m = gram.materialize()
        expected = gram.ridge * np.eye(9, dtype=complex)
        expected += gram.rank_one @ gram.rank_one.conj().T
        expected += gram.kron_scale * np.kron(
            np.eye(3), np.outer(gram.kron_vector, gram.kron_vector.conj())
        )
        np.testing.assert_allclose(m, expected, atol=1e-14)
        # apply() agrees with the materialized matrix
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        np.testing.assert_allclose(gram.apply(x), m @ x, atol=1e-12)

    def test_scaling_stays_subquadratic(self):
        # Wall time over N in {8, 16, 32, 64} at fixed K: the log-log slope
        # must stay within a factor of two of quadratic.  Python call
        # overhead flattens the small-N end, so the slope lower bound is not
        # asserted; the upper bound is what rules out dense N^2 x N^2 work
        # (a dense solve would scale with slope ~6).
        rng = substream(19, "timing")
        times = []
        sizes = (8, 16, 32, 64)
        for n in sizes:
            gram = _random_gram(rng, n, 3, kron_scale=1.3, ridge=0.7)
            rhs = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            structured_solve(gram, rhs)  # warm-up
            reps = 50
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(reps):
                    structured_solve(gram, rhs)
                best = min(best, (time.perf_counter() - start) / reps)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 4.0, f"timing slope {slope:.2f} suggests superquadratic scaling"
        assert times[-1] < 0.05, f"solve at N=64 took {times[-1]:.3f}s"


def _unfactored_solve(gram, rhs):
    """Reference: one Woodbury solve written out for a single system."""
    a = gram.rank_one
    x = np.column_stack([rhs, a])
    if gram.kron_scale == 0:
        applied = x / gram.ridge
    else:
        g = gram.kron_vector
        n = g.size
        stacked = x.reshape((n, n, x.shape[1]), order="F")
        denom = gram.ridge + gram.kron_scale * np.real(g.conj() @ g)
        proj = np.einsum("i,ijl->jl", g.conj(), stacked)
        corrected = stacked - (gram.kron_scale / denom) * g[:, None, None] * proj[None, :, :]
        applied = corrected.reshape(x.shape, order="F") / gram.ridge
    y, base_inv_a = applied[:, 0], applied[:, 1:]
    if a.shape[1] == 0:
        return y
    capacitance = np.eye(a.shape[1], dtype=complex) + a.conj().T @ base_inv_a
    return y - base_inv_a @ np.linalg.solve(capacitance, a.conj().T @ y)


class TestStructuredFactor:
    def test_matches_unfactored_solve(self):
        # Same arithmetic as the single-system formula, so equal bit for bit
        # with a Kronecker block in any layout.  Without one, the reference
        # takes its products in the layout of the rank-one columns, so those
        # are kept column-major only (the layout the relay loop passes for
        # K >= 2 users).
        rng = substream(23, "factor-reference")
        for i in range(80):
            n = int(rng.integers(1, 7))
            kron = i % 4 != 0
            k = int(rng.integers(0, 5)) if kron else int(rng.choice([0, 2, 3, 4]))
            gram = _random_gram(rng, n, k, kron_scale=None if kron else 0.0)
            if kron and i % 3 == 0:
                gram.rank_one = np.ascontiguousarray(gram.rank_one)
            else:
                gram.rank_one = np.asfortranarray(gram.rank_one)
            rhs = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            assert np.array_equal(structured_solve(gram, rhs), _unfactored_solve(gram, rhs))

    def test_batch_matches_single_solves(self):
        # One factor over several grams (with and without a Kronecker block)
        # gives each gram's own solve bit for bit, for every right-hand side.
        rng = substream(20, "factor-batch")
        for n, k in ((1, 1), (2, 0), (3, 2), (5, 4)):
            grams = [_random_gram(rng, n, k, kron_scale=scale) for scale in (0.0, 1.3, None, 0.0)]
            factor = StructuredFactor(grams)
            for _ in range(3):
                rhs = rng.standard_normal((4, n * n)) + 1j * rng.standard_normal((4, n * n))
                batch = factor.solve(rhs)
                for gram, row, got in zip(grams, rhs, batch):
                    assert np.array_equal(got, structured_solve(gram, row))

    def test_shape_validation(self):
        rng = substream(21, "factor-shapes")
        with pytest.raises(ValueError):
            StructuredFactor([])
        with pytest.raises(ValueError):
            StructuredFactor([_random_gram(rng, 2, 1), _random_gram(rng, 3, 1)])
        with pytest.raises(ValueError):
            StructuredFactor([_random_gram(rng, 2, 1), _random_gram(rng, 2, 2)])
        factor = StructuredFactor([_random_gram(rng, 2, 1)])
        with pytest.raises(ValueError):
            factor.solve(np.ones(4, dtype=complex))

    def test_first_ill_conditioned_gram_is_reported(self):
        rng = substream(22, "factor-ill")
        base = np.ones(4, dtype=complex)
        bad = StructuredGram(
            dim=4,
            rank_one=1e9 * np.column_stack([base, base + 1e-14 * np.array([1.0, -1.0, 1.0, -1.0])]),
            kron_scale=0.0,
            kron_vector=None,
            ridge=1e-6,
        )
        with pytest.raises(IllConditionedError) as single:
            structured_solve(bad, base)
        with pytest.raises(IllConditionedError) as batch:
            StructuredFactor([_random_gram(rng, 2, 2), bad, _random_gram(rng, 2, 2)])
        assert batch.value.condition_estimate == single.value.condition_estimate
