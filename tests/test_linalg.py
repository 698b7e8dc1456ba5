"""Unit tests for the linear-algebra primitives and the structured u-step solve."""

import time

import numpy as np
import pytest

from airfl.channel import substream
from airfl.checks import dense_u_step, update_u
from airfl.linalg import (
    IllConditionedError,
    SingularMatrixError,
    dense_solve,
    mat_of_vector,
    phase_project,
    vec_of_matrix,
)
from airfl.pam import PamWorkspace


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


def _angle_formula(v):
    """The projection as exp(1j * angle(v)) with zeros mapped to 1."""
    out = np.exp(1j * np.angle(v))
    out[v == 0] = 1.0
    return out


def _assert_same_bits(actual, desired):
    np.testing.assert_array_equal(np.asarray(actual).view(np.uint64), np.asarray(desired).view(np.uint64))


class TestPhaseProject:
    def test_three_four_five(self):
        out = phase_project(np.array([3.0 + 4.0j]))
        np.testing.assert_allclose(out, [0.6 + 0.8j], atol=1e-15)
        scalar = phase_project(3.0 + 4.0j)
        assert isinstance(scalar, np.complex128) and abs(scalar - (0.6 + 0.8j)) <= 1e-15

    def test_zero_convention(self):
        out = phase_project(np.array([0.0 + 0.0j, complex(-0.0, 0.0), complex(-0.0, -0.0)]))
        np.testing.assert_array_equal(out, [1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j])
        # A zero sends the whole array through the angle formula, whatever
        # the signs of its zero parts and of its other entries' parts.
        v = np.array([complex(0.0, -0.0), -3.0 + 4.0j, complex(-0.0, 2.0), complex(-1.0, -0.0), 0.5 - 0.5j])
        _assert_same_bits(phase_project(v), _angle_formula(v))
        assert phase_project(complex(-0.0, -0.0)) == 1.0

    @pytest.mark.parametrize(
        "edge",
        [
            5e-324 + 5e-324j,
            1e-310j,
            complex(np.inf, 0.0),
            complex(0.0, -np.inf),
            complex(np.inf, np.inf),
            complex(-np.inf, 1.0),
            complex(np.nan, 0.0),
            complex(1.0, np.nan),
            complex(1.7e308, 1.7e308),
        ],
    )
    def test_degenerate_modulus_takes_the_angle_formula(self, edge):
        # One subnormal or non-finite |v| (|1.7e308 (1 + 1j)| overflows)
        # sends the whole array, near-overflow and signed-zero entries
        # included, through the angle formula, bit for bit.
        v = np.array([edge, 3.0 + 4.0j, 1e308 + 1e308j, -1e308 + 1e308j, complex(-0.0, 1.0)])
        _assert_same_bits(phase_project(v), _angle_formula(v))
        _assert_same_bits(phase_project(v[:1]), _angle_formula(v[:1]))

    def test_unit_modulus_and_idempotent(self):
        rng = substream(15, "phase-idempotent")
        v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        p = phase_project(v)
        np.testing.assert_allclose(np.abs(p), 1.0, atol=1e-15)
        np.testing.assert_allclose(phase_project(p), p, atol=1e-15)
        # angle preserved for nonzero entries
        np.testing.assert_allclose(np.angle(p), np.angle(v), atol=1e-12)
        # Finite nonzero entries from 1e-300 to 1e300 in modulus, the largest
        # near overflow, are divided by |v|: each part lands within two
        # units in the last place of 1 of the angle formula's.
        modulus = np.append(10.0 ** rng.uniform(-300.0, 300.0, 4000), 1e308 * np.sqrt(2.0))
        v = np.concatenate([v, modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, modulus.size))])
        p = phase_project(v)
        np.testing.assert_allclose(np.abs(p), 1.0, rtol=0, atol=1e-15)
        exact = _angle_formula(v)
        ulps = 2 * np.finfo(float).eps
        np.testing.assert_allclose(p.real, exact.real, rtol=0, atol=ulps)
        np.testing.assert_allclose(p.imag, exact.imag, rtol=0, atol=ulps)

    def test_grid_minimizer(self):
        rng = substream(16, "phase-grid")
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p = phase_project(v)
        grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False))
        for vl, pl in zip(v, p):
            best_grid = np.min(np.abs(grid - vl) ** 2)
            assert abs(pl - vl) ** 2 <= best_grid + 1e-12


def _random_workspace(rng, n, k, kron_scale=None):
    """A u-step workspace with standard normal r, t and channels."""

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return PamWorkspace(
        r=normal(k),
        t=normal(k),
        uplink=normal(k, n),
        downlink=normal(k, n),
        alpha=rng.uniform(0.1, 1.0, k),
        kron_scale=rng.uniform(0.0, 3.0, k) if kron_scale is None else np.full(k, kron_scale),
    )


def _scalar_workspace(r, t, alpha, kron_scale):
    """N = K = 1 with unit channels, so a = conj(r t) and G = kron_scale."""
    return PamWorkspace(
        r=np.array([r], dtype=complex),
        t=np.array([t], dtype=complex),
        uplink=np.ones((1, 1), dtype=complex),
        downlink=np.ones((1, 1), dtype=complex),
        alpha=np.array([alpha]),
        kron_scale=np.array([kron_scale]),
    )


class TestStructuredSolve:
    """The relay u-step solves (sum_j a_j a_j^H + c I kron g g^H + (rho/K) I) u
    = sum_j alpha_j a_j + (rho/K) f per user without forming that matrix."""

    def test_pure_ridge(self):
        # No transmit gain and no relay noise leave only (rho/K) u = (rho/K) f.
        rng = substream(13, "structured-ridge")
        ws = _random_workspace(rng, 2, 2, kron_scale=0.0)
        ws.t = np.zeros(2, dtype=complex)
        f = np.array([2.0, 4.0, -1.0j, 0.5 + 0.5j])
        np.testing.assert_allclose(update_u(ws, f, rho=2.0), [f, f], rtol=1e-14)

    def test_scalar_kron_block(self):
        # (c g g^H + rho/K) u = (1 + 1) u = (rho/K) f = 2 -> u = 1
        ws = _scalar_workspace(r=1.0, t=0.0, alpha=1.0, kron_scale=1.0)
        out = update_u(ws, np.array([2.0], dtype=complex), rho=1.0)
        np.testing.assert_allclose(out, [[1.0]])

    def test_single_rank_one_term(self):
        # (a a^H + rho/K) u = alpha a + (rho/K) f with a = 1: (1 + 1) u = 2
        ws = _scalar_workspace(r=1.0, t=1.0, alpha=1.0, kron_scale=0.0)
        out = update_u(ws, np.array([1.0], dtype=complex), rho=1.0)
        np.testing.assert_allclose(out, [[1.0]])

    def test_matches_dense_oracle(self):
        rng = substream(17, "structured-oracle")
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            ws = _random_workspace(rng, n, k)
            rho = k * float(rng.uniform(0.05, 2.0))
            f = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            fast = update_u(ws, f, rho)
            for user in range(k):
                matrix, data_rhs, _ = dense_u_step(ws, user, rho)
                dense = dense_solve(matrix, data_rhs + (rho / k) * f)
                worst = max(worst, np.linalg.norm(fast[user] - dense) / np.linalg.norm(dense))
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"

    def test_wrong_rhs_shape(self):
        ws = _random_workspace(substream(24, "structured-shape"), 2, 1)
        for size in (3, 5):
            with pytest.raises(ValueError):
                update_u(ws, np.ones(size, dtype=complex), 1.0)

    def test_ill_conditioned_raises_with_estimate(self):
        # Two nearly parallel uplinks under a very large equalizer and a tiny
        # rho drive the Woodbury capacitance matrix condition number beyond
        # the supported limit.
        ws = PamWorkspace(
            r=np.full(2, 1e4, dtype=complex),
            t=np.ones(2, dtype=complex),
            uplink=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]], dtype=complex),
            downlink=np.array([[1.0, 0.5j], [0.3, 1.0]], dtype=complex),
            alpha=np.array([0.5, 0.5]),
            kron_scale=np.zeros(2),
        )
        with pytest.raises(IllConditionedError) as excinfo:
            update_u(ws, np.ones(4, dtype=complex), 2e-6)
        assert excinfo.value.condition_estimate > 1e12

    def test_materialize_matches_definition(self):
        rng = substream(18, "materialize")
        ws = _random_workspace(rng, 3, 2)
        rho = 1.7
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        u_all = update_u(ws, f, rho)
        for user in range(2):
            m, data_rhs, rank_one = dense_u_step(ws, user, rho)
            g = ws.downlink[user]
            a = np.stack(
                [
                    np.conj(ws.r[user] * t) * vec_of_matrix(np.outer(g, h.conj()))
                    for t, h in zip(ws.t, ws.uplink)
                ]
            )
            np.testing.assert_allclose(rank_one, a, atol=1e-14)
            expected = (rho / 2) * np.eye(9, dtype=complex)
            expected += a.T @ a.conj()
            expected += ws.kron_scale[user] * np.kron(np.eye(3), np.outer(g, g.conj()))
            np.testing.assert_allclose(m, expected, atol=1e-13)
            np.testing.assert_allclose(data_rhs, ws.alpha @ a, atol=1e-14)
            # the u-step's copy satisfies the materialized system
            rhs = data_rhs + (rho / 2) * f
            residual = np.linalg.norm(m @ u_all[user] - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-12

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
            ws = _random_workspace(rng, n, 3, kron_scale=1.3)
            f = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            update_u(ws, f, 2.1)  # warm-up
            reps = 50
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(reps):
                    update_u(ws, f, 2.1)
                best = min(best, (time.perf_counter() - start) / reps)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 4.0, f"timing slope {slope:.2f} suggests superquadratic scaling"
        assert times[-1] < 0.05, f"solve at N=64 took {times[-1]:.3f}s"
