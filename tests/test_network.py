"""Collision-network linear algebra: unitarity, composition order,
coefficient extraction, and the passive-unitary -> symplectic map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide.network import (
    CCoefficients,
    apply_collision_inplace,
    collision_unitary,
    compose_chronological,
    extract_c_coefficients,
    mixing_block,
    mode_unitary_to_symplectic,
    symplectic_defect,
    unitarity_defect,
)

# hand-derived two-round [S,S] element at (r1, r2) = (0.4, 0.3):
# r1^2 + (1 - r1^2) * sqrt(1 - r2^2)
COMPOSED_SS_2 = 0.16 + 0.84 * math.sqrt(0.91)

reflectivities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return q


class TestMixingBlock:
    def test_is_unitary(self):
        assert unitarity_defect(mixing_block(0.4, 0.3)) < 1e-12

    def test_full_reflection_r1(self):
        # r1 = 1: the system picks up only the phase, environments untouched by BS1
        b = mixing_block(1.0, 0.3, phi=0.7)
        np.testing.assert_allclose(b[0], [np.exp(0.7j), 0.0, 0.0], atol=1e-15)

    def test_full_reflection_r2(self):
        # r2 = 1: the second environment mode passes through
        b = mixing_block(0.4, 1.0)
        np.testing.assert_allclose(b[2], [0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("r1,r2", [(-0.1, 0.5), (1.1, 0.5), (0.5, -2.0), (0.5, 1.0001)])
    def test_reflectivity_domain(self, r1, r2):
        with pytest.raises(ValueError):
            mixing_block(r1, r2)

    @given(r1=reflectivities, r2=reflectivities, phi=phases)
    @settings(deadline=None, max_examples=80)
    def test_unitary_for_all_parameters(self, r1, r2, phi):
        assert unitarity_defect(mixing_block(r1, r2, phi)) < 1e-10


class TestCollisionUnitary:
    def test_embedding(self):
        u = collision_unitary(2, 5, 0.4, 0.3, phi=1.1)
        np.testing.assert_allclose(
            u[np.ix_([1, 3, 4], [1, 3, 4])], mixing_block(0.4, 0.3, 1.1), atol=1e-15
        )
        # everything else is the identity; ancilla row/column in particular
        mask = np.ones(8, dtype=bool)
        mask[[1, 3, 4]] = False
        np.testing.assert_allclose(u[np.ix_(mask, mask)], np.eye(5), atol=1e-15)
        np.testing.assert_allclose(u[0], np.eye(8)[0], atol=1e-15)

    def test_round_index_range(self):
        with pytest.raises(IndexError):
            collision_unitary(0, 5, 0.4, 0.3)
        with pytest.raises(IndexError):
            collision_unitary(6, 5, 0.4, 0.3)
        with pytest.raises(ValueError):
            collision_unitary(1, 0, 0.4, 0.3)

    @given(
        r1=reflectivities,
        r2=reflectivities,
        phi=phases,
        j=st.integers(min_value=1, max_value=6),
    )
    @settings(deadline=None, max_examples=60)
    def test_unitarity(self, r1, r2, phi, j):
        assert unitarity_defect(collision_unitary(j, 6, r1, r2, phi)) < 1e-10


class TestComposition:
    def test_empty_needs_dim(self):
        np.testing.assert_allclose(compose_chronological([], dim=4), np.eye(4))
        with pytest.raises(ValueError):
            compose_chronological([])

    def test_single(self):
        u = collision_unitary(1, 3, 0.4, 0.3)
        np.testing.assert_allclose(compose_chronological([u]), u)

    def test_first_element_acts_first(self):
        u1 = collision_unitary(1, 2, 0.4, 0.3)
        u2 = collision_unitary(2, 2, 0.4, 0.3)
        composed = compose_chronological([u1, u2])
        np.testing.assert_allclose(composed, u2 @ u1, atol=1e-15)
        assert composed[1, 1] == pytest.approx(COMPOSED_SS_2, abs=1e-14)

    @given(
        r1=reflectivities,
        r2=reflectivities,
        phi=phases,
        L=st.integers(min_value=1, max_value=12),
    )
    @settings(deadline=None, max_examples=40)
    def test_sparse_update_matches_dense_product(self, r1, r2, phi, L):
        dense = compose_chronological(
            [collision_unitary(j, L, r1, r2, phi) for j in range(1, L + 1)]
        )
        sparse = np.eye(L + 3, dtype=complex)
        for j in range(1, L + 1):
            apply_collision_inplace(sparse, j, r1, r2, phi)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_ancilla_never_mixed(self):
        u = np.eye(8, dtype=complex)
        for j in range(1, 6):
            apply_collision_inplace(u, j, 0.7, 0.2, 0.9)
        np.testing.assert_allclose(u[0], np.eye(8)[0], atol=1e-15)
        np.testing.assert_allclose(u[:, 0], np.eye(8)[0], atol=1e-15)


class TestCoefficients:
    def test_identity_network(self):
        coeffs = extract_c_coefficients(np.eye(6, dtype=complex), 0)
        assert coeffs.c22 == 1.0 + 0.0j
        np.testing.assert_allclose(coeffs.env_column, 0.0)
        assert coeffs.step == 0

    def test_single_round(self):
        u = np.eye(6, dtype=complex)
        apply_collision_inplace(u, 1, 0.4, 0.3, phi=0.9)
        coeffs = extract_c_coefficients(u, 1)
        assert coeffs.c22 == pytest.approx(0.4 * np.exp(-0.9j), abs=1e-14)
        assert coeffs.c22_abs_sq == pytest.approx(0.16, abs=1e-14)

    def test_two_rounds_known_value(self):
        u = np.eye(5, dtype=complex)
        apply_collision_inplace(u, 1, 0.4, 0.3)
        apply_collision_inplace(u, 2, 0.4, 0.3)
        coeffs = extract_c_coefficients(u, 2)
        assert coeffs.c22 == pytest.approx(COMPOSED_SS_2, abs=1e-14)
        assert coeffs.c22_abs_sq == pytest.approx(COMPOSED_SS_2**2, abs=1e-14)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            CCoefficients(step=1, c22=0.9, env_column=np.array([0.9, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            CCoefficients(step=1, c22=0.9, env_square_sum=0.81, env_abs_square_sum=0.81)
        with pytest.raises(ValueError, match="env_column"):
            CCoefficients(step=1, c22=0.6, env_square_sum=0.64)

    @pytest.mark.parametrize("c22, h", [
        (complex("nan"), 0.0), (complex("nan+1j"), 0.0), (math.inf, 0.0), (-math.inf, 0.0),
        (complex(0.0, math.inf), 0.0), (0.6, math.nan), (0.0, math.inf), (0.0, -math.inf),
    ])
    def test_non_finite_rejected(self, c22, h):
        # abs(total - 1) > tol is False for NaN; the check accepts only <= tol
        with pytest.raises(ValueError, match="not normalized"):
            CCoefficients(step=0, c22=c22, env_square_sum=0j, env_abs_square_sum=h)

    def test_sums_without_a_column(self):
        coeffs = CCoefficients(step=1, c22=0.6, env_square_sum=0.64j, env_abs_square_sum=0.64)
        assert coeffs.env_column is None
        assert coeffs.env_square_sum == 0.64j
        assert coeffs.c22_abs_sq == pytest.approx(0.36)

    def test_column_is_read_only(self):
        coeffs = extract_c_coefficients(np.eye(4, dtype=complex), 0)
        with pytest.raises(ValueError):
            coeffs.env_column[0] = 1.0

    @given(
        r1=reflectivities,
        r2=reflectivities,
        phi=phases,
        L=st.integers(min_value=1, max_value=20),
    )
    @settings(deadline=None, max_examples=40)
    def test_normalization_along_chains(self, r1, r2, phi, L):
        u = np.eye(L + 3, dtype=complex)
        for j in range(1, L + 1):
            apply_collision_inplace(u, j, r1, r2, phi)
            coeffs = extract_c_coefficients(u, j)  # constructor enforces normalization
            total = coeffs.c22_abs_sq + float(np.sum(np.abs(coeffs.env_column) ** 2))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_real_network_square_sum_identity(self):
        # with phi = 0 the network is real, so sum of squared env amplitudes
        # complements c22^2 exactly
        u = np.eye(9, dtype=complex)
        for j in range(1, 7):
            apply_collision_inplace(u, j, 0.55, 0.35)
            coeffs = extract_c_coefficients(u, j)
            assert coeffs.env_square_sum.imag == pytest.approx(0.0, abs=1e-12)
            assert coeffs.env_square_sum.real == pytest.approx(
                1.0 - coeffs.c22.real**2, abs=1e-12
            )


class TestSymplecticMap:
    def test_identity(self):
        np.testing.assert_allclose(mode_unitary_to_symplectic(np.eye(3)), np.eye(6))

    def test_phase_becomes_rotation(self):
        s = mode_unitary_to_symplectic(np.array([[np.exp(0.5j)]]))
        c, si = np.cos(0.5), np.sin(0.5)
        np.testing.assert_allclose(s, [[c, -si], [si, c]], atol=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            mode_unitary_to_symplectic(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            mode_unitary_to_symplectic(np.ones((2, 3)))

    def test_output_is_symplectic(self):
        b = mixing_block(0.4, 0.3, 1.3)
        assert symplectic_defect(mode_unitary_to_symplectic(b)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_unitary(rng, 4)
        b = _random_unitary(rng, 4)
        lhs = mode_unitary_to_symplectic(a @ b)
        rhs = mode_unitary_to_symplectic(a) @ mode_unitary_to_symplectic(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_unitary_is_symplectic(self, seed):
        rng = np.random.default_rng(seed)
        assert symplectic_defect(mode_unitary_to_symplectic(_random_unitary(rng, 5))) < 1e-10
