"""Gaussian state builders, reductions, and the physicality check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide.states import (
    MAX_ENV_SQUEEZING,
    MAX_SQUEEZING,
    EnvironmentSpec,
    JointSpec,
    physicality_check,
    reduce_to_modes,
    squeezed_thermal_cm,
    symplectic_form,
    tmsv_cm,
    vacuum_cm,
)


def test_symplectic_form_structure():
    omega = symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_allclose(omega, expected)
    np.testing.assert_allclose(omega.T, -omega)


def test_vacuum_is_identity():
    np.testing.assert_allclose(vacuum_cm(3), np.eye(6))


class TestSpecs:
    def test_joint_validation(self):
        with pytest.raises(ValueError):
            JointSpec(xi=-0.1)
        with pytest.raises(ValueError):
            JointSpec(xi=1.0, theta=0.3)
        for xi in (math.nan, math.inf, math.nextafter(MAX_SQUEEZING, math.inf)):
            with pytest.raises(ValueError, match="xi"):
                JointSpec(xi=xi)
        assert np.all(np.isfinite(tmsv_cm(JointSpec(xi=MAX_SQUEEZING))))

    def test_env_validation(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(n=-0.5)
        for name, value in (("n", math.inf), ("n", math.nan), ("zeta", 800.0),
                            ("zeta", -800.0), ("phi_env", math.nan), ("phi_env", -math.inf),
                            ("n", 1e300), ("zeta", 177.0)):
            with pytest.raises(ValueError, match=name):
                EnvironmentSpec(**{name: value})


    def test_env_squeezing_bound(self):
        for zeta in (MAX_ENV_SQUEEZING, -MAX_ENV_SQUEEZING):
            EnvironmentSpec(n=3.0, zeta=zeta)
        for zeta in (math.nextafter(MAX_ENV_SQUEEZING, math.inf), -40.0):
            with pytest.raises(ValueError, match="^zeta = .* is too large"):
                EnvironmentSpec(zeta=zeta)


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(tmsv_cm(JointSpec(xi=0.0)), np.eye(4))

    def test_block_structure(self):
        cm = tmsv_cm(JointSpec(xi=1.0))
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        np.testing.assert_allclose(cm[:2, :2], ch * np.eye(2))
        np.testing.assert_allclose(cm[2:, 2:], ch * np.eye(2))
        np.testing.assert_allclose(cm[:2, 2:], sh * np.diag([1.0, -1.0]))
        np.testing.assert_allclose(cm, cm.T)

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0, 2.5])
    def test_pure_state_determinant(self, xi):
        assert np.linalg.det(tmsv_cm(JointSpec(xi=xi))) == pytest.approx(1.0, abs=1e-10)

    @given(xi=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(deadline=None, max_examples=40)
    def test_physical(self, xi):
        ok, min_eig = physicality_check(tmsv_cm(JointSpec(xi=xi)))
        assert ok, min_eig


class TestSqueezedThermal:
    def test_vacuum_limit(self):
        np.testing.assert_allclose(squeezed_thermal_cm(EnvironmentSpec()), np.eye(2))

    def test_thermal(self):
        np.testing.assert_allclose(
            squeezed_thermal_cm(EnvironmentSpec(n=1.0)), 3.0 * np.eye(2)
        )

    def test_squeezed_vacuum(self):
        cm = squeezed_thermal_cm(EnvironmentSpec(zeta=0.5))
        np.testing.assert_allclose(cm, np.diag([math.exp(0.5), math.exp(-0.5)]), atol=1e-14)

    def test_phase_rotates_quadratures(self):
        cm = squeezed_thermal_cm(EnvironmentSpec(zeta=0.5, phi_env=math.pi / 2))
        ch, sh = math.cosh(0.5), math.sinh(0.5)
        np.testing.assert_allclose(cm, [[ch, sh], [sh, ch]], atol=1e-14)

    @given(
        n=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        zeta=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
    )
    @settings(deadline=None, max_examples=60)
    def test_determinant_and_physicality(self, n, zeta, phi):
        cm = squeezed_thermal_cm(EnvironmentSpec(n=n, zeta=zeta, phi_env=phi))
        assert np.linalg.det(cm) == pytest.approx((2 * n + 1) ** 2, rel=1e-10)
        ok, min_eig = physicality_check(cm)
        assert ok, min_eig


class TestReduce:
    def test_identity_reduction(self):
        cm = tmsv_cm(JointSpec(xi=0.8))
        np.testing.assert_allclose(reduce_to_modes(cm, [0, 1]), cm)

    def test_single_mode_of_tmsv_is_thermal(self):
        cm = tmsv_cm(JointSpec(xi=0.8))
        for mode in (0, 1):
            np.testing.assert_allclose(
                reduce_to_modes(cm, [mode]), math.cosh(0.8) * np.eye(2), atol=1e-14
            )

    def test_order_controls_output(self):
        cm = tmsv_cm(JointSpec(xi=0.8))
        swapped = reduce_to_modes(cm, [1, 0])
        np.testing.assert_allclose(swapped[:2, :2], cm[2:, 2:])
        np.testing.assert_allclose(swapped[:2, 2:], cm[2:, :2])

    def test_out_of_range(self):
        cm = vacuum_cm(2)
        with pytest.raises(IndexError):
            reduce_to_modes(cm, [2])
        with pytest.raises(IndexError):
            reduce_to_modes(cm, [-1])

    def test_reduction_of_product_state_is_factor(self):
        block = squeezed_thermal_cm(EnvironmentSpec(n=0.5, zeta=0.4, phi_env=1.0))
        cm = np.zeros((6, 6))
        cm[:2, :2] = np.eye(2)
        cm[2:4, 2:4] = block
        cm[4:, 4:] = 3.0 * np.eye(2)
        np.testing.assert_allclose(reduce_to_modes(cm, [1]), block)
        ok, _ = physicality_check(reduce_to_modes(cm, [1, 2]))
        assert ok


class TestPhysicality:
    def test_vacuum_saturates(self):
        ok, min_eig = physicality_check(np.eye(2))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-12)

    def test_sub_vacuum_rejected(self):
        ok, min_eig = physicality_check(0.5 * np.eye(2))
        assert not ok
        assert min_eig < -0.4

    def test_thermal_margin(self):
        ok, min_eig = physicality_check(3.0 * np.eye(2))
        assert ok
        assert min_eig == pytest.approx(2.0, abs=1e-12)

    def test_asymmetric_rejected(self):
        cm = np.eye(2)
        cm[0, 1] = 0.5
        with pytest.raises(ValueError):
            physicality_check(cm)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            physicality_check(np.eye(3))
