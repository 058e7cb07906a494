"""Gaussian steering measure, revival accumulation, and closed-form
steerability thresholds (including threshold <-> positivity agreement)."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide.engine import (
    SimulationConfig,
    _columns,
    joint_cm_closed_form,
    joint_cm_stack,
    run,
)
from gausscollide.errors import DegenerateCovarianceError
from gausscollide.reference import (
    CCoefficients,
    g_ancilla_to_system,
    g_system_to_ancilla,
    squeezed_thermal_cm,
    tmsv_cm,
)
from gausscollide.states import MAX_ENV_SQUEEZING, MAX_SQUEEZING, EnvironmentSpec, JointSpec
from gausscollide.steering import (
    Direction,
    nm_from_steering,
    reduced_determinants,
    steerability,
    steering_columns,
    steering_series,
    threshold_an_to_s_squeezed_vac,
    threshold_an_to_s_thermal,
    threshold_s_to_an,
)

LNCOSH1 = math.log(math.cosh(1.0))
# 2 cosh(1) / (3 cosh(1) - 1)
THR_THERMAL_N1_XI1 = 0.8503597585628052
# B'/A at (xi, zeta) = (0.5, 1.0); see threshold_an_to_s_squeezed_vac
THR_SQUEEZED_05_10 = 0.7753070899722813


def synthetic_joint_cm(c_sq: float, joint: JointSpec, env: EnvironmentSpec) -> np.ndarray:
    """Joint CM of a real single-collision-like network with |c22|^2 = c_sq."""
    coeffs = CCoefficients(
        step=1, c22=math.sqrt(c_sq), env_column=np.array([math.sqrt(1.0 - c_sq)])
    )
    return joint_cm_closed_form(coeffs, joint, env)


class TestSteerability:
    @pytest.mark.parametrize("direction", [Direction.A_TO_B, Direction.B_TO_A])
    def test_tmsv_both_directions(self, direction):
        cm = tmsv_cm(JointSpec(xi=1.0))
        assert steerability(cm, direction) == pytest.approx(LNCOSH1, abs=1e-12)

    def test_no_squeezing_no_steering(self):
        cm = tmsv_cm(JointSpec(xi=0.0))
        assert steerability(cm, Direction.A_TO_B) == 0.0

    def test_tiny_squeezing_declared_exactly_zero(self):
        cm = tmsv_cm(JointSpec(xi=1e-7))
        assert steerability(cm, Direction.A_TO_B) == 0.0

    def test_product_state_never_steers(self):
        cm = np.zeros((4, 4))
        cm[:2, :2] = 3.0 * np.eye(2)
        cm[2:, 2:] = squeezed_thermal_cm(EnvironmentSpec(zeta=0.6))
        assert steerability(cm, Direction.A_TO_B) == 0.0
        assert steerability(cm, Direction.B_TO_A) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            steerability(np.eye(6), Direction.A_TO_B)
        bad = np.eye(4)
        bad[0, 1] = 0.2
        with pytest.raises(ValueError):
            steerability(bad, Direction.A_TO_B)
        with pytest.raises(ValueError):
            steerability(np.eye(4), "a_to_b")

    def test_degenerate_covariance_raises(self):
        with pytest.raises(DegenerateCovarianceError):
            steerability(1e-76 * np.eye(4), Direction.A_TO_B)

    def test_empty_stack(self):
        for direction in Direction:
            assert steerability(np.empty((0, 4, 4)), direction).shape == (0,)
            values = steering_columns(np.empty(0), np.empty(0, dtype=complex), JointSpec(xi=1.0),
                                      EnvironmentSpec(), direction)
            assert values.shape == (0,)

    def test_stack_matches_single_matrices_bit_for_bit(self):
        rng = np.random.default_rng(4)
        stack = []
        for _ in range(6):
            env = EnvironmentSpec(n=rng.uniform(0, 2), zeta=rng.uniform(0, 1.2),
                                  phi_env=rng.uniform(0, 6.3))
            config = SimulationConfig(r1=rng.uniform(), r2=rng.uniform(),
                                      phi_shift=rng.uniform(-3, 3),
                                      joint=JointSpec(xi=rng.uniform(0, 3)), env=env, L=30)
            stack += [s.joint_cm for s in run(config).steps]
        stack += [tmsv_cm(JointSpec(xi=1e-7)), np.eye(4)]
        stack = np.array(stack)[rng.permutation(len(stack))]
        for direction in Direction:
            singles = [steerability(cm, direction) for cm in stack]
            assert all(type(g) is float for g in singles)
            assert 0.0 in singles and max(singles) > 0.0
            stacked = steerability(stack, direction)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(stack),)
            assert stacked.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (5, 3, 3), (2, 2, 4, 4), (4, 4, 3)])
    def test_stack_shape_validation(self, shape):
        with pytest.raises(ValueError):
            steerability(np.ones(shape), Direction.A_TO_B)

    def test_stack_reports_degenerate_position(self):
        stack = np.array([tmsv_cm(JointSpec(xi=0.5))] * 5)
        stack[3] = stack[4] = 1e-76 * np.eye(4)
        with pytest.raises(DegenerateCovarianceError) as info:
            steerability(stack, Direction.B_TO_A)
        assert info.value.index == 3

    def test_directional_wrappers(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=2))
        cm = traj.steps[2].joint_cm
        assert g_system_to_ancilla(cm) == steerability(cm, Direction.B_TO_A)
        assert g_ancilla_to_system(cm) == steerability(cm, Direction.A_TO_B)
        # after the second round the two directions genuinely differ
        assert g_system_to_ancilla(cm) != g_ancilla_to_system(cm)


class TestSteeringSeries:
    def test_interleaved_zeros_after_revival_point(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=6))
        g = steering_series(traj, Direction.B_TO_A)
        assert g[0] == pytest.approx(LNCOSH1, abs=1e-12)
        assert g[1] == 0.0 and g[3] == 0.0 and g[5] == 0.0
        assert g[2] > 0.3 and g[4] > 0.25

    def test_degeneracy_names_its_step(self):
        # `_columns`, which `run` calls, is the chain's one check: it names the
        # unphysical row.  Steering reads such a row with |W| = H and stays finite.
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=4))
        w = traj.env_square_sum.copy()
        w[2] = 10.0  # |W| <= 1 - |c22|^2 on a physical row
        with pytest.raises(ValueError, match=r"^coefficient column not normalized at row 2: "
                           r"\|W\| = 10.0 exceeds"):
            _columns(traj.c22, w)
        bounded = w.copy()
        bounded[2] = traj.env_abs_square_sum[2]
        for direction in Direction:
            unphysical = steering_series(dataclasses.replace(traj, env_square_sum=w), direction)
            physical = steering_series(dataclasses.replace(traj, env_square_sum=bounded), direction)
            assert unphysical.tobytes() == physical.tobytes()

    def test_memoryless_chain_never_increases(self):
        traj = run(SimulationConfig(r1=0.7, r2=1.0, L=40))
        for direction in Direction:
            g = steering_series(traj, direction)
            assert np.all(np.diff(g) <= 1e-10)


physical_configs = st.builds(
    lambda r1, r2, phi, xi, n, zeta, phi_env, L: SimulationConfig(
        r1=r1, r2=r2, phi_shift=phi, joint=JointSpec(xi=xi),
        env=EnvironmentSpec(n=n, zeta=zeta, phi_env=phi_env), L=L),
    r1=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    r2=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    phi=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    xi=st.floats(0.0, 3.0),
    n=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    zeta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    phi_env=st.floats(0.0, 6.3),
    L=st.integers(1, 60),
)


class TestClosedFormSteering:
    """steering_series' scalar determinants against the 4x4 reference."""

    @settings(max_examples=80, deadline=None)
    @given(config=physical_configs)
    def test_matches_steerability_of_joint_cm(self, config):
        traj = run(config)
        # reduced_determinants reads H = 1 - |c|^2 as at least 0 and |W| as
        # at most H; the reference is built on columns rounding left inside
        # those bounds, and on the bounded columns where it did not.
        c_sq = np.minimum(traj.c22_abs_sq, 1.0)
        c = traj.c22 / np.sqrt(np.maximum(traj.c22_abs_sq, 1.0))
        v = np.abs(traj.env_square_sum)
        w = traj.env_square_sum * np.minimum(1.0, (1.0 - c_sq) / np.where(v > 0.0, v, 1.0))
        cm = joint_cm_stack(c, c_sq, w, config.joint, config.env)
        # The 4x4 determinants resolve G to a few eps times cond(sigma).
        resolution = 4 * np.finfo(float).eps * np.linalg.cond(cm)
        for direction in Direction:
            closed = steering_series(traj, direction)
            reference = steerability(cm, direction)
            assert np.all(np.abs(closed - reference) <= 1e-12 * np.abs(reference) + resolution)

    @settings(max_examples=80, deadline=None)
    @given(config=physical_configs)
    def test_det_sigma_of_a_physical_state_is_at_least_one(self, config):
        traj = run(config)
        schur, det_v_s = reduced_determinants(traj.c22_abs_sq, traj.env_square_sum,
                                              config.joint, config.env)
        assert np.all(math.cosh(config.joint.xi) ** 2 * schur >= 1.0 - 1e-12)
        assert np.all(det_v_s >= 1.0 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        xi=st.one_of(st.just(MAX_SQUEEZING), st.floats(0.0, MAX_SQUEEZING)),
        zeta=st.one_of(st.sampled_from([-MAX_ENV_SQUEEZING, MAX_ENV_SQUEEZING]),
                       st.floats(-MAX_ENV_SQUEEZING, MAX_ENV_SQUEEZING)),
        phi_env=st.floats(-10.0, 10.0),
        n=st.one_of(st.sampled_from([0.0, 1e8]), st.floats(0.0, 1e8)),
        c_sq=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), st.floats(0.0, 1.0)),
        w_over_h=st.one_of(st.sampled_from([0.0, 1.0, 10.0]), st.floats(0.0, 10.0)),
        w_excess=st.sampled_from([0.0, 1e-10]),
        angle=st.floats(-math.pi, math.pi),
    )
    def test_det_sigma_is_at_least_one_for_any_columns(self, xi, zeta, phi_env, n, c_sq,
                                                        w_over_h, w_excess, angle):
        # The bound of reduced_determinants' docstring holds for every |c|^2 and
        # W, |W| up to ten times H = 1 - |c|^2 and past the normalization tolerance:
        # steering_columns needs no degeneracy check.
        joint, env = JointSpec(xi=xi), EnvironmentSpec(n=n, zeta=zeta, phi_env=phi_env)
        c_sq = np.array([c_sq])
        w = (w_over_h * (1.0 - c_sq) + w_excess) * np.exp(1j * angle)
        schur, _ = reduced_determinants(c_sq, w, joint, env)
        assert math.cosh(xi) ** 2 * schur[0] >= 1.0 - 1e-9
        for direction in Direction:
            g = steering_columns(c_sq, w, joint, env, direction)
            assert np.isfinite(g[0]) and g[0] >= 0.0

    @pytest.mark.parametrize("xi", [10.0, 14.0, 18.0, 20.0, 100.0, 177.0])
    def test_initial_steering_is_ln_cosh_xi(self, xi):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, joint=JointSpec(xi=xi),
                                    env=EnvironmentSpec(n=0.5, zeta=1.0), L=3))
        for direction in Direction:
            assert steering_series(traj, direction)[0] == pytest.approx(
                math.log(math.cosh(xi)), rel=1e-14)

    @pytest.mark.parametrize("n", [0.0, 1e-12, 0.3, 10.0, 1e6])
    def test_no_steering_where_c22_vanishes(self, n):
        # |c22|^2 = 0: the system keeps nothing of the ancilla, so G is exactly
        # 0 both ways, for every |W| <= 1 (interior points and the unit circle).
        angles = np.linspace(-math.pi, math.pi, 97)
        w = np.outer(np.linspace(0.0, 1.0, 41), np.exp(1j * angles)).ravel()
        c_sq = np.zeros(len(w))
        for zeta, phi_env, xi in itertools.product(
                (-MAX_ENV_SQUEEZING, -1.7, 0.0, 0.4, MAX_ENV_SQUEEZING),
                (0.0, 0.9, math.pi / 2, -2.5), (0.0, 1e-8, 1.0, 12.0, 177.0)):
            env = EnvironmentSpec(n=n, zeta=zeta, phi_env=phi_env)
            for direction in Direction:
                g = steering_columns(c_sq, w, JointSpec(xi=xi), env, direction)
                assert np.all(g == 0.0), (zeta, phi_env, xi, direction)

    def test_no_determinant_of_a_matrix(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a matrix determinant was taken")

        monkeypatch.setattr(np.linalg, "det", refused)
        traj = run(SimulationConfig(r1=0.4, r2=0.3, env=EnvironmentSpec(n=0.3, zeta=0.4), L=20))
        for direction in Direction:
            assert steering_series(traj, direction)[0] > 0.0
        assert "joint_cm" not in vars(traj)  # steering never built the 4x4 stack


class TestNmFromSteering:
    def test_monotone_series_gives_zero(self):
        assert nm_from_steering([0.9, 0.5, 0.5, 0.1, 0.0]) == 0.0

    def test_single_revival(self):
        assert nm_from_steering([0.5, 0.3, 0.4, 0.1]) == pytest.approx(0.1, abs=1e-14)

    def test_multiple_revivals(self):
        assert nm_from_steering([0.0, 1.0, 0.0, 1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_short_and_invalid_series(self):
        assert nm_from_steering([0.3]) == 0.0
        with pytest.raises(ValueError):
            nm_from_steering([])
        with pytest.raises(ValueError):
            nm_from_steering([[0.1, 0.2]])


class TestThresholdFormulas:
    def test_s_to_an_values(self):
        assert threshold_s_to_an(0.0) == pytest.approx(0.5, abs=1e-15)
        assert threshold_s_to_an(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert threshold_s_to_an(2.0) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_s_to_an_monotone_to_one(self):
        values = [threshold_s_to_an(n) for n in (0.0, 1.0, 5.0, 50.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_s_to_an_domain(self):
        with pytest.raises(ValueError):
            threshold_s_to_an(-0.2)

    def test_an_to_s_thermal_values(self):
        assert threshold_an_to_s_thermal(0.0, 1.0) == 0.0
        assert threshold_an_to_s_thermal(1.0, 1.0) == pytest.approx(
            THR_THERMAL_N1_XI1, abs=1e-12
        )
        # large-xi limit: 2n / (2n+1)
        assert threshold_an_to_s_thermal(1.0, 40.0) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_an_to_s_thermal_domain(self):
        with pytest.raises(ValueError):
            threshold_an_to_s_thermal(-1.0, 1.0)
        with pytest.raises(ValueError):
            threshold_an_to_s_thermal(0.0, 0.0)

    def test_an_to_s_squeezed_vac_always_steerable_cases(self):
        for xi in (0.3, 1.0, 2.0):
            assert threshold_an_to_s_squeezed_vac(xi, 0.0) == 0.0
        assert threshold_an_to_s_squeezed_vac(0.7, 0.7) == 0.0
        # environment squeezing below the joint squeezing never blocks steering
        assert threshold_an_to_s_squeezed_vac(1.0, 0.5) == 0.0

    def test_an_to_s_squeezed_vac_genuine_threshold(self):
        assert threshold_an_to_s_squeezed_vac(0.5, 1.0) == pytest.approx(
            THR_SQUEEZED_05_10, abs=1e-12
        )
        assert 0.0 < threshold_an_to_s_squeezed_vac(0.5, 1.0) < 1.0


class TestThresholdPositivityAgreement:
    """The closed-form thresholds must reproduce the sign of the measure
    evaluated directly on covariance matrices."""

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
    def test_thermal_both_directions_along_trajectory(self, n):
        env = EnvironmentSpec(n=n)
        traj = run(SimulationConfig(r1=0.4, r2=0.3, env=env, L=30))
        thr_san = threshold_s_to_an(n)
        thr_ans = threshold_an_to_s_thermal(n, 1.0)
        for step in traj.steps:
            c_sq = step.coeffs.c22_abs_sq
            g_san = g_system_to_ancilla(step.joint_cm)
            g_ans = g_ancilla_to_system(step.joint_cm)
            if abs(c_sq - thr_san) > 1e-9:
                assert (g_san > 0.0) == (c_sq > thr_san), (step.j, c_sq)
            if abs(c_sq - thr_ans) > 1e-9:
                assert (g_ans > 0.0) == (c_sq > thr_ans), (step.j, c_sq)

    def test_squeezed_vacuum_sweep_genuine_threshold(self):
        joint = JointSpec(xi=0.5)
        env = EnvironmentSpec(zeta=1.0)
        thr = threshold_an_to_s_squeezed_vac(0.5, 1.0)
        for c_sq in np.linspace(0.0, 1.0, 41):
            g = g_ancilla_to_system(synthetic_joint_cm(float(c_sq), joint, env))
            if abs(c_sq - thr) > 1e-9:
                assert (g > 0.0) == (c_sq > thr), c_sq

    def test_squeezed_vacuum_sweep_always_steerable(self):
        joint = JointSpec(xi=1.0)
        env = EnvironmentSpec(zeta=0.5)
        for c_sq in np.linspace(0.025, 1.0, 40):
            g = g_ancilla_to_system(synthetic_joint_cm(float(c_sq), joint, env))
            assert g > 0.0, c_sq

    def test_vacuum_environment_always_steerable_an_to_s(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=40))
        for step in traj.steps:
            if step.coeffs.c22_abs_sq > 1e-9:
                assert g_ancilla_to_system(step.joint_cm) > 0.0, step.j

    def test_matched_squeezing_always_steerable_an_to_s(self):
        env = EnvironmentSpec(zeta=0.7)
        traj = run(
            SimulationConfig(r1=0.5, r2=0.35, joint=JointSpec(xi=0.7), env=env, L=30)
        )
        for step in traj.steps:
            if step.coeffs.c22_abs_sq > 1e-9:
                assert g_ancilla_to_system(step.joint_cm) > 0.0, step.j
