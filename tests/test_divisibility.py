"""Channel X/Y representation, intermediate-map condition matrix, and
the divisibility-based non-Markovianity measure."""

import math

import numpy as np
import pytest

from gausscollide.divisibility import (
    SKIP_TOL,
    channel_xy,
    divisibility_eigenvalues,
    divisibility_records,
    env_noise_scales,
    intermediate_cp_matrix,
    nm_cptp,
)
from gausscollide.engine import SimulationConfig, run
from gausscollide.errors import SingularIntermediateMapError
from gausscollide.network import CCoefficients, collision_unitary, compose_chronological
from gausscollide.states import EnvironmentSpec, JointSpec

RATIO_2 = (0.16 + 0.84 * math.sqrt(0.91)) ** 2 / 0.16  # two-round backflow at (0.4, 0.3)


def real_coeffs(step: int, c_sq: float) -> CCoefficients:
    """Coefficients of a real network with |c22|^2 = c_sq."""
    return CCoefficients(
        step=step, c22=math.sqrt(c_sq), env_column=np.array([math.sqrt(1.0 - c_sq)])
    )


class TestNoiseScales:
    def test_values(self):
        assert env_noise_scales(EnvironmentSpec()) == (1.0, 0.0)
        assert env_noise_scales(EnvironmentSpec(n=1.0)) == (3.0, 0.0)
        n_scale, m_scale = env_noise_scales(EnvironmentSpec(n=0.5, zeta=0.4))
        assert n_scale == pytest.approx(2.0 * math.cosh(0.4), abs=1e-14)
        assert m_scale == pytest.approx(2.0 * math.sinh(0.4), abs=1e-14)

    @pytest.mark.parametrize("n,zeta", [(0.0, 0.0), (0.5, 0.4), (2.0, 1.1)])
    def test_hyperbolic_identity(self, n, zeta):
        n_scale, m_scale = env_noise_scales(EnvironmentSpec(n=n, zeta=zeta))
        assert n_scale**2 - m_scale**2 == pytest.approx((2 * n + 1) ** 2, rel=1e-12)


class TestChannelXY:
    def test_identity_channel_at_step_zero(self):
        coeffs = CCoefficients(step=0, c22=1.0, env_column=np.zeros(3))
        pair = channel_xy(coeffs, EnvironmentSpec(n=0.7, zeta=0.5, phi_env=1.2))
        np.testing.assert_allclose(pair.x, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(pair.y, 0.0, atol=1e-14)

    def test_vacuum_noise_is_isotropic(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, phi_shift=0.8, L=8))
        for step in traj.steps:
            pair = channel_xy(step.coeffs, traj.config.env)
            np.testing.assert_allclose(
                pair.y, (1.0 - step.coeffs.c22_abs_sq) * np.eye(2), atol=1e-12
            )

    def test_x_encodes_rotation_and_damping(self):
        coeffs = CCoefficients(step=1, c22=0.4 * np.exp(-0.9j), env_column=np.array([0.916515138991168]))
        pair = channel_xy(coeffs, EnvironmentSpec())
        c, s = 0.4 * math.cos(0.9), -0.4 * math.sin(0.9)
        np.testing.assert_allclose(pair.x, [[c, -s], [s, c]], atol=1e-12)

    @pytest.mark.parametrize(
        "env",
        [
            EnvironmentSpec(),
            EnvironmentSpec(n=1.2),
            EnvironmentSpec(n=0.4, zeta=0.6, phi_env=2.0),
        ],
    )
    def test_consistency_with_joint_covariance(self, env):
        """The system block of the joint CM must equal X V_in X^T + Y with
        V_in the reduced system input cosh(xi) I."""
        config = SimulationConfig(
            r1=0.6, r2=0.3, phi_shift=1.4, joint=JointSpec(xi=0.9), env=env, L=12
        )
        v_in = math.cosh(0.9) * np.eye(2)
        for step in run(config).steps:
            pair = channel_xy(step.coeffs, env)
            np.testing.assert_allclose(
                pair.x @ v_in @ pair.x.T + pair.y, step.joint_cm[2:, 2:], atol=1e-11
            )


class TestIntermediateMatrix:
    def test_identical_channels_give_zero(self):
        pair = channel_xy(real_coeffs(1, 0.3), EnvironmentSpec(n=0.5, zeta=0.2))
        np.testing.assert_allclose(intermediate_cp_matrix(pair, pair), 0.0, atol=1e-14)

    def test_hermitian_along_generic_trajectory(self):
        env = EnvironmentSpec(n=0.5, zeta=0.6, phi_env=1.1)
        config = SimulationConfig(r1=0.45, r2=0.3, phi_shift=2.3, env=env, L=15)
        traj = run(config)
        pairs = [channel_xy(s.coeffs, env) for s in traj.steps]
        for prev, cur in zip(pairs, pairs[1:]):
            f = intermediate_cp_matrix(cur, prev)
            np.testing.assert_allclose(f, f.conj().T, atol=1e-12)

    def test_vacuum_losing_step_is_cp(self):
        pair_prev = channel_xy(real_coeffs(1, 0.6), EnvironmentSpec())
        pair_cur = channel_xy(real_coeffs(2, 0.4), EnvironmentSpec())
        eig = np.linalg.eigvalsh(intermediate_cp_matrix(pair_cur, pair_prev))
        assert eig[0] >= -1e-12

    def test_vacuum_backflow_step_is_not_cp(self):
        pair_prev = channel_xy(real_coeffs(1, 0.2), EnvironmentSpec())
        pair_cur = channel_xy(real_coeffs(2, 0.5), EnvironmentSpec())
        eig = np.linalg.eigvalsh(intermediate_cp_matrix(pair_cur, pair_prev))
        assert eig[0] < -0.1

    def test_vacuum_spectrum_any_phase(self):
        config = SimulationConfig(r1=0.55, r2=0.25, phi_shift=1.7, L=12)
        traj = run(config)
        pairs = [channel_xy(s.coeffs, traj.config.env) for s in traj.steps]
        for j in range(1, len(pairs)):
            ratio = traj.steps[j].coeffs.c22_abs_sq / traj.steps[j - 1].coeffs.c22_abs_sq
            eig = np.linalg.eigvalsh(intermediate_cp_matrix(pairs[j], pairs[j - 1]))
            expected = sorted([0.0, 1.0 - ratio])
            np.testing.assert_allclose(eig, expected, atol=1e-10)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_closed_form_matches_spectrum_real_network(self, phi):
        env = EnvironmentSpec(n=0.8, zeta=0.5)
        config = SimulationConfig(r1=0.5, r2=0.3, phi_shift=phi, env=env, L=14)
        traj = run(config)
        n_scale, m_scale = env_noise_scales(env)
        pairs = [channel_xy(s.coeffs, env) for s in traj.steps]
        for j in range(1, len(pairs)):
            ratio = traj.steps[j].coeffs.c22_abs_sq / traj.steps[j - 1].coeffs.c22_abs_sq
            eig = np.linalg.eigvalsh(intermediate_cp_matrix(pairs[j], pairs[j - 1]))
            closed = sorted(divisibility_eigenvalues(n_scale, m_scale, ratio))
            np.testing.assert_allclose(eig, closed, atol=1e-10)

    def test_eigendecomposition_cross_check(self):
        # squeezed thermal scales with a 20% backflow ratio
        env = EnvironmentSpec(n=1.0, zeta=0.3)
        pair_prev = channel_xy(real_coeffs(1, 0.25), env)
        pair_cur = channel_xy(real_coeffs(2, 0.30), env)
        eig = np.linalg.eigvalsh(intermediate_cp_matrix(pair_cur, pair_prev))
        n_scale, m_scale = env_noise_scales(env)
        closed = sorted(divisibility_eigenvalues(n_scale, m_scale, 1.2))
        np.testing.assert_allclose(eig, closed, atol=1e-12)

    def test_singular_previous_channel(self):
        env = EnvironmentSpec()
        pair_prev = channel_xy(
            CCoefficients(step=1, c22=0.0, env_column=np.array([1.0])), env
        )
        pair_cur = channel_xy(real_coeffs(2, 0.5), env)
        with pytest.raises(SingularIntermediateMapError):
            intermediate_cp_matrix(pair_cur, pair_prev)


class TestClosedFormEigenvalues:
    def test_vacuum_set(self):
        nu_p, nu_m = divisibility_eigenvalues(1.0, 0.0, 0.3)
        assert nu_m == pytest.approx(0.0, abs=1e-15)
        assert nu_p == pytest.approx(0.7, abs=1e-15)

    def test_no_change_no_violation(self):
        assert divisibility_eigenvalues(2.5, 1.0, 1.0) == (0.0, 0.0)

    def test_backflow_flips_signs(self):
        nu_p, nu_m = divisibility_eigenvalues(3.0, 1.2, 1.5)
        assert nu_p < 0.0 and nu_m < 0.0
        nu_p, nu_m = divisibility_eigenvalues(3.0, 1.2, 0.5)
        assert nu_p > 0.0 and nu_m > 0.0


class TestRecordsAndMeasure:
    def test_known_ratios(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=4))
        records = divisibility_records(traj)
        assert [r.step for r in records] == [1, 2, 3, 4]
        assert records[0].ratio == pytest.approx(0.16, abs=1e-12)
        assert records[1].ratio == pytest.approx(RATIO_2, abs=1e-10)
        assert not any(r.skipped for r in records)

    def test_measure_matches_independent_composition(self):
        """Recompute the vacuum measure from a dense composed-unitary chain."""
        r1, r2, L = 0.4, 0.3, 10
        traj = run(SimulationConfig(r1=r1, r2=r2, L=L))
        c_sq = [1.0]
        for j in range(1, L + 1):
            u = compose_chronological(
                [collision_unitary(i, L, r1, r2) for i in range(1, j + 1)]
            )
            c_sq.append(abs(u[1, 1]) ** 2)
        expected = sum(
            max(0.0, c_sq[j] / c_sq[j - 1] - 1.0) for j in range(2, L + 1)
        )
        assert nm_cptp(traj).value == pytest.approx(expected, rel=1e-10)

    def test_single_step_contribution(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=2))
        result = nm_cptp(traj)
        assert result.value == pytest.approx(RATIO_2 - 1.0, abs=1e-10)
        assert result.skipped_steps == ()

    def test_memoryless_chain_is_divisible(self):
        traj = run(SimulationConfig(r1=0.5, r2=1.0, L=30))
        assert nm_cptp(traj).value == 0.0
        live = [r for r in divisibility_records(traj) if not r.skipped]
        assert len(live) >= 20
        assert all(r.ratio <= 1.0 + 1e-12 for r in live)

    def test_needs_two_rounds(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=1))
        with pytest.raises(ValueError):
            nm_cptp(traj)

    def test_skipped_steps_are_flagged(self):
        # r1 = 0 sends c22 to exactly zero after round 1
        traj = run(SimulationConfig(r1=0.0, r2=0.5, L=3))
        records = divisibility_records(traj)
        assert records[1].step == 2 and records[1].skipped
        assert math.isnan(records[1].ratio)
        assert not records[0].skipped and not records[2].skipped
        assert nm_cptp(traj).skipped_steps == (2,)

    @pytest.mark.parametrize(
        "r1,r2,env",
        [
            (0.0, 0.5, EnvironmentSpec()),
            (0.4, 0.3, EnvironmentSpec(n=0.7)),
            (0.0, 0.8, EnvironmentSpec(n=0.3, zeta=0.6, phi_env=1.2)),
            (0.75, 0.15, EnvironmentSpec(zeta=0.9, phi_env=-2.0)),
        ],
    )
    def test_records_equal_per_step_scalar_reference(self, r1, r2, env):
        traj = run(SimulationConfig(r1=r1, r2=r2, phi_shift=0.8, env=env, L=60))
        n_scale, m_scale = env_noise_scales(env)
        expected = []
        for j in range(1, len(traj)):
            prev_sq = traj.steps[j - 1].coeffs.c22_abs_sq
            if prev_sq < SKIP_TOL:
                expected.append((j, math.nan, math.nan, math.nan, True))
                continue
            ratio = traj.steps[j].coeffs.c22_abs_sq / prev_sq
            expected.append((j, *divisibility_eigenvalues(n_scale, m_scale, ratio), ratio, False))
        got = [(r.step, r.nu_plus, r.nu_minus, r.ratio, r.skipped) for r in divisibility_records(traj)]
        np.testing.assert_equal(got, expected)
        assert all(type(f) is float for rec in got for f in rec[1:4])
        assert got[1][4] == (r1 == 0.0)  # r1 = 0 leaves c22(1) = 0 exactly

    @pytest.mark.parametrize(
        "n,zeta,phi",
        [
            (0.5, 0.0, 0.0),
            (0.0, 0.4, 0.0),
            (1.0, 0.3, math.pi / 3),
            (0.7, 0.8, 1.9),
        ],
    )
    def test_environment_scale_law(self, n, zeta, phi):
        base = SimulationConfig(r1=0.4, r2=0.3, phi_shift=phi, L=40)
        scaled = SimulationConfig(
            r1=0.4, r2=0.3, phi_shift=phi, env=EnvironmentSpec(n=n, zeta=zeta), L=40
        )
        vac = nm_cptp(run(base)).value
        val = nm_cptp(run(scaled)).value
        assert val == pytest.approx((2 * n + 1) * math.cosh(zeta) * vac, rel=1e-9)

    def test_vacuum_criterion_equivalence(self):
        for r1, r2 in [(0.4, 0.3), (0.5, 1.0), (0.75, 0.15), (0.9, 0.85)]:
            traj = run(SimulationConfig(r1=r1, r2=r2, L=25))
            c_sq = traj.c22_abs_sq
            has_backflow = bool(np.any(c_sq[2:] > c_sq[1:-1] + 1e-15))
            assert (nm_cptp(traj).value > 0.0) == has_backflow, (r1, r2)


def nm_cptp_record_loop(traj):
    """nm_cptp as a loop over the divisibility records: the reference."""
    records = divisibility_records(traj)[1:]
    total = 0.0
    for rec in records:
        for nu in (rec.nu_plus, rec.nu_minus):
            if nu < 0.0:
                total -= nu
    return total, tuple(rec.step for rec in records if rec.skipped)


@pytest.mark.parametrize("seed", range(12))
def test_nm_cptp_equals_the_record_loop(seed):
    rng = np.random.default_rng(seed)
    n, zeta, phi_env = rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.2), rng.uniform(0.0, 6.0)
    env = [
        EnvironmentSpec(),
        EnvironmentSpec(n=n),
        EnvironmentSpec(zeta=zeta, phi_env=phi_env),
        EnvironmentSpec(n=n, zeta=zeta, phi_env=phi_env),
    ][seed % 4]
    r1 = 0.0 if seed >= 8 else rng.uniform(0.05, 0.95)
    config = SimulationConfig(r1=r1, r2=rng.uniform(0.0, 1.0), phi_shift=rng.uniform(-3, 3),
                              env=env, L=int(rng.integers(2, 300)))
    traj = run(config)
    measure = nm_cptp(traj)
    assert (measure.value, measure.skipped_steps) == nm_cptp_record_loop(traj)
    assert type(measure.value) is float
    assert (2 in measure.skipped_steps) == (r1 == 0.0)  # r1 = 0 leaves c22(1) = 0
