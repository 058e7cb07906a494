"""Collision-chain engine: closed-form joint covariance against full
symplectic propagation, and trajectory bookkeeping."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide import cli, engine, witnesses
from gausscollide.divisibility import SKIP_TOL
from gausscollide.engine import (
    SimulationConfig,
    Trajectory,
    _column_blocks,
    _columns,
    env_ancilla_cm,
    env_mode_columns,
    initial_full_cm,
    iter_steps,
    joint_cm_closed_form,
    joint_cm_stack,
    run,
)
from gausscollide.network import NORMALIZATION_TOL, mixing_block
from gausscollide.reference import (
    CCoefficients,
    apply_collision_inplace,
    extract_c_coefficients,
    mode_unitary_to_symplectic,
    physicality_check,
    reduce_to_modes,
    squeezed_thermal_cm,
    tmsv_cm,
)
from gausscollide.states import EnvironmentSpec, JointSpec
from gausscollide.steering import Direction, steering_series

# V_S scalar after one round at r1 = 0.4 with vacuum environment, xi = 1:
# 0.16 cosh(1) + 0.84
VS_ONE_ROUND = 0.16 * math.cosh(1.0) + 0.84

ENV_FAMILIES = [
    EnvironmentSpec(),
    EnvironmentSpec(n=0.8),
    EnvironmentSpec(zeta=0.5, phi_env=0.7),
    EnvironmentSpec(n=0.6, zeta=0.4, phi_env=2.1),
]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(r1=1.2, r2=0.3)
        with pytest.raises(ValueError):
            SimulationConfig(r1=0.4, r2=-0.1)
        with pytest.raises(ValueError):
            SimulationConfig(r1=0.4, r2=0.3, L=0)
        for r1 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r1"):
                SimulationConfig(r1=r1, r2=0.3)
        with pytest.raises(ValueError, match="phi_shift"):
            SimulationConfig(r1=0.4, r2=0.3, phi_shift=math.nan)

    def test_defaults(self):
        config = SimulationConfig(r1=0.4, r2=0.3)
        assert config.L == 250
        assert config.joint.xi == 1.0
        assert config.env == EnvironmentSpec()
        assert not config.oracle_enabled


class TestTrajectory:
    def test_step_count_and_initial_state(self):
        config = SimulationConfig(r1=0.4, r2=0.3, L=7)
        traj = run(config)
        assert len(traj) == 8
        assert [s.j for s in traj.steps] == list(range(8))
        first = traj.steps[0]
        assert first.coeffs.c22 == 1.0 + 0.0j
        np.testing.assert_allclose(first.joint_cm, tmsv_cm(JointSpec(xi=1.0)), atol=1e-14)
        assert all(sigma is None for *_, sigma in iter_steps(config))

    def test_one_round_vacuum_closed_form(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=1))
        cm = traj.steps[1].joint_cm
        np.testing.assert_allclose(cm[:2, :2], math.cosh(1.0) * np.eye(2), atol=1e-13)
        np.testing.assert_allclose(cm[2:, 2:], VS_ONE_ROUND * np.eye(2), atol=1e-13)
        np.testing.assert_allclose(
            cm[:2, 2:], math.sinh(1.0) * 0.4 * np.diag([1.0, -1.0]), atol=1e-13
        )

    def test_full_reflection_keeps_purity(self):
        # r1 = 1: the system only acquires a phase per round, |c22| = 1,
        # and the environment never mixes in
        traj = run(SimulationConfig(r1=1.0, r2=0.3, phi_shift=0.9, L=6))
        for step in traj.steps:
            assert abs(step.coeffs.c22) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                step.joint_cm[2:, 2:], math.cosh(1.0) * np.eye(2), atol=1e-12
            )
        np.testing.assert_allclose(
            traj.steps[3].coeffs.c22, np.exp(-3 * 0.9j), atol=1e-12
        )

    def test_steps_view_matches_iter_steps(self):
        # run builds |c22|^2 itself; it must keep CCoefficients' abs(c22) ** 2,
        # also where r in {0, 1} and phi in {0, pi} make signed zeros
        env = EnvironmentSpec(n=0.4, zeta=0.3, phi_env=0.7)
        edges = [(r1, r2, phi) for r1 in (0.0, 1.0) for r2 in (0.0, 1.0, 0.35)
                 for phi in (0.0, math.pi)]
        for r1, r2, phi in [(0.55, 0.35, 1.1), *edges]:
            config = SimulationConfig(r1=r1, r2=r2, phi_shift=phi, env=env, L=40)
            traj = run(config)
            expected = [coeffs for _, coeffs, _ in iter_steps(config)]
            assert [s.coeffs for s in traj.steps] == expected
            for name in ("c22", "c22_abs_sq", "env_square_sum", "env_abs_square_sum"):
                column = np.array([getattr(c, name) for c in expected]).tobytes()
                assert getattr(traj, name).tobytes() == column, (name, r1, r2, phi)
                assert np.array([getattr(s.coeffs, name) for s in traj.steps]).tobytes() == column
            assert np.array([s.joint_cm for s in traj.steps]).tobytes() == traj.joint_cm.tobytes()

    def test_compares_by_identity_and_hashes(self):
        config = SimulationConfig(r1=0.4, r2=0.3, L=3)
        traj = run(config)
        assert (traj == run(config)) is False
        assert traj == traj
        assert {traj} == {traj} and len({traj.steps[0], traj.steps[0]}) == 1

    def test_series_helpers(self):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, L=3))
        np.testing.assert_allclose(traj.c22_abs_sq, np.abs(traj.c22) ** 2, atol=1e-14)
        assert traj.c22_abs_sq[1] == pytest.approx(0.16, abs=1e-14)


def scalar_closed_form(coeffs, joint, env):
    """The joint covariance in one-step scalar arithmetic: the rounding the
    stacked evaluation must keep (numpy's complex array product does not)."""
    cs = coeffs.c22.conjugate()
    v = np.exp(-1j * env.phi_env) * coeffs.env_square_sum
    nf = 2.0 * env.n + 1.0
    ch_x, sh_x = np.cosh(joint.xi), np.sinh(joint.xi)
    ch_z, sh_z = np.cosh(env.zeta), np.sinh(env.zeta)
    base = ch_x * coeffs.c22_abs_sq + nf * ch_z * (1.0 - coeffs.c22_abs_sq)
    re_j, im_j = sh_x * cs.real, sh_x * cs.imag
    return np.array([
        [ch_x, 0.0, re_j, im_j],
        [0.0, ch_x, im_j, sh_x * -cs.real],
        [re_j, im_j, base + nf * sh_z * v.real, -nf * sh_z * v.imag],
        [im_j, sh_x * -cs.real, -nf * sh_z * v.imag, base - nf * sh_z * v.real],
    ])


class TestClosedFormStack:
    @pytest.mark.parametrize("seed", range(12))
    def test_run_rows_equal_one_step_forms_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, zeta = rng.uniform(0, 2), rng.uniform(0, 1.5)
        env = [EnvironmentSpec(n=n), EnvironmentSpec(zeta=zeta, phi_env=rng.uniform(-3, 3)),
               EnvironmentSpec(n=n, zeta=zeta, phi_env=rng.uniform(-3, 3))][seed % 3]
        config = SimulationConfig(
            r1=0.0 if seed % 4 == 3 else rng.uniform(), r2=rng.uniform(),
            phi_shift=rng.uniform(-3, 3), joint=JointSpec(xi=rng.uniform(0.1, 3)), env=env, L=80,
        )
        for step in run(config).steps:
            one_step = joint_cm_closed_form(step.coeffs, config.joint, config.env)
            scalar = scalar_closed_form(step.coeffs, config.joint, config.env)
            assert step.joint_cm.tobytes() == one_step.tobytes() == scalar.tobytes(), step.j


class TestClosedFormAgainstPropagation:
    @pytest.mark.parametrize("env", ENV_FAMILIES)
    def test_all_environment_families(self, env):
        config = SimulationConfig(
            r1=0.55, r2=0.35, phi_shift=1.1, joint=JointSpec(xi=0.8), env=env,
            L=20, oracle_enabled=True,
        )
        for _, coeffs, sigma in iter_steps(config):
            np.testing.assert_allclose(
                joint_cm_closed_form(coeffs, config.joint, config.env),
                reduce_to_modes(sigma, [0, 1]), atol=1e-10,
            )

    def test_initial_full_cm_layout(self):
        config = SimulationConfig(
            r1=0.4, r2=0.3, env=EnvironmentSpec(n=0.5, zeta=0.3), L=3
        )
        cm = initial_full_cm(config)
        assert cm.shape == (12, 12)
        np.testing.assert_allclose(cm[:4, :4], tmsv_cm(config.joint))
        env_block = squeezed_thermal_cm(config.env)
        for m in range(2, 6):
            np.testing.assert_allclose(reduce_to_modes(cm, [m]), env_block)
        ok, _ = physicality_check(cm)
        assert ok

    def test_global_purity_with_vacuum_environment(self):
        config = SimulationConfig(r1=0.6, r2=0.25, L=15, oracle_enabled=True)
        for *_, sigma in iter_steps(config):
            sign, logdet = np.linalg.slogdet(sigma)
            assert sign == 1.0
            assert abs(logdet) < 1e-8

    def test_ancilla_block_is_constant(self):
        config = SimulationConfig(
            r1=0.7, r2=0.45, phi_shift=0.4, env=EnvironmentSpec(n=0.3), L=12,
            oracle_enabled=True,
        )
        for *_, sigma in iter_steps(config):
            np.testing.assert_allclose(
                reduce_to_modes(sigma, [0]), math.cosh(1.0) * np.eye(2), atol=1e-11
            )

    def test_full_cm_stays_physical(self):
        config = SimulationConfig(
            r1=0.35, r2=0.6, phi_shift=2.2,
            env=EnvironmentSpec(n=0.4, zeta=0.6, phi_env=1.0), L=10,
            oracle_enabled=True,
        )
        *_, (*_, sigma) = iter_steps(config)
        ok, min_eig = physicality_check(sigma)
        assert ok, min_eig


class TestMemorylessLimit:
    def test_r2_one_equals_fresh_environment_chain(self):
        """With r2 = 1 each round sees a fresh environment mode, so the
        system block must follow an independent two-mode collision chain."""
        env = EnvironmentSpec(n=0.5, zeta=0.4, phi_env=0.9)
        config = SimulationConfig(
            r1=0.45, r2=1.0, phi_shift=0.6, joint=JointSpec(xi=1.2), env=env, L=12
        )
        traj = run(config)

        t1 = math.sqrt(1.0 - 0.45**2)
        block2 = np.array(
            [[0.45 * np.exp(0.6j), t1 * np.exp(0.6j)], [-t1, 0.45]], dtype=complex
        )
        s4 = mode_unitary_to_symplectic(block2)
        vs = math.cosh(1.2) * np.eye(2)
        env_cm = squeezed_thermal_cm(env)
        for j in range(1, 13):
            joint2 = np.zeros((4, 4))
            joint2[:2, :2] = vs
            joint2[2:, 2:] = env_cm
            vs = (s4 @ joint2 @ s4.T)[:2, :2]
            np.testing.assert_allclose(traj.steps[j].joint_cm[2:, 2:], vs, atol=1e-11)


def full_cms(config):
    """Copies of the full-chain covariance after each round, j = 0 .. L."""
    return [sigma.copy() for *_, sigma in iter_steps(replace(config, oracle_enabled=True))]


class TestEnvAncilla:
    def test_requires_oracle(self):
        _, (*_, sigma), _ = iter_steps(SimulationConfig(r1=0.4, r2=0.3, L=2))
        with pytest.raises(ValueError, match="iter_steps with oracle_enabled"):
            env_ancilla_cm(sigma, 1)

    def test_index_range(self):
        sigma = full_cms(SimulationConfig(r1=0.4, r2=0.3, L=2))[1]
        with pytest.raises(IndexError):
            env_ancilla_cm(sigma, 0)
        with pytest.raises(IndexError):
            env_ancilla_cm(sigma, 4)

    def test_initial_product_structure(self):
        env = EnvironmentSpec(n=0.5, zeta=0.3)
        sigma = full_cms(SimulationConfig(r1=0.4, r2=0.3, env=env, L=2))[0]
        cm = env_ancilla_cm(sigma, 2)
        np.testing.assert_allclose(cm[:2, :2], squeezed_thermal_cm(env))
        np.testing.assert_allclose(cm[2:, 2:], math.cosh(1.0) * np.eye(2))
        np.testing.assert_allclose(cm[:2, 2:], 0.0, atol=1e-14)

    def test_untouched_modes_stay_uncorrelated(self):
        sigma = full_cms(SimulationConfig(r1=0.4, r2=0.3, L=8))[2]
        # after 2 rounds only E_1..E_3 have collided; E_6 is beyond the light cone
        cm = env_ancilla_cm(sigma, 6)
        np.testing.assert_allclose(cm[:2, 2:], 0.0, atol=1e-13)


def assert_same_row(coeffs, ref, where=None):
    """c22, W and H of a recurrence row against the dense reference, to 1e-12."""
    for name in ("c22", "env_square_sum", "env_abs_square_sum"):
        assert abs(getattr(coeffs, name) - getattr(ref, name)) <= 1e-12, (name, where)


EDGE_REFLECTIVITIES = [(r1, r2) for r1 in (0.0, 1.0, 0.37) for r2 in (0.0, 1.0, 0.61)]


class TestRecurrenceAgainstDenseReference:
    """The O(1)-state recurrence against rows of the dense (L+3)^2 composed
    unitary: the system row at every step, and each E_k row."""

    @staticmethod
    def env_rows(config, modes):
        """Per mode, the unit, carried and middle rows of env_mode_columns."""
        c22, _, w, h = env_mode_columns(config, modes)
        rows = [CCoefficients(0, c, env_square_sum=g, env_abs_square_sum=a)
                for c, g, a in zip(c22.tolist(), w.tolist(), h.tolist())]
        return [rows[i : i + 3] for i in range(0, len(rows), 3)]

    def check(self, config, steps):
        """Every E_k row at each j in steps, the system row at every j: E_k's
        row is the unit row before j = k - 1, the carried row at k - 1 and
        the middle row from k on."""
        modes = range(1, config.L + 2)
        env_rows = self.env_rows(config, modes)
        u = np.eye(config.L + 3, dtype=complex)
        for j, coeffs, _ in iter_steps(config):
            if j > 0:
                apply_collision_inplace(u, j, config.r1, config.r2, config.phi_shift)
            assert_same_row(coeffs, extract_c_coefficients(u, j), j)
            if j in steps:
                for k, rows in zip(modes, env_rows):
                    row = rows[0 if j < k - 1 else 1 if j == k - 1 else 2]
                    assert_same_row(row, extract_c_coefficients(u, j, m=k + 1), (j, k))

    @pytest.mark.parametrize("r1,r2", EDGE_REFLECTIVITIES)
    def test_edge_reflectivities(self, r1, r2):
        config = SimulationConfig(r1=r1, r2=r2, phi_shift=0.9, L=30)
        self.check(config, range(config.L + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_configurations(self, seed):
        rng = np.random.default_rng(seed)
        config = SimulationConfig(
            r1=rng.uniform(), r2=rng.uniform(), phi_shift=rng.uniform(-3, 3), L=400
        )
        self.check(config, {0, 1, 2, 199, 200, 201, 399, 400})

    def test_normalization_holds_at_long_chains(self):
        # The engine takes H = 1 - |c22|^2; against an H summed on its own,
        # the defect stays far below the tolerance with r1 near 1 and L = 1e5.
        config = SimulationConfig(r1=0.999, r2=0.3, phi_shift=0.7, L=100_000)
        rows = zip(iter_steps(config), hermitian_sums(config), strict=True)
        defect = max(abs(coeffs.c22_abs_sq + h_ref - 1.0) for (_, coeffs, _), h_ref in rows)
        assert defect < NORMALIZATION_TOL / 10


_INITIAL_STATE = (1 + 0j, 0j, 0j, 0j, 1 + 0j)  # S = e_1, E = e_2


def _next_state(k, state):
    """State (a_s, a_e, g_ss, g_se, g_ee) after one round, from the round's
    constants k (engine._round_constants), each sum in the order they list
    its terms."""
    a_s, a_e, g_ss, g_se, g_ee = state
    (s_s, s_e), (f_s, f_e), g1, g2, g3 = k
    return (
        s_s * a_s + s_e * a_e,
        f_s * a_s + f_e * a_e,
        g1[0] * g_ss + g1[1] * g_se + g1[2] * g_ee + g1[3],
        g2[0] * g_ss + g2[1] * g_se + g2[2] * g_ee + g2[3],
        g3[0] * g_ss + g3[1] * g_se + g3[2] * g_ee + g3[3],
    )


def _states(config, dtype=complex):
    """The scalar reference for the engine's block powers: the recurrence
    state after j rounds, j = 0 .. L, one complex step at a time, in Python
    complex or in numpy's dtype (np.clongdouble for extended precision).
    A row's coefficients are c22 = conj(a_s) and W = conj(g_ss)."""
    k = engine._round_constants(mixing_block(config.r1, config.r2, config.phi_shift))
    return itertools.accumulate(itertools.repeat(k, config.L),
                                lambda state, k: _next_state(k, state),
                                initial=tuple(map(dtype, _INITIAL_STATE)))


def hermitian_sums(config):
    """H = sum_m |S_m|^2 of the system row S over the environment columns,
    j = 0 .. L, from a scalar recurrence of its own.

    Round j maps the rows x = (S, E, F) to p.x for each row p of the
    mixing block, F a unit row orthogonal to S and E, so the Hermitian sums
    h(p.x, q.x) = sum_m (p.x)_m conj((q.x)_m) of the rows S and E handed on
    follow from h_ss, h_se = h(S, E) and h_ee.
    """
    s_row, _, f_row = mixing_block(config.r1, config.r2, config.phi_shift).tolist()

    def h(p, q, h_ss, h_se, h_ee):
        p_s, p_e, p_f = p
        q_s, q_e, q_f = (v.conjugate() for v in q)
        return (p_s * q_s * h_ss + p_s * q_e * h_se + p_e * q_s * h_se.conjugate()
                + p_e * q_e * h_ee + p_f * q_f)

    sums = (0j, 0j, 1 + 0j)  # S = e_1, E = e_2
    yield 0.0
    for _ in range(config.L):
        sums = h(s_row, s_row, *sums), h(s_row, f_row, *sums), h(f_row, f_row, *sums)
        yield sums[0].real


@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_cauchy_schwarz_margin(phi):
    # Every row of every route keeps |W| <= H = 1 - |c22|^2 far inside the
    # tolerance _columns allows, also where r1 rounds to 1.
    configs = [SimulationConfig(r1=r1, r2=r2, phi_shift=phi, L=3000)
               for r1 in (0.0, 1.0, 1.0 - 1e-16, 0.37) for r2 in (0.0, 1.0, 0.61)]
    (batched,) = _column_blocks(configs, 3000, 3001)  # one gathered block of 12 cells
    _, _, w, h = _columns(*batched)
    margins = [np.abs(w) - h]
    for config in configs:
        columns = run(config)
        margins.append(np.abs(columns.env_square_sum) - columns.env_abs_square_sum)
        _, _, w, h = env_mode_columns(config, range(1, config.L + 2))
        margins.append(np.abs(w) - h)
    assert max(m.max() for m in margins) <= NORMALIZATION_TOL / 100


ACCURACY_CASES = [(r1, r2, phi) for r1 in (0.0, 0.37, 0.999, 1.0) for r2 in (0.0, 0.61, 1.0)
                  for phi in (0.0, math.pi)]


def _accuracy_columns(states):
    """|c22|^2, the amplitude state's |(a_s, a_e)| and W of reference states."""
    states = list(states)
    a = np.array([(s[0], s[1]) for s in states], dtype=np.clongdouble)
    c_sq = a[:, 0].real ** 2 + a[:, 0].imag ** 2
    norm = np.sqrt(c_sq + a[:, 1].real ** 2 + a[:, 1].imag ** 2)
    return c_sq, norm, np.array([complex(s[2].conjugate()) for s in states])


@pytest.mark.parametrize("r1, r2, phi", ACCURACY_CASES)
def test_block_powers_track_the_scalar_recurrence(r1, r2, phi):
    """At L = 10^4, |c22|^2 is within 1e-12 relative of the scalar
    reference wherever it exceeds 1e-200, and the step ratio
    |c22(j)|^2 / |c22(j-1)|^2 within 1e-13 max(1, ratio) wherever the step is
    not skipped; W is within 1e-12.

    Rounding errors scale with the amplitude state's norm |(a_s, a_e)|, not
    with |c22| = |a_s|, and where c22 cancels (r2 = 0 with phi = pi makes
    the amplitude map a rotation) the scalar reference is itself up to
    1.8e-11 off in |c22|^2, against the recurrence in extended precision.
    So the relative bounds hold on the rows where k = norm / |c22| <= 10,
    and everywhere in normwise form: 1e-12 |c22| norm for |c22|^2, and
    1e-13 max(1, ratio) (k(j) + k(j-1)) / 2 for the ratio."""
    config = SimulationConfig(r1=r1, r2=r2, phi_shift=phi, L=10_000)
    c_sq, norm, w = _accuracy_columns(_states(config))
    c_sq, norm = c_sq.astype(float), norm.astype(float)
    traj = run(config)
    assert np.all(np.abs(traj.env_square_sum - w) <= 1e-12)

    c = np.sqrt(c_sq)
    whole = c >= norm / 10  # k <= 10
    live = c_sq > 1e-200
    deviation = np.abs(traj.c22_abs_sq - c_sq)
    assert np.all(deviation[live] <= 1e-12 * c[live] * norm[live])
    assert np.all(deviation[live & whole] <= 1e-12 * c_sq[live & whole])

    kept = np.flatnonzero(c_sq[:-1] >= SKIP_TOL) + 1  # the steps j not skipped
    ratio = c_sq[kept] / c_sq[kept - 1]
    deviation = np.abs(traj.c22_abs_sq[kept] / traj.c22_abs_sq[kept - 1] - ratio)
    bound = 1e-13 * np.maximum(1.0, ratio)
    # the factor (k(j) + k(j-1)) / 2, multiplied through by 2 |c22(j)| |c22(j-1)|
    scaled = norm[kept] * c[kept - 1] + norm[kept - 1] * c[kept]
    assert np.all(2 * c[kept] * c[kept - 1] * deviation <= bound * scaled)
    both = whole[kept] & whole[kept - 1]
    assert np.all(deviation[both] <= bound[both])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double has no extra precision on this platform")
@pytest.mark.parametrize("r1, r2, phi", [c for c in ACCURACY_CASES if 0.0 < c[0] < 1.0])
def test_block_powers_are_as_accurate_as_the_scalar_recurrence(r1, r2, phi):
    """Against the recurrence run in extended precision, the block powers'
    |c22|^2 is within 2 ulp in the median over rows, and in its worst row no
    further off than the scalar recurrence in its worst."""
    config = SimulationConfig(r1=r1, r2=r2, phi_shift=phi, L=10_000)
    exact, _, _ = _accuracy_columns(_states(config, np.clongdouble))
    scalar, _, _ = _accuracy_columns(_states(config))
    traj = run(config)
    live = exact > 1e-200
    block, step = (np.abs(x[live] - exact[live]) / exact[live] for x in (traj.c22_abs_sq, scalar))
    assert np.median(block) <= 2 * np.finfo(float).eps
    assert block.max() <= step.max()


COLUMNS = ("c22", "c22_abs_sq", "env_square_sum", "env_abs_square_sum", "joint_cm")
REFLECTIVITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def batched_trajectories(configs, chunk):
    """One Trajectory per configuration from one gathered block of the whole
    rows of `chunk` cells at a time, through the 2-d `_columns` of `scan`."""
    L = configs[0].L
    for at in range(0, len(configs), chunk):
        (block,) = _column_blocks(configs[at : at + chunk], L, L + 1)
        c22, c_sq, w, _ = _columns(*block)
        yield from (Trajectory(config, *columns)
                    for config, *columns in zip(configs[at : at + chunk], c22, c_sq, w))


class TestBatchedRecurrence:
    """The evaluator runs the recurrence of many cells as one array
    computation; each cell's columns must keep run()'s bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.tuples(REFLECTIVITY, REFLECTIVITY), min_size=1, max_size=9),
        phi=st.sampled_from([0.0, 0.9, -2.2, math.pi]) | st.floats(-4.0, 4.0),
        env=st.sampled_from(ENV_FAMILIES),
        L=st.integers(1, 60),
        chunk=st.integers(1, 4),
    )
    def test_columns_equal_run_bit_for_bit(self, points, phi, env, L, chunk):
        configs = [SimulationConfig(r1=a, r2=b, phi_shift=phi, env=env, L=L) for a, b in points]
        trajectories = list(batched_trajectories(configs, chunk))  # chunks of `chunk` cells
        assert len(trajectories) == len(configs)
        for config, traj in zip(configs, trajectories):
            ref = run(config)
            assert traj.config == config
            for name in COLUMNS:
                column, expected = getattr(traj, name), getattr(ref, name)
                assert column.dtype == expected.dtype and column.shape == expected.shape
                assert column.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_signed_zeros_equal_run(self, phi):
        # r1, r2 in {0, 1} and phi in {0, pi} make sums of signed zeros, which
        # the draws above reach only by chance; the four cells are one chunk.
        configs = [SimulationConfig(r1=a, r2=b, phi_shift=phi, L=6)
                   for a in (0.0, 1.0) for b in (0.0, 1.0)]
        for config, traj in zip(configs, batched_trajectories(configs, len(configs))):
            ref = run(config)
            for name in COLUMNS:
                assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("phi", [0.0, math.pi, 0.9])
    def test_scalar_state_is_complex(self, phi):
        # Every product in the scalar reference is complex x complex, so its
        # bits do not depend on how a Python version promotes a float operand.
        for state in _states(SimulationConfig(r1=0.4, r2=1.0, phi_shift=phi, L=4)):
            assert all(type(v) is complex for v in state)

    def test_grids_walk_chunks_of_their_guard(self, capsys, corrupt_blocks):
        # scan walks the blocks of a chunk of cells at a time, as many cells as
        # its guard lets one chunk hold, and each cell once.
        walks = corrupt_blocks()
        axis = "0.05:0.95:21"  # the README scan
        assert cli.main(["scan", "--grid-r1", axis, "--grid-r2", axis, "--L", "250"]) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 441
        size = witnesses.scan_chunk(441, 250, cli.EMIT_ROWS)[0]
        assert 1 < size < 441
        sizes = [(len(configs), steps) for configs, steps, _ in walks]
        assert sizes == [(min(size, 441 - at), cli.EMIT_ROWS) for at in range(0, 441, size)]

    def test_normalization_failure_keeps_its_message(self, capsys, monkeypatch):
        constants = engine._round_constants

        def leaky(block):  # the system amplitude gains 1% per round
            k = constants(block)
            return ((k[0][0] * 1.01, k[0][1] * 1.01), *k[1:])

        monkeypatch.setattr(engine, "_round_constants", leaky)
        config = SimulationConfig(r1=0.4, r2=0.3, L=5)
        # caught at row 1: |W| = t1^2 = 0.84 > H = 1 - (1.01 r1)^2 = 0.836784
        with pytest.raises(ValueError, match=r"^coefficient column not normalized at row 1: "
                           r"\|W\| = 0\.84") as scalar:
            run(config)
        # scan names the failing cell before the same message (exit 2)
        code = cli.main(["scan", "--grid-r1", "0.4,0.5", "--grid-r2", "0.3,0.35", "--L", "5"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: cell r1 = 0.4, r2 = 0.3: "
                                                        f"{scalar.value}\n")

    def test_history_takes_its_chunk_guard(self):
        # scan sizes a chunk from the bytes a cell holds (witnesses.scan_chunk): its
        # share of one gathered block, no longer than the chain, with the
        # witnesses' temporaries, measured, and the positive G increments kept
        # to the end, RISE_BYTES per step at most.  The traced peak stays within
        # it, and at L = 4000 the part beside the increments fills most of what
        # the guard measured.
        configs = [SimulationConfig(r1=r1, r2=0.3) for r1 in np.linspace(0.0, 1.0, 32)]
        for L in (1, 10, 40, 120, 400, 1000, 4000):
            chunk = [replace(c, L=L) for c in configs]
            tracemalloc.start()
            try:
                witnesses.scan_measures(chunk, witnesses.witness_blocks(
                    chunk, L, witnesses.DIRECTIONS, cli.EMIT_ROWS))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= len(chunk) * witnesses.scan_chunk(1, L, cli.EMIT_ROWS)[1], L
            # The evaluator allocates only the rows it yields: 2 steps at L = 1, not EMIT_ROWS.
            assert L > 1 or peak < 5000 * len(chunk), peak
        # Charged a whole block of EMIT_ROWS rows (62 kB a cell), a chunk at L = 1 held 33 cells.
        assert witnesses.scan_chunk(10**6, 1, cli.EMIT_ROWS)[0] >= 10 * 33
        kept = 8 * sum(np.count_nonzero(np.diff(steering_series(run(c), d)) > 0.0)
                       for c in chunk for d in Direction)
        measured = len(chunk) * (witnesses.scan_chunk(1, L, cli.EMIT_ROWS)[1]
                                 - witnesses.RISE_BYTES * (L + 1))
        assert peak - kept > 0.8 * measured

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), L=st.integers(1, 300), cells=st.integers(1, 4),
           rows=st.sampled_from([[0], slice(None)]), sums=st.booleans())
    def test_gathered_blocks_equal_the_evaluator_blocks(self, data, L, cells, rows, sums):
        steps = data.draw(st.integers(1, L + 2), label="steps")
        r = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * cells, max_size=2 * cells))
        k = np.array([engine._round_matrices(mixing_block(r1, r2, 0.3))[sums]
                      for r1, r2 in zip(r[::2], r[1::2])])
        x0 = engine._INITIAL_STATES[sums]
        gathered = list(engine._blocks(k, x0, L, rows, steps))
        ungathered = np.concatenate(list(engine._blocks(k, x0, L, rows)), axis=1)
        whole = np.concatenate(gathered, axis=1)
        assert whole.shape == ungathered.shape and whole.tobytes() == ungathered.tobytes()
        b = math.isqrt(L + 1)
        for block in gathered[:-1]:
            assert block.shape[1] % b == 0 and block.shape[1] >= steps
        assert steps <= L or len(gathered) == 1


class TestMemoryGuard:
    def test_refuses_before_the_first_step(self, monkeypatch):
        def no_steps(config):
            raise AssertionError("run started stepping")

        # 10^4 steps of STEP_BYTES (245 B) need about 2.4 MB
        monkeypatch.setattr(engine, "physical_memory", lambda: 2 * 2**20)
        monkeypatch.setattr(engine, "iter_steps", no_steps)
        with pytest.raises(MemoryError, match="L = 10000 "):
            run(SimulationConfig(r1=0.4, r2=0.3, L=10_000))

    def test_oracle_is_refused_before_the_first_step(self, monkeypatch):
        def no_steps(config):
            raise AssertionError("run started stepping")

        # a Trajectory keeps no (2L + 6)^2 covariance; iter_steps streams them
        monkeypatch.setattr(engine, "iter_steps", no_steps)
        config = SimulationConfig(r1=0.4, r2=0.3, L=3, oracle_enabled=True)
        with pytest.raises(ValueError, match=r"iter_steps\(config\)"):
            run(config)


class TestEnvAncillaClosedForm:
    @pytest.mark.parametrize("env", ENV_FAMILIES)
    def test_matches_full_chain_propagation(self, env):
        config = SimulationConfig(r1=0.55, r2=0.35, phi_shift=1.1, env=env, L=9)
        modes = (1, 4, 9, 10)
        env_cms = joint_cm_stack(*env_mode_columns(config, modes)[:3], config.joint, config.env)
        env_cms = env_cms.reshape(len(modes), 3, 4, 4)
        oracle = iter_steps(replace(config, oracle_enabled=True))
        u = np.eye(config.L + 3, dtype=complex)
        for (j, coeffs, _), (_, ref, sigma) in zip(iter_steps(config), oracle):
            assert coeffs.c22 == ref.c22
            if j > 0:
                apply_collision_inplace(u, j, config.r1, config.r2, config.phi_shift)
            assert_same_row(coeffs, extract_c_coefficients(u, j), j)
            for k, cms in zip(modes, env_cms):
                cm = cms[0 if j < k - 1 else 1 if j == k - 1 else 2]
                np.testing.assert_allclose(cm, reduce_to_modes(sigma, [0, k + 1]), atol=1e-12)

    def test_index_range(self):
        config = SimulationConfig(r1=0.4, r2=0.3, L=2)
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                joint_cm_stack(*env_mode_columns(config, [k])[:3], config.joint, config.env)


@pytest.mark.parametrize("c22, w", [
    (complex("nan"), 0.0), (complex("nan+1j"), 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (complex(0.0, math.inf), 0.0), (0.6, math.nan), (0.0, math.inf), (0.0, -math.inf),
])
def test_columns_reject_non_finite_rows(c22, w):
    c22s, ws = np.array([1.0, c22], dtype=complex), np.array([0.0, w], dtype=complex)
    with pytest.raises(ValueError, match="^coefficient column not normalized at row 1: "):
        engine._columns(c22s, ws)


class TestCorrectlyRoundedAbsSquare:
    """|c22|^2 is the correctly rounded square of h = abs(c22) = hypot(re, im),
    which math.pow(h, 2) misses on some platforms (3 of these 4001 rows with
    glibc 2.36)."""

    # the evolve-long benchmark argv of tests/test_cli_golden.py
    CONFIG = SimulationConfig(
        r1=0.51721, r2=0.482887, phi_shift=2.356796, joint=JointSpec(xi=0.908478),
        env=EnvironmentSpec(n=0.87214, zeta=0.364692, phi_env=2.805858), L=4000,
    )

    @staticmethod
    def square(h: float) -> float:
        return float(Fraction(h) ** 2)

    def test_columns(self):
        traj = run(self.CONFIG)
        h = np.hypot(traj.c22.real, traj.c22.imag).tolist()
        assert traj.c22_abs_sq.tolist() == [self.square(a) for a in h]

    def test_coefficients(self):
        traj = run(self.CONFIG)
        for j in (0, 1, 943, 1446, 3688, 4000):
            coeffs = CCoefficients(j, complex(traj.c22[j]),
                                   env_square_sum=complex(traj.env_square_sum[j]),
                                   env_abs_square_sum=float(traj.env_abs_square_sum[j]))
            assert coeffs.c22_abs_sq == self.square(abs(coeffs.c22)) == traj.c22_abs_sq[j]


def test_iter_steps_streams_views():
    config = SimulationConfig(r1=0.4, r2=0.3, L=3, oracle_enabled=True)
    seen = [sigma for _, _, sigma in iter_steps(config)]
    # the generator reuses one buffer; a caller copies what it keeps
    assert all(s is seen[0] for s in seen)


def test_closed_form_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        bad = CCoefficients(step=1, c22=1.0, env_column=np.array([0.5]))
        joint_cm_closed_form(bad, JointSpec(xi=1.0), EnvironmentSpec())
