"""Collision-chain engine: closed-form joint covariance against full
symplectic propagation, and trajectory bookkeeping."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide import engine
from gausscollide.engine import (
    SimulationConfig,
    env_ancilla_cm,
    env_mode_columns,
    initial_full_cm,
    iter_steps,
    iter_trajectories,
    joint_cm_closed_form,
    joint_cm_stack,
    run,
)
from gausscollide.network import (
    NORMALIZATION_TOL,
    CCoefficients,
    apply_collision_inplace,
    extract_c_coefficients,
    mode_unitary_to_symplectic,
)
from gausscollide.states import (
    EnvironmentSpec,
    JointSpec,
    physicality_check,
    reduce_to_modes,
    squeezed_thermal_cm,
    tmsv_cm,
)

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
        # The check runs in CCoefficients on every step; the defect stays
        # far below its tolerance even with r1 near 1 and L = 1e5.
        config = SimulationConfig(r1=0.999, r2=0.3, phi_shift=0.7, L=100_000)
        defect = max(
            abs(coeffs.c22_abs_sq + coeffs.env_abs_square_sum - 1.0)
            for _, coeffs, _ in iter_steps(config)
        )
        assert defect < NORMALIZATION_TOL / 10


COLUMNS = ("c22", "c22_abs_sq", "env_square_sum", "env_abs_square_sum", "joint_cm")
REFLECTIVITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestBatchedRecurrence:
    """iter_trajectories runs the recurrence of many cells as one array
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
        with pytest.MonkeyPatch.context() as mp:  # batched chunks of `chunk` cells
            cell_bytes = engine.CELL_BYTES + engine.CELL_STEP_BYTES * (L + 1)
            mp.setattr(engine, "CHUNK_BYTES", chunk * cell_bytes)
            mp.setattr(engine, "MIN_BATCH_CELLS", 0)
            trajectories = list(iter_trajectories(configs))
        assert len(trajectories) == len(configs)
        for config, traj in zip(configs, trajectories):
            ref = run(config)
            assert traj.config == config
            for name in COLUMNS:
                column, expected = getattr(traj, name), getattr(ref, name)
                assert column.dtype == expected.dtype and column.shape == expected.shape
                assert column.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_signed_zeros_equal_run(self, phi, monkeypatch):
        # r1, r2 in {0, 1} and phi in {0, pi} make sums of signed zeros, which
        # the draws above reach only by chance; the four cells are one chunk.
        monkeypatch.setattr(engine, "MIN_BATCH_CELLS", 0)
        configs = [SimulationConfig(r1=a, r2=b, phi_shift=phi, L=6)
                   for a in (0.0, 1.0) for b in (0.0, 1.0)]
        for config, traj in zip(configs, iter_trajectories(configs)):
            ref = run(config)
            for name in COLUMNS:
                assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("phi", [0.0, math.pi, 0.9])
    def test_scalar_state_is_complex(self, phi):
        # Every product in _next_state is complex x complex, so its bits do
        # not depend on how a Python version promotes a float operand.
        for state in engine._states(SimulationConfig(r1=0.4, r2=1.0, phi_shift=phi, L=4)):
            assert all(type(v) is complex for v in state)

    def test_small_chunk_runs_each_cell(self, monkeypatch):
        def no_steps(configs, L):
            raise AssertionError("a 2-cell chunk was batched")

        configs = [SimulationConfig(r1=r1, r2=0.3, phi_shift=math.pi, L=20) for r1 in (0.0, 0.4)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "MIN_BATCH_CELLS", 0)
            batched = list(iter_trajectories(configs))
        monkeypatch.setattr(engine, "_batched_history", no_steps)
        for traj, ref in zip(iter_trajectories(configs), batched, strict=True):
            for name in COLUMNS:
                assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_grids_fit_one_chunk(self, monkeypatch):
        sizes, history = [], engine._batched_history

        def recorded(configs, L):
            sizes.append(len(configs))
            return history(configs, L)

        monkeypatch.setattr(engine, "_batched_history", recorded)
        axis = np.linspace(0.05, 0.95, 21).tolist()  # the README scan
        grid = [SimulationConfig(r1=r1, r2=r2, L=250) for r1 in axis for r2 in axis]
        assert len(list(iter_trajectories(grid))) == 441
        assert sizes == [441]

    def test_normalization_failure_keeps_its_message(self, monkeypatch):
        constants = engine._round_constants

        def leaky(block):  # the system amplitude gains 1% per round
            k = constants(block)
            return ((k[0][0] * 1.01, k[0][1] * 1.01), *k[1:])

        monkeypatch.setattr(engine, "_round_constants", leaky)
        monkeypatch.setattr(engine, "MIN_BATCH_CELLS", 0)
        config = SimulationConfig(r1=0.4, r2=0.3, L=5)
        with pytest.raises(ValueError, match="^coefficient column not normalized: sum") as scalar:
            run(config)
        with pytest.raises(ValueError) as batched:
            list(iter_trajectories([config, replace(config, r1=0.5)]))
        assert str(batched.value) == str(scalar.value)

    def test_configurations_must_share_all_but_reflectivities(self):
        config = SimulationConfig(r1=0.4, r2=0.3, L=5)
        with pytest.raises(ValueError, match="r1 and r2"):
            list(iter_trajectories([config, replace(config, L=6)]))


class TestMemoryGuard:
    def test_refuses_before_the_first_step(self, monkeypatch):
        def no_steps(config):
            raise AssertionError("run started stepping")

        # 10^4 steps of STEP_BYTES (600 B) need about 6 MB
        monkeypatch.setattr(engine, "physical_memory", lambda: 5 * 2**20)
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
        with pytest.raises(ValueError, match=r"iter_steps\(config\)"):
            list(iter_trajectories([config] * 8))


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


@pytest.mark.parametrize("c22, h", [
    (complex("nan"), 0.0), (complex("nan+1j"), 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (complex(0.0, math.inf), 0.0), (0.6, math.nan), (0.0, math.inf), (0.0, -math.inf),
])
def test_columns_reject_non_finite_rows(c22, h):
    c22s, hs = np.array([1.0, c22], dtype=complex), np.array([0.0, h])
    with pytest.raises(ValueError, match="^coefficient column not normalized: sum"):
        engine._columns(c22s, np.zeros(2, dtype=complex), hs)


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
