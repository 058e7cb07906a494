"""Release acceptance suite.

Each test verifies one criterion end to end and prints a single
PASS line (visible with -s or in captured output) when it holds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gausscollide import (
    Direction,
    EnvironmentSpec,
    JointSpec,
    SimulationConfig,
    channel_xy,
    divisibility_records,
    env_ancilla_cm,
    intermediate_cp_matrix,
    iter_steps,
    joint_cm_closed_form,
    nm_cptp,
    nm_from_steering,
    run,
    steerability,
    steering_series,
)
from gausscollide.cli import main


def _report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {label}")


def _random_config(rng, env, L):
    return SimulationConfig(
        r1=float(rng.uniform(0.05, 0.95)),
        r2=float(rng.uniform(0.05, 0.95)),
        phi_shift=float(rng.uniform(0.0, 2.0 * math.pi)),
        joint=JointSpec(xi=float(rng.uniform(0.2, 1.5))),
        env=env,
        L=L,
    )


def _random_env(rng, family: str) -> EnvironmentSpec:
    if family == "vacuum":
        return EnvironmentSpec()
    if family == "thermal":
        return EnvironmentSpec(n=float(rng.uniform(0.0, 1.5)))
    if family == "squeezed":
        return EnvironmentSpec(
            zeta=float(rng.uniform(0.0, 0.8)), phi_env=float(rng.uniform(0.0, 2.0 * math.pi))
        )
    return EnvironmentSpec(
        n=float(rng.uniform(0.0, 1.5)),
        zeta=float(rng.uniform(0.0, 0.8)),
        phi_env=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def test_01_initial_steering_closed_form():
    for xi in (0.5, 1.0, 2.0):
        traj = run(SimulationConfig(r1=0.4, r2=0.3, joint=JointSpec(xi=xi), L=1))
        cm0 = traj.steps[0].joint_cm
        expected = math.log(math.cosh(xi))
        for direction in Direction:
            assert steerability(cm0, direction) == pytest.approx(expected, abs=1e-12)
    _report(1, "initial steering equals ln cosh xi in both directions")


def test_02_markovian_line():
    for r1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        traj = run(SimulationConfig(r1=r1, r2=1.0, L=250))
        for direction in Direction:
            g = steering_series(traj, direction)
            assert nm_from_steering(g) < 1e-10, r1
            assert np.all(np.diff(g) <= 1e-10), r1
        assert nm_cptp(traj).value < 1e-10, r1
    _report(2, "r2 = 1 line is Markovian for every r1")


def test_03_oracle_equivalence():
    rng = np.random.default_rng(20260826)
    families = ("vacuum", "thermal", "squeezed", "squeezed-thermal")
    worst = 0.0
    for i in range(50):
        env = _random_env(rng, families[i % 4])
        config = _random_config(rng, env, L=25)
        config = SimulationConfig(
            r1=config.r1, r2=config.r2, phi_shift=config.phi_shift,
            joint=config.joint, env=env, L=25, oracle_enabled=True,
        )
        for j, coeffs, sigma in iter_steps(config):
            reduced = sigma[:4, :4]
            dev = float(np.max(np.abs(joint_cm_closed_form(coeffs, config.joint, env) - reduced)))
            worst = max(worst, dev)
            assert dev < 1e-10, (i, j)
    _report(3, f"closed-form joint CM matches propagation (worst dev {worst:.2e})")


def test_04_threshold_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        base = _random_config(rng, EnvironmentSpec(), L=30)
        for n in (0.0, 0.5, 1.0, 2.0):
            config = SimulationConfig(
                r1=base.r1, r2=base.r2, phi_shift=base.phi_shift,
                joint=base.joint, env=EnvironmentSpec(n=n), L=30,
            )
            traj = run(config)
            threshold = 1.0 - 1.0 / (2.0 * (n + 1.0))
            for step in traj.steps:
                c_sq = step.coeffs.c22_abs_sq
                g_san = steerability(step.joint_cm, Direction.B_TO_A)
                if abs(c_sq - threshold) > 1e-9:
                    assert (g_san > 0.0) == (c_sq > threshold), (n, step.j)
                if n == 0.0 and c_sq > 1e-9:
                    assert steerability(step.joint_cm, Direction.A_TO_B) > 0.0, step.j
    _report(4, "steering sign matches the closed-form thresholds")


def test_05_vacuum_eigenvalue_structure():
    rng = np.random.default_rng(11)
    env = EnvironmentSpec()
    for _ in range(20):
        traj = run(_random_config(rng, env, L=25))
        pairs = [channel_xy(s.coeffs, env) for s in traj.steps]
        for j in range(1, len(pairs)):
            prev_sq = traj.steps[j - 1].coeffs.c22_abs_sq
            if prev_sq < 1e-10:
                continue
            ratio = traj.steps[j].coeffs.c22_abs_sq / prev_sq
            eig = np.linalg.eigvalsh(intermediate_cp_matrix(pairs[j], pairs[j - 1]))
            near_zero = int(np.argmin(np.abs(eig)))
            assert abs(eig[near_zero]) < 1e-12, j
            assert eig[1 - near_zero] == pytest.approx(1.0 - ratio, abs=1e-10), j
    _report(5, "vacuum condition-matrix spectrum is {0, 1 - ratio} at every step")


def test_06_environment_scale_law():
    for r1, r2, phi in [(0.4, 0.3, 0.0), (0.65, 0.2, 2.1)]:
        vac = nm_cptp(run(SimulationConfig(r1=r1, r2=r2, phi_shift=phi, L=60))).value
        for n, zeta in [(0.5, 0.0), (0.0, 0.4), (1.0, 0.3)]:
            val = nm_cptp(
                run(
                    SimulationConfig(
                        r1=r1, r2=r2, phi_shift=phi,
                        env=EnvironmentSpec(n=n, zeta=zeta), L=60,
                    )
                )
            ).value
            assert val == pytest.approx((2 * n + 1) * math.cosh(zeta) * vac, rel=1e-9)
    _report(6, "divisibility measure scales as (2n+1) cosh zeta")


def test_07_sudden_death_and_birth():
    config = SimulationConfig(r1=0.4, r2=0.3, L=10)
    traj = run(config)
    g_san = steering_series(traj, Direction.B_TO_A)

    zeros = [j for j in range(1, 11) if g_san[j] == 0.0]
    positives = [j for j in range(1, 11) if g_san[j] > 0.0]
    assert len(zeros) >= 2 and len(positives) >= 2
    assert any(zeros[0] < p < zeros[-1] for p in positives)

    c_sq = traj.c22_abs_sq[:7]
    crossings = int(np.sum(np.diff(np.sign(c_sq - 0.5)) != 0))
    assert crossings >= 2

    assert g_san[1] == 0.0
    oracle = iter_steps(replace(config, oracle_enabled=True))
    _, (*_, sigma) = next(oracle), next(oracle)  # sigma after round 1
    g_e2 = steerability(env_ancilla_cm(sigma, 2), Direction.A_TO_B)
    assert g_e2 > 0.0
    _report(7, "steering dies, revives, and visits the second environment mode")


def test_08_directional_asymmetry():
    for xi in (0.5, 1.0, 1.5):
        traj = run(SimulationConfig(r1=0.4, r2=0.8, joint=JointSpec(xi=xi), L=250))
        g_san = steering_series(traj, Direction.B_TO_A)
        assert np.all(g_san[1:] == 0.0), xi
        assert nm_from_steering(g_san) <= 1e-12, xi
        assert nm_from_steering(steering_series(traj, Direction.A_TO_B)) > 1e-6, xi
        assert nm_cptp(traj).value > 1e-6, xi
    _report(8, "one-way point: system-side steering dies while the other measures stay positive")


def test_09_phase_shifted_revival():
    traj = run(SimulationConfig(r1=0.75, r2=0.15, phi_shift=math.pi, L=120))
    g = steering_series(traj, Direction.B_TO_A)
    found = False
    j = 1
    while j < len(g) - 2:
        if g[j] == 0.0 and g[j + 1] == 0.0:
            end = j + 2
            while end < len(g) and g[end] == 0.0:
                end += 1
            if end < len(g) and g[end] > 0.0:
                found = True
                break
            j = end
        else:
            j += 1
    assert found, "no zero-run of length >= 2 followed by a revival"
    _report(9, "pi-shifted chain shows an extended death interval then rebirth")


def test_10_boundary_agreement():
    grid = np.linspace(0.05, 0.95, 21)
    agree = 0
    for r1 in grid:
        for r2 in grid:
            traj = run(SimulationConfig(r1=float(r1), r2=float(r2), L=250))
            by_cptp = nm_cptp(traj).value > 1e-8
            by_steering = nm_from_steering(steering_series(traj, Direction.A_TO_B)) > 1e-8
            agree += by_cptp == by_steering
    fraction = agree / (21 * 21)
    assert fraction >= 0.95, fraction
    _report(10, f"non-Markovian region boundaries agree on {100 * fraction:.1f}% of cells")


def test_11_monotone_in_r2():
    values = []
    for r2 in np.arange(0.05, 1.0, 0.10):
        traj = run(SimulationConfig(r1=0.4, r2=float(r2), L=250))
        values.append(nm_cptp(traj).value)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9, values
    _report(11, "divisibility measure never increases along the r2 sweep")


def test_12_scan_determinism(tmp_path, capsys):
    base = [
        "scan", "--grid-r1", "0.05:0.95:6", "--grid-r2", "0.05:0.95:6", "--L", "40",
    ]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "8", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()
    _report(12, "scan output is byte-identical for --jobs 1 and --jobs 8")
