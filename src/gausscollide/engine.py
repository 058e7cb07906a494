"""Collision-chain evolution engine.

Runs the tunable beam-splitter chain for L rounds and records, per step,
the network coefficients and the joint ancilla-system covariance matrix
(closed form), and the same closed form for chosen environment modes.
An optional oracle path propagates the full (L+3)-mode covariance
matrix symplectically and stores it alongside; it is the independent
reference the tests and `evolve --oracle` check the closed forms against.
"""

from dataclasses import dataclass, field

import numpy as np

from .network import (
    CCoefficients,
    apply_collision_inplace,
    extract_c_coefficients,
    mixing_block,
    mode_unitary_to_symplectic,
)
from .states import (
    EnvironmentSpec,
    JointSpec,
    reduce_to_modes,
    require_finite,
    squeezed_thermal_cm,
    tmsv_cm,
)


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameter set of one collision-chain run.

    r1, r2 are the two beam-splitter reflectivities, phi_shift the phase
    on the system arm, joint the ancilla-system preparation, env the
    (identical) preparation of every environment mode, L the number of
    rounds.  oracle_enabled turns on full-chain covariance propagation.
    """

    r1: float
    r2: float
    phi_shift: float = 0.0
    joint: JointSpec = field(default_factory=lambda: JointSpec(xi=1.0))
    env: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    L: int = 250
    oracle_enabled: bool = False

    def __post_init__(self):
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {r}")
        require_finite("phi_shift", self.phi_shift)
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")


@dataclass(frozen=True)
class StepRecord:
    """State of the chain after `j` rounds (j = 0 is the initial state)."""

    j: int
    coeffs: CCoefficients
    joint_cm: np.ndarray
    full_cm: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    config: SimulationConfig
    steps: list[StepRecord]

    def __len__(self) -> int:
        return len(self.steps)

    def c22_series(self) -> np.ndarray:
        return np.array([s.coeffs.c22 for s in self.steps])

    def abs_c22_sq_series(self) -> np.ndarray:
        return np.array([s.coeffs.c22_abs_sq for s in self.steps])


def closed_form_scalars(coeffs: CCoefficients) -> tuple:
    """The per-step scalars the closed form reads: (c22, |c22|^2, W)."""
    return coeffs.c22, coeffs.c22_abs_sq, coeffs.env_square_sum


def joint_cm_stack(scalars, joint: JointSpec, env: EnvironmentSpec) -> np.ndarray:
    """(n, 4, 4) ancilla-system covariances, one per (c22, |c22|^2, W) triple.

    Closed form in the network coefficients: with c = c22,
    W = sum_m (env amplitude)^2 and V = e^{-i phi_env} W,

        V_An = cosh(xi) I
        V_J  = sinh(xi) [[Re c*, Im c*], [Im c*, -Re c*]]
        V_S,qq = cosh(xi)|c|^2 + (2n+1)[cosh(zeta)(1-|c|^2) + sinh(zeta) Re V]
        V_S,pp = same with -sinh(zeta) Re V
        V_S,qp = -(2n+1) sinh(zeta) Im V

    Ordering is (ancilla, system).  V is formed in real arithmetic and |c|^2
    taken as given: numpy's complex array product and abs round differently.
    """
    c, csq, w = (np.array(column) for column in zip(*scalars))
    e = np.exp(-1j * env.phi_env)
    v_re = e.real * w.real - e.imag * w.imag
    v_im = e.real * w.imag + e.imag * w.real
    nf = 2.0 * env.n + 1.0
    ch_x, sh_x = np.cosh(joint.xi), np.sinh(joint.xi)
    ch_z, sh_z = np.cosh(env.zeta), np.sinh(env.zeta)

    cm = np.zeros((len(c), 4, 4))
    cm[:, 0, 0] = cm[:, 1, 1] = ch_x
    cm[:, 0, 2] = cm[:, 2, 0] = sh_x * c.real
    cm[:, 0, 3] = cm[:, 3, 0] = cm[:, 1, 2] = cm[:, 2, 1] = -sh_x * c.imag
    cm[:, 1, 3] = cm[:, 3, 1] = -sh_x * c.real
    base = ch_x * csq + nf * ch_z * (1.0 - csq)
    cm[:, 2, 2] = base + nf * sh_z * v_re
    cm[:, 3, 3] = base - nf * sh_z * v_re
    cm[:, 2, 3] = cm[:, 3, 2] = -nf * sh_z * v_im
    return cm


def joint_cm_closed_form(
    coeffs: CCoefficients, joint: JointSpec, env: EnvironmentSpec
) -> np.ndarray:
    """4x4 ancilla-system covariance matrix after the recorded step."""
    return joint_cm_stack([closed_form_scalars(coeffs)], joint, env)[0]


def initial_full_cm(config: SimulationConfig) -> np.ndarray:
    """Product-state covariance of [An, S, E_1 .. E_{L+1}] before round 1."""
    n_modes = config.L + 3
    cm = np.eye(2 * n_modes)
    cm[:4, :4] = tmsv_cm(config.joint)
    env_cm = squeezed_thermal_cm(config.env)
    for m in range(2, n_modes):
        cm[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = env_cm
    return cm


def apply_collision_to_cm(
    sigma: np.ndarray, j: int, r1: float, r2: float, phi: float = 0.0
) -> None:
    """Propagate the full covariance matrix through round j, in place.

    Round j only mixes modes (S, E_j, E_{j+1}), so the congruence
    sigma -> S sigma S^T reduces to a 6-row and 6-column update.
    """
    s6 = mode_unitary_to_symplectic(mixing_block(r1, r2, phi))
    rows = [q for m in (1, j + 1, j + 2) for q in (2 * m, 2 * m + 1)]
    sigma[rows, :] = s6 @ sigma[rows, :]
    sigma[:, rows] = sigma[:, rows] @ s6.T


def iter_steps(config: SimulationConfig):
    """Yield (j, coeffs, full_cm) for j = 0 .. L.

    full_cm is None unless config.oracle_enabled; when present it is a
    *view* of the running array, valid only until the next iteration —
    copy it to keep it.
    """
    sigma = initial_full_cm(config) if config.oracle_enabled else None
    for j, coeffs, _ in iter_env_ancilla_cms(config, ()):
        if sigma is not None and j > 0:
            apply_collision_to_cm(sigma, j, config.r1, config.r2, config.phi_shift)
        yield j, coeffs, sigma


def iter_env_ancilla_cms(config: SimulationConfig, modes):
    """Yield (j, coeffs, env_cms) for j = 0 .. L.

    coeffs are the system coefficients.  env_cms[i] is the closed-form
    (ancilla, E_k) covariance for k = modes[i]: joint_cm_closed_form on
    E_k's row of the composed unitary.  Round j mixes only S, E_j and
    E_{j+1}, so that row changes only in rounds k - 1 and k, and the
    covariance is computed at j = 0 and at those two steps only.
    """
    for k in modes:
        if not 1 <= k <= config.L + 1:
            raise ValueError(f"environment index {k} out of range 1..{config.L + 1}")
    u = np.eye(config.L + 3, dtype=complex)
    env_cms = [None] * len(modes)
    for j in range(config.L + 1):
        if j > 0:
            apply_collision_inplace(u, j, config.r1, config.r2, config.phi_shift)
        for i, k in enumerate(modes):
            if j in (0, k - 1, k):
                row = extract_c_coefficients(u, j, m=k + 1)
                env_cms[i] = joint_cm_closed_form(row, config.joint, config.env)
        yield j, extract_c_coefficients(u, j), tuple(env_cms)


def run(config: SimulationConfig) -> Trajectory:
    """Evolve the chain and collect one StepRecord per step, j = 0 .. L."""
    chain = [(j, coeffs, None if sigma is None else sigma.copy())
             for j, coeffs, sigma in iter_steps(config)]
    scalars = [closed_form_scalars(coeffs) for _, coeffs, _ in chain]
    cms = joint_cm_stack(scalars, config.joint, config.env)
    steps = [StepRecord(j, coeffs, cm, full_cm) for (j, coeffs, full_cm), cm in zip(chain, cms)]
    return Trajectory(config=config, steps=steps)


def env_ancilla_cm(full_cm: np.ndarray | None, k: int) -> np.ndarray:
    """4x4 reduced covariance of (E_k, ancilla), in that order.

    Requires the full-chain covariance matrix; run with
    oracle_enabled=True to record it.
    """
    if full_cm is None:
        raise ValueError("full covariance not recorded; run with oracle_enabled=True")
    n_modes = full_cm.shape[0] // 2
    if not 1 <= k <= n_modes - 2:
        raise IndexError(f"environment index k = {k} out of range 1..{n_modes - 2}")
    return reduce_to_modes(full_cm, [k + 1, 0])
