"""CPTP-divisibility witness for the reduced system channel.

After j rounds the system-mode Gaussian channel is sigma -> X sigma X^T + Y
with X, Y determined by the network coefficients and the environment
preparation.  The intermediate map between consecutive steps is CPTP iff
the Hermitian condition matrix F_j is positive semidefinite; the
non-Markovianity measure accumulates the magnitudes of its negative
eigenvalues, evaluated in closed form from the step ratio
|c22(j)|^2 / |c22(j-1)|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularIntermediateMapError
from .network import CCoefficients
from .states import EnvironmentSpec

# |c22(j-1)|^2 below this is treated as a singular previous channel and
# the step is skipped (flagged) rather than divided through.
SKIP_TOL = 1e-14

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ChannelPair:
    """X (unital part) and Y (noise part) of the step-j system channel."""

    step: int
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class DivisibilityRecord:
    """Closed-form eigenvalue pair of the intermediate-map condition
    matrix between steps j-1 and j.  skipped marks steps where the
    previous channel was numerically singular."""

    step: int
    nu_plus: float
    nu_minus: float
    ratio: float
    skipped: bool = False


@dataclass(frozen=True)
class DivisibilityMeasure:
    value: float
    skipped_steps: tuple


def env_noise_scales(env: EnvironmentSpec) -> tuple[float, float]:
    """(N, M) = ((2n+1) cosh zeta, (2n+1) sinh zeta)."""
    nf = 2.0 * env.n + 1.0
    return nf * float(np.cosh(env.zeta)), nf * float(np.sinh(env.zeta))


def channel_xy(coeffs: CCoefficients, env: EnvironmentSpec) -> ChannelPair:
    """Channel matrices after `coeffs.step` rounds.

    X is the quadrature rotation-plus-damping block of c22; Y carries
    the environment noise,
        Y = N (1 - |c22|^2) I + M [[Re V, -Im V], [-Im V, -Re V]]
    with V = e^{-i phi_env} sum_m (env amplitude)^2.
    """
    c = coeffs.c22
    x = np.array([[c.real, -c.imag], [c.imag, c.real]])
    n_scale, m_scale = env_noise_scales(env)
    v = np.exp(-1j * env.phi_env) * coeffs.env_square_sum
    y = n_scale * (1.0 - coeffs.c22_abs_sq) * np.eye(2)
    y += m_scale * np.array([[v.real, -v.imag], [-v.imag, -v.real]])
    return ChannelPair(step=coeffs.step, x=x, y=y)


def intermediate_cp_matrix(pair_j: ChannelPair, pair_prev: ChannelPair) -> np.ndarray:
    """Hermitian CP-condition matrix F of the map taking step j-1 to step j.

    F = (1/2) (Y_step - i Omega + i X_step Omega X_step^T) with
    X_step = X_j X_{j-1}^{-1} and Y_step = Y_j - X_step Y_{j-1} X_step^T.
    The intermediate map is CPTP iff F >= 0.
    """
    det_prev = float(np.linalg.det(pair_prev.x))
    if det_prev < SKIP_TOL:
        raise SingularIntermediateMapError(
            f"previous channel singular at step {pair_prev.step}: det X = {det_prev!r}"
        )
    x_step = pair_j.x @ np.linalg.inv(pair_prev.x)
    y_step = pair_j.y - x_step @ pair_prev.y @ x_step.T
    return 0.5 * (y_step - 1j * _OMEGA_1 + 1j * x_step @ _OMEGA_1 @ x_step.T)


def divisibility_eigenvalues(n_scale: float, m_scale: float, ratio: float) -> tuple[float, float]:
    """Closed-form eigenvalue pair of the condition matrix,

        nu_pm = (1/2) (N +- sqrt(M^2 + 1)) (1 - ratio).

    Since N^2 - M^2 = (2n+1)^2 >= 1, both coefficients are non-negative
    and the minus branch vanishes iff n = 0, so for a vacuum or purely
    squeezed environment the set is {0, 1 - ratio}.
    """
    root = math.sqrt(m_scale * m_scale + 1.0)
    return (
        0.5 * (n_scale + root) * (1.0 - ratio),
        0.5 * (n_scale - root) * (1.0 - ratio),
    )


def divisibility_records(trajectory) -> list[DivisibilityRecord]:
    """Per-step records for j = 1 .. L along a trajectory."""
    n_scale, m_scale = env_noise_scales(trajectory.config.env)
    records = []
    steps = trajectory.steps
    for j in range(1, len(steps)):
        prev_sq = steps[j - 1].coeffs.c22_abs_sq
        if prev_sq < SKIP_TOL:
            records.append(
                DivisibilityRecord(
                    step=j, nu_plus=math.nan, nu_minus=math.nan, ratio=math.nan, skipped=True
                )
            )
            continue
        ratio = steps[j].coeffs.c22_abs_sq / prev_sq
        nu_p, nu_m = divisibility_eigenvalues(n_scale, m_scale, ratio)
        records.append(DivisibilityRecord(step=j, nu_plus=nu_p, nu_minus=nu_m, ratio=ratio))
    return records


def nm_cptp(trajectory) -> DivisibilityMeasure:
    """Accumulated CPTP violation: sum over j = 2 .. L and both
    eigenvalues of max{0, -nu}.  Skipped (singular) steps are excluded
    from the sum and reported in the result."""
    if trajectory.config.L < 2:
        raise ValueError("nm_cptp needs at least two rounds (L >= 2)")
    total = 0.0
    skipped = []
    for rec in divisibility_records(trajectory)[1:]:
        if rec.skipped:
            skipped.append(rec.step)
            continue
        for nu in (rec.nu_plus, rec.nu_minus):
            if nu < 0.0:
                total -= nu
    return DivisibilityMeasure(value=total, skipped_steps=tuple(skipped))
