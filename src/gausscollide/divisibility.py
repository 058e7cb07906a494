"""CPTP-divisibility witness for the reduced system channel.

After j rounds the system-mode Gaussian channel is sigma -> X sigma X^T + Y
with X, Y determined by the network coefficients and the environment
preparation.  The intermediate map between consecutive steps is CPTP iff
the Hermitian condition matrix F_j is positive semidefinite; the
non-Markovianity measure accumulates the magnitudes of its negative
eigenvalues, evaluated in closed form from the step ratio
|c22(j)|^2 / |c22(j-1)|^2.  The X/Y matrices and the 2x2 F_j they give are
in `reference`, which the closed form is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import EnvironmentSpec, env_noise_scales

# |c22(j-1)|^2 below this is treated as a singular previous channel and
# the step is skipped (flagged) rather than divided through.
SKIP_TOL = 1e-14


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


def divisibility_columns(c_sq, env: EnvironmentSpec) -> tuple[np.ndarray, ...]:
    """(nu_plus, nu_minus, ratio, skipped) arrays over the steps after the
    first of a |c22|^2 column c_sq (j = 1 .. L of a trajectory), along its
    last axis, in an environment env; skipped steps carry NaN."""
    skipped = c_sq[..., :-1] < SKIP_TOL
    ratio = np.where(skipped, math.nan, c_sq[..., 1:] / np.where(skipped, 1.0, c_sq[..., :-1]))
    nu_p, nu_m = divisibility_eigenvalues(*env_noise_scales(env), ratio)
    return nu_p, nu_m, ratio, skipped


def violation_sum(nu_p, nu_m, total) -> np.ndarray:
    """total, a (..., 1) array, plus max{0, -nu} over the steps of the last
    axis, nu_plus first, added in step order by np.cumsum: carried across
    blocks, the sum keeps its bits.  A skipped step's NaN adds 0 (NaN < 0 is False)."""
    nus = np.stack([nu_p, nu_m], axis=-1).reshape(*nu_p.shape[:-1], -1)
    violations = np.where(nus < 0.0, -nus, 0.0)
    return np.cumsum(np.concatenate([total, violations], axis=-1), axis=-1)[..., -1:]


def divisibility_records(trajectory) -> list[DivisibilityRecord]:
    """Per-step records for j = 1 .. L along a trajectory."""
    columns = (col.tolist() for col in
               divisibility_columns(trajectory.c22_abs_sq, trajectory.config.env))
    return [DivisibilityRecord(j, *fields) for j, fields in enumerate(zip(*columns), start=1)]


def nm_cptp(trajectory) -> DivisibilityMeasure:
    """Accumulated CPTP violation: sum over j = 2 .. L and both
    eigenvalues of max{0, -nu}.  Skipped (singular) steps are excluded
    from the sum and reported in the result."""
    if trajectory.config.L < 2:
        raise ValueError("nm_cptp needs at least two rounds (L >= 2)")
    nu_p, nu_m, _, skipped = divisibility_columns(trajectory.c22_abs_sq, trajectory.config.env)
    total = violation_sum(nu_p[1:], nu_m[1:], np.zeros(1))
    skipped_steps = tuple((np.flatnonzero(skipped[1:]) + 2).tolist())
    return DivisibilityMeasure(value=float(total[0]), skipped_steps=skipped_steps)
