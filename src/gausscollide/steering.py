"""Gaussian steering measure, steering-based non-Markovianity, and
closed-form steerability thresholds.

For a bipartite covariance matrix sigma = [[V_A, V_J], [V_J^T, V_B]] the
steering A -> B is G = max{0, 1/2 ln(det V_A / det sigma)} (nats): the
steering party's reduced determinant sits in the numerator.
"""

import enum

import numpy as np

from .errors import DegenerateCovarianceError

ZERO_TOL = 1e-12
DET_FLOOR = 1e-300


class Direction(enum.Enum):
    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"


def steerability(cm4: np.ndarray, direction: Direction) -> float | np.ndarray:
    """Gaussian steering in the given direction: a float for one 4x4
    covariance, an array for a stack (n, 4, 4).  Values with raw
    1/2 ln(...) <= 1e-12 are declared exactly zero so that downstream
    sums and sign tests are deterministic.  The first degenerate matrix
    in a stack raises with its position as `index`.
    """
    cms = np.asarray(cm4, dtype=float)
    if cms.ndim not in (2, 3) or cms.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 covariance matrix or a stack of them, got {cms.shape}")
    if not np.all(np.abs(cms - np.swapaxes(cms, -1, -2)) <= 1e-10):
        raise ValueError("covariance matrix is not symmetric")
    det_sigma = np.linalg.det(cms)
    i = int(np.argmax(det_sigma <= DET_FLOOR))
    if det_sigma.flat[i] <= DET_FLOOR:
        det = float(det_sigma.flat[i])
        raise DegenerateCovarianceError(f"det sigma = {det!r} below floor {DET_FLOOR}", index=i)
    if direction is Direction.A_TO_B:
        block = cms[..., :2, :2]
    elif direction is Direction.B_TO_A:
        block = cms[..., 2:, 2:]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    raw = 0.5 * np.log(np.linalg.det(block) / det_sigma)
    values = np.where(raw > ZERO_TOL, raw, 0.0)
    return float(values) if cms.ndim == 2 else values


def g_ancilla_to_system(joint_cm: np.ndarray) -> float:
    """Steering An -> S of an (ancilla, system)-ordered joint covariance."""
    return steerability(joint_cm, Direction.A_TO_B)


def g_system_to_ancilla(joint_cm: np.ndarray) -> float:
    """Steering S -> An of an (ancilla, system)-ordered joint covariance."""
    return steerability(joint_cm, Direction.B_TO_A)


def steering_series(trajectory, direction: Direction) -> np.ndarray:
    """Per-step steering values G(j), j = 0 .. L, along the trajectory.

    The joint covariance is (ancilla, system)-ordered, so A_TO_B is
    An -> S and B_TO_A is S -> An.  A degeneracy error names its step.
    """
    try:
        return steerability(np.array([s.joint_cm for s in trajectory.steps]), direction)
    except DegenerateCovarianceError as exc:
        raise DegenerateCovarianceError(f"step {trajectory.steps[exc.index].j}: {exc}") from None


def nm_from_steering(series) -> float:
    """Total steering revival: sum of positive increments of G(j).

    Zero iff the series is non-increasing; insensitive to monotone decay.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 1:
        raise ValueError("expected a non-empty 1-d series")
    diffs = np.diff(series)
    return float(np.sum(diffs[diffs > 0.0]))


def threshold_s_to_an(n: float) -> float:
    """|c22|^2 threshold above which S -> An steering survives, thermal
    environment with occupation n (any xi > 0): 1 - 1/(2(n+1))."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return 1.0 - 1.0 / (2.0 * (n + 1.0))


def threshold_an_to_s_thermal(n: float, xi: float) -> float:
    """|c22|^2 threshold for An -> S steering, thermal environment:
    2 n cosh(xi) / ((2n+1) cosh(xi) - 1)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    den = (2.0 * n + 1.0) * np.cosh(xi) - 1.0
    if den <= 1e-15:
        raise ValueError("threshold undefined: (2n+1) cosh(xi) - 1 must be positive")
    return 2.0 * n * np.cosh(xi) / den


def threshold_an_to_s_squeezed_vac(xi: float, zeta: float) -> float:
    """Effective |c22|^2 threshold for An -> S steering, squeezed-vacuum
    environment (n = 0, phase 0).

    The steerability condition is linear in c = |c22|^2, namely
    A c >= B' with A = 2 cosh(zeta) cosh(xi) - cosh(xi)^2 - 1 and
    B' = 2 cosh(xi)(cosh(zeta) - cosh(xi)).  When A > 0 this is a
    genuine lower threshold max{0, B'/A} (strictly positive only for
    zeta > xi); when A <= 0 the condition holds for every c in [0, 1],
    so the effective threshold is 0.
    """
    ch_x, ch_z = np.cosh(xi), np.cosh(zeta)
    a = 2.0 * ch_z * ch_x - ch_x * ch_x - 1.0
    b = 2.0 * ch_x * (ch_z - ch_x)
    if a <= 1e-12:
        # At a = 0 exactly, b = 1 - cosh(xi)^2 <= 0: steerable for all c.
        return 0.0
    return max(0.0, float(b / a))
