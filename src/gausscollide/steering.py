"""Gaussian steering measure, steering-based non-Markovianity, and
closed-form steerability thresholds.

For a bipartite covariance matrix sigma = [[V_A, V_J], [V_J^T, V_B]] the
steering A -> B is G = max{0, 1/2 ln(det V_A / det sigma)} (nats): the
steering party's reduced determinant sits in the numerator.

The chain's (ancilla, X) covariances have V_An = cosh(xi) I and V_J
sinh(xi)|c| times a reflection, so every determinant is a scalar in |c|^2
and |W| (`reduced_determinants`); `steering_columns` and `steering_series`
evaluate G from those scalars, and the 4x4 `steerability` is the reference
they are tested against.
"""

import enum

import numpy as np

from .errors import DegenerateCovarianceError
from .network import NORMALIZATION_TOL
from .states import env_noise_scales

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
    i = _first(det_sigma <= DET_FLOOR)
    if i is not None:
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


def _first(mask) -> int | None:
    """Position of the first true entry of mask, None if there is none."""
    return next(iter(np.flatnonzero(mask).tolist()), None)


def reduced_determinants(c_sq, w, joint, env) -> tuple[np.ndarray, np.ndarray]:
    """(det sigma / det V_An, det V_X) of the closed-form (ancilla, X)
    covariances whose X row has weight c_sq = |c|^2 and bilinear sum w = W;
    det V_An = cosh^2 xi.

    The Schur complement of V_An is V_X - sinh(xi) tanh(xi)|c|^2 I.  With
    (N, M) = env_noise_scales(env) and |V| = |W|,

        alpha = |c|^2 / cosh(xi) + N (1 - |c|^2)
        beta  = cosh(xi) |c|^2 + N (1 - |c|^2)

    give det sigma / det V_An = (alpha - M|V|)(alpha + M|V|) and
    det V_X = (beta - M|V|)(beta + M|V|).  Nothing here scales as cosh^4 xi,
    so G keeps its digits for every accepted xi.  A row's weight
    H = 1 - |c|^2 is at least |W| (Cauchy-Schwarz), so |c|^2 is taken as
    at most 1 and |W| as at most H: then N H - M|W| >= (N - M) H >= 0 and
    det sigma stays positive.  Rounding that puts |W| above H moves G by
    M (|W| - H) at most, not at all for M = 0: clamping H up to |W| would
    move it by N (|W| - H).
    """
    ch = np.cosh(joint.xi)
    n_scale, m_scale = env_noise_scales(env)
    c_sq = np.minimum(c_sq, 1.0)
    h = 1.0 - c_sq
    noise = n_scale * h
    mv = m_scale * np.minimum(np.abs(w), h)
    alpha = c_sq / ch + noise
    beta = ch * c_sq + noise
    return (alpha - mv) * (alpha + mv), (beta - mv) * (beta + mv)


def steering_columns(c_sq, w, joint, env, direction: Direction) -> np.ndarray:
    """Steering of each closed-form (ancilla, X) covariance given by the
    columns c_sq = |c|^2 and w = W, as `steerability` would compute it on
    the 4x4 matrices: A_TO_B is An -> X, B_TO_A is X -> An.  The first
    degenerate row raises with its position as `index`, and so does a row
    whose |W| exceeds 1 - |c|^2 by more than the normalization tolerance:
    no physical row does.
    """
    i = _first(np.abs(w) - (1.0 - c_sq) > NORMALIZATION_TOL)
    if i is not None:
        raise DegenerateCovarianceError(
            f"|W| = {float(abs(w[i]))!r} exceeds 1 - |c|^2 = {float(1.0 - c_sq[i])!r}", index=i)
    schur, det_vx = reduced_determinants(c_sq, w, joint, env)
    ch = np.cosh(joint.xi)
    det_sigma = ch * ch * schur
    i = _first(det_sigma <= DET_FLOOR)
    if i is not None:
        raise DegenerateCovarianceError(f"det sigma = {float(det_sigma[i])!r} below floor {DET_FLOOR}",
                                        index=i)
    if direction is Direction.A_TO_B:
        raw = -0.5 * np.log(schur)
    elif direction is Direction.B_TO_A:
        raw = 0.5 * np.log(det_vx / det_sigma)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return np.where(raw > ZERO_TOL, raw, 0.0)


def steering_series(trajectory, direction: Direction) -> np.ndarray:
    """Per-step steering values G(j) along the trajectory (j = 0 .. L for a
    whole run), from its |c22|^2 and W columns.

    The joint covariance is (ancilla, system)-ordered, so A_TO_B is
    An -> S and B_TO_A is S -> An.  A degeneracy error names its step.
    """
    config = trajectory.config
    try:
        return steering_columns(trajectory.c22_abs_sq, trajectory.env_square_sum,
                                config.joint, config.env, direction)
    except DegenerateCovarianceError as exc:
        raise DegenerateCovarianceError(f"step {trajectory.start + exc.index}: {exc}") from None


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
        raise ValueError(f"threshold undefined at n = {n:.12g}, xi = {xi:.12g}: "
                         "(2n+1) cosh(xi) - 1 must be positive")
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
