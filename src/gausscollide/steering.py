"""Gaussian steering measure, steering-based non-Markovianity, and
closed-form steerability thresholds.

For a bipartite covariance matrix sigma = [[V_A, V_J], [V_J^T, V_B]] the
steering A -> B is G = max{0, 1/2 ln(det V_A / det sigma)} (nats): the
steering party's reduced determinant sits in the numerator.

The chain's (ancilla, X) covariances have V_An = cosh(xi) I and V_J
sinh(xi)|c| times a reflection, so every determinant is a scalar in |c|^2
and |W| (`reduced_determinants`); `steering_columns` and `steering_series`
evaluate G from those scalars, and the 4x4 `steerability` is the reference
they are tested against.  The scalars give det sigma >= 1 for any columns;
only `steerability`, which takes any matrix, checks for a degenerate one.
"""

import enum

import numpy as np

from .errors import DegenerateCovarianceError
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
    degenerate = np.flatnonzero(det_sigma <= DET_FLOOR).tolist()
    if degenerate:
        i = degenerate[0]
        raise DegenerateCovarianceError(f"det sigma = {float(det_sigma.flat[i])!r} below floor "
                                        f"{DET_FLOOR}", index=i)
    if direction is Direction.A_TO_B:
        block = cms[..., :2, :2]
    elif direction is Direction.B_TO_A:
        block = cms[..., 2:, 2:]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    raw = 0.5 * np.log(np.linalg.det(block) / det_sigma)
    values = np.where(raw > ZERO_TOL, raw, 0.0)
    return float(values) if cms.ndim == 2 else values


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
    at most 1 and |W| as at most H.  Rounding that puts |W| above H moves G
    by M (|W| - H) at most, not at all for M = 0: clamping H up to |W| would
    move it by N (|W| - H).

    With those clamps det sigma >= 1 for any |c|^2 and W, as sigma + i Omega
    >= 0 requires (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)): as
    N^2 - M^2 = (2n+1)^2 and N >= 2n+1, det sigma / cosh^2 xi >= alpha^2 -
    M^2 H^2 >= (|c|^2 / cosh xi + (2n+1) H)^2, so det sigma >=
    (|c|^2 + (2n+1) cosh(xi) H)^2 >= (|c|^2 + H)^2 = 1.
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
    the 4x4 matrices: A_TO_B is An -> X, B_TO_A is X -> An.  Every value
    is finite and at least 0 for finite columns: a row is read with
    |c|^2 at most 1 and |W| at most 1 - |c|^2, so det sigma >= 1
    (`reduced_determinants`).  Only an unknown direction raises.
    """
    schur, det_vx = reduced_determinants(c_sq, w, joint, env)
    if direction is Direction.A_TO_B:
        raw = -0.5 * np.log(schur)
    elif direction is Direction.B_TO_A:
        ch = np.cosh(joint.xi)
        raw = 0.5 * np.log(det_vx / (ch * ch * schur))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return np.where(raw > ZERO_TOL, raw, 0.0)


def steering_series(trajectory, direction: Direction) -> np.ndarray:
    """Per-step steering values G(j), j = 0 .. L, along the trajectory, from
    its |c22|^2 and W columns.

    The joint covariance is (ancilla, system)-ordered, so A_TO_B is
    An -> S and B_TO_A is S -> An.
    """
    config = trajectory.config
    return steering_columns(trajectory.c22_abs_sq, trajectory.env_square_sum,
                            config.joint, config.env, direction)


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
