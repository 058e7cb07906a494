"""Gaussian state construction and covariance-matrix utilities.

Quadrature convention: q = a + a^dag, p = -i(a - a^dag), so the vacuum
covariance matrix is the identity and [q, p] = 2i.  Covariance matrices are
plain real ndarrays of shape (2N, 2N) with interleaved quadrature ordering
(q1, p1, q2, p2, ...).  Physicality means sigma + i*Omega >= 0 with
Omega = direct sum of [[0, 1], [-1, 0]] blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# Largest covariance entry whose 4x4 determinant stays finite (about 5.79e76):
# Hadamard's inequality bounds that determinant by (2 * entry)^4.
MAX_CM_ENTRY = np.finfo(float).max ** 0.25 / 2
# Largest squeezing whose cosh is such an entry (about 177.4).
MAX_SQUEEZING = math.acosh(MAX_CM_ENTRY)
# Largest environment squeezing |zeta| (43 dB; experiments reach about 15 dB,
# zeta = 1.7).  Steering reads N(1 - |c22|^2) - M|W|, which is
# (2n+1)[e^-zeta H + sinh zeta (H - |W|)] with H - |W| >= 0 often exactly 0,
# so a rounding error in H - |W| counts e^(2 zeta) times.  Against a 60-digit
# recurrence (L up to 10^4) G is off by at most 2.5e-13 at zeta = 5, 1.9e-12
# at 7, 9e-11 at 8 and 7e-9 at 10; from about zeta = 18.4 cosh zeta and
# sinh zeta round to the same double.
MAX_ENV_SQUEEZING = 5.0


def require_finite(name: str, value: float, squeezing: bool = False) -> None:
    """Reject a non-finite parameter, or a squeezing parameter whose cosh exceeds MAX_CM_ENTRY."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if squeezing and abs(value) > MAX_SQUEEZING:
        raise ValueError(f"{name} = {value} is too large (|{name}| <= {MAX_SQUEEZING:.6g})")


@dataclass(frozen=True)
class JointSpec:
    """Two-mode squeezed vacuum preparation of the ancilla-system pair.

    Parameters
    ----------
    xi : float
        Squeezing parameter (>= 0).  xi = 0 is the two-mode vacuum; the
        squeezing phase is 0.
    """

    xi: float

    def __post_init__(self):
        require_finite("xi", self.xi, squeezing=True)
        if self.xi < 0:
            raise ValueError(f"xi must be non-negative, got {self.xi}")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Single-mode squeezed thermal environment preparation.

    Parameters
    ----------
    n : float
        Mean thermal occupation (>= 0).
    zeta : float
        Squeezing magnitude of the environment mode.
    phi_env : float
        Squeezing phase of the environment mode.
    """

    n: float = 0.0
    zeta: float = 0.0
    phi_env: float = 0.0

    def __post_init__(self):
        require_finite("n", self.n)
        require_finite("zeta", self.zeta)
        require_finite("phi_env", self.phi_env)
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if abs(self.zeta) > MAX_ENV_SQUEEZING:
            raise ValueError(f"zeta = {self.zeta} is too large (|zeta| <= {MAX_ENV_SQUEEZING:g}: "
                             "beyond it double precision cannot resolve the steering)")
        if (2.0 * self.n + 1.0) * math.exp(abs(self.zeta)) > MAX_CM_ENTRY:
            raise ValueError(f"n = {self.n} with zeta = {self.zeta} overflows the covariance "
                             f"((2n+1) e^|zeta| <= {MAX_CM_ENTRY:.6g})")


def env_noise_scales(env: EnvironmentSpec) -> tuple[float, float]:
    """(N, M) = ((2n+1) cosh zeta, (2n+1) sinh zeta)."""
    nf = 2.0 * env.n + 1.0
    return nf * float(np.cosh(env.zeta)), nf * float(np.sinh(env.zeta))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega for `n_modes` modes, interleaved ordering."""
    if n_modes < 0:
        raise ValueError("n_modes must be non-negative")
    return np.kron(np.eye(n_modes), _OMEGA_1)


def vacuum_cm(n_modes: int) -> np.ndarray:
    """Vacuum covariance matrix (identity in this convention)."""
    return np.eye(2 * n_modes)


def tmsv_cm(spec: JointSpec) -> np.ndarray:
    """Two-mode squeezed vacuum covariance matrix.

    Block form [[cosh(xi) I, sinh(xi) Z], [sinh(xi) Z, cosh(xi) I]] with
    Z = diag(1, -1).  det = 1 (pure state) for every xi.
    """
    ch, sh = np.cosh(spec.xi), np.sinh(spec.xi)
    cm = np.zeros((4, 4))
    cm[:2, :2] = ch * np.eye(2)
    cm[2:, 2:] = ch * np.eye(2)
    cm[:2, 2:] = sh * _Z
    cm[2:, :2] = sh * _Z
    return cm


def squeezed_thermal_cm(spec: EnvironmentSpec) -> np.ndarray:
    """Single-mode squeezed thermal covariance matrix.

    V_qq = (2n+1)(cosh zeta + sinh zeta cos phi_env)
    V_pp = (2n+1)(cosh zeta - sinh zeta cos phi_env)
    V_qp = (2n+1) sinh zeta sin phi_env
    """
    nf = 2.0 * spec.n + 1.0
    ch, sh = np.cosh(spec.zeta), np.sinh(spec.zeta)
    c, s = np.cos(spec.phi_env), np.sin(spec.phi_env)
    return nf * np.array([[ch + sh * c, sh * s], [sh * s, ch - sh * c]])


def _check_cm_shape(cm: np.ndarray) -> int:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError(f"covariance matrix must be square even-dimensional, got {cm.shape}")
    return cm.shape[0] // 2


def reduce_to_modes(cm: np.ndarray, modes) -> np.ndarray:
    """Reduced covariance matrix on the listed modes, in the listed order.

    Gaussian partial trace: keep the quadrature rows/columns of the
    selected modes.
    """
    n_modes = _check_cm_shape(cm)
    modes = list(modes)
    for m in modes:
        if not (0 <= m < n_modes):
            raise IndexError(f"mode index {m} out of range for {n_modes} modes")
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    return np.asarray(cm)[np.ix_(idx, idx)]


def physicality_check(cm: np.ndarray, tol: float = PHYSICALITY_TOL):
    """Check the bona-fide-state condition sigma + i*Omega >= 0.

    Returns
    -------
    (ok, min_eig) : tuple of bool and float
        ok is True iff the minimum eigenvalue of the Hermitian matrix
        sigma + i*Omega is >= -tol; min_eig is that eigenvalue.
    """
    n_modes = _check_cm_shape(cm)
    cm = np.asarray(cm, dtype=float)
    if not np.allclose(cm, cm.T, atol=SYMMETRY_TOL, rtol=0.0):
        raise ValueError("covariance matrix is not symmetric")
    herm = cm + 1j * symplectic_form(n_modes)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return min_eig >= -tol, min_eig
