"""Gaussian preparations of the ancilla-system pair and of the environment
modes, with the bounds on their parameters.

Quadrature convention: q = a + a^dag, p = -i(a - a^dag), so the vacuum
covariance matrix is the identity and [q, p] = 2i.  Covariance matrices are
plain real ndarrays of shape (2N, 2N) with interleaved quadrature ordering
(q1, p1, q2, p2, ...).  The covariance builders are in `reference`.
"""

import math
from dataclasses import dataclass

import numpy as np

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
