"""Reference oracles the closed forms are tested against: the dense
(L+3)-mode collision unitary and its coefficient extraction, the passive
unitary -> symplectic map, the Gaussian state builders, the full-chain
symplectic round, the X/Y channel path of the divisibility witness, the
4x4 steering wrappers, and `evolve --oracle`'s cross-check.

No subcommand reaches this module without --oracle, and `gausscollide`
resolves its public names here on first access, so a plain command-line run
neither imports nor compiles it.  Conventions are those of `network` (mode
ordering [An, S, E_1, ..., E_{L+1}]) and `states` (q = a + a^dag, interleaved
quadratures, vacuum covariance = identity; physicality means
sigma + i*Omega >= 0 with Omega = direct sum of [[0, 1], [-1, 0]] blocks).
"""

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine, steering
from .divisibility import SKIP_TOL
from .errors import GaussCollideError, SingularIntermediateMapError
from .network import NORMALIZATION_TOL, mixing_block
from .states import EnvironmentSpec, JointSpec, env_noise_scales
from .steering import Direction

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


# ------------------------------------------------ the dense collision network


@dataclass(frozen=True)
class CCoefficients:
    """Transmission coefficients of the composed network after `step` rounds.

    c22 is the system->system amplitude of the inverse (adjoint) composed
    unitary.  Over its system->E_m amplitudes, m = 1 .. L + 1,
    env_square_sum W is the sum of squares and env_abs_square_sum H the sum
    of squared moduli.  Either env_column gives those amplitudes (W and H
    are then derived from it), or W and H are given without it; the
    engine's rows give H = 1 - |c22|^2, which holds for a unit column.
    Column normalization |c22|^2 + H = 1 is enforced at construction.
    """

    step: int
    c22: complex
    env_column: np.ndarray | None = field(default=None, repr=False)
    env_square_sum: complex | None = None
    env_abs_square_sum: float | None = None

    def __post_init__(self):
        if self.env_column is not None:
            env = np.asarray(self.env_column, dtype=complex)
            env.flags.writeable = False
            object.__setattr__(self, "env_column", env)
            object.__setattr__(self, "env_square_sum", complex(np.sum(env**2)))
            object.__setattr__(self, "env_abs_square_sum", float(np.sum(np.abs(env) ** 2)))
        elif self.env_square_sum is None or self.env_abs_square_sum is None:
            raise ValueError("give env_column, or both env_square_sum and env_abs_square_sum")
        check_normalization(self.c22_abs_sq + self.env_abs_square_sum)

    @property
    def c22_abs_sq(self) -> float:
        a = abs(self.c22)  # a * a is correctly rounded; a ** 2 is the platform's pow
        return a * a


def check_normalization(total: float) -> None:
    """Raise ValueError unless total = |c22|^2 + H is 1 within NORMALIZATION_TOL."""
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise ValueError(f"coefficient column not normalized: sum of squares = {total!r}")


def collision_unitary(j: int, L: int, r1: float, r2: float, phi: float = 0.0) -> np.ndarray:
    """Full (L+3)-mode unitary of round j (identity outside S, E_j, E_{j+1})."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 1 <= j <= L:
        raise IndexError(f"round index j = {j} out of range 1..{L}")
    rows = _round_rows(j)
    u = np.eye(L + 3, dtype=complex)
    u[np.ix_(rows, rows)] = mixing_block(r1, r2, phi)
    return u


def _round_rows(j: int):
    # 0-based rows of (S, E_j, E_{j+1}) in the [An, S, E_1, ...] ordering
    return [1, j + 1, j + 2]


def apply_collision_inplace(u: np.ndarray, j: int, r1: float, r2: float, phi: float = 0.0) -> None:
    """Left-multiply the running composed unitary by round j in place.

    Only the three affected rows are updated, which keeps a full
    L-round composition at O(L^2) instead of O(L^3) per round.
    """
    if u.shape[0] < j + 3:
        raise IndexError(f"round index j = {j} out of range for dimension {u.shape[0]}")
    rows = _round_rows(j)
    u[rows, :] = mixing_block(r1, r2, phi) @ u[rows, :]


def compose_chronological(unitaries, dim: int | None = None) -> np.ndarray:
    """Product of round unitaries applied in chronological order.

    The first list element acts first, i.e. the result is
    U_n @ ... @ U_2 @ U_1.  An empty list composes to the identity, in
    which case `dim` must be given.
    """
    unitaries = list(unitaries)
    if not unitaries:
        if dim is None:
            raise ValueError("dim is required to compose an empty chain")
        return np.eye(dim, dtype=complex)
    out = np.array(unitaries[0], dtype=complex)
    for u in unitaries[1:]:
        out = u @ out
    return out


def extract_c_coefficients(u: np.ndarray, step: int, m: int = 1) -> CCoefficients:
    """Coefficients of the inverse composed unitary's column m.

    For unitary u the inverse is the adjoint, so row m of u, conjugated,
    gives column m of u^{-1}.  m = 1 is the system, m = k + 1 is E_k.
    """
    return CCoefficients(step=step, c22=complex(np.conj(u[m, 1])), env_column=np.conj(u[m, 2:]))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs deviation of u^dag u from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def mode_unitary_to_symplectic(u: np.ndarray) -> np.ndarray:
    """Symplectic matrix of a passive (linear-optics) mode unitary.

    Each complex entry u_kl becomes the 2x2 quadrature block
    [[Re u_kl, -Im u_kl], [Im u_kl, Re u_kl]] in interleaved ordering.
    The map is a group homomorphism.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if unitarity_defect(u) > 1e-8:
        raise ValueError("input matrix is not unitary")
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, rot)


def symplectic_defect(s: np.ndarray) -> float:
    """Max-abs deviation of S Omega S^T from Omega (interleaved ordering)."""
    s = np.asarray(s, dtype=float)
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ omega @ s.T - omega)))


# ------------------------------------------------------ Gaussian state builders


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


# ------------------------------------------- the channel path of divisibility


@dataclass(frozen=True)
class ChannelPair:
    """X (unital part) and Y (noise part) of the step-j system channel."""

    step: int
    x: np.ndarray
    y: np.ndarray


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


# ------------------------------------------------------ 4x4 steering wrappers


def g_ancilla_to_system(joint_cm: np.ndarray) -> float:
    """Steering An -> S of an (ancilla, system)-ordered joint covariance."""
    return steering.steerability(joint_cm, Direction.A_TO_B)


def g_system_to_ancilla(joint_cm: np.ndarray) -> float:
    """Steering S -> An of an (ancilla, system)-ordered joint covariance."""
    return steering.steerability(joint_cm, Direction.B_TO_A)


# -------------------------------------------------- the full-chain propagation


@dataclass(frozen=True, eq=False)
class StepRecord:
    """State of the chain after `j` rounds (j = 0 is the initial state): its
    coefficients and closed-form ancilla-system covariance."""

    j: int
    coeffs: CCoefficients
    joint_cm: np.ndarray


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


def verify_against_oracle(config, joint_cm, g_san, g_ans) -> None:
    """`evolve --oracle`'s full-chain symplectic propagation cross-check: at
    every step, the closed-form joint_cm against the oracle's reduced
    covariance (1e-8 times its largest entry, at least 1e-8: entries grow as
    cosh xi), and each printed steering column against the 4x4 steerability
    of that covariance where its determinant exceeds DET_FLOOR (from xi = 20
    it rounds to 0).  Those determinants resolve G only to a few eps times
    the condition number (cosh^2 xi at step 0), so that column's tolerance
    is the larger of 1e-8 and 16 eps cond.  The deviation farthest past it
    is named, or one stderr line counts the steps left unchecked:
    det <= DET_FLOOR or 0 < G <= 16 eps cond."""
    chain = engine.iter_steps(replace(config, oracle_enabled=True))
    oracle = np.array([reduce_to_modes(sigma, [0, 1]) for _, _, sigma in chain])
    oracle = 0.5 * (oracle + oracle.swapaxes(1, 2))  # symmetric up to rounding
    resolved = np.linalg.det(oracle) > steering.DET_FLOOR
    conditioning = 16 * np.finfo(float).eps * np.linalg.cond(oracle)
    steering_tol = np.maximum(1e-8, conditioning)
    unchecked = ~resolved
    deviations = {"joint_cm": np.max(np.abs(joint_cm - oracle), axis=(1, 2))}
    for name, direction, printed in (("g_s_to_an", Direction.B_TO_A, g_san),
                                     ("g_an_to_s", Direction.A_TO_B, g_ans)):
        reference = steering.steerability(oracle[resolved], direction)
        deviations[name] = np.zeros(len(oracle))
        deviations[name][resolved] = np.abs(printed[resolved] - reference)
        unchecked[resolved] |= (reference > 0.0) & (reference <= conditioning[resolved])
    tolerances = {"joint_cm": 1e-8 * np.maximum(1.0, np.abs(oracle).max(axis=(1, 2))),
                  "g_s_to_an": steering_tol, "g_an_to_s": steering_tol}
    excess = {name: deviations[name] / tolerances[name] for name in deviations}
    name = max(excess, key=lambda name: excess[name].max())
    j = int(np.argmax(excess[name]))
    if excess[name][j] > 1.0:
        raise GaussCollideError(f"oracle mismatch at step {j}: max deviation "
                                f"{deviations[name][j]:g} in {name} (tolerance {tolerances[name][j]:g})")
    if unchecked.any():
        print(f"warning: --oracle could not check the steering at {unchecked.sum()} of "
              f"{len(unchecked)} steps, first at step {unchecked.argmax()}", file=sys.stderr)
