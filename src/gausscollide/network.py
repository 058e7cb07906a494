"""Beam-splitter collision network: the round block, the transmission
coefficients, and the dense reference path (round unitaries, chronological
composition, coefficient extraction) with the passive unitary -> symplectic
map.

Mode ordering throughout: [An, S, E_1, ..., E_{L+1}], so a chain with L
rounds acts on L + 3 modes.  Round j mixes the system mode with
environment modes E_j and E_{j+1}; the ancilla is never touched.  The
engine evolves only the scalars of the rows a round touches; the dense
(L+3)^2 composed unitary is the test reference it is checked against.
"""

from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class CCoefficients:
    """Transmission coefficients of the composed network after `step` rounds.

    c22 is the system->system amplitude of the inverse (adjoint) composed
    unitary.  Over its system->E_m amplitudes, m = 1 .. L + 1,
    env_square_sum W is the sum of squares and env_abs_square_sum H the sum
    of squared moduli.  Either env_column gives those amplitudes (W and H
    are then derived from it), or W and H are given without it.  Column
    normalization |c22|^2 + H = 1 is enforced at construction.
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


def mixing_block(r1: float, r2: float, phi: float = 0.0) -> np.ndarray:
    """3x3 unitary block acting on (S, E_j, E_{j+1}) in one round.

    Two cascaded beam splitters: BS1 couples S and E_j with reflectivity
    r1, BS2 couples E_j and E_{j+1} with reflectivity r2; the phase
    e^{i phi} sits on the system output arm.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {r}")
    t1 = np.sqrt(1.0 - r1 * r1)
    t2 = np.sqrt(1.0 - r2 * r2)
    ph = np.exp(1j * phi)
    return np.array(
        [
            [r1 * ph, t1 * ph, 0.0],
            [-r2 * t1, r1 * r2, t2],
            [t1 * t2, -r1 * t2, r2],
        ],
        dtype=complex,
    )


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
    from .states import symplectic_form

    s = np.asarray(s, dtype=float)
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ omega @ s.T - omega)))
