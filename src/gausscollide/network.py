"""Beam-splitter collision network: the round block, and the tolerance on
a coefficient column's normalization.

Mode ordering throughout: [An, S, E_1, ..., E_{L+1}], so a chain with L
rounds acts on L + 3 modes.  Round j mixes the system mode with
environment modes E_j and E_{j+1}; the ancilla is never touched.  The
engine evolves only the scalars of the rows a round touches; the dense
(L+3)^2 composed unitary in `reference` is what it is checked against.
"""

import numpy as np

NORMALIZATION_TOL = 1e-10


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
