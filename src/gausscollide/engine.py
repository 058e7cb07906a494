"""Collision-chain evolution engine.

Runs the tunable beam-splitter chain for L rounds without the (L+3)^2
composed unitary.  Round j mixes only the rows (S, E_j, E_{j+1}), so a
five-entry state carries what the witnesses read, the amplitudes behind
c22 and the bilinear sums behind W, and one round maps each group by a
constant matrix K (`_round_matrices`; the sums' map is affine, made linear
by a constant 1).  Every column is then K^j x_0, which one block-power
evaluator (`_blocks`) computes for a batch of configurations in
O(sqrt(L)) array operations, in blocks of about sqrt(L) steps gathered to
at least its `steps`, each configuration's bits independent of the batch,
since numpy's long double `@` sums in index order.  `_columns` checks each
row against |W| <= H = 1 - |c22|^2, for `run` (through `iter_steps`),
`env_mode_columns` and the blocks of `_column_blocks` that every command
reads (`witnesses.witness_blocks`).  With `oracle_enabled`, `iter_steps` also
propagates the full (L+3)-mode covariance matrix symplectically, the
reference the tests and `evolve --oracle` check the closed forms against.
That path, `run`'s per-step stream and `Trajectory.steps` import their
reference types and rounds from `reference` when they run, so the command
line never compiles it.
"""

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import NORMALIZATION_TOL, mixing_block
from .states import EnvironmentSpec, JointSpec, env_noise_scales, require_finite

# A bound on the bytes per step that `run`'s whole Trajectory and the
# witnesses read from it hold.  With tracemalloc between L = 2e4 and 2e5,
# `run` grows by 65 B per step, and with the library's three measures of
# the trajectory (`nm_from_steering`, `nm_cptp`) by 129 B.
STEP_BYTES = 245


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameter set of one collision-chain run.

    r1, r2 are the two beam-splitter reflectivities, phi_shift the phase
    on the system arm, joint the ancilla-system preparation, env the
    (identical) preparation of every environment mode, L the number of
    rounds.  oracle_enabled makes `iter_steps` also yield the full-chain
    covariance at each step; `run` refuses it.
    """

    r1: float
    r2: float
    phi_shift: float = 0.0
    joint: JointSpec = field(default_factory=lambda: JointSpec(xi=1.0))
    env: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    L: int = 250
    oracle_enabled: bool = False

    def __post_init__(self):
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {r}")
        require_finite("phi_shift", self.phi_shift)
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """`run`'s per-step columns, j = 0 .. L: c22, |c22|^2 and W; H = 1 - |c22|^2
    is derived.  The full-chain covariances are not kept; `iter_steps`
    streams them."""

    config: SimulationConfig
    c22: np.ndarray
    c22_abs_sq: np.ndarray
    env_square_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.c22)

    @property
    def env_abs_square_sum(self) -> np.ndarray:
        """H = 1 - |c22|^2 per step, the bits `_columns` checks W against."""
        return 1.0 - self.c22_abs_sq

    @cached_property
    def joint_cm(self) -> np.ndarray:
        """The (len(self), 4, 4) closed-form ancilla-system covariances, built
        on first access (128 B per step): steering reads the columns instead."""
        return joint_cm_stack(self.c22, self.c22_abs_sq, self.env_square_sum,
                              self.config.joint, self.config.env)

    @cached_property
    def steps(self) -> "list[StepRecord]":
        """One StepRecord per step, built from the columns on first access."""
        from .reference import CCoefficients, StepRecord

        sums = (self.c22.tolist(), self.env_square_sum.tolist(), self.env_abs_square_sum.tolist())
        return [StepRecord(j, CCoefficients(j, c, env_square_sum=w, env_abs_square_sum=h), cm)
                for j, (c, w, h, cm) in enumerate(zip(*sums, self.joint_cm))]


def joint_cm_stack(c, csq, w, joint: JointSpec, env: EnvironmentSpec) -> np.ndarray:
    """(n, 4, 4) ancilla-system covariances from the columns c = c22,
    csq = |c22|^2 and w = W of a trajectory or `env_mode_columns`.

    Closed form in the network coefficients: with c = c22,
    W = sum_m (env amplitude)^2 and V = e^{-i phi_env} W,

        V_An = cosh(xi) I
        V_J  = sinh(xi) [[Re c*, Im c*], [Im c*, -Re c*]]
        V_S,qq = cosh(xi)|c|^2 + (2n+1)[cosh(zeta)(1-|c|^2) + sinh(zeta) Re V]
        V_S,pp = same with -sinh(zeta) Re V
        V_S,qp = -(2n+1) sinh(zeta) Im V

    Ordering is (ancilla, system).  V is formed in real arithmetic and |c|^2
    taken as given: numpy's complex array product and abs round differently.
    """
    e = np.exp(-1j * env.phi_env)
    v_re = e.real * w.real - e.imag * w.imag
    v_im = e.real * w.imag + e.imag * w.real
    n_scale, m_scale = env_noise_scales(env)
    ch_x, sh_x = np.cosh(joint.xi), np.sinh(joint.xi)

    cm = np.zeros((len(c), 4, 4))
    cm[:, 0, 0] = cm[:, 1, 1] = ch_x
    cm[:, 0, 2] = cm[:, 2, 0] = sh_x * c.real
    cm[:, 0, 3] = cm[:, 3, 0] = cm[:, 1, 2] = cm[:, 2, 1] = -sh_x * c.imag
    cm[:, 1, 3] = cm[:, 3, 1] = -sh_x * c.real
    base = ch_x * csq + n_scale * (1.0 - csq)
    cm[:, 2, 2] = base + m_scale * v_re
    cm[:, 3, 3] = base - m_scale * v_re
    cm[:, 2, 3] = cm[:, 3, 2] = -m_scale * v_im
    return cm


def joint_cm_closed_form(
    coeffs: "CCoefficients", joint: JointSpec, env: EnvironmentSpec
) -> np.ndarray:
    """4x4 ancilla-system covariance matrix after the recorded step."""
    columns = coeffs.c22, coeffs.c22_abs_sq, coeffs.env_square_sum
    return joint_cm_stack(*(np.array([v]) for v in columns), joint, env)[0]


def initial_full_cm(config: SimulationConfig) -> np.ndarray:
    """Product-state covariance of [An, S, E_1 .. E_{L+1}] before round 1."""
    from .reference import squeezed_thermal_cm, tmsv_cm

    n_modes = config.L + 3
    cm = np.eye(2 * n_modes)
    cm[:4, :4] = tmsv_cm(config.joint)
    env_cm = squeezed_thermal_cm(config.env)
    for m in range(2, n_modes):
        cm[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = env_cm
    return cm


def iter_steps(config: SimulationConfig):
    """Yield (j, coeffs, full_cm) for j = 0 .. L, the one full-chain oracle path.

    The coefficients are evaluated one block of about sqrt(L) steps at a
    time, so the stream holds O(sqrt(L)) of them.  full_cm is None unless
    config.oracle_enabled; when present it is a *view* of the running
    array, valid only until the next iteration — copy it to keep it.  The
    oracle's one (2L+6)^2 covariance must fit in physical memory.
    """
    from .reference import CCoefficients, apply_collision_to_cm

    if config.oracle_enabled:
        require_memory(f"L = {config.L}", 8 * (2 * config.L + 6) ** 2)
    sigma = initial_full_cm(config) if config.oracle_enabled else None
    steps = (step for c22s, ws in _column_blocks([config], config.L)
             for step in zip(c22s[0].tolist(), ws[0].tolist()))
    for j, (c22, w) in enumerate(steps):
        if sigma is not None and j > 0:
            apply_collision_to_cm(sigma, j, config.r1, config.r2, config.phi_shift)
        a = abs(c22)  # _columns' H bit for bit
        yield j, CCoefficients(j, c22, env_square_sum=w, env_abs_square_sum=1.0 - a * a), sigma


def _bilinear_terms(p, q):
    """Coefficients of sum_m (p.x)_m (q.x)_m over the environment columns,
    x = (S, E, F): of g_ss, g_se and g_ee, then the constant."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1], p[2] * q[2]


def _round_constants(block: np.ndarray) -> tuple:
    """One round's coefficients, one tuple per entry of the next state
    (S <- block[0].x, E <- block[2].x): those of its group's entries, then
    the constant, if any.

    Round j maps the rows x = (S, E_j, F = E_{j+1}) of the composed unitary
    to block @ x; before it F is still a unit row, orthogonal to S and E_j.
    So the state is, for the system row S and the environment row E handed
    to the next round, the system-column amplitude a and the bilinear sum
    g = sum u_m^2 over the environment columns, and the cross sum
    g_se = sum S_m E_m: (a_s, a_e, g_ss, g_se, g_ee).  A row's coefficients
    are c22 = conj(a) and W = conj(g); its H = sum |u_m|^2 is 1 - |c22|^2,
    the row being a unit vector.
    """
    s_row, _, f_row = block.tolist()
    return ((s_row[0], s_row[1]), (f_row[0], f_row[1]),
            _bilinear_terms(s_row, s_row), _bilinear_terms(s_row, f_row),
            _bilinear_terms(f_row, f_row))


def _round_matrices(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrices K of one round on the conjugate state: on the amplitudes
    conj(a_s, a_e), and on the bilinear sums conj(g_ss, g_se, g_ee) with a
    constant 1.  After j rounds, the first entries of K^j x_0 are c22 and W."""
    (s_s, s_e), (f_s, f_e), *sums = _round_constants(block)
    return np.conj([[s_s, s_e], [f_s, f_e]]), np.conj([*sums, [0, 0, 0, 1]])


# x_0 of each matrix: S = e_1 and E = e_2, so a_s = g_ee = 1; then the constant 1.
_INITIAL_STATES = (np.array([1, 0], dtype=complex), np.array([0, 0, 1, 1], dtype=complex))


def _blocks(k: np.ndarray, x0: np.ndarray, L: int, rows, steps: int = 1):
    """Yield the given rows of x_j = K^j x_0, j = 0 .. L, for a batch of
    matrices k (cells, n, n), as complex arrays (cells, steps, rows): the
    evaluator's blocks of B = isqrt(L + 1) steps, whole, gathered into one
    array of at least `steps` steps (the last may hold fewer), allocated for
    the steps it yields.

    In long double (numpy's clongdouble, a 64-bit significand on x86-64):
    the powers K^t, t <= B, one product from the last; then block m is one
    product of their rows with X_m = (K^B)^m x_0, and X_{m + 1} one more.
    About 2 sqrt(L) array products in all, each entry rounded to complex
    once.  numpy has no BLAS kernel for long double: its matmul loop sums
    each entry's products in index order, starting from +0, whatever the
    batch, so a cell's bits do not depend on the cells beside it (and a
    sum of -0 products is +0)."""
    b, k = math.isqrt(L + 1), k.astype(np.clongdouble)
    power, picked = np.broadcast_to(np.eye(k.shape[-1], dtype=k.dtype), k.shape), []
    for _ in range(b):
        picked.append(power[:, rows])
        power = power @ k
    table = np.concatenate(picked, axis=1)
    state = np.broadcast_to(x0.astype(k.dtype)[:, None], (len(k), len(x0), 1))
    size = -(-steps // b) * b  # whole blocks
    for start in range(0, L + 1, size):
        n = min(size, L + 1 - start)  # the rows this array yields
        gathered = np.empty((len(k), n, len(table[0]) // b), complex)
        for at in range(0, n, b):
            gathered[:, at : at + b] = (table @ state).reshape(len(k), b, -1)[:, : n - at]
            state = power @ state
        yield gathered


def _column_blocks(configs, L: int, steps: int = 1):
    """Yield c22 and W after j = 0 .. L rounds, as complex arrays (cells,
    steps) of at least `steps` steps (`_blocks`), for configurations that
    differ only in r1 and r2."""
    matrices = zip(*(_round_matrices(mixing_block(c.r1, c.r2, c.phi_shift)) for c in configs))
    blocks = (_blocks(np.array(k), x0, L, [0], steps) for k, x0 in zip(matrices, _INITIAL_STATES))
    for c22, w in zip(*blocks):
        yield c22[..., 0], w[..., 0]


# Bytes per step of a block the evaluator holds per cell (`block_bytes`),
# measured with tracemalloc for L = 1 .. 16000: the power tables, what
# building them holds at once and one block's products, about 520 B.
CELL_BLOCK_BYTES = 640


def block_bytes(L: int) -> int:
    """Bytes the evaluator holds per cell for one block at L rounds."""
    return CELL_BLOCK_BYTES * math.isqrt(L + 1)


def _columns(c22, w, steps=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c22, |c22|^2, W, H) from c22 and W arrays of (cells, rows) or one
    column, H = 1 - |c22|^2, each row checked against |W| <= H (Cauchy-Schwarz
    on the unit row): the error names the first failing row by its step (steps,
    broadcast to the arrays; 0, 1, ... by default) and keeps its cell as `cell`.
    |c22|^2 is CCoefficients' a * a of a = abs(c22): np.hypot is abs, and an
    array ** 2 is x * x."""
    c_sq = np.hypot(c22.real, c22.imag) ** 2
    h = 1.0 - c_sq
    abs_w = np.abs(w)
    defect = ~(abs_w <= h + NORMALIZATION_TOL)  # NaN and inf are defects
    if defect.any():
        i = int(np.argmax(defect))
        step = np.broadcast_to(np.arange(h.shape[-1]) if steps is None else steps, h.shape).flat[i]
        exc = ValueError(f"coefficient column not normalized at row {step}: "
                         f"|W| = {float(abs_w.flat[i])!r} exceeds H = 1 - |c22|^2 = "
                         f"{float(h.flat[i])!r}")
        exc.cell = i // h.shape[-1]
        raise exc
    return c22, c_sq, w, h


def env_mode_columns(config: SimulationConfig, modes) -> tuple[np.ndarray, ...]:
    """(c22, |c22|^2, W, H) arrays of E_k's rows, three per k in modes.

    E_k's row is the unit row before step k - 1, the carried row E at
    j = k - 1 and round k's middle row from j = k on.  The last two come
    from the full state after k - 1 rounds, the middle row as one product
    of that state with the round whose system row is the middle one.  An
    error names the step a row prints from, and k's place in modes as `cell`.
    """
    for k in modes:
        if not 1 <= k <= config.L + 1:
            raise ValueError(f"environment index {k} out of range 1..{config.L + 1}")
    block = mixing_block(config.r1, config.r2, config.phi_shift)
    j = np.array(modes) - 1
    rows = []  # per matrix: the E row's entry and the middle row's
    for k, x0, middle, e in zip(_round_matrices(block), _INITIAL_STATES,
                                _round_matrices(block[[1, 1, 2]]), (1, 2)):
        state, start = np.empty((len(j), len(x0)), complex), 0  # after j rounds
        for steps in _blocks(k[None], x0, int(j.max()), slice(None)):
            inside = (start <= j) & (j < start + steps.shape[1])
            state[inside] = steps[0, j[inside] - start]
            start += steps.shape[1]
        product = middle[:1].astype(np.clongdouble) @ state[..., None]
        rows.append((state[:, e], product[:, 0, 0].astype(complex)))
    (a_e, a_m), (g_ee, g_m) = rows
    c22 = np.stack([np.zeros_like(a_e), a_e, a_m], axis=1)
    w = np.stack([np.ones_like(g_ee), g_ee, g_m], axis=1)
    steps = np.stack([np.zeros_like(j), j, j + 1], axis=1)
    return tuple(column.ravel() for column in _columns(c22, w, steps))


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(what: str, need: int) -> None:
    """Raise MemoryError, naming what needs them, if need bytes exceed physical memory."""
    have = physical_memory()
    if need > have:
        raise MemoryError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def run(config: SimulationConfig) -> Trajectory:
    """Evolve the chain and collect its per-step columns, j = 0 .. L."""
    if config.oracle_enabled:  # refused before the first step: iter_steps streams those
        raise ValueError("a Trajectory keeps no full-chain covariance; "
                         "iterate iter_steps(config) for the oracle")
    require_memory(f"L = {config.L}", (config.L + 1) * STEP_BYTES)
    # Steps through iter_steps, looked up in this module at each call, rather
    # than taking one gathered block of _column_blocks: the benchmark's per-layer
    # trace patches engine.iter_steps and divides run's own time by its steps.
    c22, w = np.empty(config.L + 1, complex), np.empty(config.L + 1, complex)
    for j, co, _ in iter_steps(config):
        c22[j], w[j] = co.c22, co.env_square_sum
    return Trajectory(config, *_columns(c22, w)[:3])


def env_ancilla_cm(full_cm: np.ndarray | None, k: int) -> np.ndarray:
    """4x4 reduced covariance of (E_k, ancilla), in that order.

    Requires a full-chain covariance matrix, which `iter_steps` yields with
    oracle_enabled=True.
    """
    if full_cm is None:
        raise ValueError("full covariance not given; "
                         "iterate iter_steps with oracle_enabled=True for it")
    from .reference import reduce_to_modes

    n_modes = full_cm.shape[0] // 2
    if not 1 <= k <= n_modes - 2:
        raise IndexError(f"environment index k = {k} out of range 1..{n_modes - 2}")
    return reduce_to_modes(full_cm, [k + 1, 0])
