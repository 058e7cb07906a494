"""Collision-chain evolution engine.

Runs the tunable beam-splitter chain for L rounds.  `run` turns each step's
network coefficients into columns (c22, |c22|^2, W, H) once and builds the
joint ancilla-system covariances from them in one closed-form call, which
`env_mode_cms` applies to the three rows of chosen environment modes.  Both
read a recurrence with O(1) state per step (`_states`), never the (L+3)^2
composed unitary.  `iter_trajectories` runs the same recurrence for many
grid cells at once, as arrays, with the same bits.  An optional oracle path
propagates the full (L+3)-mode covariance matrix symplectically, the
reference the tests and `evolve --oracle` check the closed forms against.
"""

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .network import (
    NORMALIZATION_TOL,
    CCoefficients,
    check_normalization,
    mixing_block,
    mode_unitary_to_symplectic,
)
from .states import (
    EnvironmentSpec,
    JointSpec,
    reduce_to_modes,
    require_finite,
    squeezed_thermal_cm,
    tmsv_cm,
)

# A bound on the peak-RSS growth per step of an `evolve` run (measured
# between L = 5e4 and 1.5e5: about 0.76 kB per step).
STEP_BYTES = 1200


@dataclass(frozen=True)
class SimulationConfig:
    """Full parameter set of one collision-chain run.

    r1, r2 are the two beam-splitter reflectivities, phi_shift the phase
    on the system arm, joint the ancilla-system preparation, env the
    (identical) preparation of every environment mode, L the number of
    rounds.  oracle_enabled turns on full-chain covariance propagation.
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
class StepRecord:
    """State of the chain after `j` rounds (j = 0 is the initial state)."""

    j: int
    coeffs: CCoefficients
    joint_cm: np.ndarray
    full_cm: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step columns j = 0 .. L: c22, |c22|^2, W and H, the (L+1, 4, 4)
    joint covariances, and the full-chain covariances if the oracle ran."""

    config: SimulationConfig
    c22: np.ndarray
    c22_abs_sq: np.ndarray
    env_square_sum: np.ndarray
    env_abs_square_sum: np.ndarray
    joint_cm: np.ndarray
    full_cm: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.c22)

    @cached_property
    def steps(self) -> list[StepRecord]:
        """One StepRecord per step, built from the columns on first access."""
        sums = (self.c22.tolist(), self.env_square_sum.tolist(), self.env_abs_square_sum.tolist())
        full = self.full_cm or [None] * len(self)
        return [StepRecord(j, CCoefficients(j, c, env_square_sum=w, env_abs_square_sum=h), cm, f)
                for j, (c, w, h, cm, f) in enumerate(zip(*sums, self.joint_cm, full))]


def coefficient_columns(coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c22, |c22|^2, W, H) arrays over an iterable of CCoefficients; |c22|^2
    is each step's c22_abs_sq, since numpy's abs rounds differently."""
    rows = [(co.c22, co.c22_abs_sq, co.env_square_sum, co.env_abs_square_sum) for co in coeffs]
    return tuple(np.array(col) for col in zip(*rows))


def joint_cm_stack(c, csq, w, joint: JointSpec, env: EnvironmentSpec) -> np.ndarray:
    """(n, 4, 4) ancilla-system covariances from the columns c = c22,
    csq = |c22|^2 and w = W of `coefficient_columns`.

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
    nf = 2.0 * env.n + 1.0
    ch_x, sh_x = np.cosh(joint.xi), np.sinh(joint.xi)
    ch_z, sh_z = np.cosh(env.zeta), np.sinh(env.zeta)

    cm = np.zeros((len(c), 4, 4))
    cm[:, 0, 0] = cm[:, 1, 1] = ch_x
    cm[:, 0, 2] = cm[:, 2, 0] = sh_x * c.real
    cm[:, 0, 3] = cm[:, 3, 0] = cm[:, 1, 2] = cm[:, 2, 1] = -sh_x * c.imag
    cm[:, 1, 3] = cm[:, 3, 1] = -sh_x * c.real
    base = ch_x * csq + nf * ch_z * (1.0 - csq)
    cm[:, 2, 2] = base + nf * sh_z * v_re
    cm[:, 3, 3] = base - nf * sh_z * v_re
    cm[:, 2, 3] = cm[:, 3, 2] = -nf * sh_z * v_im
    return cm


def joint_cm_closed_form(
    coeffs: CCoefficients, joint: JointSpec, env: EnvironmentSpec
) -> np.ndarray:
    """4x4 ancilla-system covariance matrix after the recorded step."""
    return joint_cm_stack(*coefficient_columns([coeffs])[:3], joint, env)[0]


def initial_full_cm(config: SimulationConfig) -> np.ndarray:
    """Product-state covariance of [An, S, E_1 .. E_{L+1}] before round 1."""
    n_modes = config.L + 3
    cm = np.eye(2 * n_modes)
    cm[:4, :4] = tmsv_cm(config.joint)
    env_cm = squeezed_thermal_cm(config.env)
    for m in range(2, n_modes):
        cm[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = env_cm
    return cm


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


def iter_steps(config: SimulationConfig):
    """Yield (j, coeffs, full_cm) for j = 0 .. L.

    full_cm is None unless config.oracle_enabled; when present it is a
    *view* of the running array, valid only until the next iteration —
    copy it to keep it.  The oracle's one (2L+6)^2 covariance must fit in
    physical memory.
    """
    if config.oracle_enabled:
        require_memory(config.L, 8 * (2 * config.L + 6) ** 2)
    sigma = initial_full_cm(config) if config.oracle_enabled else None
    for j, state in enumerate(_states(config)):
        if sigma is not None and j > 0:
            apply_collision_to_cm(sigma, j, config.r1, config.r2, config.phi_shift)
        a_s, _, g_ss, _, _, h_ss, *_ = state
        yield j, _coefficients(j, a_s, g_ss, h_ss), sigma


def _bilinear_terms(p, q):
    """Coefficients of sum_m (p.x)_m (q.x)_m over the environment columns,
    x = (S, E, F): of g_ss, g_se and g_ee, then the constant."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1], p[2] * q[2]


def _hermitian_terms(p, q_conj):
    """Coefficients of sum_m (p.x)_m conj((q.x)_m) over the environment
    columns, q_conj = conj(q): of h_ss, h_se, conj(h_se) and h_ee, then the
    constant."""
    return (p[0] * q_conj[0], p[0] * q_conj[1], p[1] * q_conj[0], p[1] * q_conj[1],
            p[2] * q_conj[2])


def _round_constants(block: np.ndarray) -> tuple:
    """One round's coefficients, one tuple per entry of the next state
    (S <- block[0].x, E <- block[2].x): those of the entries _TERMS names,
    then the constant, if any.  Built once per configuration in Python
    complex arithmetic, associated as the per-round sums were, so that both
    evaluators reproduce every state bit for bit."""
    s_row, _, f_row = block.tolist()
    s_conj, _, f_conj = block.conj().tolist()
    return ((s_row[0], s_row[1]), (f_row[0], f_row[1]),
            _bilinear_terms(s_row, s_row), _bilinear_terms(s_row, f_row),
            _bilinear_terms(f_row, f_row), _hermitian_terms(s_row, s_conj),
            _hermitian_terms(s_row, f_conj), _hermitian_terms(f_row, f_conj))


def _bilinear(k, state):
    """A bilinear sum from its _bilinear_terms k."""
    _, _, g_ss, g_se, g_ee, *_ = state
    return k[0] * g_ss + k[1] * g_se + k[2] * g_ee + k[3]


def _hermitian(k, state):
    """A Hermitian sum from its _hermitian_terms k."""
    *_, h_ss, h_se, h_ee = state
    return k[0] * h_ss + k[1] * h_se + k[2] * h_se.conjugate() + k[3] * h_ee + k[4]


def _next_state(k, state):
    """State after one round, from the round's constants k."""
    a_s, a_e, *_ = state
    return (
        k[0][0] * a_s + k[0][1] * a_e,
        k[1][0] * a_s + k[1][1] * a_e,
        _bilinear(k[2], state),
        _bilinear(k[3], state),
        _bilinear(k[4], state),
        _hermitian(k[5], state).real,
        _hermitian(k[6], state),
        _hermitian(k[7], state).real,
    )


def _coefficients(step: int, a: complex, g: complex, h: float) -> CCoefficients:
    """A row's coefficients from its amplitude a and its sums g and h."""
    return CCoefficients(step, a.conjugate(), env_square_sum=g.conjugate(), env_abs_square_sum=h)


_INITIAL_STATE = (1 + 0j, 0j, 0j, 0j, 1 + 0j, 0.0, 0j, 1.0)  # S = e_1, E = e_2


def _states(config: SimulationConfig):
    """Iterator over the recurrence state after j rounds, j = 0 .. L.

    Round j maps the rows x = (S, E_j, F = E_{j+1}) of the composed unitary
    to mixing_block @ x; before it F is still a unit row, orthogonal to S
    and E_j.  So the state is, for the system row S and the environment row
    E handed to the next round, the system-column amplitude a, the bilinear
    sum g = sum u_m^2 and the Hermitian sum h = sum |u_m|^2 over the
    environment columns, and the cross sums g_se = sum S_m E_m and
    h_se = sum S_m conj(E_m): (a_s, a_e, g_ss, g_se, g_ee, h_ss, h_se, h_ee).
    A row's coefficients are c22 = conj(a), W = conj(g) and H = h.
    """
    k = _round_constants(mixing_block(config.r1, config.r2, config.phi_shift))
    rounds = itertools.repeat(k, config.L)
    return itertools.accumulate(rounds, lambda state, k: _next_state(k, state),
                                initial=_INITIAL_STATE)


# The state entries each row of _round_constants multiplies, in summation
# order; -1 stands for conj(h_se).  A row with one coefficient more adds it.
_TERMS = ((0, 1), (0, 1), (2, 3, 4), (2, 3, 4), (2, 3, 4),
          (5, 6, -1, 7), (5, 6, -1, 7), (5, 6, -1, 7))
_SLOTS = 5  # terms and constant of the longest row
_UNIT = 8  # the batched state's constant entry 1 + 1j
_ROWS = _UNIT + 1  # entries of the batched state, the unit included
_RECORDED = (0, 2, 5, _ROWS, _ROWS + 2)  # a_s, g_ss, h_ss; imaginary a_s, g_ss

# Bytes one batched chunk may hold: its state history, 40 B per cell-step,
# and each cell's coefficient tables and step buffers (4.4-4.7 kB measured
# with tracemalloc at L = 1) ...
CHUNK_BYTES = 2**24
CELL_STEP_BYTES = 40
CELL_BYTES = 6 * 2**10
# ... but never fewer cells than this: near where the batched step (about
# 30 us per step plus 0.5 us per cell-step, on 2 CPUs) breaks even with one
# `run` per cell (about 12 us per step).
MIN_CHUNK_CELLS = 4


def _batched_table(configs) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows and coefficients of the batched step, from each cell's
    _round_constants.

    The batched state is a real array (18, cells): the real parts of the
    eight entries and of the unit entry 1 + 1j, then their imaginary parts
    (those of h_ss and h_ee are 0.0, as when Python promotes a float).
    Slot t of entry e multiplies one entry x by a coefficient c, and in
    real arithmetic, written out as CPython forms the complex product,

        re = c.re x.re - c.im x.im,  im = c.re x.im + c.im x.re,

    that is cr * x + cd * swap(x), swap exchanging real and imaginary parts.
    A constant c multiplies the unit entry with cr = (c.re, -0.0) and
    cd = (-0.0, c.im); an empty slot has cr = cd = -0.0 and adds -0.0,
    which changes no sum.  numpy's complex product fuses multiply-adds, so
    it would not reproduce Python's bits.  Returned flat, in the order
    (x or swap(x), slot, real or imaginary part, entry).
    """
    tables = [_round_constants(mixing_block(c.r1, c.r2, c.phi_shift)) for c in configs]
    entry = np.full((_SLOTS, len(_TERMS)), _UNIT)
    cr = np.full((_SLOTS, 2, len(_TERMS), len(configs)), -0.0)
    cd = cr.copy()
    for e, terms in enumerate(_TERMS):
        for t in range(len(tables[0][e])):
            c = np.array([table[e][t] for table in tables])
            if t == len(terms):  # the constant
                cr[t, 0, e], cd[t, 1, e] = c.real, c.imag
            elif terms[t] == -1:  # c * conj(h_se)
                entry[t, e] = 6
                cr[t, :, e] = c.real, -c.real
                cd[t, :, e] = c.imag
            else:
                entry[t, e] = terms[t]
                cr[t, :, e] = c.real
                cd[t, :, e] = -c.imag, c.imag
    part = np.arange(2)[:, None]
    gather = np.stack([part * _ROWS + entry[:, None], (1 - part) * _ROWS + entry[:, None]])
    return gather.ravel(), np.stack([cr, cd]).reshape(-1, len(configs))


def _batched_history(configs, L: int) -> np.ndarray:
    """(L + 1, 5, cells): the _RECORDED parts of a_s, g_ss and h_ss after j
    rounds, for cells that differ only in r1 and r2."""
    gather, coefficients = _batched_table(configs)
    start = [complex(v) for v in _INITIAL_STATE] + [1 + 1j]
    x = np.repeat([[v.real] for v in start] + [[v.imag] for v in start], len(configs), axis=1)
    x_next = x.copy()
    products = np.empty((len(gather), len(configs)))
    history = np.empty((L + 1, len(_RECORDED), len(configs)))
    history[0] = x[list(_RECORDED)]
    for j in range(1, L + 1):
        np.take(x, gather, axis=0, out=products)
        products *= coefficients
        terms = products[: len(gather) // 2]
        terms += products[len(gather) // 2 :]  # cr * x + cd * swap(x)
        terms = terms.reshape(_SLOTS, 2, len(_TERMS), len(configs))
        out = x_next.reshape(2, _ROWS, len(configs))[:, : len(_TERMS)]
        np.add(terms[0], terms[1], out=out)
        for t in range(2, _SLOTS):
            out += terms[t]
        x_next[_ROWS + 5 :: 2] = 0.0  # h_ss and h_ee are real parts
        x, x_next = x_next, x
        np.take(x, _RECORDED, axis=0, out=history[j])
    return history


def iter_trajectories(configs):
    """One Trajectory per configuration, in order, for configurations that
    differ only in r1 and r2.

    The recurrence runs for a chunk of cells at a time as one array
    computation, bit-identical to `run`'s scalar loop; each cell's
    witnesses then read its own trajectory.  Refuses, before the first
    step, an L whose chunk and trajectory cannot fit in physical memory.
    """
    configs = list(configs)
    base = configs[0]
    if any(replace(c, r1=base.r1, r2=base.r2) != base for c in configs):
        raise ValueError("configurations differ in more than r1 and r2")
    L = base.L
    cell_bytes = CELL_BYTES + CELL_STEP_BYTES * (L + 1)
    size = min(len(configs), max(MIN_CHUNK_CELLS, CHUNK_BYTES // cell_bytes))
    require_memory(L, size * cell_bytes + (L + 1) * STEP_BYTES)
    for start in range(0, len(configs), size):
        chunk = configs[start : start + size]
        history = _batched_history(chunk, L)
        for i, config in enumerate(chunk):
            a_re, g_re, h, a_im, g_im = history[:, :, i].T
            c22, w = _conjugate(a_re, a_im), _conjugate(g_re, g_im)
            # Python's abs(c22) ** 2: np.hypot is abs, but numpy squares round differently.
            hypot = np.hypot(c22.real, c22.imag).tolist()
            c_sq = np.fromiter(map(math.pow, hypot, itertools.repeat(2.0)), float, L + 1)
            h = h.copy()
            total = c_sq + h
            defect = np.abs(total - 1.0) > NORMALIZATION_TOL
            if defect.any():
                check_normalization(float(total[np.argmax(defect)]))
            joint_cm = joint_cm_stack(c22, c_sq, w, config.joint, config.env)
            yield Trajectory(config, c22, c_sq, w, h, joint_cm)


def _conjugate(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re - i im, formed without complex arithmetic."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, -im
    return out


def env_mode_cms(config: SimulationConfig, modes) -> np.ndarray:
    """(3 len(modes), 4, 4) closed-form (ancilla, E_k) covariances, three per k.

    E_k's row is the unit row before step k - 1, the carried row E at
    j = k - 1 and round k's middle row from j = k on; the last two come
    from the state after k - 1 rounds.
    """
    for k in modes:
        if not 1 <= k <= config.L + 1:
            raise ValueError(f"environment index {k} out of range 1..{config.L + 1}")
    states = {j: s for j, s in zip(range(max(modes)), _states(config)) if j + 1 in modes}
    middle = mixing_block(config.r1, config.r2, config.phi_shift)[1]
    m, m_conj = middle.tolist(), middle.conj().tolist()
    g_terms, h_terms = _bilinear_terms(m, m), _hermitian_terms(m, m_conj)
    rows = []
    for k in modes:
        a_s, a_e, _, _, g_ee, _, _, h_ee = state = states[k - 1]
        rows += [_coefficients(0, 0j, 1 + 0j, 1.0), _coefficients(k - 1, a_e, g_ee, h_ee),
                 _coefficients(k, m[0] * a_s + m[1] * a_e, _bilinear(g_terms, state),
                               _hermitian(h_terms, state).real)]
    return joint_cm_stack(*coefficient_columns(rows)[:3], config.joint, config.env)


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(L: int, need: int) -> None:
    """Raise MemoryError, naming L, if need bytes exceed physical memory."""
    have = physical_memory()
    if need > have:
        raise MemoryError(
            f"L = {L} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def run(config: SimulationConfig) -> Trajectory:
    """Evolve the chain and collect its per-step columns, j = 0 .. L."""
    oracle_bytes = 8 * (2 * config.L + 6) ** 2 if config.oracle_enabled else 0
    require_memory(config.L, (config.L + 1) * (STEP_BYTES + oracle_bytes))
    chain = iter_steps(config)
    if config.oracle_enabled:  # sigma is a view of the running array
        chain = [(j, coeffs, sigma.copy()) for j, coeffs, sigma in chain]
    c22, c_sq, w, h = coefficient_columns(coeffs for _, coeffs, _ in chain)
    full_cm = [sigma for *_, sigma in chain] if config.oracle_enabled else None
    joint_cm = joint_cm_stack(c22, c_sq, w, config.joint, config.env)
    return Trajectory(config, c22, c_sq, w, h, joint_cm, full_cm)


def env_ancilla_cm(full_cm: np.ndarray | None, k: int) -> np.ndarray:
    """4x4 reduced covariance of (E_k, ancilla), in that order.

    Requires the full-chain covariance matrix; run with
    oracle_enabled=True to record it.
    """
    if full_cm is None:
        raise ValueError("full covariance not recorded; run with oracle_enabled=True")
    n_modes = full_cm.shape[0] // 2
    if not 1 <= k <= n_modes - 2:
        raise IndexError(f"environment index k = {k} out of range 1..{n_modes - 2}")
    return reduce_to_modes(full_cm, [k + 1, 0])
