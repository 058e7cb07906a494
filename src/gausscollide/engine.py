"""Collision-chain evolution engine.

Runs the tunable beam-splitter chain for L rounds through one recurrence
with O(1) state per step (`_next_state`), never the (L+3)^2 composed
unitary.  `_columns` turns c22, W and H arrays into checked (c22, |c22|^2,
W, H) columns for `run`, for `iter_trajectories`, which steps a chunk of
grid cells at once as float arrays with the same bits, and for the rows of
chosen environment modes (`env_mode_columns`).  With `oracle_enabled`,
`iter_steps` also propagates the full (L+3)-mode covariance matrix
symplectically, the reference the tests and `evolve --oracle` check the
closed forms against.
"""

import itertools
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
    env_noise_scales,
    reduce_to_modes,
    require_finite,
    squeezed_thermal_cm,
    tmsv_cm,
)

# A bound on the peak-RSS growth per step of an `evolve` run: measured
# between L = 5e4 and 1.5e5 at about 0.49 kB per step, plus a 20% margin.
# It stays below the 0.76 kB per step of a run that keeps a 4x4 joint
# covariance and a joined output string, so CI's memory step catches that.
STEP_BYTES = 600


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
class StepRecord:
    """State of the chain after `j` rounds (j = 0 is the initial state): its
    coefficients and closed-form ancilla-system covariance."""

    j: int
    coeffs: CCoefficients
    joint_cm: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step columns j = 0 .. L: c22, |c22|^2, W and H.  The full-chain
    covariances are not kept; `iter_steps` streams them."""

    config: SimulationConfig
    c22: np.ndarray
    c22_abs_sq: np.ndarray
    env_square_sum: np.ndarray
    env_abs_square_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.c22)

    @cached_property
    def joint_cm(self) -> np.ndarray:
        """The (L+1, 4, 4) closed-form ancilla-system covariances, built on
        first access (128 B per step): steering reads the columns instead."""
        return joint_cm_stack(self.c22, self.c22_abs_sq, self.env_square_sum,
                              self.config.joint, self.config.env)

    @cached_property
    def steps(self) -> list[StepRecord]:
        """One StepRecord per step, built from the columns on first access."""
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
    coeffs: CCoefficients, joint: JointSpec, env: EnvironmentSpec
) -> np.ndarray:
    """4x4 ancilla-system covariance matrix after the recorded step."""
    columns = coeffs.c22, coeffs.c22_abs_sq, coeffs.env_square_sum
    return joint_cm_stack(*(np.array([v]) for v in columns), joint, env)[0]


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
    """Yield (j, coeffs, full_cm) for j = 0 .. L, the one full-chain oracle path.

    full_cm is None unless config.oracle_enabled; when present it is a
    *view* of the running array, valid only until the next iteration —
    copy it to keep it.  The oracle's one (2L+6)^2 covariance must fit in
    physical memory.
    """
    if config.oracle_enabled:
        require_memory(config.L, 8 * (2 * config.L + 6) ** 2)
    sigma = initial_full_cm(config) if config.oracle_enabled else None
    for j, (a_s, _, g_ss, _, _, h_ss, *_) in enumerate(_states(config)):
        if sigma is not None and j > 0:
            apply_collision_to_cm(sigma, j, config.r1, config.r2, config.phi_shift)
        yield j, CCoefficients(j, a_s.conjugate(), env_square_sum=g_ss.conjugate(),
                               env_abs_square_sum=h_ss.real), sigma


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
    (S <- block[0].x, E <- block[2].x): those of its group's entries in
    summation order, then the constant, if any.  Built once per
    configuration in Python complex arithmetic, associated as the per-round
    sums were, so that both evaluators reproduce every state bit for bit."""
    s_row, _, f_row = block.tolist()
    s_conj, _, f_conj = block.conj().tolist()
    return ((s_row[0], s_row[1]), (f_row[0], f_row[1]),
            _bilinear_terms(s_row, s_row), _bilinear_terms(s_row, f_row),
            _bilinear_terms(f_row, f_row), _hermitian_terms(s_row, s_conj),
            _hermitian_terms(s_row, f_conj), _hermitian_terms(f_row, f_conj))


def _next_state(k, state):
    """State after one round, from the round's constants k, each sum in the
    order _round_constants lists its terms."""
    a_s, a_e, g_ss, g_se, g_ee, h_ss, h_se, h_ee = state
    h_es = h_se.conjugate()
    (s_s, s_e), (f_s, f_e), g1, g2, g3, h1, h2, h3 = k
    return (
        s_s * a_s + s_e * a_e,
        f_s * a_s + f_e * a_e,
        g1[0] * g_ss + g1[1] * g_se + g1[2] * g_ee + g1[3],
        g2[0] * g_ss + g2[1] * g_se + g2[2] * g_ee + g2[3],
        g3[0] * g_ss + g3[1] * g_se + g3[2] * g_ee + g3[3],
        complex((h1[0] * h_ss + h1[1] * h_se + h1[2] * h_es + h1[3] * h_ee + h1[4]).real),
        h2[0] * h_ss + h2[1] * h_se + h2[2] * h_es + h2[3] * h_ee + h2[4],
        complex((h3[0] * h_ss + h3[1] * h_se + h3[2] * h_es + h3[3] * h_ee + h3[4]).real),
    )


_INITIAL_STATE = (1 + 0j, 0j, 0j, 0j, 1 + 0j, 0j, 0j, 1 + 0j)  # S = e_1, E = e_2


def _states(config: SimulationConfig):
    """Iterator over the recurrence state after j rounds, j = 0 .. L.

    Round j maps the rows x = (S, E_j, F = E_{j+1}) of the composed unitary
    to mixing_block @ x; before it F is still a unit row, orthogonal to S
    and E_j.  So the state is, for the system row S and the environment row
    E handed to the next round, the system-column amplitude a, the bilinear
    sum g = sum u_m^2 and the Hermitian sum h = sum |u_m|^2 over the
    environment columns, and the cross sums g_se = sum S_m E_m and
    h_se = sum S_m conj(E_m): (a_s, a_e, g_ss, g_se, g_ee, h_ss, h_se, h_ee).
    Every entry is complex, h_ss and h_ee with imaginary part +0.0.  A row's
    coefficients are c22 = conj(a), W = conj(g) and H = Re h.
    """
    k = _round_constants(mixing_block(config.r1, config.r2, config.phi_shift))
    rounds = itertools.repeat(k, config.L)
    return itertools.accumulate(rounds, lambda state, k: _next_state(k, state),
                                initial=_INITIAL_STATE)


# Bytes one batched chunk may hold: its state history, 40 B per cell-step,
# and each cell's coefficient tables and step buffers (2.4-2.9 kB measured
# with tracemalloc at L = 1).
CHUNK_BYTES = 2**24
CELL_STEP_BYTES = 40
CELL_BYTES = 6 * 2**10
# A chunk of fewer cells runs `run` per cell instead: the batched step's
# fixed cost (about 65 us per round plus 0.3 us per cell-round, on 2 CPUs)
# exceeds that many `run` steps (5-8 us each, |c22|^2 and joint_cm included).
MIN_BATCH_CELLS = 8


def _grouped_sums(k_re, k_im, x_re, x_im):
    """Real and imaginary parts (entries, cells) of sum_t k[t] x[t], plus
    k[T] if k has one row more than x: each product as CPython forms it,
    re = k.re x.re - k.im x.im and im = k.re x.im + k.im x.re (numpy's
    complex product fuses multiply-adds), summed in _next_state's order
    from -0.0 (a plain reduce starts from +0.0, turning a -0.0 sum into
    +0.0)."""
    n = len(x_re)
    x_re, x_im = x_re[:, None], x_im[:, None]
    re = np.add.reduce(k_re[:n] * x_re - k_im[:n] * x_im, axis=0, initial=-0.0)
    im = np.add.reduce(k_re[:n] * x_im + k_im[:n] * x_re, axis=0, initial=-0.0)
    if len(k_re) > n:  # the constant
        re += k_re[n]
        im += k_im[n]
    return re, im


def _batched_history(configs, L: int) -> np.ndarray:
    """(L + 1, 5, cells): the real parts of a_s, g_ss and h_ss and the
    imaginary parts of a_s and g_ss after j rounds, for cells that differ
    only in r1 and r2.

    Each of _next_state's three groups of sums reads only its own entries:
    the amplitudes (a_s, a_e), the bilinear sums (g_ss, g_se, g_ee) and the
    Hermitian sums over (h_ss, h_se, conj h_se, h_ee).  Each group runs as
    real and imaginary float arrays (terms, cells), with each cell's
    _round_constants as coefficients (terms, entries, cells).
    """
    tables = [_round_constants(mixing_block(c.r1, c.r2, c.phi_shift)) for c in configs]
    a_s, a_e, g_ss, g_se, g_ee, h_ss, h_se, h_ee = _INITIAL_STATE
    coefficients, state = [], []
    for rows, start in ((slice(0, 2), (a_s, a_e)), (slice(2, 5), (g_ss, g_se, g_ee)),
                        (slice(5, 8), (h_ss, h_se, h_se.conjugate(), h_ee))):
        k = np.array([table[rows] for table in tables]).transpose(2, 1, 0)
        x = np.array(start)[:, None].repeat(len(configs), axis=1)
        coefficients.append((k.real.copy(), k.imag.copy()))
        state.append((x.real, x.imag))
    zero = np.zeros(len(configs))

    def step(state, _):
        a, g, (h_re, h_im) = (_grouped_sums(*k, *x) for k, x in zip(coefficients, state))
        # h_ss and h_ee keep imaginary part +0.0; conj(h_se) follows h_se
        return a, g, (h_re.take([0, 1, 1, 2], axis=0), np.array([zero, h_im[1], -h_im[1], zero]))

    history = np.empty((L + 1, 5, len(configs)))
    states = itertools.accumulate(range(L), step, initial=state)
    for j, ((a_re, a_im), (g_re, g_im), (h_re, _)) in enumerate(states):
        history[j] = a_re[0], g_re[0], h_re[0], a_im[0], g_im[0]
    return history


def iter_trajectories(configs):
    """One Trajectory per configuration, in order, for configurations that
    differ only in r1 and r2.

    The recurrence runs for a chunk of cells at a time as one array
    computation, bit-identical to `run`'s scalar loop, or through `run` per
    cell for a chunk below MIN_BATCH_CELLS; each cell's witnesses then read
    its own trajectory.  Refuses, before the first step, the oracle (as
    `run` does) and an L whose chunk and trajectory cannot fit in physical
    memory.
    """
    configs = list(configs)
    base = configs[0]
    if any(replace(c, r1=base.r1, r2=base.r2) != base for c in configs):
        raise ValueError("configurations differ in more than r1 and r2")
    _refuse_oracle(base)
    L = base.L
    cell_bytes = CELL_BYTES + CELL_STEP_BYTES * (L + 1)
    size = min(len(configs), max(1, CHUNK_BYTES // cell_bytes))
    require_memory(L, size * cell_bytes + (L + 1) * STEP_BYTES)
    for start in range(0, len(configs), size):
        chunk = configs[start : start + size]
        if len(chunk) < MIN_BATCH_CELLS:
            yield from map(run, chunk)
            continue
        history = _batched_history(chunk, L)
        for i, config in enumerate(chunk):
            a_re, g_re, h, a_im, g_im = history[:, :, i].T
            c22, w = _conjugate(a_re, a_im), _conjugate(g_re, g_im)
            yield Trajectory(config, *_columns(c22, w, h.copy()))


def _columns(c22, w, h) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c22, |c22|^2, W, H) from the c22, W and H arrays, each row's
    normalization |c22|^2 + H = 1 checked.  |c22|^2 is CCoefficients'
    a * a of a = abs(c22): np.hypot is abs, and an array ** 2 is x * x."""
    c_sq = np.hypot(c22.real, c22.imag) ** 2
    total = c_sq + h
    defect = ~(np.abs(total - 1.0) <= NORMALIZATION_TOL)  # NaN is a defect
    if defect.any():
        check_normalization(float(total[np.argmax(defect)]))
    return c22, c_sq, w, h


def _conjugate(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re - i im, formed without complex arithmetic."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, -im
    return out


def env_mode_columns(config: SimulationConfig, modes) -> tuple[np.ndarray, ...]:
    """(c22, |c22|^2, W, H) arrays of E_k's rows, three per k in modes.

    E_k's row is the unit row before step k - 1, the carried row E at
    j = k - 1 and round k's middle row from j = k on; the last two come
    from the state after k - 1 rounds.
    """
    for k in modes:
        if not 1 <= k <= config.L + 1:
            raise ValueError(f"environment index {k} out of range 1..{config.L + 1}")
    states = {j: s for j, s in zip(range(max(modes)), _states(config)) if j + 1 in modes}
    # the round with the middle row in the system row's place
    middle = _round_constants(mixing_block(config.r1, config.r2, config.phi_shift)[[1, 1, 2]])
    rows = []  # (a, g, h) of each row, as _states carries it
    for k in modes:
        _, a_e, _, _, g_ee, _, _, h_ee = state = states[k - 1]
        a_m, _, g_m, _, _, h_m, *_ = _next_state(middle, state)
        rows += [(0j, 1 + 0j, 1 + 0j), (a_e, g_ee, h_ee), (a_m, g_m, h_m)]
    a, g, h = map(np.array, zip(*rows))
    return _columns(a.conj(), g.conj(), h.real)


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
    _refuse_oracle(config)
    require_memory(config.L, (config.L + 1) * STEP_BYTES)
    # Steps through iter_steps, looked up in this module at each call, rather
    # than _states: the benchmark's per-layer trace patches engine.iter_steps
    # and divides run's own time by the steps it sees there.
    c22, w, h = map(np.array, zip(*[(co.c22, co.env_square_sum, co.env_abs_square_sum)
                                    for _, co, _ in iter_steps(config)]))
    return Trajectory(config, *_columns(c22, w, h))


def _refuse_oracle(config: SimulationConfig) -> None:
    """Raise before the first step: the full-chain covariances stream through iter_steps."""
    if config.oracle_enabled:
        raise ValueError("a Trajectory keeps no full-chain covariance; "
                         "iterate iter_steps(config) for the oracle")


def env_ancilla_cm(full_cm: np.ndarray | None, k: int) -> np.ndarray:
    """4x4 reduced covariance of (E_k, ancilla), in that order.

    Requires a full-chain covariance matrix, which `iter_steps` yields with
    oracle_enabled=True.
    """
    if full_cm is None:
        raise ValueError("full covariance not given; "
                         "iterate iter_steps with oracle_enabled=True for it")
    n_modes = full_cm.shape[0] // 2
    if not 1 <= k <= n_modes - 2:
        raise IndexError(f"environment index k = {k} out of range 1..{n_modes - 2}")
    return reduce_to_modes(full_cm, [k + 1, 0])
