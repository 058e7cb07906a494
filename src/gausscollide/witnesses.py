"""The chain's witnesses, block by block, and `scan`'s reduction of them.

`witness_blocks` is the one walk of the chain that every command reads;
`scan_measures` reduces its blocks with each measure's own arithmetic, and
`scan_chunk` sizes scan's chunks of cells by the bytes each cell holds.
"""

import math

import numpy as np

from .divisibility import divisibility_columns, violation_sum
from .engine import _column_blocks, _columns, block_bytes
from .steering import Direction, revival, rises, steering_columns

DIRECTIONS = (Direction.B_TO_A, Direction.A_TO_B)  # S -> An, then An -> S: evolve's columns

# Bytes a `scan` chunk may hold (on x86-64, a 10 x 10 scan at L = 250 peaks at
# 30.4 MiB RSS; with 4 and 16 MiB, at 31.8 and 33.3), and per cell beside the
# evaluator's `block_bytes`: per step of a gathered block, at most 170 B of columns
# and witness temporaries (tracemalloc, L = 1 to 16000); per step of the chain, the
# G increments kept (each direction rises at most once a step: 8 B) and under 1 B
# of array headers; the lists that keep them and fixed temporaries, 2.1 kB at L = 1.
SCAN_CHUNK_BYTES = 2**21
SCAN_ROW_BYTES = 200
RISE_BYTES = 17
SCAN_CELL_BYTES = 2400


def witness_blocks(configs, L: int, directions, rows: int):
    """Per block of the chain walk of configurations that differ only in r1 and
    r2 (`_column_blocks`, gathered to `rows` steps): the steps j, then (cells,
    steps) arrays of c22, |c22|^2 with the step before first (1 before step 0:
    the identity channel), W, and G in each of directions.  `_columns` is the
    one check: its error names the step and carries its cell as `cell`."""
    start, c_sq_before = 0, np.ones((len(configs), 1))
    for c22, w in _column_blocks(configs, L, rows):
        j = np.arange(start, start + c22.shape[1])
        c22, c_sq, w = _columns(c22, w, j)[:3]
        g = [steering_columns(c_sq, w, configs[0].joint, configs[0].env, d) for d in directions]
        c_sq = np.concatenate([c_sq_before, c_sq], axis=1)
        yield j, c22, c_sq, w, *g
        c_sq_before, start = c_sq[:, -1:], start + c22.shape[1]


def scan_chunk(cells: int, L: int, rows: int) -> tuple[int, int]:
    """(cells per chunk, bytes of one chunk) of `scan` over cells of L rounds."""
    b = math.isqrt(L + 1)
    gathered = min(-(-rows // b) * b, L + 1)  # a gathered block, at most the chain
    cell_bytes = block_bytes(L) + SCAN_ROW_BYTES * gathered + RISE_BYTES * (L + 1) + SCAN_CELL_BYTES
    size = min(cells, max(1, SCAN_CHUNK_BYTES // cell_bytes))
    return size, size * cell_bytes


def scan_measures(chunk, blocks) -> np.ndarray:
    """scan's rows (r1, r2, N_GS S -> An, N_GS An -> S, N_CPTP) of the chunk's
    cells, reduced from the blocks of their walk in DIRECTIONS (`witness_blocks`);
    an error names its cell.  Each cell keeps its positive G increments for one
    `revival` and carries the `violation_sum` of the steps j >= 2: the bits of
    `nm_from_steering` and `nm_cptp` on the whole series, however it splits."""
    kept = []  # per block and direction, each cell's positive increments
    last = [np.empty((len(chunk), 0))] * 2  # G of the step before the block
    n_cptp = np.zeros((len(chunk), 1))
    try:
        for j, _, c_sq, _, *g in blocks:
            kept.append([rises(np.concatenate([before, series], axis=1))
                         for before, series in zip(last, g)])
            last = [series[:, -1:] for series in g]
            nu_p, nu_m, _, _ = divisibility_columns(c_sq, chunk[0].env)
            first = max(0, 2 - j[0])
            n_cptp = violation_sum(nu_p[:, first:], nu_m[:, first:], n_cptp)
    except ValueError as exc:
        cell = chunk[exc.cell]
        raise ValueError(f"cell r1 = {cell.r1:.12g}, r2 = {cell.r2:.12g}: {exc}") from None
    n_gs = [[revival(parts) for parts in zip(*by_block)] for by_block in zip(*kept)]
    return np.column_stack([[c.r1 for c in chunk], [c.r2 for c in chunk], *n_gs, n_cptp[:, 0]])
