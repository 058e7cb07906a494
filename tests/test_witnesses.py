"""scan's reducer against the library's measures, wherever its blocks split."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscollide.divisibility import SKIP_TOL, nm_cptp
from gausscollide.engine import SimulationConfig, Trajectory
from gausscollide.states import EnvironmentSpec
from gausscollide.steering import nm_from_steering
from gausscollide.witnesses import scan_measures

ENVS = [EnvironmentSpec(), EnvironmentSpec(n=0.4), EnvironmentSpec(zeta=0.3),
        EnvironmentSpec(n=0.4, zeta=0.3, phi_env=1.1)]
# |c22|^2 with exact zeros and values below SKIP_TOL, whose next step is skipped.
C_SQ = st.sampled_from([0.0, 5e-324, SKIP_TOL / 2, SKIP_TOL, 1.0]) | st.floats(0.0, 1.0)
G = st.just(0.0) | st.floats(0.0, 3.0)


def walk(c_sq, g, bounds):
    """The blocks `witness_blocks` would yield for (cells, L + 1) columns of
    |c22|^2 and of G in two directions, a block starting at each step in
    bounds: |c22|^2 with the step before first (1 before step 0)."""
    edges = [0, *sorted(bounds), c_sq.shape[1]]
    for a, b in zip(edges, edges[1:]):
        before = np.ones((len(c_sq), 1)) if a == 0 else c_sq[:, a - 1 : a]
        yield (np.arange(a, b), None, np.concatenate([before, c_sq[:, a:b]], axis=1), None,
               *(series[:, a:b] for series in g))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cells=st.integers(1, 3), L=st.integers(2, 60), env=st.sampled_from(ENVS))
def test_reduction_does_not_depend_on_where_blocks_split(data, cells, L, env):
    def columns(values):
        return np.array([data.draw(st.lists(values, min_size=L + 1, max_size=L + 1))
                         for _ in range(cells)])

    c_sq, g = columns(C_SQ), [columns(G), columns(G)]
    if data.draw(st.booleans(), label="one-step blocks"):
        bounds = set(range(1, L + 1))
    else:
        bounds = data.draw(st.sets(st.integers(1, L)), label="bounds")
    # Step j is skipped where |c22(j - 1)|^2 < SKIP_TOL; split at it or right after it.
    skipped = [j for j in range(1, L + 1) if c_sq[:, j - 1].min() < SKIP_TOL]
    if skipped:
        j = data.draw(st.sampled_from(skipped), label="skipped step")
        bounds |= {min(j + data.draw(st.sampled_from([0, 1]), label="after"), L)}
    chunk = [SimulationConfig(r1=cell / 4, r2=0.5, env=env, L=L) for cell in range(cells)]
    rows = scan_measures(chunk, walk(c_sq, g, bounds))
    for config, row, cell_c_sq, *cell_g in zip(chunk, rows, c_sq, *g):
        zeros = np.zeros(L + 1, complex)
        expected = [config.r1, config.r2, *map(nm_from_steering, cell_g),
                    nm_cptp(Trajectory(config, zeros, cell_c_sq, zeros)).value]
        assert row.tobytes() == np.array(expected).tobytes(), (row, expected)
