"""The tests' one seam into the chain walk that every command reads."""

import pytest

import gausscollide.witnesses as witnesses


@pytest.fixture
def corrupt_blocks(monkeypatch):
    """corrupt_blocks(edit=None) routes every block the command line walks
    (`witnesses._column_blocks`: c22 and W as (cells, steps) arrays) through
    edit(start, c22, w), start being the block's first step; edit may change
    the arrays in place, or raise.  It returns the walks as a list, each a
    (configs, steps, block starts) triple, appended to as the walk goes."""
    def install(edit=None):
        column_blocks, walks = witnesses._column_blocks, []

        def corrupted(configs, L, steps):
            starts, start = [], 0
            walks.append((configs, steps, starts))
            for c22, w in column_blocks(configs, L, steps):
                starts.append(start)
                if edit is not None:
                    edit(start, c22, w)
                yield c22, w
                start += c22.shape[1]

        monkeypatch.setattr(witnesses, "_column_blocks", corrupted)
        return walks

    return install
