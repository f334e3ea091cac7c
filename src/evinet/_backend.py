"""The transfer-table kernel, vectorized with numpy across receptivity rows.

The module keeps its name and its ``fill_rows`` attribute because the benchmark
(``evibench/run.py``) imports ``evinet._backend`` and traces ``fill_rows``.

Subsets and receptivity combinations are bitmasks: place i is bit i of a
subset mask, transition t is bit t of a receptivity mask. One row holds the
image of every subset under one receptivity combination, built by doubling:
images of subsets containing place i extend images of subsets without it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def fill_rows(
    n: int,
    pre_place: Sequence[int],
    post_place: Sequence[int],
    rmasks: Sequence[int],
) -> np.ndarray:
    """rows[k][x] = image mask of subset mask x under receptivity mask rmasks[k].

    Callers must pass conflict-admissible masks only; with at most one true
    output transition per place, each place has a unique successor bit.
    """
    rs = np.asarray(rmasks, dtype=np.uint64)
    # succ[k, i] is the successor bit of place i under rmasks[k]; a later
    # transition out of the same place overwrites an earlier one
    succ = np.empty((len(rs), n), dtype=np.uint32)
    succ[:] = np.left_shift(np.uint32(1), np.arange(n, dtype=np.uint32))
    for t, (p, q) in enumerate(zip(pre_place, post_place)):
        fired = (rs >> np.uint64(t)) & np.uint64(1) == 1
        succ[fired, p] = 1 << q
    rows = np.empty((len(rs), 1 << n), dtype=np.uint32)
    rows[:, 0] = 0
    span = 1
    for i in range(n):
        np.bitwise_or(rows[:, :span], succ[:, i : i + 1], out=rows[:, span : 2 * span])
        span <<= 1
    return rows
