"""The transfer-table kernel, in the standard library. The benchmark
(``evibench/run.py``) traces ``fill_rows`` here, so both names stay.

Place i is bit i of a subset mask, transition t is bit t of a receptivity mask.
Subset mask x owns a column of 32-bit lanes, lane k its image under the k-th
mask. One token moves on its own, so the image of a union is the union of the
images: read as one int, the column of x is the OR of the columns of x without
its lowest place and of that place alone, and lanes never carry.
"""

from __future__ import annotations

from array import array
from typing import Sequence


def fill_rows(
    n: int, pre_place: Sequence[int], post_place: Sequence[int], rmasks: Sequence[int]
) -> memoryview:
    """A read-only ``(2**n, len(rmasks))`` view; ``rows[x, k]`` is the image
    mask of subset mask x under receptivity mask rmasks[k].

    Callers must pass conflict-admissible masks only; with at most one true
    output transition per place, each place has a unique successor bit.
    """
    count = len(rmasks)
    # lanes[i][k] is the successor bit of place i under rmasks[k]; a later
    # transition out of the same place overwrites an earlier one
    lanes = [array("I", [1 << i]) * count for i in range(n)]
    for t, (p, q) in enumerate(zip(pre_place, post_place)):
        for k, r in enumerate(rmasks):
            if r >> t & 1:
                lanes[p][k] = 1 << q
    rows = array("I", [0]) * (count << n)
    out, width = memoryview(rows).cast("B"), rows.itemsize * count
    # last[b] is the column of the latest mask whose lowest place has bit length b;
    # a mask without its lowest place is such a latest mask, so n columns stay alive
    single = [0, *(int.from_bytes(lane, "little") for lane in lanes)]
    last = [0] * (n + 1)
    for x in range(1, 1 << n):
        low = x & -x
        rest, b = x ^ low, low.bit_length()
        column = last[b] = single[b] | last[(rest & -rest).bit_length()]
        out[x * width : (x + 1) * width] = column.to_bytes(width, "little")
    return out.cast("I", (1 << n, count)).toreadonly()
