"""The transfer-table kernel, in the standard library. The benchmark
(``evibench/run.py``) traces ``fill_rows`` here, so both names stay.

The kernel only ORs: the table builder applies the firing rule and hands it
one int per place, whose 32-bit lane k is the bit of the place the token moves
to under the k-th combination. Place i is bit i of a subset mask, and subset
mask x owns a column of 32-bit lanes, lane k its image under the k-th
combination. One token moves on its own, so the image of a union is the union
of the images: read as one int, the column of x is the OR of the columns of x
without its lowest place and of that place alone, and lanes never carry.
"""

from __future__ import annotations

from array import array
from typing import Sequence


def fill_rows(count: int, lanes: Sequence[int]) -> memoryview:
    """A read-only ``(2**n, count)`` view over n = ``len(lanes)`` places;
    ``rows[x, k]`` is the OR of lane k of ``lanes[i]`` over the places i of x.

    ``lanes[i]`` holds ``count`` 32-bit lanes in one int, lane k the successor
    bit of place i under the k-th combination.
    """
    n = len(lanes)
    rows = array("I", [0]) * (count << n)
    out, width = memoryview(rows).cast("B"), rows.itemsize * count
    # last[b] is the column of the latest mask whose lowest place has bit length b;
    # a mask without its lowest place is such a latest mask, so n columns stay alive
    single = [0, *lanes]
    last = [0] * (n + 1)
    for x in range(1, 1 << n):
        low = x & -x
        rest, b = x ^ low, low.bit_length()
        column = last[b] = single[b] | last[(rest & -rest).bit_length()]
        out[x * width : (x + 1) * width] = column.to_bytes(width, "little")
    return out.cast("I", (1 << n, count)).toreadonly()
