"""Two-level sum-of-products minimization of boolean on-sets (Quine-McCluskey).

A cube is a tuple with one slot per variable: 1 for the plain literal, 0 for
the negated literal, None for an eliminated variable. Minterm integers use bit
j for variable j. Minimization is exact over the full assignment space: the
cover equals the on-set everywhere, with no don't-care positions, so callers
can rely on semantic equality with the unminimized form.

The search works on sets of cubes, not on one cube at a time. A set of
minterms is one Python int with bit v set for each minterm v, so the on-set
of ``width`` variables is an int of 2**width bits. Inside the search a cube is
(value, dashes): ``dashes`` masks the eliminated variables and ``value`` holds
the fixed bits, with the dashed ones clear. For each dash mask D,
``implicants[D]`` is one int with bit v set when the cube (v, D) lies inside
the on-set. Merging along variable j is three big-int operations,
``imp & (imp >> 2**j) & low[j]``, where ``low[j]`` holds the minterms with bit
j clear; a cube that no merge covers is prime. Cover selection runs on the same
ints: each prime's cover is an int, and popcounts replace set sizes.

One int spans 2**width bits, so ``width`` is limited to ``WIDTH_LIMIT``
variables (2 MiB per int).
"""

from __future__ import annotations

import operator
from typing import Iterable

Cube = tuple[int | None, ...]

# 2**24 bits, 2 MiB, per on-set int. Tables enumerate only admissible
# combinations, so wider nets build; emit_equations refuses to minimize them.
WIDTH_LIMIT = 24


def cube_sort_key(cube: Cube):
    fixed = sum(1 for b in cube if b is not None)
    return (fixed, tuple(2 if b is None else b for b in cube))


def _to_cube(value: int, dashes: int, width: int) -> Cube:
    return tuple(
        None if (dashes >> j) & 1 else (value >> j) & 1 for j in range(width)
    )


# Merge masks are kept for widths up to this, 16 ints of 8 KiB at width 16;
# wider ones, up to 2 MiB each, are built per call and not kept.
_CACHED_WIDTH = 16
_merge_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _merge_steps(width: int) -> tuple[tuple[int, int], ...]:
    """``(2**j, low[j])`` per variable j; ``low[j]`` has bit v set for each
    v < 2**width whose bit j is clear."""
    if width in _merge_cache:
        return _merge_cache[width]
    size = 1 << width
    steps = []
    for j in range(width):
        # 2**j ones then 2**j zeros, doubled until it spans all 2**width bits
        low, span = (1 << (1 << j)) - 1, 2 << j
        while span < size:
            low |= low << span
            span <<= 1
        steps.append((1 << j, low))
    if width <= _CACHED_WIDTH:
        _merge_cache[width] = tuple(steps)
    return tuple(steps)


def _members(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    text = bin(bits)[:1:-1]
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _prime_implicants(on: int, width: int) -> list[tuple[int, int]]:
    """All prime implicants of the on-set ``on``, as sorted (value, dashes) pairs."""
    steps = _merge_steps(width)
    primes: list[tuple[int, int]] = []
    level = {0: on} if on else {}
    while level:
        merged: dict[int, int] = {}
        for dashes, implicants in level.items():
            if not implicants & (implicants - 1):  # a lone cube merges with nothing
                primes.append((implicants.bit_length() - 1, dashes))
                continue
            covered = 0
            for shift, low in steps:
                if dashes & shift:
                    continue
                pairs = implicants & (implicants >> shift) & low
                if pairs:
                    merged[dashes | shift] = pairs
                    covered |= pairs | (pairs << shift)
            unmerged = implicants & ~covered
            if unmerged:
                primes.extend([(value, dashes) for value in _members(unmerged)])
        level = merged
    return sorted(primes)


def _cover(value: int, dashes: int) -> int:
    """The minterms of the cube (value, dashes) as one int."""
    cover = 1 << value
    for j in _members(dashes):
        cover |= cover << (1 << j)
    return cover


def minimize_minterms(minterms: Iterable[int], width: int) -> tuple[Cube, ...]:
    """A prime-implicant cover of the on-set, exact over all 2**width assignments.

    Essential primes are taken first, the remainder greedily by coverage; the
    cover is correct by construction though not guaranteed minimal. Minterms
    may be any integers, numpy ones included; ``width`` is at most
    ``WIDTH_LIMIT``.
    """
    if not 0 <= width <= WIDTH_LIMIT:
        raise ValueError(
            f"cannot minimize over {width} variables; the limit is {WIDTH_LIMIT}"
        )
    on = 0
    for m in minterms:
        m = operator.index(m)
        if m < 0 or m >> width:
            raise ValueError(f"minterm out of range for {width} variables")
        on |= 1 << m
    if not on:
        return ()
    primes = _prime_implicants(on, width)
    covers = [_cover(value, dashes) for value, dashes in primes]

    # a minterm in exactly one cover makes that prime essential
    once = twice = 0
    for cover in covers:
        twice |= once & cover
        once |= cover
    sole = once & ~twice
    chosen = [k for k, cover in enumerate(covers) if cover & sole]
    uncovered = on
    for k in chosen:
        uncovered &= ~covers[k]
    rest = [k for k in range(len(primes)) if covers[k] & uncovered]
    while uncovered:
        best = max(
            rest,
            key=lambda k: ((covers[k] & uncovered).bit_count(), -primes[k][0], primes[k][1]),
        )
        chosen.append(best)
        rest.remove(best)
        uncovered &= ~covers[best]

    cubes = [_to_cube(*primes[k], width) for k in chosen]
    return tuple(sorted(cubes, key=cube_sort_key))
