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

Before the search the on-set is reduced to its support. Variable j is free
when flipping it maps the on-set onto itself, ``(on >> 2**j) & low[j] ==
on & low[j]``, one test per variable on the merge masks. A free variable is a
dash in every prime, so the search and the cover run on the cofactor where
every free variable is 0: the on-set projected onto its support, with the
variables keeping their bit positions. No merge along a free variable finds a
pair there, and each chosen prime is lifted back by adding the free variables
to its dashes (ESPRESSO's support and cofactor reasoning; Brayton et al.,
*Logic Minimization Algorithms for VLSI Synthesis*, 1984). The cover is the
one the full search returns, byte for byte:

- a function's prime implicants are unique, so the lifted primes of the
  cofactor are all the primes of the on-set;
- lifting adds the same bits, outside every prime's own, to every dash mask,
  so the primes keep their (value, dashes) order;
- every prime covers 2**free times as many minterms after lifting, so the
  greedy key (count, -value, dashes) ranks the primes the same.

Cubes stay (value, dashes) ints until the result is built, and the result is
sorted by fixed-slot count, then slot by slot with 0 < 1 < eliminated.

One int spans 2**width bits, so ``width`` is limited to ``WIDTH_LIMIT``
variables (2 MiB per int). Merge masks over more than ``_CACHED_WIDTH``
variables are built one at a time whenever a pass needs them, so a call holds
a few on-set-sized ints at once, never one per variable.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator

from .engine import _members

Cube = tuple[int | None, ...]

# 2**24 bits, 2 MiB, per on-set int. Tables enumerate only admissible
# combinations, so wider nets build; emit_equations refuses to minimize them.
WIDTH_LIMIT = 24


def _to_cube(value: int, dashes: int, width: int) -> Cube:
    return tuple([None if dashes >> j & 1 else value >> j & 1 for j in range(width)])


def _int_sort_key(cube: Cube) -> int:
    """An int that orders cubes of one width by their fixed count, then by one
    base-4 digit per slot (0, 1, or 2 when eliminated), variable 0 first."""
    fixed = digits = 0
    for b in cube:
        if b is None:
            digits = digits << 2 | 2
        else:
            fixed += 1
            digits = digits << 2 | b
    return fixed << 2 * len(cube) | digits


# Merge masks are kept for widths up to this, 16 ints of 8 KiB at width 16;
# wider ones, up to 2 MiB each, are built one at a time and not kept.
_CACHED_WIDTH = 16
_merge_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _merge_steps(width: int) -> Iterable[tuple[int, int]]:
    """``(2**j, low[j])`` per variable j; ``low[j]`` has bit v set for each
    v < 2**width whose bit j is clear."""
    steps = _merge_cache.get(width)
    if steps is None:
        steps = _build_steps(width)
        if width <= _CACHED_WIDTH:
            steps = _merge_cache[width] = tuple(steps)
    return steps


def _build_steps(width: int) -> Iterator[tuple[int, int]]:
    size = 1 << width
    for j in range(width):
        # 2**j ones then 2**j zeros, doubled until it spans all 2**width bits
        low, span = (1 << (1 << j)) - 1, 2 << j
        while span < size:
            low |= low << span
            span <<= 1
        yield 1 << j, low


def _prime_implicants(on: int, width: int) -> list[tuple[int, int]]:
    """All prime implicants of the on-set ``on``, as sorted (value, dashes) pairs."""
    primes: list[tuple[int, int]] = []
    level = {0: on} if on else {}
    while level:
        merged: dict[int, int] = {}
        for dashes, implicants in level.items():
            if not implicants & (implicants - 1):  # a lone cube merges with nothing
                primes.append((implicants.bit_length() - 1, dashes))
                continue
            covered = 0
            for shift, low in _merge_steps(width):
                if dashes & shift:
                    continue
                pairs = implicants & (implicants >> shift) & low
                if pairs:
                    merged[dashes | shift] = pairs
                    covered |= pairs | (pairs << shift)
            unmerged = implicants ^ covered  # covered lies inside implicants
            if unmerged:
                primes.extend([(value, dashes) for value in _members(unmerged)])
        level = merged
    return sorted(primes)


def _cover(value: int, dashes: int) -> int:
    """The minterms of the cube (value, dashes) as one int."""
    cover = 1 << value
    while dashes:
        shift = dashes & -dashes  # 2**j for the lowest dashed variable j
        cover |= cover << shift
        dashes ^= shift
    return cover


def _select_cover(on: int, primes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Essential primes first, then the rest greedily by coverage of what is left."""
    covers = [_cover(value, dashes) for value, dashes in primes]
    # a minterm in exactly one cover makes that prime essential; ``sole``
    # gathers the minterms covered at least once, then drops the rest
    sole = twice = 0
    for cover in covers:
        twice |= sole & cover
        sole |= cover
    sole ^= twice
    chosen = [k for k, cover in enumerate(covers) if cover & sole]
    uncovered = on
    for k in chosen:
        uncovered ^= uncovered & covers[k]
    rest = [k for k in range(len(primes)) if covers[k] & uncovered]
    while uncovered:
        best = max(
            rest,
            key=lambda k: ((covers[k] & uncovered).bit_count(), -primes[k][0], primes[k][1]),
        )
        chosen.append(best)
        rest.remove(best)
        uncovered ^= uncovered & covers[best]
    return [primes[k] for k in chosen]


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
    minterms = list(map(operator.index, minterms))
    if not minterms:
        return ()
    if min(minterms) < 0 or max(minterms) >> width:
        raise ValueError(f"minterm out of range for {width} variables")
    on = functools.reduce(operator.or_, map((1).__lshift__, minterms))

    # A variable is free when flipping it maps the on-set onto itself. The
    # search runs on the cofactor where every free variable is 0, so it never
    # merges along one, and each chosen prime takes them back as dashes.
    free, cofactor = 0, on
    for shift, low in _merge_steps(width):
        if not ((on >> shift) ^ on) & low:
            free |= shift
            cofactor &= low
    del on  # 2 MiB at WIDTH_LIMIT, which the search can use
    chosen = _select_cover(cofactor, _prime_implicants(cofactor, width))
    cubes = [_to_cube(value, dashes | free, width) for value, dashes in chosen]
    return tuple(sorted(cubes, key=_int_sort_key))
