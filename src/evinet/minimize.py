"""Two-level sum-of-products minimization of boolean on-sets (Quine-McCluskey).

``minimize_minterms`` returns each cube as a tuple with one slot per
variable: 1 for the plain literal, 0 for the negated literal, None for an
eliminated variable. Inside the package a cube is one int code,
``dashes << width | value``. Minterm integers use bit j for variable j.
Minimization is exact over the full assignment space: the cover equals the
on-set everywhere, with no don't-care positions, so callers can rely on
semantic equality with the unminimized form.

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

A cofactor of one minterm is its own only prime, so its cover is that
minterm with the free variables dashed, and no search runs.

Many on-sets of one table share a cofactor under different free variables,
so a caller may pass one cover memo, a dict from cofactor int to its sorted
cover, to its calls of one width: ``emit_equations`` keeps one per call, and
charges its keys. Lifting ORs the free variables into the dashes of every
code, ``code | free << width``, which keeps the order; with no free variable
the cover is the stored tuple.

A cover is sorted in render order, by fixed-slot count, then slot by slot with
0 < 1 < eliminated: ``_code_key``, which ``minimize_minterms`` sorts by, and
which ``_cube_entries`` sums from its label tables. ``minimize_minterms``
checks its arguments, ORs the minterms into an on-set int and decodes the
cover; ``_minimize_on`` is the rest, for callers holding a nonempty on-set
int of ``width`` variables, and checks nothing.

One int spans 2**width bits, so ``width`` is limited to ``WIDTH_LIMIT``
variables (2 MiB per int). Merge masks over more than ``_CACHED_WIDTH``
variables are built one at a time whenever a pass needs them, so a call holds
a few on-set-sized ints at once, never one per variable.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, Iterator

from .engine import _members

Cube = tuple[int | None, ...]

# 2**24 bits, 2 MiB, per on-set int. Tables enumerate only admissible
# combinations, so wider nets build; emit_equations refuses to minimize them.
WIDTH_LIMIT = 24


# The slots of each cube code of c <= 4 variables, indexed by the code.
_SLOTS = [[tuple([None if code >> c + j & 1 else code >> j & 1 for j in range(c)])
           for code in range(1 << 2 * c)] for c in range(5)]


def _cube_decoder(width: int) -> Callable[[int], Cube]:
    """``decode(code)``, the slots of the cube code ``dashes << width | value``,
    joined from ``_SLOTS`` 4 variables at a time, each chunk indexed by its
    ``dashes << c | value``."""
    chunks = [(width + low - c, (1 << c) - 1 << c, low, (1 << c) - 1, _SLOTS[c])
              for low in range(0, width, 4) for c in [min(4, width - low)]]

    def decode(code: int) -> Cube:
        cube = ()
        for dash_shift, dash_mask, low, ones, slots in chunks:
            cube += slots[code >> dash_shift & dash_mask | code >> low & ones]
        return cube

    return decode


# Each byte with its 8 bits reversed and spread to base-4 digits, bit 0 the top digit.
_SPREAD = [int(f"{b:08b}"[::-1], 4) for b in range(256)]


def _code_key(width: int) -> Callable[[int], int]:
    """The sort key of a cube code of ``width`` variables, as an int: its fixed
    count, then one base-4 digit per slot (0, 1, or 2 when eliminated),
    variable 0 first. The digits are ``value + 2 * dashes`` a byte at a time,
    spread and reversed by ``_SPREAD``, so no table is built per width: a
    small minimization sorts a few cubes, which the tables cost more than."""
    ones, fixed, pad, spread = (1 << width) - 1, 2 * width, -2 * width % 16, _SPREAD
    shifts = tuple(range(0, width, 8))

    def key(code: int) -> int:
        value, dashes, digits = code & ones, code >> width, 0
        for shift in shifts:
            digits = digits << 16 | spread[value >> shift & 255] + 2 * spread[dashes >> shift & 255]
        return (width - dashes.bit_count()) << fixed | digits >> pad

    return key


# minimize_minterms' key at each width it takes, made once
_CODE_KEYS = tuple(map(_code_key, range(WIDTH_LIMIT + 1)))


def _cube_entries(width: int) -> Callable[[int], tuple[int, str, int]]:
    """``entry(code)``, a cube code's sort key, product label and code. The key
    is the int :func:`_code_key` makes; the label joins ``r<j+1>`` or
    ``!r<j+1>`` per fixed slot j with ``*``, or is ``1``. Both are sums of
    parts from one table per 4 variables, built once for the returned function
    and indexed by the chunk's ``dashes << c | value``, so the equations
    renderer makes both of a cube in one pass."""
    chunks, fixed = [], 1 << 2 * width  # a fixed slot counts above every digit
    for low in range(0, width, 4):
        c = min(4, width - low)
        parts = [(0, 0, "")]  # (index, key part, label part) per assignment of a prefix
        for j in range(c):
            digit, name = 1 << 2 * (width - low - j - 1), f"r{low + j + 1}*"
            slots = ((0, fixed, "!" + name), (1 << j, fixed + digit, name),
                     (1 << c + j, 2 * digit, ""))
            parts = [(i | si, k + sk, t + st) for i, k, t in parts for si, sk, st in slots]
        parts = {index: (key, label) for index, key, label in parts}
        chunks.append((width + low - c, (1 << c) - 1 << c, low, (1 << c) - 1, parts))

    def entry(code: int) -> tuple[int, str, int]:
        key, label = 0, ""  # each part of a label ends in "*", dropped at the end
        for dash_shift, dash_mask, low, ones, parts in chunks:
            part_key, part = parts[code >> dash_shift & dash_mask | code >> low & ones]
            key += part_key
            label += part
        return key, label[:-1] or "1", code

    return entry


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
    # passed straight in: a local would hold a second 2 MiB int at WIDTH_LIMIT
    codes = _minimize_on(functools.reduce(operator.or_, map((1).__lshift__, minterms)),
                         width, {}, _CODE_KEYS[width])
    return tuple(map(_cube_decoder(width), codes))


def _minimize_on(on: int, width: int, covers: dict[int, tuple[int, ...]], key) -> tuple[int, ...]:
    """``minimize_minterms`` of the nonempty on-set int ``on``, unchecked, as
    cube codes sorted by ``key``, which must order them as ``_cube_entries``
    (``_code_key`` does).

    ``covers`` maps each cofactor searched so far to its sorted cover, with
    the free variables still 0. A caller passes one dict to all its calls of
    one ``width``, so each distinct cofactor is searched once, and drops it
    when done.
    """
    # A variable is free when flipping it maps the on-set onto itself. The
    # search runs on the cofactor where every free variable is 0, so it never
    # merges along one, and each chosen prime takes them back as dashes.
    free, cofactor = 0, on
    for shift, low in _merge_steps(width):
        if not ((on >> shift) ^ on) & low:
            free |= shift
            cofactor &= low
    del on  # 2 MiB at WIDTH_LIMIT, which the search can use
    if not cofactor & (cofactor - 1):  # one minterm is its cofactor's only prime
        return (free << width | cofactor.bit_length() - 1,)
    codes = covers.get(cofactor)
    if codes is None:
        chosen = _select_cover(cofactor, _prime_implicants(cofactor, width))
        codes = covers[cofactor] = tuple(sorted([d << width | v for v, d in chosen], key=key))
    # every free slot is 0 in every cube, so dashing them keeps the order
    return tuple([code | free << width for code in codes]) if free else codes
