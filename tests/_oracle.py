"""Brute-force reference implementations, kept independent of the package.

Everything here works directly on raw pre/post matrices with explicit token
arithmetic: marks of 1 are placed on each hypothesis place, every true
transition whose pre-place is marked fires through the incidence update, and
the image is the set of places left with a nonzero mark. Expected values in
the test suite were computed with these functions and then frozen. The
closed-form cycle stepper reads the raw matrices too, to cross-check ``step``
on cycle nets by index arithmetic. The canonical order of place sets is stated
here a second time, as frozensets from ``itertools.combinations`` sorted by
(size, sorted members), so the package's int-mask order is checked against an
order it does not compute; the brute inversion of a table lists its cells in
that order. The byte-table step is the package's step before its flat image
tables, kept to diff the new step against bit for bit. So is the step's
mass-transfer loop as it was before the one run loop: it range-checks and
sums the masses of every step, merged or not. It puts the masses in order by
this module's own key over frozensets, so the package's sort key is checked
against it, not by construction.

The per-cell output stage at the end is the exception: it is the package's
first CSV writer, equation emitter and renderer, and its first, tabular
Quine-McCluskey, kept verbatim so that the mask-based and bitset versions can
be diffed against them byte for byte. So is the frozenset mass-record
serializer, against which the mask-keyed one is diffed, and the mask-keyed
record writer as it was before its tables of every label and rank, which made
each label from the mask's members and joined it to its mass in an f-string.
All walk place sets in this module's own canonical order, and the CSV writer
reads the table's ``rows`` by admissible index, not through
``TransferTable.cells``. The receptivity line parser with its regex split and
per-token loop, and the bit coercion with its generator and per-bit ``any``,
are kept verbatim as well, to diff the one-split parser and the C-level
coercion against.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from itertools import combinations

from evinet import MassEquation, MassVector
from evinet.engine import NORMALIZATION_TOL, _members
from evinet.errors import DimensionError, MassError, ParseError
from evinet.net import coerce_receptivity


def set_key(places):
    """Canonical order of place sets: by size, then by sorted members."""
    return (len(places), tuple(sorted(places)))


def canonical_sets(n):
    """All nonempty subsets of ``range(n)``, in canonical order."""
    sets = [frozenset(c) for size in range(1, n + 1) for c in combinations(range(n), size)]
    return sorted(sets, key=set_key)


def dims(pre):
    return len(pre), len(pre[0]) if pre else 0


def admissible(pre, r):
    """No place may have two true output transitions."""
    n, m = dims(pre)
    for i in range(n):
        true_outputs = [t for t in range(m) if pre[i][t] and r[t]]
        if len(true_outputs) >= 2:
            return False
    return True


def transform_brute(pre, post, x, r):
    """Image of the place set x: incidence update applied to unit marks on x."""
    n, m = dims(pre)
    marks = [1 if i in x else 0 for i in range(n)]
    fired = [
        1 if r[t] and any(pre[i][t] and marks[i] for i in range(n)) else 0
        for t in range(m)
    ]
    after = [
        marks[i]
        - sum(pre[i][t] * fired[t] for t in range(m))
        + sum(post[i][t] * fired[t] for t in range(m))
        for i in range(n)
    ]
    return frozenset(i for i in range(n) if after[i] != 0)


def invert_brute(pre, post):
    """Each image set's (source set, admissible receptivity) cells under the
    brute-force transform: sources in canonical order, receptivities in binary
    order."""
    n, m = dims(pre)
    combos = [tuple((v >> (m - 1 - j)) & 1 for j in range(m)) for v in range(1 << m)]
    allowed = [r for r in combos if admissible(pre, r)]
    sources = defaultdict(list)
    for x in canonical_sets(n):
        for r in allowed:
            sources[transform_brute(pre, post, x, r)].append((x, r))
    return {y: tuple(cells) for y, cells in sources.items()}


def step_brute(pre, post, mass, r):
    """Transfer each focal set's mass to its brute-force image."""
    out = {}
    for x, value in mass.items():
        y = transform_brute(pre, post, frozenset(x), r)
        out[y] = out.get(y, 0.0) + value
    return out


def byte_table_image(pre, post, r):
    """The image of a place mask, one 256-entry table lookup per byte of it.

    The package's image before flat tables: each table holds the union of the
    successors of every subset of its 8 places, and the image is the union
    over the bytes. Successors are read off the raw matrices; ``r`` must be
    admissible.
    """
    n, m = dims(pre)
    successors = list(range(n))
    for t in range(m):
        if r[t]:
            (src,) = [i for i in range(n) if pre[i][t]]
            (successors[src],) = [i for i in range(n) if post[i][t]]
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for place in successors[base : base + 8]:
            unit = 1 << place
            table += [y | unit for y in table]
        tables.append(table)

    def image(x):
        y = 0
        for table in tables:
            y |= table[x & 0xFF]
            x >>= 8
        return y

    return image


def step_byte_tables(net, mass, r):
    """The package's step before flat tables: every focal set's mass added into
    its byte-table image, sources in canonical order, then put in order."""
    image = byte_table_image(net.pre, net.post, coerce_receptivity(net, r))
    out = {}
    for x, value in mass._masses.items():
        y = image(x)
        out[y] = out.get(y, 0.0) + value
    return MassVector._of_masks(out, net.place_count)


def settle_every_step(masses):
    """The package's ``_settle`` before the one run loop: the sum check on every
    step, then canonical order, here by ``set_key`` over each mask's set."""
    total = math.fsum(masses.values())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise MassError(
            f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
        )
    if len(masses) < 2:
        return masses
    order = sorted(masses, key=lambda mask: set_key(_set_of(mask)))
    return dict(zip(order, map(masses.__getitem__, order)))


def advance_every_step(mass, image, n):
    """The package's ``_advance`` before the one run loop: a range check on every
    step, a merge only where two images collide, and the merged masses bounded."""
    masses = mass._masses
    if max(masses) >> n:
        x = next(x for x in masses if x >> n)
        raise ValueError(f"place set {_members(x)} out of range for {n} places")
    images = list(map(image, masses))
    out = dict(zip(images, masses.values()))
    if len(out) < len(images):
        out = {}
        get = out.get
        for y, value in zip(images, masses.values()):
            out[y] = get(y, 0.0) + value
        if max(out.values()) > 1.0:
            y, value = next((y, v) for y, v in out.items() if v > 1.0)
            raise MassError(f"mass {value!r} for {set(_members(y))} outside [0, 1]")
    after = MassVector.__new__(MassVector)
    after._masses = settle_every_step(out)
    return after


def classic_step_brute(pre, post, marks, r):
    """Single-token incidence update restricted to enabled firings."""
    n, m = dims(pre)
    fired = [
        1 if r[t] and any(pre[i][t] and marks[i] for i in range(n)) else 0
        for t in range(m)
    ]
    return [
        marks[i]
        - sum(pre[i][t] * fired[t] for t in range(m))
        + sum(post[i][t] * fired[t] for t in range(m))
        for i in range(n)
    ]


def _cycle_order(net):
    """(successor place, output transition) per place, or raise if not a single cycle.

    Derived by scanning the raw matrices so this stays an independent route
    from the structure cache used by ``evinet.transform``.
    """
    n, m = net.place_count, net.transition_count
    if m != n:
        raise ValueError(f"not a single cycle: {n} places but {m} transitions")
    succ = [-1] * n
    out_t = [-1] * n
    for j in range(m):
        sources = [i for i in range(n) if net.pre[i][j] == 1]
        targets = [i for i in range(n) if net.post[i][j] == 1]
        if len(sources) != 1 or len(targets) != 1:
            raise ValueError(f"not a single cycle: transition {j} is not place-to-place")
        (src,), (dst,) = sources, targets
        if succ[src] != -1:
            raise ValueError(f"not a single cycle: place {src} has two output transitions")
        succ[src] = dst
        out_t[src] = j
    if -1 in succ:
        raise ValueError("not a single cycle: some place has no output transition")
    seen, i = 0, 0
    for _ in range(n):
        i = succ[i]
        seen += 1
        if i == 0:
            break
    if not (i == 0 and seen == n):
        raise ValueError("not a single cycle: places split into several loops")
    return tuple(succ), tuple(out_t)


def sequential_step_check(net, mass, r):
    """Closed-form stepping for cycle nets, used to cross-check ``evinet.step``.

    On a cycle each place has one way out, so the per-place update collapses
    to index arithmetic: a singleton rests or advances with its output bit,
    an adjacent pair splits into the four combinations of its two bits, and
    the full set keeps each resting place and adds each mover's successor.
    Focal elements of any other shape are outside this shortcut and rejected.
    """
    succ, out_t = _cycle_order(net)
    bits = coerce_receptivity(net, r)
    n = net.place_count

    out = {}

    def put(places, value):
        key = frozenset(places)
        out[key] = out.get(key, 0.0) + value

    full = frozenset(range(n))
    for x in mass.focal_sets():
        value = mass[x]
        if len(x) == 1:
            (i,) = x
            put({succ[i] if bits[out_t[i]] else i}, value)
        elif x == full:
            put({succ[i] if bits[out_t[i]] else i for i in range(n)}, value)
        elif len(x) == 2:
            a, b = sorted(x)
            if succ[a] == b:
                prev, cur = a, b
            elif succ[b] == a:
                prev, cur = b, a
            else:
                raise ValueError(f"focal pair {sorted(x)} is not adjacent on the cycle")
            moved_prev, moved_cur = bits[out_t[prev]], bits[out_t[cur]]
            if moved_prev and moved_cur:
                put({cur, succ[cur]}, value)
            elif moved_prev:
                put({cur}, value)
            elif moved_cur:
                put({prev, succ[cur]}, value)
            else:
                put({prev, cur}, value)
        else:
            raise ValueError(
                f"focal element {sorted(x)} is neither a singleton, an adjacent pair,"
                " nor the full set"
            )
    return MassVector(out)


# --- tabular Quine-McCluskey -------------------------------------------------
# Cubes as (value, dash-mask), compared pairwise between neighbouring groups of
# one popcount apart; the package's bitset search must return the same primes
# and the same cover.


def cube_sort_key(cube):
    """Cubes by fixed-slot count, then slot by slot with 0 < 1 < eliminated."""
    fixed = sum(1 for b in cube if b is not None)
    return (fixed, tuple(2 if b is None else b for b in cube))


def _to_cube(value, dashes, width):
    return tuple(
        None if (dashes >> j) & 1 else (value >> j) & 1 for j in range(width)
    )


def prime_implicants_tabular(on, width):
    # cubes as (value, dash-mask); merge pairs differing in exactly one fixed bit
    level = {(v, 0) for v in on}
    primes = set()
    while level:
        groups = defaultdict(list)
        for value, dashes in level:
            groups[(bin(value).count("1"), dashes)].append((value, dashes))
        merged = set()
        next_level = set()
        for (ones, dashes), cubes in groups.items():
            partners = groups.get((ones + 1, dashes), [])
            for value, _ in cubes:
                for other, _ in partners:
                    diff = value ^ other
                    if diff & (diff - 1) == 0:  # single-bit difference
                        next_level.add((value & ~diff, dashes | diff))
                        merged.add((value, dashes))
                        merged.add((other, dashes))
        primes |= level - merged
        level = next_level
    return sorted(primes)


def minimize_minterms_tabular(minterms, width):
    on = sorted(set(minterms))
    if not on:
        return ()
    if any(m < 0 or m >> width for m in on):
        raise ValueError(f"minterm out of range for {width} variables")
    primes = prime_implicants_tabular(on, width)
    covers = {
        prime: frozenset(m for m in on if m & ~prime[1] == prime[0]) for prime in primes
    }

    chosen = []
    uncovered = set(on)
    for m in on:
        holders = [p for p in primes if m in covers[p]]
        if len(holders) == 1 and holders[0] not in chosen:
            chosen.append(holders[0])
            uncovered -= covers[holders[0]]
    while uncovered:
        best = max(
            (p for p in primes if p not in chosen),
            key=lambda p: (len(covers[p] & uncovered), -p[0], p[1]),
        )
        chosen.append(best)
        uncovered -= covers[best]

    cubes = [_to_cube(value, dashes, width) for value, dashes in chosen]
    return tuple(sorted(cubes, key=cube_sort_key))


# --- per-cell output stage ---------------------------------------------------
# One Python object per cell, and one rescan of all terms per source.


def write_table_csv_per_cell(table, handle):
    names = table.net.places

    def bracket(s):
        return "{" + ",".join(names[i] for i in sorted(s)) + "}"

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["subset", "receptivity_bits", "result_subset"])
    count = 0
    for x in canonical_sets(table.net.place_count):
        xmask = sum(1 << i for i in x)
        for k, bits in enumerate(table.admissible):
            y = _set_of(int(table.rows[xmask, k]))
            writer.writerow([bracket(x), "".join(map(str, bits)), bracket(y)])
            count += 1
    return count


def _set_of(mask):
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _bits_to_mask(bits):
    return sum(bit << j for j, bit in enumerate(bits))


def _to_full_cube(minterm, width):
    return tuple((minterm >> j) & 1 for j in range(width))


def emit_equations_per_cell(table, minimize=False):
    m = table.net.transition_count
    groups = {}
    for k, bits in enumerate(table.admissible):
        rmask = _bits_to_mask(bits)
        for xmask in range(1, table.rows.shape[0]):
            groups.setdefault((int(table.rows[xmask, k]), xmask), []).append(rmask)

    by_target = {}
    for (ymask, xmask), minterms in groups.items():
        by_target.setdefault(_set_of(ymask), {})[_set_of(xmask)] = minterms

    equations = []
    for target in sorted(by_target, key=set_key):
        terms = []
        for source in sorted(by_target[target], key=set_key):
            minterms = by_target[target][source]
            if minimize:
                cubes = minimize_minterms_tabular(minterms, m)
            else:
                cubes = tuple(_to_full_cube(minterm, m) for minterm in sorted(minterms))
            terms.extend((cube, source) for cube in cubes)
        equations.append(
            MassEquation(target=target, transition_count=m, terms=tuple(terms))
        )
    return tuple(equations)


def _set_label(places):
    return "{" + ",".join(str(i + 1) for i in sorted(places)) + "}"


def _cube_label(cube):
    literals = [
        f"r{j + 1}" if bit else f"!r{j + 1}"
        for j, bit in enumerate(cube)
        if bit is not None
    ]
    return "*".join(literals) if literals else "1"


def render_equation_per_cell(eq):
    parts = []
    for source in sorted({src for _, src in eq.terms}, key=set_key):
        cubes = sorted(
            (cube for cube, src in eq.terms if src == source), key=cube_sort_key
        )
        coeff = " + ".join(_cube_label(cube) for cube in cubes)
        if len(cubes) > 1:
            coeff = f"({coeff})"
        parts.append(f"{coeff}*M{_set_label(source)}")
    rhs = " + ".join(parts) if parts else "0"
    return f"M{_set_label(eq.target)}(k+1) = {rhs}"


# --- frozenset mass records --------------------------------------------------
# Labels rebuilt from each sorted frozenset, and every canonical frozenset
# built for a dense record.

DENSE_PLACE_LIMIT = 10


def _place_names(places):
    if isinstance(places, int):
        return tuple(f"P{i + 1}" for i in range(places))
    return tuple(places)


def format_place_set(places, names):
    labels = _place_names(names)
    return "{" + ",".join(labels[i] for i in sorted(places)) + "}"


def _format_number(value):
    if value == int(value):
        return str(int(value))
    return repr(value)


def dense_frozensets(mass, n):
    if any(i >= n for x in mass.focal_sets() for i in x):
        raise ValueError(f"mass vector has place indices beyond {n} places")
    return tuple(mass.mass(x) for x in canonical_sets(n))


def serialize_mass_frozensets(mass, places, form="sparse"):
    names = _place_names(places)
    n = len(names)
    if form == "sparse":
        return " ".join(
            f"{format_place_set(x, names)}:{_format_number(mass[x])}"
            for x in mass.focal_sets()
        )
    if form == "dense":
        if n > DENSE_PLACE_LIMIT:
            raise ValueError(
                f"dense records are limited to {DENSE_PLACE_LIMIT} places, got {n}"
            )
        return "[" + ",".join(_format_number(v) for v in dense_frozensets(mass, n)) + "]"
    raise ValueError(f"unknown mass record form {form!r}")


def format_place_set_per_mask(mask, names):
    """The set literal of ``mask``, made from its members."""
    labels = _place_names(names)
    return "{" + ",".join([labels[i] for i in sorted(_set_of(mask))]) + "}"


def serialize_mass_per_mask(mass, places, form="sparse"):
    """The package's record writer before its tables of every label and rank:
    each focal mask labelled from its members and joined to its mass text by an
    f-string, the focal sets put in this module's canonical order first."""
    names = _place_names(places)
    n = len(names)
    if form == "sparse":
        items = sorted(mass._masses.items(), key=lambda item: set_key(_set_of(item[0])))
        return " ".join(
            [f"{format_place_set_per_mask(x, names)}:{_format_number(v)}" for x, v in items]
        )
    if form == "dense":
        if n > DENSE_PLACE_LIMIT:
            raise ValueError(
                f"dense records are limited to {DENSE_PLACE_LIMIT} places, got {n}"
            )
        masks = [sum(1 << i for i in x) for x in canonical_sets(n)]
        return "[" + ",".join([_format_number(mass._masses.get(x, 0.0)) for x in masks]) + "]"
    raise ValueError(f"unknown mass record form {form!r}")


# --- receptivity text and bits ------------------------------------------------
# Tokens split by the regex rule, one loop per token, and bits coerced by a
# generator and a per-bit ``any``.


def parse_receptivity_line_regex(line, transition_count, line_no=1):
    cut = line.find("#")
    body = (line if cut < 0 else line[:cut]).strip()
    if not body:
        return None
    tokens = [t for t in re.split(r"[,\s]+", body) if t]
    if len(tokens) != transition_count:
        raise ParseError(
            f"expected {transition_count} receptivity bits, got {len(tokens)}", line_no
        )
    bits = []
    for token in tokens:
        if token not in ("0", "1"):
            raise ParseError(f"non-binary token {token!r}", line_no)
        bits.append(int(token))
    return tuple(bits)


def coerce_bits_generator(r, width, spans):
    raw = tuple(r)
    try:
        bits = tuple(int(b) for b in raw)
    except (TypeError, ValueError, OverflowError):
        bits = None
    if len(raw) != width:
        raise DimensionError(f"receptivity has {len(raw)} bits, {spans.format(width)}")
    if bits is None or any(b not in (0, 1) for b in bits) or (
        bits != raw and any(type(b) is not str and b != c for b, c in zip(raw, bits))
    ):
        raise ValueError(f"receptivity bits must be 0 or 1, got {raw}")
    return bits
