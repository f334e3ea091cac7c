"""Brute-force reference implementations, kept independent of the package.

Everything here works directly on raw pre/post matrices with explicit token
arithmetic: marks of 1 are placed on each hypothesis place, every true
transition whose pre-place is marked fires through the incidence update, and
the image is the set of places left with a nonzero mark. Expected values in
the test suite were computed with these functions and then frozen. The
closed-form cycle stepper reads the raw matrices too, to cross-check ``step``
on cycle nets by index arithmetic.

The per-cell output stage at the end is the exception: it is the package's
first CSV writer, equation emitter and renderer, kept verbatim so that the
mask-based versions can be diffed against it byte for byte.
"""

from __future__ import annotations

import csv

from evinet import MassEquation, MassVector, place_set_key
from evinet.net import coerce_receptivity
from evinet.minimize import cube_sort_key, minimize_minterms


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


def step_brute(pre, post, mass, r):
    """Transfer each focal set's mass to its brute-force image."""
    out = {}
    for x, value in mass.items():
        y = transform_brute(pre, post, frozenset(x), r)
        out[y] = out.get(y, 0.0) + value
    return out


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


# --- per-cell output stage ---------------------------------------------------
# One Python object per cell, and one rescan of all terms per source.


def write_table_csv_per_cell(table, handle):
    names = table.net.places

    def bracket(s):
        return "{" + ",".join(names[i] for i in sorted(s)) + "}"

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["subset", "receptivity_bits", "result_subset"])
    count = 0
    for x, bits, y in table.cells():
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
        row = table.rows[k]
        for xmask, ymask in enumerate(row.tolist()):
            if xmask:
                groups.setdefault((int(ymask), xmask), []).append(rmask)

    by_target = {}
    for (ymask, xmask), minterms in groups.items():
        by_target.setdefault(_set_of(ymask), {})[_set_of(xmask)] = minterms

    equations = []
    for target in sorted(by_target, key=place_set_key):
        terms = []
        for source in sorted(by_target[target], key=place_set_key):
            minterms = by_target[target][source]
            if minimize:
                cubes = minimize_minterms(minterms, m)
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
    for source in eq.sources():
        cubes = sorted(
            (cube for cube, src in eq.terms if src == source), key=cube_sort_key
        )
        coeff = " + ".join(_cube_label(cube) for cube in cubes)
        if len(cubes) > 1:
            coeff = f"({coeff})"
        parts.append(f"{coeff}*M{_set_label(source)}")
    rhs = " + ".join(parts) if parts else "0"
    return f"M{_set_label(eq.target)}(k+1) = {rhs}"
