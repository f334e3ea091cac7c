"""Reference semantics for checking benchmark outputs, independent of evinet.

Nothing here imports evinet. Nets are read from their text into raw 0/1
``pre``/``post`` matrices (rows are places, columns transitions), and a set of
places is stepped by incidence-matrix arithmetic: one token on each member,
every true transition whose pre-place is marked fires, ``marks - pre.f +
post.f`` is evaluated, and the image is the set of places left marked. The
readers parse what the CLI prints: ``run`` records and the ``evinet equations
v1`` text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

PlaceSet = frozenset


@dataclass(frozen=True)
class RefNet:
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: tuple[tuple[int, ...], ...]
    post: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.places)

    @property
    def m(self) -> int:
        return len(self.transitions)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per transition, the rows holding a 1 in its pre and post columns."""
        return tuple(
            (
                tuple(i for i in range(self.n) if self.pre[i][t]),
                tuple(i for i in range(self.n) if self.post[i][t]),
            )
            for t in range(self.m)
        )


def read_net(text: str) -> RefNet:
    """Read the places, transitions and arcs of a net document."""
    places: list[str] = []
    transitions: list[str] = []
    arcs: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, body = line.partition(":")
        if key == "places":
            places = [p for p in re.split(r"[,\s]+", body) if p]
        elif key == "transitions":
            transitions = [t for t in re.split(r"[,\s]+", body) if t]
        elif key == "arc":
            src, dst = (s.strip() for s in body.split("->"))
            arcs.append((src, dst))
    pre = [[0] * len(transitions) for _ in places]
    post = [[0] * len(transitions) for _ in places]
    for src, dst in arcs:
        if src in places:
            pre[places.index(src)][transitions.index(dst)] = 1
        else:
            post[places.index(dst)][transitions.index(src)] = 1
    return RefNet(tuple(places), tuple(transitions),
                  tuple(map(tuple, pre)), tuple(map(tuple, post)))


def admissible(net: RefNet, r) -> bool:
    """No place may have two true output transitions."""
    return all(sum(net.pre[i][t] * r[t] for t in range(net.m)) <= 1 for i in range(net.n))


def transform(net: RefNet, x, r) -> PlaceSet:
    """Image of place set ``x`` under receptivity ``r`` by the incidence update.

    ``after = marks - pre.f + post.f``, with ``f[t] = 1`` for each true
    transition that has a marked pre-place; the matrices are walked by column.
    """
    marks = [1 if i in x else 0 for i in range(net.n)]
    after = list(marks)
    for t, (pre_rows, post_rows) in enumerate(net.columns):
        if r[t] and any(marks[i] for i in pre_rows):
            for i in pre_rows:
                after[i] -= 1
            for i in post_rows:
                after[i] += 1
    return frozenset(i for i in range(net.n) if after[i] != 0)


def unit_images(net: RefNet, r) -> tuple[int, ...]:
    """Image mask of each single place under an admissible ``r``.

    The incidence update is linear in the marks and an admissible ``r`` fires
    at most one transition per marked place, so the image of a set is the
    union of its members' images; this turns a table check into mask ORs.
    """
    return tuple(sum(1 << i for i in transform(net, {p}, r)) for p in range(net.n))


def image_mask(units: tuple[int, ...], xmask: int) -> int:
    out = 0
    for p, unit in enumerate(units):
        if xmask >> p & 1:
            out |= unit
    return out


def step(net: RefNet, belief: dict, r) -> dict:
    """Transfer the mass of each focal set to its image."""
    out: dict = {}
    for x, value in belief.items():
        y = transform(net, x, r)
        out[y] = out.get(y, 0.0) + value
    return out


def ignorance(net: RefNet) -> dict:
    return {frozenset(range(net.n)): 1.0}


def cell_count(net: RefNet) -> int:
    """(2**n - 1) times the product over places of (output transitions + 1)."""
    combos = 1
    for i in range(net.n):
        combos *= sum(net.pre[i]) + 1
    return ((1 << net.n) - 1) * combos


# --- run records ---------------------------------------------------------

_SET = re.compile(r"\{([^{}]*)\}")


def parse_place_set(label: str, places) -> PlaceSet:
    """``{P1,P3}`` against the declared place names."""
    body = _SET.fullmatch(label).group(1)
    return frozenset(places.index(p) for p in body.split(",") if p)


def parse_sparse(body: str, places) -> dict:
    belief: dict = {}
    for token in body.split():
        label, _, value = token.rpartition(":")
        key = parse_place_set(label, places)
        if key in belief:
            raise ValueError(f"focal set {label} listed twice")
        belief[key] = float(value)
    return belief


_RECORD = re.compile(r"step=(\d+) r=(\S+) mass=(.*?)(?: dense=\[([^\]]*)\])?")


def parse_record(line: str, places):
    """(step, receptivity bits or None, belief, dense vector or None) of one record."""
    match = _RECORD.fullmatch(line)
    if not match:
        raise ValueError(f"not a run record: {line[:80]!r}")
    step_no, bits, body, dense = match.groups()
    r = None if bits == "-" else tuple(int(c) for c in bits)
    vector = None if dense is None else [float(v) for v in dense.split(",")]
    return int(step_no), r, parse_sparse(body, places), vector


def canonical_sets(n: int):
    """Nonempty subsets of range(n) by ascending size, then member indices."""
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            yield frozenset(combo)


def beliefs_close(a: dict, b: dict, tol: float) -> bool:
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in set(a) | set(b))


# --- equations v1 ----------------------------------------------------------

EQUATIONS_HEADER = "# evinet equations v1"
_EQUATION = re.compile(r"M\{([0-9,]+)\}\(k\+1\) = (.*)")
_TERM = re.compile(r"(?:\(([^()]*)\)|([!r0-9*]+?))\*M\{([0-9,]+)\}")


def _index_set(body: str) -> PlaceSet:
    return frozenset(int(v) - 1 for v in body.split(","))


def parse_cube(text: str) -> tuple[int, int]:
    """(value, care) masks of a product such as ``!r1*r3``; ``1`` is the empty product."""
    value = care = 0
    if text == "1":
        return 0, 0
    for literal in text.split("*"):
        negated = literal.startswith("!")
        j = int(literal.lstrip("!")[1:]) - 1
        if care >> j & 1:
            raise ValueError(f"variable r{j + 1} repeated in {text!r}")
        care |= 1 << j
        if not negated:
            value |= 1 << j
    return value, care


def parse_equations(text: str) -> list[tuple[PlaceSet, list[tuple[PlaceSet, list]]]]:
    """Each equation as (target, [(source, [(value, care) cube, ...]), ...])."""
    lines = text.splitlines()
    if not lines or lines[0] != EQUATIONS_HEADER:
        raise ValueError("missing the equations v1 header")
    out = []
    for line in lines[1:]:
        match = _EQUATION.fullmatch(line)
        if not match:
            raise ValueError(f"not an equation: {line[:80]!r}")
        target, rhs = _index_set(match.group(1)), match.group(2)
        terms = []
        pieces = []
        for term in _TERM.finditer(rhs):
            pieces.append(term.group(0))
            cubes = term.group(1).split(" + ") if term.group(1) else [term.group(2)]
            terms.append((_index_set(term.group(3)), [parse_cube(c) for c in cubes]))
        if " + ".join(pieces) != rhs and not (rhs == "0" and not pieces):
            raise ValueError(f"unparsed terms in: {line[:80]!r}")
        out.append((target, terms))
    return out


def cube_minterms(value: int, care: int, width: int):
    """Every assignment of ``width`` variables that satisfies the cube."""
    free = [j for j in range(width) if not care >> j & 1]
    for k in range(1 << len(free)):
        mt = value
        for b, j in enumerate(free):
            if k >> b & 1:
                mt |= 1 << j
        yield mt


def check_equations(net: RefNet, text: str) -> str | None:
    """None when the equations match the reference, else the first discrepancy.

    For every source set and every one of the 2**m combinations, the source
    must have a matching cube in exactly one equation, the one for its
    reference image, when the combination is admissible, and in none when it
    is rejected. Receptivity ``r_j`` is bit j-1 of a combination.
    """
    n, m = net.n, net.m
    hits: dict[int, list] = {}
    for target, terms in parse_equations(text):
        tmask = sum(1 << i for i in target)
        for source, cubes in terms:
            smask = sum(1 << i for i in source)
            row = hits.setdefault(smask, [None] * (1 << m))
            for value, care in cubes:
                for mt in cube_minterms(value, care, m):
                    if row[mt] is None:
                        row[mt] = tmask
                    elif row[mt] != tmask:
                        return f"source {smask:#x} under {mt:#x} appears in two equations"
    for rmask in range(1 << m):
        r = tuple(rmask >> j & 1 for j in range(m))
        units = unit_images(net, r) if admissible(net, r) else None
        for smask in range(1, 1 << n):
            row = hits.get(smask)
            got = None if row is None else row[rmask]
            want = None if units is None else image_mask(units, smask)
            if got != want:
                return f"source {smask:#x} under {rmask:#x}: got {got}, reference {want}"
    return None
