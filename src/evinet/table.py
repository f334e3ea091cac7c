"""Precomputed transformation tables and the boolean mass-update equations.

The table maps every (nonempty place set, admissible receptivity combination)
cell to its image set. Inverting it per target yields the sources of each
set's next mass, and grouping the inverse by source gives one boolean
coefficient per (target, source) pair, printable raw (as minterms) or
minimized to a two-level sum of products.

Cell count is (2**n - 1) * 2**m before conflict filtering, so construction is
capped, and the mask array the kernel fills is bounded before it is
allocated. Filling the masks is the cheap part; the cost is in turning cells
into text. The output stage therefore works per mask, not per cell: each set's
label, frozenset and sort rank is built once, cells are grouped with one
``np.lexsort``, and CSV rows are written one subset's block at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _backend
from .errors import ConflictError, DimensionError, TableCapError
from .engine import PlaceSet, MassVector, _as_mass_vector, _coerce_place_set, place_set_key, place_sets
from .minimize import Cube, cube_matches, cube_sort_key, minimize_minterms
from .net import (
    PetriNet,
    Receptivity,
    _require_valid,
    _structure,
    check_receptivity,
    coerce_receptivity,
)

DEFAULT_SIZE_CAP = 16

# The kernel stores subset masks as uint32, one bit per place.
MASK_PLACE_LIMIT = 32

# The kernel allocates one uint32 per (admissible combination, subset mask)
# pair, the empty mask included; 2**28 of them take 1 GiB.
ROWS_CELL_LIMIT = 1 << 28

EQUATION_FORMAT_VERSION = "evinet equations v1"


def _mask_of(places: Iterable[int]) -> int:
    mask = 0
    for i in places:
        mask |= 1 << i
    return mask


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def _set_of(mask: int) -> PlaceSet:
    return frozenset(_members(mask))


def _bits_to_mask(bits: Receptivity) -> int:
    return sum(bit << j for j, bit in enumerate(bits))


@dataclass(frozen=True, eq=False)
class TransferTable:
    """Total map (nonempty place set, admissible receptivity) -> image set.

    ``rows[k][x]`` is the image mask of subset mask ``x`` under the k-th
    admissible combination; combinations rejected by the conflict constraint
    carry no cells and are listed in ``rejected``.
    """

    net: PetriNet
    admissible: tuple[Receptivity, ...]
    rejected: tuple[Receptivity, ...]
    rows: np.ndarray = field(repr=False)

    @property
    def defined_cell_count(self) -> int:
        return len(self.admissible) * ((1 << self.net.place_count) - 1)

    def is_admissible(self, r: Sequence[int]) -> bool:
        return coerce_receptivity(self.net, r) in self._row_index()

    def _row_index(self) -> dict[Receptivity, int]:
        index = getattr(self, "_row_index_cache", None)
        if index is None:
            index = {bits: k for k, bits in enumerate(self.admissible)}
            object.__setattr__(self, "_row_index_cache", index)
        return index

    def lookup(self, x: Iterable[int], r: Sequence[int]) -> PlaceSet:
        """The image set of ``x`` under ``r``; raises for rejected combinations."""
        bits = coerce_receptivity(self.net, r)
        members = _coerce_place_set(x, self.net.place_count)
        row = self._row_index().get(bits)
        if row is None:
            raise ConflictError(check_receptivity(self.net, bits))
        return _set_of(int(self.rows[row, _mask_of(members)]))

    def cells(self) -> Iterator[tuple[PlaceSet, Receptivity, PlaceSet]]:
        """All defined cells, subsets in canonical order, combinations in binary order."""
        for x in place_sets(self.net.place_count):
            xmask = _mask_of(x)
            for k, bits in enumerate(self.admissible):
                yield x, bits, _set_of(int(self.rows[k, xmask]))


def build_transfer_table(
    net: PetriNet,
    *,
    max_places: int = DEFAULT_SIZE_CAP,
    max_transitions: int | None = None,
) -> TransferTable:
    """Evaluate the transformation of every subset under every admissible combination.

    Work and memory grow as (2**n - 1) * 2**m; builds beyond the caps, or
    whose mask array would exceed ``ROWS_CELL_LIMIT`` cells, raise
    :class:`~evinet.errors.TableCapError` carrying the cell count that would
    be required.
    """
    _require_valid(net)
    if max_transitions is None:
        max_transitions = max_places
    n, m = net.place_count, net.transition_count
    if n > max_places or m > max_transitions:
        required = ((1 << n) - 1) * (1 << m)
        raise TableCapError(
            f"net has {n} places and {m} transitions, over the cap of"
            f" {max_places} places and {max_transitions} transitions;"
            f" the full table would need {required} cells",
            required_cells=required,
        )
    if n > MASK_PLACE_LIMIT:
        raise TableCapError(
            f"net has {n} places; tables are limited to {MASK_PLACE_LIMIT} places,"
            f" one bit per place in a 32-bit mask",
            required_cells=((1 << n) - 1) * (1 << m),
        )
    structure = _structure(net)
    admissible: list[Receptivity] = []
    rejected: list[Receptivity] = []
    # ascending order of the bit string r1..rm read as a binary number
    for value in range(1 << m):
        bits = tuple(int(c) for c in format(value, f"0{m}b"))
        (admissible if not check_receptivity(net, bits) else rejected).append(bits)
    allocated = len(admissible) << n
    if allocated > ROWS_CELL_LIMIT:
        raise TableCapError(
            f"net has {n} places and {len(admissible)} admissible combinations;"
            f" the table would allocate {allocated} cells, over the limit of"
            f" {ROWS_CELL_LIMIT}",
            required_cells=allocated,
        )
    rmasks = [_bits_to_mask(bits) for bits in admissible]
    rows = _backend.fill_rows(n, structure.pre_place, structure.post_place, rmasks)
    return TransferTable(
        net=net,
        admissible=tuple(admissible),
        rejected=tuple(rejected),
        rows=rows,
    )


def invert_table(
    table: TransferTable, y: Iterable[int]
) -> tuple[tuple[PlaceSet, Receptivity], ...]:
    """All (source set, combination) cells whose image is ``y``.

    Ordered canonically: source sets by cardinality then indices, and within a
    source by the combination's binary value. Empty when nothing maps to ``y``.
    """
    target = _coerce_place_set(y, table.net.place_count)
    ymask = _mask_of(target)
    row_idx, x_masks = np.nonzero(table.rows == np.uint32(ymask))
    pairs = [
        (_set_of(int(xmask)), table.admissible[int(k)])
        for k, xmask in zip(row_idx, x_masks)
        if xmask  # mask 0 is not a subset cell
    ]
    pairs.sort(key=lambda pair: (place_set_key(pair[0]), pair[1]))
    return tuple(pairs)


def table_step(table: TransferTable, mass, r: Sequence[int]) -> MassVector:
    """Advance a mass distribution by table lookup; equals the direct step."""
    mass = _as_mass_vector(mass)
    bits = coerce_receptivity(table.net, r)
    row = table._row_index().get(bits)
    if row is None:
        raise ConflictError(check_receptivity(table.net, bits))
    n = table.net.place_count
    out: dict[PlaceSet, float] = {}
    for x in mass.focal_sets():
        members = _coerce_place_set(x, n)
        y = _set_of(int(table.rows[row, _mask_of(members)]))
        out[y] = out.get(y, 0.0) + mass[x]
    return MassVector(out)


@dataclass(frozen=True)
class MassEquation:
    """One target set's next mass as a sum of (boolean coefficient, source) terms.

    Terms pair a cube over the receptivity bits with a source set; a source's
    coefficient is the disjunction of its cubes. Raw emission uses full
    minterms, minimized emission a two-level sum of products.
    """

    target: PlaceSet
    transition_count: int
    terms: tuple[tuple[Cube, PlaceSet], ...]

    def sources(self) -> tuple[PlaceSet, ...]:
        return tuple(sorted({src for _, src in self.terms}, key=place_set_key))

    def coefficient(self, source: Iterable[int], r: Sequence[int]) -> bool:
        src = frozenset(source)
        minterm = _bits_to_mask(tuple(int(b) for b in r))
        return any(
            cube_matches(cube, minterm) for cube, s in self.terms if s == src
        )


def emit_equations(table: TransferTable, minimize: bool = False) -> tuple[MassEquation, ...]:
    """One equation per reachable target set, in canonical target order.

    With ``minimize`` each (target, source) coefficient is reduced to an
    equivalent sum of products; equality with the raw form holds on every one
    of the 2**m assignments because rejected combinations stay off in both.
    """
    n, m = table.net.place_count, table.net.transition_count
    rmasks = [_bits_to_mask(bits) for bits in table.admissible]
    # cells as flat (k, x, y) with x = 0 dropped, sorted by target rank, then
    # source rank, then minterm: each (y, x) run is one coefficient's minterms
    rank = _canonical_rank(n)
    width = (1 << n) - 1
    ks = np.repeat(np.arange(len(rmasks), dtype=np.uint32), width)
    xs = np.tile(np.arange(1, 1 << n, dtype=np.uint32), len(rmasks))
    ys = table.rows[:, 1:].ravel()
    order = np.lexsort((np.asarray(rmasks, dtype=np.int64)[ks], rank[xs], rank[ys]))
    ks, xs, ys = ks[order], xs[order], ys[order]
    bounds = np.flatnonzero((ys[1:] != ys[:-1]) | (xs[1:] != xs[:-1])) + 1
    starts = [0, *bounds.tolist()]
    stops = [*starts[1:], len(ks)]
    group_y = ys[starts].tolist()
    group_x = xs[starts].tolist()
    cell_k = ks.tolist()

    sets = _Memo(_set_of)
    full_cubes = [_to_full_cube(rmask, m) for rmask in rmasks]
    equations = []
    groups = zip(group_y, group_x, starts, stops)
    for ymask, target_groups in groupby(groups, key=itemgetter(0)):
        terms: list[tuple[Cube, PlaceSet]] = []
        for _, xmask, start, stop in target_groups:
            source = sets[xmask]
            if minimize:
                minterms = [rmasks[k] for k in cell_k[start:stop]]
                terms.extend([(cube, source) for cube in minimize_minterms(minterms, m)])
            else:
                terms.extend([(full_cubes[k], source) for k in cell_k[start:stop]])
        equations.append(
            MassEquation(target=sets[ymask], transition_count=m, terms=tuple(terms))
        )
    return tuple(equations)


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, computed on first use."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _canonical_masks(n: int) -> list[int]:
    """Nonempty subset masks of n places in canonical order."""
    return [_mask_of(x) for x in place_sets(n)]


def _canonical_rank(n: int) -> np.ndarray:
    """``rank[mask]`` is the mask's position in canonical order; mask 0 ranks 0."""
    rank = np.zeros(1 << n, dtype=np.uint32)
    rank[_canonical_masks(n)] = np.arange(1, 1 << n, dtype=np.uint32)
    return rank


def _to_full_cube(minterm: int, width: int) -> Cube:
    return tuple((minterm >> j) & 1 for j in range(width))


def equations_semantically_equal(a: MassEquation, b: MassEquation) -> bool:
    """True when both equations compute the same coefficients everywhere.

    Compared per source over all 2**m receptivity assignments, so factorized,
    minimized, and raw forms of the same update rule all compare equal.
    Differing targets compare unequal; differing widths are an error.
    """
    if a.transition_count != b.transition_count:
        raise DimensionError(
            f"equations span {a.transition_count} and {b.transition_count} transitions"
        )
    if a.target != b.target:
        return False
    width = a.transition_count
    sources = set(a.sources()) | set(b.sources())
    a_by_src: dict[PlaceSet, list[Cube]] = {}
    b_by_src: dict[PlaceSet, list[Cube]] = {}
    for cube, src in a.terms:
        a_by_src.setdefault(src, []).append(cube)
    for cube, src in b.terms:
        b_by_src.setdefault(src, []).append(cube)
    for minterm in range(1 << width):
        for src in sources:
            hit_a = any(cube_matches(c, minterm) for c in a_by_src.get(src, ()))
            hit_b = any(cube_matches(c, minterm) for c in b_by_src.get(src, ()))
            if hit_a != hit_b:
                return False
    return True


def evaluate_equation(eq: MassEquation, mass, r: Sequence[int]) -> float:
    """The target's next mass under the equation, given the current masses."""
    mass = _as_mass_vector(mass)
    bits = tuple(int(b) for b in r)
    if len(bits) != eq.transition_count:
        raise DimensionError(
            f"receptivity has {len(bits)} bits, equation spans {eq.transition_count}"
        )
    return sum(mass.mass(src) for src in eq.sources() if eq.coefficient(src, bits))


def _set_label(places: PlaceSet) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(places)) + "}"


def _cube_label(cube: Cube) -> str:
    literals = [
        f"r{j + 1}" if bit else f"!r{j + 1}"
        for j, bit in enumerate(cube)
        if bit is not None
    ]
    return "*".join(literals) if literals else "1"


class _Labels:
    """Labels and sort keys of cubes and sets, built once per render call."""

    def __init__(self):
        self.cube = _Memo(_cube_label)
        self.cube_key = _Memo(cube_sort_key)
        self.set = _Memo(_set_label)
        self.set_key = _Memo(place_set_key)

    def render(self, eq: MassEquation) -> str:
        by_source: dict[PlaceSet, list[Cube]] = {}
        for cube, src in eq.terms:
            by_source.setdefault(src, []).append(cube)
        parts = []
        for source in sorted(by_source, key=self.set_key.__getitem__):
            cubes = sorted(by_source[source], key=self.cube_key.__getitem__)
            coeff = " + ".join([self.cube[cube] for cube in cubes])
            if len(cubes) > 1:
                coeff = f"({coeff})"
            parts.append(f"{coeff}*M{self.set[source]}")
        rhs = " + ".join(parts) if parts else "0"
        return f"M{self.set[eq.target]}(k+1) = {rhs}"


def render_equation(eq: MassEquation) -> str:
    """One-line text form, e.g. ``M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}``."""
    return _Labels().render(eq)


def render_equations(equations: Iterable[MassEquation]) -> str:
    """All equations under the versioned format header, one per line."""
    labels = _Labels()
    lines = [f"# {EQUATION_FORMAT_VERSION}"]
    lines.extend(labels.render(eq) for eq in equations)
    return "\n".join(lines) + "\n"


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as one CSV field, quoted by the ``csv`` module as in a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    fields = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text])
        fields.append(buffer.getvalue()[:-1])
    return fields


def write_table_csv(table: TransferTable, handle: IO[str]) -> int:
    """Write the defined cells as CSV and return the row count (header excluded).

    Rows run over subsets in canonical order and, within a subset, over the
    admissible combinations in binary order, as :meth:`TransferTable.cells`.
    """
    names = table.net.places
    size = 1 << table.net.place_count
    labels = _csv_fields(
        "{" + ",".join(names[i] for i in _members(mask)) + "}" for mask in range(size)
    )
    bits_fields = _csv_fields("".join(map(str, bits)) for bits in table.admissible)
    middles = [f",{field}," for field in bits_fields]
    images = [f"{label}\n" for label in labels]
    handle.write("subset,receptivity_bits,result_subset\n")
    for xmask in _canonical_masks(table.net.place_count):
        subset = labels[xmask]
        column = table.rows[:, xmask].tolist()
        handle.write(
            "".join([subset + middle + images[y] for middle, y in zip(middles, column)])
        )
    return len(table.admissible) * (size - 1)
