"""Precomputed transformation tables and the boolean mass-update equations.

The table maps every (nonempty place set, admissible receptivity combination)
cell to its image set. Inverting it per target yields the sources of each
set's next mass, and grouping the inverse by source gives one boolean
coefficient per (target, source) pair, printable raw (as minterms) or
minimized to a two-level sum of products.

Only the receptivity combinations the conflict constraint admits are
enumerated: each place fires none or one of its k_p output transitions, so a
table has (2**n - 1) * prod(k_p + 1) cells. Construction is capped, and the
mask array the kernel fills is bounded before it is allocated. Filling the
masks is the cheap part; the cost is in turning cells into text. The output
stage therefore works per mask, not per cell: each set's label and frozenset
are built once, and both the CSV writer and the equation emitter read the
table one subset column at a time, in canonical subset order. The CSV writer
builds no string per cell either: a subset's rows are one join over a list of
three parts per row, which every subset reuses, and one write.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import groupby, product, repeat
from typing import IO, Iterable, Iterator, Sequence

from . import _backend
from .dsl import _all_mask_labels
from .errors import ConflictError, DimensionError, TableCapError
from .engine import (
    MassVector,
    PlaceSet,
    _advance,
    _as_mass_vector,
    _canonical_masks,
    _coerce_place_set,
    _mask,
    _order_key,
    _set_of,
    place_set_key,
)
from .minimize import WIDTH_LIMIT, Cube, _cover, _int_sort_key, _minimize_on, _to_cube
from .net import (
    PetriNet,
    Receptivity,
    DEFAULT_SIZE_CAP,
    _coerce_bits,
    _structure,
    check_receptivity,
    coerce_receptivity,
)

# The kernel stores subset masks in 32-bit lanes, one bit per place.
MASK_PLACE_LIMIT = 32

# The kernel allocates one 32-bit lane per (admissible combination, subset
# mask) pair, the empty mask included; 2**28 of them take 1 GiB.
ROWS_CELL_LIMIT = 1 << 28

# Emitting and rendering raw equations peaks at about 185 bytes per defined
# cell (tracemalloc over build, emit and render of a 10-place cycle, 2**20
# cells), most of it the rendered text; 2**22 cells stay under about 780 MB.
EQUATION_CELL_LIMIT = 1 << 22

EQUATION_FORMAT_VERSION = "evinet equations v1"


@dataclass(frozen=True, eq=False)
class TransferTable:
    """Total map (nonempty place set, admissible receptivity) -> image set.

    ``rows[x, k]``, a read-only view, is the image mask of subset mask ``x``
    under the k-th admissible combination. Only admissible combinations are
    stored; combinations rejected by the conflict constraint carry no cells,
    and ``rejected`` lists them on demand.
    """

    net: PetriNet
    admissible: tuple[Receptivity, ...]
    rows: memoryview = field(repr=False)
    _masks: tuple[int, ...] = field(repr=False)  # each of ``admissible`` as a mask, bit t for r[t]

    @property
    def rejected(self) -> tuple[Receptivity, ...]:
        """Combinations the conflict constraint rejects, in binary order; each
        access walks all 2**m combinations."""
        combos = product((0, 1), repeat=self.net.transition_count)
        return tuple(bits for bits in combos if bits not in self._row_index)

    @property
    def defined_cell_count(self) -> int:
        return len(self.admissible) * ((1 << self.net.place_count) - 1)

    def is_admissible(self, r: Sequence[int]) -> bool:
        return coerce_receptivity(self.net, r) in self._row_index

    @cached_property
    def _row_index(self) -> dict[Receptivity, int]:
        return {bits: k for k, bits in enumerate(self.admissible)}

    def _column(self, xmask: int) -> memoryview:
        """The image masks of ``xmask``, one per admissible combination."""
        count = len(self.admissible)
        return self.rows.cast("B").cast("I")[xmask * count : (xmask + 1) * count]

    def _row(self, r: Sequence[int]) -> int:
        """The row of ``r``; raises :class:`ConflictError` for rejected combinations."""
        bits = coerce_receptivity(self.net, r)
        row = self._row_index.get(bits)
        if row is None:
            raise ConflictError(check_receptivity(self.net, bits))
        return row

    def lookup(self, x: Iterable[int], r: Sequence[int]) -> PlaceSet:
        """The image set of ``x`` under ``r``; raises for rejected combinations."""
        row = self._row(r)
        members = _coerce_place_set(x, self.net.place_count)
        return _set_of(self.rows[_mask(members), row])

    def cells(self) -> Iterator[tuple[PlaceSet, Receptivity, PlaceSet]]:
        """All defined cells, subsets in canonical order, combinations in binary order."""
        for xmask in _canonical_masks(self.net.place_count):
            x = _set_of(xmask)
            for bits, ymask in zip(self.admissible, self._column(xmask).tolist()):
                yield x, bits, _set_of(ymask)


def build_transfer_table(net: PetriNet, *, max_places: int = DEFAULT_SIZE_CAP) -> TransferTable:
    """Evaluate the transformation of every subset under every admissible combination.

    Work and memory grow as 2**n times the admissible count; builds with more than
    ``max_places`` places or transitions, or whose mask array would exceed
    ``ROWS_CELL_LIMIT`` cells, raise :class:`~evinet.errors.TableCapError`
    carrying the number of cells the build would allocate.
    """
    structure = _structure(net)  # raises InvalidNetError first
    n, m = net.place_count, net.transition_count
    # a combination is admissible when each place has at most one true output
    # transition, so a place with k outputs allows k + 1 of its bit patterns
    count = math.prod(len(outputs) + 1 for outputs in structure.outputs)
    allocated = count << n
    if n > max_places or m > max_places:
        raise TableCapError(
            f"net has {n} places and {m} transitions, over the cap of"
            f" {max_places} places and {max_places} transitions;"
            f" the full table would need {allocated} cells",
            required_cells=allocated,
        )
    if n > MASK_PLACE_LIMIT:
        raise TableCapError(
            f"net has {n} places; tables are limited to {MASK_PLACE_LIMIT} places,"
            f" one bit per place in a 32-bit mask",
            required_cells=allocated,
        )
    if allocated > ROWS_CELL_LIMIT:
        raise TableCapError(
            f"net has {n} places and {count} admissible combinations;"
            f" the table would allocate {allocated} cells, over the limit of"
            f" {ROWS_CELL_LIMIT}",
            required_cells=allocated,
        )
    # each place fires none or one of its outputs; choosing transition t sets
    # bit t of the mask and, above the mask, bit m - 1 - t of the sort key, so
    # combinations run in ascending order of r1..rm read as a binary number
    choices = [(0, *(1 << (2 * m - 1 - t) | 1 << t for t in outs)) for outs in structure.outputs]
    masks = tuple(value & ((1 << m) - 1) for value in sorted(map(sum, product(*choices))))
    admissible = tuple(tuple(mask >> t & 1 for t in range(m)) for mask in masks)
    # the firing rule, one 32-bit lane per combination and place: the token
    # follows the one output the combination fires, or stays put; moves maps
    # the fired output's bit, or 0, to the successor's bit
    lanes = []
    for place, outs in enumerate(structure.outputs):
        own = sum(1 << t for t in outs)
        moves = {0: 1 << place, **{1 << t: 1 << structure.post_place[t] for t in outs}}
        lane = array("I", map(moves.__getitem__, map(own.__and__, masks)))
        lanes.append(int.from_bytes(lane, "little"))
    rows = _backend.fill_rows(count, lanes)
    return TransferTable(net=net, admissible=admissible, rows=rows, _masks=masks)


def invert_table(
    table: TransferTable, y: Iterable[int]
) -> tuple[tuple[PlaceSet, Receptivity], ...]:
    """All (source set, combination) cells whose image is ``y``.

    Ordered canonically: source sets by cardinality then indices, and within a
    source by the combination's binary value. Empty when nothing maps to ``y``.
    """
    n = table.net.place_count
    target = array("I", [_mask(_coerce_place_set(y, n))]).tobytes()
    # lanes run in binary order, so scanning the source columns in canonical
    # order yields the cells in order; a match straddling two lanes is skipped
    cells = []
    for xmask in _canonical_masks(n):
        column = table._column(xmask).tobytes()
        at = column.find(target)
        while at >= 0:
            if at % 4 == 0:
                cells.append((_set_of(xmask), table.admissible[at // 4]))
            at = column.find(target, at - at % 4 + 4)
    return tuple(cells)


def table_step(table: TransferTable, mass, r: Sequence[int]) -> MassVector:
    """Advance a mass distribution by table lookup; equals the direct step.

    The image of ``x`` is ``rows[x, k]``, read through a strided view of
    column ``k`` so that, as in :func:`~evinet.engine.step`, each lookup is a
    C-level index.
    """
    mass = _as_mass_vector(mass)
    k = table._row(r)
    column = table.rows.cast("B").cast("I")[k :: len(table.admissible)]
    return _advance(mass, column.__getitem__, table.net.place_count)


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
        return frozenset(source) in _true_sources(self, r)


def emit_equations(table: TransferTable, minimize: bool = False) -> tuple[MassEquation, ...]:
    """One equation per reachable target set, in canonical target order.

    With ``minimize`` each (target, source) coefficient is reduced to an
    equivalent sum of products; equality with the raw form holds on every one
    of the 2**m assignments because rejected combinations stay off in both.
    Minimizing over more than ``WIDTH_LIMIT`` transitions raises
    :class:`~evinet.errors.DimensionError`, and a table of more than
    ``EQUATION_CELL_LIMIT`` defined cells raises
    :class:`~evinet.errors.TableCapError` carrying its cell count, both before
    any cell is grouped.
    """
    n, m = table.net.place_count, table.net.transition_count
    if minimize and m > WIDTH_LIMIT:
        raise DimensionError(f"cannot minimize over {m} transitions; the limit is {WIDTH_LIMIT}")
    cells = table.defined_cell_count
    if cells > EQUATION_CELL_LIMIT:
        raise TableCapError(
            f"table has {cells} defined cells; equations are limited to"
            f" {EQUATION_CELL_LIMIT} cells",
            required_cells=cells,
        )
    masks = table._masks
    # each source column is read in minterm order, so every (target, source)
    # list holds one coefficient's raw cubes in ascending order, or, minimized,
    # its on-set bits 1 << minterm, and sources reach each target in canonical
    # order
    # a valid net has a transition, so two rows or more: the pick is a tuple
    pick = operator.itemgetter(*sorted(range(len(masks)), key=masks.__getitem__))
    if minimize:
        items = [1 << mask for mask in sorted(masks)]
    else:
        items = [_to_cube(mask, 0, m) for mask in sorted(masks)]
    grouped: dict[int, dict[int, list]] = {}
    for xmask in _canonical_masks(n):
        column = pick(table._column(xmask))
        targets = defaultdict(list)
        for item, ymask in zip(items, column):
            targets[ymask].append(item)
        for ymask, group in targets.items():
            grouped.setdefault(ymask, {})[xmask] = group

    sets = cache(_set_of)
    equations = []
    for ymask in sorted(grouped, key=_order_key(n)):
        terms: list[tuple[Cube, PlaceSet]] = []
        for xmask, group in grouped[ymask].items():
            # a group's bits are distinct, so their sum is the on-set
            cubes = _minimize_on(sum(group), m) if minimize else group
            terms.extend(zip(cubes, repeat(sets(xmask))))
        equations.append(
            MassEquation(target=sets(ymask), transition_count=m, terms=tuple(terms))
        )
    return tuple(equations)


def equations_semantically_equal(a: MassEquation, b: MassEquation) -> bool:
    """True when both equations compute the same coefficients everywhere.

    Each source's coefficient is compared as its on-set over all 2**m
    receptivity assignments, one int with bit v set when minterm v is true,
    so factorized, minimized, and raw forms of the same update rule all
    compare equal. Differing targets compare unequal; differing widths, of
    the equations or of a cube, are an error.
    """
    if a.transition_count != b.transition_count:
        raise DimensionError(
            f"equations span {a.transition_count} and {b.transition_count} transitions"
        )
    return a.target == b.target and _on_sets(a) == _on_sets(b)


def _checked_terms(eq: MassEquation) -> Iterator[tuple[Cube, PlaceSet]]:
    """The terms of ``eq``; raises when a cube's width is not the equation's."""
    for cube, src in eq.terms:
        if len(cube) != eq.transition_count:
            raise DimensionError(
                f"cube {cube} has {len(cube)} slots, equation spans {eq.transition_count}"
            )
        yield cube, src


def _on_sets(eq: MassEquation) -> dict[PlaceSet, int]:
    """Each source's on-set, the union of its cubes' minterms, as one int.
    A slot that is not None is the plain literal when it is truthy."""
    on: dict[PlaceSet, int] = {}
    for cube, src in _checked_terms(eq):
        value = sum(1 << j for j, bit in enumerate(cube) if bit)
        dashes = sum(1 << j for j, bit in enumerate(cube) if bit is None)
        on[src] = on.get(src, 0) | _cover(value, dashes)
    return on


def _true_sources(eq: MassEquation, r: Sequence[int]) -> set[PlaceSet]:
    """The sources whose coefficient holds under ``r``, read from the cubes
    with the truth rule of :func:`_on_sets`, without building any on-set."""
    bits = _coerce_bits(r, eq.transition_count, "equation spans {}")
    return {
        src
        for cube, src in _checked_terms(eq)
        if all(slot is None or bool(slot) == bit for slot, bit in zip(cube, bits))
    }


def evaluate_equation(eq: MassEquation, mass, r: Sequence[int]) -> float:
    """The target's next mass under the equation, given the current masses."""
    mass = _as_mass_vector(mass)
    true = _true_sources(eq, r)
    return sum(mass.mass(src) for src in eq.sources() if src in true)


def _set_label(places: PlaceSet) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(places)) + "}"


def _cube_key_label(cube: Cube) -> tuple[int, str]:
    """A cube's sort key and its product label, ``1`` when no slot is fixed."""
    literals = [f"r{j}" if bit else f"!r{j}" for j, bit in enumerate(cube, 1) if bit is not None]
    label = "*".join(literals)
    return _int_sort_key(cube), label or "1"


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def _render(eq: MassEquation, cube_entry, set_label, set_key) -> str:
    """One equation's text; ``cube_entry`` maps a cube to its (sort key, label)."""
    # emitted terms come in runs of one source; a source may recur
    by_source: dict[PlaceSet, list[Cube]] = {}
    for source, run in groupby(eq.terms, key=_second):
        by_source.setdefault(source, []).extend(map(_first, run))
    parts = []
    for source in sorted(by_source, key=set_key):
        entries = sorted(map(cube_entry, by_source[source]), key=_first)
        coeff = " + ".join(map(_second, entries))
        if len(entries) > 1:
            coeff = f"({coeff})"
        parts.append(f"{coeff}*M{set_label(source)}")
    rhs = " + ".join(parts) if parts else "0"
    return f"M{set_label(eq.target)}(k+1) = {rhs}"


def render_equation(eq: MassEquation) -> str:
    """One-line text form, e.g. ``M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}``."""
    return _render(eq, _cube_key_label, _set_label, place_set_key)


def render_equations(equations: Iterable[MassEquation]) -> str:
    """All equations under the versioned format header, one per line; each
    cube's and set's label is built once per call."""
    memos = cache(_cube_key_label), cache(_set_label), cache(place_set_key)
    lines = [f"# {EQUATION_FORMAT_VERSION}"]
    lines.extend(_render(eq, *memos) for eq in equations)
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
    The header is one ``write`` and each subset's rows one more: a join over a
    list of three parts per row (label, ``,bits``, ``,image\\n``) that every
    subset reuses, so no string is built per cell.
    """
    labels = _csv_fields(_all_mask_labels(table.net.places))
    bits_fields = _csv_fields("".join(map(str, bits)) for bits in table.admissible)
    images = [f",{label}\n" for label in labels]
    count = len(bits_fields)
    parts = [""] * (3 * count)
    parts[1::3] = [f",{field}" for field in bits_fields]
    handle.write("subset,receptivity_bits,result_subset\n")
    for xmask in _canonical_masks(table.net.place_count):
        parts[0::3] = [labels[xmask]] * count
        parts[2::3] = map(images.__getitem__, table._column(xmask))
        handle.write("".join(parts))
    return table.defined_cell_count
