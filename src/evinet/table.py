"""Precomputed transformation tables and the boolean mass-update equations.

The table maps every (nonempty place set, admissible receptivity combination)
cell to its image set. Inverting it per target yields the sources of each
set's next mass, and grouping the inverse by source gives one boolean
coefficient per (target, source) pair, printable raw (as minterms) or
minimized to a two-level sum of products.

Only the receptivity combinations the conflict constraint admits are
enumerated: each place fires none or one of its k_p output transitions, so a
table has (2**n - 1) * prod(k_p + 1) cells. No stage (the build, the CSV
writer, the emitter) allocates over ``ALLOCATION_LIMIT`` bytes: each works
out its bytes from its inputs and refuses before allocating any. Text costs
more than masks, so the output stages build each set's label and frozenset
once and read the table one subset column at a time. The equation stage is
one pipeline: ``_equations`` checks and groups every cell, then yields one
target at a time with its (source, items) groups, and ``_equation_lines``
renders each as it comes, sorting each group's entries and joining their
labels. A cube is one int code from the grouping to the text, read as an
entry, its ``(sort key, label, code)``, by the ``equations`` command, which
writes each line as it is rendered and so holds one equation's groups and
text at a time, and as its slots by ``emit_equations``, which builds
:class:`MassEquation` terms from the same groups; ``render_equations``
regroups such terms by source for the same renderer.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from collections import defaultdict
from functools import cached_property
from itertools import chain, groupby, product, repeat
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import _backend
from .dsl import _all_mask_labels
from .errors import ConflictError, DimensionError, TableCapError
from .engine import (
    MassVector,
    PlaceSet,
    _Memo,
    _advance,
    _as_mass_vector,
    _canonical_masks,
    _coerce_place_set,
    _mask,
    _order_key,
    _set_of,
    place_set_key,
)
from .minimize import WIDTH_LIMIT, Cube, _cover, _cube_decoder, _cube_entries, _minimize_on
from .net import (
    PetriNet,
    Receptivity,
    DEFAULT_SIZE_CAP,
    _Record,
    _coerce_bits,
    _structure,
    check_receptivity,
    coerce_receptivity,
)

# The kernel stores subset masks in 32-bit lanes, one bit per place.
MASK_PLACE_LIMIT = 32

# No stage of a table or its equations allocates more bytes than this.
ALLOCATION_LIMIT = 1 << 30

EQUATION_FORMAT_VERSION = "evinet equations v1"


class TransferTable(_Record):
    """Total map (nonempty place set, admissible receptivity) -> image set.

    ``rows[x, k]``, a read-only view, is the image mask of subset mask ``x``
    under the k-th admissible combination. Only admissible combinations are
    stored; combinations rejected by the conflict constraint carry no cells,
    and ``rejected`` lists them on demand.
    """

    __slots__ = ("__dict__",)  # holds the cached ``_row_index``
    __eq__, __hash__ = object.__eq__, object.__hash__  # a table equals only itself

    net: PetriNet
    admissible: tuple[Receptivity, ...]
    rows: memoryview
    _masks: tuple[int, ...]  # each of ``admissible`` as a mask, bit t for r[t]

    def __repr__(self) -> str:
        return f"TransferTable(net={self.net!r}, admissible={self.admissible!r})"

    def __reduce__(self):
        # a memoryview does not pickle; the rows travel as their bytes, not
        # recomputed, so a table built past the default cap unpickles too
        return _unpickled_table, (self.net, self.admissible, self.rows.tobytes(), self._masks)

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


def _unpickled_table(net: PetriNet, admissible, rows: bytes, masks) -> TransferTable:
    """A pickled :class:`TransferTable`, with a read-only ``(2**n, count)`` view over ``rows``."""
    rows = memoryview(rows).cast("I", (1 << net.place_count, len(admissible)))
    return TransferTable(net, admissible, rows, masks)


def _require_bytes(nbytes: int, cells: int, what: str) -> None:
    """Refuse ``what``, carrying ``cells``, when it would allocate over ``ALLOCATION_LIMIT``."""
    if nbytes > ALLOCATION_LIMIT:
        raise TableCapError(f"{what} {nbytes} bytes, over the {ALLOCATION_LIMIT}-byte limit", cells)


def build_transfer_table(net: PetriNet, *, max_places: int = DEFAULT_SIZE_CAP) -> TransferTable:
    """Evaluate the transformation of every subset under every admissible combination.

    Work and memory grow as 2**n times the admissible count. A net over
    ``max_places`` places or transitions or ``MASK_PLACE_LIMIT`` places, or a
    build over ``ALLOCATION_LIMIT`` bytes, raises
    :class:`~evinet.errors.TableCapError` carrying the cells it would allocate.
    """
    structure = _structure(net)  # raises InvalidNetError first
    n, m = net.place_count, net.transition_count
    # a combination is admissible when each place has at most one true output
    # transition, so a place with k outputs allows k + 1 of its bit patterns
    count = math.prod(len(outputs) + 1 for outputs in structure.outputs)
    allocated = count << n
    # rows at 4 bytes a cell, and per combination its tuple, mask, key and lanes
    nbytes = 4 * allocated + count * (8 * (m + n) + 192)
    need = f"the full table would need {allocated} cells, {nbytes} bytes"
    if n > max_places or m > max_places:
        raise TableCapError(
            f"net has {n} places and {m} transitions, over the cap of"
            f" {max_places} places and {max_places} transitions; {need}",
            required_cells=allocated,
        )
    if n > MASK_PLACE_LIMIT:
        raise TableCapError(
            f"net has {n} places; tables are limited to {MASK_PLACE_LIMIT} places,"
            f" one bit per place in a 32-bit mask; {need}",
            required_cells=allocated,
        )
    stage = f"net has {n} places and {count} admissible combinations; the table would"
    _require_bytes(nbytes, allocated, f"{stage} allocate {allocated} cells in")
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


class MassEquation(_Record):
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


def _check_equation_bytes(table: TransferTable, minimize: bool) -> None:
    """Refuse equations over ``ALLOCATION_LIMIT`` bytes, from the table's counts alone.

    The ``3m`` on-set ints charged to the prime search are an estimate, not a
    bound: measured on nets of up to 24 transitions, no cheap count bounds them.
    """
    n, m, masks = table.net.place_count, table.net.transition_count, table._masks
    cells = table.defined_cell_count
    # per defined cell its term and text, per combination its cube and label
    nbytes = (2 * cells + len(masks)) * (32 + 8 * m) + 8192
    if minimize:
        # on-set ints of 30 bits a 4-byte digit, as wide as the widest at most:
        # one per combination, a memo key per (source, target) pair, a source
        # having at most its output patterns as targets, and 3m in the search
        sizes = [32 + mask // 30 * 4 for mask in masks]
        pairs = math.prod(len(outs) + 2 for outs in _structure(table.net).outputs) - 1
        nbytes += sum(sizes) + (min(pairs, ((1 << n) - 1) ** 2) + 3 * m) * max(sizes)
    form = "minimized equations" if minimize else "equations"
    stage = f"table has {cells} defined cells; {form} over {m} transitions would allocate"
    _require_bytes(nbytes, cells, stage)


def emit_equations(table: TransferTable, minimize: bool = False) -> tuple[MassEquation, ...]:
    """One equation per reachable target set, in canonical target order.

    With ``minimize`` each (target, source) coefficient is reduced to an
    equivalent sum of products; equality with the raw form holds on every one
    of the 2**m assignments because rejected combinations stay off in both.
    Minimizing over more than ``WIDTH_LIMIT`` transitions raises
    :class:`~evinet.errors.DimensionError`, and a call that would allocate more
    than ``ALLOCATION_LIMIT`` bytes raises :class:`~evinet.errors.TableCapError`
    carrying the defined cell count, both before any cell is grouped.
    """
    m = table.net.transition_count
    return tuple(
        MassEquation(target, m, tuple(chain.from_iterable(
            zip(cubes, repeat(source)) for source, cubes in groups)))
        for target, groups in _equations(table, minimize, _cube_decoder)
    )


def _equations(table: TransferTable, minimize: bool,
               items: Callable[[int], Callable[[int], object]]) -> Iterator[tuple[PlaceSet, list]]:
    """Each target set of :func:`emit_equations` with its (source set, items)
    groups, sources in canonical order, one target at a time; ``items(m)``
    returns the function that makes each cube code's item.

    Raw groups share one item per admissible combination, in minterm order,
    from one ``items(m)``; minimized ones hold their cover's items, from one
    ``items(m)`` per target. Every check runs and every cell is grouped before
    this returns.
    """
    n, m = table.net.place_count, table.net.transition_count
    if minimize and m > WIDTH_LIMIT:
        raise DimensionError(f"cannot minimize over {m} transitions; the limit is {WIDTH_LIMIT}")
    _check_equation_bytes(table, minimize)
    masks = table._masks
    # each source column is read in minterm order, so every (target, source) list
    # holds one coefficient's raw items in ascending order, or, minimized, its
    # on-set bits 1 << minterm, and sources reach each target in canonical order
    # a valid net has a transition, so two rows or more: the pick is a tuple
    pick = operator.itemgetter(*sorted(range(len(masks)), key=masks.__getitem__))
    if minimize:
        cells = [1 << mask for mask in sorted(masks)]
    else:
        cells = list(map(items(m), sorted(masks)))
    grouped: dict[int, dict[int, list]] = {}
    for xmask in _canonical_masks(n):
        column = pick(table._column(xmask))
        targets = defaultdict(list)
        for cell, ymask in zip(cells, column):
            targets[ymask].append(cell)
        for ymask, group in targets.items():
            grouped.setdefault(ymask, {})[xmask] = group

    def equations() -> Iterator[tuple[PlaceSet, list]]:
        sets = _Memo(_set_of).__getitem__
        covers: dict[int, tuple[int, ...]] = {}  # shared by this call's minimizations
        for ymask in sorted(grouped, key=_order_key(n)):
            groups = grouped.pop(ymask).items()
            if minimize:
                item = items(m)
                # a group's bits are distinct, so their sum is the on-set
                groups = [(xmask, list(map(item, _minimize_on(sum(group), m, covers))))
                          for xmask, group in groups]
            yield sets(ymask), [(sets(xmask), group) for xmask, group in groups]

    return equations()


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
        code, width = _cube_code(cube), len(cube)
        on[src] = on.get(src, 0) | _cover(code & (1 << width) - 1, code >> width)
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


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def render_equation(eq: MassEquation) -> str:
    """One-line text form, e.g. ``M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}``."""
    _, line = _equation_lines(_regrouped((eq,)))
    return line[:-1]


def render_equations(equations: Iterable[MassEquation]) -> str:
    """All equations under the versioned format header, one per line; each
    cube's and set's label is built once per call."""
    return "".join(_equation_lines(_regrouped(equations)))


def _cube_code(cube: Cube) -> int:
    """``dashes << len(cube) | value``; a fixed slot is the plain literal when truthy."""
    width = len(cube)
    return sum([1 << width + j if bit is None else bool(bit) << j for j, bit in enumerate(cube)])


def _regrouped(equations: Iterable[MassEquation]) -> Iterator[tuple[PlaceSet, list]]:
    """Each equation's (target, groups), as :func:`_equations` yields them;
    each cube's entry is made at its own width, and each entry and set key
    once, in a :class:`~evinet.engine._Memo` of the call."""
    entry = _Memo(lambda cube: _cube_entries(len(cube))(_cube_code(cube))).__getitem__
    set_key = _Memo(place_set_key).__getitem__
    for eq in equations:
        # emitted terms come in runs of one source; a source may recur
        by_source: dict[PlaceSet, list] = {}
        for source, run in groupby(eq.terms, key=_second):
            by_source.setdefault(source, []).extend([entry(cube) for cube, _ in run])
        yield eq.target, [(source, by_source[source]) for source in sorted(by_source, key=set_key)]


def _equation_lines(equations: Iterable[tuple[PlaceSet, list]]) -> Iterator[str]:
    """The lines of :func:`render_equations`, each ending in a newline: the
    header, then each (target, groups)'s as it is taken, entries stably sorted
    by key; each set's label is made once, in a ``_Memo`` of the call."""
    set_label = _Memo(_set_label).__getitem__
    yield f"# {EQUATION_FORMAT_VERSION}\n"
    for target, groups in equations:
        parts = []
        for source, entries in groups:
            entries = sorted(entries, key=_first)
            coeff = " + ".join(map(_second, entries))
            if len(entries) > 1:
                coeff = f"({coeff})"
            parts.append(f"{coeff}*M{set_label(source)}")
        rhs = " + ".join(parts) if parts else "0"
        yield f"M{set_label(target)}(k+1) = {rhs}\n"


def _check_csv_bytes(table: TransferTable) -> None:
    """Refuse a CSV over ``ALLOCATION_LIMIT`` bytes, from its names and counts alone."""
    names, n, cells = table.net.places, table.net.place_count, table.defined_cell_count
    width = 1 if "".join(names).isascii() else 4  # bytes a character, at most
    chars = sum(len(name) + name.count('"') for name in names)  # quotes doubled
    # an image ",{a,b}\n" in quotes is 6 characters, its members' names and
    # commas, and a header; each place is in 2**(n - 1) sets. The csv writer
    # buffers a field at 4 bytes a character, 32768 at a time, and the full
    # set's block, two labels and bits a row, is the largest, encoded once.
    nbytes = (128 << n) + width * ((6 << n) + ((n + chars) << (n - 1)))
    full, m = 6 + n + chars, table.net.transition_count
    nbytes += 4 * (full + 32768) + len(table.admissible) * (width * (4 * full + 3 * m) + 192)
    what = f"the CSV of {cells} cells, {n} names of {chars} characters, would allocate"
    _require_bytes(nbytes, cells, what)


def write_table_csv(table: TransferTable, handle: IO[str]) -> int:
    """Write the defined cells as CSV and return the row count (header excluded).

    Rows run over subsets in canonical order and, within a subset, over the
    admissible combinations in binary order, as :meth:`TransferTable.cells`.
    The header is one ``write`` and each subset's rows one more: a join over a
    list of three parts per row (label, ``,bits``, ``,image\\n``) that every
    subset reuses, so no string is built per cell. Each quoted label is kept
    once, in its image; over ``ALLOCATION_LIMIT`` bytes, none is built.
    """
    _check_csv_bytes(table)
    images = _all_mask_labels(table.net.places)
    lines: list[str] = []  # the csv module writes each ",label\n" row here
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    for xmask, label in enumerate(images):
        writer.writerow(("", label))
        images[xmask] = lines.pop()
    count = len(table.admissible)
    parts = [""] * (3 * count)
    # a string of 0/1 digits never needs quoting, so the bits skip the csv module
    parts[1::3] = ["," + "".join(map(str, bits)) for bits in table.admissible]
    handle.write("subset,receptivity_bits,result_subset\n")
    for xmask in _canonical_masks(table.net.place_count):
        parts[0::3] = [images[xmask][1:-1]] * count
        parts[2::3] = map(images.__getitem__, table._column(xmask))
        handle.write("".join(parts))
    return table.defined_cell_count
