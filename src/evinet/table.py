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
table one subset column at a time, in canonical subset order.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, product, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _backend
from .dsl import _all_mask_labels
from .errors import ConflictError, DimensionError, TableCapError
from .engine import (
    MassVector,
    PlaceSet,
    _advance,
    _as_mass_vector,
    _canonical_key,
    _canonical_masks,
    _coerce_place_set,
    _mask,
    _set_of,
    place_set_key,
)
from .minimize import WIDTH_LIMIT, Cube, _cover, _int_sort_key, _to_cube, minimize_minterms
from .net import (
    PetriNet,
    Receptivity,
    DEFAULT_SIZE_CAP,
    _coerce_bits,
    _require_valid,
    _structure,
    check_receptivity,
    coerce_receptivity,
)

# The kernel stores subset masks as uint32, one bit per place.
MASK_PLACE_LIMIT = 32

# The kernel allocates one uint32 per (admissible combination, subset mask)
# pair, the empty mask included; 2**28 of them take 1 GiB.
ROWS_CELL_LIMIT = 1 << 28

# Emitting and rendering raw equations peaks at about 185 bytes per defined
# cell (tracemalloc over build, emit and render of a 10-place cycle, 2**20
# cells), most of it the rendered text; 2**22 cells stay under about 780 MB.
EQUATION_CELL_LIMIT = 1 << 22

EQUATION_FORMAT_VERSION = "evinet equations v1"


def _bits_to_mask(bits: Receptivity) -> int:
    return sum(bit << j for j, bit in enumerate(bits))


@dataclass(frozen=True, eq=False)
class TransferTable:
    """Total map (nonempty place set, admissible receptivity) -> image set.

    ``rows[k][x]`` is the image mask of subset mask ``x`` under the k-th
    admissible combination. Only admissible combinations are stored;
    combinations rejected by the conflict constraint carry no cells, and
    ``rejected`` lists them on demand.
    """

    net: PetriNet
    admissible: tuple[Receptivity, ...]
    rows: np.ndarray = field(repr=False)

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
        return _set_of(int(self.rows[row, _mask(members)]))

    def cells(self) -> Iterator[tuple[PlaceSet, Receptivity, PlaceSet]]:
        """All defined cells, subsets in canonical order, combinations in binary order."""
        for xmask in _canonical_masks(self.net.place_count):
            x = _set_of(xmask)
            for bits, ymask in zip(self.admissible, self.rows[:, xmask].tolist()):
                yield x, bits, _set_of(ymask)


def build_transfer_table(net: PetriNet, *, max_places: int = DEFAULT_SIZE_CAP) -> TransferTable:
    """Evaluate the transformation of every subset under every admissible combination.

    Work and memory grow as 2**n times the admissible count; builds with more than
    ``max_places`` places or transitions, or whose mask array would exceed
    ``ROWS_CELL_LIMIT`` cells, raise :class:`~evinet.errors.TableCapError`
    carrying the cell count that would be required.
    """
    _require_valid(net)
    n, m = net.place_count, net.transition_count
    if n > max_places or m > max_places:
        required = ((1 << n) - 1) * (1 << m)
        raise TableCapError(
            f"net has {n} places and {m} transitions, over the cap of"
            f" {max_places} places and {max_places} transitions;"
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
    # a combination is admissible when each place has at most one true output
    # transition, so a place with k outputs allows k + 1 of its bit patterns
    count = math.prod(len(outputs) + 1 for outputs in structure.outputs)
    allocated = count << n
    if allocated > ROWS_CELL_LIMIT:
        raise TableCapError(
            f"net has {n} places and {count} admissible combinations;"
            f" the table would allocate {allocated} cells, over the limit of"
            f" {ROWS_CELL_LIMIT}",
            required_cells=allocated,
        )
    # each place fires none or one of its outputs; combinations run in
    # ascending order of the bit string r1..rm read as a binary number
    choices = [(0, *(1 << (m - 1 - t) for t in outputs)) for outputs in structure.outputs]
    admissible = [
        tuple((value >> j) & 1 for j in reversed(range(m)))
        for value in sorted(map(sum, product(*choices)))
    ]
    rmasks = [_bits_to_mask(bits) for bits in admissible]
    rows = _backend.fill_rows(n, structure.pre_place, structure.post_place, rmasks)
    return TransferTable(net=net, admissible=tuple(admissible), rows=rows)


def invert_table(
    table: TransferTable, y: Iterable[int]
) -> tuple[tuple[PlaceSet, Receptivity], ...]:
    """All (source set, combination) cells whose image is ``y``.

    Ordered canonically: source sets by cardinality then indices, and within a
    source by the combination's binary value. Empty when nothing maps to ``y``.
    """
    n = table.net.place_count
    ymask = _mask(_coerce_place_set(y, n))
    row_idx, x_masks = np.nonzero(table.rows == np.uint32(ymask))
    key = _canonical_key(n)
    # mask 0 is not a subset cell; rows run in binary order, so the row index
    # orders the cells of one source
    cells = sorted((key(x), k, x) for k, x in zip(row_idx.tolist(), x_masks.tolist()) if x)
    return tuple((_set_of(x), table.admissible[k]) for _, k, x in cells)


def table_step(table: TransferTable, mass, r: Sequence[int]) -> MassVector:
    """Advance a mass distribution by table lookup; equals the direct step."""
    mass = _as_mass_vector(mass)
    return _advance(mass, table.rows[table._row(r)].item, table.net.place_count)


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
        minterm = _bits_to_mask(_coerce_bits(r, self.transition_count, "equation spans {}"))
        return bool(_on_sets(self).get(frozenset(source), 0) >> minterm & 1)


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
    rmasks = [_bits_to_mask(bits) for bits in table.admissible]
    # each source column is read in minterm order, so every (target, source)
    # list holds one coefficient's minterms (or raw cubes) in ascending order,
    # and sources reach each target in canonical order
    by_minterm = sorted(range(len(rmasks)), key=rmasks.__getitem__)
    minterm_rows = np.array(by_minterm)
    if minimize:
        items = [rmasks[k] for k in by_minterm]
    else:
        items = [_to_cube(rmasks[k], 0, m) for k in by_minterm]
    grouped: dict[int, dict[int, list]] = {}
    for xmask in _canonical_masks(n):
        column = table.rows[minterm_rows, xmask].tolist()
        targets = defaultdict(list)
        for item, ymask in zip(items, column):
            targets[ymask].append(item)
        for ymask, group in targets.items():
            grouped.setdefault(ymask, {})[xmask] = group

    sets = _Memo(_set_of)
    equations = []
    for ymask in sorted(grouped, key=_canonical_key(n)):
        terms: list[tuple[Cube, PlaceSet]] = []
        for xmask, group in grouped[ymask].items():
            cubes = minimize_minterms(group, m) if minimize else group
            terms.extend(zip(cubes, repeat(sets[xmask])))
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


def _on_sets(eq: MassEquation) -> dict[PlaceSet, int]:
    """Each source's on-set, the union of its cubes' minterms, as one int."""
    on: dict[PlaceSet, int] = {}
    for cube, src in eq.terms:
        if len(cube) != eq.transition_count:
            raise DimensionError(
                f"cube {cube} has {len(cube)} slots, equation spans {eq.transition_count}"
            )
        value = sum(1 << j for j, bit in enumerate(cube) if bit)
        dashes = sum(1 << j for j, bit in enumerate(cube) if bit is None)
        on[src] = on.get(src, 0) | _cover(value, dashes)
    return on


def evaluate_equation(eq: MassEquation, mass, r: Sequence[int]) -> float:
    """The target's next mass under the equation, given the current masses."""
    mass = _as_mass_vector(mass)
    minterm = _bits_to_mask(_coerce_bits(r, eq.transition_count, "equation spans {}"))
    on = _on_sets(eq)
    return sum(mass.mass(src) for src in eq.sources() if on[src] >> minterm & 1)


def _set_label(places: PlaceSet) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(places)) + "}"


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


class _Labels:
    """Labels and sort keys of cubes and sets, built once per render call."""

    def __init__(self):
        # (sort key, label, cube) per cube object, keyed by id: emitted terms
        # share their cube tuples, and an id hashes faster than a cube's slots.
        # The entry holds the cube, so no other object takes its id meanwhile.
        self.cubes: dict[int, tuple[int, str, Cube]] = {}
        self.literals: list[tuple[str, str]] = []  # (plain, negated) per variable
        self.set = _Memo(_set_label)
        self.set_key = _Memo(place_set_key)

    def add_cube(self, cube: Cube) -> None:
        literals = self.literals
        while len(literals) < len(cube):
            j = len(literals) + 1
            literals.append((f"r{j}", f"!r{j}"))
        label = "*".join([literals[j][not bit] for j, bit in enumerate(cube) if bit is not None])
        self.cubes[id(cube)] = (_int_sort_key(cube), label or "1", cube)

    def render(self, eq: MassEquation) -> str:
        # emitted terms come in runs of one source; a source may recur
        by_source: dict[PlaceSet, list[Cube]] = {}
        for source, run in groupby(eq.terms, key=_second):
            by_source.setdefault(source, []).extend(map(_first, run))
        cubes = self.cubes
        parts = []
        for source in sorted(by_source, key=self.set_key.__getitem__):
            group = by_source[source]
            for cube in group:
                if id(cube) not in cubes:
                    self.add_cube(cube)
            entries = sorted(map(cubes.__getitem__, map(id, group)), key=_first)
            coeff = " + ".join(map(_second, entries))
            if len(entries) > 1:
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
    labels = _csv_fields(_all_mask_labels(table.net.places))
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
    return table.defined_cell_count
