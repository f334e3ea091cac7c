"""Belief evolution over sets of places.

When the initial place is unknown, the state is a mass distribution over
nonempty sets of places: mass on a set means the token is somewhere in it,
with no commitment to a particular member. Each observation step transforms
every hypothesis set through the net and transfers its mass to the image set,
so total belief is conserved and ignorance narrows as events arrive.

A set of places is held as an int mask, bit i for place i, and a
:class:`MassVector` maps masks to masses in canonical order. Frozensets appear
only at the API edge, in the keys callers pass and in :meth:`focal_sets`.
Masks are Python ints, so nets wider than a machine word step as well. The
set-to-mask conversion, the canonical enumeration of masks and their sort key
live here alone; :mod:`evinet.table` and :mod:`evinet.dsl` use them.

Masks are ordered by one sort key at every width, :func:`_order_key`: a
per-width memo of each mask's canonical int key, so sorting by a key met
before costs one dict lookup and no Python call.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from itertools import chain, combinations, count, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MassError, TrajectoryError
from .net import PetriNet, Receptivity, _integral, _Record, _successors, coerce_receptivity

# Masses must sum to 1, and each lie in [0, 1], within this tolerance; inputs
# outside it are rejected rather than renormalized, so caller bugs stay visible.
NORMALIZATION_TOL = 1e-9

PlaceSet = frozenset[int]

DENSE_PLACE_LIMIT = 10  # 2**10 - 1 columns is the most a dense record may carry

# Nets of at most this many places step through one flat table of image masks,
# and their masks are labelled through a table of every label.
_FLAT_PLACE_LIMIT = 12


def place_set_key(places: PlaceSet) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: ascending cardinality, then lexicographic indices."""
    members = tuple(sorted(places))
    return (len(members), members)


def place_sets(n: int) -> Iterator[PlaceSet]:
    """All nonempty subsets of ``range(n)`` in canonical order."""
    return map(_set_of, _canonical_masks(n))


# Above this many bits an int is read in slices of this many, so a sparse
# wide int, such as a minimizer's 2**24-bit on-set, never becomes that many
# characters of text.
_TEXT_BITS = 1 << 16


def _members(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    if bits.bit_length() > _TEXT_BITS:
        data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        out = []
        for start in range(0, len(data), _TEXT_BITS // 8):
            part = int.from_bytes(data[start : start + _TEXT_BITS // 8], "little")
            if part:
                out.extend([8 * start + v for v in _members(part)])
        return out
    text = bin(bits)[:1:-1]
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _mask(places: Iterable[int]) -> int:
    """The int mask of distinct place indices, bit i for place i."""
    return sum(1 << i for i in places)


def _set_of(mask: int) -> PlaceSet:
    return frozenset(_members(mask))


def _canonical_masks(n: int) -> Iterator[int]:
    """Nonempty subset masks of n places in canonical order."""
    units = [1 << i for i in range(n)]
    return chain.from_iterable(map(sum, combinations(units, k)) for k in range(1, n + 1))


# serialize_mass makes a dense writer per call, which reads its slots here, so
# they are kept for four place counts of at most DENSE_PLACE_LIMIT places:
# under 4 * 2**10 entries in all.
@functools.lru_cache(maxsize=4)
def _dense_masks(n: int) -> dict[int, int]:
    """Each nonempty mask of n places with its slot in a dense record, its rank
    in canonical order."""
    return dict(zip(_canonical_masks(n), count()))


# The most entries a memo of one call or run keeps before it starts afresh.
_MEMO_LIMIT = 1 << 13


class _Memo(dict):
    """``make(key)`` for each key met, made on first use; a hit is one C-level
    lookup. At most ``_MEMO_LIMIT`` are kept: a miss beyond them starts the
    dict afresh."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        value = self[key] = self.make(key)
        return value


# Each byte value with its eight bits reversed, then complemented.
_REV_NOT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


@functools.lru_cache(maxsize=4)
def _order_key(width: int) -> Callable[[int], int]:
    """Int sort key putting masks below ``2**width`` in canonical order.

    The popcount leads; below it sits the mask with its bits reversed, then
    complemented, so that of two sets of one size the one holding the
    smallest index where they differ sorts first. Reversal and complement go
    a byte at a time through ``_REV_NOT``, so a key costs a few bytes per 8
    places and no text. The key is the ``__getitem__`` of a :class:`_Memo`
    of the keys met, so a mask met before costs one C-level lookup; four
    widths are kept.
    """
    size, count_size = (width + 7) // 8, (width.bit_length() + 7) // 8

    def key(mask: int) -> int:
        popcount = mask.bit_count().to_bytes(count_size, "big")
        return int.from_bytes(popcount + mask.to_bytes(size, "little").translate(_REV_NOT), "big")

    return _Memo(key).__getitem__


def _key_members(key: Iterable[int]) -> PlaceSet:
    """A caller's set of places, under the constructor's index rule.

    Indices must be integers and nonnegative; a fractional or infinite index
    raises :class:`MassError`, as in the constructor.
    """
    raw = frozenset(key)
    members = _integral(raw)
    if members is None:
        raise MassError(f"place indices must be integers, got {set(raw)}")
    if members and min(members) < 0:
        raise MassError(f"negative place index in {sorted(members)}")
    return members


def _mass_in_range(value: float) -> bool:
    """The mass rule's range test: ``value`` lies in [0, 1], within
    ``NORMALIZATION_TOL`` above 1."""
    return 0.0 <= value <= 1.0 + NORMALIZATION_TOL


def _coerce_place_set(x: Iterable[int], n: int) -> PlaceSet:
    raw = frozenset(x)
    members = _integral(raw)
    if members is None:
        raise ValueError(f"place indices must be integers, got {set(raw)}")
    if not members:
        raise ValueError("place set must be nonempty")
    if any(i < 0 or i >= n for i in members):
        raise ValueError(f"place set {sorted(members)} out of range for {n} places")
    return members


class _MaskMasses(dict):
    """Nonzero masses in range by nonempty mask, as :func:`~evinet.dsl.parse_mass`
    reads them, for the :class:`MassVector` constructor's sum test alone."""

    __slots__ = ()


class MassVector(Mapping):
    """Normalized mass distribution over nonempty sets of place indices.

    Keys with zero mass are dropped, so the stored sets are exactly the focal
    elements, and pairs naming the same set are merged by adding their
    masses. Instances are immutable; iteration is in canonical set order.
    Masses are stored by set mask, in that order.

    The constructor alone checks the mass rule (see ``NORMALIZATION_TOL``): a
    step only adds stored masses, so every mass it makes is part of that sum.
    Given a ``_MaskMasses``, it checks the sum alone: ``parse_mass`` has
    checked each mask and the range of each mass.
    """

    __slots__ = ("_masses",)

    def __init__(self, masses: Mapping | Iterable[tuple[Iterable[int], float]]):
        if type(masses) is _MaskMasses:
            collected = dict(masses)
        else:
            pairs = masses.items() if isinstance(masses, Mapping) else masses
            collected = {}
            for key, value in pairs:
                mask = _mask(_key_members(key))
                if not mask:
                    raise MassError("the empty set cannot carry mass")
                value = float(value)
                if not _mass_in_range(value):
                    raise MassError(f"mass {value!r} for {set(_members(mask))} outside [0, 1]")
                if value:
                    collected[mask] = collected.get(mask, 0.0) + value
        total = math.fsum(collected.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise MassError(f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
        self._masses = _settle(collected, max(collected).bit_length())

    @classmethod
    def _of_masks(cls, masses: dict[int, float], n: int) -> "MassVector":
        """A mass vector over checked masks of ``n`` places, normalized and put in
        canonical order."""
        out = cls.__new__(cls)
        out._masses = _settle(masses, n)
        return out

    def _check_places(self, n: int) -> None:
        """Reject a focal set holding a place beyond ``n`` places; the one range
        check before a mass meets a net's tables or names."""
        if max(self._masses) >> n:
            raise ValueError(f"mass vector has place indices beyond {n} places")

    def _mask_within(self, members: PlaceSet) -> int:
        """The mask of ``members``, or 0 when one lies beyond every focal set.

        0 is never focal, and the bound keeps a lookup of a large index from
        building a mask that wide.
        """
        if not members or max(members) >= max(self._masses).bit_length():
            return 0
        return _mask(members)

    def __getitem__(self, key) -> float:
        members = _key_members(key)
        value = self._masses.get(self._mask_within(members))
        if value is None:
            raise KeyError(members)
        return value

    def __iter__(self) -> Iterator[PlaceSet]:
        return map(_set_of, self._masses)

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other) -> bool:
        if isinstance(other, MassVector):
            return self._masses == other._masses
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(
            f"{{{', '.join(map(str, _members(x)))}}}: {value!r}"
            for x, value in self._masses.items()
        )
        return f"MassVector({{{body}}})"

    def focal_sets(self) -> tuple[PlaceSet, ...]:
        return tuple(map(_set_of, self._masses))

    def mass(self, places: Iterable[int]) -> float:
        """Mass of a set, zero when it is not focal."""
        return self._masses.get(self._mask_within(_key_members(places)), 0.0)

    def is_categorical(self) -> bool:
        """True when all belief sits on a single set."""
        return len(self._masses) == 1

    def allclose(self, other: "MassVector", tol: float = NORMALIZATION_TOL) -> bool:
        mine, theirs = self._masses, other._masses
        return all(
            abs(mine.get(x, 0.0) - theirs.get(x, 0.0)) <= tol for x in mine.keys() | theirs
        )

    def dense(self, n: int) -> tuple[float, ...]:
        """Masses over all nonempty subsets of ``range(n)`` in canonical order."""
        self._check_places(n)
        return tuple(map(self._masses.get, _canonical_masks(n), repeat(0.0)))

    @classmethod
    def categorical(cls, places: Iterable[int]) -> "MassVector":
        return cls({frozenset(places): 1.0})


def _settle(masses: dict[int, float], width: int) -> dict[int, float]:
    """``masses``, all below ``2**width``, in canonical order.

    Steps pass their net's place count as the width, so one sort key serves a
    whole run however its widest focal set moves.
    """
    if len(masses) < 2:
        return masses
    order = sorted(masses, key=_order_key(width))
    return dict(zip(order, map(masses.__getitem__, order)))


def _as_mass_vector(mass) -> MassVector:
    return mass if isinstance(mass, MassVector) else MassVector(mass)


class Trajectory(_Record):
    """A run history: the initial mass and one (receptivity, mass) pair per step."""

    initial: MassVector
    steps: tuple[tuple[Receptivity, MassVector], ...]

    @property
    def final(self) -> MassVector:
        return self.steps[-1][1] if self.steps else self.initial


def ignorance_mass(net: PetriNet) -> MassVector:
    """Total ignorance: all mass on the full set of places."""
    return MassVector.categorical(range(net.place_count))


def transform(net: PetriNet, x: Iterable[int], r: Sequence[int]) -> PlaceSet:
    """Image of a hypothesis set under one observation.

    Each place in ``x`` moves through its unique enabled output transition, or
    stays put when none is enabled; the image is the union of the outcomes. It
    is never empty, and never commits a token to two places at once because
    conflicting receptivities are rejected.
    """
    successors = _successors(net, coerce_receptivity(net, r))
    members = _coerce_place_set(x, net.place_count)
    return frozenset(map(successors.__getitem__, members))


def _advance(mass: MassVector, image: Callable[[int], int], n: int) -> MassVector:
    """:func:`_transfer`, once the focal sets of ``mass`` lie within ``n`` places."""
    mass._check_places(n)
    return _transfer(mass, image, n)


def _transfer(mass: MassVector, image: Callable[[int], int], n: int) -> MassVector:
    """Transfer each focal set's mass to its image; the one loop behind every step.

    ``image`` maps a source mask of ``n`` places to its image mask. When no
    two sources share an image, the images are zipped with the input's
    masses: merging would add each to 0.0 once, and ``0.0 + v == v`` bit for
    bit, so this is the merge, in its first-occurrence order. Otherwise
    sources are walked in canonical order, so masses sharing an image add up
    to the same floats whatever computes the image. Neither raises: the
    constructor bounded the sum, and a merged mass is part of it.
    """
    masses = mass._masses
    images = list(map(image, masses))
    out = dict(zip(images, masses.values()))
    if len(out) < len(images):
        out = {}
        get = out.get
        for y, value in zip(images, masses.values()):
            out[y] = get(y, 0.0) + value
    return MassVector._of_masks(out, n)


@functools.cache
def _with_bit(k: int) -> bytes:
    """A translation table that sets bit ``k`` of every byte."""
    return bytes(b | 1 << k for b in range(256))


def _flat_images(successors: tuple[int, ...]) -> array:
    """The image mask of every subset mask of ``len(successors)`` places, at
    most 16, as an array of 16-bit lanes.

    The kernel's recurrence, ``flat[x | unit] = flat[x] | succ`` for a place
    ``unit`` above every place of ``x``, doubles the table once per place. It
    runs on the low and the high bytes of the images as two planes, so setting
    the successor's bit in every image of the lower half is one C-level
    ``translate``; the planes are interleaved into lanes at the end.
    """
    low = high = b"\0"
    for place in successors:
        if place < 8:
            low += low.translate(_with_bit(place))
            high += high
        else:
            high += high.translate(_with_bit(place - 8))
            low += low
    lanes = bytearray(2 << len(successors))
    first = sys.byteorder == "big"  # the offset of a lane's low byte
    lanes[first::2] = low
    lanes[1 - first :: 2] = high
    return array("H", lanes)


_IMAGE_LIMIT = 64  # the image functions _image keeps, and a walk's memo of them


@functools.lru_cache(maxsize=_IMAGE_LIMIT)
def _image(net: PetriNet, bits: Receptivity) -> Callable[[int], int]:
    """The image of a place mask under a coerced receptivity, by table lookup.

    The successors come from the firing rule (:func:`~evinet.net._successors`).
    Up to ``_FLAT_PLACE_LIMIT`` places the image is one C-level index into the
    :func:`_flat_images` array, 8 KiB at 12 places, so no mask costs a Python
    frame and the 64 cached tables hold about 0.5 MiB. Wider masks are read a
    byte at a time: each byte indexes a 256-entry list of the union of its
    places' successors, and the image is the union over the bytes; the lists
    take about 35 KB per receptivity at 34 places, 2.2 MiB for the whole
    cache. The firing rule raises for a conflicting receptivity, so every
    cached (net, receptivity) pair has passed the conflict check.
    """
    successors = _successors(net, bits)
    if len(successors) <= _FLAT_PLACE_LIMIT:
        return _flat_images(successors).__getitem__
    tables = []
    for base in range(0, len(successors), 8):
        table = [0]
        for place in successors[base : base + 8]:
            unit = 1 << place
            table += [y | unit for y in table]
        tables.append(table)

    def image(x: int) -> int:
        y = 0
        for table in tables:
            y |= table[x & 0xFF]
            x >>= 8
        return y

    return image


def step(net: PetriNet, mass, r: Sequence[int]) -> MassVector:
    """Advance a mass distribution one observation step.

    Every focal set is transformed and its mass transferred to the image;
    masses of sets sharing an image add up. The result is normalized because
    each source set has exactly one image.
    """
    mass = _as_mass_vector(mass)
    return _advance(mass, _image(net, coerce_receptivity(net, r)), net.place_count)


def _walk(
    net: PetriNet, mass: MassVector, inputs: Iterable[Receptivity]
) -> Iterator[tuple[Receptivity, MassVector]]:
    """Each coerced receptivity of ``inputs`` with the mass after its step; the
    one run loop. Only the first step range-checks its mass, as :func:`step`
    does: every later mass is an image under the same net.

    Each distinct receptivity's image is looked up through :func:`_image` once
    per walk and kept in a dict keyed by the receptivity alone, so a repeated
    one costs one C-level lookup and never hashes or compares the net. The
    dict starts afresh past ``_IMAGE_LIMIT`` entries. All it holds was fetched
    since then, so unless other steps run between the walk's, ``_image``'s
    cache holds each of them too.
    """
    n = net.place_count
    advance = _advance
    images: dict[Receptivity, Callable[[int], int]] = {}
    for bits in inputs:
        image = images.get(bits)
        if image is None:
            if len(images) >= _IMAGE_LIMIT:
                images.clear()
            image = images[bits] = _image(net, bits)
        mass = advance(mass, image, n)
        advance = _transfer
        yield bits, mass


def run(net: PetriNet, initial, inputs: Iterable[Sequence[int]]) -> Trajectory:
    """Step through a receptivity sequence as :func:`step` does, coercing each
    receptivity once and keeping its bits and every intermediate mass.

    The first rejected receptivity aborts the run; the raised
    :class:`~evinet.errors.TrajectoryError` carries its position and cause.
    """
    current = _as_mass_vector(initial)
    steps: list[tuple[Receptivity, MassVector]] = []
    try:
        for pair in _walk(net, current, map(coerce_receptivity, repeat(net), inputs)):
            steps.append(pair)
    except Exception as exc:
        raise TrajectoryError(len(steps), exc) from exc
    return Trajectory(initial=current, steps=tuple(steps))
