"""Belief evolution over sets of places.

When the initial place is unknown, the state is a mass distribution over
nonempty sets of places: mass on a set means the token is somewhere in it,
with no commitment to a particular member. Each observation step transforms
every hypothesis set through the net and transfers its mass to the image set,
so total belief is conserved and ignorance narrows as events arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MassError, TrajectoryError
from .net import (
    PetriNet,
    Receptivity,
    _integral,
    _successors,
    coerce_receptivity,
    require_admissible,
)

# Masses must sum to 1 within this tolerance; inputs outside it are rejected
# rather than renormalized, so caller bugs stay visible.
NORMALIZATION_TOL = 1e-9

PlaceSet = frozenset[int]


def place_set_key(places: PlaceSet) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: ascending cardinality, then lexicographic indices."""
    members = tuple(sorted(places))
    return (len(members), members)


def place_sets(n: int) -> Iterator[PlaceSet]:
    """All nonempty subsets of ``range(n)`` in canonical order."""
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            yield frozenset(combo)


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


class MassVector(Mapping):
    """Normalized mass distribution over nonempty sets of place indices.

    Keys with zero mass are dropped, so the stored sets are exactly the focal
    elements, and pairs naming the same set are merged by adding their
    masses. Instances are immutable; iteration is in canonical set order.
    """

    __slots__ = ("_masses",)

    def __init__(self, masses: Mapping | Iterable[tuple[Iterable[int], float]]):
        pairs = masses.items() if isinstance(masses, Mapping) else masses
        collected: dict[PlaceSet, float] = {}
        for key, value in pairs:
            raw = frozenset(key)
            members = _integral(raw)
            if members is None:
                raise MassError(f"place indices must be integers, got {set(raw)}")
            if not members:
                raise MassError("the empty set cannot carry mass")
            if any(i < 0 for i in members):
                raise MassError(f"negative place index in {sorted(members)}")
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise MassError(f"mass {value!r} for {set(members)} outside [0, 1]")
            if value:
                collected[members] = collected.get(members, 0.0) + value
        total = math.fsum(collected.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise MassError(
                f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
            )
        self._masses = collected

    def __getitem__(self, key) -> float:
        return self._masses[frozenset(key)]

    def __iter__(self) -> Iterator[PlaceSet]:
        return iter(self.focal_sets())

    def __len__(self) -> int:
        return len(self._masses)

    def __contains__(self, key) -> bool:
        return frozenset(key) in self._masses

    def __eq__(self, other) -> bool:
        if isinstance(other, MassVector):
            return self._masses == other._masses
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(
            f"{{{', '.join(map(str, sorted(x)))}}}: {self._masses[x]!r}"
            for x in self.focal_sets()
        )
        return f"MassVector({{{body}}})"

    def focal_sets(self) -> tuple[PlaceSet, ...]:
        return tuple(sorted(self._masses, key=place_set_key))

    def mass(self, places: Iterable[int]) -> float:
        """Mass of a set, zero when it is not focal."""
        return self._masses.get(frozenset(places), 0.0)

    def is_categorical(self) -> bool:
        """True when all belief sits on a single set."""
        return len(self._masses) == 1 and next(iter(self._masses.values())) == 1.0

    def allclose(self, other: "MassVector", tol: float = NORMALIZATION_TOL) -> bool:
        keys = set(self._masses) | set(other._masses)
        return all(abs(self.mass(k) - other.mass(k)) <= tol for k in keys)

    def dense(self, n: int) -> tuple[float, ...]:
        """Masses over all nonempty subsets of ``range(n)`` in canonical order."""
        if any(i >= n for x in self._masses for i in x):
            raise ValueError(f"mass vector has place indices beyond {n} places")
        return tuple(self.mass(x) for x in place_sets(n))

    @classmethod
    def categorical(cls, places: Iterable[int]) -> "MassVector":
        return cls({frozenset(places): 1.0})


def _as_mass_vector(mass) -> MassVector:
    return mass if isinstance(mass, MassVector) else MassVector(mass)


@dataclass(frozen=True)
class Trajectory:
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
    bits = require_admissible(net, r)
    members = _coerce_place_set(x, net.place_count)
    return frozenset(map(_successors(net, bits).__getitem__, members))


def _advance(mass: MassVector, image: Callable[[PlaceSet], PlaceSet], n: int) -> MassVector:
    """Transfer each focal set's mass to its image; the one loop behind every step.

    Sources are walked in canonical order, so masses sharing an image add up
    in the same order, and bit for bit the same floats, whatever computes the
    image. Each source is range-checked against ``n`` places first.
    """
    masses = mass._masses
    out: dict[PlaceSet, float] = {}
    for x in mass.focal_sets():
        y = image(_coerce_place_set(x, n))
        out[y] = out.get(y, 0.0) + masses[x]
    return MassVector(out)


def step(net: PetriNet, mass, r: Sequence[int]) -> MassVector:
    """Advance a mass distribution one observation step.

    Every focal set is transformed and its mass transferred to the image;
    masses of sets sharing an image add up. The result is normalized because
    each source set has exactly one image.
    """
    mass = _as_mass_vector(mass)
    successor = _successors(net, require_admissible(net, r)).__getitem__
    return _advance(mass, lambda x: frozenset(map(successor, x)), net.place_count)


def run(net: PetriNet, initial, inputs: Iterable[Sequence[int]]) -> Trajectory:
    """Fold :func:`step` over a receptivity sequence, keeping every intermediate mass.

    The first rejected receptivity aborts the run; the raised
    :class:`~evinet.errors.TrajectoryError` carries its position and cause.
    """
    current = _as_mass_vector(initial)
    steps: list[tuple[Receptivity, MassVector]] = []
    trajectory_initial = current
    for index, r in enumerate(inputs):
        try:
            bits = coerce_receptivity(net, r)
            current = step(net, current, bits)
        except Exception as exc:
            raise TrajectoryError(index, exc) from exc
        steps.append((bits, current))
    return Trajectory(initial=trajectory_initial, steps=tuple(steps))
