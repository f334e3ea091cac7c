"""Single-token Petri net structure, validation, and classic marking evolution.

A net is a set of places and transitions with 0/1 incidence matrices. ``pre[i][j]``
is the arc from place i to transition j, ``post[i][j]`` the arc from transition j
to place i (rows are places, columns are transitions). The nets handled here are
state machines carrying exactly one token: every transition consumes from exactly
one place and produces into exactly one other place, so every column of
``post - pre`` sums to zero and a token count of one is preserved by firing.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import ConflictError, DimensionError, InvalidNetError

# A receptivity is one observation bit per transition: 1 means the transition's
# event occurred and it may fire, 0 means it may not.
Receptivity = tuple[int, ...]

# A classic marking is one 0/1 token indicator per place, summing to 1.
ClassicMarking = tuple[int, ...]

Matrix = tuple[tuple[int, ...], ...]

# Default cap on the places and transitions of a net whose transfer table is
# built. Defined here, not in ``table``, so that importing the CLI does not
# load the table module.
DEFAULT_SIZE_CAP = 16


def _as_matrix(rows, n: int, m: int, label: str) -> Matrix:
    out = []
    for i, row in enumerate(rows):
        raw = tuple(row)
        row = _integral(raw)
        if row is None:
            raise ValueError(f"{label} row {i} entries must be integers, got {raw}")
        if len(row) != m:
            raise ValueError(
                f"{label} row {i} has {len(row)} entries, expected {m} (one per transition)"
            )
        out.append(row)
    if len(out) != n:
        raise ValueError(f"{label} has {len(out)} rows, expected {n} (one per place)")
    return tuple(out)


class _RecordType(type):
    """The class of a record type: the fields its body annotates are, in order,
    its slots and its ``__match_args__``, and a value given to one is its default."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = fields + tuple(namespace.get("__slots__", ()))
        namespace["__match_args__"] = fields
        return super().__new__(mcs, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """An immutable record, built from its fields by position or by name, equal
    to a record of its own class with equal fields, hashed as their tuple, and
    pickled by building it again, so a hash it keeps is computed afresh."""

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        given = dict(zip(names, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}; got {len(args)}"
                            f" by position and {', '.join(kwargs) or 'none'} by name")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class PetriNet(_Record):
    """Immutable place/transition net with incidence matrices.

    Construction only checks shapes; structural soundness is reported by
    :func:`validate_net` so that candidate matrices can be inspected. The
    hash is computed once: nets key the memoized derived wiring, and a step
    looks its net up once, in ``engine._image``.
    """

    __slots__ = ("_hash",)

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: Matrix
    post: Matrix
    name: str = "net"

    def __init__(self, places, transitions, pre, post, name="net"):
        places = tuple(str(p) for p in places)
        transitions = tuple(str(t) for t in transitions)
        if not places:
            raise ValueError("a net needs at least one place")
        n, m = len(places), len(transitions)
        pre, post = _as_matrix(pre, n, m, "pre"), _as_matrix(post, n, m, "post")
        super().__init__(places, transitions, pre, post, name)
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def place_count(self) -> int:
        return len(self.places)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def place_index(self, name: str) -> int:
        return self.places.index(name)

    def transition_index(self, name: str) -> int:
        return self.transitions.index(name)


class Violation(_Record):
    """One violated structural invariant, with the offending indices."""

    kind: str
    message: str
    place: int | None = None
    transition: int | None = None


class ValidationReport(_Record):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ConflictSet(_Record):
    """A place with two or more output transitions; they compete for its token."""

    place: int
    transitions: frozenset[int]


class ReceptivityConflict(_Record):
    """A conflict set whose members are simultaneously true in a receptivity vector."""

    place: int
    true_transitions: frozenset[int]


def validate_net(net: PetriNet) -> ValidationReport:
    """Check every structural invariant; violations are returned, never raised."""
    n, m = net.place_count, net.transition_count
    found: list[Violation] = []

    if m < 1:
        found.append(Violation("size", "net has no transitions"))

    seen: dict[str, str] = {}
    for kind, names in (("place", net.places), ("transition", net.transitions)):
        for name in names:
            if name in seen:
                found.append(
                    Violation("duplicate-name", f"name {name!r} declared more than once")
                )
            seen[name] = kind

    for matrix, label in ((net.pre, "pre"), (net.post, "post")):
        for i in range(n):
            for j in range(m):
                if matrix[i][j] not in (0, 1):
                    found.append(
                        Violation(
                            "entry-range",
                            f"{label}[{i}][{j}] is {matrix[i][j]}, expected 0 or 1",
                            place=i,
                            transition=j,
                        )
                    )

    for j in range(m):
        pre_ones = [i for i in range(n) if net.pre[i][j] != 0]
        post_ones = [i for i in range(n) if net.post[i][j] != 0]
        total = sum(net.post[i][j] - net.pre[i][j] for i in range(n))
        if total != 0:
            found.append(
                Violation(
                    "conservation",
                    f"column {j} of post - pre sums to {total}",
                    transition=j,
                )
            )
        if len(pre_ones) != 1:
            found.append(
                Violation(
                    "pre-column",
                    f"column {j} of pre has {len(pre_ones)} nonzero entries, expected exactly one 1",
                    transition=j,
                )
            )
        if len(post_ones) != 1:
            found.append(
                Violation(
                    "post-column",
                    f"column {j} of post has {len(post_ones)} nonzero entries, expected exactly one 1",
                    transition=j,
                )
            )
        if len(pre_ones) == 1 and len(post_ones) == 1 and pre_ones[0] == post_ones[0]:
            found.append(
                Violation(
                    "self-loop",
                    f"transition {j} loops on place {pre_ones[0]}",
                    place=pre_ones[0],
                    transition=j,
                )
            )

    return ValidationReport(tuple(found))


class _Structure(_Record):
    """Derived wiring of a valid net: unique pre/post place per transition."""

    pre_place: tuple[int, ...]
    post_place: tuple[int, ...]
    outputs: tuple[frozenset[int], ...]  # per place, its output transitions
    conflicts: tuple[ConflictSet, ...]  # the places with two or more outputs


@functools.lru_cache(maxsize=1024)
def _structure(net: PetriNet) -> _Structure:
    report = validate_net(net)
    if not report.ok:
        raise InvalidNetError(report)
    n, m = net.place_count, net.transition_count
    pre_place = tuple(next(i for i in range(n) if net.pre[i][j]) for j in range(m))
    post_place = tuple(next(i for i in range(n) if net.post[i][j]) for j in range(m))
    outputs = tuple(
        frozenset(j for j in range(m) if pre_place[j] == i) for i in range(n)
    )
    conflicts = tuple(
        ConflictSet(place=i, transitions=outs) for i, outs in enumerate(outputs) if len(outs) >= 2
    )
    return _Structure(pre_place, post_place, outputs, conflicts)


@functools.lru_cache(maxsize=1024)
def _successors(net: PetriNet, bits: Receptivity) -> tuple[int, ...]:
    """Each place's successor under a coerced receptivity: the firing rule.

    A place moves through its one true output transition and stays put when
    it has none. A second true output of a place that has already moved is a
    conflict: the receptivity raises :class:`ConflictError`, with every
    conflict :func:`check_receptivity` reports. Memoized; the cache keeps no
    exception, so a rejected receptivity is rejected again on every call.
    """
    s = _structure(net)
    succ = list(range(net.place_count))
    for place, target, bit in zip(s.pre_place, s.post_place, bits):
        if bit:
            if succ[place] != place:  # a valid net has no self-loop
                raise ConflictError(check_receptivity(net, bits))
            succ[place] = target
    return tuple(succ)


def _integral(raw: tuple | frozenset) -> tuple | frozenset | None:
    """``raw`` with each value as an int, or None when a value is fractional.

    The rule for place indices, incidence entries and markings, as for the
    bits of :func:`_coerce_bits`: ints, bools, numpy integers and integral
    floats pass, and a fractional value such as 0.5 is rejected, not
    truncated, as is a value ``int`` cannot convert, such as an infinite or
    NaN float. All values are checked by one comparison, with no Python loop.
    """
    try:
        ints = type(raw)(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == raw else None


_BINARY = frozenset((0, 1))


def _coerce_bits(r: Sequence[int], width: int, spans: str) -> Receptivity:
    """Normalize a receptivity to a tuple of ``width`` 0/1 bits.

    Bits may be ints, bools, numpy integers, integral floats or the strings
    ``"0"`` and ``"1"``; a fractional bit such as 0.5 is rejected, not truncated,
    as is a bit ``int`` cannot convert, such as an infinite float. ``spans``
    completes the length error with ``width`` in place of ``{}``, as in
    ``"net has {} transitions"``.
    """
    raw = tuple(r)
    try:
        bits = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        bits = None
    if len(raw) != width:
        raise DimensionError(f"receptivity has {len(raw)} bits, {spans.format(width)}")
    if bits is None or not _BINARY.issuperset(bits) or (
        bits != raw and any(type(b) is not str and b != c for b, c in zip(raw, bits))
    ):
        raise ValueError(f"receptivity bits must be 0 or 1, got {raw}")
    return bits


def coerce_receptivity(net: PetriNet, r: Sequence[int]) -> Receptivity:
    """Normalize a receptivity to a 0/1 tuple of the net's transition count."""
    return _coerce_bits(r, net.transition_count, "net has {} transitions")


def detect_conflicts(net: PetriNet) -> tuple[ConflictSet, ...]:
    """All places whose token is contested by two or more output transitions."""
    return _structure(net).conflicts


def check_receptivity(net: PetriNet, r: Sequence[int]) -> tuple[ReceptivityConflict, ...]:
    """Report every conflict set with two or more simultaneously true members.

    The constraint is global: a vector is rejected even when no token sits at
    the conflict place, matching the classic-net firing rule. ``r`` is
    coerced first. The firing rule (:func:`_successors`) finds conflicts on
    its own and calls this only to report a receptivity it rejects.
    """
    bits = coerce_receptivity(net, r)
    violations = []
    for cs in detect_conflicts(net):
        true = frozenset(t for t in cs.transitions if bits[t])
        if len(true) >= 2:
            violations.append(ReceptivityConflict(place=cs.place, true_transitions=true))
    return tuple(violations)


def enabled_transitions(net: PetriNet, place: int, r: Sequence[int]) -> frozenset[int]:
    """Output transitions of ``place`` whose receptivity bit is true."""
    s = _structure(net)
    if not 0 <= place < net.place_count:
        raise IndexError(f"place index {place} out of range for {net.place_count} places")
    bits = coerce_receptivity(net, r)
    return frozenset(t for t in s.outputs[place] if bits[t])


def _coerce_marking(net: PetriNet, marks: Sequence[int]) -> ClassicMarking:
    raw = tuple(marks)
    vec = _integral(raw)
    if vec is None:
        raise ValueError(f"marking entries must be integers, got {raw}")
    if len(vec) != net.place_count:
        raise DimensionError(
            f"marking has {len(vec)} entries, net has {net.place_count} places"
        )
    if any(v not in (0, 1) for v in vec) or sum(vec) != 1:
        raise ValueError(f"marking must hold exactly one token, got {vec}")
    return vec


def classic_step(net: PetriNet, marks: Sequence[int], r: Sequence[int]) -> ClassicMarking:
    """Advance a known marking one step: fire the enabled true transitions.

    Only transitions that are both true in ``r`` and have their pre-place marked
    fire; a marked place with no enabled output keeps its token. Applying the
    incidence update to all true transitions regardless of enabling would drive
    marks negative, so the enabling restriction is part of the stepping rule.
    """
    vec = _coerce_marking(net, marks)
    out = [0] * net.place_count
    out[_successors(net, coerce_receptivity(net, r))[vec.index(1)]] = 1
    return tuple(out)
