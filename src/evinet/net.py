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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PetriNet:
    """Immutable place/transition net with incidence matrices.

    Construction only checks shapes; structural soundness is reported by
    :func:`validate_net` so that candidate matrices can be inspected. The
    hash is computed once: nets key the memoized derived wiring, looked up
    several times per step.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: Matrix
    post: Matrix
    name: str = "net"

    def __post_init__(self):
        places = tuple(str(p) for p in self.places)
        transitions = tuple(str(t) for t in self.transitions)
        if not places:
            raise ValueError("a net needs at least one place")
        n, m = len(places), len(transitions)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "pre", _as_matrix(self.pre, n, m, "pre"))
        object.__setattr__(self, "post", _as_matrix(self.post, n, m, "post"))
        fields = (self.places, self.transitions, self.pre, self.post, self.name)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is recomputed in the new process
        return (PetriNet, (self.places, self.transitions, self.pre, self.post, self.name))

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


@dataclass(frozen=True)
class Violation:
    """One violated structural invariant, with the offending indices."""

    kind: str
    message: str
    place: int | None = None
    transition: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ConflictSet:
    """A place with two or more output transitions; they compete for its token."""

    place: int
    transitions: frozenset[int]


@dataclass(frozen=True)
class ReceptivityConflict:
    """A conflict set whose members are simultaneously true in a receptivity vector."""

    place: int
    true_transitions: frozenset[int]


@functools.lru_cache(maxsize=1024)
def _validate(net: PetriNet) -> ValidationReport:
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


def validate_net(net: PetriNet) -> ValidationReport:
    """Check every structural invariant; violations are returned, never raised."""
    return _validate(net)


def _require_valid(net: PetriNet) -> None:
    report = _validate(net)
    if not report.ok:
        raise InvalidNetError(report)


@dataclass(frozen=True)
class _Structure:
    """Derived wiring of a valid net: unique pre/post place per transition."""

    pre_place: tuple[int, ...]
    post_place: tuple[int, ...]
    outputs: tuple[frozenset[int], ...]  # per place, its output transitions


@functools.lru_cache(maxsize=1024)
def _structure(net: PetriNet) -> _Structure:
    _require_valid(net)
    n, m = net.place_count, net.transition_count
    pre_place = tuple(next(i for i in range(n) if net.pre[i][j]) for j in range(m))
    post_place = tuple(next(i for i in range(n) if net.post[i][j]) for j in range(m))
    outputs = tuple(
        frozenset(j for j in range(m) if pre_place[j] == i) for i in range(n)
    )
    return _Structure(pre_place, post_place, outputs)


@functools.lru_cache(maxsize=1024)
def _successors(net: PetriNet, bits: Receptivity) -> tuple[int, ...]:
    """Each place's successor under an admissible receptivity.

    A place moves through its true output transition, of which the conflict
    check leaves at most one, and stays put when it has none. Memoized: a
    stream repeats a few receptivities, and on a small net building the list
    costs as much as the step's own loop.
    """
    s = _structure(net)
    succ = list(range(net.place_count))
    for t, place in enumerate(s.pre_place):
        if bits[t]:
            succ[place] = s.post_place[t]
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


def coerce_receptivity(net: PetriNet, r: Sequence[int]) -> Receptivity:
    """Normalize a receptivity to a 0/1 tuple of the net's transition count."""
    return _coerce_bits(r, net.transition_count, "net has {} transitions")


@functools.lru_cache(maxsize=1024)
def detect_conflicts(net: PetriNet) -> tuple[ConflictSet, ...]:
    """All places whose token is contested by two or more output transitions."""
    s = _structure(net)
    return tuple(
        ConflictSet(place=i, transitions=outs)
        for i, outs in enumerate(s.outputs)
        if len(outs) >= 2
    )


def _is_normalized(net: PetriNet, r) -> bool:
    return type(r) is tuple and len(r) == net.transition_count and set(r) <= {0, 1}


def check_receptivity(net: PetriNet, r: Sequence[int]) -> tuple[ReceptivityConflict, ...]:
    """Report every conflict set with two or more simultaneously true members.

    The constraint is global: a vector is rejected even when no token sits at
    the conflict place, matching the classic-net firing rule. A tuple of 0/1
    bits of the right length is checked as it is, without a coerced copy.
    """
    bits = r if _is_normalized(net, r) else coerce_receptivity(net, r)
    violations = []
    for cs in detect_conflicts(net):
        true = frozenset(t for t in cs.transitions if bits[t])
        if len(true) >= 2:
            violations.append(ReceptivityConflict(place=cs.place, true_transitions=true))
    return tuple(violations)


def require_admissible(net: PetriNet, r: Sequence[int]) -> Receptivity:
    """Coerce ``r`` once and raise :class:`ConflictError` unless it passes the conflict check."""
    bits = coerce_receptivity(net, r)
    violations = check_receptivity(net, bits)
    if violations:
        raise ConflictError(violations)
    return bits


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
    bits = require_admissible(net, r)
    out = [0] * net.place_count
    out[_successors(net, bits)[vec.index(1)]] = 1
    return tuple(out)
