"""Textual formats: net documents, receptivity streams, and mass records.

Net document grammar (one directive per line, ``#`` starts a comment):

    # format: evinet v1
    net fig1
    places: P1, P2, P3
    transitions: t1, t2, t3
    arc: P1 -> t1
    arc: t1 -> P2

Arcs run place-to-transition (filling ``pre``) or transition-to-place
(filling ``post``). A receptivity stream holds one line of 0/1 tokens per
step. A mass record lists focal sets against declared place names, e.g.
``{P1}:0.5 {P2,P3}:0.5``; the dense form is the full canonical-order vector,
``[0,0,0,0,1,0,0]``.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, Sequence

from .errors import InvalidNetError, MassError, ParseError
from .engine import (
    _FLAT_PLACE_LIMIT,
    DENSE_PLACE_LIMIT,
    MassVector,
    PlaceSet,
    _MaskMasses,
    _Memo,
    _dense_masks,
    _mask,
    _mass_in_range,
    _members,
)
from .net import PetriNet, Receptivity, _Record, _structure

FORMAT_HEADER = "# format: evinet v1"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ARC = re.compile(r"(\S+)\s*->\s*(\S+)\Z")
_MASS_TOKEN = re.compile(r"\{([^{}]*)\}:(\S+)\Z")
# a place name a sparse mass record can hold: no whitespace, comma or brace
_MASS_NAME = re.compile(r"[^\s,{}]+\Z")


class NetDocument(_Record):
    """Parsed form of a net document: declarations plus arcs in source order."""

    name: str
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_names(body: str, line_no: int, what: str) -> tuple[str, ...]:
    names = body.replace(",", " ").split()
    for name in names:
        if not _IDENT.match(name):
            raise ParseError(f"invalid {what} name {name!r}", line_no)
    return tuple(names)


def _parse_lines(text: str):
    name = None
    places: tuple[str, ...] | None = None
    transitions: tuple[str, ...] | None = None
    arc_lines: dict[tuple[str, str], int] = {}
    decl_line = {"places": 0, "transitions": 0}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "net" or not _IDENT.match(parts[1]):
                raise ParseError("expected a 'net <name>' header", line_no)
            name = parts[1]
            continue
        directive, sep, body = line.partition(":")
        directive = directive.strip()
        if not sep:
            raise ParseError(f"unrecognized directive {line!r}", line_no)
        if directive == "places":
            if places is not None:
                raise ParseError("places declared twice", line_no)
            places = _split_names(body, line_no, "place")
            if not places:
                raise ParseError("a net needs at least one place", line_no)
            decl_line["places"] = line_no
        elif directive == "transitions":
            if transitions is not None:
                raise ParseError("transitions declared twice", line_no)
            transitions = _split_names(body, line_no, "transition")
            decl_line["transitions"] = line_no
        elif directive == "arc":
            if places is None or transitions is None:
                raise ParseError(
                    "arcs must come after the places and transitions declarations",
                    line_no,
                )
            match = _ARC.match(body.strip())
            if not match:
                raise ParseError(f"expected 'arc: A -> B', got {body.strip()!r}", line_no)
            src, dst = match.group(1), match.group(2)
            for endpoint in (src, dst):
                if endpoint not in places and endpoint not in transitions:
                    column = raw.index(endpoint) + 1
                    raise ParseError(
                        f"undeclared identifier {endpoint!r}", line_no, column
                    )
            src_is_place = src in places
            dst_is_place = dst in places
            if src_is_place == dst_is_place:
                raise ParseError(
                    "an arc must link one place and one transition", line_no
                )
            if (src, dst) in arc_lines:
                raise ParseError(f"duplicate arc {src} -> {dst}", line_no)
            arc_lines[(src, dst)] = line_no
        else:
            raise ParseError(f"unrecognized directive {directive!r}", line_no)

    if name is None:
        raise ParseError("empty document, expected a 'net <name>' header", 1)
    if places is None:
        raise ParseError("missing places declaration", 1)
    if transitions is None:
        raise ParseError("missing transitions declaration", 1)
    doc = NetDocument(name=name, places=places, transitions=transitions, arcs=tuple(arc_lines))
    return doc, arc_lines, decl_line


def parse_document(text: str) -> NetDocument:
    """Parse a net document without judging its structural soundness."""
    doc, _, _ = _parse_lines(text)
    return doc


def document_to_net(doc: NetDocument) -> PetriNet:
    """Build the incidence matrices; the result may still fail validation."""
    n, m = len(doc.places), len(doc.transitions)
    place_idx = {p: i for i, p in enumerate(doc.places)}
    trans_idx = {t: j for j, t in enumerate(doc.transitions)}
    pre = [[0] * m for _ in range(n)]
    post = [[0] * m for _ in range(n)]
    for src, dst in doc.arcs:
        if src in place_idx:
            pre[place_idx[src]][trans_idx[dst]] = 1
        else:
            post[place_idx[dst]][trans_idx[src]] = 1
    return PetriNet(
        places=doc.places,
        transitions=doc.transitions,
        pre=tuple(map(tuple, pre)),
        post=tuple(map(tuple, post)),
        name=doc.name,
    )


def parse_net(text: str) -> PetriNet:
    """Parse a net document into a structurally valid net.

    Structural violations raise :class:`~evinet.errors.ParseError` pointing at
    the arc or declaration that causes them.
    """
    doc, arc_lines, decl_line = _parse_lines(text)
    net = document_to_net(doc)
    try:
        _structure(net)  # the one validation: steps and tables reuse the cached wiring
        return net
    except InvalidNetError as exc:
        report = exc.report

    def blame(violation) -> int:
        if violation.transition is not None:
            t = doc.transitions[violation.transition]
            lines = [ln for (a, b), ln in arc_lines.items() if t in (a, b)]
            return min(lines, default=decl_line["transitions"])
        # no transitions, or a repeated name: places are checked first, so the
        # first repeat is a place's when any place name repeats
        if violation.kind == "duplicate-name" and len(set(doc.places)) < len(doc.places):
            return decl_line["places"]
        return decl_line["transitions"]

    first = report.violations[0]
    rest = len(report.violations) - 1
    suffix = f" (and {rest} more violation{'s' if rest > 1 else ''})" if rest else ""
    raise ParseError(f"invalid net: {first.message}{suffix}", blame(first))


def serialize_net(net: PetriNet) -> str:
    """Canonical document: declarations in order, arcs grouped per transition.

    Raises :class:`ValueError` naming the first name, in document order, that
    the grammar cannot hold, such as ``""`` or ``"a b"``: :class:`PetriNet`
    accepts any name, but :func:`parse_net` only identifiers.
    """
    for name in (net.name, *net.places, *net.transitions):
        if not _IDENT.match(name):
            raise ValueError(f"cannot serialize name {name!r}: not an identifier")
    lines = [
        FORMAT_HEADER,
        f"net {net.name}",
        "places: " + ", ".join(net.places),
        "transitions: " + ", ".join(net.transitions),
    ]
    for j, t in enumerate(net.transitions):
        for i, p in enumerate(net.places):
            if net.pre[i][j]:
                lines.append(f"arc: {p} -> {t}")
        for i, p in enumerate(net.places):
            if net.post[i][j]:
                lines.append(f"arc: {t} -> {p}")
    return "\n".join(lines) + "\n"


_BITS = {"0": 0, "1": 1}


def parse_receptivity_line(
    line: str, transition_count: int, line_no: int = 1
) -> Receptivity | None:
    """One stream line to a receptivity, or None for blank/comment lines."""
    body = _strip_comment(line).strip()
    if not body:
        return None
    # commas and whitespace separate tokens; ``str.split`` drops the empties
    tokens = body.replace(",", " ").split()
    if len(tokens) != transition_count:
        raise ParseError(
            f"expected {transition_count} receptivity bits, got {len(tokens)}", line_no
        )
    try:
        return tuple(map(_BITS.__getitem__, tokens))
    except KeyError as exc:  # the first token that is not a bit
        raise ParseError(f"non-binary token {exc.args[0]!r}", line_no) from None


def parse_receptivity_stream(
    lines: Iterable[str] | str, transition_count: int
) -> tuple[Receptivity, ...]:
    """All receptivities of a stream, in order; blanks and comments skipped."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    out = []
    for line_no, line in enumerate(lines, start=1):
        bits = parse_receptivity_line(line, transition_count, line_no)
        if bits is not None:
            out.append(bits)
    return tuple(out)


def _place_names(places: int | Sequence[str]) -> tuple[str, ...]:
    if isinstance(places, int):
        return tuple(f"P{i + 1}" for i in range(places))
    return tuple(places)


def format_place_set(places: PlaceSet, names: int | Sequence[str]) -> str:
    """The set-literal form used by mass records, e.g. ``{P1,P3}``.

    An index that is negative or has no name raises :class:`ValueError`.
    """
    labels = _place_names(names)
    members = frozenset(places)
    if not all(0 <= i < len(labels) for i in members):
        raise ValueError(f"place set {sorted(members)} out of range for {len(labels)} places")
    return _mask_labels(labels)[_mask(members)]


# Masses lie in [0, 1], so 0 and 1 are the only whole numbers a record
# prints, without a fraction; every other mass prints as its repr.
_WHOLE = {0.0: "0", 1.0: "1"}


def _mass_text(value: float) -> str:
    return _WHOLE.get(value) or repr(value)


@functools.lru_cache(maxsize=4)
def _mask_labels(names: tuple[str, ...]) -> list[str] | _Memo:
    """The set literal of each place mask over ``names``, indexed by mask.

    Up to ``_FLAT_PLACE_LIMIT`` names this is :func:`_all_mask_labels`' list of
    every label, 4096 at 12 places; wider, it is a :class:`~evinet.engine._Memo`
    that labels each mask on first use and keeps at most 8192. Four name
    tuples are kept.
    """
    if len(names) <= _FLAT_PLACE_LIMIT:
        return _all_mask_labels(names)
    return _Memo(lambda mask: "{" + ",".join([names[i] for i in _members(mask)]) + "}")


def _all_mask_labels(names: Sequence[str]) -> list[str]:
    """The set literal of every mask over ``names``, indexed by mask.

    A whole table of more than ``_FLAT_PLACE_LIMIT`` places labels each mask
    once, so it calls this directly: through :func:`_mask_labels` it would
    evict the labels a run keeps.
    """
    labels = ["{}"]
    for name in names:
        # the masks whose highest place is this one: it alone, then each lower
        # nonempty mask (by index, so an empty name keeps its comma) plus it
        labels += [f"{{{name}}}", *[f"{label[:-1]},{name}}}" for label in labels[1:]]]
    return labels


def _mass_serializer(
    places: int | Sequence[str], form: str
) -> Callable[[MassVector], str]:
    """:func:`serialize_mass` with ``places`` and ``form`` fixed, for the records
    of one run; each mass value's text is made once, in a ``_Memo`` of its own.
    A sparse record adds each focal set's label to its mass text, which holds
    the ``:`` between them. A dense record copies a row of ``"0"`` texts and
    fills the slot of each focal set, so it costs one write per focal set, not
    one per column.

    That memo stays small: each source set has exactly one image, so a step
    merging m sources drops the focal count by m - 1 and makes one new float,
    and ``0.0 + v == v`` carries every other mass over unchanged. A run from k
    focal sets meets at most 2k - 1 distinct masses, so the memo holds at most
    2k - 1 texts. No writer checks a place range: a run writes only masses of
    its own net.
    """
    names = _place_names(places)
    n = len(names)
    if form == "sparse":
        for name in names:
            if not _MASS_NAME.match(name):
                raise ValueError(f"cannot serialize name {name!r}: a mass record cannot hold it")
        labels, texts = _mask_labels(names), _Memo(lambda value: ":" + _mass_text(value))

        def sparse(mass: MassVector) -> str:
            return " ".join([labels[x] + texts[v] for x, v in mass._masses.items()])

        return sparse
    if form == "dense":
        if n > DENSE_PLACE_LIMIT:
            raise ValueError(
                f"dense records are limited to {DENSE_PLACE_LIMIT} places, got {n}"
            )
        slots, texts = _dense_masks(n), _Memo(_mass_text)
        zeros = ["0"] * len(slots)

        def dense(mass: MassVector) -> str:
            row = zeros.copy()
            for x, v in mass._masses.items():
                row[slots[x]] = texts[v]
            return "[" + ",".join(row) + "]"

        return dense
    raise ValueError(f"unknown mass record form {form!r}")


def serialize_mass(
    mass: MassVector, places: int | Sequence[str], form: str = "sparse"
) -> str:
    """A one-line mass record.

    ``sparse`` lists focal sets in canonical order (``{P1}:0.5 {P2}:0.5``);
    ``dense`` is the full canonical-order vector, available for up to
    ``DENSE_PLACE_LIMIT`` places. A sparse record raises :class:`ValueError`
    naming the first place name, in place order, that :func:`parse_mass`
    could not read back: an empty one, or one holding whitespace, ``,``,
    ``{`` or ``}``.
    """
    write = _mass_serializer(places, form)
    mass._check_places(len(_place_names(places)))
    return write(mass)


def parse_mass(text: str, places: int | Sequence[str], line_no: int = 1) -> MassVector:
    """Parse a sparse mass record against the declared place names.

    Each focal set may be named once; naming one twice is a :class:`ParseError`.
    A mass outside [0, 1] is one too, naming its set as the record wrote it.
    Each set is read straight to its mask; the constructor checks the sum.
    """
    names = _place_names(places)
    units = {p: 1 << i for i, p in enumerate(names)}
    masses: dict[int, float] = {}
    tokens = text.split()
    if not tokens:
        raise ParseError("empty mass record", line_no)
    for token in tokens:
        match = _MASS_TOKEN.match(token)
        if not match:
            raise ParseError(f"expected '{{P,..}}:mass', got {token!r}", line_no)
        try:  # a token holds no whitespace, so its members need no strip
            mask = sum(set(map(units.__getitem__, filter(None, match.group(1).split(",")))))
        except KeyError as exc:  # the first member that is not a place
            raise ParseError(f"unknown place {exc.args[0]!r}", line_no) from None
        if not mask:
            raise ParseError("a focal set cannot be empty", line_no)
        try:
            value = float(match.group(2))
        except ValueError:
            raise ParseError(f"bad mass value {match.group(2)!r}", line_no) from None
        if mask in masses:
            label = format_place_set(_members(mask), names)
            raise ParseError(f"focal set {label} is named twice", line_no)
        masses[mask] = value
    # each token added one set, so the masses run in token order
    for token, value in zip(tokens, masses.values()):
        if not _mass_in_range(value):
            written = token[: token.index("}") + 1]
            message = f"bad mass record: mass {value!r} for {written} outside [0, 1]"
            raise ParseError(message, line_no)
    try:
        return MassVector(_MaskMasses({x: value for x, value in masses.items() if value}))
    except MassError as exc:
        raise ParseError(f"bad mass record: {exc}", line_no) from exc
