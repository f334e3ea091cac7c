from __future__ import annotations

import copy
import inspect
import random
import re
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    MassVector,
    ParseError,
    PetriNet,
    format_place_set,
    parse_document,
    parse_mass,
    parse_net,
    parse_receptivity_stream,
    serialize_mass,
    serialize_net,
    step,
)
from evinet import cli, dsl
from evinet.cli import _records
from evinet.dsl import _mask_labels, _mass_serializer, parse_receptivity_line
from evinet.engine import (
    _FLAT_PLACE_LIMIT,
    DENSE_PLACE_LIMIT,
    _Memo,
    _dense_masks,
    _members,
    _order_key,
)
from evinet.net import coerce_receptivity
from _nets import (
    FIG1_POST,
    FIG1_PRE,
    FIG2_POST,
    FIG2_PRE,
    alternating_net,
    cycle_net,
    fig1_net,
    fig2_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_mass,
    random_net,
)
from _oracle import (
    format_place_set_per_mask,
    parse_mass_frozensets,
    parse_receptivity_line_regex,
    serialize_mass_frozensets,
    serialize_mass_per_mask,
)


class TestParseNet:
    def test_fig1_document(self, data_dir, fig1):
        net = parse_net((data_dir / "fig1.evinet").read_text())
        assert net == fig1
        assert net.pre == FIG1_PRE
        assert net.post == FIG1_POST

    def test_fig2_document(self, data_dir, fig2):
        net = parse_net((data_dir / "fig2.evinet").read_text())
        assert net == fig2
        assert net.pre == FIG2_PRE
        assert net.post == FIG2_POST

    def test_undeclared_identifier(self):
        text = "net x\nplaces: P1\ntransitions: t1\narc: P9 -> t1\n"
        with pytest.raises(ParseError) as err:
            parse_net(text)
        assert err.value.line == 4
        assert "P9" in str(err.value)
        assert err.value.column is not None

    def test_duplicate_arc(self):
        text = (
            "net x\nplaces: P1, P2\ntransitions: t1\n"
            "arc: P1 -> t1\narc: t1 -> P2\narc: P1 -> t1\n"
        )
        with pytest.raises(ParseError) as err:
            parse_net(text)
        assert err.value.line == 6
        assert "duplicate arc" in str(err.value)

    def test_arc_between_two_places(self):
        text = "net x\nplaces: P1, P2\ntransitions: t1\narc: P1 -> P2\n"
        with pytest.raises(ParseError) as err:
            parse_net(text)
        assert err.value.line == 4

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_net("net x\nfoo: bar\n")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_net("places: P1\ntransitions: t1\n")

    def test_structural_violation_points_at_offending_arc(self, data_dir):
        text = (data_dir / "broken.evinet").read_text()
        with pytest.raises(ParseError) as err:
            parse_net(text)
        # the dangling transition's only arc is on line 7
        assert err.value.line == 7
        assert "post" in str(err.value) or "sums" in str(err.value)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# format: evinet v1\n\nnet tiny  # two-place loop\n"
            "places: A, B\ntransitions: u, v\n"
            "arc: A -> u\narc: u -> B\n# return arc\narc: B -> v\narc: v -> A\n"
        )
        net = parse_net(text)
        assert net.name == "tiny"
        assert net.places == ("A", "B")

    def test_document_preserves_arc_order(self, data_dir):
        doc = parse_document((data_dir / "fig2.evinet").read_text())
        assert doc.arcs[0] == ("P1", "t1")
        assert doc.arcs[2] == ("P1", "t2")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (
                "net x\nplaces: P1, P2\ntransitions: t1, t2\narc: P1 -> t1\narc: t1 -> P2\n",
                "column 1 of pre has 0 nonzero entries, expected exactly one 1"
                " (and 1 more violation)",
                3,
            ),
            (
                "net x\nplaces: P1, P1, P2\ntransitions: t1\narc: P1 -> t1\narc: t1 -> P2\n",
                "name 'P1' declared more than once",
                2,
            ),
            (
                "net x\nplaces: P1, P2\ntransitions: t1, t1\narc: P1 -> t1\narc: t1 -> P2\n",
                "name 't1' declared more than once (and 2 more violations)",
                3,
            ),
            ("net x\nplaces: P1, P2\ntransitions:\n", "net has no transitions", 3),
        ],
        ids=["unconnected-transition", "duplicate-place", "duplicate-transition",
             "no-transitions"],
    )
    def test_a_violation_without_an_arc_points_at_its_declaration(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_net(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: invalid net: {message}"

    @pytest.mark.parametrize(
        "parse, text, message, line",
        [
            (parse_net, "net x\nplaces: P1\nplaces: P2\n", "places declared twice", 3),
            (
                parse_net,
                "net x\nplaces: P1\ntransitions: t1\ntransitions: t2\n",
                "transitions declared twice",
                4,
            ),
            (
                parse_net,
                "net x\nplaces: P1, P2\narc: P1 -> t1\ntransitions: t1\n",
                "arcs must come after the places and transitions declarations",
                3,
            ),
            (
                parse_net,
                "net x\nplaces: P1, P2\ntransitions: t1\narc: P1 t1\n",
                "expected 'arc: A -> B', got 'P1 t1'",
                4,
            ),
            (
                parse_net,
                "# a comment\n\n",
                "empty document, expected a 'net <name>' header",
                1,
            ),
            (parse_net, "net x\ntransitions: t1\n", "missing places declaration", 1),
            (parse_net, "net x\nplaces: P1\n", "missing transitions declaration", 1),
            (
                parse_net,
                "net a\nplaces:\ntransitions: t1\n",
                "a net needs at least one place",
                2,
            ),
            (
                parse_document,
                "net a\n# none yet\nplaces: , \ntransitions: t1\n",
                "a net needs at least one place",
                3,
            ),
            (lambda text: parse_mass(text, 3), "{}:1", "a focal set cannot be empty", 1),
            (lambda text: parse_mass(text, 3), "{P1}:x", "bad mass value 'x'", 1),
        ],
        ids=["places-twice", "transitions-twice", "arc-before-declarations",
             "malformed-arc", "empty-document", "missing-places", "missing-transitions",
             "empty-places", "empty-places-document", "empty-focal-set", "bad-mass-value"],
    )
    def test_parse_errors_name_their_line(self, parse, text, message, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


class TestSerializeNet:
    def test_fig1_canonical_document(self, fig1):
        assert serialize_net(fig1) == (
            "# format: evinet v1\n"
            "net fig1\n"
            "places: P1, P2, P3\n"
            "transitions: t1, t2, t3\n"
            "arc: P1 -> t1\n"
            "arc: t1 -> P2\n"
            "arc: P2 -> t2\n"
            "arc: t2 -> P3\n"
            "arc: P3 -> t3\n"
            "arc: t3 -> P1\n"
        )

    def test_fig2_has_two_arcs_out_of_p1(self, fig2):
        text = serialize_net(fig2)
        assert text.count("arc: P1 -> ") == 2

    def test_round_trip_fixtures(self, fig1, fig2):
        for net in (fig1, fig2):
            assert parse_net(serialize_net(net)) == net

    def test_serialize_parse_is_idempotent(self, data_dir):
        net = parse_net((data_dir / "fig1.evinet").read_text())
        once = serialize_net(net)
        assert serialize_net(parse_net(once)) == once

    @pytest.mark.parametrize("bad", ["", "a b", "a,b"], ids=["empty", "space", "comma"])
    @pytest.mark.parametrize("where", ["place", "transition", "net"])
    def test_a_name_the_grammar_cannot_hold_is_refused(self, bad, where):
        cycle = cycle_net(3)
        places, transitions, name = cycle.places, cycle.transitions, cycle.name
        if where == "place":
            places = ("x", bad, "y")
        elif where == "transition":
            transitions = ("u", "v", bad)
        else:
            name = bad
        net = PetriNet(places, transitions, cycle.pre, cycle.post, name)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            serialize_net(net)

    def test_the_first_bad_name_in_document_order_is_named(self):
        # written out, these places would read "places: , y, x", which parse_net rejects
        cycle = cycle_net(3)
        net = PetriNet(("", "y", "x"), ("t1", "a b", "t3"), cycle.pre, cycle.post, cycle.name)
        with pytest.raises(ValueError) as err:
            serialize_net(net)
        assert str(err.value) == "cannot serialize name '': not an identifier"

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_nets(self, seed):
        # random valid nets under random identifiers, some of them directive
        # words, all distinct
        rng = random.Random(seed)
        base = random_net(rng)
        first = "_abcxyzABCXYZ"
        pool = {"net", "arc", "places", "transitions", "_", "P1", "t1"}
        while len(pool) < 40:
            pool.add(rng.choice(first) + "".join(
                rng.choice(first + "0123456789") for _ in range(rng.randrange(6))
            ))
        names = rng.sample(sorted(pool), base.place_count + base.transition_count + 1)
        net = PetriNet(
            places=tuple(names[: base.place_count]),
            transitions=tuple(names[base.place_count : -1]),
            pre=base.pre,
            post=base.post,
            name=names[-1],
        )
        assert parse_net(serialize_net(net)) == net


class TestReceptivityStream:
    def test_single_line(self):
        assert parse_receptivity_stream("0 1 0", 3) == ((0, 1, 0),)

    def test_commas_blanks_and_comments(self):
        text = "# header\n0,1,0\n\n1 0 0  # fire t1\n"
        assert parse_receptivity_stream(text, 3) == ((0, 1, 0), (1, 0, 0))

    def test_empty_input(self):
        assert parse_receptivity_stream("", 3) == ()

    def test_non_binary_token(self):
        with pytest.raises(ParseError) as err:
            parse_receptivity_stream("0 2 0", 3)
        assert err.value.line == 1
        assert "'2'" in str(err.value)

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_receptivity_stream("0 1 0\n0 1\n", 3)
        assert err.value.line == 2


def _outcome(parse, line: str, count: int):
    """The bits a line parser returns, or the message and line of its ParseError."""
    try:
        return parse(line, count, 7)
    except ParseError as exc:
        return str(exc), exc.line


def _same_outcome(line: str, count: int):
    expected = _outcome(parse_receptivity_line_regex, line, count)
    assert _outcome(parse_receptivity_line, line, count) == expected, repr(line)
    return expected


def _whitespace() -> list[str]:
    """Every code point the regex rule or ``str.split`` treats as whitespace."""
    points = "".join(map(chr, range(0x110000)))
    return sorted(set(re.findall(r"\s", points)) | {c for c in points if c.isspace()})


class TestReceptivityTokens:
    """The one-split tokenizer against the regex rule it replaced (kept in
    ``_oracle``): the same bits, or the same ParseError message and line."""

    def test_every_code_point_separates_as_under_the_regex_rule(self):
        # digits flank each code point, so a line splits once per separator;
        # a batch the regex rule leaves whole is one token under both rules
        # only if neither splits it, and any other batch is checked per point
        codes = [c for c in range(0x110000) if c != ord("#")]
        for start in range(0, len(codes), 64):
            points = [chr(c) for c in codes[start:start + 64]]
            count = len(points) + 1
            line = "1" + "".join(p + "1" for p in points)
            whole = (f"line 7: expected {count} receptivity bits, got 1", 7)
            if _same_outcome(line, count) != whole:
                for point in points:
                    _same_outcome("1" + point + "0", 2)
        assert _same_outcome("1#0", 2) == ("line 7: expected 2 receptivity bits, got 1", 7)

    @pytest.mark.parametrize("space", _whitespace(), ids=lambda c: f"U+{ord(c):04X}")
    def test_every_whitespace_code_point_inside_a_line(self, space):
        assert _same_outcome(f"{space}0{space}1{space}{space}0{space}", 3) == (0, 1, 0)
        assert _same_outcome(f"1{space},{space}0,{space}1", 3) == (1, 0, 1)
        assert _same_outcome(f"1{space}2", 2) == ("line 7: non-binary token '2'", 7)
        assert _same_outcome(space * 3, 2) is None

    @pytest.mark.parametrize(
        "line, count",
        [("0,1,0", 3), ("0\t1\t0", 3), ("0 1 0\r\n", 3), ("0,,1 ,\t0", 3),
         (",0,1,0,", 3), (",", 3), (", ,\t", 1), ("\x1c0\x1d1\x1e0\x1f", 3),
         ("0\x851\xa00", 3), ("0\u20281\u30000", 3), ("0\u200b1 0", 3),
         ("0\ufeff 1 0", 3), ("0 1 0 # 1 1", 3), ("# 0 1 0", 3), ("0 1", 3),
         ("0 1 2 x", 4), ("0 1 2 x", 3), ("01 1 0", 3)],
    )
    def test_separators_and_bad_tokens(self, line, count):
        _same_outcome(line, count)

    def test_random_lines(self):
        rng = random.Random(19)
        tokens = ["0", "1", "0", "1", "2", "01", "x", "1\u200b", "\ufeff0", "-1"]
        seps = [",", " ", "\t", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                "\u2028", "\u3000", ",,", " , ", "\x0b\x0c"]
        for _ in range(3000):
            words = [rng.choice(tokens) for _ in range(rng.randint(0, 20))]
            parts = [rng.choice(["", *seps])]
            for word in words:
                parts += [word, rng.choice(seps)]
            if rng.random() < 0.1:
                parts.append("# 1 0")
            line = "".join(parts)
            _same_outcome(line, len(words) + rng.choice((0, 0, 0, -1, 1)))

    @pytest.mark.parametrize("width", range(1, 7))
    @pytest.mark.parametrize("sep", [" ", ",", "\t"], ids=["space", "comma", "tab"])
    def test_parsed_bits_are_the_coerced_bits(self, width, sep):
        # ``run`` steps the parser's bits without coercing them again
        net = alternating_net(width)
        for value in range(1 << width):
            tokens = format(value, f"0{width}b")
            bits = parse_receptivity_line(sep.join(tokens) + "\n", width)
            assert bits == coerce_receptivity(net, tokens) == coerce_receptivity(net, bits)
            assert type(bits) is tuple and all(type(b) is int for b in bits)


class TestMassRecords:
    def test_dense_form(self):
        mass = MassVector({frozenset({0, 2}): 1.0})
        assert serialize_mass(mass, 3, form="dense") == "[0,0,0,0,1,0,0]"

    def test_dense_ignorance(self):
        mass = MassVector({frozenset({0, 1, 2}): 1.0})
        assert serialize_mass(mass, 3, form="dense") == "[0,0,0,0,0,0,1]"

    def test_sparse_form(self):
        mass = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5})
        assert serialize_mass(mass, 3) == "{P1}:0.5 {P2}:0.5"

    def test_sparse_uses_declared_names(self):
        mass = MassVector({frozenset({0, 1}): 1.0})
        assert serialize_mass(mass, ("idle", "busy")) == "{idle,busy}:1"

    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_focal_set_beyond_the_names_is_a_value_error(self, form):
        with pytest.raises(ValueError, match="place indices beyond 3 places"):
            serialize_mass(MassVector.categorical({5}), 3, form=form)

    @pytest.mark.parametrize("places", [{-1}, {3}, {0, 3}])
    def test_format_place_set_rejects_an_index_without_a_name(self, places):
        with pytest.raises(ValueError, match="out of range for 3 places"):
            format_place_set(places, 3)
        with pytest.raises(ValueError, match="out of range for 3 places"):
            format_place_set(places, ("a", "b", "c"))

    def test_format_place_set(self):
        assert format_place_set({2, 0}, 3) == "{P1,P3}"
        assert format_place_set(frozenset(), ("a",)) == "{}"

    def test_dense_place_limit(self):
        mass = MassVector({frozenset({0}): 1.0})
        with pytest.raises(ValueError):
            serialize_mass(mass, 11, form="dense")

    def test_parse_round_trip(self):
        mass = MassVector({frozenset({0}): 0.5, frozenset({1, 2}): 0.5})
        text = serialize_mass(mass, 3)
        assert parse_mass(text, 3) == mass

    def test_parse_fraction_round_trip(self):
        mass = MassVector({frozenset({0}): 1 / 3, frozenset({1}): 2 / 3})
        assert parse_mass(serialize_mass(mass, 2), 2) == mass

    def test_parse_unknown_place(self):
        with pytest.raises(ParseError) as err:
            parse_mass("{P9}:1", 3)
        assert "P9" in str(err.value)

    def test_parse_unnormalized(self):
        with pytest.raises(ParseError):
            parse_mass("{P1}:0.5", 3)

    def test_a_bug_in_the_constructor_keeps_its_traceback(self, monkeypatch):
        def broken(masses):
            raise RuntimeError("a bug")

        monkeypatch.setattr(dsl, "MassVector", broken)
        with pytest.raises(RuntimeError, match="^a bug$"):
            parse_mass("{P1}:1", 3)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_mass("P1=0.5", 3)

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            parse_mass("   ", 3)

    @pytest.mark.parametrize(
        "text, label",
        [("{P1}:0.5 {P1}:0.5", "{P1}"), ("{P1,P2}:0.5 {P2,P1}:0.5", "{P1,P2}")],
    )
    def test_parse_duplicate_focal_set(self, text, label):
        with pytest.raises(ParseError, match=f"focal set {label} is named twice"):
            parse_mass(text, 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{P1}:2", "mass 2.0 for {P1} outside"),
            ("{P1}:-0.5 {P2}:1.5", "mass -0.5 for {P1} outside"),
            ("{P1}:1e999", "mass inf for {P1} outside"),
            ("{P2,P1}:0.5 {P3}:0.5 {P1,,P3}:1.5", "mass 1.5 for {P1,,P3} outside"),
        ],
    )
    def test_a_mass_out_of_range_names_its_set_as_written(self, text, message):
        with pytest.raises(ParseError, match=f"^line 1: bad mass record: {re.escape(message)}"):
            parse_mass(text, 3)

    def test_a_fault_found_while_reading_still_comes_first(self):
        # the range is checked once every token is read, as the constructor did
        with pytest.raises(ParseError, match="focal set {P1} is named twice"):
            parse_mass("{P1}:2 {P1}:0.5", 3)
        with pytest.raises(ParseError, match="unknown place 'P9'"):
            parse_mass("{P1}:2 {P9}:0.5", 3)

    @pytest.mark.parametrize("name", ["a,b", "", "a b", "{a", "a}", "a\tb", "a\u3000b"])
    def test_sparse_records_refuse_a_name_they_cannot_hold(self, name):
        mass = MassVector({frozenset({0}): 0.5, frozenset({0, 1}): 0.5})
        message = f"cannot serialize name {re.escape(repr(name))}: a mass record cannot hold it"
        for names in [(name, "y"), ("x", name)]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                serialize_mass(mass, names)
            with pytest.raises(ValueError, match=f"^{message}$"):
                _mass_serializer(names, "sparse")
            # the dense form prints no names
            assert serialize_mass(mass, names, "dense") == "[0.5,0,0.5]"

    def test_the_first_name_a_record_cannot_hold_is_named(self):
        with pytest.raises(ValueError, match="name 'a b'"):
            serialize_mass(MassVector.categorical({0}), ("ok", "a b", "c,d"))

    @pytest.mark.parametrize("name", ["a:b", "\u00e9", "P-1", "1"])
    def test_sparse_records_round_trip_other_names(self, name):
        mass = MassVector({frozenset({0}): 0.5, frozenset({0, 1}): 0.5})
        for names in [(name, "y"), ("x", name)]:
            assert parse_mass(serialize_mass(mass, names), names) == mass

    def test_library_pairs_naming_one_set_are_merged(self):
        merged = MassVector([({0}, 0.25), ({1}, 0.5), ({0}, 0.25)])
        assert merged == MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5})


def _random_record(rng: random.Random, n: int) -> tuple[list[list[str]], list[str]]:
    """A valid sparse record over P1..Pn: each focal set's member names, in a
    random order, and each mass's text. Some masses are 0."""
    masks = rng.sample(range(1, 1 << n), rng.randint(1, min(12, (1 << n) - 1)))
    weights = [0 if rng.random() < 0.2 else rng.randint(1, 999) for _ in masks]
    weights[0] = weights[0] or 1
    total = sum(weights)
    sets = []
    for mask in masks:
        members = [f"P{i + 1}" for i in _members(mask)]
        rng.shuffle(members)
        sets.append(members)
    return sets, [repr(w / total) if w else rng.choice(("0", "0.0", "-0.0")) for w in weights]


def _record_text(rng: random.Random, sets, texts) -> str:
    tokens = [f"{{{','.join(members)}}}:{text}" for members, text in zip(sets, texts)]
    return "".join(rng.choice((" ", "  ", "\t")) + token for token in tokens)


# each class of bad record, made from a valid one: (sets, texts, rng) -> text
_BAD_RECORDS = {
    "unknown-name": lambda sets, texts, rng: _record_text(
        rng, [*sets[:-1], [*sets[-1], "Q1"]], texts
    ),
    "empty-set": lambda sets, texts, rng: _record_text(
        rng, [*sets, rng.choice(([], [""], ["", ""]))], [*texts, "0.5"]
    ),
    "bad-float": lambda sets, texts, rng: _record_text(
        rng, sets, [*texts[:-1], rng.choice(("0.5x", "one", "1..0", "--1"))]
    ),
    "named-twice": lambda sets, texts, rng: _record_text(
        rng, [*sets, sets[0][::-1]], [*texts, "0"]
    ),
    "repeated-member": lambda sets, texts, rng: _record_text(
        rng, [*sets, [*sets[-1], sets[-1][0]]], [*texts, "0"]
    ),
    "out-of-range": lambda sets, texts, rng: _record_text(
        rng, sets, [*texts[:-1], rng.choice(("1.5", "-0.25", "nan", "inf", "1e999", "-1e-300"))]
    ),
    "sum-off": lambda sets, texts, rng: _record_text(
        rng, sets, [*texts[:-1], repr(abs(float(texts[-1])) / 2 + 1e-6)]
    ),
    "empty-record": lambda sets, texts, rng: rng.choice(("", " ", "\t \n")),
    # two faults in one token, or in two: the one read first is reported
    "several-faults": lambda sets, texts, rng: _record_text(
        rng,
        [*sets, *(rng.choice(([], [""], ["Q1"], [*sets[0], "Q2"], sets[0][::-1])) for _ in "ab")],
        [*texts, *(rng.choice(("0.5x", "1.5", "nan", "0", "1e-300")) for _ in "ab")],
    ),
}


def _parsed(parse, text, places, line_no):
    try:
        return parse(text, places, line_no)
    except ParseError as exc:
        return exc


class TestParseMassAgainstTheFrozensetParser:
    """``parse_mass`` reads each focal set straight to its mask; the parser
    that read each set to a frozenset first, kept verbatim in ``_oracle``,
    must give the same masses, in the same order, or the same error."""

    @pytest.mark.parametrize("seed", range(8))
    def test_valid_records_give_equal_masses_in_equal_order(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 34)
            sets, texts = _random_record(rng, n)
            if rng.random() < 0.3:  # a member repeated inside its set
                sets[0] = [*sets[0], sets[0][0]]
            text = _record_text(rng, sets, texts)
            places = n if rng.random() < 0.5 else tuple(f"P{i + 1}" for i in range(n))
            expected = parse_mass_frozensets(text, places)
            got = parse_mass(text, places)
            assert got == expected
            assert list(got._masses.items()) == list(expected._masses.items())

    @pytest.mark.parametrize("kind", sorted(_BAD_RECORDS))
    def test_each_bad_record_gives_the_same_error(self, kind):
        rng = random.Random(kind)
        for _ in range(60):
            n = rng.randint(1, 34)
            text = _BAD_RECORDS[kind](*_random_record(rng, n), rng)
            line_no = rng.randint(1, 9)
            expected = _parsed(parse_mass_frozensets, text, n, line_no)
            got = _parsed(parse_mass, text, n, line_no)
            assert isinstance(expected, ParseError), (kind, text)
            assert isinstance(got, ParseError), (kind, text)
            assert (str(got), got.line) == (str(expected), expected.line)

    @pytest.mark.parametrize("kind", sorted(_BAD_RECORDS))
    def test_the_cli_ends_each_bad_record_in_one_error_line(self, kind, tmp_path):
        rng = random.Random(f"cli-{kind}")
        n = rng.choice((3, 12, 34))
        path = tmp_path / "cycle.evinet"
        path.write_text(serialize_net(cycle_net(n)))
        text = _BAD_RECORDS[kind](*_random_record(rng, n), rng)
        expected = _parsed(parse_mass_frozensets, text, n, 1)
        result = CliRunner().invoke(
            cli.main, ["run", "--net", str(path), "--initial", text, "--input", "-"], input=""
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: --initial: {expected}\n"


def _dense_reference(mass: MassVector, n: int) -> str:
    """A dense record as the texts of every column of ``mass.dense(n)``."""
    texts = {0.0: "0", 1.0: "1"}
    return "[" + ",".join(texts.get(v) or repr(v) for v in mass.dense(n)) + "]"


def _random_dense_masses():
    rng = random.Random(1019)
    for n in range(1, DENSE_PLACE_LIMIT + 1):
        for _ in range(12):
            yield n, random_mass(rng, n, max_focals=rng.choice((1, 4, 40, (1 << n) - 1)))
    for count in (200, 512, 1023):  # hundreds of focal sets at 10 places
        masks = rng.sample(range(1, 1 << 10), count)
        weights = [rng.randint(1, 50) for _ in masks]
        total = sum(weights)
        yield 10, MassVector._of_masks({x: w / total for x, w in zip(masks, weights)}, 10)


class TestDenseRecords:
    """The slot-filled dense writer against every column of ``mass.dense``."""

    def test_random_masses_at_every_width(self):
        for n, mass in _random_dense_masses():
            for width in {n, DENSE_PLACE_LIMIT}:
                expected = _dense_reference(mass, width)
                assert _mass_serializer(width, "dense")(mass) == expected
                assert serialize_mass(mass, width, "dense") == expected

    def test_one_writer_over_many_masses(self):
        writer = _mass_serializer(DENSE_PLACE_LIMIT, "dense")
        for n, mass in _random_dense_masses():
            assert writer(mass) == _dense_reference(mass, DENSE_PLACE_LIMIT)

    @pytest.mark.parametrize("places", [{3}, {0, 9}, {70}])
    def test_a_place_beyond_the_width_is_the_same_value_error(self, places):
        mass = MassVector({frozenset({0}): 0.5, frozenset(places): 0.5})
        with pytest.raises(ValueError) as old:
            mass.dense(3)
        with pytest.raises(ValueError) as new:
            serialize_mass(mass, 3, "dense")
        assert str(new.value) == str(old.value) == "mass vector has place indices beyond 3 places"

    def test_slot_maps_are_cached_and_stay_under_a_mebibyte(self):
        _dense_masks.cache_clear()
        tracemalloc.start()
        try:
            for n in (7, 8, 9, 10):
                serialize_mass(MassVector.categorical({0}), n, "dense")
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 1 << 20
        info = _dense_masks.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        # a one-shot record reads the cached map, it does not rebuild it
        serialize_mass(MassVector.categorical({1}), 10, "dense")
        assert _dense_masks.cache_info().misses == 4


def _nets_around_the_table_limit():
    """Seeded random nets of 11, 12 and 13 places, each with a mass of one or
    hundreds of focal sets and a stream of admissible lines."""
    rng = random.Random(20261020)
    for n in (11, 12, 13):
        for focals in (1, 300):
            pairs = []
            for _ in range(rng.randint(2, n + 3)):
                src = rng.randrange(n)
                pairs.append((src, rng.choice([i for i in range(n) if i != src])))
            net = net_from_transitions(n, pairs)
            mass = random_mass(rng, n, max_focals=focals)
            stream = [random_admissible_receptivity(rng, net) for _ in range(12)]
            yield pytest.param(net, mass, stream, id=f"{n}places-{len(mass)}sets")


def _steps(net, mass, stream):
    """Each line's bits with the mass after its step."""
    out = []
    for bits in stream:
        mass = step(net, mass, bits)
        out.append((bits, mass))
    return out


class TestRecordsAroundTheTableLimit:
    """Up to 12 places a record reads its labels from one table of every label;
    above, labels are made per mask. On both sides the bytes are those of the
    per-mask f-string writer kept in ``_oracle``."""

    @pytest.mark.parametrize("net, mass, stream", list(_nets_around_the_table_limit()))
    def test_serialize_mass_and_format_place_set(self, net, mass, stream):
        n = net.place_count
        for m in [mass, *(after for _, after in _steps(net, mass, stream))]:
            for places in (n, net.places):
                assert serialize_mass(m, places) == serialize_mass_per_mask(m, places)
                with pytest.raises(ValueError) as want:
                    serialize_mass_per_mask(m, places, "dense")
                with pytest.raises(ValueError) as got:
                    serialize_mass(m, places, "dense")
                assert str(got.value) == str(want.value)
            for x in m._masses:
                members = [i for i in range(n) if x >> i & 1]
                assert format_place_set(members, n) == format_place_set_per_mask(x, n)
        assert format_place_set({n - 1}, n) == format_place_set_per_mask(1 << n - 1, n)

    @pytest.mark.parametrize("net, mass, stream", list(_nets_around_the_table_limit()))
    @pytest.mark.parametrize("form", ["sparse", "dense", "log"])
    def test_run_prints_the_per_mask_records(self, net, mass, stream, form, tmp_path):
        path = tmp_path / "net.evinet"
        path.write_text(serialize_net(net))
        initial = serialize_mass_per_mask(mass, net.places)
        lines = "".join(" ".join(map(str, bits)) + "\n" for bits in stream)
        result = CliRunner().invoke(
            cli.main,
            ["run", "--net", str(path), "--initial", initial, "--format", form],
            input=lines,
        )
        if form == "dense":
            assert (result.exit_code, result.stdout) == (1, "")
            n = net.place_count
            assert result.stderr == f"error: dense records are limited to 10 places, got {n}\n"
            return
        records = [(None, mass), *_steps(net, mass, stream)]
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout == "".join(
            f"step={index} r={''.join(map(str, bits)) if bits else '-'}"
            f" mass={serialize_mass_per_mask(m, net.places)}\n"
            for index, (bits, m) in enumerate(records)
        )

    def test_four_key_memos_and_four_label_tables_stay_under_3_mib(self):
        _order_key.cache_clear()
        _mask_labels.cache_clear()
        tracemalloc.start()
        try:
            key = _order_key(_FLAT_PLACE_LIMIT)
            for mask in range(1, 1 << _FLAT_PLACE_LIMIT):
                key(mask)
            memo, _ = tracemalloc.get_traced_memory()
            for prefix in "PQRS":
                _mask_labels(tuple(f"{prefix}{i + 1}" for i in range(_FLAT_PLACE_LIMIT)))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(key.__self__) == (1 << _FLAT_PLACE_LIMIT) - 1
        assert _mask_labels.cache_info().currsize == 4
        # the key cache is keyed by width alone: it holds four memos, each of
        # at most this one's size at 12 places
        assert 4 * memo + (current - memo) < 3 << 20


def _writer_texts(writer) -> dict:
    """The mass-text dict a per-run writer keeps."""
    return inspect.getclosurevars(writer).nonlocals["texts"]


def _random_runs():
    rng = random.Random(20261019)
    for _ in range(60):
        net = random_net(rng, max_places=12, max_transitions=14)
        mass = random_mass(rng, net.place_count, max_focals=rng.choice((1, 4, 40)))
        stream = [random_admissible_receptivity(rng, net) for _ in range(rng.randint(0, 12))]
        yield net, mass, stream


class TestPerRunWriters:
    """The writers of one run print each mass value once and keep nothing
    between runs; their records are those of :func:`serialize_mass`."""

    @pytest.mark.parametrize("net, mass, stream", list(_random_runs()))
    def test_records_match_serialize_mass_and_the_oracle(self, net, mass, stream):
        forms = ["sparse"] + (["dense"] if net.place_count <= DENSE_PLACE_LIMIT else [])
        writers = {form: _mass_serializer(net.places, form) for form in forms}
        record = _records(net, "log")
        masses = [mass]
        for bits in stream:
            masses.append(step(net, masses[-1], bits))
        for index, (bits, m) in enumerate(zip([None, *stream], masses)):
            expected = {form: serialize_mass_frozensets(m, net.places, form) for form in forms}
            for form in forms:
                assert writers[form](m) == serialize_mass(m, net.places, form) == expected[form]
            r_text = "".join(map(str, bits)) if bits is not None else "-"
            body = expected["sparse"] + (f" dense={expected['dense']}" if "dense" in expected else "")
            assert record(index, r_text, m) == f"step={index} r={r_text} mass={body}\n"

    @pytest.mark.parametrize(
        "net, k", [(fig1_net(), 7), (fig2_net(), 7), (cycle_net(7), 60)],
        ids=["fig1", "fig2", "cycle7"],
    )
    def test_a_long_run_keeps_at_most_2k_plus_1_texts(self, net, k):
        rng = random.Random(net.name)
        mass = random_mass(rng, net.place_count, max_focals=k)
        while len(mass) < k:
            mass = random_mass(rng, net.place_count, max_focals=k)
        writers = [_mass_serializer(net.places, "sparse"), _mass_serializer(net.places, "dense")]
        for line in range(2001):
            if line:
                mass = step(net, mass, random_admissible_receptivity(rng, net))
            for writer in writers:
                writer(mass)
        assert len(mass) < k  # masses merged, so new floats were made
        for writer in writers:
            assert len(_writer_texts(writer)) <= 2 * k + 1

    def test_a_run_past_8192_labels_starts_the_label_dict_afresh(self):
        # under the all-ones line a cycle moves every token on, so each step
        # maps 3000 focal sets of a 14-place net onto 3000 others; the labels
        # and the width-14 sort keys are memos of the same bound
        net = cycle_net(14)
        masks = random.Random(14).sample(range(1, 1 << 14), 3000)
        _mask_labels.cache_clear()
        _order_key.cache_clear()
        labels, keys = _mask_labels(net.places), _order_key(14).__self__
        mass = MassVector({frozenset(_members(mask)): 1 / 3000 for mask in masks})
        writer = _mass_serializer(net.places, "sparse")
        met, sizes = set(), []
        for line in range(4):
            if line:
                mass = step(net, mass, (1,) * 14)
            met.update(mass.focal_sets())
            assert writer(mass) == serialize_mass_frozensets(mass, net.places)
            sizes.append((len(labels), len(keys)))
        assert len(met) > 8192
        for memo_sizes in zip(*sizes):
            # each dict started afresh
            assert max(memo_sizes) <= 8192 and list(memo_sizes) != sorted(memo_sizes)

    def test_each_writer_starts_from_an_empty_memo(self):
        # so serialize_mass, one writer per call, keeps nothing between calls
        mass = MassVector({frozenset({0}): 0.25, frozenset({1}): 0.75})
        writer, dense = _mass_serializer(3, "sparse"), _mass_serializer(3, "dense")
        assert isinstance(_writer_texts(writer), _Memo) and _writer_texts(writer) == {}
        assert isinstance(_writer_texts(dense), _Memo) and _writer_texts(dense) == {}
        assert writer(mass) == serialize_mass(mass, 3) == "{P1}:0.25 {P2}:0.75"
        # a sparse text holds the ":" between a label and its mass
        assert _writer_texts(writer) == {0.25: ":0.25", 0.75: ":0.75"}
        assert dense(mass) == serialize_mass(mass, 3, "dense") == "[0.25,0.75,0,0,0,0,0]"
        assert _writer_texts(dense) == {0.25: "0.25", 0.75: "0.75"}
        # a whole number is made on first use, as any other value
        whole = MassVector.categorical({2})
        assert writer(whole) == serialize_mass(whole, 3) == "{P3}:1"
        assert dense(whole) == serialize_mass(whole, 3, "dense") == "[0,0,1,0,0,0,0]"
        assert _writer_texts(writer) == {0.25: ":0.25", 0.75: ":0.75", 1.0: ":1"}
        assert _writer_texts(dense) == {0.25: "0.25", 0.75: "0.75", 1.0: "1"}

    def test_form_errors_come_before_the_mass_is_read(self):
        # None is no mass vector: reading it would raise AttributeError
        with pytest.raises(ValueError, match="dense records are limited to 10 places"):
            serialize_mass(None, 11, "dense")
        with pytest.raises(ValueError, match="unknown mass record form 'jsonl'"):
            serialize_mass(None, 3, "jsonl")

    def test_a_run_leaves_the_dsl_and_cli_modules_as_they_were(self, data_dir):
        args = ["run", "--net", str(data_dir / "fig1.evinet"), "--format", "log", "--input", "-"]
        stream = "0 1 0\n1 0 0\n0 0 1\n1 1 1\n"
        runner = CliRunner()
        assert runner.invoke(cli.main, args, input=stream).exit_code == 0  # warms the label cache
        before = _module_state()
        # masses the warm-up never printed: a shared text cache would grow
        initial = "{P1}:0.123456789 {P2,P3}:0.876543211"
        result = runner.invoke(cli.main, [*args, "--initial", initial], input=stream)
        assert result.exit_code == 0
        assert result.output.count("\n") == 5
        assert _module_state() == before


def _module_state():
    """A copy of each module-level container and cache size in dsl and cli."""
    state = {}
    for module in (dsl, cli):
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                state[module.__name__, name] = copy.deepcopy(value)
            elif hasattr(value, "cache_info") and value.__module__ == module.__name__:
                state[module.__name__, name] = value.cache_info().currsize
        state[module.__name__] = sorted(vars(module))
    return state
