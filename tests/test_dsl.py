from __future__ import annotations

import copy
import inspect
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    MassVector,
    ParseError,
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
from evinet.engine import _FLAT_PLACE_LIMIT, DENSE_PLACE_LIMIT, _dense_masks
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
        if where == "place":
            net = replace(cycle, places=("x", bad, "y"))
        elif where == "transition":
            net = replace(cycle, transitions=("u", "v", bad))
        else:
            net = replace(cycle, name=bad)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            serialize_net(net)

    def test_the_first_bad_name_in_document_order_is_named(self):
        # written out, these places would read "places: , y, x", which parse_net rejects
        net = replace(cycle_net(3), places=("", "y", "x"), transitions=("t1", "a b", "t3"))
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
        net = replace(
            base,
            places=tuple(names[: base.place_count]),
            transitions=tuple(names[base.place_count : -1]),
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

    def test_library_pairs_naming_one_set_are_merged(self):
        merged = MassVector([({0}, 0.25), ({1}, 0.5), ({0}, 0.25)])
        assert merged == MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5})


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

    def test_four_rank_and_four_label_tables_stay_under_3_mib(self):
        _dense_masks.cache_clear()
        _mask_labels.cache_clear()
        tracemalloc.start()
        try:
            _dense_masks(_FLAT_PLACE_LIMIT)
            rank, _ = tracemalloc.get_traced_memory()
            for prefix in "PQRS":
                _mask_labels(tuple(f"{prefix}{i + 1}" for i in range(_FLAT_PLACE_LIMIT)))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _mask_labels.cache_info().currsize == 4
        # the rank cache is keyed by width alone: it holds four tables of at
        # most this one's size
        assert 4 * rank + (current - rank) < 3 << 20


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
            assert record(index, bits, m) == f"step={index} r={r_text} mass={body}"

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

    def test_each_writer_starts_from_the_two_seeds(self):
        # so serialize_mass, one writer per call, keeps nothing between calls
        mass = MassVector({frozenset({0}): 0.25, frozenset({1}): 0.75})
        writer = _mass_serializer(3, "sparse")
        assert writer(mass) == serialize_mass(mass, 3) == "{P1}:0.25 {P2}:0.75"
        # a sparse text holds the ":" between a label and its mass
        assert _writer_texts(writer) == {0.0: ":0", 1.0: ":1", 0.25: ":0.25", 0.75: ":0.75"}
        assert _writer_texts(_mass_serializer(3, "sparse")) == {0.0: ":0", 1.0: ":1"}
        dense = _mass_serializer(3, "dense")
        assert dense(mass) == serialize_mass(mass, 3, "dense") == "[0.25,0.75,0,0,0,0,0]"
        assert _writer_texts(dense) == {0.0: "0", 1.0: "1", 0.25: "0.25", 0.75: "0.75"}
        assert _writer_texts(_mass_serializer(3, "dense")) == {0.0: "0", 1.0: "1"}

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
