"""The mask-based output stage against the per-cell reference in ``_oracle``.

CSV text, emitted equations and rendered text, raw and minimized, must match
the first implementation byte for byte; minimized equations come from the
tabular Quine-McCluskey kept there.
"""

from __future__ import annotations

import io
import random
from itertools import product
from operator import itemgetter

import pytest
from click.testing import CliRunner

from evinet import (
    MassEquation,
    MassVector,
    PetriNet,
    build_transfer_table,
    emit_equations,
    parse_net,
    render_equation,
    render_equations,
    serialize_mass,
    write_table_csv,
)
from evinet import cli
from evinet import table as table_module
from evinet.engine import _Memo
from evinet.minimize import _cube_decoder, _cube_entries, _cube_key
from evinet.table import EQUATION_FORMAT_VERSION
from _nets import (
    benchmark_generator,
    cycle_net,
    fan_out_net,
    fig1_net,
    fig2_net,
    net_from_transitions,
    random_net,
    ring_with_chords,
)
from _oracle import (
    _cube_key_label,
    emit_equations_per_cell,
    render_equation_per_cell,
    set_key,
    write_table_csv_per_cell,
)

S = frozenset


def _random_nets():
    rng = random.Random(20130130)
    nets = [random_net(rng, max_places=8, max_transitions=7) for _ in range(10)]
    for _ in range(2):  # the widest case: 8 places, 8 transitions
        pairs = [(src, rng.choice([i for i in range(8) if i != src]))
                 for src in (rng.randrange(8) for _ in range(8))]
        nets.append(net_from_transitions(8, pairs))
    return nets


def _rings():
    # 7 places, 2 chords: 9 transitions and two conflict places
    rng = random.Random(19560101)
    return [ring_with_chords(rng, 7, 2) for _ in range(2)]


def _memo_nets():
    # minimized emission shares one cover memo over all of a net's on-sets:
    # rings repeat cofactors under different free sets, fan-out nets hardly
    rng = random.Random("cover memo")
    rings = [ring_with_chords(rng, rng.randint(4, 7), rng.randint(1, 2)) for _ in range(4)]
    fans = [
        fan_out_net(outputs, rng)
        for outputs in ((3, 2, 2, 1), (2, 2, 2, 2, 1), (3, 3, 2, 2), (1, 2, 1, 2, 1, 2, 2))
    ]
    return rings + fans


NETS = [
    fig1_net(), fig2_net(), *(cycle_net(n) for n in range(2, 7)), *_random_nets(), *_rings(),
    *_memo_nets(),
]
NET_IDS = ["fig1", "fig2", *(f"cycle{n}" for n in range(2, 7)), *(
    f"random{k}" for k in range(12)
), "ring7a", "ring7b", *(f"memo_ring{k}" for k in range(4)), *(
    f"fanout{k}" for k in range(4)
)]


def assert_same_text(got: str, want: str) -> None:
    """Fails naming the first differing line; pytest's own diff of texts this
    long takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    i = next(
        (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
        min(len(got_lines), len(want_lines)),
    )
    pytest.fail(f"line {i + 1} differs: {got_lines[i:i + 1]} != {want_lines[i:i + 1]}")


def _reference_text(equations) -> str:
    lines = [f"# {EQUATION_FORMAT_VERSION}"]
    lines.extend(render_equation_per_cell(eq) for eq in equations)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=NETS, ids=NET_IDS)
def table(request):
    return build_transfer_table(request.param)


def test_csv_is_byte_identical(table):
    fast, slow = io.StringIO(), io.StringIO()
    assert write_table_csv(table, fast) == write_table_csv_per_cell(table, slow)
    assert_same_text(fast.getvalue(), slow.getvalue())


@pytest.mark.parametrize("minimize", [False, True], ids=["raw", "minimized"])
def test_equations_are_identical(table, minimize):
    fast = emit_equations(table, minimize=minimize)
    slow = emit_equations_per_cell(table, minimize=minimize)
    assert_same_text(render_equations(fast), _reference_text(slow))
    if fast != slow:
        pytest.fail("equal text, but the emitted equations differ")


@pytest.mark.parametrize("minimize", [False, True], ids=["raw", "minimized"])
def test_the_command_prints_the_rendered_equations(table, minimize, monkeypatch):
    # the command streams each equation's line; the library joins them
    monkeypatch.setattr(cli, "_read_net", lambda path: table.net)
    flags = ["--minimize"] if minimize else []
    result = CliRunner().invoke(cli.main, ["equations", "--net", "unused", *flags])
    assert result.exit_code == 0, result.output
    assert_same_text(result.stdout, render_equations(emit_equations(table, minimize=minimize)))


def test_csv_quoting_of_unusual_place_names():
    names = ('a,b', 'say "hi"', "plain", "two words")
    cycle = cycle_net(4)
    net = PetriNet(places=names, transitions=cycle.transitions, pre=cycle.pre,
                   post=cycle.post)
    table = build_transfer_table(net)
    fast, slow = io.StringIO(), io.StringIO()
    write_table_csv(table, fast)
    write_table_csv_per_cell(table, slow)
    assert_same_text(fast.getvalue(), slow.getvalue())
    assert '"{a,b,say ""hi""}",0000,"{a,b,say ""hi""}"\n' in fast.getvalue()


def test_an_empty_place_name_is_joined_by_commas_as_in_the_reference():
    # a library net may name a place with the empty string; a label joins the
    # names of its members, so {P1,P2} of such a net reads "{,y}"
    cycle = cycle_net(3)
    net = PetriNet(places=("", "y", "x"), transitions=cycle.transitions, pre=cycle.pre,
                   post=cycle.post)
    table = build_transfer_table(net)
    fast, slow = io.StringIO(), io.StringIO()
    write_table_csv(table, fast)
    write_table_csv_per_cell(table, slow)
    assert_same_text(fast.getvalue(), slow.getvalue())
    assert '"{,y}",000,"{,y}"\n' in fast.getvalue()
    # parse_mass could not read such a label back, so a mass record refuses it
    with pytest.raises(ValueError, match="cannot serialize name '': a mass record cannot hold it"):
        serialize_mass(MassVector.categorical({0, 1}), net.places)


def _csv_pair(net) -> tuple[str, str]:
    table = build_transfer_table(net)
    fast, slow = io.StringIO(), io.StringIO()
    assert write_table_csv(table, fast) == write_table_csv_per_cell(table, slow)
    return fast.getvalue(), slow.getvalue()


def test_csv_of_a_one_transition_net():
    # two admissible combinations, so each subset's block holds two rows
    fast, slow = _csv_pair(net_from_transitions(2, [(0, 1)]))
    assert_same_text(fast, slow)
    assert fast == (
        "subset,receptivity_bits,result_subset\n"
        "{P1},0,{P1}\n{P1},1,{P2}\n"
        "{P2},0,{P2}\n{P2},1,{P2}\n"
        '"{P1,P2}",0,"{P1,P2}"\n"{P1,P2}",1,{P2}\n'
    )


def test_csv_quotes_labels_that_are_both_subset_and_image():
    cycle = cycle_net(3)
    net = PetriNet(places=("a,b", 'c"d', "e"), transitions=cycle.transitions,
                   pre=cycle.pre, post=cycle.post)
    fast, slow = _csv_pair(net)
    assert_same_text(fast, slow)
    assert '"{a,b}",100,"{c""d}"\n' in fast
    assert '"{c""d}",010,{e}\n' in fast
    assert '{e},001,"{a,b}"\n' in fast


def test_csv_of_non_ascii_names_through_the_cli_is_utf8(tmp_path, monkeypatch):
    # the document grammar holds ASCII identifiers only, so the command reads
    # a library net in place of a parsed one
    cycle = cycle_net(3)
    net = PetriNet(places=("Zürich", "東京", "a,ö"), transitions=cycle.transitions,
                   pre=cycle.pre, post=cycle.post)
    monkeypatch.setattr(cli, "_read_net", lambda path: net)
    out = tmp_path / "table.csv"
    result = CliRunner().invoke(cli.main, ["table", "--net", "unused", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert result.output == "56 rows\n"
    slow = io.StringIO()
    write_table_csv_per_cell(build_transfer_table(net), slow)
    assert out.read_bytes() == slow.getvalue().encode("utf-8")
    assert '"{Zürich,東京}",110,"{東京,a,ö}"\n'.encode() in out.read_bytes()


@pytest.mark.parametrize("seed", range(1, 11))
def test_csv_of_the_table_benchmark_nets(seed, tmp_path):
    files = benchmark_generator().generate("table", seed, tmp_path)
    net = parse_net(files["net"].read_text(encoding="utf-8"))
    assert (net.place_count, net.transition_count) == (8, 9)
    assert_same_text(*_csv_pair(net))


@pytest.mark.parametrize("seed", range(1, 11))
def test_equations_of_the_equations_benchmark_nets(seed, tmp_path):
    files = benchmark_generator().generate("equations", seed, tmp_path)
    table = build_transfer_table(parse_net(files["net"].read_text(encoding="utf-8")))
    assert (table.net.place_count, table.net.transition_count) == (7, 9)
    for flags in ([], ["--minimize"]):
        fast = emit_equations(table, minimize=bool(flags))
        if fast != emit_equations_per_cell(table, minimize=bool(flags)):
            pytest.fail(f"emitted equations {flags} differ from the reference")
        result = CliRunner().invoke(cli.main, ["equations", "--net", str(files["net"]), *flags])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert_same_text(result.stdout, render_equations(fast))


def test_interleaved_hand_built_terms_render_identically():
    eq = MassEquation(
        target=S({0, 2}),
        transition_count=3,
        terms=(
            ((1, None, 0), S({2})),
            ((None, None, None), S({0, 2})),
            ((0, 1, None), S({0})),
            ((1, 1, 1), S({2})),
            ((0, None, None), S({0, 2})),
            ((None, 0, None), S({0})),
            ((1, None, 0), S({2})),
        ),
    )
    expected = render_equation_per_cell(eq)
    assert render_equation(eq) == expected
    assert render_equations([eq, eq]) == _reference_text([eq, eq])
    assert expected == (
        "M{1,3}(k+1) = (!r2 + !r1*r2)*M{1} + (r1*!r3 + r1*!r3 + r1*r2*r3)*M{3}"
        " + (1 + !r1)*M{1,3}"
    )


MEMO_LIMIT = 8192


class _CountingMemo(_Memo):
    """A render memo that counts how often it starts afresh."""

    restarts = 0

    def clear(self):
        type(self).restarts += 1
        super().clear()


def _assert_rendered_as_the_oracle(equations, monkeypatch):
    monkeypatch.setattr(table_module, "_Memo", _CountingMemo)
    monkeypatch.setattr(_CountingMemo, "restarts", 0)
    expected = [render_equation_per_cell(eq) for eq in equations]
    header = f"# {EQUATION_FORMAT_VERSION}\n"
    lines = render_equations(equations).splitlines(keepends=True)
    assert lines == [header, *(line + "\n" for line in expected)]
    assert render_equations(equations) == _reference_text(equations)
    assert [render_equation(eq) for eq in equations] == expected
    return _CountingMemo.restarts


def test_cube_labels_past_the_memo_bound_render_as_the_oracle(monkeypatch):
    # 3**14 cubes over 14 transitions: more than the memo keeps are distinct
    rng = random.Random(14)
    cubes = list({tuple(rng.choice((0, 1, None)) for _ in range(14)) for _ in range(9000)})
    assert len(cubes) > MEMO_LIMIT
    sources = [S({0}), S({1, 2}), S({0, 3})]
    terms = tuple((cube, sources[i % 3]) for i, cube in enumerate(cubes))
    eq = MassEquation(target=S({1}), transition_count=14, terms=terms)
    assert _assert_rendered_as_the_oracle([eq], monkeypatch) >= 1


def test_set_labels_past_the_memo_bound_render_as_the_oracle(monkeypatch):
    # 30 equations of 300 sources each, 9000 distinct sets of 14 places
    masks = random.Random(1414).sample(range(1, 1 << 14), 9000)
    sets = [S(j for j in range(14) if mask >> j & 1) for mask in masks]
    cubes = [(0, None, 1), (1, 1, None), (None, None, None)]
    groups = [sets[k : k + 300] for k in range(0, 9000, 300)]
    equations = [
        MassEquation(
            target=group[0],
            transition_count=3,
            terms=tuple((cubes[i % 3], src) for i, src in enumerate(group)),
        )
        for group in groups
    ]
    assert len(set(sets)) > MEMO_LIMIT
    assert _assert_rendered_as_the_oracle(equations, monkeypatch) >= 2


def test_equation_without_terms_renders_zero():
    eq = MassEquation(target=S({1}), transition_count=2, terms=())
    assert render_equation(eq) == render_equation_per_cell(eq) == "M{2}(k+1) = 0"


def _code(cube) -> int:
    """``dashes << width | value``, worked out slot by slot."""
    width = len(cube)
    return sum(1 << (width + j if bit is None else j) for j, bit in enumerate(cube)
               if bit is None or bit)


def _assert_entries_match_the_per_slot_oracle(cubes, width):
    """All three readers of a width's cube table, against the per-slot oracle:
    each cube's slots, its entry, and the covers' sort key as its first item."""
    decode, entry, key, literals = _cube_decoder(width), _cube_entries(width), _cube_key(width), []
    for cube in cubes:
        code = _code(cube)
        sort_key, label = _cube_key_label(cube, literals)
        assert decode(code) == cube
        assert entry(code) == (sort_key, label, code)
        assert key(code) == sort_key


@pytest.mark.parametrize("width", range(7))
def test_every_cube_entry_matches_the_per_slot_key_and_label(width):
    _assert_entries_match_the_per_slot_oracle(product((0, 1, None), repeat=width), width)


@pytest.mark.parametrize("width", [8, 9, 13, 14, 24])
def test_wide_cube_entries_match_the_per_slot_key_and_label(width):
    rng = random.Random(f"entries:{width}")
    cubes = [tuple(rng.choice((0, 1, None)) for _ in range(width)) for _ in range(2000)]
    _assert_entries_match_the_per_slot_oracle(cubes, width)


def _render_per_slot(eq) -> str:
    """``eq``'s line with each source's cubes stably sorted by the per-slot
    key of their own width, as the renderer sorted them before its tables."""
    literals, parts = [], []
    for source in sorted({src for _, src in eq.terms}, key=set_key):
        entries = [_cube_key_label(cube, literals) for cube, src in eq.terms if src == source]
        entries.sort(key=itemgetter(0))
        coeff = " + ".join(label for _, label in entries)
        parts.append(f"({coeff})*M" if len(entries) > 1 else f"{coeff}*M")
        parts[-1] += "{" + ",".join(str(i + 1) for i in sorted(source)) + "}"
    rhs = " + ".join(parts) if parts else "0"
    return "M{" + ",".join(str(i + 1) for i in sorted(eq.target)) + "}(k+1) = " + rhs


def test_bool_slots_and_cubes_of_any_width_render_as_the_per_slot_oracle():
    # the Cube contract allows 0, 1, None and bools, and rendering checks no
    # width, so each cube is keyed and labelled at its own width
    rng = random.Random("any width")
    sources = [S({0}), S({1, 2}), S({0, 3})]
    equations = []
    for k in range(40):
        terms = tuple(
            (tuple(rng.choice((0, 1, None, True, False)) for _ in range(rng.randint(0, 6))),
             rng.choice(sources))
            for _ in range(rng.randint(0, 12))
        )
        equations.append(MassEquation(target=sources[k % 3], transition_count=3, terms=terms))
    expected = [_render_per_slot(eq) for eq in equations]
    assert [render_equation(eq) for eq in equations] == expected
    assert render_equations(equations) == "".join(
        line + "\n" for line in [f"# {EQUATION_FORMAT_VERSION}", *expected]
    )


def _rings_and_fans():
    """Seeded rings with chords and fan-out nets of 2-9 places: one place
    admits no transition that does not loop on it. Rings stop at 7 places,
    2**7 combinations or more; fan-out nets have up to 5 transitions."""
    rng = random.Random("rings and fans")
    nets = []
    for n in range(2, 10):
        if n <= 7:
            nets.append(ring_with_chords(rng, n, rng.randint(0, min(2, n - 2))))
        outputs = [0] * n
        for place in rng.sample(range(n), rng.randint(1, min(3, n))):
            outputs[place] = rng.randint(1, min(2, n - 1))
        nets.append(fan_out_net(outputs, rng))
    return nets


@pytest.mark.parametrize("net", _rings_and_fans(), ids=lambda net: f"{net.place_count}x"
                         f"{net.transition_count}")
def test_the_command_matches_the_per_cell_renderer(net, monkeypatch):
    monkeypatch.setattr(cli, "_read_net", lambda path: net)
    table = build_transfer_table(net)
    for flags in ([], ["--minimize"]):
        result = CliRunner().invoke(cli.main, ["equations", "--net", "unused", *flags])
        assert result.exit_code == 0, result.output
        emitted = emit_equations(table, minimize=bool(flags))
        assert_same_text(result.stdout, _reference_text(emitted))
        assert_same_text(result.stdout, render_equations(emitted))
