"""The mask-based output stage against the per-cell reference in ``_oracle``.

CSV text, emitted equations and rendered text, raw and minimized, must match
the first implementation byte for byte; minimized equations come from the
tabular Quine-McCluskey kept there.
"""

from __future__ import annotations

import importlib.util
import io
import random
from pathlib import Path

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
from evinet.table import EQUATION_FORMAT_VERSION
from _nets import (
    cycle_net,
    fig1_net,
    fig2_net,
    net_from_transitions,
    random_net,
    ring_with_chords,
)
from _oracle import (
    emit_equations_per_cell,
    render_equation_per_cell,
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


NETS = [
    fig1_net(), fig2_net(), *(cycle_net(n) for n in range(2, 7)), *_random_nets(), *_rings()
]
NET_IDS = ["fig1", "fig2", *(f"cycle{n}" for n in range(2, 7)), *(
    f"random{k}" for k in range(12)
), "ring7a", "ring7b"]


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
    assert serialize_mass(MassVector.categorical({0, 1}), net.places) == "{,y}:1"


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


def _benchmark_generator():
    path = Path(__file__).resolve().parent.parent / "evibench" / "gen.py"
    spec = importlib.util.spec_from_file_location("evibench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(1, 11))
def test_csv_of_the_table_benchmark_nets(seed, tmp_path):
    files = _benchmark_generator().generate("table", seed, tmp_path)
    net = parse_net(files["net"].read_text(encoding="utf-8"))
    assert (net.place_count, net.transition_count) == (8, 9)
    assert_same_text(*_csv_pair(net))


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


def test_equation_without_terms_renders_zero():
    eq = MassEquation(target=S({1}), transition_count=2, terms=())
    assert render_equation(eq) == render_equation_per_cell(eq) == "M{2}(k+1) = 0"
