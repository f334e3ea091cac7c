"""The mask-based output stage against the per-cell reference in ``_oracle``.

CSV text, emitted equations and rendered text, raw and minimized, must match
the first implementation byte for byte; minimized equations come from the
tabular Quine-McCluskey kept there.
"""

from __future__ import annotations

import io
import random

import pytest

from evinet import (
    MassEquation,
    MassVector,
    PetriNet,
    build_transfer_table,
    emit_equations,
    render_equation,
    render_equations,
    serialize_mass,
    write_table_csv,
)
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
