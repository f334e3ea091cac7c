"""Tests of the benchmark's reference and input generator.

    python3 -m pytest evibench/test_reference.py -q

They import nothing from evinet: the reference must stand on its own.
"""

from __future__ import annotations

import itertools

import pytest

import gen
import reference

FIG1 = """\
# format: evinet v1
net fig1
places: P1, P2, P3
transitions: t1, t2, t3
arc: P1 -> t1
arc: t1 -> P2
arc: P2 -> t2
arc: t2 -> P3
arc: P3 -> t3
arc: t3 -> P1
"""

# fig1's seven update equations in the `evinet equations v1` text format
FIG1_EQUATIONS = """\
# evinet equations v1
M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}
M{2}(k+1) = r1*M{1} + !r2*M{2} + r1*!r2*M{1,2}
M{3}(k+1) = r2*M{2} + !r3*M{3} + r2*!r3*M{2,3}
M{1,2}(k+1) = !r1*!r2*M{1,2} + r1*r3*M{1,3} + !r2*r3*M{2,3} + !r2*r3*M{1,2,3}
M{1,3}(k+1) = !r1*r2*M{1,2} + !r1*!r3*M{1,3} + r2*r3*M{2,3} + !r1*r2*M{1,2,3}
M{2,3}(k+1) = r1*r2*M{1,2} + r1*!r3*M{1,3} + !r2*!r3*M{2,3} + r1*!r3*M{1,2,3}
M{1,2,3}(k+1) = (!r1*!r2*!r3 + r1*r2*r3)*M{1,2,3}
"""


def bits(text):
    return tuple(int(c) for c in text)


def test_fig1_worked_run():
    net = reference.read_net(FIG1)
    belief = reference.ignorance(net)
    assert belief == {frozenset({0, 1, 2}): 1.0}
    belief = reference.step(net, belief, bits("010"))
    assert belief == {frozenset({0, 2}): 1.0}  # {P1,P3}
    belief = reference.step(net, belief, bits("100"))
    assert belief == {frozenset({1, 2}): 1.0}  # {P2,P3}


def test_fig1_worked_run_records():
    net = reference.read_net(FIG1)
    records = [
        "step=0 r=- mass={P1,P2,P3}:1 dense=[0,0,0,0,0,0,1]",
        "step=1 r=010 mass={P1,P3}:1 dense=[0,0,0,0,1,0,0]",
        "step=2 r=100 mass={P2,P3}:1 dense=[0,0,0,0,0,1,0]",
    ]
    parsed = [reference.parse_record(line, net.places) for line in records]
    assert [p[0] for p in parsed] == [0, 1, 2]
    assert [p[1] for p in parsed] == [None, bits("010"), bits("100")]
    assert parsed[2][2] == {frozenset({1, 2}): 1.0}
    sets = list(reference.canonical_sets(3))
    assert parsed[1][3] == [1.0 if s == frozenset({0, 2}) else 0.0 for s in sets]


def test_fig2_conflict_is_rejected():
    net = reference.read_net(gen.net_text("fig2", 3, gen.FIG2_ARCS))
    assert not reference.admissible(net, bits("1100"))
    assert reference.admissible(net, bits("1011"))
    assert reference.transform(net, {0}, bits("0100")) == frozenset({2})


def test_fig1_equations_match_the_reference():
    net = reference.read_net(FIG1)
    assert reference.check_equations(net, FIG1_EQUATIONS) is None
    target, terms = reference.parse_equations(FIG1_EQUATIONS)[-1]
    assert target == frozenset({0, 1, 2})
    assert terms == [(frozenset({0, 1, 2}), [(0, 0b111), (0b111, 0b111)])]


def test_wrong_equations_are_caught():
    net = reference.read_net(FIG1)
    swapped = FIG1_EQUATIONS.replace("!r1*M{1} +", "r1*M{1} +")
    assert reference.check_equations(net, swapped) is not None
    dropped = FIG1_EQUATIONS.replace(" + r1*r3*M{1,3}", "")
    assert reference.check_equations(net, dropped) is not None
    with pytest.raises(ValueError):
        reference.parse_equations(FIG1_EQUATIONS.replace("*M{2}", "*N{2}"))


@pytest.mark.parametrize("workload", ["table", "equations"])
def test_union_of_unit_images_is_the_incidence_image(workload, tmp_path):
    net = reference.read_net(gen.generate(workload, 7, tmp_path)["net"].read_text())
    for r in itertools.product((0, 1), repeat=net.m):
        if not reference.admissible(net, r):
            continue
        units = reference.unit_images(net, r)
        for xmask in range(1, 1 << net.n, 7):
            x = {i for i in range(net.n) if xmask >> i & 1}
            want = sum(1 << i for i in reference.transform(net, x, r))
            assert reference.image_mask(units, xmask) == want


def test_cell_count_on_fig2():
    net = reference.read_net(gen.net_text("fig2", 3, gen.FIG2_ARCS))
    assert reference.cell_count(net) == 7 * 3 * 2 * 2


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_byte_identical_per_seed(workload, tmp_path):
    first = gen.generate(workload, 11, tmp_path / "a")
    second = gen.generate(workload, 11, tmp_path / "b")
    other = gen.generate(workload, 12, tmp_path / "c")
    assert first.keys() == second.keys() == other.keys()
    assert all(first[k].read_bytes() == second[k].read_bytes() for k in first)
    assert any(first[k].read_bytes() != other[k].read_bytes() for k in first)


def test_generated_nets_have_the_stated_shape(tmp_path):
    table = reference.read_net(gen.generate("table", 3, tmp_path / "t")["net"].read_text())
    assert (table.n, table.m) == (8, 9)
    assert sorted(sum(row) for row in table.pre) == [1] * 7 + [2]
    eqs = reference.read_net(gen.generate("equations", 3, tmp_path / "e")["net"].read_text())
    assert (eqs.n, eqs.m) == (7, 9)
    assert sorted(sum(row) for row in eqs.pre) == [1] * 5 + [2, 2]
    wide = gen.generate("wide", 3, tmp_path / "w")
    net = reference.read_net(wide["net"].read_text())
    belief = reference.parse_sparse(wide["initial"].read_text(), net.places)
    assert len(belief) == gen.WIDE_FOCAL_SETS
    assert abs(sum(belief.values()) - 1.0) < 1e-12
    lines = wide["stream"].read_text().splitlines()
    assert {line.replace(" ", "") for line in lines} <= {"1" * 12, "0" * 12}

