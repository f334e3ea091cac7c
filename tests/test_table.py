from __future__ import annotations

import io
import random

import pytest

from evinet import (
    ConflictError,
    DimensionError,
    MassEquation,
    MassVector,
    TableCapError,
    build_transfer_table,
    emit_equations,
    equations_semantically_equal,
    evaluate_equation,
    ignorance_mass,
    invert_table,
    place_sets,
    render_equation,
    render_equations,
    step,
    table_step,
    transform,
    write_table_csv,
)
from evinet.minimize import minimize_minterms
from _nets import (
    all_admissible_receptivities,
    cycle_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_mass,
    random_net,
)
from _oracle import transform_brute

S = frozenset


@pytest.fixture(scope="module")
def fig1_table(fig1):
    return build_transfer_table(fig1)


@pytest.fixture(scope="module")
def fig2_table(fig2):
    return build_transfer_table(fig2)


class TestBuild:
    def test_fig1_cardinality(self, fig1_table):
        assert len(fig1_table.admissible) == 8
        assert fig1_table.rejected == ()
        assert fig1_table.defined_cell_count == 56

    def test_fig2_cardinality(self, fig2_table):
        # 4 of the 16 combinations fire both conflict branches
        assert len(fig2_table.admissible) == 12
        assert len(fig2_table.rejected) == 4
        assert all(bits[0] == bits[1] == 1 for bits in fig2_table.rejected)
        assert fig2_table.defined_cell_count == 84

    def test_two_place_cycle_cardinality(self):
        table = build_transfer_table(cycle_net(2))
        assert table.defined_cell_count == 12
        cells = {(x, bits): y for x, bits, y in table.cells()}
        assert cells[(S({0}), (1, 0))] == S({1})
        assert cells[(S({1}), (0, 1))] == S({0})
        assert cells[(S({0, 1}), (1, 1))] == S({0, 1})
        assert cells[(S({0, 1}), (1, 0))] == S({1})

    def test_listed_transformation_cell(self, fig1_table):
        assert fig1_table.lookup({0, 2}, (1, 0, 1)) == S({0, 1})

    def test_lookup_rejected_combination(self, fig2_table):
        with pytest.raises(ConflictError):
            fig2_table.lookup({0}, (1, 1, 0, 0))

    def test_cap_exceeded_reports_required_cells(self):
        net = cycle_net(17)
        with pytest.raises(TableCapError) as err:
            build_transfer_table(net)
        assert err.value.required_cells == ((1 << 17) - 1) * (1 << 17)
        assert str(err.value.required_cells) in str(err.value)

    def test_cap_override(self):
        net = cycle_net(5)
        with pytest.raises(TableCapError):
            build_transfer_table(net, max_places=4)
        assert build_transfer_table(net, max_places=5).defined_cell_count == 31 * 32

    def test_mask_array_over_the_cell_limit_is_rejected(self):
        # passes the default cap, but its rows would take 2**32 uint32 cells
        with pytest.raises(TableCapError, match="allocate 4294967296 cells") as err:
            build_transfer_table(cycle_net(16))
        assert err.value.required_cells == (1 << 16) << 16

    def test_more_places_than_mask_bits_is_rejected(self):
        # checked before the 2**33 receptivity combinations are enumerated
        with pytest.raises(TableCapError, match="33 places") as err:
            build_transfer_table(cycle_net(33), max_places=40)
        assert err.value.required_cells == ((1 << 33) - 1) * (1 << 33)

    def test_entries_match_fresh_transform(self, fig1, fig2):
        rng = random.Random(41)
        nets = [fig1, fig2, cycle_net(2), cycle_net(4)]
        nets += [random_net(rng, max_places=6, max_transitions=8) for _ in range(12)]
        nets.append(net_from_transitions(3, [(0, 1)]))  # P2 and P3 are sinks
        for net in nets:
            table = build_transfer_table(net)
            for x, bits, y in table.cells():
                assert y == transform(net, x, bits)
                assert y == transform_brute(net.pre, net.post, x, bits)


class TestInvert:
    def test_fig1_sources_of_p1(self, fig1_table):
        pairs = invert_table(fig1_table, {0})
        assert pairs == (
            (S({0}), (0, 0, 0)),
            (S({0}), (0, 0, 1)),
            (S({0}), (0, 1, 0)),
            (S({0}), (0, 1, 1)),
            (S({2}), (0, 0, 1)),
            (S({2}), (0, 1, 1)),
            (S({2}), (1, 0, 1)),
            (S({2}), (1, 1, 1)),
            (S({0, 2}), (0, 0, 1)),
            (S({0, 2}), (0, 1, 1)),
        )

    def test_fig1_sources_of_full_set(self, fig1_table):
        assert invert_table(fig1_table, {0, 1, 2}) == (
            (S({0, 1, 2}), (0, 0, 0)),
            (S({0, 1, 2}), (1, 1, 1)),
        )

    def test_partitions_all_cells(self, fig1_table, fig2_table):
        for table in (fig1_table, fig2_table):
            n = table.net.place_count
            seen = set()
            total = 0
            for y in place_sets(n):
                pairs = invert_table(table, y)
                total += len(pairs)
                for pair in pairs:
                    assert pair not in seen
                    seen.add(pair)
            assert total == table.defined_cell_count

    def test_out_of_range_target(self, fig1_table):
        with pytest.raises(ValueError):
            invert_table(fig1_table, {4})


class TestTableStep:
    def test_worked_sequence(self, fig1, fig1_table):
        after = table_step(fig1_table, ignorance_mass(fig1), (0, 1, 0))
        assert after.dense(3) == (0, 0, 0, 0, 1.0, 0, 0)

    def test_all_false_identity(self, fig1_table):
        mass = MassVector({S({0}): 0.5, S({1, 2}): 0.5})
        assert table_step(fig1_table, mass, (0, 0, 0)) == mass

    def test_rejected_combination(self, fig2_table):
        with pytest.raises(ConflictError):
            table_step(fig2_table, MassVector.categorical({0}), (1, 1, 0, 0))

    def test_dimension_mismatch(self, fig1_table):
        with pytest.raises(DimensionError):
            table_step(fig1_table, MassVector.categorical({0}), (1, 1))

    def test_equals_step_exactly_everywhere_small(self, fig1, fig2):
        for net in (fig1, fig2, cycle_net(2), cycle_net(4)):
            table = build_transfer_table(net)
            n = net.place_count
            for x in place_sets(n):
                mass = MassVector.categorical(x)
                for r in all_admissible_receptivities(net):
                    assert table_step(table, mass, r) == step(net, mass, r)

    def test_equals_step_on_random_fractional_masses(self):
        rng = random.Random(31)
        for _ in range(25):
            net = random_net(rng, max_places=4, max_transitions=6)
            table = build_transfer_table(net)
            mass = random_mass(rng, net.place_count)
            r = random_admissible_receptivity(rng, net)
            assert table_step(table, mass, r) == step(net, mass, r)


# the seven update equations of the 3-place cycle, entered by hand;
# cube slots follow transition order, None marks an eliminated variable
FIG1_EQUATIONS = {
    S({0}): [((0, None, None), S({0})), ((None, None, 1), S({2})),
             ((0, None, 1), S({0, 2}))],
    S({1}): [((None, 0, None), S({1})), ((1, None, None), S({0})),
             ((1, 0, None), S({0, 1}))],
    S({2}): [((None, None, 0), S({2})), ((None, 1, None), S({1})),
             ((None, 1, 0), S({1, 2}))],
    S({0, 1}): [((0, 0, None), S({0, 1})), ((1, None, 1), S({0, 2})),
                ((None, 0, 1), S({1, 2})), ((None, 0, 1), S({0, 1, 2}))],
    S({0, 2}): [((0, None, 0), S({0, 2})), ((None, 1, 1), S({1, 2})),
                ((0, 1, None), S({0, 1})), ((0, 1, None), S({0, 1, 2}))],
    S({1, 2}): [((None, 0, 0), S({1, 2})), ((1, 1, None), S({0, 1})),
                ((1, None, 0), S({0, 2})), ((1, None, 0), S({0, 1, 2}))],
    S({0, 1, 2}): [((0, 0, 0), S({0, 1, 2})), ((1, 1, 1), S({0, 1, 2}))],
}


def _hand_equation(target):
    return MassEquation(
        target=target, transition_count=3, terms=tuple(FIG1_EQUATIONS[target])
    )


class TestEquations:
    def test_all_seven_targets_emitted(self, fig1_table):
        eqs = emit_equations(fig1_table, minimize=True)
        assert [eq.target for eq in eqs] == list(place_sets(3))

    def test_minimized_matches_hand_entered_system(self, fig1_table):
        for eq in emit_equations(fig1_table, minimize=True):
            assert equations_semantically_equal(eq, _hand_equation(eq.target))

    def test_minimized_p1_equation_exact_cubes(self, fig1_table):
        eq = next(
            e for e in emit_equations(fig1_table, minimize=True) if e.target == S({0})
        )
        assert set(eq.terms) == {
            ((0, None, None), S({0})),
            ((None, None, 1), S({2})),
            ((0, None, 1), S({0, 2})),
        }

    def test_raw_p1_coefficient_is_four_minterms(self, fig1_table):
        eq = next(e for e in emit_equations(fig1_table) if e.target == S({0}))
        own = sorted(cube for cube, src in eq.terms if src == S({0}))
        assert own == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]

    def test_raw_full_set_keeps_two_minterms(self, fig1_table):
        eq = next(e for e in emit_equations(fig1_table) if e.target == S({0, 1, 2}))
        assert sorted(cube for cube, _ in eq.terms) == [(0, 0, 0), (1, 1, 1)]

    def test_raw_and_minimized_semantically_equal(self, fig1_table, fig2_table):
        for table in (fig1_table, fig2_table, build_transfer_table(cycle_net(2))):
            raw = emit_equations(table)
            minimized = emit_equations(table, minimize=True)
            assert len(raw) == len(minimized)
            for a, b in zip(raw, minimized):
                assert equations_semantically_equal(a, b)

    def test_different_targets_not_equal(self, fig1_table):
        eqs = emit_equations(fig1_table, minimize=True)
        assert not equations_semantically_equal(eqs[0], eqs[1])

    def test_width_mismatch_is_an_error(self, fig1_table, fig2_table):
        a = emit_equations(fig1_table, minimize=True)[0]
        b = emit_equations(fig2_table, minimize=True)[0]
        with pytest.raises(DimensionError):
            equations_semantically_equal(a, b)

    def test_hand_entered_pair_equation_matches_emitted(self, fig1_table):
        emitted = next(
            e for e in emit_equations(fig1_table, minimize=True)
            if e.target == S({1, 2})
        )
        assert equations_semantically_equal(emitted, _hand_equation(S({1, 2})))

    def test_raw_equations_reproduce_table_step(self, fig1, fig1_table):
        raw = emit_equations(fig1_table)
        for x in place_sets(3):
            mass = MassVector.categorical(x)
            for r in all_admissible_receptivities(fig1):
                after = table_step(fig1_table, mass, r)
                for eq in raw:
                    assert evaluate_equation(eq, mass, r) == after.mass(eq.target)

    def test_two_place_cycle_equation_shapes(self):
        eqs = emit_equations(build_transfer_table(cycle_net(2)), minimize=True)
        targets = [eq.target for eq in eqs]
        assert targets == [S({0}), S({1}), S({0, 1})]
        pair = eqs[2]
        assert set(pair.terms) == {((0, 0), S({0, 1})), ((1, 1), S({0, 1}))}

    def test_render_gives_documented_form(self, fig1_table):
        eqs = emit_equations(fig1_table, minimize=True)
        text = render_equations(eqs)
        lines = text.splitlines()
        assert lines[0] == "# evinet equations v1"
        assert lines[1] == "M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}"
        assert lines[7] == "M{1,2,3}(k+1) = (!r1*!r2*!r3 + r1*r2*r3)*M{1,2,3}"

    def test_render_single_equation(self):
        eq = _hand_equation(S({0}))
        assert render_equation(eq) == "M{1}(k+1) = !r1*M{1} + r3*M{3} + !r1*r3*M{1,3}"

    def test_sink_place_renders_constant_coefficient(self):
        chain = net_from_transitions(3, [(0, 1), (1, 2)], name="chain")
        eqs = emit_equations(build_transfer_table(chain), minimize=True)
        rendered = {render_equation(eq) for eq in eqs}
        # nothing leads out of P3, so its own mass always stays
        assert "M{3}(k+1) = r2*M{2} + 1*M{3} + r2*M{2,3}" in rendered


class TestMinimize:
    def test_single_variable_elimination(self):
        # r1 = 0 over three variables (bit 0 is r1)
        assert minimize_minterms({0, 2, 4, 6}, 3) == ((0, None, None),)

    def test_unmergeable_pair(self):
        assert minimize_minterms({0, 7}, 3) == ((0, 0, 0), (1, 1, 1))

    def test_full_space_collapses(self):
        assert minimize_minterms(range(8), 3) == ((None, None, None),)

    def test_single_minterm(self):
        assert minimize_minterms({5}, 3) == ((1, 0, 1),)

    def test_empty_on_set(self):
        assert minimize_minterms((), 3) == ()

    def test_cover_is_exact_on_random_functions(self):
        rng = random.Random(37)
        for _ in range(100):
            width = rng.randint(1, 6)
            on = {v for v in range(1 << width) if rng.random() < 0.4}
            cubes = minimize_minterms(on, width)
            for v in range(1 << width):
                covered = any(
                    all(bit is None or (v >> j) & 1 == bit for j, bit in enumerate(cube))
                    for cube in cubes
                )
                assert covered == (v in on)


class TestCsv:
    def test_fig1_export(self, fig1_table):
        buffer = io.StringIO()
        count = write_table_csv(fig1_table, buffer)
        assert count == 56
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "subset,receptivity_bits,result_subset"
        assert len(lines) == 57
        assert lines[1] == "{P1},000,{P1}"
        assert '"{P1,P3}",101,"{P1,P2}"' in lines

    def test_fig2_export_row_count(self, fig2_table):
        buffer = io.StringIO()
        assert write_table_csv(fig2_table, buffer) == 84
