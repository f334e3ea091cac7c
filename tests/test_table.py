from __future__ import annotations

import copy
import io
import random
import tracemalloc

import numpy as np
import pytest

from evinet import (
    ConflictError,
    DimensionError,
    MassEquation,
    MassVector,
    TableCapError,
    build_transfer_table,
    check_receptivity,
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
from evinet import minimize
from evinet import table as table_module
from evinet.dsl import _mask_labels
from evinet.minimize import WIDTH_LIMIT, _minimize_on, _prime_implicants, minimize_minterms
from evinet.table import EQUATION_CELL_LIMIT, _on_sets
from _nets import (
    all_admissible_receptivities,
    alternating_net,
    cycle_net,
    fig1_net,
    fig2_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_mass,
    random_net,
    ring_with_chords,
)
from _oracle import (
    canonical_sets,
    invert_brute,
    minimize_minterms_tabular,
    prime_implicants_tabular,
    transform_brute,
)

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

    def test_is_admissible_follows_the_conflict_check(self, fig2_table):
        assert not fig2_table.is_admissible((1, 1, 0, 0))
        assert fig2_table.is_admissible((1, 0, 0, 0))
        assert fig2_table.is_admissible([True, False, 0.0, np.int64(0)])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            fig2_table.is_admissible((0.5, 0, 0, 0))
        with pytest.raises(DimensionError, match="receptivity has 3 bits"):
            fig2_table.is_admissible((1, 0, 0))

    def test_fractional_indices_are_rejected_not_truncated(self, fig1_table):
        # {0.5} used to read as {0}, and {1.5} as {1}
        with pytest.raises(ValueError, match="place indices must be integers"):
            fig1_table.lookup({0.5}, (1, 0, 0))
        with pytest.raises(ValueError, match="place indices must be integers"):
            invert_table(fig1_table, {1.5})
        with pytest.raises(ValueError, match="place indices must be integers"):
            fig1_table.lookup({float("inf")}, (1, 0, 0))
        assert fig1_table.lookup((0.0, np.int64(2)), (1, 0, 0)) == S({1, 2})
        assert invert_table(fig1_table, [1.0]) == invert_table(fig1_table, {1})

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
        # the cells the build would allocate: one per admissible combination
        # and subset mask, not one per combination of all 2**17
        assert err.value.required_cells == (1 << 17) << 17
        assert str(err.value.required_cells) in str(err.value)

    def test_cap_error_counts_only_admissible_combinations(self):
        # 20 transitions but 11 * 11 admissible combinations; 2**20 would
        # overstate the build 6,500-fold
        net = net_from_transitions(2, [(0, 1)] * 10 + [(1, 0)] * 10)
        with pytest.raises(TableCapError, match="need 484 cells") as err:
            build_transfer_table(net)
        assert err.value.required_cells == 484
        built = build_transfer_table(net, max_places=20)
        assert len(built.admissible) << 2 == 484
        assert built.rows.nbytes == 484 * 4

    def test_cap_override(self):
        net = cycle_net(5)
        with pytest.raises(TableCapError):
            build_transfer_table(net, max_places=4)
        assert build_transfer_table(net, max_places=5).defined_cell_count == 31 * 32

    def test_mask_array_over_the_cell_limit_is_rejected(self):
        # passes the default cap, but its rows would take 2**32 32-bit cells
        with pytest.raises(TableCapError, match="allocate 4294967296 cells") as err:
            build_transfer_table(cycle_net(16))
        assert err.value.required_cells == (1 << 16) << 16

    def test_cell_limit_is_checked_before_enumerating(self):
        # 2**24 admissible combinations: enumerating them first takes minutes
        with pytest.raises(TableCapError, match="16777216 admissible") as err:
            build_transfer_table(cycle_net(24), max_places=24)
        assert err.value.required_cells == (1 << 24) << 24

    def test_admissible_and_rejected_follow_the_conflict_check(self, fig2):
        rng = random.Random(43)
        nets = [fig2, ring_with_chords(rng, 7, 2)]
        nets += [random_net(rng, max_places=5, max_transitions=9) for _ in range(12)]
        for net in nets:
            table = build_transfer_table(net)
            m = net.transition_count
            combos = [tuple(int(c) for c in format(v, f"0{m}b")) for v in range(1 << m)]
            assert table.admissible == tuple(
                bits for bits in combos if not check_receptivity(net, bits)
            )
            assert table.rejected == tuple(
                bits for bits in combos if check_receptivity(net, bits)
            )

    def test_admissible_combinations_are_generated_not_filtered(self):
        # 2**26 combinations, of which each place admits none or one of its
        # 13 outputs: 14 * 14
        net = alternating_net(26)
        table = build_transfer_table(net, max_places=30)
        assert len(table.admissible) == 196
        assert all(a < b for a, b in zip(table.admissible, table.admissible[1:]))
        assert not any(check_receptivity(net, bits) for bits in table.admissible)
        assert table.defined_cell_count == 588

    def test_more_places_than_mask_bits_is_rejected(self):
        # checked before the 2**33 receptivity combinations are enumerated
        with pytest.raises(TableCapError, match="33 places") as err:
            build_transfer_table(cycle_net(33), max_places=40)
        assert err.value.required_cells == (1 << 33) << 33

    def test_rows_are_a_read_only_view(self, fig1_table):
        rows = fig1_table.rows
        assert rows.shape == (8, 8) and rows.format == "I"
        assert rows[0b101, 5] == 0b011  # {P1,P3} under 101 is {P1,P2}
        with pytest.raises(TypeError):
            rows[1, 0] = 0
        assert rows[1, 0] == 0b001

    def test_building_allocates_little_beyond_the_rows(self):
        # one preallocated array and n live columns; copying the array, or
        # keeping every column alive, peaks at about twice the rows
        net = cycle_net(10)
        build_transfer_table(net)  # caches the net's structure
        tracemalloc.start()
        try:
            table = build_transfer_table(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.rows.nbytes == 4 * 1024 << 10
        assert peak < 1.1 * table.rows.nbytes + (64 << 10)

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

    def test_every_target_matches_the_brute_inversion_in_order(self):
        rng = random.Random(19560102)
        nets = [random_net(rng, max_places=6, max_transitions=6) for _ in range(12)]
        for net in nets:
            table = build_transfer_table(net)
            brute = invert_brute(net.pre, net.post)
            for y in canonical_sets(net.place_count):
                assert invert_table(table, y) == brute.get(y, ()), (net, sorted(y))


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

    def test_focal_set_beyond_the_places_rejected(self, fig1_table):
        with pytest.raises(ValueError, match="^mass vector has place indices beyond 3 places$"):
            table_step(fig1_table, MassVector.categorical({3}), (0, 0, 0))

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

    def test_equals_step_bit_for_bit_where_images_collide(self):
        rng = random.Random(1016)
        collided = 0
        for _ in range(25):
            net = random_net(rng, max_places=8, max_transitions=10)
            table = build_transfer_table(net)
            mass = random_mass(rng, net.place_count, max_focals=40)
            colliding = [
                r for r in table.admissible if len(step(net, mass, r)) < len(mass)
            ]
            collided += bool(colliding)
            # the all-zeros row first: it moves nothing, so nothing collides
            for r in [table.admissible[0]] + colliding[:3]:
                got, expected = table_step(table, mass, r), step(net, mass, r)
                assert [(x, v.hex()) for x, v in got._masses.items()] == [
                    (x, v.hex()) for x, v in expected._masses.items()
                ]
        assert collided >= 20


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


def _wide_equation(*sources):
    """An equation over 12 transitions; each source is a list of {slot: bit} cubes."""
    terms = [
        (tuple(fixed.get(j) for j in range(12)), src)
        for src, cubes in sources
        for fixed in cubes
    ]
    return MassEquation(target=S({0}), transition_count=12, terms=tuple(terms))


# (r1 + r2)*(r3 + !r4) on {P1}, and r12 on {P1,P2}, each factored two ways
WIDE_PRODUCT = (S({0}), [{0: 1, 2: 1}, {0: 1, 3: 0}, {1: 1, 2: 1}, {1: 1, 3: 0}])
WIDE_DISJOINT = (
    S({0}), [{0: 1, 2: 1}, {0: 1, 2: 0, 3: 0}, {0: 0, 1: 1, 2: 1}, {0: 0, 1: 1, 2: 0, 3: 0}]
)
WIDE_R12 = (S({0, 1}), [{11: 1}])
WIDE_R12_SPLIT = (S({0, 1}), [{11: 1, 4: 1}, {11: 1, 4: 0}])


class TestEquations:
    def test_all_seven_targets_emitted(self, fig1_table):
        eqs = emit_equations(fig1_table, minimize=True)
        assert [eq.target for eq in eqs] == list(place_sets(3))

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_targets_in_canonical_order_around_the_table_limit(self, n):
        # up to 12 places targets sort by rank, above by the per-mask key
        rng = random.Random(n)
        pairs = []
        for _ in range(3):
            src = rng.randrange(n)
            pairs.append((src, rng.choice([i for i in range(n) if i != src])))
        table = build_transfer_table(net_from_transitions(n, pairs))
        targets = [eq.target for eq in emit_equations(table)]
        assert targets == sorted(set(targets), key=lambda x: (len(x), sorted(x)))
        assert set(targets) == {y for _, _, y in table.cells()}

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
        moved = MassEquation(target=eqs[1].target, transition_count=3, terms=eqs[0].terms)
        assert not equations_semantically_equal(eqs[0], moved)

    def test_width_mismatch_is_an_error(self, fig1_table, fig2_table):
        a = emit_equations(fig1_table, minimize=True)[0]
        b = emit_equations(fig2_table, minimize=True)[0]
        with pytest.raises(DimensionError):
            equations_semantically_equal(a, b)
        (cube, src), *rest = a.terms
        short = MassEquation(target=a.target, transition_count=3, terms=((cube[:2], src), *rest))
        with pytest.raises(DimensionError, match="has 2 slots, equation spans 3"):
            equations_semantically_equal(a, short)
        for cube in ((1,), (1, None, None, 1)):
            wrong = MassEquation(target=a.target, transition_count=3, terms=((cube, src), *rest))
            with pytest.raises(DimensionError, match=f"has {len(cube)} slots"):
                wrong.coefficient(src, (1, 0, 0))
            with pytest.raises(DimensionError, match=f"has {len(cube)} slots"):
                evaluate_equation(wrong, MassVector.categorical(src), (1, 0, 0))

    def test_hand_entered_pair_equation_matches_emitted(self, fig1_table):
        emitted = next(
            e for e in emit_equations(fig1_table, minimize=True)
            if e.target == S({1, 2})
        )
        assert equations_semantically_equal(emitted, _hand_equation(S({1, 2})))
        product = _wide_equation(WIDE_PRODUCT, WIDE_R12)
        disjoint = _wide_equation(WIDE_DISJOINT, WIDE_R12_SPLIT)
        assert equations_semantically_equal(product, disjoint)
        # the all-false minterm is off in both coefficients; turning it on differs
        all_false = {j: 0 for j in range(12)}
        for changed in (
            _wide_equation((S({0}), WIDE_DISJOINT[1] + [all_false]), WIDE_R12_SPLIT),
            _wide_equation(WIDE_DISJOINT, (S({0, 1}), WIDE_R12_SPLIT[1] + [all_false])),
        ):
            assert not equations_semantically_equal(product, changed)
            assert not equations_semantically_equal(changed, product)

    def test_raw_equations_reproduce_table_step(self, fig1, fig1_table):
        raw = emit_equations(fig1_table)
        for x in place_sets(3):
            mass = MassVector.categorical(x)
            for r in all_admissible_receptivities(fig1):
                after = table_step(fig1_table, mass, r)
                for eq in raw:
                    assert evaluate_equation(eq, mass, r) == after.mass(eq.target)

    def test_fractional_bits_are_rejected_not_truncated(self, fig1, fig1_table):
        full = S({0, 1, 2})
        eq = next(e for e in emit_equations(fig1_table) if e.target == full)
        # (0.5, 0.5, 0.5) and (0.9, 0.9, 0.9) used to read as (0, 0, 0)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            evaluate_equation(eq, ignorance_mass(fig1), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            eq.coefficient(full, (0.9, 0.9, 0.9))
        assert eq.coefficient(full, (0.0, False, np.int64(0)))
        assert evaluate_equation(eq, ignorance_mass(fig1), ("1", 1, 1.0)) == 1.0

    def test_coefficient_checks_the_width(self, fig1_table):
        eq = emit_equations(fig1_table)[0]
        with pytest.raises(DimensionError, match="receptivity has 2 bits, equation spans 3"):
            eq.coefficient({0}, (0, 0))
        with pytest.raises(DimensionError, match="equation spans 3"):
            evaluate_equation(eq, MassVector.categorical({0}), (0, 0, 0, 0))

    def test_coefficients_read_from_cubes_match_the_on_sets(self, fig1, fig2):
        rng = random.Random(77)
        nets = [fig1, fig2]
        nets += [random_net(rng, max_places=5, max_transitions=7) for _ in range(12)]
        for net in nets:
            m = net.transition_count
            table = build_transfer_table(net)
            for eq in emit_equations(table) + emit_equations(table, minimize=True):
                on = _on_sets(eq)
                mass = random_mass(rng, net.place_count)
                for minterm in range(1 << m):
                    r = [minterm >> j & 1 for j in range(m)]
                    for src, cover in on.items():
                        assert eq.coefficient(src, r) == bool(cover >> minterm & 1)
                    expected = sum(
                        mass.mass(src) for src in eq.sources() if on[src] >> minterm & 1
                    )
                    assert evaluate_equation(eq, mass, r) == expected

    def test_evaluation_builds_no_on_sets(self):
        # each source's on-set spans 2**28 bits; reading the cubes needs none
        net = alternating_net(28)
        equations = emit_equations(build_transfer_table(net, max_places=40))
        mass = ignorance_mass(net)
        r = (1,) + (0,) * 27
        tracemalloc.start()
        try:
            masses = [evaluate_equation(eq, mass, r) for eq in equations]
            coefficients = [eq.coefficient({0}, r) for eq in equations]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert masses == [step(net, mass, r).mass(eq.target) for eq in equations]
        assert coefficients == [eq.target == S({1}) for eq in equations]

    def test_two_place_cycle_equation_shapes(self):
        eqs = emit_equations(build_transfer_table(cycle_net(2)), minimize=True)
        targets = [eq.target for eq in eqs]
        assert targets == [S({0}), S({1}), S({0, 1})]
        pair = eqs[2]
        assert set(pair.terms) == {((0, 0), S({0, 1})), ((1, 1), S({0, 1}))}

    def test_emission_over_the_cell_limit_is_rejected(self):
        table = build_transfer_table(cycle_net(12))
        assert table.defined_cell_count == 16_773_120 > EQUATION_CELL_LIMIT
        for minimize in (False, True):
            with pytest.raises(TableCapError, match="16773120 defined cells") as err:
                emit_equations(table, minimize=minimize)
            assert err.value.required_cells == 16_773_120

    def test_emission_keeps_no_flat_per_cell_arrays(self):
        # grouping one source column at a time takes about 15 bytes per cell
        # beyond the result; flat per-cell arrays and a lexsort take about 33
        table = build_transfer_table(cycle_net(8))
        tracemalloc.start()
        try:
            equations = emit_equations(table)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(equations) == 255
        assert (peak - retained) / table.defined_cell_count < 24

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

    def test_render_reads_cubes_by_value(self, fig2_table):
        # rebuilt cubes are equal to the emitted ones but other objects
        for minimized in (False, True):
            emitted = emit_equations(fig2_table, minimize=minimized)
            rebuilt = tuple(
                MassEquation(
                    target=eq.target,
                    transition_count=eq.transition_count,
                    terms=tuple((tuple([*cube]), src) for cube, src in eq.terms),
                )
                for eq in emitted
            )
            assert all(
                a is not b
                for eq, other in zip(emitted, rebuilt)
                for (a, _), (b, _) in zip(eq.terms, other.terms)
            )
            assert render_equations(rebuilt) == render_equations(emitted)
            assert list(map(render_equation, rebuilt)) == list(map(render_equation, emitted))

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

    @pytest.mark.parametrize("density", [0.1, 0.5], ids=["sparse", "dense"])
    def test_same_primes_and_cover_as_the_tabular_oracle(self, density):
        rng = random.Random(1956 + int(density * 10))
        for width in range(11):
            for _ in range(3 if width < 10 else 1):
                on = [v for v in range(1 << width) if rng.random() < density]
                assert minimize_minterms(on, width) == minimize_minterms_tabular(on, width)
                bits = sum(1 << v for v in on)
                assert _prime_implicants(bits, width) == prime_implicants_tabular(on, width)

    def test_numpy_integer_minterms(self):
        # bit 6 set, all else free: 1 << np.int64(100) would overflow
        on = np.arange(64, 128, dtype=np.int64)
        assert minimize_minterms(on, 7) == ((None,) * 6 + (1,),)
        assert minimize_minterms(np.array([3, 9], dtype=np.uint8), 4) == minimize_minterms(
            [3, 9], 4
        )

    def test_minterm_out_of_range(self):
        with pytest.raises(ValueError, match="out of range for 3 variables"):
            minimize_minterms([8], 3)
        with pytest.raises(ValueError, match="out of range"):
            minimize_minterms([-1], 3)

    def test_width_over_the_limit_is_rejected(self):
        assert WIDTH_LIMIT == 24
        with pytest.raises(ValueError, match="the limit is 24"):
            minimize_minterms([0], WIDTH_LIMIT + 1)
        with pytest.raises(ValueError, match="the limit is 24"):
            minimize_minterms([], -1)

    def test_sparse_set_at_the_width_limit(self):
        top = (1 << WIDTH_LIMIT) - 1
        assert minimize_minterms([0, top], WIDTH_LIMIT) == ((0,) * 24, (1,) * 24)

    def test_free_variables_match_the_tabular_oracle(self):
        # random on-sets almost never have a free variable, so these are built
        # to have them: this is what exercises the support reduction
        rng = random.Random(1984)
        for width in range(13):
            for _ in range(8 if width < 10 else 3):
                on, free = _with_free_variables(rng, width, max_support=6)
                cubes = minimize_minterms(on, width)
                assert cubes == minimize_minterms_tabular(on, width)
                assert all(cube[j] is None for cube in cubes for j in free)

    @pytest.mark.parametrize("width", [0, 1, 5, 12])
    def test_full_space_is_one_all_dash_cube(self, width):
        assert minimize_minterms(range(1 << width), width) == ((None,) * width,)

    @pytest.mark.parametrize("width", [1, 4, 12])
    def test_one_variable_support(self, width):
        for j in range(width):
            for bit in (0, 1):
                on = [v for v in range(1 << width) if (v >> j) & 1 == bit]
                cube = tuple(bit if i == j else None for i in range(width))
                assert minimize_minterms(on, width) == (cube,)

    def test_edge_supports_match_the_tabular_oracle(self):
        for width in range(7):
            assert minimize_minterms_tabular(range(1 << width), width) == ((None,) * width,)
            for j in range(width):
                on = [v for v in range(1 << width) if (v >> j) & 1]
                assert minimize_minterms(on, width) == minimize_minterms_tabular(on, width)

    def test_width_zero(self):
        assert minimize_minterms([0], 0) == ((),) == minimize_minterms_tabular([0], 0)
        assert minimize_minterms([], 0) == ()

    def test_wide_on_sets_allocate_a_few_on_set_ints(self):
        # an on-set int at WIDTH_LIMIT is 2 MiB; the 24 merge masks held at
        # once took 48 MiB more, and a dense table over 2**24 minterms far more
        top = (1 << WIDTH_LIMIT) - 1
        bit = 1 << 11
        one_free = [m | f for m in (6, top ^ bit ^ 6, 1 << 20 | 1 << 12) for f in (0, bit)]
        on_set_bytes = (1 << WIDTH_LIMIT) // 8
        for minterms in ([0, top], one_free):
            tracemalloc.start()
            try:
                cubes = minimize_minterms(minterms, WIDTH_LIMIT)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cubes == minimize_minterms_tabular(minterms, WIDTH_LIMIT)
            assert peak < 8 * on_set_bytes
        assert all(cube[11] is None for cube in cubes)

    def test_one_minterm_cofactors_match_the_tabular_oracle(self):
        # one minterm on the support crossed with every value of the free
        # variables: the cofactor is a single minterm, so no search runs
        rng = random.Random(470)
        for width in range(13):
            for _ in range(6 if width < 10 else 2):
                free = rng.sample(range(width), rng.randint(0, min(width, 6)))
                on, cube = _one_minterm_cofactor(rng.getrandbits(width), free, width)
                assert minimize_minterms(on, width) == (cube,)
                assert _minimize_on(sum(1 << v for v in on), width) == (cube,)
                assert minimize_minterms_tabular(on, width) == (cube,)

    @pytest.mark.parametrize(
        "value, free", [(0, (23,)), (0xA04009, (0, 11, 23)), (0xFFFFFF, (4, 5, 6, 7))]
    )
    def test_one_minterm_cofactors_at_the_width_limit(self, value, free):
        on, cube = _one_minterm_cofactor(value, free, WIDTH_LIMIT)
        tracemalloc.start()
        try:
            cubes = minimize_minterms(on, WIDTH_LIMIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cubes == (cube,) == minimize_minterms_tabular(on, WIDTH_LIMIT)
        on_set_bytes = (1 << WIDTH_LIMIT) // 8
        assert peak < 8 * on_set_bytes
        if value == 0:
            assert on == [0, 1 << 23] and cube == (0,) * 23 + (None,)

    def test_emitted_on_sets_match_the_tabular_oracle(self, monkeypatch):
        # every on-set the equations benchmark net (seed 1) minimizes
        equations_net = ring_with_chords(random.Random("equations:1"), 7, 2)
        table = build_transfer_table(equations_net)
        width = equations_net.transition_count
        seen = []

        def record(on, width):
            seen.append(on)
            return _minimize_on(on, width)

        monkeypatch.setattr(table_module, "_minimize_on", record)
        emit_equations(table, minimize=True)
        assert width == 9 and len(seen) == 2254
        for on in seen:
            minterms = [v for v in range(1 << width) if on >> v & 1]
            assert _minimize_on(on, width) == minimize_minterms_tabular(minterms, width)

    def test_module_caches_stay_within_their_bounds(self):
        # the equation stage keeps no state between calls but the merge masks
        equations_net = ring_with_chords(random.Random("equations:1"), 7, 2)
        table = build_transfer_table(equations_net)
        before = _module_state()
        rng = random.Random(2024)
        for _ in range(300):
            width = rng.randint(0, 10)
            on, _ = _with_free_variables(rng, width, max_support=width)
            minimize_minterms(on, width)
        for minimized in (False, True):
            render_equations(emit_equations(table, minimize=minimized))
        assert _module_state() == before
        assert all(width <= minimize._CACHED_WIDTH for width in minimize._merge_cache)

    def test_wide_merge_masks_are_not_kept(self):
        minterms = [3, 2**22 - 5]
        assert minimize_minterms(minterms, 22) == minimize_minterms_tabular(minterms, 22)
        assert minimize._CACHED_WIDTH == 16
        assert all(width <= 16 for width in minimize._merge_cache)
        minimize_minterms([3], 9)
        assert 9 in minimize._merge_cache


def _module_state():
    """A copy of each module-level container and cache size in the equation
    stage's modules, the merge masks aside."""
    state = {}
    for module in (minimize, table_module):
        for name, value in vars(module).items():
            if name.startswith("__") or value is minimize._merge_cache:
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                state[module.__name__, name] = copy.copy(value)
            elif hasattr(value, "cache_info") and value.__module__ == module.__name__:
                state[module.__name__, name] = value.cache_info().currsize
        state[module.__name__] = sorted(vars(module))
    return state


def _with_free_variables(rng, width, max_support):
    """A random function of a random support, crossed with every value of the
    other variables; returns its on-set and those free variables."""
    support = rng.sample(range(width), rng.randint(0, min(width, max_support)))
    free = [j for j in range(width) if j not in support]

    def spread(value, positions):
        return sum(((value >> i) & 1) << j for i, j in enumerate(positions))

    on = [
        spread(v, support) | spread(f, free)
        for v in range(1 << len(support))
        if rng.random() < 0.4
        for f in range(1 << len(free))
    ]
    return on, free


def _one_minterm_cofactor(value, free, width):
    """``value`` with the ``free`` variables cleared, crossed with every value
    of them; returns that on-set and the one cube covering it."""
    value &= ~sum(1 << j for j in free)
    on = [
        value | sum(1 << j for k, j in enumerate(free) if f >> k & 1)
        for f in range(1 << len(free))
    ]
    cube = tuple(None if j in free else value >> j & 1 for j in range(width))
    return on, cube


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

    def test_whole_table_labels_leave_the_label_cache_alone(self):
        # 2**14 labels, each built once, would evict every label a run keeps
        table = build_transfer_table(net_from_transitions(14, [(0, 1)]))
        labels = _mask_labels(table.net.places)
        assert labels[0b101] == "{P1,P3}"
        before = dict(labels)
        assert write_table_csv(table, io.StringIO()) == 2 * ((1 << 14) - 1)
        assert labels == before

    @pytest.mark.parametrize(
        "net",
        [fig1_net(), fig2_net(), cycle_net(6), net_from_transitions(2, [(0, 1)])],
        ids=["fig1", "fig2", "cycle6", "one-transition"],
    )
    def test_one_write_for_the_header_and_one_per_subset(self, net):
        sink = _CountingSink()
        write_table_csv(build_transfer_table(net), sink)
        assert sink.calls == 1 + (2**net.place_count - 1)

    def test_the_writer_holds_one_block_at_a_time(self):
        # Measured from the header write, once the per-table label and bits
        # lists exist: a subset's block adds its text and a few lists of one
        # slot per row, never anything that grows with the number of subsets.
        table = build_transfer_table(cycle_net(10))
        sink = _CountingSink(trace=True)
        tracemalloc.start()
        try:
            write_table_csv(table, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.calls == 1024
        assert sink.largest > 1024 * len("{P1},0000000000,{P2}\n")
        assert peak - sink.baseline < 2 * sink.largest


class _CountingSink:
    """A text handle that keeps the number of writes and the largest text's
    length, not the text. With ``trace``, the header write records the traced
    memory and resets the peak."""

    def __init__(self, trace: bool = False):
        self.calls = 0
        self.largest = 0
        self.baseline = None if trace else 0

    def write(self, text: str) -> None:
        if self.baseline is None:
            self.baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self.calls += 1
        self.largest = max(self.largest, len(text))
