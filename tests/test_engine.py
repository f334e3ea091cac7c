from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    ConflictError,
    MassError,
    MassVector,
    TrajectoryError,
    classic_step,
    ignorance_mass,
    place_sets,
    run,
    step,
    transform,
)
from evinet.net import PetriNet
from _nets import (
    all_admissible_receptivities,
    cycle_net,
    random_admissible_receptivity,
    random_cycle,
    random_mass,
    random_net,
)
from _oracle import sequential_step_check, step_brute, transform_brute


class TestMassVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(MassError):
            MassVector({frozenset({0}): 0.5})

    def test_rejects_sum_outside_tolerance(self):
        with pytest.raises(MassError):
            MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5 + 3e-9})

    def test_accepts_sum_inside_tolerance(self):
        m = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5 + 5e-10})
        assert m.mass({1}) == 0.5 + 5e-10

    def test_rejects_empty_set(self):
        with pytest.raises(MassError):
            MassVector({frozenset(): 1.0})

    def test_rejects_negative_mass(self):
        with pytest.raises(MassError):
            MassVector({frozenset({0}): -0.1, frozenset({1}): 1.1})

    def test_drops_zero_entries(self):
        m = MassVector({frozenset({0}): 1.0, frozenset({1}): 0.0})
        assert m.focal_sets() == (frozenset({0}),)

    def test_focal_sets_in_canonical_order(self):
        m = MassVector({frozenset({0, 1, 2}): 0.25, frozenset({2}): 0.25,
                        frozenset({0, 2}): 0.25, frozenset({0}): 0.25})
        assert m.focal_sets() == (
            frozenset({0}), frozenset({2}), frozenset({0, 2}), frozenset({0, 1, 2}),
        )

    def test_dense_layout_matches_canonical_order(self):
        m = MassVector({frozenset({0, 2}): 1.0})
        assert m.dense(3) == (0, 0, 0, 0, 1.0, 0, 0)

    def test_place_sets_enumeration(self):
        assert list(place_sets(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2}),
            frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}),
            frozenset({0, 1, 2}),
        ]


class TestIgnorance:
    def test_fig1(self, fig1):
        m = ignorance_mass(fig1)
        assert m.focal_sets() == (frozenset({0, 1, 2}),)
        assert m.dense(3) == (0, 0, 0, 0, 0, 0, 1.0)

    def test_fig2(self, fig2):
        assert ignorance_mass(fig2).mass({0, 1, 2}) == 1.0

    def test_single_place_net(self):
        net = PetriNet(places=("P1",), transitions=(), pre=((),), post=((),))
        assert ignorance_mass(net).focal_sets() == (frozenset({0}),)


class TestTransform:
    def test_single_place_moves(self, fig1):
        assert transform(fig1, {0}, (1, 0, 0)) == frozenset({1})

    def test_pair_splits(self, fig1):
        assert transform(fig1, {0, 2}, (1, 0, 1)) == frozenset({0, 1})

    def test_all_false_is_identity(self, fig1, fig2):
        for net in (fig1, fig2):
            zero = (0,) * net.transition_count
            for x in place_sets(net.place_count):
                assert transform(net, x, zero) == x

    def test_full_set_narrows(self, fig1):
        assert transform(fig1, {0, 1, 2}, (0, 1, 0)) == frozenset({0, 2})

    def test_fig2_conflict_pair(self, fig2):
        assert transform(fig2, {0, 1}, (0, 1, 0, 0)) == frozenset({1, 2})

    def test_conflicting_receptivity_rejected(self, fig2):
        with pytest.raises(ConflictError):
            transform(fig2, {0}, (1, 1, 0, 0))

    def test_empty_set_rejected(self, fig1):
        with pytest.raises(ValueError):
            transform(fig1, set(), (0, 0, 0))

    def test_out_of_range_rejected(self, fig1):
        with pytest.raises(ValueError):
            transform(fig1, {3}, (0, 0, 0))

    def test_never_empty_and_union_distributive(self):
        rng = random.Random(11)
        for _ in range(40):
            net = random_net(rng, max_places=5, max_transitions=6)
            n = net.place_count
            r = random_admissible_receptivity(rng, net)
            sets = list(place_sets(n))
            for x in sets:
                assert transform(net, x, r)
            for x, y in zip(rng.sample(sets, 10 if len(sets) >= 10 else len(sets)),
                            rng.sample(sets, 10 if len(sets) >= 10 else len(sets))):
                assert transform(net, x | y, r) == transform(net, x, r) | transform(net, y, r)

    def test_matches_incidence_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            net = random_net(rng, max_places=5, max_transitions=6)
            r = random_admissible_receptivity(rng, net)
            for x in place_sets(net.place_count):
                assert transform(net, x, r) == transform_brute(net.pre, net.post, x, r)


class TestStep:
    def test_worked_sequence_first_step(self, fig1):
        after = step(fig1, ignorance_mass(fig1), (0, 1, 0))
        assert after == MassVector({frozenset({0, 2}): 1.0})
        assert after.dense(3) == (0, 0, 0, 0, 1.0, 0, 0)

    def test_all_false_is_identity(self, fig1):
        mass = MassVector({frozenset({0}): 0.25, frozenset({1, 2}): 0.75})
        assert step(fig1, mass, (0, 0, 0)) == mass

    def test_fractional_masses_transfer_linearly(self, fig1):
        mass = MassVector({frozenset({0}): 0.5, frozenset({2}): 0.5})
        after = step(fig1, mass, (1, 0, 0))
        assert after == MassVector({frozenset({1}): 0.5, frozenset({2}): 0.5})

    def test_masses_merge_on_shared_image(self, fig1):
        mass = MassVector({frozenset({0}): 0.5, frozenset({0, 2}): 0.5})
        after = step(fig1, mass, (0, 1, 1))
        # both hypotheses collapse onto {P1}
        assert after == MassVector({frozenset({0}): 1.0})

    def test_conflicting_receptivity_rejected(self, fig2):
        with pytest.raises(ConflictError):
            step(fig2, ignorance_mass(fig2), (1, 1, 0, 0))

    def test_unnormalized_mapping_rejected(self, fig1):
        with pytest.raises(MassError):
            step(fig1, {frozenset({0}): 0.9}, (0, 0, 0))

    def test_plain_mapping_accepted(self, fig1):
        after = step(fig1, {frozenset({0}): 1.0}, (1, 0, 0))
        assert after.mass({1}) == 1.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mass_conservation(self, seed):
        rng = random.Random(seed)
        net = random_net(rng)
        mass = random_mass(rng, net.place_count)
        r = random_admissible_receptivity(rng, net)
        after = step(net, mass, r)
        assert abs(math.fsum(after.values()) - 1.0) <= 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_categorical_stays_categorical(self, seed):
        rng = random.Random(seed)
        net = random_net(rng)
        kmask = rng.randrange(1, 1 << net.place_count)
        focal = frozenset(i for i in range(net.place_count) if (kmask >> i) & 1)
        r = random_admissible_receptivity(rng, net)
        after = step(net, MassVector.categorical(focal), r)
        assert after.is_categorical()

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            net = random_net(rng, max_places=5, max_transitions=6)
            mass = random_mass(rng, net.place_count)
            r = random_admissible_receptivity(rng, net)
            expected = step_brute(net.pre, net.post, dict(mass.items()), r)
            got = step(net, mass, r)
            assert set(got.focal_sets()) == set(expected)
            for key, value in expected.items():
                assert got.mass(key) == pytest.approx(value, abs=1e-12)


class TestRun:
    def test_worked_sequence(self, fig1):
        trajectory = run(fig1, ignorance_mass(fig1), [(0, 1, 0)])
        assert trajectory.final == MassVector({frozenset({0, 2}): 1.0})
        assert len(trajectory.steps) == 1

    def test_empty_input(self, fig1):
        trajectory = run(fig1, ignorance_mass(fig1), [])
        assert trajectory.steps == ()
        assert trajectory.final == ignorance_mass(fig1)

    def test_two_steps_narrow_then_spread(self, fig1):
        trajectory = run(fig1, ignorance_mass(fig1), [(0, 1, 0), (1, 0, 0)])
        assert trajectory.final == MassVector({frozenset({1, 2}): 1.0})
        assert trajectory.steps[0][1] == MassVector({frozenset({0, 2}): 1.0})

    def test_failing_receptivity_carries_index_and_cause(self, fig2):
        with pytest.raises(TrajectoryError) as err:
            run(fig2, ignorance_mass(fig2), [(0, 0, 0, 0), (1, 1, 0, 0)])
        assert err.value.index == 1
        assert isinstance(err.value.cause, ConflictError)

    def test_steps_recorded_in_order(self, fig1):
        inputs = [(0, 1, 0), (0, 0, 0), (1, 0, 0)]
        trajectory = run(fig1, ignorance_mass(fig1), inputs)
        assert [r for r, _ in trajectory.steps] == inputs
        current = ignorance_mass(fig1)
        for r, mass in trajectory.steps:
            current = step(fig1, current, r)
            assert mass == current


class TestSequentialCheck:
    def test_singleton_advances(self, fig1):
        out = sequential_step_check(fig1, MassVector.categorical({0}), (1, 0, 0))
        assert out == MassVector.categorical({1})

    def test_singleton_rests(self, fig1):
        out = sequential_step_check(fig1, MassVector.categorical({0}), (0, 0, 0))
        assert out == MassVector.categorical({0})

    def test_adjacent_pair_collapses(self, fig1):
        out = sequential_step_check(fig1, MassVector.categorical({0, 1}), (1, 0, 0))
        assert out == MassVector.categorical({1})

    def test_agrees_with_step_exhaustively_on_fig1(self, fig1):
        subsets = list(place_sets(3))
        assert len(subsets) == 7
        for x in subsets:
            for r in all_admissible_receptivities(fig1):
                mass = MassVector.categorical(x)
                assert sequential_step_check(fig1, mass, r) == step(fig1, mass, r)

    def test_agrees_with_step_on_random_cycles(self):
        rng = random.Random(23)
        for _ in range(15):
            net = random_cycle(rng, max_places=6)
            n = net.place_count
            succ = {}
            for j in range(net.transition_count):
                src = next(i for i in range(n) if net.pre[i][j])
                succ[src] = next(i for i in range(n) if net.post[i][j])
            shapes = [frozenset({i}) for i in range(n)]
            shapes += [frozenset({i, succ[i]}) for i in range(n)]
            shapes.append(frozenset(range(n)))
            for _ in range(20):
                x = rng.choice(shapes)
                r = tuple(rng.randint(0, 1) for _ in range(n))
                mass = MassVector.categorical(x)
                assert sequential_step_check(net, mass, r) == step(net, mass, r)

    def test_fractional_mixture(self, fig1):
        mass = MassVector({frozenset({0}): 0.25, frozenset({1}): 0.25,
                           frozenset({0, 1}): 0.5})
        r = (1, 0, 0)
        assert sequential_step_check(fig1, mass, r) == step(fig1, mass, r)

    def test_rejects_non_cycle_nets(self, fig2):
        with pytest.raises(ValueError):
            sequential_step_check(fig2, MassVector.categorical({0}), (0, 0, 0, 0))

    def test_rejects_split_cycles(self):
        # two disjoint 2-cycles: every place has one input and one output
        from _nets import net_from_transitions

        net = net_from_transitions(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError):
            sequential_step_check(net, MassVector.categorical({0}), (0, 0, 0, 0))

    def test_rejects_non_adjacent_pair(self):
        net = cycle_net(4)
        with pytest.raises(ValueError):
            sequential_step_check(net, MassVector.categorical({0, 2}), (0, 0, 0, 0))


class TestClassicEquivalence:
    def test_fig1_exhaustive(self, fig1):
        for i in range(3):
            marks = tuple(1 if k == i else 0 for k in range(3))
            for r in all_admissible_receptivities(fig1):
                after = classic_step(fig1, marks, r)
                evidential = step(fig1, MassVector.categorical({i}), r)
                support = {k for k in range(3) if after[k]}
                assert evidential.focal_sets() == (frozenset(support),)

    def test_random_cycles(self):
        rng = random.Random(29)
        for _ in range(10):
            net = random_cycle(rng, max_places=6)
            n, m = net.place_count, net.transition_count
            for i in range(n):
                marks = tuple(1 if k == i else 0 for k in range(n))
                for value in range(1 << m):
                    r = tuple(int(c) for c in format(value, f"0{m}b"))
                    after = classic_step(net, marks, r)
                    evidential = step(net, MassVector.categorical({i}), r)
                    assert evidential.focal_sets() == (
                        frozenset(k for k in range(n) if after[k]),
                    )
