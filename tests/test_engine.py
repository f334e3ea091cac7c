from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    NORMALIZATION_TOL,
    ConflictError,
    MassError,
    MassVector,
    TrajectoryError,
    classic_step,
    ignorance_mass,
    place_set_key,
    place_sets,
    run,
    step,
    transform,
)
from evinet.net import PetriNet
from _nets import (
    all_admissible_receptivities,
    cycle_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_cycle,
    random_mass,
    random_net,
    ring_with_chords,
)
from _oracle import (
    sequential_step_check,
    set_key,
    step_brute,
    step_byte_tables,
    transform_brute,
)


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

    def test_one_set_within_the_tolerance_of_one(self):
        # a lone mass may lie up to the tolerance either side of 1, and is
        # then all the belief; beyond it the pair itself is out of range
        for value in (1 - 5e-10, 1 + 5e-10):
            m = MassVector({frozenset({0}): value})
            assert m.mass({0}) == value and m.is_categorical()
        with pytest.raises(MassError, match=r"^mass 1\.000000002 for \{0\} outside \[0, 1\]$"):
            MassVector({frozenset({0}): 1 + 2e-9})

    def test_rejects_empty_set(self):
        with pytest.raises(MassError):
            MassVector({frozenset(): 1.0})

    def test_rejects_negative_mass(self):
        with pytest.raises(MassError):
            MassVector({frozenset({0}): -0.1, frozenset({1}): 1.1})

    def test_fractional_indices_are_rejected_not_truncated(self):
        # {0.5, 0.2} used to collapse into {0}
        with pytest.raises(MassError, match="place indices must be integers"):
            MassVector({(0.5, 0.2): 1.0})
        with pytest.raises(MassError, match="place indices must be integers"):
            MassVector([({0, 1.5}, 1.0)])
        # an infinite index raised OverflowError, a NaN index a bare ValueError
        for index in (float("inf"), float("nan")):
            with pytest.raises(MassError, match="place indices must be integers"):
                MassVector({(index,): 1.0})
        m = MassVector({(1.0, np.int64(2), True): 1.0})
        assert m.focal_sets() == (frozenset({1, 2}),)
        assert all(type(i) is int for i in m.focal_sets()[0])

    def test_lookups_apply_the_index_rule(self):
        # a fractional key used to read as a set that is not focal
        m = MassVector.categorical({0})
        for key in ({0.5}, {float("inf")}, {float("nan")}, {-1}):
            with pytest.raises(MassError):
                m.mass(key)
            with pytest.raises(MassError):
                key in m
            with pytest.raises(MassError):
                m[key]
        assert m.mass({1}) == 0.0 and {1} not in m
        with pytest.raises(KeyError):
            m[{1}]
        assert m.mass((0.0,)) == m[[np.int64(0)]] == 1.0 and {True - 1} in m

    def test_lookups_beyond_every_focal_set_build_no_wide_mask(self):
        # a mask of bit 2**62 would take 512 PB, more than any address space
        # holds, so a lookup that built it would raise MemoryError at once
        m = MassVector.categorical({0, 1})
        for key in ({2**62}, {0, 2**62}, {2}, set()):
            assert m.mass(key) == 0.0 and key not in m
            with pytest.raises(KeyError):
                m[key]
        assert m.mass({0, 1}) == m[{1, 0}] == 1.0 and {0, 1} in m

    def test_repr_lists_sets_in_canonical_order(self):
        m = MassVector({frozenset({0, 2}): 0.5, frozenset({1}): 0.5})
        assert repr(m) == "MassVector({{1}: 0.5, {0, 2}: 0.5})"

    def test_allclose_within_and_beyond_the_tolerance(self):
        a = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5})
        near = MassVector({frozenset({0}): 0.5 - 5e-10, frozenset({1}): 0.5 + 5e-10})
        far = MassVector({frozenset({0}): 0.5 - 1e-6, frozenset({1}): 0.5 + 1e-6})
        assert a.allclose(near) and near.allclose(a)
        assert not a.allclose(far) and not far.allclose(a)
        assert a.allclose(far, tol=1e-5)

    def test_allclose_with_a_set_only_one_side_holds(self):
        a = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.5})
        b = MassVector({frozenset({0}): 0.5, frozenset({0, 1}): 0.5})
        assert not a.allclose(b) and not b.allclose(a)
        one = MassVector.categorical({0})
        trace = MassVector({frozenset({0}): 1.0 - 1e-10, frozenset({2}): 1e-10})
        assert one.allclose(trace) and trace.allclose(one)
        assert not one.allclose(trace, tol=1e-11)

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

    def test_dense_keeps_the_order_only_up_to_the_dense_limit(self):
        from evinet.engine import DENSE_PLACE_LIMIT, _dense_masks

        m = MassVector({frozenset({0, 2}): 1.0})
        m.dense(DENSE_PLACE_LIMIT)
        cached = _dense_masks.cache_info().currsize
        wide = m.dense(DENSE_PLACE_LIMIT + 2)
        assert _dense_masks.cache_info().currsize == cached
        assert len(wide) == 2 ** (DENSE_PLACE_LIMIT + 2) - 1
        assert wide[DENSE_PLACE_LIMIT + 2 + 1] == 1.0  # {0, 2} follows {0, 1}

    @pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 12, 13, 16, 34, 65, 100])
    def test_the_sort_key_orders_masks_as_place_set_key(self, width):
        from evinet.engine import _canonical_key, _members, _order_key

        rng = random.Random(width)
        masks = list({rng.getrandbits(width) or 1 for _ in range(300)})
        expected = sorted(masks, key=lambda x: place_set_key(frozenset(_members(x))))
        # steps sort by _order_key: a rank up to 12 places, _canonical_key above
        assert sorted(masks, key=_order_key(width)) == expected
        assert sorted(masks, key=_canonical_key(width)) == expected

    @pytest.mark.parametrize("width", range(1, 13))
    def test_the_rank_table_is_the_canonical_enumeration(self, width):
        from evinet.engine import _canonical_masks, _dense_masks

        ranks = _dense_masks(width)
        assert list(ranks) == list(_canonical_masks(width))
        assert list(ranks.values()) == list(range((1 << width) - 1))

    def test_a_far_place_index_costs_memory_by_the_mask_not_by_its_text(self):
        # the masks are 1.2 MiB each; a key built from a 10**7-character text
        # peaked at 24 MiB
        tracemalloc.start()
        try:
            m = MassVector({(10**7,): 0.5, (10**7 - 1,): 0.5})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.focal_sets() == (frozenset({10**7 - 1}), frozenset({10**7}))
        assert peak < 8 * 2**20

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

    def test_fractional_indices_are_rejected_not_truncated(self, fig1):
        # {0.7} used to read as {0}
        with pytest.raises(ValueError, match=r"place indices must be integers, got \{0.7\}"):
            transform(fig1, {0.7}, (0, 0, 0))
        with pytest.raises(ValueError, match="place indices must be integers"):
            transform(fig1, (0, 1.5), (1, 0, 0))
        # infinite values raised OverflowError
        with pytest.raises(ValueError, match="place indices must be integers"):
            transform(fig1, {float("inf")}, (0, 0, 0))
        with pytest.raises(ValueError, match="receptivity bits must be 0 or 1"):
            transform(fig1, (0,), (float("inf"), 0, 0))
        assert transform(fig1, (0.0, np.int64(1)), (1, 0, 0)) == transform(fig1, {0, 1}, (1, 0, 0))
        assert transform(fig1, iter([True]), (0, 1, 0)) == frozenset({2})

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

    def test_a_merged_mass_above_one_is_returned(self, fig1):
        # each mass is in [0, 1] and the sum within the tolerance, so the
        # merged mass on {P1}, that sum, is above 1 and stands
        mass = MassVector({frozenset({0}): 0.5 + 4e-10, frozenset({2}): 0.5 + 4e-10})
        after = step(fig1, mass, (0, 0, 1))
        assert after.focal_sets() == (frozenset({0}),)
        assert after.mass({0}) == (0.5 + 4e-10) + (0.5 + 4e-10) > 1.0

    def test_focal_set_beyond_the_places_rejected(self, fig1):
        with pytest.raises(ValueError, match="^mass vector has place indices beyond 3 places$"):
            step(fig1, MassVector.categorical({3}), (0, 0, 0))

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

    def test_cycle_wider_than_a_machine_word(self):
        net = cycle_net(34)
        mass = MassVector({frozenset({32, 33}): 0.5, frozenset({33}): 0.5})
        last_only = (0,) * 33 + (1,)
        after = step(net, mass, last_only)
        assert after == MassVector({frozenset({0, 32}): 0.5, frozenset({0}): 0.5})
        trajectory = run(net, mass, [last_only, (1,) * 34, (0,) * 34])
        assert trajectory.steps[0][1] == after
        assert trajectory.final == MassVector(
            {frozenset({1, 33}): 0.5, frozenset({1}): 0.5}
        )

    def test_steps_recorded_in_order(self, fig1):
        inputs = [(0, 1, 0), (0, 0, 0), (1, 0, 0)]
        trajectory = run(fig1, ignorance_mass(fig1), inputs)
        assert [r for r, _ in trajectory.steps] == inputs
        current = ignorance_mass(fig1)
        for r, mass in trajectory.steps:
            current = step(fig1, current, r)
            assert mass == current

    def test_a_run_sorts_every_step_by_the_net_width(self):
        from evinet.engine import _canonical_key, _dense_masks

        # the widest focal set moves each step, but the net's width does not;
        # up to 12 places the key is a rank table, above them a per-mask key
        mass = MassVector({frozenset({0}): 0.5, frozenset({5, 6}): 0.5})
        for n, keys in ((12, _dense_masks), (16, _canonical_key)):
            keys.cache_clear()
            trajectory = run(cycle_net(n), mass, [(1,) * n] * 2 * n)
            assert trajectory.final == mass
            assert keys.cache_info().misses <= 2


class TestCoercion:
    """Each call coerces each receptivity once; on a cached (net, receptivity)
    pair nothing else coerces it again."""

    def test_each_receptivity_is_coerced_once(self, fig1, count_calls):
        import evinet.engine as engine_module
        import evinet.net as net_module

        inputs = [(0, 1, 0), (1, 0, 0), (0, 1, 0)]
        run(fig1, ignorance_mass(fig1), inputs)  # fills the firing rule's cache
        in_engine = count_calls(engine_module, "coerce_receptivity")
        in_net = count_calls(net_module, "coerce_receptivity")
        calls = [
            (lambda: run(fig1, ignorance_mass(fig1), inputs), 3, 0),
            (lambda: step(fig1, ignorance_mass(fig1), (0, 1, 0)), 1, 0),
            (lambda: transform(fig1, {0, 2}, (1, 0, 0)), 1, 0),
            (lambda: classic_step(fig1, (1, 0, 0), (1, 0, 0)), 0, 1),
        ]
        for call, engine_count, net_count in calls:
            in_engine.clear()
            in_net.clear()
            call()
            assert (len(in_engine), len(in_net)) == (engine_count, net_count)


class TestLongRuns:
    """Each focal set has one image, so masses move and merge but never split:
    a run merges at most (focal count - 1) times and then only moves floats,
    and its total cannot drift from 1."""

    def test_a_rotating_belief_returns_exactly_every_cycle(self):
        net = cycle_net(3)
        initial = MassVector({x: w / 28 for x, w in zip(place_sets(3), range(1, 8))})
        assert len(initial) == 7
        mass = initial
        for k in range(1, 30_001):
            mass = step(net, mass, (1, 1, 1))
            if k % 3 == 0:
                assert mass == initial, k

    def test_a_random_stream_on_a_conflict_net_keeps_its_total(self):
        rng = random.Random(20131001)
        net = ring_with_chords(rng, 6, 2)
        weights = {x: rng.randint(1, 1000) for x in place_sets(6)}
        total = sum(weights.values())
        mass = MassVector({x: w / total for x, w in weights.items()})
        for _ in range(5_000):
            mass = step(net, mass, random_admissible_receptivity(rng, net))
            assert abs(math.fsum(mass.values()) - 1.0) <= NORMALIZATION_TOL


def _net_of(rng: random.Random, n: int):
    """A random net of exactly ``n >= 2`` places: every transition moves a
    token to another place, so no valid net has one."""
    pairs = []
    for _ in range(rng.randint(1, n + 3)):
        src = rng.randrange(n)
        pairs.append((src, rng.choice([i for i in range(n) if i != src])))
    return net_from_transitions(n, pairs)


def _bits_of(mass: MassVector) -> list[tuple[int, str]]:
    return [(x, value.hex()) for x, value in mass._masses.items()]


class TestFlatImages:
    """``step`` takes images from one flat table per receptivity up to 12 places
    and skips the merge when no two images collide. It must give the byte-table
    step's dict, in its key order and to the bit, and the incidence oracle's
    masses, on both sides of 12 places and with and without collisions."""

    def check(self, net, mass, r) -> bool:
        """Assert the three steps agree; True when two sources shared an image."""
        got = step(net, mass, r)
        assert _bits_of(got) == _bits_of(step_byte_tables(net, mass, r))
        brute = step_brute(net.pre, net.post, dict(mass.items()), r)
        expected = sorted(brute.items(), key=lambda item: set_key(item[0]))
        assert [(x, v.hex()) for x, v in got.items()] == [
            (x, v.hex()) for x, v in expected
        ]
        return len(got) < len(mass)

    def test_the_flat_table_of_1_to_12_places(self):
        from evinet.engine import _flat_images

        rng = random.Random(12)
        for n in range(1, 13):
            successors = tuple(rng.randrange(n) for _ in range(n))
            images = [
                sum(1 << y for y in {successors[i] for i in range(n) if x >> i & 1})
                for x in range(1 << n)
            ]
            assert list(_flat_images(successors)) == images

    def test_random_nets_of_2_to_14_places(self):
        rng = random.Random(20131016)
        collided = []
        for n in range(2, 15):
            for _ in range(6):
                net = _net_of(rng, n)
                mass = random_mass(rng, n, max_focals=40)
                r = random_admissible_receptivity(rng, net)
                collided.append(self.check(net, mass, r))
        assert any(collided) and not all(collided)

    @pytest.mark.parametrize("n", [12, 34])
    def test_cycles_with_and_without_collisions(self, n):
        rng = random.Random(n)
        net = cycle_net(n)
        mass = random_mass(rng, n, max_focals=300 if n == 12 else 40)
        # with every singleton focal, a receptivity firing place i but not its
        # successor merges {i} into {i + 1}
        weights = {x: value / 2 for x, value in mass.items()}
        for i in range(n):
            key = frozenset({i})
            weights[key] = weights.get(key, 0.0) + 1 / (2 * n)
        mass = MassVector(weights)
        # a receptivity that fires all or none of a cycle permutes the places
        for r in ((1,) * n, (0,) * n):
            assert not self.check(net, mass, r)
        collisions = [
            self.check(net, mass, tuple(rng.randint(0, 1) for _ in range(n)))
            for _ in range(4)
        ]
        assert any(collisions)

    def test_a_shared_image_merges(self, fig1):
        # under 100, {P1} moves to {P2} and {P2} stays there
        mass = MassVector({frozenset({0}): 0.1, frozenset({1}): 0.2, frozenset({2}): 0.7})
        assert self.check(fig1, mass, (1, 0, 0))
        assert _bits_of(step(fig1, mass, (1, 0, 0))) == [
            (0b010, (0.0 + 0.1 + 0.2).hex()),
            (0b100, (0.0 + 0.7).hex()),
        ]

    def test_a_run_agrees_with_the_byte_table_step(self):
        rng = random.Random(7)
        net = cycle_net(12)
        expected = random_mass(rng, 12, max_focals=300)
        inputs = [tuple(rng.randint(0, 1) for _ in range(12)) for _ in range(20)]
        inputs += [(1,) * 12, (0,) * 12]
        trajectory = run(net, expected, inputs)
        for r, (_, mass) in zip(inputs, trajectory.steps):
            expected = step_byte_tables(net, expected, r)
            assert _bits_of(mass) == _bits_of(expected)


class TestImageCache:
    """The 64 cached image functions bound what they hold: an 8 KiB array
    per receptivity up to 12 places, byte tables of Python ints above."""

    @pytest.mark.parametrize("n, bound_mib", [(12, 1.0), (34, 2.5)])
    def test_64_receptivities_hold_a_bounded_cache(self, n, bound_mib):
        from evinet.engine import _image
        from evinet.net import _successors, coerce_receptivity

        rng = random.Random(n)
        net = cycle_net(n)
        distinct = {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(80)}
        receptivities = [coerce_receptivity(net, r) for r in sorted(distinct)[:64]]
        assert len(receptivities) == 64
        _image.cache_clear()
        _successors.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for bits in receptivities:
                _image(net, bits)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert _image.cache_info().currsize == 64
        # measured: 0.54 MiB at 12 places (flat Python lists took 9.3 MiB),
        # 2.2 MiB at 34 places
        assert held < bound_mib * 2**20


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


class TestMappingProtocol:
    def test_a_mass_vector_is_never_equal_to_a_dict(self):
        m = MassVector({frozenset({0}): 1.0})
        assert (m == {frozenset({0}): 1.0}) is False
        assert m != {frozenset({0}): 1.0}

    def test_membership(self):
        m = MassVector({frozenset({0}): 0.5, frozenset({1, 2}): 0.5})
        assert {0} in m and (2, 1) in m
        assert {1} not in m and frozenset() not in m  # not focal
        assert {0, 9} not in m and {40} not in m  # beyond every focal set
        with pytest.raises(MassError, match="place indices must be integers"):
            (0.5,) in m
        with pytest.raises(TypeError):
            5 in m

    def test_pairs_naming_one_set_merge_within_the_bound(self):
        # the pairs sum to 1 + 1e-10, inside the normalization tolerance, and
        # merge on {0} into that sum; a sum beyond the tolerance is rejected
        assert MassVector([({0}, 0.6), ({0}, 0.4000000001)]).mass({0}) == 0.6 + 0.4000000001
        with pytest.raises(MassError, match=r"^masses sum to 1\.2, expected 1 within 1e-09$"):
            MassVector([({0}, 0.6), ({0}, 0.6)])
        assert MassVector([({0}, 0.5), ({0}, 0.5)]) == MassVector.categorical({0})
