from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    ConflictError,
    ConflictSet,
    DimensionError,
    PetriNet,
    check_receptivity,
    classic_step,
    detect_conflicts,
    enabled_transitions,
    validate_net,
)
from _nets import (
    FIG1_POST,
    FIG1_PRE,
    all_admissible_receptivities,
    fig1_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_net,
)
from _oracle import classic_step_brute


class TestValidateNet:
    def test_fig1_is_valid(self, fig1):
        assert validate_net(fig1).ok

    def test_fig2_is_valid(self, fig2):
        assert validate_net(fig2).ok

    def test_broken_conservation_reports_column_sum(self):
        net = PetriNet(
            places=("P1", "P2"),
            transitions=("t1",),
            pre=((1,), (0,)),
            post=((0,), (0,)),
        )
        report = validate_net(net)
        assert not report.ok
        conservation = [v for v in report.violations if v.kind == "conservation"]
        assert len(conservation) == 1
        assert conservation[0].transition == 0
        assert conservation[0].message == "column 0 of post - pre sums to -1"

    def test_non_binary_entry(self):
        net = PetriNet(
            places=("P1", "P2"),
            transitions=("t1",),
            pre=((2,), (0,)),
            post=((0,), (1,)),
        )
        kinds = {v.kind for v in validate_net(net).violations}
        assert "entry-range" in kinds

    def test_multi_pre_column_rejected(self):
        # one transition draining two places (synchronization) is out of scope
        net = PetriNet(
            places=("P1", "P2", "P3"),
            transitions=("t1",),
            pre=((1,), (1,), (0,)),
            post=((0,), (0,), (1,)),
        )
        report = validate_net(net)
        kinds = {v.kind for v in report.violations}
        assert "pre-column" in kinds and "conservation" in kinds

    def test_self_loop_rejected(self):
        net = PetriNet(
            places=("P1", "P2"),
            transitions=("t1", "t2"),
            pre=((1, 0), (0, 1)),  # t1 loops on P1, t2 returns P2 -> P1
            post=((1, 1), (0, 0)),
        )
        violations = validate_net(net).violations
        loops = [v for v in violations if v.kind == "self-loop"]
        assert loops and loops[0].transition == 0 and loops[0].place == 0

    def test_duplicate_names_rejected(self):
        net = PetriNet(
            places=("P1", "P1"),
            transitions=("t1",),
            pre=((1,), (0,)),
            post=((0,), (1,)),
        )
        assert any(v.kind == "duplicate-name" for v in validate_net(net).violations)

    def test_no_transitions_reported(self):
        net = PetriNet(places=("P1",), transitions=(), pre=((),), post=((),))
        assert any(v.kind == "size" for v in validate_net(net).violations)

    def test_valid_nets_have_zero_column_sums(self):
        rng = random.Random(7)
        for _ in range(50):
            net = random_net(rng)
            assert validate_net(net).ok
            for j in range(net.transition_count):
                assert sum(net.post[i][j] - net.pre[i][j] for i in range(net.place_count)) == 0


class TestDetectConflicts:
    def test_fig2_has_the_single_conflict(self, fig2):
        assert detect_conflicts(fig2) == (
            ConflictSet(place=0, transitions=frozenset({0, 1})),
        )

    def test_fig1_is_conflict_free(self, fig1):
        assert detect_conflicts(fig1) == ()

    def test_three_way_fan(self):
        # P1 feeds t1, t2, t3 into P2, P3, P4
        net = net_from_transitions(4, [(0, 1), (0, 2), (0, 3)])
        assert detect_conflicts(net) == (
            ConflictSet(place=0, transitions=frozenset({0, 1, 2})),
        )


class TestCheckReceptivity:
    def test_fig2_simultaneous_conflict_pair(self, fig2):
        violations = check_receptivity(fig2, (1, 1, 0, 0))
        assert len(violations) == 1
        assert violations[0].place == 0
        assert violations[0].true_transitions == frozenset({0, 1})

    def test_fig2_single_member_ok(self, fig2):
        assert check_receptivity(fig2, (0, 1, 0, 0)) == ()

    def test_fig1_accepts_everything(self, fig1):
        assert check_receptivity(fig1, (1, 1, 1)) == ()
        assert len(all_admissible_receptivities(fig1)) == 8

    def test_conflict_free_accepts_all_combinations(self):
        rng = random.Random(21)
        for _ in range(20):
            net = random_net(rng)
            if detect_conflicts(net):
                continue
            assert len(all_admissible_receptivities(net)) == 2 ** net.transition_count

    def test_dimension_mismatch(self, fig1):
        with pytest.raises(DimensionError):
            check_receptivity(fig1, (1, 0))

    def test_any_bit_sequence_is_coerced_first(self, fig2):
        for r in ([1, 1, 0, 0], (True, True, False, False), "1100", (1.0, 1, 0, 0)):
            assert check_receptivity(fig2, r) == check_receptivity(fig2, (1, 1, 0, 0))
        assert check_receptivity(fig2, "0100") == ()
        with pytest.raises(ValueError):
            check_receptivity(fig2, (2, 0, 0, 0))

    def test_fractional_bits_are_rejected_not_truncated(self, fig1):
        import numpy as np
        from evinet import ignorance_mass, step
        from evinet.net import coerce_receptivity

        with pytest.raises(ValueError, match="0.5, 0.9, 1.7"):
            coerce_receptivity(fig1, (0.5, 0.9, 1.7))
        with pytest.raises(ValueError):
            step(fig1, ignorance_mass(fig1), (0.5, 0, 0))
        for r in ((1, 0, 0), (True, False, False), (1.0, 0.0, 0.0),
                  np.array([1, 0, 0]), np.array([True, False, False])):
            assert coerce_receptivity(fig1, r) == (1, 0, 0)

    def test_step_checks_and_coerces_once(self, fig2, monkeypatch):
        import evinet.net as net_module
        from evinet import ignorance_mass, step

        calls = []
        for name in ("check_receptivity", "coerce_receptivity"):
            original = getattr(net_module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(net_module, name, counted)
        step(fig2, ignorance_mass(fig2), (0, 1, 0, 0))
        assert sorted(calls) == ["check_receptivity", "coerce_receptivity"]


class TestEnabledTransitions:
    def test_single_output(self, fig1):
        assert enabled_transitions(fig1, 0, (1, 0, 0)) == frozenset({0})

    def test_conflict_pair_both_true(self, fig2):
        assert enabled_transitions(fig2, 0, (1, 1, 0, 0)) == frozenset({0, 1})

    def test_false_bit_disables(self, fig1):
        assert enabled_transitions(fig1, 1, (1, 0, 1)) == frozenset()

    def test_place_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            enabled_transitions(fig1, 3, (0, 0, 0))


class TestClassicStep:
    def test_enabled_transition_moves_token(self, fig1):
        assert classic_step(fig1, (1, 0, 0), (1, 0, 0)) == (0, 1, 0)

    def test_disabled_transition_keeps_token(self, fig1):
        assert classic_step(fig1, (1, 0, 0), (0, 1, 0)) == (1, 0, 0)

    def test_fig2_conflict_place_fires_second_branch(self, fig2):
        assert classic_step(fig2, (1, 0, 0), (0, 1, 0, 0)) == (0, 0, 1)

    def test_matches_incidence_arithmetic(self, fig1):
        marks = classic_step(fig1, (1, 0, 0), (1, 0, 0))
        assert list(marks) == classic_step_brute(FIG1_PRE, FIG1_POST, [1, 0, 0], [1, 0, 0])

    def test_conflicting_receptivity_rejected(self, fig2):
        with pytest.raises(ConflictError):
            classic_step(fig2, (0, 1, 0), (1, 1, 0, 0))

    def test_dimension_mismatch(self, fig1):
        with pytest.raises(DimensionError):
            classic_step(fig1, (1, 0), (0, 0, 0))

    def test_bad_marking(self, fig1):
        with pytest.raises(ValueError):
            classic_step(fig1, (1, 1, 0), (0, 0, 0))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_token_count_preserved(self, seed):
        rng = random.Random(seed)
        net = random_net(rng)
        token = rng.randrange(net.place_count)
        marks = tuple(1 if i == token else 0 for i in range(net.place_count))
        r = random_admissible_receptivity(rng, net)
        after = classic_step(net, marks, r)
        assert sum(after) == 1
        assert all(v in (0, 1) for v in after)
        assert list(after) == classic_step_brute(net.pre, net.post, list(marks), list(r))

    def test_all_false_is_identity(self):
        rng = random.Random(3)
        for _ in range(25):
            net = random_net(rng)
            token = rng.randrange(net.place_count)
            marks = tuple(1 if i == token else 0 for i in range(net.place_count))
            assert classic_step(net, marks, (0,) * net.transition_count) == marks


def test_fig1_matrices_match_construction():
    net = fig1_net()
    assert net.pre == FIG1_PRE
    assert net.post == FIG1_POST
    assert net.place_index("P2") == 1
    assert net.transition_index("t3") == 2
