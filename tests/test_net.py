from __future__ import annotations

import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    ConflictError,
    ConflictSet,
    DimensionError,
    InvalidNetError,
    MassEquation,
    MassVector,
    NetDocument,
    PetriNet,
    ReceptivityConflict,
    Trajectory,
    TransferTable,
    ValidationReport,
    Violation,
    build_transfer_table,
    check_receptivity,
    classic_step,
    detect_conflicts,
    enabled_transitions,
    ignorance_mass,
    step,
    validate_net,
)
from evinet.net import _Structure
from _nets import (
    FIG1_POST,
    FIG1_PRE,
    all_admissible_receptivities,
    cycle_net,
    fig1_net,
    net_from_transitions,
    random_admissible_receptivity,
    random_net,
)
from _oracle import classic_step_brute, coerce_bits_generator


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

    def test_fractional_entries_are_rejected_not_truncated(self):
        import numpy as np

        # (1.9, 0) used to be stored as (1, 0)
        with pytest.raises(ValueError, match=r"pre row 0 entries must be integers, got \(1.9, 0\)"):
            PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                     pre=((1.9, 0), (0, 1)), post=((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="post row 1 entries must be integers"):
            PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                     pre=((1, 0), (0, 1)), post=((0, 1), (0.5, 0)))
        # an infinite entry raised OverflowError
        with pytest.raises(ValueError, match="pre row 1 entries must be integers"):
            PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                     pre=((1, 0), (0, float("inf"))), post=((0, 1), (1, 0)))
        net = PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                       pre=((1.0, False), np.array([0, 1])), post=((0, True), (np.int64(1), 0.0)))
        assert net.pre == ((1, 0), (0, 1)) and net.post == ((0, 1), (1, 0))
        assert all(type(v) is int for row in net.pre + net.post for v in row)
        assert validate_net(net).ok

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


@pytest.mark.parametrize(
    "operation",
    [
        build_transfer_table,
        lambda net: step(net, ignorance_mass(net), (0, 1, 0)),
        detect_conflicts,
    ],
    ids=["build_transfer_table", "step", "detect_conflicts"],
)
def test_an_invalid_net_raises_with_its_report(operation):
    # t1 loops on P1
    net = net_from_transitions(2, [(0, 0), (0, 1), (1, 0)])
    report = validate_net(net)
    assert [v.kind for v in report.violations] == ["self-loop"]
    with pytest.raises(InvalidNetError) as err:
        operation(net)
    assert err.value.report == report


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
        # infinite and NaN bits raised OverflowError and int()'s ValueError
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="receptivity bits must be 0 or 1"):
                coerce_receptivity(fig1, (bad, 0, 0))
        with pytest.raises(DimensionError):
            coerce_receptivity(fig1, (float("inf"), 0))
        for r in ((1, 0, 0), (True, False, False), (1.0, 0.0, 0.0),
                  np.array([1, 0, 0]), np.array([True, False, False])):
            assert coerce_receptivity(fig1, r) == (1, 0, 0)

    def test_step_checks_and_coerces_once(self, fig2, count_calls):
        import evinet.engine as engine_module
        import evinet.net as net_module
        from evinet import ignorance_mass, step

        # cleared, so the first step misses both caches whatever ran before
        engine_module._image.cache_clear()
        net_module._successors.cache_clear()
        coercions = count_calls(engine_module, "coerce_receptivity")
        checks = count_calls(net_module, "check_receptivity")
        mass = step(fig2, ignorance_mass(fig2), (0, 1, 0, 0))
        step(fig2, mass, (0, 1, 0, 0))
        # each step coerces; the firing rule finds conflicts in its own loop and
        # calls check_receptivity only to report a rejected receptivity
        assert len(coercions) == 2
        assert len(checks) == 0

    def test_a_rejected_receptivity_is_checked_on_every_call(self, fig2, count_calls):
        import evinet.engine as engine_module
        import evinet.net as net_module
        from evinet import ignorance_mass, step

        engine_module._image.cache_clear()
        net_module._successors.cache_clear()
        expected = check_receptivity(fig2, (1, 1, 0, 0))
        assert expected
        checks = count_calls(net_module, "check_receptivity")
        for _ in range(3):
            with pytest.raises(ConflictError) as err:
                step(fig2, ignorance_mass(fig2), (1, 1, 0, 0))
            assert err.value.conflicts == expected
        assert len(checks) == 3  # the cache keeps no exception
        assert net_module._successors.cache_info().currsize == 0
        assert engine_module._image.cache_info().currsize == 0


def _coercion(coerce, make, width):
    """The bits and their types, or the exception type and message."""
    try:
        bits = coerce(make(), width, "net has {} transitions")
    except Exception as exc:  # every exception type is compared
        return type(exc), str(exc)
    return bits, tuple(map(type, bits))


def _bit_values():
    import numpy as np

    return [
        0, 1, True, False, 2, -1, 10**30, np.int64(1), np.int8(0), np.uint8(1),
        np.bool_(True), np.int64(2), np.float64(1.0), np.float32(0.0), np.float64(0.5),
        1.0, 0.0, -0.0, 0.5, 1.0000001, float("inf"), float("-inf"), float("nan"),
        "0", "1", "2", " 1", "1 ", "1.0", "", b"1", None, [1], (0,), 1j,
    ]


class TestCoerceBits:
    """The C-level coercion against the generator form it replaced (kept in
    ``_oracle``): the same tuple, or the same exception type and message."""

    def test_each_value_in_each_position(self):
        from evinet.net import _coerce_bits

        for value in _bit_values():
            for r in ((value, 0, 1), (1, value, 0), (0, 1, value), (value,), (value, value)):
                for width in (len(r), 3):
                    make = lambda r=r: r  # noqa: E731
                    expected = _coercion(coerce_bits_generator, make, width)
                    assert _coercion(_coerce_bits, make, width) == expected, r

    def test_sequences_generators_and_wrong_lengths(self):
        from evinet.net import _coerce_bits

        makers = [
            lambda: [1, 0, 1], lambda: (b for b in (1, 0, 1)), lambda: iter("101"),
            lambda: "101", lambda: range(2), lambda: (), lambda: [0, 1],
            lambda: [0, 1, 0, 1], lambda: (b for b in (0.5, 1)), lambda: [float("nan")] * 4,
            lambda: (b for b in ("1", None, 0)),
        ]
        for make in makers:
            for width in (0, 2, 3, 4):
                expected = _coercion(coerce_bits_generator, make, width)
                assert _coercion(_coerce_bits, make, width) == expected

    def test_random_receptivities(self):
        from evinet.net import _coerce_bits

        rng = random.Random(119)
        values = _bit_values() + [0, 1] * 20
        for _ in range(3000):
            r = tuple(rng.choice(values) for _ in range(rng.randint(0, 6)))
            width = len(r) + rng.choice((0, 0, 0, -1, 1))
            make = lambda r=r: r  # noqa: E731
            assert _coercion(_coerce_bits, make, width) == _coercion(
                coerce_bits_generator, make, width
            ), r


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

    def test_fractional_marking_is_rejected_not_truncated(self, fig1):
        import numpy as np

        # (1.5, 0, 0) and (1, 0.2, 0) used to read as (1, 0, 0)
        for marks in ((1.5, 0, 0), (1, 0.2, 0), (float("inf"), 0, 0)):
            with pytest.raises(ValueError, match="marking entries must be integers"):
                classic_step(fig1, marks, (1, 0, 0))
        assert classic_step(fig1, (1.0, False, np.int64(0)), (1, 0, 0)) == (0, 1, 0)

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


class TestHash:
    def test_equal_nets_hash_equal_and_share_cache_entries(self):
        from evinet.net import _successors

        a, b = cycle_net(12), cycle_net(12)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((a.places, a.transitions, a.pre, a.post, a.name))
        bits = (1,) + (0,) * 11
        first = _successors(a, bits)
        hits = _successors.cache_info().hits
        assert _successors(b, bits) is first
        assert _successors.cache_info().hits == hits + 1

    def test_hash_survives_a_pickle_round_trip(self, fig2):
        import pickle

        copy = pickle.loads(pickle.dumps(fig2))
        assert copy == fig2 and hash(copy) == hash(fig2) and repr(copy) == repr(fig2)

    def test_a_net_unpickled_under_another_hash_seed_rehashes(self, fig2):
        # place names are strings, whose hashes change with the seed, so a
        # copy carrying this process's hash would disagree with a net built there
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import evinet

        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        check = (
            "import pickle, sys\n"
            "from evinet import PetriNet\n"
            "net = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = PetriNet(net.places, net.transitions, net.pre, net.post, net.name)\n"
            "assert hash(net) == hash(fresh), (hash(net), hash(fresh))\n"
        )
        src = str(Path(evinet.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-c", check], input=pickle.dumps(fig2), env=env,
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode()


def _table_fields():
    table = build_transfer_table(net_from_transitions(2, [(0, 1)], name="pair"))
    return (table.net, table.admissible, table.rows, table._masks)


_PAIR = PetriNet(("a", "b"), ("t",), ((1,), (0,)), ((0,), (1,)))

# each record type with the names and values of its fields, and its repr
_RECORDS = {
    "PetriNet": (
        PetriNet,
        ("places", "transitions", "pre", "post", "name"),
        lambda: (("a", "b"), ("t",), ((1,), (0,)), ((0,), (1,)), "net"),
        "PetriNet(places=('a', 'b'), transitions=('t',), pre=((1,), (0,)),"
        " post=((0,), (1,)), name='net')",
    ),
    "Violation": (
        Violation,
        ("kind", "message", "place", "transition"),
        lambda: ("self-loop", "transition 1 loops on place 0", 0, 1),
        "Violation(kind='self-loop', message='transition 1 loops on place 0',"
        " place=0, transition=1)",
    ),
    "ValidationReport": (
        ValidationReport,
        ("violations",),
        lambda: ((Violation("size", "net has no transitions"),),),
        "ValidationReport(violations=(Violation(kind='size', message='net has no"
        " transitions', place=None, transition=None),))",
    ),
    "ConflictSet": (
        ConflictSet,
        ("place", "transitions"),
        lambda: (0, frozenset({1, 2})),
        "ConflictSet(place=0, transitions=frozenset({1, 2}))",
    ),
    "ReceptivityConflict": (
        ReceptivityConflict,
        ("place", "true_transitions"),
        lambda: (0, frozenset({1, 2})),
        "ReceptivityConflict(place=0, true_transitions=frozenset({1, 2}))",
    ),
    "_Structure": (
        _Structure,
        ("pre_place", "post_place", "outputs", "conflicts"),
        lambda: ((0,), (1,), (frozenset({0}), frozenset()), ()),
        "_Structure(pre_place=(0,), post_place=(1,), outputs=(frozenset({0}),"
        " frozenset()), conflicts=())",
    ),
    "Trajectory": (
        Trajectory,
        ("initial", "steps"),
        lambda: (MassVector({(0, 1): 1.0}), (((1,), MassVector({(1,): 1.0})),)),
        "Trajectory(initial=MassVector({{0, 1}: 1.0}), steps=(((1,),"
        " MassVector({{1}: 1.0})),))",
    ),
    "NetDocument": (
        NetDocument,
        ("name", "places", "transitions", "arcs"),
        lambda: ("pair", ("a", "b"), ("t",), (("a", "t"), ("t", "b"))),
        "NetDocument(name='pair', places=('a', 'b'), transitions=('t',),"
        " arcs=(('a', 't'), ('t', 'b')))",
    ),
    "TransferTable": (
        TransferTable,
        ("net", "admissible", "rows", "_masks"),
        _table_fields,
        "TransferTable(net=PetriNet(places=('P1', 'P2'), transitions=('t1',),"
        " pre=((1,), (0,)), post=((0,), (1,)), name='pair'), admissible=((0,), (1,)))",
    ),
    "MassEquation": (
        MassEquation,
        ("target", "transition_count", "terms"),
        lambda: (frozenset({1}), 2, (((1, None), frozenset({0})),)),
        "MassEquation(target=frozenset({1}), transition_count=2,"
        " terms=(((1, None), frozenset({0})),))",
    ),
}


def _matched(record):
    """The fields of ``record``, read back through positional class patterns."""
    match record:
        case PetriNet(places, transitions, pre, post, name):
            return places, transitions, pre, post, name
        case Violation(kind, message, place, transition):
            return kind, message, place, transition
        case ValidationReport(violations):
            return (violations,)
        case ConflictSet(place, transitions):
            return place, transitions
        case ReceptivityConflict(place, true_transitions):
            return place, true_transitions
        case _Structure(pre_place, post_place, outputs, conflicts):
            return pre_place, post_place, outputs, conflicts
        case Trajectory(initial, steps):
            return initial, steps
        case NetDocument(name, places, transitions, arcs):
            return name, places, transitions, arcs
        case TransferTable(net, admissible, rows, masks):
            return net, admissible, rows, masks
        case MassEquation(target, transition_count, terms):
            return target, transition_count, terms
    raise AssertionError(f"no pattern matched {record!r}")


@pytest.mark.parametrize("kind", sorted(_RECORDS))
class TestRecordTypes:
    """What callers may rely on of every record type: construction, equality,
    hashing, repr, immutability, pickling and class patterns."""

    def test_construction_by_position_and_by_name(self, kind):
        cls, names, values, _ = _RECORDS[kind]
        values = values()
        by_position, by_name = cls(*values), cls(**dict(zip(names, values)))
        for record in (by_position, by_name):
            assert tuple(getattr(record, name) for name in names) == values
        assert cls.__match_args__ == names
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, unknown=None)

    def test_equality_compares_fields_within_one_type(self, kind):
        cls, names, values, _ = _RECORDS[kind]
        values = values()
        record, twin = cls(*values), cls(*values)
        assert record == record and not record != record
        assert record != SimpleNamespace(**dict(zip(names, values)))
        assert record != values and values != record
        if kind == "TransferTable":  # a table is equal only to itself
            assert record != twin and hash(record) != hash(twin)
            return
        assert record == twin and not record != twin
        assert record != cls(*values[:-1], None)
        if kind == "Trajectory":  # a mass vector is unhashable
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == hash(values)

    def test_repr_names_each_field(self, kind):
        cls, _, values, text = _RECORDS[kind]
        assert repr(cls(*values())) == text

    def test_fields_cannot_be_set_or_deleted(self, kind):
        cls, names, values, _ = _RECORDS[kind]
        record = cls(*values())
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == values()

    def test_pickle_round_trip(self, kind):
        cls, names, values, _ = _RECORDS[kind]
        record = cls(*values())
        if kind == "TransferTable":  # its rows are a memoryview
            with pytest.raises(TypeError):
                pickle.dumps(record)
            return
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and repr(copy) == repr(record)

    def test_positional_class_patterns_read_every_field(self, kind):
        cls, _, values, _ = _RECORDS[kind]
        values = values()
        assert _matched(cls(*values)) == values


def test_defaults_fill_omitted_fields():
    assert Violation("size", "net has no transitions") == Violation(
        kind="size", message="net has no transitions", place=None, transition=None
    )
    assert Violation("entry-range", "m", transition=2).place is None
    net = PetriNet(("a", "b"), ("t",), ((1,), (0,)), ((0,), (1,)))
    assert net.name == "net" and net == _PAIR
    assert PetriNet(("a",), (), ((),), ((),), name="x").name == "x"


def test_records_of_two_types_with_equal_fields_differ():
    a, b = ConflictSet(0, frozenset({1, 2})), ReceptivityConflict(0, frozenset({1, 2}))
    assert a != b and b != a and not a == b


class TestValidateOnce:
    """``parse_net`` validates through the cached wiring, so a parsed net is
    scanned once, whatever steps or tables use it next."""

    @pytest.mark.parametrize("use", ["step", "table"])
    def test_parse_then_use_scans_once(self, data_dir, count_calls, use):
        import evinet.engine as engine_module
        import evinet.net as net_module
        from evinet import parse_net

        # cleared, so the step reaches the wiring however earlier tests ran
        net_module._structure.cache_clear()
        net_module._successors.cache_clear()
        engine_module._image.cache_clear()
        scans = count_calls(net_module, "validate_net")
        net = parse_net((data_dir / "fig2.evinet").read_text())
        if use == "step":
            step(net, ignorance_mass(net), (0, 1, 0, 0))
        else:
            build_transfer_table(net)
        assert len(scans) == 1


class TestShapeErrors:
    def test_a_net_needs_a_place(self):
        with pytest.raises(ValueError, match=r"^a net needs at least one place$"):
            PetriNet(places=(), transitions=(), pre=(), post=())

    def test_a_row_of_the_wrong_length(self):
        with pytest.raises(
            ValueError, match=r"^pre row 1 has 1 entries, expected 2 \(one per transition\)$"
        ):
            PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                     pre=((1, 0), (1,)), post=((0, 1), (1, 0)))
        with pytest.raises(
            ValueError, match=r"^post row 0 has 3 entries, expected 2 \(one per transition\)$"
        ):
            PetriNet(places=("P1", "P2"), transitions=("t1", "t2"),
                     pre=((1, 0), (0, 1)), post=((0, 1, 0), (1, 0)))

    def test_the_wrong_number_of_rows(self):
        with pytest.raises(ValueError, match=r"^pre has 1 rows, expected 2 \(one per place\)$"):
            PetriNet(places=("P1", "P2"), transitions=("t1",), pre=((1,),), post=((0,), (1,)))
        with pytest.raises(ValueError, match=r"^post has 3 rows, expected 2 \(one per place\)$"):
            PetriNet(places=("P1", "P2"), transitions=("t1",),
                     pre=((1,), (0,)), post=((0,), (1,), (0,)))
