"""The one run loop, ``engine._walk``, behind ``engine.run`` and ``evinet run``.

The walk is diffed bit for bit against the step loop it replaced (kept in
``_oracle``), which range-checked and summed the masses of every step; the
CLI's records are diffed against ``engine.run``'s trajectory; and the CLI's
memory must not grow with the length of its input. A mass the constructor
accepts, its sum at either edge of the tolerance, never fails a step, and each
merge moves the sum by at most an ulp. ``evinet validate`` scans a net once.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from evinet import (
    ConflictError,
    DimensionError,
    MassError,
    MassVector,
    TrajectoryError,
    build_transfer_table,
    ignorance_mass,
    run,
    serialize_mass,
    serialize_net,
    step,
    table_step,
)
from evinet import cli
from evinet import net as net_module
from evinet.cli import main
from evinet.engine import DENSE_PLACE_LIMIT, NORMALIZATION_TOL, _members, _walk
from _nets import random_admissible_receptivity, random_mass, random_net
from _oracle import advance_every_step, byte_table_image


def _random_walks():
    rng = random.Random(20261019)
    for k in range(80):
        # up to 16 places, so nets past the flat image tables step too
        net = random_net(rng, max_places=8 if k % 4 else 16, max_transitions=10)
        mass = random_mass(rng, net.place_count, max_focals=rng.choice((1, 4, 40)))
        stream = [random_admissible_receptivity(rng, net) for _ in range(rng.randint(0, 15))]
        yield net, mass, stream


def _exact(mass: MassVector) -> list[tuple[int, str]]:
    """The stored masks and masses of ``mass``, in order, each float bit for bit."""
    return [(x, v.hex()) for x, v in mass._masses.items()]


def test_the_walk_is_the_step_loop_it_replaced():
    merges = 0
    for net, mass, stream in _random_walks():
        walked = list(_walk(net, mass, stream))
        assert [bits for bits, _ in walked] == stream
        expected = mass
        for bits, got in walked:
            image = byte_table_image(net.pre, net.post, bits)
            after = advance_every_step(expected, image, net.place_count)
            merges += len(after) < len(expected)
            expected = after
            assert _exact(got) == _exact(expected)
        assert run(net, mass, stream).steps == tuple(walked)
    assert merges > 20  # the merge branch ran, not just the zip


@pytest.mark.parametrize(
    "initial, inputs, index, cause, match",
    [
        ({0}, [(0, 1, 0), (0, 2, 0)], 1, ValueError, "must be 0 or 1"),
        ({0}, [(0, 1, 0), (1, 1)], 1, DimensionError, "has 2 bits"),
        ({3}, [(0, 0, 0)], 0, ValueError, "mass vector has place indices beyond 3 places"),
        ({0}, [(1, 0, 0), (0, 1, 0), (0, 0, 0)], None, None, None),
        ({3}, [], None, None, None),  # an unchecked initial mass with no step to take
    ],
)
def test_run_keeps_its_results_and_errors(fig1, initial, inputs, index, cause, match):
    mass = MassVector.categorical(initial)
    if cause is None:
        trajectory = run(fig1, mass, inputs)
        assert trajectory.initial is mass
        assert len(trajectory.steps) == len(inputs)
        return
    with pytest.raises(TrajectoryError) as err:
        run(fig1, mass, inputs)
    assert err.value.index == index
    assert isinstance(err.value.cause, cause)
    assert err.value.__cause__ is err.value.cause
    assert match in str(err.value.cause)


def test_the_firing_rule_comes_before_the_range_check(fig2):
    with pytest.raises(TrajectoryError) as err:
        run(fig2, MassVector.categorical({3}), [(1, 1, 0, 0)])
    assert err.value.index == 0
    assert isinstance(err.value.cause, ConflictError)


def _accepted_pairs(rng: random.Random, n: int, edge: int) -> list[tuple[int, float]]:
    """(mask, mass) pairs over ``n`` places that the constructor accepts, their
    sum within an ulp or so of ``1 + edge * NORMALIZATION_TOL``; some pairs name
    one set twice."""
    masks = rng.sample(range(1, 1 << n), min(rng.choice((1, 3, 12)), (1 << n) - 1))
    weights = [rng.random() + 0.01 for _ in masks]
    scale = (1.0 + edge * NORMALIZATION_TOL) / sum(weights)
    pairs = []
    for mask, weight in zip(masks, weights):
        value = weight * scale
        if rng.random() < 0.3:
            part = value * rng.random()
            pairs += [(mask, part), (mask, value - part)]
        else:
            pairs.append((mask, value))
    while True:  # move the largest mass until the constructor's sum is accepted
        merged: dict[int, float] = {}
        for x, v in pairs:
            merged[x] = merged.get(x, 0.0) + v
        total = math.fsum(merged.values())
        if abs(total - 1.0) <= NORMALIZATION_TOL:
            return pairs
        bound = 1.0 + math.copysign(NORMALIZATION_TOL, total - 1.0)
        at = max(range(len(pairs)), key=lambda k: pairs[k][1])
        x, v = pairs[at]
        pairs[at] = (x, math.nextafter(v - (total - bound), 1.0 if total < 1 else 0.0))


@given(seed=st.integers(0, 2**32 - 1), edge=st.sampled_from((-1, 0, 1)))
@settings(max_examples=300, deadline=None)
def test_an_accepted_mass_never_fails_a_step(seed, edge):
    rng = random.Random(seed)
    net = random_net(rng, max_places=8, max_transitions=8)
    n = net.place_count
    mass = MassVector([(_members(x), v) for x, v in _accepted_pairs(rng, n, edge)])
    stream = [random_admissible_receptivity(rng, net) for _ in range(rng.randint(1, 12))]
    table = build_transfer_table(net)
    trajectory = run(net, mass, stream)
    before = expected = mass
    for bits, after in trajectory.steps:
        assert _exact(step(net, before, bits)) == _exact(after)
        assert _exact(table_step(table, before, bits)) == _exact(after)
        # each merge is one float addition, which rounds by at most an ulp
        merges = len(before) - len(after)
        drift = abs(math.fsum(after._masses.values()) - math.fsum(before._masses.values()))
        assert drift <= merges * 2**-52
        if expected is not None:  # the oracle bounds every merge at 1, until it raises
            image = byte_table_image(net.pre, net.post, bits)
            try:
                expected = advance_every_step(expected, image, n)
            except MassError:
                expected = None
            else:
                assert _exact(after) == _exact(expected)
        before = after


def _cli_cases():
    rng = random.Random(1019)
    for k in range(12):
        net = random_net(rng, max_places=DENSE_PLACE_LIMIT if k % 3 else 5, max_transitions=8)
        mass = random_mass(rng, net.place_count, max_focals=rng.choice((1, 4, 12)))
        stream = [random_admissible_receptivity(rng, net) for _ in range(rng.randint(0, 12))]
        yield net, mass if k % 2 else None, stream


@pytest.mark.parametrize("form", ["sparse", "dense", "log"])
def test_cli_records_are_the_trajectory(tmp_path, form):
    runner = CliRunner()
    for k, (net, initial, stream) in enumerate(_cli_cases()):
        path = tmp_path / f"net{k}.evinet"
        path.write_text(serialize_net(net))
        args = ["run", "--net", str(path), "--format", form]
        if initial is not None:
            args += ["--initial", serialize_mass(initial, net.places)]
        text = "".join(" ".join(map(str, bits)) + "\n" for bits in stream)
        result = runner.invoke(main, args, input=text)
        assert result.exit_code == 0, result.output

        trajectory = run(net, initial or ignorance_mass(net), stream)
        masses = [trajectory.initial, *(mass for _, mass in trajectory.steps)]
        lines = []
        for index, (bits, mass) in enumerate(zip([None, *stream], masses)):
            r_text = "".join(map(str, bits)) if bits is not None else "-"
            body = serialize_mass(mass, net.places, "dense" if form == "dense" else "sparse")
            if form == "log" and net.place_count <= DENSE_PLACE_LIMIT:
                body += " dense=" + serialize_mass(mass, net.places, "dense")
            lines.append(f"step={index} r={r_text} mass={body}\n")
        assert result.stdout == "".join(lines)


def test_a_failing_step_names_its_own_line(data_dir):
    # t1 and t2 both leave P1, so line 5 conflicts, after lines that step, a
    # comment and a blank line
    result = CliRunner().invoke(
        main,
        ["run", "--net", str(data_dir / "fig2.evinet")],
        input="0 0 0 0\n# note\n\n0 0 0 0\n1 1 0 0\n0 0 0 0\n",
    )
    assert result.exit_code == 1
    assert result.stdout.count("\n") == 3
    assert result.stderr == (
        "error: line 5: receptivity 1100 enables conflicting transitions at P1 with t1, t2\n"
    )


def _peak_bytes(monkeypatch, tmp_path, net_path, lines: int) -> int:
    """The ``tracemalloc`` peak of one ``evinet run`` over ``lines`` lines, its
    records written to a file."""
    rng = random.Random(lines)
    stream = tmp_path / "stream.txt"
    # fig2's admissible receptivities: t1 and t2 never both true
    choices = ["0 0 0 0", "1 0 1 1", "0 1 0 1", "0 0 1 0", "1 0 0 0", "0 1 1 1"]
    stream.write_text("".join(rng.choice(choices) + "\n" for _ in range(lines)))
    with open(tmp_path / "records.txt", "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            main.main(
                args=["run", "--net", str(net_path), "--format", "log", "--input", str(stream)],
                prog_name="evinet",
                standalone_mode=False,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    monkeypatch.undo()
    assert (tmp_path / "records.txt").read_text().count("\n") == lines + 1
    return peak


def test_a_run_keeps_no_state_per_line(monkeypatch, tmp_path, data_dir):
    net_path = data_dir / "fig2.evinet"
    _peak_bytes(monkeypatch, tmp_path, net_path, 2_000)  # fill the per-net caches
    short = _peak_bytes(monkeypatch, tmp_path, net_path, 2_000)
    long = _peak_bytes(monkeypatch, tmp_path, net_path, 20_000)
    assert long - short <= 64 * 1024


@pytest.mark.parametrize("name", ["fig1", "fig2", "broken"])
def test_validate_scans_the_net_once(monkeypatch, data_dir, name):
    calls = []
    original = net_module.validate_net

    def counted(net):
        calls.append(net)
        return original(net)

    for module in (net_module, cli):  # every binding the command could scan through
        if getattr(module, "validate_net", None) is original:
            monkeypatch.setattr(module, "validate_net", counted)
    net_module._structure.cache_clear()
    result = CliRunner().invoke(main, ["validate", "--net", str(data_dir / f"{name}.evinet")])
    assert len(calls) == 1
    expected = {
        "fig1": (0, "ok\nno conflicts\n", ""),
        "fig2": (0, "ok\nconflict: P1 -> {t1, t2}\n", ""),
        "broken": (
            1,
            "",
            "invalid: 2 violation(s)\n- column 1 of post - pre sums to -1\n"
            "- column 1 of post has 0 nonzero entries, expected exactly one 1\n",
        ),
    }
    assert (result.exit_code, result.stdout, result.stderr) == expected[name]
