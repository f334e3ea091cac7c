"""The one run loop, ``engine._walk``, behind ``engine.run`` and ``evinet run``.

The walk is diffed bit for bit against the step loop it replaced (kept in
``_oracle``), which range-checked and summed the masses of every step; the
CLI's records are diffed against ``engine.run``'s trajectory; and the CLI's
memory must not grow with the length of its input. A mass the constructor
accepts, its sum at either edge of the tolerance, never fails a step, and each
merge moves the sum by at most an ulp. ``evinet validate`` scans a net once.

``evinet run`` does a distinct line's work once: its per-run memos are diffed
against parsing, stepping and writing every line on its own, they stay within
their bounds and set off no garbage collection of their own, a repeated line
never hashes or compares the net, and an error after memo hits still names
its own line.
"""

from __future__ import annotations

import gc
import io
import math
import random
import sys
import tracemalloc
import weakref

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
from evinet import engine as engine_module
from evinet import net as net_module
from evinet.cli import main
from evinet.dsl import parse_net, parse_receptivity_line
from evinet.engine import DENSE_PLACE_LIMIT, NORMALIZATION_TOL, _members, _walk
from evinet.net import PetriNet
from _nets import (
    alternating_net,
    cycle_net,
    fig2_net,
    random_admissible_receptivity,
    random_mass,
    random_net,
)
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
        lines = [
            _record_line(net, form, index, bits, mass)
            for index, (bits, mass) in enumerate(zip([None, *stream], masses))
        ]
        assert result.stdout == "".join(lines)


def _record_line(net, form: str, index: int, bits, mass: MassVector) -> str:
    """One record of ``evinet run``, written by :func:`serialize_mass`."""
    r_text = "".join(map(str, bits)) if bits is not None else "-"
    body = serialize_mass(mass, net.places, "dense" if form == "dense" else "sparse")
    if form == "log" and net.place_count <= DENSE_PLACE_LIMIT:
        body += " dense=" + serialize_mass(mass, net.places, "dense")
    return f"step={index} r={r_text} mass={body}\n"


def _oracle_records(net, mass: MassVector, lines, form: str = "log"):
    """The records of ``evinet run`` over ``lines``, each line on its own: parsed
    by :func:`parse_receptivity_line`, stepped by :func:`step`, written by
    :func:`serialize_mass`; lazily, so a long stream is never held."""
    index = 0
    yield _record_line(net, form, 0, None, mass)
    for line_no, line in enumerate(lines, 1):
        bits = parse_receptivity_line(line, net.transition_count, line_no)
        if bits is not None:
            index += 1
            mass = step(net, mass, bits)
            yield _record_line(net, form, index, bits, mass)


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


class _Lines:
    """Standard input with no byte buffer: one line of ``lines`` per
    ``readline``, after a call of ``before``."""

    def __init__(self, lines, before=lambda: None):
        self.lines = iter(lines)
        self.before = before

    def readline(self) -> str:
        self.before()
        return next(self.lines, "")


def _run_in_process(args, stdin, stdout) -> int:
    """The exit status of ``evinet run ARGS`` in this process, on ``stdin`` and
    ``stdout``."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    try:
        main.main(args=["run", *args], prog_name="evinet", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdin, sys.stdout = saved


def test_no_net_is_hashed_or_compared_per_line(monkeypatch, data_dir):
    # The caches key on a net equal to, but not the same object as, the one the
    # command parses, as in a second run in one process.
    path = data_dir / "fig2.evinet"
    twin = parse_net(path.read_text())
    combos = [(0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 1, 1)]
    engine_module._image.cache_clear()
    for bits in combos:
        engine_module._image(twin, bits)
    calls = {"__eq__": 0, "__hash__": 0}
    counting = []

    def counted(name):
        original = getattr(PetriNet, name)

        def method(*args):
            calls[name] += bool(counting)
            return original(*args)

        return method

    for name in calls:
        monkeypatch.setattr(PetriNet, name, counted(name))
    rng = random.Random(2000)
    lines = [" ".join(map(str, rng.choice(combos))) + "\n" for _ in range(2000)]
    out = io.StringIO()
    # counted from the first line read, past the command's set-up
    status = _run_in_process(
        ["--net", str(path)], _Lines(lines, lambda: counting.append(1)), out
    )
    counting.clear()
    assert status == 0
    distinct = len(set(lines))
    assert distinct == len(combos)
    assert calls["__eq__"] <= distinct and calls["__hash__"] <= distinct
    assert out.getvalue() == "".join(
        _oracle_records(twin, ignorance_mass(twin), lines, "sparse")
    )


def _fig2_with_long_comments(count):
    """Distinct fig2 lines, each with a 4 KiB comment, so none is kept."""
    rng = random.Random(count)
    combos = ["0 0 0 0", "1 0 1 1", "0 1 0 1", "0 0 1 0", "1 0 0 0", "0 1 1 1"]
    for k in range(count):
        yield f"{rng.choice(combos)} # {k} {'x' * 4096}\n"


def _wide_with_short_comments(count):
    """Distinct lines of 1000 bits with short comments, each short enough to keep."""
    rng = random.Random(count)
    combos = []
    for ones in ((), (0,), (1,), (0, 1)):  # at most one true output per place
        bits = ["0"] * 1000
        for j in ones:
            bits[j] = "1"
        combos.append(" ".join(bits))
    for k in range(count):
        yield f"{rng.choice(combos)} # {k}\n"


@pytest.mark.parametrize(
    "net, lines, count, bound",
    [
        # measured: 0.16 MiB; keeping the lines would take 80 MiB, 32 MiB of
        # them at the memo's 8192-entry bound
        (fig2_net(), _fig2_with_long_comments, 20_000, 1 << 20),
        # every line is kept up to the byte budget: 486 lines, about 1.5 MiB;
        # 8192 of them would take 24 MiB
        (alternating_net(1000), _wide_with_short_comments, 4_000, cli._LINE_MEMO_BYTES),
    ],
    ids=["long-comments", "wide"],
)
def test_distinct_lines_stay_within_the_memo_bound(tmp_path, net, lines, count, bound):
    path = tmp_path / "net.evinet"
    path.write_text(serialize_net(net))
    initial = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.25, frozenset({0, 1}): 0.25})
    args = ["--net", str(path), "--format", "log", "--initial", serialize_mass(initial, net.places)]
    _run_in_process(args, _Lines(lines(10)), io.StringIO())  # fill the per-net caches
    records = tmp_path / "records.txt"
    with open(records, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            status = _run_in_process(args, _Lines(lines(count)), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < bound
    with open(records, encoding="utf-8") as got:
        expected = _oracle_records(net, initial, lines(count))
        assert all(a == b for a, b in zip(got, expected, strict=True))


def test_distinct_lines_set_off_no_more_garbage_collections(tmp_path):
    # Kept tuples would count towards the collector's threshold, and each
    # collection walks every live image table: the memos keep none, so a
    # longer stream of distinct lines sets off no more collections.
    net = cycle_net(12)
    path = tmp_path / "cycle.evinet"
    path.write_text(serialize_net(net))
    codes = random.Random(12).sample(range(1 << 12), 4000)
    lines = [" ".join(f"{code:012b}") + "\n" for code in codes]
    args = ["--net", str(path)]
    _run_in_process(args, _Lines(lines), io.StringIO())  # fill the per-net caches

    def collections(count):
        started = []

        def counted(phase, info):
            started.append(phase == "start")

        gc.collect()
        gc.callbacks.append(counted)
        try:
            assert _run_in_process(args, _Lines(lines[:count]), io.StringIO()) == 0
        finally:
            gc.callbacks.remove(counted)
        return sum(started)

    short = collections(2000)
    # measured: 3 and 3; 6 and 11 when each line's bits are kept in a tuple
    assert collections(4000) <= short + 1


@pytest.mark.parametrize("n", [12, 34])
def test_the_image_memo_holds_at_most_64_images(monkeypatch, tmp_path, n):
    rng = random.Random(n)
    net = cycle_net(n)
    path = tmp_path / "cycle.evinet"
    path.write_text(serialize_net(net))
    initial = random_mass(rng, n, max_focals=12)
    distinct = sorted({tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(120)})
    assert len(distinct) > 64
    lines = [" ".join(map(str, rng.choice(distinct))) + "\n" for _ in range(600)]
    expected = "".join(_oracle_records(net, initial, lines, "sparse"))

    class Tracked:
        __slots__ = ("image", "__weakref__")

        def __init__(self, image):
            self.image = image

        def __call__(self, x):
            return self.image(x)

    images, live = engine_module._image, weakref.WeakSet()
    made, most = [], []

    def tracked(net, bits):
        made.append(bits)
        image = Tracked(images(net, bits))
        live.add(image)
        return image

    monkeypatch.setattr(engine_module, "_image", tracked)
    out = io.StringIO()
    args = ["--net", str(path), "--initial", serialize_mass(initial, net.places)]
    status = _run_in_process(args, _Lines(lines, lambda: most.append(len(live))), out)
    assert status == 0
    assert out.getvalue() == expected
    assert max(most) == 64  # full, and never fuller
    assert len(set(lines)) < len(made) < len(lines)  # evicted and refetched, and hit


_INITIAL = "{P1}:0.5 {P2}:0.25 {P2,P3}:0.25"
# repeated valid lines, blank and comment lines, then one that fails
_VALID = ["0 1 0 1\n", "1 0 0 0\n", "# note\n", "\n", "0 1 0 1\n", "1 0 0 0\n", "\n", "0 1 0 1\n"]


@pytest.mark.parametrize(
    "bad, error",
    [
        ("0 1 2 1\n", "non-binary token '2'"),
        ("0 1 0\n", "expected 4 receptivity bits, got 3"),
        ("1 1 0 0\n", "receptivity 1100 enables conflicting transitions at P1 with t1, t2"),
    ],
    ids=["non-binary", "width", "conflict"],
)
def test_an_error_after_memo_hits_names_its_own_line(data_dir, bad, error):
    path = data_dir / "fig2.evinet"
    net = parse_net(path.read_text())
    lines = [*_VALID, bad, *_VALID]
    result = CliRunner().invoke(
        main, ["run", "--net", str(path), "--initial", _INITIAL, "--format", "log"],
        input="".join(lines),
    )
    assert result.exit_code == 1
    initial = MassVector({frozenset({0}): 0.5, frozenset({1}): 0.25, frozenset({1, 2}): 0.25})
    assert result.stdout == "".join(_oracle_records(net, initial, _VALID))
    assert result.stderr == f"error: line {len(_VALID) + 1}: {error}\n"
