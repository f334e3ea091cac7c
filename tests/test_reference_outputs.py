"""CLI outputs checked by ``evibench/reference.py``, which imports nothing from
evinet, so a change that moves the package and its test oracles together
still shows here: ``equations``, raw and minimized, and ``table`` on seeded
rings with chords and fan-out nets, and ``run`` records on cycles and rings of
up to 34 places."""

from __future__ import annotations

import csv
import math
import random

import pytest
from click.testing import CliRunner

from evinet import cli
from evinet.dsl import serialize_mass, serialize_net
from _nets import (
    benchmark_generator,
    benchmark_reference,
    cycle_net,
    fan_out_net,
    random_mass,
    ring_with_chords,
    spelled_line,
)

TOLERANCE = 1e-9  # the benchmark's own, in evibench/run.py


def _rings_and_fans(workload, sizes):
    """A seeded ring with chords and a fan-out net at each of ``sizes`` places,
    of 8 transitions at most, so each check stays near 10 ms."""
    rng = random.Random(f"reference:{workload}")
    nets = []
    for n in sizes:
        nets.append(ring_with_chords(rng, n, rng.randint(0, min(2, n - 2))))
        outputs = [0] * n
        for place in rng.sample(range(n), rng.randint(1, min(3, n))):
            outputs[place] = rng.randint(1, min(2, n - 1))
        nets.append(fan_out_net(outputs, rng))
    return nets


def _assert_equations_pass_the_reference(net_path):
    reference = benchmark_reference()
    net = reference.read_net(net_path.read_text(encoding="utf-8"))
    for flags in ([], ["--minimize"]):
        result = CliRunner().invoke(cli.main, ["equations", "--net", str(net_path), *flags])
        assert result.exit_code == 0 and result.stderr == "", result.output
        assert reference.check_equations(net, result.stdout) is None, flags


def _net_id(net):
    return f"{net.name}{net.place_count}x{net.transition_count}"


@pytest.mark.parametrize("net", _rings_and_fans("equations", range(2, 7)), ids=_net_id)
def test_equations_of_rings_and_fans_pass_the_reference(net, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(serialize_net(net), encoding="utf-8")
    _assert_equations_pass_the_reference(path)


def test_equations_of_the_first_benchmark_net_pass_the_reference(tmp_path):
    _assert_equations_pass_the_reference(benchmark_generator().generate("equations", 1, tmp_path)["net"])


def test_a_one_place_net_has_no_equations(tmp_path):
    # its one transition would loop on its one place, which no net may hold
    path = tmp_path / "net.txt"
    path.write_text(serialize_net(ring_with_chords(random.Random(1), 1, 0)), encoding="utf-8")
    for flags in ([], ["--minimize"]):
        result = CliRunner().invoke(cli.main, ["equations", "--net", str(path), *flags])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.startswith("error:") and "loops" in result.stderr


def _assert_table_passes_the_reference(net_path, tmp_path):
    reference = benchmark_reference()
    net = reference.read_net(net_path.read_text(encoding="utf-8"))
    csv_path = tmp_path / "table.csv"
    result = CliRunner().invoke(cli.main, ["table", "--net", str(net_path), "--output", str(csv_path)])
    assert result.exit_code == 0 and result.stderr == "", result.output
    assert result.stdout == f"{reference.cell_count(net)} rows\n"
    rank = {x: k for k, x in enumerate(reference.canonical_sets(net.n))}
    units = {}  # each receptivity's unit images, None when it is not admissible
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        assert next(rows) == ["subset", "receptivity_bits", "result_subset"]
        last, count = (-1, -1), 0
        for x_label, bits, y_label in rows:
            count += 1
            x = reference.parse_place_set(x_label, net.places)
            cell = (rank[x], int(bits, 2))  # canonical subset order, then binary order
            assert cell > last, (x_label, bits)
            last = cell
            if bits not in units:
                r = tuple(map(int, bits))
                units[bits] = reference.unit_images(net, r) if reference.admissible(net, r) else None
            assert units[bits] is not None, bits
            y = reference.parse_place_set(y_label, net.places)
            assert sum(1 << i for i in y) == reference.image_mask(units[bits], sum(1 << i for i in x))
    assert count == reference.cell_count(net)


@pytest.mark.parametrize("net", _rings_and_fans("table", range(2, 9)), ids=_net_id)
def test_tables_of_rings_and_fans_pass_the_reference(net, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(serialize_net(net), encoding="utf-8")
    _assert_table_passes_the_reference(path, tmp_path)


def test_the_table_of_the_first_benchmark_net_passes_the_reference(tmp_path):
    paths = benchmark_generator().generate("table", 1, tmp_path / "inputs")
    _assert_table_passes_the_reference(paths["net"], tmp_path)


def _admissible(reference, net, rng):
    while True:
        r = tuple(rng.randint(0, 1) for _ in range(net.m))
        if reference.admissible(net, r):
            return r


def _assert_records_pass_the_reference(reference, net, initial, receptivities, stdout, dense):
    """Each record of ``stdout`` against the reference's step from ``initial``,
    a sparse record or None for ignorance, over ``receptivities``."""
    records = stdout.splitlines()
    assert len(records) == len(receptivities) + 1
    belief = reference.ignorance(net) if initial is None else reference.parse_sparse(initial, net.places)
    sets = list(reference.canonical_sets(net.n)) if dense else None
    for k, record in enumerate(records):
        step_no, r, got, vector = reference.parse_record(record, net.places)
        assert step_no == k
        if k:
            assert r == receptivities[k - 1]
            belief = reference.step(net, belief, r)
        else:
            assert r is None
        assert reference.beliefs_close(got, belief, TOLERANCE), record
        assert abs(math.fsum(got.values()) - 1.0) <= TOLERANCE
        if dense:
            assert len(vector) == len(sets)
            assert all(abs(v - got.get(x, 0.0)) <= TOLERANCE for v, x in zip(vector, sets))
        else:
            assert vector is None


@pytest.mark.parametrize("n", range(2, 35))
def test_run_records_of_cycles_and_rings_pass_the_reference(n, tmp_path):
    reference = benchmark_reference()
    rng = random.Random(f"reference:run:{n}")
    nets = [cycle_net(n)]
    if n > 2:  # a chord skips a place
        nets.append(ring_with_chords(rng, n, rng.randint(1, min(2, n - 2))))
    for k, net in enumerate(nets):
        path = tmp_path / f"net{k}.txt"
        path.write_text(serialize_net(net), encoding="utf-8")
        ref = reference.read_net(path.read_text(encoding="utf-8"))
        distinct = [_admissible(reference, ref, rng) for _ in range(rng.randint(2, 5))]
        receptivities = distinct * 2 + rng.choices(distinct, k=4)  # each one repeated
        rng.shuffle(receptivities)
        stream = "".join(spelled_line(rng, r) for r in receptivities)
        initial = serialize_mass(random_mass(rng, n, max_focals=6), net.places)
        for start in (None, initial):
            for form in ("sparse", "log"):
                args = ["run", "--net", str(path), "--format", form]
                result = CliRunner().invoke(
                    cli.main, args if start is None else [*args, "--initial", start], input=stream
                )
                assert result.exit_code == 0 and result.stderr == "", result.output
                dense = form == "log" and n <= 10
                _assert_records_pass_the_reference(
                    reference, ref, start, receptivities, result.stdout, dense
                )
        conflicts = [t for row in ref.pre if sum(row) > 1 for t in range(ref.m) if row[t]]
        if conflicts:
            # both outputs of a conflict place true, part way through the stream
            bad = list(distinct[0])
            for t in conflicts[:2]:
                bad[t] = 1
            cut = rng.randint(1, len(receptivities) - 1)
            before = stream.splitlines(keepends=True)[:cut]
            result = CliRunner().invoke(
                cli.main, ["run", "--net", str(path), "--format", "log", "--initial", initial],
                input="".join(before) + spelled_line(rng, bad) + stream,
            )
            assert result.exit_code == 1
            _assert_records_pass_the_reference(
                reference, ref, initial, receptivities[:cut], result.stdout, n <= 10
            )
            assert result.stderr.startswith(f"error: line {cut + 1}: receptivity ")
            assert result.stderr.count("\n") == 1 and "conflicting" in result.stderr
