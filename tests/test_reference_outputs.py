"""CLI outputs checked by ``evibench/reference.py``, which imports nothing from
evinet, so a change that moves the package and its test oracles together
still shows here."""

from __future__ import annotations

import random

import pytest
from click.testing import CliRunner

from evinet import cli
from evinet.dsl import serialize_net
from _nets import benchmark_generator, benchmark_reference, fan_out_net, ring_with_chords


def _rings_and_fans():
    """A seeded ring with chords and a fan-out net at each size of 2-6 places,
    of 8 transitions at most, so each check stays near 10 ms."""
    rng = random.Random("reference:equations")
    nets = []
    for n in range(2, 7):
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


@pytest.mark.parametrize("net", _rings_and_fans(), ids=lambda net: f"{net.name}{net.place_count}"
                         f"x{net.transition_count}")
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
