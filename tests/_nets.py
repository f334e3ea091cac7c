"""Net builders and random generators shared across the test modules."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from evinet import MassVector, PetriNet, check_receptivity

FIG1_PRE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
FIG1_POST = ((0, 0, 1), (1, 0, 0), (0, 1, 0))

FIG2_PRE = ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
FIG2_POST = ((0, 0, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def fig1_net() -> PetriNet:
    return PetriNet(
        places=("P1", "P2", "P3"),
        transitions=("t1", "t2", "t3"),
        pre=FIG1_PRE,
        post=FIG1_POST,
        name="fig1",
    )


def fig2_net() -> PetriNet:
    return PetriNet(
        places=("P1", "P2", "P3"),
        transitions=("t1", "t2", "t3", "t4"),
        pre=FIG2_PRE,
        post=FIG2_POST,
        name="fig2",
    )


def net_from_transitions(n: int, pairs, name="net") -> PetriNet:
    """Build a net from (pre_place, post_place) pairs, one per transition."""
    m = len(pairs)
    pre = [[0] * m for _ in range(n)]
    post = [[0] * m for _ in range(n)]
    for j, (src, dst) in enumerate(pairs):
        pre[src][j] = 1
        post[dst][j] = 1
    return PetriNet(
        places=tuple(f"P{i + 1}" for i in range(n)),
        transitions=tuple(f"t{j + 1}" for j in range(m)),
        pre=tuple(map(tuple, pre)),
        post=tuple(map(tuple, post)),
        name=name,
    )


def cycle_net(n: int, name="cycle") -> PetriNet:
    return net_from_transitions(n, [(i, (i + 1) % n) for i in range(n)], name=name)


def alternating_net(m: int, name="alternating") -> PetriNet:
    """Two places joined by m parallel transitions, P1 -> P2 and P2 -> P1 in turn."""
    return net_from_transitions(2, [(j % 2, 1 - j % 2) for j in range(m)], name=name)


def random_net(rng: random.Random, max_places: int = 8, max_transitions: int = 10) -> PetriNet:
    n = rng.randint(2, max_places)
    m = rng.randint(1, max_transitions)
    pairs = []
    for _ in range(m):
        src = rng.randrange(n)
        dst = rng.choice([i for i in range(n) if i != src])
        pairs.append((src, dst))
    return PetriNet(
        places=tuple(f"P{i + 1}" for i in range(n)),
        transitions=tuple(f"t{j + 1}" for j in range(m)),
        pre=tuple(
            tuple(1 if pairs[j][0] == i else 0 for j in range(m)) for i in range(n)
        ),
        post=tuple(
            tuple(1 if pairs[j][1] == i else 0 for j in range(m)) for i in range(n)
        ),
        name="random",
    )


def ring_with_chords(rng: random.Random, n: int, chords: int) -> PetriNet:
    """A ring P1 -> ... -> Pn -> P1 plus chords from distinct places, in shuffled
    transition order.

    A chord skips at least one place, so it never duplicates a ring arc, and
    each chord source is a conflict place with two output transitions.
    """
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for src in rng.sample(range(n), chords):
        pairs.append((src, (src + rng.randint(2, n - 1)) % n))
    rng.shuffle(pairs)
    return net_from_transitions(n, pairs, name="ring")


def fan_out_net(outputs, rng: random.Random | None = None) -> PetriNet:
    """Place i has ``outputs[i]`` output transitions, to the next places around
    a ring; ``rng``, when given, shuffles the transition order."""
    n = len(outputs)
    pairs = [(i, (i + k) % n) for i, count in enumerate(outputs) for k in range(1, count + 1)]
    if rng is not None:
        rng.shuffle(pairs)
    return net_from_transitions(n, pairs, name="fanout")


def random_cycle(rng: random.Random, max_places: int = 8) -> PetriNet:
    n = rng.randint(2, max_places)
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[k], order[(k + 1) % n]) for k in range(n)]
    return net_from_transitions(n, pairs, name="rcycle")


def spelled_line(rng: random.Random, bits) -> str:
    """A stream line of ``bits`` separated by commas, spaces or tabs, ending in
    LF, CRLF or a trailing comment."""
    separator = rng.choice((" ", ",", "\t", ", ", " \t"))
    return separator.join(map(str, bits)) + rng.choice(("\n", "\r\n", " # seen\n", "\t#\r\n"))


def random_admissible_receptivity(rng: random.Random, net: PetriNet):
    while True:
        bits = tuple(rng.randint(0, 1) for _ in range(net.transition_count))
        if not check_receptivity(net, bits):
            return bits


def all_admissible_receptivities(net: PetriNet):
    m = net.transition_count
    out = []
    for value in range(1 << m):
        bits = tuple(int(c) for c in format(value, f"0{m}b"))
        if not check_receptivity(net, bits):
            out.append(bits)
    return out


def random_mass(rng: random.Random, n: int, max_focals: int = 4) -> MassVector:
    count = rng.randint(1, max_focals)
    masks = rng.sample(range(1, 1 << n), min(count, (1 << n) - 1))
    weights = [rng.randint(1, 8) for _ in masks]
    total = sum(weights)
    return MassVector(
        {
            frozenset(i for i in range(n) if (mask >> i) & 1): w / total
            for mask, w in zip(masks, weights)
        }
    )


def _benchmark_module(name: str):
    """``evibench/<name>.py``, loaded unchanged from its file."""
    path = Path(__file__).resolve().parent.parent / "evibench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"evibench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def benchmark_generator():
    """``evibench/gen.py``, the benchmark's seeded input generator."""
    return _benchmark_module("gen")


def benchmark_reference():
    """``evibench/reference.py``, the benchmark's output checker, which imports
    nothing from evinet."""
    return _benchmark_module("reference")
