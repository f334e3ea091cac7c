"""The int-mask belief store against the frozenset references in ``_oracle``.

``step`` is diffed against the incidence-matrix stepper and mass records
against the frozenset serializer, byte for byte, on random nets and masses,
on a 12-place cycle holding 300 focal sets, and on a 34-place cycle, wider
than a machine word.
"""

from __future__ import annotations

import random

import pytest

from evinet import MassVector, place_set_key, serialize_mass, step
from _nets import cycle_net, random_admissible_receptivity, random_mass, random_net
from _oracle import serialize_mass_frozensets, step_brute


def _spread_mass(rng: random.Random, n: int, count: int) -> MassVector:
    """``count`` distinct focal sets of n places with random weights."""
    masks = rng.sample(range(1, 1 << n), count)
    weights = [rng.randint(1, 1000) for _ in masks]
    total = sum(weights)
    return MassVector(
        {frozenset(i for i in range(n) if mask >> i & 1): w / total for mask, w in zip(masks, weights)}
    )


def _cases():
    rng = random.Random(19920101)
    cases = []
    for _ in range(40):
        net = random_net(rng, max_places=8, max_transitions=10)
        rs = [random_admissible_receptivity(rng, net) for _ in range(4)]
        cases.append((net, random_mass(rng, net.place_count, max_focals=12), rs))
    for n, count, steps in ((12, 300, 4), (34, 24, 2)):
        rs = [(1,) * n, (0,) * n, *(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(steps))]
        cases.append((cycle_net(n), _spread_mass(rng, n, count), rs))
    return cases


CASES = _cases()
IDS = [f"{net.name}{net.place_count}-{k}" for k, (net, _, _) in enumerate(CASES)]


def _trajectory(net, mass, rs):
    masses = [mass]
    for r in rs:
        masses.append(step(net, masses[-1], r))
    return masses


@pytest.mark.parametrize("net, mass, rs", CASES, ids=IDS)
def test_step_agrees_with_the_incidence_oracle(net, mass, rs):
    for r in rs:
        got = step(net, mass, r)
        expected = MassVector(step_brute(net.pre, net.post, dict(mass.items()), r))
        assert got.allclose(expected)
        # both add merged masses in canonical source order: the same floats
        assert got == expected
        mass = got


@pytest.mark.parametrize("net, mass, rs", CASES, ids=IDS)
def test_records_match_the_frozenset_serializer(net, mass, rs):
    forms = ("sparse", "dense") if net.place_count <= 10 else ("sparse",)
    for m in _trajectory(net, mass, rs):
        for places in (net.places, net.place_count):
            for form in forms:
                assert serialize_mass(m, places, form) == serialize_mass_frozensets(m, places, form)


@pytest.mark.parametrize("net, mass, rs", CASES, ids=IDS)
def test_focal_sets_are_frozensets_of_ints_in_canonical_order(net, mass, rs):
    for m in _trajectory(net, mass, rs):
        sets = m.focal_sets()
        assert all(type(x) is frozenset and all(type(i) is int for i in x) for x in sets)
        assert list(sets) == sorted(sets, key=place_set_key)
        assert list(m) == list(m.keys()) == list(sets)
        assert [value for _, value in m.items()] == [m[x] for x in sets]
        shuffled = list(m.items())
        random.Random(len(sets)).shuffle(shuffled)
        assert MassVector(shuffled).focal_sets() == sets

