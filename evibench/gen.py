"""Seeded inputs for the four benchmark workloads.

Every file is a pure function of (workload, seed): the generator draws from
``random.Random(f"{workload}:{seed}")``, whose string seeding is stable
across processes and hash seeds, so generating twice gives identical bytes.

    python3 evibench/gen.py --workload wide --seed 3 --out evibench/out/inputs
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

WORKLOADS = ("stream", "wide", "table", "equations")

STREAM_LINES = 5000  # lines in one `run` invocation on fig2
WIDE_PLACES = 12
WIDE_FOCAL_SETS = 300
WIDE_LINES = 100
# Table and equations nets are sized so that one pass takes well under a
# second here: a run then holds dozens of passes and its median pass time
# steps over the seconds-long slow spells of a shared machine.
TABLE_PLACES = 8  # ring of 8 plus one chord: 9 transitions, one conflict place
EQUATIONS_PLACES = 7  # ring of 7 plus two chords: 9 transitions, two conflict places

# The paper's conflict net: P1 chooses between t1 (to P2) and t2 (to P3).
FIG2_ARCS = ((0, 1), (0, 2), (1, 0), (2, 0))


def net_text(name: str, n: int, arcs, order=None) -> str:
    """A net document; ``arcs`` holds one (pre place, post place) pair per transition.

    ``order`` permutes the declaration order of the transitions, so that the
    transition numbering (and with it the receptivity bit order) is seeded too.
    """
    order = list(range(len(arcs))) if order is None else list(order)
    lines = [
        "# format: evinet v1",
        f"net {name}",
        "places: " + ", ".join(f"P{i + 1}" for i in range(n)),
        "transitions: " + ", ".join(f"t{j + 1}" for j in range(len(arcs))),
    ]
    for j, k in enumerate(order):
        src, dst = arcs[k]
        lines.append(f"arc: P{src + 1} -> t{j + 1}")
        lines.append(f"arc: t{j + 1} -> P{dst + 1}")
    return "\n".join(lines) + "\n"


def ring_with_chords(rng: random.Random, n: int, chords: int):
    """A ring P1 -> P2 -> ... -> Pn -> P1 plus chords from distinct places.

    A chord skips at least one place, so it never duplicates a ring arc, and
    each chord source becomes a conflict place with two output transitions.
    """
    arcs = [(i, (i + 1) % n) for i in range(n)]
    for src in rng.sample(range(n), chords):
        arcs.append((src, (src + rng.randint(2, n - 1)) % n))
    order = list(range(len(arcs)))
    rng.shuffle(order)
    return arcs, order


def _stream_lines(rng: random.Random, combos, count: int) -> str:
    return "".join(" ".join(map(str, rng.choice(combos))) + "\n" for _ in range(count))


def generate(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the inputs of one workload into ``out`` and return their paths."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if workload == "stream":
        files["net"] = net_text("fig2", 3, FIG2_ARCS)
        combos = [
            bits
            for bits in ((v >> 3 & 1, v >> 2 & 1, v >> 1 & 1, v & 1) for v in range(16))
            if not (bits[0] and bits[1])  # t1 and t2 share P1
        ]
        files["stream"] = _stream_lines(rng, combos, STREAM_LINES)
    elif workload == "wide":
        n = WIDE_PLACES
        files["net"] = net_text("cycle12", n, [(i, (i + 1) % n) for i in range(n)])
        masks = rng.sample(range(1, 1 << n), WIDE_FOCAL_SETS)
        weights = [rng.randint(1, 1000) for _ in masks]
        total = sum(weights)
        files["initial"] = " ".join(
            "{" + ",".join(f"P{i + 1}" for i in range(n) if mask >> i & 1) + "}"
            + f":{weight / total!r}"
            for mask, weight in zip(masks, weights)
        ) + "\n"
        # all-ones rotates every place set by one, all-zeros keeps it
        files["stream"] = _stream_lines(rng, [(1,) * n, (0,) * n], WIDE_LINES)
    elif workload == "table":
        arcs, order = ring_with_chords(rng, TABLE_PLACES, 1)
        files["net"] = net_text("ring8", TABLE_PLACES, arcs, order)
    elif workload == "equations":
        arcs, order = ring_with_chords(rng, EQUATIONS_PLACES, 2)
        files["net"] = net_text("ring7", EQUATIONS_PLACES, arcs, order)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for key, text in files.items():
        path = out / f"{key}.txt"
        path.write_text(text, encoding="utf-8")
        paths[key] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description="Write the seeded inputs of one workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    options = parser.parse_args()
    for key, path in generate(options.workload, options.seed, options.out).items():
        print(f"{key}: {path}")


if __name__ == "__main__":
    main()
