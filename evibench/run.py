#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of evinet's `run`, `table` and `equations`.

Run from the root of a checkout; evinet is imported from that checkout's
``src/``:

    python3 evibench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Each run generates its inputs from the seed, drives the real CLI entry point
(``evinet.cli.main``) in this one process, closed loop from one client, and
checks every output against ``reference.py``. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics, their times scaled
to the machine's reference speed (see ``reference_loop``); with ``--trace 1``
untraced and traced rounds alternate and it carries the per-layer metrics,
the spans going to ``evibench/out/<workload>-<seed>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import click

import gen
import reference
from spans import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 12
# What `reference_loop` takes on this machine when its host is quiet. Every
# end-to-end time is scaled to that speed; see README.md, "Steadiness".
REFERENCE_S = 0.008
MIN_TIMED_ROUNDS = 3
MIN_TRACED_PAIRS = 2
TOLERANCE = 1e-9

# Started as a fresh interpreter: import the CLI and parse the inputs the way
# `run` does before it reads its first line, then report each stage's time.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import evinet.cli
from evinet import dsl
t1 = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as handle:
    net = dsl.parse_net(handle.read())
if len(sys.argv) > 3:
    with open(sys.argv[3], encoding="utf-8") as handle:
        dsl.parse_mass(handle.read(), net.places)
print(t1 - t0, flush=True)
"""


class Feeder:
    """Standard input for `run`: hands over one line per ``readline`` call."""

    def __init__(self, lines, tracer=None, first_op=0):
        self.lines = lines
        self.next = 0
        self.handed = None
        self.tracer = tracer
        self.first_op = first_op

    def readline(self) -> str:
        if self.next == len(self.lines):
            return ""
        line = self.lines[self.next]
        self.next += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.first_op + self.next)
        self.handed = perf_counter()
        return line


class Sink(io.TextIOBase):
    """Standard output of one command, written through to a real file.

    When a line was handed over, the flush of its record closes it: the time
    from hand-over to flush is the line's latency.
    """

    encoding = "utf-8"
    errors = "strict"

    def __init__(self, handle, feeder=None, latencies=None, tracer=None):
        self.handle = handle
        self.feeder = feeder
        self.latencies = latencies
        self.tracer = tracer
        self.chars = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if self.tracer is not None and not self.tracer.top_is("cli.write"):
            self.tracer.begin("cli.write")
        self.chars += len(text)
        return self.handle.write(text)

    def flush(self) -> None:
        self.handle.flush()
        if self.tracer is not None and self.tracer.top_is("cli.write"):
            self.tracer.end()
        feeder = self.feeder
        if feeder is not None and feeder.handed is not None:
            self.latencies.append(perf_counter() - feeder.handed)
            feeder.handed = None
            if self.tracer is not None:
                self.tracer.end_op()


def invoke(cli, argv, stdin, stdout) -> int:
    """Run one CLI command in this process; its exit status."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    try:
        cli.main(args=argv, prog_name="evinet", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException:
        return 2
    finally:
        sys.stdin, sys.stdout = saved


def digest(*paths: Path) -> str:
    """Hash of the files' bytes, read in chunks so that the hashing does not
    raise the peak memory the run reports."""
    h = hashlib.blake2b()
    for path in paths:
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 16):
                h.update(chunk)
    return h.hexdigest()


@dataclass(eq=False)
class Round:
    status: int
    elapsed: float
    digest: str
    latency: float  # median line latency for `run`, else the pass time
    scale: float = 1.0  # turns this round's times into times at the reference speed


def latency_s(rounds: list[Round], scaled: bool) -> float:
    """Mean over the rounds of each round's operation time.

    With ``scaled`` each round's time is first taken to the reference speed.
    The mean, not the median, since the rounds of a run mix a faster and a
    slower state of the machine and the median jumps between the two. Only
    one float per round is kept, so the harness's memory does not grow with
    the number of rounds that fit in a run.
    """
    return statistics.fmean(r.latency * (r.scale if scaled else 1.0) for r in rounds)


# --- workloads -------------------------------------------------------------


class RunWorkload:
    """`evinet run` over a generated stream; one operation is one line."""

    unit = "line"

    def __init__(self, cli, name, inputs, work):
        self.cli = cli
        self.name = name
        self.work = work
        self.net_text = inputs["net"].read_text(encoding="utf-8")
        self.lines = inputs["stream"].read_text(encoding="utf-8").splitlines(keepends=True)
        form = "log" if name == "stream" else "sparse"
        self.argv = ["run", "--net", str(inputs["net"]), "--format", form, "--input", "-"]
        self.initial = None
        if "initial" in inputs:
            self.initial = inputs["initial"].read_text(encoding="utf-8").strip()
            self.argv += ["--initial", self.initial]
        self.ops_per_round = len(self.lines)
        self.output_chars = 0

    def round(self, index, tracer=None) -> Round:
        out = self.work / ("round0.txt" if index == 0 else "round.txt")
        latencies = array("d")
        with open(out, "w", encoding="utf-8") as handle:
            feeder = Feeder(self.lines, tracer, index * len(self.lines))
            sink = Sink(handle, feeder, latencies, tracer)
            start = perf_counter()
            status = invoke(self.cli, self.argv, feeder, sink)
            elapsed = perf_counter() - start
        self.output_chars = sink.chars
        latency = statistics.median(latencies) if latencies else elapsed
        return Round(status, elapsed, digest(out), latency)

    def verify(self) -> str | None:
        net = reference.read_net(self.net_text)
        n = net.n
        records = (self.work / "round0.txt").read_text(encoding="utf-8").splitlines()
        if len(records) != len(self.lines) + 1:
            return f"{len(records)} records for {len(self.lines)} lines"
        if self.initial is None:
            belief = reference.ignorance(net)
        else:
            belief = reference.parse_sparse(self.initial, net.places)
        initial = belief
        masses = sorted(initial.values())
        ones = 0
        sets = list(reference.canonical_sets(n)) if n <= 10 else None
        for k, record in enumerate(records):
            step_no, r, got, dense = reference.parse_record(record, net.places)
            if step_no != k:
                return f"record {k} is numbered {step_no}"
            if k:
                want_r = tuple(int(c) for c in self.lines[k - 1].split())
                if r != want_r:
                    return f"record {k} echoes r={r}, line was {want_r}"
                ones += all(want_r)
                belief = reference.step(net, belief, r)
            elif r is not None:
                return "the initial record carries a receptivity"
            if not reference.beliefs_close(got, belief, TOLERANCE):
                return f"record {k} differs from the reference belief"
            if abs(math.fsum(got.values()) - 1.0) > TOLERANCE:
                return f"record {k} masses sum to {math.fsum(got.values())!r}"
            if dense is not None and (
                len(dense) != len(sets)
                or any(abs(v - got.get(s, 0.0)) > TOLERANCE for v, s in zip(dense, sets))
            ):
                return f"record {k}: dense vector disagrees with the sparse masses"
            if self.name == "wide" and (
                len(got) != len(initial) or sorted(got.values()) != masses
            ):
                return f"record {k} changed the focal count or the masses"
        if self.name == "wide":
            shift = ones % n
            rotated = {
                frozenset((i + shift) % n for i in x): v for x, v in initial.items()
            }
            if got != rotated:
                return "final belief is not the initial one rotated by the all-ones count"
        return None


class TableWorkload:
    """`evinet table`; one pass is one command, one operation one defined cell."""

    unit = "pass"

    def __init__(self, cli, name, inputs, work):
        self.cli = cli
        self.work = work
        self.net_text = inputs["net"].read_text(encoding="utf-8")
        self.net_path = inputs["net"]
        self.ops_per_round = reference.cell_count(reference.read_net(self.net_text))
        self.csv_bytes = 0

    def round(self, index, tracer=None) -> Round:
        csv_path = self.work / ("table0.csv" if index == 0 else "table.csv")
        out = self.work / "table.stdout"
        argv = ["table", "--net", str(self.net_path), "--output", str(csv_path)]
        with open(out, "w", encoding="utf-8") as handle:
            sink = Sink(handle, tracer=tracer)
            start = perf_counter()
            if tracer is not None:
                tracer.begin_op(index)
            status = invoke(self.cli, argv, None, sink)
            if tracer is not None:
                tracer.end_op()
            elapsed = perf_counter() - start
        self.csv_bytes = csv_path.stat().st_size
        return Round(status, elapsed, digest(csv_path, out), elapsed)

    def verify(self) -> str | None:
        net = reference.read_net(self.net_text)
        n, m = net.n, net.m
        want_rows = reference.cell_count(net)
        stdout = (self.work / "table.stdout").read_text(encoding="utf-8")
        if stdout != f"{want_rows} rows\n":
            return f"table printed {stdout.strip()!r}, expected {want_rows} rows"
        with open(self.work / "table0.csv", encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
            if next(rows) != ["subset", "receptivity_bits", "result_subset"]:
                return "unexpected CSV header"
            masks: dict[str, int] = {}
            combos: dict[str, tuple] = {}
            seen = bytearray(1 << (n + m))
            count = 0
            for x_label, bits, y_label in rows:
                count += 1
                xmask = masks.get(x_label)
                if xmask is None:
                    xmask = masks[x_label] = sum(
                        1 << i for i in reference.parse_place_set(x_label, net.places)
                    )
                ymask = masks.get(y_label)
                if ymask is None:
                    ymask = masks[y_label] = sum(
                        1 << i for i in reference.parse_place_set(y_label, net.places)
                    )
                combo = combos.get(bits)
                if combo is None:
                    r = tuple(int(c) for c in bits)
                    units = reference.unit_images(net, r) if reference.admissible(net, r) else None
                    combo = combos[bits] = (int(bits[::-1], 2), units)
                rmask, units = combo
                if units is None:
                    return f"row for rejected combination {bits}"
                if not xmask:
                    return "row for the empty set"
                cell = xmask << m | rmask
                if seen[cell]:
                    return f"cell ({x_label}, {bits}) listed twice"
                seen[cell] = 1
                if ymask != reference.image_mask(units, xmask):
                    return f"cell ({x_label}, {bits}) maps to {y_label}"
        if count != want_rows:
            return f"{count} rows, expected (2^n-1)*prod(k_i+1) = {want_rows}"
        return None


class EquationsWorkload:
    """`evinet equations`, then `--minimize`; one operation is one defined cell."""

    unit = "pass"

    def __init__(self, cli, name, inputs, work):
        self.cli = cli
        self.work = work
        self.net_text = inputs["net"].read_text(encoding="utf-8")
        self.net_path = inputs["net"]
        self.ops_per_round = 2 * reference.cell_count(reference.read_net(self.net_text))
        self.output_bytes = 0

    def round(self, index, tracer=None) -> Round:
        suffix = "0" if index == 0 else ""
        outputs = (self.work / f"raw{suffix}.txt", self.work / f"min{suffix}.txt")
        start = perf_counter()
        if tracer is not None:
            tracer.begin_op(index)
        status = 0
        for path, flags, variant in zip(outputs, ([], ["--minimize"]), ("", "_min")):
            with open(path, "w", encoding="utf-8") as handle:
                if tracer is not None:
                    tracer.variant = variant
                argv = ["equations", "--net", str(self.net_path), *flags]
                status = status or invoke(self.cli, argv, None, Sink(handle, tracer=tracer))
        if tracer is not None:
            tracer.end_op()
        elapsed = perf_counter() - start
        self.output_bytes = sum(p.stat().st_size for p in outputs)
        return Round(status, elapsed, digest(*outputs), elapsed)

    def verify(self) -> str | None:
        net = reference.read_net(self.net_text)
        for name in ("raw0.txt", "min0.txt"):
            text = (self.work / name).read_text(encoding="utf-8")
            try:
                problem = reference.check_equations(net, text)
            except ValueError as exc:
                problem = str(exc)
            if problem:
                return f"{name}: {problem}"
        return None


WORKLOAD_TYPES = {
    "stream": RunWorkload,
    "wide": RunWorkload,
    "table": TableWorkload,
    "equations": EquationsWorkload,
}


# --- tracing ---------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Spans around the public functions of cli, dsl, net, engine, table, minimize."""
    from evinet import _backend, dsl, engine, minimize, net, table

    def after_step(result):
        tracer.counts["engine.focal_sets"] += len(result)

    def after_build(result):
        tracer.facts["rows_bytes"] = result.rows.nbytes
        tracer.facts["cells"] = result.defined_cell_count
        tracer.facts["rejected"] = len(result.rejected)
        tracer.facts["attempted_cells"] = ((1 << result.net.place_count) - 1) << (
            result.net.transition_count
        )

    def after_minimize(cubes):
        tracer.counts["minimize.literals"] += sum(b is not None for c in cubes for b in c)

    wraps = [
        (dsl.parse_net, "dsl.parse_net", None),
        (dsl.parse_mass, "dsl.parse_mass", None),
        (dsl.parse_receptivity_line, "dsl.parse_line", None),
        (dsl.serialize_mass, "dsl.serialize", None),
        (net.check_receptivity, "net.check", None),
        (engine.step, "engine.step", after_step),
        (table.build_transfer_table, "table.build", after_build),
        (_backend.fill_rows, "table.kernel", None),
        (table.write_table_csv, "table.csv", None),
        (
            table.emit_equations,
            lambda kw: "table.emit_min" if kw.get("minimize") else "table.emit",
            None,
        ),
        (minimize.minimize_minterms, "minimize.qm", after_minimize),
        (table.render_equations, lambda kw: "table.render" + tracer.variant, None),
    ]
    for func, name, after in wraps:
        tracer.patch(func, tracer.wrap(func, name, after))
    tracer.patch(net.coerce_receptivity, tracer.count(net.coerce_receptivity, "net.coerce"))


PER_LAYER = {
    # name: unit
    "cli.import_ms": "ms",
    "dsl.parse_net_ms": "ms",
    "dsl.parse_mass_ms": "ms",
    "dsl.parse_line_us": "us",
    "net.check_us": "us",
    "net.check_calls": "count",
    "net.coerce_calls": "count",
    "cli.write_us": "us",
    "cli.self_us": "us",
    "engine.step_us": "us",
    "engine.focal_sets": "count",
    "dsl.serialize_us": "us",
    "dsl.record_bytes": "B",
    "table.build_ms": "ms",
    "table.kernel_ms": "ms",
    "table.rows_mib": "MiB",
    "table.cells": "count",
    "table.rejected": "count",
    "table.useful_pct": "%",
    "table.csv_ms": "ms",
    "table.csv_mib": "MiB",
    "table.emit_ms": "ms",
    "table.emit_min_ms": "ms",
    "minimize.qm_ms": "ms",
    "minimize.calls": "count",
    "minimize.literals": "count",
    "table.render_ms": "ms",
    "table.render_min_ms": "ms",
    "table.equations_mib": "MiB",
    "trace.latency_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.accounted_pct": "%",
}

# Per-layer metrics whose sum, per operation, should be the traced operation time.
PARTITION = {
    "stream": ("dsl.parse_line_us", "net.check_us", "engine.step_us", "dsl.serialize_us",
               "cli.write_us", "cli.self_us"),
    "table": ("dsl.parse_net_ms", "table.build_ms", "table.csv_ms", "cli.write_us",
              "cli.self_us"),
    "equations": ("dsl.parse_net_ms", "table.build_ms", "table.emit_ms", "table.emit_min_ms",
                  "minimize.qm_ms", "table.render_ms", "table.render_min_ms",
                  "cli.write_us", "cli.self_us"),
}
PARTITION["wide"] = PARTITION["stream"]
SCALE = {"ms": 1e-3, "us": 1e-6}


def layer_metrics(workload, bench, tracer, ops, untraced, traced, import_s) -> dict:
    """Per-layer figures of the traced rounds; ``ops`` counts their operations."""
    t = tracer.in_op
    per_op = {"ms": 1e3 / ops, "us": 1e6 / ops}
    out = dict.fromkeys(PER_LAYER, 0.0)

    def own_time(key, name):
        out[key] = t.own[name] * per_op[PER_LAYER[key]]

    def per_call(key, name):
        calls = tracer.all.calls[name]
        out[key] = tracer.all.incl[name] / calls * 1e3 if calls else 0.0

    out["cli.import_ms"] = import_s * 1e3
    per_call("dsl.parse_net_ms", "dsl.parse_net")
    per_call("dsl.parse_mass_ms", "dsl.parse_mass")
    own_time("dsl.parse_line_us", "dsl.parse_line")
    own_time("net.check_us", "net.check")
    out["net.check_calls"] = t.calls["net.check"] / ops
    out["net.coerce_calls"] = tracer.counts["net.coerce"] / ops
    own_time("cli.write_us", "cli.write")
    own_time("cli.self_us", "op")
    own_time("engine.step_us", "engine.step")
    if t.calls["engine.step"]:
        out["engine.focal_sets"] = tracer.counts["engine.focal_sets"] / t.calls["engine.step"]
    own_time("dsl.serialize_us", "dsl.serialize")
    if bench.unit == "line":
        out["dsl.record_bytes"] = bench.output_chars / (bench.ops_per_round + 1)
    out["table.build_ms"] = t.incl["table.build"] * per_op["ms"]
    out["table.kernel_ms"] = t.incl["table.kernel"] * per_op["ms"]
    if "cells" in tracer.facts:
        out["table.rows_mib"] = tracer.facts["rows_bytes"] / 2**20
        out["table.cells"] = float(tracer.facts["cells"])
        out["table.rejected"] = float(tracer.facts["rejected"])
        out["table.useful_pct"] = 100.0 * tracer.facts["cells"] / tracer.facts["attempted_cells"]
    own_time("table.csv_ms", "table.csv")
    if workload == "table":
        out["table.csv_mib"] = bench.csv_bytes / 2**20
    own_time("table.emit_ms", "table.emit")
    own_time("table.emit_min_ms", "table.emit_min")
    out["minimize.qm_ms"] = t.incl["minimize.qm"] * per_op["ms"]
    out["minimize.calls"] = t.calls["minimize.qm"] / ops
    out["minimize.literals"] = tracer.counts["minimize.literals"] / ops
    own_time("table.render_ms", "table.render")
    own_time("table.render_min_ms", "table.render_min")
    if workload == "equations":
        out["table.equations_mib"] = bench.output_bytes / 2**20
    out["trace.latency_ms"] = latency_s(traced, scaled=False) * 1e3
    out["trace.overhead_ms"] = (
        latency_s(traced, scaled=False) - latency_s(untraced, scaled=False)
    ) * 1e3
    # the denominator is timed outside the tracer, so time no span covers,
    # such as the CLI loop between a flush and the next readline, lowers it
    op_seconds = sum(r.elapsed for r in traced) / ops
    parts = 0.0
    for key in PARTITION[workload]:
        value = out[key] * SCALE[PER_LAYER[key]]
        if key == "dsl.parse_net_ms":  # per call, and a pass parses once per command
            value *= t.calls["dsl.parse_net"] / ops
        parts += value
    out["trace.accounted_pct"] = 100.0 * parts / op_seconds
    return out


# --- driver ----------------------------------------------------------------


def _spin() -> float:
    start = perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    return perf_counter() - start


def reference_loop() -> float:
    """Seconds that a fixed pure-Python loop takes now: the machine's speed.

    Like evinet's own code it builds frozensets, fills a dict and formats
    floats. The collector is off meanwhile, so the loop's time does not
    depend on how many objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    masses: dict = {}
    for i in range(6000):
        key = frozenset((i % 13, i % 7, i % 5))
        masses[key] = masses.get(key, 0.0) + i * 0.5
    ",".join(f"{v:.6g}" for v in masses.values())
    x = 0
    for i in range(60_000):
        x += i * i
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def between_references(action):
    """(``action()``, the factor that takes a time measured during it to the
    reference speed), from the reference loop timed just before and after."""
    before = reference_loop()
    result = action()
    after = reference_loop()
    return result, 2 * REFERENCE_S / (before + after)


def pin_quietest_cpu(cpus) -> None:
    """Pin this process to the allowed CPU that runs a short loop fastest.

    On a shared machine each CPU has slow spells of its own, lasting seconds;
    choosing again before every round keeps rounds off the CPU in one.
    """
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin() for _ in range(2)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def probe_setup(src: Path, inputs) -> tuple[float, float]:
    """(seconds from process start to ready, seconds of which spent importing)."""
    argv = [sys.executable, "-c", PROBE, str(src), str(inputs["net"])]
    if "initial" in inputs:
        argv.append(str(inputs["initial"]))
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter() - start
        child.stdout.read()
        status = child.wait()
    if status != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited with status {status}")
    return ready, float(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "evinet" / "cli.py").is_file():
        print(f"error: no evinet sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = HERE / "out" / f"{options.workload}-{options.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(options.workload, options.seed, work / "inputs")

    sys.path.insert(0, str(src))
    import evinet
    import evinet.cli

    if Path(evinet.__file__).resolve().parent != (src / "evinet").resolve():
        print(f"error: imported evinet from {evinet.__file__}", file=sys.stderr)
        return 2

    bench = WORKLOAD_TYPES[options.workload](evinet.cli.main, options.workload, inputs, work)
    tracer = Tracer() if options.trace else None

    cpus = sorted(os.sched_getaffinity(0))
    pin_quietest_cpu(cpus)
    rounds = [bench.round(0)]  # warm-up; its output is the one checked in full
    gc.collect()
    untraced: list[Round] = []
    traced: list[Round] = []
    probes: list[tuple[float, float, float]] = []  # (ready, imported, scale)

    def probe() -> None:
        (ready, imported), scale = between_references(lambda: probe_setup(src, inputs))
        probes.append((ready, imported, scale))

    def timed_round(tracer=None) -> Round:
        pin_quietest_cpu(cpus)
        result, scale = between_references(lambda: bench.round(len(rounds), tracer))
        result.scale = scale
        rounds.append(result)
        return result

    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # set-up samples are spread over the run, between rounds, so that a
        # slow spell of the machine catches a few of them, not all
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * options.seconds / SETUP_PROBES:
            probe()
            continue
        if tracer is None:
            done, needed, estimate = len(untraced), MIN_TIMED_ROUNDS, rounds[-1].elapsed
        else:
            done, needed, estimate = len(traced), MIN_TRACED_PAIRS, 2 * rounds[-1].elapsed
        if done >= needed and elapsed + estimate > options.seconds:
            break
        untraced.append(timed_round())
        if tracer is not None:
            install(tracer)
            try:
                traced.append(timed_round(tracer))
            finally:
                tracer.uninstall()
                tracer.abandon()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probe()
    import_s = statistics.median(imported for _, imported, _ in probes)

    failed = sum(bench.ops_per_round for r in rounds if r.status != 0)
    problem = bench.verify() if rounds[0].status == 0 else "the warm-up round failed"
    if problem is None and len({r.digest for r in rounds if r.status == 0}) > 1:
        problem = "rounds on the same input produced different outputs"
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)

    def end_to_end(scaled: bool) -> dict:
        def time(seconds, scale):
            return seconds * scale if scaled else seconds

        timed_s = sum(time(r.elapsed, r.scale) for r in untraced)
        return {
            "setup_s": (statistics.median(time(r, k) for r, _, k in probes), "s"),
            "throughput_per_s": (bench.ops_per_round * len(untraced) / timed_s, "1/s"),
            "latency_ms": (latency_s(untraced, scaled) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    if tracer is None:
        metrics = end_to_end(scaled=True)
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in end_to_end(False).items()))
    else:
        tracer.write_spans(work / "spans.jsonl")
        ops = len(traced) * (bench.ops_per_round if bench.unit == "line" else 1)
        values = layer_metrics(options.workload, bench, tracer, ops, untraced, traced, import_s)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    print("setup: " + " ".join(f"{ready:.4f}" for ready, _, _ in probes))
    print("setup scale: " + " ".join(f"{scale:.4f}" for _, _, scale in probes))
    print("rounds: " + " ".join(
        f"{r.elapsed:.4f}{'t' if r in traced else ''}" for r in rounds))
    print("latency: " + " ".join(f"{r.latency * 1e3:.5g}" for r in rounds))
    print("scale: " + " ".join(f"{r.scale:.4f}" for r in rounds))
    result = {
        "correct": problem is None,
        "attempted": bench.ops_per_round * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
