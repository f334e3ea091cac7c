"""Command-line interface: validate, run, table, equations, conflicts.

Diagnostics go to stderr and the exit status is nonzero whenever one is
emitted. ``run`` streams one record per input line and flushes it before the
next line is read, so a live pipe shows beliefs as events arrive. ``table``
and ``equations`` import :mod:`evinet.table` when they run, so ``run`` starts
without loading the table and minimizer modules.
"""

from __future__ import annotations

import io
import os
import sys

import click

from . import dsl
from .engine import MassVector, ignorance_mass, step
from .errors import ConflictError, EvinetError, ParseError
from .net import DEFAULT_SIZE_CAP, PetriNet, detect_conflicts, validate_net

ENV_MAX_PLACES = "EVINET_MAX_PLACES"


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _open_text(path: str):
    """``path`` opened for reading text. A byte that is not UTF-8 becomes a lone
    surrogate, which no token of the grammar matches, so it ends in the parser's
    own diagnostic instead of a decoding error."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _read_net(path: str, parse=dsl.parse_net):
    """``parse`` applied to the text of ``path``; any failure ends in one ``error:`` line."""
    try:
        with _open_text(path) as handle:
            return parse(handle.read())
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except EvinetError as exc:
        _fail(f"{path}: {exc}")


def _size_cap(option_value: int | None) -> int:
    if option_value is not None:
        if option_value < 0:
            _fail(f"--max-places must be a non-negative integer, got {option_value}")
        return option_value
    raw = os.environ.get(ENV_MAX_PLACES)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        _fail(f"{ENV_MAX_PLACES} must be an integer, got {raw!r}")
    if cap < 0:
        _fail(f"{ENV_MAX_PLACES} must be a non-negative integer, got {raw!r}")
    return cap


def _net_option(func):
    return click.option(
        "--net", "net_path", required=True, metavar="PATH", help="Net document to load."
    )(func)


def _max_places_option(func):
    return click.option(
        "--max-places",
        type=int,
        default=None,
        metavar="K",
        help=f"Size cap on places and transitions (default {DEFAULT_SIZE_CAP},"
        f" or {ENV_MAX_PLACES}).",
    )(func)


@click.group()
@click.version_option(package_name="evinet")
def main():
    """Evidential state estimation for single-token Petri nets."""


@main.command()
@_net_option
def validate(net_path: str):
    """Check a net document; report violations and conflict sets."""
    net = dsl.document_to_net(_read_net(net_path, dsl.parse_document))
    report = validate_net(net)
    if not report.ok:
        click.echo(f"invalid: {len(report.violations)} violation(s)", err=True)
        for violation in report.violations:
            click.echo(f"- {violation.message}", err=True)
        sys.exit(1)
    click.echo("ok")
    _print_conflicts(net)


def _print_conflicts(net: PetriNet) -> None:
    conflicts = detect_conflicts(net)
    if not conflicts:
        click.echo("no conflicts")
    for cs in conflicts:
        members = ", ".join(net.transitions[t] for t in sorted(cs.transitions))
        click.echo(f"conflict: {net.places[cs.place]} -> {{{members}}}")


@main.command()
@_net_option
def conflicts(net_path: str):
    """List the structural conflict sets of a net."""
    _print_conflicts(_read_net(net_path))


@main.command()
@_net_option
@click.option(
    "--initial",
    default="ignorance",
    metavar="SPEC",
    help="Either 'ignorance' or a mass record such as '{P1,P2}:1'.",
)
@click.option(
    "--input",
    "input_path",
    default="-",
    metavar="PATH",
    help="Receptivity stream; '-' reads standard input.",
)
@click.option(
    "--format",
    "form",
    type=click.Choice(["sparse", "dense", "log"]),
    default="sparse",
    help="Mass rendering for each record.",
)
def run(net_path: str, initial: str, input_path: str, form: str):
    """Evolve a mass distribution from a stream of receptivity lines."""
    net = _read_net(net_path)
    if initial == "ignorance":
        mass = ignorance_mass(net)
    else:
        try:
            mass = dsl.parse_mass(initial, net.places)
        except EvinetError as exc:
            _fail(f"--initial: {exc}")
    if form == "dense" and net.place_count > dsl.DENSE_PLACE_LIMIT:
        _fail(
            f"dense output needs at most {dsl.DENSE_PLACE_LIMIT} places,"
            f" net has {net.place_count}"
        )
    _run_stream(net, mass, input_path, form)


def _record(net: PetriNet, form: str, index: int, bits, mass: MassVector) -> str:
    r_text = "".join(map(str, bits)) if bits is not None else "-"
    if form == "dense":
        body = dsl.serialize_mass(mass, net.places, form="dense")
        return f"step={index} r={r_text} mass={body}"
    body = dsl.serialize_mass(mass, net.places, form="sparse")
    line = f"step={index} r={r_text} mass={body}"
    if form == "log" and net.place_count <= dsl.DENSE_PLACE_LIMIT:
        line += f" dense={dsl.serialize_mass(mass, net.places, form='dense')}"
    return line


def _run_stream(net: PetriNet, mass: MassVector, input_path: str, form: str) -> None:
    """Print one record per receptivity line of ``input_path`` ("-" is stdin)."""
    if input_path == "-":
        handle = sys.stdin
        if handle is None:  # the process started with file descriptor 0 closed
            _fail("cannot read standard input: it is closed")
        if hasattr(handle, "buffer"):  # decode its bytes as a file's, whatever the locale
            handle = io.TextIOWrapper(handle.buffer, encoding="utf-8", errors="surrogateescape")
    else:
        try:
            handle = _open_text(input_path)
        except OSError as exc:
            _fail(f"cannot read {input_path}: {exc.strerror or exc}")
    try:
        print(_record(net, form, 0, None, mass), flush=True)
        index = 0
        line_no = 0
        while True:
            line = handle.readline()
            if not line:
                break
            line_no += 1
            try:
                bits = dsl.parse_receptivity_line(line, net.transition_count, line_no)
            except ParseError as exc:
                _fail(str(exc))
            if bits is None:
                continue
            try:
                mass = step(net, mass, bits)
            except ConflictError as exc:
                details = "; ".join(
                    f"{net.places[v.place]} with "
                    + ", ".join(net.transitions[t] for t in sorted(v.true_transitions))
                    for v in exc.conflicts
                )
                _fail(
                    f"line {line_no}: receptivity {''.join(map(str, bits))} enables"
                    f" conflicting transitions at {details}"
                )
            index += 1
            print(_record(net, form, index, bits, mass), flush=True)
    finally:
        if input_path != "-":
            handle.close()
        elif handle is not sys.stdin:
            handle.detach()  # leaves stdin open


@main.command()
@_net_option
@click.option(
    "--output", "output_path", required=True, metavar="PATH", help="CSV file to write."
)
@_max_places_option
def table(net_path: str, output_path: str, max_places: int | None):
    """Write the full transformation table as CSV."""
    from .table import build_transfer_table, write_table_csv

    net = _read_net(net_path)
    cap = _size_cap(max_places)
    try:
        built = build_transfer_table(net, max_places=cap)
    except EvinetError as exc:
        _fail(str(exc))
    try:
        with open(output_path, "w", encoding="utf-8") as handle:
            count = write_table_csv(built, handle)
    except OSError as exc:
        _fail(f"cannot write {output_path}: {exc.strerror or exc}")
    click.echo(f"{count} rows")


@main.command()
@_net_option
@click.option("--minimize", is_flag=True, help="Reduce coefficients to minimal products.")
@_max_places_option
def equations(net_path: str, minimize: bool, max_places: int | None):
    """Print the boolean mass-update equations of a net."""
    from .table import build_transfer_table, emit_equations, render_equations

    net = _read_net(net_path)
    cap = _size_cap(max_places)
    try:
        emitted = emit_equations(build_transfer_table(net, max_places=cap), minimize=minimize)
    except EvinetError as exc:
        _fail(str(exc))
    click.echo(render_equations(emitted), nl=False)


if __name__ == "__main__":
    main()
