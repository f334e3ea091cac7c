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
from .engine import MassVector, _walk, ignorance_mass
from .errors import ConflictError, EvinetError, InvalidNetError
from .net import DEFAULT_SIZE_CAP, PetriNet, detect_conflicts

ENV_MAX_PLACES = "EVINET_MAX_PLACES"

# A receptivity's 0/1 ints as the bytes "0" and "1", so ``bytes(bits)`` translates
# to its text in one call.
_BIT_TEXT = bytes.maketrans(b"\0\1", b"01")


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


class _Main(click.Group):
    """The command group: the one boundary where a library error that no
    command adds context to, and a closed or failing standard output, end in
    one ``error:`` line and status 1. Other exceptions are bugs and keep their
    tracebacks; click itself ends a broken pipe quietly with status 1."""

    def main(self, *args, **kwargs):
        if sys.stdout is None:  # the process started with file descriptor 1 closed
            _fail("cannot write standard output: it is closed")
        try:
            return super().main(*args, **kwargs)
        except EvinetError as exc:
            _fail(str(exc))
        except OSError as exc:
            _fail(f"cannot write standard output: {exc.strerror or exc}")


@click.group(cls=_Main)
@click.version_option(package_name="evinet")
def main():
    """Evidential state estimation for single-token Petri nets."""


@main.command()
@_net_option
def validate(net_path: str):
    """Check a net document; report violations and conflict sets."""
    net = dsl.document_to_net(_read_net(net_path, dsl.parse_document))
    try:
        detect_conflicts(net)  # the one scan: the net's wiring is cached or rejected
    except InvalidNetError as exc:
        report = exc.report
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
    try:
        record = _records(net, form)
    except ValueError as exc:  # a dense record of too many places
        _fail(str(exc))
    _run_stream(net, mass, input_path, record)


def _records(net: PetriNet, form: str):
    """The record of each step of one run, from mass writers built once per run,
    so each mass value is printed once (see :func:`dsl._mass_serializer`)."""
    body = dsl._mass_serializer(net.places, "dense" if form == "dense" else "sparse")
    if form == "log" and net.place_count <= dsl.DENSE_PLACE_LIMIT:
        sparse, dense = body, dsl._mass_serializer(net.places, "dense")
        body = lambda mass: f"{sparse(mass)} dense={dense(mass)}"

    def record(index: int, bits, mass: MassVector) -> str:
        r_text = bytes(bits).translate(_BIT_TEXT).decode() if bits is not None else "-"
        return f"step={index} r={r_text} mass={body(mass)}"

    return record


def _run_stream(net: PetriNet, mass: MassVector, input_path: str, record) -> None:
    """Write ``record`` of each receptivity line of ``input_path`` ("-" is stdin), in
    one write and one flush; the parser's bits are exactly what coercion returns."""
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
    line_no, bits = 0, None  # the line read last: a step reads no line past its own

    def receptivities():
        nonlocal line_no, bits
        while True:
            try:
                line = handle.readline()
            except OSError as exc:  # such as EIO; the command group would blame stdout
                source = "standard input" if input_path == "-" else input_path
                _fail(f"cannot read {source}: {exc.strerror or exc}")
            if not line:
                return
            line_no += 1
            bits = dsl.parse_receptivity_line(line, net.transition_count, line_no)
            if bits is not None:
                yield bits

    write, flush = sys.stdout.write, sys.stdout.flush
    try:
        write(record(0, None, mass) + "\n")
        flush()
        for index, (r, after) in enumerate(_walk(net, mass, receptivities()), 1):
            write(record(index, r, after) + "\n")
            flush()
    except ConflictError as exc:
        details = "; ".join(
            f"{net.places[v.place]} with "
            + ", ".join(net.transitions[t] for t in sorted(v.true_transitions))
            for v in exc.conflicts
        )
        _fail(
            f"line {line_no}: receptivity"
            f" {bytes(bits).translate(_BIT_TEXT).decode()} enables"
            f" conflicting transitions at {details}"
        )
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
    built = build_transfer_table(net, max_places=_size_cap(max_places))
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
    built = build_transfer_table(net, max_places=_size_cap(max_places))
    click.echo(render_equations(emit_equations(built, minimize=minimize)), nl=False)


if __name__ == "__main__":
    main()
