"""Evidential state estimation for single-token Petri nets.

Track where a discrete-event system is when its initial place is unknown: a
mass distribution over sets of places evolves from a stream of boolean
receptivity vectors, and the closed-form boolean update equations of a given
net can be emitted symbolically.
"""

from .errors import (
    ConflictError,
    DimensionError,
    EvinetError,
    InvalidNetError,
    MassError,
    ParseError,
    TableCapError,
    TrajectoryError,
)
from .net import (
    DEFAULT_SIZE_CAP,
    ClassicMarking,
    ConflictSet,
    PetriNet,
    Receptivity,
    ReceptivityConflict,
    ValidationReport,
    Violation,
    check_receptivity,
    classic_step,
    detect_conflicts,
    enabled_transitions,
    validate_net,
)
from .engine import (
    NORMALIZATION_TOL,
    MassVector,
    PlaceSet,
    Trajectory,
    ignorance_mass,
    place_set_key,
    place_sets,
    run,
    step,
    transform,
)
from .dsl import (
    NetDocument,
    document_to_net,
    format_place_set,
    parse_document,
    parse_mass,
    parse_net,
    parse_receptivity_stream,
    serialize_mass,
    serialize_net,
)

__version__ = "0.1.0"

# Served from ``evinet.table`` on first access, so ``run`` never compiles the
# table and minimizer modules, about 17 ms of a cold ``import evinet.cli``.
_TABLE_NAMES = frozenset({
    "MassEquation",
    "TransferTable",
    "build_transfer_table",
    "emit_equations",
    "equations_semantically_equal",
    "evaluate_equation",
    "invert_table",
    "render_equation",
    "render_equations",
    "table_step",
    "write_table_csv",
})


def __getattr__(name: str):
    if name in _TABLE_NAMES:
        from . import table

        return getattr(table, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClassicMarking",
    "ConflictError",
    "ConflictSet",
    "DEFAULT_SIZE_CAP",
    "DimensionError",
    "EvinetError",
    "InvalidNetError",
    "MassEquation",
    "MassError",
    "MassVector",
    "NORMALIZATION_TOL",
    "NetDocument",
    "ParseError",
    "PetriNet",
    "PlaceSet",
    "Receptivity",
    "ReceptivityConflict",
    "TableCapError",
    "Trajectory",
    "TrajectoryError",
    "TransferTable",
    "ValidationReport",
    "Violation",
    "build_transfer_table",
    "check_receptivity",
    "classic_step",
    "detect_conflicts",
    "document_to_net",
    "emit_equations",
    "enabled_transitions",
    "equations_semantically_equal",
    "evaluate_equation",
    "format_place_set",
    "ignorance_mass",
    "invert_table",
    "parse_document",
    "parse_mass",
    "parse_net",
    "parse_receptivity_stream",
    "place_set_key",
    "place_sets",
    "render_equation",
    "render_equations",
    "run",
    "serialize_mass",
    "serialize_net",
    "step",
    "table_step",
    "transform",
    "validate_net",
    "write_table_csv",
]
