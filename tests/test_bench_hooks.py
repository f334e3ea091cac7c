"""The benchmark's trace hooks bind to names evinet must keep.

``evibench/run.py --trace 1`` wraps functions such as ``_backend.fill_rows``,
``dsl.serialize_mass`` and ``net.check_receptivity`` in every evinet module
that binds them, and restores them afterwards. Renaming one of them breaks the
traced benchmark, so installing the hooks, calling through them and
uninstalling them is tested here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import evinet.cli  # noqa: F401  (loaded, so the hooks patch its bindings too)
import evinet.table  # noqa: F401

EVIBENCH = Path(__file__).resolve().parent.parent / "evibench"


def _evinet_bindings() -> dict[tuple[str, str], object]:
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if module is not None and mod_name.partition(".")[0] == "evinet"
        for attr, value in vars(module).items()
    }


def test_trace_hooks_install_and_uninstall(monkeypatch, fig2):
    monkeypatch.syspath_prepend(str(EVIBENCH))
    spec = importlib.util.spec_from_file_location("evibench_run", EVIBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "evibench_run", bench)
    spec.loader.exec_module(bench)
    spans = importlib.import_module("spans")

    before = _evinet_bindings()
    tracer = spans.Tracer()
    bench.install(tracer)
    try:
        from evinet import _backend, dsl, net

        for module, name in ((_backend, "fill_rows"), (dsl, "serialize_mass"),
                             (net, "check_receptivity"), (net, "coerce_receptivity")):
            assert getattr(module, name) is not before[(module.__name__, name)]

        # the wrappers are called as evinet calls the functions they replace,
        # so a hook whose signature drifts from its caller fails here
        from evinet import ignorance_mass, step
        from evinet import table as table_module

        tracer.begin_op(1)
        built = table_module.build_transfer_table(fig2)
        step(fig2, ignorance_mass(fig2), (0, 1, 0, 0))
        emitted = table_module.emit_equations(built, minimize=True)
        tracer.end_op()
        assert emitted == before[("evinet.table", "emit_equations")](built, minimize=True)
        for name in ("table.build", "table.kernel", "engine.step", "table.emit_min"):
            assert tracer.in_op.calls[name] == 1, name
        assert tracer.facts["cells"] == built.defined_cell_count
    finally:
        tracer.uninstall()
    after = _evinet_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
