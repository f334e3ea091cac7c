"""The inventory of evinet's module-level caches.

Each cache holds memory for the life of the process and decides when work is
skipped, so adding one, resizing one, or stacking a second on the key of an
existing one (two caches keyed by the same net, say) changes this inventory
and is a reviewed change. The per-mask memos that two of them return are
bounded by ``_Memo``'s own limit, pinned here too, and ``_Memo`` is the one
type of memo that makes a value on first use. Outside the inventory, the three
commands change no module-level container, the minimizer's merge masks aside.
"""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import pkgutil
import random

from click.testing import CliRunner

import evinet
from evinet import cli, minimize
from evinet.dsl import _mask_labels, serialize_net
from evinet.engine import _Memo, _order_key
from _nets import cycle_net, ring_with_chords

CACHES = {
    # (defining module, name): maxsize, None when unbounded
    ("evinet.dsl", "_mask_labels"): 4,
    ("evinet.engine", "_dense_masks"): 4,
    ("evinet.engine", "_image"): 64,
    ("evinet.engine", "_order_key"): 4,
    ("evinet.engine", "_with_bit"): None,
    ("evinet.minimize", "_cube_chunks"): 25,
    ("evinet.net", "_structure"): 1024,
    ("evinet.net", "_successors"): 1024,
}


def _modules():
    return [evinet] + [
        importlib.import_module(f"evinet.{info.name}")
        for info in pkgutil.iter_modules(evinet.__path__)
    ]


def test_module_level_caches_are_pinned():
    found = {
        (value.__module__, value.__qualname__): value.cache_parameters()["maxsize"]
        for module in _modules()
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    assert found == CACHES


MASK_MEMO_LIMIT = 8192


def test_per_mask_memos_are_mask_memos_and_start_afresh_at_their_limit():
    names = tuple(f"P{i + 1}" for i in range(13))
    assert isinstance(_order_key(13).__self__, _Memo)
    assert isinstance(_mask_labels(names), _Memo)
    # the default limit, and the 64 images a run's walk keeps
    for memo, limit in ((_Memo(str), MASK_MEMO_LIMIT), (_Memo(str, 64), 64)):
        for mask in range(limit):
            memo[mask]
        assert len(memo) == limit
        assert memo[limit] == str(limit)
        assert memo == {limit: str(limit)}


def test_memo_is_the_one_class_that_makes_values_on_first_use():
    # read from the source, so a class defined inside a function counts too
    found = {
        (module.__name__, node.name)
        for module in _modules()
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "__missing__" for item in node.body)
    }
    assert found == {("evinet.engine", "_Memo")}


def _module_state():
    """A deep copy of each module-level container of every evinet module, and
    the names each module holds; the inventory's caches and the minimizer's
    merge masks aside."""
    state = {}
    for module in _modules():
        for name, value in vars(module).items():
            if name.startswith("__") or value is minimize._merge_cache:
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                state[module.__name__, name] = copy.deepcopy(value)
        state[module.__name__] = sorted(vars(module))
    return state


def test_the_commands_change_no_module_state_outside_the_inventory(tmp_path, data_dir):
    # 13 places step through per-byte image tables, 3 through a flat one
    wide = tmp_path / "cycle13.evinet"
    wide.write_text(serialize_net(cycle_net(13)), encoding="utf-8")
    ring = tmp_path / "ring.evinet"
    ring.write_text(serialize_net(ring_with_chords(random.Random(7), 5, 2)), encoding="utf-8")
    fig2 = str(data_dir / "fig2.evinet")
    commands = [
        (["run", "--net", fig2, "--format", "log"], "0 1 0 1\n1,0,0,0 # c\n\n0 1 0 1\r\n"),
        (["run", "--net", str(wide), "--initial", "{P1,P3}:0.5 {P13}:0.5"],
         "1 " * 13 + "\n" + "0 " * 13 + "\n"),
        (["table", "--net", str(ring), "--output", str(tmp_path / "table.csv")], None),
        (["equations", "--net", str(ring)], None),
        (["equations", "--net", str(ring), "--minimize"], None),
    ]
    before = _module_state()
    for args, stream in commands:
        result = CliRunner().invoke(cli.main, args, input=stream)
        assert result.exit_code == 0 and result.stderr == "", (args, result.output)
    assert _module_state() == before
    assert all(width <= minimize._CACHED_WIDTH for width in minimize._merge_cache)
