"""The inventory of evinet's module-level caches.

Each cache holds memory for the life of the process and decides when work is
skipped, so adding one, resizing one, or stacking a second on the key of an
existing one (two caches keyed by the same net, say) changes this inventory
and is a reviewed change. The per-mask memos that two of them return are
bounded by ``_Memo``'s own limit, pinned here too, and ``_Memo`` is the one
type of memo that makes a value on first use.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import evinet
from evinet.dsl import _mask_labels
from evinet.engine import _Memo, _order_key

CACHES = {
    # (defining module, name): maxsize, None when unbounded
    ("evinet.dsl", "_mask_labels"): 4,
    ("evinet.engine", "_dense_masks"): 4,
    ("evinet.engine", "_image"): 64,
    ("evinet.engine", "_order_key"): 4,
    ("evinet.engine", "_with_bit"): None,
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
    memo = _Memo(str)
    for mask in range(MASK_MEMO_LIMIT):
        memo[mask]
    assert len(memo) == MASK_MEMO_LIMIT
    assert memo[MASK_MEMO_LIMIT] == str(MASK_MEMO_LIMIT)
    assert memo == {MASK_MEMO_LIMIT: str(MASK_MEMO_LIMIT)}


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
