from __future__ import annotations

from pathlib import Path

import pytest

from _nets import fig1_net, fig2_net

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fig1():
    return fig1_net()


@pytest.fixture(scope="session")
def fig2():
    return fig2_net()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list its calls are appended to. Only calls through that one
    module's binding are counted."""

    def install(module, name: str) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
