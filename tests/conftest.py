from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration, settings

from _nets import fig1_net, fig2_net

DATA_DIR = Path(__file__).parent / "data"

# Every run checks the same examples, so a failure reproduces exactly, and no
# example database is kept.
settings.register_profile("evinet", derandomize=True, database=None)
settings.load_profile("evinet")


def pytest_configure(config):
    """Send Hypothesis's cache of source constants, which it writes whatever the
    database, to a directory removed when the test run ends, so a run leaves no
    .hypothesis/ behind."""
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    configuration.set_hypothesis_home_dir(storage.name)


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
