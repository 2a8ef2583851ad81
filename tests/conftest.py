import importlib
import pkgutil

import pytest

import starpull
from starpull import make_instance


def _memo_tables():
    """(module, name) of every module-level *_CACHE table in starpull."""
    for info in pkgutil.iter_modules(starpull.__path__):
        module = importlib.import_module(f"starpull.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_CACHE") and isinstance(value, dict):
                yield module, name


@pytest.fixture
def reset_memos(monkeypatch):
    """A function that empties every module-level *_CACHE table in starpull,
    found by scan, for the rest of the test; the tables come back after it."""
    def reset():
        for module, name in list(_memo_tables()):
            monkeypatch.setattr(module, name, {})
    return reset


@pytest.fixture
def empty_memos(reset_memos):
    """Every module-level *_CACHE table in starpull starts the test empty."""
    reset_memos()


@pytest.fixture(scope="session")
def inst_a():
    return make_instance("A")


@pytest.fixture(scope="session")
def inst_b():
    return make_instance("B")


@pytest.fixture(scope="session")
def inst_c():
    return make_instance("C")


@pytest.fixture(scope="session")
def inst_d():
    return make_instance("D")


@pytest.fixture(scope="session")
def inst_e():
    return make_instance("E")
