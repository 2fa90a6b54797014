"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.benchgen import epfl
from repro.egraph.pattern import Match
from repro.mapping.library import default_library


@pytest.fixture(autouse=True)
def private_ledger_and_store(tmp_path, monkeypatch):
    """Point the run ledger and the result store at the test's own
    ``tmp_path``, so no test appends to the user's ``~/.cache/emorphic``."""
    monkeypatch.setenv("EMORPHIC_LEDGER", str(tmp_path / "ledger"))
    monkeypatch.setenv("EMORPHIC_STORE", str(tmp_path / "store"))


@pytest.fixture(scope="session")
def library():
    """The shared standard-cell library (building the match table once)."""
    return default_library()


@pytest.fixture(scope="session")
def as_matches():
    """Put a batched search's ``(class id, slot tuple)`` matches in the
    per-pattern reference's shape: per rule index, a list of ``Match``."""

    def convert(matcher, found):
        return {
            index: [
                Match(class_id=class_id, substitution=dict(zip(matcher.names[index], slots)))
                for class_id, slots in matches
            ]
            for index, matches in found.items()
        }

    return convert


@pytest.fixture(scope="session")
def small_adder():
    return epfl.build("adder", preset="test")


@pytest.fixture(scope="session")
def small_sqrt():
    return epfl.build("sqrt", preset="test")


@pytest.fixture(scope="session")
def small_mem_ctrl():
    return epfl.build("mem_ctrl", preset="test")


@pytest.fixture(scope="session")
def test_suite_circuits():
    """A few representative circuits at test scale."""
    return {name: epfl.build(name, preset="test") for name in ["adder", "sqrt", "mem_ctrl", "arbiter"]}
