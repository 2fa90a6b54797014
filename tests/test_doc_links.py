"""Tests of ``tools/check_doc_links.py``: pinned test ids must resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", ROOT / "tools" / "check_doc_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "test_id, resolves",
    [
        ("tests/test_doc_links.py::test_pinned_test_ids_resolve", True),
        ("tests/test_doc_links.py::test_pinned_test_ids_resolve[tests-True]", True),
        ("tests/test_obs.py::TestGraft::test_graft_keeps_nested_worker_spans_under_their_parent", True),
        ("tests/test_obs.py::TestGraft", True),
        ("tests/test_obs.py::TestGraft::test_no_such_test", False),
        ("tests/test_obs.py::TestNoSuchClass::test_graft_keeps_nested_worker_spans_under_their_parent", False),
        ("tests/test_obs.py::test_graft_keeps_nested_worker_spans_under_their_parent", False),
        ("tests/test_no_such_file.py::TestGraft", False),
    ],
    ids=[
        "function", "parametrized", "method", "class",
        "missing-method", "missing-class", "method-as-function", "missing-file",
    ],
)
def test_pinned_test_ids_resolve(checker, tmp_path, test_id, resolves):
    doc = tmp_path / "doc.md"
    doc.write_text(f"Pinned by `{test_id}`.\n")
    errors = checker.check_file(doc)
    assert (errors == []) is resolves, errors


def test_repo_docs_pass(checker):
    docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    assert [error for doc in docs for error in checker.check_file(doc)] == []
