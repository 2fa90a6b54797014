#!/usr/bin/env python3
"""Stdlib-only link checker for the docs tree.

Walks every ``*.md`` file in ``docs/`` (plus ``README.md``) and verifies:

* relative markdown links ``[text](path)`` and ``[text](path#anchor)``
  resolve to existing files (anchors are checked against the target file's
  headings, slugified the way GitHub does);
* bare intra-repo file references in inline code spans that look like
  paths (``src/...``, ``tests/...``, ``docs/...``, ``benchmarks/...``,
  ``tools/...``) point at real files;
* pinned test ids in inline code spans (``tests/x.py::Class::test``, an
  optional ``[...]`` parametrize suffix ignored) name a class or function
  that the file's AST defines, nested as the id nests it;
* no absolute ``file://`` links.

External ``http(s)://`` links are *listed* but not fetched (CI must not
depend on network reachability).  Exit code 1 on any broken link.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_PATH_RE = re.compile(
    r"`((?:src|tests|docs|benchmarks|tools|examples|\.github)/[A-Za-z0-9_./-]+)`"
)
TEST_ID_RE = re.compile(
    r"`((?:tests|benchmarks)/[A-Za-z0-9_./-]+\.py)((?:::\w+)+)(?:\[[^\]`]*\])?`"
)
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, strip punctuation, dash spaces."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s+", "-", text)


def anchors_of(path: Path) -> set:
    return {slugify(m.group(1)) for m in HEADING_RE.finditer(path.read_text())}


def resolves(module: Path, names: list) -> bool:
    """Whether ``module`` defines ``names[0]``, which defines ``names[1]``..."""
    scope = ast.parse(module.read_text())
    for name in names:
        scope = next(
            (node for node in scope.body if isinstance(node, DEFINITIONS) and node.name == name),
            None,
        )
        if scope is None:
            return False
    return True


def check_file(path: Path) -> list:
    errors = []
    text = path.read_text()
    for match in LINK_RE.finditer(text):
        target = match.group(2)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("file://"):
            errors.append(f"{path}: absolute file:// link {target!r}")
            continue
        if target.startswith("#"):
            if slugify(target[1:]) not in anchors_of(path):
                errors.append(f"{path}: broken anchor {target!r}")
            continue
        rel, _, anchor = target.partition("#")
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{path}: broken link {target!r} -> {resolved}")
            continue
        if anchor and resolved.suffix == ".md":
            if slugify(anchor) not in anchors_of(resolved):
                errors.append(
                    f"{path}: broken anchor {target!r} (no heading "
                    f"#{anchor} in {resolved.name})"
                )
    for match in CODE_PATH_RE.finditer(text):
        ref = match.group(1).rstrip(".")
        # Only enforce refs that look like concrete files (have a suffix);
        # `src/repro/engine/` -style package references are checked as dirs.
        resolved = REPO / ref
        if not resolved.exists():
            errors.append(f"{path}: dangling repo path `{ref}`")
    for match in TEST_ID_RE.finditer(text):
        module, names = REPO / match.group(1), match.group(2).split("::")[1:]
        if not module.is_file():
            errors.append(f"{path}: dangling repo path `{match.group(1)}`")
        elif not resolves(module, names):
            errors.append(f"{path}: unknown test id `{match.group(1)}{match.group(2)}`")
    return errors


def main() -> int:
    files = sorted((REPO / "docs").glob("*.md"))
    readme = REPO / "README.md"
    if readme.exists():
        files.append(readme)
    if not files:
        print("no markdown files found", file=sys.stderr)
        return 1
    errors = []
    for path in files:
        errors.extend(check_file(path))
    for error in errors:
        print(f"BROKEN: {error}", file=sys.stderr)
    checked = len(files)
    if errors:
        print(f"{len(errors)} broken link(s) across {checked} file(s)", file=sys.stderr)
        return 1
    print(f"doc links OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
