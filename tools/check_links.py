#!/usr/bin/env python
"""Fail on broken relative links in the repository's Markdown docs.

Scans ``README.md``, ``ARCHITECTURE.md`` and every ``docs/**/*.md`` for
inline Markdown links ``[text](target)`` and checks that each
*relative* target resolves to an existing file or directory (external
``scheme://`` links and pure in-page ``#anchor`` links are skipped;
a ``file#anchor`` target is checked for the file part, and when the
target file is itself one of the scanned Markdown sources the anchor
must match one of its headings). It also reads the docstrings of every
Python file under ``src/`` and ``tests/`` and checks that each Markdown
file they name (``ARCHITECTURE.md``, ``docs/engines.md``) exists at the
repository root, under ``docs/`` or next to the Python file. Exits
non-zero listing every broken link — the CI ``docs`` job and
``tests/test_docs.py`` both run this, so a doc rename cannot silently
orphan its references.

Usage: ``python tools/check_links.py [root]`` (default: repo root).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: ``[text](target)`` inline links; images ``![alt](target)`` match too
#: (the leading ``!`` simply isn't captured). Nested parens are not
#: supported — none of our docs use them.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: A Markdown file name, bare or with a relative path, as a docstring
#: cites it; names inside URLs are skipped.
_MD_NAME = re.compile(r"(?<![\w./:-])([\w./-]*\w\.md)\b")


def _doc_files(root: Path) -> List[Path]:
    files = [root / "README.md", root / "ARCHITECTURE.md"]
    files.extend(sorted((root / "docs").rglob("*.md")))
    return [f for f in files if f.is_file()]


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor of a heading line (lowercase, dashes)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(markdown: str) -> Set[str]:
    return {_anchor_of(h) for h in _HEADING.findall(markdown)}


def check_links(root: Path) -> List[str]:
    """All broken relative links under ``root`` as human-readable rows."""
    root = root.resolve()
    docs = _doc_files(root)
    anchor_cache: Dict[Path, Set[str]] = {
        doc.resolve(): _anchors(doc.read_text()) for doc in docs
    }
    broken: List[str] = []
    for doc in docs:
        for lineno, target in _iter_links(doc):
            if "://" in target or target.startswith("mailto:"):
                continue
            path_part, _, anchor = target.partition("#")
            if not path_part:  # in-page anchor: the renderer's problem
                continue
            resolved = (doc.parent / path_part).resolve()
            where = f"{doc.relative_to(root)}:{lineno}"
            if not resolved.exists():
                broken.append(f"{where}: broken link -> {target}")
                continue
            if anchor and resolved in anchor_cache:
                if anchor not in anchor_cache[resolved]:
                    broken.append(
                        f"{where}: missing anchor -> {target}"
                    )
    return broken + _check_docstrings(root)


def _docstrings(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, text)`` of every module, class and function docstring."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, kinds) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                yield first.lineno, first.value.value


def _check_docstrings(root: Path) -> List[str]:
    """Markdown files named in ``src/``/``tests/`` docstrings that do
    not exist."""
    broken: List[str] = []
    for top in ("src", "tests"):
        for source in sorted((root / top).rglob("*.py")):
            for lineno, text in _docstrings(source.read_text()):
                for match in _MD_NAME.finditer(text):
                    name = match.group(1)
                    bases = (root, root / "docs", source.parent)
                    if any((base / name).exists() for base in bases):
                        continue
                    line = lineno + text.count("\n", 0, match.start())
                    broken.append(f"{source.relative_to(root)}:{line}: "
                                  f"docstring names missing {name}")
    return broken


def _iter_links(doc: Path) -> List[Tuple[int, str]]:
    links: List[Tuple[int, str]] = []
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            links.append((lineno, match.group(1)))
    return links


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent
    docs = _doc_files(root)
    broken = check_links(root)
    for row in broken:
        print(row, file=sys.stderr)
    print(f"checked {len(docs)} Markdown file(s): "
          f"{len(broken)} broken link(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
