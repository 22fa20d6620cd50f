"""Structural checks over the ``docs/`` tree.

Four guarantees, also enforced by the CI docs job:

* every relative markdown link in ``docs/*.md`` and ``README.md``
  resolves to a file in the repository;
* every ``path/to/file.py::symbol`` anchor in the docs names an
  existing file that actually defines the symbol (anchors are how
  ``paper-map.md`` points at code without rotting line numbers);
* ``paper-map.md`` covers every numbered Definition / Theorem /
  Proposition / Corollary the source code cites — new paper machinery
  cannot land without its row in the map;
* the span table of ``observability.md`` lists exactly the span names
  the library opens, so EXPLAIN ANALYZE phases are all documented.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = sorted((REPO / "docs").glob("*.md"))
DOC_IDS = [path.name for path in DOCS]

LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
ANCHOR = re.compile(r"`([\w/.-]+\.py)::([\w.]+)`")
FILE_REF = re.compile(r"`((?:src|tests|benchmarks|docs|examples)/[\w/.-]+\.(?:py|md))`")
CITATION = re.compile(r"\b(Definition|Theorem|Proposition|Corollary) (\d+)\b")
SPAN_OPEN = re.compile(r'\bspan\(\s*"([^"]+)"')


def test_docs_tree_exists():
    assert DOC_IDS, "docs/ must contain the documentation site"
    for required in ("architecture.md", "paper-map.md", "semantics-notes.md"):
        assert required in DOC_IDS


@pytest.mark.parametrize("path", DOCS + [REPO / "README.md"], ids=DOC_IDS + ["README.md"])
def test_relative_links_resolve(path):
    text = path.read_text()
    for match in LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{path.name}: broken link → {target}"


@pytest.mark.parametrize("path", DOCS, ids=DOC_IDS)
def test_file_references_resolve(path):
    for match in FILE_REF.finditer(path.read_text()):
        target = REPO / match.group(1)
        assert target.exists(), f"{path.name}: dangling file reference → {match.group(1)}"


def _defines(source: str, symbol: str) -> bool:
    """Does *source* define *symbol* (function, class, method or attribute)?"""

    name = symbol.rsplit(".", 1)[-1]
    return (
        re.search(rf"^\s*(?:def|class) {re.escape(name)}\b", source, re.MULTILINE)
        is not None
        or re.search(rf"^{re.escape(name)}\s*[:=]", source, re.MULTILINE) is not None
    )


@pytest.mark.parametrize("path", DOCS, ids=DOC_IDS)
def test_code_anchors_resolve(path):
    for match in ANCHOR.finditer(path.read_text()):
        file_part, symbol = match.groups()
        target = REPO / file_part
        assert target.exists(), f"{path.name}: anchor file missing → {file_part}"
        assert _defines(target.read_text(), symbol), (
            f"{path.name}: {file_part} does not define {symbol!r}"
        )


def test_paper_map_covers_every_cited_item():
    cited = set()
    for source_file in (REPO / "src" / "repro").rglob("*.py"):
        for kind, number in CITATION.findall(source_file.read_text()):
            cited.add(f"{kind} {number}")
    assert cited, "the source tree should cite the paper's numbered items"
    paper_map = (REPO / "docs" / "paper-map.md").read_text()
    missing = sorted(
        item
        for item in cited
        if not re.search(rf"\b{re.escape(item)}\b", paper_map)
    )
    assert not missing, f"docs/paper-map.md lacks rows for: {', '.join(missing)}"


def test_span_table_lists_exactly_the_spans_the_library_opens():
    opened = set()
    for source_file in (REPO / "src" / "repro").rglob("*.py"):
        opened.update(SPAN_OPEN.findall(source_file.read_text()))
    text = (REPO / "docs" / "observability.md").read_text()
    table = text.split("### Span taxonomy", 1)[1].split("\n#", 1)[0]
    documented = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert sorted(opened - documented) == [], "spans missing from the table"
    assert sorted(documented - opened) == [], "table rows no library code opens"
