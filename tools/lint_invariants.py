#!/usr/bin/env python3
"""AST lint enforcing the repository's cross-cutting invariants.

The architectural rules that keep the codebase honest are not expressible
in off-the-shelf linters, so this stdlib-only script walks the AST of
every Python file and enforces them as CI-gated errors:

========  ====================================================================
Rule      Invariant
========  ====================================================================
INV001    clock discipline: no ``time.perf_counter`` / ``time.process_time``
          outside ``src/repro/obs/clock.py`` — all timing goes through the
          swappable clock so tests can use the deterministic ``FakeClock``
INV002    no process pools: no ``ProcessPoolExecutor`` /
          ``multiprocessing.Pool`` anywhere — the library runs in one
          process, and a pool comes back only through a change to this
          rule
INV003    no broad exception handlers (bare ``except`` / ``except Exception``
          / ``except BaseException``) in the hot evaluation paths — they
          swallow the typed budget/cancellation errors the resilience layer
          depends on
INV004    kernel-free reference paths: the naive/interpreted modules that
          cross-validate the compiled kernel must never import
          ``repro.compile`` — otherwise the bit-identical property suites
          would be circular
INV005    no ``print()`` under ``src/repro`` outside the CLI front ends —
          library output goes through tracing/metrics
INV006    codegen-free IR and references: the reference modules *and* the
          plan IR (``repro.compile.plans`` / ``matchers``) must never
          import ``repro.compile.codegen`` — codegen consumes the IR and
          is cross-validated against the naive reference, so the
          dependency must only ever point codegen → IR
========  ====================================================================

A line may opt out with the pragma comment ``lint: allow(INVxxx)`` and a
reason.  Usage::

    python tools/lint_invariants.py src tests
    python tools/lint_invariants.py --list-rules
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

RULES: Dict[str, str] = {
    "INV001": "time.perf_counter/process_time outside src/repro/obs/clock.py",
    "INV002": "ProcessPoolExecutor/multiprocessing.Pool anywhere",
    "INV003": "broad exception handler in a hot evaluation path",
    "INV004": "reference (kernel-free) module imports repro.compile",
    "INV005": "print() in library code under src/repro",
    "INV006": "codegen-free module imports repro.compile.codegen",
}

CLOCK_OWNER = "src/repro/obs/clock.py"
#: Modules/packages whose exception handling must stay narrow: the
#: compiled kernel, logic evaluation, the relational layer, the repair
#: search and the answer decision all propagate typed
#: budget/cancellation errors.
HOT_PATHS = (
    "src/repro/compile/",
    "src/repro/logic/",
    "src/repro/relational/",
    "src/repro/core/satisfaction.py",
    "src/repro/core/repairs.py",
    "src/repro/core/parallel.py",
    "src/repro/core/cqa.py",
)
#: The deliberately kernel-free naive/interpreted reference paths that the
#: bit-identical property suites cross-validate the compiled kernel against.
REFERENCE_MODULES = frozenset(
    {
        "src/repro/logic/evaluation.py",
        "src/repro/core/classic.py",
        "src/repro/core/semantics.py",
        "src/repro/core/hcf.py",
        "src/repro/core/transform.py",
        "src/repro/core/projection.py",
        "src/repro/core/relevant.py",
        "src/repro/asp/stable.py",
        "src/repro/asp/shift.py",
        "src/repro/asp/syntax.py",
    }
)
#: Modules that must never import the generated-executor path: every
#: kernel-free reference module, plus the plan IR that codegen consumes —
#: an IR → codegen import would make the layering circular.
CODEGEN_FREE_MODULES = REFERENCE_MODULES | frozenset(
    {
        "src/repro/compile/plans.py",
        "src/repro/compile/matchers.py",
    }
)
#: CLI front ends whose job is to print.
PRINT_ALLOWED = frozenset(
    {
        "src/repro/lint.py",
        "src/repro/explore/cli.py",
        "src/repro/compile/__main__.py",
    }
)

TIMING_NAMES = frozenset({"perf_counter", "process_time"})
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@dataclass(frozen=True)
class Violation:
    """One invariant violation at a specific location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _is_time_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in TIMING_NAMES
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
    )


def _broad_handler_name(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad exception name a handler catches, or ``None`` if narrow."""

    if handler.type is None:
        return "bare except"
    candidates: List[ast.expr] = (
        list(handler.type.elts) if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for expr in candidates:
        if isinstance(expr, ast.Name) and expr.id in BROAD_EXCEPTIONS:
            return expr.id
    return None


def _resolve_import_from(rel_path: str, node: ast.ImportFrom) -> Optional[str]:
    """The absolute dotted module an ``ImportFrom`` targets, or ``None``.

    Relative imports are resolved against the importing file's package so
    ``from . import codegen`` inside ``src/repro/compile/plans.py`` is seen
    as ``repro.compile`` (and its ``codegen`` alias as
    ``repro.compile.codegen``).  Files outside ``src/`` cannot anchor a
    relative import, so those return ``None``.
    """

    if node.level == 0:
        return node.module
    parts = rel_path.split("/")
    if parts[0] != "src" or not parts[-1].endswith(".py"):
        return None
    package = parts[1:-1]  # the file's package, e.g. ["repro", "compile"]
    if node.level - 1 > len(package):
        return None
    anchor = package[: len(package) - (node.level - 1)]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor) if anchor else None


def check_source(rel_path: str, source: str) -> List[Violation]:
    """Every invariant violation in one file (*rel_path* is repo-relative, posix)."""

    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as error:
        return [
            Violation("INV000", rel_path, error.lineno or 0, f"file does not parse: {error.msg}")
        ]
    lines = source.splitlines()

    def allowed(node: ast.AST, rule: str) -> bool:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(lines):
            return f"lint: allow({rule})" in lines[lineno - 1]
        return False

    violations: List[Violation] = []
    in_library = rel_path.startswith("src/repro/")
    in_hot_path = any(
        rel_path == prefix or rel_path.startswith(prefix) for prefix in HOT_PATHS
    )

    for node in ast.walk(tree):
        # INV001 — clock discipline
        if rel_path != CLOCK_OWNER:
            if _is_time_attribute(node) and not allowed(node, "INV001"):
                assert isinstance(node, ast.Attribute)
                violations.append(
                    Violation(
                        "INV001",
                        rel_path,
                        node.lineno,
                        f"time.{node.attr} used directly; route timing through "
                        "repro.obs.clock (now()) so tests can fake it",
                    )
                )
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name in TIMING_NAMES for alias in node.names)
                and not allowed(node, "INV001")
            ):
                violations.append(
                    Violation(
                        "INV001",
                        rel_path,
                        node.lineno,
                        "importing perf_counter/process_time from time; use "
                        "repro.obs.clock instead",
                    )
                )

        # INV002 — no process pools
        if not allowed(node, "INV002"):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "concurrent.futures"
                and any(alias.name == "ProcessPoolExecutor" for alias in node.names)
            ) or (isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor"):
                violations.append(
                    Violation(
                        "INV002",
                        rel_path,
                        node.lineno,
                        "ProcessPoolExecutor: the library runs in one process",
                    )
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "Pool"
                and isinstance(node.value, ast.Name)
                and node.value.id == "multiprocessing"
            ):
                violations.append(
                    Violation(
                        "INV002",
                        rel_path,
                        node.lineno,
                        "multiprocessing.Pool: the library runs in one process",
                    )
                )

        # INV003 — broad except in hot paths
        if in_hot_path and isinstance(node, ast.ExceptHandler):
            broad = _broad_handler_name(node)
            if broad is not None and not allowed(node, "INV003"):
                violations.append(
                    Violation(
                        "INV003",
                        rel_path,
                        node.lineno,
                        f"{broad} in a hot evaluation path swallows the typed "
                        "budget/cancellation errors; catch specific exceptions",
                    )
                )

        # INV004 — kernel-free reference modules
        if rel_path in REFERENCE_MODULES and not allowed(node, "INV004"):
            imported: List[str] = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                imported = [node.module]
            if any(name == "repro.compile" or name.startswith("repro.compile.") for name in imported):
                violations.append(
                    Violation(
                        "INV004",
                        rel_path,
                        node.lineno,
                        "reference module imports repro.compile; the naive and "
                        "interpreted paths must stay kernel-free so the "
                        "bit-identical cross-validation is never circular",
                    )
                )

        # INV006 — codegen-free IR and references
        if rel_path in CODEGEN_FREE_MODULES and not allowed(node, "INV006"):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_from(rel_path, node)
                if base is not None:
                    imported = [base] + [f"{base}.{alias.name}" for alias in node.names]
            if any(
                name == "repro.compile.codegen"
                or name.startswith("repro.compile.codegen.")
                for name in imported
            ):
                violations.append(
                    Violation(
                        "INV006",
                        rel_path,
                        node.lineno,
                        "codegen-free module imports repro.compile.codegen; "
                        "codegen consumes the plan IR and is validated "
                        "against the naive reference — the dependency "
                        "must only point codegen → IR",
                    )
                )

        # INV005 — no print() in library code
        if (
            in_library
            and rel_path not in PRINT_ALLOWED
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not allowed(node, "INV005")
        ):
            violations.append(
                Violation(
                    "INV005",
                    rel_path,
                    node.lineno,
                    "print() in library code; use repro.obs tracing/metrics "
                    "(or add the module to the CLI allowlist)",
                )
            )

    return violations


def check_paths(paths: Sequence[str], root: Path) -> List[Violation]:
    """Check every ``*.py`` file under *paths* (files or directories)."""

    violations: List[Violation] = []
    for raw in paths:
        target = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        files: Iterable[Path]
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target]
        for file in files:
            try:
                rel = file.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
            violations.extend(check_source(rel, file.read_text(encoding="utf-8")))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository invariant lint")
    parser.add_argument("paths", nargs="*", default=["src", "tests"], help="files or directories")
    parser.add_argument("--list-rules", action="store_true", help="print the rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0

    root = Path(__file__).resolve().parent.parent
    violations = check_paths(args.paths or ["src", "tests"], root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariant lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
