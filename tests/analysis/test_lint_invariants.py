"""tools/lint_invariants.py: each rule, the pragma, and the repo itself."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load():
    spec = importlib.util.spec_from_file_location(
        "lint_invariants", ROOT / "tools" / "lint_invariants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass processing resolves the module
    spec.loader.exec_module(module)
    return module


lint = _load()


def rules_for(path, source):
    return [violation.rule for violation in lint.check_source(path, source)]


class TestINV001ClockDiscipline:
    def test_direct_call_is_flagged(self):
        assert rules_for("src/repro/core/x.py", "import time\nt = time.perf_counter()\n") == [
            "INV001"
        ]

    def test_from_import_is_flagged(self):
        assert rules_for("tests/test_x.py", "from time import perf_counter\n") == ["INV001"]

    def test_process_time_is_flagged(self):
        assert "INV001" in rules_for("tests/test_x.py", "import time\ntime.process_time()\n")

    def test_monotonic_is_allowed(self):
        assert rules_for("src/repro/core/x.py", "import time\ntime.monotonic()\n") == []

    def test_the_clock_module_owns_the_primitives(self):
        assert rules_for("src/repro/obs/clock.py", "import time\ntime.perf_counter()\n") == []


class TestINV002PoolOwnership:
    def test_executor_import_is_flagged(self):
        source = "from concurrent.futures import ProcessPoolExecutor\n"
        assert rules_for("src/repro/core/x.py", source) == ["INV002"]

    def test_executor_attribute_is_flagged(self):
        source = "import concurrent.futures\nconcurrent.futures.ProcessPoolExecutor()\n"
        assert rules_for("tests/test_x.py", source) == ["INV002"]

    def test_multiprocessing_pool_is_flagged(self):
        source = "import multiprocessing\nmultiprocessing.Pool(2)\n"
        assert rules_for("src/repro/core/x.py", source) == ["INV002"]

    def test_active_children_is_allowed(self):
        source = "import multiprocessing\nmultiprocessing.active_children()\n"
        assert rules_for("tests/core/test_stream_teardown.py", source) == []

    def test_the_parallel_module_is_flagged_too(self):
        source = "from concurrent.futures import ProcessPoolExecutor\n"
        assert rules_for("src/repro/core/parallel.py", source) == ["INV002"]


class TestINV003BroadExcept:
    HOT = "src/repro/logic/evaluation.py"
    COLD = "src/repro/obs/trace.py"
    BARE = "try:\n    x = 1\nexcept:\n    pass\n"
    BROAD = "try:\n    x = 1\nexcept Exception:\n    pass\n"
    TUPLE = "try:\n    x = 1\nexcept (ValueError, BaseException):\n    pass\n"
    NARROW = "try:\n    x = 1\nexcept ValueError:\n    pass\n"

    def test_bare_except_in_hot_path(self):
        assert rules_for(self.HOT, self.BARE) == ["INV003"]

    def test_except_exception_in_hot_path(self):
        assert rules_for(self.HOT, self.BROAD) == ["INV003"]

    def test_broad_member_of_a_tuple_in_hot_path(self):
        assert rules_for(self.HOT, self.TUPLE) == ["INV003"]

    def test_narrow_except_is_allowed(self):
        assert rules_for(self.HOT, self.NARROW) == []

    def test_cold_paths_may_be_defensive(self):
        assert rules_for(self.COLD, self.BROAD) == []


class TestINV004KernelFreeReferences:
    def test_reference_module_importing_the_kernel_is_flagged(self):
        for source in (
            "import repro.compile\n",
            "from repro.compile import kernel\n",
            "from repro.compile.kernel import CompiledProgram\n",
        ):
            assert rules_for("src/repro/core/classic.py", source) == ["INV004"]

    def test_non_reference_modules_may_use_the_kernel(self):
        assert rules_for("src/repro/core/repairs.py", "import repro.compile\n") == []


class TestINV006CodegenFreeInterpreters:
    def test_interpreter_importing_codegen_is_flagged(self):
        for source in (
            "import repro.compile.codegen\n",
            "from repro.compile import codegen\n",
            "from repro.compile.codegen import matcher\n",
        ):
            assert rules_for("src/repro/compile/plans.py", source) == ["INV006"]

    def test_relative_imports_are_resolved(self):
        for source in (
            "from . import codegen\n",
            "from .codegen import matcher\n",
        ):
            assert rules_for("src/repro/compile/matchers.py", source) == ["INV006"]

    def test_reference_modules_are_covered_too(self):
        source = "from repro.compile.codegen import matcher\n"
        assert rules_for("src/repro/core/classic.py", source) == ["INV004", "INV006"]

    def test_the_kernel_orchestrator_may_import_codegen(self):
        source = "from repro.compile import codegen\n"
        assert rules_for("src/repro/compile/kernel.py", source) == []

    def test_every_listed_path_exists(self):
        """A rule keyed on a deleted module silently guards nothing."""

        listed = (
            lint.CODEGEN_FREE_MODULES
            | lint.PRINT_ALLOWED
            | set(lint.HOT_PATHS)
            | {lint.CLOCK_OWNER}
        )
        missing = sorted(path for path in listed if not (ROOT / path).exists())
        assert missing == []

    def test_other_sibling_imports_stay_allowed(self):
        source = "from .matchers import build_matchers\n"
        assert rules_for("src/repro/compile/plans.py", source) == []


class TestINV005NoPrint:
    def test_print_in_library_code_is_flagged(self):
        assert rules_for("src/repro/core/x.py", "print('hi')\n") == ["INV005"]

    def test_the_cli_front_end_may_print(self):
        assert rules_for("src/repro/lint.py", "print('hi')\n") == []

    def test_tests_may_print(self):
        assert rules_for("tests/test_x.py", "print('hi')\n") == []


class TestPragma:
    def test_allow_pragma_suppresses_on_the_flagged_line(self):
        source = "import time\nt = time.perf_counter()  # lint: allow(INV001) calibration\n"
        assert rules_for("tests/test_x.py", source) == []

    def test_pragma_is_rule_specific(self):
        source = "import time\nt = time.perf_counter()  # lint: allow(INV002)\n"
        assert rules_for("tests/test_x.py", source) == ["INV001"]


class TestSyntaxErrors:
    def test_unparseable_file_is_reported_not_crashed(self):
        assert rules_for("src/repro/x.py", "def broken(:\n") == ["INV000"]


class TestRepository:
    def test_the_repo_is_invariant_clean(self):
        violations = lint.check_paths(["src", "tests", "tools"], ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_list_rules(self, capsys):
        assert lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("INV001", "INV002", "INV003", "INV004", "INV005", "INV006"):
            assert rule in out
