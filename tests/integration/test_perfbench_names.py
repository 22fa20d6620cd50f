"""The library names ``perfbench/`` resolves stay importable and wrappable.

The end-to-end benchmark is compared across commits, so a library change
must keep every name its harness reaches for: the traced mode wraps
entry points by attribute name (``Recorder.install`` in
``perfbench/layers.py``) and ``perfbench/worker.py`` imports
``repro.compile.codegen.codegen_statistics`` on every run.  This drives
one traced ``report()`` and one traced anytime ``certain()`` of a
``workers=2`` session through the harness's own recorder.
"""

import importlib.util
from pathlib import Path

from repro import ConsistentDatabase, parse_constraint, parse_query
from repro.workloads import grouped_key_workload

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_traced_harness_wraps_every_name_it_resolves():
    from repro.compile.codegen import codegen_statistics

    assert codegen_statistics() is not None
    instance, constraints = grouped_key_workload(
        n_groups=3, group_size=3, n_clean=5, seed=0
    )
    check = parse_constraint("Emp(e, d, s) -> s > 0")
    db = ConsistentDatabase(
        instance, [*constraints, check], method="direct", workers=2
    )
    query = parse_query("ans(e) <- Emp(e, d, s)")
    recorder = load_layers().Recorder()
    try:
        recorder.install()  # raises on any name the library lost
        recorder.begin(0, "query")
        answers = db.report(query).answers
        recorder.end()
        # A second row for key e0 changes a violation, so neither the
        # cache nor the carried repairs serve: the anytime stream runs.
        db.insert("Emp", ("e0", "d", 1))
        recorder.begin(1, "certain")
        held = db.certain(query, ("e0",), anytime=True)
        recorder.end()
    finally:
        recorder.uninstall()
    assert answers and held is True
    names = {span[0] for span in recorder.spans}
    assert {"core.repairs.search", "core.repairs.minimality",
            "core.parallel.collect", "core.parallel.stream"} <= names
    assert recorder.counts[(0, "core.repairs.searches")] == 1
    assert recorder.counts[(1, "core.parallel.streams")] == 1
    assert recorder.tree_problems() == []
