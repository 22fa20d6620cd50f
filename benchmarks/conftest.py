"""Benchmark-suite configuration."""

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import pytest

# Make the sibling `harness` module importable regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink the benchmark sweeps to a fast correctness pass (used by CI)",
    )


@pytest.fixture(scope="session")
def smoke(request):
    """True when the suite runs in the CI smoke configuration."""

    return request.config.getoption("--smoke")


@pytest.fixture(scope="session", autouse=True)
def observability_artifacts():
    """Dump the metrics registry and span trace next to the bench JSON.

    When ``REPRO_BENCH_JSON`` names a directory, the end of the session
    writes ``metrics-snapshot.json`` (the flat registry snapshot plus
    the Prometheus text page) and — when tracing is on, e.g. under
    ``REPRO_TRACE=1`` — ``trace-events.json``, loadable straight into
    ``chrome://tracing`` / Perfetto.  The CI smoke job uploads the
    directory as one artifact.
    """

    yield
    json_dir = os.environ.get("REPRO_BENCH_JSON")
    if not json_dir:
        return
    from repro.obs import metrics, trace

    directory = Path(json_dir)
    directory.mkdir(parents=True, exist_ok=True)
    registry = metrics.registry()
    (directory / "metrics-snapshot.json").write_text(
        json.dumps(
            {
                "metrics": registry.snapshot(),
                "prometheus": registry.prometheus_text(),
            },
            indent=2,
        )
        + "\n"
    )
    if trace.enabled() and trace.tracer().roots:
        trace.dump_chrome_trace(str(directory / "trace-events.json"))


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """The sweep must end with zero live child processes.

    The library starts no process, so a child left behind is a
    regression; it would hang CI runners and skew later timings, so the
    whole session fails if any child survives a short grace period.
    """

    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
    pytest.fail(f"benchmark session leaked worker processes: {leaked}")
