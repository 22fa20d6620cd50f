"""Pluggable consistent-query-answering engines.

The registry pattern of :mod:`repro.engines.base` plus one module per
strategy family:

* :mod:`repro.engines.enumeration` — ``"direct"`` (repair search) and
  ``"program"`` (stable models of the repair program);
* :mod:`repro.engines.rewriting` — ``"rewriting"`` (first-order
  rewriting, polynomial);
* :mod:`repro.engines.independent` — ``"independent"`` (plain
  evaluation for queries statically proven constraint-independent,
  diagnostic ``I302``);
* :mod:`repro.engines.sqlite` — ``"sqlite"`` (the rewriting compiled to
  SQL and evaluated inside SQLite).

``method="auto"`` names no engine: the session resolves it to the
engine of the query's cached plan (:func:`repro.rewriting.plan_cqa`)
before it looks up the answer cache, so ``auto`` and that engine share
one cache entry.

Importing this package registers all built-in engines.  Third-party
strategies register the same way::

    from repro.engines import CQAEngine, register_engine

    @register_engine("approximate")
    class ApproximateEngine(CQAEngine):
        def answers_report(self, session, query, config): ...

after which ``ConsistentDatabase(..., method="approximate")`` and
``consistent_answers(..., method="approximate")`` both dispatch to it.
"""

from repro.engines.base import (
    CQAConfig,
    CQAEngine,
    available_engines,
    get_engine,
    register_engine,
)

# Importing the strategy modules registers the built-in engines.
from repro.engines import enumeration as _enumeration  # noqa: F401
from repro.engines import rewriting as _rewriting  # noqa: F401
from repro.engines import independent as _independent  # noqa: F401
from repro.engines import sqlite as _sqlite  # noqa: F401

__all__ = [
    "CQAConfig",
    "CQAEngine",
    "available_engines",
    "get_engine",
    "register_engine",
]
