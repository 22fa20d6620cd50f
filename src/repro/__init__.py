"""repro — Consistent query answering over databases with null values.

A from-scratch reproduction of L. Bravo and L. Bertossi, *Semantically
Correct Query Answers in the Presence of Null Values* (EDBT 2006 /
arXiv:cs/0604076): a null-aware semantics of integrity-constraint
satisfaction, database repairs that introduce nulls, consistent query
answering over those repairs, and the disjunctive repair logic programs
that compute them — together with every substrate the paper relies on
(relational instances, a first-order evaluator, an answer-set solver and a
SQL backend).

Quickstart: the session façade
------------------------------
The primary entry point is :class:`repro.session.ConsistentDatabase`: a
stateful session built from an instance (or a plain mapping) plus a
constraint set.  It absorbs mutations while keeping its violation
tracker warm, answers queries through a registry of pluggable engines
(``"direct"``, ``"program"``, ``"rewriting"``, ``"independent"``,
``"sqlite"``; ``"auto"``, the default, runs the one the query's plan
names) and caches plans, rewritings, repair lists and answers across
calls — repeating a query on an unchanged database costs one dictionary
probe.

>>> from repro import ConsistentDatabase, parse_constraint, parse_query
>>> db = ConsistentDatabase(
...     {"Course": [(21, "C15"), (34, "C18")],
...      "Student": [(21, "Ann"), (45, "Paul")]},
...     [parse_constraint("Course(i, c) -> Student(i, n)")],
... )
>>> db.is_consistent()
False
>>> len(list(db.iter_repairs()))
2
>>> query = parse_query("ans(c) <- Course(i, c)")
>>> sorted(db.consistent_answers(query))
[('C15',)]
>>> db.insert("Student", (34, "Zoe"))
True
>>> sorted(db.consistent_answers(query))
[('C15',), ('C18',)]

``db.explain(query)`` shows the plan; ``db.batch()`` opens a
transactional mutation block that rolls back on error; per-call keyword
overrides (``db.consistent_answers(query, method="sqlite")``) switch
engines without touching the session defaults.

The functional API of the earlier releases — :func:`repairs`,
:func:`consistent_answers`, :func:`consistent_answers_report`,
:func:`consistent_boolean_answer` — remains available as thin wrappers
over a throwaway session, so one-shot scripts keep working unchanged:

>>> from repro import DatabaseInstance, consistent_answers, repairs
>>> d = DatabaseInstance.from_dict({
...     "Course": [(21, "C15"), (34, "C18")],
...     "Student": [(21, "Ann"), (45, "Paul")],
... })
>>> ric = parse_constraint("Course(i, c) -> Student(i, n)")
>>> len(repairs(d, [ric]))
2
>>> sorted(consistent_answers(d, [ric], query, method="auto"))
[('C15',)]

Large inconsistent databases should not enumerate repairs at all: for
primary keys, acyclic referential constraints and NOT-NULL constraints
the consistent answers are computable in polynomial time by a
first-order rewriting evaluated once on the inconsistent database
(:mod:`repro.rewriting`).  ``method="auto"`` (the session default) lets
the planner pick the rewriting whenever it applies and fall
back to repair enumeration otherwise — it never raises
:class:`~repro.rewriting.RewritingUnsupportedError`.
``method="sqlite"`` compiles the same rewriting to one ``SELECT`` and
evaluates it entirely inside SQLite.  New strategies register with
``@repro.engines.register_engine("name")`` and become reachable from
both APIs immediately.

Underneath every engine sits the **compiled kernel**
(:mod:`repro.compile`): constraints and conjunctive queries are lowered
once — per process, ever — into executable join plans (precomputed atom
schedules, slot-based bindings, specialised matchers, seeded delta
plans), and violation detection, the violation tracker, query
answering, the rewriting residues and the ASP grounder all execute the
compiled plans.  ``ConsistentDatabase.compiled_program()`` exposes a
session's plans; :func:`repro.compile.kernel.compiler_statistics`
counts compilations (a healthy process compiles each constraint set at
most once).

Every call can also carry a **budget** (:mod:`repro.resilience`):
``deadline=``/``max_states=``/``max_memory=`` bound a request, strict
surfaces raise a typed :class:`BudgetExceededError` subclass on
exhaustion, and anytime surfaces (``iter_repairs(stream=True, degrade=True)``,
``certain(anytime=True, degrade=True)``) return what was proven tagged
with a :class:`Degradation` record.  Everything runs in the calling
process; the library starts no process of its own.  See
``docs/robustness.md``.
"""

from repro.relational import (
    NULL,
    DatabaseInstance,
    DatabaseSchema,
    Fact,
    RelationSchema,
    is_null,
)
from repro.constraints import (
    Atom,
    Comparison,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
    Variable,
    check_constraint,
    denial_constraint,
    foreign_key,
    functional_dependency,
    inclusion_dependency,
    is_ric_acyclic,
    not_null,
    parse_constraint,
    parse_constraints,
    parse_query,
    primary_key,
    referential_constraint,
    universal_constraint,
)
from repro.logic import ConjunctiveQuery, FirstOrderQuery, Query
from repro.core import (
    REPAIR_METHODS,
    AnytimeRepairStream,
    ParallelRepairSearch,
    RepairEngine,
    RepairStatistics,
    Semantics,
    Violation,
    ViolationIndex,
    ViolationTracker,
    all_violations,
    build_repair_program,
    classic_repairs,
    consistent_answers,
    database_from_model,
    is_consistent,
    is_consistent_answer,
    leq_d,
    lt_d,
    program_repairs,
    project_instance,
    relevant_attributes,
    repairs,
    satisfies,
    violations,
)
from repro.core.cqa import (
    CQA_METHODS,
    CQAResult,
    consistent_answers_report,
    consistent_boolean_answer,
)
from repro.core.semantics import is_consistent_under, satisfies_under, semantics_matrix
from repro.rewriting import (
    ConflictGraph,
    CQAPlan,
    RewritingUnsupportedError,
    RewrittenQuery,
    plan_cqa,
    rewrite_query,
)
from repro.engines import (
    CQAConfig,
    CQAEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.session import CacheInfo, ConsistentDatabase, SessionStatistics
from repro.analysis import (
    AnalysisReport,
    ConstraintProgramError,
    Diagnostic,
    QueryNotIndependentError,
    Severity,
    analyze,
    is_independent,
)
from repro.compile.kernel import (
    CompiledProgram,
    compiled_constraint,
    compiled_query,
    compiler_statistics,
)
from repro.obs import ExplainReport, FakeClock, MetricsRegistry, Tracer, tracing
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    MemoryBudgetExceededError,
    QueryCancelledError,
    ReproError,
    StateBudgetExceededError,
)
from repro.resilience import (
    Budget,
    Degradation,
    using_budget,
)

__version__ = "1.4.0"

__all__ = [
    "__version__",
    # session façade and engine registry
    "ConsistentDatabase",
    "SessionStatistics",
    "CacheInfo",
    # compiled kernel
    "CompiledProgram",
    "compiled_constraint",
    "compiled_query",
    "compiler_statistics",
    "CQAConfig",
    "CQAEngine",
    "register_engine",
    "get_engine",
    "available_engines",
    # relational substrate
    "NULL",
    "is_null",
    "Fact",
    "RelationSchema",
    "DatabaseSchema",
    "DatabaseInstance",
    # constraint language
    "Variable",
    "Atom",
    "Comparison",
    "IntegrityConstraint",
    "NotNullConstraint",
    "ConstraintSet",
    "universal_constraint",
    "referential_constraint",
    "denial_constraint",
    "check_constraint",
    "functional_dependency",
    "primary_key",
    "foreign_key",
    "inclusion_dependency",
    "not_null",
    "parse_constraint",
    "parse_constraints",
    "parse_query",
    "is_ric_acyclic",
    # queries
    "Query",
    "ConjunctiveQuery",
    "FirstOrderQuery",
    # null-aware semantics
    "Semantics",
    "relevant_attributes",
    "project_instance",
    "satisfies",
    "satisfies_under",
    "violations",
    "all_violations",
    "is_consistent",
    "is_consistent_under",
    "semantics_matrix",
    "Violation",
    # repairs
    "REPAIR_METHODS",
    "AnytimeRepairStream",
    "ParallelRepairSearch",
    "RepairEngine",
    "RepairStatistics",
    "ViolationIndex",
    "ViolationTracker",
    "repairs",
    "classic_repairs",
    "leq_d",
    "lt_d",
    # CQA
    "consistent_answers",
    "consistent_answers_report",
    "consistent_boolean_answer",
    "is_consistent_answer",
    "CQAResult",
    "CQA_METHODS",
    # first-order rewriting and planning
    "RewritingUnsupportedError",
    "RewrittenQuery",
    "rewrite_query",
    "ConflictGraph",
    "CQAPlan",
    "plan_cqa",
    # repair programs
    "build_repair_program",
    "program_repairs",
    "database_from_model",
    # static analysis
    "analyze",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "ConstraintProgramError",
    "QueryNotIndependentError",
    "is_independent",
    # observability
    "ExplainReport",
    "FakeClock",
    "MetricsRegistry",
    "Tracer",
    "tracing",
    "obs_metrics",
    "obs_trace",
    # resilience: budgets and degradation
    "Budget",
    "Degradation",
    "using_budget",
    # error taxonomy
    "ReproError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "StateBudgetExceededError",
    "MemoryBudgetExceededError",
    "QueryCancelledError",
]
