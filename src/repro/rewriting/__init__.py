"""First-order consistent-query-answering by query rewriting.

Both repair-enumeration strategies of :mod:`repro.core.cqa` enumerate
every repair, so their cost grows exponentially with the number of
violations.  For the paper's core tractable class — primary-key
functional dependencies, acyclic referential constraints and NOT-NULL
constraints (plus denial/check constraints) — the consistent answers of
a conjunctive query are computable in polynomial time by rewriting the
query into a null-aware first-order query evaluated once on the
inconsistent database, in the tradition of Arenas–Bertossi–Chomicki
residues and ConQuer-style key rewritings.

The subsystem:

* :mod:`repro.rewriting.fragment` — delimits the tractable fragment and
  raises :class:`RewritingUnsupportedError` outside it;
* :mod:`repro.rewriting.conflicts` — classifies a violation list (the
  session's warm tracker's) into the conflict graph of an instance
  (single-fact marks, pairwise edges) and estimates the repair count;
* :mod:`repro.rewriting.residues` — the per-atom certainty conditions;
* :mod:`repro.rewriting.rewriter` — builds :class:`RewrittenQuery` with
  a fast in-memory evaluator, a first-order formula rendering and a SQL
  compilation;
* :mod:`repro.rewriting.planner` — the planner behind
  ``consistent_answers(..., method="auto")``, a function of
  (constraints, query) alone.

>>> from repro import DatabaseInstance, parse_constraint, parse_query
>>> from repro.rewriting import rewrite_query
>>> db = DatabaseInstance.from_dict({
...     "R": [("a", "b"), ("a", "c"), ("d", "e")],
... })
>>> key = parse_constraint("R(x, y), R(x, z) -> y = z")
>>> query = parse_query("ans(x) <- R(x, y)")
>>> sorted(rewrite_query(query, [key]).answers(db))
[('a',), ('d',)]
"""

from repro.rewriting.fragment import (
    FDInfo,
    FragmentAnalysis,
    KeyInfo,
    RewritingUnsupportedError,
    analyze_constraints,
    fd_shape,
)
from repro.rewriting.conflicts import ConflictEdge, ConflictGraph, ConflictMark
from repro.rewriting.residues import (
    CheckResidue,
    DenialResidue,
    FDResidue,
    NotNullResidue,
    Residue,
    RICResidue,
)
from repro.rewriting.rewriter import AtomRewriting, RewrittenQuery, rewrite_query
from repro.rewriting.sqlgen import rewritten_query_sql
from repro.rewriting.planner import CQAPlan, plan_cqa

__all__ = [
    "RewritingUnsupportedError",
    "FragmentAnalysis",
    "KeyInfo",
    "FDInfo",
    "analyze_constraints",
    "fd_shape",
    "ConflictGraph",
    "ConflictEdge",
    "ConflictMark",
    "Residue",
    "NotNullResidue",
    "CheckResidue",
    "FDResidue",
    "RICResidue",
    "DenialResidue",
    "AtomRewriting",
    "RewrittenQuery",
    "rewrite_query",
    "rewritten_query_sql",
    "CQAPlan",
    "plan_cqa",
]
