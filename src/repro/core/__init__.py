"""Core contribution of the paper: null-aware satisfaction, repairs, CQA.

The sub-modules follow the paper's structure:

* :mod:`repro.core.relevant` — relevant attributes ``A(ψ)`` (Definition 2);
* :mod:`repro.core.projection` — projected instances ``D^A`` (Definition 3);
* :mod:`repro.core.transform` — the rewritten constraint ``ψ_N`` (formula (4));
* :mod:`repro.core.satisfaction` — the satisfaction relation ``|=_N``
  (Definitions 4–5) and violation enumeration;
* :mod:`repro.core.semantics` — the alternative semantics compared in
  Example 4 (classical, liberal/[10], SQL simple-/partial-/full-match);
* :mod:`repro.core.repairs` — the null-introducing repair semantics
  (Definitions 6–7, Proposition 1);
* :mod:`repro.core.classic` — the classical repair semantics of
  Arenas–Bertossi–Chomicki 1999, used as a baseline;
* :mod:`repro.core.cqa` — consistent query answering (Definition 8);
* :mod:`repro.core.repair_program` — the disjunctive repair programs of
  Definition 9 and the model/repair correspondence (Theorem 4);
* :mod:`repro.core.hcf` — bilateral predicates and the head-cycle-free
  optimisation (Section 6, Theorem 5, Corollary 1).
"""

from repro.core.relevant import relevant_attributes, relevant_positions
from repro.core.projection import project_instance
from repro.core.transform import null_aware_formula, classical_formula
from repro.core.satisfaction import (
    Violation,
    all_violations,
    is_consistent,
    satisfies,
    violations,
)
from repro.core.semantics import Semantics
from repro.core.repairs import (
    PARALLEL_METHOD,
    REPAIR_METHODS,
    RepairEngine,
    RepairStatistics,
    ViolationIndex,
    ViolationTracker,
    delta,
    leq_d,
    leq_deltas,
    lt_d,
    repairs,
    violation_choice_key,
)
from repro.core.parallel import (
    AnytimeRepairStream,
    ParallelRepairSearch,
)
from repro.core.classic import classic_repairs
from repro.core.cqa import (
    CQA_METHODS,
    CQAResult,
    consistent_answers,
    consistent_answers_report,
    consistent_boolean_answer,
    is_consistent_answer,
)
from repro.core.repair_program import build_repair_program, database_from_model, program_repairs
from repro.core.hcf import bilateral_predicates, guarantees_hcf

__all__ = [
    "relevant_attributes",
    "relevant_positions",
    "project_instance",
    "null_aware_formula",
    "classical_formula",
    "Violation",
    "satisfies",
    "violations",
    "all_violations",
    "is_consistent",
    "Semantics",
    "PARALLEL_METHOD",
    "REPAIR_METHODS",
    "RepairEngine",
    "RepairStatistics",
    "ViolationIndex",
    "ViolationTracker",
    "AnytimeRepairStream",
    "ParallelRepairSearch",
    "violation_choice_key",
    "repairs",
    "delta",
    "leq_d",
    "leq_deltas",
    "lt_d",
    "classic_repairs",
    "CQA_METHODS",
    "CQAResult",
    "consistent_answers",
    "consistent_answers_report",
    "consistent_boolean_answer",
    "is_consistent_answer",
    "build_repair_program",
    "database_from_model",
    "program_repairs",
    "bilateral_predicates",
    "guarantees_hcf",
]
