"""Differential execution: every applicable engine/mode pair per scenario.

For one :class:`ScenarioCase` the runner builds a session (trace
replayed), runs a configurable set of *probes* — engine/mode pairs —
under a per-probe budget, and cross-checks:

* **repair lists, order included** — the direct family (the production
  search and the naive reference) documents bit-identical output, so
  raw list order is part of the contract and any mismatch is a
  ``repair-order`` divergence; across families (direct vs the
  stable-model program route) only canonical set-of-repairs equality
  is required, and a mismatch is a ``repairs`` divergence — the class
  the open ≤_D null-coverage bug falls into;
* **consistent answers** — every probe that completed must agree with
  the reference (``answers`` divergence otherwise);
* **certain-answer decisions** — ``session.certain(query, candidate)``
  must agree with membership in the reference answer set (``certain``);
* **degradation flags** — a probe that silently degraded while the
  reference ran exact is a ``degradation`` divergence.

Probes that raise the typed budget taxonomy are classified ``budget``;
probes outside their fragment (``RewritingUnsupportedError``,
``QueryNotIndependentError``) are ``skip``; anything else raising is a
``crash`` divergence in its own right.  Divergences carry a coarse
*signature* (kind + engine families) so a fresh finding can be matched
against the pinned corpus without comparing instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.independence import QueryNotIndependentError
from repro.core.repair_program import RepairProgramError
from repro.errors import BudgetExceededError
from repro.rewriting.fragment import RewritingUnsupportedError
from repro.engines.base import CQAConfig
from repro.relational.instance import DatabaseInstance
from repro.workloads.case import ScenarioCase

#: Canonical form of one repair: the sorted fact keys it contains.
RepairKey = Tuple[Tuple[Any, ...], ...]


@dataclass(frozen=True)
class ProbeSpec:
    """One engine/mode pair the runner exercises."""

    name: str
    method: str
    repair_mode: Optional[str] = None
    #: True when the probe enumerates repairs (so repair lists compare).
    enumerates: bool = False

    @property
    def family(self) -> str:
        """The engine family (probe name without the mode suffix)."""

        return self.name.split(":", 1)[0]

    def overrides(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {"method": self.method}
        if self.repair_mode is not None:
            merged["repair_mode"] = self.repair_mode
        return merged


#: The reference probe — the repository's implementation of Definition 7:
#: the production repair search, inline, warm-started from the session's
#: violation tracker.
REFERENCE_PROBE = ProbeSpec("direct:parallel", "direct", "parallel", enumerates=True)

ALL_PROBES: Tuple[ProbeSpec, ...] = (
    REFERENCE_PROBE,
    ProbeSpec("direct:naive", "direct", "naive", enumerates=True),
    ProbeSpec("program", "program", enumerates=True),
    ProbeSpec("rewriting", "rewriting"),
    ProbeSpec("auto", "auto"),
    ProbeSpec("sqlite", "sqlite"),
    ProbeSpec("independent", "independent"),
)

#: The probe set a campaign runs unless told otherwise: every probe.
DEFAULT_PROBES: Tuple[ProbeSpec, ...] = ALL_PROBES


def probe_specs(names: Optional[Sequence[str]]) -> Tuple[ProbeSpec, ...]:
    """Resolve a probe selection; the reference probe is always included."""

    if names is None:
        return DEFAULT_PROBES
    if list(names) == ["all"]:
        return ALL_PROBES
    by_name = {spec.name: spec for spec in ALL_PROBES}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown probes {unknown}; available: {sorted(by_name)} or 'all'"
        )
    selected = [REFERENCE_PROBE]
    selected += [by_name[name] for name in names if name != REFERENCE_PROBE.name]
    return tuple(selected)


@dataclass
class ProbeResult:
    """What one probe did on one scenario."""

    probe: str
    status: str  # "ok" | "skip" | "budget" | "crash"
    answers: Optional[FrozenSet[Tuple[Any, ...]]] = None
    #: Repairs in engine emission order (None for answer-only probes).
    repairs_raw: Optional[Tuple[RepairKey, ...]] = None
    #: The same repairs sorted — the cross-family comparison key.
    repairs_canonical: Optional[Tuple[RepairKey, ...]] = None
    degraded: bool = False
    error: str = ""


@dataclass(frozen=True)
class Divergence:
    """Two probes (or a probe and the certain() surface) disagreeing."""

    kind: str  # "repairs" | "repair-order" | "answers" | "certain" | "degradation" | "crash"
    left: str
    right: str
    detail: str = ""

    @property
    def signature(self) -> str:
        """Coarse matching key: kind plus the disagreeing engine families.

        Deliberately name- and instance-independent: any direct-vs-program
        repair-set disagreement shares one signature, so the single known
        ≤_D divergence pins the whole class (see ``docs/fuzzing.md``).
        """

        families = sorted(
            {self.left.split(":", 1)[0], self.right.split(":", 1)[0]} - {""}
        )
        return f"{self.kind}:" + "/".join(families)


@dataclass
class CaseOutcome:
    """The differential verdict on one scenario."""

    case: ScenarioCase
    status: str  # "agree" | "diverged" | "budget" | "skip" | "crash"
    results: List[ProbeResult] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def signatures(self) -> List[str]:
        return sorted({d.signature for d in self.divergences})


def repair_key(repair: DatabaseInstance) -> RepairKey:
    """The canonical, orderable key of one repair instance."""

    return tuple(sorted(fact.sort_key() for fact in repair.facts()))


def _budget_config(spec: ProbeSpec, budget: CQAConfig) -> Dict[str, Any]:
    """The probe's overrides plus the campaign's bounds and null convention."""

    merged = spec.overrides()
    merged["max_states"] = budget.max_states
    merged["null_is_unknown"] = budget.null_is_unknown
    if budget.deadline is not None:
        merged["deadline"] = budget.deadline
    return merged


#: Default per-probe resource bounds: enough for every generated scenario
#: we expect to finish, small enough that a pathological one is cut off
#: as ``budget`` instead of stalling the sweep.  Its ``null_is_unknown``
#: (the default convention here) is the query convention every probe
#: and every certain() check of a campaign uses.
DEFAULT_PROBE_BUDGET = CQAConfig(max_states=4000, deadline=5.0)


def run_probe(session: Any, case: ScenarioCase, spec: ProbeSpec, budget: CQAConfig) -> ProbeResult:
    """Execute one probe on an already-built session.

    The session's caches are dropped first: the direct family shares one
    repair-list entry per generation, so without this every probe after
    the first would replay the first one's list instead of searching.
    """

    overrides = _budget_config(spec, budget)
    result = ProbeResult(probe=spec.name, status="ok")
    session.close()
    try:
        if spec.enumerates:
            config = session.config.merged(overrides)
            repairs = session.repairs_list(spec.method, config)
            result.repairs_raw = tuple(repair_key(r) for r in repairs)
            result.repairs_canonical = tuple(sorted(result.repairs_raw))
        report = session.report(case.query, **overrides)
        result.answers = frozenset(report.answers)
        result.degraded = bool(getattr(report, "degradation", None)) or bool(
            session.last_degradation
        )
    except BudgetExceededError as exc:
        result.status = "budget"
        result.error = f"{type(exc).__name__}: {exc}"
    except (
        RewritingUnsupportedError,  # outside the tractable rewriting fragment
        QueryNotIndependentError,  # query touches constrained predicates (I302)
        RepairProgramError,  # constraint outside Definition 9's program fragment
    ) as exc:
        result.status = "skip"
        result.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash IS a finding, not a runner failure
        result.status = "crash"
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _certain_checks(
    session: Any, case: ScenarioCase, reference: ProbeResult, budget: CQAConfig
) -> List[Divergence]:
    """Cross-check ``session.certain`` against the reference answer set.

    Two candidates are decided: one tuple that IS a consistent answer
    (certain must say True) and one tuple answered on the *current*
    instance but not consistently (certain must say False).  Boolean
    queries check the single () candidate implicitly.
    """

    assert reference.answers is not None
    divergences: List[Divergence] = []
    overrides = _budget_config(REFERENCE_PROBE, budget)
    candidates: List[Tuple[Tuple[Any, ...], bool]] = []
    if case.query.is_boolean:
        candidates.append(((), () in reference.answers))
    else:
        if reference.answers:
            candidates.append((sorted(reference.answers)[0], True))
        try:
            plain = case.query.answers(
                session.instance, null_is_unknown=budget.null_is_unknown
            )
        except Exception:
            plain = frozenset()
        spurious = sorted(plain - reference.answers)
        if spurious:
            candidates.append((spurious[0], False))
    for candidate, expected in candidates:
        try:
            if case.query.is_boolean:
                decided = session.certain(case.query, **overrides)
            else:
                decided = session.certain(case.query, candidate, **overrides)
        except BudgetExceededError:
            continue
        except Exception as exc:
            divergences.append(
                Divergence(
                    kind="crash",
                    left="certain",
                    right=REFERENCE_PROBE.name,
                    detail=f"certain({candidate!r}) raised {type(exc).__name__}: {exc}",
                )
            )
            continue
        if bool(decided) != expected:
            divergences.append(
                Divergence(
                    kind="certain",
                    left="certain",
                    right=REFERENCE_PROBE.name,
                    detail=(
                        f"certain({candidate!r}) = {decided!r} but the reference "
                        f"answer set says {expected}"
                    ),
                )
            )
    return divergences


def run_case(
    case: ScenarioCase,
    probes: Sequence[ProbeSpec] = DEFAULT_PROBES,
    budget: CQAConfig = DEFAULT_PROBE_BUDGET,
    *,
    check_certain: bool = True,
) -> CaseOutcome:
    """Run every probe on *case* and cross-check the results."""

    try:
        session = case.session()
    except Exception as exc:
        outcome = CaseOutcome(case=case, status="crash")
        outcome.divergences.append(
            Divergence(
                kind="crash",
                left="session",
                right="",
                detail=f"session construction raised {type(exc).__name__}: {exc}",
            )
        )
        return outcome

    results = [run_probe(session, case, spec, budget) for spec in probes]
    outcome = CaseOutcome(case=case, status="agree", results=results)
    by_status: Dict[str, List[ProbeResult]] = {}
    for result in results:
        by_status.setdefault(result.status, []).append(result)
    for crashed in by_status.get("crash", ()):
        outcome.divergences.append(
            Divergence(
                kind="crash", left=crashed.probe, right="", detail=crashed.error
            )
        )

    completed = by_status.get("ok", [])
    if len(completed) >= 1:
        base = completed[0]
        for other in completed[1:]:
            assert base.answers is not None and other.answers is not None
            if other.answers != base.answers:
                outcome.divergences.append(
                    Divergence(
                        kind="answers",
                        left=base.probe,
                        right=other.probe,
                        detail=(
                            f"answer sets differ: {sorted(base.answers)!r} vs "
                            f"{sorted(other.answers)!r}"
                        ),
                    )
                )
            if base.repairs_canonical is not None and other.repairs_canonical is not None:
                base_spec = next(s for s in probes if s.name == base.probe)
                other_spec = next(s for s in probes if s.name == other.probe)
                if base_spec.family == other_spec.family:
                    if base.repairs_raw != other.repairs_raw:
                        outcome.divergences.append(
                            Divergence(
                                kind="repair-order",
                                left=base.probe,
                                right=other.probe,
                                detail=(
                                    "same-family repair lists are not "
                                    "bit-identical (order or content differs): "
                                    f"{len(base.repairs_raw or ())} vs "
                                    f"{len(other.repairs_raw or ())} repairs"
                                ),
                            )
                        )
                elif base.repairs_canonical != other.repairs_canonical:
                    outcome.divergences.append(
                        Divergence(
                            kind="repairs",
                            left=base.probe,
                            right=other.probe,
                            detail=(
                                f"repair sets differ: {len(base.repairs_canonical)} "
                                f"vs {len(other.repairs_canonical)} repairs"
                            ),
                        )
                    )
            if other.degraded and not base.degraded:
                outcome.divergences.append(
                    Divergence(
                        kind="degradation",
                        left=base.probe,
                        right=other.probe,
                        detail="probe degraded while the reference ran exact",
                    )
                )
        if check_certain and base.probe == REFERENCE_PROBE.name and base.answers is not None:
            # A fresh session: this one already caches the reference report,
            # which would answer certain() by membership.
            outcome.divergences.extend(_certain_checks(case.session(), case, base, budget))

    if outcome.divergences:
        outcome.status = "diverged"
    elif not completed:
        if by_status.get("budget"):
            outcome.status = "budget"
        else:
            outcome.status = "skip"
    return outcome
