"""The CQA strategy protocol and the engine registry.

Every way of computing consistent answers — repair enumeration, the
cautious stable-model route, the first-order rewriting, the cost-based
auto-planner and the SQLite push-down — is an interchangeable *engine*:
a stateless strategy object registered under a short name.  The session
façade (:class:`repro.session.ConsistentDatabase`) dispatches every
query through :func:`get_engine`, so adding an evaluation strategy is
one ``@register_engine("name")`` class away and no ``if method == ...``
chain anywhere needs to grow a branch.

Engines hold no state of their own.  All expensive intermediates —
repair lists, rewritten queries, conflict-graph statistics, plans, SQL
backends — live in the session's generation-keyed cache, which is what
makes repeated queries cheap; an engine asks the session for them
(``session.repairs_list``, ``session.rewritten``, ...) instead of
recomputing.

The enumeration engines additionally expose the coarse cost model the
planner of :mod:`repro.rewriting.planner` ranks them by
(:meth:`CQAEngine.enumeration_cost`); :func:`enumeration_costs`
collects those figures across the registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.constraints.ic import ConstraintSet
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.relational.instance import DatabaseInstance
    from repro.session import ConsistentDatabase


@dataclass(frozen=True)
class CQAConfig:
    """The knobs of one consistent-query-answering computation.

    Collected into a single immutable object so that the session, the
    engines and the functional wrappers all thread the same settings the
    same way (and so the answer cache can key on them):

    * ``method`` — the engine name (:func:`available_engines`);
    * ``null_is_unknown`` — evaluate queries with SQL-style unknown
      comparisons instead of treating ``null`` as an ordinary constant;
    * ``max_states`` — the repair-search state budget;
    * ``repair_mode`` — the direct engine's repair search
      (:data:`repro.core.repairs.REPAIR_METHODS`): ``"parallel"``, the
      production delta-carrying depth-first search, or ``"naive"``, the
      nested-loop reference it is pinned to (same repairs, same order).
      The production search runs in the calling process; its name stays
      ``"parallel"`` only because the end-to-end benchmark's
      ``pool_enum`` sessions pass it;
    * ``anytime`` — let :meth:`repro.session.ConsistentDatabase.certain`
      short-circuit through :meth:`CQAEngine.certain_anytime` as soon
      as one streamed repair refutes the candidate;
    * ``estimate_repairs`` — whether the non-enumerating engines should
      pay one conflict-graph pass for a repair-count estimate;
    * ``deadline`` — wall-clock seconds the whole request may take; a
      :class:`repro.resilience.Budget` is installed for the call and
      every layer (search, kernel, SQL backend) checks it
      cooperatively;
    * ``max_memory`` — coarse byte budget for accumulated result sets;
    * ``degrade`` — on budget exhaustion return the sound partial
      result with a :class:`repro.resilience.Degradation` record
      instead of raising the typed
      :class:`repro.errors.BudgetExceededError` (only anytime/streaming
      surfaces can degrade; exact surfaces always raise).
    """

    method: str = "auto"
    null_is_unknown: bool = False
    max_states: Optional[int] = 200_000
    repair_mode: str = "parallel"
    estimate_repairs: bool = True
    anytime: bool = False
    deadline: Optional[float] = None
    max_memory: Optional[int] = None
    degrade: bool = False

    def merged(self, overrides: Mapping[str, Any]) -> "CQAConfig":
        """A copy with *overrides* applied.

        Args:
            overrides: field-name → value mapping, typically the
                keyword arguments of one session query call.

        Returns:
            ``self`` unchanged when *overrides* is empty, otherwise a
            new frozen config.

        Raises:
            TypeError: if *overrides* names a key that is not a
                :class:`CQAConfig` field.

        >>> base = CQAConfig()
        >>> base.merged({"method": "direct"}).method
        'direct'
        >>> base.merged({}) is base
        True
        >>> base.merged({"turbo": True})
        Traceback (most recent call last):
            ...
        TypeError: unknown CQA option(s): turbo; valid options are anytime, \
deadline, degrade, estimate_repairs, max_memory, max_states, method, \
null_is_unknown, repair_mode
        """

        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown CQA option(s): {', '.join(sorted(unknown))}; "
                f"valid options are {', '.join(sorted(known))}"
            )
        return replace(self, **overrides)

    def cache_key(self) -> Tuple[Any, ...]:
        """The hashable projection of the config used by the answer cache.

        ``anytime`` is deliberately absent: it changes *when* a certain
        answer can be decided, never what any query returns, so caching
        per anytime flag would only split identical entries.  The
        resilience knobs (``deadline``, ``max_memory``, ``degrade``)
        are absent for the same reason — a request that *completes*
        returns the same answer under any budget, and a request that
        does not never reaches the cache.
        """

        return (
            self.method,
            self.null_is_unknown,
            self.max_states,
            self.repair_mode,
            self.estimate_repairs,
        )


class CQAEngine(ABC):
    """One strategy for computing consistent answers.

    Subclasses are stateless singletons; :func:`register_engine` both
    names and instantiates them.  ``answers_report`` receives the owning
    session (whose caches hold every reusable intermediate), the query
    and the merged :class:`CQAConfig`, and returns a fully populated
    :class:`repro.core.cqa.CQAResult`.
    """

    #: Registry name, set by :func:`register_engine`.
    name: ClassVar[str] = ""

    @abstractmethod
    def answers_report(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        config: CQAConfig,
    ) -> "CQAResult":
        """Compute the consistent answers plus repair statistics."""

    @staticmethod
    def enumeration_cost(
        instance: "DatabaseInstance",
        constraints: "ConstraintSet",
        estimated_repairs: int,
    ) -> Optional[float]:
        """Coarse cost of answering by this engine, or ``None``.

        Only the repair-enumerating engines model a cost; the planner
        ranks whatever the registry returns (see
        :func:`enumeration_costs`).
        """

        return None

    def certain_anytime(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Optional[Tuple] = None,
        config: Optional[CQAConfig] = None,
    ) -> Optional[bool]:
        """Anytime decision of "is *candidate* an answer in every repair?".

        An engine that can refute a candidate without materialising the
        full answer set — the direct engine streams repairs from the
        frontier search and stops at the first counterexample, the
        rewriting engines are one polynomial pass anyway — overrides
        this.  Returning ``None`` (the default) tells the session to
        fall back to the ordinary :meth:`answers_report` route.

        Args:
            session: the owning session (cache + instance access).
            query: the query under decision; boolean when *candidate*
                is ``None``.
            candidate: the answer tuple to certify, or ``None`` for a
                boolean query.
            config: the merged per-call :class:`CQAConfig`.

        Returns:
            The certain answer, or ``None`` when this engine has no
            anytime path.
        """

        return None


_REGISTRY: Dict[str, CQAEngine] = {}


def register_engine(name: str):
    """Class decorator: register a :class:`CQAEngine` subclass under *name*.

    The class is instantiated immediately (engines are stateless
    singletons) and becomes reachable through :func:`get_engine` — e.g.
    ``consistent_answers(..., method=name)`` and
    ``ConsistentDatabase(..., method=name)`` start working as soon as the
    defining module is imported.  Re-registering a taken name raises.
    """

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(f"CQA engine {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorator


def get_engine(name: str) -> CQAEngine:
    """The engine registered under *name*; ``ValueError`` if unknown."""

    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown CQA method {name!r}; use one of {', '.join(_REGISTRY)}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, in registration order."""

    return tuple(_REGISTRY)


def enumeration_costs(
    instance: "DatabaseInstance",
    constraints: "ConstraintSet",
    estimated_repairs: int,
) -> Dict[str, float]:
    """Each cost-modelled engine's estimate for this enumeration problem."""

    costs: Dict[str, float] = {}
    for name, engine in _REGISTRY.items():
        cost = engine.enumeration_cost(instance, constraints, estimated_repairs)
        if cost is not None:
            costs[name] = cost
    return costs
