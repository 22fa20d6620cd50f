"""The CQA strategy protocol and the engine registry.

Every way of computing consistent answers — repair enumeration, the
cautious stable-model route, the first-order rewriting, the independence
fast path and the SQLite push-down — is an interchangeable *engine*:
a stateless strategy object registered under a short name.  The session
façade (:class:`repro.session.ConsistentDatabase`) dispatches every
query through :func:`get_engine` (``method="auto"`` first becomes the
engine its plan names), so adding an evaluation strategy is one
``@register_engine("name")`` class away and no ``if method == ...``
chain anywhere needs to grow a branch.

Engines hold no state of their own.  All expensive intermediates —
repair lists (the direct route's as minimal deltas over a snapshot,
:class:`repro.core.repairs.RepairSequence`), plans with their rewritten
queries, SQL backends — live in the session's cache, which is what
makes repeated queries cheap; an engine asks the session for them
(``session.repairs_list``, ``session.rewritten``, ...) instead of
recomputing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.logic.queries import Query
    from repro.session import ConsistentDatabase


@dataclass(frozen=True)
class CQAConfig:
    """The knobs of one consistent-query-answering computation.

    Collected into a single immutable object so that the session, the
    engines and the functional wrappers all thread the same settings the
    same way (and so the answer cache can key on them):

    * ``method`` — the engine name (:func:`available_engines`), or
      ``"auto"``: the engine of the session's plan for the query;
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
      decide over the anytime repair stream (:meth:`CQAEngine.certain`
      of the direct engine), which stops as soon as one streamed repair
      refutes the candidate;
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

    The repair-count estimate of the engines that materialise no repairs
    is no knob: :meth:`repro.session.ConsistentDatabase.report` alone
    returns a repair count, and no other surface pays for one.
    """

    method: str = "auto"
    null_is_unknown: bool = False
    max_states: Optional[int] = 200_000
    repair_mode: str = "parallel"
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
deadline, degrade, max_memory, max_states, method, null_is_unknown, \
repair_mode
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

        ``method`` is absent: the session keys each entry on the engine
        that computes it, which under ``"auto"`` is the engine the plan
        names, so ``auto`` and that engine share one entry.  ``anytime``
        is deliberately absent: it changes *when* a certain answer can
        be decided, never what any query returns, so caching per
        anytime flag would only split identical entries.  The
        resilience knobs (``deadline``, ``max_memory``, ``degrade``)
        are absent for the same reason — a request that *completes*
        returns the same answer under any budget, and a request that
        does not never reaches the cache.
        """

        return (self.null_is_unknown, self.max_states, self.repair_mode)


class CQAEngine(ABC):
    """One strategy for computing consistent answers.

    Subclasses are stateless singletons; :func:`register_engine` both
    names and instantiates them.  ``answers_report`` receives the owning
    session (whose caches hold every reusable intermediate), the query
    and the merged :class:`CQAConfig`, and returns a fully populated
    :class:`repro.core.cqa.CQAResult`; :meth:`certain` decides whether
    one candidate tuple is a consistent answer, by default through that
    report.
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

    def certain(
        self,
        session: "ConsistentDatabase",
        query: "Query",
        candidate: Tuple,
        config: CQAConfig,
    ) -> bool:
        """Is *candidate* an answer in every repair?  (Definition 8.)

        The default is membership in the session's answer report
        (:meth:`~repro.session.ConsistentDatabase.report_with`, cached
        per generation and computed under the request budget): the
        reference every decision must agree with, and what the
        ``program``, ``independent`` and ``sqlite`` engines, the direct
        engine without ``anytime``, and third-party engines get.  The
        rewriting overrides it to decide the candidate alone on the
        session's instance, and the direct engine's anytime path to
        decide it repair by repair over the stream.

        Args:
            session: the owning session (cache + instance access).
            query: the query under decision.
            candidate: the answer tuple to certify; ``()`` for a
                boolean query.
            config: the merged per-call :class:`CQAConfig`.

        Returns:
            True iff *candidate* is a consistent answer; a candidate of
            the wrong arity never is.
        """

        return candidate in session.report_with(query, config).answers


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

