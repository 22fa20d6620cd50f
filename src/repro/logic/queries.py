"""Queries: conjunctive queries with negation/comparisons and generic FO queries.

Consistent query answering (Definition 8) evaluates a fixed query in every
repair and keeps the answers common to all of them.  The repair sets can
be sizeable, so the per-repair evaluation must be cheap; conjunctive
queries therefore get a dedicated join-based evaluator — the query's
compiled plan (:mod:`repro.compile.kernel`), pinned to the nested-loop
join behind ``naive=True`` — while arbitrary first-order queries fall
back to the generic active-domain evaluator of
:mod:`repro.logic.evaluation`.

Following Section 4 of the paper, the query-answering semantics ``|=^q_N``
is kept orthogonal to the IC-satisfaction semantics: by default ``null``
is treated as an ordinary constant (so a query can retrieve tuples
containing nulls), and ``null_is_unknown=True`` switches built-in
comparisons to the SQL behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance
from repro.compile.matchers import extend_match
from repro.constraints.atoms import Atom, BuiltinEvaluationError, Comparison
from repro.constraints.terms import Variable, is_variable
from repro.logic.evaluation import EvaluationError, query_answers
from repro.logic.formula import Formula


AnswerSet = FrozenSet[Tuple[Constant, ...]]


class Query:
    """Common protocol of all query classes.

    Concrete subclasses provide ``head_variables`` (a tuple of output
    variables, empty for a boolean query), ``name`` and ``answers``.
    """

    name: str = "ans"
    head_variables: Tuple[Variable, ...]

    @property
    def is_boolean(self) -> bool:
        """True iff the query has no output variables."""

        return not self.head_variables

    def answers(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool = False,
        candidate: Optional[Sequence[Constant]] = None,
    ) -> AnswerSet:
        """The set of answer tuples in *instance*.

        With *candidate*, only that tuple is decided: the result is
        ``{tuple(candidate)}`` if it is an answer, else ``∅``.
        """

        raise NotImplementedError

    def holds(self, instance: DatabaseInstance, null_is_unknown: bool = False) -> bool:
        """For a boolean query: True iff the query is satisfied in *instance*."""

        if not self.is_boolean:
            raise EvaluationError("holds() is only defined for boolean queries")
        return bool(self.answers(instance, null_is_unknown=null_is_unknown))


@dataclass(frozen=True)
class ConjunctiveQuery(Query):
    """``ans(x̄) ← P_1(…), …, not N_1(…), …, comparisons``.

    Safety requirements: every head variable and every variable used in a
    negated atom or a comparison must occur in some positive atom.
    """

    head_variables: Tuple[Variable, ...] = ()
    positive_atoms: Tuple[Atom, ...] = ()
    negative_atoms: Tuple[Atom, ...] = ()
    comparisons: Tuple[Comparison, ...] = ()
    name: str = "ans"

    def __post_init__(self) -> None:
        if not self.positive_atoms:
            raise EvaluationError("a conjunctive query needs at least one positive atom")
        positive_vars: Set[Variable] = set()
        for atom in self.positive_atoms:
            positive_vars |= atom.variables()
        unsafe: Set[Variable] = set(self.head_variables) - positive_vars
        for atom in self.negative_atoms:
            unsafe |= atom.variables() - positive_vars
        for comparison in self.comparisons:
            unsafe |= comparison.variables() - positive_vars
        if unsafe:
            raise EvaluationError(
                "unsafe query: variables "
                f"{sorted(v.name for v in unsafe)} do not occur in a positive atom"
            )

    # ------------------------------------------------------------------ helpers
    def variables(self) -> FrozenSet[Variable]:
        """All variables of the query."""

        result: Set[Variable] = set(self.head_variables)
        for atom in self.positive_atoms + self.negative_atoms:
            result |= atom.variables()
        for comparison in self.comparisons:
            result |= comparison.variables()
        return frozenset(result)

    def predicates(self) -> FrozenSet[str]:
        """Database predicates used by the query."""

        return frozenset(a.predicate for a in self.positive_atoms + self.negative_atoms)

    # ------------------------------------------------------------------ evaluation
    def answers(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool = False,
        naive: bool = False,
        candidate: Optional[Sequence[Constant]] = None,
    ) -> AnswerSet:
        """Join-based evaluation of the query over *instance*.

        The default executes the query's **compiled plan**
        (:func:`repro.compile.kernel.compiled_query`): the atom schedule,
        the variable→slot layout and the specialised per-atom matchers
        are fixed once per process, and each call runs the plan's
        generated executor over the instance's hash indexes with no
        per-row dictionary copies.  ``naive=True`` keeps the original
        smallest-relation-first nested-loop join, the reference the
        compiled plan is pinned to.  Both produce identical answer sets.

        With *candidate* the compiled plan decides that one tuple in an
        early-exit run with the head variables bound to its values; the
        reference filters its full answer set.  Both return
        ``{tuple(candidate)}`` or ``∅``.
        """

        if not naive:
            from repro.compile.kernel import compiled_query

            return compiled_query(self).answers(
                instance, null_is_unknown, candidate=candidate
            )

        # Order positive atoms by the number of tuples (cheap greedy join order).
        ordered = sorted(
            self.positive_atoms, key=lambda atom: len(instance.tuples(atom.predicate))
        )
        bindings: List[Dict[Variable, Constant]] = [{}]
        for atom in ordered:
            rows = instance.tuples(atom.predicate)
            new_bindings: List[Dict[Variable, Constant]] = []
            for binding in bindings:
                for row in rows:
                    extended = _match(atom, row, binding)
                    if extended is not None:
                        new_bindings.append(extended)
            bindings = new_bindings
            if not bindings:
                return frozenset()

        results: Set[Tuple[Constant, ...]] = set()
        for binding in bindings:
            if not _comparisons_hold(self.comparisons, binding, null_is_unknown):
                continue
            if any(_negated_atom_holds(instance, atom, binding) for atom in self.negative_atoms):
                continue
            results.add(tuple(binding[v] for v in self.head_variables))
        return _decided(frozenset(results), candidate)

    def __repr__(self) -> str:
        head = f"{self.name}({', '.join(v.name for v in self.head_variables)})"
        parts = [repr(a) for a in self.positive_atoms]
        parts += [f"not {a!r}" for a in self.negative_atoms]
        parts += [repr(c) for c in self.comparisons]
        return f"{head} <- {', '.join(parts)}"


@dataclass(frozen=True)
class FirstOrderQuery(Query):
    """An arbitrary first-order query given by a formula and a head-variable list."""

    head_variables: Tuple[Variable, ...]
    formula: Formula
    name: str = "ans"

    def answers(
        self,
        instance: DatabaseInstance,
        null_is_unknown: bool = False,
        candidate: Optional[Sequence[Constant]] = None,
    ) -> AnswerSet:
        """Evaluate via the generic active-domain evaluator.

        A *candidate* is decided by membership in the full answer set.
        """

        answers = query_answers(
            instance,
            self.head_variables,
            self.formula,
            null_is_unknown=null_is_unknown,
        )
        return _decided(answers, candidate)

    def __repr__(self) -> str:
        head = f"{self.name}({', '.join(v.name for v in self.head_variables)})"
        return f"{head} <- {self.formula!r}"


# ---------------------------------------------------------------------- helpers
def _decided(answers: AnswerSet, candidate: Optional[Sequence[Constant]]) -> AnswerSet:
    """*answers*, or with a *candidate* the decision ``{candidate}`` / ``∅``."""

    if candidate is None:
        return answers
    answer = tuple(candidate)
    return frozenset((answer,)) if answer in answers else frozenset()


#: Extend a binding so an atom matches a row — the one matching routine
#: shared with constraint checking (see :mod:`repro.compile.matchers`).
_match = extend_match


def _comparisons_hold(
    comparisons: Sequence[Comparison],
    binding: Mapping[Variable, Constant],
    null_is_unknown: bool,
) -> bool:
    for comparison in comparisons:
        try:
            if not comparison.evaluate(binding, null_is_unknown=null_is_unknown):
                return False
        except BuiltinEvaluationError:
            ground = comparison.substitute(binding)
            if is_null(ground.left) or is_null(ground.right):
                return False
            raise
    return True


def _negated_atom_holds(
    instance: DatabaseInstance, atom: Atom, binding: Mapping[Variable, Constant]
) -> bool:
    values: List[Constant] = []
    for term in atom.terms:
        if is_variable(term):
            values.append(binding[term])
        else:
            values.append(term)
    return instance.contains_tuple(atom.predicate, values)
