"""The executable IR: join plans with precomputed atom schedules and slots.

A :class:`JoinPlan` is what the compiler of :mod:`repro.compile.kernel`
lowers a constraint antecedent or a query body to:

* variables are mapped to **slots** of one flat array, once, at compile
  time — matching writes row values into the reusable array instead of
  copying a ``dict`` per candidate row;
* the **atom schedule** (which atom to join next) is chosen at compile
  time from the binding pattern — most statically-bound positions first
  — instead of being re-derived per call with ``bound_score``;
* each scheduled atom becomes an :class:`AtomStep` with **specialised
  checks**: constants and already-bound variables turn into index-probe
  positions (filtered by the relation's hash index, never re-checked per
  row), repeated variables within the atom turn into position-equality
  checks, and first occurrences turn into slot writes;
* relevant-variable null guards (the first condition of ``|=_N``) are
  pushed down to the step that first binds the variable, so a doomed
  partial match is abandoned as early as possible.

A plan is data: :mod:`repro.compile.codegen` turns each one into its
executor.  Plans execute against anything that speaks the relation
protocol of :class:`repro.relational.instance.DatabaseInstance` —
``tuples_matching(predicate, bound)`` — which is how the ASP grounder
joins through the same kernel over its ground-atom sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

from repro.relational.domain import Constant
from repro.constraints.terms import Variable


Row = Tuple[Constant, ...]


class Relations:
    """Structural protocol a plan executes against (duck-typed).

    ``DatabaseInstance`` satisfies it natively;
    :class:`repro.compile.kernel.GroundAtomRelations` adapts the ASP
    grounder's ground-atom sets to it.
    """

    def tuples_matching(self, predicate: str, bound: Mapping[int, Constant]) -> Iterable[Row]:
        raise NotImplementedError


@dataclass(frozen=True)
class AtomStep:
    """One scheduled body atom, with its matching logic specialised.

    ``const`` and ``bound`` describe the positions whose value is known
    before the step runs (constants, and variables bound by earlier
    steps or the plan's binding pattern): they form the probe map handed
    to the relation index and are **not** re-checked per row.  ``eq``
    holds within-atom repeated-variable checks (position, first
    position); ``check`` the (position, slot) pairs compared per row
    with a slot the caller wrote before execution — a pre-bound value
    filtered in the row loop instead of probed, so the step reads no
    index; ``writes`` the (position, slot) pairs first binding a
    variable here; ``guard`` the written slots that reject ``null``
    (relevant-attribute pushdown — empty for query plans).
    """

    atom_index: int  #: position in the original body (keys ``rows[...]``)
    predicate: str
    arity: int
    const: Tuple[Tuple[int, Constant], ...]
    bound: Tuple[Tuple[int, int], ...]  #: (position, slot)
    eq: Tuple[Tuple[int, int], ...]  #: (position, earlier position)
    writes: Tuple[Tuple[int, int], ...]  #: (position, slot)
    guard: Tuple[int, ...]  #: slots written here that must not be null
    check: Tuple[Tuple[int, int], ...] = ()  #: (position, pre-written slot)


@dataclass(frozen=True)
class SeedMatcher:
    """Match one pinned body atom against a given seed row (delta plans).

    Mirrors :class:`AtomStep` but runs against a single row instead of a
    relation probe: every position is checked (nothing was pre-filtered
    by an index).
    """

    atom_index: int
    arity: int
    const: Tuple[Tuple[int, Constant], ...]
    eq: Tuple[Tuple[int, int], ...]
    writes: Tuple[Tuple[int, int], ...]
    guard: Tuple[int, ...]


@dataclass(frozen=True)
class JoinPlan:
    """A compiled join: scheduled steps over a fixed variable-slot layout.

    ``initial`` lists the (variable, slot) pairs the binding pattern
    pre-binds (written by the caller before execution);
    ``initial_guard`` the pre-bound slots that must reject ``null``;
    ``seed`` the pinned-atom matcher of a delta plan (``None`` for full
    plans).
    """

    steps: Tuple[AtomStep, ...]
    n_slots: int
    n_atoms: int
    var_slots: Tuple[Tuple[Variable, int], ...]  #: full layout, first-occurrence order
    initial: Tuple[Tuple[Variable, int], ...] = ()
    initial_guard: Tuple[int, ...] = ()
    seed: Optional[SeedMatcher] = None
