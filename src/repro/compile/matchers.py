"""The one atom-matching routine shared by every evaluator.

Constraint checking (:mod:`repro.core.satisfaction`), conjunctive-query
answering (:mod:`repro.logic.queries`), the rewriting residues
(:mod:`repro.rewriting.residues`) and the ASP grounder's reference path
(:mod:`repro.asp.grounding`) all need the same primitive: extend a
variable assignment so that an atom matches a concrete row, failing on a
constant mismatch or an inconsistent repeated variable.  Those modules
used to carry private copies of the routine; they now share this one, so
the null/constant/repeated-variable semantics can never drift between
the layers:

* ``null`` is an **ordinary constant** — it matches a ``null`` term and
  joins with itself across occurrences of a variable, exactly as in the
  evaluation of ``ψ_N`` over ``D^A`` (Example 12);
* a constant term matches only a literally equal value;
* a repeated variable must take the same value at every occurrence,
  whether the repetition is within one atom or across atoms.

The compiled kernel of :mod:`repro.compile.kernel` specialises the same
semantics at compile time (constants, repeated variables and slot
assignments are resolved once per constraint/query instead of per row);
the property suite pins the two against each other on every scenario.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.relational.domain import Constant
from repro.constraints.atoms import Atom
from repro.constraints.terms import Variable, is_variable


Assignment = Dict[Variable, Constant]


def extend_match(
    atom: Atom, row: Tuple[Constant, ...], assignment: Mapping[Variable, Constant]
) -> Optional[Assignment]:
    """Extend *assignment* so that *atom* matches *row*; ``None`` if impossible.

    The input mapping is never mutated; a successful match returns a new
    dictionary containing the old bindings plus the variables first bound
    by this atom.

    >>> from repro.constraints.terms import Variable
    >>> x, y = Variable("x"), Variable("y")
    >>> extend_match(Atom("P", (x, y)), ("a", "b"), {})
    {Variable(name='x'): 'a', Variable(name='y'): 'b'}
    >>> extend_match(Atom("P", (x, x)), ("a", "b"), {}) is None
    True
    >>> extend_match(Atom("P", (x, "c")), ("a", "b"), {}) is None
    True
    """

    if len(row) != atom.arity:
        return None
    extended = dict(assignment)
    for term, value in zip(atom.terms, row):
        if is_variable(term):
            if term in extended:
                if extended[term] != value:
                    return None
            else:
                extended[term] = value
        elif term != value:
            return None
    return extended


def match_atom(atom: Atom, row: Tuple[Constant, ...]) -> Optional[Assignment]:
    """Match *atom* against *row* starting from the empty assignment."""

    return extend_match(atom, row, {})
