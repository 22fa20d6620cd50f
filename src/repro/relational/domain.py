"""The database domain ``U`` and its distinguished ``null`` constant.

The paper fixes a relational schema ``Σ = (U, R, B)`` whose domain ``U``
contains a single, unlabelled null constant (``null ∈ U``).  Commercial
DBMSs treat ``NULL`` specially: it compares as *unknown* to every value,
including itself, and the unique-names assumption does not apply to it.  The
paper's semantics, however, frequently needs to treat ``null`` *as an
ordinary constant* (e.g. when evaluating the rewritten constraint ``ψ_N``
over the projected instance ``D^A``), and introduces the ``IsNull``
predicate to test for it explicitly.

We therefore model ``null`` as a singleton sentinel object :data:`NULL`
that is hashable and equal only to itself, so that it can participate in
sets, joins and dictionaries exactly like any other constant, while code
that needs SQL's three-valued behaviour checks :func:`is_null` explicitly.
"""

from __future__ import annotations

from typing import Any, Tuple, Union


class Null:
    """Singleton marker for the SQL ``NULL`` constant.

    Only one instance, :data:`NULL`, should ever exist.  The class is kept
    public so that type annotations can refer to it, but user code should
    always use the :data:`NULL` singleton and :func:`is_null`.
    """

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __str__(self) -> str:
        return "null"

    def __hash__(self) -> int:
        return hash("__repro_null__")

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Null)

    def __lt__(self, other: Any) -> bool:
        # Nulls sort before every other constant; this gives deterministic
        # orderings for reporting and never influences semantics.
        return not isinstance(other, Null)

    def __gt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return isinstance(other, Null)

    def __reduce__(self) -> "Tuple[type, Tuple[()]]":
        # Preserve the singleton across pickling (used by hypothesis shrinking).
        return (Null, ())


#: The single null constant of the domain ``U``.
NULL = Null()

#: Type alias for values that may appear in a database tuple.
Constant = Union[str, int, float, bool, Null]


def is_null(value: Any) -> bool:
    """Return ``True`` iff *value* is the distinguished ``null`` constant.

    ``None`` is also accepted as a null for convenience when ingesting data
    from Python structures or DB-API rows, where ``None`` is the customary
    representation of SQL ``NULL``.
    """

    return value is None or isinstance(value, Null)


def normalise_constant(value: Any) -> Constant:
    """Map external representations of null (``None``) onto :data:`NULL`.

    All other values are returned unchanged.  Instances built through
    :class:`repro.relational.instance.DatabaseInstance` run every value
    through this function so that the rest of the library only ever sees
    :data:`NULL`.
    """

    if value is None:
        return NULL
    return value


def constant_sort_key(value: Constant) -> Tuple[int, str, str]:
    """A total order over heterogeneous constants used for reporting.

    Python 3 refuses to compare values of different types (``2 < "a"``
    raises), yet repairs and answers routinely mix strings, integers and
    ``null``.  Sorting by ``(type rank, type name, repr)`` gives a stable,
    deterministic order for display and golden tests without imposing any
    semantic meaning.
    """

    if is_null(value):
        rank = 0
    elif isinstance(value, bool):
        rank = 1
    elif isinstance(value, (int, float)):
        rank = 2
    else:
        rank = 3
    return (rank, type(value).__name__, repr(value))


def format_constant(value: Constant) -> str:
    """Render a constant the way the paper prints it (``null`` unquoted)."""

    if is_null(value):
        return "null"
    if isinstance(value, str):
        return value
    return repr(value)

