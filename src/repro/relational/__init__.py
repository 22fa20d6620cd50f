"""Relational substrate: domains with nulls, schemas and instances.

This package provides the minimal relational-database machinery the paper
assumes as given: a possibly infinite domain ``U`` that contains a
distinguished ``null`` constant, relation schemas with named, ordered
attributes, and database instances as finite sets of ground atoms.
"""

from repro.relational.domain import NULL, Null, is_null, constant_sort_key
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.instance import DatabaseInstance, Fact

__all__ = [
    "NULL",
    "Null",
    "is_null",
    "constant_sort_key",
    "RelationSchema",
    "DatabaseSchema",
    "DatabaseInstance",
    "Fact",
]
