"""The Fraïssé class of *all* finite databases over a relational schema.

This is the simplest class covered by Theorem 5: it is closed under
embeddings, closed under amalgamation (the free amalgam works), and has the
joint embedding property (disjoint unions).  Its blowup function is the
identity because there are no function symbols.

Emptiness of database-driven systems over this class asks: *is there any
database at all driving an accepting run?* -- the setting of Example 1.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.logic.schema import Schema
from repro.logic.structures import Structure
from repro.relational.theory import RelationalTheory


class AllDatabasesTheory(RelationalTheory):
    """All finite databases over a purely relational schema."""

    SPEC_KIND = "all_databases"

    # Closed under substructures: every register-generated substructure is
    # one of the seeds.
    seeds_cover_keys = True

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema)

    def membership(self, database: Structure) -> bool:
        """Every database over the schema belongs to the class."""
        return database.schema == self.schema

    def describe(self) -> str:
        return f"all finite databases over {self.schema!r}"

    def to_spec(self) -> Dict[str, Any]:
        return {"kind": self.SPEC_KIND, "schema": self.schema.to_spec()}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "AllDatabasesTheory":
        return cls(Schema.from_spec(spec["schema"]))
