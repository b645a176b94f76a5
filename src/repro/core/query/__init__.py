"""Query processing: DNF parsing, authenticated joins, VOs, verification."""

from repro.core.query.join import (
    KeyView,
    conjunctive_join,
    join_two,
    multiway_join,
    semi_join,
)
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import (
    ProofSystem,
    VerifiedResults,
    verify_conjunct,
    verify_query,
)
from repro.core.query.vo import (
    ConjunctiveVO,
    ProvenEntry,
    QueryAnswer,
    QueryVO,
    ReplayVO,
)

__all__ = [
    "ConjunctiveVO",
    "KeyView",
    "KeywordQuery",
    "ProofSystem",
    "ProvenEntry",
    "QueryAnswer",
    "QueryVO",
    "ReplayVO",
    "VerifiedResults",
    "conjunctive_join",
    "join_two",
    "multiway_join",
    "semi_join",
    "verify_conjunct",
    "verify_query",
]
