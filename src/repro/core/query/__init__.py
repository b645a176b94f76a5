"""Query processing: DNF parsing, authenticated joins, VOs, verification."""

from repro.core.query.join import (
    IndexView,
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
    FullScanVO,
    JoinRound,
    MultiWayJoinVO,
    ProvenEntry,
    QueryAnswer,
    QueryVO,
    ReplayVO,
    SemiJoinProbe,
    SemiJoinStage,
)

__all__ = [
    "ConjunctiveVO",
    "FullScanVO",
    "IndexView",
    "JoinRound",
    "KeyView",
    "KeywordQuery",
    "MultiWayJoinVO",
    "ProofSystem",
    "ProvenEntry",
    "QueryAnswer",
    "QueryVO",
    "ReplayVO",
    "SemiJoinProbe",
    "SemiJoinStage",
    "VerifiedResults",
    "conjunctive_join",
    "join_two",
    "multiway_join",
    "semi_join",
    "verify_conjunct",
    "verify_query",
]
