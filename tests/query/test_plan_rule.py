"""The join plan is a rule both parties apply, and the client checks it.

:func:`~repro.core.query.join.rule_plan` picks the semi-join for a
conjunction of 3 to ``SEMIJOIN_MAX_TREES`` trees that all carry a Bloom
filter chain (CI*), and the cyclic walk otherwise.  The SP answers every
conjunct under it, and the client recomputes it from the trees it has
opened: an honest answer relabelled with the other plan, sent through
the wire like any answer, is refused with a
:class:`~repro.errors.VerificationError`.  So a query over one state has
one valid plan.  Every check raises on its own, so the file means the
same under ``python -O`` (CI runs it so).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery
from repro.core.query.join import SEMIJOIN_MAX_TREES, conjunctive_join, rule_plan
from repro.errors import VerificationError

#: Keywords ``w0`` .. ``w5``; object ``i`` carries ``w_j`` when ``i`` is
#: not a multiple of ``j + 2``, so every conjunction is non-empty and
#: the trees differ in size.
KEYWORDS = [f"w{j}" for j in range(6)]
DOCS = [
    DataObject(
        oid,
        tuple(kw for j, kw in enumerate(KEYWORDS) if oid % (j + 2)) or ("w0",),
        b"doc %d" % oid,
    )
    for oid in range(1, 61)
]


def check(condition: bool, *context) -> None:
    if not condition:
        raise AssertionError(context)


def expected_plan(scheme: str, k: int) -> str:
    return "semijoin" if scheme == "ci*" and 3 <= k <= SEMIJOIN_MAX_TREES else "cyclic"


@pytest.fixture(scope="module", params=["mi", "smi", "ci", "ci*"])
def system(request):
    system = HybridStorageSystem(
        scheme=request.param, cvc_modulus_bits=512, seed=9, bloom_capacity=4
    )
    system.add_objects_batched(DOCS)
    yield system
    system.close()


def conjunction(k: int) -> KeywordQuery:
    return KeywordQuery.conjunctive(KEYWORDS[:k])


class Bare:
    """A view as the rule sees it: a keyword and maybe a filter chain."""

    def __init__(self, bloom) -> None:
        self.keyword = "w"
        self.bloom = bloom


@pytest.mark.parametrize("k", range(1, 7))
def test_the_rule_reads_the_tree_count_and_the_filters(k):
    filtered = [Bare(object()) for _ in range(k)]
    check(rule_plan(filtered) == expected_plan("ci*", k), k)
    check(rule_plan([Bare(None)] * k) == "cyclic", k)
    check(rule_plan(filtered[:-1] + [Bare(None)]) == "cyclic", k)


@pytest.mark.parametrize("k", range(1, 7))
def test_the_sp_answers_under_the_rule(system, k):
    query = conjunction(k)
    answer = system.process_query(query)
    plan = answer.vo.conjuncts[0].base.plan
    check(plan == expected_plan(system.scheme.value, k), system.scheme, k, plan)
    oracle = [d.object_id for d in DOCS if set(KEYWORDS[:k]) <= d.keyword_set()]
    check(oracle, "the conjunction is empty", k)
    check(system.query(query).result_ids == oracle, system.scheme, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_vo_naming_the_other_plan_is_refused(system, k, monkeypatch):
    honest = system._sp.process_query

    def relabelled(query, held=(), nodes=()):
        answer = honest(query, held, nodes)
        conj = answer.vo.conjuncts[0]
        other = "cyclic" if conj.base.plan == "semijoin" else "semijoin"
        forged = dataclasses.replace(
            conj, base=dataclasses.replace(conj.base, plan=other)
        )
        answer.vo = dataclasses.replace(answer.vo, conjuncts=(forged,))
        return answer

    monkeypatch.setattr(system._sp, "process_query", relabelled)
    for _ in range(2):  # a cold client, then one holding the tables
        with pytest.raises(VerificationError, match="not the rule's"):
            system.query(conjunction(k))


def test_an_explicit_plan_still_finds_the_same_ids(system):
    """The ablations force a plan over the SP's views: both plans find
    what the rule's finds (only the rule's is ever sent)."""
    for k in range(3, 7):
        found = {
            plan: conjunctive_join(
                [system._sp_view(kw) for kw in KEYWORDS[:k]], plan=plan
            )[0]
            for plan in ("cyclic", "semijoin", None)
        }
        check(found["cyclic"] == found["semijoin"] == found[None], k)
