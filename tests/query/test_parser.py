"""Unit tests for the DNF query parser."""

import pytest

from repro.core.query.parser import KeywordQuery
from repro.errors import QueryError


def conj_sets(query):
    return {frozenset(c) for c in query.conjunctions}


class TestParsing:
    def test_single_keyword(self):
        q = KeywordQuery.parse("covid-19")
        assert conj_sets(q) == {frozenset({"covid-19"})}

    def test_conjunction(self):
        q = KeywordQuery.parse("a AND b AND c")
        assert conj_sets(q) == {frozenset({"a", "b", "c"})}

    def test_disjunction(self):
        q = KeywordQuery.parse("a OR b")
        assert conj_sets(q) == {frozenset({"a"}), frozenset({"b"})}

    def test_paper_example(self):
        q = KeywordQuery.parse(
            '("COVID-19" AND "Vaccine") OR ("SARS-CoV-2" AND "Vaccine")'
        )
        assert conj_sets(q) == {
            frozenset({"covid-19", "vaccine"}),
            frozenset({"sars-cov-2", "vaccine"}),
        }

    def test_distribution_over_or(self):
        q = KeywordQuery.parse("a AND (b OR c)")
        assert conj_sets(q) == {frozenset({"a", "b"}), frozenset({"a", "c"})}

    def test_nested_parentheses(self):
        q = KeywordQuery.parse("((a OR b) AND (c OR d))")
        assert conj_sets(q) == {
            frozenset({"a", "c"}),
            frozenset({"a", "d"}),
            frozenset({"b", "c"}),
            frozenset({"b", "d"}),
        }

    def test_symbolic_operators(self):
        q = KeywordQuery.parse("a && b || c & d")
        assert conj_sets(q) == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_implicit_and(self):
        q = KeywordQuery.parse("a b")
        assert conj_sets(q) == {frozenset({"a", "b"})}

    def test_quoted_keywords_preserve_spaces(self):
        q = KeywordQuery.parse('"machine learning" AND blockchain')
        assert conj_sets(q) == {frozenset({"machine learning", "blockchain"})}

    def test_case_insensitive_operators_and_keywords(self):
        q = KeywordQuery.parse("Alpha AND beta")
        assert conj_sets(q) == {frozenset({"alpha", "beta"})}


class TestAbsorption:
    def test_duplicate_conjunctions_removed(self):
        q = KeywordQuery.parse("(a AND b) OR (b AND a)")
        assert len(q.conjunctions) == 1

    def test_superset_absorbed(self):
        q = KeywordQuery.parse("a OR (a AND b)")
        assert conj_sets(q) == {frozenset({"a"})}


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("")

    def test_negation_rejected(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("a AND NOT b")

    def test_unbalanced_parens(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("(a AND b")

    def test_stray_close_paren(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("a)")

    def test_dangling_operator(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse("a AND")

    def test_unterminated_quote(self):
        with pytest.raises(QueryError):
            KeywordQuery.parse('"abc')

    def test_conjunctive_requires_keywords(self):
        with pytest.raises(QueryError):
            KeywordQuery.conjunctive([])

    def test_nesting_is_bounded_not_a_recursion_error(self):
        deep = "(" * 64 + "a" + ")" * 64
        assert KeywordQuery.parse(deep).conjunctions == (frozenset({"a"}),)
        with pytest.raises(QueryError, match="nests deeper"):
            KeywordQuery.parse("(" + deep + ")")
        with pytest.raises(QueryError):
            KeywordQuery.parse("(" * 30000)


class TestEvaluation:
    def test_matches(self):
        q = KeywordQuery.parse("(a AND b) OR c")
        assert q.matches(frozenset({"a", "b", "x"}))
        assert q.matches(frozenset({"c"}))
        assert not q.matches(frozenset({"a", "x"}))

    def test_all_keywords(self):
        q = KeywordQuery.parse("(a AND b) OR c")
        assert q.all_keywords() == frozenset({"a", "b", "c"})

    def test_str_rendering(self):
        q = KeywordQuery.parse("(a AND b) OR c")
        assert "AND" in str(q) and "OR" in str(q)

    def test_conjunctive_constructor(self):
        q = KeywordQuery.conjunctive(["X", "y"])
        assert conj_sets(q) == {frozenset({"x", "y"})}


class TestDNFWidthIsBounded:
    """AND distributes over OR: the normal form of a 15-byte-per-clause
    query doubles with every clause (16 384 conjunctions and 9.5 s for
    the 213-byte request below, before the bound)."""

    @staticmethod
    def clauses(count):
        return " AND ".join(f"(a{i} OR b{i})" for i in range(count))

    def test_the_213_byte_request_is_refused_at_once(self):
        import time

        from repro.errors import QueryLimitError

        text = self.clauses(14)
        assert len(text) == 213
        begun = time.perf_counter()
        with pytest.raises(QueryLimitError, match="conjunctions"):
            KeywordQuery.parse(text)
        assert time.perf_counter() - begun < 0.1
        # Longer ones are refused at the same clause, not later.
        begun = time.perf_counter()
        with pytest.raises(QueryError):
            KeywordQuery.parse(self.clauses(4000))
        assert time.perf_counter() - begun < 1.0

    def test_the_largest_admitted_queries_still_parse(self):
        from repro.core.query.parser import MAX_CONJUNCTIONS

        assert MAX_CONJUNCTIONS == 64 < 0xF0  # the VO frame's version markers
        wide = KeywordQuery.parse(self.clauses(6))
        assert len(wide.conjunctions) == 64
        assert all(len(conj) == 6 for conj in wide.conjunctions)
        with pytest.raises(QueryError):
            KeywordQuery.parse(self.clauses(7))
        flat = " OR ".join(f"w{i}" for i in range(64))
        assert len(KeywordQuery.parse(flat).conjunctions) == 64
        with pytest.raises(QueryError):
            KeywordQuery.parse(flat + " OR w64")
        # The bound is on the width, not on the length of the query.
        long_and = " AND ".join(f"w{i}" for i in range(500))
        assert len(KeywordQuery.parse(long_and).conjunctions) == 1

    def test_the_server_answers_bad_request_before_touching_the_index(self):
        from repro import HybridStorageSystem
        from repro.sp.protocol import (
            ERR_BAD_REQUEST,
            QueryRequest,
            QueryResponse,
            RemoteClient,
            StorageProviderServer,
        )

        system = HybridStorageSystem(scheme="smi", seed=3)
        server = StorageProviderServer(system)
        for text in (self.clauses(14), "(" * 65 + "a" + ")" * 65):
            response = QueryResponse.decode(
                server.handle(QueryRequest(query_text=text).encode())
            )
            assert response.error_code == ERR_BAD_REQUEST
            # The client refuses it before it sends anything.
            sent = []
            client = RemoteClient(lambda raw: sent.append(raw) or b"", system)
            with pytest.raises(QueryError):
                client.query(text)
            assert not sent
