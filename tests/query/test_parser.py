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
