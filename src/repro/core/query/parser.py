"""Boolean keyword-query parsing and DNF normalisation.

The paper's query input is a monotone Boolean expression over keywords,
assumed to be in disjunctive normal form:
``Q = q_1 v q_2 v ... v q_n`` with each ``q_i = w_1 ^ w_2 ^ ... ^ w_l``.
This module accepts arbitrary monotone expressions (with parentheses)
and normalises them to DNF, so callers can write queries naturally:

>>> KeywordQuery.parse('("COVID-19" AND Vaccine) OR ("SARS-CoV-2" AND Vaccine)')
KeywordQuery(conjunctions=[{'covid-19', 'vaccine'}, {'sars-cov-2', 'vaccine'}])

Operators: ``AND``/``&&``/``&``/``∧`` and ``OR``/``||``/``|``/``∨``
(case-insensitive for the word forms).  Negation is rejected — the ADS
schemes authenticate monotone queries only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objects import normalise_keyword
from repro.errors import QueryError, QueryLimitError

_AND_TOKENS = {"and", "&&", "&", "∧"}
_OR_TOKENS = {"or", "||", "|", "∨"}
_NOT_TOKENS = {"not", "!", "¬"}

#: Deepest parenthesis nesting accepted.  The parser recurses once per
#: level, so without a bound a request of a few kilobytes of ``(`` ends
#: in the interpreter's RecursionError instead of a QueryError.
MAX_NESTING = 64

#: Most conjunctions a query's DNF may have, at any point of its
#: normalisation.  AND distributes over OR, so ``(a1 OR b1) AND ... AND
#: (an OR bn)`` — 15 bytes a clause — has ``2**n`` conjunctions: without
#: a bound a request of 213 bytes keeps the parser busy for seconds and
#: one of 250 for hours.  Every conjunction is also one join at the SP
#: and one byte-sized count in the VO frame (240 and up are its version
#: markers).
MAX_CONJUNCTIONS = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # 'kw' | 'and' | 'or' | 'lparen' | 'rparen'
    value: str


def _tokenise(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch))
            i += 1
            continue
        if ch == '"' or ch == "'":
            end = text.find(ch, i + 1)
            if end == -1:
                raise QueryError(f"unterminated quote starting at offset {i}")
            tokens.append(_Token("kw", text[i + 1 : end]))
            i = end + 1
            continue
        # Bare word or symbolic operator.
        j = i
        while j < n and not text[j].isspace() and text[j] not in '()"\'':
            j += 1
        word = text[i:j]
        lowered = word.lower()
        if lowered in _AND_TOKENS:
            tokens.append(_Token("and", word))
        elif lowered in _OR_TOKENS:
            tokens.append(_Token("or", word))
        elif lowered in _NOT_TOKENS:
            raise QueryError(
                "negation is not supported: the ADS schemes authenticate "
                "monotone keyword queries only"
            )
        else:
            tokens.append(_Token("kw", word))
        i = j
    return tokens


class _Parser:
    """Recursive-descent parser for ``or_expr := and_expr (OR and_expr)*``."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def parse(self) -> list[frozenset[str]]:
        """Parse from the external representation."""
        dnf = self._or_expr()
        if self._pos != len(self._tokens):
            raise QueryError(
                f"unexpected token {self._tokens[self._pos].value!r}"
            )
        return dnf

    def _peek(self) -> _Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._pos += 1
        return token

    # Each production returns the expression already in DNF: a list of
    # conjunctions, each a frozenset of keywords.

    def _or_expr(self) -> list[frozenset[str]]:
        result = self._and_expr()
        while (tok := self._peek()) is not None and tok.kind == "or":
            self._advance()
            result = result + self._and_expr()
            _bounded(len(result))
        return result

    def _and_expr(self) -> list[frozenset[str]]:
        result = self._atom()
        while (tok := self._peek()) is not None and tok.kind in ("and", "kw", "lparen"):
            if tok.kind == "and":
                self._advance()
            # Adjacent atoms without an operator read as implicit AND.
            result = _distribute(result, self._atom())
        return result

    def _atom(self) -> list[frozenset[str]]:
        token = self._advance()
        if token.kind == "kw":
            return [frozenset({normalise_keyword(token.value)})]
        if token.kind == "lparen":
            self._depth += 1
            if self._depth > MAX_NESTING:
                raise QueryLimitError(
                    f"query nests deeper than {MAX_NESTING} parentheses"
                )
            inner = self._or_expr()
            self._depth -= 1
            closing = self._advance()
            if closing.kind != "rparen":
                raise QueryError("missing closing parenthesis")
            return inner
        raise QueryError(f"unexpected token {token.value!r}")


def _bounded(size: int) -> None:
    if size > MAX_CONJUNCTIONS:
        raise QueryLimitError(
            f"query has more than {MAX_CONJUNCTIONS} conjunctions in "
            "disjunctive normal form"
        )


def _distribute(
    left: list[frozenset[str]], right: list[frozenset[str]]
) -> list[frozenset[str]]:
    """AND of two DNF expressions: cross-product of conjunctions.

    Refused before it is built when it would exceed
    :data:`MAX_CONJUNCTIONS`.
    """
    _bounded(len(left) * len(right))
    return [l | r for l in left for r in right]


def _absorb(conjunctions: list[frozenset[str]]) -> list[frozenset[str]]:
    """Remove duplicate and absorbed conjunctions (a ⊆ b makes b redundant)."""
    unique = list(dict.fromkeys(conjunctions))
    kept: list[frozenset[str]] = []
    for conj in sorted(unique, key=len):
        if not any(existing <= conj for existing in kept):
            kept.append(conj)
    return kept


@dataclass(frozen=True)
class KeywordQuery:
    """A keyword query in disjunctive normal form.

    ``conjunctions`` is a list of keyword sets; an object matches the
    query when it carries every keyword of at least one conjunction.
    """

    conjunctions: tuple[frozenset[str], ...]

    @classmethod
    def parse(cls, text: str) -> "KeywordQuery":
        """Parse an arbitrary monotone Boolean expression into DNF."""
        tokens = _tokenise(text)
        if not tokens:
            raise QueryError("empty query")
        dnf = _Parser(tokens).parse()
        return cls(conjunctions=tuple(_absorb(dnf)))

    @classmethod
    def conjunctive(cls, keywords: list[str]) -> "KeywordQuery":
        """Convenience constructor for a single conjunction."""
        if not keywords:
            raise QueryError("a conjunctive query needs at least one keyword")
        return cls(
            conjunctions=(frozenset(normalise_keyword(w) for w in keywords),)
        )

    def all_keywords(self) -> frozenset[str]:
        """Every keyword mentioned by the query."""
        out: set[str] = set()
        for conj in self.conjunctions:
            out |= conj
        return frozenset(out)

    def matches(self, keywords: frozenset[str]) -> bool:
        """Evaluate the query against an object's keyword set."""
        return any(conj <= keywords for conj in self.conjunctions)

    def __str__(self) -> str:
        parts = [
            " AND ".join(sorted(conj)) if len(conj) > 1 else next(iter(conj))
            for conj in self.conjunctions
        ]
        return " OR ".join(f"({p})" if " AND " in p else p for p in parts)
