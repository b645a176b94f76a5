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
schemes authenticate monotone queries only.  A keyword in ``"..."`` or
``'...'`` is taken literally, a doubled quote standing for one; ``str``
of a query quotes what needs it, so its text parses back to the query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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


#: Characters that end a bare word, beside whitespace.
_WORD_BREAKS = '()"\''

#: One token per match, after any whitespace: a parenthesis, a quoted
#: keyword with its quotes — it runs to the next lone quote of its kind,
#: a doubled one standing for the character itself — a bare word or
#: operator, or, when no quoted form matches, the one quote that is
#: never closed.  Every other character starts a bare word, so the
#: matches tile the text up to trailing whitespace.
_TOKEN = re.compile(r"""\s*([()]|"(?:[^"]|"")*"|'(?:[^']|'')*'|[^\s()"']+|["'])""")

#: What a bare word spelling an operator is, by its lower-case form.
_OPERATORS = {
    **dict.fromkeys(_AND_TOKENS, "and"),
    **dict.fromkeys(_OR_TOKENS, "or"),
    **dict.fromkeys(_NOT_TOKENS, "not"),
}


def _keyword_text(keyword: str) -> str:
    """``keyword`` as query text that tokenises back to it.

    A keyword that reads as a bare word stays bare; any other — one
    holding whitespace, a parenthesis or a quote, or spelling an
    operator — goes in double quotes, its own ``"`` doubled.
    """
    if (
        not any(ch.isspace() or ch in _WORD_BREAKS for ch in keyword)
        and keyword.lower() not in _OPERATORS
    ):
        return keyword
    return '"' + keyword.replace('"', '""') + '"'


class _Token(NamedTuple):
    kind: str  # 'kw' | 'and' | 'or' | 'lparen' | 'rparen'
    value: str


def _tokenise(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for token in _TOKEN.findall(text):
        head = token[0]
        if head == "(":
            tokens.append(_Token("lparen", head))
        elif head == ")":
            tokens.append(_Token("rparen", head))
        elif head == '"' or head == "'":
            if len(token) == 1:
                offset = next(
                    match.start(1)
                    for match in _TOKEN.finditer(text)
                    if match[1] == head
                )
                raise QueryError(f"unterminated quote starting at offset {offset}")
            tokens.append(_Token("kw", token[1:-1].replace(head * 2, head)))
        else:
            kind = _OPERATORS.get(token.lower(), "kw")
            if kind == "not":
                raise QueryError(
                    "negation is not supported: the ADS schemes authenticate "
                    "monotone keyword queries only"
                )
            tokens.append(_Token(kind, token))
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
        """Query text that parses back to this query."""
        parts = []
        for conj in self.conjunctions:
            part = " AND ".join(_keyword_text(kw) for kw in sorted(conj))
            parts.append(f"({part})" if len(conj) > 1 else part)
        return " OR ".join(parts)
