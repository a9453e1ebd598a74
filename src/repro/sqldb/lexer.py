"""SQL tokeniser: one compiled alternation, matched token after token.

The lexer converts SQL text into a list of :class:`~repro.sqldb.tokens.Token`
objects.  It supports:

* identifiers (including ``"quoted identifiers"`` preserving case),
* string literals with ``''`` escaping,
* integer and decimal number literals,
* line comments (``-- ...``) and block comments (``/* ... */``),
* the operators ``<> != <= >= || = < > + - * / %`` and ``( ) , . ;``,
* ``?`` parameter placeholders.

Each alternative of :data:`_TOKEN` is one token class, tried in order at
each position; those in lower case match the start of a block comment,
string or quoted identifier that never ends.  A quoted token ends at a
quote that no quote follows, so an unterminated one is reported at its
opening quote.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError
from repro.sqldb.tokens import KEYWORDS, Token, TokenKind

_TOKEN = re.compile(
    r"""[ \t\r\n]+|--[^\n]*\n?|/\*.*?\*/
    |(?P<STRING>'(?:[^']|'')*'(?!'))|(?P<IDENT>"(?:[^"]|"")*"(?!"))
    |(?P<NUMBER>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|(?P<WORD>[^\W\d]\w*)
    |(?P<PARAM>\?)|(?P<block>/\*)|(?P<OPERATOR><>|!=|<=|>=|\|\||[=<>+\-*/%])
    |(?P<PUNCT>[(),.;])|(?P<string>')|(?P<identifier>")""",
    re.DOTALL | re.VERBOSE,
)

_KINDS = TokenKind.__members__

#: What an unterminated token of each kind is reported as.
_UNTERMINATED = {
    "string": "unterminated string literal",
    "identifier": "unterminated quoted identifier",
    "block": "unterminated block comment",
}


def tokenize(sql: str) -> List[Token]:
    """Tokenise *sql* and return the token list terminated by an EOF token.

    Raises :class:`LexerError` on unterminated strings/comments or
    unexpected characters.
    """
    tokens: List[Token] = []
    append = tokens.append
    end = 0
    for found in _TOKEN.finditer(sql):
        start = found.start()
        if start != end:
            break  # no alternative matched at *end*
        end = found.end()
        kind = found.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        text = found.group()
        if kind == "WORD":
            upper = text.upper()
            append(Token(TokenKind.KEYWORD, upper, start) if upper in KEYWORDS else Token(TokenKind.IDENT, text, start))
        elif kind == "NUMBER":
            append(Token(TokenKind.NUMBER, float(text) if "." in text or "e" in text or "E" in text else int(text), start))
        elif kind == "STRING":
            append(Token(TokenKind.STRING, text[1:-1].replace("''", "'"), start))
        elif kind == "IDENT":
            if len(text) == 2:
                raise LexerError("empty quoted identifier", start)
            append(Token(TokenKind.IDENT, text[1:-1].replace('""', '"'), start))
        elif kind in _UNTERMINATED:
            raise LexerError(_UNTERMINATED[kind], start)
        else:
            append(Token(_KINDS[kind], text, start))
    if end != len(sql):
        raise LexerError(f"unexpected character {sql[end]!r}", end)
    append(Token(TokenKind.EOF, None, end))
    return tokens
