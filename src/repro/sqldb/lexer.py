"""Hand-written SQL tokeniser.

The lexer converts SQL text into a list of :class:`~repro.sqldb.tokens.Token`
objects.  It supports:

* identifiers (including ``"quoted identifiers"`` preserving case),
* string literals with ``''`` escaping,
* integer and decimal number literals,
* line comments (``-- ...``) and block comments (``/* ... */``),
* the operators and punctuation listed in :mod:`repro.sqldb.tokens`,
* ``?`` parameter placeholders.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexerError
from repro.sqldb.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind


def tokenize(sql: str) -> List[Token]:
    """Tokenise *sql* and return the token list terminated by an EOF token.

    Raises :class:`LexerError` on unterminated strings/comments or
    unexpected characters.
    """
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue
        start = i
        if ch == "'":
            literal, i = _read_string(sql, i)
            tokens.append(Token(TokenKind.STRING, literal, start))
            continue
        if ch == '"':
            ident, i = _read_quoted_identifier(sql, i)
            tokens.append(Token(TokenKind.IDENT, ident, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append(Token(TokenKind.NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_":
            word, i = _read_word(sql, i)
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenKind.IDENT, word, start))
            continue
        if ch == "?":
            tokens.append(Token(TokenKind.PARAM, "?", i))
            i += 1
            continue
        operator = _match_operator(sql, i)
        if operator is not None:
            tokens.append(Token(TokenKind.OPERATOR, operator, i))
            i += len(operator)
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenKind.PUNCT, ch, i))
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenKind.EOF, None, n))
    return tokens


def _read_string(sql: str, start: int) -> tuple:
    """Read a ``'...'`` literal starting at *start*; return (text, next_i)."""
    i = start + 1
    parts: List[str] = []
    while i < len(sql):
        ch = sql[i]
        if ch == "'":
            if sql.startswith("''", i):
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexerError("unterminated string literal", start)


def _read_quoted_identifier(sql: str, start: int) -> tuple:
    """Read a ``"..."`` identifier starting at *start*; return (name, next_i)."""
    i = start + 1
    parts: List[str] = []
    while i < len(sql):
        ch = sql[i]
        if ch == '"':
            if sql.startswith('""', i):
                parts.append('"')
                i += 2
                continue
            if not parts:
                raise LexerError("empty quoted identifier", start)
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexerError("unterminated quoted identifier", start)


def _read_number(sql: str, start: int):
    """Read a numeric literal; return (int-or-float, next_i)."""
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            # Only treat as exponent if followed by digits or a signed digit.
            j = i + 1
            if j < n and sql[j] in "+-":
                j += 1
            if j < n and sql[j].isdigit():
                seen_exp = True
                i = j + 1
            else:
                break
        else:
            break
    text = sql[start:i]
    if seen_dot or seen_exp:
        return float(text), i
    return int(text), i


def _read_word(sql: str, start: int):
    """Read an identifier/keyword word; return (text, next_i)."""
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    return sql[start:i], i


def _match_operator(sql: str, i: int):
    """Return the longest operator starting at *i*, or None."""
    for operator in OPERATORS:
        if sql.startswith(operator, i):
            return operator
    return None
