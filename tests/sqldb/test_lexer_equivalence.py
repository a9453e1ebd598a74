"""The master-regex lexer gives the tokens the per-character lexer gave.

``reference_tokenize`` is the lexer the engine had before its tokens
came from one compiled alternation: a loop over the characters.  Both
must give the same ``(kind, value, position)`` list — and the same
``LexerError`` message and position — on every statement of the
``report_scan`` workload (seeds 1 and 2), of ``template_queries()`` and
of the SQLite oracle's corpora, and on generated texts.  One difference
is by design: a numeric character that is not a decimal digit (``²``)
made the loop raise ``ValueError``; it is now part of an identifier.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

import perfbench.stack as perfbench_stack
from perfbench import workloads
from repro.analysis.templates import template_queries
from repro.errors import LexerError
from repro.pdm.generator import generate_product
from repro.sqldb.lexer import tokenize
from repro.sqldb.tokens import KEYWORDS, Token, TokenKind
from tests.sqldb.test_recursive import LINEAR_CLOSURE, NO_FIXPOINT
from tests.sqldb.test_sqlite_oracle import ENGINE_CORPUS

OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%")


def reference_tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue
        start = i
        if ch in "'\"":
            parts, i = [], i + 1
            while True:
                if i >= n:
                    what = "string literal" if ch == "'" else "quoted identifier"
                    raise LexerError(f"unterminated {what}", start)
                if sql[i] == ch:
                    if sql.startswith(ch * 2, i):
                        parts.append(ch)
                        i += 2
                        continue
                    break
                parts.append(sql[i])
                i += 1
            i += 1
            if ch == '"' and not parts:
                raise LexerError("empty quoted identifier", start)
            kind = TokenKind.STRING if ch == "'" else TokenKind.IDENT
            tokens.append(Token(kind, "".join(parts), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            seen_dot = seen_exp = False
            while i < n:
                if sql[i].isdigit():
                    i += 1
                elif sql[i] == "." and not seen_dot and not seen_exp:
                    seen_dot, i = True, i + 1
                elif sql[i] in "eE" and not seen_exp:
                    j = i + 1 + (i + 1 < n and sql[i + 1] in "+-")
                    if j < n and sql[j].isdigit():
                        seen_exp, i = True, j + 1
                    else:
                        break
                else:
                    break
            text = sql[start:i]
            tokens.append(Token(TokenKind.NUMBER, float(text) if seen_dot or seen_exp else int(text), start))
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            keyword = word.upper() in KEYWORDS
            tokens.append(Token(TokenKind.KEYWORD if keyword else TokenKind.IDENT, word.upper() if keyword else word, start))
            continue
        if ch == "?":
            tokens.append(Token(TokenKind.PARAM, "?", i))
            i += 1
            continue
        operator = next((op for op in OPERATORS if sql.startswith(op, i)), None)
        if operator is not None:
            tokens.append(Token(TokenKind.OPERATOR, operator, i))
            i += len(operator)
            continue
        if ch in "(),.;":
            tokens.append(Token(TokenKind.PUNCT, ch, i))
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenKind.EOF, None, n))
    return tokens


def lexed(tokenizer, sql):
    """The tokens (with each value's type), or the error's text and position."""
    try:
        return [(t.kind, type(t.value), t.value, t.position) for t in tokenizer(sql)]
    except LexerError as error:
        return str(error), error.position


def corpus():
    spec = perfbench_stack.SPECS["report_scan"]
    product = generate_product(spec.tree, seed=perfbench_stack.PRODUCT_SEED)
    perfbench_stack.seed_report_attributes(product)
    truth = workloads.GroundTruth.of(product)
    texts = [op.target for seed in (1, 2) for op in workloads.report_ops(truth, seed)]
    texts += [sql for __, sql in template_queries()]
    return texts + ENGINE_CORPUS + list(NO_FIXPOINT.values()) + [LINEAR_CLOSURE]


def test_every_corpus_text_lexes_as_before():
    texts = corpus()
    assert len(texts) > 500
    for sql in texts:
        assert lexed(tokenize, sql) == lexed(reference_tokenize, sql), sql


@pytest.mark.parametrize(
    "sql, message, position",
    [
        ("SELECT 'oops", "unterminated string literal", 7),
        ("SELECT 'it''s", "unterminated string literal", 7),
        ("SELECT 1 /* oops", "unterminated block comment", 9),
        ("SELECT /*/ 1", "unterminated block comment", 7),
        ('SELECT "oops', "unterminated quoted identifier", 7),
        ('SELECT """', "unterminated quoted identifier", 7),
        ('SELECT ""', "empty quoted identifier", 7),
        ('SELECT ""x"', "empty quoted identifier", 7),
        ("SELECT @", "unexpected character '@'", 7),
        ("SELECT 1\x0c", "unexpected character '\\x0c'", 8),
    ],
)
def test_an_error_has_the_same_text_and_position(sql, message, position):
    assert lexed(tokenize, sql) == lexed(reference_tokenize, sql)
    with pytest.raises(LexerError) as raised:
        tokenize(sql)
    assert raised.value.position == position and str(raised.value).startswith(message)


PIECES = list("ab_Z09.eE+-'\"?/*;,()<>=!|% \t\n\r@#é٣\x0c") + ["''", '""', "--", "/*", "*/", "1.5e3", "SELECT", "from"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
def test_generated_texts_lex_as_before(sql):
    assert lexed(tokenize, sql) == lexed(reference_tokenize, sql)
