"""Recursive-descent parser for the engine's SQL dialect.

Grammar summary (informal)::

    statement   := select_stmt | create_table | create_index | drop_table
                 | insert | update | delete
    select_stmt := [WITH [RECURSIVE] cte ("," cte)*] query_body
                   [ORDER BY order_item ("," order_item)*] [LIMIT expr]
    query_body  := select_core ((UNION [ALL] | INTERSECT | EXCEPT) select_core)*
    select_core := SELECT [DISTINCT] select_list [FROM from_list]
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]

Expression precedence, loosest first: OR, AND, NOT, comparison/predicates
(=, <>, <, <=, >, >=, IS NULL, IN, BETWEEN, LIKE, EXISTS), additive
(+ - ||), multiplicative (* / %), unary sign, primary.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.lexer import tokenize
from repro.sqldb.tokens import Token, TokenKind
from repro.sqldb.types import type_from_name

_AGGREGATE_KEYWORDS = ("AVG", "COUNT", "MAX", "MIN", "SUM")

_COMPARISON_OPERATORS = ("=", "<>", "!=", "<", "<=", ">", ">=")


def parse_statement(sql: str, tokens: Optional[List[Token]] = None, hidden: Optional[list] = None) -> ast.Statement:
    """Parse a single SQL statement (lexed as *tokens*, if given) and
    return its AST.

    A trailing semicolon is permitted.  Raises :class:`ParseError` if the
    input is empty, malformed, or contains trailing garbage.  Given a
    *hidden* list, a numeral or string literal is hidden (numbered among
    the :func:`statement_shape` values) and appended to it unless the plan
    reads it: in ``LIMIT`` / ``OFFSET``, in a ``GROUP BY`` / ``ORDER BY``
    item (a position), a signed literal (folded) or a ``LIKE`` pattern."""
    parser = _Parser(tokens or tokenize(sql), hidden)
    statement = parser.parse_statement()
    parser.accept_punct(";")
    parser.expect_eof()
    return statement


#: The token kinds :func:`statement_shape` takes the values of.
_LITERALS = (TokenKind.NUMBER, TokenKind.STRING)


def statement_shape(tokens: List[Token]) -> Tuple[tuple, List[Any]]:
    """``(key, values)``: the shape key of a statement's tokens, and its
    numeral and string literals.  The key has each literal as its type
    and the number of the first literal equal to it (for a string, also
    but for case): plans dedupe equal ``IN`` items and match expressions
    by their rendered text."""
    key: List[Any] = []
    values: List[Any] = []
    first: dict = {}
    for kind, value, __ in tokens:
        if kind in _LITERALS:
            key += (type(value), first.setdefault(value, len(values)))
            if kind is TokenKind.STRING:
                key.append(first.setdefault((value.lower(),), len(values)))
            values.append(value)
        else:  # an identifier apart from the keyword or symbol it may spell
            key.append((value,) if kind is TokenKind.IDENT else value)
    return tuple(key), values


def parse_script(sql: str) -> List[ast.Statement]:
    """Parse a ``;``-separated script into a list of statements."""
    parser = _Parser(tokenize(sql))
    statements: List[ast.Statement] = []
    while not parser.at_eof():
        statements.append(parser.parse_statement())
        if not parser.accept_punct(";"):
            break
    parser.expect_eof()
    return statements


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone SQL expression (used by the rule translator
    round-trip tests and the query modificator)."""
    parser = _Parser(tokenize(sql))
    expression = parser.parse_expr()
    parser.expect_eof()
    return expression


class _Parser:
    """Token-stream cursor with the actual grammar productions."""

    def __init__(self, tokens: List[Token], hidden: Optional[list] = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._param_count = 0
        #: Hidden literals, and each token's count of literals up to it.
        self._hidden = hidden
        self._ordinals = None if hidden is None else list(accumulate(t.kind in _LITERALS for t in tokens))
        #: Levels of expression nesting open (see ``ast.NESTING_LIMIT``);
        #: the outermost expression opens none.
        self._depth = -1

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise ParseError(f"unexpected input after statement: {self.peek()}")

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.peek().matches_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.accept_keyword(*names)
        if token is None:
            expected = " or ".join(names)
            raise ParseError(f"expected {expected}, found {self.peek()}")
        return token

    def accept_operator(self, *ops: str) -> Optional[Token]:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.value in ops:
            return self.advance()
        return None

    def accept_punct(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.value == symbol:
            self.advance()
            return True
        return False

    def expect_punct(self, symbol: str) -> None:
        if not self.accept_punct(symbol):
            raise ParseError(f"expected {symbol!r}, found {self.peek()}")

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            self.advance()
            return token.value
        # Non-reserved use of soft keywords (e.g. a column named "left"
        # appears throughout the paper's schema) — allow any keyword that
        # cannot start a clause to act as an identifier.
        if token.kind is TokenKind.KEYWORD and token.value in _SOFT_KEYWORDS:
            self.advance()
            return token.value.lower()
        raise ParseError(f"expected {what}, found {token}")

    # -- statements -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.matches_keyword("SELECT", "WITH"):
            return self.parse_select_statement()
        if token.matches_keyword("CREATE"):
            return self._parse_create()
        if token.matches_keyword("DROP"):
            return self._parse_drop()
        if token.matches_keyword("INSERT"):
            return self._parse_insert()
        if token.matches_keyword("UPDATE"):
            return self._parse_update()
        if token.matches_keyword("DELETE"):
            return self._parse_delete()
        if token.matches_keyword("BEGIN"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            # READ ONLY is a soft-keyword pair (like ANALYZE): it only
            # has meaning here, so columns named "read" keep working.
            nxt = self.peek()
            if nxt.kind is TokenKind.IDENT and nxt.value.upper() == "READ":
                self.advance()
                only = self.peek()
                if not (
                    only.kind is TokenKind.IDENT and only.value.upper() == "ONLY"
                ):
                    raise ParseError(f"expected ONLY after READ, found {only}")
                self.advance()
                return ast.BeginTransaction(read_only=True)
            return ast.BeginTransaction()
        if token.matches_keyword("COMMIT"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.CommitTransaction()
        if token.matches_keyword("ROLLBACK"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.RollbackTransaction()
        if token.matches_keyword("EXPLAIN"):
            self.advance()
            # ANALYZE is deliberately not a reserved word; it only has
            # meaning directly after EXPLAIN.
            nxt = self.peek()
            analyze = (
                nxt.kind is TokenKind.IDENT and nxt.value.upper() == "ANALYZE"
            )
            if analyze:
                self.advance()
            target = self.peek()
            if target.matches_keyword("UPDATE"):
                explained: ast.Statement = self._parse_update()
            elif target.matches_keyword("DELETE"):
                explained = self._parse_delete()
            else:
                explained = self.parse_select_statement()
            return ast.Explain(statement=explained, analyze=analyze)
        # ANALYZE is a soft keyword: only meaningful as the whole statement
        # (optionally followed by one table name).
        if token.kind is TokenKind.IDENT and token.value.upper() == "ANALYZE":
            self.advance()
            table: Optional[str] = None
            if not self.at_eof():
                table = self.expect_identifier("table name")
            return ast.Analyze(table=table)
        raise ParseError(f"expected a statement, found {token}")

    def _column_names(self) -> List[str]:
        """``name, ...)``: the names after an opening parenthesis."""
        columns = [self.expect_identifier("column name")]
        while self.accept_punct(","):
            columns.append(self.expect_identifier("column name"))
        self.expect_punct(")")
        return columns

    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._parse_create_table()
        if self.accept_keyword("VIEW"):
            name = self.expect_identifier("view name")
            columns = self._column_names() if self.accept_punct("(") else None
            self.expect_keyword("AS")
            select = self.parse_select_statement()
            return ast.CreateView(name=name, columns=columns, select=select)
        unique = bool(self.accept_keyword("UNIQUE"))
        self.expect_keyword("INDEX")
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        self.expect_punct("(")
        columns = self._column_names()
        return ast.CreateIndex(name=name, table=table, columns=columns, unique=unique)

    def _parse_create_table(self) -> ast.CreateTable:
        name = self.expect_identifier("table name")
        self.expect_punct("(")
        columns: List[ast.ColumnDef] = []
        while True:
            columns.append(self._parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(name=name, columns=columns)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        type_name = self.expect_identifier("type name")
        length = None
        if self.accept_punct("("):
            token = self.peek()
            if token.kind is not TokenKind.NUMBER:
                raise ParseError(f"expected a length, found {token}")
            length = int(self.advance().value)
            self.expect_punct(")")
        sql_type = type_from_name(type_name, length)
        not_null = False
        primary_key = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                not_null = True
            else:
                break
        return ast.ColumnDef(
            name=name, sql_type=sql_type, not_null=not_null, primary_key=primary_key
        )

    def _parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("VIEW"):
            return ast.DropView(name=self.expect_identifier("view name"))
        self.expect_keyword("TABLE")
        return ast.DropTable(name=self.expect_identifier("table name"))

    def _parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns = self._column_names() if self.accept_punct("(") else None
        if self.accept_keyword("VALUES"):
            rows: List[List[ast.Expression]] = []
            while True:
                self.expect_punct("(")
                row = [self.parse_expr()]
                while self.accept_punct(","):
                    row.append(self.parse_expr())
                self.expect_punct(")")
                rows.append(row)
                if not self.accept_punct(","):
                    break
            return ast.Insert(table=table, columns=columns, rows=rows)
        select = self.parse_select_statement()
        return ast.Insert(table=table, columns=columns, select=select)

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self):
        column = self.expect_identifier("column name")
        if not self.accept_operator("="):
            raise ParseError(f"expected '=' in assignment, found {self.peek()}")
        return (column, self.parse_expr())

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table=table, where=where)

    # -- SELECT -----------------------------------------------------------

    def parse_select_statement(self) -> ast.SelectStatement:
        with_clause = None
        if self.accept_keyword("WITH"):
            recursive = bool(self.accept_keyword("RECURSIVE"))
            ctes = [self._parse_cte()]
            while self.accept_punct(","):
                ctes.append(self._parse_cte())
            with_clause = ast.WithClause(recursive=recursive, ctes=ctes)
        body = self._parse_query_body()
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = None
        if self.accept_keyword("LIMIT"):
            limit = self._shown(self.parse_expr)
        if self.accept_keyword("OFFSET"):
            offset = self._shown(self.parse_expr)
        return ast.SelectStatement(
            body=body,
            with_clause=with_clause,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def _parse_cte(self) -> ast.CommonTableExpr:
        name = self.expect_identifier("CTE name")
        columns = self._column_names() if self.accept_punct("(") else []
        self.expect_keyword("AS")
        self.expect_punct("(")
        body = self._parse_query_body()
        self.expect_punct(")")
        return ast.CommonTableExpr(name=name, columns=columns, body=body)

    def _parse_query_body(self) -> Union[ast.SelectCore, ast.SetOperation]:
        left: Union[ast.SelectCore, ast.SetOperation] = self._parse_select_core()
        while True:
            if self.accept_keyword("UNION"):
                operator = "UNION ALL" if self.accept_keyword("ALL") else "UNION"
            elif self.accept_keyword("INTERSECT"):
                operator = "INTERSECT"
            elif self.accept_keyword("EXCEPT"):
                operator = "EXCEPT"
            else:
                return left
            right = self._parse_select_core()
            left = ast.SetOperation(operator=operator, left=left, right=right)

    def _parse_select_core(self) -> Union[ast.SelectCore, ast.SetOperation]:
        if self.accept_punct("("):
            # Parenthesised query body used as a set-operation operand.  A
            # parenthesised set operation keeps its grouping in the AST
            # (``a UNION (b EXCEPT c)`` stays right-nested), which is what
            # the renderer emits for non-left-associated trees.
            inner = self._parse_query_body()
            self.expect_punct(")")
            return inner
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        from_items: List[ast.FromItem] = []
        if self.accept_keyword("FROM"):
            from_items.append(self._parse_from_item())
            while self.accept_punct(","):
                from_items.append(self._parse_from_item())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: List[ast.Expression] = []
        having = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._shown(self.parse_expr))
            while self.accept_punct(","):
                group_by.append(self._shown(self.parse_expr))
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return ast.SelectCore(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_item(self):
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.value == "*":
            self.advance()
            return ast.Star()
        # alias.* form
        if (
            token.kind is TokenKind.IDENT
            and self.peek(1).kind is TokenKind.PUNCT
            and self.peek(1).value == "."
            and self.peek(2).kind is TokenKind.OPERATOR
            and self.peek(2).value == "*"
        ):
            self.advance()
            self.advance()
            self.advance()
            return ast.Star(qualifier=token.value)
        expression = self.parse_expr()
        return ast.SelectItem(expression=expression, alias=self._alias())

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_from_primary()
        while True:
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self._parse_from_primary()
                item = ast.Join(left=item, right=right, kind="CROSS")
                continue
            kind = None
            if self.peek().matches_keyword("JOIN"):
                self.advance()
                kind = "INNER"
            elif self.peek().matches_keyword("INNER"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "INNER"
            elif self.peek().matches_keyword("LEFT") and self.peek(1).matches_keyword(
                "JOIN", "OUTER"
            ):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                kind = "LEFT"
            if kind is None:
                return item
            right = self._parse_from_primary()
            self.expect_keyword("ON")
            condition = self.parse_expr()
            item = ast.Join(left=item, right=right, kind=kind, condition=condition)

    def _parse_from_primary(self) -> ast.FromItem:
        if self.accept_punct("("):
            if self.peek().matches_keyword("SELECT", "WITH"):
                subquery = self._subquery()
                self.accept_keyword("AS")
                alias = self.expect_identifier("derived table alias")
                return ast.SubqueryRef(subquery=subquery, alias=alias)
            inner = self._parse_from_item()
            self.expect_punct(")")
            return inner
        name = self.expect_identifier("table name")
        return ast.TableRef(name=name, alias=self._alias())

    def _alias(self) -> Optional[str]:
        """An optional ``[AS] alias``."""
        if self.accept_keyword("AS"):
            return self.expect_identifier("alias")
        return self.advance().value if self.peek().kind is TokenKind.IDENT else None

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._shown(self.parse_expr)  # a bare literal is a position
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expression=expression, descending=descending)

    # -- expressions --------------------------------------------------------

    def _shown(self, parse):
        """What *parse* parses, with no literal hidden."""
        ordinals, self._ordinals = self._ordinals, None
        found, self._ordinals = parse(), ordinals
        return found

    def _deeper(self) -> None:
        """Open one more level of expression nesting."""
        self._depth += 1
        if self._depth > ast.NESTING_LIMIT:
            raise ParseError(
                f"expression nests more than {ast.NESTING_LIMIT} levels deep"
            )

    def _subquery(self) -> ast.SelectStatement:
        """A nested SELECT and its closing parenthesis: one level deeper,
        like a parenthesis."""
        self._deeper()
        statement = self.parse_select_statement()
        self._depth -= 1
        self.expect_punct(")")
        return statement

    def parse_expr(self) -> ast.Expression:
        self._deeper()
        expression = self._parse_or()
        self._depth -= 1
        return expression

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp(operator="OR", left=left, right=right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp(operator="AND", left=left, right=right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self.peek().matches_keyword("NOT") and not self.peek(1).matches_keyword(
            "EXISTS"
        ):
            self.advance()
            self._deeper()
            operand = self._parse_not()
            self._depth -= 1
            return ast.UnaryOp(operator="NOT", operand=operand)
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        if self.peek().matches_keyword("EXISTS") or (
            self.peek().matches_keyword("NOT")
            and self.peek(1).matches_keyword("EXISTS")
        ):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("EXISTS")
            self.expect_punct("(")
            subquery = self._subquery()
            return ast.ExistsTest(subquery=subquery, negated=negated)
        left = self._parse_additive()
        token = self.accept_operator(*_COMPARISON_OPERATORS)
        if token is not None:
            operator = "<>" if token.value == "!=" else token.value
            right = self._parse_additive()
            return ast.BinaryOp(operator=operator, left=left, right=right)
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNullTest(operand=left, negated=negated)
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("IN"):
            return self._parse_in_tail(left, negated)
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)
        if self.accept_keyword("LIKE"):
            pattern = self._shown(self._parse_additive)
            return ast.Like(operand=left, pattern=pattern, negated=negated)
        if negated:
            raise ParseError(
                f"expected IN, BETWEEN or LIKE after NOT, found {self.peek()}"
            )
        return left

    def _parse_in_tail(self, operand: ast.Expression, negated: bool) -> ast.Expression:
        self.expect_punct("(")
        if self.peek().matches_keyword("SELECT", "WITH"):
            subquery = self._subquery()
            return ast.InSubquery(operand=operand, subquery=subquery, negated=negated)
        items = [self.parse_expr()]
        while self.accept_punct(","):
            items.append(self.parse_expr())
        self.expect_punct(")")
        return ast.InList(operand=operand, items=items, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.accept_operator("+", "-", "||")
            if token is None:
                return left
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator=token.value, left=left, right=right)

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self.accept_operator("*", "/", "%")
            if token is None:
                return left
            right = self._parse_unary()
            left = ast.BinaryOp(operator=token.value, left=left, right=right)

    def _parse_unary(self) -> ast.Expression:
        token = self.accept_operator("-", "+")
        if token is not None:
            self._deeper()
            operand = self._parse_unary()
            self._depth -= 1
            if isinstance(operand, ast.Literal):
                operand.hidden = None  # folded with its sign
            return ast.UnaryOp(operator=token.value, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.peek()
        if token.kind in _LITERALS:
            self.advance()
            literal = ast.Literal(value=token.value)
            if self._ordinals is not None:
                literal.hidden = self._ordinals[self._pos - 1] - 1
                self._hidden.append(literal)
            return literal
        if token.kind is TokenKind.PARAM:
            self.advance()
            index = self._param_count
            self._param_count += 1
            return ast.Parameter(index=index)
        if token.matches_keyword("NULL", "TRUE", "FALSE"):
            self.advance()
            return ast.Literal(value={"NULL": None, "TRUE": True, "FALSE": False}[token.value])
        if token.matches_keyword("CAST"):
            return self._parse_cast()
        if token.matches_keyword("CASE"):
            return self._parse_case()
        if token.matches_keyword(*_AGGREGATE_KEYWORDS):
            self.advance()
            return self._parse_call(str(token.value))
        if self.accept_punct("("):
            if self.peek().matches_keyword("SELECT", "WITH"):
                subquery = self._subquery()
                return ast.ScalarSubquery(subquery=subquery)
            expression = self.parse_expr()
            self.expect_punct(")")
            return expression
        if token.kind is TokenKind.IDENT or (
            token.kind is TokenKind.KEYWORD and token.value in _SOFT_KEYWORDS
        ):
            name = self.expect_identifier()
            if self.peek().kind is TokenKind.PUNCT and self.peek().value == "(":
                return self._parse_call(name)
            if self.accept_punct("."):
                column = self.expect_identifier("column name")
                return ast.ColumnRef(name=column, qualifier=name)
            return ast.ColumnRef(name=name)
        raise ParseError(f"expected an expression, found {token}")

    def _parse_cast(self) -> ast.Cast:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        self._deeper()
        operand = self.parse_expr()
        self._depth -= 1
        self.expect_keyword("AS")
        type_name = self.expect_identifier("type name")
        length = None
        if self.accept_punct("("):
            number = self.peek()
            if number.kind is not TokenKind.NUMBER:
                raise ParseError(f"expected a length, found {number}")
            length = int(self.advance().value)
            self.expect_punct(")")
        self.expect_punct(")")
        return ast.Cast(operand=operand, target=type_from_name(type_name, length))

    def _parse_case(self) -> ast.CaseWhen:
        self.expect_keyword("CASE")
        # A simple CASE is the searched one testing ``operand = value``:
        # a NULL on either side never matches, as in SQLite.
        operand = None if self.peek().matches_keyword("WHEN") else self.parse_expr()
        branches = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            if operand is not None:
                condition = ast.BinaryOp(operator="=", left=operand, right=condition)
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        default = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        return ast.CaseWhen(branches=branches, default=default)

    def _parse_call(self, name: str) -> ast.FunctionCall:
        self.expect_punct("(")
        if self.accept_operator("*"):
            self.expect_punct(")")
            return ast.FunctionCall(name=name, star=True)
        distinct = bool(self.accept_keyword("DISTINCT"))
        args: List[ast.Expression] = []
        self._deeper()
        if not (self.peek().kind is TokenKind.PUNCT and self.peek().value == ")"):
            args.append(self.parse_expr())
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self._depth -= 1
        self.expect_punct(")")
        # Aggregate names arrive as (already uppercased) keywords; plain
        # function identifiers keep their case — the registry matching is
        # case-insensitive and rendering stays a fixpoint.
        return ast.FunctionCall(name=name, args=args, distinct=distinct)


#: Keywords that may double as identifiers (column/table names).  The
#: paper's schema uses ``left`` and ``right`` as column names, so the set
#: is not academic.
_SOFT_KEYWORDS = frozenset(
    {
        "LEFT",
        "KEY",
        "INDEX",
        "AVG",
        "COUNT",
        "MAX",
        "MIN",
        "SUM",
        "SET",
        "ALL",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
        "TABLE",
        "VALUES",
        "END",
    }
)
