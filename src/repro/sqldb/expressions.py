"""One expression compiler: SQL expressions become generated Python.

*Lowering* (:func:`lower`) resolves every column reference to a slot of
the current row (:class:`Scope`) or of an enclosing subquery's row on
the runtime outer-row stack (marking every frame it crosses
*correlated*, which disables result caching for those subqueries),
plans subqueries and folds constant sub-expressions at plan time (a
constant that raises stays unfolded and raises where it runs; stored
functions are never folded).  The result is a tuple IR ``(kind, data,
children)``.

*Emission* (:class:`_Emitter`) turns IR into the text of one Python
expression with SQL semantics: three-valued AND / OR / NOT that
short-circuit left to right (a side that would raise is never evaluated
where it is skipped), NULL propagation, ``TypeMismatchError`` for a
number against a string or arithmetic on a non-number, integer division
truncating toward zero and ``ExecutionError("division by zero")``.
:func:`program` wraps that text as a row function ``row(r, env)``;
:mod:`repro.sqldb.pipelines` writes it into the loop of a whole chain of
operators, over a batch's rows or over its columns.

The row text is the one with SQL's semantics.  A pipeline's column loop
writes comparisons and ``+ - *`` as bare Python operators where that
cannot change a result: ordering comparisons under ``try/except
TypeError`` (Python raises it on exactly the cases SQL treats specially:
NULL, a number against a string), ``=``, ``<>``, BETWEEN and ``+ - *``
behind one per-batch precheck of the kinds they read (a column's kinds
are kept with its batch's columns, once per table version for a cached
chunk); every other node keeps its row text.  A batch whose precheck
fails, that binds fewer ``?`` values than the loop reads, or whose guard
trips runs the row loop, so errors surface in row order.  An expression
with a correlated subquery, an EXISTS or scalar subquery, or an outer
reference runs over the batch's rows; an uncorrelated ``IN (subquery)``
fetches its value set once per call and tests membership inline.

No SQL text becomes Python source: the source holds operator tokens,
slot and parameter numbers and generated names.  Literals are holes of
a template whose text is emitted once; literals, folded constants,
converters, LIKE regexes, function names and subqueries are arguments
of the module's factory, so plans that differ only in literal values
share one source, compiled once (:func:`_compile`).
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import CatalogError, ExecutionError, ParseError, SQLError, TypeMismatchError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.columnar import Columns
from repro.sqldb.functions import AGGREGATE_NAMES
from repro.sqldb.types import STORED_CLASS, SQLType, converter

ExprFn = Callable[[Tuple[Any, ...], Any], Any]

#: Lowered expression: ``(kind, data, children)``.
IR = Tuple[str, Any, Tuple[Any, ...]]


class UnresolvedColumnError(SQLError):
    """Internal: a column reference did not resolve in any visible scope."""


class Scope:
    """Column namespace of one SELECT core.

    Slots are the concatenated output columns of the FROM clause; each slot
    carries the binding name it belongs to (table alias, lowercased) and
    its column name.  Resolution is case-insensitive and detects ambiguity.
    """

    def __init__(self, bindings: Sequence[Tuple[Optional[str], Sequence[str]]]) -> None:
        self.bindings: List[Tuple[Optional[str], List[str]]] = [
            (name.lower() if name else None, list(columns))
            for name, columns in bindings
        ]
        self._slots: List[Tuple[Optional[str], str]] = []
        for name, columns in self.bindings:
            for column in columns:
                self._slots.append((name, column.lower()))

    @property
    def arity(self) -> int:
        return len(self._slots)

    def binding_slot_range(self, name: str) -> Tuple[int, int]:
        """Return the (start, end) slot range of a binding, for ``alias.*``."""
        offset = 0
        wanted = name.lower()
        for binding_name, columns in self.bindings:
            if binding_name == wanted:
                return offset, offset + len(columns)
            offset += len(columns)
        raise UnresolvedColumnError(f"unknown table alias {name!r}")

    def binding_of_slot(self, slot: int) -> Optional[str]:
        """The (lowercased) binding name a slot belongs to, or None."""
        return self._slots[slot][0]

    def resolve(self, qualifier: Optional[str], name: str) -> int:
        """Return the slot index of ``qualifier.name`` / ``name``.

        Raises :class:`UnresolvedColumnError` when absent and
        :class:`CatalogError` when an unqualified name is ambiguous.
        """
        wanted = name.lower()
        if qualifier is not None:
            qualifier = qualifier.lower()
            offset = 0
            for binding_name, columns in self.bindings:
                if binding_name == qualifier:
                    for position, column in enumerate(columns):
                        if column.lower() == wanted:
                            return offset + position
                    raise UnresolvedColumnError(
                        f"binding {qualifier!r} has no column {name!r}"
                    )
                offset += len(columns)
            raise UnresolvedColumnError(f"unknown table alias {qualifier!r}")
        matches = [
            index
            for index, (__, column) in enumerate(self._slots)
            if column == wanted
        ]
        if not matches:
            raise UnresolvedColumnError(f"unknown column {name!r}")
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {name!r}")
        return matches[0]


class Frame:
    """One subquery nesting level during compilation.

    ``scope`` is mutable: a statement with a UNION body compiles each core
    sequentially against the same frame with the scope swapped in.
    ``correlated`` becomes True as soon as any expression compiled within
    this frame resolves a column in an enclosing frame.
    """

    __slots__ = ("scope", "correlated")

    def __init__(self, scope: Optional[Scope] = None) -> None:
        self.scope = scope
        self.correlated = False


class SlotRef(ast.Expression):
    """Planner-internal expression: read output slot *index* directly.

    Produced by the aggregate rewrite (group keys and aggregate results
    become slots of the Aggregate operator's output row).
    """

    def __init__(self, index: int) -> None:
        self.index = index


class CompileContext:
    """Everything :func:`lower` needs.

    ``frames`` is the stack of subquery frames, innermost last.
    ``plan_subquery`` is the planner callback used for subquery
    expressions; it returns an object with ``exists/value_set/scalar``
    runtime methods (see :class:`repro.sqldb.planner.CompiledSubquery`).
    """

    def __init__(self, frames: List[Frame], plan_subquery, functions) -> None:
        self.frames = frames
        self.plan_subquery = plan_subquery
        self.functions = functions

    def resolve_column(self, ref: ast.ColumnRef) -> Tuple[int, int]:
        """Resolve *ref* against the frame stack.

        Returns ``(depth, slot)`` where depth 0 is the current frame.
        Marks every frame inside the resolution point as correlated.
        """
        last_error: Optional[SQLError] = None
        for distance, frame in enumerate(reversed(self.frames)):
            if frame.scope is None:
                continue
            try:
                slot = frame.scope.resolve(ref.qualifier, ref.name)
            except UnresolvedColumnError as exc:
                last_error = exc
                continue
            if distance > 0:
                for inner in self.frames[len(self.frames) - distance :]:
                    inner.correlated = True
            return distance, slot
        if last_error is None:
            last_error = UnresolvedColumnError(f"unknown column {ref}")
        raise last_error


# -- lowering ----------------------------------------------------------------

#: SQL comparison -> Python operator token.
_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ORDERING = frozenset(("<", "<=", ">", ">="))
_ARITHMETIC = frozenset(("+", "-", "*", "/", "%"))

#: Kinds that are never folded: they read the row, the statement's
#: parameters or the database.
_RUNTIME_KINDS = frozenset(
    ("slot", "outer", "const", "param", "hidden", "call", "exists", "scalar", "insub", "alltrue")
)


def slot(index: int) -> IR:
    """The IR of a bare read of input slot *index*."""
    return ("slot", index, ())


def lower(node: ast.Expression, ctx: CompileContext, depth: int = 0) -> IR:
    """Resolve, plan and fold *node* into IR (see module docstring).

    *depth* counts the levels of nesting around *node*: past
    ``ast.NESTING_LIMIT`` it is a ``ParseError``.  A left-deep run of
    binary operators is lowered in a loop, at one depth.
    """
    if depth > ast.NESTING_LIMIT:
        raise ParseError(f"expression nests more than {ast.NESTING_LIMIT} levels deep")
    if isinstance(node, SlotRef):
        return slot(node.index)
    if isinstance(node, ast.Literal):
        return ("const", node.value, ()) if node.hidden is None else ("hidden", node.hidden, ())
    if isinstance(node, ast.Parameter):
        return ("param", node.index, ())
    if isinstance(node, ast.ColumnRef):
        depth, index = ctx.resolve_column(node)
        return slot(index) if depth == 0 else ("outer", (depth, index), ())
    depth += 1
    if isinstance(node, ast.UnaryOp):
        operand = lower(node.operand, ctx, depth)
        if node.operator == "+":
            return operand
        if node.operator == "-":
            return _folded(("neg", None, (operand,)))
        if node.operator == "NOT":
            return _folded(("not", None, (operand,)))
        raise ExecutionError(f"unknown unary operator {node.operator!r}")
    if isinstance(node, ast.BinaryOp):
        spine = []
        while isinstance(node, ast.BinaryOp):
            spine.append(node)
            node = node.left
        ir = lower(node, ctx, depth)
        for step in reversed(spine):
            ir = _binary(step.operator, ir, lower(step.right, ctx, depth))
        return ir
    if isinstance(node, ast.FunctionCall):
        name = node.name.upper()
        if name in AGGREGATE_NAMES:
            raise ExecutionError(
                f"aggregate function {name} used outside of a grouped query context"
            )
        if name == "NULLIF" and len(node.args) != 2:
            raise ExecutionError("NULLIF takes exactly two arguments")
        args = tuple(lower(arg, ctx, depth) for arg in node.args)
        if name in ("COALESCE", "NULLIF"):
            return _folded((name.lower(), None, args))
        return ("call", name, args)
    if isinstance(node, ast.Cast):
        return _folded(("cast", node.target, (lower(node.operand, ctx, depth),)))
    if isinstance(node, ast.IsNullTest):
        return _folded(("isnull", node.negated, (lower(node.operand, ctx, depth),)))
    if isinstance(node, ast.InList):
        operand = lower(node.operand, ctx, depth)
        items = tuple(lower(item, ctx, depth) for item in node.items)
        return _folded(("in", node.negated, (operand,) + items))
    if isinstance(node, ast.InSubquery):
        operand = lower(node.operand, ctx, depth)
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        return ("insub", (subquery, node.negated), (operand,))
    if isinstance(node, ast.ExistsTest):
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        return ("exists", (subquery, node.negated), ())
    if isinstance(node, ast.ScalarSubquery):
        return ("scalar", ctx.plan_subquery(node.subquery, ctx.frames), ())
    if isinstance(node, ast.Between):
        children = tuple(lower(part, ctx, depth) for part in (node.operand, node.low, node.high))
        return _folded(("between", node.negated, children))
    if isinstance(node, ast.Like):
        children = (lower(node.operand, ctx, depth), lower(node.pattern, ctx, depth))
        return _folded(("like", node.negated, children))
    if isinstance(node, ast.CaseWhen):
        parts: Tuple[IR, ...] = ()
        for condition, value in node.branches:
            parts += (lower(condition, ctx, depth), lower(value, ctx, depth))
        has_default = node.default is not None
        if has_default:
            parts += (lower(node.default, ctx, depth),)
        return _folded(("case", has_default, parts))
    raise ExecutionError(f"cannot compile {type(node).__name__}")


def _binary(operator: str, left: IR, right: IR) -> IR:
    """The IR of ``left operator right``."""
    pair = (left, right)
    if operator in ("AND", "OR"):
        # Flattened: SQL's left-to-right short-circuit is associative.
        kind = operator.lower()
        children: Tuple[IR, ...] = ()
        for child in pair:
            children += child[2] if child[0] == kind else (child,)
        return _folded((kind, None, children))
    if operator in _COMPARISONS:
        return _folded(("cmp", operator, pair))
    if operator in _ARITHMETIC:
        return _folded(("arith", operator, pair))
    if operator == "||":
        return _folded(("concat", None, pair))
    raise ExecutionError(f"unknown operator {operator!r}")


def _folded(ir: IR) -> IR:
    """*ir* evaluated to a constant when every operand is one; *ir*
    itself when it reads anything else or its evaluation raises (the
    error then surfaces where the expression runs, if it ever does)."""
    children = ir[2]
    if ir[0] in _RUNTIME_KINDS or not all(child[0] == "const" for child in children):
        return ir
    try:
        return ("const", program([ir], VALUE).row((), None), ())
    except (SQLError, ArithmeticError):
        return ir


def conjunction(conjuncts: Sequence[IR]) -> IR:
    """One predicate that is TRUE when every conjunct is TRUE, evaluated
    left to right and stopping at the first that is not (an UNKNOWN or a
    non-boolean value stops it too, without a type check)."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ("alltrue", None, tuple(conjuncts))


def contains_aggregate(node: ast.Expression) -> bool:
    """True if *node* contains an aggregate call outside any subquery."""
    for sub in ast.walk_expression(node):
        if isinstance(sub, ast.FunctionCall) and sub.name.upper() in AGGREGATE_NAMES:
            return True
    return False


# -- runtime helpers the generated code calls --------------------------------

_NUM = (int, float)
_NUMERIC_KINDS = frozenset((int, float, bool))
_STRING_KINDS = frozenset((str,))


def _uniform(*kinds: set) -> bool:
    """Precheck of ``=``, ``<>`` and BETWEEN: no NULL, and all numbers or
    all strings, so Python's operator decides as SQL's comparison does."""
    found = set().union(*kinds)
    return found <= _NUMERIC_KINDS or found <= _STRING_KINDS


def _numeric(*kinds: set) -> bool:
    """Precheck of ``+ - *`` and unary minus: no NULL, numbers only."""
    return set().union(*kinds) <= _NUMERIC_KINDS


def _mismatch(left: Any, right: Any) -> Any:
    """A number against a string, named number first whichever side it
    is on, so a scan, a probe and a join give the same text."""
    number, string = (left, right) if isinstance(left, _NUM) else (right, left)
    raise TypeMismatchError(
        f"cannot compare {type(number).__name__} with {type(string).__name__}"
    )


def _unequal(key: Any, allowed: Any) -> None:
    """``=`` of a join key whose class is not *allowed* (see
    :func:`repro.sqldb.pipelines.key_classes`) and the probed side's."""
    number = isinstance(key, _NUM)
    if key is not None and (int if number else str) not in allowed:
        _mismatch(key, "" if number else allowed.number)


def _arith_error(left: Any, operator: str, right: Any) -> Any:
    raise TypeMismatchError(
        f"arithmetic on non-numeric values {left!r} {operator} {right!r}"
    )


def _negate_error(value: Any) -> Any:
    raise TypeMismatchError(f"arithmetic on non-numeric value -{value!r}")


def _truncated(value: Any) -> Optional[int]:
    """A ``%`` operand as SQLite reads it: truncated toward zero and
    saturated to int64; None for NaN (which SQLite holds as NULL)."""
    if value != value:
        return None
    if isinstance(value, float):
        value = max(-(2.0**63), min(value, 2.0**63))
    return max(-(1 << 63), min(int(value), (1 << 63) - 1))


def _arith(operator: str, left: Any, right: Any) -> Any:
    """``/`` and ``%``: NULL propagation, the numeric check, integer
    division truncating toward zero, SQL's remainder (of the operands
    truncated toward zero, with the dividend's sign, REAL if either
    operand is) and the zero-divisor error."""
    if left is None or right is None:
        return None
    if not isinstance(left, _NUM) or not isinstance(right, _NUM):
        _arith_error(left, operator, right)
    if operator == "%":
        dividend, divisor = _truncated(left), _truncated(right)
        if dividend is None or divisor is None:
            return None
        if divisor == 0:
            raise ExecutionError("division by zero")
        remainder = abs(dividend) % abs(divisor) * (-1 if dividend < 0 else 1)
        return float(remainder) if isinstance(left, float) or isinstance(right, float) else remainder
    try:
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right)
        return left / right
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None


def to_bool(value: Any) -> Optional[bool]:
    """Interpret a value in boolean context (NULL stays UNKNOWN)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, _NUM):
        return bool(value)
    raise TypeMismatchError(f"{value!r} is not a boolean")


def _member(value: Any, values, has_null: bool, negated: bool) -> Optional[bool]:
    """``value [NOT] IN values`` as membership: an item of another kind
    is not a match (and not an error); NULL as in SQL."""
    if value is None:
        result: Optional[bool] = None if values or has_null else False
    elif value in values:
        result = True
    else:
        result = None if has_null else False
    return result if result is None or not negated else not result


def _in_static(value: Any, env, token: object, items, negated: bool) -> Optional[bool]:
    """IN over a list of literals and ``?`` parameters: the set is built
    once per execution (``obid IN (?, ..thousands..)`` stays linear)."""
    cached = env.subquery_cache.get(token)
    if cached is None:
        values = [
            item if kind == "hole" else env.hidden[item] if kind == "hidden" else env.parameter(item)
            for kind, item in items
        ]
        cached = env.subquery_cache[token] = (
            {item for item in values if item is not None},
            None in values,
        )
    return _member(value, cached[0], cached[1], negated)


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern":
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _like(value: Any, pattern: Any, negated: bool) -> Optional[bool]:
    """LIKE against a pattern computed per row."""
    if value is None or pattern is None:
        return None
    return (_like_regex(str(pattern)).fullmatch(str(value)) is None) is negated


#: The generated modules' globals.
_RUNTIME: Dict[str, Any] = {
    name: globals()[name]
    for name in "_NUM _uniform _numeric _mismatch _unequal _arith_error _negate_error _arith "
    "to_bool _member _in_static _like Columns".split()
}


# -- emission ----------------------------------------------------------------


#: One emitted expression: its source, what it yields — ``"bool"``
#: (TRUE/FALSE), ``"bool3"`` (TRUE/FALSE/NULL), ``"num"`` (a number, never
#: NULL) or None (anything) — its IR, and whether it is a name (may be
#: referenced again without evaluating anything).
_Text = namedtuple("_Text", "text kind ir name", defaults=(False,))

_BOOLEAN = ("bool", "bool3")


#: Node kinds :meth:`_Emitter.chain` folds, and the longest left-deep
#: chain of them emitted as nested text (Python's parser allows ~200
#: nested parentheses; a step of the row text opens two).
_CHAINED = frozenset(("arith", "concat"))
CHAIN_NESTING = 32


def _long_chain(ir: IR) -> bool:
    """Is the left spine of *ir* more than :data:`CHAIN_NESTING`
    arithmetic and ``||`` nodes long?"""
    for __ in range(CHAIN_NESTING + 1):
        if ir[0] not in _CHAINED:
            return False
        ir = ir[2][0]
    return True


def _template(ir: IR, values: List[Any]) -> IR:
    """*ir* with each constant replaced by a ``hole`` numbering it in
    preorder, its value appended to *values*: templates hold no literal."""
    kind, data, children = ir
    if kind == "const":
        values.append(data)
        return ("hole", len(values) - 1, ())
    if not children:
        return ir
    return (kind, data, tuple([_template(child, values) for child in children]))


#: A factory argument, computed from the literal values of the template.
Recipe = Callable[[Sequence[Any]], Any]


class _Emitter:
    """Emit the text of a template's IR nodes; collect what it reads.

    Every factory argument ``k<n>`` is a :data:`Recipe` over the
    template's literals.  ``columns`` emits a pipeline's column loop:
    ``?`` values are read from names hoisted out of the loop, and
    ``prechecks`` / ``guarded`` record what must hold for it to run.
    """

    def __init__(self) -> None:
        self.recipes: List[Recipe] = []
        self._hole_names: Dict[int, str] = {}
        self.temps = 0
        self.params: set = set()
        self.prechecks: List[str] = []
        self.kind_columns: set = set()
        self.guarded = False
        #: Emit a column loop: slots bound as names, bare where prechecked.
        self.columns = False
        #: In a pipeline, each slot's text at the current stage and the
        #: source column it reads unchanged (None for a computed or probed
        #: value); ``read`` collects the source columns read.
        self.slot_texts: Optional[List[str]] = None
        self.slot_sources: List[Optional[int]] = []
        self.read: set = set()
        #: The current row's tuple, for subqueries and outer references.
        self.row = "r"
        #: ``id(subquery) -> (name, fetch)`` of each uncorrelated ``IN
        #: (subquery)``'s value set (see :meth:`_insub`).
        self.value_sets: Dict[int, Tuple[str, str]] = {}
        #: Text -> name of each value computed once per call (:meth:`once`).
        self.bound: Dict[str, str] = {}

    def argument(self, recipe: Recipe) -> str:
        """The name of a new factory argument computed by *recipe*."""
        self.recipes.append(recipe)
        return f"k{len(self.recipes) - 1}"

    def const(self, value: Any) -> str:
        """The name of a factory argument holding *value* (plan data, not
        a literal: a converter, a subquery, a flag, a function name)."""
        return self.argument(lambda values: value)

    def once(self, text: str) -> str:
        """A name bound to *text*'s value as the generated function starts:
        what a hidden parameter costs a row is what a hole costs."""
        name = self.bound.get(text)
        if name is None:
            name = self.bound[text] = f"o{len(self.bound)}"
        return name

    def literal(self, index: int) -> str:
        name = self._hole_names.get(index)
        if name is None:
            name = self._hole_names[index] = self.argument(lambda values: values[index])
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def bind(self, text: _Text) -> Tuple[str, str]:
        """(first use, later uses) of *text*: a walrus on first use
        unless it is a name already."""
        if text.name:
            return text.text, text.text
        name = self.temp()
        return f"({name} := {text.text})", name

    def pin(self, texts: Sequence[_Text]) -> Tuple[List[str], List[_Text]]:
        """Evaluate *texts* in order up front: the walruses to run first
        and a name for each."""
        binds: List[str] = []
        named: List[_Text] = []
        for text in texts:
            if text.name:
                named.append(text)
            else:
                first, later = self.bind(text)
                binds.append(first)
                named.append(_Text(later, text.kind, text.ir, name=True))
        return binds, named

    def is_number(self, text: _Text, name: str) -> str:
        """Source testing whether *name* (the value of *text*) is numeric."""
        if text.ir[0] == "hole":
            index = text.ir[1]
            return self.argument(lambda values: isinstance(values[index], _NUM))
        if text.ir[0] == "hidden":
            return self.once(f"isinstance({name}, _NUM)")
        return f"isinstance({name}, _NUM)"

    def source_slot(self, ir: IR) -> Optional[int]:
        """The batch column a ``slot`` node reads unchanged, if any."""
        return self.slot_sources[ir[1]]

    def kinds_of(self, text: _Text) -> Optional[str]:
        """Source of the set of kinds *text* can take in one batch (a
        column's, a constant's, a parameter's), "num" when it is a
        number by construction, None when neither is known."""
        kind, data, __ = text.ir
        if text.kind in ("num", "bool"):
            return "num"
        if kind == "slot":
            column = self.source_slot(text.ir)
            return None if column is None else f"y{column}"
        if kind in ("hole", "hidden", "param"):
            return f"{{type({text.text})}}"
        return None

    def precheck(self, check: str, texts: Sequence[_Text]) -> bool:
        """Record that the column text of *texts*' node needs *check* over
        their kinds; False when some kind cannot be prechecked."""
        kinds = [self.kinds_of(text) for text in texts]
        if None in kinds:
            return False
        self.kind_columns.update(self.source_slot(t.ir) for t in texts if t.ir[0] == "slot")
        sets = [found for found in kinds if found != "num"]
        if len(sets) < len(kinds):
            check = "_numeric"  # a number by construction fixes the kind
        if sets:
            self.prechecks.append(f"{check}({', '.join(sets)})")
        return True

    def truth(self, text: _Text) -> _Text:
        """*text* in boolean context: ``to_bool``, inline for NULL and a
        bool."""
        if text.kind in _BOOLEAN:
            return text
        first, later = self.bind(text)
        return _Text(
            f"({later} if {first} is None or {later}.__class__ is bool else to_bool({later}))",
            "bool3",
            text.ir,
        )

    # -- nodes ---------------------------------------------------------------

    def emit(self, ir: IR) -> _Text:
        kind, data, children = ir
        if kind == "slot":
            if self.slot_texts is not None:
                column = self.slot_sources[data]
                if column is not None:
                    self.read.add(column)
                return _Text(self.slot_texts[data], None, ir, name=True)
            return _Text(f"r[{data}]", None, ir, name=True)
        if kind == "hole":
            return _Text(self.literal(data), None, ir, name=True)
        if kind == "hidden":
            return _Text(self.once(f"env.hidden[{data}]"), None, ir, name=True)
        if kind == "param":
            if self.columns:
                self.params.add(data)
                return _Text(f"p{data}", None, ir, name=True)
            return _Text(
                f"(env.params[{data}] if len(env.params) > {data} else env.parameter({data}))",
                None,
                ir,
            )
        if kind == "outer":
            depth, index = data
            return _Text(f"env.outer_rows[-{depth}][{index}]", None, ir, name=True)
        if kind in _CHAINED and _long_chain(ir):
            return self.chain(ir)
        texts = [self.emit(child) for child in children]
        return getattr(self, f"_{kind}")(ir, data, texts)

    def chain(self, ir: IR) -> _Text:
        """A left-deep chain of arithmetic and ``||`` steps too long to
        nest: one flat tuple binding each step's value to a name in turn,
        so the steps run in the nested order (left operand, right
        operand, step) at a constant depth of text."""
        spine: List[IR] = []
        while ir[0] in _CHAINED:
            spine.append(ir)
            ir = ir[2][0]
        left = self.emit(ir)
        steps: List[str] = []
        for node in reversed(spine):
            kind, data, children = node
            step = getattr(self, f"_{kind}")(node, data, [left, self.emit(children[1])])
            first, later = self.bind(step)
            steps.append(first)
            left = _Text(later, step.kind, node, name=True)
        return _Text(f"({', '.join(steps)})[-1]", left.kind, spine[0])

    def operands(self, left: _Text, right: _Text) -> Tuple[str, str, str]:
        """Both operands evaluated (left first), then tested for NULL:
        the test, and a name for each value."""
        a1, a2 = self.bind(left)
        b1, b2 = self.bind(right)
        if right.name:
            return f"{a1} is None or {b1} is None", a2, b2
        return f"({a1} is None) | ({b1} is None)", a2, b2

    def _compare(self, operator: str, left: _Text, right: _Text) -> str:
        """SQL comparison: NULL if either side is, a type error for a
        number against a string, else the Python operator."""
        null, a2, b2 = self.operands(left, right)
        same = f"{self.is_number(left, a2)} is {self.is_number(right, b2)}"
        return (
            f"(None if {null} else ({a2} {operator} {b2} if {same} "
            f"else _mismatch({a2}, {b2})))"
        )

    def _cmp(self, ir: IR, operator: str, texts: List[_Text]) -> _Text:
        left, right = texts
        python = _COMPARISONS[operator]
        if self.columns:
            if operator in _ORDERING:
                self.guarded = True
                return _Text(f"({left.text} {python} {right.text})", "bool", ir)
            if self.precheck("_uniform", texts):
                return _Text(f"({left.text} {python} {right.text})", "bool", ir)
        return _Text(self._compare(python, left, right), "bool3", ir)

    def _arith(self, ir: IR, operator: str, texts: List[_Text]) -> _Text:
        left, right = texts
        if operator in ("/", "%"):
            return _Text(f"_arith('{operator}', {left.text}, {right.text})", None, ir)
        if self.columns and self.precheck("_numeric", texts):
            return _Text(f"({left.text} {operator} {right.text})", "num", ir)
        null, a2, b2 = self.operands(left, right)
        numbers = f"{self.is_number(left, a2)} and {self.is_number(right, b2)}"
        return _Text(
            f"(None if {null} else ({a2} {operator} {b2} if {numbers} "
            f"else _arith_error({a2}, '{operator}', {b2})))",
            None,
            ir,
        )

    def _neg(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        (operand,) = texts
        if self.columns and self.precheck("_numeric", texts):
            return _Text(f"(-{operand.text})", "num", ir)
        x1, x2 = self.bind(operand)
        return _Text(
            f"(None if {x1} is None else (-{x2} if {self.is_number(operand, x2)} "
            f"else _negate_error({x2})))",
            None,
            ir,
        )

    def _concat(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        null, a2, b2 = self.operands(*texts)
        return _Text(f"(None if {null} else str({a2}) + str({b2}))", None, ir)

    def _logical(self, decisive: str, python: str, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        """n-ary AND (*decisive* False) / OR (*decisive* True): stop at the
        first decisive operand; else UNKNOWN if any operand is."""
        operands = [self.truth(text) for text in texts]
        if all(operand.kind == "bool" for operand in operands):
            return _Text(f"({f' {python} '.join(o.text for o in operands)})", "bool", ir)
        stops: List[str] = []
        unknowns: List[str] = []
        for operand in operands:
            if operand.kind == "bool":
                stops.append(f"{decisive} if {operand.text} is {decisive} else")
                continue
            first, later = self.bind(operand)
            stops.append(f"{decisive} if {first} is {decisive} else")
            unknowns.append(f"{later} is None")
        other = "False" if decisive == "True" else "True"
        return _Text(
            f"({' '.join(stops)} (None if {' or '.join(unknowns)} else {other}))",
            "bool3",
            ir,
        )

    _and = functools.partialmethod(_logical, "False", "and")
    _or = functools.partialmethod(_logical, "True", "or")

    def _not(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        operand = self.truth(texts[0])
        if operand.kind == "bool":
            return _Text(f"(not {operand.text})", "bool", ir)
        x1, x2 = self.bind(operand)
        return _Text(f"(None if {x1} is None else not {x2})", "bool3", ir)

    def _alltrue(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        parts = [t.text if t.kind == "bool" else f"{t.text} is True" for t in texts]
        return _Text(f"({' and '.join(parts)})", "bool", ir)

    def _isnull(self, ir: IR, negated: bool, texts: List[_Text]) -> _Text:
        return _Text(f"({texts[0].text} is {'not ' if negated else ''}None)", "bool", ir)

    def _between(self, ir: IR, negated: bool, texts: List[_Text]) -> _Text:
        value, low, high = texts
        if self.columns and self.precheck("_uniform", texts):
            inside = f"({low.text} <= {value.text} <= {high.text})"
            return _Text(f"(not {inside})" if negated else inside, "bool", ir)
        # Both comparisons are made (either may raise), then combined.
        binds, (value, low, high) = self.pin(texts)
        above = self._compare(">=", value, low)
        below = self._compare("<=", value, high)
        a, b = self.temp(), self.temp()
        inside = (
            f"(False if (({a} := {above}) is False) | (({b} := {below}) is False) "
            f"else (None if {a} is None or {b} is None else True))"
        )
        if negated:
            result = self.temp()
            inside = f"(None if ({result} := {inside}) is None else not {result})"
        if binds:
            inside = f"({', '.join(binds)}, {inside})[{len(binds)}]"
        return _Text(inside, "bool3", ir)

    def _in(self, ir: IR, negated: bool, texts: List[_Text]) -> _Text:
        value, items = texts[0], texts[1:]
        item_irs = ir[2][1:]
        if all(item[0] in ("hole", "hidden") for item in item_irs):
            holes = [item[1] for item in item_irs]
            if any(item[0] == "hidden" for item in item_irs):
                members = self.once(f"frozenset(({''.join(item.text + ', ' for item in items)}))")
                has_null = self.once(f"None in {members}")
            else:
                members = self.argument(lambda values: frozenset(values[i] for i in holes) - {None})
                has_null = self.argument(lambda values: any(values[i] is None for i in holes))
            x1, x2 = self.bind(value)
            hit, miss = ("False", "True") if negated else ("True", "False")
            return _Text(
                f"(None if {x1} is None else ({hit} if {x2} in {members} "
                f"else (None if {has_null} else {miss})))",
                "bool3",
                ir,
            )
        if all(item[0] in ("hole", "param", "hidden") for item in item_irs):
            items = [(kind, data) for kind, data, __ in item_irs]
            listed = self.argument(
                lambda values: tuple(
                    (kind, values[data] if kind == "hole" else data) for kind, data in items
                )
            )
            token = self.argument(lambda values: object())
            flag = self.const(negated)
            return _Text(
                f"_in_static({value.text}, env, {token}, {listed}, {flag})", "bool3", ir
            )
        found = self.temp()
        listed = ", ".join(item.text for item in items)
        flag = self.const(negated)
        return _Text(
            f"_member({value.text}, ({found} := ({listed},)), None in {found}, {flag})",
            "bool3",
            ir,
        )

    def _insub(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        subquery, negated = data
        if subquery.correlated:
            return _Text(
                f"_member({texts[0].text}, *{self.const(subquery)}.value_set({self.row}, env), "
                f"{self.const(negated)})",
                "bool3",
                ir,
            )
        # Uncorrelated: ``(values, has_null)`` is bound to a name on first
        # use in each call of the generated function — once per row
        # function call, once per batch in a pipeline — and membership is
        # inline.
        found = self.value_sets.get(id(subquery))
        if found is None:
            found = self.value_sets[id(subquery)] = (
                f"v{len(self.value_sets)}",
                f"{self.const(subquery)}.value_set((), env)",
            )
        name, fetch = found
        values = f"({name} or ({name} := {fetch}))"
        x1, x2 = self.bind(texts[0])
        hit, miss = ("False", "True") if negated else ("True", "False")
        return _Text(
            f"((None if {values}[0] or {name}[1] else {miss}) if {x1} is None "
            f"else ({hit} if {x2} in {values}[0] else (None if {name}[1] else {miss})))",
            "bool3",
            ir,
        )

    def _exists(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        subquery, negated = data
        test = f"{self.const(subquery)}.exists({self.row}, env)"
        return _Text(f"(not {test})" if negated else test, "bool", ir)

    def _scalar(self, ir: IR, subquery: Any, texts: List[_Text]) -> _Text:
        return _Text(f"{self.const(subquery)}.scalar({self.row}, env)", None, ir)

    def _like(self, ir: IR, negated: bool, texts: List[_Text]) -> _Text:
        value, pattern = texts
        if pattern.ir[0] != "hole":
            return _Text(
                f"_like({value.text}, {pattern.text}, {self.const(negated)})", "bool3", ir
            )
        index = pattern.ir[1]
        name = self.argument(
            lambda values: None if values[index] is None else _like_regex(str(values[index]))
        )
        x1, x2 = self.bind(value)
        test = "is None" if negated else "is not None"
        return _Text(
            f"(None if {x1} is None or {name} is None "
            f"else ({name}.fullmatch(str({x2})) {test}))",
            "bool3",
            ir,
        )

    def _case(self, ir: IR, has_default: bool, texts: List[_Text]) -> _Text:
        # One flat conditional chain: nesting would cap the branch count.
        text = texts.pop().text if has_default else "None"
        for index in range(len(texts) - 2, -1, -2):
            condition = self.truth(texts[index])
            test = condition.text if condition.kind == "bool" else f"{condition.text} is True"
            text = f"{texts[index + 1].text} if {test} else {text}"
        return _Text(f"({text})", None, ir)

    def _cast(self, ir: IR, target: Any, texts: List[_Text]) -> _Text:
        return _Text(f"{self.const(converter(target))}({texts[0].text})", None, ir)

    def _coalesce(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        if not texts:
            return _Text("None", None, ir)
        text = texts[-1].text
        for arg in reversed(texts[:-1]):
            first, later = self.bind(arg)
            text = f"{later} if {first} is not None else {text}"
        return _Text(f"({text})", None, ir)

    def _nullif(self, ir: IR, data: Any, texts: List[_Text]) -> _Text:
        binds, (value, other) = self.pin(texts)
        text = f"(None if {self._compare('==', value, other)} is True else {value.text})"
        if binds:
            text = f"({', '.join(binds)}, {text})[{len(binds)}]"
        return _Text(text, None, ir)

    def _call(self, ir: IR, name: str, texts: List[_Text]) -> _Text:
        args = ", ".join(text.text for text in texts)
        return _Text(f"env.functions.bound[{self.const(name)}]({args})", None, ir)


# -- programs ----------------------------------------------------------------

#: Program shapes: what ``row`` returns.
VALUE = "value"  # row -> value
KEYS = "keys"  # row -> tuple


class Program(NamedTuple):
    """The generated functions of some expressions.

    ``row(r, env)`` evaluates them on one row; a pipeline's
    (:func:`repro.sqldb.pipelines.pipeline`) ``row(b, env, scan, state)``
    runs a whole batch.  ``exprs`` is the IR they were generated from;
    ``source`` the generated text.
    """

    row: Callable
    exprs: Tuple[IR, ...]
    source: str



def _row_dependent(ir: IR) -> bool:
    """Does *ir* need the whole row tuple (subqueries, outer rows)?  An
    uncorrelated ``IN (subquery)`` does not: its value set is fetched once
    per call of the generated function."""
    kind = ir[0]
    if kind in ("outer", "exists", "scalar") or (kind == "insub" and ir[1][0].correlated):
        return True
    for child in ir[2]:
        if _row_dependent(child):
            return True
    return False


def _test(text: _Text) -> str:
    """*text* as a Python condition: SQL TRUE."""
    return text.text if text.kind == "bool" else f"{text.text} is True"


@functools.lru_cache(maxsize=512)
def _source(exprs: Tuple[IR, ...], shape: str) -> Tuple[str, Tuple[Recipe, ...]]:
    """The module text of the templates *exprs* in *shape*, and the
    recipes of its factory's arguments."""
    emitter = _Emitter()
    by_row = [emitter.emit(ir) for ir in exprs]
    if shape == VALUE:
        result = by_row[0].text
    else:
        result = f"({''.join(text.text + ', ' for text in by_row)})"
    unfetched = "".join(f"        {name} = None\n" for name, __ in emitter.value_sets.values())
    unfetched += "".join(f"        {name} = {text}\n" for text, name in emitter.bound.items())
    arguments = ", ".join(f"k{index}" for index in range(len(emitter.recipes)))
    source = (
        f"def make({arguments}):\n    def row(r, env):\n{unfetched}"
        f"        return {result}\n    return row\n"
    )
    return source, tuple(emitter.recipes)


@functools.lru_cache(maxsize=512)
def _compile(source: str):
    """The ``make`` factory of one generated module, compiled once per
    distinct source."""
    namespace: Dict[str, Any] = {}
    exec(compile(source, "<sql expression>", "exec"), _RUNTIME, namespace)
    return namespace["make"]


def program(exprs: Sequence[IR], shape: str) -> Program:
    """Generate (or reuse) the code of *exprs* in *shape* and bind it to
    their literals: text is emitted once per template (the expressions
    with their literals taken out) and compiled once per source."""
    exprs = tuple(exprs)
    values: List[Any] = []
    try:
        templates = tuple([_template(ir, values) for ir in exprs])
        source, recipes = _source(templates, shape)
        make = _compile(source)
    except (SyntaxError, RecursionError):
        # Python's parser allows ~200 nested parentheses in one
        # expression; only a long left-deep chain is flattened.
        raise ExecutionError("expression is too deeply nested to compile") from None
    return Program(make(*[recipe(values) for recipe in recipes]), exprs, source)


def row_converter(
    arity: int,
    targets: Sequence[Tuple[int, SQLType]],
    value_rows: Sequence[Sequence[Any]],
    environment: Optional[Callable[[Sequence[Any]], Any]],
    unbound: Callable[[int, int], Exception],
) -> Callable[[Sequence[Sequence[Any]], List[tuple]], None]:
    """The generated loop ``convert(param_rows, out)`` of an INSERT.

    Per parameter row ``v`` it reads every value of *value_rows* in order
    (a ``?`` index reads ``v``, a closure ``(row, env)`` is called with
    ``env = environment(v)``; a ``?`` past the end of ``v`` raises
    ``unbound(index, len(v))``), then converts each value row to the
    *targets*' ``(position, type)`` and appends it to *out* as a tuple of
    *arity* columns, NULL where no value goes.  A value whose class
    already is its column's passes with no call (a ``str`` only within
    its length); any other goes through :func:`converter`, whose error
    stops the loop with the rows before it in *out*.  When one value row
    reads ``?`` 0, 1, ... into every column in order, a ``v`` that already
    is its stored row (a tuple of *arity* such values) is appended as it
    is.  Converters, lengths and closures are factory arguments."""
    args: Dict[str, Any] = {"environment": environment, "unbound": unbound}
    reads = ["env = environment(v)" if environment else "env = None"]
    converts: List[str] = []

    def is_stored(j: int, value: str) -> str:
        # Column *j* stores *value* as it is: of its class, a str within its length.
        fits = "" if args[f"n{j}"] is None else f" and len({value}) <= n{j}"
        return f"{value}.__class__ is k{j}{fits}"

    for j, (__, sql_type) in enumerate(targets):
        stored = STORED_CLASS.get(sql_type.name)
        args[f"c{j}"], args[f"k{j}"] = converter(sql_type), stored
        args[f"n{j}"] = sql_type.length if stored is str else None
    for r, readers in enumerate(value_rows):
        columns = ["None"] * arity
        for j, ((position, __), reader) in enumerate(zip(targets, readers)):
            a = columns[position] = f"a{r}_{j}"
            if isinstance(reader, int):
                reads.append(f"if len(v) <= {reader}: raise unbound({reader}, len(v))")
                reads.append(f"{a} = v[{reader}]")
            else:
                args[f"r{a}"] = reader
                reads.append(f"{a} = r{a}((), env)")
            converts.append(f"if not ({is_stored(j, a)}):")
            converts.append(f"    if {a} is not None: {a} = c{j}({a})")
        converts.append(f"append(({', '.join(columns)},))")
    if [list(r) for r in value_rows] == [list(range(arity))] == [[p for p, __ in targets]]:
        kept = [f"v.__class__ is tuple and len(v) == {arity}"]
        kept += [is_stored(j, f"v[{j}]") for j in range(arity)]
        reads.insert(0, f"if {' and '.join(kept)}: append(v); continue")
    body = "".join(f"            {line}\n" for line in reads + converts)
    source = (
        f"def make({', '.join(args)}):\n"
        "    def convert(param_rows, out):\n"
        "        append = out.append\n"
        "        for v in param_rows:\n"
        f"{body}"
        "    return convert\n"
    )
    return _compile(source)(*args.values())


def compile_expression(node: ast.Expression, ctx: CompileContext) -> ExprFn:
    """The row function ``(row, env) -> value`` of *node*."""
    return program([lower(node, ctx)], VALUE).row
