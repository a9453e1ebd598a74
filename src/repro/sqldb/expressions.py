"""Compile expression ASTs into executable closures.

Compilation resolves every column reference to a slot index at plan time
(:class:`Scope`), so evaluation is a straight tuple lookup.  References
that do not resolve in the current scope are searched in the enclosing
subquery frames; such references compile to reads of the runtime
outer-row stack and mark every frame they cross as *correlated*, which is
what disables result caching for the affected subqueries.

All predicates follow SQL three-valued logic: closures return ``True``,
``False`` or ``None`` (UNKNOWN); only ``True`` keeps a row.

Columnar kernels
----------------
Besides the row closure ``(row, env) -> value``, compilation attaches a
*columnar kernel* ``(batch, env) -> list`` as the closure's ``vector``
attribute whenever the expression shape supports one.  Kernels evaluate a
whole :class:`repro.sqldb.columnar.Batch` per call, hoisting the dispatch
that the row closure pays per tuple out to once per batch; they must be
*semantically identical* to the row closure over the same rows (same
values, same NULL handling, same error classes).  Two rules keep that
contract honest:

* AND/OR kernels **mask**: the right operand is evaluated only on the
  rows the row executor would have evaluated it on (left not-False for
  AND, left not-True for OR), so data-dependent errors — ``a <> 0 AND
  10 / a > 2`` — surface on exactly the same rows in both executors.
* Column-at-a-time evaluation may order two *independent* errors
  differently than row-at-a-time (the left column is finished before the
  right column starts).  Both executors still raise an
  :class:`~repro.errors.SQLError`; the differential harness pins exactly
  that contract.

Expressions without a kernel (CASE, function calls, subqueries, outer
references) simply lack the attribute; batch operators fall back to
evaluating the row closure over the batch's row view, which is identical
by construction.
"""

from __future__ import annotations

import operator as _py_operator
import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, ExecutionError, SQLError, TypeMismatchError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.functions import AGGREGATE_NAMES
from repro.sqldb.types import (
    compare_values,
    converter,
    is_null,
    logical_and,
    logical_not,
    logical_or,
)

ExprFn = Callable[[Tuple[Any, ...], Any], Any]

#: Columnar kernel: evaluate the expression over a whole column batch.
VectorFn = Callable[[Any, Any], List[Any]]


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
    """Everything :func:`compile_expression` needs.

    ``frames`` is the stack of subquery frames, innermost last.
    ``plan_subquery`` is the planner callback used for subquery
    expressions; it returns an object with ``exists/value_list/scalar``
    runtime methods (see :class:`repro.sqldb.planner.CompiledSubquery`).
    """

    def __init__(self, frames: List[Frame], plan_subquery, functions) -> None:
        self.frames = frames
        self.plan_subquery = plan_subquery
        self.functions = functions

    @property
    def scope(self) -> Scope:
        return self.frames[-1].scope

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


def _attach_kernel(
    fn: ExprFn, kernel: VectorFn, column_slot: Optional[int] = None
) -> ExprFn:
    """Attach a columnar kernel (and optional slot tag) to a row closure.

    ``column_slot`` marks closures that are a bare read of one input slot;
    IS [NOT] NULL uses it to answer from the batch's cached validity mask
    instead of scanning the column.
    """
    setattr(fn, "vector", kernel)
    if column_slot is not None:
        setattr(fn, "column_slot", column_slot)
    return fn


def vector_kernel(fn: ExprFn) -> Optional[VectorFn]:
    """The columnar kernel of a compiled expression, if it has one."""
    return getattr(fn, "vector", None)


def as_kernel(fn: ExprFn) -> VectorFn:
    """A kernel for *fn*, falling back to a row loop over the batch.

    The fallback evaluates the row closure itself over the batch's row
    view, so it is semantically identical to the row executor no matter
    what the expression contains (subqueries included) — just without the
    columnar speedup.
    """
    kernel = vector_kernel(fn)
    if kernel is not None:
        return kernel

    def row_loop(batch, env):
        return [fn(row, env) for row in batch.rows()]

    return row_loop


def _slot_reader(index: int) -> ExprFn:
    """Read one input slot: the hottest expression in any plan."""

    def read(row, env):
        return row[index]

    def read_kernel(batch, env):
        return batch.columns[index]

    return _attach_kernel(read, read_kernel, column_slot=index)


def compile_expression(node: ast.Expression, ctx: CompileContext) -> ExprFn:
    """Compile *node* into a closure ``(row, env) -> value``.

    Where the expression shape has a columnar implementation the closure
    also carries a ``vector`` attribute — a kernel ``(batch, env) ->
    list`` evaluating the whole batch (see module docstring).
    """
    if isinstance(node, SlotRef):
        return _slot_reader(node.index)
    if isinstance(node, ast.Literal):
        value = node.value

        def literal(row, env):
            return value

        def literal_kernel(batch, env):
            return [value] * batch.length

        return _attach_kernel(literal, literal_kernel)
    if isinstance(node, ast.Parameter):
        index = node.index

        def parameter(row, env):
            return env.parameter(index)

        def parameter_kernel(batch, env):
            return [env.parameter(index)] * batch.length

        return _attach_kernel(parameter, parameter_kernel)
    if isinstance(node, ast.ColumnRef):
        depth, slot = ctx.resolve_column(node)
        if depth == 0:
            return _slot_reader(slot)
        # Outer reference: only reachable inside subquery plans, which are
        # never vectorized as part of the enclosing plan — no kernel.
        return lambda row, env: env.outer_rows[-depth][slot]
    if isinstance(node, ast.UnaryOp):
        return _compile_unary(node, ctx)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, ctx)
    if isinstance(node, ast.FunctionCall):
        return _compile_call(node, ctx)
    if isinstance(node, ast.Cast):
        operand = compile_expression(node.operand, ctx)
        convert = converter(node.target)

        def cast(row, env):
            return convert(operand(row, env))

        operand_kernel = vector_kernel(operand)
        if operand_kernel is not None:

            def cast_kernel(batch, env):
                return list(map(convert, operand_kernel(batch, env)))

            return _attach_kernel(cast, cast_kernel)
        return cast
    if isinstance(node, ast.IsNullTest):
        return _compile_is_null(node, ctx)
    if isinstance(node, ast.InList):
        return _compile_in_list(node, ctx)
    if isinstance(node, ast.InSubquery):
        return _compile_in_subquery(node, ctx)
    if isinstance(node, ast.ExistsTest):
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        if node.negated:
            return lambda row, env: not subquery.exists(row, env)
        return lambda row, env: subquery.exists(row, env)
    if isinstance(node, ast.ScalarSubquery):
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        return lambda row, env: subquery.scalar(row, env)
    if isinstance(node, ast.Between):
        return _compile_between(node, ctx)
    if isinstance(node, ast.Like):
        return _compile_like(node, ctx)
    if isinstance(node, ast.CaseWhen):
        return _compile_case(node, ctx)
    raise ExecutionError(f"cannot compile {type(node).__name__}")


def to_bool(value: Any) -> Optional[bool]:
    """Interpret a value in boolean context (NULL stays UNKNOWN)."""
    if is_null(value):
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    raise TypeMismatchError(f"{value!r} is not a boolean")


def _compile_unary(node: ast.UnaryOp, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    operand_kernel = as_kernel(operand)
    if node.operator == "NOT":

        def not_fn(row, env):
            return logical_not(to_bool(operand(row, env)))

        def not_kernel(batch, env):
            return [logical_not(to_bool(value)) for value in operand_kernel(batch, env)]

        return _attach_kernel(not_fn, not_kernel)
    if node.operator == "-":

        def negate(row, env):
            value = operand(row, env)
            return None if is_null(value) else -value

        def negate_kernel(batch, env):
            return [
                None if value is None else -value
                for value in operand_kernel(batch, env)
            ]

        return _attach_kernel(negate, negate_kernel)
    if node.operator == "+":
        return operand
    raise ExecutionError(f"unknown unary operator {node.operator!r}")


_COMPARISONS = {
    "=": lambda cmp: cmp == 0,
    "<>": lambda cmp: cmp != 0,
    "<": lambda cmp: cmp < 0,
    "<=": lambda cmp: cmp <= 0,
    ">": lambda cmp: cmp > 0,
    ">=": lambda cmp: cmp >= 0,
}

#: Direct Python comparison per SQL operator — identical to deciding on
#: the sign of :func:`compare_values` once both operands are known to be
#: the same kind (both numeric or both strings).
_VEC_COMPARISONS = {
    "=": _py_operator.eq,
    "<>": _py_operator.ne,
    "<": _py_operator.lt,
    "<=": _py_operator.le,
    ">": _py_operator.gt,
    ">=": _py_operator.ge,
}

#: Ordering comparisons can run as a bare C-level ``map``: every case the
#: careful path treats specially (NULL operands, number-vs-string) raises
#: TypeError under ``<``/``>`` in Python, which triggers the fallback.
#: Equality cannot (``None == 5`` is False, not an error), so ``=``/``<>``
#: need the type precheck instead.
_VEC_ORDERING = frozenset(("<", "<=", ">", ">="))

_NUMERIC_KINDS = frozenset((int, float, bool))
_STRING_KINDS = frozenset((str,))
_BOOLEAN_KINDS = frozenset((bool, type(None)))
_NONE_TYPE = type(None)


def _column_kinds(*columns: List[Any]) -> set:
    """The exact element types present across *columns* (one C pass each)."""
    kinds: set = set()
    for column in columns:
        kinds.update(map(type, column))
    return kinds


def _bool_column(values: List[Any]) -> List[Optional[bool]]:
    """Apply :func:`to_bool` to a column, skipping the per-element calls
    when the column is already three-valued booleans (the common case —
    comparison kernels produce exactly that)."""
    if _column_kinds(values) <= _BOOLEAN_KINDS:
        return values
    return [to_bool(value) for value in values]


def _compile_binary(node: ast.BinaryOp, ctx: CompileContext) -> ExprFn:
    operator = node.operator
    if operator == "AND":
        left = compile_expression(node.left, ctx)
        right = compile_expression(node.right, ctx)

        def and_fn(row, env):
            left_value = to_bool(left(row, env))
            if left_value is False:
                return False
            return logical_and(left_value, to_bool(right(row, env)))

        left_kernel = as_kernel(left)
        right_kernel = as_kernel(right)

        def and_kernel(batch, env):
            # Masked evaluation: the right operand runs only on rows where
            # the left side did not already decide False, mirroring the row
            # closure's short-circuit — including which rows can raise.
            left_bools = _bool_column(left_kernel(batch, env))
            out: List[Optional[bool]] = [False] * batch.length
            pending = [i for i, value in enumerate(left_bools) if value is not False]
            if pending:
                sub = batch if len(pending) == batch.length else batch.gather(pending)
                right_bools = _bool_column(right_kernel(sub, env))
                # Inlined logical_and with the left side known not-False:
                # TRUE AND r = r;  UNKNOWN AND r = FALSE if r FALSE else UNKNOWN.
                for position, i in enumerate(pending):
                    right_value = right_bools[position]
                    if left_bools[i] is True:
                        out[i] = right_value
                    elif right_value is False:
                        out[i] = False
                    else:
                        out[i] = None
            return out

        return _attach_kernel(and_fn, and_kernel)
    if operator == "OR":
        left = compile_expression(node.left, ctx)
        right = compile_expression(node.right, ctx)

        def or_fn(row, env):
            left_value = to_bool(left(row, env))
            if left_value is True:
                return True
            return logical_or(left_value, to_bool(right(row, env)))

        left_kernel = as_kernel(left)
        right_kernel = as_kernel(right)

        def or_kernel(batch, env):
            left_bools = _bool_column(left_kernel(batch, env))
            out: List[Optional[bool]] = [True] * batch.length
            pending = [i for i, value in enumerate(left_bools) if value is not True]
            if pending:
                sub = batch if len(pending) == batch.length else batch.gather(pending)
                right_bools = _bool_column(right_kernel(sub, env))
                # Inlined logical_or with the left side known not-True:
                # FALSE OR r = r;  UNKNOWN OR r = TRUE if r TRUE else UNKNOWN.
                for position, i in enumerate(pending):
                    right_value = right_bools[position]
                    if left_bools[i] is False:
                        out[i] = right_value
                    elif right_value is True:
                        out[i] = True
                    else:
                        out[i] = None
            return out

        return _attach_kernel(or_fn, or_kernel)
    left = compile_expression(node.left, ctx)
    right = compile_expression(node.right, ctx)
    if operator in _COMPARISONS:
        decide = _COMPARISONS[operator]
        compare = _slot_literal_compare(node, left, right)
        if compare is None:

            def compare(row, env):
                result = compare_values(left(row, env), right(row, env))
                return None if result is None else decide(result)

        left_kernel = as_kernel(left)
        right_kernel = as_kernel(right)
        direct = _VEC_COMPARISONS[operator]
        ordering = operator in _VEC_ORDERING

        def compare_kernel(batch, env):
            left_values = left_kernel(batch, env)
            right_values = right_kernel(batch, env)
            # Optimistic C-level pass over both columns; any case needing
            # SQL semantics (NULL, cross-kind) drops to the careful loop.
            if ordering:
                try:
                    return list(map(direct, left_values, right_values))
                except TypeError:
                    pass
            else:
                kinds = _column_kinds(left_values, right_values)
                if _NONE_TYPE not in kinds and (
                    kinds <= _NUMERIC_KINDS or kinds <= _STRING_KINDS
                ):
                    return list(map(direct, left_values, right_values))
            out: List[Optional[bool]] = []
            append = out.append
            for left_value, right_value in zip(left_values, right_values):
                if left_value is None or right_value is None:
                    append(None)
                elif isinstance(left_value, (int, float)) != isinstance(
                    right_value, (int, float)
                ):
                    # Same type discipline as compare_values (bool counts
                    # as numeric there too, being an int subclass).
                    raise TypeMismatchError(
                        f"cannot compare {type(left_value).__name__} "
                        f"with {type(right_value).__name__}"
                    )
                else:
                    append(direct(left_value, right_value))
            return out

        return _attach_kernel(compare, compare_kernel)
    if operator in ("+", "-", "*", "/", "%"):
        return _arithmetic(operator, left, right)
    if operator == "||":

        def concat(row, env):
            left_value = left(row, env)
            right_value = right(row, env)
            if is_null(left_value) or is_null(right_value):
                return None
            return str(left_value) + str(right_value)

        left_kernel = as_kernel(left)
        right_kernel = as_kernel(right)

        def concat_kernel(batch, env):
            return [
                None
                if left_value is None or right_value is None
                else str(left_value) + str(right_value)
                for left_value, right_value in zip(
                    left_kernel(batch, env), right_kernel(batch, env)
                )
            ]

        return _attach_kernel(concat, concat_kernel)
    raise ExecutionError(f"unknown operator {operator!r}")


#: The operator that reads ``b <op'> a`` for ``a <op> b``.
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _slot_literal_compare(
    node: ast.BinaryOp, left: ExprFn, right: ExprFn
) -> Optional[ExprFn]:
    """The row closure of ``column <op> literal`` (either side), or None
    for any other comparison.

    :func:`compare_values` spelt out inline against the one constant, so
    a row filter costs one call instead of five; same sign rule, same
    NULL and type-mismatch outcomes.  The row operators run every
    index-join plan, whose pushed filters are mostly of this shape."""
    if isinstance(node.right, ast.Literal):
        slot = getattr(left, "column_slot", None)
        literal = node.right.value
        decide = _COMPARISONS[node.operator]
        column_first = True
    elif isinstance(node.left, ast.Literal):
        slot = getattr(right, "column_slot", None)
        literal = node.left.value
        decide = _COMPARISONS[_MIRRORED[node.operator]]
        column_first = False
    else:
        return None
    if slot is None or literal is None:
        return None
    numeric = isinstance(literal, (int, float))

    def compare(row, env):
        value = row[slot]
        if value is None:
            return None
        if isinstance(value, (int, float)) is not numeric:
            names = [type(value).__name__, type(literal).__name__]
            if not column_first:
                names.reverse()
            raise TypeMismatchError(f"cannot compare {names[0]} with {names[1]}")
        return decide(-1 if value < literal else 1 if value > literal else 0)

    return compare


def _arith_value(operator: str, left_value: Any, right_value: Any) -> Any:
    """One arithmetic application — shared by the row closure and kernel
    so NULL propagation, the type check and error classes cannot drift."""
    if left_value is None or right_value is None:
        return None
    if not isinstance(left_value, (int, float)) or not isinstance(
        right_value, (int, float)
    ):
        raise TypeMismatchError(
            f"arithmetic on non-numeric values "
            f"{left_value!r} {operator} {right_value!r}"
        )
    try:
        if operator == "+":
            return left_value + right_value
        if operator == "-":
            return left_value - right_value
        if operator == "*":
            return left_value * right_value
        if operator == "/":
            if isinstance(left_value, int) and isinstance(right_value, int):
                # SQL integer division truncates toward zero.
                return int(left_value / right_value)
            return left_value / right_value
        return left_value % right_value
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None


_VEC_ARITHMETIC = {
    "+": _py_operator.add,
    "-": _py_operator.sub,
    "*": _py_operator.mul,
}


def _arithmetic(operator: str, left: ExprFn, right: ExprFn) -> ExprFn:
    def apply(row, env):
        return _arith_value(operator, left(row, env), right(row, env))

    left_kernel = as_kernel(left)
    right_kernel = as_kernel(right)
    # + - * on all-numeric NULL-free columns are a single C-level map;
    # / and % stay per-element (integer division truncates toward zero
    # and zero divisors must surface as ExecutionError in row order).
    fast = _VEC_ARITHMETIC.get(operator)

    def apply_kernel(batch, env):
        left_values = left_kernel(batch, env)
        right_values = right_kernel(batch, env)
        if fast is not None and _column_kinds(
            left_values, right_values
        ) <= _NUMERIC_KINDS:
            return list(map(fast, left_values, right_values))
        return [
            _arith_value(operator, left_value, right_value)
            for left_value, right_value in zip(left_values, right_values)
        ]

    return _attach_kernel(apply, apply_kernel)


def _compile_is_null(node: ast.IsNullTest, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    if node.negated:

        def not_null_fn(row, env):
            return not is_null(operand(row, env))

        fn = not_null_fn
    else:

        def null_fn(row, env):
            return is_null(operand(row, env))

        fn = null_fn
    slot = getattr(operand, "column_slot", None)
    if slot is not None:
        # Bare column: answer straight from the cached validity mask.
        if node.negated:

            def valid_kernel(batch, env):
                return batch.validity(slot)

            return _attach_kernel(fn, valid_kernel)

        def invalid_kernel(batch, env):
            return [not valid for valid in batch.validity(slot)]

        return _attach_kernel(fn, invalid_kernel)
    operand_kernel = vector_kernel(operand)
    if operand_kernel is None:
        return fn
    if node.negated:

        def not_null_kernel(batch, env):
            return [value is not None for value in operand_kernel(batch, env)]

        return _attach_kernel(fn, not_null_kernel)

    def null_kernel(batch, env):
        return [value is None for value in operand_kernel(batch, env)]

    return _attach_kernel(fn, null_kernel)


def _compile_call(node: ast.FunctionCall, ctx: CompileContext) -> ExprFn:
    name = node.name.upper()
    if name in AGGREGATE_NAMES:
        raise ExecutionError(
            f"aggregate function {name} used outside of a grouped query context"
        )
    if name == "COALESCE":
        args = [compile_expression(arg, ctx) for arg in node.args]

        def coalesce(row, env):
            for arg in args:
                value = arg(row, env)
                if not is_null(value):
                    return value
            return None

        return coalesce
    if name == "NULLIF":
        if len(node.args) != 2:
            raise ExecutionError("NULLIF takes exactly two arguments")
        first = compile_expression(node.args[0], ctx)
        second = compile_expression(node.args[1], ctx)

        def nullif(row, env):
            value = first(row, env)
            if compare_values(value, second(row, env)) == 0:
                return None
            return value

        return nullif
    args = [compile_expression(arg, ctx) for arg in node.args]

    def call(row, env):
        return env.functions.call(name, [arg(row, env) for arg in args])

    return call


def _compile_in_list(node: ast.InList, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    negated = node.negated
    # Fast path: a list of literals/parameters is row-independent, so the
    # membership set can be built once per execution.  This matters for the
    # bulk check-out statements (``WHERE obid IN (?, ?, ..thousands..)``),
    # where the naive per-row linear scan would be quadratic.
    if all(
        isinstance(item, (ast.Literal, ast.Parameter)) for item in node.items
    ):
        item_fns = [compile_expression(item, ctx) for item in node.items]
        cache_token = object()

        def _membership_set(env):
            cached = env.subquery_cache.get(cache_token)
            if cached is None:
                values = set()
                has_null = False
                for fn in item_fns:
                    # Items are literals/parameters: row-independent.
                    item_value = fn((), env)
                    if is_null(item_value):
                        has_null = True
                    else:
                        values.add(item_value)
                cached = (values, has_null)
                env.subquery_cache[cache_token] = cached
            return cached

        def _decide(value, values, has_null):
            if is_null(value):
                result: Optional[bool] = None if (values or has_null) else False
            elif value in values:
                result = True
            elif has_null:
                result = None
            else:
                result = False
            return logical_not(result) if negated else result

        def contains_static(row, env):
            values, has_null = _membership_set(env)
            return _decide(operand(row, env), values, has_null)

        operand_kernel = as_kernel(operand)

        def contains_static_kernel(batch, env):
            values, has_null = _membership_set(env)
            return [
                _decide(value, values, has_null)
                for value in operand_kernel(batch, env)
            ]

        return _attach_kernel(contains_static, contains_static_kernel)
    items = [compile_expression(item, ctx) for item in node.items]

    def contains(row, env):
        value = operand(row, env)
        result: Optional[bool] = False
        for item in items:
            comparison = compare_values(value, item(row, env))
            if comparison == 0:
                result = True
                break
            if comparison is None:
                result = None
        return logical_not(result) if negated else result

    return contains


def _compile_in_subquery(node: ast.InSubquery, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    subquery = ctx.plan_subquery(node.subquery, ctx.frames)
    negated = node.negated

    def contains(row, env):
        value = operand(row, env)
        values, has_null = subquery.value_set(row, env)
        if not is_null(value) and value in values:
            result: Optional[bool] = True
        elif is_null(value) and (values or has_null):
            result = None
        elif has_null:
            result = None
        else:
            result = False
        return logical_not(result) if negated else result

    return contains


def _compile_between(node: ast.Between, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    low = compile_expression(node.low, ctx)
    high = compile_expression(node.high, ctx)
    negated = node.negated

    def _decide(value, low_value, high_value):
        low_cmp = compare_values(value, low_value)
        high_cmp = compare_values(value, high_value)
        above_low = None if low_cmp is None else low_cmp >= 0
        below_high = None if high_cmp is None else high_cmp <= 0
        result = logical_and(above_low, below_high)
        return logical_not(result) if negated else result

    def between(row, env):
        return _decide(operand(row, env), low(row, env), high(row, env))

    operand_kernel = as_kernel(operand)
    low_kernel = as_kernel(low)
    high_kernel = as_kernel(high)

    def between_kernel(batch, env):
        values = operand_kernel(batch, env)
        lows = low_kernel(batch, env)
        highs = high_kernel(batch, env)
        # C-level pass when the three columns are all numeric or all
        # strings without NULLs (compare_kernel's precheck): ``low <= v``
        # and ``v <= high`` are then exactly the signs compare_values
        # decides on.  Anything else keeps the careful loop and its errors.
        kinds = _column_kinds(values, lows, highs)
        if _NONE_TYPE not in kinds and (
            kinds <= _NUMERIC_KINDS or kinds <= _STRING_KINDS
        ):
            inside = list(
                map(
                    _py_operator.and_,
                    map(_py_operator.le, lows, values),
                    map(_py_operator.le, values, highs),
                )
            )
            return list(map(_py_operator.not_, inside)) if negated else inside
        return [
            _decide(value, low_value, high_value)
            for value, low_value, high_value in zip(values, lows, highs)
        ]

    return _attach_kernel(between, between_kernel)


def _compile_like(node: ast.Like, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    pattern = compile_expression(node.pattern, ctx)
    negated = node.negated
    cache: dict = {}

    def _match(value, pattern_value):
        if is_null(value) or is_null(pattern_value):
            return None
        regex = cache.get(pattern_value)
        if regex is None:
            regex = _like_to_regex(str(pattern_value))
            cache[pattern_value] = regex
        result = regex.fullmatch(str(value)) is not None
        return (not result) if negated else result

    def like(row, env):
        return _match(operand(row, env), pattern(row, env))

    operand_kernel = as_kernel(operand)
    pattern_kernel = as_kernel(pattern)

    def like_kernel(batch, env):
        return [
            _match(value, pattern_value)
            for value, pattern_value in zip(
                operand_kernel(batch, env), pattern_kernel(batch, env)
            )
        ]

    return _attach_kernel(like, like_kernel)


def _like_to_regex(pattern: str) -> "re.Pattern":
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _compile_case(node: ast.CaseWhen, ctx: CompileContext) -> ExprFn:
    branches = [
        (compile_expression(condition, ctx), compile_expression(value, ctx))
        for condition, value in node.branches
    ]
    default = (
        compile_expression(node.default, ctx) if node.default is not None else None
    )

    def case(row, env):
        for condition, value in branches:
            if to_bool(condition(row, env)) is True:
                return value(row, env)
        if default is not None:
            return default(row, env)
        return None

    return case


def contains_aggregate(node: ast.Expression) -> bool:
    """True if *node* contains an aggregate call outside any subquery."""
    for sub in ast.walk_expression(node):
        if isinstance(sub, ast.FunctionCall) and sub.name.upper() in AGGREGATE_NAMES:
            return True
    return False
