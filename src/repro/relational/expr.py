"""Scalar expressions for the relational engine's plans.

Expressions are built with :func:`col` / :func:`lit` and Python operator
overloading, then *bound* to a schema to produce a fast row-callable::

    predicate = (col("clus_id") == lit(3)) & (col("prob") > lit(0.1))
    fn = predicate.bind(schema)      # tuple -> bool

The executor instead *compiles* an expression against a schema into a
function over whole columns (see :mod:`repro.relational.table`)::

    vector = predicate.compile(schema)(table.columns, len(table))

A compiled node hands exact int64/float64 operands to NumPy for
``+ - * /``, comparisons, ``AND`` and ``OR``; everything else (object
columns, integer results that could leave the exact range, division by
zero, the ``Func`` nodes) applies the node's own Python callable element
by element, so each value equals what ``bind`` computes for its row.
NumPy's ``log``/``exp`` are not bit-identical to ``math``'s, and
``math`` raises on a domain error where NumPy returns NaN.

The structure is inspectable, which the optimizer uses to recognize
equi-join keys — and, faithfully to the paper (Section 7.2), to *fail*
to recognize ``t1.curPos == t2.curPos + 1`` as anything better than a
cross product.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from repro.relational.schema import Schema
from repro.relational.table import EXACT_INT, column_values

#: A compiled expression: ``(columns, row count) -> vector``, the vector
#: an int64/float64/bool array or a list of Python values.
Compiled = Callable[[list, int], "np.ndarray | list"]


class Expr:
    """Base expression node."""

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        raise NotImplementedError

    def compile(self, schema: Schema) -> Compiled:
        raise NotImplementedError

    # Arithmetic -------------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, _wrap(other), lambda a, b: a + b)

    def __radd__(self, other):
        return BinOp("+", _wrap(other), self, lambda a, b: a + b)

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other), lambda a, b: a - b)

    def __rsub__(self, other):
        return BinOp("-", _wrap(other), self, lambda a, b: a - b)

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other), lambda a, b: a * b)

    def __rmul__(self, other):
        return BinOp("*", _wrap(other), self, lambda a, b: a * b)

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other), lambda a, b: a / b)

    def __rtruediv__(self, other):
        return BinOp("/", _wrap(other), self, lambda a, b: a / b)

    # Comparisons ------------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return BinOp("=", self, _wrap(other), lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return BinOp("<>", self, _wrap(other), lambda a, b: a != b)

    def __lt__(self, other):
        return BinOp("<", self, _wrap(other), lambda a, b: a < b)

    def __le__(self, other):
        return BinOp("<=", self, _wrap(other), lambda a, b: a <= b)

    def __gt__(self, other):
        return BinOp(">", self, _wrap(other), lambda a, b: a > b)

    def __ge__(self, other):
        return BinOp(">=", self, _wrap(other), lambda a, b: a >= b)

    # Boolean ----------------------------------------------------------
    def __and__(self, other):
        return BinOp("AND", self, _wrap(other), lambda a, b: bool(a) and bool(b))

    def __or__(self, other):
        return BinOp("OR", self, _wrap(other), lambda a, b: bool(a) or bool(b))

    def __invert__(self):
        return Func("NOT", (self,), lambda a: not a)

    __hash__ = object.__hash__  # __eq__ is overloaded to build SQL, not compare


class Col(Expr):
    """A column reference, resolved the way SQL resolves names.

    Exact match first; then a qualified name (``a.x``) falls back to its
    bare suffix (``x``), and a bare name falls back to a *unique*
    qualified match (``a.x`` when no other ``*.x`` exists).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        idx = schema.resolve(self.name)
        return lambda row: row[idx]

    def compile(self, schema: Schema) -> Compiled:
        idx = schema.resolve(self.name)
        return lambda columns, n: columns[idx]

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Lit(Expr):
    """A literal constant."""

    def __init__(self, value) -> None:
        self.value = value

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        value = self.value
        return lambda row: value

    def compile(self, schema: Schema) -> Compiled:
        value = self.value
        if type(value) is int and -EXACT_INT < value < EXACT_INT:
            return lambda columns, n: np.full(n, value, dtype=np.int64)
        if type(value) is float and not math.isnan(value):
            return lambda columns, n: np.full(n, value)
        return lambda columns, n: [value] * n

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class BinOp(Expr):
    """A binary operation."""

    def __init__(self, symbol: str, left: Expr, right: Expr, fn: Callable) -> None:
        self.symbol = symbol
        self.left = left
        self.right = right
        self.fn = fn

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        lf, rf, fn = self.left.bind(schema), self.right.bind(schema), self.fn
        return lambda row: fn(lf(row), rf(row))

    def compile(self, schema: Schema) -> Compiled:
        lf, rf, fn = self.left.compile(schema), self.right.compile(schema), self.fn
        vector_op, kinds = _VECTOR_OPS.get(self.symbol, (None, ""))

        def run(columns, n):
            a, b = lf(columns, n), rf(columns, n)
            if (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                    and a.dtype.kind in kinds and b.dtype.kind in kinds):
                with np.errstate(all="ignore"):
                    out = vector_op(a, b)
                if out is not None:
                    return out
            return list(map(fn, column_values(a), column_values(b)))
        return run

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Func(Expr):
    """An n-ary scalar function application."""

    def __init__(self, name: str, args: tuple[Expr, ...], fn: Callable) -> None:
        self.name = name
        self.args = args
        self.fn = fn

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        bound = [a.bind(schema) for a in self.args]
        fn = self.fn
        return lambda row: fn(*(b(row) for b in bound))

    def compile(self, schema: Schema) -> Compiled:
        args = [a.compile(schema) for a in self.args]
        fn = self.fn
        return lambda columns, n: list(map(fn, *(column_values(a(columns, n)) for a in args)))

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


def _int_bound(vector: np.ndarray) -> int:
    return max(-int(vector.min()), int(vector.max())) if len(vector) else 0


def _exact(op, bound):
    """``op``, declining int64 operands whose result could pass 2**53
    (``bound`` combines the operands' largest magnitudes)."""
    def run(a, b):
        if (a.dtype.kind == b.dtype.kind == "i"
                and bound(_int_bound(a), _int_bound(b)) >= EXACT_INT):
            return None
        return op(a, b)
    return run


def _div(a, b):
    # Python raises ZeroDivisionError; let the element-wise path do so.
    return a / b if b.all() else None


#: symbol -> (vector op returning None to decline, operand dtype kinds).
#: Arithmetic and comparisons take int64/float64 only (NumPy adds bools
#: as logical OR); AND/OR take the truth of any numeric or bool vector.
_VECTOR_OPS = {
    "+": (_exact(np.add, operator.add), "if"),
    "-": (_exact(np.subtract, operator.add), "if"),
    "*": (_exact(np.multiply, operator.mul), "if"),
    "/": (_div, "if"),
    "=": (np.equal, "if"),
    "<>": (np.not_equal, "if"),
    "<": (np.less, "if"),
    "<=": (np.less_equal, "if"),
    ">": (np.greater, "if"),
    ">=": (np.greater_equal, "if"),
    "AND": (np.logical_and, "bif"),
    "OR": (np.logical_or, "bif"),
}


def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Lit:
    return Lit(value)


def sqrt(expr: Expr) -> Func:
    return Func("sqrt", (_wrap(expr),), math.sqrt)


def log(expr: Expr) -> Func:
    return Func("log", (_wrap(expr),), math.log)


def exp(expr: Expr) -> Func:
    return Func("exp", (_wrap(expr),), math.exp)


def absval(expr: Expr) -> Func:
    return Func("abs", (_wrap(expr),), abs)


def mod(expr: Expr, divisor: int) -> Func:
    return Func("mod", (_wrap(expr), _wrap(divisor)), lambda a, b: a % b)


def _wrap(value) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a tree of ANDs into its leaf predicates."""
    if isinstance(expr, BinOp) and expr.symbol == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def as_column_equality(expr: Expr) -> tuple[str, str] | None:
    """Recognize ``col_a == col_b`` — and nothing cleverer.

    Faithful to the paper's SimSQL optimizer quirk: an equality with
    arithmetic on either side (``t1.pos == t2.pos + 1``) is *not*
    recognized as a join key, forcing a cross product (Section 7.2).
    """
    if isinstance(expr, BinOp) and expr.symbol == "=":
        if isinstance(expr.left, Col) and isinstance(expr.right, Col):
            return expr.left.name, expr.right.name
    return None


def columns_referenced(expr: Expr) -> set[str]:
    """Every column name an expression reads."""
    if isinstance(expr, Col):
        return {expr.name}
    if isinstance(expr, BinOp):
        return columns_referenced(expr.left) | columns_referenced(expr.right)
    if isinstance(expr, Func):
        out: set[str] = set()
        for arg in expr.args:
            out |= columns_referenced(arg)
        return out
    return set()
