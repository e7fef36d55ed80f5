"""A parser for the paper's SimSQL SQL dialect (subset).

The implementation modules build their plans with the Python DSL, but
the paper writes actual SQL, e.g.::

    create view mean_prior(dim_id, dim_val) as
    select dim_id, avg(data_val)
    from data
    group by dim_id;

    with diri_res as Dirichlet
        (select clus_id, pi_prior from cluster)
    select diri_res.out_id, diri_res.prob
    from diri_res;

This module parses that surface into the same :mod:`repro.relational`
plan nodes, so SimSQL-style code can be written as strings.  Supported:

* ``SELECT expr [AS name], ...`` with arithmetic, comparisons,
  ``AND``/``OR``, function calls (``sqrt``/``log``/``exp``/``abs``) and
  the aggregates ``count(*)``/``count``/``sum``/``avg``/``min``/``max``;
* ``FROM rel [AS alias][, rel [AS alias]]...`` — names or parenthesized
  subqueries; comma joins with the ``WHERE`` predicate attached to the
  final join (two-relation queries therefore plan exactly like the
  paper's, including the cross-product quirk for non-equi predicates);
* ``WHERE predicate``;
* ``GROUP BY col, ...`` (aggregates required in the select list);
* ``WITH name AS VGFunction((subquery) [, (subquery)...])`` — each
  parenthesized subquery becomes one VG parameter, named ``p0, p1, ...``
  or per the supplied ``param_names``;
* ``CREATE VIEW name(...) AS select`` / ``CREATE TABLE name(...) AS
  select`` through :func:`execute_statement`.

Deliberately out of scope (the paper never uses them): outer joins,
HAVING, ORDER BY, nested scalar subqueries, set operations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.relational.expr import Expr, absval, col, exp as exp_fn, lit, log as log_fn, sqrt
from repro.relational.plan import GroupBy, Join, Plan, Project, RenameColumns, Scan, Select, VGOp


class SQLSyntaxError(ValueError):
    """The statement is outside the supported dialect subset."""


_TOKEN_RE = re.compile(
    r"""
    \s*(
        (?P<number>\d+\.\d+|\d+|\.\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*(\[[A-Za-z_0-9\-+ ]+\])?(\.[A-Za-z_][A-Za-z_0-9]*)?)
      | (?P<string>'[^']*')
      | (?P<op><>|<=|>=|[=<>(),;*/+\-])
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "as", "and", "or", "not",
    "with", "create", "view", "table", "avg", "sum", "count", "min", "max",
}


@dataclass(frozen=True)
class Token:
    kind: str  # number | name | string | op
    text: str

    @property
    def lowered(self) -> str:
        return self.text.lower()


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    sql = sql.strip()
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None or match.end() == position:
            raise SQLSyntaxError(f"cannot tokenize at: {sql[position:position + 20]!r}")
        for kind in ("number", "name", "string", "op"):
            text = match.group(kind)
            if text is not None:
                tokens.append(Token(kind, text))
                break
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token], vg_registry: dict | None = None) -> None:
        self.tokens = tokens
        self.position = 0
        self.vg_registry = vg_registry or {}

    # -- token helpers ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of statement")
        self.position += 1
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.lowered == text:
            self.position += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.advance()
        if token.lowered != text:
            raise SQLSyntaxError(f"expected {text!r}, got {token.text!r}")
        return token

    def at_end(self) -> bool:
        token = self.peek()
        return token is None or token.text == ";"

    # -- statements --------------------------------------------------------

    def parse_query(self) -> Plan:
        vg_plans: dict[str, Plan] = {}
        while self.accept("with"):
            name = self.advance().text
            self.expect("as")
            vg_plans[name] = self._parse_vg_call()
            self.accept(",")
        plan = self._parse_select(vg_plans)
        if not self.at_end():
            raise SQLSyntaxError(f"trailing tokens from {self.peek().text!r}")
        return plan

    def _parse_vg_call(self) -> Plan:
        vg_name = self.advance().text
        if vg_name not in self.vg_registry:
            raise SQLSyntaxError(
                f"unknown VG function {vg_name!r}; register it in vg_registry"
            )
        entry = self.vg_registry[vg_name]
        vg, param_names, group_key = entry["vg"], entry["params"], entry.get("group_key")
        self.expect("(")
        params: dict[str, Plan] = {}
        index = 0
        next_token = self.peek()
        if next_token is not None and next_token.lowered == "select":
            # Single-parameter form: Dirichlet(select ...).
            params[param_names[index]] = self._parse_select({})
            index += 1
        else:
            # Multi-parameter form: InvGaussian((select ...), (select ...)).
            while True:
                self.expect("(")
                params[param_names[index]] = self._parse_select({})
                self.expect(")")
                index += 1
                if not self.accept(","):
                    break
        self.expect(")")
        if index != len(param_names):
            raise SQLSyntaxError(
                f"{vg_name} expects {len(param_names)} parameter queries, got {index}"
            )
        return VGOp(vg, params, group_key=group_key,
                    out_scale=entry.get("out_scale"))

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self, extra_relations: dict[str, Plan]) -> Plan:
        self.expect("select")
        items = self._parse_select_list()
        self.expect("from")
        relations = self._parse_from(extra_relations)
        predicate = self._parse_expr() if self.accept("where") else None
        group_keys: list[str] | None = None
        if self.accept("group"):
            self.expect("by")
            group_keys = [self._parse_column_name()]
            while self.accept(","):
                group_keys.append(self._parse_column_name())

        plan = self._fold_joins(relations, predicate)
        aggregates = [item for item in items if item[2] is not None]
        if group_keys is not None or aggregates:
            return self._build_group_by(plan, items, group_keys or [])
        return Project(plan, [(name, expr) for name, expr, _ in items])

    def _parse_select_list(self) -> list[tuple[str, Expr, str | None]]:
        """Returns (output name, expression, aggregate kind or None)."""
        items = []
        while True:
            name, expr, agg = self._parse_select_item(len(items))
            items.append((name, expr, agg))
            if not self.accept(","):
                return items

    def _parse_select_item(self, index: int):
        agg = None
        token = self.peek()
        if token is not None and token.lowered in ("sum", "avg", "min", "max", "count") \
                and self.peek(1) is not None and self.peek(1).text == "(":
            agg = self.advance().lowered
            self.expect("(")
            if agg == "count" and self.accept("*"):
                expr = None
            else:
                expr = self._parse_expr()
                if agg == "count":
                    expr = None  # COUNT(x) counts rows like COUNT(*)
            self.expect(")")
        else:
            expr = self._parse_expr()
        if self.accept("as"):
            name = self.advance().text
        elif isinstance(expr, type(col("x"))) and expr is not None:
            name = expr.name.split(".")[-1]
        else:
            name = f"column_{index}"
        return name, expr, agg

    def _parse_from(self, extra_relations: dict[str, Plan]):
        relations: list[tuple[Plan, str | None]] = []
        while True:
            token = self.peek()
            if token is not None and token.text == "(":
                self.advance()
                sub = self._parse_select(extra_relations)
                self.expect(")")
            else:
                name = self.advance().text
                sub = extra_relations.get(name, Scan(name))
            alias = None
            next_token = self.peek()
            if self.accept("as"):
                alias = self.advance().text
            elif (next_token is not None and next_token.kind == "name"
                  and next_token.lowered not in _KEYWORDS):
                alias = self.advance().text
            if alias is not None:
                from repro.relational.plan import Alias

                sub = Alias(sub, alias)
            relations.append((sub, alias))
            if not self.accept(","):
                return [r for r, _ in relations]

    def _fold_joins(self, relations: list[Plan], predicate: Expr | None) -> Plan:
        if len(relations) == 1:
            plan = relations[0]
            return Select(plan, predicate) if predicate is not None else plan
        plan = relations[0]
        for right in relations[1:-1]:
            plan = Join(plan, right)  # cross; predicate attaches at the end
        return Join(plan, relations[-1], predicate=predicate)

    def _build_group_by(self, plan: Plan, items, group_keys: list[str]) -> Plan:
        # Project the grouping keys and aggregate inputs first so the
        # GroupBy sees simple column names.
        pre_outputs: list[tuple[str, Expr]] = []
        aggs: list[tuple[str, str, Expr | None]] = []
        key_names: list[str] = []
        for key in group_keys:
            simple = key.split(".")[-1]
            pre_outputs.append((simple, col(key)))
            key_names.append(simple)
        for slot, (name, expr, agg) in enumerate(items):
            if agg is None:
                # A plain column in an aggregate query must be a key.
                if not isinstance(expr, type(col("x"))) \
                        or expr.name.split(".")[-1] not in key_names:
                    raise SQLSyntaxError(
                        f"non-aggregated select item {name!r} is not a GROUP BY key"
                    )
                continue
            if expr is None:
                aggs.append((name, "count", None))
            else:
                input_name = f"_agg_in_{slot}"
                pre_outputs.append((input_name, expr))
                aggs.append((name, agg, col(input_name)))
        grouped = GroupBy(Project(plan, pre_outputs), keys=key_names, aggs=aggs)
        # Restore the requested output order/names.
        outputs = []
        for name, expr, agg in items:
            source = name if agg is not None else expr.name.split(".")[-1]
            outputs.append((name, col(source)))
        return Project(grouped, outputs)

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept("or"):
            left = left | self._parse_and()
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_comparison()
        while self.accept("and"):
            left = left & self._parse_comparison()
        return left

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self.peek()
        if token is not None and token.text in ("=", "<>", "<", "<=", ">", ">="):
            operator = self.advance().text
            right = self._parse_additive()
            return {
                "=": lambda a, b: a == b,
                "<>": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }[operator](left, right)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept("+"):
                left = left + self._parse_multiplicative()
            elif self.accept("-"):
                left = left - self._parse_multiplicative()
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self.accept("*"):
                left = left * self._parse_unary()
            elif self.accept("/"):
                left = left / self._parse_unary()
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self.accept("-"):
            return lit(0.0) - self._parse_unary()
        return self._parse_primary()

    _FUNCTIONS = {"sqrt": sqrt, "log": log_fn, "exp": exp_fn, "abs": absval}

    def _parse_primary(self) -> Expr:
        token = self.advance()
        if token.text == "(":
            inner = self._parse_expr()
            self.expect(")")
            return inner
        if token.kind == "number":
            value = float(token.text)
            return lit(int(value) if value.is_integer() and "." not in token.text else value)
        if token.kind == "string":
            return lit(token.text[1:-1])
        if token.kind == "name":
            if token.lowered in self._FUNCTIONS and self.accept("("):
                inner = self._parse_expr()
                self.expect(")")
                return self._FUNCTIONS[token.lowered](inner)
            return col(token.text)
        raise SQLSyntaxError(f"unexpected token {token.text!r} in expression")

    def _parse_column_name(self) -> str:
        token = self.advance()
        if token.kind != "name":
            raise SQLSyntaxError(f"expected a column name, got {token.text!r}")
        return token.text


def parse_query(sql: str, vg_registry: dict | None = None) -> Plan:
    """Parse one SELECT (optionally with a WITH...VG prefix) into a plan.

    ``vg_registry`` maps VG-function names appearing in the SQL to
    ``{"vg": VGFunction, "params": [param names in call order],
    "group_key": optional, "out_scale": optional}``.
    """
    return _Parser(tokenize(sql), vg_registry).parse_query()


def execute_statement(db, sql: str, vg_registry: dict | None = None):
    """Execute one statement against a database.

    ``CREATE VIEW name(...) AS select`` defines a view; ``CREATE TABLE
    name(...) AS select`` materializes the query under ``name``; a bare
    ``SELECT`` returns its result table.
    """
    parser = _Parser(tokenize(sql), vg_registry)
    if parser.accept("create"):
        materialize = False
        if parser.accept("table"):
            materialize = True
        else:
            parser.expect("view")
        name = parser.advance().text
        columns: list[str] = []
        if parser.accept("("):
            columns.append(parser.advance().text)
            while parser.accept(","):
                columns.append(parser.advance().text)
            parser.expect(")")
        parser.expect("as")
        plan = parser.parse_query()
        if columns:
            plan = RenameColumns(plan, tuple(columns))
        if materialize:
            result = db.query(plan)
            db.store(name, result)
            return result
        db.create_view(name, plan)
        return None
    plan = parser.parse_query()
    return db.query(plan)

