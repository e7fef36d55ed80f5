"""Logical plan nodes for the relational engine.

Plans are built with a small Python DSL (the paper's SQL for each plan
is quoted in the implementation modules' docstrings).  The optimizer
annotates join strategies; the executor evaluates the tree bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.expr import Expr


class Plan:
    """Base class of all plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()


@dataclass
class Scan(Plan):
    """Read a stored table or view by name."""

    table: str


@dataclass
class Alias(Plan):
    """Prefix every output column with ``<alias>.`` (for self-joins)."""

    child: Plan
    alias: str

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class Select(Plan):
    """Filter rows by a predicate."""

    child: Plan
    predicate: Expr

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class Project(Plan):
    """Compute output columns ``[(name, expr), ...]`` per row."""

    child: Plan
    outputs: list[tuple[str, Expr]]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class Join(Plan):
    """Inner join with an arbitrary predicate.

    ``strategy`` is filled in by the optimizer: ``"hash"`` when the
    predicate is a conjunction of plain column equalities, ``"cross"``
    otherwise (nested-loop over the full cross product — the paper's
    Section 7.2 failure mode).
    """

    left: Plan
    right: Plan
    predicate: Expr | None = None
    strategy: str = ""
    equi_keys: list[tuple[str, str]] = field(default_factory=list)
    residual: Expr | None = None
    #: Scale group of the output cardinality; ``None`` lets the executor
    #: infer it (same-group equi joins keep their group, a FIXED side is
    #: absorbed, mixed groups multiply).
    out_scale: str | None = None

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


@dataclass
class GroupBy(Plan):
    """Hash aggregation.

    ``aggs`` entries are ``(output_name, kind, expr)`` with kind one of
    ``sum | count | avg | min | max``; ``expr`` is ignored for count.
    With no keys, a single global aggregate row is produced.
    """

    child: Plan
    keys: list[str]
    aggs: list[tuple[str, str, Expr | None]]
    #: Scale group of the *group count*.  ``None`` infers: when the
    #: observed group count is much smaller than the input, combining is
    #: effective and the group count is treated as FIXED; otherwise the
    #: groups scale with the input.
    out_scale: str | None = None

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class RenameColumns(Plan):
    """Positionally rename the child's output columns (the declared
    column list of ``CREATE VIEW name(a, b, ...)``)."""

    child: Plan
    columns: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class Union(Plan):
    """Bag union of same-schema inputs."""

    inputs: list[Plan]

    def children(self) -> tuple[Plan, ...]:
        return tuple(self.inputs)


@dataclass
class Distinct(Plan):
    """Duplicate elimination (a degenerate aggregation)."""

    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


@dataclass
class VGOp(Plan):
    """Invoke a variable-generation (VG) function.

    SimSQL's signature feature (Section 4.2): a randomized table-valued
    function parameterized by one or more input queries.  With a
    ``group_key`` the input rows are partitioned by that column and the
    function is invoked once per group (the paper's ``FOR EACH r IN``
    construct); the group key is prepended to every output row.
    Parameter tables lacking the key are broadcast to every group.

    ``out_scale`` names the scale group of the *output cardinality*
    (e.g. one membership row per data point is data-scaled).
    """

    vg: object  # VGFunction; typed loosely to avoid an import cycle
    params: dict[str, Plan]
    group_key: str | None = None
    out_scale: str | None = None
    #: Scale group of the VG's internal FLOPs when it differs from the
    #: invocation count's (a super-vertex VG is invoked once per block
    #: but does data-proportional work inside).
    flops_scale: str | None = None

    def children(self) -> tuple[Plan, ...]:
        return tuple(self.params.values())
