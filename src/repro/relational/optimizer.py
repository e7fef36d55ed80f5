"""Rule-based plan optimizer, SimSQL-quirk included.

The only decision that matters for the paper's findings is the join
strategy: a conjunction of *plain column equalities* becomes a
repartition hash join; anything else — crucially, an equality with
arithmetic on one side such as ``t1.curPos = t2.curPos + 1`` — is
"implemented inefficiently as a cross-product" (paper, Section 7.2).
The HMM implementation works around it exactly as the paper describes:
by storing ``nextPos`` explicitly so the join predicate becomes a plain
equality.
"""

from __future__ import annotations

from repro.relational.expr import Expr, as_column_equality, conjuncts
from repro.relational.plan import (
    Alias,
    Distinct,
    GroupBy,
    Join,
    Plan,
    Project,
    RenameColumns,
    Scan,
    Select,
    Union,
    VGOp,
)


def optimize(plan: Plan) -> Plan:
    """Annotate every join in the tree with a physical strategy."""
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, Alias):
        return Alias(optimize(plan.child), plan.alias)
    if isinstance(plan, Select):
        return Select(optimize(plan.child), plan.predicate)
    if isinstance(plan, Project):
        return Project(optimize(plan.child), plan.outputs)
    if isinstance(plan, Distinct):
        return Distinct(optimize(plan.child))
    if isinstance(plan, Union):
        return Union([optimize(p) for p in plan.inputs])
    if isinstance(plan, GroupBy):
        return GroupBy(optimize(plan.child), plan.keys, plan.aggs, out_scale=plan.out_scale)
    if isinstance(plan, VGOp):
        return VGOp(
            plan.vg,
            {name: optimize(p) for name, p in plan.params.items()},
            group_key=plan.group_key,
            out_scale=plan.out_scale,
            flops_scale=plan.flops_scale,
        )
    if isinstance(plan, Join):
        return _plan_join(plan)
    if isinstance(plan, RenameColumns):
        return RenameColumns(optimize(plan.child), plan.columns)
    raise TypeError(f"unknown plan node {type(plan).__name__}")


def _plan_join(join: Join) -> Join:
    left = optimize(join.left)
    right = optimize(join.right)
    if join.predicate is None:
        return Join(left, right, None, strategy="cross", out_scale=join.out_scale)

    equi_keys: list[tuple[str, str]] = []
    residual: list[Expr] = []
    for predicate in conjuncts(join.predicate):
        pair = as_column_equality(predicate)
        if pair is not None:
            equi_keys.append(pair)
        else:
            residual.append(predicate)

    if equi_keys:
        residual_expr = _conjoin(residual)
        return Join(
            left, right, join.predicate,
            strategy="hash", equi_keys=equi_keys, residual=residual_expr,
            out_scale=join.out_scale,
        )
    # No recognizable key: the SimSQL cross-product quirk.
    return Join(
        left, right, join.predicate,
        strategy="cross", residual=join.predicate, out_scale=join.out_scale,
    )


def _conjoin(predicates: list[Expr]) -> Expr | None:
    if not predicates:
        return None
    out = predicates[0]
    for predicate in predicates[1:]:
        out = out & predicate
    return out
