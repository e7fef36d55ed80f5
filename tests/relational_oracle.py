"""The tuple-at-a-time relational executor: the reference the columnar
``repro.relational.executor`` must match.

Every row of every intermediate result exists as a Python tuple and
every expression is evaluated per row through ``Expr.bind``.  The cost
events are emitted exactly where the columnar executor emits them, so a
test can swap :class:`OracleExecutor` into ``repro.relational.database``
and compare event streams, VG draws and stored tables bitwise.
"""

from __future__ import annotations

import numpy as np

from repro import fastpath
from repro.cluster.costmodel import combine_scales
from repro.cluster.events import FIXED, Kind, Site
from repro.relational.executor import COMBINE_EFFECTIVE_FRACTION
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
from repro.relational.schema import Schema
from repro.relational.table import Table


def canonical(value):
    """A bitwise, type-exact stand-in for a stored value (``-0.0`` and
    ``0.0`` differ, ``1`` and ``1.0`` differ, every NaN is equal)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    return (type(value).__name__, value)


def _table(schema, rows, scale) -> Table:
    return Table.from_rows("", schema, rows, scale)


class OracleExecutor:
    """Evaluates optimized plans tuple-at-a-time against a database."""

    def __init__(self, db) -> None:
        self.db = db

    # ------------------------------------------------------------------

    def execute(self, plan: Plan) -> Table:
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise TypeError(f"no executor for plan node {type(plan).__name__}")
        return handler(self, plan)

    def _rename_columns(self, plan) -> Table:
        child = self.execute(plan.child)
        if len(plan.columns) != len(child.schema):
            raise ValueError(
                f"declared {len(plan.columns)} columns but the query "
                f"produces {len(child.schema)}"
            )
        return _table(Schema(plan.columns), child.rows, child.scale)

    def count_jobs(self, plan: Plan) -> int:
        """Wide operators in the plan — each costs one MapReduce job
        (the caller adds the final map/materialize job)."""
        wide = 1 if isinstance(plan, (Join, GroupBy, Distinct)) else 0
        return wide + sum(self.count_jobs(child) for child in plan.children())

    # ------------------------------------------------------------------

    def _scan(self, plan: Scan) -> Table:
        table = self.db.resolve(plan.table)
        self._tracer.emit(
            Kind.DISK_READ, bytes=table.estimated_bytes(), scale=table.scale,
            label=f"scan:{plan.table}",
        )
        self._touch(len(table), table.scale, label=f"scan:{plan.table}")
        return _table(table.schema, list(table.rows), table.scale)

    def _alias(self, plan: Alias) -> Table:
        child = self.execute(plan.child)
        schema = Schema(tuple(f"{plan.alias}.{c}" for c in child.schema.columns))
        return _table(schema, child.rows, child.scale)

    def _select(self, plan: Select) -> Table:
        child = self.execute(plan.child)
        predicate = plan.predicate.bind(child.schema)
        self._touch(len(child), child.scale, label="select")
        rows = [row for row in child.rows if predicate(row)]
        return _table(child.schema, rows, child.scale)

    def _project(self, plan: Project) -> Table:
        # Projection is fused into the operator that consumes it (it
        # never runs as its own pass in an MR pipeline), so it carries
        # no per-tuple charge of its own.
        child = self.execute(plan.child)
        names = [name for name, _ in plan.outputs]
        fns = [expr.bind(child.schema) for _, expr in plan.outputs]
        rows = [tuple(fn(row) for fn in fns) for row in child.rows]
        return _table(Schema(names), rows, child.scale)

    def _union(self, plan: Union) -> Table:
        children = [self.execute(p) for p in plan.inputs]
        if not children:
            raise ValueError("union of no inputs")
        schema = children[0].schema
        for child in children[1:]:
            if len(child.schema) != len(schema):
                raise ValueError("union inputs must have equal arity")
        rows = [row for child in children for row in child.rows]
        varying = {c.scale for c in children} - {FIXED}
        if len(varying) > 1:
            raise ValueError(f"union inputs carry different scales {sorted(varying)}")
        return _table(schema, rows, varying.pop() if varying else FIXED)

    def _distinct(self, plan: Distinct) -> Table:
        child = self.execute(plan.child)
        self._touch(len(child), child.scale, label="distinct")
        seen = dict.fromkeys(child.rows)
        self._shuffle_aggregated(len(child), len(seen), child, None, label="distinct")
        return _table(child.schema, list(seen), child.scale)

    # -- joins ----------------------------------------------------------

    def _join(self, plan: Join) -> Table:
        if not plan.strategy:
            raise ValueError("join was not planned; run the optimizer first")
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        out_schema = left.schema.concat(right.schema)
        if plan.strategy == "hash":
            rows = self._hash_join(plan, left, right, out_schema)
        else:
            rows = self._cross_join(plan, left, right, out_schema)
        scale = plan.out_scale or self._join_out_scale(left, right)
        return _table(out_schema, rows, scale)

    def _hash_join(self, plan: Join, left: Table, right: Table, out_schema: Schema) -> list[tuple]:
        # A model-sized (FIXED) side is broadcast instead of repartitioned
        # — the map-side join any MR compiler performs for small tables.
        fixed_sides = [t for t in (left, right) if t.scale == FIXED]
        if fixed_sides and len(fixed_sides) < 2:
            self._tracer.emit(
                Kind.BROADCAST, bytes=fixed_sides[0].estimated_bytes(),
                language="sql", scale=FIXED, label="join:map-side-broadcast",
            )
        else:
            # Repartition both sides on the join key over the network.
            for side in (left, right):
                self._tracer.emit(
                    Kind.SHUFFLE, records=len(side), bytes=side.estimated_bytes(),
                    language="sql", scale=side.scale, label="join:repartition",
                )
        self._tracer.materialize(
            bytes=left.estimated_bytes(), objects=len(left),
            scale=left.scale, site=Site.CLUSTER, spillable=True, label="join:build",
        )
        l_idx, r_idx = self._resolve_keys(plan, left.schema, right.schema)
        residual = plan.residual.bind(out_schema) if plan.residual is not None else None
        out = []
        build: dict = {}
        for row in left.rows:
            build.setdefault(tuple(row[i] for i in l_idx), []).append(row)
        for rrow in right.rows:
            for lrow in build.get(tuple(rrow[i] for i in r_idx), ()):
                joined = lrow + rrow
                if residual is None or residual(joined):
                    out.append(joined)
        # Build and probe are linear per side; output tuples are
        # pipelined into the parent operator (charged there).
        self._touch(len(left), left.scale, label="join:build-touch")
        self._touch(len(right), right.scale, label="join:probe")
        return out

    def _cross_join(self, plan: Join, left: Table, right: Table, out_schema: Schema) -> list[tuple]:
        # The quirk path: broadcast one side, nested-loop over the product.
        smaller = left if len(left) <= len(right) else right
        self._tracer.emit(
            Kind.BROADCAST, bytes=smaller.estimated_bytes(), language="sql",
            scale=smaller.scale, label="join:broadcast",
        )
        pairs = len(left) * len(right)
        self._touch(pairs, combine_scales(left.scale, right.scale), label="join:cross")
        residual = plan.residual.bind(out_schema) if plan.residual is not None else None
        out = []
        for lrow in left.rows:
            for rrow in right.rows:
                joined = lrow + rrow
                if residual is None or residual(joined):
                    out.append(joined)
        return out

    @staticmethod
    def _join_out_scale(left: Table, right: Table) -> str:
        if left.scale == right.scale:
            return left.scale
        return combine_scales(left.scale, right.scale)

    def _resolve_keys(self, plan: Join, left: Schema, right: Schema) -> tuple[list[int], list[int]]:
        left_idx, right_idx = [], []
        for a, b in plan.equi_keys:
            if left.has(a) and right.has(b):
                left_idx.append(left.resolve(a))
                right_idx.append(right.resolve(b))
            elif left.has(b) and right.has(a):
                left_idx.append(left.resolve(b))
                right_idx.append(right.resolve(a))
            else:
                raise KeyError(
                    f"join key ({a}, {b}) not found across schemas "
                    f"{left.columns} / {right.columns}"
                )
        return left_idx, right_idx

    # -- aggregation -----------------------------------------------------

    def _group_by(self, plan: GroupBy) -> Table:
        child = self.execute(plan.child)
        key_idx = [child.schema.resolve(k) for k in plan.keys]
        agg_fns = []
        for name, kind, expr in plan.aggs:
            if kind not in ("sum", "count", "avg", "min", "max"):
                raise ValueError(f"unknown aggregate {kind!r} for {name!r}")
            agg_fns.append((name, kind, expr.bind(child.schema) if expr is not None else None))

        self._touch(len(child), child.scale, label="group:map")

        groups: dict = {}
        for row in child.rows:
            key = tuple(row[i] for i in key_idx)
            state = groups.get(key)
            if state is None:
                state = [_agg_init(kind) for _, kind, _ in plan.aggs]
                groups[key] = state
            for slot, (_, kind, fn) in enumerate(agg_fns):
                _agg_step(state, slot, kind, fn, row)

        out_scale = self._shuffle_aggregated(len(child), len(groups), child, plan.out_scale,
                                             label="group:shuffle")
        rows = [key + tuple(_agg_final(state[i], kind) for i, (_, kind, _) in enumerate(agg_fns))
                for key, state in groups.items()]
        schema = Schema(tuple(plan.keys) + tuple(name for name, _, _ in plan.aggs))
        return _table(schema, rows, out_scale)

    def _shuffle_aggregated(self, n_in: int, n_groups: int, child: Table,
                            out_scale: str | None, label: str) -> str:
        """Charge the shuffle of a (possibly combined) aggregation.

        When combining is effective (few groups), each mapper emits at
        most ``groups`` records, so the shuffled volume is
        ``groups x partitions`` and asymptotically fixed; when every row
        is its own group, the whole input shuffles at the input's scale.
        """
        partitions = self.db.cluster.total_cores
        bytes_per_row = child.estimated_bytes() / max(1, len(child))
        combined = n_groups <= COMBINE_EFFECTIVE_FRACTION * n_in
        if out_scale is None:
            out_scale = FIXED if combined else child.scale
        if combined and out_scale == FIXED:
            # Each mapper emits at most one combined record per group; at
            # paper scale the input vastly exceeds groups x partitions,
            # so that product IS the shuffled volume (no laptop-biased
            # min against the sample-sized input).
            records = n_groups * partitions
        else:
            records = n_in if out_scale == child.scale else n_groups
        self._tracer.emit(
            Kind.SHUFFLE, records=records, bytes=records * bytes_per_row,
            language="sql", scale=out_scale if records != n_in else child.scale,
            label=label,
        )
        self._tracer.materialize(
            bytes=n_groups * bytes_per_row, objects=n_groups, scale=out_scale,
            site=Site.CLUSTER, spillable=True, label=f"{label}:hashtable",
        )
        self._touch(records, out_scale if records != n_in else child.scale,
                    label=f"{label}:reduce")
        return out_scale

    # -- VG functions ------------------------------------------------------

    def _vg(self, plan: VGOp) -> Table:
        params = {name: self.execute(p) for name, p in plan.params.items()}
        vg = plan.vg
        # Parameterizing the VG function consumes every input row as a
        # tuple (the word-based LDA's theta fan-out is data x topics
        # rows per iteration — the 16-hour entry of Figure 4(a)).
        for name, table in params.items():
            self._touch(len(table), table.scale, label=f"vg:{vg.name}:param:{name}")
        if plan.group_key is None:
            grouped = [((), {name: t.rows for name, t in params.items()})]
            invocation_scale = FIXED
            key_cols: tuple[str, ...] = ()
        else:
            grouped, invocation_scale = self._group_params(plan.group_key, params)
            key_cols = (plan.group_key,)

        out_rows: list[tuple] = []
        sample = grouped[0][1] if grouped else {}
        total_flops = len(grouped) * vg.flops_per_invocation(sample)
        if plan.flops_scale is not None and plan.flops_scale != invocation_scale:
            self._tracer.emit(
                Kind.COMPUTE, records=len(grouped), language="cpp",
                scale=invocation_scale, label=f"vg:{vg.name}",
            )
            self._tracer.emit(
                Kind.COMPUTE, flops=total_flops, language="cpp",
                scale=plan.flops_scale, label=f"vg:{vg.name}:bulk",
            )
        else:
            self._tracer.emit(
                Kind.COMPUTE, records=len(grouped), flops=total_flops,
                language="cpp", scale=invocation_scale, label=f"vg:{vg.name}",
            )
        batched = vg.invoke_batch(self.db.rng, grouped) if fastpath.enabled() else None
        if batched is not None:
            fastpath.record_batch(f"vg:{vg.name}")
            out_rows = list(batched)
        else:
            if fastpath.enabled() and grouped:
                fastpath.record_decline(f"vg:{vg.name}")
            for key, rows_by_param in grouped:
                for out in vg.invoke(self.db.rng, rows_by_param):
                    out_rows.append(key + tuple(out))
        out_scale = plan.out_scale or invocation_scale
        # Every generated value leaves the VG function as a tuple and
        # re-enters the relational engine (the paper's Section 7.6 cost).
        self._touch(len(out_rows), out_scale, label=f"vg:{vg.name}:emit")
        schema = Schema(key_cols + tuple(vg.output_columns))
        return _table(schema, out_rows, out_scale)

    def _group_params(self, key: str, params: dict[str, Table]):
        """Partition parameter tables by ``key``; keyless tables broadcast."""
        keyed = {name: t for name, t in params.items() if key in t.schema}
        if not keyed:
            raise KeyError(f"no VG parameter table carries group key {key!r}")
        broadcast = {name: t.rows for name, t in params.items() if key not in t.schema}
        buckets: dict[object, dict[str, list[tuple]]] = {}
        for name, table in keyed.items():
            idx = table.schema.index(key)
            keep = [i for i in range(len(table.schema)) if i != idx]
            for row in table.rows:
                bucket = buckets.setdefault(row[idx], {n: [] for n in keyed})
                bucket[name].append(tuple(row[i] for i in keep))
        grouped = [
            ((key_value,), {**rows_by_param, **broadcast})
            for key_value, rows_by_param in sorted(buckets.items())
        ]
        scale = max((t.scale for t in keyed.values()), key=lambda s: s != FIXED)
        return grouped, scale

    # ------------------------------------------------------------------

    def _touch(self, records: float, scale: str, label: str) -> None:
        """Per-tuple relational processing cost."""
        self._tracer.emit(Kind.COMPUTE, records=records, language="sql",
                          scale=scale, label=label)

    @property
    def _tracer(self):
        return self.db.tracer

    _HANDLERS = {}


OracleExecutor._HANDLERS = {
    Scan: OracleExecutor._scan,
    Alias: OracleExecutor._alias,
    Select: OracleExecutor._select,
    Project: OracleExecutor._project,
    Union: OracleExecutor._union,
    Distinct: OracleExecutor._distinct,
    Join: OracleExecutor._join,
    GroupBy: OracleExecutor._group_by,
    VGOp: OracleExecutor._vg,
    RenameColumns: OracleExecutor._rename_columns,
}


def _agg_init(kind: str):
    if kind == "count":
        return 0
    if kind == "avg":
        return (0.0, 0)
    return None


def _agg_step(state: list, slot: int, kind: str, fn, row: tuple) -> None:
    if kind == "count":
        state[slot] += 1
        return
    value = fn(row)
    current = state[slot]
    if kind == "sum":
        state[slot] = value if current is None else current + value
    elif kind == "avg":
        total, count = current
        state[slot] = (total + value, count + 1)
    elif kind == "min":
        state[slot] = value if current is None or value < current else current
    elif kind == "max":
        state[slot] = value if current is None or value > current else current


def _agg_final(state, kind: str):
    if kind == "avg":
        total, count = state
        if count == 0:
            raise ValueError("avg over an empty group")
        return total / count
    return state
