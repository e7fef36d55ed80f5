"""Plan executor: evaluates logical plans on column batches, with costs.

SimSQL is a tuple engine, and the tracer charges it as one: every row
of every intermediate result pays SimSQL's per-tuple rate.  That is the
paper's central SimSQL finding -- "a 1,000 by 1,000 matrix is pushed
through the system as a set of one million tuples" (Section 10) -- and
those charges depend only on the cardinalities and sizes of the
relations, never on how the host computes them.

The host computes them on whole columns (:mod:`repro.relational.table`):
a projection shares or computes columns, a selection is a boolean mask,
and joins, aggregations and VG parameter groups factorize their keys
into integer codes.  Outputs keep the exact row order of a
tuple-at-a-time evaluation (hash join: probe rows in order, each with
its build rows in build order; cross join: left-major; group-by: first
occurrence; VG groups: sorted key), values leave as the same Python
scalars, and float aggregates fold each group left to right, so every
cost event and every VG draw is what the tuple engine produces
(``tests/relational_oracle.py`` keeps that engine as the reference).

Each executed query is also charged as a pipeline of Hadoop MapReduce
jobs (one per wide operator), with intermediate results written to and
re-read from HDFS, which is where SimSQL's high fixed per-iteration cost
comes from.  Aggregation hash tables are *spillable*: SimSQL degrades to
out-of-core processing instead of failing, reproducing the paper's
"never failed" observation.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro import fastpath
from repro.cluster.costmodel import combine_scales
from repro.cluster.events import FIXED, Kind, Site
from repro.relational.expr import Col
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
from repro.relational.table import EXACT_INT, Table, as_column, column_values, take

#: Combining (a Hadoop combiner / pre-aggregation) is considered
#: effective when the observed group count is at most this fraction of
#: the input cardinality; the group count is then treated as
#: asymptotically fixed unless the plan says otherwise.
COMBINE_EFFECTIVE_FRACTION = 0.5

#: Row pairs a cross join with a residual predicate evaluates at once.
CROSS_CHUNK = 1 << 20


class Executor:
    """Evaluates optimized plans against a database."""

    def __init__(self, db) -> None:
        self.db = db

    # ------------------------------------------------------------------

    def execute(self, plan: Plan) -> Table:
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise TypeError(f"no executor for plan node {type(plan).__name__}")
        return handler(self, plan)

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
        return table.view(table.schema)

    def _alias(self, plan: Alias) -> Table:
        child = self.execute(plan.child)
        return child.view(Schema(tuple(f"{plan.alias}.{c}" for c in child.schema.columns)))

    def _rename_columns(self, plan: RenameColumns) -> Table:
        child = self.execute(plan.child)
        if len(plan.columns) != len(child.schema):
            raise ValueError(
                f"declared {len(plan.columns)} columns but the query "
                f"produces {len(child.schema)}"
            )
        return child.view(Schema(plan.columns))

    def _select(self, plan: Select) -> Table:
        child = self.execute(plan.child)
        predicate = plan.predicate.compile(child.schema)
        self._touch(len(child), child.scale, label="select")
        keep = np.flatnonzero(_truth(predicate(child.columns, len(child)), len(child)))
        if len(keep) == len(child):
            return child
        return Table("", child.schema, [take(c, keep) for c in child.columns], child.scale)

    def _project(self, plan: Project) -> Table:
        # Projection is fused into the operator that consumes it (it
        # never runs as its own pass in an MR pipeline), so it carries
        # no per-tuple charge of its own.  A plain column pick shares
        # the child's column.
        child = self.execute(plan.child)
        names = [name for name, _ in plan.outputs]
        fns = [expr.compile(child.schema) for _, expr in plan.outputs]
        columns = []
        for (_, expr), fn in zip(plan.outputs, fns):
            vector = fn(child.columns, len(child))
            columns.append(vector if isinstance(expr, Col) else as_column(vector))
        return Table("", Schema(names), columns, child.scale)

    def _union(self, plan: Union) -> Table:
        children = [self.execute(p) for p in plan.inputs]
        if not children:
            raise ValueError("union of no inputs")
        schema = children[0].schema
        for child in children[1:]:
            if len(child.schema) != len(schema):
                raise ValueError("union inputs must have equal arity")
        # Only one growing scale may carry the union's cardinality; two
        # (say data and vocab) have no single group to charge.
        varying = {c.scale for c in children} - {FIXED}
        if len(varying) > 1:
            raise ValueError(f"union inputs carry different scales {sorted(varying)}")
        columns = [_concat([c.columns[i] for c in children if len(c)])
                   for i in range(len(schema))]
        return Table("", schema, columns, varying.pop() if varying else FIXED)

    def _distinct(self, plan: Distinct) -> Table:
        child = self.execute(plan.child)
        self._touch(len(child), child.scale, label="distinct")
        _, firsts = _factorize(child.columns, len(child))
        self._shuffle_aggregated(len(child), len(firsts), child, None, label="distinct")
        return Table("", child.schema, [take(c, firsts) for c in child.columns], child.scale)

    # -- joins ----------------------------------------------------------

    def _join(self, plan: Join) -> Table:
        if not plan.strategy:
            raise ValueError("join was not planned; run the optimizer first")
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        out_schema = left.schema.concat(right.schema)
        if plan.strategy == "hash":
            candidates = [self._hash_join(plan, left, right)]
        else:
            candidates = self._cross_join(left, right)
        residual = plan.residual.compile(out_schema) if plan.residual is not None else None
        kept_l, kept_r = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for l_idx, r_idx in candidates:
            if residual is not None:
                keep = _truth(residual(_Joined(left, right, l_idx, r_idx), len(l_idx)),
                              len(l_idx))
                l_idx, r_idx = l_idx[keep], r_idx[keep]
            kept_l.append(l_idx)
            kept_r.append(r_idx)
        l_idx, r_idx = np.concatenate(kept_l), np.concatenate(kept_r)
        columns = ([take(c, l_idx) for c in left.columns]
                   + [take(c, r_idx) for c in right.columns])
        scale = plan.out_scale or self._join_out_scale(left, right)
        return Table("", out_schema, columns, scale)

    def _hash_join(self, plan: Join, left: Table, right: Table):
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
        l_keys, r_keys = self._resolve_keys(plan, left.schema, right.schema)
        pairs = _equi_join_pairs([left.columns[i] for i in l_keys],
                                 [right.columns[i] for i in r_keys], len(left), len(right))
        # Build and probe are linear per side; output tuples are
        # pipelined into the parent operator (charged there).
        self._touch(len(left), left.scale, label="join:build-touch")
        self._touch(len(right), right.scale, label="join:probe")
        return pairs

    def _cross_join(self, left: Table, right: Table):
        """Every (left, right) row pair, left-major, in chunks of at most
        :data:`CROSS_CHUNK` pairs (a residual filters each chunk)."""
        # The quirk path: broadcast one side, nested-loop over the product.
        smaller = left if len(left) <= len(right) else right
        self._tracer.emit(
            Kind.BROADCAST, bytes=smaller.estimated_bytes(), language="sql",
            scale=smaller.scale, label="join:broadcast",
        )
        pairs = len(left) * len(right)
        self._touch(pairs, combine_scales(left.scale, right.scale), label="join:cross")
        n_left, n_right = len(left), len(right)
        step = max(1, CROSS_CHUNK // max(1, n_right))
        return ((np.repeat(np.arange(start, min(start + step, n_left)), n_right),
                 np.tile(np.arange(n_right), min(step, n_left - start)))
                for start in range(0, n_left, step))

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
        keys = [child.columns[child.schema.resolve(k)] for k in plan.keys]
        agg_fns = []
        for name, kind, expr in plan.aggs:
            if kind not in ("sum", "count", "avg", "min", "max"):
                raise ValueError(f"unknown aggregate {kind!r} for {name!r}")
            agg_fns.append((kind, expr.compile(child.schema) if expr is not None else None))

        self._touch(len(child), child.scale, label="group:map")

        codes, firsts = _factorize(keys, len(child))
        columns = [take(c, firsts) for c in keys]
        for kind, fn in agg_fns:
            values = None if kind == "count" else fn(child.columns, len(child))
            columns.append(as_column(_aggregate(kind, values, codes, firsts)))

        out_scale = self._shuffle_aggregated(len(child), len(firsts), child, plan.out_scale,
                                             label="group:shuffle")
        schema = Schema(tuple(plan.keys) + tuple(name for name, _, _ in plan.aggs))
        return Table("", schema, columns, out_scale)

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
        try:
            return Table.from_rows("", schema, out_rows, out_scale)
        except ValueError as err:
            raise ValueError(f"VG function {vg.name!r} (output_columns "
                             f"{tuple(vg.output_columns)}): {err}") from None

    def _group_params(self, key: str, params: dict[str, Table]):
        """Partition parameter tables by ``key``; keyless tables broadcast.

        Groups come out in sorted key order; each group's rows keep
        their table order (a stable sort on the key codes).
        """
        keyed = {name: t for name, t in params.items() if key in t.schema}
        if not keyed:
            raise KeyError(f"no VG parameter table carries group key {key!r}")
        broadcast = {name: t.rows for name, t in params.items() if key not in t.schema}
        buckets: dict[object, dict[str, list[tuple]]] = {}
        for name, table in keyed.items():
            idx = table.schema.index(key)
            codes, firsts = _factorize([table.columns[idx]], len(table))
            order = np.argsort(codes, kind="stable")
            rest = [column_values(take(c, order))
                    for i, c in enumerate(table.columns) if i != idx]
            rows = list(zip(*rest)) if rest else [()] * len(table)
            ends = np.cumsum(np.bincount(codes, minlength=len(firsts))).tolist()
            start = 0
            for value, end in zip(column_values(take(table.columns[idx], firsts)), ends):
                bucket = buckets.get(value)
                if bucket is None:
                    bucket = buckets[value] = {n: [] for n in keyed}
                bucket[name] = rows[start:end]
                start = end
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


Executor._HANDLERS = {
    Scan: Executor._scan,
    Alias: Executor._alias,
    RenameColumns: Executor._rename_columns,
    Select: Executor._select,
    Project: Executor._project,
    Union: Executor._union,
    Distinct: Executor._distinct,
    Join: Executor._join,
    GroupBy: Executor._group_by,
    VGOp: Executor._vg,
}


# -- column kernels ------------------------------------------------------


def _factorize(columns: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ``n`` rows by the values of ``columns``.

    Returns each row's group code and each group's first row; codes
    number the groups in order of first occurrence, as a dict keyed on
    the row's key tuple would insert them.  Array columns group by
    value (no NaN, so that is dict equality); object columns go through
    a dict, keeping Python's equality and identity rules exactly.
    """
    if not columns:  # a global aggregate: one group, if any rows
        return np.zeros(n, dtype=np.intp), np.zeros(min(n, 1), dtype=np.intp)
    codes, firsts = _codes(columns[0])
    for column in columns[1:]:
        more, more_firsts = _codes(column)
        codes, firsts = _codes(codes * len(more_firsts) + more)
    return codes, firsts


def _codes(column) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(column, np.ndarray):
        column = _key_image(column)
    _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _key_image(values: list) -> np.ndarray:
    """An array whose elements are equal exactly where the objects are.

    Ints mixed with floats (a union of an int and a float column) map
    to float64, exact below 2**53 and with no NaN; anything else is
    numbered through a dict, i.e. by Python's own equality.
    """
    if values and set(map(type, values)) <= {int, float}:
        try:
            image = np.array(values, dtype=np.float64)
        except OverflowError:
            image = None
        if image is not None and np.abs(image).max() < EXACT_INT:  # NaN fails too
            return image
    code_of: dict = {}
    return np.fromiter((code_of.setdefault(v, len(code_of)) for v in values),
                       dtype=np.intp, count=len(values))


def _equi_join_pairs(l_keys: list, r_keys: list, n_left: int, n_right: int):
    """(left row, right row) index pairs whose keys are equal: probe
    (right) rows in order, each with its left matches in build order."""
    keys = [np.concatenate([lc, rc]) if isinstance(lc, np.ndarray) and isinstance(rc, np.ndarray)
            else column_values(lc) + column_values(rc) for lc, rc in zip(l_keys, r_keys)]
    codes, firsts = _factorize(keys, n_left + n_right)
    l_codes, r_codes = codes[:n_left], codes[n_left:]
    build = np.argsort(l_codes, kind="stable")
    counts = np.bincount(l_codes, minlength=len(firsts))
    starts = np.cumsum(counts) - counts
    matches = counts[r_codes]
    r_idx = np.repeat(np.arange(n_right), matches)
    offsets = np.arange(len(r_idx)) - np.repeat(np.cumsum(matches) - matches, matches)
    return build[np.repeat(starts[r_codes], matches) + offsets], r_idx


class _Joined:
    """Column access to the joined rows ``left[l_idx] + right[r_idx]``;
    a residual predicate gathers only the columns it reads."""

    def __init__(self, left: Table, right: Table, l_idx, r_idx) -> None:
        self._sources = ([(c, l_idx) for c in left.columns]
                         + [(c, r_idx) for c in right.columns])
        self._gathered: dict[int, object] = {}

    def __getitem__(self, i: int):
        if i not in self._gathered:
            column, index = self._sources[i]
            self._gathered[i] = take(column, index)
        return self._gathered[i]


def _truth(vector, n: int) -> np.ndarray:
    """Row mask of a predicate's vector (Python truthiness)."""
    if isinstance(vector, np.ndarray):
        return vector if vector.dtype.kind == "b" else vector != 0
    return np.fromiter(map(bool, vector), dtype=bool, count=n)


def _concat(parts: list):
    """One column from same-position columns of union inputs."""
    if not parts:
        return []
    if all(isinstance(p, np.ndarray) and p.dtype == parts[0].dtype for p in parts):
        return np.concatenate(parts)
    return list(chain.from_iterable(map(column_values, parts)))


def _aggregate(kind: str, values, codes: np.ndarray, firsts: np.ndarray):
    """One aggregate per group, folding each group's values in row order.

    NumPy's ``ufunc.at`` applies its updates in index order, i.e. the
    same left fold as the row-at-a-time engine: sums seed with each
    group's first value (the fold starts from it, not from 0.0), while
    averages seed with 0.0 (the fold's state does).  Object values,
    NaN, signed zeros under min/max (where the fold's tie-breaking
    decides), and integer sums that could leave the exact range fold in
    Python instead.
    """
    n_groups = len(firsts)
    if kind == "count":
        return np.bincount(codes, minlength=n_groups)
    if not _foldable(kind, values):
        return _fold(kind, column_values(values), codes.tolist(), n_groups)
    if kind == "avg":
        total = np.zeros(n_groups)
        np.add.at(total, codes, values)
        return total / np.bincount(codes, minlength=n_groups)
    out = values[firsts]
    rest = np.ones(len(values), dtype=bool)
    rest[firsts] = False
    ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[kind]
    ufunc.at(out, codes[rest], values[rest])
    return out


def _foldable(kind: str, values) -> bool:
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "if" or not len(values):
        return False
    if values.dtype.kind == "i":
        bound = max(-int(values.min()), int(values.max()))
        return kind != "sum" or bound * len(values) < EXACT_INT
    if np.isnan(values).any():
        return False
    return kind not in ("min", "max") or not np.any((values == 0) & np.signbit(values))


def _fold(kind: str, values: list, codes: list, n_groups: int) -> list:
    """The row-at-a-time aggregate fold, for values NumPy cannot fold
    exactly."""
    if kind == "avg":
        totals, counts = [0.0] * n_groups, [0] * n_groups
        for g, value in zip(codes, values):
            totals[g] = totals[g] + value
            counts[g] += 1
        return [total / count for total, count in zip(totals, counts)]
    state: list = [None] * n_groups
    for g, value in zip(codes, values):
        current = state[g]
        if current is None:
            state[g] = value
        elif kind == "sum":
            state[g] = current + value
        elif kind == "min":
            state[g] = value if value < current else current
        else:  # max
            state[g] = value if value > current else current
    return state
