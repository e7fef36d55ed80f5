"""The SimSQL-style database: tables, views, query entry point."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cluster.events import FIXED, Kind
from repro.cluster.machine import ClusterSpec
from repro.cluster.tracer import NullTracer, Tracer
from repro.relational.executor import Executor
from repro.relational.optimizer import optimize
from repro.relational.plan import Plan, Scan
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.stats import make_rng


class Database:
    """Holds base tables, views and versioned random tables.

    ``query`` optimizes and executes a plan, charging the Hadoop
    MapReduce job pipeline SimSQL would compile it to (one job per wide
    operator) plus the HDFS write of the result.
    """

    def __init__(self, cluster: ClusterSpec, tracer: Tracer | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.cluster = cluster
        self.tracer = tracer if tracer is not None else NullTracer()
        self.rng = rng if rng is not None else make_rng()
        self._tables: dict[str, Table] = {}
        self._views: dict[str, Plan] = {}
        self._executor = Executor(self)

    # ------------------------------------------------------------------

    def create_table(self, name: str, columns: Iterable[str], rows: Iterable[tuple],
                     scale: str = FIXED) -> Table:
        """Store a base table; ``scale`` declares how its cardinality
        grows (``"data"`` for the workload-sized relations)."""
        if name in self._tables or name in self._views:
            raise ValueError(f"relation {name!r} already exists")
        table = Table.from_rows(name, Schema(tuple(columns)), list(rows), scale)
        self._tables[name] = table
        return table

    def create_view(self, name: str, plan: Plan, materialized: bool = False) -> None:
        """Define a view.  Materialized views are computed immediately
        (the Bayesian Lasso pre-computes its Gram matrix this way);
        virtual views re-run their plan at every reference."""
        if name in self._tables or name in self._views:
            raise ValueError(f"relation {name!r} already exists")
        if materialized:
            result = self.query(plan)
            result.name = name
            self._tables[name] = result
        else:
            self._views[name] = plan

    def store(self, name: str, table: Table) -> None:
        """Store (or replace) a table under ``name``."""
        table.name = name
        self._tables[name] = table

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)
        self._views.pop(name, None)

    def resolve(self, name: str) -> Table:
        """Resolve a relation name for the executor (views run inline)."""
        if name in self._tables:
            return self._tables[name]
        if name in self._views:
            return self._executor.execute(optimize(self._views[name]))
        raise KeyError(f"unknown relation {name!r} (have {sorted(self._tables)})")

    def table(self, name: str) -> Table:
        """Access a stored table without running a query."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown table {name!r} (have {sorted(self._tables)})") from None

    def relations(self) -> list[str]:
        return sorted(set(self._tables) | set(self._views))

    # ------------------------------------------------------------------

    def query(self, plan: Plan) -> Table:
        """Optimize, execute, and charge one SQL statement."""
        physical = optimize(plan)
        # One job per wide operator plus the final map/materialize job.
        jobs = 1 + self._executor.count_jobs(physical)
        self.tracer.emit(Kind.JOB, records=jobs, scale=FIXED, label="mapreduce-pipeline")
        result = self._executor.execute(physical)
        self.tracer.emit(Kind.DISK_WRITE, bytes=result.estimated_bytes(),
                         scale=result.scale, label="hdfs-write")
        return result

    def scan(self, name: str) -> Scan:
        """Convenience plan builder for ``SELECT * FROM name``."""
        return Scan(name)
