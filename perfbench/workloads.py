"""The benchmark's three workloads, built from the benchmark seed.

Every workload is a list of operations over inputs generated in memory
during set-up.  The benchmark owns the seed: it picks the figure cells
(or the fault-sweep cases), re-seeds their workload references and
implementation seeds, and generates the data up front, so the program
only ever receives generated inputs.  At :data:`DEFAULT_SEED` the specs
are exactly the figure cells ``repro.bench.experiments`` regenerates,
so their outputs can be checked against the stored reference digests.

This module imports ``repro`` lazily (inside functions), so the
launcher can import it without the program being present.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable

#: The seed of ``repro.bench.experiments`` / ``repro.bench.faultsweep``.
#: The benchmark at this seed runs exactly the published figure cells.
DEFAULT_SEED = 20140622

WORKLOADS = ("sql-cells", "engine-cells", "what-if-grid")

#: Benchmark machine count for the table workloads.
TABLE_MACHINES = 5

#: The SimSQL figure cells of ``sql-cells``: (figure, GMM dimension or
#: None).  One per model; the 10-d GMM takes the batch path and the
#: 100-d super-vertex GMM the ``ROW_STABLE_MAX_DIM`` decline.
SQL_CELLS = (
    ("figure_1a", ("simsql", "gmm", "initial"), 10),
    ("figure_1c", ("simsql", "gmm", "super-vertex"), 100),
    ("figure_2", ("simsql", "lasso", "initial"), None),
    ("figure_3b", ("simsql", "hmm", "super-vertex"), None),
    ("figure_4a", ("simsql", "lda", "document"), None),
    ("figure_5", ("simsql", "imputation", "initial"), None),
)

#: Number of non-SimSQL figure cells at 5 machines.
ENGINE_CELL_COUNT = 42

#: Fault-sweep cases left out of ``what-if-grid``: the SimSQL LDA trace
#: alone costs ~9 s per machine count to capture; SimSQL's recovery
#: paths are still exercised by its GMM trace.
GRID_SKIPPED_CASES = ("simsql/lda",)
GRID_MACHINES = (5, 20)
GRID_CRASH_RATES = (0.0, 0.075, 0.15, 0.225, 0.3, 0.375, 0.45)
GRID_CHECKPOINT_INTERVALS = (0, 2)
#: Schedule seeds per (rate, interval, fleet) point of the shared grid.
GRID_SEEDS = 128
#: Scenarios per trace in the unique-fleet slice.
GRID_UNIQUE = 64
#: Machine-speed spread of the unique-fleet slice's sampled fleets.
GRID_FLEET_CV = 0.1
#: The other four fault kinds fire at this fraction of the crash rate.
GRID_HOSTILE_SCALE = 0.5
#: Grid scenarios per trace re-priced by the per-cell simulator.
ORACLE_SAMPLE = 4


def derive(seed: int, *tag) -> int:
    """A named sub-seed of the benchmark seed."""
    from repro.stats import derive_seed

    return derive_seed(seed, tag)


def reseed_spec(spec, seed: int):
    """``spec`` with its workload references and implementation seed
    drawn from the benchmark seed; unchanged at :data:`DEFAULT_SEED`."""
    if seed == DEFAULT_SEED:
        return spec
    from repro.bench.pool import WorkloadRef, WorkloadSpec

    args = tuple(
        WorkloadRef(WorkloadSpec(arg.spec.generator,
                                 derive(seed, "workload", arg.spec.seed),
                                 arg.spec.params), arg.attr)
        if isinstance(arg, WorkloadRef) else arg
        for arg in spec.args)
    return replace(spec, args=args, seed=derive(seed, "cell", spec.seed))


def digest_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def cell_digest(result) -> str:
    """Digest of one figure cell: its payload, per-phase seconds included."""
    from repro.bench.report import cell_payload

    payload = {"label": result.label, **cell_payload(result)}
    return digest_bytes(json.dumps(payload, sort_keys=True).encode())


def columns_digest(columns: dict) -> str:
    """Digest of a ``GridResult.columns()`` table (dtype, shape, bytes)."""
    parts = []
    for name in sorted(columns):
        array = columns[name]
        parts += [name.encode(), f"{array.dtype.str}{array.shape}".encode(),
                  array.tobytes()]
    return digest_bytes(*parts)


@dataclass
class Op:
    """One timed operation: ``run()`` calls into the program."""

    id: str
    size: int  # operations counted by ``attempted`` (cells or scenarios)
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: ``digest(output)``: the output's reference digest.
    digest: Callable[[object], str]
    #: ``keep(output)``: the little the checks need, so that a pass does
    #: not hold every output (which would make peak memory depend on how
    #: freed set-up memory happens to be reused).
    keep: Callable[[object], object]
    #: Checks outside the timed part: ``check({op id: kept})`` returns
    #: the ids of the ops whose output is wrong.
    check: Callable[[dict], list[str]]
    #: Counts the traced run reports (sizes of generated inputs etc.).
    info: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Table workloads
# ----------------------------------------------------------------------

def _gmm_dim(spec) -> int | None:
    params = dict(spec.args[0].spec.params) if spec.args else {}
    return params.get("dim")


def table_specs(name: str, seed: int) -> list[tuple[str, object]]:
    """``(op id, spec)`` of a table workload, re-seeded."""
    from repro.bench.experiments import FIGURE_BUILDERS, figure_specs

    picked = []
    for figure in FIGURE_BUILDERS:
        for index, spec in enumerate(figure_specs(figure)):
            if spec.machines != TABLE_MACHINES:
                continue
            key = (spec.platform, spec.model, spec.variant)
            if name == "sql-cells":
                keep = any(figure == f and key == k and dim in (None, _gmm_dim(spec))
                           for f, k, dim in SQL_CELLS)
            else:
                keep = spec.platform != "simsql"
            if keep:
                picked.append((f"{figure}#{index} {spec.label}", reseed_spec(spec, seed)))
    expected = len(SQL_CELLS) if name == "sql-cells" else ENGINE_CELL_COUNT
    if len(picked) != expected:
        raise RuntimeError(f"{name}: expected {expected} figure cells at "
                           f"{TABLE_MACHINES} machines, found {len(picked)}")
    return picked


def workload_specs(specs) -> list:
    """The distinct :class:`WorkloadSpec` inputs of some specs, in order."""
    from repro.bench.pool import WorkloadRef

    seen = {}
    for spec in specs:
        for arg in spec.args:
            if isinstance(arg, WorkloadRef):
                seen.setdefault(arg.spec.key, arg.spec)
    return list(seen.values())


def generate(specs, cache) -> float:
    """Generate every input of ``specs`` into ``cache``; returns MB held."""
    total = 0
    for wspec in workload_specs(specs):
        total += _nbytes(cache.get(wspec))
    return total / 2**20


def _nbytes(value) -> int:
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_nbytes(getattr(value, f)) for f in value.__dataclass_fields__)
    return 0


def build_table(name: str, seed: int, spans) -> Workload:
    from repro.bench.pool import WorkloadCache
    from repro.service.execution import execute_spec

    picked = table_specs(name, seed)
    cache = WorkloadCache()
    with spans.span("workloads.gen"):
        mb = generate([spec for _, spec in picked], cache)

    def op(spec):
        def run():
            with spans.span("execution"):
                return execute_spec(spec, cache)
        return run

    return Workload(name, [Op(op_id, 1, op(spec)) for op_id, spec in picked],
                    digest=cell_digest, check=check_cells,
                    keep=lambda result: [p.seconds for p in result.report.phases],
                    info={"workloads.mb": mb})


def check_cells(kept: dict) -> list[str]:
    """Cells whose simulated phases are not finite, non-negative seconds."""
    import math

    return [op_id for op_id, seconds in kept.items()
            if not seconds or not all(math.isfinite(s) and s >= 0 for s in seconds)]


# ----------------------------------------------------------------------
# what-if-grid
# ----------------------------------------------------------------------

def grid_rates(rate: float):
    """All five fault kinds, anchored to the crash rate."""
    from repro.cluster import FaultRates

    hostile = GRID_HOSTILE_SCALE * rate
    return FaultRates(machine_crash=rate, task_failure=hostile,
                      straggler=hostile, preemption=hostile, resize=hostile)


def grid_cases(seed: int) -> list:
    from repro.bench.faultsweep import default_cases

    return [reseed_spec(case, seed) for case in default_cases()
            if case.name not in GRID_SKIPPED_CASES]


@dataclass
class Trace:
    name: str
    tracer: object
    profile: object
    shared: object  # ScenarioGrid
    unique: object  # ScenarioGrid


def capture(seed: int, spans) -> tuple[list[Trace], float]:
    """Run each fault-sweep case's engine at each machine count and
    build its scenario grids.  Returns the traces and input MB."""
    from repro.bench.pool import WorkloadCache
    from repro.cluster import (
        PLATFORM_PROFILES,
        Fleet,
        Scenario,
        ScenarioGrid,
        sample_fleet_speeds,
    )
    from repro.service.execution import hetero_fleet, scales_for, trace_spec

    cases = grid_cases(seed)
    cache = WorkloadCache()
    with spans.span("workloads.gen"):
        mb = generate(cases, cache)
    seeds = [derive(seed, "grid-seed", k) for k in range(GRID_SEEDS)]
    traces = []
    for case in cases:
        for machines in GRID_MACHINES:
            name = f"{case.name}@{machines}"
            with spans.span("execution", op=f"capture {name}"):
                tracer = trace_spec(case, machines, cache)
            scales = scales_for(case, machines)
            shared = ScenarioGrid.of(
                Scenario.make(machines, scales, rates=grid_rates(rate), seed=s,
                              checkpoint_interval=interval, fleet=fleet)
                for rate in GRID_CRASH_RATES
                for interval in GRID_CHECKPOINT_INTERVALS
                for fleet in (None, hetero_fleet(machines, case.iterations))
                for s in seeds)
            unique = ScenarioGrid.of(
                Scenario.make(
                    machines, scales,
                    rates=grid_rates(GRID_CRASH_RATES[k % len(GRID_CRASH_RATES)]),
                    seed=seeds[k],
                    fleet=Fleet(speeds=sample_fleet_speeds(
                        machines, derive(seed, "fleet", name, k), GRID_FLEET_CV)))
                for k in range(GRID_UNIQUE))
            traces.append(Trace(name, tracer, PLATFORM_PROFILES[case.platform],
                                shared, unique))
    return traces, mb


def oracle_report(tracer, profile, scenario):
    """One scenario priced by the per-cell simulator."""
    from repro.cluster import ClusterSpec, FaultSchedule, Simulator

    simulator = Simulator(
        ClusterSpec(machines=scenario.machines, fleet=scenario.fleet), profile)
    return simulator.simulate(
        tracer, scenario.scale_dict,
        faults=FaultSchedule.sampled(scenario.rates, seed=scenario.seed),
        retry_policy=scenario.retry_policy,
        checkpoint_interval=scenario.checkpoint_interval)


def oracle_indices(n: int) -> list[int]:
    """A fixed spread of scenario indices across a grid of ``n``."""
    return sorted({(n - 1) * k // (ORACLE_SAMPLE - 1) for k in range(ORACLE_SAMPLE)})


def build_grid(seed: int, spans) -> Workload:
    from repro.cluster import TraceTable, simulate_grid

    traces, mb = capture(seed, spans)

    slices = {f"{trace.name}/{slice_name}": (trace, slice_name, getattr(trace, slice_name))
              for trace in traces for slice_name in ("shared", "unique")}

    def op(trace: Trace, slice_name: str, grid):
        def run():
            with spans.span("tracealgebra.table"):
                table = TraceTable.from_tracer(trace.tracer)
            with spans.span(f"tracealgebra.{slice_name}_grid"):
                result = simulate_grid(table, trace.profile, grid)
            with spans.span("tracealgebra.columns"):
                columns = result.columns()
            return result, columns
        return run

    ops = [Op(op_id, len(slice_[2]), op(*slice_)) for op_id, slice_ in slices.items()]

    def keep(output) -> dict:
        result, columns = output
        return {"reports": {i: repr(result.report(i)) for i in oracle_indices(len(result))},
                "faults": {metric: int(columns[col].sum())
                           for metric, col in FAULT_METRICS.items()}}

    def check(kept: dict) -> list[str]:
        """Grids whose sampled scenarios the per-cell simulator prices
        differently."""
        bad = []
        for op_id, evidence in kept.items():
            trace, _, grid = slices[op_id]
            if any(report != repr(oracle_report(trace.tracer, trace.profile, grid[i]))
                   for i, report in evidence["reports"].items()):
                bad.append(op_id)
        return bad

    bases = sum(len({s.base_key for s in grid}) for _, _, grid in slices.values())
    return Workload("what-if-grid", ops,
                    digest=lambda output: columns_digest(output[1]), keep=keep,
                    check=check,
                    info={"workloads.mb": mb, "tracealgebra.bases": bases,
                          "traces": traces})


#: Per-layer fault metric -> ``GridResult.columns()`` column it sums.
FAULT_METRICS = {
    "faults.recovered": "recovered_failures",
    "faults.retries": "total_retries",
    "faults.aborted": "aborted",
    "faults.drained": "preemptions_drained",
    "faults.resizes": "resize_events",
}


def fault_counts(kept: dict) -> dict[str, int]:
    """Fault-replay counts summed over a pass's grid columns."""
    return {metric: sum(evidence["faults"][metric] for evidence in kept.values())
            for metric in FAULT_METRICS}


def build(name: str, seed: int, spans) -> Workload:
    if name == "what-if-grid":
        return build_grid(seed, spans)
    if name in WORKLOADS:
        return build_table(name, seed, spans)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
