"""The columnar executor against the tuple-at-a-time oracle.

Every registered SimSQL cell runs twice on the same seed: once on
``repro.relational.executor`` and once with
``relational_oracle.OracleExecutor`` swapped into
``repro.relational.database``.  The cost-event streams, the end-of-run
RNG state and every stored table must be identical, value for value and
type for type, with the host fast path (VG batching) on and off.
"""

import pytest
from relational_oracle import OracleExecutor, canonical

import repro.relational.database as database
from repro import fastpath
from repro.cluster import ClusterSpec, Tracer
from repro.impls.registry import cells, coverage_workloads, data_factory

SEED = 20140622
ITERATIONS = 2
SIMSQL_CELLS = [cell for cell in cells() if cell[0] == "simsql"]


@pytest.fixture(scope="module")
def data():
    return coverage_workloads(SEED)


def run_cell(cell, data, fast: bool):
    platform, model, variant = cell
    factory = data_factory(platform, model, variant, *data[model], seed=SEED)
    with fastpath.fast_path(fast):
        tracer = Tracer()
        impl = factory(ClusterSpec(machines=3), tracer)
        with tracer.phase("init"):
            impl.initialize()
        for i in range(ITERATIONS):
            with tracer.phase(f"iteration-{i}"):
                impl.iterate(i)
    tables = {}
    for name in impl.db.relations():
        try:
            table = impl.db.table(name)
        except KeyError:  # a virtual view
            continue
        tables[name] = (table.schema.columns, table.scale,
                        [canonical(row) for row in table.rows])
    stream = [(p.name, p.events, p.memory) for p in tracer.phases]
    return stream, impl.rng.bit_generator.state, tables


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
@pytest.mark.parametrize("cell", SIMSQL_CELLS, ids=["/".join(c) for c in SIMSQL_CELLS])
def test_columnar_executor_matches_tuple_oracle(cell, fast, data, monkeypatch):
    stream, rng_state, tables = run_cell(cell, data, fast)
    with monkeypatch.context() as patch:
        patch.setattr(database, "Executor", OracleExecutor)
        oracle_stream, oracle_rng_state, oracle_tables = run_cell(cell, data, fast)
    assert len(stream) == len(oracle_stream)
    for phase, oracle_phase in zip(stream, oracle_stream):
        assert phase == oracle_phase
    assert rng_state == oracle_rng_state
    assert tables.keys() == oracle_tables.keys()
    for name, table in tables.items():
        assert table == oracle_tables[name], name
