"""Property-based tests: the relational operators against brute force,
and the columnar executor against the tuple-at-a-time oracle."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from relational_oracle import OracleExecutor, canonical

import repro.relational.database as database
from repro.cluster import ClusterSpec
from repro.relational import (
    Database,
    Distinct,
    GroupBy,
    Join,
    Project,
    Scan,
    Select,
    col,
    lit,
    log,
    sqrt,
)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(-20, 20)), max_size=50,
)


def fresh_db() -> Database:
    return Database(ClusterSpec(machines=2))


def run_both(tables, plan):
    """``plan``'s result on the columnar executor and on the oracle.

    Each result is the canonical row list, or the ``(type, message)`` of
    the exception the query raised.
    """
    results = []
    for executor in (database.Executor, OracleExecutor):
        with mock.patch.object(database, "Executor", executor):
            db = fresh_db()
            for name, columns, rows in tables:
                db.create_table(name, columns, rows)
            try:
                results.append([canonical(row) for row in db.query(plan).rows])
            except Exception as err:  # compared, not swallowed
                results.append((type(err), str(err)))
    return results


#: Float keys that stress Python's equality: -0.0 == 0.0, and NaN,
#: which a dict or tuple matches only to the same object (``math.nan``
#: repeats one object; ``float("nan")`` makes a new one each time).
awkward_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf]),
    st.builds(float, st.just("nan")),
)
#: ... plus 1 == 1.0 across types, and strings.
awkward_keys = st.one_of(st.integers(-2, 2), awkward_floats, st.sampled_from(["a", "b"]))
awkward_numbers = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, -1.5, math.nan, math.inf]),
)
#: Integers on both sides of the 2**53 exact-float boundary.
near_2_53 = st.one_of(
    st.integers(-3, 3),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(-(2**53) - 3, -(2**53) + 3),
    st.integers(2**62, 2**64),
)


class TestJoinProperties:
    @given(left=rows_strategy, right=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_equi_join_matches_nested_loop(self, left, right):
        db = fresh_db()
        db.create_table("l", ["k", "a"], left)
        db.create_table("r", ["j", "b"], right)
        out = db.query(Join(Scan("l"), Scan("r"), predicate=col("k") == col("j")))
        expected = sorted(
            (k, a, j, b) for k, a in left for j, b in right if k == j
        )
        assert sorted(out.rows) == expected

    @given(left=rows_strategy, right=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_cross_join_cardinality(self, left, right):
        db = fresh_db()
        db.create_table("l", ["k", "a"], left)
        db.create_table("r", ["j", "b"], right)
        out = db.query(Join(Scan("l"), Scan("r")))
        assert len(out) == len(left) * len(right)

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_join_with_arithmetic_predicate_matches_filtered_product(self, rows):
        """The cross-product quirk is slow, never wrong."""
        db = fresh_db()
        db.create_table("l", ["k", "a"], rows)
        db.create_table("r", ["j", "b"], rows)
        out = db.query(Join(Scan("l"), Scan("r"),
                            predicate=col("k") == col("j") + lit(1)))
        expected = sorted(
            (k, a, j, b) for k, a in rows for j, b in rows if k == j + 1
        )
        assert sorted(out.rows) == expected


    @given(left=rows_strategy, right=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_equi_join_order_is_probe_major(self, left, right):
        """Right rows in order, each with its left matches in build order."""
        db = fresh_db()
        db.create_table("l", ["k", "a"], left)
        db.create_table("r", ["j", "b"], right)
        out = db.query(Join(Scan("l"), Scan("r"), predicate=col("k") == col("j")))
        assert out.rows == [(k, a, j, b) for j, b in right for k, a in left if k == j]
        two_keys = db.query(Join(Scan("l"), Scan("r"),
                                 predicate=(col("k") == col("j")) & (col("a") == col("b"))))
        assert two_keys.rows == [(k, a, j, b) for j, b in right for k, a in left
                                 if k == j and a == b]

    @given(left=rows_strategy, right=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_cross_join_order_is_left_major(self, left, right):
        db = fresh_db()
        db.create_table("l", ["k", "a"], left)
        db.create_table("r", ["j", "b"], right)
        out = db.query(Join(Scan("l"), Scan("r"), predicate=col("k") < col("j") + lit(1)))
        assert out.rows == [(k, a, j, b) for k, a in left for j, b in right if k < j + 1]

    @given(left=st.lists(st.tuples(awkward_keys, st.integers(0, 9)), max_size=25),
           right=st.lists(st.tuples(awkward_keys, st.integers(0, 9)), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_equi_join_on_awkward_keys_matches_oracle(self, left, right):
        tables = [("l", ["k", "a"], left), ("r", ["j", "b"], right)]
        columnar, oracle = run_both(
            tables, Join(Scan("l"), Scan("r"), predicate=col("k") == col("j")))
        assert columnar == oracle


class TestGroupByProperties:
    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_sums_partition_the_total(self, rows):
        db = fresh_db()
        db.create_table("t", ["k", "v"], rows)
        out = db.query(GroupBy(Scan("t"), keys=["k"],
                               aggs=[("s", "sum", col("v")),
                                     ("n", "count", None)]))
        assert sum(r[1] for r in out.rows) == sum(v for _, v in rows)
        assert sum(r[2] for r in out.rows) == len(rows)
        assert len(out) == len({k for k, _ in rows})

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_min_max_bound_members(self, rows):
        db = fresh_db()
        db.create_table("t", ["k", "v"], rows)
        out = db.query(GroupBy(Scan("t"), keys=["k"],
                               aggs=[("lo", "min", col("v")),
                                     ("hi", "max", col("v"))]))
        by_key: dict[int, list[int]] = {}
        for k, v in rows:
            by_key.setdefault(k, []).append(v)
        for k, lo, hi in out.rows:
            assert lo == min(by_key[k])
            assert hi == max(by_key[k])


    @given(rows=st.lists(st.tuples(st.one_of(awkward_keys, awkward_floats),
                                   awkward_numbers), max_size=40)
           | st.lists(st.tuples(awkward_floats, awkward_floats), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_awkward_keys_and_values_match_oracle(self, rows):
        """NaN, signed zeros, mixed int/float and str keys group as a
        dict does; sums, averages, minima and maxima fold as Python does."""
        tables = [("t", ["k", "v"], rows)]
        plan = GroupBy(Scan("t"), keys=["k"],
                       aggs=[("s", "sum", col("v")), ("a", "avg", col("v")),
                             ("lo", "min", col("v")), ("hi", "max", col("v")),
                             ("n", "count", None)])
        columnar, oracle = run_both(tables, plan)
        assert columnar == oracle
        columnar, oracle = run_both(tables, Distinct(Scan("t")))
        assert columnar == oracle

    @given(rows=st.lists(st.tuples(st.integers(0, 3), near_2_53), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_sums_near_2_53_stay_exact(self, rows):
        tables = [("t", ["k", "v"], rows)]
        plan = GroupBy(Scan("t"), keys=["k"],
                       aggs=[("s", "sum", col("v")), ("a", "avg", col("v")),
                             ("lo", "min", col("v")), ("hi", "max", col("v"))])
        columnar, oracle = run_both(tables, plan)
        assert columnar == oracle


class TestExpressionProperties:
    @given(rows=st.lists(st.tuples(near_2_53, near_2_53), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_integer_arithmetic_near_2_53_is_exact(self, rows):
        tables = [("t", ["x", "y"], rows)]
        plan = Project(Scan("t"), [("sum", col("x") + col("y")),
                                   ("diff", col("x") - col("y")),
                                   ("prod", col("x") * col("y")),
                                   ("less", col("x") < col("y")),
                                   ("mixed", col("x") * lit(0.5) + lit(1))])
        columnar, oracle = run_both(tables, plan)
        assert columnar == oracle
        columnar, oracle = run_both(tables, Select(Scan("t"), col("x") == col("y") + lit(1)))
        assert columnar == oracle

    @given(rows=st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_division_by_zero_raises_like_python(self, rows):
        tables = [("t", ["x", "y"], rows)]
        columnar, oracle = run_both(tables, Project(Scan("t"), [("q", col("x") / col("y"))]))
        assert columnar == oracle

    @given(values=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_sqrt_and_log_of_negatives_raise_like_math(self, values):
        tables = [("t", ["x"], [(v,) for v in values])]
        for fn in (sqrt, log):
            columnar, oracle = run_both(tables, Project(Scan("t"), [("y", fn(col("x")))]))
            assert columnar == oracle
            if any(v < 0 for v in values) or (fn is log and 0.0 in values):
                assert columnar == (ValueError, "math domain error")


class TestSelectDistinctProperties:
    @given(rows=rows_strategy, threshold=st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_select_is_a_filter(self, rows, threshold):
        db = fresh_db()
        db.create_table("t", ["k", "v"], rows)
        out = db.query(Select(Scan("t"), col("v") > lit(threshold)))
        assert sorted(out.rows) == sorted((k, v) for k, v in rows if v > threshold)

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_distinct_removes_duplicates_only(self, rows):
        db = fresh_db()
        db.create_table("t", ["k", "v"], rows)
        out = db.query(Distinct(Scan("t")))
        assert sorted(out.rows) == sorted(set(rows))


class TestSimulatorProperties:
    @given(
        factor=st.floats(min_value=1.0, max_value=1e6),
        machines=st.sampled_from([5, 20, 100]),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_scale(self, factor, machines):
        """More data never simulates faster on the same trace."""
        from repro.cluster import (
            PLATFORM_PROFILES, ClusterSpec, Kind, Simulator, Tracer,
        )

        tracer = Tracer()
        with tracer.iteration_phase(0):
            tracer.emit(Kind.COMPUTE, records=100, flops=1000, language="python")
            tracer.emit(Kind.SHUFFLE, records=10, bytes=1e6, language="python")
        sim = Simulator(ClusterSpec(machines=machines), PLATFORM_PROFILES["spark"])
        base = sim.simulate(tracer, {"data": 1.0}).mean_iteration_seconds
        scaled = sim.simulate(tracer, {"data": factor}).mean_iteration_seconds
        assert scaled >= base * 0.999
        assert scaled == pytest.approx(base * factor, rel=1e-6)
