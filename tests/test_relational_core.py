"""Tests for the relational engine: schema, expressions, operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FIXED, ClusterSpec
from repro.relational import (
    Alias,
    Database,
    Distinct,
    GroupBy,
    Join,
    Project,
    Scan,
    Schema,
    Select,
    Table,
    Union,
    col,
    lit,
    sqrt,
)


def append_row(db, name, row):
    """Replace base table ``name`` with a copy holding one more row
    (tables are immutable)."""
    old = db.table(name)
    db.store(name, Table.from_rows(name, old.schema, old.rows + [row], old.scale))


@pytest.fixture
def db():
    d = Database(ClusterSpec(machines=2))
    d.create_table("points", ["id", "x", "y"], [(0, 1.0, 2.0), (1, 3.0, 4.0), (2, 5.0, 6.0)])
    d.create_table(
        "pairs", ["k", "v"], [(0, 10.0), (0, 20.0), (1, 30.0), (1, 40.0), (2, 50.0)]
    )
    return d


class TestSchema:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema(())

    def test_index(self):
        s = Schema(("a", "b"))
        assert s.index("b") == 1
        with pytest.raises(KeyError):
            s.index("z")

    def test_concat_suffixes_clashes(self):
        merged = Schema(("a", "b")).concat(Schema(("b", "c")))
        assert merged.columns == ("a", "b", "b_r", "c")


class TestExpressions:
    def test_arithmetic(self):
        schema = Schema(("x", "y"))
        fn = ((col("x") + col("y")) * lit(2)).bind(schema)
        assert fn((3.0, 4.0)) == 14.0

    def test_reverse_operators(self):
        schema = Schema(("x",))
        assert (1 - col("x")).bind(schema)((0.25,)) == 0.75
        assert (10 / col("x")).bind(schema)((2.0,)) == 5.0

    def test_comparisons_and_boolean(self):
        schema = Schema(("x", "y"))
        fn = ((col("x") > 1) & (col("y") <= 4)).bind(schema)
        assert fn((2, 4)) is True
        assert fn((0, 4)) is False
        assert ((col("x") == 2) | (col("y") == 9)).bind(schema)((2, 0)) is True
        assert (~(col("x") == 2)).bind(schema)((2, 0)) is False

    def test_functions(self):
        fn = sqrt(col("x") * col("x")).bind(Schema(("x",)))
        assert fn((3.0,)) == 3.0

    def test_unknown_column_raises_at_bind(self):
        with pytest.raises(KeyError):
            col("missing").bind(Schema(("x",)))


class TestBasicOperators:
    def test_scan(self, db):
        out = db.query(Scan("points"))
        assert len(out) == 3
        assert out.schema.columns == ("id", "x", "y")

    def test_scan_unknown_table(self, db):
        with pytest.raises(KeyError):
            db.query(Scan("nope"))

    def test_select(self, db):
        out = db.query(Select(Scan("points"), col("x") > 1.0))
        assert [r[0] for r in out.rows] == [1, 2]

    def test_project(self, db):
        out = db.query(Project(Scan("points"), [("id", col("id")), ("s", col("x") + col("y"))]))
        assert out.schema.columns == ("id", "s")
        assert out.rows[0] == (0, 3.0)

    def test_alias_prefixes(self, db):
        out = db.query(Alias(Scan("points"), "p"))
        assert out.schema.columns == ("p.id", "p.x", "p.y")

    def test_union(self, db):
        out = db.query(Union([Scan("points"), Scan("points")]))
        assert len(out) == 6

    def test_union_arity_mismatch(self, db):
        with pytest.raises(ValueError):
            db.query(Union([Scan("points"), Scan("pairs")]))

    def test_union_scale_is_the_one_growing_input_scale(self, db):
        db.create_table("d", ["v"], [(1.0,)], scale="data")
        db.create_table("f", ["v"], [(2.0,)])
        assert db.query(Union([Scan("d"), Scan("f")])).scale == "data"
        assert db.query(Union([Scan("f"), Scan("f")])).scale == FIXED

    def test_union_of_two_growing_scales_raises(self, db):
        """No single scale group can carry the charge of data + vocab rows."""
        db.create_table("d", ["v"], [(1.0,)], scale="data")
        db.create_table("w", ["v"], [(2.0,)], scale="vocab")
        db.create_table("f", ["v"], [(3.0,)])
        with pytest.raises(ValueError, match=r"\['data', 'vocab'\]"):
            db.query(Union([Scan("d"), Scan("w"), Scan("f")]))

    def test_distinct(self, db):
        plan = Distinct(Project(Scan("pairs"), [("k", col("k"))]))
        assert sorted(db.query(plan).rows) == [(0,), (1,), (2,)]


class TestGroupBy:
    def test_sum_count_avg(self, db):
        plan = GroupBy(
            Scan("pairs"), keys=["k"],
            aggs=[("total", "sum", col("v")), ("n", "count", None), ("mean", "avg", col("v"))],
        )
        out = {r[0]: r[1:] for r in db.query(plan).rows}
        assert out[0] == (30.0, 2, 15.0)
        assert out[1] == (70.0, 2, 35.0)
        assert out[2] == (50.0, 1, 50.0)

    def test_min_max(self, db):
        plan = GroupBy(Scan("pairs"), keys=["k"],
                       aggs=[("lo", "min", col("v")), ("hi", "max", col("v"))])
        out = {r[0]: r[1:] for r in db.query(plan).rows}
        assert out[1] == (30.0, 40.0)

    def test_global_aggregate(self, db):
        plan = GroupBy(Scan("pairs"), keys=[], aggs=[("total", "sum", col("v"))])
        out = db.query(plan)
        assert out.rows == [(150.0,)]

    def test_unknown_aggregate_kind(self, db):
        plan = GroupBy(Scan("pairs"), keys=["k"], aggs=[("m", "median", col("v"))])
        with pytest.raises(ValueError):
            db.query(plan)

    @given(
        values=st.lists(st.tuples(st.integers(0, 4), st.integers(-50, 50)), min_size=1, max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_python(self, values):
        d = Database(ClusterSpec(machines=1))
        d.create_table("t", ["k", "v"], values)
        out = d.query(GroupBy(Scan("t"), keys=["k"], aggs=[("s", "sum", col("v"))]))
        expected: dict[int, int] = {}
        for k, v in values:
            expected[k] = expected.get(k, 0) + v
        assert dict(out.rows) == expected


class TestJoins:
    def test_hash_join(self, db):
        plan = Join(Scan("points"), Scan("pairs"), predicate=col("id") == col("k"))
        out = db.query(plan)
        assert len(out) == 5
        assert out.schema.columns == ("id", "x", "y", "k", "v")

    def test_join_without_predicate_is_cross(self, db):
        out = db.query(Join(Scan("points"), Scan("pairs")))
        assert len(out) == 15

    def test_residual_predicate_applied(self, db):
        plan = Join(Scan("points"), Scan("pairs"),
                    predicate=(col("id") == col("k")) & (col("v") > 25.0))
        out = db.query(plan)
        assert all(r[-1] > 25.0 for r in out.rows)
        assert len(out) == 3

    def test_self_join_via_alias(self, db):
        plan = Join(Alias(Scan("pairs"), "a"), Alias(Scan("pairs"), "b"),
                    predicate=col("a.k") == col("b.k"))
        out = db.query(plan)
        assert len(out) == 2 * 2 + 2 * 2 + 1

    def test_missing_join_key_raises(self, db):
        plan = Join(Scan("points"), Scan("pairs"), predicate=col("id") == col("zzz"))
        with pytest.raises(KeyError):
            db.query(plan)


class TestViews:
    def test_virtual_view_recomputes(self, db):
        db.create_view("big", Select(Scan("points"), col("x") > 1.0))
        assert len(db.query(Scan("big"))) == 2
        # Base-table change is visible through the virtual view.
        append_row(db, "points", (3, 9.0, 9.0))
        assert len(db.query(Scan("big"))) == 3

    def test_materialized_view_frozen(self, db):
        db.create_view("snap", Select(Scan("points"), col("x") > 1.0), materialized=True)
        append_row(db, "points", (3, 9.0, 9.0))
        assert len(db.query(Scan("snap"))) == 2

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_table("points", ["a"], [])
        with pytest.raises(ValueError):
            db.create_view("points", Scan("pairs"))
