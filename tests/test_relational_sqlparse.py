"""Tests for the SimSQL-dialect SQL parser."""

import pytest

from repro.cluster import ClusterSpec, Tracer
from repro.relational import Database, DirichletVG, InvGaussianVG, Table, optimize
from repro.relational.plan import GroupBy, Join, Project, Scan, Select, VGOp
from repro.relational.sqlparse import (
    SQLSyntaxError,
    execute_statement,
    parse_query,
    tokenize,
)
from repro.stats import make_rng


@pytest.fixture
def db():
    d = Database(ClusterSpec(machines=2), rng=make_rng(0))
    d.create_table("data", ["data_id", "dim_id", "data_val"],
                   [(j, i, float(j + i)) for j in range(6) for i in range(3)],
                   scale="data")
    d.create_table("cluster", ["clus_id", "pi_prior"],
                   [(k, 1.0) for k in range(3)])
    return d


class TestTokenizer:
    def test_basic(self):
        tokens = tokenize("select a.b, 1.5 from t where x >= 2;")
        assert [t.text for t in tokens] == [
            "select", "a.b", ",", "1.5", "from", "t", "where", "x", ">=", "2", ";",
        ]

    def test_versioned_table_names(self):
        tokens = tokenize("select v from membership[i-1]")
        assert tokens[-1].text == "membership[i-1]"

    def test_rejects_garbage(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select @ from t")


class TestParsing:
    def test_plain_select(self):
        plan = parse_query("select dim_id, data_val from data")
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Scan)

    def test_where_becomes_select(self):
        plan = parse_query("select dim_id from data where data_val > 3")
        assert isinstance(plan.child, Select)

    def test_group_by_builds_aggregation(self):
        plan = parse_query(
            "select dim_id, avg(data_val) as m from data group by dim_id")
        inner = plan.child
        assert isinstance(inner, GroupBy)
        assert inner.keys == ["dim_id"]
        assert inner.aggs[0][:2] == ("m", "avg")

    def test_two_table_join_gets_predicate(self):
        plan = parse_query(
            "select d.data_id from data as d, cluster as c "
            "where d.dim_id = c.clus_id")
        join = plan.child
        assert isinstance(join, Join)
        optimized = optimize(join)
        assert optimized.strategy == "hash"

    def test_arithmetic_join_predicate_goes_cross(self):
        """The optimizer quirk survives the SQL surface."""
        plan = parse_query(
            "select d.data_id from data as d, cluster as c "
            "where d.dim_id = c.clus_id + 1")
        optimized = optimize(plan.child)
        assert optimized.strategy == "cross"

    def test_non_aggregated_item_must_be_key(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("select data_val, count(*) from data group by dim_id")

    def test_unknown_vg_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("with r as Mystery (select a from t) select r.a from r")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("select a from t bogus extra")


class TestExecution:
    def test_select_where(self, db):
        out = execute_statement(db, "select data_id, data_val from data "
                                    "where data_val > 5;")
        assert all(v > 5 for _, v in out.rows)

    def test_expressions(self, db):
        out = execute_statement(
            db, "select data_id, data_val * 2 + 1 as y from data where dim_id = 0;")
        assert dict(out.rows) == {j: 2.0 * j + 1 for j in range(6)}

    def test_sqrt_function(self, db):
        out = execute_statement(db, "select sqrt(data_val) as r from data "
                                    "where data_id = 4 and dim_id = 0;")
        assert out.rows[0][0] == pytest.approx(2.0)

    def test_group_by_avg(self, db):
        """The paper's mean_prior view, verbatim."""
        execute_statement(db, """
            create view mean_prior(dim_id, dim_val) as
            select dim_id, avg(data_val)
            from data
            group by dim_id;
        """)
        out = db.query(db.scan("mean_prior"))
        assert dict(out.rows) == {0: 2.5, 1: 3.5, 2: 4.5}

    def test_count_star(self, db):
        out = execute_statement(
            db, "select dim_id, count(*) as n from data group by dim_id;")
        assert dict(out.rows) == {0: 6, 1: 6, 2: 6}

    def test_join_where(self, db):
        out = execute_statement(db, """
            select d.data_id, c.pi_prior
            from data as d, cluster as c
            where d.dim_id = c.clus_id;
        """)
        assert len(out) == 18

    def test_create_table_materializes(self, db):
        execute_statement(db, "create table big(data_id) as "
                              "select data_id from data where data_val > 6;")
        stored = db.table("big")
        assert stored.schema.columns == ("data_id",)
        # A later change to data does not affect the materialized table.
        data = db.table("data")
        db.store("data", Table.from_rows("data", data.schema,
                                         data.rows + [(9, 0, 100.0)], data.scale))
        assert len(db.table("big")) == len(stored)

    def test_create_view_column_rename(self, db):
        execute_statement(db, "create view renamed(a, b) as "
                              "select data_id, data_val from data where dim_id = 1;")
        out = db.query(db.scan("renamed"))
        assert out.schema.columns == ("a", "b")

    def test_column_count_mismatch(self, db):
        # A virtual view stores its plan; the arity error surfaces when
        # the view is evaluated.
        execute_statement(db, "create view bad(a, b, c) as "
                              "select data_id from data;")
        with pytest.raises(ValueError):
            db.query(db.scan("bad"))

    def test_vg_single_param_paper_statement(self, db):
        """The paper's clus_prob[0] initialization, near-verbatim."""
        registry = {"Dirichlet": {"vg": DirichletVG(), "params": ["alpha"]}}
        out = execute_statement(db, """
            create table clus_prob(clus_id, prob) as
            with diri_res as Dirichlet
                (select clus_id, pi_prior from cluster)
            select diri_res.out_id, diri_res.prob
            from diri_res;
        """, vg_registry=registry)
        assert out.schema.columns == ("clus_id", "prob")
        assert sum(p for _, p in out.rows) == pytest.approx(1.0)

    def test_vg_two_param_form(self, db):
        """The paper's InvGaussian call shape: two parenthesized queries."""
        db.create_table("mu_t", ["v"], [(2.0,)])
        db.create_table("lam_t", ["v"], [(3.0,)])
        registry = {"InvGaussian": {"vg": InvGaussianVG(), "params": ["mu", "lam"]}}
        out = execute_statement(db, """
            with ig as InvGaussian((select v from mu_t), (select v from lam_t))
            select ig.value from ig;
        """, vg_registry=registry)
        assert out.rows[0][0] > 0

    def test_cost_events_flow_through_sql(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer, rng=make_rng(0))
        d.create_table("t", ["k", "v"], [(i % 3, float(i)) for i in range(30)],
                       scale="data")
        with tracer.phase("q"):
            execute_statement(d, "select k, sum(v) as s from t group by k;")
        kinds = {e.kind.value for e in tracer.phases[0].events}
        assert "compute" in kinds and "shuffle" in kinds and "job" in kinds
