"""Tests for VG functions, the optimizer quirk, random tables, and costs."""

import numpy as np
import pytest

from repro.cluster import DATA, FIXED, ClusterSpec, Kind, Tracer
from repro.relational import (
    Database,
    DirichletVG,
    GroupBy,
    InvGammaVG,
    InvGaussianVG,
    InvWishartVG,
    Join,
    MarkovChain,
    NormalVG,
    Project,
    RandomTable,
    Scan,
    Select,
    VGOp,
    col,
    lit,
    optimize,
    versioned,
)
from repro.stats import make_rng


@pytest.fixture
def db():
    return Database(ClusterSpec(machines=2), rng=make_rng(7))


class TestOptimizerQuirk:
    def test_plain_equality_becomes_hash_join(self):
        plan = optimize(Join(Scan("a"), Scan("b"), predicate=col("x") == col("y")))
        assert plan.strategy == "hash"
        assert plan.equi_keys == [("x", "y")]

    def test_arithmetic_equality_becomes_cross_product(self):
        """The paper's Section 7.2 quirk: ``t1.pos = t2.pos + 1``."""
        plan = optimize(Join(Scan("a"), Scan("b"), predicate=col("pos") == col("pos2") + lit(1)))
        assert plan.strategy == "cross"

    def test_mixed_conjunction_keeps_hash_with_residual(self):
        predicate = (col("x") == col("y")) & (col("v") > lit(3))
        plan = optimize(Join(Scan("a"), Scan("b"), predicate=predicate))
        assert plan.strategy == "hash"
        assert plan.residual is not None

    def test_cross_product_does_quadratic_work(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer, rng=make_rng(0))
        d.create_table("a", ["pos"], [(i,) for i in range(20)], scale=DATA)
        d.create_table("b", ["pos2"], [(i,) for i in range(20)], scale=DATA)
        with tracer.phase("q"):
            d.query(Join(Scan("a"), Scan("b"), predicate=col("pos") == col("pos2") + lit(1)))
        cross = [e for p in tracer.phases for e in p.events if e.label == "join:cross"]
        assert cross[0].records == 400
        assert cross[0].scale == "data*data"


class TestVGFunctions:
    def test_dirichlet_vg_outputs_simplex(self, db):
        db.create_table("cluster", ["clus_id", "pi_prior"], [(k, 1.0) for k in range(4)])
        plan = VGOp(DirichletVG(), {"alpha": Scan("cluster")})
        out = db.query(plan)
        probs = [r[1] for r in out.rows]
        assert len(out) == 4
        assert sum(probs) == pytest.approx(1.0)

    def test_normal_vg_roundtrip(self, db):
        db.create_table("mu", ["dim_id", "value"], [(0, 1.0), (1, -1.0)])
        db.create_table("cov", ["d1", "d2", "value"],
                        [(0, 0, 0.25), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 0.25)])
        out = db.query(VGOp(NormalVG(), {"mean": Scan("mu"), "cov": Scan("cov")}))
        assert out.schema.columns == ("dim_id", "value")
        draws = dict(out.rows)
        assert abs(draws[0] - 1.0) < 3.0 and abs(draws[1] + 1.0) < 3.0

    def test_invwishart_vg_positive_definite(self, db):
        dims = range(3)
        db.create_table("psi", ["d1", "d2", "value"],
                        [(i, j, 2.0 if i == j else 0.0) for i in dims for j in dims])
        db.create_table("df", ["df"], [(8.0,)])
        out = db.query(VGOp(InvWishartVG(), {"scale": Scan("psi"), "df": Scan("df")}))
        m = np.zeros((3, 3))
        for d1, d2, value in out.rows:
            m[d1, d2] = value
        assert np.linalg.eigvalsh(m).min() > 0

    def test_scalar_vgs(self, db):
        db.create_table("sh", ["v"], [(3.0,)])
        db.create_table("sc", ["v"], [(2.0,)])
        out = db.query(VGOp(InvGammaVG(), {"shape": Scan("sh"), "scale": Scan("sc")}))
        assert out.rows[0][0] > 0
        db.create_table("mu", ["v"], [(1.0,)])
        db.create_table("lam", ["v"], [(2.0,)])
        out = db.query(VGOp(InvGaussianVG(), {"mu": Scan("mu"), "lam": Scan("lam")}))
        assert out.rows[0][0] > 0

    def test_grouped_invocation_per_entity(self, db):
        """FOR EACH r IN ...: one invocation per group-key value."""
        rows = [(p, k, 1.0 + k) for p in range(5) for k in range(3)]
        db.create_table("weights", ["point_id", "id", "weight"], rows, scale=DATA)
        plan = VGOp(DirichletVG(), {"alpha": Scan("weights")}, group_key="point_id")
        out = db.query(plan)
        assert out.schema.columns == ("point_id", "out_id", "prob")
        assert len(out) == 15
        by_point = {}
        for point_id, _, prob in out.rows:
            by_point[point_id] = by_point.get(point_id, 0.0) + prob
        assert all(total == pytest.approx(1.0) for total in by_point.values())

    def test_broadcast_param_without_key(self, db):
        """A parameter table lacking the group key is given to every group."""
        from repro.relational import VGFunction

        class EchoVG(VGFunction):
            name = "Echo"
            output_columns = ("n_local", "n_shared")

            def invoke(self, rng, params):
                return [(len(params["local"]), len(params["shared"]))]

        db.create_table("keyed", ["g", "v"], [(0, 1.0), (0, 2.0), (1, 3.0)], scale=DATA)
        db.create_table("shared", ["v"], [(10.0,), (20.0,)])
        plan = VGOp(EchoVG(), {"local": Scan("keyed"), "shared": Scan("shared")}, group_key="g")
        out = db.query(plan)
        assert dict((r[0], (r[1], r[2])) for r in out.rows) == {0: (2, 2), 1: (1, 2)}

    def test_missing_group_key_raises(self, db):
        db.create_table("nk", ["id", "w"], [(0, 1.0)])
        plan = VGOp(DirichletVG(), {"alpha": Scan("nk")}, group_key="absent")
        with pytest.raises(KeyError):
            db.query(plan)

    def test_missing_param_raises(self, db):
        db.create_table("x", ["df"], [(5.0,)])
        with pytest.raises(KeyError):
            db.query(VGOp(InvWishartVG(), {"df": Scan("x")}))

    def test_wrong_width_output_names_the_vg(self, db):
        """A VG function whose rows do not fit its declared output
        columns is named in the error, with those columns."""
        from repro.relational import VGFunction

        class WideVG(VGFunction):
            name = "Wide"
            output_columns = ("a", "b")

            def invoke(self, rng, params):
                return [(1.0, 2.0), (1.0, 2.0, 3.0)]

        db.create_table("keyed", ["g", "v"], [(0, 1.0), (1, 3.0)], scale=DATA)
        for group_key in (None, "g"):
            plan = VGOp(WideVG(), {"p": Scan("keyed")}, group_key=group_key)
            with pytest.raises(ValueError, match=r"VG function 'Wide'.*\('a', 'b'\)"):
                db.query(plan)


class TestMarkovChain:
    def _chain(self, db):
        """A toy chain: counter[i] = counter[i-1] + 1 per row."""
        db.create_table("seed", ["id", "v"], [(0, 0.0), (1, 10.0)])
        table = RandomTable(
            "counter",
            init=lambda d: Scan("seed"),
            update=lambda d, i: Project(
                Scan(versioned("counter", i - 1)),
                [("id", col("id")), ("v", col("v") + lit(1.0))],
            ),
        )
        return MarkovChain(db, [table])

    def test_initialize_and_step(self, db):
        chain = self._chain(db)
        chain.initialize()
        assert chain.current("counter").rows == [(0, 0.0), (1, 10.0)]
        chain.step()
        chain.step()
        assert chain.version == 2
        assert dict(chain.current("counter").rows) == {0: 2.0, 1: 12.0}

    def test_step_before_initialize_raises(self, db):
        chain = self._chain(db)
        with pytest.raises(RuntimeError):
            chain.step()

    def test_double_initialize_raises(self, db):
        chain = self._chain(db)
        chain.initialize()
        with pytest.raises(RuntimeError):
            chain.initialize()

    def test_garbage_collection(self, db):
        chain = self._chain(db)
        chain.initialize()
        for _ in range(3):
            chain.step()
        assert versioned("counter", 3) in db.relations()
        assert versioned("counter", 2) in db.relations()
        assert versioned("counter", 0) not in db.relations()

    def test_duplicate_tables_rejected(self, db):
        table = RandomTable("t", init=lambda d: Scan("x"), update=lambda d, i: Scan("x"))
        with pytest.raises(ValueError):
            MarkovChain(db, [table, table])


class TestCostAccounting:
    def test_query_charges_mr_jobs(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k", "v"], [(0, 1.0), (1, 2.0)])
        with tracer.phase("q"):
            d.query(GroupBy(Scan("t"), keys=["k"], aggs=[("s", "sum", col("v"))]))
        jobs = [e for e in tracer.phases[0].events if e.kind is Kind.JOB]
        assert jobs[0].records == 2  # group-by job + final job

    def test_scan_reads_disk(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k"], [(i,) for i in range(100)], scale=DATA)
        with tracer.phase("q"):
            d.query(Scan("t"))
        reads = [e for e in tracer.phases[0].events if e.kind is Kind.DISK_READ]
        writes = [e for e in tracer.phases[0].events if e.kind is Kind.DISK_WRITE]
        assert reads and reads[0].scale == DATA
        assert writes  # results land back on HDFS

    def test_per_tuple_compute_charged_in_sql(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k"], [(i,) for i in range(50)], scale=DATA)
        with tracer.phase("q"):
            d.query(Select(Scan("t"), col("k") > 10))
        computes = [e for e in tracer.phases[0].events
                    if e.kind is Kind.COMPUTE and e.label == "select"]
        assert computes[0].records == 50
        assert computes[0].language == "sql"

    def test_effective_combine_makes_shuffle_fixed(self):
        """Few groups => combiner caps the shuffle at groups x partitions."""
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k", "v"], [(i % 3, float(i)) for i in range(300)], scale=DATA)
        with tracer.phase("q"):
            d.query(GroupBy(Scan("t"), keys=["k"], aggs=[("s", "sum", col("v"))]))
        shuffles = [e for e in tracer.phases[0].events if e.kind is Kind.SHUFFLE]
        assert shuffles[0].scale == FIXED
        assert shuffles[0].records <= 3 * ClusterSpec(machines=2).total_cores

    def test_keyed_by_row_shuffle_stays_data_scaled(self):
        """Group per data row => no combining, full input shuffles."""
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k", "v"], [(i, float(i)) for i in range(300)], scale=DATA)
        with tracer.phase("q"):
            d.query(GroupBy(Scan("t"), keys=["k"], aggs=[("s", "sum", col("v"))]))
        shuffles = [e for e in tracer.phases[0].events if e.kind is Kind.SHUFFLE]
        assert shuffles[0].scale == DATA
        assert shuffles[0].records == 300

    def test_aggregation_hashtable_is_spillable(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer)
        d.create_table("t", ["k", "v"], [(i % 5, float(i)) for i in range(100)], scale=DATA)
        with tracer.phase("q"):
            d.query(GroupBy(Scan("t"), keys=["k"], aggs=[("s", "sum", col("v"))]))
        tables = [m for m in tracer.phases[0].memory if m.label.endswith("hashtable")]
        assert tables and tables[0].spillable

    def test_vg_internal_work_charged_as_cpp(self):
        tracer = Tracer()
        d = Database(ClusterSpec(machines=2), tracer=tracer, rng=make_rng(0))
        d.create_table("alpha", ["id", "a"], [(k, 1.0) for k in range(5)])
        with tracer.phase("q"):
            d.query(VGOp(DirichletVG(), {"alpha": Scan("alpha")}))
        vg_events = [e for e in tracer.phases[0].events if e.label.startswith("vg:")]
        assert any(e.language == "cpp" for e in vg_events)
        assert any(e.language == "sql" and e.label.endswith("emit") for e in vg_events)
