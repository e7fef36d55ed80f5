"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The end-to-end tests run real child processes, cut to the first
operations of a workload with the child's ``--ops`` option.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = "2"


def child(tmp_path: Path, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--out-dir", str(tmp_path), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cells(tmp_path: Path, mode: str, *extra: str) -> dict:
    return child(tmp_path, "--workload", "engine-cells", "--seed", str(wl.DEFAULT_SEED),
                 "--mode", mode, "--ops", OPS, *extra)


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    plain = cells(out, "run", "--max-passes", "1")
    traced = cells(out, "traced")
    spans = json.loads((out / f"spans-engine-cells-seed{wl.DEFAULT_SEED}.json").read_text())
    return plain, traced, spans


def run_main(monkeypatch, capsys, *argv: str) -> dict:
    """``run.main`` with every child cut to its first operations."""
    real = run.run_child
    monkeypatch.setattr(run, "run_child",
                        lambda args, mode, deadline, *extra:
                        real(args, mode, deadline, *extra, "--ops", OPS))
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, kind):
    result = run_main(monkeypatch, capsys, "--workload", "engine-cells",
                      "--seed", str(wl.DEFAULT_SEED), "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_planted_digest_mismatch_counts_as_failures(tmp_path):
    reference = json.loads((HERE / "reference_digests.json").read_text())
    first = wl.table_specs("engine-cells", wl.DEFAULT_SEED)[0][0]
    reference["engine-cells"][first] = "0" * 64
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(reference))
    result = cells(tmp_path, "run", "--max-passes", "1", "--reference", str(planted))
    assert result["attempted"] == int(OPS)
    assert result["failed"] == 1
    assert result["failures"][0].startswith(first)


def test_other_seed_gives_other_inputs():
    def inputs(seed):
        specs = [spec for _, spec in wl.table_specs("sql-cells", seed)]
        data = [pickle.dumps(w.build()) for w in wl.workload_specs(specs)]
        return data, [spec.seed for spec in specs]

    default_data, default_seeds = inputs(wl.DEFAULT_SEED)
    assert inputs(wl.DEFAULT_SEED) == (default_data, default_seeds)
    other_data, other_seeds = inputs(7)
    assert set(other_seeds).isdisjoint(default_seeds)
    assert len(other_data) == len(default_data)
    assert not set(other_data) & set(default_data)
    assert wl.derive(7, "grid-seed", 0) != wl.derive(wl.DEFAULT_SEED, "grid-seed", 0)


def test_default_seed_runs_the_published_figure_cells():
    from repro.bench.experiments import figure_specs

    specs = [spec for _, spec in wl.table_specs("engine-cells", wl.DEFAULT_SEED)]
    assert len(specs) == wl.ENGINE_CELL_COUNT
    published = {spec.key for name in ("figure_1a", "figure_2", "figure_6")
                 for spec in figure_specs(name)}
    assert published & {spec.key for spec in specs}


def test_host_probe_samples_through_a_span_and_stops():
    host = calibrate.HostProbe(interval=0.01).start()
    try:
        before = host.totals
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        probes = calibrate.window(before, host.totals)
    finally:
        host.stop()
    assert probes[0] >= 3 and probes[1] > 0 and probes[2] > 0
    assert calibrate.host_speed(probes) == pytest.approx(
        calibrate.REFERENCE_S * probes[0] / probes[1])
    stopped = host.totals
    time.sleep(0.05)
    assert host.totals == stopped
    with pytest.raises(ValueError):
        calibrate.host_speed([0, 0.0, 0.0])


def test_spans_nest_with_nonnegative_self_time():
    spans = spanlib.Spans()
    leaf = spans.wrap(lambda: sum(range(1000)), "leaf")
    with spans.span("outer", op="a"):
        leaf()
        with spans.span("inner"):
            leaf()
    outer, inner = spans.records
    assert inner["parent"] == outer["id"] and inner["op"] == outer["op"] == "a"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert spans.calls("leaf") == 2
    total = spans.inclusive_seconds("outer")
    parts = spans.self_seconds("outer", "inner", "leaf")
    assert parts == pytest.approx(total)
    assert all(s >= 0 for _, _, s in spans.totals.values())


def test_traced_run_spans_nest(traced_pair):
    _, _, trace = traced_pair
    records = {r["id"]: r for r in trace["spans"]}
    names = {r["name"] for r in records.values()}
    assert {"setup", "op", "execution", "simulator.simulate", "runner.validate"} <= names
    for record in records.values():
        assert record["start"] <= record["end"]
        assert record["self"] >= -1e-9
        if record["parent"] is None:
            continue
        parent = records[record["parent"]]
        assert parent["start"] <= record["start"] <= record["end"] <= parent["end"]
        if parent["name"] == "op":
            assert record["op"] == parent["op"]
    ops = [r["op"] for r in records.values() if r["name"] == "op"]
    assert len(ops) == int(OPS) == len(set(ops))
    assert all(t["self_seconds"] >= -1e-9 for t in trace["totals"].values())


def test_traced_outputs_equal_untraced(traced_pair):
    plain, traced, _ = traced_pair
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"] == traced["digests"] and len(plain["digests"]) == int(OPS)
    layers = traced["layers"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer - set(layers) == {"trace.overhead_s"}
    assert layers["tracer.events"] > 0 and layers["kernels.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "sql-cells", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
