"""One benchmark process: set up a workload, run its timed part, report.

``run.py`` starts this script in fresh processes, one workload each::

    python3 perfbench/child.py --workload sql-cells --seed 20140622 \\
        --seconds 30 --mode run

Modes:

* ``prime``  — import everything once and exit, so later processes find
  compiled bytecode and warm file caches;
* ``setup``  — set up the workload and exit (a set-up time sample);
* ``run``    — set up, then run whole passes over the operations until
  the next pass would end past ``--seconds`` (at least one pass);
* ``traced`` — like ``run`` with spans around every layer, one pass.

With ``--calibrate`` (``setup`` and ``run``), a
:class:`calibrate.HostProbe` runs from the start of the process to the
end of the last pass; the probe windows of the set-up and of every pass
are reported so the parent can scale their times to the reference host
speed.

The last stdout line is a JSON object.  ``t_first`` is the
``time.perf_counter()`` reading just before the first timed operation;
the parent, which read the same clock before starting this process,
turns it into the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import spans as spanlib
import workloads as wl

REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"


def _import_program(spans) -> None:
    """Import the program; in the traced run, wrap kernels and ``stats``
    after ``import repro`` and before ``repro.impls`` is imported."""
    with spans.span("repro.import"):
        import repro  # noqa: F401
    if spans.enabled:
        with spans.span("bench.instrument"):
            spanlib.instrument_kernels(spans)
    with spans.span("repro.import"):
        import repro.bench.experiments  # noqa: F401
        import repro.bench.faultsweep  # noqa: F401
        import repro.impls  # noqa: F401
        import repro.service.execution  # noqa: F401


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def context() -> dict:
    return {
        "python": sys.version.split()[0],
        "host_cpus": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Counter:
    """Trace sizes seen by the simulator (traced run)."""

    def __init__(self) -> None:
        self.events = 0
        self.phases = 0

    def __call__(self, tracer) -> None:
        summary = tracer.summary()
        self.events += summary["events"]
        self.phases += summary["phases"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True,
                        choices=("prime", "setup", "run", "traced"))
    parser.add_argument("--max-passes", type=int, default=0,
                        help="stop after this many passes (0: no limit)")
    parser.add_argument("--ops", type=int, default=0,
                        help="run only the first N operations (tests)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference digests JSON")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's digests as the workload's "
                             "reference instead of checking against it")
    parser.add_argument("--calibrate", action="store_true",
                        help="run the host-speed probe through set-up and passes")
    parser.add_argument("--out-dir", default=".perfbench_out",
                        help="where the traced run writes its spans and a "
                             "non-default seed its digests")
    args = parser.parse_args(argv)

    traced = args.mode == "traced"
    host = calibrate.HostProbe().start() if args.calibrate else None
    spans = spanlib.Spans() if traced else spanlib.NullSpans()
    counter = Counter()
    with spans.span("setup", op="setup"):
        _import_program(spans)
        if args.mode == "prime":
            print(json.dumps({"primed": True}))
            return 0
        if traced:
            with spans.span("bench.instrument"):
                spanlib.instrument_harness(spans, counter)
        workload = wl.build(args.workload, args.seed, spans)
        if args.ops:
            workload.ops = workload.ops[:args.ops]
    t_first = time.perf_counter()
    setup_probe = calibrate.window((0, 0.0, 0.0), host.totals) if host else None
    if args.mode == "setup":
        if host:
            host.stop()
        print(json.dumps({"t_first": t_first, "setup_probe": setup_probe}))
        return 0

    from repro import fastpath

    reference = {}
    if args.seed == wl.DEFAULT_SEED and not args.write_reference:
        reference = json.loads(Path(args.reference).read_text())[args.workload]
    max_passes = 1 if traced else args.max_passes
    passes = []
    digests: dict[str, str] = {}
    attempted = failed = 0
    failures: list[str] = []
    started = time.perf_counter()
    while True:
        kept = {}  # small per-op evidence for the checks; outputs are dropped
        fastpath.reset_counters()
        probe0 = host.totals if host else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in workload.ops:
            attempted += op.size
            try:
                with spans.span("op", op=op.id):
                    output = op.run()
                digest = workload.digest(output)
            except Exception as exc:  # a failed operation, not a failed run
                failed += op.size
                failures.append(f"{op.id}: {type(exc).__name__}: {exc}")
                continue
            expected = reference.get(op.id, digests.get(op.id))
            if expected is not None and digest != expected:
                failed += op.size
                failures.append(f"{op.id}: digest {digest[:12]} != {expected[:12]}")
            digests.setdefault(op.id, digest)
            kept[op.id] = workload.keep(output)
            del output
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        passes.append({"wall": wall, "cpu": cpu,
                       "probe": calibrate.window(probe0, host.totals) if host else None})
        counts = fastpath.counters()
        elapsed = time.perf_counter() - started
        if (max_passes and len(passes) >= max_passes) or elapsed + wall > args.seconds:
            break
    if host:
        host.stop()
    sizes = {op.id: op.size for op in workload.ops}
    if reference and not args.ops and set(reference) != set(sizes):
        failures.append(f"operations differ from the reference: "
                        f"{sorted(set(reference) ^ set(sizes))}")
        failed += 1
    if traced:
        batch = sum(counts["batch"].values())
        decline = sum(counts["decline"].values())
        layers = layer_metrics(spans, workload, kept, counter, batch, decline)
    for op_id in workload.check(kept):
        failed += sizes[op_id]
        failures.append(f"{op_id}: failed the output check")

    result = {
        "t_first": t_first,
        "setup_probe": setup_probe,
        "passes": passes,
        "ops": sum(sizes.values()),
        "sizes": sizes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "context": context(),
    }
    if args.write_reference:
        path = Path(args.reference)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[args.workload] = digests
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    out_dir = Path(args.out_dir)
    stem = f"{args.workload}-seed{args.seed}"
    if args.seed != wl.DEFAULT_SEED:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"digests-{stem}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "digests": digests}, indent=1, sort_keys=True) + "\n")
    if traced:
        result["layers"] = layers
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"spans-{stem}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "context": result["context"], "spans": spans.records,
            "totals": {name: {"calls": c, "seconds": t, "self_seconds": s}
                       for name, (c, t, s) in sorted(spans.totals.items())},
        }) + "\n")
    print(json.dumps(result))
    return 0


def layer_metrics(spans, workload, kept, counter, batch, decline) -> dict:
    """The per-layer metrics of one traced run: set-up plus one pass,
    before the output checks run."""
    kernels = [f"kernels.{m}" for m in spanlib.KERNEL_MODULES]
    engines = list(spanlib.ENGINE_SPANS.values())
    events, phases = counter.events, counter.phases
    if workload.name == "what-if-grid":  # traces captured in set-up
        summaries = [trace.tracer.summary() for trace in workload.info["traces"]]
        events = sum(s["events"] for s in summaries)
        phases = sum(s["phases"] for s in summaries)
    metrics = {
        "repro.import_s": spans.inclusive_seconds("repro.import"),
        "workloads.gen_s": spans.self_seconds("workloads.gen"),
        "workloads.mb": workload.info["workloads.mb"],
        "relational.engine_s": spans.self_seconds("relational.engine"),
        "dataflow.engine_s": spans.self_seconds("dataflow.engine"),
        "graph.giraph_s": spans.self_seconds("graph.giraph"),
        "graph.graphlab_s": spans.self_seconds("graph.graphlab"),
    }
    for name in kernels:
        metrics[f"{name}_s"] = spans.self_seconds(name)
    metrics.update({
        "kernels.calls": spans.calls(*kernels),
        "stats.self_s": spans.self_seconds("stats"),
        "stats.calls": spans.calls("stats"),
        "fastpath.batch": batch,
        "fastpath.decline": decline,
        "fastpath.batch_share": batch / (batch + decline) if batch + decline else 0.0,
        "tracer.events": events,
        "tracer.phases": phases,
        "tracer.emit_s": spans.self_seconds("tracer.emit"),
        "tracer.us_per_event": (spans.inclusive_seconds(*engines) / events * 1e6
                                if events else 0.0),
        "runner.validate_s": spans.self_seconds("runner.validate"),
        "simulator.simulate_s": spans.self_seconds("simulator.simulate"),
        "execution.self_s": spans.self_seconds("execution"),
        "tracealgebra.table_s": spans.self_seconds("tracealgebra.table"),
        "tracealgebra.shared_grid_s": spans.self_seconds("tracealgebra.shared_grid"),
        "tracealgebra.unique_grid_s": spans.self_seconds("tracealgebra.unique_grid"),
        "tracealgebra.columns_s": spans.self_seconds("tracealgebra.columns"),
        "tracealgebra.scenarios": sum(op.size for op in workload.ops
                                      if workload.name == "what-if-grid"),
        "tracealgebra.bases": workload.info.get("tracealgebra.bases", 0),
    })
    if workload.name == "what-if-grid":
        metrics.update(wl.fault_counts(kept))
    else:
        metrics.update(dict.fromkeys(wl.FAULT_METRICS, 0))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
