"""The repo benchmark: end-to-end and per-layer host time of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload sql-cells --seed 20140622 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):
``sql-cells``, ``engine-cells`` and ``what-if-grid``.  Each run starts
fresh processes one after another (never two at once):

1. a priming process, which imports the program so that no measured
   process pays bytecode compilation or cold file reads;
2. ``--trace 0``: set-up-only processes (at least two, about 5 s of
   them), then the measured process, which sets up and runs whole
   passes over the workload's operations for about ``--seconds``.
   All of them run the host-speed probe of ``calibrate.py``, and every
   time is scaled to the reference host speed.  ``setup_s`` is the
   median of all set-up times; ``cells_per_s`` and ``cpu_s`` are
   medians over the measured passes;
3. ``--trace 1``: one untraced pass and one traced pass, each in its
   own process.  The traced process wraps every layer in spans and
   reports the per-layer metrics; its outputs must equal the untraced
   ones, and ``trace.overhead_s`` is the difference of the two pass
   times.

The last line of stdout is the JSON result; the line before it holds the
run's context (BLAS thread count, CPUs, Python, and with ``--trace 0``
the unscaled times and the measured host speed).  Exits non-zero without
a result when the program is missing or a process crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from calibrate import host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
#: Set-up samples per run: set-up-only processes are started until there
#: are at least two and they took ``SETUP_SECONDS`` together; the measured
#: process adds one more.  Cheap set-ups get more samples.
SETUP_PROBES = 2
SETUP_SECONDS = 5.0
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The environment users run ``repro`` with: ``src`` on the path and
    none of the ``REPRO_*`` harness toggles (no disk cache, no pool,
    default fast path).  Bytecode is written, as Python does by default,
    so that the priming process compiles once and no measured process
    pays for it.  The BLAS thread count is left alone."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, mode: str, deadline: float, *extra: str) -> tuple[dict, float]:
    """Start one child process; returns its JSON result and the
    ``perf_counter`` reading taken just before it started."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, *extra]
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed nothing")
    return json.loads(lines[-1]), spawned


def metric_units(kind: str) -> dict[str, str]:
    """``{metric: unit}`` of the ``end_to_end`` or ``per_layer`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    raw_setups, setups = [], []

    def add_setup(child: dict, spawned: float) -> None:
        probe = child["setup_probe"]
        wall = child["t_first"] - spawned
        raw_setups.append(wall)
        setups.append((wall - probe[1]) * host_speed(probe))

    while len(setups) < SETUP_PROBES or sum(raw_setups) < SETUP_SECONDS:
        add_setup(*run_child(args, "setup", deadline, "--calibrate"))
    measured, spawned = run_child(args, "run", deadline, "--calibrate")
    add_setup(measured, spawned)
    passes = measured["passes"]
    ops = measured["ops"]
    walls = [(p["wall"] - p["probe"][1]) * host_speed(p["probe"]) for p in passes]
    cpus = [(p["cpu"] - p["probe"][2]) * host_speed(p["probe"]) for p in passes]
    window = [sum(p["probe"][k] for p in passes) for k in range(3)]
    measured["context"]["unscaled"] = {
        "cells_per_s": statistics.median(ops / p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": statistics.median(raw_setups),
        "host_speed": host_speed(window),
    }
    return measured, {
        "cells_per_s": statistics.median(ops / wall for wall in walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain, _ = run_child(args, "run", deadline, "--max-passes", "1")
    traced, _ = run_child(args, "traced", deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["passes"][0]["wall"] - plain["passes"][0]["wall"]
    result = {"context": traced["context"], "passes": traced["passes"],
              "attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "failures": plain["failures"] + traced["failures"]}
    # Tracing must not change a single output.
    for op_id, digest in plain["digests"].items():
        if traced["digests"].get(op_id, digest) != digest:
            result["failed"] += traced["sizes"][op_id]
            result["failures"].append(f"{op_id}: traced output differs from untraced")
    return result, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        run_child(args, "prime", deadline)
        if args.trace:
            result, metrics = per_layer(args, deadline)
        else:
            result, metrics = end_to_end(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"context": result["context"], "workload": args.workload,
                      "seed": args.seed, "passes": len(result["passes"])}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
