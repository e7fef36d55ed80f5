"""Global toggle for the host-execution fast path.

The tracer charges the *simulated* platforms for record-at-a-time
execution no matter what; this switch only controls whether the host
process is allowed to memoize partition results within an action and to
run vectorized batch kernels.  In the SimSQL engine it gates only the
VG functions' ``invoke_batch``: the relational executor is columnar
under either setting.  Cost events are required to be byte-identical
either way (see tests/test_fastpath_golden.py), so the default is on.
Set ``REPRO_FAST_PATH=0`` to force the scalar path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_ENABLED = os.environ.get("REPRO_FAST_PATH", "1").strip().lower() not in (
    "0", "false", "no", "off", "",
)

# Coverage accounting: every engine batch site records the executions it
# takes (record_batch) and the ones it explicitly refuses (record_decline,
# e.g. ROW_STABLE_MAX_DIM or min-batch-size guards).  registry.batch_coverage
# reads the deltas to prove which variants reach a batch path.
_BATCH_COUNTS: dict[str, int] = {}
_DECLINE_COUNTS: dict[str, int] = {}


def enabled() -> bool:
    """True when host execution may cache partitions and batch kernels."""
    return _ENABLED


def record_batch(site: str) -> None:
    """Count one batch-path execution at ``site``."""
    _BATCH_COUNTS[site] = _BATCH_COUNTS.get(site, 0) + 1


def record_decline(site: str) -> None:
    """Count one explicit decline (guarded fallback to the scalar path)."""
    _DECLINE_COUNTS[site] = _DECLINE_COUNTS.get(site, 0) + 1


def counters() -> dict:
    """Snapshot of the batch/decline counters, keyed by site label."""
    return {"batch": dict(_BATCH_COUNTS), "decline": dict(_DECLINE_COUNTS)}


def reset_counters() -> None:
    """Zero the batch/decline counters (coverage probes, tests)."""
    _BATCH_COUNTS.clear()
    _DECLINE_COUNTS.clear()


def set_enabled(value: bool) -> bool:
    """Flip the fast path globally; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


@contextmanager
def fast_path(value: bool):
    """Temporarily force the fast path on or off (tests, benchmarks)."""
    previous = set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)
