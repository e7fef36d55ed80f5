"""Record-size estimation for shuffle/cache byte accounting.

The engines need to know roughly how many bytes a record occupies when
serialized or cached.  Exact Python ``sys.getsizeof`` numbers would
reflect CPython, not the serialized wire formats of the platforms, so we
estimate the *payload* size: 8 bytes per number, raw buffer size for
numpy arrays, UTF-8 length for strings, and recursive sums (plus a small
framing constant) for containers.
"""

from __future__ import annotations

import numpy as np

from repro import fastpath

#: Framing bytes charged per container / record boundary.
CONTAINER_OVERHEAD = 8.0

#: Types that estimate at exactly 8 bytes (see the scalar branch below).
#: ``bool`` is deliberately absent: it estimates at 1 byte.
_NUMERIC_TYPES = frozenset({int, float, complex, np.int64, np.float64,
                            np.int32, np.float32})


def estimate_bytes(value) -> float:
    """Approximate serialized payload size of one record."""
    if value is None or isinstance(value, bool):
        return 1.0
    if isinstance(value, (int, float, complex, np.integer, np.floating)):
        return 8.0
    if isinstance(value, np.ndarray):
        return float(value.nbytes) + CONTAINER_OVERHEAD
    if isinstance(value, (str, bytes)):
        return float(len(value)) + CONTAINER_OVERHEAD
    if isinstance(value, dict):
        if fastpath.enabled():
            # All-numeric dicts (e.g. LDA's word -> count maps) estimate
            # at exactly 16 bytes per item; the C-level type scan is the
            # same value as the recursion, much cheaper.
            types = set(map(type, value.keys()))
            types.update(map(type, value.values()))
            if types <= _NUMERIC_TYPES:
                return 16.0 * len(value) + CONTAINER_OVERHEAD
        items = sum(estimate_bytes(k) + estimate_bytes(v) for k, v in value.items())
        return items + CONTAINER_OVERHEAD
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_bytes(item) for item in value) + CONTAINER_OVERHEAD
    # Dataclass-ish objects: walk their attribute dict.
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return estimate_bytes(attrs)
    return 64.0  # opaque object: charge a flat size


def estimate_records_bytes(records, sample_limit: int = 10) -> float:
    """Total bytes of a record collection, extrapolated from a sample.

    Sampling keeps accounting cheap on large partitions; records in one
    collection are homogeneous in these workloads, so a small sample is
    representative.
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    count = len(records)
    sample = [records[i] for i in sample_positions(count, sample_limit)]
    return estimate_sample_bytes(sample, count, sample_limit)


def sample_positions(count: int, sample_limit: int = 10) -> range:
    """Positions of the records :func:`estimate_records_bytes` reads."""
    if count <= sample_limit:
        return range(count)
    return range(0, count, max(1, count // sample_limit))


def estimate_sample_bytes(sample: list, count: int, sample_limit: int = 10) -> float:
    """Bytes of ``count`` records, given the records at
    :func:`sample_positions` -- for stores that keep records in another
    form and materialize only the sampled ones."""
    if count == 0:
        return 0.0
    sampled = sum(estimate_bytes(r) for r in sample)
    if count <= sample_limit:
        return float(sampled)
    return float(sampled / len(sample) * count)
