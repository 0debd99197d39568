"""The shared-memory column transport and the fork-once worker pool.

The load-bearing contract: any integer ``array`` column, and any column
a :class:`WriteTrace` can hold, survives the share/attach round trip
losslessly (the hypothesis property over the full dtype ranges), and
segments are freed exactly once no matter which side cleans up.
"""

import numpy as np
import pytest
from array import array
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.transport import (
    WorkerPool,
    attach_columns,
    attach_traces,
    share_columns,
    share_traces,
    unlink_segment,
)
from repro.locality.trace import WriteTrace

# ---------------------------------------------------------------------------
# columnar shared memory
# ---------------------------------------------------------------------------

_INT8 = st.integers(min_value=-(2 ** 7), max_value=2 ** 7 - 1)
_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


@given(
    kinds=st.lists(_INT8, max_size=64),
    args=st.lists(_INT64, max_size=64),
    sizes=st.lists(_INT64, max_size=64),
)
@settings(max_examples=50, deadline=None)
def test_share_columns_round_trip_is_lossless(kinds, args, sizes):
    """Every ``array`` column dtype round-trips bit-for-bit, including
    extreme int64 values, empty columns and mixed lengths."""
    columns = [array("b", kinds), array("q", args), array("q", sizes)]
    manifest = share_columns(columns)
    try:
        out = attach_columns(manifest)
    finally:
        unlink_segment(manifest)
    assert [c.typecode for c in out] == ["b", "q", "q"]
    assert [list(c) for c in out] == [kinds, args, sizes]


@given(values=st.lists(_INT64, max_size=64))
@settings(max_examples=25, deadline=None)
def test_share_columns_round_trips_numpy_int64(values):
    col = np.array(values, dtype=np.int64)
    manifest = share_columns([col])
    try:
        (out,) = attach_columns(manifest)
    finally:
        unlink_segment(manifest)
    assert out.dtype == np.int64
    assert out.tolist() == values


def test_share_columns_rejects_unshareable_types():
    with pytest.raises(ConfigurationError):
        share_columns([[1, 2, 3]])
    with pytest.raises(ConfigurationError):
        share_columns([np.zeros((2, 2), dtype=np.int64)])


def test_unlink_segment_is_idempotent():
    manifest = share_columns([array("q", [1, 2, 3])])
    unlink_segment(manifest)
    unlink_segment(manifest)          # second unlink: no error
    unlink_segment(None)              # and None is a no-op


def test_attached_columns_outlive_the_segment():
    manifest = share_columns([array("q", [7, 8, 9])])
    (col,) = attach_columns(manifest)
    unlink_segment(manifest)
    assert list(col) == [7, 8, 9]     # copied out, not a view


def test_share_traces_round_trip():
    traces = [
        WriteTrace(
            np.array([1, 5, 5, 9], dtype=np.int64),
            np.array([0, 0, 1, -1], dtype=np.int64),
        ),
        WriteTrace(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        ),
    ]
    manifest = share_traces(traces)
    try:
        out = attach_traces(manifest)
    finally:
        unlink_segment(manifest)
    assert len(out) == 2
    for orig, new in zip(traces, out):
        assert np.array_equal(orig.lines, new.lines)
        assert np.array_equal(orig.fase_ids, new.fase_ids)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------


def test_worker_pool_rejects_bad_jobs():
    with pytest.raises(ConfigurationError):
        WorkerPool(0, (None, None))


def test_worker_pool_propagates_task_errors():
    with WorkerPool(1, (None, None)) as pool:
        pool.submit("no-such-kind", None)
        with pytest.raises(RuntimeError, match="no-such-kind"):
            pool.next_result()


def test_worker_pool_collect_without_submissions_fails_fast():
    with WorkerPool(1, (None, None)) as pool:
        with pytest.raises(RuntimeError, match="no outstanding"):
            pool.next_result()
