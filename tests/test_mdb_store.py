"""MDB store: pages, MVCC transactions, the public API, Mtest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError, SimulationError
from repro.mdb.kvstore import MdbStore
from repro.mdb.mtest import MtestWorkload
from repro.mdb.ops import RecordingOps
from repro.mdb.pages import Page, PageAllocator
from repro.nvram.machine import Machine, MachineConfig


def make_store(page_size=256):
    ops = RecordingOps(record_loads=False)
    return MdbStore(ops, page_size=page_size), ops


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------


def test_page_header_and_slots():
    ops = RecordingOps(record_loads=False)
    alloc = PageAllocator(ops, 256)
    page = alloc.new_page()
    page.write_header(Page.LEAF, 2)
    page.write_slot(0, (1, "a"))
    page.write_slot(1, (2, "b"))
    assert page.read_header() == (Page.LEAF, 2)
    assert page.read_entries(2) == [(1, "a"), (2, "b")]


def test_page_slot_bounds():
    ops = RecordingOps(record_loads=False)
    page = PageAllocator(ops, 256).new_page()
    with pytest.raises(ConfigurationError):
        page.write_slot(page.capacity, "x")
    with pytest.raises(ConfigurationError):
        page.read_slot(-1)


def test_allocator_validation():
    ops = RecordingOps(record_loads=False)
    with pytest.raises(ConfigurationError):
        PageAllocator(ops, 16)
    alloc = PageAllocator(ops, 512)
    assert alloc.capacity_per_page == (512 - 16) // 16


def test_fresh_page_reads_as_unknown():
    ops = RecordingOps(record_loads=False)
    page = PageAllocator(ops, 256).new_page()
    assert page.read_header() == ("?", 0)


# ---------------------------------------------------------------------------
# store API + MVCC
# ---------------------------------------------------------------------------


def test_put_get_delete_roundtrip():
    db, _ = make_store()
    db.put(1, "one")
    db.put(2, "two")
    assert db.get(1) == "one"
    assert db.get(3) is None
    assert db.delete(1)
    assert not db.delete(1)
    assert db.get(1) is None
    assert db.count() == 1


def test_write_txn_batches_in_one_fase():
    db, ops = make_store()
    before = sum(1 for e in ops.events if e.kind == 3)   # FaseBegin
    with db.write_txn() as txn:
        for i in range(20):
            txn.put(i, i)
    after = sum(1 for e in ops.events if e.kind == 3)
    assert after == before + 1
    assert db.count() == 20


def test_snapshot_isolation():
    db, _ = make_store()
    db.put(1, "v1")
    snap = db.read_txn()
    db.put(1, "v2")
    db.put(2, "new")
    assert snap.get(1) == "v1"
    assert snap.get(2) is None
    assert db.get(1) == "v2"


def test_writer_sees_own_uncommitted_writes():
    db, _ = make_store()
    with db.write_txn() as txn:
        txn.put(7, "x")
        assert txn.get(7) == "x"
    assert db.get(7) == "x"


def test_single_writer_enforced():
    db, _ = make_store()
    with db.write_txn():
        with pytest.raises(SimulationError):
            db.txns.begin_write()


def test_abort_discards_changes():
    db, _ = make_store()
    db.put(1, "keep")
    try:
        with db.write_txn() as txn:
            txn.put(1, "discard")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert db.get(1) == "keep"
    # The writer slot is free again.
    db.put(2, "ok")


def test_finished_txn_rejects_operations():
    db, _ = make_store()
    with db.write_txn() as txn:
        txn.put(1, 1)
    with pytest.raises(SimulationError):
        txn.put(2, 2)


def test_meta_alternation():
    db, _ = make_store()
    i0, _, t0 = db.txns.latest()
    db.put(1, 1)
    i1, _, t1 = db.txns.latest()
    db.put(2, 2)
    i2, _, t2 = db.txns.latest()
    assert t0 < t1 < t2
    assert i1 != i2   # dual meta pages alternate


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "del"]), st.integers(0, 40)),
        max_size=60,
    )
)
def test_store_matches_dict_model(ops_list):
    db, _ = make_store()
    model = {}
    for op, key in ops_list:
        if op == "put":
            db.put(key, key + 1000)
            model[key] = key + 1000
        else:
            assert db.delete(key) == (key in model)
            model.pop(key, None)
    assert db.check() == len(model)
    assert dict(db.read_txn().scan()) == model


# ---------------------------------------------------------------------------
# Mtest workload
# ---------------------------------------------------------------------------


def test_mtest_through_machine():
    w = MtestWorkload(pairs=400)
    machine = Machine(MachineConfig())
    res = machine.run(w, technique_factory("LA"), num_threads=1, seed=0)
    assert res.persistent_stores > 5_000
    assert res.fase_count >= 400 // 24
    assert 0 < res.flush_ratio < 1


def test_mtest_reader_threads_do_not_flush():
    w = MtestWorkload(pairs=400)
    machine = Machine(MachineConfig())
    res = machine.run(w, technique_factory("LA"), num_threads=3, seed=0)
    writer, readers = res.threads[0], res.threads[1:]
    assert writer.flushes > 0
    assert all(r.flushes == 0 for r in readers)
    assert all(r.persistent_loads > 0 for r in readers)


def test_mtest_validation():
    with pytest.raises(ConfigurationError):
        MtestWorkload(pairs=0)
    with pytest.raises(ConfigurationError):
        MtestWorkload(pairs=10, batch_size=0)
    with pytest.raises(ConfigurationError):
        MtestWorkload(pairs=10, delete_fraction=1.5)


def test_mtest_deterministic():
    w = MtestWorkload(pairs=300)
    r1 = Machine(MachineConfig()).run(w, technique_factory("LA"), num_threads=1, seed=4)
    r2 = Machine(MachineConfig()).run(w, technique_factory("LA"), num_threads=1, seed=4)
    assert r1.flushes == r2.flushes
    assert r1.persistent_stores == r2.persistent_stores
