"""FASE bracketing, nesting and the lock front end."""

import pytest

from repro.atlas.fase import FaseLock, FaseManager
from repro.cache.spec import technique_factory
from repro.common.errors import SimulationError
from repro.nvram.machine import Machine, MachineConfig


@pytest.fixture
def manager():
    machine = Machine(MachineConfig(track_values=True))
    session = machine.session(technique_factory("LA")(0))
    return FaseManager(session)


def test_depth_tracking(manager):
    assert manager.depth == 0 and not manager.in_fase
    manager.begin()
    assert manager.depth == 1 and manager.in_fase
    manager.begin()
    assert manager.depth == 2
    manager.end()
    manager.end()
    assert manager.depth == 0
    assert manager.completed == 1


def test_end_without_begin_raises(manager):
    with pytest.raises(SimulationError):
        manager.end()


def test_context_manager(manager):
    with manager.fase():
        assert manager.in_fase
        with manager.fase():
            assert manager.depth == 2
    assert manager.depth == 0
    assert manager.completed == 1


def test_current_id_changes_per_outermost(manager):
    with manager.fase():
        first = manager.current_id
    with manager.fase():
        second = manager.current_id
    assert first != second
    assert manager.current_id == -1


def test_nested_fase_keeps_outer_id(manager):
    with manager.fase():
        outer = manager.current_id
        with manager.fase():
            assert manager.current_id == outer


def test_lock_brackets_fase(manager):
    lock = FaseLock("l", manager)
    with lock:
        assert lock.held
        assert manager.in_fase
    assert not lock.held
    assert manager.depth == 0


def test_lock_release_unheld_raises(manager):
    lock = FaseLock("l", manager)
    with pytest.raises(SimulationError):
        lock.release()


def test_nested_locks(manager):
    a, b = FaseLock("a", manager), FaseLock("b", manager)
    with a:
        with b:
            assert manager.depth == 2
    assert manager.completed == 1
