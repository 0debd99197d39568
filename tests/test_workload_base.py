"""Workload base utilities: the bump allocator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.geometry import CACHE_LINE_SIZE
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import BumpAllocator


def test_bump_allocator_monotone_disjoint():
    a = BumpAllocator()
    x = a.alloc(24)
    y = a.alloc(24)
    assert y >= x + 24
    assert x >= NVRAM_BASE


def test_bump_allocator_line_aligned():
    a = BumpAllocator()
    a.alloc(10)
    addr = a.alloc(10, line_aligned=True)
    assert addr % CACHE_LINE_SIZE == 0


def test_bump_allocator_validation():
    with pytest.raises(ConfigurationError):
        BumpAllocator(base=0)
    with pytest.raises(ConfigurationError):
        BumpAllocator().alloc(0)
