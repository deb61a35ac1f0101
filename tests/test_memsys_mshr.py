"""Tests for the MSHR file and its occupancy accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.memsys.mshr import MshrFile


class TestAllocation:
    def test_allocate_and_lookup(self):
        mshrs = MshrFile(4)
        assert mshrs.allocate(10, fill_cycle=50, now=0)
        assert mshrs.lookup(10) == 50
        assert mshrs.lookup(11) is None

    def test_duplicate_allocation_merges(self):
        mshrs = MshrFile(2)
        assert mshrs.allocate(10, 50, 0)
        assert mshrs.allocate(10, 60, 5)  # secondary miss: no new entry
        assert mshrs.occupancy() == 1

    def test_full_rejection(self):
        mshrs = MshrFile(2)
        assert mshrs.allocate(1, 100, 0)
        assert mshrs.allocate(2, 100, 0)
        assert not mshrs.allocate(3, 100, 0)
        assert mshrs.full_rejections == 1

    def test_drain_releases_filled(self):
        mshrs = MshrFile(2)
        mshrs.allocate(1, 10, 0)
        mshrs.allocate(2, 20, 0)
        mshrs.drain(15)
        assert mshrs.occupancy() == 1
        assert mshrs.lookup(1) is None
        assert mshrs.lookup(2) == 20

    def test_available_drains_first(self):
        mshrs = MshrFile(1)
        mshrs.allocate(1, 10, 0)
        assert mshrs.available(5) == 0
        assert mshrs.available(10) == 1

    def test_allocation_counter(self):
        mshrs = MshrFile(4)
        mshrs.allocate(1, 10, 0)
        mshrs.allocate(2, 10, 0)
        mshrs.allocate(1, 10, 0)  # merge, not counted
        assert mshrs.allocations == 2


    @pytest.mark.parametrize("entries", [0, -1])
    def test_file_without_entries_rejected(self, entries):
        # Every L1 miss would be refused forever: the run could only end
        # at the cycle safety limit.
        with pytest.raises(ValueError, match="at least one entry"):
            MshrFile(entries)


class TestVersion:
    def test_rises_on_allocate_only(self):
        mshrs = MshrFile(1)
        assert mshrs.version == 0
        mshrs.allocate(1, 10, 0)
        assert mshrs.version == 1
        mshrs.allocate(1, 10, 1)    # merge: nothing allocated
        assert not mshrs.allocate(2, 10, 1)   # full: refused
        assert mshrs.version == 1

    def test_rises_on_release_in_drain(self):
        mshrs = MshrFile(4)
        mshrs.allocate(1, 10, 0)
        mshrs.allocate(2, 20, 0)
        version = mshrs.version
        mshrs.drain(9)              # nothing due
        assert mshrs.version == version
        mshrs.drain(25)             # both released
        assert mshrs.version == version + 2


class TestOccupancyIntegral:
    def test_average_occupancy_single_miss(self):
        mshrs = MshrFile(4)
        mshrs.allocate(1, 100, 0)
        # One MSHR held for 100 of 200 cycles = 0.5 average.
        assert abs(mshrs.average_occupancy(200) - 0.5) < 0.02

    def test_average_occupancy_overlapping(self):
        mshrs = MshrFile(4)
        mshrs.allocate(1, 100, 0)
        mshrs.allocate(2, 100, 0)
        assert abs(mshrs.average_occupancy(100) - 2.0) < 0.05

    def test_peak_occupancy(self):
        mshrs = MshrFile(8)
        for k in range(5):
            mshrs.allocate(k, 100, 0)
        mshrs.drain(150)
        mshrs.allocate(99, 300, 200)
        assert mshrs.peak_occupancy == 5

    def test_zero_time_average(self):
        assert MshrFile(4).average_occupancy(0) == 0.0


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=1, max_value=30)),
                min_size=1, max_size=60))
def test_property_occupancy_bounded(requests):
    """Occupancy never exceeds the entry count; averages stay in range."""
    mshrs = MshrFile(4)
    now = 0
    for line, duration in requests:
        now += 1
        mshrs.allocate(line, now + duration, now)
        assert mshrs.occupancy() <= 4
    average = mshrs.average_occupancy(now + 100)
    assert 0.0 <= average <= 4.0
