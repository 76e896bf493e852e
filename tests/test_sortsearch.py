"""Tests for the instrumented sort, block extraction, and membership.

The package sorts with ``np.argsort`` and charges closed forms.  The
bottom-up merge sort below is the independent reference: it charges
every merge as it performs it, so comparing the two keeps the closed
forms and the sort order honest.
"""

import numpy as np
import pytest

from matchsim.model import CostLedger, generate_instance
from matchsim.sortsearch import (
    binary_membership,
    block_count,
    block_view,
    membership_probe_depth,
    sort_charges,
    sort_instrumented,
)


def reference_merge_sort(pairs, ledger=None):
    """Bottom-up merge sort over (value, index) pairs, charging each merge.

    A merge of t cells costs t moves, plus t - 1 compares when two runs
    meet; it holds one auxiliary buffer of n cells while it sorts.
    """
    n = len(pairs)
    src = list(pairs)
    if n <= 1:
        return tuple(src)
    if ledger is not None:
        ledger.workspace_acquire(n)
    dst = [src[0]] * n
    width = 1
    while width < n:
        lo = 0
        while lo < n:
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            t = hi - lo
            if ledger is not None:
                compares = t - 1 if mid < hi else 0
                ledger.charge_batch("sort", mem_reads=2 * compares + t, mem_writes=t)
            i, j = lo, mid
            for k in range(lo, hi):
                if i < mid and (j >= hi or src[i][0] <= src[j][0]):
                    dst[k] = src[i]
                    i += 1
                else:
                    dst[k] = src[j]
                    j += 1
            lo = hi
        src, dst = dst, src
        width *= 2
    if ledger is not None:
        ledger.workspace_release(n)
    return tuple(src)


def reference_order(values):
    """Source indices in the reference merge sort's order."""
    return [i for _, i in reference_merge_sort([(v, i) for i, v in enumerate(values)])]


def sorted_entries(values):
    """(value, source index) entries of Python ints, via sort_instrumented."""
    order = sort_instrumented(np.array(values, dtype=np.uint64)).tolist()
    return tuple((values[k], k) for k in order)


def random_values(rng, n, high=1 << 64):
    """n distinct uint64 values below high, as Python ints."""
    draws = rng.integers(0, high, size=2 * n + 8, dtype=np.uint64).tolist()
    return list(dict.fromkeys(draws))[:n]


def reference_sort_charges(n):
    """(reads, writes) of the reference merge sort, by walking its merges."""
    reads = writes = 0
    width = 1
    while width < n:
        lo = 0
        while lo < n:
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            t = hi - lo
            compares = t - 1 if mid < hi else 0
            reads += 2 * compares + t
            writes += t
            lo = hi
        width *= 2
    return reads, writes


class TestSortCharges:
    def test_equals_reference_merge_sort_up_to_1024(self):
        pairs = [(i, i) for i in range(1025)]
        for n in range(1025):
            led = CostLedger()
            reference_merge_sort(pairs[:n], led)
            assert sort_charges(n) == (led.mem_reads, led.mem_writes), n

    @pytest.mark.parametrize(
        "n", [4095, 4096, 4097, 65535, 65536, 65537, 100003, (1 << 20) - 1, 1 << 20]
    )
    def test_equals_reference_walk_at_large_sizes(self, n):
        assert sort_charges(n) == reference_sort_charges(n)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            sort_charges(-1)

    def test_cached_answers_equal_the_reference_walk(self):
        sort_charges.cache_clear()
        for n in [0, 1, 2, 3, 17, 4096, 65537]:
            first = sort_charges(n)
            assert sort_charges(n) is first
            assert first == reference_sort_charges(n)
        assert sort_charges.cache_info().hits == 7


class TestSortInstrumented:
    def test_empty_input_charges_nothing(self):
        led = CostLedger()
        out = sort_instrumented(np.array([], dtype=np.uint64), led)
        assert out.tolist() == []
        assert led.total_cost() == 0

    def test_single_cell_charges_nothing(self):
        led = CostLedger()
        out = sort_instrumented(np.array([4], dtype=np.uint64), led)
        assert out.tolist() == [0]
        assert led.total_cost() == 0

    def test_three_cells(self):
        led = CostLedger()
        out = sort_instrumented(np.array([9, 1, 5], dtype=np.uint64), led)
        assert out.tolist() == [1, 2, 0]

    def test_matches_reference_sort_on_random_input(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(0, 200))
            # a small range makes neighbours close; a list never repeats a value
            values = random_values(rng, n, high=1000 if trial % 2 else 1 << 64)
            out = sort_instrumented(np.array(values, dtype=np.uint64), CostLedger())
            assert [values[k] for k in out.tolist()] == sorted(values)
            assert out.tolist() == reference_order(values)

    def test_charges_match_fixed_schedule(self):
        # closed-form charges against those the reference sort makes merge by merge
        for n in [0, 1, 2, 3, 7, 16, 100, 1024]:
            rng = np.random.default_rng(n)
            values = rng.integers(0, 1 << 30, size=n, dtype=np.uint64)
            led, ref = CostLedger(), CostLedger()
            sort_instrumented(values, led)
            reference_merge_sort([(int(v), i) for i, v in enumerate(values)], ref)
            assert led.as_dict() == ref.as_dict()
            assert led.l1_queries == 0 and led.l2_queries == 0

    def test_charge_bound_at_1024(self):
        led = CostLedger()
        rng = np.random.default_rng(0)
        sort_instrumented(rng.integers(0, 1 << 60, size=1024, dtype=np.uint64), led)
        assert led.total_cost() <= 8 * 1024 * 10  # well under 8 n log2 n

    def test_charges_are_data_oblivious(self):
        # already-sorted and reversed inputs must cost the same
        n = 64
        asc = np.arange(n, dtype=np.uint64)
        led_a, led_d = CostLedger(), CostLedger()
        sort_instrumented(asc, led_a)
        sort_instrumented(asc[::-1], led_d)
        assert led_a.total_cost() == led_d.total_cost()

    def test_workspace_one_auxiliary_buffer(self):
        led = CostLedger()
        sort_instrumented(np.arange(32, dtype=np.uint64), led)
        assert led.peak_workspace == 32
        assert led.live_workspace == 0


class TestBlockView:
    def test_block_boundaries(self):
        inst = generate_instance(16, 2)
        assert block_count(16, 4) == 4
        view = block_view(inst, 2, 4)
        assert view == tuple(sorted((inst.list1[i], i) for i in range(8, 12)))

    def test_ragged_last_block(self):
        inst = generate_instance(10, 2)
        assert block_count(10, 4) == 3
        view = block_view(inst, 2, 4)
        assert view == tuple(sorted((inst.list1[i], i) for i in range(8, 10)))

    def test_out_of_range_block_rejected(self):
        inst = generate_instance(16, 2)
        with pytest.raises(ValueError):
            block_view(inst, 4, 4)
        with pytest.raises(ValueError):
            block_view(inst, -1, 4)

    def test_block_containing_planted_value(self):
        inst = generate_instance(64, 9)
        b = 8
        marked = inst.planted_pos1 // b
        view = block_view(inst, marked, b)
        assert (inst.planted_value, inst.planted_pos1) in view

    def test_charges_copy_plus_sort(self):
        inst = generate_instance(256, 4)
        led = CostLedger()
        view = block_view(inst, 3, 16, led)
        reads, writes = sort_charges(16)
        assert led.l1_queries == 16
        assert led.mem_writes == 16 + writes
        assert led.mem_reads == reads
        led.workspace_release(len(view))
        assert led.live_workspace == 0

    def test_peak_workspace_two_buffers(self):
        inst = generate_instance(256, 4)
        led = CostLedger()
        view = block_view(inst, 0, 16, led)
        # block copy held, sort buffer transient
        assert led.peak_workspace == 32
        assert led.live_workspace == 16
        led.workspace_release(len(view))
        assert led.live_workspace == 0


class TestBinaryMembership:
    def test_hit_and_miss(self):
        sl = sorted_entries([3, 7, 9, 12])
        assert binary_membership(sl, 9) == 2
        assert binary_membership(sl, 8) is None

    def test_endpoints(self):
        sl = sorted_entries([3, 7, 9, 12])
        assert binary_membership(sl, 3) == 0
        assert binary_membership(sl, 12) == 3
        assert binary_membership(sl, 2) is None
        assert binary_membership(sl, 13) is None

    def test_probe_depth_is_bit_length(self):
        assert membership_probe_depth(0) == 0
        assert membership_probe_depth(1) == 1
        assert membership_probe_depth(255) == 8
        assert membership_probe_depth(256) == 9

    def test_every_member_found_with_original_index(self):
        rng = np.random.default_rng(3)
        values = [int(v) for v in rng.integers(0, 1 << 40, size=256)]
        assert len(set(values)) == 256
        sl = sorted_entries(values)
        for i, v in enumerate(values):
            assert binary_membership(sl, v) == i

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            values = sorted(int(v) for v in rng.integers(0, 1000, size=n))
            values = list(dict.fromkeys(values))  # dedupe, keep sorted
            sl = sorted_entries(values)
            for probe in rng.integers(0, 1000, size=30):
                probe = int(probe)
                linear = next((i for i, v in enumerate(values) if v == probe), None)
                assert binary_membership(sl, probe) == linear
