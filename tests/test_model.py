"""Tests for instance generation and cost accounting."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from matchsim import experiments, model
from matchsim.matchers import classical_sort_scan, classical_two_sort_merge, exhaustive_pairs
from matchsim.model import (
    ACCESS_KINDS,
    MAX_INSTANCE_SIZE,
    PHASES,
    CostLedger,
    MatchInstance,
    PhaseCosts,
    ResourceLimitError,
    check_instance_size,
    generate_instance,
)
from references import check_instance, instance_fields, instance_from_lists, raw_draw


class ScriptedRng:
    """Stands in for a Generator that hands out a fixed stream in order.

    Generation draws with ``bit_generator.random_raw(size)``, which takes
    the next ``size`` values of the stream and records ``size``.
    """

    def __init__(self, stream):
        self.stream = list(stream)
        self.calls = []
        self.bit_generator = SimpleNamespace(random_raw=self._take)

    def _take(self, size=None):
        # like random_raw: no size draws one value, as a Python int
        self.calls.append(size)
        count = 1 if size is None else size
        if count > len(self.stream):
            raise AssertionError("scripted stream exhausted")
        batch, self.stream = self.stream[:count], self.stream[count:]
        return batch[0] if size is None else np.array(batch, dtype=np.uint64)


# sha256 of json.dumps([list1, list2, planted_value, planted_pos1,
# planted_pos2]), recorded from the per-value loop before it was vectorised
PINNED_INSTANCES = {
    (2, 0): "15eb44de2d0aac3a99d5d4834b882113c865087686528634d0e7d5ce5b677530",
    (2, 1): "dbc2d8ddf742231d1664561dbcc36b45a46397f6c6d558f01bd06e4577b70caa",
    (2, 2): "109e1b4d11a5f5fb342fd16c5320d59b3e2f3af9064d074ddf8a7d76a5742c64",
    (2, 2**63 + 5): "4a0a2fa950bd100ec25167322ac363d84acc78f939daed4ffb1cd0261036ec89",
    (3, 0): "5f211ce6d91178b62d6cfa58019bdf4cd4b78420ac9f250ee49a2bd4b20c27ae",
    (3, 1): "47a669553f104d6a032e6ec1adff2523771a8c62c75e7927e355a81342d10ee3",
    (3, 2): "f39873185c1a682030268745f000b3e9489c76f786561351d9b1c153cbacf6fd",
    (3, 2**63 + 5): "fec5a3e679933e02bbbc0101432d7fde868cfc2147449ef65847b9047ca9571d",
    (16, 0): "25260ba86040eff714a94e3a0e530f7085bc3d584ebce23dadde6eec1a343309",
    (16, 1): "ea906290d82d93ecb85cb61e6664efe3919ce9ffb8cc0c7a520ab73d3acf8814",
    (16, 2): "e29c97fa78c855fe01c575f5ccb0e1763b2975cc1de732018a1ac3ec056dc789",
    (16, 2**63 + 5): "1bd57de08ae29d8e01db227083e0aae5d02dca02ef0cb4e4f0e3b15d0f0bb9be",
    (17, 0): "7aa29aa8c9f502b76d0ab012e77f9c373f0d91125fa8ae39d69e7cac5ed7eb33",
    (17, 1): "f391dc56ae7133faac405752d31f1685b3104aeccb29452851d816897cf32155",
    (17, 2): "3fc00d76080720ebc6e20f04f0590a16ac335152b9d7bc1dee0f052e26681f64",
    (17, 2**63 + 5): "01149783e19f806aba96ff81dbefd63f6f6ddc305018848c422f5c0d388b7748",
    (1024, 0): "3108f0cdd1845f35080afd095058b8acb260343c4a9f9667a6f26ba7132562b0",
    (1024, 1): "e9ce8b76178ab32f6e080e49102caed8c25f4498ec41a7051de5b30cf8d1a403",
    (1024, 2): "791716e377a1b6a83d1f13731c581becbca572139d16adbb4fc252495699db52",
    (1024, 2**63 + 5): "4739a138c1220f23844ed86439a54a05c5d8c2559d46824a7d3c38f822ec2260",
    (4097, 0): "d3ebf57ead03bdc587d45d6bd72d7b0048c56821b1dc88e1e93fadb74e95f01a",
    (4097, 1): "659c91733a4ac4ca1799295c53768ec4d6dbff064a52bc7e68ab9728ebba2e13",
    (4097, 2): "528b3c713152b370f47be4770651b359d7b92e92f4c391b2944ef8545857cede",
    (4097, 2**63 + 5): "907b8c163d0630c7df301fdc64a263046a1ec17b4e09cb6f4300daeb6cdeaec7",
    (65536, 0): "b9ddd127d8bba88ce525f21f0ee8838837e321f2d482dd697e3cb26b4e8c0ab5",
    (65536, 1): "40a5fb34e06b4a2d972281153510f4ed065d685ce34738cadedc9a9b70dd0aa4",
    (65536, 2): "9c3fb0e1be2c81f4266abf729b5e9075cbb4a5965a1a24085ea5c9747d6034ba",
    (65536, 2**63 + 5): "7d458273e235fbe8524227ee57f2cc7e178d2e08102b7f36ac693ae14b3f8416",
}


def reference_assembly(values, n, pos1, pos2):
    """The two lists as two concatenates of the drawn values built them."""
    planted = values[:1]
    l1 = np.concatenate((values[1 : pos1 + 1], planted, values[pos1 + 1 : n]))
    l2 = np.concatenate((values[n : n + pos2], planted, values[n + pos2 :]))
    return l1, l2


# every instance sets its fields in one order, so all of them share one set of dict keys:
# the raw draw's on construction, the laid-out lists' on their first read
RAW_FIELDS = (
    "n", "planted_value", "planted_pos1", "planted_pos2", "seed", "_words", "_slot1", "_slot2",
)
INSTANCE_FIELDS = (*RAW_FIELDS, "values1", "values2", "shared_values")


def assert_one_buffer(inst, l1, l2):
    """Generation laid nothing out; a first read lays both lists out in the first 2n words of
    the instance's own draw, list1 first, and every array a caller can reach is read-only."""
    assert tuple(vars(inst)) == RAW_FIELDS
    buffer = inst.values1.base
    assert tuple(vars(inst)) == INSTANCE_FIELDS
    assert buffer is inst.values2.base is inst.shared_values.base and buffer is not None
    assert not buffer.flags.writeable and buffer.base is None
    assert np.array_equal(buffer[: 2 * inst.n], np.concatenate((l1, l2)))
    assert np.array_equal(inst.values1, l1) and np.array_equal(inst.values2, l2)
    for values in (inst.values1, inst.values2, inst.shared_values):
        assert not values.flags.writeable


def assert_carries_its_shared_value(inst):
    """A first read of ``shared_values`` keeps it as a field: the planted value alone,
    read-only, found by no search."""
    shared = inst.shared_values
    assert vars(inst)["shared_values"] is shared
    assert np.array_equal(shared, np.intersect1d(inst.values1, inst.values2))
    assert shared.tolist() == [inst.planted_value]
    assert not shared.flags.writeable


# a raw word whose low and high halves give the positions n // 2 and 3n // 4, and one whose
# halves give n // 4 twice; both are accepted for n = 3, 9 and 17
POSITION_WORD = 0xC0000000_80000000
OTHER_POSITION_WORD = 0x40000000_40000000
# scripted rows, each a list of whole draws of max(16, 2n - 1) + 1 words: while a draw's first
# 2n - 1 words repeat a value, the next draw replaces it, and the last draw is the instance's
REDRAWN_ROWS = {
    # n = 9 draws 18 words: a repeat among its 17 values, then a draw of distinct ones
    "repeat_in_values": (9, [
        [*range(100, 108), 103, *range(108, 116), OTHER_POSITION_WORD],
        [*range(200, 217), POSITION_WORD],
    ]),
    # n = 3 draws 17 words for 5 values: two draws repeat one, the third is distinct
    "two_repeating_draws": (3, [
        [7, 8, 7, 9, 10, *range(11, 22), OTHER_POSITION_WORD],
        [30, 31, 32, 33, 30, *range(34, 45), OTHER_POSITION_WORD],
        [*range(50, 66), POSITION_WORD],
    ]),
    # a filler word equal to a value is no repeat: the first draw is the instance's
    "repeat_in_filler": (3, [[7, 8, 9, 10, 11, 7, 11, *range(12, 21), POSITION_WORD]]),
    # nor is a positions word equal to a value
    "positions_word_is_a_value": (3, [[POSITION_WORD, 8, 9, 10, 11, *range(12, 23), POSITION_WORD]]),
    # two values sharing their low 32-bit word, not their value, are no repeat
    "shared_low_word": (3, [[(1 << 32) | 5, (2 << 32) | 5, 6, 7, 8, *range(12, 23), POSITION_WORD]]),
    # values at the top of the 64-bit range compare as unsigned: 2**64 - 1 repeats
    "top_bits": (3, [
        [2**64 - 1, 2**63, 2**64 - 1, 2**63 + 1, 5, *range(600, 611), OTHER_POSITION_WORD],
        [*range(700, 716), POSITION_WORD],
    ]),
    # the last value (index 2n - 2) repeats the first
    "repeat_at_the_last_value": (9, [
        [*range(100, 116), 100, OTHER_POSITION_WORD],
        [*range(200, 217), POSITION_WORD],
    ]),
    # n = 17 draws 34 words, 33 values and no filler
    "no_filler": (17, [
        [*range(0, 16), 5, *range(16, 32), OTHER_POSITION_WORD],
        [*range(100, 133), POSITION_WORD],
    ]),
}


class TestGenerateInstance:
    def test_deterministic_for_fixed_seed(self):
        a = generate_instance(16, 1)
        b = generate_instance(16, 1)
        assert instance_fields(a) == instance_fields(b)

    def test_different_seeds_differ(self):
        a, b = generate_instance(16, 1), generate_instance(16, 2)
        assert instance_fields(a) != instance_fields(b)

    def test_smallest_size(self):
        inst = generate_instance(2, 7)
        check_instance(inst)
        assert len(inst.list1) == len(inst.list2) == 2

    def test_rejects_size_below_two(self):
        with pytest.raises(ValueError):
            generate_instance(1, 0)
        with pytest.raises(ValueError):
            generate_instance(0, 0)

    @pytest.mark.parametrize("n", [2, 3, 16, 64, 100])
    def test_invariants_hold(self, n):
        for seed in range(10):
            inst = generate_instance(n, seed)
            check_instance(inst)

    def test_exactly_one_shared_value_by_double_loop(self):
        # independent quadratic scan, no set shortcuts
        inst = generate_instance(64, 3)
        hits = []
        for i, v1 in enumerate(inst.list1):
            for j, v2 in enumerate(inst.list2):
                if v1 == v2:
                    hits.append((i, j, v1))
        assert len(hits) == 1
        i, j, v = hits[0]
        assert (i, j) == (inst.planted_pos1, inst.planted_pos2)
        assert v == inst.planted_value

    def test_planted_positions_cover_the_range(self):
        # loose uniformity check: every position of a size-8 instance
        # shows up as a planted position across enough seeds
        n = 8
        counts1 = [0] * n
        counts2 = [0] * n
        draws = 2000
        for seed in range(draws):
            inst = generate_instance(n, seed)
            counts1[inst.planted_pos1] += 1
            counts2[inst.planted_pos2] += 1
        expected = draws / n
        for c in counts1 + counts2:
            assert 0.6 * expected < c < 1.4 * expected

    def test_values_fit_in_64_bits(self):
        inst = generate_instance(32, 5)
        for v in inst.list1 + inst.list2:
            assert 0 <= v < 1 << 64

    @pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 1000, 1024, 4097, 65536, 4**9])
    def test_one_buffer_equals_two_concatenates(self, n):
        # the instance's draw is default_rng(seed)'s first max(16, 2n - 1) + 1 raw words, and
        # the positions are what two rng.integers(n) calls give from its last one
        length = max(16, 2 * n - 1) + 1
        for seed in (0, 1, 2, 2**63 + 5):
            drawn = np.random.default_rng(seed).bit_generator.random_raw(length)
            rng = np.random.default_rng(seed)
            rng.bit_generator.random_raw(length - 1)
            pos1, pos2 = int(rng.integers(n)), int(rng.integers(n))
            inst = generate_instance(n, seed)
            assert np.array_equal(inst._words, drawn)
            assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
            assert_one_buffer(inst, *reference_assembly(drawn[: 2 * n - 1], n, pos1, pos2))

    @pytest.mark.parametrize("n, draws", REDRAWN_ROWS.values(), ids=REDRAWN_ROWS)
    def test_a_repeated_value_redraws_the_whole_row(self, n, draws, monkeypatch):
        scripted = ScriptedRng([word for draw in draws for word in draw])
        monkeypatch.setattr(model, "seeded_rng", lambda seed, words=None: scripted)
        inst = generate_instance(n, 0)
        assert scripted.calls == [max(16, 2 * n - 1) + 1] * len(draws) and not scripted.stream
        # the last draw is the instance's, and its last word gives the positions
        last = draws[-1]
        assert inst._words.tolist() == last
        # half and three quarters of 2**32, scaled by n; neither is redrawn
        pos1, pos2 = n // 2, 3 * n // 4
        assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
        values = np.array(last[: 2 * n - 1], dtype=np.uint64)
        assert_one_buffer(inst, *reference_assembly(values, n, pos1, pos2))
        check_instance(inst)
        assert_carries_its_shared_value(inst)

    @pytest.mark.parametrize("n, seed", PINNED_INSTANCES, ids=str)
    def test_instances_pinned(self, n, seed):
        inst = generate_instance(n, seed)
        doc = [list(inst.list1), list(inst.list2), inst.planted_value,
               inst.planted_pos1, inst.planted_pos2]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == PINNED_INSTANCES[(n, seed)]


class TestOneDraw:
    """Without a repeat, generation takes all its words in one raw draw."""

    @pytest.mark.parametrize("n", [2, 8, 9, 17])
    def test_equal_low_words_stay_on_the_fast_path(self, n, monkeypatch):
        # the planted value and another share their low word, not their value
        values = [(1 << 32) | 5, (2 << 32) | 5, *range(100, 100 + 2 * n - 3)]
        filler = list(range(900, 900 + max(16, 2 * n - 1) - len(values)))
        scripted = ScriptedRng([*values, *filler, POSITION_WORD])
        monkeypatch.setattr(model, "seeded_rng", lambda seed, words=None: scripted)
        inst = generate_instance(n, 0)
        assert scripted.calls == [max(16, 2 * n - 1) + 1] and not scripted.stream
        pos1, pos2 = n // 2, 3 * n // 4
        assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
        values = np.array(values, dtype=np.uint64)
        assert_one_buffer(inst, *reference_assembly(values, n, pos1, pos2))
        # the draw is the buffer: below n = 9 it holds words past the lists
        assert len(inst.values1.base) == max(16, 2 * n - 1) + 1
        check_instance(inst)
        assert_carries_its_shared_value(inst)

    @pytest.mark.parametrize("n", [3, 9])
    def test_a_rejected_low_half_redraws_as_draw_positions_does(self, n, monkeypatch):
        # a low half of 0 is below 2**32 mod n, so the next raw value is drawn
        count = 2 * n - 1
        words = [0xC0000000_00000000, 0x00000000_80000000]
        stream = [*range(100, 100 + max(16, count)), *words, 77]
        scripted = ScriptedRng(stream)
        monkeypatch.setattr(model, "seeded_rng", lambda seed, words=None: scripted)
        inst = generate_instance(n, 0)
        assert scripted.calls == [max(16, count) + 1, None] and scripted.stream == [77]
        positions = model._draw_positions(ScriptedRng(words), n)
        assert (inst.planted_pos1, inst.planted_pos2) == positions == (3 * n // 4, n // 2)
        values = np.array(stream[:count], dtype=np.uint64)
        assert_one_buffer(inst, *reference_assembly(values, n, *positions))

    @pytest.mark.parametrize("size", [16, 31, 2047, 131071])
    def test_raw_stream_is_the_full_range_integers_stream(self, size):
        # the draw is what numpy gives as uniform 64-bit integers
        for seed in range(5):
            raw_rng = np.random.default_rng(seed)
            int_rng = np.random.default_rng(seed)
            raw = raw_rng.bit_generator.random_raw(size)
            ints = int_rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            assert raw.dtype == np.uint64
            assert np.array_equal(raw, ints)
            assert raw_rng.bit_generator.state == int_rng.bit_generator.state


class TestGenerateInstances:
    """A batch gives, seed for seed, what generate_instance gives."""

    def test_a_mixed_batch_equals_each_seed_alone(self, monkeypatch):
        # seeds 101 and 102 are scripted.  101 repeats a value, and both halves of its last
        # word are accepted, so only the repeat sends it to be drawn alone, where its second
        # whole draw is the instance and gives the positions; 102 draws a last word with a
        # rejected low half, so its positions take another word
        n, (first, second) = 9, REDRAWN_ROWS["repeat_in_values"][1]
        repeat_stream = [*first, *second]
        words = [0xC0000000_00000000, 0x00000000_80000000]
        rejected_stream = [*range(100, 100 + 2 * n - 1), *words, 77]
        scripted = {101: repeat_stream, 102: rejected_stream}
        # the batch draws from bare bit generators; a row drawn alone, from a generator
        seeded_bits, seeded_rng, built = model.seeded_bits, model.seeded_rng, []
        monkeypatch.setattr(
            model, "seeded_bits",
            lambda seed, words: built.append(seed) or (
                ScriptedRng(scripted[seed]).bit_generator if seed in scripted
                else seeded_bits(seed, words)
            ),
        )
        monkeypatch.setattr(
            model, "seeded_rng",
            lambda seed, words=None: (
                ScriptedRng(scripted[seed]) if seed in scripted else seeded_rng(seed, words)
            ),
        )
        seeds = [0, 101, 1, 2**63 + 5, 102, 2]
        batch = model.generate_instances(n, seeds, model.seed_words(seeds))
        assert built == seeds
        expected = {101: (second[: 2 * n - 1], (4, 6)), 102: (rejected_stream[: 2 * n - 1], (6, 4))}
        for seed in (0, 1, 2**63 + 5, 2):
            rng = seeded_rng(seed)
            values = rng.bit_generator.random_raw(max(16, 2 * n - 1))[: 2 * n - 1]
            expected[seed] = values, (int(rng.integers(n)), int(rng.integers(n)))
        assert [inst.seed for inst in batch] == seeds
        for inst in batch:
            values, positions = expected[inst.seed]
            assert (inst.planted_pos1, inst.planted_pos2) == positions
            values = np.array(values, dtype=np.uint64)
            assert_one_buffer(inst, *reference_assembly(values, n, *positions))
            assert instance_fields(inst) == instance_fields(model.generate_instance(n, inst.seed))
            check_instance(inst)
            assert_carries_its_shared_value(inst)
        # each row owns its draw, which its lists are laid out in
        assert len({id(inst.values1.base) for inst in batch}) == len(batch)
        assert all(len(inst.values1.base) == 2 * n for inst in batch)

    @pytest.mark.parametrize("n, draws", REDRAWN_ROWS.values(), ids=REDRAWN_ROWS)
    def test_a_redrawn_row_in_a_batch_equals_it_drawn_alone(self, n, draws, monkeypatch):
        # seed 7 draws the scripted row between two rows of distinct words.  Each of its
        # first draws repeats a low word, so the batch sends it to be drawn alone, where its
        # last whole draw is the instance and that draw's last word gives the positions
        length = max(16, 2 * n - 1) + 1
        streams = {
            8: [*range(500, 500 + length - 1), POSITION_WORD],
            7: [word for draw in draws for word in draw],
            9: [*range(900, 900 + length - 1), POSITION_WORD],
        }
        batch, made = self.scripted_batch(n, streams, monkeypatch)
        assert made == [
            ("bits", 8, [length]), ("bits", 7, [length]), ("bits", 9, [length]),
            ("rng", 7, [length] * len(draws)),
        ]
        positions = n // 2, 3 * n // 4
        for inst, stream in zip(batch, [streams[8], draws[-1], streams[9]], strict=True):
            assert inst._words.tolist() == stream
            assert (inst.planted_pos1, inst.planted_pos2) == positions
            values = np.array(stream[: 2 * n - 1], dtype=np.uint64)
            assert_one_buffer(inst, *reference_assembly(values, n, *positions))
            check_instance(inst)
        assert instance_fields(batch[1]) == instance_fields(generate_instance(n, 7))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 17, 100, 1024])
    def test_batches_equal_one_seed_at_a_time(self, n):
        seeds = [*range(60), 2**63 + 5, 2**64 - 1]
        batch = model.generate_instances(n, seeds, model.seed_words(seeds))
        for inst, seed in zip(batch, seeds, strict=True):
            assert instance_fields(inst) == instance_fields(generate_instance(n, seed))

    def test_a_row_whose_low_word_repeats_is_drawn_alone(self, monkeypatch):
        # the planted value and another share their low word, not their value:
        # the row is drawn again as one seed is, and _repeats clears it
        n = 9
        values = [(1 << 32) | 5, (2 << 32) | 5, *range(100, 100 + 2 * n - 3)]
        self.assert_drawn_alone(n, values, monkeypatch)

    def test_a_row_whose_last_value_repeats_a_low_word_is_drawn_alone(self, monkeypatch):
        # the only repeated key is the last drawn value's (index 2n - 2): the key sort
        # covers the whole draw, every value of the row among its words
        n = 9
        values = [*range(100, 100 + 2 * n - 2), (3 << 32) | 103]
        self.assert_drawn_alone(n, values, monkeypatch)

    def test_a_second_rows_last_value_repeating_its_smallest_key_is_drawn_alone(
        self, monkeypatch
    ):
        # the repeat is the second row's first adjacent pair of sorted keys: the flat
        # compare's first index in that row, which names that row and not the one before
        n = 9
        values = [*range(100, 100 + 2 * n - 2), (3 << 32) | 100]
        self.assert_drawn_alone(n, values, monkeypatch, second=True)

    def test_a_value_repeating_the_positions_words_low_word_is_drawn_alone(self, monkeypatch):
        # the positions word joins the key sort: its low word equals the last value's, the
        # second row's largest two keys, so the row is drawn alone, as the same instance
        n = 9
        values = [*range(100, 100 + 2 * n - 2), (7 << 32) | (POSITION_WORD & 0xFFFFFFFF)]
        self.assert_drawn_alone(n, values, monkeypatch, second=True)

    def test_a_rows_largest_key_may_equal_the_next_rows_smallest(self, monkeypatch):
        # each row's largest key, its positions word's low word, is the next row's smallest,
        # a value's: the flat compare meets both equal pairs across a row boundary, and no
        # row repeats a key of its own, so none is drawn alone
        n = 9
        streams = {
            7: [*range(1000, 1017), 0xC0000000_00000000 | 2000],
            8: [(5 << 32) | 2000, *range(2001, 2017), 0xC0000000_00000000 | 3000],
            9: [(5 << 32) | 3000, *range(3001, 3017), POSITION_WORD],
        }
        batch, made = self.scripted_batch(n, streams, monkeypatch)
        assert made == [("bits", 7, [18]), ("bits", 8, [18]), ("bits", 9, [18])]
        for inst, stream in zip(batch, streams.values(), strict=True):
            word = stream[-1]
            positions = ((word & 0xFFFFFFFF) * n >> 32, (word >> 32) * n >> 32)
            assert (inst.planted_pos1, inst.planted_pos2) == positions
            values = np.array(stream[:-1], dtype=np.uint64)
            assert_one_buffer(inst, *reference_assembly(values, n, *positions))

    @staticmethod
    def scripted_batch(n, streams, monkeypatch):
        """``generate_instances`` over the seeds of ``streams``, in order, each drawing its
        stream: the batch, and each generator it built as (builder, seed, the sizes it drew),
        in the order built."""
        made = []

        def scripted(builder):
            def build(seed, words=None):
                made.append((builder, seed, ScriptedRng(streams[seed])))
                rng = made[-1][2]
                return rng.bit_generator if builder == "bits" else rng

            return build

        monkeypatch.setattr(model, "seeded_bits", scripted("bits"))
        monkeypatch.setattr(model, "seeded_rng", scripted("rng"))
        seeds = list(streams)
        batch = model.generate_instances(n, seeds, model.seed_words(seeds))
        return batch, [(builder, seed, rng.calls) for builder, seed, rng in made]

    @classmethod
    def assert_drawn_alone(cls, n, values, monkeypatch, second=False):
        """A batch of two scripted rows, the first (or ``second``) drawing ``values``: that
        row is drawn again alone, and its lists are ``values`` laid out."""
        streams = {7: [*values, POSITION_WORD], 8: [*range(500, 517), POSITION_WORD]}
        seeds = [8, 7] if second else [7, 8]
        batch, made = cls.scripted_batch(n, {seed: streams[seed] for seed in seeds}, monkeypatch)
        # seed 7 drawn in the batch from a bare bit generator, then alone from a generator
        assert made == [("bits", seeds[0], [18]), ("bits", seeds[1], [18]), ("rng", 7, [18])]
        values = np.array(values, dtype=np.uint64)
        inst = batch[seeds.index(7)]
        assert_one_buffer(inst, *reference_assembly(values, n, n // 2, 3 * n // 4))

    def test_the_size_is_checked_before_anything_is_drawn(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("drew values for an over-cap batch")

        monkeypatch.setattr(model, "seeded_rng", never)
        with pytest.raises(ResourceLimitError):
            model.generate_instances(MAX_INSTANCE_SIZE + 1, [0, 1, 2], model.seed_words([0, 1, 2]))
        with pytest.raises(ValueError):
            model.generate_instances(1, [0, 1], model.seed_words([0, 1]))


CLASSICAL_MATCHERS = (exhaustive_pairs, classical_sort_scan, classical_two_sort_merge)


class TestSharedValues:
    @pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 1024, 4097])
    def test_generated_instances_carry_their_shared_value(self, n):
        for seed in (0, 1, 2, 2**63 + 5):
            assert_carries_its_shared_value(generate_instance(n, seed))

    def test_classical_matchers_search_a_generated_instance_no_more(self, monkeypatch):
        inst = generate_instance(1024, 3)

        def never(*parts):
            raise AssertionError("a generated instance's shared value was searched again")

        monkeypatch.setattr(model, "_repeats", never)
        for matcher in CLASSICAL_MATCHERS:
            assert matcher(inst).correct


def reference_repeats(values):
    """Whether a value occurs more than once in ``values``, by np.unique."""
    return len(np.unique(values)) < len(values)


def frozen_strided(values):
    """``values`` as a read-only view of every other word of a frozen buffer."""
    wide = np.asarray(values, dtype=np.uint64).repeat(2)
    wide.flags.writeable = False
    return wide[::2]


class TestRepeats:
    """``_repeats`` answers with a bool, the same one the np.unique reference gives."""

    @pytest.fixture(autouse=True, params=["keyed", "sorted"])
    def path(self, request, monkeypatch):
        """Run each check through the 32-bit key filter and through the plain sort."""
        if request.param == "sorted":
            monkeypatch.setattr(model, "_KEYED_VALUES", 0)

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 19, 20, 4097, 4114, 4131, 4194, 8211])
    def test_equals_unique_counts(self, size):
        for seed in range(4):
            rng = np.random.default_rng([seed, size])
            values = rng.integers(0, 1 << 64, size, dtype=np.uint64)
            if size > 1:
                # copy values over others, some thrice
                sources, targets = rng.integers(size, size=(2, 1 + size // 8))
                values[targets] = values[sources]
            assert model._repeats(values) is reference_repeats(values)

    def test_every_value_sharing_one_low_word(self):
        shared = np.arange(4097, dtype=np.uint64) << np.uint64(32)
        for values in [np.concatenate((shared, shared[::3])), shared[::3], shared[5:9].repeat(3)]:
            assert model._repeats(values) is reference_repeats(values)
        assert model._repeats(shared) is False

    def test_values_at_the_top_of_the_range(self):
        # 2**63 shares its low word with 0, 2**64 - 1 with 2**32 - 1
        top = [2**64 - 1, 2**63, 0, 2**32 - 1, 2**63 + 1, 2**64 - 2]
        for values in [top + top[:2], top + [2**63, 5], top + [2**64 - 1]]:
            values = np.array(values, dtype=np.uint64)
            assert model._repeats(values) is reference_repeats(values)
        assert model._repeats(np.array(top, dtype=np.uint64)) is False
        assert model._repeats(values) is True

    def test_read_only_strided_values(self):
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
        pool[[7, 150, 299]] = pool[[0, 1, 150]]
        pool.flags.writeable = False
        for values in (frozen_strided(pool), pool[::-1]):
            assert not values.flags.writeable and not values.flags.c_contiguous
            assert model._repeats(values) is reference_repeats(values)
            assert model._repeats(values.copy()) is reference_repeats(values)


def test_repeats_either_side_of_the_key_filter_bound():
    rng = np.random.default_rng(7)
    for total in (model._KEYED_VALUES, model._KEYED_VALUES + 1):
        values = rng.integers(0, 1 << 64, total, dtype=np.uint64)
        values[[-1, 9]] = values[[0, 5]]
        assert model._repeats(values) is reference_repeats(values)


class CountingRaw:
    """A generator's raw stream, counting the values drawn."""

    def __init__(self, rng):
        self.drawn = 0
        self.bit_generator = SimpleNamespace(random_raw=self._draw)
        self._raw = rng.bit_generator.random_raw

    def _draw(self):
        self.drawn += 1
        return self._raw()


class TestDrawPositions:
    # 2**31 + 1 redraws about half its words; 2**32 - 1 almost never
    @pytest.mark.parametrize(
        "n", [2, 3, 16, 17, 1000, 4**9, 3 << 20, MAX_INSTANCE_SIZE, 2**31 + 1, 2**32 - 1]
    )
    def test_equals_two_integers_calls(self, n):
        redraws = 0
        for seed in range(60):
            raw_rng, int_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            # generation draws the values first, raw
            raw_rng.bit_generator.random_raw(seed % 37)
            int_rng.bit_generator.random_raw(seed % 37)
            counting = CountingRaw(raw_rng)
            positions = model._draw_positions(counting, n)
            assert positions == (int(int_rng.integers(n)), int(int_rng.integers(n)))
            assert all(type(p) is int for p in positions)
            redraws += counting.drawn > 1
        if n == 2**31 + 1:
            assert redraws > 10


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def random_seeds(count, seed=2024):
    # not through default_rng, which some tests below count calls of
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, count, dtype=np.uint64).tolist()


def reference_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


class TestSeedWords:
    def test_equals_seed_sequence_state(self):
        seeds = EDGE_SEEDS + random_seeds(10_000) + list(range(64))
        words = model.seed_words(seeds)
        assert words.shape == (len(seeds), 4)
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.array([reference_words(s) for s in seeds]))

    def test_one_seed_and_no_seed(self):
        assert np.array_equal(model.seed_words([2**64 - 1])[0], reference_words(2**64 - 1))
        assert model.seed_words([]).shape == (0, 4)

    def test_generator_from_words_is_default_rng(self):
        seeds = EDGE_SEEDS + random_seeds(40, seed=7)
        words = model.seed_words(seeds)
        generator, pcg64, seed_words_shim = model._generator_parts()
        for seed, row in zip(seeds, words):
            fast = generator(pcg64(seed_words_shim(row)))
            ref = np.random.default_rng(seed)
            assert fast.bit_generator.state == ref.bit_generator.state
            assert fast.random() == ref.random()
            for n in (2, 17, 1 << 40):
                assert fast.integers(n) == ref.integers(n)
            assert np.array_equal(fast.bit_generator.random_raw(5), ref.bit_generator.random_raw(5))
            assert fast.bit_generator.state == ref.bit_generator.state

    def test_shim_refuses_any_other_request(self):
        _, _, seed_words_shim = model._generator_parts()
        shim = seed_words_shim(model.seed_words([3])[0])
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(RuntimeError, match="seed words"):
                shim.generate_state(n_words, dtype)


# the edges of the 32- and 64-bit halves, then 200 run seeds as sweeps derive them
RUN_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    experiments.derive_seed(base, n, trial, "run")
    for base in (0, 11, 23, 2**40)
    for n in (16, 64, 256, 1024, 4096)
    for trial in range(10)
]


class TestRunStreams:
    # 37 is the noisy nested stream at MAX_INSTANCE_SIZE (test_experiments checks it)
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 14, 37])
    def test_rows_are_default_rng_streams_word_for_word(self, k):
        streams = model.run_streams(model.seed_words(RUN_STREAM_SEEDS), k)
        assert streams.shape == (len(RUN_STREAM_SEEDS), k) and streams.dtype == np.float64
        expected = np.array([np.random.default_rng(seed).random(k) for seed in RUN_STREAM_SEEDS])
        assert np.array_equal(streams.view(np.uint64), expected.view(np.uint64))

    def test_one_seed_and_no_seed(self):
        one = model.run_streams(model.seed_words([2**64 - 1]), 5)
        assert one.tolist() == [np.random.default_rng(2**64 - 1).random(5).tolist()]
        assert model.run_streams(model.seed_words([]), 3).shape == (0, 3)


class TestSeededRng:
    @pytest.fixture
    def default_rng_calls(self, monkeypatch):
        calls = []
        original = np.random.default_rng

        def counting(seed):
            calls.append(seed)
            return original(seed)

        monkeypatch.setattr(model.np.random, "default_rng", counting)
        return calls

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_words_give_the_default_rng_stream(self, seed, default_rng_calls):
        rng = model.seeded_rng(seed, model.seed_words([seed])[0])
        assert default_rng_calls == []
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(7).tolist() == ref.random(7).tolist()
        assert np.array_equal(rng.bit_generator.random_raw(5), ref.bit_generator.random_raw(5))

    def test_without_words_it_is_default_rng(self, default_rng_calls):
        rng = model.seeded_rng(5)
        assert default_rng_calls == [5]
        assert rng.random() == np.random.Generator(np.random.PCG64(5)).random()

    def test_each_call_builds_a_new_generator(self):
        words = model.seed_words([14])[0]
        first, second = model.seeded_rng(14, words), model.seeded_rng(14, words)
        assert first is not second and first.bit_generator is not second.bit_generator
        assert first.random() == second.random()

    def test_importing_matchsim_leaves_numpy_random_unloaded(self):
        # numpy.random costs set-up time; it loads with the first generator
        src = str(Path(model.__file__).resolve().parents[1])
        code = "import sys, matchsim; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_pinned_instances_from_handed_down_words(self, default_rng_calls):
        for (n, seed), digest in PINNED_INSTANCES.items():
            inst = generate_instance(n, seed, model.seed_words([seed])[0])
            doc = [list(inst.list1), list(inst.list2), inst.planted_value,
                   inst.planted_pos1, inst.planted_pos2]
            assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
        assert default_rng_calls == []


class TestInstanceSizeCap:
    def test_cap_sits_above_the_sweep_sizes(self):
        assert MAX_INSTANCE_SIZE == 1 << 22
        check_instance_size(4**10)
        check_instance_size(MAX_INSTANCE_SIZE)

    def test_one_past_the_cap_is_refused(self):
        with pytest.raises(ResourceLimitError, match=str(MAX_INSTANCE_SIZE)):
            check_instance_size(MAX_INSTANCE_SIZE + 1)

    def test_refused_before_anything_is_drawn(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("drew values for an over-cap instance")

        monkeypatch.setattr(model.np.random, "default_rng", never)
        monkeypatch.setattr(model, "seeded_rng", never)
        for n in (MAX_INSTANCE_SIZE + 1, 10**9, 10**18):
            with pytest.raises(ResourceLimitError):
                generate_instance(n, 0)


class TestMatchInstance:
    def test_from_lists_finds_the_match(self):
        inst = instance_from_lists([5, 1, 9], [2, 9, 4])
        assert inst.planted_value == 9
        assert (inst.planted_pos1, inst.planted_pos2) == (2, 1)

    def test_from_lists_rejects_no_shared_value(self):
        with pytest.raises(ValueError):
            instance_from_lists([1, 2], [3, 4])

    def test_from_lists_rejects_two_shared_values(self):
        with pytest.raises(ValueError):
            instance_from_lists([1, 2, 3], [2, 3, 4])

    def test_validate_rejects_internal_duplicate(self):
        inst = generate_instance(8, 1)
        words = raw_draw(inst.values1, inst.values2, inst.planted_pos1, inst.planted_pos2)
        words[2] = words[1]  # two of list1's unplanted cells
        tampered = MatchInstance(words, inst.n, inst.planted_pos1, inst.planted_pos2, inst.seed)
        with pytest.raises(ValueError, match="internally"):
            check_instance(tampered)

    def test_validate_rejects_wrong_position(self):
        # a layout plants the value where the positions say: only a later write moves one
        tampered = generate_instance(8, 1)
        check_instance(tampered)
        tampered.planted_pos1 = (tampered.planted_pos1 + 1) % tampered.n
        with pytest.raises(ValueError, match="planted_pos1"):
            check_instance(tampered)

    def test_size_is_the_lists_length(self):
        inst = instance_from_lists([1, 2, 3, 4], [4, 5, 6, 7])
        assert (inst.n, inst.planted_pos1, inst.planted_pos2) == (4, 3, 0)
        check_instance(inst)

    def test_lists_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            instance_from_lists([1, 2, 3], [3, 4])

    def test_lists_are_python_int_tuples_over_read_only_arrays(self):
        inst = instance_from_lists([2**64 - 1, 2**63, 7], [9, 7, 0])
        assert inst.list1 == (2**64 - 1, 2**63, 7)
        assert all(type(v) is int for v in inst.list1 + inst.list2)
        assert inst.values1.dtype == inst.values2.dtype == np.uint64
        with pytest.raises(ValueError):
            inst.values1[0] = 1
        assert type(inst.planted_value) is int and inst.planted_value == 7

    def test_int_views_are_built_per_read_and_kept_nowhere(self):
        # a tuple of Python ints costs about 40 bytes a value, 5 times the array
        inst = generate_instance(65536, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            views = inst.list1, inst.list2
            held = tracemalloc.get_traced_memory()[0] - before
            del views
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held > 4 * 2**20
        assert kept < 64 * 1024
        assert "list1" not in vars(inst) and "list2" not in vars(inst)
        first, second = inst.list1, inst.list1
        assert first == second == tuple(int(v) for v in inst.values1) and first is not second
        assert all(type(v) is int for v in first + inst.list2)

    def test_a_caller_writing_its_array_leaves_the_instance_alone(self):
        a = np.array([5, 6, 7], dtype=np.uint64)
        inst = instance_from_lists(a, [7, 8, 9])
        a[2] = 1
        assert inst.values1.tolist() == [5, 6, 7]
        check_instance(inst)

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        owner = np.array([5, 6, 7, 8, 9, 7], dtype=np.uint64)
        view = owner[:3]
        view.flags.writeable = False
        inst = instance_from_lists(view, owner[3:])
        for values in (inst.values1, inst.values2):
            assert not values.flags.writeable
            assert not np.shares_memory(values, owner)

    def test_generated_lists_share_no_writeable_memory(self):
        inst = generate_instance(16, 3)
        for values in (inst.values1, inst.values2):
            assert not values.flags.writeable and not values.base.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1
            with pytest.raises(ValueError):
                values.base[0] = 1

    @pytest.mark.parametrize(
        "values",
        [
            [np.int64(5), np.uint8(6), 7],
            np.array([5, 6, 7], dtype=np.int64),
            np.array([5, 6, 7], dtype=np.uint16),
        ],
        ids=["numpy_scalars", "int64_array", "uint16_array"],
    )
    def test_numpy_integers_are_accepted(self, values):
        inst = instance_from_lists(values, [9, 7, 8])
        assert inst.values1.dtype == np.uint64 and inst.values1.tolist() == [5, 6, 7]
        assert (inst.planted_value, inst.planted_pos1, inst.planted_pos2) == (7, 2, 1)


class TestCostLedger:
    def test_starts_empty(self):
        led = CostLedger()
        assert led.total_cost() == 0
        assert led.peak_workspace == 0

    def test_single_charge(self):
        led = CostLedger()
        led.charge("l1_queries", 1, "outer_search")
        assert led.total_cost() == 1
        assert led.l1_queries == 1

    def test_zero_charge_is_noop(self):
        led = CostLedger()
        led.charge("mem_reads", 0, "sort")
        assert led.total_cost() == 0

    def test_charges_add_across_kinds(self):
        led = CostLedger()
        led.charge("mem_reads", 3, "sort")
        led.charge("mem_writes", 2, "sort")
        assert led.total_cost() == 5

    def test_rejects_unknown_kind(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            led.charge("disk_seeks", 1, "sort")
        with pytest.raises(TypeError):
            led.charge_batch("sort", disk_seeks=1)
        assert led.total_cost() == 0

    def test_rejects_unknown_phase(self):
        led = CostLedger()
        # an unhashable phase too: the offset lookup must not turn it into a TypeError
        for phase in ("warmup", "SORT", None, ["sort"]):
            with pytest.raises(ValueError, match="unknown phase"):
                led.charge("mem_reads", 1, phase)
            with pytest.raises(ValueError, match="unknown phase"):
                led.charge_batch(phase, mem_reads=1)
        assert led.as_dict() == CostLedger().as_dict()

    def test_rejects_negative_amount(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            led.charge("mem_reads", -1, "sort")
        with pytest.raises(ValueError):
            led.charge_batch("sort", mem_writes=-2)
        # one negative amount among positive ones, small or past 64 bits
        for amounts in (
            {"l1_queries": 3, "mem_reads": -1},
            {"l2_queries": 1 << 70, "mem_writes": -(1 << 70)},
        ):
            with pytest.raises(ValueError):
                led.charge_batch("sort", **amounts)
        assert led.total_cost() == 0

    def test_phase_breakdown_sums_to_totals(self):
        # randomized charge sequences must keep phase sums consistent
        rng = np.random.default_rng(123)
        for _ in range(50):
            led = CostLedger()
            for _ in range(40):
                kind = ACCESS_KINDS[rng.integers(len(ACCESS_KINDS))]
                phase = PHASES[rng.integers(len(PHASES))]
                led.charge(kind, int(rng.integers(0, 10)), phase)
            for kind in ACCESS_KINDS:
                by_phase = sum(
                    getattr(led.phase_breakdown[p], kind) for p in PHASES
                )
                assert by_phase == getattr(led, kind)
            by_phase = [sum(led.phase_breakdown[p].as_dict().values()) for p in PHASES]
            assert sum(by_phase) == led.total_cost()

    def test_workspace_peak_tracking(self):
        led = CostLedger()
        led.workspace_acquire(10)
        led.workspace_acquire(5)
        led.workspace_release(12)
        led.workspace_acquire(4)
        assert led.peak_workspace == 15
        assert led.live_workspace == 7

    def test_workspace_release_beyond_live_rejected(self):
        led = CostLedger()
        led.workspace_acquire(3)
        with pytest.raises(ValueError):
            led.workspace_release(4)

    def test_as_dict_shape(self):
        led = CostLedger()
        led.charge("l2_queries", 2, "inner_search")
        doc = led.as_dict()
        assert doc["total_cost"] == 2
        assert doc["phase_breakdown"]["inner_search"]["l2_queries"] == 2

    def test_as_dict_bytes_and_key_order(self):
        # recorded from the ledger that kept one counter object per phase
        led = CostLedger()
        led.charge_batch("sort", l1_queries=4, mem_writes=4)
        led.charge_batch("outer_search", l1_queries=2, l2_queries=3, mem_reads=5, mem_writes=1)
        led.charge("l2_queries", 2, "inner_search")
        led.workspace_acquire(7)
        led.workspace_release(7)
        phases = (
            '{"sort": {"l1_queries": 4, "l2_queries": 0, "mem_reads": 0, "mem_writes": 4}, '
            '"inner_search": {"l1_queries": 0, "l2_queries": 2, "mem_reads": 0, "mem_writes": 0}, '
            '"outer_search": {"l1_queries": 2, "l2_queries": 3, "mem_reads": 5, "mem_writes": 1}, '
            '"final_verify": {"l1_queries": 0, "l2_queries": 0, "mem_reads": 0, "mem_writes": 0}}'
        )
        assert json.dumps(led.as_dict()) == (
            '{"l1_queries": 6, "l2_queries": 5, "mem_reads": 5, "mem_writes": 5, '
            f'"total_cost": 21, "peak_workspace": 7, "phase_breakdown": {phases}}}'
        )
        assert json.dumps({p: c.as_dict() for p, c in led.phase_breakdown.items()}) == phases

    def test_phase_breakdown_is_a_read_only_snapshot(self):
        led = CostLedger()
        led.charge("mem_reads", 3, "sort")
        view = led.phase_breakdown
        assert view["sort"] == PhaseCosts(mem_reads=3)
        with pytest.raises(AttributeError):
            view["sort"].mem_reads = 0
        with pytest.raises(AttributeError):
            led.phase_breakdown = {}
        with pytest.raises(TypeError):
            view["sort"] = PhaseCosts()
        with pytest.raises(AttributeError):
            led.mem_read = 1  # a misspelt counter: the ledger has no other fields
        led.charge("mem_reads", 2, "sort")
        assert view["sort"].mem_reads == 3
        assert led.phase_breakdown["sort"].mem_reads == led.mem_reads == 5


def ledger_state(led):
    """Everything a ledger holds, live cells included, as comparable plain values."""
    return led.as_dict(), led.live_workspace


def random_moves(rng, steps):
    """A random run of charges and workspace moves that never releases more than it acquired."""
    moves, live = [], 0
    for _ in range(steps):
        kind = rng.integers(3)
        if kind == 0:
            amounts = {k: int(rng.integers(0, 9)) for k in ACCESS_KINDS}
            moves.append(("charge_batch", (PHASES[rng.integers(len(PHASES))],), amounts))
        else:
            cells = int(rng.integers(0, 20 if kind == 1 else live + 1))
            live += cells if kind == 1 else -cells
            moves.append(("workspace_acquire" if kind == 1 else "workspace_release", (cells,), {}))
    return moves


def apply_moves(led, moves):
    for name, args, kwargs in moves:
        getattr(led, name)(*args, **kwargs)


class TestLedgerMerge:
    def test_merge_adds_counters_phases_peak_from_live_and_live_delta(self):
        part_ledger = CostLedger()
        part_ledger.charge_batch("sort", l1_queries=2, mem_reads=5)
        part_ledger.charge_batch("final_verify", l2_queries=1)
        part_ledger.workspace_acquire(9)
        part_ledger.workspace_release(6)
        part = part_ledger.part()
        led = CostLedger()
        led.charge_batch("sort", l1_queries=1, mem_writes=4)
        led.workspace_acquire(10)
        led.workspace_release(7)  # peak 10, live 3
        led.merge(part)
        assert (led.l1_queries, led.l2_queries, led.mem_reads, led.mem_writes) == (3, 1, 5, 4)
        assert led.phase_breakdown["sort"] == PhaseCosts(3, 0, 5, 4)
        assert led.phase_breakdown["final_verify"] == PhaseCosts(0, 1, 0, 0)
        assert led.peak_workspace == 3 + 9  # the old peak, 10, is lower than live + the part's
        assert led.live_workspace == 3 + 3
        led.workspace_release(6)
        led.merge(part)  # now live + 9 = 9 stays under the peak of 12
        assert (led.peak_workspace, led.live_workspace) == (12, 3)

    def test_merge_equals_charging_the_same_calls_directly(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            head = random_moves(rng, int(rng.integers(0, 8)))
            tail = random_moves(rng, int(rng.integers(0, 8)))
            direct, merged, part_ledger = CostLedger(), CostLedger(), CostLedger()
            apply_moves(direct, head + tail)
            apply_moves(merged, head)
            apply_moves(part_ledger, tail)
            merged.merge(part_ledger.part())
            assert ledger_state(merged) == ledger_state(direct)

    def test_merging_leaves_the_part_and_its_ledger_unchanged(self):
        source = CostLedger()
        source.charge_batch("outer_search", l1_queries=3, mem_reads=7)
        source.workspace_acquire(4)
        part = source.part()
        copy, state = tuple(part), ledger_state(source)
        for _ in range(3):
            led = CostLedger()
            led.merge(part)
            led.charge_batch("outer_search", l1_queries=1)
            led.workspace_acquire(2)
        assert part == copy
        assert ledger_state(source) == state

    def test_an_empty_part_changes_nothing(self):
        led = CostLedger()
        led.charge_batch("inner_search", l2_queries=2)
        led.workspace_acquire(5)
        state = ledger_state(led)
        led.merge(CostLedger().part())
        assert ledger_state(led) == state
