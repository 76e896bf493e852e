"""Tests for instance generation and cost accounting."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from matchsim import experiments, model
from matchsim.model import (
    ACCESS_KINDS,
    MAX_INSTANCE_SIZE,
    PHASES,
    CostLedger,
    MatchInstance,
    ResourceLimitError,
    check_instance_size,
    generate_instance,
)


def reference_draw_distinct(rng, count):
    """The per-value loop ``_draw_distinct`` must reproduce exactly."""
    seen = set()
    out = []
    while len(out) < count:
        batch = rng.integers(0, 1 << 64, size=max(16, count - len(out)), dtype=np.uint64)
        for v in batch.tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == count:
                    break
    return out


class ScriptedRng:
    """Stands in for a Generator that hands out a fixed stream in order.

    The reference loop draws with ``integers(0, 2**64, size, np.uint64)``
    and ``_draw_distinct`` with ``bit_generator.random_raw(size)``; both
    take the next ``size`` values of the stream and record ``size``.
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

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        return self._take(size)


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


def assert_one_buffer(inst, l1, l2):
    """Both lists are the halves of one read-only buffer, list1 first."""
    buffer = inst.values1.base
    assert buffer is inst.values2.base and buffer is not None
    assert not buffer.flags.writeable and buffer.base is None
    assert np.array_equal(buffer, np.concatenate((l1, l2)))
    assert np.array_equal(inst.values1, l1) and np.array_equal(inst.values2, l2)


# raw streams that send _draw_distinct down its per-value loop: the values,
# then one raw word whose low and high halves give the two positions
POSITION_WORD = 0xC0000000_80000000
REPEAT_STREAMS = [
    # n = 9 draws 17 values: a repeat in the first batch, one value from a second
    (9, [*range(100, 108), 103, *range(108, 132), POSITION_WORD]),
    # n = 3 draws 5 values: a repeat among them, filled from the first batch
    (3, [7, 8, 7, 9, 10, 11, *range(50, 60), POSITION_WORD]),
]


class TestGenerateInstance:
    def test_deterministic_for_fixed_seed(self):
        a = generate_instance(16, 1)
        b = generate_instance(16, 1)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_instance(16, 1) != generate_instance(16, 2)

    def test_smallest_size(self):
        inst = generate_instance(2, 7)
        inst.validate()
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
            inst.validate()

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

    @pytest.mark.parametrize("n", [*range(2, 10), 16, 17, 1024, 4097, 4**9])
    def test_one_buffer_equals_two_concatenates(self, n):
        for seed in (0, 1, 2, 2**63 + 5):
            rng = model.seeded_rng(seed)
            values = model._draw_distinct(rng, 2 * n - 1)
            pos1, pos2 = int(rng.integers(n)), int(rng.integers(n))
            inst = generate_instance(n, seed)
            assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
            assert_one_buffer(inst, *reference_assembly(values, n, pos1, pos2))

    @pytest.mark.parametrize("n, stream", REPEAT_STREAMS, ids=["first_batch", "small_count"])
    def test_one_buffer_on_the_repeat_path(self, n, stream, monkeypatch):
        monkeypatch.setattr(model, "seeded_rng", lambda seed: ScriptedRng(stream))
        inst = generate_instance(n, 0)
        values = np.array(reference_draw_distinct(ScriptedRng(stream), 2 * n - 1), dtype=np.uint64)
        # half and three quarters of 2**32, scaled by n; neither is redrawn
        pos1, pos2 = n // 2, 3 * n // 4
        assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
        assert_one_buffer(inst, *reference_assembly(values, n, pos1, pos2))
        inst.validate()

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
        monkeypatch.setattr(model, "seeded_rng", lambda seed: scripted)
        inst = generate_instance(n, 0)
        assert scripted.calls == [max(16, 2 * n - 1) + 1] and not scripted.stream
        pos1, pos2 = n // 2, 3 * n // 4
        assert (inst.planted_pos1, inst.planted_pos2) == (pos1, pos2)
        values = np.array(values, dtype=np.uint64)
        assert_one_buffer(inst, *reference_assembly(values, n, pos1, pos2))
        # below n = 9 the draw holds discarded words; from n = 9 it is the buffer
        assert len(inst.values1.base) == 2 * n
        inst.validate()

    @pytest.mark.parametrize("n", [3, 9])
    def test_a_rejected_low_half_redraws_as_draw_positions_does(self, n, monkeypatch):
        # a low half of 0 is below 2**32 mod n, so the next raw value is drawn
        count = 2 * n - 1
        words = [0xC0000000_00000000, 0x00000000_80000000]
        stream = [*range(100, 100 + max(16, count)), *words, 77]
        scripted = ScriptedRng(stream)
        monkeypatch.setattr(model, "seeded_rng", lambda seed: scripted)
        inst = generate_instance(n, 0)
        assert scripted.calls == [max(16, count) + 1, None] and scripted.stream == [77]
        positions = model._draw_positions(ScriptedRng(words), n)
        assert (inst.planted_pos1, inst.planted_pos2) == positions == (3 * n // 4, n // 2)
        values = np.array(stream[:count], dtype=np.uint64)
        assert_one_buffer(inst, *reference_assembly(values, n, *positions))


def reference_repeats(*parts):
    """The values occurring more than once across ``parts``, by np.unique."""
    values, counts = np.unique(np.concatenate(parts), return_counts=True)
    return values[counts > 1]


def frozen_strided(values):
    """``values`` as a read-only view of every other word of a frozen buffer."""
    wide = np.asarray(values, dtype=np.uint64).repeat(2)
    wide.flags.writeable = False
    return wide[::2]


class TestRepeats:
    @pytest.fixture(autouse=True, params=["keyed", "sorted"])
    def path(self, request, monkeypatch):
        """Run each check through the 32-bit key filter and through the plain sort."""
        if request.param == "sorted":
            monkeypatch.setattr(model, "_KEYED_VALUES", 0)

    @pytest.mark.parametrize(
        "sizes",
        [(0,), (1,), (2,), (17,), (4097,), (0, 0), (1, 1), (2, 17), (17, 4097),
         (0, 1, 2), (1, 17, 2), (17, 4097, 17)],
        ids=str,
    )
    def test_equals_unique_counts(self, sizes):
        for seed in range(4):
            rng = np.random.default_rng([seed, *sizes])
            pool = rng.integers(0, 1 << 64, sum(sizes), dtype=np.uint64)
            if len(pool) > 1:
                # copy values over others, within and across parts, some thrice
                sources, targets = rng.integers(len(pool), size=(2, 1 + len(pool) // 8))
                pool[targets] = pool[sources]
            parts = np.split(pool, np.cumsum(sizes)[:-1])
            out = model._repeats(*parts)
            assert out.dtype == np.uint64
            assert np.array_equal(out, reference_repeats(*parts))

    def test_every_value_sharing_one_low_word(self):
        shared = np.arange(4097, dtype=np.uint64) << np.uint64(32)
        for parts in [(shared,), (shared, shared[::3]), (shared[:17], shared[17:], shared[5:9])]:
            out = model._repeats(*parts)
            assert np.array_equal(out, reference_repeats(*parts))
        assert not len(model._repeats(shared))

    def test_values_at_the_top_of_the_range(self):
        # 2**63 shares its low word with 0, 2**64 - 1 with 2**32 - 1
        top = [2**64 - 1, 2**63, 0, 2**32 - 1, 2**63 + 1, 2**64 - 2]
        for parts in [(top, top[:2]), (top, [2**63, 5]), (top[:3], top[3:], [2**64 - 1])]:
            parts = [np.array(p, dtype=np.uint64) for p in parts]
            assert np.array_equal(model._repeats(*parts), reference_repeats(*parts))
        assert model._repeats(np.array(top, dtype=np.uint64)).tolist() == []
        assert model._repeats(*parts).tolist() == [2**64 - 1]

    def test_read_only_strided_parts(self):
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
        pool[[7, 150, 299]] = pool[[0, 1, 150]]
        pool.flags.writeable = False
        parts = [frozen_strided(pool[:100]), frozen_strided(pool[100:]), pool[::-1][:50]]
        for part in parts:
            assert not part.flags.writeable and not part.flags.c_contiguous
        out = model._repeats(*parts)
        assert np.array_equal(out, reference_repeats(*parts))
        assert np.array_equal(out, model._repeats(*[p.copy() for p in parts]))


def test_repeats_either_side_of_the_key_filter_bound():
    rng = np.random.default_rng(7)
    for total in (model._KEYED_VALUES, model._KEYED_VALUES + 1):
        pool = rng.integers(0, 1 << 64, total, dtype=np.uint64)
        pool[[-1, 9]] = pool[[0, 5]]
        parts = (pool[: total // 2], pool[total // 2 :])
        assert np.array_equal(model._repeats(*parts), reference_repeats(*parts))


class TestDrawDistinct:
    @pytest.mark.parametrize("count", [1, 3, 15, 16, 17, 1023, 4097])
    def test_matches_reference_on_real_generator(self, count):
        for seed in range(3):
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            out = model._draw_distinct(fast_rng, count)
            assert out.dtype == np.uint64
            assert out.tolist() == reference_draw_distinct(ref_rng, count)
            # both leave the generator in the same state
            assert fast_rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    @pytest.mark.parametrize(
        "count, stream",
        [
            # a repeat inside the first batch: one more batch of 16 fills the gap
            (20, [*range(100, 110), 103, *range(110, 119), *range(200, 216)]),
            # the second batch repeats values from the first before a new one
            (20, [*range(100, 119), 100, 105, 100, 118, 300, *range(301, 313)]),
            # count below 16: a repeat within the first count values
            (5, [7, 8, 7, 9, 10, 11, *range(50, 60)]),
            # count below 16: repeats only after the first count values
            (5, [7, 8, 9, 10, 11, 7, 8, *range(50, 59)]),
            # a whole second batch of repeats forces a third batch
            (18, [*range(17), 0, *range(16), *range(500, 516)]),
            # values at the top of the 64-bit range compare as unsigned
            (4, [2**64 - 1, 2**63, 2**64 - 1, 2**63 + 1, 5, *range(600, 611), *range(700, 716)]),
        ],
        ids=["repeat_in_first", "second_repeats_first", "small_count",
             "small_count_late_repeat", "third_batch", "top_bits"],
    )
    def test_scripted_repeats_match_reference(self, count, stream):
        fast, ref = ScriptedRng(stream), ScriptedRng(stream)
        out = model._draw_distinct(fast, count).tolist()
        assert out == reference_draw_distinct(ref, count)
        assert fast.calls == ref.calls
        assert len(set(out)) == count

    @pytest.mark.parametrize("size", [16, 31, 2047, 131071])
    def test_raw_stream_is_the_full_range_integers_stream(self, size):
        for seed in range(5):
            raw_rng = np.random.default_rng(seed)
            int_rng = np.random.default_rng(seed)
            raw = raw_rng.bit_generator.random_raw(size)
            ints = int_rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
            assert raw.dtype == np.uint64
            assert np.array_equal(raw, ints)
            assert raw_rng.bit_generator.state == int_rng.bit_generator.state


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


class TestSeededRng:
    @pytest.fixture
    def default_rng_calls(self, monkeypatch):
        calls = []
        original = np.random.default_rng

        def counting(seed):
            calls.append(seed)
            return original(seed)

        monkeypatch.setattr(model.np.random, "default_rng", counting)
        yield calls
        model.forget_seed_words()

    def test_remembered_seeds_skip_default_rng(self, default_rng_calls):
        seeds = random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=11)
        model.remember_seed_words(seeds)
        for seed in seeds:
            rng = model.seeded_rng(seed)
            assert rng.bit_generator.state == np.random.Generator(
                np.random.PCG64(seed)
            ).bit_generator.state
        assert default_rng_calls == []

    def test_a_miss_falls_back_to_default_rng(self, default_rng_calls):
        model.remember_seed_words(random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=12))
        rng = model.seeded_rng(5)
        assert default_rng_calls == [5]
        assert rng.random() == np.random.Generator(np.random.PCG64(5)).random()

    def test_nothing_is_remembered_below_break_even(self, default_rng_calls):
        seeds = random_seeds(model.SEED_WORDS_BREAK_EVEN - 1, seed=13)
        model.remember_seed_words(seeds)
        assert not model._seed_memo.index
        for seed in seeds:
            model.seeded_rng(seed)
        assert default_rng_calls == seeds

    def test_a_call_below_break_even_forgets_the_last_one(self, default_rng_calls):
        model.remember_seed_words(random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=17))
        model.remember_seed_words(random_seeds(model.SEED_WORDS_BREAK_EVEN - 1, seed=18))
        assert not model._seed_memo.index

    def test_each_call_builds_a_new_generator(self):
        seeds = random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=14)
        model.remember_seed_words(seeds)
        try:
            first, second = model.seeded_rng(seeds[0]), model.seeded_rng(seeds[0])
            assert first is not second and first.bit_generator is not second.bit_generator
            assert first.random() == second.random()
        finally:
            model.forget_seed_words()
        assert not model._seed_memo.index

    def test_remembered_words_are_read_only(self):
        model.remember_seed_words(random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=15))
        try:
            assert not model._seed_memo.words.flags.writeable
        finally:
            model.forget_seed_words()

    def test_importing_matchsim_leaves_numpy_random_unloaded(self):
        # numpy.random costs set-up time; it loads with the first generator
        src = str(Path(model.__file__).resolve().parents[1])
        code = "import sys, matchsim; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


    def test_pinned_instances_from_remembered_seeds(self, default_rng_calls):
        seeds = sorted({seed for _, seed in PINNED_INSTANCES})
        model.remember_seed_words(seeds + random_seeds(model.SEED_WORDS_BREAK_EVEN, seed=16))
        for (n, seed), digest in PINNED_INSTANCES.items():
            inst = generate_instance(n, seed)
            doc = [list(inst.list1), list(inst.list2), inst.planted_value,
                   inst.planted_pos1, inst.planted_pos2]
            assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
        assert default_rng_calls == []


class TestSweepSeedMemo:
    def test_one_fill_holds_every_drawn_seed_and_is_emptied(self, monkeypatch):
        seen = []
        original = experiments.generate_instance

        def recording(n, seed):
            seen.append(len(model._seed_memo.index))
            return original(n, seed)

        monkeypatch.setattr(experiments, "generate_instance", recording)
        config = experiments.SweepConfig(algorithm="nested", n_values=(16, 64), trials_per_n=3)
        experiments.run_sweep(config)
        # instance and run seeds of all 6 trials, remembered before the first
        assert seen == [12] * 6
        assert not model._seed_memo.index

    def test_memo_is_emptied_when_a_sweep_raises(self):
        config = experiments.SweepConfig(
            algorithm="sort_scan", n_values=(16, MAX_INSTANCE_SIZE + 1), trials_per_n=5
        )
        with pytest.raises(ResourceLimitError, match=f"n={MAX_INSTANCE_SIZE + 1}, trial=0"):
            experiments.run_sweep(config)
        assert not model._seed_memo.index


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
        inst = MatchInstance.from_lists([5, 1, 9], [2, 9, 4])
        assert inst.planted_value == 9
        assert (inst.planted_pos1, inst.planted_pos2) == (2, 1)

    def test_from_lists_rejects_no_shared_value(self):
        with pytest.raises(ValueError):
            MatchInstance.from_lists([1, 2], [3, 4])

    def test_from_lists_rejects_two_shared_values(self):
        with pytest.raises(ValueError):
            MatchInstance.from_lists([1, 2, 3], [2, 3, 4])

    def test_validate_rejects_internal_duplicate(self):
        inst = generate_instance(8, 1)
        tampered = MatchInstance(
            list1=inst.list1[:-1] + (inst.list1[0],),
            list2=inst.list2,
            planted_value=inst.planted_value,
            planted_pos1=inst.planted_pos1,
            planted_pos2=inst.planted_pos2,
        )
        with pytest.raises(ValueError):
            tampered.validate()

    def test_validate_rejects_wrong_position(self):
        inst = generate_instance(8, 1)
        wrong = (inst.planted_pos1 + 1) % inst.n
        tampered = MatchInstance(
            list1=inst.list1,
            list2=inst.list2,
            planted_value=inst.planted_value,
            planted_pos1=wrong,
            planted_pos2=inst.planted_pos2,
        )
        with pytest.raises(ValueError):
            tampered.validate()

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
    def test_from_lists_rejects_values_outside_64_bits(self, bad):
        with pytest.raises(ValueError, match="64 bits"):
            MatchInstance.from_lists([bad, 1, 2], [2, 5, 6])
        with pytest.raises(ValueError, match="64 bits"):
            MatchInstance.from_lists([1, 2, 3], [4, 3, bad])

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_direct_construction_rejects_values_outside_64_bits(self, bad):
        with pytest.raises(ValueError, match="64 bits"):
            MatchInstance(
                list1=(bad, 1), list2=(1, 5),
                planted_value=1, planted_pos1=1, planted_pos2=0,
            )

    def test_size_is_the_lists_length(self):
        inst = MatchInstance([1, 2, 3, 4], [4, 5, 6, 7], 4, 3, 0)
        assert inst.n == 4
        inst.validate()

    def test_lists_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            MatchInstance([1, 2, 3, 4], [4, 5, 6], 4, 3, 0)
        with pytest.raises(ValueError, match="equal length"):
            MatchInstance.from_lists([1, 2, 3], [3, 4])

    def test_lists_are_python_int_tuples_over_read_only_arrays(self):
        inst = MatchInstance.from_lists([2**64 - 1, 2**63, 7], [9, 7, 0])
        assert inst.list1 == (2**64 - 1, 2**63, 7)
        assert all(type(v) is int for v in inst.list1 + inst.list2)
        assert inst.values1.dtype == inst.values2.dtype == np.uint64
        with pytest.raises(ValueError):
            inst.values1[0] = 1
        assert type(inst.planted_value) is int and inst.planted_value == 7

    def test_a_caller_writing_its_array_leaves_the_instance_alone(self):
        a = np.array([5, 6, 7], dtype=np.uint64)
        inst = MatchInstance.from_lists(a, [7, 8, 9])
        a[2] = 1
        assert inst.values1.tolist() == [5, 6, 7]
        inst.validate()

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        owner = np.array([5, 6, 7, 8, 9, 7], dtype=np.uint64)
        view = owner[:3]
        view.flags.writeable = False
        inst = MatchInstance.from_lists(view, owner[3:])
        for values in (inst.values1, inst.values2):
            assert not values.flags.writeable
            assert not np.shares_memory(values, owner)

    def test_read_only_array_over_a_read_only_owner_is_kept(self):
        owner = np.array([5, 6, 7, 7, 8, 9], dtype=np.uint64)
        owner.flags.writeable = False
        halves = owner[:3], owner[3:]
        inst = MatchInstance.from_lists(*halves)
        assert inst.values1 is halves[0] and inst.values2 is halves[1]

    def test_generated_lists_share_no_writeable_memory(self):
        inst = generate_instance(16, 3)
        for values in (inst.values1, inst.values2):
            assert not values.flags.writeable and not values.base.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1
            with pytest.raises(ValueError):
                values.base[0] = 1

    @pytest.mark.parametrize(
        "bad",
        [
            [1.5, 2],
            [True, 2],
            [np.bool_(True), 2],
            ["7", 2],
            [None, 2],
            np.array([1.0, 2.0]),
            np.array([True, False]),
        ],
        ids=["float", "bool", "numpy_bool", "str", "none", "float_array", "bool_array"],
    )
    def test_values_that_are_not_integers_are_refused(self, bad):
        with pytest.raises(ValueError, match="integers"):
            MatchInstance.from_lists(bad, [2, 3])
        with pytest.raises(ValueError, match="integers"):
            MatchInstance(
                list1=(2, 3), list2=bad, planted_value=2, planted_pos1=0, planted_pos2=1,
            )

    def test_a_non_sequence_is_refused(self):
        with pytest.raises(ValueError, match="integers"):
            MatchInstance.from_lists(7, [7, 8])

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
        inst = MatchInstance.from_lists(values, [9, 7, 8])
        assert inst.values1.dtype == np.uint64 and inst.values1.tolist() == [5, 6, 7]
        assert (inst.planted_value, inst.planted_pos1, inst.planted_pos2) == (7, 2, 1)

    def test_equality_is_by_value(self):
        inst = generate_instance(8, 1)
        same = MatchInstance(
            list1=list(inst.list1), list2=inst.list2,
            planted_value=inst.planted_value, planted_pos1=inst.planted_pos1,
            planted_pos2=inst.planted_pos2, seed=inst.seed,
        )
        assert same == inst
        swapped = MatchInstance(
            list1=inst.list2, list2=inst.list1,
            planted_value=inst.planted_value, planted_pos1=inst.planted_pos2,
            planted_pos2=inst.planted_pos1, seed=inst.seed,
        )
        assert swapped != inst


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

    def test_rejects_unknown_phase(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            led.charge("mem_reads", 1, "warmup")
        with pytest.raises(ValueError):
            led.charge_batch("warmup", mem_reads=1)

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
            assert sum(led.phase_total(p) for p in PHASES) == led.total_cost()

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
