"""Tests for sweeps, fits, comparisons, and the command-line front end."""

import csv
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from matchsim import experiments, matchers, model
from matchsim.cli import main
from matchsim.experiments import (
    CSV_COLUMNS,
    SweepConfig,
    SweepResult,
    compare_report,
    derive_seed,
    fit_exponent,
    float_sum,
    geomean_costs,
    load_rows,
    noise_spec,
    run_matcher,
    run_sweep,
)
from matchsim.grover import DEFAULT_STATEVECTOR_CAP, ResourceLimitError, statevector_cap_from_env
from matchsim.matchers import NestedConfig, run_stream_length
from matchsim.model import ACCESS_KINDS, MAX_INSTANCE_SIZE, generate_instance
from references import record_generation, sweep_csv


def _never_drawn(*args, **kwargs):
    raise AssertionError("derived seeds or drew values for an over-cap instance")


# what a sweep whose largest size is over the size cap is refused with
_OVER_CAP = (
    f"instance size {MAX_INSTANCE_SIZE + 1} exceeds the cap of {MAX_INSTANCE_SIZE} values per list"
)


# configs from_dict must reject with ValueError, keyed by what is wrong
MALFORMED_CONFIGS = {
    "string_trials": {"algorithm": "sort_scan", "n_values": [16], "trials_per_n": "3"},
    "top_level_int": 5,
    "top_level_list": [{"algorithm": "sort_scan", "n_values": [16]}],
    "float_size": {"algorithm": "sort_scan", "n_values": [16, 32.7]},
    "bool_trials": {"algorithm": "sort_scan", "n_values": [16], "trials_per_n": True},
    "float_seed": {"algorithm": "sort_scan", "n_values": [16], "base_seed": 1.5},
    "string_sizes": {"algorithm": "sort_scan", "n_values": "16"},
    "bool_size": {"algorithm": "sort_scan", "n_values": [True, 16]},
    "list_algorithm": {"algorithm": ["sort_scan"], "n_values": [16]},
    "int_output": {"algorithm": "sort_scan", "n_values": [16], "output": 7},
}


def _negate_reads(rec):
    rec["mem_reads"] = str(-int(rec["mem_reads"]))
    rec["total_cost"] = str(sum(int(rec[kind]) for kind in ACCESS_KINDS))


def _zero_counters(rec):
    for key in ("total_cost", *ACCESS_KINDS):
        rec[key] = "0"


# CSV rows load_rows must reject: each edit breaks one rule, and the
# message names what is wrong
IMPOSSIBLE_ROWS = {
    "negative_counter": (_negate_reads, "mem_reads is negative"),
    "total_not_sum": (lambda rec: rec.update(total_cost=str(int(rec["total_cost"]) + 1)),
                      "not the sum of its counters"),
    "zero_total": (_zero_counters, "total_cost must be at least 1"),
    "success_two": (lambda rec: rec.update(success="2"), "success must be 0 or 1"),
    "n_below_two": (lambda rec: rec.update(n="1"), "n must be at least 2"),
    "negative_trial": (lambda rec: rec.update(trial="-1"), "trial is negative"),
    "negative_seed": (lambda rec: rec.update(seed="-1"), "seed is negative"),
    "unknown_algorithm": (lambda rec: rec.update(algorithm="nope"), "unknown algorithm 'nope'"),
    "predicted_above_one": (lambda rec: rec.update(predicted_success="1.5"), "outside [0, 1]"),
    "predicted_nan": (lambda rec: rec.update(predicted_success="nan"), "outside [0, 1]"),
}


# run knobs SweepConfig must refuse, with the message it refuses them by
REFUSED_KNOBS = {
    "unknown_engine": ({"engine": "dense"}, "unknown engine 'dense'"),
    "zero_uncompute_factor": ({"uncompute_factor": 0}, "uncompute_factor must be at least 1"),
    "unknown_noise_preset": ({"noise_preset": "gaussian"}, "unknown noise preset 'gaussian'"),
}


class TestSweepConfig:
    def test_round_trip_through_dict(self):
        config = SweepConfig(
            algorithm="nested",
            n_values=(16, 64),
            trials_per_n=3,
            base_seed=9,
            noise_preset="inv_n",
        )
        assert SweepConfig.from_dict(config.as_dict()) == config

    def test_config_types_name_every_field(self):
        # from_dict type-checks by _CONFIG_TYPES and as_dict writes every field
        fields = [f.name for f in dataclasses.fields(SweepConfig)]
        assert list(experiments._CONFIG_TYPES) == fields

    def test_as_dict_json_writes_sizes_as_a_list(self):
        config = SweepConfig(algorithm="nested", n_values=(16, 64), output="out.csv")
        assert json.loads(json.dumps(config.as_dict())) == {
            "algorithm": "nested",
            "n_values": [16, 64],
            "trials_per_n": 1,
            "base_seed": 0,
            "engine": "auto",
            "noise_preset": "none",
            "uncompute_factor": 2,
            "output": "out.csv",
        }

    def test_from_json(self):
        text = json.dumps({"algorithm": "sort_scan", "n_values": [4, 16]})
        config = SweepConfig.from_json(text)
        assert config.algorithm == "sort_scan"
        assert config.n_values == (4, 16)
        assert config.trials_per_n == 1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="quantum_walk", n_values=(4,))

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(64, 16))
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16, 16))

    def test_rejects_empty_sizes_and_bad_trials(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=())
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16,), trials_per_n=0)

    @pytest.mark.parametrize("output", ["rows.json", "rows.JSON"])
    def test_rejects_an_output_the_json_would_overwrite(self, output):
        with pytest.raises(ValueError, match="overwritten"):
            SweepConfig(algorithm="nested", n_values=(16,), output=output)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SweepConfig.from_dict(
                {"algorithm": "nested", "n_values": [4], "shots": 100}
            )

    @pytest.mark.parametrize("n_values", [(2,), (MAX_INSTANCE_SIZE,), (2, 16, MAX_INSTANCE_SIZE)])
    def test_the_work_cap_admits_a_sweep_just_under_it(self, n_values):
        # trials_per_n * sum(2n + TRIAL_WORK): the configs are built, never run
        trials = model.MAX_SWEEP_WORK // sum(2 * n + model.TRIAL_WORK for n in n_values)
        assert SweepConfig(algorithm="nested", n_values=n_values, trials_per_n=trials)
        with pytest.raises(ResourceLimitError, match=f"the cap of {model.MAX_SWEEP_WORK}$"):
            SweepConfig(algorithm="nested", n_values=n_values, trials_per_n=trials + 1)

    @pytest.mark.parametrize(
        "algorithm,n,trials",
        # naive: 2^20 pairs for 804 rounds, 52 756 480 units a trial; nested: 1024
        # blocks for 25 rounds and 2^20 values for 804, 52 758 144 units a trial
        [("naive_grover", 1024, 651), ("nested", 2**20, 626)],
    )
    def test_the_work_cap_counts_statevector_amplitude_rounds(self, algorithm, n, trials):
        doc = {"algorithm": algorithm, "n_values": (n,), "engine": "statevector"}
        assert SweepConfig(**doc, trials_per_n=trials)
        with pytest.raises(ResourceLimitError, match=f"the cap of {model.MAX_SWEEP_WORK}$"):
            SweepConfig(**doc, trials_per_n=trials + 1)
        # the reduced engine steps no amplitudes
        assert SweepConfig(**{**doc, "engine": "auto"}, trials_per_n=20 * trials)

    @pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_from_dict_rejects_wrong_types(self, doc):
        with pytest.raises(ValueError):
            SweepConfig.from_dict(doc)

    def test_rejects_bad_preset_and_engine(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16,), noise_preset="gaussian")
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16,), engine="dense")

    @pytest.mark.parametrize("case", REFUSED_KNOBS.values(), ids=REFUSED_KNOBS.keys())
    def test_refuses_bad_run_knobs(self, case, tmp_path, capsys):
        knobs, message = case
        doc = {"algorithm": "nested", "n_values": [16], **knobs}
        with pytest.raises(ValueError) as err:
            SweepConfig(**doc)
        assert str(err.value) == message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(5, 64, 3, "instance") == derive_seed(5, 64, 3, "instance")

    def test_streams_are_distinct(self):
        cells = set()
        for base in range(3):
            for n in (16, 64):
                for trial in range(4):
                    for stream in ("instance", "run"):
                        cells.add(derive_seed(base, n, trial, stream))
        assert len(cells) == 3 * 2 * 4 * 2

    def test_fits_in_64_bits(self):
        s = derive_seed(2**63, 65536, 999, "run")
        assert 0 <= s < 2**64

    @pytest.mark.parametrize("base_seed", [0, 1, 2**64 - 1, 2**64 + 7, 10**30])
    def test_equals_the_one_shot_digest(self, base_seed):
        # each size's hashed prefix is cached and copied: every trial and
        # stream after the first reads it, and none may change it
        for n in (2, 16, 2**22, 2**64 - 1):
            for trial in (0, 1, 2**64 - 1, 0):
                for stream in ("instance", "run"):
                    message = f"{base_seed}:{n}:{trial}:{stream}".encode()
                    digest = hashlib.blake2b(message, digest_size=8).digest()
                    assert derive_seed(base_seed, n, trial, stream) == int.from_bytes(digest, "big")

    def test_an_equal_seed_of_another_type_is_hashed_as_written(self):
        # True == 1 and 16.0 == 16, but they print differently
        for base_seed, n in ((1, 16), (True, 16), (1, 16.0)):
            message = f"{base_seed}:{n}:3:run".encode()
            digest = hashlib.blake2b(message, digest_size=8).digest()
            assert derive_seed(base_seed, n, 3, "run") == int.from_bytes(digest, "big")


class TestNoisePresets:
    def test_values(self):
        assert noise_spec("none", 100) is None
        assert noise_spec("inv_n", 100).failure_prob == pytest.approx(0.01)
        assert noise_spec("inv_sqrt_n", 100).failure_prob == pytest.approx(0.1)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            noise_spec("linear", 100)


class TestRunSweep:
    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                SweepConfig(
                    algorithm="nested", n_values=(16, 64, 256), trials_per_n=5,
                    base_seed=77, noise_preset="inv_n",
                ),
                "e9182a9af36535f434d5af0dec506e5cf5dc90f05a5ce3ca5918849dd9e19a90",
            ),
            (
                SweepConfig(
                    algorithm="naive_grover", n_values=(16, 32, 64), trials_per_n=3,
                    engine="auto",
                ),
                "626b4b5af7b3069e99335bf0e9510e8908b7ff223394e3ed270dc2dfd12ac3ed",
            ),
        ],
        ids=["nested_inv_n", "naive_grover_auto"],
    )
    def test_outputs_pinned(self, config, digest, monkeypatch, tmp_path):
        # digests of the CSV text from the full-statevector engine these
        # sweeps ran on before auto moved to the reduced engine
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        text, _ = sweep_csv(config, tmp_path)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("preset", ["inv_n", "inv_sqrt_n"])
    def test_noisy_nested_rows_agree_across_engines(self, preset, monkeypatch, tmp_path):
        # the reference statevector runner and the reduced one read the same
        # uniforms, so every row and the aggregate agree; at n = 17 the last of
        # the four blocks holds 2 values, and at n = 100 ten blocks hold 10 each
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        outputs = []
        for engine in ("statevector", "auto"):
            config = SweepConfig(
                algorithm="nested", n_values=(16, 17, 64, 100, 256), trials_per_n=24,
                base_seed=5, engine=engine, noise_preset=preset,
            )
            text, _ = sweep_csv(config, tmp_path)
            doc = json.loads((tmp_path / "rows.json").read_text(encoding="utf-8"))
            outputs.append((text, doc["aggregate"]))
        assert outputs[0] == outputs[1]

    def test_rows_are_immutable(self):
        row = run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4,))).rows[0]
        for name in CSV_COLUMNS:
            with pytest.raises(AttributeError):
                setattr(row, name, 0)

    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_csv_bytes_equal_str_of_every_field(self, algorithm, tmp_path, monkeypatch):
        # the writer's own conversion (repr for a float) against str per field,
        # with odd predicted successes in the first six of the nine rows
        config = SweepConfig(
            algorithm=algorithm, n_values=(4, 9, 16), trials_per_n=3, noise_preset="inv_n"
        )
        odd = [0.1, 1e-20, 1.0, 2.0 / 3.0, 5e-324, 0.9999999999999999]
        odd_left, run_trial = iter(odd), experiments._run_trial

        def odd_trial(*args):
            row = run_trial(*args)
            return row._replace(predicted_success=next(odd_left, row.predicted_success))

        monkeypatch.setattr(experiments, "_run_trial", odd_trial)
        text, rows = sweep_csv(config, tmp_path)
        assert [row.predicted_success for row in rows[:6]] == odd
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([str(getattr(row, column)) for column in CSV_COLUMNS])
        assert text == buf.getvalue()

    def test_row_grid_is_complete(self):
        config = SweepConfig(algorithm="sort_scan", n_values=(4, 16), trials_per_n=3)
        result = run_sweep(config)
        assert len(result.rows) == 6
        assert [(r.n, r.trial) for r in result.rows] == [
            (4, 0), (4, 1), (4, 2), (16, 0), (16, 1), (16, 2),
        ]

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = SweepConfig(
            algorithm="nested",
            n_values=(16, 64),
            trials_per_n=4,
            base_seed=3,
            output=str(out),
        )
        run_sweep(config)
        first = out.read_bytes()
        first_json = (tmp_path / "sweep.json").read_bytes()
        run_sweep(config)
        assert out.read_bytes() == first
        assert (tmp_path / "sweep.json").read_bytes() == first_json

    def test_csv_header_schema(self, tmp_path):
        config = SweepConfig(algorithm="exhaustive", n_values=(4,))
        text, _ = sweep_csv(config, tmp_path)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_distinct_trials_use_distinct_instances(self):
        config = SweepConfig(algorithm="sort_scan", n_values=(16,), trials_per_n=5)
        seeds = {row.seed for row in run_sweep(config).rows}
        assert len(seeds) == 5

    def test_classical_rows_always_succeed(self):
        for algo in ("exhaustive", "sort_scan", "two_sort"):
            config = SweepConfig(algorithm=algo, n_values=(4, 16), trials_per_n=3)
            assert all(r.success == 1 for r in run_sweep(config).rows)

    def test_aggregate_shape_and_fit_gate(self):
        config = SweepConfig(algorithm="sort_scan", n_values=(16, 64), trials_per_n=2)
        agg = run_sweep(config).aggregate()
        assert agg["fit"] is None  # fewer than 3 sizes
        assert [e["n"] for e in agg["per_n"]] == [16, 64]
        config3 = SweepConfig(algorithm="sort_scan", n_values=(16, 64, 256))
        agg3 = run_sweep(config3).aggregate()
        assert agg3["fit"] is not None
        # n log n data: raw slope overshoots 1, normalized slope sits on it
        assert agg3["fit"]["slope"] > 1.05
        assert agg3["fit_log_normalized"]["slope"] == pytest.approx(1.0, abs=0.05)

    def test_nested_predicted_success_column(self):
        config = SweepConfig(algorithm="nested", n_values=(256,), trials_per_n=2)
        rows = run_sweep(config).rows
        for row in rows:
            assert 0.9 < row.predicted_success < 1.0

    def test_load_rows_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        config = SweepConfig(
            algorithm="nested", n_values=(16, 64), trials_per_n=2, output=str(out)
        )
        result = run_sweep(config)
        assert load_rows(out) == result.rows

    def test_load_rows_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_rows(bad)

    @pytest.mark.parametrize(
        "mangle",
        [lambda f: f[:3], lambda f: f + ["7"], lambda f: f[:5] + ["x"] + f[6:]],
        ids=["short_row", "long_row", "bad_total_cost"],
    )
    def test_load_rows_names_file_and_line(self, mangle, tmp_path):
        path = tmp_path / "rows.csv"
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4, 8), output=str(path)))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(mangle(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
            load_rows(path)

    def test_statevector_cap_violation_names_size(self, monkeypatch):
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "64")
        config = SweepConfig(
            algorithm="naive_grover", n_values=(16,), engine="statevector"
        )
        with pytest.raises(ResourceLimitError) as err:
            run_sweep(config)
        assert "n=16" in str(err.value)

    def test_cap_env_parsing(self, monkeypatch):
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        assert statevector_cap_from_env() == DEFAULT_STATEVECTOR_CAP
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "4096")
        assert statevector_cap_from_env() == 4096
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "many")
        with pytest.raises(ValueError):
            statevector_cap_from_env()

    def test_malformed_cap_fails_only_statevector_runs(self, monkeypatch, capsys):
        # the cap is read when a statevector run starts, and only then
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "many")
        for algorithm in ("sort_scan", "naive_grover", "nested"):
            assert run_sweep(SweepConfig(algorithm=algorithm, n_values=(16,))).rows
        config = SweepConfig(algorithm="naive_grover", n_values=(4,), engine="statevector")
        with pytest.raises(ValueError, match="MATCH_SIM_STATEVECTOR_CAP"):
            run_sweep(config)
        run = ["run", "--algorithm", "naive_grover", "--n", "4"]
        assert main(run) == 0
        assert main(run + ["--engine", "statevector"]) == 2

    def test_auto_engine_downgrades_instead_of_failing(self, monkeypatch):
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "64")
        config = SweepConfig(algorithm="naive_grover", n_values=(16,), engine="auto")
        rows = run_sweep(config).rows
        assert len(rows) == 1


def record_hashing(monkeypatch) -> list:
    """The seeds each ``seed_words`` call of a sweep hashes, a list a call, in order."""
    calls = []
    original = experiments.seed_words
    monkeypatch.setattr(
        experiments, "seed_words", lambda seeds: calls.append(list(seeds)) or original(seeds)
    )
    return calls


class TestSeedWordsInSweeps:
    @pytest.mark.parametrize("engine", ["auto", "statevector"])
    @pytest.mark.parametrize(
        "algorithm,noise",
        [("sort_scan", "none"), ("naive_grover", "none"), ("nested", "none"),
         ("nested", "inv_sqrt_n")],
    )
    def test_outputs_do_not_depend_on_hashing(
        self, algorithm, noise, engine, tmp_path, monkeypatch
    ):
        out = tmp_path / "rows.csv"
        config = SweepConfig(
            algorithm=algorithm, n_values=(16, 64), trials_per_n=5, base_seed=5, engine=engine,
            noise_preset=noise, output=str(out),
        )
        drawn = 10 * (2 if algorithm in experiments.AMPLIFIED else 1)
        slow_path = []
        original = model.np.random.default_rng

        def counting(seed):
            slow_path.append(seed)
            return original(seed)

        monkeypatch.setattr(model.np.random, "default_rng", counting)
        hashed = record_hashing(monkeypatch)
        outputs = []
        # each break-even at 1, then above the chunk: hashed or not, one pass or generators
        for seed_break_even, stream_break_even in itertools.product((1, drawn + 1), (1, 11)):
            monkeypatch.setattr(experiments, "SEED_WORDS_BREAK_EVEN", seed_break_even)
            monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", stream_break_even)
            slow_path.clear(), hashed.clear()
            run_sweep(config)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
            # a hashed chunk builds every generator from its words
            assert [len(seeds) for seeds in hashed] == ([drawn] if seed_break_even == 1 else [])
            assert len(slow_path) == (0 if hashed else drawn)
        assert outputs == [outputs[0]] * 4
        assert outputs[0][0] and outputs[0][1]

    def test_one_call_holds_every_drawn_seed(self, monkeypatch):
        config = SweepConfig(algorithm="nested", n_values=(16, 64), trials_per_n=4)
        cells = [(n, trial) for n in (16, 64) for trial in range(4)]
        seeds = [derive_seed(0, n, trial, "instance") for n, trial in cells]
        seeds += [derive_seed(0, n, trial, "run") for n, trial in cells]
        hashed = record_hashing(monkeypatch)
        # generators a trial, then one run-stream pass: both from the same words
        for break_even in (9, 1):
            monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", break_even)
            hashed.clear()
            run_sweep(config)
            assert hashed == [seeds]

    def test_a_noisy_small_batch_chunk_hashes_its_2000_seeds_at_once(self, monkeypatch):
        hashed = record_hashing(monkeypatch)
        config = SweepConfig(
            algorithm="nested", n_values=(16, 64, 256, 1024), trials_per_n=250,
            noise_preset="inv_sqrt_n",
        )
        run_sweep(config, keep_rows=False)
        assert [len(seeds) for seeds in hashed] == [2000]

    def test_classical_sorts_two_seed_chunks_hash_nothing(self, monkeypatch):
        hashed = record_hashing(monkeypatch)
        for algorithm in ("sort_scan", "two_sort"):
            run_sweep(SweepConfig(algorithm, n_values=(16384, 65536)))
        assert hashed == []

    @pytest.mark.parametrize("noise", ["none", "inv_sqrt_n"])
    @pytest.mark.parametrize("algorithm", experiments.AMPLIFIED)
    def test_no_matcher_builds_a_generator_in_a_hashed_chunk(self, algorithm, noise, monkeypatch):
        def never(*args):
            raise AssertionError("a matcher built a generator")

        config = SweepConfig(
            algorithm=algorithm, n_values=(16, 64), trials_per_n=2, noise_preset=noise
        )
        expected = run_sweep(config).rows
        monkeypatch.setattr(matchers, "seeded_rng", never)
        for break_even in (1, 5):  # one pass; generators built from the chunk's words
            monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", break_even)
            assert run_sweep(config).rows == expected


class TestRunStreamsInSweeps:
    @pytest.mark.parametrize("engine", ["auto", "statevector"])
    @pytest.mark.parametrize(
        "algorithm,noise,sizes,longest",
        [
            ("nested", "inv_sqrt_n", (16, 64, 256), 5),  # streams of 3, 4 and 5 in one chunk
            ("nested", "inv_n", (16, 17, 100), 4),  # 3, 3 and 4
            ("nested", "none", (16, 17, 64), 2),
            ("naive_grover", "none", (4, 8, 16), 1),
        ],
    )
    def test_one_pass_gives_the_sweep_generators_give(
        self, algorithm, noise, sizes, longest, engine, tmp_path, monkeypatch
    ):
        out = tmp_path / "rows.csv"
        config = SweepConfig(
            algorithm=algorithm, n_values=sizes, trials_per_n=8, base_seed=3, engine=engine,
            noise_preset=noise, output=str(out),
        )
        passes = []
        run_streams = experiments.run_streams
        monkeypatch.setattr(
            experiments, "run_streams",
            lambda words, k: passes.append((len(words), k)) or run_streams(words, k),
        )
        outputs = []
        for break_even in (1, 3 * 8 + 1):  # one pass; then a break-even above the chunk
            monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", break_even)
            run_sweep(config)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert passes == [(3 * 8, longest)]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("algorithm", experiments.AMPLIFIED)
    def test_each_run_reads_its_own_seeds_stream_and_reports_that_seed(
        self, algorithm, monkeypatch
    ):
        monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", 1)
        runs = []
        attr = experiments.MATCHERS[algorithm]
        matcher = getattr(experiments, attr)

        def recording(instance, config, **kwargs):
            report = matcher(instance, config, **kwargs)
            runs.append((instance.n, kwargs["uniforms"], report))
            return report

        monkeypatch.setattr(experiments, attr, recording)
        config = SweepConfig(
            algorithm=algorithm, n_values=(16, 64), trials_per_n=3, base_seed=8,
            noise_preset="inv_sqrt_n",
        )
        run_sweep(config)
        cells = [(n, trial) for n in (16, 64) for trial in range(3)]
        assert len(runs) == len(cells)
        # the sweep names the seed on the report once the call returns
        for (n, trial), (run_n, uniforms, report) in zip(cells, runs):
            seed = derive_seed(8, n, trial, "run")
            assert run_n == n and report.rng_seed == seed
            k = run_stream_length(algorithm == "nested", n, noise_spec("inv_sqrt_n", n))
            assert uniforms == np.random.default_rng(seed).random(k).tolist()

    @pytest.mark.parametrize("algorithm", experiments.AMPLIFIED)
    def test_every_chunk_regime_shares_a_sizes_config_and_hands_each_trial_its_stream(
        self, algorithm, tmp_path, monkeypatch
    ):
        # chunks of 3 trials hash no seed, chunks of 7 build a generator a trial from their
        # seeds' words, a chunk of 1024 draws its 72 streams in one run_streams pass
        out, sizes = tmp_path / "rows.csv", (16, 17, 64)
        config = SweepConfig(
            algorithm=algorithm, n_values=sizes, trials_per_n=24, base_seed=4,
            noise_preset="inv_sqrt_n", output=str(out),
        )
        built, runs, outputs = [], [], []
        nested_config, attr = experiments.NestedConfig, experiments.MATCHERS[algorithm]
        monkeypatch.setattr(
            experiments, "NestedConfig",
            lambda *args: built.append(nested_config(*args)) or built[-1],
        )
        matcher = getattr(experiments, attr)

        def recording(instance, run_config, **kwargs):
            report = matcher(instance, run_config, **kwargs)
            runs.append((instance.n, run_config, kwargs["uniforms"], report))
            return report

        monkeypatch.setattr(experiments, attr, recording)
        for chunk in (3, 7, 1024):
            monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
            built.clear(), runs.clear()
            run_sweep(config)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
            assert [run_config.noise for run_config in built] == [
                noise_spec("inv_sqrt_n", n) for n in sizes
            ]
            cells = [(n, trial) for n in sizes for trial in range(24)]
            assert len(runs) == len(cells)
            for (n, trial), (run_n, run_config, uniforms, report) in zip(cells, runs):
                seed = derive_seed(4, n, trial, "run")
                k = run_stream_length(algorithm == "nested", n, run_config.noise)
                assert run_n == n and run_config is built[sizes.index(n)]
                assert uniforms == np.random.default_rng(seed).random(k).tolist()
                assert report.rng_seed == seed
        assert outputs == [outputs[0]] * 3

    @staticmethod
    def counted_runs(monkeypatch):
        """The runner calls the sweeps make from here on, counted by runner name."""
        runs = Counter()
        for name in ("run_analytic", "run_statevector"):
            runner = getattr(matchers, name)
            counting = lambda *args, _name=name, _runner=runner: (
                runs.update([_name]) or _runner(*args)
            )
            monkeypatch.setattr(matchers, name, counting)
        return runs

    @pytest.mark.parametrize("noise", ["none", "inv_sqrt_n"])
    def test_every_chunk_regime_reads_the_same_and_runs_one_path_per_engine(
        self, noise, tmp_path, monkeypatch
    ):
        # chunks of 3 trials hash no seed (6 < SEED_WORDS_BREAK_EVEN); chunks of 7 hash
        # theirs and build a generator a trial (7 < RUN_STREAM_BREAK_EVEN); a chunk of
        # 1024 draws every stream in one run_streams pass.  Each gives the same bytes, and
        # in each the reduced engine calls no runner and the statevector engine two a trial
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        out = tmp_path / "rows.csv"
        hashed, passes, run_streams = record_hashing(monkeypatch), [], experiments.run_streams
        monkeypatch.setattr(
            experiments, "run_streams",
            lambda words, k: passes.append(len(words)) or run_streams(words, k),
        )
        runs = self.counted_runs(monkeypatch)
        csvs, jsons = [], {}
        for engine, chunk in itertools.product(("auto", "statevector"), (3, 7, 1024)):
            monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
            hashed.clear(), passes.clear(), runs.clear()
            run_sweep(SweepConfig(
                algorithm="nested", n_values=(16, 17, 64, 100), trials_per_n=20, base_seed=3,
                engine=engine, noise_preset=noise, output=str(out),
            ))
            csvs.append(out.read_bytes())
            jsons.setdefault(engine, []).append(out.with_suffix(".json").read_bytes())
            # 80 trials: chunks of 3 hash nothing; 11 chunks of 7 hash 14 seeds each and the
            # last 3 trials none; one chunk of 80 hashes all 160
            expected_hashed = {3: [], 7: [14] * 11, 1024: [160]}[chunk]
            assert [len(seeds) for seeds in hashed] == expected_hashed
            assert passes == ([80] if chunk == 1024 else [])
            assert runs == (Counter() if engine == "auto" else Counter(run_statevector=2 * 80))
        assert csvs == [csvs[0]] * 6
        assert all(texts == [texts[0]] * 3 for texts in jsons.values())

    def test_a_nested_trial_builds_its_ledger_from_one_part_on_either_engine(self, monkeypatch):
        # sizes with a short last block (17, 100), trials that fail verification (inv_n
        # drops rounds), each engine below and above the run-stream break-even
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        config = dict(
            algorithm="nested", n_values=(16, 17, 64, 100), trials_per_n=100, base_seed=9,
            noise_preset="inv_n",
        )
        for engine in ("auto", "statevector"):  # every template built before counting
            run_sweep(SweepConfig(engine=engine, **config))
        merges, merge = [], model.CostLedger.merge
        monkeypatch.setattr(
            model.CostLedger, "merge", lambda ledger, part: merges.append(part) or merge(ledger, part)
        )
        built, from_part = [], model.CostLedger.from_part
        monkeypatch.setattr(
            model.CostLedger, "from_part", lambda part: built.append(part) or from_part(part)
        )
        outputs = []
        for engine, break_even in itertools.product(("auto", "statevector"), (64, 401)):
            monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", break_even)
            merges.clear(), built.clear()
            rows = run_sweep(SweepConfig(engine=engine, **config)).rows
            assert (len(built), len(merges)) == (400, 0)
            outputs.append(rows)
        assert outputs == [outputs[0]] * 4
        assert 0 < sum(row.success for row in rows) < 400

    def test_the_longest_stream_is_the_noisy_nested_one_at_the_size_cap(self):
        noise = noise_spec("inv_sqrt_n", MAX_INSTANCE_SIZE)
        assert run_stream_length(True, MAX_INSTANCE_SIZE, noise) == 37
        assert run_stream_length(True, MAX_INSTANCE_SIZE, None) == 2
        assert run_stream_length(False, MAX_INSTANCE_SIZE, noise) == 1


class TestSweepMemory:
    def test_rows_stream_in_chunks_that_span_sizes(self, monkeypatch):
        # each chunk hashes its own seeds: 4 trials' 8, drawn in a batch and
        # alone; then 2 trials' 4, below the break-even: none hashed, each drawn
        # alone (both chunks are below the run-stream break-even too)
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", 4)
        monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", 5)
        hashed, seen = record_hashing(monkeypatch), []
        one, batch = experiments.generate_instance, experiments.generate_instances

        def alone(n, seed, words=None):
            seen.append((n, 1, words is not None))
            return one(n, seed, words)

        def batched(n, seeds, words):
            seen.append((n, len(seeds), True))
            return batch(n, seeds, words)

        monkeypatch.setattr(experiments, "generate_instance", alone)
        monkeypatch.setattr(experiments, "generate_instances", batched)
        config = SweepConfig(algorithm="nested", n_values=(16, 64), trials_per_n=3)
        chunked = run_sweep(config)
        assert [len(seeds) for seeds in hashed] == [8]
        assert seen == [(16, 3, True), (64, 1, True), (64, 1, False), (64, 1, False)]
        monkeypatch.undo()
        whole = run_sweep(config)
        assert chunked.rows == whole.rows
        assert chunked.to_json_text() == whole.to_json_text()

    def test_each_chunk_picks_its_run_streams_path(self, monkeypatch):
        # chunks of 8 and 4 trials, over sizes whose noisy streams are 3 and 4 doubles
        # long, each hashing its instance and run seeds in one call: the first draws its
        # run streams in one pass; the second builds a generator a trial from its words
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", 8)
        monkeypatch.setattr(experiments, "RUN_STREAM_BREAK_EVEN", 5)
        hashed, passes = record_hashing(monkeypatch), []
        run_streams = experiments.run_streams
        monkeypatch.setattr(
            experiments, "run_streams",
            lambda words, k: passes.append((len(words), k)) or run_streams(words, k),
        )
        config = SweepConfig(
            algorithm="nested", n_values=(16, 64), trials_per_n=6, noise_preset="inv_sqrt_n"
        )
        chunked = run_sweep(config)
        assert passes == [(8, 4)]  # the chunk's longest stream, not its first size's
        assert [len(seeds) for seeds in hashed] == [16, 8]
        monkeypatch.undo()
        whole = run_sweep(config)  # one chunk, below the break-even
        assert chunked.rows == whole.rows
        assert chunked.to_json_text() == whole.to_json_text()

    def test_unkept_rows_bound_the_peak(self, tmp_path, monkeypatch):
        # 10 chunks against 1: nothing may grow by 16 bytes a trial, what the
        # tallies once kept (a bound of 1 MB missed every trial number held as
        # an int).  A traced real trial costs about 300 us, so the matcher
        # runs are stubbed; the seeds, chunks, run-stream passes, generation
        # batches, CSV stream and tallies are the sweep's.
        def stub_trial(config, instance, trial, run_seed, noise, uniforms):
            cost = 2 + trial % 5
            return experiments.TrialRow(
                config.algorithm, instance.n, trial, instance.seed, 1, cost, cost - 1, 1, 0, 0, 0,
                0.5,
            )

        monkeypatch.setattr(experiments, "_run_trial", stub_trial)
        peaks = []
        for trials in (1000, 10000):
            config = SweepConfig(
                algorithm="nested", n_values=(16,), trials_per_n=trials,
                output=str(tmp_path / "rows.csv"),
            )
            tracemalloc.start()
            try:
                result = run_sweep(config, keep_rows=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 16 * 9000
        assert result.aggregate()["per_n"][0]["trials"] == 10000
        assert result.rows is None

    def test_a_tally_does_not_grow_with_its_trials(self):
        tally = experiments.SizeTally()
        row = experiments.TrialRow("nested", 16, 0, 1, 1, 40, 30, 10, 0, 0, 4, 0.3)
        tally.fold([row])
        tracemalloc.start()
        try:
            for _ in range(10000):
                tally.fold([row])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1000
        assert (tally.trials, tally.successes, tally.max_peak_workspace) == (10001, 10001, 4)
        assert tally.predicted_sum == float_sum([0.3] * 10001)
        assert tally.log_cost_sum == float_sum([math.log(40)] * 10001)

    def test_batches_give_the_rows_of_one_instance_at_a_time(self, monkeypatch):
        # n = 1024 draws 32 instances a batch, so its 40 trials take two
        config = SweepConfig(
            algorithm="nested", n_values=(4, 16, 64, 256, 1024), trials_per_n=40,
            noise_preset="inv_sqrt_n",
        )
        batches = []
        batch = experiments.generate_instances

        def recording(n, seeds, words):
            batches.append((n, len(seeds)))
            return batch(n, seeds, words)

        monkeypatch.setattr(experiments, "generate_instances", recording)
        batched = run_sweep(config)
        assert batches == [(4, 40), (16, 40), (64, 40), (256, 40), (1024, 32), (1024, 8)]
        monkeypatch.setattr(experiments, "GENERATION_BATCH_VALUES", 1)
        one_at_a_time = run_sweep(config)
        assert len(batches) == 6
        assert batched.rows == one_at_a_time.rows
        assert batched.to_json_text() == one_at_a_time.to_json_text()

    def test_fewer_than_eight_rows_go_one_at_a_time(self, monkeypatch):
        # the budget fits 4 rows at n = 8192, too few for a batch to pay; the
        # chunk's 9 seeds are hashed, so only the row count keeps it from a batch
        def never(n, seeds, words):
            raise AssertionError(f"{len(seeds)} instances at n={n} drawn as a batch")

        monkeypatch.setattr(experiments, "generate_instances", never)
        hashed = record_hashing(monkeypatch)
        result = run_sweep(SweepConfig(algorithm="sort_scan", n_values=(8192,), trials_per_n=9))
        assert [len(seeds) for seeds in hashed] == [9]
        assert [row.trial for row in result.rows] == list(range(9))

    @pytest.mark.parametrize("budget", [1, experiments.GENERATION_BATCH_VALUES])
    def test_no_instance_outlives_its_batch(self, monkeypatch, budget):
        # one kept past its trials would pin its buffer while the next batch
        # is drawn, a megabyte at n = 65536
        monkeypatch.setattr(experiments, "GENERATION_BATCH_VALUES", budget)
        made = []

        def hooked(generate):
            def generating(n, seeds, words):
                assert all(ref() is None for ref in made)
                instances = generate(n, seeds, words)
                made.extend(weakref.ref(instance) for instance in instances)
                return instances
            return generating

        one, batch = experiments.generate_instance, experiments.generate_instances
        generate_one = hooked(lambda n, seeds, words: [one(n, *seeds, *words)])
        monkeypatch.setattr(
            experiments, "generate_instance", lambda n, s, w=None: generate_one(n, [s], [w])[0]
        )
        monkeypatch.setattr(experiments, "generate_instances", hooked(batch))
        run_sweep(SweepConfig(algorithm="nested", n_values=(16, 64), trials_per_n=3), keep_rows=False)
        assert len(made) == 6

    @pytest.mark.parametrize(
        "n_values, trials",
        # each under the work cap, with sizes at or under the size cap before the over-cap one
        [((MAX_INSTANCE_SIZE, MAX_INSTANCE_SIZE + 1), 2000), ((16, 64, MAX_INSTANCE_SIZE + 1), 40)],
        ids=["at_the_cap_first", "small_sizes_first"],
    )
    def test_an_over_cap_size_is_refused_before_any_seed_is_derived(
        self, n_values, trials, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep derived a seed or ran a trial")

        monkeypatch.setattr(experiments, experiments.MATCHERS["sort_scan"], never)
        monkeypatch.setattr(experiments, "_seed_pairs", never)
        with pytest.raises(ResourceLimitError, match=f"^{_OVER_CAP}$"):
            run_sweep(SweepConfig(algorithm="sort_scan", n_values=n_values, trials_per_n=trials))

    def test_unkept_rows_change_no_byte(self, tmp_path):
        # 3000 trials in 3 chunks: one boundary inside a size, one across sizes
        out = tmp_path / "rows.csv"
        config = SweepConfig(
            algorithm="two_sort", n_values=(2, 3), trials_per_n=1500, output=str(out)
        )
        outputs = []
        for keep_rows in (False, True):
            result = run_sweep(config, keep_rows=keep_rows)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert load_rows(out) == result.rows
        assert len(result.rows) == 3000

    def test_writing_outputs_with_no_streamed_csv_writes_nothing(self, tmp_path):
        # a sweep with no output streamed no CSV: no JSON may be left without one
        result = run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4,)))
        part = tmp_path / "rows.csv.tmp"
        with pytest.raises(ValueError, match=re.escape(str(part))):
            result.write_outputs(tmp_path / "rows.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", ["", ".", "taken.csv"])
    def test_an_output_that_is_a_directory_is_refused_before_anything_runs(
        self, output, tmp_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran a trial")

        monkeypatch.setattr(experiments, experiments.MATCHERS["sort_scan"], never)
        monkeypatch.setattr(experiments, "_seed_pairs", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken.csv").mkdir()
        config = SweepConfig(algorithm="sort_scan", n_values=(4, 8), output=output)
        with pytest.raises(ValueError, match="is a directory"):
            run_sweep(config)
        assert list(tmp_path.iterdir()) == [tmp_path / "taken.csv"]
        assert list((tmp_path / "taken.csv").iterdir()) == []

    @pytest.mark.parametrize("output", ["rows.csv", "rows"])
    def test_an_output_whose_json_is_a_directory_is_refused_before_anything_runs(
        self, output, tmp_path, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran a trial")

        monkeypatch.setattr(experiments, experiments.MATCHERS["sort_scan"], never)
        monkeypatch.setattr(experiments, "_seed_pairs", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rows.json").mkdir()
        config = SweepConfig(algorithm="sort_scan", n_values=(4, 8), output=output)
        with pytest.raises(ValueError, match="'rows.json' is a directory"):
            run_sweep(config)
        assert list(tmp_path.iterdir()) == [tmp_path / "rows.json"]
        assert list((tmp_path / "rows.json").iterdir()) == []

    def test_a_failed_move_of_the_csv_leaves_no_json(self, tmp_path):
        # the CSV path became a directory after the sweep checked it
        out = tmp_path / "rows.csv"
        result = run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4,), output=str(out)))
        out.unlink()
        out.with_suffix(".json").unlink()
        Path(f"{out}.tmp").write_text("a streamed CSV")
        out.mkdir()
        with pytest.raises(OSError):
            result.write_outputs(out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "rows.csv.tmp"]

    def test_a_raising_sweep_leaves_no_file(self, tmp_path, monkeypatch):
        # the n=16 row reaches the temporary CSV; n=2048 needs 2^22 amplitudes
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", 1)
        out = tmp_path / "rows.csv"
        seen = []
        record_generation(
            monkeypatch, lambda n, seed: seen.append((n, (tmp_path / "rows.csv.tmp").exists()))
        )
        config = SweepConfig(
            algorithm="naive_grover", n_values=(16, 2048), engine="statevector", output=str(out)
        )
        with pytest.raises(ResourceLimitError, match="n=2048, trial=0"):
            run_sweep(config)
        assert seen == [(16, True), (2048, True)]
        assert list(tmp_path.iterdir()) == []

    def test_a_raising_sweep_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        # "kept" was there before the sweep; it made "kept/new" and "kept/new/sub"
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        (tmp_path / "kept").mkdir()
        config = SweepConfig(
            algorithm="naive_grover", n_values=(16, 2048), engine="statevector",
            output=str(tmp_path / "kept" / "new" / "sub" / "rows.csv"),
        )
        with pytest.raises(ResourceLimitError):
            run_sweep(config)
        assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_a_raising_sweep_keeps_a_directory_something_else_wrote_to(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        record_generation(
            monkeypatch,
            lambda n, seed: (tmp_path / "new" / "other.txt").write_text("not the sweep's"),
        )
        config = SweepConfig(
            algorithm="naive_grover", n_values=(16, 2048), engine="statevector",
            output=str(tmp_path / "new" / "sub" / "rows.csv"),
        )
        with pytest.raises(ResourceLimitError):
            run_sweep(config)
        left = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*"))
        assert left == ["new", "new/other.txt"]


class TestRunMatcher:
    def test_looks_up_patched_entry_points(self, monkeypatch):
        calls = []
        original = experiments.classical_sort_scan

        def wrapped(instance, *args):
            calls.append(instance.n)
            return original(instance, *args)

        monkeypatch.setattr(experiments, "classical_sort_scan", wrapped)
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(16, 32)))
        assert calls == [16, 32]

    def test_every_algorithm_runs(self):
        instance = generate_instance(16, 3)
        for algorithm in experiments.ALGORITHMS:
            report = run_matcher(algorithm, instance, NestedConfig(rng_seed=1))
            assert report.engine_stats["algorithm"] == algorithm


class TestFitExponent:
    def test_exact_linear_law(self):
        points = [(n, 7.0 * n) for n in (16, 64, 256, 1024)]
        fit = fit_exponent(points)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_exact_three_quarters_law_with_log_factor(self):
        points = [(n, n**0.75 * math.log2(n)) for n in (16, 64, 256, 1024, 4096)]
        fit = fit_exponent(points, log_normalize=True)
        assert fit.slope == pytest.approx(0.75, abs=1e-12)

    def test_log_factor_inflates_unnormalized_slope(self):
        points = [(n, n**0.75 * math.log2(n)) for n in (16, 64, 256, 1024, 4096)]
        raw = fit_exponent(points, log_normalize=False)
        assert raw.slope > 0.80

    def test_recovers_planted_exponent(self):
        for exponent in (0.5, 1.0, 1.37, 2.0):
            points = [(n, 3.0 * n**exponent) for n in (16, 64, 256, 1024)]
            fit = fit_exponent(points)
            assert fit.slope == pytest.approx(exponent, abs=1e-9)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([(16, 100.0), (64, 400.0)])
        with pytest.raises(ValueError):
            fit_exponent([(16, 100.0), (16, 110.0), (16, 90.0)])

    @staticmethod
    def rows_costing(algorithm, costs_by_n):
        """One row a cost, each cost all list1 queries, in the given order."""
        return [
            experiments.TrialRow(algorithm, n, trial, 0, 1, cost, cost, 0, 0, 0, 0, 1.0)
            for n, costs in costs_by_n.items()
            for trial, cost in enumerate(costs)
        ]

    def test_geomean_costs(self):
        rows = self.rows_costing("nested", {64: [4, 16], 16: [3]})
        assert geomean_costs(rows) == {16: pytest.approx(3.0), 64: pytest.approx(8.0)}
        assert list(geomean_costs(rows)) == [16, 64]  # n ascending
        with pytest.raises(ValueError, match="no rows to group"):
            geomean_costs([])
        mixed = rows + self.rows_costing("sort_scan", {16: [5]})
        with pytest.raises(ValueError, match="rows mix algorithms"):
            geomean_costs(mixed)

    def test_float_sums_run_left_to_right(self):
        # sum compensates floats from Python 3.12 (here, as fsum, 1.0 and
        # ...141e+37); the outputs keep the left-to-right sums of 3.11
        assert float_sum([1e16, 1.0, -1e16]) == 0.0 != math.fsum([1e16, 1.0, -1e16])
        assert float_sum([]) == 0.0 and type(float_sum([])) is float
        costs = [3428111516103001, 59, 77, 4]
        logs = [math.log(cost) for cost in costs]
        left_to_right = math.exp((((logs[0] + logs[1]) + logs[2]) + logs[3]) / 4)
        rows = self.rows_costing("nested", {16: costs})
        assert geomean_costs(rows) == {16: left_to_right} == {16: 88841.20025682554}
        assert math.exp(math.fsum(logs) / 4) != left_to_right

    def test_a_fit_sums_left_to_right(self, monkeypatch):
        points = [(16, 35.2), (64, 226.1), (256, 582.2), (1024, 2985.7), (4096, 10707.6)]
        fit = fit_exponent(points)
        assert (fit.slope, fit.stderr) == (1.0110362164187725, 0.05057777535796132)
        monkeypatch.setattr(experiments, "float_sum", math.fsum)
        assert fit_exponent(points).slope == 1.0110362164187723


class TestCompareReport:
    def _sweep(self, algo, sizes, trials=1):
        return run_sweep(SweepConfig(algorithm=algo, n_values=sizes, trials_per_n=trials))

    def test_identical_inputs_give_unit_ratio(self):
        a = self._sweep("sort_scan", (16, 64))
        b = self._sweep("sort_scan", (16, 64))
        table = compare_report([a.rows, b.rows])
        for n in (16, 64):
            assert table.costs[table.labels[0]][n] == table.costs[table.labels[1]][n]
        assert table.labels[1].startswith("sort_scan#")

    def test_mismatched_grids_rejected(self):
        a = self._sweep("sort_scan", (16, 64))
        b = self._sweep("nested", (16, 256))
        with pytest.raises(ValueError):
            compare_report([a.rows, b.rows])
        with pytest.raises(ValueError):
            compare_report([a.rows])

    def test_amplified_beats_exhaustive(self):
        a = self._sweep("exhaustive", (64, 256))
        b = self._sweep("naive_grover", (64, 256))
        table = compare_report([a.rows, b.rows])
        for n in (64, 256):
            assert table.costs["naive_grover"][n] < table.costs["exhaustive"][n]

    def test_crossover_reported(self):
        a = self._sweep("sort_scan", (16, 64, 256))
        b = self._sweep("nested", (16, 64, 256))
        table = compare_report([a.rows, b.rows])
        assert table.crossover_n == 16
        assert "nested beats sort_scan" in table.to_text()

    def test_csv_rendering_has_all_columns(self):
        a = self._sweep("sort_scan", (16, 64))
        b = self._sweep("nested", (16, 64))
        table = compare_report([a.rows, b.rows])
        lines = table.to_csv_text().splitlines()
        assert lines[0] == "n,sort_scan,nested"
        assert len(lines) == 3


NESTED_STATS = ("outer_fire_pattern", "inner_verified")


class TestCli:
    def test_the_installed_command_runs_the_cli_main(self):
        # CI's smoke step runs the installed match-sim; this checks the script it installs
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"match-sim": "matchsim.cli:main"}
        module, attr = scripts["match-sim"].split(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_run_prints_report(self, capsys):
        code = main(["run", "--algorithm", "nested", "--n", "256", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["algorithm"] == "nested"
        assert doc["ledger"]["total_cost"] > 0

    def test_run_with_noise_and_engine_flags(self, capsys):
        code = main(
            [
                "run", "--algorithm", "nested", "--n", "256", "--seed", "2",
                "--noise", "inv_n", "--engine", "analytic", "--uncompute", "2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # noisy runs stay on the requested engine; auto and analytic run
        # the reduced engine
        assert doc["engine_stats"]["engine_outer"] == "analytic"
        assert len(doc["engine_stats"]["outer_fire_pattern"]) == 3

    def test_run_with_noise_on_statevector_engine(self, capsys):
        code = main(
            [
                "run", "--algorithm", "nested", "--n", "256", "--seed", "2",
                "--noise", "inv_n", "--engine", "statevector",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine_stats"]["engine_outer"] == "statevector"
        assert doc["engine_stats"]["engine_inner"] == "statevector"

    @pytest.mark.parametrize(
        "argv,same_stats",
        [
            (["nested", "--n", "64", "--noise", "inv_sqrt_n"], NESTED_STATS),
            # the last of the 13 blocks holds 4 cells
            (["nested", "--n", "64", "--noise", "inv_sqrt_n", "--block-size", "5"], NESTED_STATS),
            # one search over the 1024 pairs
            (["naive_grover", "--n", "32"], ("iterations",)),
        ],
        ids=["nested", "nested-block-size-5", "naive_grover"],
    )
    def test_engines_agree(self, argv, same_stats, capsys):
        # one seed, both engines: the same outcome and ledger (the marked mass
        # may differ in its last bit)
        docs = []
        for engine in ("statevector", "analytic"):
            assert main(["run", "--algorithm", *argv, "--engine", engine]) == 0
            docs.append(json.loads(capsys.readouterr().out))
            assert engine in docs[-1]["engine_stats"].values()
        sv, an = docs
        assert sv["found"] == an["found"] and sv["ledger"] == an["ledger"]
        for key in same_stats:
            assert sv["engine_stats"][key] == an["engine_stats"][key], key

    def test_sweep_writes_requested_outputs(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        config = {
            "algorithm": "sort_scan",
            "n_values": [16, 64],
            "trials_per_n": 2,
            "output": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert out.exists()
        assert (tmp_path / "rows.json").exists()

    def test_sweep_writes_outputs_once(self, tmp_path, capsys, monkeypatch):
        writes = []
        original = SweepResult.write_outputs

        def counted(self, csv_path):
            writes.append(csv_path)
            return original(self, csv_path)

        monkeypatch.setattr(SweepResult, "write_outputs", counted)
        out = tmp_path / "rows.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"algorithm": "sort_scan", "n_values": [16], "output": str(out)})
        )
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert writes == [str(out)]
        assert capsys.readouterr().out == f"wrote {out} and {tmp_path / 'rows.json'}\n"

    def test_sweep_without_output_prints_aggregate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "exhaustive", "n_values": [4]}))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"]["per_n"][0]["geomean_cost"] == 32.0

    def test_fit_command(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "algorithm": "nested",
                    "n_values": [16, 64, 256, 1024],
                    "output": str(out),
                }
            )
        )
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["fit", "--input", str(out), "--log-normalize"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.6 < doc["slope"] < 0.9

    def test_compare_command(self, tmp_path, capsys):
        paths = []
        for algo in ("sort_scan", "nested"):
            out = tmp_path / f"{algo}.csv"
            cfg = tmp_path / f"{algo}.json"
            cfg.write_text(
                json.dumps(
                    {"algorithm": algo, "n_values": [16, 64], "output": str(out)}
                )
            )
            assert main(["sweep", "--config", str(cfg)]) == 0
            paths.append(str(out))
        capsys.readouterr()
        table_csv = tmp_path / "table.csv"
        assert main(["compare", *paths, "--output", str(table_csv)]) == 0
        text = capsys.readouterr().out
        assert "sort_scan" in text and "nested" in text
        assert table_csv.read_text().splitlines()[0] == "n,sort_scan,nested"

    def test_missing_config_is_exit_two(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "nope", "n_values": [4]}))
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_wrongly_typed_config_is_exit_two(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_json_output_is_exit_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out" / "rows.json"
        cfg.write_text(json.dumps({"algorithm": "sort_scan", "n_values": [4], "output": str(out)}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == [cfg]

    def test_malformed_json_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_resource_limit_is_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "64")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "naive_grover",
                    "n_values": [16],
                    "engine": "statevector",
                }
            )
        )
        assert main(["sweep", "--config", str(cfg)]) == 3

    def test_resource_limit_leaves_no_output_directory(self, tmp_path, capsys, monkeypatch):
        # the CI smoke run's nested-directory config, with a relative output path
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        monkeypatch.chdir(tmp_path)
        doc = {
            "algorithm": "naive_grover", "n_values": [16, 2048], "engine": "statevector",
            "output": "newdir/sub/rows.csv",
        }
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["sweep", "--config", "cfg.json"]) == 3
        assert "n=2048, trial=0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("fields", [3, 13], ids=["short_row", "long_row"])
    def test_malformed_csv_row_is_exit_two(self, command, fields, tmp_path, capsys):
        good = tmp_path / "good.csv"
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4, 8, 16), output=str(good)))
        header, first, *rest = good.read_text().splitlines()
        row = (first.split(",") + ["0"])[:fields]  # 13: one field too many
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, ",".join(row), *rest]) + "\n")
        argv = {"fit": ["fit", "--input", str(bad)], "compare": ["compare", str(good), str(bad)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}, line 2: ")

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("case", IMPOSSIBLE_ROWS.values(), ids=IMPOSSIBLE_ROWS.keys())
    def test_impossible_csv_row_is_exit_two(self, command, case, tmp_path, capsys):
        edit, message = case
        good = tmp_path / "good.csv"
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4, 8, 16), output=str(good)))
        header, first, *rest = good.read_text().splitlines()
        rec = dict(zip(CSV_COLUMNS, first.split(",")))
        edit(rec)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, ",".join(rec.values()), *rest]) + "\n")
        argv = {"fit": ["fit", "--input", str(bad)], "compare": ["compare", str(good), str(bad)]}
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line 2: ")
        assert message in err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("second_seed", [11, 12], ids=["rows_appended", "two_sweeps"])
    def test_repeated_trial_is_exit_two(self, command, second_seed, tmp_path, capsys):
        def sweep_lines(base_seed):
            out = tmp_path / f"seed{base_seed}.csv"
            config = SweepConfig(
                algorithm="nested", n_values=(16, 64, 256), trials_per_n=3,
                base_seed=base_seed, output=str(out),
            )
            run_sweep(config)
            return out.read_text().splitlines()

        good = tmp_path / "seed11.csv"
        header, *rows = sweep_lines(11)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, *rows, *sweep_lines(second_seed)[1:]]) + "\n")
        argv = {"fit": ["fit", "--input", str(bad)], "compare": ["compare", str(good), str(bad)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err == f"error: {bad}, line 11: a second row for n=16, trial=0\n"

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_header_only_csv_is_exit_two(self, command, tmp_path, capsys):
        good = tmp_path / "good.csv"
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4, 8, 16), output=str(good)))
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        argv = {"fit": ["fit", "--input", str(empty)], "compare": ["compare", str(good), str(empty)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err == f"error: {empty} has no rows\n"

    def test_run_over_size_cap_is_exit_three(self, monkeypatch, capsys):
        # refused before any value is drawn, so nothing is allocated
        monkeypatch.setattr(model, "seeded_rng", _never_drawn)
        assert main(["run", "--algorithm", "sort_scan", "--n", "1000000000"]) == 3
        assert str(MAX_INSTANCE_SIZE) in capsys.readouterr().err

    def test_sweep_over_size_cap_is_exit_three(self, tmp_path, monkeypatch, capsys):
        # refused when the config is built, before any seed is derived
        monkeypatch.setattr(experiments, "_seed_pairs", _never_drawn)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "nested", "n_values": [MAX_INSTANCE_SIZE + 1]}))
        assert main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {_OVER_CAP}\n"

    def test_an_unhashed_noisy_sweep_over_size_cap_is_refused_before_it_is_planned(
        self, tmp_path, monkeypatch, capsys
    ):
        # one trial's two seeds would not be hashed, and the sweep would draw its stream itself
        def never(*args):
            raise AssertionError("derived, hashed or planned an over-cap size")

        monkeypatch.setattr(experiments, "_seed_pairs", never)
        monkeypatch.setattr(experiments, "seed_words", never)
        monkeypatch.setattr(experiments, "run_stream_length", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithm": "nested", "n_values": [MAX_INSTANCE_SIZE + 1],
            "noise_preset": "inv_sqrt_n", "output": str(tmp_path / "out" / "rows.csv"),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {_OVER_CAP}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @staticmethod
    def sweep_in_a_subprocess(doc, tmp_path):
        doc = {**doc, "output": str(tmp_path / "rows.csv")}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        src = str(Path(model.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "matchsim.cli", "sweep", "--config", str(tmp_path / "cfg.json")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10,
        )

    @pytest.mark.parametrize("trials", [4, 64])
    def test_a_far_over_cap_size_is_refused_before_it_is_planned(self, trials, tmp_path):
        # planning n = 10^30 would run its noisy outer rounds one by one; the size is
        # over the size cap, so the config is refused before anything runs
        doc = {
            "algorithm": "nested", "n_values": [16, 10**30], "trials_per_n": trials,
            "noise_preset": "inv_n",
        }
        out = self.sweep_in_a_subprocess(doc, tmp_path)
        assert out.returncode == 3
        assert out.stderr.startswith(f"error: instance size {10**30} exceeds the cap ")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_endless_trials_are_refused_before_anything_is_drawn(self, tmp_path):
        out = self.sweep_in_a_subprocess(
            {"algorithm": "nested", "n_values": [16], "trials_per_n": 10**30}, tmp_path
        )
        assert out.returncode == 3
        work = 10**30 * (2 * 16 + model.TRIAL_WORK)
        assert out.stderr.startswith(f"error: sweep work {work} ")
        assert str(model.MAX_SWEEP_WORK) in out.stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_a_statevector_sweep_of_hours_is_refused_before_anything_is_drawn(self, tmp_path):
        # a trial steps 2^20 amplitudes for 805 rounds in about 1 s: these would take 3180 h
        doc = {
            "algorithm": "naive_grover", "n_values": [1024], "engine": "statevector",
            "trials_per_n": 11184810,
        }
        out = self.sweep_in_a_subprocess(doc, tmp_path)
        assert out.returncode == 3
        assert out.stderr.startswith("error: sweep work ")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_a_cost_beyond_the_float_range_is_exit_two_and_writes_nothing(self, tmp_path, capsys):
        doc = {"algorithm": "naive_grover", "n_values": [4], "uncompute_factor": 10**400}
        doc["output"] = str(tmp_path / "rows.csv")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith("error: geometric-mean cost e^")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_a_csv_cost_beyond_the_float_range_is_exit_two(self, command, tmp_path, capsys):
        big = str(10**400)
        row = ["sort_scan", "4", "0", "1", "1", big, big, "0", "0", "0", "4", "1.0"]
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        argv = {"fit": ["fit", "--input", str(rows)], "compare": ["compare", str(rows), str(rows)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err.startswith("error: geometric-mean cost e^")

    def test_compare_with_single_input_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"algorithm": "sort_scan", "n_values": [16], "output": str(out)})
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["compare", str(out)]) == 2
