"""Tests for sweeps, fits, comparisons, and the command-line front end."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import re

import pytest

from matchsim import experiments, model
from matchsim.cli import main
from matchsim.experiments import (
    CSV_COLUMNS,
    SweepConfig,
    SweepResult,
    compare_report,
    derive_seed,
    fit_exponent,
    geometric_mean,
    load_rows,
    noise_spec,
    run_matcher,
    run_sweep,
)
from matchsim.grover import DEFAULT_STATEVECTOR_CAP, ResourceLimitError, statevector_cap_from_env
from matchsim.matchers import NestedConfig
from matchsim.model import ACCESS_KINDS, MAX_INSTANCE_SIZE, CostLedger, generate_instance


def _never_drawn(*args, **kwargs):
    raise AssertionError("drew values for an over-cap instance")


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

    @pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_from_dict_rejects_wrong_types(self, doc):
        with pytest.raises(ValueError):
            SweepConfig.from_dict(doc)

    def test_rejects_bad_preset_and_engine(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16,), noise_preset="gaussian")
        with pytest.raises(ValueError):
            SweepConfig(algorithm="nested", n_values=(16,), engine="dense")


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
    def test_outputs_pinned(self, config, digest, monkeypatch):
        # digests of the CSV text from the full-statevector engine these
        # sweeps ran on before auto moved to the reduced engine
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        text = run_sweep(config).to_csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_rows_are_immutable(self):
        row = run_sweep(SweepConfig(algorithm="sort_scan", n_values=(4,))).rows[0]
        for name in CSV_COLUMNS:
            with pytest.raises(AttributeError):
                setattr(row, name, 0)

    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_csv_bytes_equal_str_of_every_field(self, algorithm):
        # the writer's own conversion (repr for a float) against str per field
        config = SweepConfig(
            algorithm=algorithm, n_values=(4, 9, 16), trials_per_n=3, noise_preset="inv_n"
        )
        result = run_sweep(config)
        odd = [0.1, 1e-20, 1.0, 2.0 / 3.0, 5e-324, 0.9999999999999999]
        result.rows.extend(row._replace(predicted_success=p) for row, p in zip(result.rows, odd))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([str(getattr(row, column)) for column in CSV_COLUMNS])
        assert result.to_csv_text() == buf.getvalue()

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

    def test_csv_header_schema(self):
        config = SweepConfig(algorithm="exhaustive", n_values=(4,))
        text = run_sweep(config).to_csv_text()
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


class TestSeedWordsInSweeps:
    # trials_per_n on either side of the break-even count of remembered seeds
    @pytest.mark.parametrize(
        "algorithm,noise,trials",
        [
            ("nested", "inv_sqrt_n", 1),
            ("nested", "inv_sqrt_n", 6),
            ("naive_grover", "none", 1),
            ("naive_grover", "none", 5),
            ("sort_scan", "none", 3),
            ("sort_scan", "none", 10),
        ],
    )
    def test_outputs_do_not_depend_on_remembering(
        self, algorithm, noise, trials, tmp_path, monkeypatch
    ):
        out = tmp_path / "rows.csv"
        config = SweepConfig(
            algorithm=algorithm, n_values=(16, 64), trials_per_n=trials, base_seed=5,
            noise_preset=noise, output=str(out),
        )
        drawn = 2 * trials * (2 if algorithm in experiments.AMPLIFIED else 1)
        slow_path = []
        original = model.np.random.default_rng

        def counting(seed):
            slow_path.append(seed)
            return original(seed)

        monkeypatch.setattr(model.np.random, "default_rng", counting)
        outputs = []
        for remembering in (True, False):
            if not remembering:
                monkeypatch.setattr(experiments, "remember_seed_words", lambda seeds: None)
            slow_path.clear()
            run_sweep(config)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
            hits = remembering and drawn >= model.SEED_WORDS_BREAK_EVEN
            assert len(slow_path) == (0 if hits else drawn)
        assert outputs[0] == outputs[1]
        assert outputs[0][0] and outputs[0][1]


class TestRunMatcher:
    def test_looks_up_patched_entry_points(self, monkeypatch):
        calls = []
        original = experiments.classical_sort_scan

        def wrapped(instance, ledger):
            calls.append(instance.n)
            return original(instance, ledger)

        monkeypatch.setattr(experiments, "classical_sort_scan", wrapped)
        run_sweep(SweepConfig(algorithm="sort_scan", n_values=(16, 32)))
        assert calls == [16, 32]

    def test_every_algorithm_runs(self):
        instance = generate_instance(16, 3)
        for algorithm in experiments.ALGORITHMS:
            report = run_matcher(algorithm, instance, NestedConfig(rng_seed=1), CostLedger())
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

    def test_geometric_mean(self):
        assert geometric_mean([4.0, 16.0]) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            geometric_mean([])


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

    def test_run_over_size_cap_is_exit_three(self, monkeypatch, capsys):
        # refused before any value is drawn, so nothing is allocated
        monkeypatch.setattr(model, "seeded_rng", _never_drawn)
        assert main(["run", "--algorithm", "sort_scan", "--n", "1000000000"]) == 3
        assert str(MAX_INSTANCE_SIZE) in capsys.readouterr().err

    def test_sweep_over_size_cap_is_exit_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(model, "seeded_rng", _never_drawn)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "nested", "n_values": [MAX_INSTANCE_SIZE + 1]}))
        assert main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"n={MAX_INSTANCE_SIZE + 1}" in err and str(MAX_INSTANCE_SIZE) in err

    def test_compare_with_single_input_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"algorithm": "sort_scan", "n_values": [16], "output": str(out)})
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["compare", str(out)]) == 2
