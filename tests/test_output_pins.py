"""The scientific output, pinned: every benchmark workload and the variants
beside it, by sha256 and summed total cost.

The digests were recorded before the nested matcher's final pass stopped
sorting its measured block, so a later change to how output is made must
leave them as they are.  A change that means to move the output updates
a digest here and says why in CHANGES.md.

The workloads are read from ``perfbench/workloads.py``, so a workload is
unpinned, and fails here, until its digests are added.

What ``match-sim fit`` and ``match-sim compare`` print for CSVs written by
those sweeps is pinned too; those digests were recorded before fit and
compare stopped rebuilding a sweep config from the rows they load.
"""

import dataclasses
import hashlib
import json

import pytest

from matchsim.cli import main
from matchsim.experiments import SweepConfig, run_sweep
from matchsim.grover import NoisyOracleSpec
from matchsim.matchers import NestedConfig, nested_grover_match
from matchsim.model import generate_instance
from test_benchmark_hooks import load_perfbench

WORKLOADS = load_perfbench("workloads")
SEEDS = (11, 37)


def sha256(texts):
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


def sweep_output(configs):
    """(CSV sha256, JSON sha256, summed total_cost) of sweeps run in order."""
    results = [run_sweep(dataclasses.replace(config, output=None)) for config in configs]
    return (
        sha256(result.to_csv_text() for result in results),
        sha256(result.to_json_text() for result in results),
        sum(row.total_cost for result in results for row in result.rows),
    )


# (workload, seed) -> output; a one-config workload's CSV digest is its
# CSV file's: noisy_small_batch at seed 11 hashes to c62d5268...
WORKLOAD_PINS = {
    ("amplified_statevector", 11): (
        "bde5c23f189a8acdb5dc3401a8faa18a93a23b6e910c602570f8654df3352ce1",
        "6f88b284a3b6f1d6fb486fbcb28a506eb226b6cb282b1ccd790529473b57a2e3",
        1287123,
    ),
    ("amplified_statevector", 37): (
        "5f7b0387fba6d2d599209abab42b0ee1476f87966c991ffe02e69c73582e7cab",
        "8d1febc6892b9e4a4430f4356a8030d6f7fd04752ee214b23cf212851ef09669",
        1287123,
    ),
    ("classical_sort", 11): (
        "2b3cee61fb95e5ab1381be0e5477407a8878333cf16a5d901bfa0e7b340a68cd",
        "d87ce4570117c9a656b11dbb031658473cab399150013945540548bb2e6f8049",
        18241180,
    ),
    ("classical_sort", 37): (
        "fdebbfbd775d94fd42dabe0da75cf504720c544940c6cdba8476537228f33a2b",
        "91f0865f89b6a34729415f74af525913c712358d507489ba0bcf12fa24f2ccbf",
        18334780,
    ),
    ("noisy_small_batch", 11): (
        "c62d526876a0b77523847c4585064a98a535676e5ff8b0eb0edf0e50222b8fec",
        "7b0528cf62b5f1b3ae0bdc68d475ef83afe90b6b35c213caf0ca5549bf6bde8e",
        3289246,
    ),
    ("noisy_small_batch", 37): (
        "19478457d7fa550bf103cb32bbd016d13b390c0292d2a64c9c03f822b5469f57",
        "7cf150e9ffff3023d0b62bc1e8e29cdd63c0b8125bf07604022b2456c5f83825",
        3289212,
    ),
}

# each variant at both seeds, keyed (name, seed)
VARIANTS = {
    "nested_statevector_noisy": dict(
        algorithm="nested", n_values=(16, 64, 100), trials_per_n=4,
        engine="statevector", noise_preset="inv_sqrt_n",
    ),
    "nested_u3": dict(
        algorithm="nested", n_values=(16, 17, 256), trials_per_n=4,
        uncompute_factor=3, noise_preset="inv_n",
    ),
    "naive_grover_statevector": dict(
        algorithm="naive_grover", n_values=(4, 16, 32), trials_per_n=3, engine="statevector",
    ),
    "exhaustive": dict(algorithm="exhaustive", n_values=(2, 3, 16, 64), trials_per_n=3),
}

VARIANT_PINS = {
    ("exhaustive", 11): (
        "e061217b9e7c2cd9b51918fa7e449e8c720cf2c1f6edba0eec193e67a78fa796",
        "6e50f190bd8e3a70d139b9d55260b4de68e85d5b125821ebdaf5cc2f172ec6ea",
        26190,
    ),
    ("exhaustive", 37): (
        "180cc477dbbfc40ad14ed916cc5acefa846d9ca30f65b74465ada5b5d957eb6b",
        "6daa426112c295ff38c9a4c04587396afea9cf51be1ae3a07addecb50169f55c",
        26190,
    ),
    ("naive_grover_statevector", 11): (
        "1de0c389ee9bed930a100a8da073e189f36c8772cb44b9e34714b5a494cf2bb7",
        "98049791a0e511487ccab3a9aaa68853611ea9f00dcd12a40655a6473655105d",
        480,
    ),
    ("naive_grover_statevector", 37): (
        "eed0c5cdc139ba5bcea50fd1a5a40075492628f1570f12e275e98f3f2470db76",
        "94344be6f2617c600b935132a0fd71db6adfbd207d3e511272c07dcf32a57c1b",
        480,
    ),
    ("nested_statevector_noisy", 11): (
        "0199019dbcbfc3d2061735dd1fcba3c4966d77d767c5cf6f993edd254c343f5c",
        "cf347433f0e4c5dc66f58c1c6d2368b7e586363ff9b0523cdf51cd5eea21739a",
        9060,
    ),
    ("nested_statevector_noisy", 37): (
        "fdf850057cf9b966f8bfcf0dd4ea7811eadeb5409cd37eb87b38ad4713b6f1a1",
        "da8fdf33450f985a6e06cf83ebf27c5a4aabc14d9a4b7cc942713ee3065e32d0",
        9058,
    ),
    ('nested_u3', 11): (
        "56e03cc2f10a54a54ffb26b846e1f7d327d5521a63cec6d9a1868f8b95d04676",
        "bd1ebfe66b7375c38ab7be00e4d448f741985166936c17434b13a4a4047fb105",
        19824,
    ),
    ('nested_u3', 37): (
        "b4b88b018c00cc88aa117b3deb361c8a0d0a22a23caf197fddd5d6f359a10c1c",
        "438e7d9c434f7d524f9054d1abc15afcc558781cd24afcacee8ac5acad919a1e",
        19822,
    ),
}

# nested at block size 5, whose last block is ragged at every n here:
# the reports over seeds 0-4, with and without dropout
BLOCK_SIZE_5_SIZES = (17, 64, 101)
BLOCK_SIZE_5_PIN = "6fc1680868cdbb6c173ba4ca3bf4e1084a6383091894e361a2fba35fbcb3840a"

# match-sim run argv -> sha256 of what it prints
RUN_PINS = {
    "--algorithm nested --n 64": (
        "e0f25714fb8eeee0686c63e1d9ec4862fbf87fedf7c722ff1013ec855c582111"
    ),
    "--algorithm nested --n 64 --noise inv_sqrt_n --engine statevector --block-size 5": (
        "ea24a86776bd28ca3b85acc65f12a0b6673c0d6aa3452f40fb7627c1a9814aef"
    ),
    "--algorithm nested --n 64 --noise inv_sqrt_n --engine analytic --block-size 5": (
        "9b0b2f6902c7180af86acd1bf681b88db576add46c263e5dfeec4be3ea4526c5"
    ),
    "--algorithm naive_grover --n 16 --engine statevector --uncompute 3": (
        "2e5ccdb8c5c19fd7547e6a5521070544a5d7382041a0ad68143344d0c42dcfea"
    ),
}


# the CSVs fit and compare read are written by sweeps pinned above, at
# seed 11: a variant by name, or "<workload>:<index of its config>"

# (CSV, --log-normalize) -> sha256 of what match-sim fit prints
FIT_PINS = {
    ("exhaustive", False): (
        "b9b53bba4e677bff7c9ee46e72a9cad4dbf323f5756712afc668bf35b9fa398d"
    ),
    ("exhaustive", True): (
        "49e0397ba99a4d503fb5f86b7d13493b70a09046579d2a91f2da2696156f9d97"
    ),
    ("naive_grover_statevector", False): (
        "ea2e5af53837dd575b4ed4bfc282d80baa6ebdee21b868ecdf20ce1544d9c3d9"
    ),
    ("naive_grover_statevector", True): (
        "df48e638bb8732730bfd03cb31f68117b37765fa988a07068065e19c9b88e4c4"
    ),
    ("nested_statevector_noisy", False): (
        "e57b195a1007c80dcb4b2468431a1c6bd37563a538f8f32d9e0d27c50f24bee7"
    ),
    ("nested_statevector_noisy", True): (
        "94aae001e2d6dd5977094c9aa60d0e89762fe1161ef2af2a46df13cb2416193c"
    ),
    ("nested_u3", False): (
        "8d91eef9544af0f8832643914fd2df65a4fb656acec220eef072351fc23d4b5e"
    ),
    ("nested_u3", True): (
        "6a8a47e4f9eabc39a44fd3bc3a04d5ff274484af566658f84ede18eaf0d5c97a"
    ),
    ("noisy_small_batch:0", False): (
        "6a6c6032c5249036715bb63adc6400df07e77e6c1876029ad695c86378dadb36"
    ),
    ("noisy_small_batch:0", True): (
        "9221cde0247e8aa8b8f4cd094b462feba1baa042ba7054af8eb72cfd24fbad64"
    ),
}

# CSVs -> sha256 of what match-sim compare prints and of the CSV its --output
# writes; the noisy CSV given twice is labelled nested and nested#2
COMPARE_PINS = {
    ("noisy_small_batch:0", "noisy_small_batch:0"): (
        "9faa9d22bfd1bda7081d5b6fe2caf9fc67c30a4a80472996ab5f2ad21f5c0f78",
        "d8063a9067263f063d9d7eace60e0e75a155069c4713e27cffb3e752ed183ddc",
    ),
    ("classical_sort:0", "classical_sort:1"): (
        "7d402bd7d796f841987c841bf3023742ee2caaa90dcaa85d1ce5bb7e15648458",
        "b972ce66d31917972e8fe699d6391cf5eee2a1bebb16227527c9250d9282cc98",
    ),
}


def pinned_csv(name, tmp_path):
    """Write the CSV of a sweep pinned above, at seed 11, and return its path."""
    if name in VARIANTS:
        config = SweepConfig(base_seed=11, **VARIANTS[name])
    else:
        workload, index = name.split(":")
        configs = WORKLOADS.build_configs(WORKLOADS.WORKLOADS[workload], 11, str(tmp_path))
        config = configs[int(index)]
    path = tmp_path / f"{name.replace(':', '-')}.csv"
    run_sweep(dataclasses.replace(config, output=str(path)))
    return str(path)


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_output_pinned(name, seed, tmp_path):
    configs = WORKLOADS.build_configs(WORKLOADS.WORKLOADS[name], seed, str(tmp_path))
    assert sweep_output(configs) == WORKLOAD_PINS[name, seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_output_pinned(name, seed):
    config = SweepConfig(base_seed=seed, **VARIANTS[name])
    assert sweep_output([config]) == VARIANT_PINS[name, seed]


def test_nested_at_block_size_5_pinned():
    texts = []
    for n in BLOCK_SIZE_5_SIZES:
        for seed in range(5):
            for noise in (None, NoisyOracleSpec(0.25)):
                config = NestedConfig(block_size=5, noise=noise, rng_seed=seed)
                report = nested_grover_match(generate_instance(n, seed), config)
                texts.append(json.dumps(report.as_dict(), sort_keys=True) + "\n")
    assert sha256(texts) == BLOCK_SIZE_5_PIN


@pytest.mark.parametrize("argv", sorted(RUN_PINS))
def test_run_report_pinned(argv, capsys):
    assert main(["run", *argv.split()]) == 0
    assert sha256([capsys.readouterr().out]) == RUN_PINS[argv]


@pytest.mark.parametrize("name,log_normalize", sorted(FIT_PINS))
def test_fit_pinned(name, log_normalize, tmp_path, capsys):
    argv = ["fit", "--input", pinned_csv(name, tmp_path)]
    assert main(argv + ["--log-normalize"] * log_normalize) == 0
    assert sha256([capsys.readouterr().out]) == FIT_PINS[name, log_normalize]


@pytest.mark.parametrize("names", sorted(COMPARE_PINS))
def test_compare_pinned(names, tmp_path, capsys):
    paths = [pinned_csv(name, tmp_path) for name in names]
    table = tmp_path / "table.csv"
    assert main(["compare", *paths, "--output", str(table)]) == 0
    printed = sha256([capsys.readouterr().out])
    assert (printed, sha256([table.read_text(encoding="utf-8")])) == COMPARE_PINS[names]
