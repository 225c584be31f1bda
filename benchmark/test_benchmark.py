"""Smoke test of the benchmark at tiny sizes: metrics, determinism, checker."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import pipeline
from minpower.instances import GeneratorSpec

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _rgg(n, kappa, seed, complete=True):
    return GeneratorSpec("random-geometric", n, kappa=kappa, seed=seed, complete=complete)


# the families and flags of each workload, at sizes that solve in milliseconds
TINY_CORPUS = tuple(_rgg(n, kappa, seed) for seed, (n, kappa) in enumerate([(5, 1.0), (6, 2.0), (7, 4.0)]))
TINY = {
    "greedy-large": (
        GeneratorSpec("line", 4, epsilon=2.0**-7),
        _rgg(12, 2.0, 0),
        _rgg(12, 2.0, 1, complete=False),
    ),
    "oracle-sweep": TINY_CORPUS,
    "lp-mid": TINY_CORPUS,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, instances in TINY.items():
        monkeypatch.setitem(
            pipeline.WORKLOADS, name, dataclasses.replace(pipeline.WORKLOADS[name], instances=instances)
        )
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)


def _run(capsys, workload, seed, trace):
    code = harness.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = _run(capsys, workload, 3, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_identical_counters_and_digest(tiny, capsys, workload):
    def evidence():
        _, lines, _ = _run(capsys, workload, 7, 1)
        # drop the wall-clock field; digests and exact counters must repeat
        return [
            [tok for tok in line.split() if not tok.startswith("wall_s=")]
            for line in lines
            if line.startswith(("pass ", "digest ", "counters "))
        ]

    first = evidence()
    assert first and evidence() == first


def test_checker_counts_a_tampered_greedy_total_as_failed():
    rec = pipeline.solve_instance(_rgg(6, 2.0, 1), exact=True, lp=True)
    assert pipeline.check(rec) == []
    # below opt, above 1.85 opt, above 2 c(MST)
    for factor in (0.5, 1.9, 3.0):
        assert pipeline.check(dataclasses.replace(rec, greedy_power=rec.greedy_power * factor))
    line = pipeline.solve_instance(GeneratorSpec("line", 4, epsilon=2.0**-7), exact=False, lp=False)
    assert pipeline.check(line) == []
    assert pipeline.check(dataclasses.replace(line, mst_power=line.mst_power + 1e-12))


def test_tampered_result_fails_the_run(tiny, capsys, monkeypatch):
    solve = pipeline.solve_instance
    warmup = pipeline.WORKLOADS["lp-mid"].warmup

    def tampered(spec, exact, lp):
        rec = solve(spec, exact, lp)
        return rec if spec is warmup else dataclasses.replace(rec, greedy_power=rec.greedy_power * 0.5)

    monkeypatch.setattr(pipeline, "solve_instance", tampered)
    code, _, result = _run(capsys, "lp-mid", 1, 0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(TINY_CORPUS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "lp-mid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
