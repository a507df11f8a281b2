"""Self-test of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import TINY

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = run.run_workload(name, run.ROOT, TINY, seed=3, seconds=0, trace=False)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    reported = {key.split(" ")[0] for key, _, _ in result["report"]}
    expected = {
        "scan-all": {"pairs_per_s"},
        "scan-log": {"pairs_per_s", "resume_s", "resume_peak_rss_mb"},
        "lemma-grids": {"instances_per_s"},
        "point-queries": {"call_p50_ms", "call_tail_ms"},
    }[name] | {"wall_s", "work_per_s", "setup_wall_s", "ref_s", "failed_frac"}
    assert reported == expected


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_emitted_and_self_times_sum_to_main(name):
    # A trace whose self times do not add up to the cli.main spans is
    # reported as a failure, so a correct result also checks that sum.
    result = run.run_workload(name, run.ROOT, TINY, seed=3, seconds=0, trace=True)
    assert result["correct"], result["failures"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["absent"] == []
    assert result["metrics"]["cli.main.total_s"]["value"] > 0


def test_doctored_log_byte_is_a_failure(monkeypatch):
    cut_log = workloads.cut_log

    def cut_and_doctor(path, data, position, rng):
        cut, kept = cut_log(path, data, position, rng)
        with open(path, "r+b") as fh:
            record = fh.readline()
            digit = record.index(b'"count_g_at_h":"') + len(b'"count_g_at_h":"')
            fh.seek(digit)
            fh.write(b"7" if record[digit:digit + 1] != b"7" else b"8")
        return cut, kept

    monkeypatch.setattr(workloads, "cut_log", cut_and_doctor)
    result = run.run_workload("scan-log", run.ROOT, TINY, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "resumed log" in result["failures"][0]


def test_wrong_checked_count_is_a_failure():
    (lemma_id, bound, checked), *rest = TINY.grids
    sizes = dataclasses.replace(TINY, grids=((lemma_id, bound, checked + 1), *rest))
    result = run.run_workload("lemma-grids", run.ROOT, sizes, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert f'"checked": {checked}' in result["failures"][0]


def test_without_zsr_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_latency_needs_ten_samples_beyond_it():
    assert run.tail_latency([0.1] * 10) is None
    percentile, value = run.tail_latency([float(i) for i in range(20)])
    assert (percentile, value) == (50.0, 9.0)
