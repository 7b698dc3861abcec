"""The benchmark's own tests, at a tiny input size.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench, workloads
from perfbench.spans import NO_TRACE
from perfbench.workloads import Config

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Config(accesses=3000, apps=("streamcluster", "swaptions"))


def _names(kind):
    return {metric["name"] for metric in SPEC[kind]}


def _child_pids():
    """Pids of this process's live or unreaped children (Linux /proc)."""
    me, pids = str(os.getpid()), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(entry.name)
    return pids


def _run(tmp_path, workload, trace, seed=3):
    return bench.run(workload, seed, 0, trace, config=TINY,
                     work_root=tmp_path)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_with_spec_metrics(tmp_path, workload, trace):
    result = _run(tmp_path, workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == _names(
        "per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    if trace:
        assert result["metrics"]["trace_coverage"]["value"] >= 0.95
    assert not any(tmp_path.iterdir()), "run left its work dir behind"
    if Path("/proc/self/stat").exists():
        assert not _child_pids(), "run left a process behind"


def test_planted_wrong_result_raises_error_rate(tmp_path, monkeypatch):
    calls = []
    real_run_opt = workloads.run_opt

    def planted(*args, **kwargs):
        result = real_run_opt(*args, **kwargs)
        calls.append(result)
        if len(calls) == 1:
            result = replace(result, hits=result.hits + 1,
                             misses=result.misses - 1)
        return result

    monkeypatch.setattr(workloads, "run_opt", planted)
    result = _run(tmp_path, "warm_policy_sweep", False)
    assert len(calls) > 1, "the run stopped at the wrong result"
    assert result["failed"] == 1
    assert not result["correct"]
    assert "wall_s" in result["metrics"]


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads, "run_oracle_study", broken)
    result = _run(tmp_path, "warm_sharing_study", False)
    assert result["failed"] > 0
    assert result["failed"] <= result["attempted"]


def test_seed_changes_the_inputs():
    def digests(seed):
        __, loaded = workloads.load_artifacts(TINY, seed, None, NO_TRACE)
        return [workloads.stream_digest(a.stream) for a in loaded.values()]

    assert digests(1) == digests(1)
    assert all(a != b for a, b in zip(digests(1), digests(2)))


def test_golden_file_covers_default_config():
    data = json.loads(bench.GOLDEN_PATH.read_text())
    assert data["seed"] == bench.GOLDEN_SEED
    assert data["accesses"] == workloads.DEFAULT_CONFIG.accesses
    assert tuple(data["apps"]) == workloads.DEFAULT_CONFIG.apps
    assert set(data["workloads"]) == set(workloads.WORKLOADS)
    assert bench.golden("cold_record", TINY, bench.GOLDEN_SEED) is None


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_record",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
