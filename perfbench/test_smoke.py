"""Smoke test of the benchmark harness on tiny versions of its workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that one timed and one traced run emit every metric that
BENCHMARK.json names, with its unit, that the tiny outputs pass their
checks, that the span reduction computes busy and self times as documented,
and that the harness refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted(trace, section):
    proc = run_bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_layer_reduction():
    # cli.main [0, 10] > relax_batch [1, 4] and support_batch [5, 9];
    # support_batch > sublevel_radius [6, 7]; a nested relax_batch [2, 3]
    names = ["cli.main", "critical.relax_batch", "models.support_batch",
             "models.sublevel_radius"]
    trace = {"names": names, "counters": {},
             "name": [0, 1, 1, 2, 3], "start": [0.0, 1.0, 2.0, 5.0, 6.0],
             "end": [10.0, 4.0, 3.0, 9.0, 7.0], "parent": [-1, 0, 1, 0, 3]}
    metrics, spans = tracer.layer_metrics(trace)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["critical.relax_s"] == 3.0          # nested call counted once
    assert metrics["models.support_s"] == 4.0          # union of the two names
    assert metrics["critical.relax_calls"] == 2
    assert metrics["models.sublevel_radius_calls"] == 1
    assert spans["models.support_batch"]["self_s"] == 3.0
    assert metrics["cli.self_s"] == 3.0
    assert metrics["critical.self_s"] == 3.0
    assert metrics["models.self_s"] == 4.0
    assert metrics["measures.lp_build_s"] == 0.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "study_1d", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
