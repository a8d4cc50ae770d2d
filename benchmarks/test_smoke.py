"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from metrics import BY_NAME, GATED, PER_LAYER, UNGATED
from workloads import WORKLOADS, tiny

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_metric(name, trace, capsys, tmp_path):
    r = run.Run(tiny(WORKLOADS[name]), seed=3, seconds=0.05, trace=trace)
    r.execute_all()
    spans = tmp_path / "spans.tsv"
    result = run.report(r, str(spans) if trace else None)
    text = capsys.readouterr().out
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], text
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = PER_LAYER if trace else GATED
    assert list(result["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit and m.better in ("lower", "higher")
        assert got["value"] is not None and math.isfinite(got["value"]), m.name
        if not trace:
            assert got["value"] > 0, m.name
    for m in GATED + UNGATED:
        assert f"# {m.name} = " in text
    if trace:
        for m in PER_LAYER:
            assert f"# {m.name} = " in text
        assert len(spans.read_text().splitlines()) > 1
    assert "# env: " in text and '"blas_threads": 1' in text


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in GATED
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert max(m.bound for m in GATED) == BY_NAME["setup_s"].bound


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bnb-reg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
