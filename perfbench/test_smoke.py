"""Smoke test of the benchmark itself, on 3 s versions of every workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

MODS = run.import_program()
import tracing  # noqa: E402  (needs the paths set by import_program)
import workloads  # noqa: E402

TINY_S = 3.0
NAMES = list(workloads.WORKLOADS)


def _tiny(name: str, trace: int, references=None):
    return run.run_benchmark(MODS, workloads.WORKLOADS[name], 0, 0.01, trace,
                             references or {}, duration_s=TINY_S)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_units()


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_with_units(name):
    result, _, _, _ = _tiny(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {key: m["unit"] for key, m in result["metrics"].items()}
    assert units == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_layers_and_restores_modules(name):
    before = tracing.snapshot(MODS)
    result, _, tracers, _ = _tiny(name, trace=1)
    assert tracing.snapshot(MODS) == before
    assert result["correct"] and result["failed"] == 0
    units = {key: m["unit"] for key, m in result["metrics"].items()}
    assert units == dict(run.layer_units())
    assert tracers and all(t.spans for _, t in tracers[1:])
    value = {key: m["value"] for key, m in result["metrics"].items()}
    intervals = round(TINY_S * 10)
    if workloads.WORKLOADS[name].pgo_mode is None:
        assert value["dataset.rows"] > 0
        assert all(value[key] == 0 for key in value
                   if key.startswith(("pgo.", "preintegration.")))
    else:
        assert value["preintegration.slice_calls"] == intervals
        assert value["pgo.optimize_calls"] >= 1
    assert value["eskf.predict_calls"] == round(TINY_S * 200)


def test_wrong_reference_fails_every_run():
    refs = {"workloads": {"fig8_batch": {"seeds": {"0": {
        "ate_eskf_m": 1.0, "ate_out_m": 1.0}}}}}
    result, runner, _, _ = _tiny("fig8_batch", trace=0, references=refs)
    assert not result["correct"]
    assert runner.failed == runner.attempted >= 1


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fig8_batch"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
