"""The benchmark against its own contract: names, wrappers, tiny runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_setup_metric_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


def _wrapped_attributes():
    """Every attribute a traced run patches, as (owner, name) pairs."""
    tracer = Tracer()
    layers.install(tracer)
    patched = [(owner, attr) for owner, attr, _, _ in tracer._patches]
    tracer.restore()
    return patched


def test_install_then_restore_leaves_the_original_functions():
    patched = _wrapped_attributes()
    assert len(patched) > 30
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr in patched}
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(
            getattr(getattr(owner, attr), "__wrapped_by_tracer__", False)
            for owner, attr in patched
        )
    finally:
        tracer.restore()
    for owner, attr in patched:
        current = getattr(owner, attr)
        assert current is before[(id(owner), attr)]
        assert not getattr(current, "__wrapped_by_tracer__", False)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


#: Seed 3 puts a chip in the adaptive workload's verdict check whose
#: adaptive-budget verdict (fail) differs from the uniform budget's (pass):
#: the certificate's guard band is a heuristic (see repro.core.budget) and
#: certifies that chip wrongly.  The check reports it as a failed operation.
_VERDICT_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="adaptive certificate keeps a coarse verdict that differs from "
    "the uniform budget on one chip of this population",
)


@pytest.mark.parametrize(
    ("workload", "seed"),
    [
        ("uniform_t1", 3),
        ("adaptive_t2", 1),
        pytest.param("adaptive_t2", 3, marks=_VERDICT_DEFECT),
        ("service_sweep", 3),
    ],
)
def test_tiny_traced_run_is_correct_and_complete(workload, seed):
    done = _run("--workload", workload, "--seed", str(seed), "--seconds",
                "0.5", "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["error_rate"] == 0.0
    assert metrics["engine.shards"] >= 1
    if workload == "service_sweep":
        assert metrics["service.engine_runs"] == metrics["service.tier_miss"]
        assert metrics["store.writes"] == metrics["service.tier_miss"]
    if workload == "adaptive_t2":
        assert metrics["budget.coarse_calls"] >= 1
    written = ROOT / ".perfbench_spans" / f"{workload}-seed{seed}.jsonl"
    records = [json.loads(line) for line in written.read_text().splitlines()]
    assert {"name", "start", "end", "parent", "run", "self_s"} <= set(records[0])
    # Self times partition the root spans.  A service request's daemon
    # thread hangs under its client span and can overlap the client's own
    # spans by a few microseconds, hence the tolerance.
    assert sum(r["self_s"] for r in records) == pytest.approx(
        sum(r["end"] - r["start"] for r in records if r["parent"] is None),
        rel=0.02,
    )


def test_tiny_untraced_run_prints_every_end_to_end_metric():
    done = _run("--workload", "adaptive_t2", "--seed", "4", "--seconds", "0.5",
                "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "uniform_t1", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
