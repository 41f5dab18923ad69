"""The benchmark's own tests, at a scale that runs in seconds.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import gate  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.02


def _bench(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--scale", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    result, table = _bench(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[1:2] == [metric["name"]]
            and line.split()[-1] == metric["unit"]
            for line in table.splitlines()
        ), f"{metric['name']} not printed with its unit"


def _tiny_campaign(tmp_path, name="campaign_warm", seed=3, tracer=None):
    workload = run.scaled(run.WORKLOADS[name], TINY)
    tmp_path.mkdir(parents=True, exist_ok=True)
    built, _ = run.setup(workload, seed, str(tmp_path))
    patches = None
    if tracer is None:
        platform = run.platform_for(workload, seed, built.scenario,
                                    built.store)
    else:
        children = tmp_path / "children"
        children.mkdir()
        platform, patches = run.traced_platform(
            workload, seed, built, tracer, str(children)
        )
    try:
        run.run_campaign(built, platform)
    finally:
        if patches is not None:
            patches.restore()
    clustering, _, _ = run.run_analysis(built.path, tracer)
    return workload, built.path, clustering


def test_tampered_store_fails_the_gate(tmp_path):
    workload, path, clustering = _tiny_campaign(tmp_path)
    clean, _ = run.check_store(path, clustering, workload, 3, TINY)
    store = run.MeasurementStore.open_readonly(path)
    table = store.rounds()[-1].table_name
    store.close()
    with sqlite3.connect(path) as conn:
        conn.execute(f"UPDATE {table} SET server = 'tampered' "
                     f"WHERE rowid = (SELECT MIN(rowid) FROM {table})")
    with pytest.raises(run.GateFailure, match="verify_round"):
        run.check_store(path, clustering, workload, 3, TINY)
    store = run.MeasurementStore.open_readonly(path)
    try:
        assert gate.compare(gate.store_digest(store, clustering), clean)
    finally:
        store.close()


def test_tracing_wrappers_change_no_output(tmp_path):
    _, plain_path, plain = _tiny_campaign(tmp_path / "plain")
    tracer = Tracer("test")
    _, traced_path, traced = _tiny_campaign(tmp_path / "traced",
                                            tracer=tracer)
    for layer in ("cloudsim.probe", "features.extract", "store.write_shards",
                  "store.scan", "analysis.cluster"):
        assert tracer.layer(layer).calls > 0, layer
    assert (run.verified_digest(traced_path, traced)
            == run.verified_digest(plain_path, plain))


def test_all_runs_each_workload_and_prints_one_result():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--seed", "3",
         "--seconds", "1", "--scale", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    results = json.loads(lines[-1])
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for name, result in results.items():
        assert result["correct"] is True
        assert f"# {name}:" in out.stdout


def test_resource_tracker_is_stopped_and_reaped():
    # Spawned partition workers start this tracker; a run must not leave
    # it behind when it exits.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    assert tracker._fd is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)
