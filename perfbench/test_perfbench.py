"""The benchmark's own tests (about a minute; not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

They drive ``run.py --short`` as a subprocess: every named end-to-end
and per-layer metric must be emitted with its unit, the interpreter
counters and generated-kernel line counts must repeat exactly across
two runs, the two workloads must differ in the way they are chosen for,
a run must leave no process behind, and a directory without the program
must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def command(workload: str, seed: int, trace: int) -> list:
    return [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--short",
    ]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        command(workload, seed, trace),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    return result


def trace_record(workload: str, seed: int) -> dict:
    path = ROOT / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json"
    return json.loads(path.read_text())


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert len(spec["per_layer"]) <= 128


def test_untraced_run_emits_every_end_to_end_metric():
    proc = run("distinct_weights", seed=5, trace=0)
    result = result_line(proc)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == report.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    # the printed table also carries error_frac, by name and unit
    assert any(
        line.split()[:1] == [report.ERROR_FRAC[0]]
        and line.split()[-1] == report.ERROR_FRAC[1]
        for line in proc.stdout.splitlines()
    )


def test_traced_runs_emit_every_layer_metric_and_counts_repeat():
    records = {}
    for workload, seed in (("shared_weights", 6), ("distinct_weights", 7)):
        result = result_line(run(workload, seed=seed, trace=1))
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == report.PER_LAYER
        records[workload] = trace_record(workload, seed)["per_layer"]
    first, second = records["shared_weights"], records["distinct_weights"]
    # the interpreter's counts and the generated code do not depend on
    # the request data
    repeated = [
        name
        for name in first
        if name.startswith(
            ("counters.", "codegen.kernel_lines.", "perfmodel.")
        )
    ]
    assert len(repeated) > 3 * len(report.APPS)
    for name in repeated:
        assert first[name] == second[name], name
    # what the workloads are chosen for: shared weights keep every batch
    # on the batch-axis kernel, distinct weights send conv-family batches
    # to the looped plan
    assert first["batch.batched_frac"]["value"] == 1.0
    assert second["batch.batched_frac"]["value"] < 1.0


def session_processes(sid: int) -> list:
    """Pids of every process, zombies too, in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
def test_run_leaves_no_process_behind():
    # the run's workers and the shared-memory resource tracker are all in
    # the session it leads; none may outlive it, not even as a zombie
    proc = subprocess.Popen(
        command("shared_weights", seed=8, trace=0),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=300)
    result_line(subprocess.CompletedProcess(
        proc.args, proc.returncode, stdout, stderr
    ))
    assert session_processes(proc.pid) == []


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "_work", "__pycache__"),
    )
    proc = run("shared_weights", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
