"""Tests of the benchmark itself: its output contract and its controls.

Run with ``python3 -m pytest perfbench/test_perfbench.py``; the tests
that run the benchmark as a subprocess are marked ``slow``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.kernel import SIMULATORS, register_simulator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=["sbox_attack", "sharded_store"])
def traced(request):
    result = bench("--workload", request.param, "--seed", "3", "--seconds", "1", "--trace", "1")
    return request.param, result


@pytest.mark.slow
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    result = bench("--workload", "sbox_attack", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: row["unit"] for name, row in result["metrics"].items()} == expected
    assert all(row["value"] > 0 for row in result["metrics"].values())


@pytest.mark.slow
def test_traced_run_prints_every_per_layer_metric_with_its_unit(traced):
    _, traced = traced
    assert traced["correct"] and traced["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: row["unit"] for name, row in traced["metrics"].items()} == expected


@pytest.mark.slow
def test_ledger_rows_sum_to_the_traced_wall_time(traced):
    _, traced = traced
    rows = {name: row["value"] for name, row in traced["metrics"].items()}
    for prefix, total in (("", "traced.verdict_s"), ("rerun.", "traced.rerun_s")):
        parts = [f"{prefix}{layer}_s" for layer in run.LAYERS] + [f"{prefix}unattributed_s"]
        assert sum(rows[name] for name in parts) == pytest.approx(rows[total], rel=1e-9)
    assert rows["power.dom_s"] > 0 and rows["power.cpa_s"] > 0 and rows["kernel.cycles"] > 0


@pytest.mark.slow
def test_traced_run_reports_worker_and_store_rows(traced):
    workload, traced = traced
    rows = {name: row["value"] for name, row in traced["metrics"].items()}
    if workload == "sbox_attack":
        assert rows["kernel.energies_s"] > 0 and rows["engine.shards"] == 0
        assert rows["store.hits"] == rows["store.misses"] == 0
        return
    shards = workloads.ShardedStore.TRACES // workloads.ShardedStore.SHARD
    assert rows["engine.shards"] == shards and rows["engine.shard_p50_s"] > 0
    assert 0 < rows["engine.worker_busy_frac"] <= 1
    assert rows["store.hits"] == rows["store.misses"] == 1
    assert rows["store.put_s"] > 0 and rows["rerun.store.get_s"] > 0


def session_processes(session: int) -> list:
    """Pids of the processes, zombies included, in the given session."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sharded_run_leaves_no_process_behind():
    command = [sys.executable, str(HERE / "run.py"), "--workload", "sharded_store", "--seed", "3", "--seconds", "1", "--trace", "0"]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as child:
        result = json.loads(child.communicate(timeout=180)[0].strip().splitlines()[-1])
    assert result["correct"] and child.returncode == 0
    assert session_processes(child.pid) == []


def test_forked_workers_keep_the_default_sigterm_action():
    code = (
        "import multiprocessing, signal, sys, run\n"
        "run.exit_on_sigterm()\n"
        "with multiprocessing.get_context('fork').Pool(1) as pool:\n"
        "    sys.exit(0 if pool.apply(signal.getsignal, (signal.SIGTERM,)) == signal.SIG_DFL else 1)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE, timeout=60).returncode == 0


def test_benchmark_spec_lists_the_runner_units():
    assert {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]} == run.UNITS
    assert {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]} == run.per_layer_units()
    assert [workload["name"] for workload in SPEC["workloads"]] == list(workloads.WORKLOADS)


class _ConstantEnergy:
    """A simulator that has lost every data dependence."""

    def __init__(self, program) -> None:
        self.program = program

    def energies(self, matrix, batch_size=None):
        return np.full(len(matrix), 1e-12)

    def reset(self) -> None:
        pass


@pytest.fixture
def constant_stub():
    register_simulator("constant_stub", _ConstantEnergy)
    try:
        yield "constant_stub"
    finally:
        SIMULATORS.unregister("constant_stub")


def test_tvla_controls_pass_on_the_real_simulator():
    assert workloads.tvla_controls(workloads.Inputs.from_seed(5)) == []


def test_constant_energy_stub_trips_the_genuine_tvla_control(constant_stub):
    problems = workloads.tvla_controls(workloads.Inputs.from_seed(5), simulator=constant_stub)
    assert len(problems) == 1 and problems[0].startswith("genuine S-box does not leak")
