"""The repo benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload sbox_attack --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` they are the per-layer rows of a
separate traced run.  A run has three parts:

1. the untimed correctness controls of the workload;
2. pairs of a body and its rerun(s), each on freshly set-up flows, for
   ``--seconds``: a pair starts only while it is expected to end within
   them, and at least one runs.  Each pair is checked; a pair that fails
   its check counts as failed and its timings are dropped.  With
   ``--trace 1`` the second half of the time goes to traced pairs (at
   least one), whose layer ledger is reported (see ``ledger.py``);
3. ``setup_s``: before each untraced pair, and after them until there
   are ``SETUP_SAMPLES``, the workload's set-up is timed in a fresh
   interpreter (``probe.py``) so the imports are included.  Spreading
   the probes over the run lets them see the host as the bodies do.

Each timing is the trimmed mean of its samples (see ``central``).
Everything the run writes goes under ``.perfbench/`` in the repository
root and is removed at the end.  BLAS/OpenMP pools are pinned to one
thread before NumPy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Fewest set-up samples per run (each a fresh interpreter).
SETUP_SAMPLES = 5

#: Thread-pool sizes of BLAS/OpenMP, which read them when NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Seconds a set-up probe may take before the run gives up.
PROBE_TIMEOUT_S = 120

#: Layers a body or rerun charges time to, in report order.
LAYERS = (
    "power.acquire",
    "flow.analysis",
    "power.dom",
    "power.cpa",
    "kernel.compile",
    "kernel.energies",
    "assess.stream",
    "assess.accumulate",
    "assess.noise",
    "engine.campaign",
    "store.put",
    "store.get",
    "core.synthesize",
    "core.enhance",
    "core.verify",
)

#: Set-up phases the probe reports.
SETUP_PHASES = ("setup.import_s", "sabl.map_s", "engine.warm_pool_s")

UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "traces_per_s": "1/s",
    "rerun_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer row the traced run reports, with its unit."""
    units = {phase: "s" for phase in SETUP_PHASES}
    for prefix in ("", "rerun."):
        for layer in LAYERS:
            units[f"{prefix}{layer}_s"] = "s"
        units[f"{prefix}unattributed_s"] = "s"
    units.update(
        {
            "traced.verdict_s": "s",
            "traced.rerun_s": "s",
            "obs.overhead_frac": "ratio",
            "kernel.cycles": "count",
            "kernel.cycles_per_trace": "ratio",
            "engine.shards": "count",
            "engine.shard_p50_s": "s",
            "engine.worker_busy_frac": "ratio",
            "store.hits": "count",
            "store.misses": "count",
            "core.devices": "count",
        }
    )
    return units


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process and the ones it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def exit_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit`` in this process, so a terminated
    run still unwinds and stops what it started.

    Forked children (the pool workers) get SIGTERM's default action back,
    which ``Pool.terminate`` relies on.  With a Python handler a worker
    can miss the signal for good: one that lands just before the worker
    blocks on its task queue's lock runs the handler only once the lock
    is free, and the terminating pool holds that lock.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


@contextlib.contextmanager
def resource_tracker():
    """Run multiprocessing's resource tracker as a child of this process
    and stop it, waiting for it, on the way out.

    Pool workers register the shared-memory segments they create with a
    tracker.  Started here, before any worker forks, it is the one they
    all share; otherwise each worker starts a tracker of its own, which
    outlives it and is never waited for.
    """
    from multiprocessing import resource_tracker as tracker

    tracker.ensure_running()
    try:
        yield
    finally:
        tracker._resource_tracker._stop()


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int, workdir: Path) -> Tuple[float, Dict[str, float]]:
    """Wall time of one set-up in a fresh interpreter, and its phases."""
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            # Terminated, the probe still shuts down the pool it warmed.
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            raise
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe of {workload!r} failed (exit {child.returncode})")
    return wall, json.loads(line)


def peak_rss_mb() -> float:
    """Peak RSS of this process or, if higher, of a live pool worker."""
    import multiprocessing

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def central(samples: Sequence[float]) -> float:
    """Mean of the samples without the fastest and the slowest one (when
    there are five or more).

    On a shared host the per-step times are bimodal: a step runs either
    alone on its physical core or beside a busy neighbour, up to 1.7x
    slower, and the busy share drifts from run to run.  A run's median
    jumps between the two modes whenever that share is near one half; the
    mean moves smoothly with it, and dropping the two extremes keeps a
    one-off stall out.
    """
    ordered = sorted(samples)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def ledger_rows(prefix: str, ledger, wall_s: float) -> Dict[str, float]:
    rows = {f"{prefix}{layer}_s": ledger.self_s.get(layer, 0.0) for layer in LAYERS}
    rows[f"{prefix}unattributed_s"] = wall_s - sum(ledger.self_s.values())
    return rows


@dataclass
class Pair:
    """One body and its reruns, timed, with the traced run's ledgers."""

    outcome: Any
    verdict_s: float
    rerun_s: List[float]
    issues: List[str]
    ledgers: Tuple[Any, Any] = ()
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: ``traces / simulate_s`` of every step that simulated traces.
    rates: List[float] = field(default_factory=list)


def run_pair(workload, hooks: Optional[Tuple[str, Sequence[str], Sequence[str]]]) -> Pair:
    """Set the workload up afresh, then time its body and its reruns.

    ``hooks`` are the ``instrument`` arguments of a traced pair (the
    simulator, attack and assessment names to wrap); ``None`` runs the
    pair untraced.  A traced pair charges all its reruns to one ledger.
    """
    from ledger import Ledger, NullLedger, instrument

    workload.setup(traced=hooks is not None)
    ledgers = (Ledger(), Ledger()) if hooks else (NullLedger(), NullLedger())
    steps = [(workload.body, ledgers[0])] + [(workload.rerun, ledgers[1])] * workload.reruns
    results, seconds, events = [], [], []
    for step, ledger in steps:
        wrapped = instrument(ledger, *hooks) if hooks else contextlib.nullcontext([])
        # Every step starts from a collected heap, so when the collector
        # runs inside a step does not depend on the steps before it.
        gc.collect()
        with wrapped as buffered:
            began = time.perf_counter()
            results.append(step(ledger))
            seconds.append(time.perf_counter() - began)
        events.append(buffered)
    issues = [issue for rerun in results[1:] for issue in workload.check(results[0], rerun)]
    rates = [result.traces / result.simulate_s for result in results if result.traces]
    return Pair(results[0], seconds[0], seconds[1:], issues, ledgers, events[0], rates)


def measure(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    from workloads import WORKLOADS

    from repro.flow import FlowConfig

    defaults = FlowConfig()
    hooks = (defaults.campaign.simulator, defaults.analysis.attacks, ("ttest", "stats"))
    setups: List[Tuple[float, Dict[str, float]]] = []
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        problems = workload.controls()
        start = time.perf_counter()
        untraced: List[Pair] = []
        traced: List[Pair] = []
        # Untraced pairs fill the run (its first half with --trace 1);
        # traced pairs fill the rest.  Each phase runs at least one pair,
        # and another only if it is expected to end within the budget.
        phases = [(untraced, None, args.seconds / 2 if args.trace else args.seconds)]
        if args.trace:
            phases.append((traced, hooks, args.seconds))
        for pairs, phase_hooks, budget in phases:
            while True:
                began = time.perf_counter()
                if phase_hooks is None:
                    setups.append(probe_setup(args.workload, args.seed, workdir))
                pairs.append(run_pair(workload, phase_hooks))
                now = time.perf_counter()
                if now - start + (now - began) > budget:
                    break
        rss_mb = peak_rss_mb()
        while len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup(args.workload, args.seed, workdir))
    finally:
        workload.close()

    pairs = untraced + traced
    for pair in pairs:
        problems.extend(pair.issues)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    untraced = [pair for pair in untraced if not pair.issues]
    traced = [pair for pair in traced if not pair.issues]
    result: Dict[str, Any] = {
        "correct": not problems,
        "attempted": len(pairs),
        "failed": sum(1 for pair in pairs if pair.issues),
        "metrics": {},
    }
    if not untraced or (args.trace and not traced):
        return result
    if args.trace:
        values, units = per_layer(setups, untraced, traced, workload.workers), per_layer_units()
    else:
        values, units = end_to_end(setups, untraced, rss_mb), UNITS
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return result


def end_to_end(setups, untraced: List[Pair], rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": central([wall for wall, _ in setups]),
        "verdict_s": central([pair.verdict_s for pair in untraced]),
        "traces_per_s": central([rate for pair in untraced for rate in pair.rates]),
        "rerun_s": central([rerun_s for pair in untraced for rerun_s in pair.rerun_s]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(setups, untraced: List[Pair], traced: List[Pair], workers: int) -> Dict[str, float]:
    """The ledger of the traced pair with the median traced verdict time."""
    from ledger import event_rows

    pair = sorted(traced, key=lambda pair: pair.verdict_s)[len(traced) // 2]
    rows = {phase: central([times[phase] for _, times in setups]) for phase in SETUP_PHASES}
    rows.update(ledger_rows("", pair.ledgers[0], pair.verdict_s))
    rows.update(ledger_rows("rerun.", pair.ledgers[1], sum(pair.rerun_s)))
    rows.update(event_rows(pair.events, workers))
    for name in ("store.hits", "store.misses"):
        rows[name] = float(sum(ledger.counts.get(name, 0) for ledger in pair.ledgers))
    rows.update(
        {
            "traced.verdict_s": pair.verdict_s,
            "traced.rerun_s": sum(pair.rerun_s),
            "obs.overhead_frac": pair.verdict_s / central([p.verdict_s for p in untraced]) - 1.0,
            "kernel.cycles_per_trace": rows["kernel.cycles"] / pair.outcome.traces,
            "core.devices": float(pair.outcome.verdict.get("devices", 0)),
        }
    )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    pin_threads()
    # A terminated run still removes its work directory and pool workers.
    exit_on_sigterm()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with resource_tracker():
            result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
