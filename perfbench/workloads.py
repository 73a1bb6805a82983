"""The benchmark's four workloads, their inputs and their correctness checks.

Every workload turns ``--seed`` into generated configs (S-box key,
campaign seed, assessment seed) and hands the program nothing else.  All
other fields are the :class:`repro.flow.FlowConfig` defaults, so a later
change of default -- the simulator backend, say -- shows as a change in
the figures instead of breaking the benchmark.

A workload has four parts:

* ``setup()`` -- build the flow and map the circuit (and, for the
  sharded workload, warm the worker pool); ``setup_s`` times it;
* ``body(ledger)`` -- from a ready flow to the workload's verdict;
  ``verdict_s`` times it, and the part that simulates traces gives
  ``traces_per_s``;
* ``rerun(ledger)`` -- the verdict asked for again once the first one
  is in, reusing what the system keeps: the artifact store for a fresh
  flow (``sharded_store``), else the first flow's cached stages;
  ``rerun_s`` times it;
* ``check(...)`` and ``controls()`` -- untimed semantic checks.  They
  never compare trace digests, so a deliberate change of the random
  streams does not trip them.

Why each workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core import enhance_fc_dpdn, synthesize_fc_dpdn, verify_gate
from repro.engine import shutdown_pools, warm_pool
from repro.flow import DesignFlow, FlowConfig
from repro.flow.config import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    ExecutionConfig,
    ObservabilityConfig,
)
from repro.network import build_genuine_dpdn
from repro.scenarios import make_scenario

#: Relative Gaussian noise of every circuit campaign (sigma = 0.2 % of
#: the mean cycle energy).
NOISE_STD = 0.002

#: TVLA's |t| threshold.
TVLA_THRESHOLD = 4.5

#: Traces per class of the TVLA controls.
CONTROL_TVLA_PER_CLASS = 32768

#: Worker processes of the sharded workload (the hosts it was sized on
#: have two CPUs).
WORKERS = 2

#: The traced run's observability config.  Naming a sink makes pool
#: workers buffer their events and ship them back with each shard; the
#: ``null`` sink writes nothing, the observer the ledger installs in the
#: parent receives the replay.
TRACED_OBS = ObservabilityConfig(sinks=("null",))


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from ``--seed``."""

    key: int
    campaign_seed: int
    assessment_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = np.random.default_rng(seed)
        key = int(rng.integers(16))
        campaign_seed, assessment_seed = (int(s) for s in rng.integers(1, 2**31 - 1, size=2))
        return cls(key=key, campaign_seed=campaign_seed, assessment_seed=assessment_seed)


@dataclass
class Outcome:
    """What one body or rerun produced."""

    traces: int = 0
    simulate_s: float = 0.0
    verdict: Dict[str, Any] = field(default_factory=dict)
    arrays: Optional[np.ndarray] = None


def attack_ranks(flow: DesignFlow) -> Dict[str, int]:
    return {name: result.correct_key_rank for name, result in flow.analysis().items()}


def campaign_config(name: str, inputs: Inputs, **campaign: Any) -> FlowConfig:
    return FlowConfig(
        name=name,
        campaign=CampaignConfig(
            key=inputs.key,
            noise_std=NOISE_STD,
            seed=inputs.campaign_seed,
            **campaign,
        ),
    )


def cpa_model_control(inputs: Inputs) -> List[str]:
    """Positive control of the attack layer: CPA on a leaky model recovers the key."""
    config = FlowConfig(
        name="cpa_control",
        campaign=CampaignConfig(
            key=inputs.key,
            source="model",
            trace_count=4096,
            noise_std=0.5,
            seed=inputs.campaign_seed,
        ),
        analysis=AnalysisConfig(attacks=("cpa",)),
    )
    rank = attack_ranks(DesignFlow(None, config))["cpa"]
    return [] if rank == 0 else [f"CPA on the leakage model ranked the key {rank}, not 0"]


def tvla_max_t(inputs: Inputs, network_style: str, simulator: Optional[str] = None) -> float:
    campaign = {"network_style": network_style}
    if simulator is not None:
        campaign["simulator"] = simulator
    config = campaign_config(f"tvla_{network_style}", inputs, **campaign).replace(
        assessment=AssessmentConfig(
            enabled=True,
            traces_per_class=CONTROL_TVLA_PER_CLASS,
            seed=inputs.assessment_seed,
        )
    )
    return float(DesignFlow(None, config).assessment()["ttest"].max_abs_t)


def tvla_controls(inputs: Inputs, simulator: Optional[str] = None) -> List[str]:
    """The paper's claim with both controls: the fully connected S-box
    passes TVLA and the genuine one leaks.  A simulator that loses the
    data dependence (a constant-energy stub) trips the genuine control."""
    problems = []
    fc = tvla_max_t(inputs, "fc", simulator)
    if not fc < TVLA_THRESHOLD:
        problems.append(f"fully connected S-box leaks: |t| = {fc:.2f}")
    genuine = tvla_max_t(inputs, "genuine", simulator)
    if not genuine > TVLA_THRESHOLD:
        problems.append(f"genuine S-box does not leak: |t| = {genuine:.2f}")
    return problems


class Workload:
    """Base class: ``setup``/``body``/``rerun`` plus checks (see module doc)."""

    name = ""
    workers = 1
    #: Reruns per body.
    reruns = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.inputs = Inputs.from_seed(seed)
        self.workdir = workdir
        self.flow: Optional[DesignFlow] = None
        self.first: Optional[Dict[str, Any]] = None

    def config(self, traced: bool) -> FlowConfig:
        raise NotImplementedError

    def setup(self, traced: bool = False) -> Dict[str, float]:
        """Build a fresh flow and map its circuit; returns phase times."""
        start = time.perf_counter()
        self.flow = DesignFlow(self.expressions(), self.config(traced))
        self.flow.circuit()
        return {"sabl.map_s": time.perf_counter() - start, "engine.warm_pool_s": 0.0}

    def expressions(self) -> Optional[Dict[str, Any]]:
        """Custom outputs of the flow; ``None`` is the keyed S-box."""
        return None

    def body(self, ledger) -> Outcome:
        raise NotImplementedError

    def rerun(self, ledger) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, rerun: Outcome) -> List[str]:
        """Problems with one body/rerun pair; also pins every pair of a
        run to the first one's verdict (same seed, same answer)."""
        problems = []
        if rerun.verdict != outcome.verdict:
            problems.append(f"rerun verdict {rerun.verdict} != {outcome.verdict}")
        if self.first is None:
            self.first = outcome.verdict
        elif outcome.verdict != self.first:
            problems.append(f"verdict {outcome.verdict} != first {self.first}")
        return problems

    def controls(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class SboxAttack(Workload):
    name = "sbox_attack"
    TRACES = 65536

    def config(self, traced: bool) -> FlowConfig:
        return campaign_config(self.name, self.inputs, trace_count=self.TRACES)

    def body(self, ledger) -> Outcome:
        start = time.perf_counter()
        with ledger.span("power.acquire"):
            traces = self.flow.traces()
        simulate_s = time.perf_counter() - start
        with ledger.span("flow.analysis"):
            ranks = attack_ranks(self.flow)
        return Outcome(len(traces), simulate_s, ranks, traces.traces)

    def rerun(self, ledger) -> Outcome:
        self.flow.invalidate("analysis")
        with ledger.span("flow.analysis"):
            return Outcome(verdict=attack_ranks(self.flow))

    def check(self, outcome: Outcome, rerun: Outcome) -> List[str]:
        problems = super().check(outcome, rerun)
        if outcome.traces != self.TRACES or not np.all(np.isfinite(outcome.arrays)):
            problems.append("trace campaign is incomplete or not finite")
        if sorted(outcome.verdict) != ["cpa", "dom"] or not all(
            0 <= rank < 16 for rank in outcome.verdict.values()
        ):
            problems.append(f"attack ranks {outcome.verdict} are malformed")
        return problems

    def controls(self) -> List[str]:
        return cpa_model_control(self.inputs)


class SboxTvla(Workload):
    name = "sbox_tvla"
    PER_CLASS = 262144

    def config(self, traced: bool) -> FlowConfig:
        return campaign_config(self.name, self.inputs).replace(
            assessment=AssessmentConfig(
                enabled=True,
                methods=("ttest", "stats"),
                traces_per_class=self.PER_CLASS,
                seed=self.inputs.assessment_seed,
            )
        )

    def _assess(self, ledger) -> Dict[str, Any]:
        with ledger.span("assess.stream"):
            outcomes = self.flow.assessment()
        ttest = outcomes["ttest"]
        return {"max_abs_t": float(ttest.max_abs_t), "leaks": bool(ttest.leaks), "stats": sorted(outcomes["stats"].fixed)}

    def body(self, ledger) -> Outcome:
        start = time.perf_counter()
        verdict = self._assess(ledger)
        return Outcome(2 * self.PER_CLASS, time.perf_counter() - start, verdict)

    def rerun(self, ledger) -> Outcome:
        self.flow.invalidate("assessment")
        return self.body(ledger)

    def check(self, outcome: Outcome, rerun: Outcome) -> List[str]:
        problems = super().check(outcome, rerun)
        max_t = outcome.verdict["max_abs_t"]
        if not (math.isfinite(max_t) and max_t < TVLA_THRESHOLD) or outcome.verdict["leaks"]:
            problems.append(f"fully connected S-box fails TVLA: |t| = {max_t}")
        if not outcome.verdict["stats"]:
            problems.append("per-class statistics are empty")
        return problems

    def controls(self) -> List[str]:
        return tvla_controls(self.inputs)


class ShardedStore(Workload):
    name = "sharded_store"
    workers = WORKERS
    TRACES = 65536
    SHARD = 1024

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._stores = 0

    def config(self, traced: bool) -> FlowConfig:
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        return campaign_config(self.name, self.inputs, trace_count=self.TRACES).replace(
            execution=ExecutionConfig(workers=WORKERS, shard_size=self.SHARD, store=str(store)),
            obs=TRACED_OBS if traced else ObservabilityConfig(),
        )

    def setup(self, traced: bool = False) -> Dict[str, float]:
        start = time.perf_counter()
        warm_pool(WORKERS)
        warmed = time.perf_counter() - start
        phases = super().setup(traced)
        phases["engine.warm_pool_s"] = warmed
        return phases

    def _verdict(self, flow: DesignFlow, ledger) -> Outcome:
        start = time.perf_counter()
        with ledger.span("power.acquire"):
            traces = flow.traces()
        simulate_s = time.perf_counter() - start
        with ledger.span("flow.analysis"):
            ranks = attack_ranks(flow)
        ranks["store"] = flow.result("traces").details.get("store")
        return Outcome(len(traces), simulate_s, ranks, traces.traces)

    def body(self, ledger) -> Outcome:
        return self._verdict(self.flow, ledger)

    def rerun(self, ledger) -> Outcome:
        warm = self._verdict(DesignFlow(None, self.flow.config), ledger)
        warm.traces = 0  # loaded from the store, not simulated
        return warm

    def check(self, outcome: Outcome, rerun: Outcome) -> List[str]:
        cold, warm = dict(outcome.verdict), dict(rerun.verdict)
        problems = []
        if (cold.pop("store"), warm.pop("store")) != ("miss", "hit"):
            problems.append(f"store went {outcome.verdict['store']} then {rerun.verdict['store']}, not miss then hit")
        if not np.array_equal(outcome.arrays, rerun.arrays):
            problems.append("warm traces differ from the cold ones")
        if len(outcome.arrays) != self.TRACES:
            problems.append("trace campaign is incomplete")
        problems += super().check(Outcome(verdict=cold), Outcome(verdict=warm))
        return problems

    def controls(self) -> List[str]:
        return cpa_model_control(self.inputs)

    def close(self) -> None:
        shutdown_pools()


class FcSynthesis(Workload):
    name = "fc_synthesis"
    # One synthesis takes half a run, so each body is followed by many
    # short reruns.  The host's speed drifts over seconds, and only reruns
    # spread over the rest of the run make rerun_s and traces_per_s repeat
    # from run to run.
    reruns = 60
    OUTPUT = "y0"
    # Few traces, so that verify_gate (core and network), not the kernel,
    # dominates even the reruns.
    TRACES = 16384

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        scenario = make_scenario("sbox", key=self.inputs.key)
        self.function = scenario.expressions()[self.OUTPUT]
        self.network = None

    def config(self, traced: bool) -> FlowConfig:
        return campaign_config(self.name, self.inputs, trace_count=self.TRACES)

    def expressions(self) -> Dict[str, Any]:
        return {self.OUTPUT: self.function}

    def _verify(self, ledger) -> Dict[str, Any]:
        with ledger.span("core.verify"):
            report = verify_gate(
                self.network,
                self.function,
                require_constant_depth=True,
                require_no_early_propagation=True,
            )
        return {"passed": report.passed, "devices": self.network.device_count()}

    def _acquire(self, ledger) -> Outcome:
        start = time.perf_counter()
        with ledger.span("power.acquire"):
            traces = self.flow.traces()
        return Outcome(len(traces), time.perf_counter() - start, arrays=traces.traces)

    def body(self, ledger) -> Outcome:
        with ledger.span("core.synthesize"):
            network = synthesize_fc_dpdn(self.function, name=self.OUTPUT)
        with ledger.span("core.enhance"):
            self.network = enhance_fc_dpdn(network, name=self.OUTPUT)
        verdict = self._verify(ledger)
        outcome = self._acquire(ledger)
        outcome.verdict = verdict
        return outcome

    def rerun(self, ledger) -> Outcome:
        """Verify the kept network again and re-acquire its campaign from
        the flow's cached circuit."""
        verdict = self._verify(ledger)
        self.flow.invalidate("traces")
        outcome = self._acquire(ledger)
        outcome.verdict = verdict
        return outcome

    def check(self, outcome: Outcome, rerun: Outcome) -> List[str]:
        problems = super().check(outcome, rerun)
        if not outcome.verdict["passed"]:
            problems.append("enhanced network fails verify_gate")
        if outcome.traces != self.TRACES or not np.all(np.isfinite(outcome.arrays)):
            problems.append("trace campaign is incomplete or not finite")
        if not np.array_equal(outcome.arrays, rerun.arrays):
            problems.append("the re-acquired campaign differs from the first")
        return problems

    def controls(self) -> List[str]:
        """Negative control: the genuine network of the same function is
        not fully connected, so verification must reject it."""
        genuine = build_genuine_dpdn(self.function, name=f"{self.OUTPUT}_genuine")
        if verify_gate(genuine, self.function).passed:
            return ["the genuine y0 network passes the full-connectivity check"]
        return []


WORKLOADS = {cls.name: cls for cls in (SboxAttack, SboxTvla, ShardedStore, FcSynthesis)}
