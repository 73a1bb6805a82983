"""Outside-in layer ledger for the benchmark's traced run.

The ledger times the calls a workload makes into each layer's public
entry points, wrapped from the benchmark's side: stage accessors are
timed at the benchmark's own call sites, and the deeper entry points
are wrapped for the duration of one traced body through the program's
public registries (simulators, attacks, assessment methods) or by
replacing a public function or method and putting it back afterwards.
No span is added inside ``src/``.

Spans nest, and each layer is charged its *self* time: its wall time
minus the part its child spans cover.  The self times of one body plus
``unattributed_s`` therefore add up to the body's traced wall time.

Work done in pool workers is not wrapped (the workers were forked before
the wrappers exist).  It comes from the program's existing observability
events instead -- the ``shard.traces`` spans and the ``kernel.cycles``
counter, which workers buffer and the engine replays into the observer
installed here.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence

_NULL_SPAN = contextlib.nullcontext()


class NullLedger:
    """The untraced run's ledger: every span is a shared no-op."""

    def span(self, layer: str):
        return _NULL_SPAN


class Ledger:
    """Self time per layer, from nested spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._child_s: List[float] = []

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_s.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
            if self._child_s:
                self._child_s[-1] += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _timed(ledger: Ledger, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with ledger.span(layer):
            return fn(*args, **kwargs)

    return wrapper


class _TimedModel:
    """A simulator model whose ``energies`` calls are charged to the kernel."""

    def __init__(self, model: Any, ledger: Ledger) -> None:
        self._model = model
        self._ledger = ledger

    def energies(self, *args, **kwargs):
        with self._ledger.span("kernel.energies"):
            return self._model.energies(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._model, name)


class _TimedMethod:
    """An assessment method whose updates and finalize are charged to the
    accumulators."""

    def __init__(self, method: Any, ledger: Ledger) -> None:
        self._method = method
        self._ledger = ledger

    def update(self, chunk) -> None:
        with self._ledger.span("assess.accumulate"):
            self._method.update(chunk)

    def finalize(self):
        with self._ledger.span("assess.accumulate"):
            return self._method.finalize()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._method, name)


@contextlib.contextmanager
def instrument(
    ledger: Ledger,
    simulator: str,
    attacks: Sequence[str],
    assessments: Sequence[str],
) -> Iterator[List[Dict[str, Any]]]:
    """Wrap the layers' entry points for one traced body.

    Yields the list the installed observer buffers the program's own
    events into (stage spans, replayed worker spans, counters).  Every
    wrapper is removed again on exit, also when the body raises.
    """
    import repro.kernel as kernel
    from repro.assess.noise import NoiseChain
    from repro.engine import runner
    from repro.engine.store import ArtifactStore
    from repro.flow.registry import (
        get_assessment,
        get_attack,
        register_assessment,
        register_attack,
    )
    from repro.obs import BufferSink, Observer, use_observer

    undo: List[Callable[[], None]] = []

    def patch(owner: Any, name: str, replacement: Any) -> None:
        original = getattr(owner, name)
        setattr(owner, name, replacement)
        undo.append(lambda: setattr(owner, name, original))

    def reregister(register: Callable, name: str, original: Any, wrapped: Any) -> None:
        register(name, wrapped, overwrite=True)
        undo.append(lambda: register(name, original, overwrite=True))

    events: List[Dict[str, Any]] = []
    try:
        factory = kernel.get_simulator(simulator)
        reregister(
            kernel.register_simulator,
            simulator,
            factory,
            lambda program, _factory=factory: _TimedModel(_factory(program), ledger),
        )
        for name in attacks:
            attack = get_attack(name)
            reregister(register_attack, name, attack, _timed(ledger, f"power.{name}", attack))
        for name in assessments:
            method = get_assessment(name)
            reregister(
                register_assessment,
                name,
                method,
                lambda config, _method=method: _TimedMethod(_method(config), ledger),
            )
        patch(NoiseChain, "apply", _timed(ledger, "assess.noise", NoiseChain.apply))
        patch(kernel, "compile_circuit", _timed(ledger, "kernel.compile", kernel.compile_circuit))
        patch(
            runner,
            "run_trace_campaign",
            _timed(ledger, "engine.campaign", runner.run_trace_campaign),
        )
        patch(
            ArtifactStore,
            "put_traceset",
            _timed(ledger, "store.put", ArtifactStore.put_traceset),
        )
        read = ArtifactStore.get_traceset

        def get_traceset(store, key):
            with ledger.span("store.get"):
                found = read(store, key)
            ledger.count("store.hits" if found is not None else "store.misses")
            return found

        patch(ArtifactStore, "get_traceset", get_traceset)
        with use_observer(Observer([BufferSink(events)])):
            yield events
    finally:
        for restore in reversed(undo):
            restore()


def event_rows(events: Sequence[Dict[str, Any]], workers: int) -> Dict[str, float]:
    """Counts and worker-side timings from the program's own events.

    ``engine.worker_busy_frac`` is the shard time the workers report
    over ``workers`` times the parent's ``engine.traces`` span.
    """
    cycles = sum(
        event.get("value", 0.0)
        for event in events
        if event["kind"] == "counter" and event["name"] == "kernel.cycles"
    )
    shards = [
        event["duration_s"]
        for event in events
        if event["kind"] == "span.end" and event["name"] == "shard.traces"
    ]
    campaign_s = sum(
        event["duration_s"]
        for event in events
        if event["kind"] == "span.end" and event["name"] == "engine.traces"
    )
    busy = sum(shards) / (workers * campaign_s) if shards and campaign_s > 0 else 0.0
    return {
        "kernel.cycles": cycles,
        "engine.shards": float(len(shards)),
        "engine.shard_p50_s": statistics.median(shards) if shards else 0.0,
        "engine.worker_busy_frac": busy,
    }
