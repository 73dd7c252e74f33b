"""The three benchmark workloads.

Each workload is driven by one client thread in a closed loop: a
tenant's next round depends on the decision its board just recorded, so
the caller always waits for the reply.  Every input -- tenant specs,
game seeds, the churn schedule and the sampled tenants that are checked
-- is derived from the ``seed`` argument.

A workload object offers ``prepare()`` (untimed warm-up),
``measure(seconds, tracer, min_repeats)`` returning a :class:`Window` of
timed samples, ``latency(window)`` building its ``latency_ms`` metric,
and ``check()`` which replays sampled outputs outside every timed
window and returns ``(attempted, failed)``.

Each workload repeats a cycle of units of work -- tick positions, tenant
kinds, or parts of the paper sweep -- and records every repeat's time,
so that :func:`rules.fast_cycle` can take each unit's fast time.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import ComponentSpec, DefenseService, GameSpec
from repro.core.strategies import (
    ElasticAdversary,
    ElasticCollector,
    FixedAdversary,
    JustBelowAdversary,
    MirrorCollector,
    TitForTatCollector,
)
from repro.runtime import ResultStore
from repro.scenarios import get_scenario, report_scenario, run_scenario
from repro.serving.service import ServiceStats
from rules import Metric, fast_cycle, percentile_metric

perf = time.perf_counter

#: The heterogeneous tenant population: three schemes x three attack
#: ratios, the recipe of ``_hetero_spec`` in benchmarks/bench_service.py.
SCHEMES = (
    (
        ComponentSpec(TitForTatCollector, {"t_th": 0.9, "trigger": None}),
        ComponentSpec(FixedAdversary, {"percentile": 0.99}),
    ),
    (
        ComponentSpec(ElasticCollector, {"t_th": 0.9, "k": 0.5}),
        ComponentSpec(ElasticAdversary, {"t_th": 0.9, "k": 0.5}),
    ),
    (
        ComponentSpec(MirrorCollector, {"t_th": 0.9}),
        ComponentSpec(JustBelowAdversary, {"initial_threshold": 0.9}),
    ),
)
RATIOS = (0.1, 0.2, 0.3)
ROUNDS = 60
BATCH_SIZE = 100
DATASET_SIZE = 2000
#: ``setup_s`` of the tenant workloads is the median over blocks of
#: this many consecutive onboardings.
SETUP_BLOCK = 32
#: Tenants whose boards are replayed solo after each run.
CHECKED_TENANTS = 8


def tenant_spec(seed: int, index: int) -> GameSpec:
    """Tenant ``index`` of the population drawn from benchmark ``seed``."""
    collector, adversary = SCHEMES[index % len(SCHEMES)]
    return GameSpec(
        collector=collector,
        adversary=adversary,
        dataset="taxi",
        dataset_size=DATASET_SIZE,
        attack_ratio=RATIOS[(index // len(SCHEMES)) % len(RATIOS)],
        rounds=ROUNDS,
        batch_size=BATCH_SIZE,
        store_retained=False,
        seed=seed * 10_000_000 + index,
    )


def solo_boards(spec: GameSpec) -> Tuple[list, Optional[int]]:
    """Play ``spec`` through a solo session loop; its board and end."""
    session = spec.session()
    while not session.done:
        session.submit()
    result = session.close()
    return result.to_records(), result.termination_round


@dataclass
class Window:
    """Timed samples of one measurement window.

    ``units`` maps each unit of the workload's cycle to its repeat
    times and ``unit_work`` to the work each repeat did.  ``calls``
    holds per-call latencies (rounds); ``call_units`` maps each unit to
    the latencies of its calls (tick positions, or the units of a warm
    paper pass).
    """

    work: int = 0
    work_s: float = 0.0
    units: Dict[Any, List[float]] = field(default_factory=lambda: defaultdict(list))
    unit_work: Dict[Any, List[int]] = field(default_factory=lambda: defaultdict(list))
    calls: List[float] = field(default_factory=list)
    call_units: Dict[Any, List[float]] = field(default_factory=lambda: defaultdict(list))
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    service: Dict[str, float] = field(default_factory=dict)

    def repeat(self, unit: Any, seconds: float, work: int) -> None:
        """Record one timed repeat of ``unit`` that did ``work``."""
        self.units[unit].append(seconds)
        self.unit_work[unit].append(work)
        self.work += work
        self.work_s += seconds

    def fewest_repeats(self, kinds: int) -> int:
        """Repeats of the least repeated of ``kinds`` units."""
        if len(self.units) < kinds:
            return 0
        return min(len(times) for times in self.units.values())

    def cycle_work(self) -> float:
        """Mean work of one repeat of every unit."""
        return float(sum(np.mean(work) for work in self.unit_work.values()))

    def add_service(self, stats: ServiceStats, since: Optional[ServiceStats] = None) -> None:
        for f in dataclasses.fields(ServiceStats):
            value = getattr(stats, f.name) - (getattr(since, f.name) if since else 0)
            self.service[f.name] = self.service.get(f.name, 0) + value

    def absorb(self, other: "Window") -> None:
        """Add another window's work, operations and service counters."""
        self.work += other.work
        self.work_s += other.work_s
        self.attempted += other.attempted
        self.failed += other.failed
        for name, value in other.service.items():
            self.service[name] = self.service.get(name, 0) + value


def fast_call_latency(window: Window, calls_per_cycle: int, note: str) -> Metric:
    """``latency_ms``: the summed fast times of ``window.call_units``
    over the number of calls one cycle of them makes."""
    fast = fast_cycle(window.call_units)
    return dataclasses.replace(fast, name="latency_ms",
                               value=fast.value / calls_per_cycle * 1e3, unit="ms",
                               note=note)


class _SetupBlocks:
    """Sums onboarding times into blocks of :data:`SETUP_BLOCK`."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0

    def add(self, window: Window, seconds: float) -> None:
        self.count += 1
        self.seconds += seconds
        if self.count == SETUP_BLOCK:
            window.setups.append(self.seconds)
            self.count = 0
            self.seconds = 0.0


class ServeChurn:
    """64 staggered tenants; two evicted to an on-disk store every tick."""

    name = "serve-churn"
    call = "submit_many tick"
    setup = f"median over blocks of {SETUP_BLOCK} onboardings"
    work_unit = "tenant-rounds"
    LIVE = 64
    WAVES = 4
    EVICTIONS_PER_TICK = 2
    #: Every STAGGER ticks one wave reaches its horizon and is replaced,
    #: so the units of the cycle are the tick positions in that period.
    STAGGER = ROUNDS // WAVES

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        self.service = DefenseService(store=ResultStore(workdir / "churn-store"))
        self.next_index = 0
        #: session id -> [spec, rounds played, times evicted]
        self.live: Dict[str, list] = {}
        self.pending: List[GameSpec] = []
        self.blocks = _SetupBlocks()
        self.evicted_sample: List[tuple] = []
        self.resident_sample: List[tuple] = []
        self.ticks = 0

    def _queue(self, count: int) -> None:
        for _ in range(count):
            self.pending.append(tenant_spec(self.seed, self.next_index))
            self.next_index += 1

    def _tick(self, window: Optional[Window], tracer: Any) -> None:
        service = self.service
        for spec in self.pending:
            start = perf()
            sid = service.open(spec)
            if window is not None:
                self.blocks.add(window, perf() - start)
            self.live[sid] = [spec, 0, 0]
        self.pending = []
        ids = list(self.live)
        if tracer is not None:
            tracer.context = ["tick", self.ticks]
        start = perf()
        decisions = service.submit_many(ids, on_error="quarantine")
        elapsed = perf() - start
        for sid in ids:
            if sid in decisions:
                self.live[sid][1] += 1
            else:
                del self.live[sid]
                self._queue(1)
        candidates = [sid for sid in decisions if self.live[sid][1] < ROUNDS]
        victims = [candidates[i] for i in self.rng.choice(
            len(candidates), self.EVICTIONS_PER_TICK, replace=False)]
        start = perf()
        for sid in victims:
            service.evict(sid)
            self.live[sid][2] += 1
        finished = [sid for sid in decisions if self.live[sid][1] == ROUNDS]
        results = [(sid, service.close(sid)) for sid in finished]
        evict_close_s = perf() - start
        for sid, result in results:
            spec, _, evictions = self.live.pop(sid)
            sample = self.evicted_sample if evictions else self.resident_sample
            if len(sample) < CHECKED_TENANTS:
                sample.append((spec, result))
        self._queue(len(finished))
        if window is not None:
            window.call_units[self.ticks % self.STAGGER].append(elapsed)
            window.repeat(self.ticks % self.STAGGER, elapsed + evict_close_s, len(decisions))
            window.attempted += len(ids) + len(victims)
            window.failed += len(ids) - len(decisions)
        self.ticks += 1

    def prepare(self) -> None:
        """Ramp the four waves in, untimed, until all 64 tenants are live."""
        per_wave = self.LIVE // self.WAVES
        while self.ticks <= self.STAGGER * (self.WAVES - 1):
            if self.ticks % self.STAGGER == 0:
                self._queue(per_wave)
            self._tick(None, None)

    def measure(self, seconds: float, tracer: Any, min_repeats: int) -> Window:
        window = Window()
        before = dataclasses.replace(self.service.stats)
        gc.collect()
        start = perf()
        while perf() - start < seconds or window.fewest_repeats(self.STAGGER) < min_repeats:
            self._tick(window, tracer)
        window.add_service(self.service.stats, since=before)
        return window

    def latency(self, window: Window) -> Metric:
        """``latency_ms``: the mean over tick positions of their fast
        ``submit_many`` times."""
        return fast_call_latency(
            window, self.STAGGER,
            note=f"{self.call}: mean fast time of the {self.STAGGER} tick positions")

    def check(self) -> Tuple[int, int]:
        pairs = self.evicted_sample + self.resident_sample
        failed = 0
        for spec, result in pairs:
            records, end = solo_boards(spec)
            if records != result.to_records() or end != result.termination_round:
                print(f"{self.name}: tenant seed {spec.seed} diverged from solo play",
                      file=sys.stderr)
                failed += 1
        if len(self.evicted_sample) < CHECKED_TENANTS:
            print(f"{self.name}: only {len(self.evicted_sample)} evicted tenants closed",
                  file=sys.stderr)
            failed += 1
        return len(pairs), failed


class SoloSession:
    """Tenants play one at a time: ``session()``, ``submit()`` to the end, ``close()``."""

    name = "solo-session"
    call = "GameSession.submit round"
    setup = f"median over blocks of {SETUP_BLOCK} onboardings"
    work_unit = "rounds"
    #: Tenant ``i`` has kind ``i % KINDS`` (scheme and attack ratio), so
    #: the units of the cycle are the kinds: one game of each.
    KINDS = len(SCHEMES) * len(RATIOS)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.next_index = 1
        rng = np.random.default_rng([seed, 3])
        self.sample = set(int(i) for i in rng.choice(np.arange(1, 65), CHECKED_TENANTS,
                                                      replace=False))
        self.kept: List[tuple] = []

    def prepare(self) -> None:
        solo_boards(tenant_spec(self.seed, 0))

    def measure(self, seconds: float, tracer: Any, min_repeats: int) -> Window:
        window = Window()
        blocks = _SetupBlocks()
        calls = window.calls
        gc.collect()
        begin = perf()
        while perf() - begin < seconds or window.fewest_repeats(self.KINDS) < min_repeats:
            index = self.next_index
            self.next_index += 1
            spec = tenant_spec(self.seed, index)
            start = perf()
            session = spec.session()
            blocks.add(window, perf() - start)
            rounds = 0
            played = 0.0
            while not session.done:
                if tracer is not None:
                    tracer.context = [index, rounds]
                start = perf()
                session.submit()
                elapsed = perf() - start
                calls.append(elapsed)
                played += elapsed
                rounds += 1
            start = perf()
            result = session.close()
            window.repeat(index % self.KINDS, played + perf() - start, rounds)
            window.attempted += rounds
            if index in self.sample:
                self.kept.append((spec, result))
        return window

    def latency(self, window: Window) -> Metric:
        """``latency_ms``: the 2nd percentile of per-round latency."""
        return percentile_metric("latency_ms", window.calls, 2.0,
                                 note=f"p2 {self.call}, all calls of the run")

    def check(self) -> Tuple[int, int]:
        failed = 0
        for spec, result in self.kept:
            reference = spec.play()
            if (reference.to_records() != result.to_records()
                    or reference.termination_round != result.termination_round):
                print(f"{self.name}: tenant seed {spec.seed} differs from GameSpec.play()",
                      file=sys.stderr)
                failed += 1
        if len(self.kept) < CHECKED_TENANTS:
            print(f"{self.name}: only {len(self.kept)} sampled tenants played", file=sys.stderr)
            failed += 1
        return len(self.kept), failed


#: A sample of the paper's grids at full per-cell scale, cut into units
#: that repeat several times a second: Table III at one poisoning
#: probability x five repetitions, Fig. 9 at two epsilon x ratio points
#: x one repetition, and Fig. 4 at quick scale on one attack ratio.
#: 24 cells.
PAPER_UNITS: Tuple[Tuple[str, str, Dict[str, str]], ...] = (
    ("table3", "full", {"p_values": "0.5", "repetitions": "5"}),
    ("fig9", "full", {"epsilons": "1", "ratios": "0.1", "repetitions": "1"}),
    ("fig9", "full", {"epsilons": "4", "ratios": "0.3", "repetitions": "1"}),
    ("fig4", "quick", {"ratios": "0.1"}),
)
#: One CLI start-up: a fresh interpreter imports repro and plans the sweep.
LAUNCH = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import repro; "
    "from repro.scenarios import get_scenario; "
    "[get_scenario(n).plan(get_scenario(n).resolve_params(s, o)) "
    "for n, s, o in json.loads(sys.argv[2])]"
)
LAUNCHES = 5
#: Warm passes after each cold sweep: about a quarter of its time.
WARM_PASSES = 2


class PaperSweep:
    """Cold serial ``run_scenario`` of every unit, then warm replays."""

    name = "paper-sweep"
    call = "warm pass (replay + report of every unit)"
    setup = f"median of {LAUNCHES} fresh-interpreter import + plan launches"
    work_unit = "cells"

    def __init__(self, seed: int, workdir: Path) -> None:
        # The scenarios fix their own seeds, so ``seed`` changes nothing here.
        self.workdir = workdir
        self.src = Path(__file__).resolve().parent.parent / "src"
        self.cold_texts: List[str] = []
        self.launch_setups: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.sweeps = 0

    def _mismatch(self, what: str) -> None:
        print(f"{self.name}: {what}", file=sys.stderr)
        self.failed += 1

    def _scenario(self, name: str, tracer: Any) -> Any:
        scenario = get_scenario(name)
        if tracer is None:
            return scenario

        def traced(span: str, fn: Any) -> Any:
            return lambda *args: tracer.call(span, fn, *args)

        return dataclasses.replace(
            scenario,
            plan=traced("scenarios.plan", scenario.plan),
            aggregate=traced("scenarios.aggregate", scenario.aggregate),
            render=traced("scenarios.render", scenario.render),
        )

    def _run(self, index: int, store: Optional[ResultStore], tracer: Any) -> Any:
        name, scale, overrides = PAPER_UNITS[index]
        if tracer is not None:
            tracer.context = ["run", index]
        return run_scenario(self._scenario(name, tracer), scale=scale, overrides=overrides,
                            workers=1, store=store)

    def _report(self, index: int, store: ResultStore, tracer: Any) -> Any:
        name = PAPER_UNITS[index][0]
        if tracer is None:
            return report_scenario(get_scenario(name), store)
        tracer.context = ["report", index]
        return tracer.call("scenarios.report", report_scenario,
                           self._scenario(name, tracer), store)

    def prepare(self) -> None:
        """One storeless sweep, untimed, whose text every later run must
        render (the first sweep in a process pays one-off costs).  Then
        the CLI launches, each a fresh interpreter and a ``setup_s``
        sample; this process has already written the bytecode."""
        self.cold_texts = [self._run(i, None, None).text for i in range(len(PAPER_UNITS))]
        argv = [sys.executable, "-c", LAUNCH, str(self.src), json.dumps(PAPER_UNITS)]
        for _ in range(LAUNCHES):
            start = perf()
            subprocess.run(argv, check=True, timeout=120)
            self.launch_setups.append(perf() - start)
            self.attempted += 1

    def _cold_sweep(self, window: Window, tracer: Any) -> List[ResultStore]:
        self.sweeps += 1
        stores = [ResultStore(self.workdir / f"sweep-{self.sweeps}" / str(i))
                  for i in range(len(PAPER_UNITS))]
        for i, store in enumerate(stores):
            start = perf()
            run = self._run(i, store, tracer)
            window.repeat(i, perf() - start, run.stats.played)
            self.attempted += 1
            if run.text != self.cold_texts[i]:
                self._mismatch(f"cold unit {i} rendered different text than the storeless run")
            if run.stats.cached or run.failures:
                self._mismatch(f"cold unit {i} loaded or lost cells: {run.stats.describe()}")
        return stores

    def _warm_pass(self, window: Window, stores: List[ResultStore], tracer: Any) -> None:
        for i, store in enumerate(stores):
            start = perf()
            run = self._run(i, store, tracer)
            report = self._report(i, store, tracer)
            window.call_units[i].append(perf() - start)
            self.attempted += 2
            if run.stats.played:
                self._mismatch(f"warm unit {i} played {run.stats.played} cells")
            if run.text != self.cold_texts[i] or report.text != self.cold_texts[i]:
                self._mismatch(f"warm unit {i} replay or report differs from the cold text")

    def measure(self, seconds: float, tracer: Any, min_repeats: int) -> Window:
        """Cold sweeps, each followed by :data:`WARM_PASSES` warm passes
        over its stores, so both kinds of repeat span the whole window.
        The launches taken over from :meth:`prepare` count against
        ``seconds``: they are this run's timed set-ups."""
        window = Window()
        window.setups, self.launch_setups = self.launch_setups, []
        seconds -= sum(window.setups)
        stores: List[ResultStore] = []
        gc.collect()
        start = perf()
        while perf() - start < seconds or window.fewest_repeats(len(PAPER_UNITS)) < min_repeats:
            if stores:
                shutil.rmtree(stores[0].root.parent, ignore_errors=True)
            stores = self._cold_sweep(window, tracer)
            for _ in range(WARM_PASSES):
                self._warm_pass(window, stores, tracer)
        window.attempted, window.failed = self.attempted, self.failed
        self.attempted = self.failed = 0
        return window

    def latency(self, window: Window) -> Metric:
        """``latency_ms``: the summed fast times of a warm pass's units."""
        return fast_call_latency(
            window, 1,
            note=f"{self.call}: summed fast times of its {len(window.call_units)} units")

    def check(self) -> Tuple[int, int]:
        """Cold runs, warm replays and reports are checked inside :meth:`measure`."""
        return 0, 0


WORKLOADS = {cls.name: cls for cls in (ServeChurn, SoloSession, PaperSweep)}
