"""Set-up, the measured phases, and the traced run's layer probes.

Every phase times calls into the program's public functions from the
outside and checks every output it gets back: against the NumPy
reference when the request data is first made, and bit for bit against
that plan output on every later path (plan, batch, served, compiled
anew, interpreter).  A wrong output is counted in the :class:`Ledger`; it never
aborts the run.
"""

from __future__ import annotations

import math
import shutil
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro.hardboiled.tile_extractor
import repro.runtime.codegen
import repro.service.compile
from repro.lowering import lower
from repro.perfmodel import PerfModel
from repro.runtime import Counters
from repro.runtime.executor import CompiledPipeline
from repro.runtime.kernel_cache import KernelCache
from repro.runtime.plan import ExecutionPlan
from repro.service import (
    ArtifactStore,
    RejectedError,
    Router,
    Server,
    WorkerPool,
    job_fingerprint,
)
from repro.targets.device import A100, RTX4070S, SPR_AMX

from .catalog import (
    BATCH,
    BY_NAME,
    CATALOG,
    SERVE_APPS,
    AppData,
    AppSpec,
    make_data,
    matches_reference,
    serve_pool,
)
from .measure import Ledger, nearest_rank
from .tracing import Tracer

#: serving latency limit on a rate step's tail.  Under overload the
#: router's in-flight cap makes flushes batch up and the tail settles
#: near 100 ms, so a 100 ms limit flips between passing and failing from
#: run to run; 50 ms stays clear of that regime.
LATENCY_LIMIT_S = 0.05
CLIMB_START_RPS = 20.0
CLIMB_FACTOR = 1.25
#: the rate staircase's step after the climb: up after a pass, down
#: after a failure
STAIR_FACTOR = 1.1
#: tries of a rate step whose generator fell behind before it is skipped
STEP_TRIES = 3
#: distinct data arrays per served job
SERVE_POOL = 16
#: modeled devices: short name -> spec
DEVICES = {"a100": A100, "rtx4070s": RTX4070S, "spr_amx": SPR_AMX}


@dataclass
class Budget:
    """How much one run measures.

    The window is a run of cycles (see :func:`cycle`), as many as fit in
    ``window_seconds`` and at least ``min_cycles``, so that every metric
    samples the whole window rather than one stretch of a host whose
    speed drifts.
    """

    setup_repeats: int
    window_seconds: float
    min_cycles: int
    rate20_requests: int
    step_seconds: float
    #: fewest requests a rate step sends, so that one stalled request
    #: cannot decide the step's p90
    step_requests: int
    climb_max_steps: int
    burst: int
    probe_repeats: int

    @classmethod
    def for_run(cls, seconds: float, short: bool) -> "Budget":
        if short:
            return cls(
                setup_repeats=2,
                window_seconds=0.0,
                min_cycles=2,
                rate20_requests=10,
                step_seconds=0.25,
                step_requests=4,
                climb_max_steps=2,
                burst=32,
                probe_repeats=3,
            )
        return cls(
            setup_repeats=4,
            window_seconds=seconds,
            min_cycles=3,
            rate20_requests=40,
            step_seconds=0.5,
            step_requests=20,
            climb_max_steps=24,
            burst=256,
            probe_repeats=20,
        )


# -- set-up -------------------------------------------------------------------


@dataclass
class LiveApp:
    spec: AppSpec
    app: object
    pipeline: CompiledPipeline
    plan: ExecutionPlan
    #: the persistent server whose batches share weights by identity
    server: Server
    #: the app's bundled inputs by name: shapes, dtypes and scales only
    template: Dict[str, np.ndarray]
    #: stacked buffers of the shared-weights batch split
    stacked: frozenset
    has_batched: bool
    #: input name -> ImageParam; the interpreter needs the declared
    #: dtypes (bfloat16 inputs travel as float32 arrays)
    params: dict
    data: Optional[AppData] = None
    expected_base: Optional[np.ndarray] = None
    expected_shared: List[np.ndarray] = field(default_factory=list)
    expected_fresh: List[np.ndarray] = field(default_factory=list)


@dataclass
class Bench:
    """Everything one set-up builds: warm pipelines, servers, a router."""

    work: Path
    apps: Dict[str, LiveApp]
    router: Router
    jobs: list
    serve_requests: List[list] = field(default_factory=list)
    serve_expected: List[list] = field(default_factory=list)
    #: compile passes made, each in a directory of its own
    passes: int = 0

    def close(self) -> None:
        for live in self.apps.values():
            live.server.close()
        self.router.close()


def set_up(work: Path) -> Bench:
    """Build, compile (filling a fresh artifact store), warm every
    execution path, and spawn the serving router from that store."""
    store_dir = work / "store"
    store = ArtifactStore(str(store_dir))
    cache = KernelCache()
    apps: Dict[str, LiveApp] = {}
    for spec in CATALOG:
        app = spec.job.build_app()
        pipeline, _ = repro.service.compile.compile_lowered(
            lower(app.output), store, backend="compile", kernel_cache=cache
        )
        template = {param.name: array for param, array in app.inputs.items()}
        plan = pipeline.plan()
        plan.run(template)
        stacked = frozenset(
            name for name in template if name not in spec.weights
        ) | {pipeline.output_name}
        has_batched = pipeline.batched_kernel(stacked) is not None
        # the split a nothing-shared batch asks for
        pipeline.batched_kernel(frozenset(template) | {pipeline.output_name})
        server = Server(pipeline, workers=2)
        weights = {name: template[name] for name in spec.weights}
        server.run_many(
            [
                dict(
                    weights,
                    **{
                        name: array.copy()
                        for name, array in template.items()
                        if name not in spec.weights
                    },
                )
                for _ in range(BATCH)
            ]
        )
        apps[spec.name] = LiveApp(
            spec,
            app,
            pipeline,
            plan,
            server,
            template,
            stacked,
            has_batched,
            {param.name: param for param in app.inputs},
        )
    jobs = [BY_NAME[name].job for name in SERVE_APPS]
    router = Router(jobs, workers=1, cache_dir=str(store_dir))
    for name, job in zip(SERVE_APPS, jobs):
        router.run(job, apps[name].template)
    return Bench(work=work, apps=apps, router=router, jobs=jobs)


def prepare(bench: Bench, seed: int, shared: bool, ledger: Ledger) -> None:
    """Generate every request from ``seed`` and its expected output.

    The expected output is the plan's, checked once against the NumPy
    reference; every later path must reproduce it bit for bit.  Served
    requests share their job's weights by identity when ``shared``.
    """
    rng = np.random.default_rng(seed)
    for spec in CATALOG:
        live = bench.apps[spec.name]
        live.data = make_data(spec, live.template, rng, BATCH)
        live.expected_base = live.plan.run(live.data.base)
        live.expected_shared = [live.plan.run(r) for r in live.data.shared]
        live.expected_fresh = [live.plan.run(r) for r in live.data.fresh]
        for request, out in zip(
            [live.data.base] + live.data.shared + live.data.fresh,
            [live.expected_base]
            + live.expected_shared
            + live.expected_fresh,
        ):
            ledger.check(
                matches_reference(spec, request, out),
                f"{spec.name}: plan output differs from the NumPy reference",
            )
    for name in SERVE_APPS:
        spec, live = BY_NAME[name], bench.apps[name]
        pool = serve_pool(spec, live.data.base, rng, SERVE_POOL, shared)
        expected = [live.plan.run(r) for r in pool]
        for request, out in zip(pool, expected):
            ledger.check(
                matches_reference(spec, request, out),
                f"{name}: plan output differs from the NumPy reference",
            )
        bench.serve_requests.append(pool)
        bench.serve_expected.append(expected)


def install_spans(tracer: Tracer) -> None:
    """Wrap the program's public entry points in spans (traced run)."""
    tracer.patch(repro.service.compile, "compile_lowered", "compile_lowered")
    tracer.patch(repro.service.compile, "warm_select", "warm_select")
    tracer.patch(
        repro.service.compile, "select_instructions", "select_instructions"
    )
    tracer.patch(repro.service.compile, "compile_stmt", "compile_stmt")
    tracer.patch(repro.runtime.codegen, "compile_stmt", "compile_stmt")
    tracer.patch(
        repro.runtime.codegen, "compile_batched_stmt", "compile_batched_stmt"
    )
    tracer.patch(repro.hardboiled.tile_extractor, "run_phased", "run_phased")
    for method in ("get", "put", "get_kernel", "put_kernel"):
        tracer.patch(ArtifactStore, method, f"ArtifactStore.{method}")
    tracer.patch(
        CompiledPipeline, "batched_kernel", "CompiledPipeline.batched_kernel"
    )
    tracer.patch(CompiledPipeline, "run", "CompiledPipeline.run")
    tracer.patch(ExecutionPlan, "run", "ExecutionPlan.run")
    for method in ("run", "run_many"):
        tracer.patch(Server, method, f"Server.{method}")
    for method in ("run", "submit_many", "run_many"):
        tracer.patch(WorkerPool, method, f"WorkerPool.{method}")
    for method in ("run", "submit"):
        tracer.patch(Router, method, f"Router.{method}")
    tracer.patch(PerfModel, "estimate", "PerfModel.estimate")


# -- compile passes -----------------------------------------------------------


@dataclass
class CompilePass:
    traced: bool
    #: per app: seconds of its cold and of its warm compile
    cold_s: Dict[str, float] = field(default_factory=dict)
    warm_s: Dict[str, float] = field(default_factory=dict)
    #: per app: program-reported and counted numbers
    apps: Dict[str, dict] = field(default_factory=dict)
    cold_store: dict = field(default_factory=dict)
    warm_store: dict = field(default_factory=dict)


def _kernel_lines(kernel) -> int:
    source = getattr(kernel, "source", None)
    return len(source.splitlines()) if source else 0


def compile_pass(bench: Bench, tracer: Tracer, ledger: Ledger) -> CompilePass:
    """Compile the catalog cold into an empty store, then warm from it."""
    bench.passes += 1
    directory = bench.work / f"compile-{bench.passes}"
    result = CompilePass(traced=tracer.enabled)
    outputs = {}
    try:
        for mode in ("cold", "warm"):
            store = ArtifactStore(str(directory))
            cache = KernelCache()
            expect = "miss" if mode == "cold" else "hit"
            for spec in CATALOG:
                live = bench.apps[spec.name]
                start = time.perf_counter()
                with tracer.span(f"compile.{mode}", app=spec.name):
                    with tracer.span("lower"):
                        lowered = lower(live.app.output)
                    pipeline, report = repro.service.compile.compile_lowered(
                        lowered, store, backend="compile", kernel_cache=cache
                    )
                    batched = pipeline.batched_kernel(live.stacked)
                seconds = time.perf_counter() - start
                times = result.cold_s if mode == "cold" else result.warm_s
                times[spec.name] = seconds
                ledger.check(
                    report.artifact_cache == expect
                    and report.all_mapped
                    and (batched is not None) == live.has_batched,
                    f"{spec.name}: {mode} compile took the"
                    f" {report.artifact_cache} path",
                )
                row = result.apps.setdefault(spec.name, {})
                if mode == "cold":
                    kernel = cache.get(
                        pipeline.lowered, key=pipeline.cache_key
                    )
                    row.update(
                        eqsat_s=report.eqsat_seconds,
                        eqsat_profile=dict(report.eqsat_profile),
                        enodes_max=max(
                            (s.egraph_nodes for s in report.selections),
                            default=0,
                        ),
                        stores=report.num_stores,
                        mapped=report.num_mapped,
                        kernel_lines=_kernel_lines(kernel),
                        batched_kernel_lines=_kernel_lines(batched),
                    )
                else:
                    row["restore_s"] = report.restore_seconds
                row[f"{mode}_pass_seconds"] = dict(
                    pipeline.lowered.pass_seconds
                )
                outputs[(mode, spec.name)] = pipeline.run(live.data.base)
            stats = store.stats.as_dict()
            if mode == "cold":
                result.cold_store = stats
            else:
                result.warm_store = stats
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for (mode, name), out in outputs.items():
        ledger.check(
            np.array_equal(out, bench.apps[name].expected_base),
            f"{name}: {mode}-compiled output differs from the plan output",
        )
    return result


# -- kernel rounds ------------------------------------------------------------


@dataclass
class KernelRound:
    traced: bool
    #: per app, samples of seconds per request on each path
    plan_s: Dict[str, List[float]] = field(default_factory=dict)
    batch_s: Dict[str, List[float]] = field(default_factory=dict)
    batches: int = 0
    batched_batches: int = 0
    memo_hits: int = 0
    memo_misses: int = 0


def _memo(stats: dict) -> tuple:
    """(memo hits, memo misses) of a plan's or a server's stats."""
    plans = list(stats.get("plans", [stats]))
    if "batched_plan" in stats:
        plans.append(stats["batched_plan"])
    return (
        sum(p.get("memo_hits", 0) for p in plans),
        sum(p.get("memo_misses", 0) for p in plans),
    )


def kernel_slice(
    bench: Bench,
    shared: bool,
    result: KernelRound,
    tracer: Tracer,
    ledger: Ledger,
) -> None:
    """Per app, one plan run and one batch, added to ``result``.

    With ``shared`` the app's warm plan runs the base request and its
    persistent server runs the batch whose weights are the same objects
    in every request.  Otherwise every request has weights of its own and
    the plan and the server are new, so no operand memo carries over from
    one request to another and conv-family batches take the looped plan.
    """

    def count(before: dict, after: dict) -> None:
        hits, misses = _memo(before)
        result.memo_hits += _memo(after)[0] - hits
        result.memo_misses += _memo(after)[1] - misses

    for spec in CATALOG:
        live = bench.apps[spec.name]
        if shared:
            plan, request, expected = (
                live.plan, live.data.base, live.expected_base
            )
        else:
            k = len(result.plan_s.get(spec.name, ())) % BATCH
            plan, request, expected = (
                live.pipeline.plan(),
                live.data.fresh[k],
                live.expected_fresh[k],
            )
        before = plan.stats()
        with tracer.span("kernel.plan", app=spec.name):
            start = time.perf_counter()
            out = plan.run(request)
            seconds = time.perf_counter() - start
        result.plan_s.setdefault(spec.name, []).append(seconds)
        count(before, plan.stats())
        ledger.check(
            np.array_equal(out, expected),
            f"{spec.name}: plan output differs from the expected one",
        )
    for spec in CATALOG:
        live = bench.apps[spec.name]
        batch, expected = (
            (live.data.shared, live.expected_shared)
            if shared
            else (live.data.fresh, live.expected_fresh)
        )
        server = live.server if shared else Server(live.pipeline, workers=2)
        try:
            before = server.stats()
            with tracer.span("kernel.batch", app=spec.name):
                start = time.perf_counter()
                outs = server.run_many(batch)
                seconds = (time.perf_counter() - start) / BATCH
            after = server.stats()
        finally:
            if not shared:
                server.close()
        result.batch_s.setdefault(spec.name, []).append(seconds)
        result.batches += after["batches"] - before["batches"]
        result.batched_batches += (
            after["batched_batches"] - before["batched_batches"]
        )
        count(before, after)
        for out, want in zip(outs, expected):
            ledger.check(
                np.array_equal(out, want),
                f"{spec.name}: batch output differs from the plan",
            )


def _typed(live: LiveApp) -> dict:
    """The base request keyed by the app's own ImageParams."""
    return {live.params[name]: a for name, a in live.data.base.items()}


def interpreter_parity(bench: Bench, ledger: Ledger) -> None:
    """The interpreter backend must reproduce every plan output exactly."""
    for spec in CATALOG:
        live = bench.apps[spec.name]
        out = live.pipeline.run(_typed(live), backend="interpret")
        ledger.check(
            np.array_equal(out, live.expected_base),
            f"{spec.name}: interpreter output differs from the plan",
        )


# -- serving ------------------------------------------------------------------


@dataclass
class Step:
    """One open-loop step at a fixed rate."""

    rate: float
    sent: int = 0
    #: measured send rate: requests over the span of their send times
    offered_rps: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: how late the generator sent each request against its due time
    late: List[float] = field(default_factory=list)
    #: requests still outstanding when the generator finished
    backlog: int = 0
    failed: int = 0
    #: false when the generator itself fell behind its schedule
    valid: bool = True
    tail_s: float = 0.0
    passed: bool = False
    #: mean requests per router flush during the step
    flush_mean: float = 0.0

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "offered_rps": self.offered_rps,
            "sent": self.sent,
            "p50_ms": nearest_rank(self.latencies, 50) * 1e3
            if self.latencies
            else None,
            "p90_ms": self.tail_s * 1e3,
            "late_p50_ms": nearest_rank(self.late, 50) * 1e3,
            "late_max_ms": max(self.late) * 1e3,
            "backlog": self.backlog,
            "failed": self.failed,
            "valid": self.valid,
            "passed": self.passed,
            "flush_mean": self.flush_mean,
        }


@dataclass
class Sent:
    """One served request in flight."""

    rid: int
    future: Future
    which: int
    index: int
    #: when the request was due (the burst's start for a burst)
    due: float
    done_at: float = 0.0
    #: set by the future's callback once ``done_at`` is written;
    #: ``Future.result`` can return before the callbacks have run
    done: threading.Event = field(default_factory=threading.Event)

    def mark_done(self, _future) -> None:
        self.done_at = time.perf_counter()
        self.done.set()


class Traffic:
    """Interleaves the served jobs and checks every served output."""

    def __init__(self, bench: Bench, tracer: Tracer, ledger: Ledger) -> None:
        self.bench = bench
        self.tracer = tracer
        self.ledger = ledger
        self.count = 0

    def submit(self, due: float) -> Sent:
        rid = self.count
        self.count += 1
        which = rid % len(self.bench.jobs)
        index = (rid // len(self.bench.jobs)) % SERVE_POOL
        with self.tracer.span(
            "serve.send", app=SERVE_APPS[which], rid=rid
        ):
            try:
                future = self.bench.router.submit(
                    self.bench.jobs[which],
                    self.bench.serve_requests[which][index],
                )
            except RejectedError as exc:  # ShedError too: counted in collect
                future = Future()
                future.set_exception(exc)
        sent = Sent(rid, future, which, index, due)
        future.add_done_callback(sent.mark_done)
        return sent

    def collect(self, sent: List[Sent]) -> tuple:
        """Wait for every request; returns (latencies, failures)."""
        latencies, failed = [], 0
        for request in sent:
            name = SERVE_APPS[request.which]
            try:
                if not request.done.wait(timeout=60):
                    raise TimeoutError("no answer within 60 s")
                out = request.future.result(timeout=0)
            except Exception as exc:  # the router's typed errors all count
                failed += 1
                self.ledger.check(
                    False, f"served request failed: {type(exc).__name__}"
                )
                continue
            expected = self.bench.serve_expected[request.which]
            latency = request.done_at - request.due
            ok = self.ledger.check(
                np.array_equal(out, expected[request.index]),
                f"{name}: served output differs from the plan",
            ) and self.ledger.check(
                latency >= 0.0, f"{name}: negative latency {latency}"
            )
            if not ok:
                failed += 1
                continue
            latencies.append(latency)
            self.tracer.record(
                "serve.request", request.due, request.done_at, request.rid,
                name,
            )
        return latencies, failed


def open_loop(traffic: Traffic, rate: float, n: int) -> Step:
    """Send ``n`` requests at ``rate``, each timed from its due time so
    that a stall also delays the requests queued behind it."""
    step = Step(rate=rate)
    period = 1.0 / rate
    sent = []
    sent_at = []
    submitted, flushes = flush_counts(traffic.bench.router)
    origin = time.perf_counter() + 0.002
    for i in range(n):
        due = origin + i * period
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        step.late.append(now - due)
        sent_at.append(now)
        sent.append(traffic.submit(due))
    step.backlog = sum(1 for r in sent if not r.future.done())
    step.sent = n
    step.offered_rps = (n - 1) / (sent_at[-1] - sent_at[0])
    step.latencies, step.failed = traffic.collect(sent)
    step.flush_mean = mean_flush(traffic.bench.router, submitted, flushes)
    # the generator fell behind when over a tenth of its sends slipped by
    # a whole inter-arrival gap
    slipped = sum(1 for late in step.late if late > period)
    step.valid = slipped <= 0.1 * n
    step.tail_s = (
        nearest_rank(step.latencies, 90) if step.latencies else math.inf
    )
    # a request still queued at the end shows up in its own latency, so
    # the backlog test only guards a queue far past the latency limit
    step.passed = (
        step.valid
        and step.failed == 0
        and step.tail_s <= LATENCY_LIMIT_S
        and step.backlog <= max(4, 2 * rate * LATENCY_LIMIT_S)
    )
    return step


def rate_step(traffic: Traffic, rate: float, budget: Budget) -> List[Step]:
    """One step of the rate search at ``rate``, tried again (up to
    ``STEP_TRIES`` times in all) while the generator falls behind; the
    last step decides, and an invalid one neither passes nor fails."""
    n = max(budget.step_requests, round(rate * budget.step_seconds))
    steps = [open_loop(traffic, rate, n)]
    while not steps[-1].valid and len(steps) < STEP_TRIES:
        steps.append(open_loop(traffic, rate, n))
    return steps


@dataclass
class Staircase:
    """The rate search around the router's latency knee.

    Past the knee the router can meet the limit again: once requests
    queue, flushes carry several and the cost per request drops.  On a
    fast stretch of a 2-core host the climb passes straight into that
    batched regime, up to what the generator can send (near 600 req/s);
    otherwise it fails near 150-250 req/s.  The staircase stays at or
    below ``ceiling``, one step above the rate the climb ended on, so
    that it does not wander from one regime into the other within a run.
    Runs still land in either regime, so the rate it settles around is a
    per-layer figure (``serve.max_rps``) and carries no bound.
    """

    rate: float
    ceiling: float = math.inf

    def after(self, step: Step) -> None:
        """Step up after a pass, down after a failure; an invalid step
        (the generator fell behind) leaves the rate where it is."""
        if not step.valid:
            return
        if step.passed:
            self.rate = min(self.ceiling, self.rate * STAIR_FACTOR)
        else:
            self.rate /= STAIR_FACTOR


def climb(traffic: Traffic, budget: Budget) -> tuple:
    """Rates x1.25 apart from 20 req/s up to the first that fails twice
    (once can be a stall of the shared host), or that the generator
    cannot keep; returns (steps, the staircase that starts below it)."""
    steps: List[Step] = []
    rate = CLIMB_START_RPS
    for _ in range(budget.climb_max_steps):
        for _ in range(2):
            tries = rate_step(traffic, rate, budget)
            steps += tries
            if tries[-1].passed or not tries[-1].valid:
                break
        if not tries[-1].passed:
            return steps, Staircase(
                rate / STAIR_FACTOR, ceiling=rate * STAIR_FACTOR
            )
        rate *= CLIMB_FACTOR
    return steps, Staircase(rate)


def burst(traffic: Traffic, count: int) -> tuple:
    """Submit ``count`` interleaved requests at once; returns (completion
    rate, failures, mean requests per flush)."""
    submitted, flushes = flush_counts(traffic.bench.router)
    start = time.perf_counter()
    sent = [traffic.submit(start) for _ in range(count)]
    _, failed = traffic.collect(sent)
    return (
        count / (max(r.done_at for r in sent) - start),
        failed,
        mean_flush(traffic.bench.router, submitted, flushes),
    )


@dataclass
class Cycle:
    """One cycle of the measured window."""

    traced: bool
    compile: Optional["CompilePass"] = None
    #: the cycle's two kernel slices
    kernel: KernelRound = field(default_factory=lambda: KernelRound(False))
    rate20: Optional[Step] = None
    #: the staircase's steps with their tries; the valid ones decided
    stair: List[Step] = field(default_factory=list)
    #: (completion rate, mean requests per flush) of each burst
    bursts: List[tuple] = field(default_factory=list)


def cycle(
    bench: Bench,
    traffic: Traffic,
    shared: bool,
    stair: Staircase,
    budget: Budget,
    ledger: Ledger,
) -> Cycle:
    """A compile pass and a block at 20 req/s, then twice a kernel
    slice, a step of ``stair`` and a burst, so that the kernel samples
    spread over the cycle."""
    tracer = traffic.tracer
    result = Cycle(traced=tracer.enabled)
    result.kernel.traced = tracer.enabled

    def kernel() -> None:
        # a slice the program failed is counted, not measured
        ledger.attempt(
            "kernel slice",
            lambda: kernel_slice(bench, shared, result.kernel, tracer, ledger),
        )

    result.compile = ledger.attempt(
        "compile pass", lambda: compile_pass(bench, tracer, ledger)
    )
    result.rate20 = open_loop(traffic, 20.0, budget.rate20_requests)
    for _ in range(2):
        kernel()
        tries = rate_step(traffic, stair.rate, budget)
        result.stair += tries
        stair.after(tries[-1])
        rps, _, flush = burst(traffic, budget.burst)
        result.bursts.append((rps, flush))
    conserve(bench.router, "serving slice", ledger)
    return result


def flush_counts(router: Router) -> tuple:
    """(requests submitted, flushes) summed over the router's buckets."""
    buckets = router.stats()["buckets"]
    return (
        sum(b["submitted"] for b in buckets),
        sum(b["flushes"] for b in buckets),
    )


def mean_flush(router: Router, submitted: int, flushes: int) -> float:
    """Mean requests per flush since the ``flush_counts`` snapshot."""
    now_submitted, now_flushes = flush_counts(router)
    return (now_submitted - submitted) / max(1, now_flushes - flushes)


def conserve(router: Router, phase: str, ledger: Ledger) -> dict:
    """Check ``offered == completed + failed + rejected + shed + expired``
    with nothing pending once the phase's requests have all resolved."""
    deadline = time.monotonic() + 10.0
    stats = router.stats()
    while stats["pending"] and time.monotonic() < deadline:
        time.sleep(0.01)
        stats = router.stats()
    terminal = sum(
        stats[k]
        for k in ("completed", "failed", "rejected", "shed", "expired")
    )
    if stats["pending"] or stats["offered"] != terminal:
        ledger.violation(
            f"{phase}: offered={stats['offered']} terminal={terminal}"
            f" pending={stats['pending']}"
        )
    return stats


# -- traced-run layer probes --------------------------------------------------


def _timed(repeats: int, fn, check) -> List[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        check(out)
    return times


def layer_ladder(
    bench: Bench, repeats: int, ledger: Ledger
) -> Dict[str, list]:
    """One conv1d k=32 request through each serving layer in turn."""
    name = SERVE_APPS[0]
    live, job = bench.apps[name], bench.jobs[0]
    request = bench.serve_requests[0][0]
    expected = bench.serve_expected[0][0]
    batch = bench.serve_requests[0][:8]
    batch_expected = bench.serve_expected[0][:8]
    pool = bench.router.pools()[job_fingerprint(job)]

    def one(out):
        ledger.check(
            np.array_equal(out, expected), f"{name}: layer probe output"
        )

    def many(outs):
        ledger.check(
            all(np.array_equal(o, e) for o, e in zip(outs, batch_expected)),
            f"{name}: layer probe batch output",
            count=len(batch),
        )

    times = {"plan": _timed(repeats, lambda: live.plan.run(request), one)}
    with Server(live.pipeline, workers=1) as server:
        times["server"] = _timed(repeats, lambda: server.run(request), one)
    times["pool"] = _timed(repeats, lambda: pool.run(request), one)
    times["router"] = _timed(
        repeats, lambda: bench.router.run(job, request), one
    )
    times["pool_submit_many8"] = _timed(
        repeats,
        lambda: [f.result(timeout=60) for f in pool.submit_many(batch)],
        many,
    )
    times["pool_run_many8"] = _timed(
        repeats, lambda: pool.run_many(batch), many
    )
    return times


def counters_probe(
    bench: Bench, tracer: Tracer, ledger: Ledger
) -> Dict[str, dict]:
    """Interpreter counters and modeled device times per app."""
    rows = {}
    for spec in CATALOG:
        live = bench.apps[spec.name]
        counters = Counters()
        with tracer.span("kernel.counters", app=spec.name):
            out = live.pipeline.run(_typed(live), counters=counters)
            scaled = counters.scaled(live.app.scale_factor)
            modeled = {
                device: PerfModel(spec_).estimate(
                    scaled, kernels=live.app.kernels
                ).ms()
                for device, spec_ in DEVICES.items()
            }
        ledger.check(
            np.array_equal(out, live.expected_base),
            f"{spec.name}: interpreter output differs from the plan",
        )
        levels = set(counters.load_bytes) | set(counters.store_bytes)
        rows[spec.name] = {
            "tensor_macs": counters.tensor_macs,
            "int8_macs": counters.int8_macs,
            "bytes": {
                level: counters.load_bytes.get(level, 0)
                + counters.store_bytes.get(level, 0)
                for level in sorted(levels)
            },
            "modeled_ms": modeled,
        }
    return rows
