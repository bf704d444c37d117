"""Metric names and units, and how each is computed from a run's records.

The names and units of the metrics are read from ``BENCHMARK.json``.  It lists at most 128 per-layer metrics;
:func:`layer_metrics` computes more than that, and the rest are written
to the trace file only (see ``TRACE_ONLY``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

from .catalog import CATALOG
from .measure import geomean, mean, median, tail

APPS = [spec.name for spec in CATALOG]

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
END_TO_END: Dict[str, str] = {
    m["name"]: m["unit"] for m in _SPEC["end_to_end"]
}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: printed with the end-to-end table; it travels in the result line as
#: ``failed``/``attempted`` because a metric that reads 0 cannot carry a
#: bound relative to its median
ERROR_FRAC = ("error_frac", "fraction")

#: computed by the traced run but kept out of ``PER_LAYER`` (at most 128
#: names there); each is a finer split of a listed aggregate
TRACE_ONLY = {
    "eqsat.saturate_ms.<app>": "summed in eqsat.saturate_ms",
    "eqsat.enodes_max.<app>": "maximum in eqsat.enodes_max",
    "counters.tensor_macs.<app>": "summed in counters.tensor_macs",
    "counters.int8_macs.<app>": "int8 work of the dp4a apps",
    "counters.bytes.<level>.<app>": "dram_unique summed in"
    " counters.bytes.dram_unique",
    "perfmodel.modeled_ms.<app>.<device>": "summed per device in"
    " perfmodel.modeled_ms.<device>",
}

Metrics = Dict[str, Tuple[float, str]]


def end_to_end(
    setup_s: float, cycles: list, climb: list
) -> Tuple[Metrics, Dict[str, object]]:
    """The end-to-end metrics, and the sample count behind each.

    A compile rate is over the median pass.  A kernel time is the app's
    fastest sample over the window: a call takes milliseconds, so a
    stall of the shared host hits a call or misses it, and the fastest
    sample is the one it missed.  Serving latencies come from the faster
    half of the 20 req/s blocks (ranked by median latency) and the burst
    rate is the mean of the faster half of the bursts, which drops the
    stretches when other load slowed the host.
    """
    passes = [c.compile for c in cycles if c.compile is not None]
    rounds = [c.kernel for c in cycles if c.kernel.plan_s]
    blocks = [c.rate20.latencies for c in cycles if c.rate20.latencies]
    faster = sorted(blocks, key=median)[: (len(blocks) + 1) // 2]
    latencies = [x for block in faster for x in block]
    stairs = [s for c in cycles for s in c.stair if s.valid]
    rates = sorted(
        (rps for c in cycles for rps, _ in c.bursts if rps > 0), reverse=True
    )
    bursts = rates[: (len(rates) + 1) // 2]

    def kernel(attr: str) -> float:
        return 1e3 * geomean(
            [min(_samples(rounds, attr, app), default=math.nan)
             for app in APPS]
        )

    tail_s, tail_pct = tail(latencies) if latencies else (math.nan, 0.0)
    values = {
        "setup_s": setup_s,
        "compile_cold_apps_per_s": len(APPS)
        / median([sum(p.cold_s.values()) for p in passes]),
        "compile_warm_apps_per_s": len(APPS)
        / median([sum(p.warm_s.values()) for p in passes]),
        "run_geomean_ms": kernel("plan_s"),
        "batch_geomean_ms": kernel("batch_s"),
        "serve_p50_ms": 1e3 * median(latencies),
        "serve_tail_ms": 1e3 * tail_s,
        "serve_burst_rps": mean(bursts),
    }
    samples = {
        "cycles": len(cycles),
        "compile_passes": len(passes),
        "kernel_cycles": len(rounds),
        "plan_samples_per_app": len(_samples(rounds, "plan_s", APPS[0])),
        "batch_samples_per_app": len(_samples(rounds, "batch_s", APPS[0])),
        "serve_rate20_blocks": len(blocks),
        "serve_rate20_faster_blocks": len(faster),
        "serve_rate20_requests": len(latencies),
        "serve_tail_percentile": tail_pct,
        "climb_steps": len(climb),
        "stair_steps": len(stairs),
        "stair_steps_passed": sum(1 for s in stairs if s.passed),
        "rate_steps_invalid": sum(
            1 for s in climb + [s for c in cycles for s in c.stair]
            if not s.valid
        ),
        "serve_bursts": len(rates),
        "serve_faster_bursts": len(bursts),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, samples


def cycle_summary(c) -> dict:
    """One cycle's record, as written to the result file."""
    return {
        "traced": c.traced,
        "compile_s": None
        if c.compile is None
        else {"cold": c.compile.cold_s, "warm": c.compile.warm_s},
        "kernel_ms": {
            path: {
                app: [1e3 * x for x in samples]
                for app, samples in getattr(c.kernel, attr).items()
            }
            for path, attr in (("plan", "plan_s"), ("batch", "batch_s"))
        },
        "rate20": c.rate20.summary(),
        "rate20_latencies_ms": [1e3 * x for x in c.rate20.latencies],
        "stair": [step.summary() for step in c.stair],
        "bursts": [
            {"rps": rps, "flush_mean": flush} for rps, flush in c.bursts
        ],
    }


def _samples(rounds: list, attr: str, app: str) -> List[float]:
    """Every sample of one app on one kernel path, over ``rounds``."""
    return [x for r in rounds for x in getattr(r, attr).get(app, ())]


def _round_seconds(r) -> float:
    return sum(
        sum(x for samples in getattr(r, attr).values() for x in samples)
        for attr in ("plan_s", "batch_s")
    )


def _ms(values: List[float]) -> float:
    return 1e3 * median(values) if values else float("nan")


def layer_metrics(
    tracer,
    cycles: list,
    ladder_times: Dict[str, list],
    counter_rows: Dict[str, dict],
    serve_stats: Dict[str, object],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, ``PER_LAYER`` and trace-only alike.

    Span-derived times come from the traced cycles only; numbers the
    program reports itself (selection reports, store, server, pool and
    router stats) are labelled as such in the trace file.
    """
    passes = [c.compile for c in cycles if c.compile is not None]
    rounds = [c.kernel for c in cycles if c.kernel.plan_s]
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    traced_rounds = [r for r in rounds if r.traced]
    plain_rounds = [r for r in rounds if not r.traced]
    out: Dict[str, Tuple[float, str]] = {}

    for app in APPS:
        rows = [p.apps[app] for p in traced]
        out[f"lowering.lower_ms.{app}"] = (
            _ms(tracer.durations("lower", app)), "ms")
        out[f"hardboiled.select_ms.{app}"] = (
            _ms(tracer.durations("select_instructions", app)), "ms")
        out[f"codegen.compile_ms.{app}"] = (
            _ms(tracer.durations("compile_stmt", app)), "ms")
        out[f"codegen.batched_compile_ms.{app}"] = (
            _ms(tracer.durations("compile_batched_stmt", app)), "ms")
        out[f"codegen.kernel_lines.{app}"] = (
            rows[-1]["kernel_lines"], "lines")
        out[f"compile.restore_ms.{app}"] = (
            _ms([row["restore_s"] for row in rows]), "ms")
        out[f"plan.run_ms.{app}"] = (
            _ms(
                tracer.durations(
                    "ExecutionPlan.run", app, under="kernel.plan"
                )
            ),
            "ms",
        )
        out[f"batch.req_ms.{app}"] = (
            _ms(_samples(traced_rounds, "batch_s", app)), "ms")
        out[f"eqsat.saturate_ms.{app}"] = (
            _ms([row["eqsat_s"] for row in rows]), "ms")
        out[f"eqsat.enodes_max.{app}"] = (rows[-1]["enodes_max"], "count")

    def summed(key: str) -> float:
        return _ms(
            [sum(p.apps[a]["eqsat_profile"].get(key, 0.0) for a in APPS)
             for p in traced]
        )

    out["eqsat.saturate_ms"] = (
        _ms([sum(p.apps[a]["eqsat_s"] for a in APPS) for p in traced]), "ms")
    out["eqsat.match_ms"] = (summed("match_s"), "ms")
    out["eqsat.apply_ms"] = (summed("apply_s"), "ms")
    out["eqsat.rebuild_ms"] = (summed("rebuild_s"), "ms")
    last = traced[-1]
    out["eqsat.enodes_max"] = (
        max(last.apps[a]["enodes_max"] for a in APPS), "count")
    out["hardboiled.mapped_frac"] = (
        sum(last.apps[a]["mapped"] for a in APPS)
        / max(1, sum(last.apps[a]["stores"] for a in APPS)),
        "fraction",
    )
    out["store.put_ms"] = (
        _ms(tracer.durations("ArtifactStore.put", under="compile.cold")
            + tracer.durations("ArtifactStore.put_kernel",
                               under="compile.cold")),
        "ms",
    )
    out["store.get_ms"] = (
        _ms(tracer.durations("ArtifactStore.get", under="compile.warm")
            + tracer.durations("ArtifactStore.get_kernel",
                               under="compile.warm")),
        "ms",
    )
    out["store.hits"] = (last.warm_store["hits"], "count")
    out["store.misses"] = (last.cold_store["misses"], "count")
    out["store.writes"] = (last.cold_store["writes"], "count")

    batches = sum(r.batches for r in traced_rounds)
    out["batch.batched_frac"] = (
        sum(r.batched_batches for r in traced_rounds) / max(1, batches),
        "fraction",
    )
    hits = sum(r.memo_hits for r in traced_rounds)
    misses = sum(r.memo_misses for r in traced_rounds)
    out["arena.memo_hit_frac"] = (hits / max(1, hits + misses), "fraction")

    devices = sorted({d for row in counter_rows.values()
                      for d in row["modeled_ms"]})
    for app, row in counter_rows.items():
        out[f"counters.tensor_macs.{app}"] = (row["tensor_macs"], "count")
        out[f"counters.int8_macs.{app}"] = (row["int8_macs"], "count")
        for level, nbytes in row["bytes"].items():
            out[f"counters.bytes.{level}.{app}"] = (nbytes, "bytes")
        for device, ms in row["modeled_ms"].items():
            out[f"perfmodel.modeled_ms.{app}.{device}"] = (ms, "ms")
    out["counters.tensor_macs"] = (
        sum(r["tensor_macs"] for r in counter_rows.values()), "count")
    out["counters.bytes.dram_unique"] = (
        sum(r["bytes"].get("dram_unique", 0) for r in counter_rows.values()),
        "bytes",
    )
    for device in devices:
        out[f"perfmodel.modeled_ms.{device}"] = (
            sum(r["modeled_ms"][device] for r in counter_rows.values()), "ms")

    for layer in ("plan", "server", "pool", "router"):
        out[f"ladder.{layer}_ms"] = (_ms(ladder_times[layer]), "ms")
    out["pool.submit_many8_ms"] = (
        _ms(ladder_times["pool_submit_many8"]), "ms")
    out["pool.run_many8_ms"] = (_ms(ladder_times["pool_run_many8"]), "ms")

    # the rate the staircase settles around: the highest rate that meets
    # the latency limit.  It is not an end-to-end metric because it is
    # bistable (see Staircase) and so cannot carry a bound.
    out["serve.max_rps"] = (
        mean([s.offered_rps for c in cycles for s in c.stair if s.valid]),
        "req/s",
    )
    stairs = [step for c in cycles for step in c.stair if step.passed]
    out["router.flush_size_mean.rate20"] = (
        median([c.rate20.flush_mean for c in cycles]), "requests")
    out["router.flush_size_mean.last_pass"] = (
        max(stairs, key=lambda s: s.rate).flush_mean
        if stairs
        else math.nan,
        "requests",
    )
    out["router.flush_size_mean.burst"] = (
        median([flush for c in cycles for _, flush in c.bursts]), "requests")
    for name, value in serve_stats.items():
        out[name] = (value, PER_LAYER.get(name, "count"))

    def overhead(on: List[float], off: List[float]) -> float:
        return median(on) / median(off) - 1.0  # NaN without both kinds

    out["trace.overhead_frac.compile"] = (
        overhead([sum(p.cold_s.values()) + sum(p.warm_s.values())
                  for p in traced],
                 [sum(p.cold_s.values()) + sum(p.warm_s.values())
                  for p in plain]),
        "fraction",
    )
    out["trace.overhead_frac.kernel"] = (
        overhead(
            [_round_seconds(r) for r in traced_rounds],
            [_round_seconds(r) for r in plain_rounds],
        ),
        "fraction",
    )
    return out
