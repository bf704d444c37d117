"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shared_weights --seed 1 \\
        --seconds 40 --trace 0

Every run sets up the whole program four times, twice before the
measured window and twice after it (build the 10-app catalog, compile
it into a fresh artifact store, warm every execution path, spawn the
serving router), and reports the median set-up time.  It
then climbs open-loop rates to the router's latency knee, and for
``--seconds`` runs cycles of a compile pass over the catalog, a kernel
round over the same apps and a serving slice (a block at 20 req/s,
staircase rate steps around the knee, bursts), so that every metric
samples the whole window.  The workload sets how the generated requests
share data: ``shared_weights`` gives every request of an app the same
weight arrays, ``distinct_weights`` gives each request its own.
``--trace 1`` records spans around the calls into each layer and
reports the per-layer metrics instead.  Each run writes its full record
(host facts, sample counts, every cycle, spans) to ``perfbench/out/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORK = ROOT / "perfbench" / "_work"

#: workload -> whether requests share their weights by identity
WORKLOADS = {"shared_weights": True, "distinct_weights": False}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short",
        action="store_true",
        help="tiny fixed budgets, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it.

    Raises ``ImportError`` when the checkout has no program to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import numpy  # noqa: F401
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not {src}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
    }


def _child_pids() -> list:
    """Pids of this process's children, zombies included (Linux ``/proc``)."""
    me = os.getpid()
    children = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process the run started.

    Worker processes get ``timeout`` to finish their own shutdown and are
    killed after it.  The multiprocessing resource tracker, which shared
    memory starts and which would otherwise exit only after this process
    does, is told to stop by closing its pipe.  Every child is then
    waited for, so none outlives the run, not even as a zombie.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join(1.0)
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        fd, tracker._fd, tracker._pid = tracker._fd, None, None
        os.close(fd)
    for pid in _child_pids():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass


def serve_layer_stats(before: dict, after: dict) -> dict:
    """Serving-tier counters over the serve phase (program's own stats)."""
    def pools(stats, key):
        return sum(p[key] for p in stats["pools"].values())

    def transport(stats, key):
        return sum(p["transport"][key] for p in stats["pools"].values())

    def full_events(stats):
        return sum(
            ring["full_events"]
            for p in stats["pools"].values()
            for ring in p["transport"]["rings"]
        )

    completed = pools(after, "completed") - pools(before, "completed")
    return {
        "shm.request_frac": (
            transport(after, "shm_requests")
            - transport(before, "shm_requests")
        )
        / max(1, completed),
        "shm.full_events": full_events(after) - full_events(before),
        "pool.retries": pools(after, "retries") - pools(before, "retries"),
        "pool.restarts": pools(after, "restarts") - pools(before, "restarts"),
        "router.shed": after["shed"] - before["shed"],
        "router.expired": after["expired"] - before["expired"],
        "router.rejected": after["rejected"] - before["rejected"],
    }


def measure(args, import_s: float) -> dict:
    """Set up, climb to the serving knee, run the window of cycles, and
    return every record."""
    from perfbench import phases
    from perfbench.measure import Ledger, median
    from perfbench.tracing import Tracer

    budget = phases.Budget.for_run(args.seconds, args.short)
    shared = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    tracer = Tracer(enabled=False)
    records: dict = {"ledger": ledger, "tracer": tracer}
    setups: list = []
    bench = None

    def set_up_again() -> None:
        """Close the current set-up, if any, and time a new one."""
        nonlocal bench
        if bench is not None:
            bench.close()
            shutil.rmtree(bench.work, ignore_errors=True)
            bench = None
        start = time.perf_counter()
        bench = phases.set_up(work / f"setup-{len(setups)}")
        setups.append(time.perf_counter() - start)

    try:
        # set-up is timed at both ends of the run, so that a short slow
        # stretch of the shared host cannot decide the median; the first
        # half comes before the window and the last set-up of it is the
        # one measured, and the rest after it, one bench alive at a time
        for _ in range(budget.setup_repeats - budget.setup_repeats // 2):
            set_up_again()
        phases.prepare(bench, args.seed, shared, ledger)
        if args.trace:
            phases.install_spans(tracer)

        router = bench.router
        traffic = phases.Traffic(bench, tracer, ledger)
        before = router.stats()
        tracer.enabled = bool(args.trace)
        climb, stair = phases.climb(traffic, budget)
        phases.conserve(router, "climb", ledger)
        # a traced run alternates traced and untraced cycles to measure
        # the tracing overhead; a cycle starts only when one of the
        # cycles' mean length still fits in the window
        cycles = []
        start = time.perf_counter()
        while len(cycles) < budget.min_cycles or (
            time.perf_counter() - start
        ) * (len(cycles) + 1) / len(cycles) <= budget.window_seconds:
            tracer.enabled = bool(args.trace) and len(cycles) % 2 == 0
            cycles.append(
                phases.cycle(bench, traffic, shared, stair, budget, ledger)
            )
        records.update(
            climb=climb,
            cycles=cycles,
            serve_stats=serve_layer_stats(before, router.stats()),
        )
        tracer.enabled = bool(args.trace)
        if args.trace:
            records["ladder_times"] = phases.layer_ladder(
                bench, budget.probe_repeats, ledger
            )
            records["counters"] = phases.counters_probe(bench, tracer, ledger)
        else:
            phases.interpreter_parity(bench, ledger)
        records["router_stats"] = phases.conserve(router, "end", ledger)
        tracer.enabled = False
        for _ in range(budget.setup_repeats // 2):
            set_up_again()
        records["setup_s"] = import_s + median(setups)
        records["setup_samples"] = setups
    finally:
        tracer.enabled = False
        tracer.unpatch()
        if bench is not None:
            bench.close()
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    return records


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_workload(args)
    finally:
        stop_children()


def run_workload(args) -> int:
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START

    from perfbench import report

    records = measure(args, import_s)
    ledger = records["ledger"]
    tracer = records["tracer"]
    cycles = records["cycles"]
    facts = host_facts(args)
    e2e, samples = report.end_to_end(
        records["setup_s"], cycles, records["climb"]
    )
    samples["setup_repeats"] = len(records["setup_samples"])
    table = dict(e2e)
    table[report.ERROR_FRAC[0]] = (ledger.error_frac, report.ERROR_FRAC[1])

    result = {
        "host": facts,
        "samples": samples,
        "end_to_end": {
            k: {"value": v, "unit": u} for k, (v, u) in table.items()
        },
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "violations": ledger.violations,
        "setup_samples_s": records["setup_samples"],
        "climb": [step.summary() for step in records["climb"]],
        "cycles": [report.cycle_summary(c) for c in cycles],
        "router": {
            k: records["router_stats"][k]
            for k in ("offered", "completed", "failed", "rejected", "shed",
                      "expired", "pending")
        },
    }
    traced = [c for c in cycles if c.traced and c.compile and c.kernel.plan_s]
    if args.trace and not traced:
        ledger.violation("no traced compile pass and kernel round completed")
        shown = {
            name: (math.nan, unit) for name, unit in report.PER_LAYER.items()
        }
    elif args.trace:
        layers = report.layer_metrics(
            tracer,
            cycles,
            records["ladder_times"],
            records["counters"],
            records["serve_stats"],
        )
        result["per_layer"] = {
            k: {"value": v, "unit": u} for k, (v, u) in layers.items()
        }
        result["trace_only"] = report.TRACE_ONLY
        # numbers the program reports about itself, as it reports them
        result["program"] = {
            "compile_passes": [
                {
                    "selection": c.compile.apps,
                    "cold_store": c.compile.cold_store,
                    "warm_store": c.compile.warm_store,
                }
                for c in traced
            ],
            "serving": records["serve_stats"],
        }
        result["self_ms"] = {
            name: 1e3 * seconds
            for name, seconds in sorted(tracer.self_seconds().items())
        }
        result["spans"] = {
            "columns": ["id", "name", "start", "end", "parent", "thread",
                        "rid", "app"],
            "rows": [span.row() for span in tracer.spans],
        }
        shown = {name: layers[name] for name in report.PER_LAYER}
    else:
        shown = e2e

    # a value that could not be measured is reported as 0 and named in the
    # record; on an end-to-end metric it fails the run
    missing = sorted(n for n, (v, _) in shown.items() if not math.isfinite(v))
    shown = {
        n: (v if math.isfinite(v) else 0.0, u) for n, (v, u) in shown.items()
    }
    result["missing"] = missing
    if missing and not args.trace:
        ledger.violation(f"end-to-end metrics not measured: {missing}")

    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1, default=repr))

    print("host: " + json.dumps(facts))
    print("samples: " + json.dumps(samples))
    print_table("end-to-end" + (" (traced)" if args.trace else ""), table)
    if args.trace:
        print_table("per-layer", shown)
    for error in ledger.errors:
        print(f"error: {error}")
    for violation in ledger.violations:
        print(f"violation: {violation}")
    print(f"records: {path.relative_to(ROOT)}")
    correct = ledger.failed == 0 and not ledger.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()
                },
            },
            allow_nan=False,
        )
    )
    return 1 if ledger.violations else 0


if __name__ == "__main__":
    sys.exit(main())
