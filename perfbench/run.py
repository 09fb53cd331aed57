"""Benchmark of the seymour toolkit: one workload, one seed, one result line.

Run from the root of a seymour checkout:

    python3 perfbench/run.py --workload exhaustive-n6 --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of that checkout and driven only
through the public calls the ``seymour search``, ``product`` and ``filter``
commands make.  Units of work run back to back until the next one would end
after ``--seconds``; at least one always runs.  Every output is checked.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper
installed, and the times of the short-unit workloads are scaled to a
nominal host speed measured by the reference loop of ``reference.py``
around each unit.  With ``--trace 1`` the same loop runs twice for half the time
each, first plain and then with the layer wrappers of ``tracer.py``, and the
per-layer metrics (per unit of work) are reported with the difference as
tracing overhead.  Spans and counts go to ``perfbench/out/``.

stdout holds one line per metric, the machine, and as its last line a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy
from reference import LOOPS, reference_s
from tracer import Tracer, instrument, traced_peak_mb
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INIT = ROOT / "src" / "seymour" / "__init__.py"
OUT = HERE / "out"
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import seymour; "
    "print(time.perf_counter() - t, seymour.__file__)"
)


def load_seymour() -> Any:
    if not INIT.is_file():
        sys.exit(f"perfbench: {INIT.relative_to(ROOT)} not found; run from a seymour checkout")
    sys.path.insert(0, str(INIT.parent.parent))
    import seymour

    if Path(seymour.__file__).resolve() != INIT:
        sys.exit(f"perfbench: imported seymour from {seymour.__file__}, not {INIT}")
    return seymour


def import_seconds() -> float:
    """Time of `import seymour` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(INIT.parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, path = proc.stdout.split()
    if Path(path).resolve() != INIT:
        raise RuntimeError(f"fresh interpreter imported seymour from {path}")
    return float(seconds)


def machine(numpy_version: str) -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def plain_measure(call: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def measure_units(workload: Any, seconds: float, measure) -> tuple[list[Any], list[float]]:
    """Run whole units while the next one is expected to end within seconds.

    The host-speed reference runs before each unit and after the last, so
    unit i lies between references i and i + 1.
    """
    kind = workload.reference
    units: list[Any] = []
    refs = [reference_s(kind)] if kind else []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        units.append(workload.unit(measure))
        last = time.perf_counter() - unit_start
        if kind:
            refs.append(reference_s(kind))
        if time.perf_counter() - start + last > seconds:
            return units, refs


def end_to_end(units: list[Any], refs: list[float], kind: str | None, setup_s: float) -> tuple:
    """Medians over the units that had no failure, scaled to the nominal host speed.

    Every unit runs the same items on the same inputs.  Each item time is
    scaled by the reference's nominal time over the mean of the two
    references around its unit (not at all for a workload without a
    reference); an item's figure is the median of its
    scaled times, and ``wall_s`` is the sum over items: the median call for
    a search workload, the median pass for product-filter.
    """
    def scale(i: int) -> float:
        return LOOPS[kind][1] * 2 / (refs[i] + refs[i + 1]) if kind else 1.0

    clean = [(u, scale(i)) for i, u in enumerate(units) if u.failed == 0]
    if not clean:
        sys.exit("perfbench: no unit of work completed without a failure")
    items = list(zip(*(u.item_s for u, _ in clean)))
    scales = [scale for _, scale in clean]
    items_ms = [statistics.median(t * k for t, k in zip(times, scales)) * 1000 for times in items]
    wall_s = sum(items_ms) / 1000
    metrics = {
        "wall_s": (wall_s, "s"),
        "graphs_per_s": (clean[0][0].graphs / wall_s, "1/s"),
        "item_ms.p50": (percentile(items_ms, 50), "ms"),
        "item_ms.p95": (percentile(items_ms, 95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    timed = len(clean) * len(items_ms)
    samples = {
        "wall_s": timed,
        "graphs_per_s": timed,
        "item_ms.p50": timed,
        "item_ms.p95": timed,
        "setup_s": SETUP_REPEATS,
        "peak_rss_mb": 1,
    }
    raw = {
        "raw_wall_s": sum(statistics.median(times) for times in items),
        "host_scale": statistics.median(scales),
    }
    return metrics, samples, raw


def per_layer(tracer: Any, units: int, untraced: list[Any], chunk_peak_mb: float) -> dict:
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    chunk_ms = [d * 1000 for d in tracer.durations["search.chunk"]]
    examined = counts["search.examined"]
    traced_unit_s = total_s["bench.item"] / units
    untraced_unit_s = statistics.fmean(u.wall_s for u in untraced)
    metrics = {
        "search.kernel_s": (self_s["search.chunk"] / units, "s"),
        "search.chunk_ms.p50": (percentile(chunk_ms, 50) if chunk_ms else 0.0, "ms"),
        "search.chunk_ms.p95": (percentile(chunk_ms, 95) if chunk_ms else 0.0, "ms"),
        "search.chunks": (calls["search.chunk"] / units, "count"),
        "search.chunk_peak_mb": (chunk_peak_mb, "MB"),
        "search.draw_s": (self_s["search.draw"] / units, "s"),
        "search.driver_s": (self_s["search.driver"] / units, "s"),
        "search.candidates": (counts["search.candidates"] / units, "count"),
        "search.candidate_ratio": (
            counts["search.candidates"] / examined if examined else 0.0,
            "ratio",
        ),
        "digraph.construct_s": (self_s["digraph.construct"] / units, "s"),
        "digraph.construct_calls": (calls["digraph.construct"] / units, "count"),
        "digraph.edges_in": (counts["digraph.edges_in"] / units, "count"),
        "digraph.query_s": ((self_s["digraph.query"] + self_s["digraph.profile"]) / units, "s"),
        "digraph.query_calls": (
            (calls["digraph.query"] + calls["digraph.profile"]) / units,
            "count",
        ),
        "digraph.profile_calls": (calls["digraph.profile"] / units, "count"),
        "filtering.run_s": (total_s["filtering.run"] / units, "s"),
        "filtering.calls": (calls["filtering.run"] / units, "count"),
    }
    for k in range(8):
        metrics[f"filtering.condition_s.{k}"] = (total_s[f"filtering.condition.{k}"] / units, "s")
    metrics |= {
        "structure.s": (self_s["structure"] / units, "s"),
        "structure.calls": (calls["structure"] / units, "count"),
        "product.build_s": (self_s["product.build"] / units, "s"),
        "product.edges_out": (counts["product.edges_out"] / units, "count"),
        "textio.write_s": (self_s["textio.write"] / units, "s"),
        "textio.parse_s": (self_s["textio.parse"] / units, "s"),
        "textio.bytes": (counts["textio.bytes"] / units, "count"),
    }
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"self_s.{layer}"] = (seconds / units, "s")
    metrics |= {
        "trace.unit_s": (traced_unit_s, "s"),
        "trace.untraced_unit_s": (untraced_unit_s, "s"),
        "trace.overhead_s": (traced_unit_s - untraced_unit_s, "s"),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seymour = load_seymour()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    host = machine(numpy.__version__)

    # each set-up is scaled like the units, by interpreter-bound references around it
    setup_refs = [reference_s("python")]
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](seymour, args.seed)
        raw_setups.append(imported + time.perf_counter() - start)
        setup_refs.append(reference_s("python"))
        setups.append(raw_setups[-1] * LOOPS["python"][1] * 2 / sum(setup_refs[-2:]))

    record: dict[str, Any] = {}
    untraced: list[Any] = []
    if args.trace:
        untraced, _ = measure_units(workload, args.seconds / 2, plain_measure)
        tracer = Tracer()

        def traced_measure(call: Callable[[], Any]) -> tuple[float, Any]:
            with tracer.span("bench.item"):
                return plain_measure(call)

        first_task = instrument(tracer, seymour)
        try:
            units, _ = measure_units(workload, args.seconds / 2, traced_measure)
        finally:
            tracer.unpatch()
        search_chunk = sys.modules["seymour.search"]._search_chunk
        chunk_peak = traced_peak_mb(lambda: search_chunk(first_task[0])) if first_task else 0.0
        metrics = per_layer(tracer, len(units), untraced, chunk_peak)
        samples = {"units": len(units), "untraced_units": len(untraced)}
        missing = [kind for kind in workload.kinds if not tracer.calls[kind]]
        if missing:
            print(f"perfbench: no calls recorded for {missing}; a call site moved", file=sys.stderr)
        origin = min((s[3] for s in tracer.spans), default=0.0)
        record = {
            "spans": [[i, p, kind, a - origin, b - origin] for i, p, kind, a, b in tracer.spans],
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counts": dict(tracer.counts),
        }
    else:
        units, refs = measure_units(workload, args.seconds, plain_measure)
        metrics, samples, raw = end_to_end(
            units, refs, workload.reference, statistics.median(setups)
        )
        record = {"reference": workload.reference, "reference_s": refs, **raw}

    attempted = sum(u.attempted for u in untraced + units)
    failed = sum(u.failed for u in untraced + units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "machine": host,
                "samples": samples,
                "setup_samples_s": setups,
                "raw_setup_samples_s": raw_setups,
                "unit_wall_s": [u.wall_s for u in units],
                "item_s": [u.item_s for u in units],
                "result": result,
                **record,
            },
            indent=1,
        )
    )

    where = out_file.relative_to(ROOT)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} -> {where}")
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"  {name:<28} {value:14.6g} {unit:<6}" + (f" n={n}" if n else ""))
    print(f"  {'failed_frac':<28} {failed / attempted:14.6g} ratio  {failed}/{attempted}")
    if "raw_wall_s" in record:
        raw_wall, host_scale = record["raw_wall_s"], record["host_scale"]
        print(f"  {'raw_wall_s':<28} {raw_wall:14.6g} s      host scale x{host_scale:.3f}")
    print(f"  machine {json.dumps(host)}  samples {json.dumps(samples)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
