"""Benchmark of the whole frame path: fleet forwarding, control-plane
churn and adaptive overload, with per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

``--workload`` is one of the workloads listed in ``BENCHMARK.json``
(``steady``, ``churn``, ``overload``).  Inputs derive from ``--seed``
only.  With ``--trace 0`` the run sets the system up several times
(``setup_s`` is the median), measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it measures half the time
untraced and half with every layer's entry points wrapped, and reports
the per-layer metrics, the tracing overhead and whether layer self
times add up to the traced wall time; spans are written to
``.perfbench-out/``.  Every timed run is followed by an untimed
verification pass on the same seed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit, in
the order and units ``BENCHMARK.json`` declares).  Metric definitions
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 5
#: Figures an untraced run prints for people but does not gate on.
NOT_GATED = (
    ("lat_p99_us", "us"),
    ("late_max_us", "us"),
    ("offered_rate", "frames/s"),
    ("achieved_rate", "frames/s"),
    ("open_utilisation", "ratio"),
    ("flow_setup_p50_us", "us"),
    ("flow_setup_p99_us", "us"),
    ("reconfig_ms", "ms"),
)
OUT_DIR = ".perfbench-out"


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, args, gates_out: list) -> tuple[dict, int]:
    setup_times = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            workload.teardown(system)
        start = time.perf_counter()
        system = workload.setup()
        setup_times.append(time.perf_counter() - start)
    measured = workload.measure(system, args.seconds)
    rss = peak_rss_mb()
    workload.teardown(system)
    gates_out.append(measured.gates)
    print(f"loss_frac: {1 - measured.delivered_frac:.6g} ratio (not gated)")
    for name, unit in NOT_GATED:
        value = getattr(measured, name)
        if value is not None:
            print(f"{name}: {value:.6g} {unit} (not gated)")
    values = {
        "fwd_kpps": measured.fwd_kpps,
        "lat_p50_us": measured.lat_p50_us,
        "delivered_frac": measured.delivered_frac,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    return values, measured.attempted


def traced_run(workload, args, gates_out: list) -> tuple[dict, int]:
    from perfbench import layers
    from perfbench.tracing import GcMonitor, Tracer

    half = args.seconds / 2
    system = workload.setup()
    with GcMonitor() as gc_monitor:
        untraced = workload.measure(system, half)
    workload.teardown(system)

    tracer = Tracer()
    try:
        rx_depth = layers.install(tracer)
        system = workload.setup()
        traced = workload.measure(system, half, tracer)
        workload.teardown(system)
    finally:
        tracer.restore()
    spans = tracer.write_spans(
        ROOT / OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    )
    print(f"spans: {tracer.recorded} of {tracer.spans_seen} written to {spans}")
    for label, run in (("untraced", untraced), ("traced", traced)):
        print(
            f"{label}: fwd_kpps {run.fwd_kpps:.6g}, lat_p50_us {run.lat_p50_us:.6g}, "
            f"lat_p99_us {run.lat_p99_us:.6g}"
        )
    gates_out += [untraced.gates, traced.gates]
    values = layers.metrics(
        traced, untraced, rx_depth, (gc_monitor.gen2_count, gc_monitor.gen2_ns)
    )
    attributed = values["trace.attributed_frac"]
    frame_us = traced.busy_seconds * 1e6 / traced.busy_frames
    print(
        f"reconciliation: reported layer times add up to {attributed * frame_us:.4g} us "
        f"of {frame_us:.4g} us traced wall time per frame ({attributed:.3f})"
    )
    missing = layers.unreported(traced.busy_spans)
    traced.gates.check(
        not missing, f"traced spans no per-layer metric reports: {missing}"
    )
    traced.gates.check(
        layers.ATTRIBUTION_MIN <= attributed <= 1.0,
        f"reported layer times add up to {attributed:.3f} of the traced wall "
        f"time (need {layers.ATTRIBUTION_MIN} to 1.0)",
    )
    return values, untraced.attempted + traced.attempted


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            "perfbench: needs a checkout of the repository (src/repro and "
            "BENCHMARK.json); nothing to measure here",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.churn import Churn
    from perfbench.common import Gates
    from perfbench.overload import Overload
    from perfbench.steady import Steady

    workloads = {workload.name: workload for workload in (Steady, Churn, Overload)}

    spec = json.loads(spec_path.read_text())
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workload = workloads[args.workload](args.seed)
    gates: list[Gates] = []
    run = traced_run if args.trace else untraced_run
    values, attempted = run(workload, args, gates)
    verification = Gates()
    workload.verify(verification)
    gates.append(verification)

    failures = [failure for g in gates for failure in g.failures]
    correct = not failures
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"gates: {sum(g.checks for g in gates)} checks, {len(failures)} failed")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0 if correct else attempted,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
