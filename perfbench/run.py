#!/usr/bin/env python3
"""perfbench runner: builds the benchmark, runs one workload for a fixed
measurement window, checks correctness and prints the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload churn_ft8 --seed 1 --seconds 30 --trace 0

The simulator and the benchmark are built from source into
.bench_build/perfbench (first run only), and the self-test runs before
every measurement. A unit of work (perfbench.cpp) is one seed set of the
workload through P4Update, ez-Segway and Central, each system in a fresh
process; units are repeated until the window is used (at least
MIN_UNITS). With --trace 0 the output gives the end-to-end metrics, with
--trace 1 the per-layer metrics of alternating traced units (at least
MIN_UNITS of them) plus the tracing overhead. Every metric is printed
by name with its unit; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status 0 when every check held, 1 on a violation or a failed build,
2 on a usage error. See perfbench/README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("churn_ft8", "churn_ft8_drop05", "reroute_ft16")
SYSTEMS = ("p4update", "ezsegway", "central")
UNIT_TIMEOUT_S = 150
MIN_UNITS = 3  # a median needs three

# End-to-end metrics: (name, unit). Host metrics are medians over units;
# virtual latencies are exact pooled tails and identical in every unit.
HOST_METRICS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
TAIL_METRICS = tuple((f"{s}.update_{q}_ms", "ms")
                     for s in SYSTEMS for q in ("p50", "p99"))

# Per-layer metrics reported per system: (name, unit, host-time?).
LAYER_PER_SYSTEM = (
    ("harness.testbed_s", "s", True),
    ("harness.deploy_s", "s", True),
    ("harness.deploy_installs", "count", False),
    ("harness.rss_after_setup_mb", "MiB", True),
    ("sim.reserve_s", "s", True),
    ("sim.reserved_slots", "count", False),
    ("sim.pending_peak", "count", False),
    ("sim.reserve_ratio", "ratio", False),
    ("sim.run_s", "s", True),
    ("sim.events", "count", False),
    ("sim.events_per_s", "1/s", True),
    ("p4rt.fabric_tx", "count", False),
    ("p4rt.fabric_drop", "count", False),
    ("p4rt.rule_installs", "count", False),
    ("p4rt.ctrl_msgs_in", "count", False),
    ("p4rt.ctrl_msgs_out", "count", False),
    ("monitor.checks", "count", False),
    ("monitor.check_us", "us", True),
    ("monitor.est_s", "s", True),
    ("control.queue_wait_p50_ms", "ms", False),
    ("control.queue_wait_p99_ms", "ms", False),
    ("control.queue_peak", "count", False),
    ("control.inflight_peak", "count", False),
    ("control.coalesced", "count", False),
    ("control.superseded_share", "ratio", False),
    ("ctrl.settle_p50_ms", "ms", False),
    ("ctrl.settle_p99_ms", "ms", False),
    ("faults.resends", "count", False),
    ("faults.repairs", "count", False),
    ("faults.retriggers", "count", False),
    ("faults.gaveup", "count", False),
)
LAYER_GLOBAL = (
    ("harness.workload_s", "s", True),
    ("verify.preflight_safe", "count", False),
    ("verify.preflight_unsafe", "count", False),
    ("verify.preflight_unknown", "count", False),
    ("obs.harvest_s", "s", True),
    ("obs.report_s", "s", True),
)


class BenchError(Exception):
    """A failed build, crash or correctness violation."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd: list[str], what: str) -> None:
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs], "build")
    run_checked([str(BUILD / "perfbench_selftest")], "self-test")


def run_process(workload: str, system: str, seed: int, trace: bool,
                rep: int) -> dict:
    """Runs one system's share of a unit in its own process."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--system", system, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--out", str(BUILD / "reports")]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{workload}-{seed}-{rep}-{system}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=UNIT_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unit {rep} {system} timed out after "
                         f"{exc.timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"unit {rep} {system} printed nothing (exit "
                         f"{proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise BenchError(f"unit {rep} {system} failed its checks: "
                         f"{'; '.join(result['errors']) or proc.stderr}")
    return result


def run_unit(workload: str, seed: int, trace: bool, rep: int) -> dict:
    """One unit: the three systems in turn, one process each. Times,
    counts and the processes' peak RSS add up."""
    unit: dict = {}
    for system in SYSTEMS:
        part = run_process(workload, system, seed, trace, rep)
        if not unit:
            unit = part
            continue
        for key in ("wall_s", "setup_s", "peak_rss_mb", "requests", "failed"):
            unit[key] += part[key]
        for key in ("digests", "tails"):
            unit[key].update(part[key])
        for name, value in part["layers"].items():
            unit["layers"][name] = unit["layers"].get(name, 0) + value
    return unit


def measure(workload: str, seed: int, seconds: int, trace: bool
            ) -> tuple[list[dict], list[dict]]:
    """Repeats units until the window is used: untraced units only, or
    untraced and traced units alternating. Once there are MIN_UNITS of each
    kind, the next unit starts only if the median unit so far still fits
    the window."""
    plain: list[dict] = []
    traced: list[dict] = []
    took: list[float] = []
    start = time.monotonic()
    rep = 0
    while True:
        want_traced = trace and rep % 2 == 1
        t0 = time.monotonic()
        result = run_unit(workload, seed, want_traced, rep)
        took.append(time.monotonic() - t0)
        (traced if want_traced else plain).append(result)
        rep += 1
        if len(plain) < MIN_UNITS or (trace and len(traced) < MIN_UNITS):
            continue
        if time.monotonic() + statistics.median(took) > start + seconds:
            break
    return plain, traced


def deterministic_layers() -> list[str]:
    """The per-layer metrics that are counts or virtual, not host time."""
    names = [f"{name}.{system}" for system in SYSTEMS
             for name, _, host in LAYER_PER_SYSTEM if not host]
    return names + [name for name, _, host in LAYER_GLOBAL if not host]


def check_repeatable(plain: list[dict], traced: list[dict]) -> None:
    """Every unit replays the same simulated work: the ledger digests, the
    virtual tails and the per-layer counts must be identical. Traced units
    carry extra tails and the layers; each is checked against the first
    traced unit, and the shared tails against the first untraced one."""
    first = plain[0]
    for kind, units in (("unit", plain), ("traced unit", traced)):
        for i, unit in enumerate(units):
            if unit["digests"] != first["digests"]:
                raise BenchError(f"{kind} {i}: ledger digests differ")
            for ref in (first, units[0]):
                for name, tail in ref["tails"].items():
                    if unit["tails"].get(name) != tail:
                        raise BenchError(f"{kind} {i}: {name} differs")
    if traced:
        layers = traced[0]["layers"]
        for name in sorted(set(deterministic_layers()) & layers.keys()):
            if any(u["layers"][name] != layers[name] for u in traced):
                raise BenchError(f"traced units: {name} differs")


def tail_value(unit: dict, name: str) -> float:
    tail = unit["tails"][name]
    if not tail["supported"]:
        raise BenchError(f"{name}: n/a (n={tail['n']})")
    return tail["value"]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  [q1 {q1:.4f}, q3 {q3:.4f}, {len(values)} units]"


def failed_share(unit: dict) -> float:
    return unit["failed"] / unit["requests"] if unit["requests"] else 0.0


def end_to_end(plain: list[dict]) -> dict:
    metrics = {}
    print("end-to-end (host metrics: median over units; virtual: exact "
          "pooled tails)")
    for name, unit in HOST_METRICS:
        values = [u[name] for u in plain]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<26} {value:12.4f} {unit:<5}{quartiles(values)}")
    for name, unit in TAIL_METRICS:
        value = tail_value(plain[0], name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<26} {value:12.4f} {unit:<5}  "
              f"n={plain[0]['tails'][name]['n']}")
    print(f"  {'failed_share':<26} {failed_share(plain[0]):12.6f} ratio  "
          f"({plain[0]['failed']} of {plain[0]['requests']} requests)")
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    first = traced[0]

    def put(name: str, unit: str, host: bool) -> None:
        if name in first["tails"]:
            value = tail_value(first, name)
            note = f"n={first['tails'][name]['n']}"
        elif host:
            value = statistics.median(u["layers"][name] for u in traced)
            note = f"median of {len(traced)} traced units"
        else:
            value = first["layers"][name]
            note = ""
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:16.6f} {unit:<5}  {note}")

    print("per-layer (traced units)")
    for system in SYSTEMS:
        for name, unit, host in LAYER_PER_SYSTEM:
            put(f"{name}.{system}", unit, host)
    for name, unit, host in LAYER_GLOBAL:
        put(name, unit, host)
    metrics["failed_share"] = {"value": failed_share(first), "unit": "ratio"}
    overhead = (statistics.median(u["wall_s"] for u in traced) -
                statistics.median(u["wall_s"] for u in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"  {'failed_share':<40} {failed_share(first):16.6f} ratio")
    print(f"  {'trace.overhead_s':<40} {overhead:16.6f} s      traced "
          f"minus untraced wall_s ({len(traced)} vs {len(plain)} units)")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
        check_repeatable(plain, traced)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"units={len(plain) + len(traced)} trace={args.trace}")
        for key, digest in plain[0]["digests"].items():
            print(f"  ledger digest {key:<20} {digest}")
        metrics = (per_layer(plain, traced) if args.trace
                   else end_to_end(plain))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1
    units = plain + traced
    result = {
        "correct": True,
        "attempted": sum(u["requests"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
