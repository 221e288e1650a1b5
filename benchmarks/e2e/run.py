#!/usr/bin/env python3
"""End-to-end benchmark: wall-clock and sim-time, with per-layer attribution.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

sets up, measures one workload for at least ``S`` wall-seconds (and at
least its fixed core), verifies the outputs and prints every metric by
name with its unit, then one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the bench-side span recorder
and reports the per-layer metrics instead.

Without ``--workload`` it runs the whole suite, each run a fresh child
process, passes interleaved, and reports medians with ``n`` and IQR%::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats K] [--traced] [--aa] [--smoke]

See README.md next to this file for the metric and workload definitions.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from hostclock import NOMINAL_PROBE_S, probe  # noqa: E402
from layers import PER_LAYER, chain_heights, counters, per_layer  # noqa: E402
from spans import Recorder  # noqa: E402
from repro.telemetry import exact_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: name -> (unit, better).  Bounds live in BENCHMARK.json, nowhere else.
END_TO_END = {
    "wall_tx_per_s": ("1/s", "higher"),
    "wall_reads_per_s": ("1/s", "higher"),
    "sim_commit_p50_ms": ("ms", "lower"),
    "sim_commit_p99_ms": ("ms", "lower"),
    "sim_tps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
#: Outputs of the cost model: identical on every run of one seed.
SIM_METRICS = ("sim_commit_p50_ms", "sim_commit_p99_ms", "sim_tps")

DEFAULT_SEED = 2024
#: Cold set-ups per run (fresh processes; the last is the run's own).
SETUP_REPEATS = 3


# -- one run ------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool):
    """Set a workload up; returns it and the set-up time of this process,
    imports included, at nominal host speed."""
    imports_s = IMPORT_S * NOMINAL_PROBE_S / probe()
    workload = WORKLOADS[name](seed, smoke)
    workload.setup()
    return workload, imports_s + workload.setup_watch.norm_s


def cold_setup_s(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh process (imports, lazy tables and all)."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(
        command + (["--smoke"] if smoke else []), capture_output=True, text=True, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(workload, peak_rss_mb: float, setup_s: float) -> dict[str, float]:
    """Every :data:`END_TO_END` metric of one untraced run (and a header
    line with the figures this host delivered, not rescaled)."""
    cycles = workload.cycles
    core = cycles[: workload.core_cycles]
    latencies = sorted(latency for c in core for latency in c.latencies_s)
    committed = sum(c.committed for c in cycles)
    reads = sum(sum(c.reads.values()) for c in cycles)
    read_watches = [watch for c in cycles for watch in c.read.values()]
    raw_tx = committed / sum(c.write.raw_s for c in cycles)
    raw_reads = reads / sum(watch.raw_s for watch in read_watches)
    print(
        f"{workload.name}: seed {workload.seed}, {len(cycles)} cycles, sim percentiles "
        f"over n={len(latencies)}; on this host, not rescaled: {raw_tx:.2f} tx/s, "
        f"{raw_reads:.1f} reads/s, own set-up {workload.setup_watch.raw_s + IMPORT_S:.3f} s"
    )
    return {
        "wall_tx_per_s": committed / sum(c.write.norm_s for c in cycles),
        "wall_reads_per_s": reads / sum(watch.norm_s for watch in read_watches),
        "sim_commit_p50_ms": exact_percentile(latencies, 0.50) * 1e3,
        "sim_commit_p99_ms": exact_percentile(latencies, 0.99) * 1e3,
        "sim_tps": sum(c.committed for c in core) / sum(c.sim_span_s for c in core),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, measure and verify one workload in this process."""
    setups = []
    if not trace and not smoke:
        setups = [cold_setup_s(name, seed, smoke) for _ in range(SETUP_REPEATS - 1)]

    # Installed before set-up: callbacks bound at construction (network
    # handlers, flush listeners) must capture the wrapped methods.
    recorder = Recorder() if trace else None
    if recorder is not None:
        recorder.install()
    try:
        workload, own_setup = set_up(name, seed, smoke)
        setups.append(own_setup)
        if recorder is not None:
            workload.phase = recorder.phase
            before, heights = counters(workload.cluster), chain_heights(workload.cluster)
        started = time.perf_counter()
        index = 0
        while index < workload.core_cycles or time.perf_counter() - started < seconds:
            workload.run_cycle(index)
            index += 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    extra = workload.finish()
    problems = workload.verify()
    cycles = workload.cycles
    attempted = sum(c.attempted + sum(c.reads.values()) for c in cycles)
    failed = sum(c.attempted - c.committed + c.read_failures for c in cycles)

    if recorder is not None:
        values = per_layer(workload, recorder, before, heights, extra)
        units = {metric: PER_LAYER[metric][0] for metric in values}
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(os.path.join(OUT_DIR, f"trace_{name}.json"))
    else:
        values = end_to_end(workload, peak_rss_mb, statistics.median(setups))
        units = {metric: END_TO_END[metric][0] for metric in values}

    for metric, value in values.items():
        print(f"  {metric:<34} {value:>14.4f} {units[metric]}")
    print(f"  {'failed_share':<34} {failed / attempted:>14.6f} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"  VIOLATION {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


# -- the suite: fresh child per run, interleaved passes -------------------------


def child_run(name: str, args, trace: int) -> dict | None:
    command = [
        sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        print(f"{name}: run failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_suite(args) -> tuple[dict, bool]:
    """All workloads x ``--repeats`` (and a traced pass under ``--traced``).

    Returns ``{workload: {metric: [values]}}`` and whether every run was
    correct, failure-free and sim-time-identical across repeats.
    """
    names = list(WORKLOADS)
    samples: dict = {name: {} for name in names}
    ok = True
    for _ in range(args.repeats):
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                result = child_run(name, args, trace)
                if result is None or not result["correct"] or result["failed"]:
                    ok = False
                if result is None:
                    continue
                for metric, reading in result["metrics"].items():
                    samples[name].setdefault(metric, []).append(reading["value"])
    for name in names:
        for metric in SIM_METRICS:
            if len(set(samples[name].get(metric, []))) > 1:
                print(f"{name}: {metric} differs across repeats: {samples[name][metric]}")
                ok = False
    return samples, ok


def summarize(values: list[float]) -> tuple[float, float]:
    """(median, IQR as % of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / abs(median) * 100.0


def print_suite(samples: dict) -> None:
    units = {**{m: u for m, (u, _) in END_TO_END.items()},
             **{m: u for m, (u, _) in PER_LAYER.items()}}
    for name, metrics in samples.items():
        print(f"\n{name}")
        for metric, values in metrics.items():
            median, iqr_pct = summarize(values)
            print(f"  {metric:<34} {median:>14.4f} {units[metric]:<6} n={len(values)} IQR={iqr_pct:.2f}%")
        traced = metrics.get("trace.tx_per_s")
        if traced and "wall_tx_per_s" in metrics:
            untraced = statistics.median(metrics["wall_tx_per_s"])
            overhead = (untraced / statistics.median(traced) - 1.0) * 100.0
            print(f"  {'trace.overhead_pct':<34} {overhead:>14.4f} %")


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def run_aa(args) -> bool:
    """Two back-to-back suites of the same code: the noise-floor statement."""
    first, ok_first = run_suite(args)
    second, ok_second = run_suite(args)
    for samples in (first, second):
        print_suite(samples)
    allowed = bounds()
    ok = ok_first and ok_second
    print(f"\n{'workload':<16} {'metric':<20} {'set 1':>12} {'set 2':>12} {'diff':>8} {'bound':>7}")
    for name in first:
        for metric in END_TO_END:
            if metric not in first[name] or metric not in second[name]:
                ok = False  # a run died; run_suite has already said which
                continue
            one = statistics.median(first[name][metric])
            two = statistics.median(second[name][metric])
            diff = abs(two - one) / abs(one)
            # Same seed, same code: the cost model's outputs must not move at all.
            bound = 0.0 if metric in SIM_METRICS else allowed[metric]
            verdict = "" if diff <= bound else "  EXCEEDS"
            ok = ok and diff <= bound
            print(f"{name:<16} {metric:<20} {one:>12.4f} {two:>12.4f} {diff:>7.2%} {bound:>7.0%}{verdict}")
    return ok


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for at least this long (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5, help="suite: passes per workload")
    parser.add_argument("--traced", action="store_true", help="suite: add a traced pass")
    parser.add_argument("--aa", action="store_true", help="suite: run twice, compare to the bounds")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repeat")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.repeats, args.seconds = 1, 0.0
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            args.seconds = float(json.load(handle)["run_seconds"])

    if args.setup_only:
        print(set_up(args.workload, args.seed, args.smoke)[1])
        return 0
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.aa:
        return 0 if run_aa(args) else 1
    samples, ok = run_suite(args)
    print_suite(samples)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
