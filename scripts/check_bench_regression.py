#!/usr/bin/env python3
"""Gate sim_microbench results against the committed baseline.

Usage: check_bench_regression.py <BENCH_sim.json>... [options]

Four checks:

 1. Hot-loop throughput: the items/sec of every gated benchmark must
    not drop more than --max-drop (default 15%) below the committed
    baseline (bench/BENCH_sim_baseline.json, or --baseline). Items
    are simulated instructions for the simulator rows (SimulatorMcd
    and friends, the memory-bound SimulatorMcdMemBound, and the serial
    30-app SimulatorSuite) and clock edges for ClockEdges.
 2. Fast-forward speedup: CheckpointResume must stay at least
    --min-resume-ratio (default 5x) faster than CheckpointColdRun —
    a within-machine ratio, so it holds on any hardware.
 3. Skipped edges: ClockSkip (edges consumed 64 at a time, as the
    simulator skips a calm quiet run) must stay at least
    --min-skip-ratio (default 2.4x, half the ratio measured when the
    row landed) faster per edge than ClockEdges — also within one
    machine.
 4. Search work: the simulations one OfflineSearch batch runs (the
    off-line Dynamic-X% searches of two apps on a fresh cache) must not
    exceed the baseline's count. The count is deterministic, so this
    holds on any host; the row has no time floor.

It also reports, without a floor, what Attack/Decay costs: the time
per instruction of SimulatorMcdAttackDecay over SimulatorMcd (both
gsm), the cost of the slewing clock edges a controlled run takes.

Several result files may be passed; each benchmark is judged on its
best run — downward noise (a loaded machine, an unlucky scheduler)
can only make a single sample look slow, so best-of-N is the robust
reading. The absolute comparison (check 1) is meaningful only on
hardware comparable to the machine that produced the baseline; CI
runs it on a pinned runner class with three samples. The committed
baseline is a *low-water* reading (per-benchmark minimum over several
runs under varying load), so the gate only fires when even the best
current sample sits below what the slowest acceptable run achieved.
Refresh it deliberately — several runs, keep the minima:

    ./build/sim_microbench --json > bench/BENCH_sim_baseline.json
"""

import argparse
import json
import pathlib
import sys

# Benchmarks whose items/s must not regress: simulated instructions
# per second for the simulator rows, edges per second for ClockEdges.
# SimulatorMcdMemBound (mcf) gates the stalled-edge path, the gsm rows
# the issue-bound one, SimulatorSuite the paper suite end to end, and
# ClockEdges the per-edge clock kernel every domain edge pays.
GATED = (
    "SimulatorMcd",
    "SimulatorMcdAttackDecay",
    "SimulatorSynchronous",
    "SimulatorMcdMemBound",
    "SimulatorSuite",
    "ClockEdges",
)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc["benchmarks"]}


def best_of(paths):
    """Per-benchmark best items/s (and its run) across result files."""
    best = {}
    for path in paths:
        for name, bench in load(path).items():
            if (name not in best or bench["items_per_second"] >
                    best[name]["items_per_second"]):
                best[name] = bench
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current", nargs="+",
                        help="BENCH_sim.json files from this run; "
                             "each benchmark is judged on its best")
    parser.add_argument(
        "--baseline",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "bench"
            / "BENCH_sim_baseline.json"
        ),
    )
    parser.add_argument("--max-drop", type=float, default=0.15,
                        help="max fractional items/s drop vs baseline")
    parser.add_argument("--min-resume-ratio", type=float, default=5.0,
                        help="min CheckpointResume/CheckpointColdRun")
    parser.add_argument("--min-skip-ratio", type=float, default=2.4,
                        help="min ClockSkip/ClockEdges")
    args = parser.parse_args()

    current = best_of(args.current)
    baseline = load(args.baseline)
    failures = []

    for name in GATED:
        if name not in current:
            failures.append(f"{name}: missing from current results")
            continue
        if name not in baseline:
            failures.append(f"{name}: missing from baseline")
            continue
        now = current[name]["items_per_second"]
        ref = baseline[name]["items_per_second"]
        drop = 1.0 - now / ref if ref > 0 else 0.0
        status = "FAIL" if drop > args.max_drop else "ok"
        print(
            f"{status:4s} {name}: {now:,.0f} items/s "
            f"(baseline {ref:,.0f}, {-drop:+.1%})"
        )
        if drop > args.max_drop:
            failures.append(
                f"{name}: items/s dropped {drop:.1%} "
                f"(limit {args.max_drop:.0%})"
            )

    ratios = (
        ("CheckpointResume", "CheckpointColdRun", args.min_resume_ratio,
         "checkpoint fast-forward", "cold"),
        ("ClockSkip", "ClockEdges", args.min_skip_ratio,
         "skipped clock edges", "stepped"),
    )
    for fast_name, slow_name, floor, what, versus in ratios:
        fast = current.get(fast_name)
        slow = current.get(slow_name)
        if not fast or not slow:
            failures.append(
                f"{fast_name}/{slow_name} missing from results")
            continue
        ratio = (
            fast["items_per_second"] / slow["items_per_second"]
            if slow["items_per_second"] > 0
            else 0.0
        )
        status = "FAIL" if ratio < floor else "ok"
        print(f"{status:4s} {what}: {ratio:.1f}x {versus} "
              f"(floor {floor:.1f}x)")
        if ratio < floor:
            failures.append(
                f"{what} only {ratio:.1f}x faster than {versus} "
                f"(floor {floor:.1f}x)"
            )

    # Work, not time: every result file must run at most the committed
    # number of simulations per search batch.
    counted = "OfflineSearch"
    ref = baseline.get(counted, {}).get("simulations")
    runs = [load(path).get(counted) for path in args.current]
    if ref is None:
        failures.append(f"{counted}: simulations missing from baseline")
    elif any(run is None or "simulations" not in run for run in runs):
        failures.append(f"{counted}: simulations missing from results")
    else:
        worst = max(run["simulations"] for run in runs)
        status = "FAIL" if worst > ref else "ok"
        print(f"{status:4s} {counted}: {worst} simulations per batch "
              f"(baseline {ref})")
        if worst > ref:
            failures.append(
                f"{counted}: {worst} simulations per batch, "
                f"more than the baseline's {ref}")

    # Report only: a controlled run's slewing clocks flush energy on
    # each of their edges and cannot be skipped.
    uncontrolled = current.get("SimulatorMcd")
    controlled = current.get("SimulatorMcdAttackDecay")
    if uncontrolled and controlled and controlled["items_per_second"] > 0:
        cost = (uncontrolled["items_per_second"] /
                controlled["items_per_second"])
        print(f"info attack_decay cost: {cost:.2f}x the time per "
              f"instruction of an uncontrolled run (not gated)")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
