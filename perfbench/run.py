#!/usr/bin/env python3
"""The repository benchmark: build the measuring program, run one
workload, check its outputs and print the result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout. The first run configures and builds
`perfbench/` (the library sources plus `mcd_perfbench` from
`perfbench/src/`) into $CARGO_TARGET_DIR, or `.bench_build` when that is
unset. Scratch files go under `.bench_work/`; a traced run leaves its
spans there.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: every end-to-end metric of BENCHMARK.json with
`--trace 0`, every per-layer metric with `--trace 1`. Times and rates
are at nominal host speed (the program gauges the host's slowdown; see
perfbench/README.md). The lines before the result repeat every metric
by name and unit with its sample count, with the host's own time and
slowdown beside them.

Checks: each round's per-unit digests must match `digests.json` for the
seeds recorded there (1 to 10), and round one's for any other seed.
mcd_perfbench adds its own checks for any seed: the last round's results
against direct simulator runs that bypass the harness and, on traced
runs, serve error frames and refusals and served payloads against
in-process resolutions. Every mismatch counts as a failed operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_LAUNCHES = 20
WORKLOADS = ("sim_membound", "sim_compute", "figure_table6")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (once) and build mcd_perfbench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "mcd_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "mcd_perfbench")


def run_program(binary, args, cwd, timeout):
    """Run mcd_perfbench; its stdout/stderr (library logging) go to our
    stderr, never into the result."""
    subprocess.run([binary] + args, cwd=cwd, stdout=sys.stderr,
                   stderr=sys.stderr, check=True, timeout=timeout)


def digest_mismatches(rounds, reference):
    """Per-unit digest mismatches of every round against `reference`;
    a missing or extra unit counts as a mismatch."""
    bad = 0
    for r in rounds:
        got = r["digests"]
        bad += sum(1 for a, b in zip(got, reference) if a != b)
        bad += abs(len(got) - len(reference))
    return bad


def check(result, seed, digests_path):
    """(attempted, failed, notes) after the digest checks."""
    rounds = result["rounds"]
    with open(digests_path) as f:
        ref = json.load(f)
    reference = ref.get(result["workload"], {}).get(str(seed))
    if reference is not None:
        what = "committed digests"
    else:
        reference = rounds[0]["digests"]
        what = "round one"
    bad = digest_mismatches(rounds, reference)
    notes = list(result["failures"])
    if bad:
        notes.append("%d unit digests differ from %s" % (bad, what))
    return result["attempted"], result["failed"] + bad, notes


def measure(args, binary):
    work = os.path.join(ROOT, ".bench_work")
    scratch = os.path.join(work, "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Set-up time: process start to the first timed operation, as
        # the program measures it, over launches that only set up, half
        # of them before the measured run and half after it.
        setups = []

        def launch_setups(count):
            for _ in range(count):
                run_program(binary, common + [
                    "--setup-only", "--out", "setup.json"], scratch, 60)
                with open(os.path.join(scratch, "setup.json")) as f:
                    setups.append(json.load(f)["setup_s"])

        launch_setups(SETUP_LAUNCHES // 2)
        extra = ["--probe-refusal"] if args.probe_refusal else []
        if args.trace:
            extra += ["--spans", os.path.join(
                work, "spans-%s-s%d.json" % (args.workload, args.seed))]
        run_program(binary, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", "result.json"] + extra, scratch,
            min(170, 60 + 5 * args.seconds))
        with open(os.path.join(scratch, "result.json")) as f:
            result = json.load(f)
        launch_setups(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s",
        "n": len(setups)}
    return result


def report(result, names, attempted, failed, notes):
    """The human-readable lines before the result line."""
    print("workload %s, seed %d, %d rounds" % (
        result["workload"], result["seed"], len(result["rounds"])))
    table = dict(result["metrics"])
    table.update(result["layers"])
    for name in sorted(table):
        m = table[name]
        mark = "*" if name in names else " "
        print("%s %-34s %16.6g %-10s n=%d" % (
            mark, name, m["value"], m["unit"], m["n"]))
    share = failed / attempted if attempted else 0.0
    print("  %-34s %16.6g %-10s n=%d" % ("error_share", share, "ratio",
                                         attempted))
    for note in notes:
        print("  failure: %s" % note)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests",
                        default=os.path.join(HERE, "digests.json"),
                        help="reference digests (self-tests corrupt a "
                             "copy)")
    parser.add_argument("--probe-refusal", action="store_true",
                        help="with --trace 1: add one request the serve "
                             "probe's daemon must refuse (self-test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the reference "
                             "for its seed")
    args = parser.parse_args(argv)

    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}

    try:
        binary = build()
        result = measure(args, binary)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2

    if args.record_digests:
        # Only results that passed the program's own checks (direct
        # simulator runs) become the reference.
        if result["failed"]:
            log("perfbench: not recording digests of a failed run")
            return 2
        with open(args.digests) as f:
            ref = json.load(f)
        ref.setdefault(args.workload, {})[str(args.seed)] = \
            result["rounds"][0]["digests"]
        with open(args.digests, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")

    attempted, failed, notes = check(result, args.seed, args.digests)
    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for name, unit in wanted.items():
        if name not in source or source[name]["unit"] != unit:
            log("perfbench: mcd_perfbench did not report %s [%s]" %
                (name, unit))
            return 2
        metrics[name] = {"value": source[name]["value"], "unit": unit}

    report(result, wanted, attempted, failed, notes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
