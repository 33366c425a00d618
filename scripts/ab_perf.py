#!/usr/bin/env python3
"""Perf A/B of two revisions: alternating perfbench pairs plus a
byte-identity check of the 30-app suite and two figures.

    scripts/ab_perf.py PARENT CHANGE [--workloads W[,W...]] [--seed N]

PARENT and CHANGE are git revisions of this repository; CHANGE may also
be WORKTREE, the working tree's tracked and untracked (not ignored)
files. Each side is exported with `git archive` into a temporary
directory, so nothing of the checkout is touched and no worktree stays
registered if the script is interrupted. Each side then builds its own
`perfbench/` (through `perfbench/run.py`, with CARGO_TARGET_DIR in the
temporary directory) and its own `mcd_cli`.

For each workload the script runs 10 pairs of
`perfbench/run.py --workload W --seed N --seconds 4 --trace 0`,
alternating which side runs first, and prints one row per end-to-end
metric of BENCHMARK.json:

  - gain: the median over pairs of change/parent, oriented so that
    above 1 is better (parent/change for lower-is-better metrics);
  - wins: the pairs in which the change was better;
  - IQR: the interquartile range of the parent's runs over their
    median;
  - gap>IQR: whether the median gain is further from 1 than that.

Every run must report `correct: true`; a run that does not is named
and fails the script. Then it diffs
`mcd_cli run --bench <all 30 apps> --mode M --controller C --json` of
the two builds for M in {mcd, sync} and C in {none, attack_decay},
and the stdout of `mcd_cli figure F` for F in {table6, fig4} at the
small window of FIGURE_ENV, printing each side's `store:` line (the
sides may rightly simulate different counts; only stdout must match).
No run gets an MCD_* variable from the caller's environment, so both
sides use the default methodology and no persistent store (which would
serve one side's results to the other), and each identity run must
report that it simulated every app. The exit status is 0 when every
run was correct and every diff empty. The script only invokes
`perfbench/`; it edits nothing there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim_membound", "sim_compute", "figure_table6")
PAIRS = 10
SECONDS = 4
JOBS = os.cpu_count() or 1
# The caller's environment without the MCD_* methodology variables.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("MCD_")}
FIGURES = ("table6", "fig4")
# A window small enough for a figure to finish in seconds, yet long
# enough for the off-line searches to probe every phase.
FIGURE_ENV = {"MCD_INSNS": "20000", "MCD_WARMUP": "2000",
              "MCD_INTERVAL": "1000",
              "MCD_BENCHMARKS": "adpcm,epic,gsm,mcf,power,em3d"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """Write the files of `rev` (or of the working tree) into `dest`."""
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"],
            cwd=ROOT, check=True, capture_output=True).stdout
        for name in files.decode().split("\0"):
            src = os.path.join(ROOT, name)
            if not name or not os.path.isfile(src):
                continue
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build_cli(tree):
    out = os.path.join(tree, "build-cli")
    subprocess.run(["cmake", "-S", tree, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release", "-DMCD_BUILD_TESTS=OFF",
                    "-DMCD_BUILD_EXAMPLES=OFF"],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "mcd_cli", "-j",
                    str(JOBS)], stdout=subprocess.DEVNULL, check=True)
    return os.path.join(out, "mcd_cli")


def perfbench(tree, workload, seed, seconds):
    """One run.py result (its last stdout line)."""
    env = dict(ENV, CARGO_TARGET_DIR=os.path.join(tree, "pb-build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(workload, runs, metrics):
    """Print one row per metric; runs = [(parent, change), ...]."""
    print("%s: %d pairs" % (workload, len(runs)))
    print("  %-18s %8s %7s %7s %8s" % ("metric", "gain", "wins", "IQR",
                                        "gap>IQR"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        gains, wins, parent = [], 0, []
        for p, c in runs:
            pv = p["metrics"][name]["value"]
            cv = c["metrics"][name]["value"]
            parent.append(pv)
            gain = cv / pv if higher else pv / cv
            gains.append(gain)
            wins += gain > 1.0
        gain = statistics.median(gains)
        lo, hi = quartiles(parent)
        iqr = (hi - lo) / statistics.median(parent)
        print("  %-18s x%7.3f %3d/%-3d %6.1f%% %8s" % (
            name, gain, wins, len(runs), 100.0 * iqr,
            "yes" if abs(gain - 1.0) > iqr else "no"))


def identity(cli, apps):
    """{(mode, controller): stdout bytes} of the 30-app suite, each run
    simulated from scratch."""
    env = dict(ENV, MCD_JOBS=str(JOBS))
    out = {}
    for mode in ("mcd", "sync"):
        for controller in ("none", "attack_decay"):
            stdout = subprocess.run(
                [cli, "run", "--bench", ",".join(apps), "--mode", mode,
                 "--controller", controller, "--json"],
                env=env, check=True, capture_output=True).stdout
            cache = json.loads(stdout)["cache"]
            if cache["simulations"] < len(apps) or cache["disk_hits"]:
                raise SystemExit("%s: --mode %s --controller %s simulated "
                                 "%d of %d apps" % (cli, mode, controller,
                                                    cache["simulations"],
                                                    len(apps)))
            out[(mode, controller)] = stdout
    return out


def figures(label, cli):
    """{figure: stdout bytes} of FIGURES at FIGURE_ENV, each with its
    `store:` line printed."""
    env = dict(ENV, MCD_JOBS=str(JOBS), **FIGURE_ENV)
    out = {}
    for name in FIGURES:
        proc = subprocess.run([cli, "figure", name], env=env, check=True,
                              capture_output=True)
        store = [line for line in proc.stderr.decode().splitlines()
                 if line.startswith("store:")]
        print("  %-6s %-6s %s" % (label, name, store[-1]))
        out[name] = proc.stdout
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            parser.error("unknown workload %r" % w)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    work = tempfile.mkdtemp(prefix="ab_perf-")
    sides = {"parent": os.path.join(work, "parent"),
             "change": os.path.join(work, "change")}
    ok = True
    try:
        for label, rev in (("parent", args.parent),
                           ("change", args.change)):
            log("exporting %s (%s)" % (label, rev))
            export(rev, sides[label])

        for label, tree in sides.items():
            log("building %s's perfbench" % label)
            perfbench(tree, workloads[0], args.seed, 1)

        for w in workloads:
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                pair = {}
                for label in order:
                    pair[label] = perfbench(sides[label], w, args.seed,
                                            SECONDS)
                    if pair[label]["correct"] is not True:
                        log("%s: %s run %d is not correct" % (w, label, i))
                        ok = False
                runs.append((pair["parent"], pair["change"]))
                log("%s pair %d/%d done" % (w, i + 1, PAIRS))
            compare(w, runs, metrics)

        log("building mcd_cli for the identity check")
        cli = {label: build_cli(tree) for label, tree in sides.items()}
        listing = subprocess.run([cli["parent"], "list", "--json"],
                                 check=True, capture_output=True).stdout
        apps = [s["name"] for s in json.loads(listing)["scenarios"]]
        got = {label: identity(cli[label], apps) for label in sides}
        print("identity: mcd_cli run --json over %d apps" % len(apps))
        for key in got["parent"]:
            same = got["parent"][key] == got["change"][key]
            ok = ok and same
            print("  --mode %-4s --controller %-12s %s" % (
                key[0], key[1], "identical" if same else "DIFFERS"))
        print("identity: mcd_cli figure stdout at %s" % " ".join(
            "%s=%s" % kv for kv in sorted(FIGURE_ENV.items())))
        shown = {label: figures(label, cli[label]) for label in sides}
        for name in FIGURES:
            same = shown["parent"][name] == shown["change"][name]
            ok = ok and same
            print("  figure %-6s %s" % (name,
                                        "identical" if same else "DIFFERS"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
