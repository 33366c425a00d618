#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

They check the shape of BENCHMARK.json, that a run prints a
well-formed result line naming every metric with its unit, that a
corrupted reference digest and a refused serve request both count as
failures, and that the benchmark fails cleanly without the library
sources. They build mcd_perfbench on first use and run short
(one-second) workloads, so the whole file takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, env=None, cwd=ROOT):
    """(exit code, parsed last stdout line or None, stdout)."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, env=env, timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return out.returncode, result, out.stdout


def printed(stdout, name):
    """A metric's value from the human-readable lines."""
    m = re.search(r"^[* ] %s\s+(\S+)" % re.escape(name), stdout, re.M)
    return float(m.group(1))


class FormatTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for p in spec["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(spec["command"]) <= 32)
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metric_names_and_units(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names reused")
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class RunTest(unittest.TestCase):
    def check_line(self, result, key):
        spec = load_spec()
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec[key]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], want[name])
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_line_is_well_formed(self):
        code, result, out = run_bench("--workload", "sim_compute",
                                      "--seconds", "1")
        self.assertEqual(code, 0)
        self.check_line(result, "end_to_end")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)
        # wall_s is host time at nominal host speed: the median round's
        # host time over its gauged slowdown, up to the medians being
        # taken per round.
        wall = result["metrics"]["wall_s"]["value"]
        self.assertEqual(printed(out, "wall_s"), float("%.6g" % wall))
        host = printed(out, "host_wall_s")
        slowdown = printed(out, "host_slowdown")
        self.assertGreater(slowdown, 0)
        self.assertLess(abs(wall / (host / slowdown) - 1), 0.25)

    def test_traced_line_is_well_formed(self):
        code, result, out = run_bench("--workload", "sim_compute",
                                      "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.check_line(result, "per_layer")
        self.assertTrue(result["correct"])
        shares = [v["value"] for k, v in result["metrics"].items()
                  if k.startswith(("core.", "control.")) and
                  k.endswith(".self_share")]
        self.assertEqual(len(shares), 8)
        self.assertAlmostEqual(sum(shares), 1.0, places=6)
        spans = [v["value"] for k, v in result["metrics"].items()
                 if k.startswith("trace.")]
        self.assertAlmostEqual(sum(spans), 1.0, places=6)

    def test_committed_digests_cover_ten_seeds(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            ref = json.load(f)
        for w in load_spec()["workloads"]:
            self.assertEqual(set(ref[w["name"]]),
                             {str(seed) for seed in range(1, 11)})

    def test_corrupted_digest_is_a_failure(self):
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(HERE, "digests.json")) as f:
            ref = json.load(f)
        first = ref["sim_compute"]["1"][0]
        ref["sim_compute"]["1"][0] = "%016x" % (int(first, 16) ^ 1)
        bad = os.path.join(WORK, "digests.json")
        with open(bad, "w") as f:
            json.dump(ref, f)
        code, result, out = run_bench("--workload", "sim_compute",
                                      "--seconds", "1", "--digests", bad)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        rounds = int(re.search(r"(\d+) rounds", out).group(1))
        self.assertEqual(result["failed"], rounds)
        self.assertRegex(out, r"error_share\s+[0-9.e-]+")
        share = float(re.search(r"error_share\s+(\S+)", out).group(1))
        self.assertAlmostEqual(share, result["failed"] /
                               result["attempted"], places=5)

    def test_refused_serve_request_is_a_failure(self):
        code, result, out = run_bench("--workload", "sim_compute",
                                      "--seconds", "1", "--trace", "1",
                                      "--probe-refusal")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("overloaded", out)
        share = float(re.search(r"error_share\s+(\S+)", out).group(1))
        self.assertGreater(share, 0.0)

    def test_fails_without_library_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        code, result, _ = run_bench("--workload", "sim_compute",
                                    "--seconds", "1", env=env, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
