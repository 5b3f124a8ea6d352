#!/usr/bin/env python3
"""Tests for the benchmark's own logic: order statistics, record comparison,
the failure path of the correctness check, and the refusal to run outside a
full checkout.  Needs no build (a stand-in CLI plays nvbitfi).

    python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import textwrap
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402

# Plays `nvbitfi campaign|analyze|shard` closely enough for run.py: stores
# are a header line plus one record per experiment, each record a pure
# function of (seed, index); shard records carry replay stats like the real
# shard stores do.  With CORRUPT_ENV set, `shard` writes one record that
# differs from the campaign's.
CORRUPT_ENV = "PERFBENCH_FAKE_CORRUPT"
FAKE_CLI = textwrap.dedent('''\
    #!/usr/bin/env python3
    import os, sys, time
    args = sys.argv[1:]
    def opt(name, default=None):
        return args[args.index(name) + 1] if name in args else default
    def record(seed, i, replay):
        line = ('{"index":%d,"params":{"seed":%s},"artifacts":{"cycles":%d,'
                '"thread_instructions":%d},"classification":{"outcome":%d}' %
                (i, seed, (int(seed) * 31 + i) % 997, i * 7, i % 3))
        if replay:
            line += ',"replay":{"launches_fast_forwarded":%d}' % i
        return line + "}"
    def report(outcomes):
        names = ["Masked", "SDC", "DUE"]
        for k, name in enumerate(names):
            print("  %s  x%%  (%d runs)" % (name, outcomes.count(k)))
    if args[0] == "campaign":
        store, seed, n = opt("--store"), opt("--seed"), int(opt("--injections"))
        with open(store, "w") as f:
            f.write('{"nvbitfi_result_store":5}\\n')
            f.flush()
            time.sleep(0.02)
            for i in range(n):
                f.write(record(seed, i, False) + "\\n")
        report([i % 3 for i in range(n)])
        print("injection phase: 0.050 s wall clock on 2 workers (1.0 runs/s)")
    elif args[0] == "analyze":
        lines = open(args[1]).read().splitlines()[1:]
        report([int(l.rsplit('"outcome":', 1)[1][0]) for l in lines])
    elif args[0] == "shard":
        begin, end = map(int, opt("--index-range").split(":"))
        with open(opt("--store"), "w") as f:
            f.write('{"nvbitfi_result_store":5}\\n')
            for i in range(begin, end):
                line = record(opt("--seed"), i, True)
                if i == begin and os.environ.get("PERFBENCH_FAKE_CORRUPT"):
                    line = line.replace('"cycles":', '"cycles":1', 1)
                f.write(line + "\\n")
    else:
        sys.exit(2)
''')


class StatsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.1, 2.7, 9.4, 5.5, 4.0, 6.2, 1.9, 8.8, 7.3, 5.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, median, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / median)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99.9), 999)

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(stats.tail(list(range(100))), (90.0, 89, 10))
        # 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        # 19 samples: the median leaves 9 beyond, so nothing qualifies.
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(20)))[::2], (50.0, 10))


class RecordTest(unittest.TestCase):
    LINE = '{"index":4,"artifacts":{"cycles":12}}'

    def test_replay_stats_are_not_part_of_the_record(self):
        with_replay = self.LINE[:-1] + ',"replay":{"launches_fast_forwarded":3}}'
        self.assertEqual(run.canonical_record(with_replay), self.LINE)

    def test_any_byte_difference_or_missing_record_fails(self):
        campaign = {4: self.LINE, 5: self.LINE.replace("4", "5", 1)}
        reference = {4: self.LINE.replace("12", "13")}
        self.assertEqual(run.compare_records(campaign, reference, [4, 5]), [4, 5])
        self.assertEqual(run.compare_records(campaign, dict(campaign), [4, 5]), [])


class FakeCliTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.cli = os.path.join(self.tmp, "nvbitfi")
        with open(self.cli, "w") as f:
            f.write(f"#!{sys.executable}\n" + FAKE_CLI)
        os.chmod(self.cli, 0o755)
        self.env = os.environ.get("CARGO_TARGET_DIR")
        os.environ["CARGO_TARGET_DIR"] = os.path.join(self.tmp, "build")

    def tearDown(self):
        if self.env is None:
            del os.environ["CARGO_TARGET_DIR"]
        else:
            os.environ["CARGO_TARGET_DIR"] = self.env
        shutil.rmtree(self.tmp)

    def bench(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "fatkernel", "--seed", "5", "--seconds", "0",
                             "--cli", self.cli])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_matching_records_pass(self):
        code, result = self.bench()
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], run.MIN_FLOWS * run.WORKLOADS["fatkernel"].injections)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in benchmark()["end_to_end"]))

    def test_corrupted_reference_record_exits_nonzero(self):
        os.environ[CORRUPT_ENV] = "1"
        try:
            code, result = self.bench()
        finally:
            del os.environ[CORRUPT_ENV]
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_drifting_exact_counts_are_a_failure(self):
        self.assertEqual(self.bench()[0], 0)
        exact = os.path.join(os.environ["CARGO_TARGET_DIR"], "exact")
        for name in os.listdir(exact):
            path = os.path.join(exact, name)
            with open(path) as f:
                recorded = json.load(f)
            recorded["flow0"][1] = "0" * 64  # another store digest
            with open(path, "w") as f:
                json.dump(recorded, f)
        code, result = self.bench()
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


def benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ContractTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in benchmark()["per_layer"]]
        self.assertEqual(declared, run.PER_LAYER)

    def test_benchmark_json_workloads_exist(self):
        for w in benchmark()["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "manylaunch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
