"""Self-checks of the benchmark itself.

    python3 bench/selftest.py

Checks that the exact counts repeat between two runs, that tracing changes
no output and restores every patched attribute, that a result line has the
declared shape, and that the benchmark refuses to run without the sources.
Takes about a minute; it starts short benchmark runs as subprocesses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed_loop_batch", "cli_simulate_report", "replay_30hz")


def bench_run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout: str, prefix: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith(prefix + " "))


class CountsRepeat(unittest.TestCase):
    def test_two_traced_runs_print_identical_counts_and_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = bench_run(workload, 3, 1), bench_run(workload, 3, 1)
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                self.assertEqual(printed(first.stdout, "counts"), printed(second.stdout, "counts"))
                self.assertEqual(printed(first.stdout, "digest"), printed(second.stdout, "digest"))
                counts = json.loads(printed(first.stdout, "counts").split(" ", 1)[1])
                self.assertIn("geometry_calls_per_sample", counts)
                self.assertIn("rate_clamps", counts)


class ResultShape(unittest.TestCase):
    def test_untraced_result_has_every_end_to_end_metric(self):
        proc = bench_run("replay_30hz", 2, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("closed_loop_batch", 1, 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


class TracingIsTransparent(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if str(worker.SRC) not in sys.path:
            worker.import_program()

    def test_traced_pass_matches_untraced_and_restores_attributes(self):
        import spans
        from workloads import WORKLOADS as CLASSES

        sites = spans.patch_sites()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
        self.assertGreater(len(sites), 40)
        for workload in WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                wl = CLASSES[workload](5, Path(tmp))
                wl.prepare()
                untraced = wl.check([call() for call in wl.calls()])
                tracer = spans.Tracer()
                wl.prepare()
                tracer.install()
                try:
                    self.assertTrue(all(getattr(o, a) is not f for o, a, f in originals))
                    traced = wl.check([call() for call in wl.calls()])
                finally:
                    tracer.uninstall()
                self.assertTrue(all(getattr(o, a) is f for o, a, f in originals))
                self.assertGreater(len(tracer.name_of), wl.samples)
                self.assertEqual(untraced.failed, 0, untraced.problems)
                self.assertEqual(traced.digests, untraced.digests)
                self.assertEqual(traced.counts, untraced.counts)


if __name__ == "__main__":
    unittest.main()
