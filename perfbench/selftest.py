"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the checkout root.

Runs every workload on the tiny-horizon smoke profile, traced and untraced,
and checks the result line against ``BENCHMARK.json``; checks that the
golden-record checker rejects tampered values, both directly and through a
full run on a copy of the checkout; and checks that the benchmark refuses
to run where the program's sources are missing.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def bench(root: Path, *args):
    """Run ``run.py`` under ``root``; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int, root: Path = ROOT):
    code, lines = bench(root, "--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    return code, lines, json.loads(lines[-1])


def copy_checkout(name: str, with_src: bool) -> Path:
    dest = SCRATCH / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


class SmokeTest(unittest.TestCase):
    def check_result(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = smoke(workload, 0)
                self.assertEqual(code, 0)
                self.check_result(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_every_workload_traced(self):
        numpy_calls = {}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = smoke(workload, 1)
                self.assertEqual(code, 0)
                self.check_result(result, "per_layer")
                numpy_calls[workload] = result["metrics"]["numpy.calls_per_step"]["value"]
        self.assertEqual(numpy_calls["sl-recorded"], 0.0)
        self.assertGreater(numpy_calls["em-fuzzy"], 0.0)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.golden, self.rtol = workloads.load_golden("full")

    def test_exact_record_passes(self):
        for key, record in self.golden.items():
            self.assertEqual(workloads.mismatches(dict(record), record, self.rtol), [], key)

    def test_flipped_verdict_fails(self):
        record = self.golden["em-fuzzy"]
        for key in ("transient_ok", "steady_ok"):
            observed = dict(record, **{key: not record[key]})
            self.assertTrue(workloads.mismatches(observed, record, self.rtol), key)

    def test_peak_tolerance(self):
        record = self.golden["sweep-x0/em-fuzzy-far"]
        for key in workloads.PEAKS:
            near = dict(record, **{key: record[key] * (1 + 0.1 * self.rtol)})
            far = dict(record, **{key: record[key] * (1 + 10 * self.rtol)})
            self.assertEqual(workloads.mismatches(near, record, self.rtol), [], key)
            self.assertTrue(workloads.mismatches(far, record, self.rtol), key)

    def test_exit_code_error_and_missing_record_fail(self):
        record = self.golden["sweep-x0/weak-gain"]
        self.assertTrue(workloads.mismatches(dict(record, exit=0), record, self.rtol))
        self.assertTrue(workloads.mismatches(dict(record, error="SimulationDivergenceError"), record, self.rtol))
        self.assertEqual(
            workloads.check_runs("sweep-x0", {"unknown-run": {}}, self.golden, self.rtol),
            ["sweep-x0/unknown-run: no golden record"],
        )

    def test_tampered_golden_fails_a_full_run(self):
        root = copy_checkout("tampered", with_src=True)
        path = root / "perfbench" / "golden.json"
        data = json.loads(path.read_text())
        data["smoke"]["em-fuzzy"]["steady_ok"] = False
        path.write_text(json.dumps(data))
        code, lines, result = smoke("em-fuzzy", 0, root)
        self.assertEqual(code, 0)
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any(line.startswith("FAIL em-fuzzy: steady_ok") for line in lines))


class RefusalTest(unittest.TestCase):
    def test_no_sources_no_result(self):
        root = copy_checkout("bare", with_src=False)
        code, lines = bench(root, "--workload", "em-fuzzy", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    unittest.main(verbosity=2)
