"""Self-test of the benchmark's output checks and metric names.

Run from the repository root:  python3 sweepbench/test_checks.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import check_job, check_stream  # noqa: E402

# Two records in the sbn.point.v3 shape sbn_sweep writes.
REFERENCE = (
    b'{"type":"sbn.point.v3","i":0,"config":"0xd59f47f7c651b70b",'
    b'"run":"0x818cb5ce592adebe","seed":7,"mode":"sweep",'
    b'"workload":"uniform","reps":1,"rounds":0,"converged":true,'
    b'"mean":0.39695999999999998,"mean_bits":"0x3fd967caea747d80",'
    b'"hw":0,"hw_bits":"0x0000000000000000"}\n'
    b'{"type":"sbn.point.v3","i":1,"config":"0x1ce4e669042b93a7",'
    b'"run":"0xaa40d1f0036bcd42","seed":7,"mode":"sweep",'
    b'"workload":"uniform","reps":1,"rounds":0,"converged":true,'
    b'"mean":1.83138,"mean_bits":"0x3ffd4d551d68c693",'
    b'"hw":0,"hw_bits":"0x0000000000000000"}\n'
)


class CheckTest(unittest.TestCase):
    def test_identical_stream_passes(self):
        self.assertEqual(check_job(0, REFERENCE, REFERENCE), "")

    def test_one_flipped_byte_is_caught_anywhere(self):
        for at in range(len(REFERENCE)):
            flipped = bytearray(REFERENCE)
            flipped[at] ^= 0x01
            with self.subTest(at=at):
                self.assertNotEqual(
                    check_job(0, bytes(flipped), REFERENCE), "")

    def test_flipped_digit_names_the_record(self):
        at = REFERENCE.rindex(b"1.83138") + 2
        flipped = bytearray(REFERENCE)
        flipped[at] = ord("9")
        self.assertIn("line 1", check_stream(bytes(flipped), REFERENCE))

    def test_missing_record_is_caught(self):
        first_only = REFERENCE.split(b"\n")[0] + b"\n"
        second_only = REFERENCE.split(b"\n")[1] + b"\n"
        for got in (first_only, second_only, b""):
            with self.subTest(got=got[:30]):
                self.assertIn("2 record(s) expected",
                              check_job(0, got, REFERENCE))

    def test_nonzero_exit_is_caught(self):
        self.assertEqual(check_job(75, REFERENCE, REFERENCE), "exit code 75")

    def test_missing_points_manifest_is_caught(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(
                os.path.abspath(__file__))) as job_dir:
            self.assertEqual(check_job(0, REFERENCE, REFERENCE, job_dir), "")
            with open(os.path.join(job_dir, "missing-points.json"), "w") as f:
                f.write("{}\n")
            self.assertEqual(check_job(0, REFERENCE, REFERENCE, job_dir),
                             "missing-points manifest written")


class BenchmarkJsonTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
