#!/usr/bin/env python3
"""Tests of tools/perf_record.py on made-up run output.

    python3 tools/test_perf_record.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "perf_record.py")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    return subprocess.run([sys.executable, SCRIPT] + list(args),
                          capture_output=True, text=True)


class PerfRecord(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.file = os.path.join(self.dir.name, "trajectory.json")

    def tearDown(self):
        self.dir.cleanup()

    def write_run(self, side, workload, seed, scale, correct=True,
                  errors=()):
        """A run.py stdout whose every metric reads `scale` times its seed."""
        path = os.path.join(self.dir.name, "%s-%s-%d" % (side, workload, seed))
        metrics = {m["name"]: {"value": scale * seed, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        with open(path, "w") as f:
            f.write("build noise\n")
            json.dump({"workload": workload, "seed": seed,
                       "errors": list(errors)}, f)
            f.write("\n")
            json.dump({"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": metrics}, f)
            f.write("\n")
        return path

    def record(self, pr, seeds=(1, 2, 3)):
        parent, change = [], []
        for w in SPEC["workloads"]:
            for s in seeds:
                parent.append(self.write_run("parent", w["name"], s, 1.0))
                change.append(self.write_run("change", w["name"], s, 2.0))
        return run("--file", self.file, "--pr", str(pr), "--parent-commit",
                   "HEAD", "--parent", *parent, "--change", *change)

    def test_a_record_passes_the_check_and_counts_pairs(self):
        self.assertEqual(self.record(5).returncode, 0)
        self.assertEqual(self.record(6).returncode, 0)
        out = run("--check", "--file", self.file)
        self.assertEqual(out.returncode, 0, out.stderr)
        with open(self.file) as f:
            records = json.load(f)["records"]
        self.assertEqual([r["pr"] for r in records], [5, 6])
        self.assertIsNone(records[0]["change_commit"])
        self.assertEqual(records[0]["run_seconds"], SPEC["run_seconds"])
        for m in SPEC["end_to_end"]:
            got = records[0]["workloads"][SPEC["workloads"][0]["name"]][
                "metrics"][m["name"]]
            self.assertEqual(got["parent"], {"q1": 1.5, "median": 2, "q3": 2.5})
            self.assertEqual(got["change"]["median"], 4)
            want = 3 if m["better"] == "higher" else 0
            self.assertEqual(got["pairs_won"], want, m["name"])
            self.assertEqual(got["pairs_tied"], 0)

    def test_the_next_append_names_the_commit_that_added_a_record(self):
        def git(*argv):
            return subprocess.run(
                ["git", "-C", self.dir.name, "-c", "user.name=t",
                 "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"]
                + list(argv), capture_output=True, text=True,
                check=True).stdout.strip()
        git("init", "-q")
        self.assertEqual(self.record(5).returncode, 0)
        git("add", os.path.basename(self.file))
        git("commit", "-q", "-m", "record 5")
        sha = git("rev-parse", "HEAD")
        self.assertEqual(self.record(6).returncode, 0)
        with open(self.file) as f:
            records = json.load(f)["records"]
        self.assertEqual(records[0]["change_commit"], sha)
        self.assertIsNone(records[1]["change_commit"])

    def test_check_refuses_a_broken_record(self):
        self.assertEqual(self.record(5).returncode, 0)
        with open(self.file) as f:
            data = json.load(f)
        first = SPEC["workloads"][0]["name"]
        metric = SPEC["end_to_end"][0]["name"]
        cases = [
            lambda r: r["workloads"][first]["metrics"][metric]["parent"]
            .update(q1=9),
            lambda r: r["workloads"][first]["metrics"].pop(metric),
            lambda r: r["workloads"].pop(first),
            lambda r: r["workloads"][first]["metrics"][metric]
            .update(pairs_won=4),
            lambda r: r.update(parent_commit="abc"),
            lambda r: r.update(pr=0),
        ]
        for i, breaks in enumerate(cases):
            broken = json.loads(json.dumps(data))
            breaks(broken["records"][0])
            with open(self.file, "w") as f:
                json.dump(broken, f)
            self.assertEqual(run("--check", "--file", self.file).returncode, 1,
                             i)

    def test_a_run_without_a_partner_is_refused(self):
        workload = SPEC["workloads"][0]["name"]
        out = run("--file", self.file, "--pr", "5", "--parent-commit", "HEAD",
                  "--parent", self.write_run("parent", workload, 1, 1.0),
                  "--change", self.write_run("change", workload, 2, 1.0))
        self.assertEqual(out.returncode, 1)
        self.assertIn("without a partner", out.stderr)
        self.assertFalse(os.path.exists(self.file))

    def test_a_run_that_failed_its_checks_is_refused(self):
        workload = SPEC["workloads"][0]["name"]
        for broken in ({"correct": False},
                       {"errors": ["read of a wrong version"]}):
            out = run("--file", self.file, "--pr", "5", "--parent-commit",
                      "HEAD",
                      "--parent", self.write_run("parent", workload, 1, 1.0),
                      "--change", self.write_run("change", workload, 1, 1.0,
                                                 **broken))
            self.assertEqual(out.returncode, 1, broken)
            self.assertIn("failed its checks", out.stderr)
            self.assertFalse(os.path.exists(self.file))


if __name__ == "__main__":
    unittest.main()
