"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the tracer restores every name it wraps (also after an exception),
that tracing leaves the trace digest unchanged, that the output gate catches a
changed digest, and that each workload completes a short job with no failure.
Run it from the root of a checkout; it takes about half a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import job  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def short_approach(m):
    sc, _ = job.build(m, "approach")
    return dataclasses.replace(job.shorten(sc), noise=m.cli.NOISE_AMPLITUDE, seed=5)


class TracerRestoresNames(unittest.TestCase):
    def setUp(self):
        self.m = job.import_package()
        self.before = tracer_mod.bindings()

    def assert_restored(self):
        after = tracer_mod.bindings()
        self.assertEqual(after.keys(), self.before.keys())
        for key, original in self.before.items():
            self.assertIs(after[key], original, key)

    def test_every_target_is_wrapped_while_installed(self):
        tr = tracer_mod.Tracer("selftest")
        with tr.installed():
            during = tracer_mod.bindings()
            self.assertEqual(during.keys(), self.before.keys())
            for key, original in self.before.items():
                self.assertIsNot(during[key], original, key)
        self.assert_restored()

    def test_restored_after_traced_run(self):
        tr = tracer_mod.Tracer("selftest")
        with tr.installed():
            self.m.engine.run(short_approach(self.m))
        self.assert_restored()
        self.assertEqual(tr.layer_totals()["control.step"]["calls"], 1500)

    def test_restored_after_exception_inside_a_span(self):
        tr = tracer_mod.Tracer("selftest")
        with self.assertRaises(AttributeError):
            with tr.installed():
                self.m.engine.run(None)
        self.assert_restored()
        self.assertEqual(tr._stack, [])

    def test_restored_when_install_fails_midway(self):
        tr = tracer_mod.Tracer("selftest")
        broken = tracer_mod.TARGETS[:3] + (("ssmcell.engine", "no_such_name", "x", None, None, True),)
        with self.assertRaises(AttributeError):
            with tr.installed(broken):
                pass
        self.assert_restored()


class TracingLeavesTraceUnchanged(unittest.TestCase):
    def test_digest(self):
        m = job.import_package()
        sc = short_approach(m)
        plain = job.digest_lines(m.tracefile.trace_lines(m.engine.run(sc).trace))
        with tracer_mod.Tracer("selftest").installed():
            traced = m.engine.run(sc)
        self.assertEqual(job.digest_lines(m.tracefile.trace_lines(traced.trace)), plain)


class OutputGate(unittest.TestCase):
    def test_changed_digest_fails_the_job(self):
        first = {"kind": "timed", "ok": True, "problems": [], "digests": {"proposed": "a"},
                 "kpis": {}, "safety": {}}
        second = copy.deepcopy(first)
        second["digests"]["proposed"] = "b"
        run.check_jobs("sorting", 1, True, [first, second], refs={})
        self.assertTrue(first["ok"])
        self.assertFalse(second["ok"])

    def test_reference_applies_to_the_default_seed_of_approach_only(self):
        refs = {"approach": {"digests": {"proposed": "ref"}}}
        for seed, ok in ((run.DEFAULT_SEED, False), (run.DEFAULT_SEED + 1, True)):
            jobs = [{"kind": "verify", "ok": True, "problems": [], "digests": {"proposed": "x"}}]
            run.check_jobs("approach", seed, False, jobs, refs)
            self.assertEqual(jobs[0]["ok"], ok, seed)


class ShortJobs(unittest.TestCase):
    def test_each_workload_completes_without_failure(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = run.run_benchmark(workload, 5, seconds=0, traced=True, short=True)
                self.assertEqual(report["failed"], 0, report["jobs"])
                self.assertEqual(report["values"]["failed_ratio"], 0.0)
                self.assertGreater(report["values"]["wall_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
