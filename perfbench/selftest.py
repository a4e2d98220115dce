"""Self-tests of the benchmark tooling (not of qsl2 itself).

    python3 perfbench/selftest.py

They check that a wrong reference is counted as a failed op, that every
metric name is well formed and declared in BENCHMARK.json, that traced
counts repeat exactly from run to run, that tracing leaves the package as
it found it, and that the runner refuses to report from a tree without the
package sources.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def mini_workload():
    """A few cheap ops from each workload, for traced runs in a test."""
    run.fresh_import()
    mods = workloads._modules()
    grid = [workloads.grid_op(mods, name, params,
                              workloads.grid_reference(name, params))
            for name, params in (("battery", {"ell": 3}), ("taft", {"ell": 3}),
                                 ("cz2n", {"n": 2}), ("dihedral", {"m": 2}))]
    cases = [c for c in workloads.construct_cases(7)
             if c.name.startswith(("twist(ell=4", "catalog-torus"))]
    construct = [workloads.construct_op(mods, c) for c in cases]
    setup = workloads.VerifySetup(mods)
    verify = [workloads.verify_op(mods, setup, d, workloads.verify_reference(d))
              for d in workloads.VERIFY_MENU
              if d["ell"] in (2, 3, 4) and d["call"] != "run_battery"]
    ops = grid + construct + verify
    return workloads.Workload("mini", ops, ops, min_passes=1, inputs=[])


class ReferenceTests(unittest.TestCase):
    def setUp(self):
        run.fresh_import()
        self.mods = workloads._modules()

    def test_wrong_grid_reference_is_a_failed_op(self):
        right = workloads.grid_op(self.mods, "widehat-dual", {"ell": 3},
                                  workloads.grid_reference("widehat-dual",
                                                           {"ell": 3}))
        wrong = workloads.grid_op(self.mods, "widehat-dual", {"ell": 3},
                                  {"dimension": "Finite(28)"})
        self.assertEqual(run.run_op(right).failures, [])
        out = run.run_op(wrong)
        self.assertTrue(out.failures)
        self.assertTrue(out.unsound)       # the package said "pass"
        check = run.check_outputs([run.Pass([("wrong", 0.0, 0.0, out)])])
        self.assertEqual(check["failed"], 1)
        self.assertEqual(check["unsound"], ["wrong"])

    def test_wrong_construct_reference_is_a_failed_op(self):
        case = next(c for c in workloads.construct_cases(3)
                    if c.name.startswith("twist") and not c.accept)
        self.assertEqual(run.run_op(
            workloads.construct_op(self.mods, case)).failures, [])
        case.accept, case.dim, case.h_dim = True, "Finite(1)", "Finite(1)"
        self.assertTrue(run.run_op(
            workloads.construct_op(self.mods, case)).failures)

    def test_raising_op_is_a_failed_op(self):
        def boom():
            raise ZeroDivisionError("boom")
        out = run.run_op(workloads.Op("boom", boom))
        self.assertEqual(out.failures, ["raised ZeroDivisionError: boom"])

    def test_seeded_inputs(self):
        for build in (workloads.construct_cases, workloads.verify_stream):
            self.assertEqual(repr(build(5)), repr(build(5)))
            self.assertNotEqual(repr(build(5)), repr(build(6)))


class MetricNameTests(unittest.TestCase):
    def test_names_are_well_formed_and_declared(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(declared_e2e, run.END_TO_END)
        self.assertEqual(declared_layer, tracing.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(workloads.BUILDERS))
        for name, _ in declared_e2e + declared_layer:
            self.assertTrue(NAME.fullmatch(name), name)


class TraceTests(unittest.TestCase):
    def traced_snapshots(self, workload=None):
        workload = workload or mini_workload()
        with run.SpeedClock() as clock:
            untraced, traced, snapshots, _ = run.measure(workload, 0, True,
                                                         clock)
        check = run.check_outputs([run.wall_pass(timed)
                                   for timed in untraced + traced])
        self.assertEqual(check["unstable"], [])    # tracing keeps outputs
        self.assertLessEqual({name for name, _ in tracing.PER_LAYER},
                             set(snapshots[0]) | {"trace.overhead_share"})
        return snapshots

    def test_counts_repeat_exactly(self):
        first, second = self.traced_snapshots(), self.traced_snapshots()
        exact = [name for name, unit in tracing.PER_LAYER
                 if unit in ("count", "ratio") and name != "trace.overhead_share"]
        for name in exact:
            values = {s[name] for s in first + second}
            self.assertEqual(len(values), 1, f"{name}: {values}")
        self.assertGreater(first[0]["cyclo.mul.calls"], 0)
        self.assertGreater(first[0]["subgroups.construct.rejected_share"], 0)

    def test_uninstall_restores_the_package(self):
        workload = mini_workload()
        mods = workloads._modules()
        cyclo = sys.modules["qsl2.cyclo"]

        def attrs():
            return (mods["rewrite"].normal_form, mods["hopf"].normal_form,
                    cyclo.CycRat.__dict__["__mul__"], workloads.render_report)

        before = attrs()
        self.traced_snapshots(workload)
        self.assertEqual(attrs(), before)


class BareTreeTests(unittest.TestCase):
    def test_no_result_without_sources(self):
        bare = run.OUT_DIR / "bare-tree"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
