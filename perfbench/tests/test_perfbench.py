"""Tests of the benchmark itself: generator, oracle and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests`` or
``python3 -m unittest discover -s perfbench/tests``.
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from trustpath import cli  # noqa: E402

WORK = BENCH / "work"


def _prepare(name: str, seed: int = 5):
    workload = workloads.WORKLOADS[name]
    graph = workloads.generate(workload, seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"test-{name}-{seed}.trust"
    path.write_text(workloads.topology_text(graph), encoding="utf-8")
    expected = oracle.Expected(graph, enumerate_paths=workload.simple_paths is not None)
    return workloads.commands(workload, graph, str(path)), expected


def _output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_text_other_seed_other_values(self):
        for workload in workloads.WORKLOADS.values():
            with self.subTest(workload.name):
                first = workloads.topology_text(workloads.generate(workload, 11))
                self.assertEqual(first, workloads.topology_text(workloads.generate(workload, 11)))
                other = workloads.topology_text(workloads.generate(workload, 12))
                self.assertNotEqual(first, other)
                shape = [line.split()[:3] for line in first.splitlines()]
                self.assertEqual(shape, [line.split()[:3] for line in other.splitlines()])

    def test_structure_mismatch_is_refused(self):
        wrong = workloads.Workload("rank-dag", "", (3, 3), rings=False, nodes=8, edges=15,
                                   simple_paths=10, route_hops=3)
        with self.assertRaisesRegex(RuntimeError, "9 simple paths, expected 10"):
            workloads.generate(wrong, 1)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.commands, cls.expected = _prepare("report-cyclic")

    def _argv(self, command: str, fmt: str) -> list[str]:
        for argv in self.commands:
            if argv[0] == command and (fmt in argv or fmt == "text" and "--format" not in argv):
                return argv
        raise LookupError(command, fmt)

    def test_accepts_real_outputs(self):
        for argv in self.commands:
            with self.subTest(argv[0]):
                self.expected.check(argv, *_output(argv))

    def test_rejects_swapped_ranked_rows(self):
        for fmt in ("csv", "text"):
            with self.subTest(fmt):
                argv = self._argv("rank", fmt)
                code, text = _output(argv)
                lines = text.splitlines(keepends=True)
                lines[1], lines[2] = lines[2], lines[1]
                with self.assertRaisesRegex(oracle.OutputMismatch, "row 2"):
                    self.expected.check(argv, code, "".join(lines))

    def test_rejects_changed_digit_bad_json_and_exit_code(self):
        argv = self._argv("enumerate", "json")
        code, text = _output(argv)
        with self.assertRaises(oracle.OutputMismatch):
            self.expected.check(argv, code, text.replace('"count": 21952', '"count": 21953'))
        with self.assertRaisesRegex(oracle.OutputMismatch, "non-standard JSON"):
            self.expected.check(argv, code, text.replace("21952", "NaN", 1))
        with self.assertRaisesRegex(oracle.OutputMismatch, "exit code"):
            self.expected.check(argv, 1, text)

    def test_rejects_wrong_route_and_hop_values(self):
        commands, expected = _prepare("route-sim")
        route, check, simulate = commands
        code, text = _output(route)
        with self.assertRaises(oracle.OutputMismatch):
            expected.check(route, code, text.replace("reached yes", "reached no"))
        code, text = _output(check)
        rows = text.splitlines()
        rows[3] = rows[3].replace("acceptable", "not_acceptable")
        with self.assertRaises(oracle.OutputMismatch):
            expected.check(check, code, "\n".join(rows) + "\n")
        code, text = _output(simulate)
        with self.assertRaises(oracle.OutputMismatch):
            expected.check(simulate, code, text.replace('"dropped": 0', '"dropped": 1'))


class TracerTest(unittest.TestCase):
    def _twice(self, name: str):
        commands, expected = _prepare(name)
        checker = run.Checker(expected)
        first = run.traced_pass(commands, checker)
        second = run.traced_pass(commands, checker)
        self.assertEqual((checker.attempted, checker.failed), (2 * len(commands), 0))
        return first, second

    def test_counters_repeat_exactly_on_rank_dag(self):
        (_, _, counts, _), (_, _, again, _) = self._twice("rank-dag")
        self.assertEqual(counts, again)
        self.assertEqual(counts["topology.edge_lookups"], 1_200_000)
        self.assertEqual(counts["pathing.score_calls"], 200_000)
        self.assertEqual(counts["pathing.paths_enumerated"], 100_000)
        self.assertAlmostEqual(counts["pathing.paths_per_expansion"], 100_000 / 111_111)

    def test_counters_repeat_exactly_on_route_sim_and_patches_are_removed(self):
        from trustpath import pathing, topology

        originals = (cli.rank_paths, pathing.path_mean_trust, topology.Topology.edge)
        (_, times, counts, _), (_, _, again, _) = self._twice("route-sim")
        self.assertEqual(counts, again)
        self.assertEqual(counts["sim.route_walks_per_packet"], 1.0)
        self.assertEqual(counts["pathing.route_calls"], workloads.ROUTE_SIM_PACKETS + 1)
        self.assertGreater(times["propagation.evaluate_s"], 0.0)
        self.assertEqual(times["pathing.enumerate_s"], 0.0)
        self.assertEqual(originals, (cli.rank_paths, pathing.path_mean_trust, topology.Topology.edge))


if __name__ == "__main__":
    unittest.main()
