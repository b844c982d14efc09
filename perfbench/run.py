"""Benchmark of the trustpath command on seeded workloads, with oracle-checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload rank-dag --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: each command of the workload runs
as a fresh ``python -m trustpath`` process (PYTHONPATH=src) and the next one
starts when it has exited, so at most two processes run at once. Every output
is checked against perfbench/oracle.py. With --trace 0 the result holds the
end-to-end metrics, each the median over the passes of the run. Times are
given in "ref", the wall time of perfbench/reference.py measured in the same
pass, because the speed of a shared host drifts by up to a third; setup_s is
converted from ref to seconds at a fixed rate. With --trace 1 the same commands run in process under
perfbench/tracer.py and the result holds the per-layer metrics. Measurements use only this process, its
children's rusage and the clock: no system-wide tracing, no cache dropping.
The last line of standard output is the JSON result. perfbench/baseline.json
holds the seed baseline and the end-to-end metric each per-layer metric
should move.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
#: Seconds per ref for setup_s: reference.py's median wall time on the 2-vCPU
#: host of the recorded baseline. setup_s must be in seconds, and converting
#: from ref keeps it as steady as the other times.
SECONDS_PER_REF = 0.16
MIN_PASSES = 3


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    maxrss_mb: float


class Checker:
    """Checks each invocation against the oracle and tallies attempts and failures."""

    def __init__(self, expected: oracle.Expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, argv: list[str], exit_code: int, stdout: str | None, stderr: str) -> bool:
        self.attempted += 1
        try:
            if stderr:
                raise oracle.OutputMismatch(f"stderr: {stderr.strip()[:200]}")
            if stdout is None:  # fixture output goes to /dev/null
                if exit_code != 0:
                    raise oracle.OutputMismatch(f"exit code {exit_code}, expected 0")
            else:
                self.expected.check(argv, exit_code, stdout)
        except oracle.OutputMismatch as err:
            self.failed += 1
            print(f"FAILED trustpath {' '.join(argv)}: {err}", file=sys.stderr)
            return False
        return True


def spawn(args: list[str], stdout_path: str, stderr_path: Path) -> tuple[float, int, object]:
    """Run ``python args`` to exit; wall seconds, exit code, rusage."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), write, 0o644),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage


def run_process(argv: list[str], checker: Checker, keep_stdout: bool = True) -> Invocation:
    out, err = WORK / "stdout", WORK / "stderr"
    stdout_path = str(out) if keep_stdout else os.devnull
    wall, code, usage = spawn(["-m", "trustpath", *argv], stdout_path, err)
    stdout = out.read_text(encoding="utf-8") if keep_stdout else None
    checker.record(argv, code, stdout, err.read_text(encoding="utf-8"))
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_reference() -> Invocation:
    """Run perfbench/reference.py, the unit of time of the end-to-end metrics."""
    err = WORK / "stderr"
    wall, code, usage = spawn([str(REFERENCE)], os.devnull, err)
    if code != 0:
        raise RuntimeError(f"reference.py exited {code}: {err.read_text(encoding='utf-8')}")
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def measure_end_to_end(workload, commands, checker: Checker, seconds: float) -> dict:
    """Passes through the command list until the time is up; medians per pass.

    Each pass runs the fixture, then reference.py, then the commands; the
    *_ref metrics divide the commands' times by the reference's time in
    the same pass, and setup_s is the fixture's time in ref converted at
    SECONDS_PER_REF. The plain seconds (*_raw_s) are printed but not part
    of the result.
    """
    fixture = ["fixture"]
    run_process(fixture, checker, keep_stdout=False)  # warm-up: bytecode cache, page cache
    run_reference()
    for argv in commands:
        run_process(argv, checker)
    samples: dict[str, list[float]] = {
        "wall_ref": [], "cpu_ref": [], "items_per_ref": [], "setup_s": [], "peak_rss_mb": [],
        "wall_raw_s": [], "cpu_raw_s": [], "setup_raw_s": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples["wall_ref"]) < MIN_PASSES:
        setup = run_process(fixture, checker, keep_stdout=False).wall_s
        ref = run_reference()
        runs = [run_process(argv, checker) for argv in commands]
        wall, cpu = sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs)
        samples["wall_raw_s"].append(wall)
        samples["cpu_raw_s"].append(cpu)
        samples["setup_raw_s"].append(setup)
        samples["setup_s"].append(setup / ref.wall_s * SECONDS_PER_REF)
        samples["wall_ref"].append(wall / ref.wall_s)
        samples["cpu_ref"].append(cpu / ref.cpu_s)
        samples["peak_rss_mb"].append(max(r.maxrss_mb for r in runs))
        if workload.simple_paths is None:  # route-sim: packets over the simulate process
            items, timed = workloads.ROUTE_SIM_PACKETS, runs[-1].wall_s
        else:  # every command ranks or lists all simple paths
            items, timed = workload.simple_paths * len(runs), wall
        samples["items_per_ref"].append(items / (timed / ref.wall_s))
    for name, values in samples.items():
        print(f"{name}: median of {len(values)} passes; quartiles "
              f"{', '.join(f'{q:.6g}' for q in statistics.quantiles(values, n=4))}")
    return {name: statistics.median(values) for name, values in samples.items()}


def run_in_process(main, commands, checker: Checker) -> tuple[float, int]:
    """Wall seconds and stdout bytes of one pass through the commands via main(argv)."""
    gc.collect()
    wall, size = 0.0, 0
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        wall += time.perf_counter() - start
        checker.record(argv, code, out.getvalue(), err.getvalue())
        size += len(out.getvalue().encode("utf-8"))
    return wall, size


def traced_pass(commands, checker: Checker) -> tuple[float, dict, dict, dict]:
    """One in-process pass under the tracer: wall seconds, layer times, layer counts, trace dump.

    The tracer and its recorded calls are dropped on return, so that they do
    not weigh on the garbage collector in later passes. The trustpath
    package must be importable (src on sys.path).
    """
    from trustpath import cli, pathing, sim, topology

    tracer = tracing.Tracer()
    with tracer.installed(cli, pathing, sim, topology.Topology):
        wall, output_bytes = run_in_process(tracer.span("cli", cli.main), commands, checker)
    times, counts = tracing.layer_metrics(tracer)
    counts["cli.output_bytes"] = output_bytes
    return wall, times, counts, tracer.dump()


def measure_layers(commands, checker: Checker, seconds: float, trace_file: Path) -> dict:
    """Untraced and traced in-process passes until the time is up; medians per pass.

    Counters must repeat exactly between traced passes; a pass whose
    counters differ from the first counts as a failed attempt.
    """
    from trustpath import cli

    run_in_process(cli.main, commands, checker)  # warm-up
    samples: dict[str, list[float]] = {"trace.overhead_ratio": []}
    first_counts = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples["trace.overhead_ratio"]) < 2:
        untraced, _ = run_in_process(cli.main, commands, checker)
        traced, times, counts, dump = traced_pass(commands, checker)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            checker.attempted += 1
            checker.failed += 1
            print(f"FAILED counters differ between traced passes: {counts} != {first_counts}",
                  file=sys.stderr)
        samples["trace.overhead_ratio"].append(traced / untraced)
        for name, value in times.items():
            samples.setdefault(name, []).append(value)
    trace_file.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(f"traced passes: {len(samples['trace.overhead_ratio'])}; spans and counters of the "
          f"last one in {trace_file.relative_to(ROOT)}")
    return {**first_counts, **{name: statistics.median(v) for name, v in samples.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so that spawn() kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "trustpath" / "__init__.py").is_file():
        print(f"error: trustpath sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    graph = workloads.generate(workload, args.seed)
    WORK.mkdir(exist_ok=True)
    topology_file = WORK / f"{workload.name}-{args.seed}.trust"
    topology_file.write_text(workloads.topology_text(graph), encoding="utf-8")
    commands = workloads.commands(workload, graph, str(topology_file))
    checker = Checker(oracle.Expected(graph, enumerate_paths=workload.simple_paths is not None))
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")

    if args.trace:
        sys.path.insert(0, str(SRC))
        trace_file = WORK / f"trace-{workload.name}-{args.seed}.json"
        values = measure_layers(commands, checker, args.seconds, trace_file)
        units = _units("per_layer")
    else:
        values = measure_end_to_end(workload, commands, checker, args.seconds)
        units = _units("end_to_end")
    print(f"fail_ratio: {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} invocations)")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
