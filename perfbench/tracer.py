"""Outside-in tracer for the trustpath layers, run in process.

The tracer replaces public functions where their callers look them up (the
names imported into trustpath.cli, trustpath.pathing and trustpath.sim, plus
Topology.edge and Topology.successors) and restores them afterwards. Coarse
calls get spans. Hot per-path and per-hop calls get counts; those whose time
is reported are also timed in place, so that their callers' self time
excludes them, and their recorded arguments are replayed afterwards without
any wrapper, because wrapper cost would dominate a call of a microsecond.
Spans and counters stay in memory until the caller writes them out.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    """One call of a coarse function; child_s is the time its traced callees took."""

    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name: str, parent: int, start: float):
        self.name, self.parent, self.start, self.end, self.child_s = name, parent, start, 0.0, 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Spans, counters and recorded hot calls of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.calls: defaultdict[str, list] = defaultdict(list)  # hot name -> [(fn, args)]
        self._stack: list[int] = []

    def span(self, name: str, fn, observe=None):
        """Wrap a coarse function so every call records a span under the current one."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = Span(name, parent, perf_counter())
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record.end = perf_counter()
                if parent >= 0:
                    spans[parent].child_s += record.duration
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def hot(self, name: str, fn, observe=None):
        """Wrap a hot function: count it, charge its time to the caller's span, keep its arguments."""
        spans, stack, counts, calls = self.spans, self._stack, self.counts, self.calls[name]

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            spans[stack[-1]].child_s += perf_counter() - start
            counts[name] += 1
            calls.append((fn, args))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn, observe=None):
        """Wrap a hot function with a call counter only; observe is unused."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def installed(self, cli, pathing, sim, topology_class):
        """Patch the trustpath modules for the duration of the block."""
        plan = [
            (cli, "parse_topology", self.span, "topology.parse", None),
            (cli, "rank_paths", self.span, "pathing.rank", None),
            (cli, "enumerate_paths", self.span, "pathing.enumerate", _on_paths),
            (pathing, "enumerate_paths", self.span, "pathing.enumerate", _on_paths),
            (cli, "most_likely_route", self.span, "pathing.route", None),
            (sim, "most_likely_route", self.span, "pathing.route", None),
            (cli, "evaluate_path", self.span, "propagation.evaluate", _on_evaluation),
            (cli, "simulate", self.span, "sim.simulate", _on_report),
            (cli, "path_mean_trust", self.hot, "pathing.score", None),
            (pathing, "path_mean_trust", self.hot, "pathing.score", None),
            (pathing, "path_mean_untrust", self.hot, "pathing.score", None),
            (pathing, "propagate_trust_hop", self.hot, "propagation.hop", _on_hop),
            (cli, "display_round", self.hot, "core.display_round", None),
            (topology_class, "edge", self.counted, "topology.edge", None),
            (topology_class, "successors", self.counted, "topology.successors", None),
        ]
        originals = []
        try:
            for owner, attr, wrap, name, observe in plan:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def replay(self, name: str) -> float:
        """Seconds the recorded calls of a hot function take when run again unwrapped.

        Call only after the installed() block has ended.
        """
        calls = self.calls[name]
        if not calls:
            return 0.0
        start = perf_counter()
        for fn, args in calls:
            fn(*args)
        return perf_counter() - start

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def self_total(self, name: str) -> float:
        return sum(span.self_s for span in self.spans if span.name == name)

    def dump(self) -> dict:
        """Spans as [name, parent index, start, end] rows, plus the counters."""
        return {
            "spans": [[s.name, s.parent, s.start, s.end] for s in self.spans],
            "counts": dict(sorted(self.counts.items())),
        }


def _on_paths(tracer: Tracer, paths) -> None:
    tracer.counts["pathing.paths"] += len(paths)


def _on_evaluation(tracer: Tracer, evaluation) -> None:
    tracer.counts["propagation.hop"] += len(evaluation.hops)
    tracer.counts["propagation.accepted"] += sum(
        hop.verdict.value == "acceptable" for hop in evaluation.hops
    )


def _on_hop(tracer: Tracer, hop) -> None:
    tracer.counts["propagation.accepted"] += hop.verdict.value == "acceptable"


def _on_report(tracer: Tracer, report) -> None:
    tracer.counts["sim.packets"] += report.packets_sent


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """The per-layer times and counts of one traced pass.

    Times are sums over spans of their durations (parse, enumerate) or self
    times (rank: sort and record build; route: the walk without its hop
    tests; simulate; cli: argument parsing, file reading and rendering).
    The hot calls (path means, hop tests, display rounding) are timed by
    replaying them unwrapped; propagation.evaluate_s adds the replayed hop
    tests to the evaluate_path spans of ``check``. A metric of a layer that
    does not run reads 0.
    """
    counts = tracer.counts
    spans = tracer.spans
    paths = counts["pathing.paths"]
    hop_tests = counts["propagation.hop"]
    walks_in_sim = sum(
        1 for s in spans if s.name == "pathing.route" and s.parent >= 0
        and spans[s.parent].name == "sim.simulate"
    )
    times = {
        "topology.parse_s": tracer.total("topology.parse"),
        "pathing.enumerate_s": tracer.total("pathing.enumerate"),
        "pathing.score_s": tracer.replay("pathing.score"),
        "pathing.rank_self_s": tracer.self_total("pathing.rank"),
        "pathing.route_s": tracer.self_total("pathing.route"),
        "sim.simulate_self_s": tracer.self_total("sim.simulate"),
        "propagation.evaluate_s": tracer.total("propagation.evaluate")
        + tracer.replay("propagation.hop"),
        "cli.self_s": tracer.self_total("cli"),
        "core.display_round_s": tracer.replay("core.display_round"),
    }
    tallies = {
        "topology.edge_lookups": counts["topology.edge"],
        "pathing.paths_enumerated": paths,
        "pathing.paths_per_expansion": paths / counts["topology.successors"] if paths else 0.0,
        "pathing.score_calls": counts["pathing.score"],
        "pathing.route_calls": sum(1 for s in spans if s.name == "pathing.route"),
        "sim.route_walks_per_packet": walks_in_sim / counts["sim.packets"]
        if counts["sim.packets"] else 0.0,
        "propagation.hop_tests": hop_tests,
        "propagation.accept_ratio": counts["propagation.accepted"] / hop_tests if hop_tests else 0.0,
        "core.display_round_calls": counts["core.display_round"],
    }
    return times, tallies
