"""Independent stdlib oracle for the trustpath outputs the benchmark produces.

Nothing here imports trustpath. Paths come from a brute-force recursive
DFS, ranks from the full rank key (-mean trust, mean untrust, enumeration
index), the route from a greedy walk over explicit 2x2 row-vector products,
and simulate counts from that route. The checkers parse each output as a
user would (strict JSON, the csv module, whitespace-split text) and raise
OutputMismatch on the first difference.
"""

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal

ARROW = "→"
VERDICT_TOL = 1e-12
# Theta and upsilon entries (min, max, ind) of the model's default operating point.
THETA = (0.51, 1.00, 0.50)
UPSILON = (0.49, 0.00, 0.50)
CLASS_ANCHORS = ((0.85, "VH"), (0.70, "H"), (0.50, "I"), (0.30, "L"), (0.00, "VL"))


class OutputMismatch(Exception):
    """A trustpath output disagrees with the oracle."""


@dataclass(frozen=True)
class Graph:
    """Nodes in declaration order and the trust value of every directed edge."""

    nodes: tuple[str, ...]
    trust: dict[tuple[str, str], float]
    source: str
    dest: str

    def pair(self, src: str, dst: str) -> tuple[float, float]:
        value = self.trust[(src, dst)]
        return value, 1.0 - value

    def successors(self) -> dict[str, list[str]]:
        order = {node: index for index, node in enumerate(self.nodes)}
        result: dict[str, list[str]] = {node: [] for node in self.nodes}
        for src, dst in self.trust:
            result[src].append(dst)
        for targets in result.values():
            targets.sort(key=order.__getitem__)
        return result


def simple_paths(graph: Graph) -> list[tuple[str, ...]]:
    """Every simple source-to-dest path, neighbours taken in declaration order."""
    successors = graph.successors()
    found: list[tuple[str, ...]] = []

    def extend(trail: list[str]) -> None:
        for nxt in successors[trail[-1]]:
            if nxt == graph.dest:
                found.append((*trail, nxt))
            elif nxt not in trail:
                trail.append(nxt)
                extend(trail)
                trail.pop()

    extend([graph.source])
    return found


def classify(value: float) -> str:
    return next(code for anchor, code in CLASS_ANCHORS if value >= anchor)


def truncate(value: float, decimals: int = 2) -> str:
    """The shortest decimal form of value, cut (never rounded) at decimals places."""
    return str(Decimal(repr(value)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_DOWN))


@dataclass(frozen=True)
class Ranked:
    rank: int
    path: tuple[str, ...]
    mean_trust: float
    mean_untrust: float
    cls: str


def ranking(graph: Graph, paths: list[tuple[str, ...]]) -> list[Ranked]:
    keyed = []
    for index, path in enumerate(paths):
        pairs = [graph.pair(a, b) for a, b in zip(path, path[1:])]
        mean_trust = sum(t for t, _ in pairs) / len(pairs)
        mean_untrust = sum(u for _, u in pairs) / len(pairs)
        keyed.append((-mean_trust, mean_untrust, index, path))
    keyed.sort()
    return [
        Ranked(rank, path, -negated, mean_untrust, classify(-negated))
        for rank, (negated, mean_untrust, _, path) in enumerate(keyed, start=1)
    ]


def _row_times(vector: tuple[float, float], matrix) -> tuple[float, float]:
    (m00, m01), (m10, m11) = matrix
    return vector[0] * m00 + vector[1] * m10, vector[0] * m01 + vector[1] * m11


def _verdict(trust: float, untrust: float) -> str:
    if abs(trust - untrust) <= VERDICT_TOL:
        return "indifferent"
    return "acceptable" if trust > untrust else "not_acceptable"


def hop(mode: str, arrival: tuple[float, float], edge: tuple[float, float]):
    """One hop test: the (trust, untrust) output and its verdict.

    The trust test multiplies [trust untrust] by [[theta_min, edge untrust],
    [theta_max, theta_ind]]; the untrust test multiplies [untrust trust] by
    [[upsilon_min, edge trust], [upsilon_max, upsilon_ind]] and yields
    (untrust, trust).
    """
    if mode == "trust":
        trust, untrust = _row_times(arrival, ((THETA[0], edge[1]), (THETA[1], THETA[2])))
    else:
        untrust, trust = _row_times(
            (arrival[1], arrival[0]), ((UPSILON[0], edge[0]), (UPSILON[1], UPSILON[2]))
        )
    return trust, untrust, _verdict(trust, untrust)


def evaluate(graph: Graph, path: tuple[str, ...], mode: str) -> list[tuple]:
    """Hop results along path under edge chaining: hop k > 1 arrives with edge k - 1."""
    arrival = (1.0, 0.0)
    hops = []
    for src, dst in zip(path, path[1:]):
        edge = graph.pair(src, dst)
        hops.append(hop(mode, arrival, edge))
        arrival = edge
    return hops


@dataclass(frozen=True)
class Route:
    path: tuple[str, ...]
    steps: tuple[tuple, ...]  # (src, dst, edge trust, hop trust, hop untrust, verdict)
    reached: bool


def greedy_route(graph: Graph) -> Route:
    """Take the most trusted acceptable edge to an unvisited node; first wins ties."""
    successors = graph.successors()
    node, arrival, path, steps = graph.source, (1.0, 0.0), [graph.source], []
    while node != graph.dest:
        best = None
        for nxt in successors[node]:
            if nxt in path:
                continue
            edge = graph.pair(node, nxt)
            result = hop("trust", arrival, edge)
            if result[2] == "acceptable" and (best is None or edge[0] > best[1][0]):
                best = (nxt, edge, result)
        if best is None:
            return Route(tuple(path), tuple(steps), False)
        nxt, edge, result = best
        steps.append((node, nxt, edge[0], *result))
        path.append(nxt)
        node, arrival = nxt, edge
    return Route(tuple(path), tuple(steps), True)


class Expected:
    """What every command of a workload must print, computed once per graph."""

    def __init__(self, graph: Graph, enumerate_paths: bool):
        self.graph = graph
        self.paths = simple_paths(graph) if enumerate_paths else []
        self.ranked = ranking(graph, self.paths)
        self.route = greedy_route(graph)

    def check(self, argv: list[str], exit_code: int, stdout: str) -> None:
        """Raise OutputMismatch unless exit_code and stdout are right for argv."""
        command = argv[0]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        checker = getattr(self, f"_{command}_{fmt}", None)
        if checker is None:
            raise OutputMismatch(f"no oracle for {command} --format {fmt}")
        try:
            expected_code = checker(argv, stdout)
        except (KeyError, TypeError, IndexError, ValueError) as err:
            raise OutputMismatch(f"{command}: malformed output ({err!r:.200})") from None
        if exit_code != expected_code:
            raise OutputMismatch(f"{command}: exit code {exit_code}, expected {expected_code}")

    def _rank_json(self, argv, stdout):
        top = int(argv[argv.index("--top") + 1]) if "--top" in argv else None
        doc = strict_json(stdout)
        _same("rank command", doc["command"], "rank")
        _same("rank --top", doc["inputs"]["top"], top)
        _same("rank count", doc["results"]["count"], len(self.ranked))
        expected = [
            {"rank": r.rank, "path": list(r.path), "mean_trust": r.mean_trust,
             "mean_untrust": r.mean_untrust, "class": r.cls}
            for r in self.ranked[:top]
        ]
        _same_rows("rank json", doc["results"]["paths"], expected)
        return 0

    def _rank_text(self, argv, stdout):
        rows = [line.split() for line in stdout.splitlines()]
        expected = [["rank", "path", "mean_trust", "mean_untrust", "class"]] + [
            [str(r.rank), ARROW.join(r.path), truncate(r.mean_trust), truncate(r.mean_untrust), r.cls]
            for r in self.ranked
        ]
        _same_rows("rank text", rows, expected)
        return 0

    def _rank_csv(self, argv, stdout):
        expected = [["rank", "path", "mean_trust", "mean_untrust", "class"]] + [
            [str(r.rank), ARROW.join(r.path), repr(r.mean_trust), repr(r.mean_untrust), r.cls]
            for r in self.ranked
        ]
        _same_rows("rank csv", list(csv.reader(io.StringIO(stdout))), expected)
        return 0

    def _enumerate_json(self, argv, stdout):
        doc = strict_json(stdout)
        _same("enumerate count", doc["results"]["count"], len(self.paths))
        expected = [{"index": i, "path": list(p)} for i, p in enumerate(self.paths, start=1)]
        _same_rows("enumerate json", doc["results"]["paths"], expected)
        return 0

    def _route_text(self, argv, stdout):
        route = self.route
        expected = [f"route {ARROW.join(route.path)}"]
        for number, (src, dst, edge_trust, trust, untrust, verdict) in enumerate(route.steps, 1):
            expected.append(
                f"step {number} {src}{ARROW}{dst} edge_trust={truncate(edge_trust)} "
                f"trust={truncate(trust)} untrust={truncate(untrust)} {verdict}"
            )
        expected.append(f"reached {'yes' if route.reached else 'no'}")
        if route.reached:
            trusts = [self.graph.trust[(a, b)] for a, b in zip(route.path, route.path[1:])]
            expected.append(f"mean_trust {truncate(sum(trusts) / len(trusts))}")
        else:
            expected.append(f"stuck {route.path[-1]}")
        _same_rows("route text", stdout.splitlines(), expected)
        return 0 if route.reached else 2

    def _check_csv(self, argv, stdout):
        path = tuple(argv[1].split(","))
        mode = argv[argv.index("--mode") + 1]
        modes = ["trust", "untrust"] if mode == "both" else [mode]
        expected = [["mode", "hop", "from", "to", "trust", "untrust", "verdict"]]
        confidential = True
        for mode in modes:
            for number, (trust, untrust, verdict) in enumerate(evaluate(self.graph, path, mode), 1):
                expected.append([mode, str(number), path[number - 1], path[number],
                                 repr(trust), repr(untrust), verdict])
                confidential = confidential and verdict == "acceptable"
        _same_rows("check csv", list(csv.reader(io.StringIO(stdout))), expected)
        return 0 if confidential else 2

    def _simulate_json(self, argv, stdout):
        packets = int(argv[argv.index("--packets") + 1])
        doc = strict_json(stdout)
        route = self.route
        expected = {
            "packets_sent": packets,
            "delivered": packets if route.reached else 0,
            "dropped": 0 if route.reached else packets,
            "route_usage": [{"path": list(route.path), "packets": packets}] if route.reached else [],
            "drop_points": [] if route.reached else [{"node": route.path[-1], "packets": packets}],
        }
        _same("simulate results", doc["results"], expected)
        return 0


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which strict JSON does not allow."""

    def reject(token):
        raise OutputMismatch(f"non-standard JSON constant {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as err:
        raise OutputMismatch(f"invalid JSON: {err}") from None


def _same(what: str, actual, expected) -> None:
    if actual != expected:
        raise OutputMismatch(f"{what}: got {actual!r:.200}, expected {expected!r:.200}")


def _same_rows(what: str, actual: list, expected: list) -> None:
    for number, (got, want) in enumerate(zip(actual, expected), start=1):
        _same(f"{what} row {number}", got, want)
    _same(f"{what} row count", len(actual), len(expected))
