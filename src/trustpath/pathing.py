"""Simple-path enumeration, mean-trust ranking, and greedy route selection."""

import heapq
from typing import NamedTuple

from .core import DEFAULT_CONSTANTS, FULL_TRUST, ModelConstants, TrustPair, classify
from .propagation import HopResult, Verdict, propagate_trust_hop
from .topology import Topology

#: Node sequence from source to destination.
Path = tuple[str, ...]

#: Default ceiling on the number of enumerated simple paths.
DEFAULT_PATH_CAP = 1_000_000


class PathCapExceeded(RuntimeError):
    """Simple-path enumeration found more paths than the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"more than {cap} simple paths; raise the cap to enumerate this topology"
        )


def enumerate_paths(topology: Topology, cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All simple source-to-destination paths, in depth-first order.

    Neighbors are explored in node declaration order, so the result is
    deterministic: paths are ordered lexicographically by the declaration
    indices of their nodes. Raises PathCapExceeded as soon as the count
    would pass cap; a topology with no path yields an empty list.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap!r}")
    destination = topology.destination
    paths: list[Path] = []
    trail = [topology.source]
    on_trail = {topology.source}
    pending = [iter(topology.successors(topology.source))]
    while pending:
        for step in pending[-1]:  # resumes where the last descent from this node left off
            if step == destination:
                if len(paths) >= cap:
                    raise PathCapExceeded(cap)
                paths.append((*trail, destination))
            elif step not in on_trail:
                trail.append(step)
                on_trail.add(step)
                pending.append(iter(topology.successors(step)))
                break
        else:
            pending.pop()
            on_trail.discard(trail.pop())
    return paths


def path_mean_trust(topology: Topology, path: Path | list[str]) -> float:
    """Arithmetic mean of the edge trust values along a valid path, summed left to right."""
    pairs = topology.path_pairs(path)
    total = 0.0
    for pair in pairs:
        total += pair.trust
    return total / len(pairs)


def path_mean_untrust(topology: Topology, path: Path | list[str]) -> float:
    """Arithmetic mean of the edge untrust values along a valid path, summed left to right."""
    pairs = topology.path_pairs(path)
    total = 0.0
    for pair in pairs:
        total += pair.untrust
    return total / len(pairs)


class RankedPath(NamedTuple):
    """One path with its mean trust statistics and 1-based rank."""

    path: Path
    mean_trust: float
    mean_untrust: float
    trust_class: str
    rank: int


def rank_paths(
    topology: Topology, cap: int = DEFAULT_PATH_CAP, top: int | None = None
) -> tuple[int, list[RankedPath]]:
    """The number of simple paths, and the paths ranked by mean trust, best first.

    Ties break by mean untrust ascending, then by enumeration order. With
    top=k >= 1 only the k best paths are kept, in a bounded heap, and
    returned; the count still covers every path, and the cap still applies
    to all of them. Means are kept at full precision; any truncation is
    display-only.
    """
    if top is not None and top < 1:
        raise ValueError(f"top must be >= 1, got {top!r}")
    paths = enumerate_paths(topology, cap)
    keys = (
        (-path_mean_trust(topology, path), path_mean_untrust(topology, path), index, path)
        for index, path in enumerate(paths)
    )
    # The enumeration index makes every key unique, so nsmallest(top) is sorted()[:top].
    best = sorted(keys) if top is None else heapq.nsmallest(top, keys)
    return len(paths), [
        RankedPath(path, -negated, mean_untrust, classify(-negated), rank)
        for rank, (negated, mean_untrust, _index, path) in enumerate(best, start=1)
    ]


class RouteStep(NamedTuple):
    """One greedy forwarding decision: the edge taken and its hop result."""

    src: str
    dst: str
    edge: TrustPair
    hop: HopResult


class RouteResult(NamedTuple):
    """Outcome of the greedy most-likely-route walk."""

    path: Path
    steps: tuple[RouteStep, ...]
    reached: bool

    @property
    def stuck_node(self) -> str | None:
        """The node where the walk stalled, or None when it reached the destination."""
        return None if self.reached else self.path[-1]


def most_likely_route(
    topology: Topology, constants: ModelConstants = DEFAULT_CONSTANTS
) -> RouteResult:
    """Walk greedily from source toward destination.

    At each node the walk takes, among the successors off its path whose
    edge gets an ACCEPTABLE verdict, the one with the highest edge trust;
    ties break by node declaration order. The trust test runs best-first,
    over the node's successors_by_trust order minus walked nodes, and
    stops at the first pass: the result equals testing every candidate. The
    first hop starts from full trust, later hops arrive with the pair of
    the edge just taken. There is no backtracking: a node with no
    acceptable successor off the path ends the walk with reached=False,
    which is a result, not an error.
    """
    current = topology.source
    arrival = FULL_TRUST
    path = {current: None}  # the walked nodes, in walk order
    steps: list[RouteStep] = []
    while current != topology.destination:
        for candidate, edge in topology.successors_by_trust(current):
            if candidate in path:
                continue
            hop = propagate_trust_hop(arrival, edge, constants)
            if hop.verdict is Verdict.ACCEPTABLE:
                break
        else:
            return RouteResult(tuple(path), tuple(steps), False)
        steps.append(RouteStep(current, candidate, edge, hop))
        path[candidate] = None
        arrival = edge
        current = candidate
    return RouteResult(tuple(path), tuple(steps), True)
