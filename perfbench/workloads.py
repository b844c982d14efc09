"""Seeded inputs for the trustpath benchmark workloads.

Every workload has a fixed graph structure; the seed draws only the edge
trust values, uniformly from [0.3, 1.0], with the untrust left implicit as
1 - trust. The amount of work is therefore the same for every seed. The
program under test receives nothing but the generated ``.trust`` text and
the command lines listed here.
"""

import random
from dataclasses import dataclass

import oracle

TRUST_LOW, TRUST_HIGH = 0.3, 1.0

#: Packets per ``simulate`` call on route-sim. One greedy walk over the
#: 200-layer mesh costs about 2,000 hop tests, so 50 packets make simulating
#: and parsing each a large share of the pass.
ROUTE_SIM_PACKETS = 50


@dataclass(frozen=True)
class Workload:
    """A fixed topology shape, the commands run on it, and why it was chosen."""

    name: str
    why: str
    layers: tuple[int, ...]
    rings: bool
    nodes: int
    edges: int
    simple_paths: int | None  # None: too many to enumerate, and never enumerated
    route_hops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank-dag",
            "pathing does nearly all the work (100,000 paths scored and sorted, top 10 "
            "printed), parsing and rendering almost none",
            (10, 10, 10, 10, 10),
            rings=False,
            nodes=52,
            edges=420,
            simple_paths=100_000,
            route_hops=6,
        ),
        Workload(
            "report-cyclic",
            "cyclic graph with varied path lengths and full listings: bypasses DAG-only "
            "and top-k shortcuts, and cli rendering does about half the work",
            (4, 4, 4),
            rings=True,
            nodes=14,
            edges=64,
            simple_paths=21_952,
            route_hops=0,  # the greedy walk length depends on the seed here
        ),
        Workload(
            "route-sim",
            "never enumerates paths: 20k-edge parse, 201-hop greedy route, 2x2 hop tests "
            "and packet simulation",
            (10,) * 200,
            rings=False,
            nodes=2_002,
            edges=19_920,
            simple_paths=None,
            route_hops=201,
        ),
    )
}


def _structure(workload: Workload) -> tuple[list[str], list[tuple[str, str]]]:
    """Node declaration order and edge list of a layered mesh S -> layers -> D.

    Consecutive layers are fully connected; with rings, each layer also
    carries a cycle through its nodes in both directions.
    """
    layers: list[list[str]] = []
    next_id = 1
    for size in workload.layers:
        layers.append([str(next_id + offset) for offset in range(size)])
        next_id += size
    edges = []
    for src_layer, dst_layer in zip([["S"], *layers], [*layers, ["D"]]):
        edges.extend((src, dst) for src in src_layer for dst in dst_layer)
    if workload.rings:
        for layer in layers:
            for i, node in enumerate(layer):
                edges.append((node, layer[(i + 1) % len(layer)]))
                edges.append((node, layer[(i - 1) % len(layer)]))
    return ["S", *(node for layer in layers for node in layer), "D"], edges


def generate(workload: Workload, seed: int) -> oracle.Graph:
    """The workload's graph with trust values drawn from seed.

    A draw whose greedy route stalls before D is replaced by the next draw
    from the same stream, so every seed gives a workload on which no
    command fails. Raises RuntimeError if the structure does not have the
    counts the workload states.
    """
    nodes, edge_list = _structure(workload)
    rng = random.Random(seed)
    while True:
        trust = {edge: rng.uniform(TRUST_LOW, TRUST_HIGH) for edge in edge_list}
        graph = oracle.Graph(tuple(nodes), trust, "S", "D")
        route = oracle.greedy_route(graph)
        if route.reached:
            break
    _require(len(nodes) == workload.nodes, f"{len(nodes)} nodes, expected {workload.nodes}")
    _require(len(trust) == len(edge_list) == workload.edges,
             f"{len(trust)} edges, expected {workload.edges}")
    if workload.simple_paths is not None:
        count = len(oracle.simple_paths(graph))
        _require(count == workload.simple_paths,
                 f"{count} simple paths, expected {workload.simple_paths}")
    if workload.route_hops:
        hops = len(route.path) - 1
        _require(hops == workload.route_hops, f"route of {hops} hops, expected {workload.route_hops}")
    return graph


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"workload structure: {message}")


def topology_text(graph: oracle.Graph) -> str:
    """The graph as a .trust document; untrust is left for the parser to derive."""
    lines = [f"node {node}" for node in graph.nodes]
    lines.append(f"source {graph.source}")
    lines.append(f"dest {graph.dest}")
    lines.extend(f"edge {src} {dst} {value!r}" for (src, dst), value in graph.trust.items())
    return "\n".join(lines) + "\n"


def commands(workload: Workload, graph: oracle.Graph, topology_file: str) -> list[list[str]]:
    """The trustpath argument lists of one pass through the workload."""
    t = ["-t", topology_file]
    if workload.name == "rank-dag":
        return [["rank", *t, "--top", "10", "--format", "json"]]
    if workload.name == "report-cyclic":
        return [
            ["rank", *t],
            ["rank", *t, "--format", "csv"],
            ["enumerate", *t, "--format", "json"],
        ]
    route = ",".join(oracle.greedy_route(graph).path)
    return [
        ["route", *t],
        ["check", route, *t, "--mode", "both", "--format", "csv"],
        ["simulate", *t, "--packets", str(ROUTE_SIM_PACKETS), "--format", "json"],
    ]
