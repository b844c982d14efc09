"""Shared test helpers: random topology generators and brute-force oracles."""

import random
from itertools import permutations

from trustpath import Topology, TrustPair, generate_mesh, make_pair


def random_dag(rng: random.Random, max_nodes: int = 8) -> Topology:
    """Random DAG whose declaration order is a topological order.

    Edges only run from earlier to later nodes, trust values sit on a
    hundredth grid, and untrust is the complement of trust.
    """
    count = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(count)]
    pairs = {}
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.45:
                pairs[(nodes[i], nodes[j])] = make_pair(rng.randint(0, 100) / 100)
    return Topology(nodes, pairs, nodes[0], nodes[-1])


def random_topology(rng: random.Random) -> Topology:
    """Random directed topology; cycles allowed, pairs not necessarily complementary."""
    count = rng.randint(2, 10)
    nodes = [f"v{i}" for i in range(count)]
    rng.shuffle(nodes)
    source, destination = rng.sample(nodes, 2)
    pairs = {}
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < 0.3:
                trust = rng.randint(0, 1000) / 1000
                if rng.random() < 0.5:
                    pairs[(src, dst)] = make_pair(trust)
                else:
                    pairs[(src, dst)] = TrustPair(trust, rng.randint(0, 1000) / 1000)
    return Topology(nodes, pairs, source, destination)


def chain_topology(hops: int, trust: float) -> Topology:
    """A single path n0 -> n1 -> ... -> n<hops> whose edges all carry make_pair(trust)."""
    nodes = [f"n{i}" for i in range(hops + 1)]
    pairs = {(src, dst): make_pair(trust) for src, dst in zip(nodes, nodes[1:])}
    return Topology(nodes, pairs, nodes[0], nodes[-1])


def mesh_on_pair(layer_sizes, pair: TrustPair) -> Topology:
    """generate_mesh's layered mesh with every edge on the given pair."""
    mesh = generate_mesh(layer_sizes)
    return Topology(mesh.nodes, dict.fromkeys(mesh.edge_pairs(), pair), "S", "D")


def brute_force_paths(topology: Topology) -> list[tuple[str, ...]]:
    """All simple source-to-destination paths, found by filtering permutations."""
    inner = [
        node
        for node in topology.nodes
        if node not in (topology.source, topology.destination)
    ]
    pairs = topology.edge_pairs()
    found = []
    for length in range(len(inner) + 1):
        for middle in permutations(inner, length):
            candidate = (topology.source, *middle, topology.destination)
            if all(hop in pairs for hop in zip(candidate, candidate[1:])):
                found.append(candidate)
    return found


def run_cli(capsys, *argv: str):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from trustpath.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
