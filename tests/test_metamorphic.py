"""Metamorphic relations: runs on related inputs whose outputs must agree.

Each relation states how a change to the input may change the output, so it
holds on graphs of any size, where a brute-force oracle stops at a few nodes.
"""

import random

from helpers import random_dag, random_topology, run_cli
from trustpath import (
    FULL_TRUST,
    Topology,
    enumerate_paths,
    evaluate_path,
    fixture_topology,
    most_likely_route,
    parse_topology,
    rank_paths,
    serialize_topology,
)


def _reorder_declarations(text: str, rng: random.Random) -> str:
    """text's lines shuffled, except that the node lines keep their order."""
    lines = text.splitlines()
    nodes = iter([line for line in lines if line.startswith("node ")])
    rng.shuffle(lines)
    return "\n".join(next(nodes) if line.startswith("node ") else line for line in lines) + "\n"


def _draws():
    """The 60 seeded graphs every relation runs on, random_dag and random_topology
    alternating, each with a reordering of its serialization drawn from the same
    generator before the next graph."""
    rng = random.Random(2)
    for draw in range(60):
        topology = (random_topology if draw % 2 else random_dag)(rng)
        yield draw, topology, _reorder_declarations(serialize_topology(topology), rng)


def test_declaration_order_of_source_dest_and_edges_changes_nothing(tmp_path, capsys):
    # Only the node lines set an order the program may follow; edges are
    # stored per source, so their declaration order must reach no output.
    path = tmp_path / "topology.trust"
    for draw, topology, reordered in _draws():
        text = serialize_topology(topology)
        parsed = parse_topology(reordered, strict=False)
        assert parsed == topology
        assert serialize_topology(parsed) == text
        fmt = ("text", "csv", "json")[draw % 3]
        runs = []
        for document in (text, reordered):
            path.write_text(document, encoding="utf-8")
            runs.append([
                run_cli(capsys, command, "-t", str(path), "--no-strict", "--format", fmt)
                for command in ("rank", "enumerate", "route")
            ])
        assert runs[0] == runs[1]


def test_renaming_every_node_renames_the_enumeration_and_the_route():
    # The new names r0 to r9 sort in declaration order, and random_topology's
    # shuffled v<i> do not: an order taken from the names shows here.
    for _, topology, _ in _draws():
        name = {node: f"r{index}" for index, node in enumerate(topology.nodes)}
        renamed = Topology(
            [name[node] for node in topology.nodes],
            {(name[src], name[dst]): pair for (src, dst), pair in topology.edge_pairs().items()},
            name[topology.source],
            name[topology.destination],
        )
        paths = enumerate_paths(topology)
        assert enumerate_paths(renamed) == [tuple(name[node] for node in path) for path in paths]
        route = most_likely_route(topology)
        steps = [step._replace(src=name[step.src], dst=name[step.dst]) for step in route.steps]
        assert most_likely_route(renamed) == route._replace(
            path=tuple(name[node] for node in route.path), steps=tuple(steps)
        )


def _enumeration_ranking_and_route(topology):
    return enumerate_paths(topology), rank_paths(topology), most_likely_route(topology)


def test_edges_into_the_source_and_out_of_the_destination_change_nothing():
    # A simple path never re-enters S or leaves D, and the walk stops at D.
    # Full-trust edges are the ones a greedy walk would try first.
    for _, topology, _ in _draws():
        source, destination = topology.source, topology.destination
        pairs = topology.edge_pairs()
        for node in topology.nodes:
            if node != source:
                pairs.setdefault((node, source), FULL_TRUST)
            if node != destination:
                pairs.setdefault((destination, node), FULL_TRUST)
        widened = Topology(topology.nodes, pairs, source, destination)
        assert _enumeration_ranking_and_route(widened) == _enumeration_ranking_and_route(topology)


def test_a_node_declared_last_with_edges_only_out_of_it_changes_nothing():
    # No edge leads into the new node, so no path or walk can pass through it.
    for _, topology, _ in _draws():
        pairs = topology.edge_pairs()
        pairs.update((("new", node), FULL_TRUST) for node in topology.nodes)
        grown = Topology([*topology.nodes, "new"], pairs, topology.source, topology.destination)
        assert enumerate_paths(grown) == enumerate_paths(topology)
        assert most_likely_route(grown) == most_likely_route(topology)


def test_a_top_k_ranking_is_the_first_k_rows_of_the_full_ranking():
    # One k past the count, too: the bounded heap must then keep every path.
    # The random draws tie on no pair of means; the demo mesh ties 46 of its 48
    # paths, so there the heap must break ties by enumeration order as well.
    for topology in (fixture_topology(), *(topology for _, topology, _ in _draws())):
        count, ranked = rank_paths(topology)
        assert count == len(ranked) == len(enumerate_paths(topology))
        for top in range(1, count + 2):
            assert rank_paths(topology, top=top) == (count, ranked[:top])


def test_an_arriving_route_passes_the_path_check_hop_for_hop():
    # The walk tests each hop from the pair of the edge just taken, as the
    # path check's default edge chaining does, so both give the same hops.
    for _, topology, _ in _draws():
        route = most_likely_route(topology)
        if route.reached:
            evaluation = evaluate_path(topology, route.path)
            assert tuple(step.hop for step in route.steps) == evaluation.hops
            assert evaluation.confidential
