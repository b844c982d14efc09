"""Metamorphic relations: runs on related inputs whose outputs must agree.

Each relation states how a change to the input may change the output, so it
holds on graphs of any size, where a brute-force oracle stops at a few nodes.
"""

import io
import json
import random

import pytest

from helpers import mesh_on_pair, random_dag, random_topology, run_cli
from trustpath import (
    FULL_TRUST,
    Topology,
    enumerate_paths,
    evaluate_path,
    fixture_topology,
    generate_mesh,
    make_pair,
    most_likely_route,
    parse_topology,
    rank_paths,
    serialize_topology,
)

# The commands whose output a relation through cli.main compares.
COMMANDS = ("rank", "enumerate", "route")


def _reorder_declarations(text: str, rng: random.Random) -> str:
    """text's lines shuffled, except that the node lines keep their order."""
    lines = text.splitlines()
    nodes = iter([line for line in lines if line.startswith("node ")])
    rng.shuffle(lines)
    return "\n".join(next(nodes) if line.startswith("node ") else line for line in lines) + "\n"


def _draws():
    """The 60 seeded graphs the relations run on, random_dag and random_topology
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
                for command in COMMANDS
            ])
        assert runs[0] == runs[1]


def _run_on_stdin(capsys, monkeypatch, topology, *argv):
    """cli.main's (exit code, stdout, stderr) for ARGV with the topology on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_topology(topology)))
    return run_cli(capsys, *argv, "-t", "-", "--no-strict")


def _rename(topology):
    """The topology with node i named r<i>, i in two digits, and that renaming."""
    name = {node: f"r{index:02d}" for index, node in enumerate(topology.nodes)}
    renamed = Topology(
        [name[node] for node in topology.nodes],
        {(name[src], name[dst]): pair for (src, dst), pair in topology.edge_pairs().items()},
        name[topology.source],
        name[topology.destination],
    )
    return renamed, name


def _widen(topology):
    """The topology plus a full-trust edge into S from every node and out of D to every node."""
    source, destination = topology.source, topology.destination
    pairs = topology.edge_pairs()
    for node in topology.nodes:
        if node != source:
            pairs.setdefault((node, source), FULL_TRUST)
        if node != destination:
            pairs.setdefault((destination, node), FULL_TRUST)
    return Topology(topology.nodes, pairs, source, destination)


def _grow(topology):
    """The topology plus a node `new`, declared last, with full-trust edges only out of it."""
    pairs = topology.edge_pairs()
    pairs.update((("new", node), FULL_TRUST) for node in topology.nodes)
    return Topology([*topology.nodes, "new"], pairs, topology.source, topology.destination)


def test_renaming_every_node_renames_the_enumeration_and_the_route():
    # The new names r00, r01, ... sort in declaration order, and random_topology's
    # shuffled v<i> do not: an order taken from the names shows here.
    for _, topology, _ in _draws():
        renamed, name = _rename(topology)
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
        widened = _widen(topology)
        assert _enumeration_ranking_and_route(widened) == _enumeration_ranking_and_route(topology)


def test_a_node_declared_last_with_edges_only_out_of_it_changes_nothing():
    # No edge leads into the new node, so no path or walk can pass through it.
    for _, topology, _ in _draws():
        grown = _grow(topology)
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


def _ids_back(value, name):
    """A JSON value with every string that _rename made a node id mapped back."""
    if isinstance(value, str):
        return name.get(value, value)
    if isinstance(value, list):
        return [_ids_back(item, name) for item in value]
    if isinstance(value, dict):
        return {key: _ids_back(item, name) for key, item in value.items()}
    return value


@pytest.mark.parametrize("command", COMMANDS)
def test_renaming_every_node_renames_the_json_output(command, capsys, monkeypatch):
    # A mesh whose edges all carry one pair, too: each of its paths and each step of its
    # walk is a tie, so rank and route show an order taken from the names only there.
    tied = mesh_on_pair((4, 3, 4), make_pair(0.9))
    for topology in (tied, *(topology for _, topology, _ in _draws())):
        renamed, name = _rename(topology)
        argv = (command, "--format", "json")
        code, out, err = _run_on_stdin(capsys, monkeypatch, topology, *argv)
        renamed_code, renamed_out, renamed_err = _run_on_stdin(capsys, monkeypatch, renamed, *argv)
        assert (renamed_code, renamed_err) == (code, err)
        back = {new: old for old, new in name.items()}
        assert _ids_back(json.loads(renamed_out), back) == json.loads(out)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("change", [_widen, _grow], ids=["into-S-and-out-of-D", "new-node-last"])
def test_edges_no_path_or_walk_can_take_change_no_output(change, command, capsys, monkeypatch):
    # No path and no walk can take the edges _widen and _grow add, so the exit code,
    # stdout and stderr stay the same byte for byte.
    for draw, topology, _ in _draws():
        argv = (command, "--format", ("text", "csv", "json")[draw % 3])
        graphs = (topology, change(topology))
        before, after = (_run_on_stdin(capsys, monkeypatch, graph, *argv) for graph in graphs)
        assert after == before


@pytest.fixture(scope="module")
def rank_dag():
    """The benchmark's seed-1 rank-dag graph, its enumeration and its full ranking.

    S, five layers of ten nodes and D: 10^5 paths. Each edge's trust is drawn
    uniformly from [0.3, 1] in edge order, its untrust 1 - trust.
    """
    mesh = generate_mesh((10,) * 5)
    rng = random.Random(1)
    pairs = {edge: make_pair(rng.uniform(0.3, 1.0)) for edge in mesh.edge_pairs()}
    topology = Topology(mesh.nodes, pairs, mesh.source, mesh.destination)
    return topology, enumerate_paths(topology), rank_paths(topology)


def test_a_top_k_ranking_is_the_first_k_rows_of_the_full_ranking_at_10_5_paths(rank_dag):
    topology, paths, (count, ranked) = rank_dag
    assert count == len(ranked) == len(paths) == 100_000
    assert rank_paths(topology, top=10) == (count, ranked[:10])


def test_edges_into_the_source_and_out_of_the_destination_change_nothing_at_10_5_paths(rank_dag):
    topology, paths, ranking = rank_dag
    widened = _widen(topology)
    assert enumerate_paths(widened) == paths
    assert rank_paths(widened) == ranking
    assert most_likely_route(widened) == most_likely_route(topology)
