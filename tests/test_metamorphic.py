"""Metamorphic relations: runs on related inputs whose outputs must agree.

Each relation states how a change to the input may change the output, so it
holds on graphs of any size, where a brute-force oracle stops at a few nodes.
"""

import random

from helpers import random_dag, random_topology, run_cli
from trustpath import parse_topology, serialize_topology


def _reorder_declarations(text: str, rng: random.Random) -> str:
    """text's lines shuffled, except that the node lines keep their order."""
    lines = text.splitlines()
    nodes = iter([line for line in lines if line.startswith("node ")])
    rng.shuffle(lines)
    return "\n".join(next(nodes) if line.startswith("node ") else line for line in lines) + "\n"


def test_declaration_order_of_source_dest_and_edges_changes_nothing(tmp_path, capsys):
    # Only the node lines set an order the program may follow; edges are
    # stored per source, so their declaration order must reach no output.
    rng = random.Random(2)
    path = tmp_path / "topology.trust"
    for draw in range(60):
        topology = (random_topology if draw % 2 else random_dag)(rng)
        text = serialize_topology(topology)
        reordered = _reorder_declarations(text, rng)
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
