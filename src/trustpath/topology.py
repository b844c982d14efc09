"""Topology model, the line-oriented .trust file format, and generators."""

from collections.abc import Iterable, Mapping
from itertools import accumulate
from sys import intern

from .core import TrustPair, TrustValueError, make_pair


class TopologyError(ValueError):
    """A topology violates its structural constraints."""


class TopologyParseError(TopologyError):
    """A topology document failed to parse.

    The `line` attribute carries the 1-based line number of the offending
    declaration when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class PathError(ValueError):
    """A node sequence is not a valid source-to-destination path."""


def _check_node_id(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise TopologyError(f"node id must be a non-empty string, got {name!r}")
    # '#' starts a comment, ',' separates path spec ids and '→' joins printed paths.
    if any(ch.isspace() or ch in "#,→" for ch in name):
        raise TopologyError(f"node id {name!r} may not contain whitespace, '#', ',' or '→'")


class Topology:
    """Directed graph with per-edge trust pairs and a designated source/destination.

    Node order is the declaration order and is significant: neighbor
    iteration, routing tie-breaks and canonical serialization all follow
    it. Instances are treated as immutable once constructed.

    `edges` takes the two forms `dict()` takes: a mapping from (src, dst)
    to TrustPair, or an iterable of ((src, dst), TrustPair) items.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Mapping[tuple[str, str], TrustPair] | Iterable[tuple[tuple[str, str], TrustPair]],
        source: str,
        destination: str,
    ):
        # Each node and edge is checked as it is drawn from its iterable, which
        # lets parse_topology tell which declaration an error belongs to.
        self._order: dict[str, int] = {}
        for node in nodes:
            _check_node_id(node)
            if node in self._order:
                raise TopologyError(f"duplicate node {node!r}")
            self._order[node] = len(self._order)
        self.nodes: tuple[str, ...] = tuple(self._order)
        for role, name in (("source", source), ("destination", destination)):
            if name not in self._order:
                raise TopologyError(f"{role} {name!r} is not a declared node")
        if source == destination:
            raise TopologyError("source and destination must differ")
        self.source = source
        self.destination = destination

        # Per-source adjacency: src -> {dst: pair}, each in edge declaration order.
        self._out: dict[str, dict[str, TrustPair]] = {node: {} for node in self.nodes}
        for (src, dst), pair in edges.items() if isinstance(edges, Mapping) else edges:
            if src not in self._order:  # the source is named first when both are undeclared
                raise TopologyError(f"edge endpoint {src!r} is not a declared node")
            if dst not in self._order:
                raise TopologyError(f"edge endpoint {dst!r} is not a declared node")
            if src == dst:
                raise TopologyError(f"self-loop on {src!r} is not allowed")
            targets = self._out[src]
            if dst in targets:
                raise TopologyError(f"duplicate edge {src} -> {dst}")
            if not isinstance(pair, TrustPair):
                raise TopologyError(f"edge {src} -> {dst} value {pair!r} is not a TrustPair")
            targets[dst] = pair

        self._successors = {
            node: tuple(sorted(targets, key=self._order.__getitem__))
            for node, targets in self._out.items()
        }
        self._by_trust: dict[str, tuple[tuple[str, TrustPair], ...]] = {}

    def edge_pairs(self) -> dict[tuple[str, str], TrustPair]:
        """A new (src, dst) -> TrustPair mapping of every edge.

        Ordered by source in node declaration order, then by that source's
        edges in their declaration order.
        """
        return {(src, dst): pair for src, out in self._out.items() for dst, pair in out.items()}

    def edge(self, src: str, dst: str) -> TrustPair:
        """The trust pair on the edge src -> dst."""
        try:
            return self._out[src][dst]
        except KeyError:
            raise TopologyError(f"no edge {src} -> {dst}") from None

    def successors(self, node: str) -> tuple[str, ...]:
        """Outgoing neighbors of node, in declaration order."""
        try:
            return self._successors[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def successors_by_trust(self, node: str) -> tuple[tuple[str, TrustPair], ...]:
        """(neighbor, pair) items of node by descending edge trust, ties in declaration order.

        Built from the edges the first time a node is asked for, then kept.
        """
        try:
            return self._by_trust[node]
        except KeyError:
            items = ((dst, self._out[node][dst]) for dst in self.successors(node))
            order = tuple(sorted(items, key=lambda item: item[1].trust, reverse=True))  # stable
            self._by_trust[node] = order
            return order

    def path_pairs(self, nodes: Iterable[str]) -> list[TrustPair]:
        """The edge pairs of a simple source-to-destination path here, hop by hop.

        Raises PathError naming the first rule the node sequence breaks otherwise.
        """
        path = tuple(nodes)
        if len(path) < 2:
            raise PathError(f"a path needs at least two nodes, got {len(path)}")
        # The cheap checks first; then each hop's lookup also checks its nodes.
        if path[0] == self.source and path[-1] == self.destination and len(set(path)) == len(path):
            edge = self.edge  # called from this loop, not from map: CPython 3.11+ inlines it
            hops = iter(path)
            src = next(hops)
            pairs = []
            try:
                for dst in hops:
                    pairs.append(edge(src, dst))
                    src = dst
                return pairs
            except TopologyError:
                pass
        # Not a path: find the first rule it breaks, in the order they are listed here.
        for node in path:
            if node not in self._order:
                raise PathError(f"unknown node {node!r}")
        if path[0] != self.source:
            raise PathError(f"path must start at source {self.source!r}, not {path[0]!r}")
        if path[-1] != self.destination:
            raise PathError(
                f"path must end at destination {self.destination!r}, not {path[-1]!r}"
            )
        if len(set(path)) != len(path):
            raise PathError("path revisits a node")
        src, dst = next(hop for hop in zip(path, path[1:]) if hop[1] not in self._out[hop[0]])
        raise PathError(f"no edge {src} -> {dst}")

    def __eq__(self, other: object):
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.source == other.source
            and self.destination == other.destination
            and self._out == other._out
        )

    def __repr__(self) -> str:
        return (
            f"Topology({len(self.nodes)} nodes, {sum(map(len, self._out.values()))} edges, "
            f"{self.source!r} -> {self.destination!r})"
        )


def parse_topology(text: str, *, strict: bool = True) -> Topology:
    """Parse topology text into a validated Topology.

    Each non-blank line holds one declaration: ``node <id>``,
    ``source <id>``, ``dest <id>`` or ``edge <from> <to> <trust>
    [<untrust>]``. ``#`` starts a comment that runs to end of line;
    declarations may appear in any order. Lines end at LF, CRLF or CR
    only, so other Unicode line separators stay inside their line (and
    inside a comment); a leading UTF-8 byte order mark is dropped.

    An omitted edge untrust defaults to 1 - trust. With strict=True every
    explicitly given pair must sum to one within COMPLEMENT_TOL;
    strict=False keeps only the [0, 1] range checks. Errors raise
    TopologyParseError carrying the offending line number where known.
    Node ids are interned, so the topology holds one string per name.
    """
    nodes: list[tuple[int, str]] = []
    roles: dict[str, tuple[int, str]] = {}
    srcs, dsts, pairs, edge_lines = [], [], [], []  # flat, so no tuple per edge outlives the parse
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        # split() with no argument drops the whitespace around the tokens too.
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "edge":  # most lines of a large document, so tested first
            if len(tokens) not in (4, 5):
                raise TopologyParseError("edge takes: <from> <to> <trust> [<untrust>]", lineno)
            try:  # the one-value form without a keyword, which costs per call
                pair = (make_pair(tokens[3]) if len(tokens) == 4
                        else make_pair(tokens[3], tokens[4], strict=strict))
            except TrustValueError as err:
                raise TopologyParseError(str(err), lineno) from None
            srcs.append(intern(tokens[1]))
            dsts.append(intern(tokens[2]))
            pairs.append(pair)
            edge_lines.append(lineno)
        elif kind in ("node", "source", "dest"):
            if len(tokens) != 2:
                raise TopologyParseError(f"{kind} takes exactly one identifier", lineno)
            if kind == "node":
                nodes.append((lineno, intern(tokens[1])))
            elif kind in roles:
                raise TopologyParseError(f"{kind} already declared", lineno)
            else:
                roles[kind] = (lineno, intern(tokens[1]))
        else:
            raise TopologyParseError(f"unknown declaration {kind!r}", lineno)
    for kind in ("source", "dest"):
        if kind not in roles:
            raise TopologyParseError(f"missing {kind} declaration")
    (source_line, source), (dest_line, dest) = roles["source"], roles["dest"]

    # Topology checks each node and edge as it draws it from these streams,
    # so when it raises, `line` is the line of the declaration it was
    # checking; None means it was checking source and dest, which it does
    # between the two streams.
    line: int | None = None

    def tracked(declarations):
        nonlocal line
        for line, item in declarations:
            yield item
        line = None

    try:
        edges = zip(edge_lines, zip(zip(srcs, dsts), pairs))
        return Topology(tracked(nodes), tracked(edges), source, dest)
    except TopologyError as err:
        if line is None:
            source_declared = any(name == source for _, name in nodes)
            line = dest_line if source_declared else source_line
        raise TopologyParseError(str(err), line) from None


def serialize_topology(topology: Topology) -> str:
    """Render the canonical text form of a topology.

    Nodes appear first in declaration order, then source and dest, then
    edges sorted by the declaration order of their endpoints, each with
    both components written in shortest-float form. The result ends with
    a newline and parses back to an equal topology.
    """
    lines = [f"node {node}" for node in topology.nodes]
    lines.append(f"source {topology.source}")
    lines.append(f"dest {topology.destination}")
    for src in topology.nodes:
        for dst in topology.successors(src):
            pair = topology.edge(src, dst)
            lines.append(f"edge {src} {dst} {pair.trust!r} {pair.untrust!r}")
    return "\n".join(lines) + "\n"


def generate_mesh(layer_sizes: Iterable[int]) -> Topology:
    """Build a layered mesh between a source S and a destination D.

    Inner nodes are numbered consecutively from 1, layer by layer;
    consecutive layers (including S before the first and D after the
    last) are fully connected. Every edge carries one shared indifferent
    pair (0.5, 0.5). The number of simple S-to-D paths equals the
    product of the layer sizes.
    """
    sizes = tuple(layer_sizes)
    if not sizes:
        raise TopologyError("at least one layer is required")
    for size in sizes:
        if not isinstance(size, int) or size < 1:
            raise TopologyError(f"layer sizes must be integers >= 1, got {size!r}")

    starts = accumulate(sizes, initial=1)  # the first id of each layer
    layers = [[str(n) for n in range(start, start + size)] for start, size in zip(starts, sizes)]
    nodes = ["S", *(node for layer in layers for node in layer), "D"]
    hops = zip([["S"], *layers], [*layers, ["D"]])  # consecutive layers, fully connected
    edges = ((src, dst) for froms, tos in hops for src in froms for dst in tos)
    return Topology(nodes, dict.fromkeys(edges, TrustPair(0.5, 0.5)), "S", "D")


#: Reference trust pairs of the demo mesh; all other edges are (0.5, 0.5).
REFERENCE_EDGES: dict[tuple[str, str], tuple[float, float]] = {
    ("S", "1"): (0.8, 0.2),
    ("S", "3"): (0.95, 0.05),
    ("1", "7"): (0.8, 0.2),
    ("3", "7"): (0.6, 0.4),
    ("7", "11"): (0.9, 0.1),
    ("11", "D"): (0.8, 0.2),
}


def fixture_topology() -> Topology:
    """The built-in 4-3-4 demo mesh used across the docs and tests.

    Thirteen nodes (S, layers 1-4, 5-7 and 8-11, D) with full bipartite
    edges between consecutive layers, 32 edges in total. The six edges in
    REFERENCE_EDGES carry the reference trust values; every other edge is
    the indifferent pair (0.5, 0.5), strictly less trusted than any
    reference edge, so ranking and routing outcomes are pinned by the
    reference values alone.
    """
    mesh = generate_mesh((4, 3, 4))
    pairs = mesh.edge_pairs()
    for key, (trust, untrust) in REFERENCE_EDGES.items():
        pairs[key] = make_pair(trust, untrust)
    return Topology(mesh.nodes, pairs, mesh.source, mesh.destination)
