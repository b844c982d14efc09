"""Topology model, file format round-trips, the demo mesh, and the generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_topology
from trustpath import (
    REFERENCE_EDGES,
    PathError,
    Topology,
    TopologyError,
    TopologyParseError,
    TrustPair,
    TrustValueError,
    fixture_topology,
    generate_mesh,
    make_pair,
    parse_topology,
    serialize_topology,
)

MINIMAL = "node S\nnode D\nsource S\ndest D\nedge S D 1 0\n"


def test_parse_minimal_document():
    topology = parse_topology(MINIMAL)
    assert topology.nodes == ("S", "D")
    assert topology.source == "S"
    assert topology.destination == "D"
    assert topology.edge("S", "D") == TrustPair(1.0, 0.0)


def test_parse_accepts_comments_blanks_and_crlf():
    text = (
        "# demo file\r\n"
        "node S\r\n"
        "\r\n"
        "node D # trailing comment\r\n"
        "source S\r\n"
        "dest D\r\n"
        "edge S D 0.7 0.3\r\n"
    )
    topology = parse_topology(text)
    assert topology.edge("S", "D") == TrustPair(0.7, 0.3)


def test_parse_accepts_cr_only_line_ends():
    topology = parse_topology("node S\rnode D\rsource S\rdest D\redge S D 0.7 0.3\r")
    assert topology.edge("S", "D") == TrustPair(0.7, 0.3)
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("node S\rnode D\rsource S\rdest D\redge S X 0.7\r")
    assert excinfo.value.line == 5


def test_parse_splits_lines_only_at_cr_and_lf():
    # str.splitlines() would also break at these, ending a comment early.
    text = "node S\nnode D\nsource S\ndest D # see\x0cedge S D 0.1\nedge S D 0.9\n"
    assert parse_topology(text).edge("S", "D") == make_pair(0.9)
    for separator in "\v\x1c\x1d\x1e\x85\u2028\u2029":
        text = f"node S\nnode D # a{separator}b\nsource S\ndest D\nedge S X 0.9\n"
        with pytest.raises(TopologyParseError) as excinfo:
            parse_topology(text)
        assert str(excinfo.value) == "line 5: edge endpoint 'X' is not a declared node"


def test_parse_accepts_any_declaration_order():
    text = "edge S D 0.6 0.4\ndest D\nsource S\nnode D\nnode S\n"
    topology = parse_topology(text)
    assert topology.nodes == ("D", "S")
    assert topology.edge("S", "D") == TrustPair(0.6, 0.4)


def test_parse_drops_a_byte_order_mark():
    text = "\ufeff" + serialize_topology(fixture_topology())
    assert parse_topology(text) == fixture_topology()
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("\ufeffedge S D 1.5 0\n")
    assert excinfo.value.line == 1


def test_parse_fills_omitted_untrust():
    topology = parse_topology("node S\nnode D\nsource S\ndest D\nedge S D 0.75\n")
    pair = topology.edge("S", "D")
    assert pair.trust == 0.75
    assert pair.untrust == pytest.approx(0.25, abs=1e-15)


def test_parse_error_carries_line_number():
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("node S\nnode D\nsource S\ndest D\nedge S D 1.5 0\n")
    assert excinfo.value.line == 5
    assert "1.5" in str(excinfo.value)
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("node S\nnode D\nsource S\ndest D\nedge S D 0.9 abc\n")
    assert str(excinfo.value) == "line 5: untrust component 'abc' is not a number"
    # Components are checked in order, so a bad trust is named before a bad untrust.
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("node S\nnode D\nsource S\ndest D\nedge S D 2 abc\n")
    assert str(excinfo.value) == "line 5: trust component 2.0 outside [0, 1]"


@pytest.mark.parametrize(
    "text,line",
    [
        ("link S D 0.5\n", 1),  # unknown declaration
        ("node\n", 1),  # missing identifier
        ("node S extra\n", 1),  # too many tokens
        ("node S\nnode D\nsource S\ndest D\nedge S D\n", 5),  # missing values
        ("node S\nnode D\nsource S\ndest D\nedge S D 0.5 0.5 9\n", 5),  # too many values
        ("node S\nnode D\nsource S\ndest D\nedge S D abc\n", 5),  # not a number
        ("node S\nnode D\nsource S\ndest D\nedge S D 0.9 abc\n", 5),  # untrust not a number
        ("node S\nnode S\nnode D\nsource S\ndest D\n", 2),  # duplicate node
        ("node S\nnode D\nsource S\nsource S\ndest D\n", 4),  # duplicate source
        ("node S\nnode D\nsource S\ndest D\nedge S D 0.5\nedge S D 0.5\n", 6),  # dup edge
        ("node S\nnode D\nsource S\ndest D\nedge S X 0.5\n", 5),  # undeclared node
        ("node S\nnode D\nsource S\ndest D\nedge S S 0.5\n", 5),  # self-loop
        ("node S\nnode D\nsource X\ndest D\n", 3),  # undeclared source
        ("node S\nnode D\ndest X\nsource S\n", 3),  # undeclared dest
        ("node S\nsource S\ndest S\n", 3),  # source equals dest
        ("node S\nnode a,b\nnode D\nsource S\ndest D\n", 2),  # ',' splits path specs
        ("node S\nnode a→b\nnode D\nsource S\ndest D\n", 2),  # '→' joins printed paths
    ],
)
def test_parse_rejects_bad_documents(text, line):
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology(text)
    assert excinfo.value.line == line


@pytest.mark.parametrize(
    "edges,line,name",
    [
        ("edge S a 0.5\nedge X D 0.5\nedge a D 0.5\n", 7, "X"),  # undeclared source
        ("edge S a 0.5\nedge a D 0.5\nedge a Y 0.5\n", 8, "Y"),  # undeclared destination
        ("edge X Y 0.5\nedge S a 0.5\nedge a D 0.5\n", 6, "X"),  # both: the source is named
    ],
)
def test_parse_names_an_undeclared_edge_endpoint(edges, line, name):
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology("node S\nnode a\nnode D\nsource S\ndest D\n" + edges)
    assert excinfo.value.line == line
    assert str(excinfo.value) == f"line {line}: edge endpoint {name!r} is not a declared node"


def _reference_parse(text: str, strict: bool) -> Topology:
    """The parser's rules written out plainly: the comment cut with split("#", 1), the
    line stripped and then split, and the keyword star-unpacked from its arguments."""
    nodes, roles, edges = [], {}, []
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind in ("node", "source", "dest"):
            if len(args) != 1:
                raise TopologyParseError(f"{kind} takes exactly one identifier", lineno)
            if kind == "node":
                nodes.append((lineno, args[0]))
            elif kind in roles:
                raise TopologyParseError(f"{kind} already declared", lineno)
            else:
                roles[kind] = (lineno, args[0])
        elif kind == "edge":
            if len(args) not in (3, 4):
                raise TopologyParseError("edge takes: <from> <to> <trust> [<untrust>]", lineno)
            try:
                pair = make_pair(*args[2:], strict=strict)
            except TrustValueError as err:
                raise TopologyParseError(str(err), lineno) from None
            edges.append((lineno, (args[0], args[1]), pair))
        else:
            raise TopologyParseError(f"unknown declaration {kind!r}", lineno)
    for kind in ("source", "dest"):
        if kind not in roles:
            raise TopologyParseError(f"missing {kind} declaration")
    (source_line, source), (dest_line, dest) = roles["source"], roles["dest"]
    # As in parse_topology: the line of the declaration Topology was checking when it raised.
    line = None

    def tracked(declarations):
        nonlocal line
        for line, item in declarations:
            yield item
        line = None

    try:
        items = ((lineno, (key, pair)) for lineno, key, pair in edges)
        return Topology(tracked(nodes), tracked(items), source, dest)
    except TopologyError as err:
        if line is None:
            line = dest_line if any(name == source for _, name in nodes) else source_line
        raise TopologyParseError(str(err), line) from None


# Every character str.split() splits at (none lies above U+3000), except the two that end a line.
_SPACES = "".join(ch for ch in map(chr, range(0x3001)) if ch.isspace() and ch not in "\r\n")
_WORDS = ("node", "source", "dest", "edge", "link", "Node", "S", "D", "a", "b")
_VALUES = ("0.5", "0.25", "0.75", "1", "-0", "abc", "1.5")


@st.composite
def _documents(draw) -> str:
    declaration = st.one_of(
        st.tuples(st.just("node"), st.sampled_from(("S", "D", "a", "b"))),
        st.tuples(st.sampled_from(("source", "dest")), st.sampled_from(("S", "D", "a"))),
        st.tuples(
            st.just("edge"),
            st.sampled_from(("S", "a", "b", "D")),
            st.sampled_from(("a", "b", "D")),
            st.lists(st.sampled_from(_VALUES), max_size=3),
        ).map(lambda edge: (*edge[:3], *edge[3])),  # 3 to 6 tokens
        st.lists(st.sampled_from(_WORDS + _VALUES), max_size=3),  # unknown keywords, blanks
    )
    header = [("node", "S"), ("node", "a"), ("node", "D"), ("source", "S"), ("dest", "D")]
    lines = draw(st.lists(declaration, max_size=6))
    if draw(st.booleans()):
        lines = header + lines
    spaces = st.text(_SPACES, min_size=1, max_size=2)
    ends = st.text(_SPACES, max_size=2)  # may be empty, so '#' can follow a token directly
    comment = st.text(_SPACES + "#ab edge 0.5", max_size=6).map(lambda text: "#" + text)
    parts = [draw(st.sampled_from(("", "\ufeff")))]
    for tokens in lines:
        parts.append(draw(st.sampled_from(("", *_SPACES))))
        parts.append(draw(spaces).join(tokens))
        parts.append(draw(ends))
        parts.append(draw(st.one_of(st.just(""), comment)))
        parts.append(draw(st.sampled_from(("\n", "\r", "\r\n"))))
    return "".join(parts)


def _outcome(parse, text: str, strict: bool):
    try:
        topology = parse(text, strict=strict)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)
    return topology, list(topology.edge_pairs().items())


@settings(max_examples=400)
@given(text=_documents(), strict=st.booleans())
def test_parse_follows_the_line_rules(text, strict):
    assert _outcome(parse_topology, text, strict) == _outcome(_reference_parse, text, strict)


def test_parse_missing_source_or_dest():
    with pytest.raises(TopologyParseError, match="source"):
        parse_topology("node S\nnode D\ndest D\n")
    with pytest.raises(TopologyParseError, match="dest"):
        parse_topology("node S\nnode D\nsource S\n")


def test_parse_strict_complementarity_toggle():
    text = "node S\nnode D\nsource S\ndest D\nedge S D 0.9 0.3\n"
    with pytest.raises(TopologyParseError) as excinfo:
        parse_topology(text)
    assert excinfo.value.line == 5
    relaxed = parse_topology(text, strict=False)
    assert relaxed.edge("S", "D") == TrustPair(0.9, 0.3)


def test_edges_take_a_mapping_or_items():
    pairs = {("S", "a"): make_pair(1, 0), ("a", "D"): make_pair(0.5), ("S", "D"): make_pair(0)}
    from_mapping = Topology(["S", "a", "D"], pairs, "S", "D")
    # a one-pass iterator of ((src, dst), pair) items, as parse_topology passes
    from_items = Topology(["S", "a", "D"], iter(pairs.items()), "S", "D")
    assert from_items == from_mapping
    assert (from_mapping == "x") is False
    assert repr(from_mapping) == "Topology(3 nodes, 3 edges, 'S' -> 'D')"
    assert from_items.edge_pairs() == pairs
    assert from_items.successors("S") == ("a", "D")
    # tuple keys are stored as given, so a parse holds one key tuple per edge, not two
    assert all(a is b for a, b in zip(from_items.edge_pairs(), pairs))
    with pytest.raises(TopologyError, match=r"^duplicate edge S -> a$"):
        Topology(["S", "a", "D"], [(("S", "a"), make_pair(1))] * 2, "S", "D")


def test_serialize_canonical_form():
    pairs = {("a", "D"): make_pair(0.5), ("S", "a"): make_pair(1, 0)}
    topology = Topology(["S", "a", "D"], pairs, "S", "D")
    assert Topology(["S", "a", "D"], pairs.items(), "S", "D") == topology
    assert serialize_topology(topology) == (
        "node S\nnode a\nnode D\nsource S\ndest D\n"
        "edge S a 1.0 0.0\nedge a D 0.5 0.5\n"
    )


def test_serialize_writes_negative_zero_as_zero():
    topology = Topology(["S", "D"], {("S", "D"): TrustPair(-0.0, 1.0)}, "S", "D")
    assert serialize_topology(topology).endswith("edge S D 0.0 1.0\n")


def test_minimal_round_trip():
    topology = parse_topology(MINIMAL)
    text = serialize_topology(topology)
    assert parse_topology(text) == topology
    assert text.endswith("\n")


def test_random_round_trips():
    rng = random.Random(2024)
    for _ in range(100):
        topology = random_topology(rng)
        again = parse_topology(serialize_topology(topology), strict=False)
        assert again == topology


def test_demo_fixture_shape(demo_topology):
    assert len(demo_topology.nodes) == 13
    assert len(demo_topology.edge_pairs()) == 32
    assert demo_topology.source == "S"
    assert demo_topology.destination == "D"
    assert demo_topology.nodes == ("S", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "D")


def test_demo_fixture_reference_edges(demo_topology):
    for (src, dst), (trust, untrust) in REFERENCE_EDGES.items():
        assert demo_topology.edge(src, dst) == TrustPair(trust, untrust)
    assert demo_topology.edge("S", "3") == TrustPair(0.95, 0.05)
    assert demo_topology.edge("3", "7") == TrustPair(0.6, 0.4)
    assert demo_topology.edge("7", "11") == TrustPair(0.9, 0.1)
    assert demo_topology.edge("11", "D") == TrustPair(0.8, 0.2)


def test_demo_fixture_fill_is_indifferent(demo_topology):
    filler = [
        pair for key, pair in demo_topology.edge_pairs().items() if key not in REFERENCE_EDGES
    ]
    assert len(filler) == 26
    assert all(pair == TrustPair(0.5, 0.5) for pair in filler)


def test_demo_fixture_round_trips_strict(demo_topology):
    assert parse_topology(serialize_topology(demo_topology), strict=True) == demo_topology


def test_generate_mesh_shape():
    topology = generate_mesh((4, 3, 4), TrustPair(0.5, 0.5))
    assert len(topology.nodes) == 13
    assert len(topology.edge_pairs()) == 4 + 12 + 12 + 4
    assert topology.successors("S") == ("1", "2", "3", "4")
    assert topology.successors("5") == ("8", "9", "10", "11")


def test_generate_mesh_single_layer():
    topology = generate_mesh((1,), make_pair(1, 0))
    assert topology.nodes == ("S", "1", "D")
    assert len(topology.edge_pairs()) == 2
    assert topology.edge("S", "1") == TrustPair(1.0, 0.0)


def test_generate_mesh_rejects_bad_sizes():
    with pytest.raises(TopologyError):
        generate_mesh(())
    with pytest.raises(TopologyError):
        generate_mesh((2, 0))


def test_topology_rejects_structural_errors():
    pair = make_pair(1, 0)
    with pytest.raises(TopologyError):
        Topology(["S"], {}, "S", "S")  # source equals destination
    with pytest.raises(TopologyError):
        Topology(["S", "D"], {("S", "S"): pair}, "S", "D")  # self-loop
    with pytest.raises(TopologyError):
        Topology(["S", "D"], {("S", "x"): pair}, "S", "D")  # unknown endpoint
    with pytest.raises(TopologyError):
        Topology(["S", "S", "D"], {}, "S", "D")  # duplicate node
    with pytest.raises(TopologyError):
        Topology(["S", "D"], {}, "S", "x")  # unknown destination
    with pytest.raises(TopologyError):
        Topology(["S", "bad id", "D"], {}, "S", "D")  # whitespace in id
    for node in ("a,b", "a→b"):  # ',' splits path specs, '→' joins printed paths
        with pytest.raises(TopologyError, match="may not contain"):
            Topology(["S", node, "D"], {}, "S", "D")
    for node in (7, ""):
        message = f"^node id must be a non-empty string, got {node!r}$"
        with pytest.raises(TopologyError, match=message):
            Topology(["S", node, "D"], {}, "S", "D")
    message = r"^edge S -> D value \(0\.5, 0\.5\) is not a TrustPair$"
    with pytest.raises(TopologyError, match=message):
        Topology(["S", "D"], {("S", "D"): (0.5, 0.5)}, "S", "D")


def test_successors_follow_declaration_order(demo_topology):
    assert demo_topology.successors("S") == ("1", "2", "3", "4")
    assert demo_topology.successors("7") == ("8", "9", "10", "11")
    assert demo_topology.successors("D") == ()


def test_path_pairs(demo_topology):
    nodes = ("S", "3", "7", "11", "D")
    expected = [demo_topology.edge(src, dst) for src, dst in zip(nodes, nodes[1:])]
    assert demo_topology.path_pairs(list(nodes)) == expected
    for bad, message in (
        ([], "a path needs at least two nodes, got 0"),
        (["S"], "a path needs at least two nodes, got 1"),
        (["S", "3"], "path must end at destination 'D', not '3'"),
        (["3", "7", "11", "D"], "path must start at source 'S', not '3'"),
        (["S", "99", "D"], "unknown node '99'"),
        (["S", "D"], "no edge S -> D"),
        (["S", "3", "7", "3", "7", "11", "D"], "path revisits a node"),
    ):
        with pytest.raises(PathError) as raised:
            demo_topology.path_pairs(bad)
        assert str(raised.value) == message


def test_edge_lookup_errors(demo_topology):
    with pytest.raises(TopologyError):
        demo_topology.edge("S", "D")
    with pytest.raises(TopologyError):
        demo_topology.successors("nope")
