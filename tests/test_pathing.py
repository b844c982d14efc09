"""Path enumeration order, mean-trust ranking, and the greedy route walk."""

import random
from math import fsum, prod

import pytest

from helpers import brute_force_paths, chain_topology, random_dag, random_topology
from trustpath import (
    DEFAULT_CONSTANTS,
    ModelConstants,
    PathCapExceeded,
    PathError,
    Topology,
    TopologyError,
    TrustClass,
    TrustPair,
    Verdict,
    enumerate_paths,
    evaluate_path,
    fixture_topology,
    generate_mesh,
    make_pair,
    most_likely_route,
    path_mean_trust,
    path_mean_untrust,
    parse_topology,
    pathing,
    propagate_trust_hop,
    rank_paths,
    serialize_topology,
)

TOL = 1e-12


def test_enumeration_counts_and_order_on_demo_mesh(demo_topology):
    paths = enumerate_paths(demo_topology)
    assert len(paths) == 48
    assert paths[0] == ("S", "1", "5", "8", "D")
    assert paths[35] == ("S", "3", "7", "11", "D")
    assert paths[47] == ("S", "4", "7", "11", "D")


def test_enumeration_index_formula_on_demo_mesh(demo_topology):
    # layer choices act like digits: 12 paths per first-layer node,
    # 4 per middle-layer node, 1 per last-layer node
    for index, path in enumerate(enumerate_paths(demo_topology), start=1):
        first, middle, last = int(path[1]), int(path[2]), int(path[3])
        assert index == (first - 1) * 12 + (middle - 5) * 4 + (last - 8) + 1


def test_single_edge_topology_has_one_path():
    topology = Topology(["S", "D"], {("S", "D"): make_pair(1, 0)}, "S", "D")
    assert enumerate_paths(topology) == [("S", "D")]


def test_no_path_yields_empty_list():
    topology = Topology(["S", "x", "D"], {("S", "x"): make_pair(0.5)}, "S", "D")
    assert enumerate_paths(topology) == []


def test_enumeration_cap():
    topology = generate_mesh((2, 2))
    assert len(enumerate_paths(topology, cap=4)) == 4
    with pytest.raises(PathCapExceeded) as excinfo:
        enumerate_paths(topology, cap=3)
    assert excinfo.value.cap == 3
    with pytest.raises(ValueError):
        enumerate_paths(topology, cap=0)


def test_enumeration_matches_brute_force_on_random_dags():
    rng = random.Random(77)
    for _ in range(25):
        topology = random_dag(rng)
        assert sorted(enumerate_paths(topology)) == sorted(brute_force_paths(topology))


def test_enumeration_handles_cycles():
    pair = make_pair(0.5)
    topology = Topology(
        ["S", "a", "b", "D"],
        {
            ("S", "a"): pair,
            ("a", "b"): pair,
            ("b", "a"): pair,
            ("a", "D"): pair,
            ("b", "D"): pair,
        },
        "S",
        "D",
    )
    assert enumerate_paths(topology) == [("S", "a", "b", "D"), ("S", "a", "D")]


def test_mesh_path_count_is_product_of_layer_sizes():
    rng = random.Random(8)
    for _ in range(10):
        sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        assert len(enumerate_paths(generate_mesh(sizes))) == prod(sizes)
    assert len(enumerate_paths(generate_mesh((4, 3, 4)))) == 48
    assert len(enumerate_paths(generate_mesh((2, 2)))) == 4
    assert len(enumerate_paths(generate_mesh((2, 2, 2)))) == 8


def test_mean_trust_reference_values(demo_topology):
    assert path_mean_trust(demo_topology, ("S", "3", "7", "11", "D")) == pytest.approx(
        0.8125, abs=TOL
    )
    assert path_mean_untrust(demo_topology, ("S", "3", "7", "11", "D")) == pytest.approx(
        0.1875, abs=TOL
    )
    assert path_mean_trust(demo_topology, ("S", "1", "7", "11", "D")) == pytest.approx(
        0.825, abs=TOL
    )
    assert path_mean_untrust(demo_topology, ("S", "1", "7", "11", "D")) == pytest.approx(
        0.175, abs=TOL
    )


def test_mean_trust_extremes():
    topology = generate_mesh((2, 2), make_pair(1, 0))
    for path in enumerate_paths(topology):
        assert path_mean_trust(topology, path) == 1.0
        assert path_mean_untrust(topology, path) == 0.0


def test_path_means_add_left_to_right():
    topology = chain_topology(10, 0.1)
    path = enumerate_paths(topology)[0]
    for mean, value in ((path_mean_trust, 0.1), (path_mean_untrust, 0.9)):
        total = 0.0
        for _ in range(10):
            total += value
        assert mean(topology, path) == total / 10
    # a compensated sum, as Python 3.12's sum() does, gives another last bit
    assert path_mean_trust(topology, path) != fsum([0.1] * 10) / 10


def test_mean_trust_rejects_invalid_path(demo_topology):
    with pytest.raises(PathError):
        path_mean_trust(demo_topology, ("S", "D"))


def _validate_path(topology, nodes):
    """The path rules, one after another, in the order their PathError is chosen."""
    path = tuple(nodes)
    if len(path) < 2:
        raise PathError(f"a path needs at least two nodes, got {len(path)}")
    for node in path:
        if node not in topology.nodes:
            raise PathError(f"unknown node {node!r}")
    if path[0] != topology.source:
        raise PathError(f"path must start at source {topology.source!r}, not {path[0]!r}")
    if path[-1] != topology.destination:
        raise PathError(
            f"path must end at destination {topology.destination!r}, not {path[-1]!r}"
        )
    if len(set(path)) != len(path):
        raise PathError("path revisits a node")
    pairs = topology.edge_pairs()
    for src, dst in zip(path, path[1:]):
        if (src, dst) not in pairs:
            raise PathError(f"no edge {src} -> {dst}")
    return path


def _reference_mean(topology, nodes, field):
    """_validate_path, then a left-to-right sum over Topology.edge: the means' contract."""
    path = _validate_path(topology, nodes)
    total = 0.0
    for src, dst in zip(path, path[1:]):
        total += getattr(topology.edge(src, dst), field)
    return total / (len(path) - 1)


def _outcome(mean, *args):
    """A mean's value as exact hex, or the type and message of the PathError it raised."""
    try:
        return "value", mean(*args).hex()
    except PathError as error:
        return type(error), str(error)


def _evaluated(topology, nodes, mode):
    """The path evaluate_path returns, or the type and message of the PathError it raised."""
    try:
        return "value", evaluate_path(topology, nodes, mode=mode).path
    except PathError as error:
        return type(error), str(error)


def _node_sequence(rng, topology):
    """0-6 ids, drawn uniformly or walked along edges from the source (revisits allowed).

    The ids are the declared ones plus "undeclared".
    """
    length = rng.randint(0, 6)
    ids = [*topology.nodes, "undeclared"]
    if rng.random() < 0.5:
        return [rng.choice(ids) for _ in range(length)]
    walk = [topology.source] if length else []
    while 0 < len(walk) < length and topology.successors(walk[-1]):
        walk.append(rng.choice(topology.successors(walk[-1])))
    if walk and rng.random() < 0.5:
        walk[-1] = topology.destination
    if walk and rng.random() < 0.1:
        walk[rng.randrange(len(walk))] = "undeclared"
    return walk


#: A fragment of each PathError message of _validate_path, or "value" for a valid path.
_OUTCOMES = ("value", "two nodes", "unknown node", "start at", "end at", "revisits", "no edge")


def test_path_means_check_a_path_as_validate_path_does():
    rng = random.Random(59)
    seen = set()
    for _ in range(300):
        topology = random_topology(rng)
        sequences = [_node_sequence(rng, topology) for _ in range(30)]
        sequences += enumerate_paths(topology)[:5]
        for nodes in sequences:
            for mean, field in ((path_mean_trust, "trust"), (path_mean_untrust, "untrust")):
                expected = _outcome(_reference_mean, topology, tuple(nodes), field)
                for form in (list, tuple, iter):
                    assert _outcome(mean, topology, form(nodes)) == expected, (topology, nodes)
                message = "value" if expected[0] == "value" else expected[1]
                seen.add(next(kind for kind in _OUTCOMES if kind in message))
            expected = ("value", tuple(nodes)) if expected[0] == "value" else expected
            for mode in ("trust", "untrust"):
                for form in (list, tuple, iter):
                    assert _evaluated(topology, form(nodes), mode) == expected, (topology, nodes)
    assert seen == set(_OUTCOMES)


def test_path_checks_make_one_edge_lookup_per_hop(monkeypatch):
    topology = fixture_topology()
    calls = []
    lookup = Topology.edge

    def counted(self, src, dst):
        calls.append((src, dst))
        return lookup(self, src, dst)

    monkeypatch.setattr(Topology, "edge", counted)
    count, _ranked = rank_paths(topology)
    assert len(calls) == 384 == count * 4 * 2  # 48 paths, 4 hops, two means
    calls.clear()
    evaluate_path(topology, ["S", "3", "7", "11", "D"])
    assert calls == [("S", "3"), ("3", "7"), ("7", "11"), ("11", "D")]


def test_rank_demo_mesh_top_two(demo_topology):
    _count, ranked = rank_paths(demo_topology)
    assert len(ranked) == 48
    assert ranked[0].rank == 1
    assert ranked[0].path == ("S", "1", "7", "11", "D")
    assert ranked[0].mean_trust == pytest.approx(0.825, abs=TOL)
    assert ranked[0].trust_class is TrustClass.HIGH  # below the 0.85 very-high anchor
    assert ranked[1].rank == 2
    assert ranked[1].path == ("S", "3", "7", "11", "D")
    assert ranked[1].mean_trust == pytest.approx(0.8125, abs=TOL)


def test_rank_is_permutation_of_enumeration(demo_topology):
    _count, ranked = rank_paths(demo_topology)
    assert sorted(entry.path for entry in ranked) == sorted(enumerate_paths(demo_topology))
    assert [entry.rank for entry in ranked] == list(range(1, 49))


def test_rank_one_maximizes_mean_trust():
    rng = random.Random(31)
    for _ in range(20):
        topology = random_dag(rng)
        _count, ranked = rank_paths(topology)
        if not ranked:
            continue
        best = max(path_mean_trust(topology, path) for path in enumerate_paths(topology))
        assert ranked[0].mean_trust == best


def test_rank_order_matches_independent_sort():
    rng = random.Random(41)
    for _ in range(20):
        topology = random_dag(rng)
        paths = enumerate_paths(topology)

        def mean(values):
            return sum(values) / len(values)

        def key(index):
            path = paths[index]
            edges = [topology.edge(a, b) for a, b in zip(path, path[1:])]
            return (-mean([e.trust for e in edges]), mean([e.untrust for e in edges]), index)

        expected = [paths[index] for index in sorted(range(len(paths)), key=key)]
        assert [entry.path for entry in rank_paths(topology)[1]] == expected


def test_rank_ties_break_by_untrust_then_enumeration_order():
    # all three paths share mean trust 0.7; b and c also share mean untrust
    pairs = {
        ("S", "a"): TrustPair(0.7, 0.3),
        ("a", "D"): TrustPair(0.7, 0.3),
        ("S", "b"): TrustPair(0.7, 0.25),
        ("b", "D"): TrustPair(0.7, 0.25),
        ("S", "c"): TrustPair(0.7, 0.25),
        ("c", "D"): TrustPair(0.7, 0.25),
    }
    topology = Topology(["S", "a", "b", "c", "D"], pairs, "S", "D")
    _count, ranked = rank_paths(topology)
    assert [entry.path[1] for entry in ranked] == ["b", "c", "a"]
    assert [entry.rank for entry in ranked] == [1, 2, 3]


def _grid_mesh_pair(rng):
    """A random layered mesh plus a copy with every trust raised by 1/4.

    Trust values are multiples of 1/64 so sums, complements and the
    shifted values are all exact binary fractions.
    """
    sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    base_mesh = generate_mesh(sizes)
    shift = 16 / 64
    base_pairs = {}
    shifted_pairs = {}
    for src, dst in base_mesh.edge_pairs():
        trust = rng.randint(16, 40) / 64
        base_pairs[(src, dst)] = TrustPair(trust, 1.0 - trust)
        shifted_pairs[(src, dst)] = TrustPair(trust + shift, 1.0 - trust - shift)
    nodes, source, dest = base_mesh.nodes, base_mesh.source, base_mesh.destination
    return (
        Topology(nodes, base_pairs, source, dest),
        Topology(nodes, shifted_pairs, source, dest),
    )


def test_rank_order_invariant_under_uniform_trust_shift():
    rng = random.Random(53)
    for _ in range(10):
        base, shifted = _grid_mesh_pair(rng)
        assert [entry.path for entry in rank_paths(base)[1]] == [
            entry.path for entry in rank_paths(shifted)[1]
        ]


def _tied_dag(rng):
    """A random DAG whose edge pairs come from a few values, so that mean ties are common."""
    nodes = [f"n{i}" for i in range(rng.randint(2, 9))]
    pairs = {
        (src, dst): TrustPair(rng.choice((0.25, 0.75)), rng.choice((0.25, 0.5)))
        for i, src in enumerate(nodes)
        for dst in nodes[i + 1 :]
        if rng.random() < 0.6
    }
    return Topology(nodes, pairs, nodes[0], nodes[-1])


def test_rank_top_k_is_prefix_of_full_ranking():
    rng = random.Random(61)
    trust_ties = full_ties = 0
    for _ in range(100):
        topology = _tied_dag(rng)
        count, ranked = rank_paths(topology)
        assert count == len(ranked) == len(enumerate_paths(topology))
        trust_ties += len(ranked) - len({entry.mean_trust for entry in ranked})
        full_ties += len(ranked) - len({(e.mean_trust, e.mean_untrust) for e in ranked})
        for k in range(1, count + 3):
            assert rank_paths(topology, top=k) == (count, ranked[:k])
    # both tie-breaks are exercised: mean untrust, and the enumeration order
    assert trust_ties > full_ties > 100


def test_rank_rejects_top_below_one():
    for top in (0, -1):
        # checked before enumerating, so a cap the topology passes does not mask it
        with pytest.raises(ValueError, match=rf"^top must be >= 1, got {top}$"):
            rank_paths(fixture_topology(), cap=1, top=top)


def test_rank_respects_cap():
    with pytest.raises(PathCapExceeded):
        rank_paths(generate_mesh((2, 2)), cap=3)
    with pytest.raises(PathCapExceeded):
        rank_paths(generate_mesh((2, 2)), cap=3, top=1)


def test_route_on_demo_mesh(demo_topology):
    route = most_likely_route(demo_topology)
    assert route.reached
    assert route.path == ("S", "3", "7", "11", "D")
    assert route.stuck_node is None
    assert [step.edge.trust for step in route.steps] == [0.95, 0.6, 0.9, 0.8]
    assert all(step.hop.verdict is Verdict.ACCEPTABLE for step in route.steps)


def test_route_chain_topology():
    topology = Topology(
        ["S", "a", "D"],
        {("S", "a"): make_pair(1, 0), ("a", "D"): make_pair(1, 0)},
        "S",
        "D",
    )
    assert most_likely_route(topology).path == ("S", "a", "D")


def test_route_tie_breaks_by_declaration_order():
    # every edge is (0.5, 0.5): all hops are barely acceptable and tied
    route = most_likely_route(generate_mesh((2, 2)))
    assert route.reached
    assert route.path == ("S", "1", "3", "D")


def _dead_end_at_source() -> Topology:
    pairs = {
        ("S", "a"): make_pair(0.05, 0.95),
        ("S", "b"): make_pair(0.1, 0.9),
        ("a", "D"): make_pair(1, 0),
        ("b", "D"): make_pair(1, 0),
    }
    return Topology(["S", "a", "b", "D"], pairs, "S", "D")


def test_route_dead_end_at_source():
    route = most_likely_route(_dead_end_at_source())
    assert not route.reached
    assert route.path == ("S",)
    assert route.stuck_node == "S"
    assert route.steps == ()


def test_route_mid_walk_dead_end_keeps_partial_trace():
    # the greedy walk is lured to a, whose only exit fails the test
    pairs = {
        ("S", "a"): make_pair(0.9, 0.1),
        ("S", "b"): make_pair(0.5, 0.5),
        ("a", "c"): make_pair(0.05, 0.95),
        ("b", "D"): make_pair(1, 0),
        ("c", "D"): make_pair(1, 0),
    }
    topology = Topology(["S", "a", "b", "c", "D"], pairs, "S", "D")
    route = most_likely_route(topology)
    assert not route.reached
    assert route.path == ("S", "a")
    assert route.stuck_node == "a"
    assert len(route.steps) == 1


def _argmax_oracle_walk(topology, constants=DEFAULT_CONSTANTS):
    """Re-walk with an independent scan over declared nodes that tests every candidate.

    Returns the walked nodes and the number of steps whose most trusted
    unvisited candidate failed the test, so the winner came from further down.
    """
    node = topology.source
    arrival = TrustPair(1.0, 0.0)
    seen = {node}
    walked = [node]
    skips = 0
    while node != topology.destination:
        best = None
        top_trust = None
        for candidate in topology.nodes:
            if candidate in seen or candidate not in topology.successors(node):
                continue
            edge = topology.edge(node, candidate)
            top_trust = edge.trust if top_trust is None else max(top_trust, edge.trust)
            hop = propagate_trust_hop(arrival, edge, constants)
            if hop.verdict is not Verdict.ACCEPTABLE:
                continue
            if best is None or edge.trust > best[1].trust:
                best = (candidate, edge)
        if best is None:
            break
        node, edge = best
        skips += edge.trust < top_trust
        seen.add(node)
        walked.append(node)
        arrival = edge
    return tuple(walked), skips


def test_route_matches_step_by_step_argmax_oracle():
    rng = random.Random(23)
    for _ in range(30):
        topology = random_dag(rng)
        route = most_likely_route(topology)
        walked, _skips = _argmax_oracle_walk(topology)
        assert walked == route.path
        assert route.reached == (walked[-1] == topology.destination)


def test_route_matches_argmax_oracle_on_cyclic_topologies_with_random_constants():
    # cycles, non-complementary pairs and arbitrary constants make the most
    # trusted candidate fail often, so the walk must fall through to later ones
    rng = random.Random(41)
    total_skips = 0
    for _ in range(300):
        topology = random_topology(rng)
        constants = ModelConstants(*(rng.randint(0, 100) / 100 for _ in range(6)))
        route = most_likely_route(topology, constants)
        walked, skips = _argmax_oracle_walk(topology, constants)
        total_skips += skips
        assert walked == route.path
        assert route.reached == (walked[-1] == topology.destination)
        arrival = TrustPair(1.0, 0.0)
        for step in route.steps:
            assert step.edge == topology.edge(step.src, step.dst)
            assert step.hop == propagate_trust_hop(arrival, step.edge, constants)
            arrival = step.edge
    assert total_skips > 0


def test_route_falls_through_a_rejected_top_candidate():
    # from full trust the hop to hi outputs (0.51, 0.95): hi is the most
    # trusted successor but fails, so the walk takes the next one, mid
    pairs = {
        ("S", "lo"): make_pair(0.6),
        ("S", "hi"): TrustPair(0.9, 0.95),
        ("S", "mid"): make_pair(0.8),
        ("lo", "D"): make_pair(1.0),
        ("hi", "D"): make_pair(1.0),
        ("mid", "D"): make_pair(1.0),
    }
    topology = Topology(["S", "lo", "hi", "mid", "D"], pairs, "S", "D")
    assert propagate_trust_hop(TrustPair(1.0, 0.0), pairs[("S", "hi")]).verdict is (
        Verdict.NOT_ACCEPTABLE
    )
    route = most_likely_route(topology)
    assert route.path == ("S", "mid", "D")
    assert route.steps[0].edge == make_pair(0.8)


def test_route_tie_after_rejected_candidate_goes_to_first_declared():
    # p and q tie on trust and sort after the rejected hi; p is declared
    # first, so it wins although q has the lower untrust
    pairs = {
        ("S", "lo"): make_pair(0.6),
        ("S", "q"): TrustPair(0.7, 0.1),
        ("S", "hi"): TrustPair(0.9, 0.95),
        ("S", "p"): TrustPair(0.7, 0.3),
        ("lo", "D"): make_pair(1.0),
        ("q", "D"): make_pair(1.0),
        ("hi", "D"): make_pair(1.0),
        ("p", "D"): make_pair(1.0),
    }
    topology = Topology(["S", "lo", "p", "hi", "q", "D"], pairs, "S", "D")
    route = most_likely_route(topology)
    assert route.path == ("S", "p", "D")
    assert route.path == _argmax_oracle_walk(topology)[0]


def _count_hop_tests(monkeypatch):
    tested = []

    def counting(arrival, next_edge, constants=DEFAULT_CONSTANTS):
        tested.append(next_edge)
        return propagate_trust_hop(arrival, next_edge, constants)

    monkeypatch.setattr(pathing, "propagate_trust_hop", counting)
    return tested


def test_route_on_demo_mesh_runs_one_hop_test_per_step(demo_topology, monkeypatch):
    tested = _count_hop_tests(monkeypatch)
    route = most_likely_route(demo_topology)
    assert route.path == ("S", "3", "7", "11", "D")
    assert len(tested) == 4
    assert tested == [step.edge for step in route.steps]


def test_route_dead_end_tests_each_candidate_once(monkeypatch):
    tested = _count_hop_tests(monkeypatch)
    route = most_likely_route(_dead_end_at_source())
    assert not route.reached
    assert sorted(tested, key=lambda pair: pair.trust) == [
        make_pair(0.05, 0.95),
        make_pair(0.1, 0.9),
    ]


def test_route_first_hop_is_argmax_of_acceptable_source_edges():
    rng = random.Random(17)
    for _ in range(30):
        topology = random_dag(rng)
        route = most_likely_route(topology)
        if not route.steps:
            continue
        acceptable = [
            topology.edge(topology.source, candidate).trust
            for candidate in topology.successors(topology.source)
            if propagate_trust_hop(
                TrustPair(1.0, 0.0), topology.edge(topology.source, candidate)
            ).verdict
            is Verdict.ACCEPTABLE
        ]
        assert route.steps[0].edge.trust == max(acceptable)


def _best_first_oracle(topology, constants):
    """The walk's path and the edges it must test, in order, found filter-first.

    At each node: drop visited successors, stable-sort the rest by
    descending edge trust, and test them until one is acceptable.
    """
    node, arrival = topology.source, TrustPair(1.0, 0.0)
    walked, tested = [node], []
    while node != topology.destination:
        candidates = [dst for dst in topology.successors(node) if dst not in walked]
        candidates.sort(key=lambda dst: -topology.edge(node, dst).trust)
        for dst in candidates:
            edge = topology.edge(node, dst)
            tested.append(edge)
            if propagate_trust_hop(arrival, edge, constants).verdict is Verdict.ACCEPTABLE:
                break
        else:
            break
        node, arrival = dst, edge
        walked.append(node)
    return tuple(walked), tested


def test_route_tests_exactly_the_best_first_oracle_edges(monkeypatch):
    # the walk sorts once per node and filters per step; the oracle filters
    # first and sorts after: both must test the same edge objects in order
    tested = _count_hop_tests(monkeypatch)
    rng = random.Random(67)
    fall_throughs = 0
    for _ in range(300):
        topology = random_topology(rng)
        constants = ModelConstants(*(rng.randint(0, 100) / 100 for _ in range(6)))
        tested.clear()
        route = most_likely_route(topology, constants)
        walked, expected = _best_first_oracle(topology, constants)
        assert route.path == walked
        assert len(tested) == len(expected)
        assert all(got is want for got, want in zip(tested, expected))
        fall_throughs += len(tested) - len(route.steps)
    assert fall_throughs > 100


def test_walks_leave_the_topology_as_parsed():
    rng = random.Random(71)
    for _ in range(40):
        text = serialize_topology(random_topology(rng))
        walked, fresh = parse_topology(text, strict=False), parse_topology(text, strict=False)
        constant_sets = [ModelConstants(*(rng.randint(0, 100) / 100 for _ in range(6)))
                         for _ in range(3)] + [DEFAULT_CONSTANTS]
        routes = [most_likely_route(walked, constants) for constants in constant_sets * 2]
        assert walked == fresh
        assert repr(walked) == repr(fresh)
        assert routes == [most_likely_route(fresh, constants) for constants in constant_sets * 2]


def test_successors_by_trust_orders_ties_by_declaration():
    pairs = {
        ("S", "z"): make_pair(0.5),
        ("S", "D"): make_pair(0.5),
        ("S", "y"): make_pair(0.9),
        ("S", "x"): TrustPair(0.5, 0.2),
        ("x", "S"): make_pair(0.1),
    }
    topology = Topology(["S", "x", "y", "z", "D"], pairs, "S", "D")
    order = topology.successors_by_trust("S")
    assert [dst for dst, _ in order] == ["y", "x", "z", "D"]
    assert all(pair is pairs["S", dst] for dst, pair in order)
    assert topology.successors_by_trust("S") is order
    assert topology.successors_by_trust("D") == ()


def test_successors_by_trust_rejects_unknown_node():
    topology = fixture_topology()
    with pytest.raises(TopologyError, match=r"^unknown node 'nope'$"):
        topology.successors_by_trust("nope")
    # and again: a failed lookup keeps nothing
    with pytest.raises(TopologyError, match=r"^unknown node 'nope'$"):
        topology.successors_by_trust("nope")
