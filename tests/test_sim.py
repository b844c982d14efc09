"""Deterministic packet-forwarding simulation."""

import random
from collections import Counter

import pytest

from helpers import random_dag, random_topology
from trustpath import (
    DEFAULT_CONSTANTS,
    ModelConstants,
    SimReport,
    Topology,
    evaluate_path,
    make_pair,
    most_likely_route,
    simulate,
)


def test_counts_are_consistent(demo_topology):
    report = simulate(demo_topology, 42)
    assert report.delivered + report.dropped == report.packets_sent
    assert sum(report.route_usage.values()) == report.delivered
    assert sum(report.drop_points.values()) == report.dropped


def test_report_scales_linearly(demo_topology):
    single = simulate(demo_topology, 1)
    batch = simulate(demo_topology, 100)
    assert batch.packets_sent == 100 * single.packets_sent
    assert batch.delivered == 100 * single.delivered
    assert batch.dropped == 100 * single.dropped
    assert batch.route_usage == {path: 100 * n for path, n in single.route_usage.items()}
    assert batch.drop_points == {node: 100 * n for node, n in single.drop_points.items()}


def _replay(topology, packets, constants):
    """The report of `packets` independent most_likely_route walks, tallied one by one."""
    usage, drops = Counter(), Counter()
    for _ in range(packets):
        route = most_likely_route(topology, constants)
        if route.reached:
            usage[route.path] += 1
        else:
            drops[route.stuck_node] += 1
    delivered = sum(usage.values())
    return SimReport(packets, delivered, packets - delivered, dict(usage), dict(drops))


def test_usage_matches_single_walk_replay():
    # Acyclic graphs at the default constants, then cyclic ones whose pairs need not be
    # complementary, each under its own constants.
    dags = random.Random(67)
    cases = [(random_dag(dags), DEFAULT_CONSTANTS) for _ in range(20)]
    rng = random.Random(71)
    for _ in range(200):
        topology = random_topology(rng)
        cases.append((topology, ModelConstants(*(rng.randint(0, 100) / 100 for _ in range(6)))))
    outcomes = Counter()
    for topology, constants in cases:
        for packets in range(1, 8):
            assert simulate(topology, packets, constants) == _replay(topology, packets, constants)
        route = most_likely_route(topology, constants)
        outcomes["arrived" if route.reached else "stalled", len(route.path) > 1] += 1
    # Both outcomes occur, and some walks stall past the source.
    assert outcomes["arrived", True] and outcomes["stalled", False] and outcomes["stalled", True]


def test_delivered_route_is_confidential(demo_topology):
    report = simulate(demo_topology, 5)
    for path in report.route_usage:
        assert evaluate_path(demo_topology, path).confidential


def test_drop_at_source_is_counted_not_raised():
    pairs = {
        ("S", "a"): make_pair(0.05, 0.95),
        ("a", "D"): make_pair(1, 0),
    }
    topology = Topology(["S", "a", "D"], pairs, "S", "D")
    report = simulate(topology, 10)
    assert report.delivered == 0
    assert report.dropped == 10
    assert report.drop_points == {"S": 10}
    assert report.route_usage == {}


def test_simulation_is_deterministic(demo_topology):
    assert simulate(demo_topology, 50) == simulate(demo_topology, 50)


def test_rejects_nonpositive_packet_counts(demo_topology):
    with pytest.raises(ValueError):
        simulate(demo_topology, 0)
    with pytest.raises(ValueError):
        simulate(demo_topology, -5)
