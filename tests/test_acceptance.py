"""End-to-end acceptance gate.

One test per release criterion. Each prints a single
``acceptance criterion N: PASS/FAIL`` line directly to the terminal
(capture is suspended for that line), so a plain ``pytest -v`` run shows
the verdict per criterion. Tolerances are pinned inside each test.
"""

import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from helpers import brute_force_paths, mesh_on_pair, random_dag, random_topology, run_cli
from trustpath import (
    Chaining,
    DEFAULT_CONSTANTS,
    TestMode,
    display_round,
    enumerate_paths,
    evaluate_path,
    generate_mesh,
    make_pair,
    most_likely_route,
    parse_topology,
    path_mean_trust,
    path_mean_untrust,
    propagate_trust_hop,
    rank_paths,
    serialize_topology,
    simulate,
)

TOL = 1e-12

REFERENCE_PATH = ("S", "3", "7", "11", "D")


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _criterion(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance criterion {number}: FAIL - {description}")
            raise
        else:
            with capsys.disabled():
                print(f"acceptance criterion {number}: PASS - {description}")

    return _criterion


def test_criterion_1_trust_chain_values_and_display(demo_topology, announce):
    with announce(1, "trust-test chain along S-3-7-11-D"):
        evaluation = evaluate_path(
            demo_topology, REFERENCE_PATH, DEFAULT_CONSTANTS, TestMode.TRUST, Chaining.EDGE
        )
        expected = [(0.51, 0.05), (0.5345, 0.405), (0.706, 0.26), (0.559, 0.23)]
        shown = [("0.51", "0.05"), ("0.53", "0.40"), ("0.70", "0.26"), ("0.55", "0.23")]
        assert len(evaluation.hops) == 4
        for hop, (trust, untrust), (trust_text, untrust_text) in zip(
            evaluation.hops, expected, shown
        ):
            assert abs(hop.trust - trust) <= TOL
            assert abs(hop.untrust - untrust) <= TOL
            assert display_round(hop.trust, 2) == trust_text
            assert display_round(hop.untrust, 2) == untrust_text


def test_criterion_2_untrust_chain_values_and_display(demo_topology, announce):
    with announce(2, "untrust-test chain along S-3-7-11-D"):
        evaluation = evaluate_path(
            demo_topology, REFERENCE_PATH, DEFAULT_CONSTANTS, TestMode.UNTRUST, Chaining.EDGE
        )
        expected = [(0.5, 0.0), (0.505, 0.0245), (0.66, 0.196), (0.53, 0.049)]
        shown = [("0.50", "0.00"), ("0.50", "0.02"), ("0.66", "0.19"), ("0.53", "0.04")]
        assert len(evaluation.hops) == 4
        for hop, (trust, untrust), (trust_text, untrust_text) in zip(
            evaluation.hops, expected, shown
        ):
            assert abs(hop.trust - trust) <= TOL
            assert abs(hop.untrust - untrust) <= TOL
            assert display_round(hop.trust, 2) == trust_text
            assert display_round(hop.untrust, 2) == untrust_text


def test_criterion_3_mean_trust_and_untrust(demo_topology, announce):
    with announce(3, "mean trust/untrust of the two highlighted paths"):
        detour = ("S", "1", "7", "11", "D")
        assert abs(path_mean_trust(demo_topology, detour) - 0.825) <= TOL
        assert abs(path_mean_untrust(demo_topology, detour) - 0.175) <= TOL
        assert abs(path_mean_trust(demo_topology, REFERENCE_PATH) - 0.8125) <= TOL
        assert abs(path_mean_untrust(demo_topology, REFERENCE_PATH) - 0.1875) <= TOL
        assert display_round(path_mean_trust(demo_topology, detour), 2) == "0.82"
        assert display_round(path_mean_untrust(demo_topology, detour), 2) == "0.17"
        assert display_round(path_mean_trust(demo_topology, REFERENCE_PATH), 2) == "0.81"
        assert display_round(path_mean_untrust(demo_topology, REFERENCE_PATH), 2) == "0.18"


def test_criterion_4_enumeration_count_and_order(demo_topology, announce):
    with announce(4, "48 enumerated paths in deterministic order"):
        paths = enumerate_paths(demo_topology)
        assert len(paths) == 48
        assert paths[0] == ("S", "1", "5", "8", "D")
        assert paths[35] == ("S", "3", "7", "11", "D")
        assert paths[47] == ("S", "4", "7", "11", "D")


def test_criterion_5_best_rank_differs_from_greedy_route(demo_topology, announce):
    with announce(5, "rank-1 path differs from the greedy route"):
        _count, ranked = rank_paths(demo_topology)
        assert ranked[0].path == ("S", "1", "7", "11", "D")
        route = most_likely_route(demo_topology)
        assert route.reached
        assert route.path == REFERENCE_PATH
        assert ranked[0].path != route.path


def test_criterion_6_reference_hops_all_acceptable(demo_topology, announce):
    with announce(6, "all eight reference hop verdicts acceptable"):
        for mode in (TestMode.TRUST, TestMode.UNTRUST):
            evaluation = evaluate_path(demo_topology, REFERENCE_PATH, mode=mode)
            assert evaluation.confidential
            assert len(evaluation.hops) == 4


def test_criterion_7a_trust_output_closed_form(announce):
    with announce("7a", "trust output is 0.51 + 0.49*untrust on 10000 random pairs"):
        rng = random.Random(70)
        for _ in range(10_000):
            arrival = make_pair(rng.random())
            edge = make_pair(rng.random())
            hop = propagate_trust_hop(arrival, edge)
            assert abs(hop.trust - (0.51 + 0.49 * arrival.untrust)) <= TOL


def test_criterion_7b_means_are_complementary(demo_topology, announce):
    with announce("7b", "mean trust and untrust sum to 1 on complementary topologies"):
        rng = random.Random(71)
        topologies = [demo_topology]
        for _ in range(5):
            topologies.append(random_dag(rng))
        for _ in range(3):
            sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            topologies.append(mesh_on_pair(sizes, make_pair(rng.randint(0, 100) / 100)))
        checked = 0
        for topology in topologies:
            for path in enumerate_paths(topology):
                total = path_mean_trust(topology, path) + path_mean_untrust(topology, path)
                assert abs(total - 1.0) <= TOL
                checked += 1
        assert checked >= 48


def test_criterion_7c_mesh_path_count_is_layer_product(announce):
    with announce("7c", "mesh path count equals the product of layer sizes"):
        rng = random.Random(72)
        for _ in range(20):
            sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            expected = 1
            for size in sizes:
                expected *= size
            assert len(enumerate_paths(generate_mesh(sizes))) == expected


def test_criterion_7d_enumeration_matches_brute_force(announce):
    with announce("7d", "enumeration equals permutation filtering on 50 random DAGs"):
        rng = random.Random(73)
        for _ in range(50):
            topology = random_dag(rng, max_nodes=8)
            assert sorted(enumerate_paths(topology)) == sorted(brute_force_paths(topology))


def test_criterion_7e_parse_serialize_round_trip(announce):
    with announce("7e", "parse/serialize identity on 500 random topologies"):
        rng = random.Random(74)
        for _ in range(500):
            topology = random_topology(rng)
            again = parse_topology(serialize_topology(topology), strict=False)
            assert again == topology


def test_criterion_8_simulation_counts(demo_topology, announce):
    with announce(8, "1000 packets delivered over the greedy route, linear report"):
        report = simulate(demo_topology, 1000)
        assert report.packets_sent == 1000
        assert report.delivered == 1000
        assert report.dropped == 0
        assert report.route_usage == {REFERENCE_PATH: 1000}
        assert report.drop_points == {}
        single = simulate(demo_topology, 1)
        assert report.packets_sent == 1000 * single.packets_sent
        assert report.delivered == 1000 * single.delivered
        assert report.dropped == 1000 * single.dropped
        assert report.route_usage == {
            path: 1000 * count for path, count in single.route_usage.items()
        }
        assert report.drop_points == {
            node: 1000 * count for node, count in single.drop_points.items()
        }


def test_criterion_9_cli_pipeline_and_exit_codes(
    tmp_path, capsys, announce, demo_file, dead_end_file
):
    with announce(9, "fixture|route pipeline and exit codes 0/1/2/3"):
        command = (
            f"{sys.executable} -m trustpath fixture | "
            f"{sys.executable} -m trustpath route --topology -"
        )
        completed = subprocess.run(command, shell=True, capture_output=True)
        assert completed.returncode == 0
        stdout = completed.stdout.decode("utf-8")
        assert stdout.splitlines()[0] == "route S→3→7→11→D"

        bad = tmp_path / "bad.trust"
        bad.write_text("edge S D 1.5 0\n", encoding="utf-8")

        ok_code, _, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file)
        assert ok_code == 0
        parse_code, _, _ = run_cli(capsys, "route", "-t", str(bad))
        assert parse_code == 1
        dead_code, _, _ = run_cli(capsys, "route", "-t", dead_end_file)
        assert dead_code == 2
        cap_code, _, _ = run_cli(capsys, "enumerate", "-t", demo_file, "--cap", "10")
        assert cap_code == 3
