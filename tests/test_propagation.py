"""Per-hop matrix tests, verdicts, and path evaluation chains."""

import math
import random

import numpy as np
import pytest

from helpers import chain_topology
from trustpath import (
    FULL_TRUST,
    VERDICT_TOL,
    ModelConstants,
    PathError,
    Topology,
    TrustPair,
    TrustValueError,
    Verdict,
    evaluate_path,
    fixture_topology,
    make_pair,
    propagate_trust_hop,
    propagate_untrust_hop,
)

TOL = 1e-12

REFERENCE_PATH = ("S", "3", "7", "11", "D")
REFERENCE_EDGE_VALUES = [(0.95, 0.05), (0.6, 0.4), (0.9, 0.1), (0.8, 0.2)]
# Expected (trust, untrust) output per hop along the reference path.
TRUST_CHAIN = [(0.51, 0.05), (0.5345, 0.405), (0.706, 0.26), (0.559, 0.23)]
UNTRUST_CHAIN = [(0.5, 0.0), (0.505, 0.0245), (0.66, 0.196), (0.53, 0.049)]

# Six distinct entries, so a layout check cannot pass with two of them swapped.
DISTINCT_CONSTANTS = ModelConstants(0.61, 0.92, 0.43, 0.34, 0.15, 0.26)
LAYOUT_CONSTANTS = pytest.mark.parametrize(
    "constants", [ModelConstants(), DISTINCT_CONSTANTS], ids=["defaults", "distinct"]
)
LAYOUT_EDGES = [make_pair(0.95, 0.05), make_pair(0.6, 0.4), make_pair(1, 0), make_pair(0, 1)]


# The model's two hop matrices, written out independently of the program:
# the trust test multiplies [trust untrust] by the first, the untrust test
# multiplies [untrust trust] by the second.
def trust_test_matrix(edge, constants):
    return np.array(
        [[constants.theta_min, edge.untrust], [constants.theta_max, constants.theta_ind]]
    )


def untrust_test_matrix(edge, constants):
    return np.array(
        [[constants.upsilon_min, edge.trust], [constants.upsilon_max, constants.upsilon_ind]]
    )


def random_constants(rng):
    return ModelConstants(*(rng.random() for _ in range(6)))


@LAYOUT_CONSTANTS
def test_trust_matrix_layout(constants):
    # arrivals (1, 0) and (0, 1) read out the matrix's top and bottom rows
    for edge in LAYOUT_EDGES:
        top = propagate_trust_hop(TrustPair(1, 0), edge, constants)
        bottom = propagate_trust_hop(TrustPair(0, 1), edge, constants)
        assert (top.trust, top.untrust) == (constants.theta_min, edge.untrust)
        assert (bottom.trust, bottom.untrust) == (constants.theta_max, constants.theta_ind)


@LAYOUT_CONSTANTS
def test_untrust_matrix_layout(constants):
    # the row vector is [untrust trust], so (0, 1) reads the top row, (1, 0) the bottom
    for edge in LAYOUT_EDGES:
        top = propagate_untrust_hop(TrustPair(0, 1), edge, constants)
        bottom = propagate_untrust_hop(TrustPair(1, 0), edge, constants)
        assert (top.untrust, top.trust) == (constants.upsilon_min, edge.trust)
        assert (bottom.untrust, bottom.trust) == (constants.upsilon_max, constants.upsilon_ind)


@pytest.mark.parametrize(
    "arrival,edge,expected",
    list(zip([(1.0, 0.0)] + REFERENCE_EDGE_VALUES[:-1], REFERENCE_EDGE_VALUES, TRUST_CHAIN)),
)
def test_trust_hop_reference_values(arrival, edge, expected):
    hop = propagate_trust_hop(TrustPair(*arrival), TrustPair(*edge))
    assert hop.trust == pytest.approx(expected[0], abs=TOL)
    assert hop.untrust == pytest.approx(expected[1], abs=TOL)
    assert hop.verdict is Verdict.ACCEPTABLE


@pytest.mark.parametrize(
    "arrival,edge,expected",
    list(zip([(1.0, 0.0)] + REFERENCE_EDGE_VALUES[:-1], REFERENCE_EDGE_VALUES, UNTRUST_CHAIN)),
)
def test_untrust_hop_reference_values(arrival, edge, expected):
    hop = propagate_untrust_hop(TrustPair(*arrival), TrustPair(*edge))
    assert hop.trust == pytest.approx(expected[0], abs=TOL)
    assert hop.untrust == pytest.approx(expected[1], abs=TOL)
    assert hop.verdict is Verdict.ACCEPTABLE


def test_trust_hop_matches_matrix_product():
    rng = random.Random(7)
    for _ in range(200):
        arrival = make_pair(rng.random())
        edge = make_pair(rng.random())
        constants = random_constants(rng)
        hop = propagate_trust_hop(arrival, edge, constants)
        vector = np.array([arrival.trust, arrival.untrust]) @ trust_test_matrix(edge, constants)
        assert hop.trust == pytest.approx(vector[0], abs=1e-15)
        assert hop.untrust == pytest.approx(vector[1], abs=1e-15)


def test_untrust_hop_matches_matrix_product():
    # the untrust test feeds the arrival state in [untrust trust] order
    rng = random.Random(8)
    for _ in range(200):
        arrival = make_pair(rng.random())
        edge = make_pair(rng.random())
        constants = random_constants(rng)
        hop = propagate_untrust_hop(arrival, edge, constants)
        vector = np.array([arrival.untrust, arrival.trust]) @ untrust_test_matrix(edge, constants)
        assert hop.untrust == pytest.approx(vector[0], abs=1e-15)
        assert hop.trust == pytest.approx(vector[1], abs=1e-15)


def test_verdict_boundaries():
    tied = propagate_trust_hop(TrustPair(1.0, 0.0), TrustPair(0.49, 0.51))
    assert tied.verdict is Verdict.INDIFFERENT  # 0.51 on both components
    rejected = propagate_trust_hop(TrustPair(1.0, 0.0), TrustPair(0.1, 0.9))
    assert rejected.verdict is Verdict.NOT_ACCEPTABLE  # 0.51 against 0.9
    near = propagate_trust_hop(
        FULL_TRUST, TrustPair(0.5, 0.5), ModelConstants(theta_min=0.5000000000000001)
    )
    assert near.verdict is Verdict.INDIFFERENT  # trust above untrust by one ulp, within tolerance
    # A difference exactly at the tolerance is not above it, whichever component is larger.
    t, u = 0.5000444502911705, 0.5000444502906705
    assert t - u == VERDICT_TOL * t
    for trust, untrust in ((t, u), (u, t)):  # the hop's output components
        edge, constants = TrustPair(0.5, untrust), ModelConstants(theta_min=trust)
        assert propagate_trust_hop(FULL_TRUST, edge, constants).verdict is Verdict.INDIFFERENT


def test_trust_output_closed_form_for_complementary_arrivals():
    rng = random.Random(99)
    for _ in range(1000):
        arrival = make_pair(rng.random())
        hop = propagate_trust_hop(arrival, make_pair(rng.random()))
        assert hop.trust == pytest.approx(0.51 + 0.49 * arrival.untrust, abs=TOL)
        assert 0.51 - TOL <= hop.trust <= 1.0 + TOL


def test_untrust_output_closed_form_for_complementary_arrivals():
    rng = random.Random(5)
    for _ in range(1000):
        arrival = make_pair(rng.random())
        hop = propagate_untrust_hop(arrival, make_pair(rng.random()))
        assert hop.untrust == pytest.approx(0.49 * arrival.untrust, abs=1e-15)
        assert hop.untrust <= 0.49 + 1e-15


def test_reference_trust_chain_on_demo_mesh(demo_topology):
    evaluation = evaluate_path(demo_topology, REFERENCE_PATH)
    assert evaluation.mode == "trust"
    assert evaluation.path == REFERENCE_PATH
    assert len(evaluation.hops) == 4
    for hop, (trust, untrust) in zip(evaluation.hops, TRUST_CHAIN):
        assert hop.trust == pytest.approx(trust, abs=TOL)
        assert hop.untrust == pytest.approx(untrust, abs=TOL)
        assert hop.verdict is Verdict.ACCEPTABLE
    assert evaluation.confidential


def test_reference_untrust_chain_on_demo_mesh(demo_topology):
    evaluation = evaluate_path(demo_topology, REFERENCE_PATH, mode="untrust")
    assert evaluation.mode == "untrust"
    for hop, (trust, untrust) in zip(evaluation.hops, UNTRUST_CHAIN):
        assert hop.trust == pytest.approx(trust, abs=TOL)
        assert hop.untrust == pytest.approx(untrust, abs=TOL)
        assert hop.verdict is Verdict.ACCEPTABLE
    assert evaluation.confidential


def test_single_edge_path():
    topology = Topology(["S", "D"], {("S", "D"): make_pair(1, 0)}, "S", "D")
    evaluation = evaluate_path(topology, ("S", "D"))
    hop = evaluation.hops[0]
    assert (hop.trust, hop.untrust) == (0.51, 0.0)
    assert hop.verdict is Verdict.ACCEPTABLE


def test_edge_chaining_equals_manual_hop_application():
    # oracle: chain the public single-hop function by hand
    rng = random.Random(13)
    for _ in range(50):
        edges = [make_pair(rng.randint(0, 100) / 100) for _ in range(3)]
        topology = Topology(
            ["S", "a", "b", "D"],
            {("S", "a"): edges[0], ("a", "b"): edges[1], ("b", "D"): edges[2]},
            "S",
            "D",
        )
        evaluation = evaluate_path(topology, ("S", "a", "b", "D"))
        arrival = TrustPair(1.0, 0.0)
        expected = []
        for index, edge in enumerate(edges):
            if index > 0:
                arrival = edges[index - 1]
            expected.append(propagate_trust_hop(arrival, edge))
        assert list(evaluation.hops) == expected


def test_output_chaining_trust_frozen_values(demo_topology):
    expected = [(0.51, 0.05), (0.3101, 0.229), (0.387151, 0.14551), (0.34295701, 0.1501852)]
    evaluation = evaluate_path(demo_topology, REFERENCE_PATH, chaining="output")
    for hop, (trust, untrust) in zip(evaluation.hops, expected):
        assert hop.trust == pytest.approx(trust, abs=TOL)
        assert hop.untrust == pytest.approx(untrust, abs=TOL)
    # hop 2 arrives with hop 1's output, not with the first edge's pair
    assert evaluation.hops[1].trust == pytest.approx(0.51 * 0.51 + 0.05 * 1.0, abs=TOL)


def test_output_chaining_matches_numpy_chain(demo_topology):
    rng = random.Random(9)
    for constants in [ModelConstants()] + [random_constants(rng) for _ in range(20)]:
        vector = np.array([1.0, 0.0])
        evaluation = evaluate_path(demo_topology, REFERENCE_PATH, constants, chaining="output")
        for hop, edge_values in zip(evaluation.hops, REFERENCE_EDGE_VALUES):
            vector = vector @ trust_test_matrix(make_pair(*edge_values), constants)
            assert hop.trust == pytest.approx(vector[0], abs=1e-15)
            assert hop.untrust == pytest.approx(vector[1], abs=1e-15)


def test_output_chaining_untrust_frozen_values(demo_topology):
    # the untrust component dies after hop 1 and the trust slot halves each hop
    expected = [(0.5, 0.0), (0.25, 0.0), (0.125, 0.0), (0.0625, 0.0)]
    evaluation = evaluate_path(demo_topology, REFERENCE_PATH, mode="untrust", chaining="output")
    for hop, (trust, untrust) in zip(evaluation.hops, expected):
        assert hop.trust == pytest.approx(trust, abs=TOL)
        assert hop.untrust == pytest.approx(untrust, abs=TOL)


def test_output_chaining_verdicts_do_not_depend_on_scale():
    # Both components shrink by about 0.82 per hop, to 1e-171 by the end,
    # while trust stays about 3.2 times untrust: every hop is acceptable.
    chain = chain_topology(2000, 0.9)
    evaluation = evaluate_path(chain, chain.nodes, chaining="output")
    assert evaluation.hops[-1].trust < 1e-170
    assert all(hop.verdict is Verdict.ACCEPTABLE for hop in evaluation.hops)


def test_output_chaining_overflow_names_the_hop():
    # oracle: the trust-test recurrence on plain floats, edge untrust 1.0
    trust, untrust, hop = 1.0, 0.0, 0
    while math.isfinite(trust) and math.isfinite(untrust):
        trust, untrust, hop = trust * 0.51 + untrust * 1.0, trust * 1.0 + untrust * 0.5, hop + 1
    chain = chain_topology(2000, 0.0)
    with pytest.raises(TrustValueError, match=rf"^hop {hop} n{hop - 1} -> n{hop}: "):
        evaluate_path(chain, chain.nodes, chaining="output")
    assert evaluate_path(chain, chain.nodes).confidential is False  # edge chaining stays finite


@pytest.mark.parametrize("mode", ["trust", "untrust"])
@pytest.mark.parametrize("chaining", ["edge", "output"])
def test_evaluate_path_takes_mode_and_chaining_names(demo_topology, mode, chaining):
    evaluation = evaluate_path(demo_topology, REFERENCE_PATH, mode=mode, chaining=chaining)
    assert evaluation.mode == mode


@pytest.mark.parametrize(
    ("keyword", "message"),
    [
        ({"mode": "x"}, "mode must be trust or untrust, not 'x'"),
        ({"mode": "both"}, "mode must be trust or untrust, not 'both'"),
        ({"mode": "TRUST"}, "mode must be trust or untrust, not 'TRUST'"),
        ({"chaining": "x"}, "chaining must be edge or output, not 'x'"),
    ],
)
def test_evaluate_path_rejects_unknown_mode_and_chaining_names(demo_topology, keyword, message):
    with pytest.raises(ValueError) as raised:
        evaluate_path(demo_topology, REFERENCE_PATH, **keyword)
    assert str(raised.value) == message


def test_evaluate_path_rejects_bad_paths(demo_topology):
    with pytest.raises(PathError):
        evaluate_path(demo_topology, ("S", "99", "D"))
    with pytest.raises(PathError):
        evaluate_path(demo_topology, ("S", "D"))
    with pytest.raises(PathError):
        evaluate_path(demo_topology, ("3", "7", "11", "D"))
    with pytest.raises(PathError):
        evaluate_path(demo_topology, ("S", "3", "7", "11"))
    with pytest.raises(PathError):
        evaluate_path(demo_topology, ("S",))


def test_evaluate_path_is_deterministic(demo_topology):
    first = evaluate_path(demo_topology, REFERENCE_PATH)
    second = evaluate_path(demo_topology, REFERENCE_PATH)
    assert first == second


def test_constants_are_injected_not_hardcoded():
    constants = ModelConstants(
        theta_min=0.6,
        theta_max=0.9,
        theta_ind=0.4,
        upsilon_min=0.3,
        upsilon_max=0.1,
        upsilon_ind=0.2,
    )
    arrival = TrustPair(0.5, 0.5)
    edge = TrustPair(0.7, 0.3)
    trust_hop = propagate_trust_hop(arrival, edge, constants)
    assert trust_hop.trust == pytest.approx(0.5 * 0.6 + 0.5 * 0.9, abs=TOL)
    assert trust_hop.untrust == pytest.approx(0.5 * 0.3 + 0.5 * 0.4, abs=TOL)
    untrust_hop = propagate_untrust_hop(arrival, edge, constants)
    assert untrust_hop.untrust == pytest.approx(0.5 * 0.3 + 0.5 * 0.1, abs=TOL)
    assert untrust_hop.trust == pytest.approx(0.5 * 0.7 + 0.5 * 0.2, abs=TOL)
