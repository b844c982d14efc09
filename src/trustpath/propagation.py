"""Per-hop trust and untrust matrix tests, verdicts, and path evaluation."""

import math
from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_CONSTANTS, FULL_TRUST, ModelConstants, TrustPair, TrustValueError
from .topology import Topology

#: The two output components are a tie when they differ by at most this
#: fraction of the larger one, so the verdict does not depend on scale.
VERDICT_TOL = 1e-12

#: The names of the two per-hop tests and of the two arrival rules, each default first.
MODES = ("trust", "untrust")
CHAININGS = ("edge", "output")


class Verdict(Enum):
    """Outcome of comparing a hop's trust component against its untrust component."""

    ACCEPTABLE = "acceptable"
    NOT_ACCEPTABLE = "not_acceptable"
    INDIFFERENT = "indifferent"

    def __str__(self) -> str:
        return self.value


class HopResult(NamedTuple):
    """Output vector of one hop test plus its acceptance verdict.

    The components live in the (trust, untrust) slots regardless of test
    mode; under "output" chaining they may leave [0, 1] after several hops,
    so they are plain floats rather than a TrustPair.
    """

    trust: float
    untrust: float
    verdict: Verdict


class PathEvaluation(NamedTuple):
    """Hop-by-hop evaluation of one path under a single test mode."""

    path: tuple[str, ...]
    hops: tuple[HopResult, ...]
    mode: str

    @property
    def confidential(self) -> bool:
        """True when every hop verdict is ACCEPTABLE."""
        return all(hop.verdict is Verdict.ACCEPTABLE for hop in self.hops)


def _verdict(trust: float, untrust: float) -> Verdict:
    # Hop outputs are never negative, so the larger component is the larger
    # magnitude; comparing without abs() and max() keeps the hot path cheap.
    if trust > untrust:
        return Verdict.ACCEPTABLE if trust - untrust > VERDICT_TOL * trust else Verdict.INDIFFERENT
    return (
        Verdict.NOT_ACCEPTABLE if untrust - trust > VERDICT_TOL * untrust else Verdict.INDIFFERENT
    )


def propagate_trust_hop(
    arrival: TrustPair | HopResult,
    next_edge: TrustPair,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> HopResult:
    """Run the trust test for one hop.

    arrival is the state at the current node and next_edge the pair on
    the edge to the candidate next node. The output is the [trust
    untrust] row vector of arrival times the trust-test matrix
        [ theta_min   next_edge.untrust ]
        [ theta_max   theta_ind         ]
    and the verdict compares its two components.
    """
    trust = arrival.trust * constants.theta_min + arrival.untrust * constants.theta_max
    untrust = arrival.trust * next_edge.untrust + arrival.untrust * constants.theta_ind
    return HopResult(trust, untrust, _verdict(trust, untrust))


def propagate_untrust_hop(
    arrival: TrustPair | HopResult,
    next_edge: TrustPair,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> HopResult:
    """Run the untrust test for one hop.

    The trust test applied to the swapped state: the [untrust trust] row
    vector of arrival times the untrust-test matrix
        [ upsilon_min   next_edge.trust ]
        [ upsilon_max   upsilon_ind     ]
    gives the output (untrust, trust). The result keeps (trust, untrust)
    slot order like the trust test.
    """
    untrust = arrival.untrust * constants.upsilon_min + arrival.trust * constants.upsilon_max
    trust = arrival.untrust * next_edge.trust + arrival.trust * constants.upsilon_ind
    return HopResult(trust, untrust, _verdict(trust, untrust))


def evaluate_path(
    topology: Topology,
    path: tuple[str, ...] | list[str],
    constants: ModelConstants = DEFAULT_CONSTANTS,
    mode: str = "trust",
    chaining: str = "edge",
) -> PathEvaluation:
    """Chain the "trust" or "untrust" hop test along a source-to-destination path.

    Hop 1 always starts from full trust (1, 0). Under "edge" chaining hop
    k > 1 arrives with the pair of edge k - 1; under "output" chaining it
    arrives with hop k - 1's output vector, which may drift outside
    [0, 1]; should it pass the largest float, TrustValueError names the
    hop. The path must be a valid simple path of the topology. Any other
    mode or chaining name raises ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(MODES)}, not {mode!r}")
    if chaining not in CHAININGS:
        raise ValueError(f"chaining must be {' or '.join(CHAININGS)}, not {chaining!r}")
    nodes = tuple(path)
    pairs = topology.path_pairs(nodes)
    hop_test = propagate_trust_hop if mode == "trust" else propagate_untrust_hop
    edge_arrives = chaining == "edge"
    hops: list[HopResult] = []
    arrival: TrustPair | HopResult = FULL_TRUST
    for number, (src, dst, edge) in enumerate(zip(nodes, nodes[1:], pairs), start=1):
        hop = hop_test(arrival, edge, constants)
        if not (math.isfinite(hop.trust) and math.isfinite(hop.untrust)):
            raise TrustValueError(f"hop {number} {src} -> {dst}: output overflows the float range")
        hops.append(hop)
        arrival = edge if edge_arrives else hop
    return PathEvaluation(nodes, tuple(hops), mode)
