"""Deterministic packet-forwarding simulation over a topology."""

from collections import Counter
from typing import NamedTuple

from .core import DEFAULT_CONSTANTS, ModelConstants
from .pathing import Path, most_likely_route
from .topology import Topology


class SimReport(NamedTuple):
    """Delivery statistics for a batch of identically forwarded packets."""

    packets_sent: int
    delivered: int
    dropped: int
    route_usage: dict[Path, int]
    drop_points: dict[str, int]


def simulate(
    topology: Topology, packets: int, constants: ModelConstants = DEFAULT_CONSTANTS
) -> SimReport:
    """Forward packets one at a time along the greedy most-likely route.

    Each packet independently walks the route; forwarding is
    deterministic, so every packet either reaches the destination over
    the same path or drops at the same node. Drops are recorded in the
    report, never raised. All counts are exact integers.
    """
    if packets < 1:
        raise ValueError(f"packets must be >= 1, got {packets!r}")
    outcomes: Counter[tuple[bool, Path | str]] = Counter()
    for _ in range(packets):
        route = most_likely_route(topology, constants)
        outcomes[route.reached, route.path if route.reached else route.stuck_node] += 1
    route_usage = {path: count for (reached, path), count in outcomes.items() if reached}
    drop_points = {node: count for (reached, node), count in outcomes.items() if not reached}
    delivered = sum(route_usage.values())
    return SimReport(packets, delivered, packets - delivered, route_usage, drop_points)
