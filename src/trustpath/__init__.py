"""Trust-weighted path evaluation, ranking, routing and simulation for overlay networks.

The package models per-edge trust as (trust, untrust) pairs, tests every
hop of a path with a 2x2 matrix product and an acceptance verdict, ranks
all simple source-to-destination paths by mean edge trust, selects a
greedy most-likely route, and forwards simulated packets along it. A
line-oriented topology file format (canonical extension ``.trust``) and
the ``trustpath`` command expose the same operations from the shell.
"""

from .core import (
    COMPLEMENT_TOL,
    DEFAULT_CONSTANTS,
    FULL_TRUST,
    TRUST_CLASSES,
    ModelConstants,
    TrustPair,
    TrustValueError,
    classify,
    display_round,
    make_pair,
)
from .pathing import (
    DEFAULT_PATH_CAP,
    Path,
    PathCapExceeded,
    RankedPath,
    RouteResult,
    RouteStep,
    enumerate_paths,
    most_likely_route,
    path_mean_trust,
    path_mean_untrust,
    rank_paths,
)
from .propagation import (
    VERDICT_TOL,
    HopResult,
    PathEvaluation,
    Verdict,
    evaluate_path,
    propagate_trust_hop,
    propagate_untrust_hop,
)
from .sim import SimReport, simulate
from .topology import (
    PathError,
    REFERENCE_EDGES,
    Topology,
    TopologyError,
    TopologyParseError,
    fixture_topology,
    generate_mesh,
    parse_topology,
    serialize_topology,
)

__version__ = "0.1.0"
