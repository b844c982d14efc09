"""Command-line interface: check, rank, route, enumerate, fixture, simulate."""

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass

from .core import DEFAULT_CONSTANTS, ModelConstants, TrustValueError, display_round
from .pathing import (
    DEFAULT_PATH_CAP,
    PathCapExceeded,
    enumerate_paths,
    most_likely_route,
    path_mean_trust,
    rank_paths,
)
from .propagation import Chaining, TestMode, evaluate_path
from .sim import simulate
from .topology import PathError, TopologyError, fixture_topology, parse_topology, serialize_topology

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_CAP_EXCEEDED = 3

ARROW = "→"

_CONSTANT_FLAGS = (
    ("theta-min", "trust-test matrix entry paired with the arrival trust"),
    ("theta-max", "trust-test matrix entry paired with the arrival untrust"),
    ("theta-ind", "trust-test indifference entry"),
    ("upsilon-min", "untrust-test matrix entry paired with the arrival untrust"),
    ("upsilon-max", "untrust-test matrix entry paired with the arrival trust"),
    ("upsilon-ind", "untrust-test indifference entry"),
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved global options for one command invocation."""

    topology: str | None = None
    format: str = "text"
    decimals: int = 2
    strict: bool = True
    chaining: Chaining = Chaining.EDGE
    cap: int = DEFAULT_PATH_CAP
    constants: ModelConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if not 0 <= self.decimals <= 12:
            raise TrustValueError(f"decimals must be in [0, 12], got {self.decimals}")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1, keeping 2 for domain results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--topology",
        "-t",
        metavar="FILE",
        help="topology file to load; '-' reads standard input",
    )
    common.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--decimals",
        type=int,
        default=2,
        metavar="N",
        help="decimal places for text output, 0-12 (default: 2)",
    )
    common.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="require edge trust and untrust to sum to 1 (default: on)",
    )
    common.add_argument(
        "--chaining",
        choices=[c.value for c in Chaining],
        default=Chaining.EDGE.value,
        help="arrival state for hops after the first: the previous edge's pair "
        "or the previous hop's output (default: edge)",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_PATH_CAP,
        metavar="N",
        help="abort if a topology has more than N simple paths (default: %(default)s)",
    )
    for flag, description in _CONSTANT_FLAGS:
        attribute = flag.replace("-", "_")
        common.add_argument(
            f"--{flag}",
            type=float,
            default=getattr(DEFAULT_CONSTANTS, attribute),
            metavar="X",
            help=f"{description} (default: %(default)s)",
        )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trustpath",
        description="Evaluate, rank, route and simulate over trust-weighted topologies.",
    )
    common = [_common_options()]
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    check = commands.add_parser(
        "check",
        parents=common,
        help="evaluate one path hop by hop",
        description="Run the per-hop matrix test along a given path and report "
        "each hop's output components and verdict.",
    )
    check.add_argument(
        "path_spec", metavar="PATH", help="comma-separated node ids, e.g. S,3,7,11,D"
    )
    check.add_argument(
        "--mode",
        choices=("trust", "untrust", "both"),
        default="trust",
        help="which per-hop test to run (default: trust)",
    )

    rank = commands.add_parser(
        "rank",
        parents=common,
        help="rank all simple paths by mean trust",
        description="Enumerate every simple source-to-destination path and rank "
        "them by mean edge trust, best first.",
    )
    rank.add_argument("--top", type=int, metavar="N", help="show only the N best paths")

    commands.add_parser(
        "route",
        parents=common,
        help="select the greedy most-likely route",
        description="Walk greedily from source to destination, taking the most "
        "trusted acceptable edge at each node.",
    )

    commands.add_parser(
        "enumerate",
        parents=common,
        help="list all simple paths",
        description="List every simple source-to-destination path in "
        "deterministic depth-first order.",
    )

    commands.add_parser(
        "fixture",
        parents=common,
        help="emit the built-in demo topology",
        description="Write the built-in 4-3-4 demo mesh as a topology document, "
        "suitable for piping into the other commands.",
    )

    sim = commands.add_parser(
        "simulate",
        parents=common,
        help="forward packets along the greedy route",
        description="Send a batch of packets along the greedy most-likely route "
        "and report exact delivery and drop counts.",
    )
    sim.add_argument(
        "--packets", type=int, default=100, metavar="N", help="packets to send (default: 100)"
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    constants = ModelConstants(
        theta_min=args.theta_min,
        theta_max=args.theta_max,
        theta_ind=args.theta_ind,
        upsilon_min=args.upsilon_min,
        upsilon_max=args.upsilon_max,
        upsilon_ind=args.upsilon_ind,
    )
    if args.cap < 1:
        raise TrustValueError(f"cap must be >= 1, got {args.cap}")
    return RunConfig(
        topology=args.topology,
        format=args.format,
        decimals=args.decimals,
        strict=args.strict,
        chaining=Chaining(args.chaining),
        cap=args.cap,
        constants=constants,
    )


def _load_topology(config: RunConfig):
    if not config.topology:
        raise TopologyError("no topology given; pass --topology FILE, or '-' for stdin")
    if config.topology == "-":
        text = sys.stdin.read()
    else:
        with open(config.topology, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_topology(text, strict=config.strict)


def _fmt(config: RunConfig, value: float) -> str:
    return display_round(value, config.decimals)


def _join(path) -> str:
    return ARROW.join(path)


def _print_table(header, rows) -> None:
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _base_inputs(config: RunConfig) -> dict:
    return {
        "topology": config.topology,
        "strict": config.strict,
        "chaining": config.chaining.value,
        "cap": config.cap,
        "constants": asdict(config.constants),
    }


def _emit(config: RunConfig, command: str, results: dict, header, rows, **inputs) -> None:
    """Write a command's records as CSV rows or as its JSON document.

    results is the JSON payload and rows the same records as CSV cells in
    header order; a node sequence becomes one arrow-joined cell, None an
    empty cell. inputs are the command's own JSON inputs, after the
    global ones.
    """
    if config.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [_join(cell) if isinstance(cell, tuple) else cell for cell in row] for row in rows
        )
    else:
        inputs = {**_base_inputs(config), **inputs}
        document = {"command": command, "inputs": inputs, "results": results}
        print(json.dumps(document, indent=2, allow_nan=False))


def _cmd_check(args: argparse.Namespace, config: RunConfig) -> int:
    topology = _load_topology(config)
    nodes = tuple(token.strip() for token in args.path_spec.split(","))
    if any(not node for node in nodes):
        raise PathError(f"empty node id in path spec {args.path_spec!r}")
    modes = [TestMode.TRUST, TestMode.UNTRUST] if args.mode == "both" else [TestMode(args.mode)]
    evaluations = [
        evaluate_path(topology, nodes, config.constants, mode, config.chaining)
        for mode in modes
    ]
    confidential = all(evaluation.confidential for evaluation in evaluations)
    records = [
        {
            "mode": evaluation.mode.value,
            "path": evaluation.path,
            "confidential": evaluation.confidential,
            "hops": [
                {
                    "hop": number,
                    "from": evaluation.path[number - 1],
                    "to": evaluation.path[number],
                    "trust": hop.trust,
                    "untrust": hop.untrust,
                    "verdict": str(hop.verdict),
                }
                for number, hop in enumerate(evaluation.hops, start=1)
            ],
        }
        for evaluation in evaluations
    ]

    if config.format == "text":
        lines = []
        for record in records:
            lines.append(f"path {_join(record['path'])}")
            lines.append(f"mode {record['mode']}")
            for hop in record["hops"]:
                lines.append(
                    f"hop {hop['hop']} {hop['from']}{ARROW}{hop['to']} "
                    f"trust={_fmt(config, hop['trust'])} "
                    f"untrust={_fmt(config, hop['untrust'])} {hop['verdict']}"
                )
            lines.append(f"confidential {'yes' if record['confidential'] else 'no'}")
        print("\n".join(lines))
    else:
        _emit(
            config,
            "check",
            {"confidential": confidential, "evaluations": records},
            ("mode", "hop", "from", "to", "trust", "untrust", "verdict"),
            ((record["mode"], *hop.values()) for record in records for hop in record["hops"]),
            path=nodes,
            mode=args.mode,
        )
    return EXIT_OK if confidential else EXIT_NEGATIVE


def _cmd_rank(args: argparse.Namespace, config: RunConfig) -> int:
    if args.top is not None and args.top < 1:
        raise TrustValueError(f"--top must be >= 1, got {args.top}")
    topology = _load_topology(config)
    ranked = rank_paths(topology, config.cap)
    shown = ranked if args.top is None else ranked[: args.top]
    records = [
        {
            "rank": entry.rank,
            "path": entry.path,
            "mean_trust": entry.mean_trust,
            "mean_untrust": entry.mean_untrust,
            "class": entry.trust_class.code,
        }
        for entry in shown
    ]
    header = ("rank", "path", "mean_trust", "mean_untrust", "class")

    if config.format == "text":
        rows = [
            (
                str(record["rank"]),
                _join(record["path"]),
                _fmt(config, record["mean_trust"]),
                _fmt(config, record["mean_untrust"]),
                record["class"],
            )
            for record in records
        ]
        _print_table(header, rows)
    else:
        results = {"count": len(ranked), "paths": records}
        _emit(config, "rank", results, header, map(dict.values, records), top=args.top)
    return EXIT_OK


def _cmd_route(args: argparse.Namespace, config: RunConfig) -> int:
    topology = _load_topology(config)
    route = most_likely_route(topology, config.constants)
    mean_trust = path_mean_trust(topology, route.path) if route.reached else None
    steps = [
        {
            "step": number,
            "from": step.src,
            "to": step.dst,
            "edge_trust": step.edge.trust,
            "trust": step.hop.trust,
            "untrust": step.hop.untrust,
            "verdict": str(step.hop.verdict),
        }
        for number, step in enumerate(route.steps, start=1)
    ]

    if config.format == "text":
        lines = [f"route {_join(route.path)}"]
        for step in steps:
            lines.append(
                f"step {step['step']} {step['from']}{ARROW}{step['to']} "
                f"edge_trust={_fmt(config, step['edge_trust'])} "
                f"trust={_fmt(config, step['trust'])} "
                f"untrust={_fmt(config, step['untrust'])} {step['verdict']}"
            )
        lines.append(f"reached {'yes' if route.reached else 'no'}")
        if route.reached:
            lines.append(f"mean_trust {_fmt(config, mean_trust)}")
        else:
            lines.append(f"stuck {route.stuck_node}")
        print("\n".join(lines))
    else:
        results = {
            "reached": route.reached,
            "path": route.path,
            "stuck": route.stuck_node,
            "mean_trust": mean_trust,
            "steps": steps,
        }
        _emit(
            config,
            "route",
            results,
            ("step", "from", "to", "edge_trust", "trust", "untrust", "verdict", "mean_trust"),
            ((*step.values(), mean_trust) for step in steps),
        )
    return EXIT_OK if route.reached else EXIT_NEGATIVE


def _cmd_enumerate(args: argparse.Namespace, config: RunConfig) -> int:
    topology = _load_topology(config)
    paths = enumerate_paths(topology, config.cap)
    records = [{"index": index, "path": path} for index, path in enumerate(paths, start=1)]
    if config.format == "text":
        for record in records:
            print(f"{record['index']} {_join(record['path'])}")
    else:
        results = {"count": len(paths), "paths": records}
        _emit(config, "enumerate", results, ("index", "path"), map(dict.values, records))
    return EXIT_OK


_FIXTURE_HEADER = (
    "# Built-in demo topology: a 4-3-4 layered mesh from source S to destination D.\n"
    "# Six edges carry the reference trust values; every other edge holds the\n"
    "# indifferent pair 0.5 0.5.\n"
)


def _cmd_fixture(args: argparse.Namespace, config: RunConfig) -> int:
    # Always emits the topology document itself, whatever --format says.
    sys.stdout.write(_FIXTURE_HEADER)
    sys.stdout.write(serialize_topology(fixture_topology()))
    return EXIT_OK


_TOTALS = ("packets_sent", "delivered", "dropped")


def _cmd_simulate(args: argparse.Namespace, config: RunConfig) -> int:
    topology = _load_topology(config)
    report = simulate(topology, args.packets, config.constants)
    results = {name: getattr(report, name) for name in _TOTALS}
    results["route_usage"] = [
        {"path": path, "packets": count} for path, count in report.route_usage.items()
    ]
    results["drop_points"] = [
        {"node": node, "packets": count} for node, count in report.drop_points.items()
    ]

    if config.format == "text":
        lines = [f"{name} {results[name]}" for name in _TOTALS]
        for use in results["route_usage"]:
            lines.append(f"route {_join(use['path'])} packets={use['packets']}")
        for drop in results["drop_points"]:
            lines.append(f"drop {drop['node']} packets={drop['packets']}")
        print("\n".join(lines))
    else:
        rows = [(name, "", results[name]) for name in _TOTALS]
        rows += [("route", use["path"], use["packets"]) for use in results["route_usage"]]
        rows += [("drop", drop["node"], drop["packets"]) for drop in results["drop_points"]]
        _emit(config, "simulate", results, ("metric", "key", "value"), rows, packets=args.packets)
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "rank": _cmd_rank,
    "route": _cmd_route,
    "enumerate": _cmd_enumerate,
    "fixture": _cmd_fixture,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help or a usage error
        code = exc.code
        if isinstance(code, int):
            return code
        return EXIT_INPUT_ERROR if code else EXIT_OK
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](args, config)
    except PathCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
