"""Command-line interface: check, rank, route, enumerate, fixture, simulate."""

import argparse
import csv
import gc
import json
import sys
from dataclasses import asdict, fields

from .core import DEFAULT_CONSTANTS, MAX_DECIMALS, ModelConstants, TrustValueError, display_round
from .pathing import (
    DEFAULT_PATH_CAP,
    PathCapExceeded,
    enumerate_paths,
    most_likely_route,
    path_mean_trust,
    rank_paths,
)
from .propagation import Chaining, evaluate_path
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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1, keeping 2 for domain results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trustpath",
        description="Evaluate, rank, route and simulate over trust-weighted topologies.",
        allow_abbrev=False,
    )
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
        help=f"decimal places for text output, 0-{MAX_DECIMALS} (default: 2)",
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
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parsers = {
        name: commands.add_parser(
            name, parents=[common], help=summary, description=description, allow_abbrev=False
        )
        for name, (_, summary, description) in _COMMANDS.items()
    }

    parsers["check"].add_argument(
        "path_spec", metavar="PATH", help="comma-separated node ids, e.g. S,3,7,11,D"
    )
    parsers["check"].add_argument(
        "--mode",
        choices=("trust", "untrust", "both"),
        default="trust",
        help="which per-hop test to run (default: trust)",
    )
    parsers["rank"].add_argument("--top", type=int, metavar="N", help="show only the N best paths")
    parsers["simulate"].add_argument(
        "--packets", type=int, default=100, metavar="N", help="packets to send (default: 100)"
    )
    return parser


def _load_topology(args: argparse.Namespace):
    if not args.topology:
        raise TopologyError("no topology given; pass --topology FILE, or '-' for stdin")
    if args.topology == "-":
        if sys.stdin is None:  # started with stdin closed
            raise TopologyError("no standard input to read")
        text = sys.stdin.read()
    else:
        with open(args.topology, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_topology(text, strict=args.strict)


def _text(value, decimals: int) -> str:
    """A record value as text: nodes as an arrow path, yes/no, a float truncated at decimals."""
    if isinstance(value, tuple):
        return ARROW.join(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return display_round(value, decimals)
    return str(value)


def _hop_record(kind: str, number: int, src: str, dst: str, hop, **values) -> dict:
    """A check hop or route step, keyed in the order _step_line and the CSV headers read."""
    return {
        kind: number,
        "from": src,
        "to": dst,
        **values,
        "trust": hop.trust,
        "untrust": hop.untrust,
        "verdict": str(hop.verdict),
    }


def _step_line(step: dict, decimals: int) -> str:
    """A check hop or route step as '<kind> <n> <from>→<to> <name>=<value>... <verdict>'."""
    (kind, number), (_, src), (_, dst), *values, (_, verdict) = step.items()
    scores = " ".join(f"{name}={_text(value, decimals)}" for name, value in values)
    return f"{kind} {number} {src}{ARROW}{dst} {scores} {verdict}"


def _print_table(header, rows) -> None:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _emit(args: argparse.Namespace, results: dict, header, rows, **inputs) -> None:
    """Write a command's records as CSV rows or as its JSON document.

    results is the JSON payload and rows the same records as CSV cells in
    header order; a node sequence becomes one arrow-joined cell, None an
    empty cell. inputs are the command's own JSON inputs, after the
    global ones.
    """
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [ARROW.join(cell) if isinstance(cell, tuple) else cell for cell in row] for row in rows
        )
    else:
        base = {name: getattr(args, name) for name in ("topology", "strict", "chaining", "cap")}
        inputs = {**base, "constants": asdict(args.constants), **inputs}
        document = {"command": args.command, "inputs": inputs, "results": results}
        print(json.dumps(document, indent=2, allow_nan=False))


def _cmd_check(args: argparse.Namespace) -> int:
    topology = _load_topology(args)
    nodes = tuple(token.strip() for token in args.path_spec.split(","))
    if any(not node for node in nodes):
        raise PathError(f"empty node id in path spec {args.path_spec!r}")
    modes = ("trust", "untrust") if args.mode == "both" else (args.mode,)
    evaluations = [
        evaluate_path(topology, nodes, args.constants, mode, args.chaining) for mode in modes
    ]
    confidential = all(evaluation.confidential for evaluation in evaluations)
    records = [
        {
            "mode": evaluation.mode.value,
            "path": evaluation.path,
            "confidential": evaluation.confidential,
            "hops": [
                _hop_record("hop", number, *evaluation.path[number - 1 : number + 1], hop)
                for number, hop in enumerate(evaluation.hops, start=1)
            ],
        }
        for evaluation in evaluations
    ]

    if args.format == "text":
        lines = []
        for record in records:
            lines += [f"path {_text(record['path'], args.decimals)}", f"mode {record['mode']}"]
            lines.extend(_step_line(hop, args.decimals) for hop in record["hops"])
            lines.append(f"confidential {_text(record['confidential'], args.decimals)}")
        print("\n".join(lines))
    else:
        _emit(
            args,
            {"confidential": confidential, "evaluations": records},
            ("mode", "hop", "from", "to", "trust", "untrust", "verdict"),
            ((record["mode"], *hop.values()) for record in records for hop in record["hops"]),
            path=nodes,
            mode=args.mode,
        )
    return EXIT_OK if confidential else EXIT_NEGATIVE


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 1:
        raise TrustValueError(f"--top must be >= 1, got {args.top}")
    topology = _load_topology(args)
    count, ranked = rank_paths(topology, args.cap, args.top)
    records = [
        {
            "rank": entry.rank,
            "path": entry.path,
            "mean_trust": entry.mean_trust,
            "mean_untrust": entry.mean_untrust,
            "class": entry.trust_class.code,
        }
        for entry in ranked
    ]
    header = ("rank", "path", "mean_trust", "mean_untrust", "class")

    if args.format == "text":
        # Formatted column by column: these rows are most of a full listing's cost.
        decimals = args.decimals
        rows = [
            (
                str(rank),
                ARROW.join(path),
                display_round(trust, decimals),
                display_round(untrust, decimals),
                code,
            )
            for rank, path, trust, untrust, code in map(dict.values, records)
        ]
        _print_table(header, rows)
    else:
        results = {"count": count, "paths": records}
        _emit(args, results, header, map(dict.values, records), top=args.top)
    return EXIT_OK


def _cmd_route(args: argparse.Namespace) -> int:
    topology = _load_topology(args)
    route = most_likely_route(topology, args.constants)
    mean_trust = path_mean_trust(topology, route.path) if route.reached else None
    steps = [
        _hop_record("step", number, step.src, step.dst, step.hop, edge_trust=step.edge.trust)
        for number, step in enumerate(route.steps, start=1)
    ]

    if args.format == "text":
        decimals = args.decimals
        lines = [f"route {_text(route.path, decimals)}"]
        lines.extend(_step_line(step, decimals) for step in steps)
        lines.append(f"reached {_text(route.reached, decimals)}")
        if route.reached:
            lines.append(f"mean_trust {_text(mean_trust, decimals)}")
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
            args,
            results,
            ("step", "from", "to", "edge_trust", "trust", "untrust", "verdict", "mean_trust"),
            ((*step.values(), mean_trust) for step in steps),
        )
    return EXIT_OK if route.reached else EXIT_NEGATIVE


def _cmd_enumerate(args: argparse.Namespace) -> int:
    topology = _load_topology(args)
    paths = enumerate_paths(topology, args.cap)
    records = [{"index": index, "path": path} for index, path in enumerate(paths, start=1)]
    if args.format == "text":
        for record in records:
            print(f"{record['index']} {ARROW.join(record['path'])}")
    else:
        results = {"count": len(paths), "paths": records}
        _emit(args, results, ("index", "path"), map(dict.values, records))
    return EXIT_OK


_FIXTURE_HEADER = (
    "# Built-in demo topology: a 4-3-4 layered mesh from source S to destination D.\n"
    "# Six edges carry the reference trust values; every other edge holds the\n"
    "# indifferent pair 0.5 0.5.\n"
)


def _cmd_fixture(args: argparse.Namespace) -> int:
    # Always emits the topology document itself, whatever --format says.
    sys.stdout.write(_FIXTURE_HEADER)
    sys.stdout.write(serialize_topology(fixture_topology()))
    return EXIT_OK


_TOTALS = ("packets_sent", "delivered", "dropped")


def _cmd_simulate(args: argparse.Namespace) -> int:
    topology = _load_topology(args)
    report = simulate(topology, args.packets, args.constants)
    results = {name: getattr(report, name) for name in _TOTALS}
    results["route_usage"] = [
        {"path": path, "packets": count} for path, count in report.route_usage.items()
    ]
    results["drop_points"] = [
        {"node": node, "packets": count} for node, count in report.drop_points.items()
    ]
    rows = [(name, "", results[name]) for name in _TOTALS]
    rows += [("route", use["path"], use["packets"]) for use in results["route_usage"]]
    rows += [("drop", drop["node"], drop["packets"]) for drop in results["drop_points"]]

    if args.format == "text":
        decimals = args.decimals
        lines = [
            f"{metric} {value}" if key == "" else f"{metric} {_text(key, decimals)} packets={value}"
            for metric, key, value in rows
        ]
        print("\n".join(lines))
    else:
        _emit(args, results, ("metric", "key", "value"), rows, packets=args.packets)
    return EXIT_OK


# Each command's handler, its one-line help and its --help description, in listing order.
_COMMANDS = {
    "check": (
        _cmd_check,
        "evaluate one path hop by hop",
        "Run the per-hop matrix test along a given path and report "
        "each hop's output components and verdict.",
    ),
    "rank": (
        _cmd_rank,
        "rank all simple paths by mean trust",
        "Enumerate every simple source-to-destination path and rank "
        "them by mean edge trust, best first.",
    ),
    "route": (
        _cmd_route,
        "select the greedy most-likely route",
        "Walk greedily from source to destination, taking the most "
        "trusted acceptable edge at each node.",
    ),
    "enumerate": (
        _cmd_enumerate,
        "list all simple paths",
        "List every simple source-to-destination path in "
        "deterministic depth-first order.",
    ),
    "fixture": (
        _cmd_fixture,
        "emit the built-in demo topology",
        "Write the built-in 4-3-4 demo mesh as a topology document, "
        "suitable for piping into the other commands.",
    ),
    "simulate": (
        _cmd_simulate,
        "forward packets along the greedy route",
        "Send a batch of packets along the greedy most-likely route "
        "and report exact delivery and drop counts.",
    ),
}


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help (0) or _Parser.error (EXIT_INPUT_ERROR)
        return exc.code
    gc_enabled = gc.isenabled()
    try:
        args.constants = ModelConstants(
            **{field.name: getattr(args, field.name) for field in fields(ModelConstants)}
        )
        if args.cap < 1:
            raise TrustValueError(f"cap must be >= 1, got {args.cap}")
        if not 0 <= args.decimals <= MAX_DECIMALS:
            raise TrustValueError(f"decimals must be in [0, {MAX_DECIMALS}], got {args.decimals}")
        # Paused: the commands' data holds no reference cycles, so refcounting frees
        # it, and each collector pass would only rescan the live topology.
        gc.disable()
        handler, _, _ = _COMMANDS[args.command]
        return handler(args)
    except PathCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if gc_enabled:
            gc.enable()
