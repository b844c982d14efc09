"""Command-line interface: check, rank, route, enumerate, fixture, simulate."""

import argparse
import contextlib
import gc
import io
import math
import sys

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

# The columns of a check hop and of a route step, in CSV, JSON and text order.
_HOP_HEADER = ("hop", "from", "to", "trust", "untrust", "verdict")
_STEP_HEADER = ("step", "from", "to", "edge_trust", "trust", "untrust", "verdict")

_CONSTANT_FLAGS = (
    ("theta-min", "trust-test matrix entry paired with the arrival trust"),
    ("theta-max", "trust-test matrix entry paired with the arrival untrust"),
    ("theta-ind", "trust-test indifference entry"),
    ("upsilon-min", "untrust-test matrix entry paired with the arrival untrust"),
    ("upsilon-max", "untrust-test matrix entry paired with the arrival trust"),
    ("upsilon-ind", "untrust-test indifference entry"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    if args.topology != "-":
        with open(args.topology, "rb", buffering=0) as raw:
            text = _read(raw)
    elif sys.stdin is None:  # started with stdin closed
        raise TopologyError("no standard input to read")
    elif hasattr(sys.stdin, "buffer"):  # read below Python's buffer, as _write writes
        text = _read(getattr(sys.stdin.buffer, "raw", sys.stdin.buffer))
    else:  # a text-only stream, as a caller's io.StringIO
        text = sys.stdin.read()
    return parse_topology(text, strict=args.strict)


def _read(raw) -> str:
    """raw's bytes, one system call per read, as strict UTF-8 whatever the locale says."""
    chunks = []  # freed when this returns, before the parse
    while (chunk := raw.read(1 << 20)) != b"":  # b"" only at end of file or an end-of-file key
        if chunk is None:  # a non-blocking stream with nothing yet: wait; O_NONBLOCK stays
            import select  # here, not at start-up: only a non-blocking stream needs it
            select.select([raw], [], [])
        else:
            chunks.append(chunk)
    return str(b"".join(chunks), "utf-8")  # one chunk is joined without a copy


def _step_lines(header, rows, decimals: int):
    """Check hops or route steps as '<kind> <n> <from>→<to> <name>=<score>... <verdict>'."""
    kind, _, _, *names, _ = header
    for number, src, dst, *scores, verdict in rows:
        shown = " ".join(f"{n}={display_round(v, decimals)}" for n, v in zip(names, scores))
        yield f"{kind} {number} {src}{ARROW}{dst} {shown} {verdict}"


def _csv_document(header, rows) -> str:
    """Rows as one CSV document; None is an empty cell."""
    import csv  # here, not at start-up: only CSV output needs it

    document = io.StringIO()
    writer = csv.writer(document, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return document.getvalue()


def _json_document(args: argparse.Namespace, results: dict, **inputs) -> str:
    """A command's JSON document; inputs are its own inputs, after the global ones."""
    base = {name: getattr(args, name) for name in ("topology", "strict", "chaining", "cap")}
    inputs = {**base, "constants": args.constants._asdict(), **inputs}
    return _json({"command": args.command, "inputs": inputs, "results": results}) + "\n"


def _json(value, indent: str = "", quote=None) -> str:
    """value as json.dumps(value, indent=2, allow_nan=False) writes it, byte for byte.

    indent is the indentation of the line value starts on. Keys must be
    str. A non-finite float raises ValueError; a type other than dict,
    list, tuple, str, int, float, bool and None raises TypeError, and so
    does a subclass of int, float, dict, list or tuple (json.dumps would
    write an IntEnum member as its number).
    """
    if quote is None:  # the outermost call: imported here, as only JSON output needs it
        from json.encoder import encode_basestring_ascii as quote  # the C encoder's quoting
    if isinstance(value, str):
        return quote(value)
    if value is None:
        return "null"
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if kind is dict:
        items = [f"{quote(key)}: {_json(item, inner, quote)}" for key, item in value.items()]
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        try:  # a node sequence: all its items quoted in one C-level pass
            items = list(map(quote, value))
        except TypeError:  # an item that is not a str
            items = [_json(item, inner, quote) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return opening + closing
    separator = ",\n" + inner
    return f"{opening}\n{inner}{separator.join(items)}\n{indent}{closing}"


def _write(text: str, out) -> None:
    """Write text to out whole, as bytes to its raw layer: no byte waits in a Python buffer."""
    if out is None:  # started with this stream closed
        return
    if not hasattr(out, "buffer"):  # a text-only stream, as under redirect_stdout(StringIO())
        out.write(text)
        return
    out.flush()
    raw = getattr(out.buffer, "raw", out.buffer)  # leaves the exit-time flush no byte to fail on
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        if (taken := raw.write(data)) is None:  # a non-blocking stream that would block
            import select  # here, not at start-up: only a non-blocking stream needs it
            select.select([], [raw], [])  # wait until it takes more; a device with no fd raises
        else:
            data = data[taken:]


def _cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    topology = _load_topology(args)
    nodes = tuple(token.strip() for token in args.path_spec.split(","))
    if any(not node for node in nodes):
        raise PathError(f"empty node id in path spec {args.path_spec!r}")
    modes = ("trust", "untrust") if args.mode == "both" else (args.mode,)
    tables = []  # one (mode, confidential, rows) table per mode
    for mode in modes:
        evaluation = evaluate_path(topology, nodes, args.constants, mode, args.chaining)
        rows = [
            (number, *nodes[number - 1 : number + 1], trust, untrust, str(verdict))
            for number, (trust, untrust, verdict) in enumerate(evaluation.hops, start=1)
        ]
        tables.append((mode, evaluation.confidential, rows))
    confidential = all(passed for _, passed, _ in tables)

    if args.format == "text":
        lines = []
        for mode, passed, rows in tables:
            lines += [f"path {ARROW.join(nodes)}", f"mode {mode}"]
            lines.extend(_step_lines(_HOP_HEADER, rows, args.decimals))
            lines.append(f"confidential {'yes' if passed else 'no'}")
        document = "\n".join(lines) + "\n"
    elif args.format == "csv":
        cells = ((mode, *row) for mode, _, rows in tables for row in rows)
        document = _csv_document(("mode", *_HOP_HEADER), cells)
    else:
        records = [
            {
                "mode": mode,
                "path": nodes,
                "confidential": passed,
                "hops": [dict(zip(_HOP_HEADER, row)) for row in rows],
            }
            for mode, passed, rows in tables
        ]
        results = {"confidential": confidential, "evaluations": records}
        document = _json_document(args, results, path=nodes, mode=args.mode)
    return (EXIT_OK if confidential else EXIT_NEGATIVE), document


def _cmd_rank(args: argparse.Namespace) -> tuple[int, str]:
    if args.top is not None and args.top < 1:
        raise TrustValueError(f"--top must be >= 1, got {args.top}")
    topology = _load_topology(args)
    count, ranked = rank_paths(topology, args.cap, args.top)
    header = ("rank", "path", "mean_trust", "mean_untrust", "class")
    join = args.format != "json"  # text and CSV write a path as one arrow-joined cell
    rows = [
        (rank, ARROW.join(path) if join else path, trust, untrust, label.code)
        for path, trust, untrust, label, rank in ranked
    ]

    if args.format == "text":
        cells = [
            (
                str(rank),
                path,
                display_round(trust, args.decimals),
                display_round(untrust, args.decimals),
                code,
            )
            for rank, path, trust, untrust, code in rows
        ]
        widths = [max(map(len, column)) for column in zip(header, *cells)]
        lines = ("  ".join(map(str.ljust, row, widths)).rstrip() for row in (header, *cells))
        document = "\n".join(lines) + "\n"
    elif args.format == "csv":
        document = _csv_document(header, rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        document = _json_document(args, {"count": count, "paths": records}, top=args.top)
    return EXIT_OK, document


def _cmd_route(args: argparse.Namespace) -> tuple[int, str]:
    topology = _load_topology(args)
    route = most_likely_route(topology, args.constants)
    mean_trust = path_mean_trust(topology, route.path) if route.reached else None
    rows = [
        (number, src, dst, edge.trust, trust, untrust, str(verdict))
        for number, (src, dst, edge, (trust, untrust, verdict)) in enumerate(route.steps, start=1)
    ]

    if args.format == "text":
        lines = [f"route {ARROW.join(route.path)}"]
        lines.extend(_step_lines(_STEP_HEADER, rows, args.decimals))
        lines.append(f"reached {'yes' if route.reached else 'no'}")
        if route.reached:
            lines.append(f"mean_trust {display_round(mean_trust, args.decimals)}")
        else:
            lines.append(f"stuck {route.stuck_node}")
        document = "\n".join(lines) + "\n"
    elif args.format == "csv":
        document = _csv_document((*_STEP_HEADER, "mean_trust"), ((*r, mean_trust) for r in rows))
    else:
        results = {
            "reached": route.reached,
            "path": route.path,
            "stuck": route.stuck_node,
            "mean_trust": mean_trust,
            "steps": [dict(zip(_STEP_HEADER, row)) for row in rows],
        }
        document = _json_document(args, results)
    return (EXIT_OK if route.reached else EXIT_NEGATIVE), document


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    topology = _load_topology(args)
    paths = enumerate_paths(topology, args.cap)
    if args.format == "text":
        numbered = enumerate(paths, start=1)
        document = "".join(f"{index} {ARROW.join(path)}\n" for index, path in numbered)
    elif args.format == "csv":
        document = _csv_document(("index", "path"), enumerate(map(ARROW.join, paths), start=1))
    else:
        records = [{"index": index, "path": path} for index, path in enumerate(paths, start=1)]
        document = _json_document(args, {"count": len(paths), "paths": records})
    return EXIT_OK, document


_FIXTURE_HEADER = (
    "# Built-in demo topology: a 4-3-4 layered mesh from source S to destination D.\n"
    "# Six edges carry the reference trust values; every other edge holds the\n"
    "# indifferent pair 0.5 0.5.\n"
)


def _cmd_fixture(args: argparse.Namespace) -> tuple[int, str]:
    # Always emits the topology document itself, whatever --format says.
    return EXIT_OK, _FIXTURE_HEADER + serialize_topology(fixture_topology())


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    topology = _load_topology(args)
    report = simulate(topology, args.packets, args.constants)
    rows = [(name, "", getattr(report, name)) for name in ("packets_sent", "delivered", "dropped")]
    rows += [("route", ARROW.join(path), count) for path, count in report.route_usage.items()]
    rows += [("drop", node, count) for node, count in report.drop_points.items()]

    if args.format == "text":
        lines = [
            f"{metric} {value}" if key == "" else f"{metric} {key} packets={value}"
            for metric, key, value in rows
        ]
        document = "\n".join(lines) + "\n"
    elif args.format == "csv":
        document = _csv_document(("metric", "key", "value"), rows)
    else:
        results = report._replace(  # its two dicts as lists of records
            route_usage=[{"path": p, "packets": n} for p, n in report.route_usage.items()],
            drop_points=[{"node": d, "packets": n} for d, n in report.drop_points.items()],
        )._asdict()
        document = _json_document(args, results, packets=args.packets)
    return EXIT_OK, document


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
    gc_enabled = gc.isenabled()
    try:
        usage = io.StringIO()  # argparse's help (stdout) or usage error (stderr): never both
        try:
            with contextlib.redirect_stdout(usage), contextlib.redirect_stderr(usage):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help (0) or a usage error (2, kept for domain results)
            _write(usage.getvalue(), sys.stderr if exc.code else sys.stdout)
            return EXIT_INPUT_ERROR if exc.code else EXIT_OK
        args.constants = ModelConstants._make(getattr(args, n) for n in ModelConstants._fields)
        if args.cap < 1:
            raise TrustValueError(f"cap must be >= 1, got {args.cap}")
        if not 0 <= args.decimals <= MAX_DECIMALS:
            raise TrustValueError(f"decimals must be in [0, {MAX_DECIMALS}], got {args.decimals}")
        # Paused: the commands' data holds no reference cycles, so refcounting frees
        # it, and each collector pass would only rescan the live topology.
        gc.disable()
        handler, _, _ = _COMMANDS[args.command]
        code, document = handler(args)
        _write(document, sys.stdout)
        return code
    except (PathCapExceeded, OSError, ValueError) as err:
        with contextlib.suppress(OSError):  # a stderr that fails: the exit code still tells
            _write(f"error: {err}\n", sys.stderr)
        return EXIT_CAP_EXCEEDED if isinstance(err, PathCapExceeded) else EXIT_INPUT_ERROR
    finally:
        if gc_enabled:
            gc.enable()
