"""Fuzzing the CLI in process: every invocation ends cleanly.

Random topology text on at most six nodes, random path specs and random
argparse-valid flags, whose values may lie outside the model's domain,
must give an exit code in {0, 1, 2, 3}, at most one line on stderr, and
strict JSON under --format json. Most draws are well-formed, so that the
commands run to the end; a few carry one bad line or one bad value.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trustpath.cli import main

INNER = ("a", "b", "c", "d")
TRUST = st.sampled_from(("0", "-0", "0.3", "0.5", "0.51", "0.8", "0.95", "1", "1e-300"))
BAD_LINES = (
    "node a,b",
    "node a→b",
    "node S",
    "source D",
    "edge S x 0.5",
    "edge S S 0.5",
    "edge S D 1.5",
    "edge S D nan",
    "edge S D 0.9 0.3",
    "edge S D",
    "link S D 0.5",
    "\ufeff",
)
BAD_VALUES = ("-0.1", "1.5", "nan", "inf")
CONSTANT_FLAGS = tuple(
    f"--{group}-{entry}" for group in ("theta", "upsilon") for entry in ("min", "max", "ind")
)


def _value(draw, good, bad=BAD_VALUES) -> str:
    """Mostly a value from good, one draw in ten from bad."""
    return str(draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 9 else good)))


@st.composite
def cases(draw) -> tuple[str, list[str]]:
    """Topology text and the argv of one invocation on it.

    The topology always holds the edges of one chosen path, which check
    evaluates unless it draws a random path spec instead.
    """
    inner = draw(st.lists(st.sampled_from(INNER), min_size=1, max_size=4, unique=True))
    nodes = ["S", *inner, "D"]
    chosen = ["S", *draw(st.lists(st.sampled_from(inner), unique=True)), "D"]
    edges = {*zip(chosen, chosen[1:])}
    pool = [(src, dst) for src in nodes for dst in nodes if src != dst]
    edges |= {*draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))}
    strict = draw(st.booleans())
    lines = [f"node {node}" for node in nodes] + ["source S", "dest D"]
    for src, dst in sorted(edges):
        trust = draw(TRUST)
        untrust = ("", f"{1 - abs(float(trust))!r}") + ("0", "0.5") * (not strict)
        lines.append(f"edge {src} {dst} {trust} {draw(st.sampled_from(untrust))}")
    lines += draw(st.lists(st.sampled_from(("", "# note")), max_size=1))
    if draw(st.integers(0, 9)) == 9:
        lines.append(draw(st.sampled_from(BAD_LINES)))
    lines = draw(st.permutations(lines))
    newline = draw(st.sampled_from(("\n", "\r\n")))

    command = draw(st.sampled_from(("check", "rank", "route", "enumerate", "fixture", "simulate")))
    fmt = draw(st.sampled_from(("text", "csv", "json")))
    argv = [command, "--topology", "-", "--format", fmt]
    if command == "check":
        if draw(st.integers(0, 3)) == 0:
            middle = draw(st.lists(st.sampled_from((*INNER, "", " a ", "x", "a→b")), max_size=4))
            chosen = ["S", *middle, "D"]
        argv += [",".join(chosen), "--mode", draw(st.sampled_from(("trust", "untrust", "both")))]
    elif command == "rank" and draw(st.booleans()):
        argv += ["--top", _value(draw, (1, 2, 5), (0, -1))]
    elif command == "simulate":
        argv += ["--packets", _value(draw, (1, 7, 50), (0, -1))]
    if draw(st.booleans()):
        argv += ["--decimals", _value(draw, (0, 2, 5, 12), (-1, 13))]
    if draw(st.booleans()):
        argv += ["--cap", _value(draw, (1, 2, 30), (0, -1))]
    argv += [] if strict else ["--no-strict"]
    argv += draw(st.sampled_from(([], ["--chaining=output"])))
    for flag in draw(st.lists(st.sampled_from(CONSTANT_FLAGS), max_size=2, unique=True)):
        argv += [flag, _value(draw, ("0", "-0", "0.49", "0.5", "0.51", "1"))]
    return newline.join(lines) + newline, argv


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_every_invocation_ends_cleanly(case):
    text, argv = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    message = err.getvalue()
    assert message == "" or (message.count("\n") == 1 and message.endswith("\n"))
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json" and code in (0, 2) and argv[0] != "fixture":  # fixture ignores --format
        json.loads(out.getvalue(), parse_constant=_refuse)
